"""Scenario catalog and validated run configuration.

Configs are JSON objects with a ``scenario`` selector plus sections for
physics, grid, numerics, ensemble and output. Parsing fills defaults
from the scenario catalog, rejects any key the catalog does not know
(misspelled physics settings must fail loudly, not silently default),
builds the objects the run will build so that their own range checks
apply, and names the exact dotted path in every diagnostic. The merged
tree is canonical: serializing and reparsing reproduces it bit for bit,
and its SHA-256 content hash is embedded in every output artifact.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .integrator import FiniteSystem, GridSystem, IntegratorConfig
from .operators import GaussianWell, InteractionPair, SoftCoulomb
from .state import FiniteBasis, GridBasis, GridSpec, ParticleSpec, finite_state, gaussian_packet, normalize
from .walk import WalkConfig
from .experiments import ThermalInput, sweep_configs

__all__ = [
    "SCENARIOS",
    "ARTIFACT_VERSION",
    "ConfigError",
    "RunConfig",
    "parse_config",
    "parse_config_data",
]

# 2: NaN (an empty branch's conditional expectation) is written as null
# 3: spectral derivatives are dense matrix products; grid numbers move
#    at rounding level
# 4: the spectral split step applies per-axis propagator matrices; grid
#    numbers move at rounding level
# 5: a grid run's max_norm_drift covers every trajectory, not the first
# 6: two_level_collapse and conservation_suite drop the numerics keys
#    their runs never read; only their config hashes move
# 7: a two-level ensemble's times follow the record clock of its config,
#    not the longest trajectory's own (possibly unrecorded) last time
# 8: grid runs record on the step-index clock too, so grid times are
#    exact multiples of dt; config_hash leaves out the output section
# 9: binary walk signs read all 64 bits of each raw word and Gaussian
#    walk kicks are rounded as s * g, so walk numbers move; walk-scan
#    artifacts add expected_intercept and eraser points exact_cross_prob
# 10: free_packet, two_level_collapse and eraser drop the keys their runs
#    never read, so their config hashes move; kick-mode eraser statistics
#    are evaluated once, not averaged over identical rows, and move at
#    rounding level
# 11: the repulsive rate denominator is a quadratic form over V psi with a
#    symmetric Hessian; repulsive grid numbers move at rounding level
# 12: free_packet, two_level_collapse, grid_scattering and
#    conservation_suite drop the keys every run gave one value
#    (numerics.renormalize, real_noise, stop_on_absorb and, where no run
#    absorbs, absorb_threshold; physics.charges); only their config
#    hashes move
ARTIFACT_VERSION = 12

SCENARIOS = (
    "free_packet",
    "two_level_collapse",
    "grid_scattering",
    "eraser",
    "walk_scan",
    "conservation_suite",
    "thermal",
)

_FORM_DEFAULTS = {
    "gaussian_well": {"depth": -2.0, "width": 1.0},
    "soft_coulomb": {"strength": 1.0, "softening": 0.5},
}

# particles per grid scenario; fixes the lengths of masses and initial data
_GRID_PARTICLES = {"free_packet": 1, "grid_scattering": 2, "conservation_suite": 2}

_COMMON_OUTPUT = {"directory": "out", "formats": ["json", "csv"]}


def _catalog() -> dict:
    scattering_physics = {
        "masses": [1.0, 1.5],
        "c": 28.284271247461902,   # puts |V| / (M c^2) near 1e-3
        "kappa": 1.0,
        "potential": {"form": "gaussian_well", "depth": -2.0, "width": 1.0},
    }
    scattering_initial = {
        "centers": [-0.8, 0.8],
        "widths": [0.9, 0.9],
        "momenta": [0.6, -0.4],
    }
    return {
        "free_packet": {
            "backend": "grid",
            "grid": {"dims": 1, "points_per_axis": 256, "extent": 16.0},
            # one particle and no pair: no collapse term, so no gain,
            # light speed or branch test
            "physics": {"masses": [1.3]},
            "initial": {"centers": [0.0], "widths": [1.0], "momenta": [0.7]},
            "numerics": {
                "dt": 0.002, "n_steps": 1000, "scheme": "split_step_spectral",
                "record_every": 20, "record_observables": ["momentum", "kinetic"],
            },
            "ensemble": {"n_traj": 1, "master_seed": 0},
            "output": dict(_COMMON_OUTPUT),
        },
        "two_level_collapse": {
            "backend": "finite",
            "levels": {
                "weight_in": 0.3,
                "diagonal": [1.0, 0.0],
                "gamma": 4.0,
                "energy_denominator": 2.0,
            },
            "physics": {"kappa": 1.0},
            "numerics": {
                "dt": 0.05, "n_steps": 600, "record_every": 5, "absorb_threshold": 1e-3,
            },
            "ensemble": {"n_traj": 10000, "master_seed": 0},
            "output": dict(_COMMON_OUTPUT),
        },
        "grid_scattering": {
            "backend": "grid",
            "grid": {"dims": 1, "points_per_axis": 64, "extent": 8.0},
            "physics": dict(scattering_physics),
            "initial": dict(scattering_initial),
            "numerics": {
                "dt": 0.003, "n_steps": 200, "scheme": "split_step_spectral",
                "record_every": 5,
                "record_observables": ["momentum", "kinetic", "energy"],
            },
            "ensemble": {"n_traj": 1, "master_seed": 0},
            "output": dict(_COMMON_OUTPUT),
        },
        "eraser": {
            "backend": "finite",
            "eraser": {
                "epsilons": [0.02, 0.05, 0.1],
                "mode": "kick",
                "n_steps": 200,
                "dt": 0.01,
            },
            "ensemble": {"n_traj": 100000, "master_seed": 0},
            "output": dict(_COMMON_OUTPUT),
        },
        "walk_scan": {
            "backend": "finite",
            "walk": {
                "step_scale": 0.05,
                "barrier": None,
                "mode": "binary",
                "max_steps": 1000000,
                "weights": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            },
            "ensemble": {"n_traj": 100000, "master_seed": 0},
            "output": dict(_COMMON_OUTPUT),
        },
        "conservation_suite": {
            "backend": "grid",
            "grid": {"dims": 1, "points_per_axis": 64, "extent": 8.0},
            "physics": {
                "masses": [1.0, 1.5],
                "c": 1.0,
                "kappa": 1.0,
                "potential": {"form": "gaussian_well", "depth": -2.0, "width": 1.0},
            },
            "initial": dict(scattering_initial),
            "numerics": {
                # the suite's runs set their own scheme and recording
                "dt": 0.003, "n_steps": 40,
            },
            "angular": {
                # grazing collision; the impact offset keeps the angular
                # momentum exchange away from the mirror-symmetric zero
                "points_per_axis": 16,
                "extent": 4.5,
                "separation": 0.7,
                "impact_offset": 0.35,
                "width": 1.0,
                "momentum": 0.6,
                "n_steps": 30,
                "dt": 0.008,
                # wrap-safe narrow-packet geometry for the aliasing check
                "spectral": {
                    "points_per_axis": 32,
                    "extent": 5.0,
                    "separation": 0.6,
                    "width": 0.55,
                    "momentum": 0.5,
                    "depth": -1.5,
                    "well_width": 1.2,
                },
            },
            "tolerances": {
                "stencil_ratio_low": 3.0,
                "stencil_ratio_high": 5.0,
                "spectral_residual": 1e-10,
            },
            "ensemble": {"n_traj": 1, "master_seed": 0},
            "output": dict(_COMMON_OUTPUT),
        },
        "thermal": {
            "backend": "finite",
            "thermal": {
                "temperature": 300.0,
                "mass": 4.8e-26,
                "mean_speed": 500.0,
                "mean_separation": 3.4e-9,
                "particle_count": 2.5e25,
                "collision_rate": 1e10,
            },
            "ensemble": {"n_traj": 1, "master_seed": 0},
            "output": dict(_COMMON_OUTPUT),
        },
    }


class ConfigError(ValueError):
    """Invalid configuration; ``path`` names the offending key."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__("%s: %s" % (path, message))


# number leaves that may also be null
_NULLABLE = ("walk.barrier", "thermal.collision_rate")


def _check_tree(user, known, path=""):
    """Reject unknown keys and every leaf whose type is not its default's.

    Where the default is a number the leaf must be a finite number, never
    a bool; where it is an int, an integer of at least 1 (at least 0 when
    the default is 0: catalog ints are counts and seeds). A string default
    asks for a string, and a list default for a list of its first entry's
    type.
    """
    for key, value in user.items():
        here = "%s.%s" % (path, key) if path else key
        if key not in known:
            raise ConfigError(here, "unknown key")
        default = known[key]
        if isinstance(value, dict) != isinstance(default, dict):
            kind = "an object" if isinstance(default, dict) else "a plain value"
            raise ConfigError(here, "expected %s" % kind)
        if isinstance(value, dict):
            _check_tree(value, default, here)
        else:
            _check_leaf(value, default, here)


def _check_leaf(value, default, path):
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(path, "expected a list, got %r" % (value,))
        for item in value if default else ():
            _check_leaf(item, default[0], path)
    elif isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(path, "expected a string, got %r" % (value,))
    elif value is None and path in _NULLABLE:
        return
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "expected a number, got %r" % (value,))
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(path, "must be finite, got %r" % (value,))
    elif isinstance(default, int) and (
            isinstance(value, float) and not value.is_integer()
            or value < min(default, 1)):
        raise ConfigError(path, "expected an integer of at least %d, got %r"
                          % (min(default, 1), value))


def _deep_merge(base, user):
    out = copy.deepcopy(base)
    for key, value in user.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _get(tree, path):
    node = tree
    for part in path.split("."):
        node = node[part]
    return node


def _fields(tree, section, **renamed) -> dict:
    """Config path of each field name a library message may start with."""
    return {**{key: "%s.%s" % (section, key) for key in _get(tree, section)},
            **renamed}


@contextlib.contextmanager
def _reported(default, fields):
    """Raise a ValueError from a library object as a ConfigError.

    The path is that of the first word of the message found in ``fields``
    (library field name -> config path), else ``default``.
    """
    try:
        yield
    except ValueError as exc:
        path = next((fields[word] for word in re.findall(r"\w+", str(exc))
                     if word in fields), default)
        raise ConfigError(path, str(exc)) from exc


def _positive(tree, *paths) -> None:
    """Positivity of the packet and suite parameters no library object checks."""
    for path in paths:
        value = _get(tree, path)
        if not all(v > 0 for v in (value if isinstance(value, list) else [value])):
            raise ConfigError(path, "must be positive, got %r" % (value,))


def _inside_box(tree, path, extent) -> None:
    """Packet centres on the box [-extent, extent) of their grid.

    A list holds the centres themselves; a number v places two packets
    at -v and +v. A packet centred off the box can have no density on
    the grid, and its state then cannot be normalized.
    """
    value = _get(tree, path)
    centres = value if isinstance(value, list) else [-value, value]
    for centre in centres:
        if not -extent <= centre < extent:
            raise ConfigError(path, "packet centre %r lies outside the box "
                              "[%r, %r)" % (centre, -extent, extent))


def _grid_basis(tree, dims, points, extent) -> GridBasis:
    grid = GridSpec(dims=int(dims), points_per_axis=int(points),
                    extent=float(extent))
    masses = _get(tree, "physics.masses")
    return GridBasis(grid, tuple(ParticleSpec(float(m)) for m in masses))


def _spectral_well(section) -> GaussianWell:
    return GaussianWell(float(section["depth"]), float(section["well_width"]))


def _validate(cfg: RunConfig) -> None:
    """Cross-field rules, then the builders the scenario's runner calls.

    The builders construct the library's objects but no arrays, and
    those objects check every range; a ``ValueError`` from one is
    reported at the config path of the field it names.
    """
    scenario, tree = cfg.scenario, cfg.data
    output = tree["output"]
    if not output["directory"]:
        raise ConfigError("output.directory", "expected a nonempty string")
    if not output["formats"] or any(f not in ("json", "csv")
                                    for f in output["formats"]):
        raise ConfigError("output.formats",
                          "expected a nonempty subset of ['csv', 'json']")

    if scenario in _GRID_PARTICLES:
        # a grid GridSpec rejects as a whole is reported at its section
        with _reported("grid", {"dims": "grid.dims", "extent": "grid.extent",
                                "particle": "physics.masses"}):
            basis = cfg.grid_basis()
        n_particles = _GRID_PARTICLES[scenario]
        n_axes = basis.grid.dims * n_particles
        for path, length in (("physics.masses", n_particles),
                             ("initial.centers", n_axes),
                             ("initial.widths", n_axes),
                             ("initial.momenta", n_axes)):
            if len(_get(tree, path)) != length:
                raise ConfigError(path, "expected %d entries, got %d"
                                  % (length, len(_get(tree, path))))
        _positive(tree, "initial.widths")
        _inside_box(tree, "initial.centers", basis.grid.extent)
        pot = tree["physics"].get("potential")
        if pot is not None:
            # a Gaussian well's strength is its depth
            key = "depth" if pot["form"] == "gaussian_well" else "strength"
            with _reported("physics.potential", _fields(
                    tree, "physics.potential", strength="physics.potential." + key)):
                cfg.pairs()

    if "numerics" in tree:
        with _reported("numerics", _fields(
                tree, "numerics", kappa="physics.kappa", c="physics.c")):
            icfg = cfg.integrator_config()
        for name in icfg.record_observables:
            if name in ("momentum_y", "angular_momentum") and basis.grid.dims < 2:
                raise ConfigError("numerics.record_observables",
                                  "%r needs grid.dims >= 2" % (name,))
        if scenario in ("free_packet", "grid_scattering"):
            with _reported("numerics.dt", {}):
                icfg.validate_grid(basis)

    if scenario == "two_level_collapse":
        levels = tree["levels"]
        if not 0.0 < levels["weight_in"] < 1.0:
            raise ConfigError("levels.weight_in", "must lie strictly inside "
                              "(0, 1), got %r" % (levels["weight_in"],))
        with _reported("levels", _fields(tree, "levels")):
            cfg.finite_system()

    if scenario == "eraser":
        eraser = tree["eraser"]
        with _reported("eraser", _fields(tree, "eraser", epsilon="eraser.epsilons",
                                         kick="eraser.epsilons")):
            sweep_configs(eraser["epsilons"], n_traj=cfg.n_traj, mode=eraser["mode"],
                          n_steps=int(eraser["n_steps"]), dt=eraser["dt"])

    if scenario == "walk_scan":
        with _reported("walk", _fields(tree, "walk")):
            theta = cfg.walk_config().barrier_value
        weights = tree["walk"]["weights"]
        if any(not theta < w < 1.0 - theta for w in weights):
            raise ConfigError("walk.weights",
                              "starting weights must lie strictly between the "
                              "barriers (%g, %g)" % (theta, 1.0 - theta))
        if len(set(weights)) < 2:
            raise ConfigError("walk.weights",
                              "the Born-rule fit needs at least two distinct weights")

    if scenario == "conservation_suite":
        angular, spectral = tree["angular"], tree["angular"]["spectral"]
        _positive(tree, "angular.separation", "angular.width",
                  "angular.spectral.separation", "angular.spectral.width",
                  "tolerances.stencil_ratio_low", "tolerances.stencil_ratio_high",
                  "tolerances.spectral_residual")
        tol = tree["tolerances"]
        if not tol["stencil_ratio_low"] < tol["stencil_ratio_high"]:
            raise ConfigError("tolerances.stencil_ratio_high",
                              "must exceed tolerances.stencil_ratio_low")
        with _reported("angular", {"extent": "angular.extent"}):
            _grid_basis(tree, 2, angular["points_per_axis"], angular["extent"])
        for path in ("angular.separation", "angular.impact_offset"):
            _inside_box(tree, path, angular["extent"])
        _inside_box(tree, "angular.spectral.separation", spectral["extent"])
        with _reported("angular.spectral", {"extent": "angular.spectral.extent",
                                            "strength": "angular.spectral.depth",
                                            "width": "angular.spectral.well_width"}):
            _grid_basis(tree, 2, spectral["points_per_axis"], spectral["extent"])
            _spectral_well(spectral)
        # the suite steps with the stencil scheme on grids twice as fine
        # as the configured ones
        for block, fine in (
                ("numerics", cfg.grid_basis(2 * basis.grid.points_per_axis)),
                ("angular", _grid_basis(tree, 2, 2 * angular["points_per_axis"],
                                        angular["extent"]))):
            with _reported(block + ".dt", {}):
                cfg.suite_integrator_config(block).validate_grid(fine)

    if scenario == "thermal":
        with _reported("thermal", _fields(tree, "thermal")):
            cfg.thermal_input()


@dataclass(frozen=True)
class RunConfig:
    """Fully merged and validated scenario configuration."""

    scenario: str
    data: dict

    def content_hash(self) -> str:
        """Hash of the physics and numerics: every section but ``output``."""
        tree = {key: value for key, value in self.data.items() if key != "output"}
        canonical = json.dumps(tree, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def section(self, name: str) -> dict:
        return self.data[name]

    @property
    def master_seed(self) -> int:
        return int(self.data.get("ensemble", {}).get("master_seed", 0))

    @property
    def n_traj(self) -> int:
        return int(self.data.get("ensemble", {}).get("n_traj", 1))

    @property
    def out_directory(self) -> str:
        return self.data["output"]["directory"]

    @property
    def formats(self) -> tuple[str, ...]:
        return tuple(self.data["output"]["formats"])

    def with_overrides(self, master_seed=None, n_traj=None,
                       directory=None) -> "RunConfig":
        data = copy.deepcopy(self.data)
        if master_seed is not None:
            data.setdefault("ensemble", {})["master_seed"] = int(master_seed)
        if n_traj is not None:
            data.setdefault("ensemble", {})["n_traj"] = int(n_traj)
        if directory is not None:
            data["output"]["directory"] = directory
        return parse_config_data(data)

    # construction helpers for the scenario runners

    def grid_basis(self, points: int | None = None) -> GridBasis:
        """The configured grid, or one with ``points`` per axis."""
        grid = self.data["grid"]
        return _grid_basis(self.data, grid["dims"], grid["points_per_axis"]
                           if points is None else points, grid["extent"])

    def initial_state(self, basis: GridBasis):
        init = self.data["initial"]
        return normalize(gaussian_packet(basis, init["centers"], init["widths"],
                                         init["momenta"]))

    def pairs(self) -> list[InteractionPair]:
        physics = self.data["physics"]
        if "potential" not in physics:
            return []
        pot = physics["potential"]
        if pot["form"] == "gaussian_well":
            potential = GaussianWell(float(pot["depth"]), pot["width"])
        else:
            potential = SoftCoulomb(float(pot["strength"]), pot["softening"])
        return [InteractionPair(0, 1, potential)]

    def system(self, points: int | None = None) -> GridSystem:
        """The configured grid system, or one with ``points`` per axis."""
        return GridSystem(self.grid_basis(points), self.pairs())

    def angular_system(self, points: int | None = None, spectral: bool = False):
        """System and initial state of a 2-D conservation-suite block.

        The ``angular`` section describes a grazing collision on
        ``points`` per axis (default: its own count) with the configured
        pair potential; with ``spectral`` the ``angular.spectral``
        section describes a head-on pass on its own grid with its own
        well.
        """
        section = self.data["angular"]
        if spectral:
            section = section["spectral"]
        basis = _grid_basis(self.data, 2, section["points_per_axis"]
                            if points is None else points, section["extent"])
        sep, off = float(section["separation"]), float(section.get("impact_offset", 0.0))
        width, k = float(section["width"]), float(section["momentum"])
        state = normalize(gaussian_packet(basis,
                                          centers=(-sep, -off, sep, off),
                                          widths=(width,) * 4,
                                          momenta=(k, 0.0, -k, 0.0)))
        if spectral:
            pairs = [InteractionPair(0, 1, _spectral_well(section))]
        else:
            pairs = self.pairs()
        return GridSystem(basis, pairs), state

    def suite_integrator_config(self, section: str) -> IntegratorConfig:
        """Stencil run of one conservation-suite block.

        ``section`` is ``"numerics"`` (the momentum block) or
        ``"angular"``; its ``dt`` and ``n_steps`` set the run, and only
        the initial and final states are recorded.
        """
        block = self.data[section]
        n_steps = int(block["n_steps"])
        return self.integrator_config(scheme="crank_nicolson_stencil",
                                      n_steps=n_steps, dt=float(block["dt"]),
                                      record_every=n_steps)

    def integrator_config(self, **overrides) -> IntegratorConfig:
        """The scenario's ``numerics`` keys and physics gain; ``overrides``
        replace them, and a key neither gives keeps its default."""
        physics = self.data.get("physics", {})
        kwargs = dict(self.data["numerics"], kappa=physics.get("kappa", 1.0),
                      c=physics.get("c", 1.0))
        for key in ("n_steps", "record_every"):
            if key in kwargs:
                kwargs[key] = int(kwargs[key])
        if "record_observables" in kwargs:
            kwargs["record_observables"] = tuple(kwargs["record_observables"])
        kwargs.update(overrides)
        return IntegratorConfig(**kwargs)

    def finite_system(self):
        """The two-level system and its initial state."""
        levels = self.data["levels"]
        basis = FiniteBasis(("in", "out"))
        w = float(levels["weight_in"])
        state = finite_state(basis, np.array([np.sqrt(w), np.sqrt(1.0 - w)],
                                             dtype=complex))
        system = FiniteSystem(basis, levels["diagonal"], gamma=levels["gamma"],
                              energy_denominator=levels["energy_denominator"])
        return system, state

    def walk_config(self) -> WalkConfig:
        walk = self.data["walk"]
        return WalkConfig(step_scale=walk["step_scale"], barrier=walk["barrier"],
                          mode=walk["mode"], max_steps=int(walk["max_steps"]))

    def thermal_input(self) -> ThermalInput:
        th = self.data["thermal"]
        return ThermalInput(temperature=th["temperature"], mass=th["mass"],
                            mean_speed=th["mean_speed"],
                            mean_separation=th["mean_separation"],
                            particle_count=th["particle_count"],
                            collision_rate=th["collision_rate"])


def parse_config_data(data: dict) -> RunConfig:
    """Validate a config tree and fill scenario defaults."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", "expected a JSON object")
    if "scenario" not in data:
        raise ConfigError("scenario", "required")
    scenario = data["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError("scenario", "unknown scenario %r; choose from %s"
                          % (scenario, list(SCENARIOS)))
    defaults = _catalog()[scenario]
    user = {k: v for k, v in data.items() if k != "scenario"}

    # switching the potential form replaces that subtree's defaults
    pot = user.get("physics", {}).get("potential") if isinstance(
        user.get("physics"), dict) else None
    if isinstance(pot, dict) and "potential" in defaults.get("physics", {}):
        form = pot.get("form", defaults["physics"]["potential"]["form"])
        if form not in tuple(_FORM_DEFAULTS):
            raise ConfigError("physics.potential.form",
                              "must be one of %s, got %r"
                              % (sorted(_FORM_DEFAULTS), form))
        defaults["physics"]["potential"] = {"form": form, **_FORM_DEFAULTS[form]}

    _check_tree(user, defaults)
    # the key only labels the catalog entry; every scenario has one backend
    if user.get("backend", defaults["backend"]) != defaults["backend"]:
        raise ConfigError("backend", "scenario %r runs on the %r backend, got %r"
                          % (scenario, defaults["backend"], user["backend"]))
    cfg = RunConfig(scenario=scenario,
                    data={"scenario": scenario, **_deep_merge(defaults, user)})
    _validate(cfg)
    return cfg


def parse_config(path: str) -> RunConfig:
    """Read, parse and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(path, "config file not found") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(path, "invalid JSON: %s" % exc) from exc
    return parse_config_data(data)

"""Scenario catalog and validated run configuration.

Configs are JSON objects with a ``scenario`` selector plus sections for
physics, grid, numerics, ensemble and output. Parsing fills defaults
from the scenario catalog, rejects any key the catalog does not know
(misspelled physics settings must fail loudly, not silently default),
and names the exact dotted path in every diagnostic. The merged tree is
canonical: serializing and reparsing reproduces it bit for bit, and its
SHA-256 content hash is embedded in every output artifact.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .integrator import OBSERVABLES, SCHEMES, IntegratorConfig
from .operators import GaussianWell, InteractionPair, SoftCoulomb
from .state import FiniteBasis, GridBasis, GridSpec, ParticleSpec, finite_state, gaussian_packet, normalize
from .walk import MODES as WALK_MODES
from .walk import WalkConfig
from .experiments import ThermalInput

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
ARTIFACT_VERSION = 3

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
        "charges": [1.0, 1.0],
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
            "physics": {"masses": [1.3], "charges": [1.0], "c": 1.0, "kappa": 0.0},
            "initial": {"centers": [0.0], "widths": [1.0], "momenta": [0.7]},
            "numerics": {
                "dt": 0.002, "n_steps": 1000, "scheme": "split_step_spectral",
                "record_every": 20, "absorb_threshold": 1e-3,
                "stop_on_absorb": False, "renormalize": True, "real_noise": False,
                "record_observables": ["momentum", "kinetic"],
            },
            "ensemble": {"n_traj": 1, "master_seed": 0},
            "output": dict(_COMMON_OUTPUT),
        },
        "two_level_collapse": {
            "backend": "finite",
            "levels": {
                "labels": ["in", "out"],
                "weight_in": 0.3,
                "diagonal": [1.0, 0.0],
                "gamma": 4.0,
                "energy_denominator": 2.0,
            },
            "physics": {"kappa": 1.0},
            "numerics": {
                "dt": 0.05, "n_steps": 600, "scheme": "split_step_spectral",
                "record_every": 5, "absorb_threshold": 1e-3,
                "stop_on_absorb": True, "renormalize": True, "real_noise": False,
                "record_observables": [],
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
                "record_every": 5, "absorb_threshold": 1e-3,
                "stop_on_absorb": False, "renormalize": True, "real_noise": False,
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
                "sign": "random",
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
                "charges": [1.0, 1.0],
                "c": 1.0,
                "kappa": 1.0,
                "potential": {"form": "gaussian_well", "depth": -2.0, "width": 1.0},
            },
            "initial": dict(scattering_initial),
            "numerics": {
                "dt": 0.003, "n_steps": 40, "scheme": "split_step_spectral",
                "record_every": 1, "absorb_threshold": 1e-3,
                "stop_on_absorb": False, "renormalize": True, "real_noise": False,
                "record_observables": [],
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


def _reject_unknown(user, known, path):
    for key, value in user.items():
        here = "%s.%s" % (path, key) if path else key
        if not isinstance(known, dict) or key not in known:
            raise ConfigError(here, "unknown key")
        if isinstance(value, dict) and isinstance(known[key], dict):
            _reject_unknown(value, known[key], here)
        elif isinstance(value, dict) != isinstance(known[key], dict):
            kind = "an object" if isinstance(known[key], dict) else "a plain value"
            raise ConfigError(here, "expected %s" % kind)


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


def _is_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float))


def _nonfinite(value) -> bool:
    # JSON's NaN and Infinity tokens parse to floats; ints are always finite
    return isinstance(value, float) and not math.isfinite(value)


def _number(tree, path, positive=False, nonnegative=False, integer=False):
    value = _get(tree, path)
    if not _is_number(value):
        raise ConfigError(path, "expected a number, got %r" % (value,))
    if _nonfinite(value):
        raise ConfigError(path, "must be finite, got %r" % (value,))
    if integer and not float(value).is_integer():
        raise ConfigError(path, "expected an integer, got %r" % (value,))
    if positive and not value > 0:
        raise ConfigError(path, "must be positive, got %r" % (value,))
    if nonnegative and value < 0:
        raise ConfigError(path, "cannot be negative, got %r" % (value,))
    return value


def _number_list(tree, path, length=None, positive=False):
    values = _get(tree, path)
    if not isinstance(values, list) or not values:
        raise ConfigError(path, "expected a nonempty list")
    for v in values:
        if not _is_number(v):
            raise ConfigError(path, "expected numbers, got %r" % (v,))
        if _nonfinite(v):
            raise ConfigError(path, "entries must be finite, got %r" % (v,))
        if positive and not v > 0:
            raise ConfigError(path, "entries must be positive, got %r" % (v,))
    if length is not None and len(values) != length:
        raise ConfigError(path, "expected %d entries, got %d" % (length, len(values)))
    return values


def _choice(tree, path, options):
    value = _get(tree, path)
    if value not in options:
        raise ConfigError(path, "must be one of %s, got %r" % (sorted(options), value))
    return value


def _grid_spec(tree, path, dims) -> GridSpec:
    """The grid of a section that carries ``points_per_axis`` and ``extent``."""
    try:
        return GridSpec(dims=dims,
                        points_per_axis=int(_get(tree, path + ".points_per_axis")),
                        extent=float(_get(tree, path + ".extent")))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _grid_basis(tree, dims, points, extent) -> GridBasis:
    grid = GridSpec(dims=int(dims), points_per_axis=int(points),
                    extent=float(extent))
    masses = _get(tree, "physics.masses")
    return GridBasis(grid, tuple(ParticleSpec(float(m)) for m in masses))


def _check_stencil_dt(tree, path, dims, points, extent) -> None:
    """Stencil stability of the time step at ``path`` on the given grid."""
    config = IntegratorConfig(dt=float(_get(tree, path)), n_steps=1,
                              scheme="crank_nicolson_stencil")
    try:
        config.validate_grid(_grid_basis(tree, dims, points, extent))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _validate(scenario: str, tree: dict) -> None:
    _choice(tree, "backend", ("grid", "finite"))
    if "output" in tree:
        directory = _get(tree, "output.directory")
        if not isinstance(directory, str) or not directory:
            raise ConfigError("output.directory", "expected a nonempty string")
        formats = _get(tree, "output.formats")
        if (not isinstance(formats, list) or not formats
                or any(f not in ("json", "csv") for f in formats)):
            raise ConfigError("output.formats",
                              "expected a nonempty subset of ['csv', 'json']")
    if "ensemble" in tree:
        _number(tree, "ensemble.n_traj", positive=True, integer=True)
        _number(tree, "ensemble.master_seed", nonnegative=True, integer=True)

    if scenario in _GRID_PARTICLES:
        n_particles = _GRID_PARTICLES[scenario]
        _number(tree, "grid.dims", positive=True, integer=True)
        _number(tree, "grid.points_per_axis", positive=True, integer=True)
        _number(tree, "grid.extent", positive=True)
        grid = _grid_spec(tree, "grid", int(_get(tree, "grid.dims")))
        _number_list(tree, "physics.masses", length=n_particles, positive=True)
        _number_list(tree, "physics.charges", length=n_particles)
        _number(tree, "physics.c", positive=True)
        _number(tree, "physics.kappa", nonnegative=True)
        if "potential" in tree["physics"]:
            form = _choice(tree, "physics.potential.form", tuple(_FORM_DEFAULTS))
            for key in _FORM_DEFAULTS[form]:
                _number(tree, "physics.potential.%s" % key)
            if form == "gaussian_well":
                _number(tree, "physics.potential.width", positive=True)
            else:
                _number(tree, "physics.potential.softening", positive=True)
        n_axes = int(_get(tree, "grid.dims")) * n_particles
        _number_list(tree, "initial.centers", length=n_axes)
        _number_list(tree, "initial.widths", length=n_axes, positive=True)
        _number_list(tree, "initial.momenta", length=n_axes)

    if "numerics" in tree:
        _number(tree, "numerics.dt", positive=True)
        _number(tree, "numerics.n_steps", positive=True, integer=True)
        _choice(tree, "numerics.scheme", tuple(SCHEMES))
        _number(tree, "numerics.record_every", positive=True, integer=True)
        threshold = _number(tree, "numerics.absorb_threshold", positive=True)
        if not threshold < 0.5:
            raise ConfigError("numerics.absorb_threshold",
                              "must be below 0.5, got %r" % (threshold,))
        for key in ("stop_on_absorb", "renormalize", "real_noise"):
            if not isinstance(_get(tree, "numerics.%s" % key), bool):
                raise ConfigError("numerics.%s" % key, "expected true or false")
        observables = _get(tree, "numerics.record_observables")
        if not isinstance(observables, list):
            raise ConfigError("numerics.record_observables", "expected a list")
        for name in observables:
            if name not in OBSERVABLES:
                raise ConfigError("numerics.record_observables",
                                  "unknown observable %r; choose from %s"
                                  % (name, list(OBSERVABLES)))
            if scenario not in _GRID_PARTICLES:
                # the finite-basis runners pass no Hamiltonian to observe
                raise ConfigError("numerics.record_observables",
                                  "a finite-basis run records no observables, got %r"
                                  % (name,))
            if name in ("momentum_y", "angular_momentum") and grid.dims < 2:
                raise ConfigError("numerics.record_observables",
                                  "%r needs grid.dims >= 2" % (name,))
        if (scenario in _GRID_PARTICLES and scenario != "conservation_suite"
                and _get(tree, "numerics.scheme") == "crank_nicolson_stencil"):
            _check_stencil_dt(tree, "numerics.dt", grid.dims,
                              grid.points_per_axis, grid.extent)

    if scenario == "two_level_collapse":
        labels = _get(tree, "levels.labels")
        if (not isinstance(labels, list) or len(labels) != 2
                or not all(isinstance(v, str) for v in labels)):
            raise ConfigError("levels.labels", "expected two level names")
        weight = _number(tree, "levels.weight_in", positive=True)
        if not weight < 1.0:
            raise ConfigError("levels.weight_in",
                              "must lie strictly inside (0, 1), got %r" % (weight,))
        _number_list(tree, "levels.diagonal", length=2)
        _number(tree, "levels.gamma", positive=True)
        _number(tree, "levels.energy_denominator", positive=True)

    if scenario == "eraser":
        eps = _number_list(tree, "eraser.epsilons", positive=True)
        if any(e >= 0.5 for e in eps):
            raise ConfigError("eraser.epsilons", "kick sizes must be below 0.5")
        _choice(tree, "eraser.mode", ("kick", "sde"))
        _choice(tree, "eraser.sign", ("random", "plus", "minus"))
        _number(tree, "eraser.n_steps", positive=True, integer=True)
        _number(tree, "eraser.dt", positive=True)

    if scenario == "walk_scan":
        scale = _number(tree, "walk.step_scale", positive=True)
        if scale > 1.0:
            raise ConfigError("walk.step_scale", "must be at most 1")
        barrier = _get(tree, "walk.barrier")
        if barrier is not None:
            _number(tree, "walk.barrier", positive=True)
            if not barrier < 0.5:
                raise ConfigError("walk.barrier", "must be below 0.5")
        _choice(tree, "walk.mode", WALK_MODES)
        _number(tree, "walk.max_steps", positive=True, integer=True)
        weights = _number_list(tree, "walk.weights")
        theta = WalkConfig(step_scale=scale, barrier=barrier).barrier_value
        if any(not theta < w < 1.0 - theta for w in weights):
            raise ConfigError("walk.weights",
                              "starting weights must lie strictly between the "
                              "barriers (%g, %g)" % (theta, 1.0 - theta))
        if len(set(weights)) < 2:
            raise ConfigError("walk.weights",
                              "the Born-rule fit needs at least two distinct weights")

    if scenario == "conservation_suite":
        _number(tree, "angular.points_per_axis", positive=True, integer=True)
        _number(tree, "angular.extent", positive=True)
        _number(tree, "angular.separation", positive=True)
        _number(tree, "angular.impact_offset")
        _number(tree, "angular.width", positive=True)
        _number(tree, "angular.momentum")
        _number(tree, "angular.n_steps", positive=True, integer=True)
        _number(tree, "angular.dt", positive=True)
        _number(tree, "angular.spectral.points_per_axis", positive=True,
                integer=True)
        _number(tree, "angular.spectral.extent", positive=True)
        _number(tree, "angular.spectral.separation", positive=True)
        _number(tree, "angular.spectral.width", positive=True)
        _number(tree, "angular.spectral.momentum")
        _number(tree, "angular.spectral.depth")
        _number(tree, "angular.spectral.well_width", positive=True)
        angular = _grid_spec(tree, "angular", 2)
        _grid_spec(tree, "angular.spectral", 2)
        # the suite steps with the stencil scheme on grids twice as fine
        # as the configured ones, whatever numerics.scheme says
        _check_stencil_dt(tree, "numerics.dt", grid.dims,
                          2 * grid.points_per_axis, grid.extent)
        _check_stencil_dt(tree, "angular.dt", 2,
                          2 * angular.points_per_axis, angular.extent)
        low = _number(tree, "tolerances.stencil_ratio_low", positive=True)
        high = _number(tree, "tolerances.stencil_ratio_high", positive=True)
        if not low < high:
            raise ConfigError("tolerances.stencil_ratio_high",
                              "must exceed tolerances.stencil_ratio_low")
        _number(tree, "tolerances.spectral_residual", positive=True)

    if scenario == "thermal":
        _number(tree, "thermal.temperature", nonnegative=True)
        for key in ("mass", "mean_speed", "mean_separation", "particle_count"):
            _number(tree, "thermal.%s" % key, positive=True)
        if _get(tree, "thermal.collision_rate") is not None:
            _number(tree, "thermal.collision_rate", positive=True)


@dataclass(frozen=True)
class RunConfig:
    """Fully merged and validated scenario configuration."""

    scenario: str
    data: dict

    def serialize(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2) + "\n"

    def content_hash(self) -> str:
        canonical = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
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
        coupling = float(np.prod(physics["charges"]))
        if pot["form"] == "gaussian_well":
            potential = GaussianWell(coupling * pot["depth"], pot["width"])
        else:
            potential = SoftCoulomb(coupling * pot["strength"], pot["softening"])
        return [InteractionPair(0, 1, potential)]

    def angular_system(self, points: int | None = None, spectral: bool = False):
        """Basis, state and pairs of a 2-D conservation-suite block.

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
            pairs = [InteractionPair(0, 1, GaussianWell(
                float(section["depth"]), float(section["well_width"])))]
        else:
            pairs = self.pairs()
        return basis, state, pairs

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
                                      record_every=n_steps,
                                      record_observables=())

    def integrator_config(self, **overrides) -> IntegratorConfig:
        num = dict(self.data["numerics"])
        physics = self.data.get("physics", {})
        kwargs = {
            "dt": num["dt"], "n_steps": int(num["n_steps"]),
            "scheme": num["scheme"], "kappa": physics.get("kappa", 1.0),
            "c": physics.get("c", 1.0), "renormalize": num["renormalize"],
            "real_noise": num["real_noise"],
            "record_every": int(num["record_every"]),
            "absorb_threshold": num["absorb_threshold"],
            "stop_on_absorb": num["stop_on_absorb"],
            "record_observables": tuple(num["record_observables"]),
        }
        if self.scenario == "two_level_collapse":
            levels = self.data["levels"]
            kwargs["gamma_override"] = levels["gamma"]
            kwargs["energy_denominator"] = levels["energy_denominator"]
        kwargs.update(overrides)
        return IntegratorConfig(**kwargs)

    def finite_system(self):
        levels = self.data["levels"]
        basis = FiniteBasis(tuple(levels["labels"]))
        w = float(levels["weight_in"])
        state = finite_state(basis, np.array([np.sqrt(w), np.sqrt(1.0 - w)],
                                             dtype=complex))
        return basis, state, np.asarray(levels["diagonal"], dtype=float)

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
        if form not in _FORM_DEFAULTS:
            raise ConfigError("physics.potential.form",
                              "must be one of %s, got %r"
                              % (sorted(_FORM_DEFAULTS), form))
        defaults["physics"]["potential"] = {"form": form, **_FORM_DEFAULTS[form]}

    _reject_unknown(user, defaults, "")
    merged = _deep_merge(defaults, user)
    _validate(scenario, merged)
    return RunConfig(scenario=scenario, data={"scenario": scenario, **merged})


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

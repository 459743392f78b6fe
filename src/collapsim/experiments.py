"""Packaged estimate runners: eraser correlations and thermal rates.

The eraser model splits a target particle over an interacting branch I
and a noninteracting branch O, lets a detector particle correlate with
the branch choice, then measures both particles in the complementary
symmetric/antisymmetric basis. Linear evolution leaves the S/A outcomes
perfectly correlated; a branch-dependent amplitude shift during the
interaction leaks probability into the S-A cross outcomes. The shift is
applied either as one aggregated multiplicative kick of relative size
epsilon per branch (the interaction integrated into a single factor) or
as a resolved stochastic run on the four-dimensional backend.

The thermal calculator is plain SI arithmetic: the squared ratio of the
per-collision interaction energy kT to the single-particle rest energy,
times the collision rate, gives the fractional energy-change rate, and
the system's thermal energy converts that into joules per year.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, K_BOLTZMANN, SECONDS_PER_YEAR
from .integrator import FiniteSystem, IntegratorConfig, run_trajectory
from .state import FiniteBasis, finite_state

__all__ = [
    "ERASER_LABELS",
    "EraserConfig",
    "EraserResult",
    "EraserSweep",
    "kick_cross_probability",
    "eraser_run",
    "sweep_configs",
    "eraser_sweep",
    "ThermalInput",
    "ThermalEstimate",
    "thermal_estimate",
]

# joint branch labels, target then detector
ERASER_LABELS = ("II", "IO", "OI", "OO")
# amplitude of each of the interacting and noninteracting branches after
# the correlating step
BRANCH_AMPLITUDE = 2.0 ** -0.5


@dataclass(frozen=True)
class EraserConfig:
    """One eraser ensemble: kick size, mode, and trajectory count.

    ``epsilon`` is the aggregated relative amplitude shift of one full
    interaction. ``mode`` is "kick" for the single-factor model or
    "sde" for a resolved stochastic run whose integrated noise has unit
    variance. The kick's statistics are even in its sign: a kick of
    either sign swaps the two branch amplitudes.
    """

    epsilon: float
    n_traj: int = 100_000
    mode: str = "kick"
    n_steps: int = 200
    dt: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 0.5:
            raise ValueError("epsilon must lie in [0, 0.5), got %r" % (self.epsilon,))
        if self.n_traj < 1:
            raise ValueError("n_traj must be at least 1")
        if self.mode not in ("kick", "sde"):
            raise ValueError("mode must be 'kick' or 'sde', got %r" % (self.mode,))
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class EraserResult:
    """Outcome statistics of one eraser ensemble.

    ``cross_term_probability`` is the mean probability that target and
    detector disagree (SA or AS). Outcome probabilities are computed in
    closed form: once in kick mode, whose ``cross_sem`` is zero, and per
    resolved run in sde mode, whose noise alone sets ``cross_sem``.
    """

    epsilon: float
    cross_term_probability: float
    cross_sem: float


def kick_cross_probability(epsilon: float) -> float:
    """Exact cross probability of a +-epsilon kick on equal branches."""
    return epsilon ** 2 / (1.0 + epsilon ** 2)


def _statistics(alpha: np.ndarray, beta: np.ndarray):
    """Per-run probability of one S/A cross outcome (SA or AS) for
    amplitudes on II and OO."""
    sa = 0.5 * np.abs(alpha - beta) ** 2
    norm = np.abs(alpha) ** 2 + np.abs(beta) ** 2
    # SA and AS collect (alpha-beta)/2 each
    return 0.5 * sa / norm


def _sde_final_amplitudes(config: EraserConfig, seed: int):
    """Final II and OO amplitudes of the ensemble's resolved runs, run i
    seeded ``seed + i``: branch-selective diagonal, unit integrated noise."""
    basis = FiniteBasis(ERASER_LABELS)
    initial = finite_state(basis, np.array([BRANCH_AMPLITUDE, 0.0, 0.0, BRANCH_AMPLITUDE],
                                           dtype=complex))
    system = FiniteSystem(basis, (1.0, 0.0, 0.0, 0.0),
                          gamma=1.0 / (config.n_steps * config.dt),
                          energy_denominator=1.0)
    run_cfg = IntegratorConfig(
        dt=config.dt, n_steps=config.n_steps, kappa=2.0 * config.epsilon,
        real_noise=True, record_every=config.n_steps)
    finals = np.array([run_trajectory(system, initial, run_cfg, seed=seed + i)
                       .final_state.amplitudes for i in range(config.n_traj)])
    return finals[:, 0], finals[:, 3]


def eraser_run(config: EraserConfig, seed: int = 0) -> EraserResult:
    """Ensemble statistics of the branch-shifted eraser.

    With epsilon = 0 both modes reduce to the exact basis rewriting and
    the cross probability is identically zero.
    """
    if config.mode == "kick":
        # every trajectory gives this one row, whatever its kick's sign
        alpha = BRANCH_AMPLITUDE * (1.0 + config.epsilon)
        beta = BRANCH_AMPLITUDE * (1.0 - config.epsilon)
    else:
        alpha, beta = _sde_final_amplitudes(config, seed)
    p_cross = _statistics(alpha, beta)
    cross = float(2.0 * np.mean(p_cross))
    sem = float(2.0 * np.std(p_cross) / np.sqrt(config.n_traj))
    return EraserResult(epsilon=config.epsilon, cross_term_probability=cross,
                        cross_sem=sem)


@dataclass(frozen=True)
class EraserSweep:
    """Cross probability against kick size, with a log-log power fit.

    Each row carries the measured ``cross_prob`` next to the kick
    model's exact ``exact_cross_prob``.
    """

    results: tuple[EraserResult, ...]
    slope: float
    intercept: float

    def rows(self) -> list[dict]:
        out = []
        for r in self.results:
            half = 1.96 * r.cross_sem
            out.append({
                "epsilon": r.epsilon,
                "cross_prob": r.cross_term_probability,
                "exact_cross_prob": kick_cross_probability(r.epsilon),
                "ci_low": max(r.cross_term_probability - half, 0.0),
                "ci_high": r.cross_term_probability + half,
            })
        return out

    def to_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "points": self.rows()}


def sweep_configs(epsilons, n_traj: int = 100_000, mode: str = "kick",
                  **config_kwargs) -> list[EraserConfig]:
    """One ensemble config per kick size; the log fit needs two distinct."""
    epsilons = [float(e) for e in epsilons]
    if len(set(epsilons)) < 2:
        raise ValueError("a sweep needs at least two distinct kick sizes")
    if any(e <= 0.0 for e in epsilons):
        raise ValueError("sweep kick sizes must be positive for the log fit")
    return [EraserConfig(epsilon=eps, n_traj=n_traj, mode=mode, **config_kwargs)
            for eps in epsilons]


def eraser_sweep(epsilons, n_traj: int = 100_000, mode: str = "kick",
                 seed: int = 0, **config_kwargs) -> EraserSweep:
    """Run one ensemble per kick size and fit log cross vs log epsilon."""
    configs = sweep_configs(epsilons, n_traj, mode, **config_kwargs)
    # stride keeps sde-mode per-run seeds disjoint between points
    results = [eraser_run(cfg, seed=seed + i * n_traj)
               for i, cfg in enumerate(configs)]
    x = np.log10([cfg.epsilon for cfg in configs])
    y = np.log10([r.cross_term_probability for r in results])
    slope, intercept = np.polyfit(x, y, 1)
    return EraserSweep(results=tuple(results), slope=float(slope),
                       intercept=float(intercept))


# ---------------------------------------------------------------------------
# Thermal-rate arithmetic


@dataclass(frozen=True)
class ThermalInput:
    """Macroscopic system parameters, SI units.

    ``collision_rate`` may be supplied directly (kinetic-theory value);
    otherwise the crude speed-over-separation estimate is used.
    ``particle_count`` is a float so mole-scale counts keep full range.
    """

    temperature: float        # K
    mass: float               # kg per particle
    mean_speed: float         # m/s
    mean_separation: float    # m
    particle_count: float
    collision_rate: float | None = None

    def __post_init__(self):
        if self.temperature < 0.0:
            raise ValueError("temperature cannot be negative")
        for name in ("mass", "mean_speed", "mean_separation", "particle_count"):
            if not getattr(self, name) > 0.0:
                raise ValueError("%s must be positive" % name)
        if self.collision_rate is not None and not self.collision_rate > 0.0:
            raise ValueError("collision_rate must be positive when supplied")

    @property
    def rate(self) -> float:
        if self.collision_rate is not None:
            return self.collision_rate
        return self.mean_speed / self.mean_separation


@dataclass(frozen=True)
class ThermalEstimate:
    """Fractional energy-change rate and its yearly integral."""

    inputs: ThermalInput
    interaction_energy: float   # kT, J
    rest_energy: float          # m c^2, J
    energy_ratio: float
    collision_rate: float
    fractional_rate: float      # ratio^2 times collision rate, 1/s
    thermal_energy: float       # N k T, J
    joules_per_year: float

    def to_dict(self) -> dict:
        return {
            "temperature": self.inputs.temperature,
            "mass": self.inputs.mass,
            "particle_count": self.inputs.particle_count,
            "interaction_energy": self.interaction_energy,
            "rest_energy": self.rest_energy,
            "energy_ratio": self.energy_ratio,
            "collision_rate": self.collision_rate,
            "fractional_rate": self.fractional_rate,
            "thermal_energy": self.thermal_energy,
            "joules_per_year": self.joules_per_year,
        }


def thermal_estimate(inputs: ThermalInput, c: float = C_LIGHT) -> ThermalEstimate:
    """Pure arithmetic: (kT / mc^2)^2 X, scaled to joules per year."""
    if not c > 0.0:
        raise ValueError("c must be positive")
    interaction = K_BOLTZMANN * inputs.temperature
    rest = inputs.mass * c * c
    ratio = interaction / rest
    rate = inputs.rate
    fractional = ratio * ratio * rate
    thermal = inputs.particle_count * interaction
    return ThermalEstimate(
        inputs=inputs,
        interaction_energy=interaction,
        rest_energy=rest,
        energy_ratio=ratio,
        collision_rate=rate,
        fractional_rate=fractional,
        thermal_energy=thermal,
        joules_per_year=fractional * thermal * SECONDS_PER_YEAR,
    )

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
    "sa_rotation",
    "kick_cross_probability",
    "eraser_run",
    "sweep_configs",
    "eraser_sweep",
    "BoundCheck",
    "eraser_bound_check",
    "ThermalInput",
    "ThermalEstimate",
    "thermal_estimate",
    "AIR_STP",
]

# joint branch labels, target then detector
ERASER_LABELS = ("II", "IO", "OI", "OO")

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def sa_rotation() -> np.ndarray:
    """Amplitude map from the I/O product basis to the S/A product basis."""
    return np.kron(_HADAMARD, _HADAMARD)


@dataclass(frozen=True)
class EraserConfig:
    """One eraser ensemble: kick size, mode, and trajectory count.

    ``epsilon`` is the aggregated relative amplitude shift of one full
    interaction. ``mode`` is "kick" for the single-factor model or
    "sde" for a resolved stochastic run whose integrated noise has unit
    variance. ``sign`` fixes the kick direction or randomizes it per
    trajectory. ``amplitudes`` are the interacting/noninteracting
    branch weights after the correlating step.
    """

    epsilon: float
    n_traj: int = 100_000
    mode: str = "kick"
    sign: str = "random"
    amplitudes: tuple[float, float] = (2.0 ** -0.5, 2.0 ** -0.5)
    n_steps: int = 200
    dt: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 0.5:
            raise ValueError("epsilon must lie in [0, 0.5), got %r" % (self.epsilon,))
        if self.n_traj < 1:
            raise ValueError("n_traj must be at least 1")
        if self.mode not in ("kick", "sde"):
            raise ValueError("mode must be 'kick' or 'sde', got %r" % (self.mode,))
        if self.sign not in ("random", "plus", "minus"):
            raise ValueError("sign must be 'random', 'plus' or 'minus'")
        if len(self.amplitudes) != 2:
            raise ValueError("amplitudes must be the (I, O) branch pair")
        norm_sq = abs(self.amplitudes[0]) ** 2 + abs(self.amplitudes[1]) ** 2
        if abs(norm_sq - 1.0) > 1e-9:
            raise ValueError("branch amplitudes must be normalized")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class EraserResult:
    """Outcome statistics of one eraser ensemble.

    ``correlation_matrix`` holds the mean outcome probabilities indexed
    [target S/A, detector S/A]; the cross probability is the sum of its
    off-diagonal. Per-trajectory outcome probabilities are computed in
    closed form and averaged, so only the kick randomness contributes
    to ``cross_sem``.
    """

    epsilon: float
    mode: str
    n_traj: int
    seed: int
    correlation_matrix: np.ndarray
    cross_term_probability: float
    cross_sem: float


def kick_cross_probability(epsilon: float) -> float:
    """Exact cross probability of a +-epsilon kick on equal branches."""
    return epsilon ** 2 / (1.0 + epsilon ** 2)


def _signs(config: EraserConfig, rng) -> np.ndarray:
    if config.sign == "plus":
        return np.ones(config.n_traj)
    if config.sign == "minus":
        return -np.ones(config.n_traj)
    return rng.integers(0, 2, size=config.n_traj) * 2.0 - 1.0


def _statistics(alpha: np.ndarray, beta: np.ndarray):
    """Per-run S/A outcome probabilities for amplitudes on II and OO."""
    ss = 0.5 * np.abs(alpha + beta) ** 2
    sa = 0.5 * np.abs(alpha - beta) ** 2
    norm = np.abs(alpha) ** 2 + np.abs(beta) ** 2
    # SS and AA collect (alpha+beta)/2 each, SA and AS (alpha-beta)/2
    p_same = 0.5 * ss / norm
    p_cross = 0.5 * sa / norm
    return p_same, p_cross


def _sde_final_amplitudes(config: EraserConfig, seed: int):
    """Final II and OO amplitudes of the ensemble's resolved runs, run i
    seeded ``seed + i``: branch-selective diagonal, unit integrated noise."""
    basis = FiniteBasis(ERASER_LABELS)
    a_in, a_out = config.amplitudes
    initial = finite_state(basis, np.array([a_in, 0.0, 0.0, a_out], dtype=complex))
    system = FiniteSystem(basis, (1.0, 0.0, 0.0, 0.0),
                          gamma=1.0 / (config.n_steps * config.dt),
                          energy_denominator=1.0)
    run_cfg = IntegratorConfig(
        dt=config.dt, n_steps=config.n_steps, kappa=2.0 * config.epsilon,
        real_noise=True, stop_on_absorb=False, record_every=config.n_steps)
    finals = np.array([run_trajectory(system, initial, run_cfg, seed=seed + i)
                       .final_state.amplitudes for i in range(config.n_traj)])
    return finals[:, 0], finals[:, 3]


def eraser_run(config: EraserConfig, seed: int = 0) -> EraserResult:
    """Ensemble statistics of the branch-shifted eraser.

    With epsilon = 0 both modes reduce to the exact basis rewriting and
    the cross probability is identically zero.
    """
    rng = np.random.default_rng((seed, 0))
    a_in, a_out = config.amplitudes
    if config.mode == "kick":
        signs = _signs(config, rng)
        alpha = a_in * (1.0 + signs * config.epsilon)
        beta = a_out * (1.0 - signs * config.epsilon)
    else:
        alpha, beta = _sde_final_amplitudes(config, seed)
    p_same, p_cross = _statistics(alpha, beta)
    matrix = np.array([
        [float(np.mean(p_same)), float(np.mean(p_cross))],
        [float(np.mean(p_cross)), float(np.mean(p_same))],
    ])
    cross = float(2.0 * np.mean(p_cross))
    sem = float(2.0 * np.std(p_cross) / np.sqrt(config.n_traj))
    return EraserResult(
        epsilon=config.epsilon, mode=config.mode, n_traj=config.n_traj,
        seed=seed, correlation_matrix=matrix,
        cross_term_probability=cross, cross_sem=sem)


@dataclass(frozen=True)
class EraserSweep:
    """Cross probability against kick size, with a log-log power fit."""

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


@dataclass(frozen=True)
class BoundCheck:
    """Squared interaction ratio against the nonrelativistic ceiling."""

    ratio: float
    probability: float
    nonrelativistic: bool     # ratio at or under 1e-3
    below_bound: bool         # probability at or under 1e-6


def eraser_bound_check(ratio: float) -> BoundCheck:
    """Probability ceiling for a given interaction-to-rest-energy ratio.

    The cross outcomes appear with amplitude of order the ratio, so
    their probability is its square; at ratio 1e-3 that is 1e-6.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError("ratio must lie in [0, 1), got %r" % (ratio,))
    probability = ratio ** 2
    return BoundCheck(ratio=ratio, probability=probability,
                      nonrelativistic=ratio <= 1e-3,
                      below_bound=probability <= 1e-6)


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


# air at standard conditions: mean molecular mass 4.8e-26 kg, kinetic
# collision rate ~1e10 per second, 2.5e25 molecules per cubic meter
AIR_STP = ThermalInput(temperature=300.0, mass=4.8e-26, mean_speed=500.0,
                       mean_separation=3.4e-9, particle_count=2.5e25,
                       collision_rate=1e10)


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

"""Conservation identities and the energy bookkeeping of the shift.

The stochastic sub-step multiplies by a diagonal built from the pair
potential, so any observable commuting with that diagonal has its
density shifted in exact proportion to the probability density. Total
momentum commutes because the potential depends only on coordinate
differences; in-plane angular momentum commutes because it depends
only on the separation distance. The kinetic energy does not commute,
and the residual terms quantify exactly how far energy bookkeeping
deviates, with the strictly positive squared-gradient piece kept
separate from the cross terms.

All expectations here are normalized by the state norm, so the checks
are insensitive to whether the caller renormalizes between steps.

``attributed_gap`` and ``identity_residual`` are the two measurements
of the conservation suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .collapse import collapse_sum, total_diagonal
from .integrator import GridSystem, IntegratorConfig, run_trajectory
from .operators import PairGeometry, derivative1
from .state import GridBasis, HilbertState

__all__ = [
    "ConservationGapTracker",
    "EnergyDeviationTerms",
    "DeviationAccumulator",
    "proportionality_mismatch_field",
    "pointwise_proportionality_check",
    "identity_residual",
    "attributed_gap",
    "energy_deviation_terms",
    "deviation_ratio_benchmark",
    "BenchmarkRatios",
]


def proportionality_mismatch_field(state: HilbertState, collapse_ops, increment,
                                   q_op, dt: float) -> np.ndarray:
    """Pointwise gap between the shifted observable density and the
    proportional law, at the formal one-step level.

    The shift changes psi* Q psi by

        psi* D Q psi dxi* + psi* Q D psi dxi
        + psi* (D Q D - D^2 Q / 2 - Q D^2 / 2) psi dt

    (quadratic noise already contracted, dxi* dxi -> dt). When Q
    commutes with the diagonal D this collapses to psi* D Q psi times
    (dxi* + dxi), the same relative change the probability density
    gets. The returned field is the difference, which isolates the
    commutator pieces:

        psi* [Q, D] psi dxi + psi* (D Q D - {Q, D^2}/2) psi dt
    """
    amp = state.amplitudes
    diag = total_diagonal(collapse_ops)
    q_amp = q_op.apply(amp)
    q_d_amp = q_op.apply(diag * amp)
    stoch = np.conj(amp) * (q_d_amp - diag * q_amp) * increment
    drift = np.conj(amp) * (diag * q_d_amp
                            - 0.5 * diag * diag * q_amp
                            - 0.5 * q_op.apply(diag * diag * amp)) * dt
    return stoch + drift


def pointwise_proportionality_check(state: HilbertState, collapse_ops, increment,
                                    q_op, dt: float) -> float:
    """Norm of the mismatch field, per unit state norm."""
    field = proportionality_mismatch_field(state, collapse_ops, increment, q_op, dt)
    weight = state.basis.weight
    total = float(np.sqrt(np.sum(np.abs(field) ** 2) * weight))
    dens = float(np.sqrt(np.sum(np.abs(state.amplitudes) ** 2) * weight))
    return total / dens if dens > 0 else total


class ConservationGapTracker:
    """Separates physical redistribution from discretization error.

    A single run of a collapse trajectory moves a conserved-in-law
    expectation around: the stochastic factor reweights the branches
    and the branch-conditional values differ, so the raw drift of, say,
    total momentum is real physics, not a bug. The conservation content
    of the identity is that the observable density is reweighted by the
    *same* pointwise factor g = |1 + D dxi - D^2 dt/2|^2 as the
    probability density, and the unitary sub-step changes nothing.
    This tracker predicts each step's expectation from that reweighting
    and accumulates measured minus predicted. The remainder is pure
    discretization: second order in the spacing for the stencil
    scheme, near roundoff for the spectral one on resolved states.

    Feed it to ``run_trajectory(..., per_step=tracker)`` and call
    ``finish(record.final_state)`` afterwards.
    """

    def __init__(self, q_op, dt: float):
        self.q_op = q_op
        self.dt = float(dt)
        self.values: list[float] = []
        self.residuals: list[float] = []
        self._predicted = None

    def _measure(self, state: HilbertState):
        amp = state.amplitudes
        q_dens = (np.conj(amp) * self.q_op.apply(amp)).real
        dens = (np.conj(amp) * amp).real
        return float(np.sum(q_dens) / np.sum(dens)), q_dens, dens

    def observe(self, step, state, ops, increment):
        value, q_dens, dens = self._measure(state)
        if self._predicted is not None:
            self.residuals.append(value - self._predicted)
        self.values.append(value)
        if ops:
            diag = total_diagonal(ops)
            a = 1.0 + diag * increment - 0.5 * diag * diag * self.dt
            g = (a * np.conj(a)).real
            self._predicted = float(np.sum(g * q_dens) / np.sum(g * dens))
        else:
            self._predicted = value

    __call__ = observe

    def finish(self, final_state: HilbertState) -> None:
        if self._predicted is not None:
            value, _, _ = self._measure(final_state)
            self.residuals.append(value - self._predicted)
            self.values.append(value)
            self._predicted = None

    @property
    def gap(self) -> float:
        """Cumulative unexplained drift over the whole run."""
        return float(abs(np.sum(self.residuals))) if self.residuals else 0.0


# deterministic noise increment at which the static identity is probed
_PROBE_INCREMENT = complex(0.021, -0.013)


def identity_residual(system: GridSystem, state: HilbertState, q_op,
                      config: IntegratorConfig) -> float:
    """Pointwise identity residual of ``q_op`` at a fixed probe increment.

    The collapse operators are built from the system's pairs with the
    gain, the light speed and the time step of ``config``, differentiated
    with the scheme of ``q_op``.
    """
    ops = collapse_sum(state, system.pairs, kappa=config.kappa, c=config.c,
                       scheme=q_op.scheme)
    return pointwise_proportionality_check(state, ops, _PROBE_INCREMENT,
                                           q_op, config.dt)


def _step_residuals(system, state, q_op, config, seed) -> np.ndarray:
    tracker = ConservationGapTracker(q_op, config.dt)
    record = run_trajectory(system, state, config, seed=seed, per_step=tracker)
    tracker.finish(record.final_state)
    return np.asarray(tracker.residuals)


def attributed_gap(system: GridSystem, state: HilbertState, q_op, config: IntegratorConfig,
                   seed: int, subtract_control: bool = False) -> float:
    """Cumulative drift of ``q_op`` along one run, charged to the noise.

    The drift is the sum of the ``ConservationGapTracker`` residuals of
    one trajectory. With ``subtract_control`` the residuals of the
    same-seed run at ``kappa=0`` are subtracted step by step before the
    sum: a square box leaks a little angular momentum through the
    coordinate seam even in exact arithmetic, and that leak must not
    masquerade as stencil error.
    """
    residuals = _step_residuals(system, state, q_op, config, seed)
    if subtract_control:
        residuals = residuals - _step_residuals(
            system, state, q_op, replace(config, kappa=0.0), seed)
    return abs(float(np.sum(residuals)))


@dataclass(frozen=True)
class EnergyDeviationTerms:
    """Per-increment coefficients of the kinetic-energy deviation.

    ``gradient_term`` and ``laplacian_term`` multiply the noise
    increment (together they are the expectation of [T, D]);
    ``positive_definite_term`` multiplies dt and is a squared-gradient
    integral, nonnegative by construction.
    """

    gradient_term: complex
    laplacian_term: complex
    positive_definite_term: float

    @property
    def middle_total(self) -> complex:
        return self.gradient_term + self.laplacian_term


def _diagonal_derivative_fields(basis: GridBasis, collapse_ops, scheme: str):
    """Per-axis first derivatives of the full collapse diagonal, and the
    (coefficient, field) pairs whose weighted sum is its per-axis-mass
    weighted second derivative sum.

    An axis no operator reaches has no first-derivative field (None).
    Operators carrying their interaction pair use the closed-form
    potential derivatives (exact, no ringing at the wrap seam), read
    from the operator's pair geometry when it kept one; bare diagonals
    fall back to numerical differentiation.
    """
    h = basis.grid.spacing
    grads = [None] * basis.n_axes
    laplacians = []

    def add(axis, field):
        grads[axis] = field if grads[axis] is None else grads[axis] + field

    for op in collapse_ops:
        if op.pair is not None:
            pair = op.pair
            factor = op.kappa * np.sqrt(op.gamma) / op.energy_denominator
            geometry = op.geometry if op.geometry is not None else PairGeometry(basis, pair)
            for d, grad in enumerate(geometry.gradient):
                field = factor * grad
                add(basis.particle_axis(pair.j, d), field)
                # grad_k V = -grad_j V exactly
                add(basis.particle_axis(pair.k, d), -field)
            mj = basis.particles[pair.j].mass
            mk = basis.particles[pair.k].mass
            laplacians.append((factor * (0.5 / mj + 0.5 / mk), geometry.laplacian))
        else:
            for axis in range(basis.n_axes):
                first = derivative1(op.scaled_values, axis, h, scheme).real
                add(axis, first)
                laplacians.append((1.0 / (2.0 * basis.axis_mass(axis)),
                                   derivative1(first, axis, h, scheme).real))
    return grads, laplacians


def energy_deviation_terms(state: HilbertState, collapse_ops,
                           scheme: str = "spectral") -> EnergyDeviationTerms:
    """Term-level decomposition of the kinetic deviation coefficients.

    Masses enter per particle. Derivatives of the state use ``scheme``;
    derivatives of the diagonal are analytic for pair-built operators.
    With G_a the derivative of the summed diagonal along axis a, the
    terms are the inner products sum_a (-1/m_a) <G_a psi|d_a psi>,
    -<psi|sum_a d_a^2 D / (2 m_a)|psi> and sum_a (1/2m_a) ||G_a psi||^2,
    each over <psi|psi>.
    """
    basis = state.basis
    if not isinstance(basis, GridBasis):
        raise TypeError("grid-backed state required")
    amp = state.amplitudes
    norm_sq = float(np.vdot(amp, amp).real)
    if norm_sq == 0.0:
        raise ValueError("cannot analyze a zero state")
    grads, laplacians = _diagonal_derivative_fields(basis, collapse_ops, scheme)
    h = basis.grid.spacing

    gradient_term = 0.0 + 0.0j
    positive = 0.0
    for axis, grad in enumerate(grads):
        if grad is None:
            continue
        mass = basis.axis_mass(axis)
        g_amp = grad * amp
        gradient_term += (-1.0 / mass) * np.vdot(g_amp, derivative1(amp, axis, h, scheme))
        positive += (1.0 / (2.0 * mass)) * np.vdot(g_amp, g_amp).real
    laplacian_term = 0.0
    for coefficient, field in laplacians:
        laplacian_term -= coefficient * np.vdot(amp, field * amp).real

    return EnergyDeviationTerms(
        gradient_term=complex(gradient_term) / norm_sq,
        laplacian_term=complex(laplacian_term) / norm_sq,
        positive_definite_term=float(positive) / norm_sq,
    )


class DeviationAccumulator:
    """Running energy-deviation budget along one trajectory.

    Accumulates the variance of the non-proportional (commutator)
    noise term by the isometry E[|c (dxi - dxi*)|^2] = 2 |c|^2 dt with
    c half the middle-line coefficient, plus the deterministic heating
    from the positive-definite term. ``rms`` is then directly
    comparable to a measured kinetic-energy change.
    """

    def __init__(self, scheme: str = "spectral"):
        self.scheme = scheme
        self.variance = 0.0
        self.heating = 0.0
        self.steps = 0

    def add(self, state: HilbertState, collapse_ops, dt: float) -> EnergyDeviationTerms:
        terms = energy_deviation_terms(state, collapse_ops, scheme=self.scheme)
        c = 0.5 * terms.middle_total
        self.variance += 2.0 * abs(c) ** 2 * dt
        self.heating += terms.positive_definite_term * dt
        self.steps += 1
        return terms

    @property
    def rms(self) -> float:
        return float(np.sqrt(self.variance))


@dataclass(frozen=True)
class BenchmarkRatios:
    """Relativistic comparison scales for a kinetic-energy change."""

    ratio: float          # dKE / (total rest energy)
    first_order: float    # 3/2 ratio, leading kinetic correction
    second_order: float   # 5/2 ratio^2, next order
    radiative: float      # (v/c) ratio, with v from dKE = M v^2 / 2
    antiparticle: float   # ratio^2, pair-production suppression scale


def deviation_ratio_benchmark(delta_ke: float, masses, c: float) -> BenchmarkRatios:
    """Reference ratios the measured deviation is judged against.

    Pure arithmetic: ratio = dKE / (sum(masses) c^2); the first- and
    second-order entries carry the 3/2 and 5/2 series coefficients of
    the kinetic expansion, the radiative entry uses the classical
    velocity from dKE, and the antiparticle entry is ratio squared.
    """
    if delta_ke < 0.0:
        raise ValueError("delta_ke must be nonnegative")
    total_mass = float(np.sum(np.asarray(masses, dtype=float)))
    if total_mass <= 0.0 or c <= 0.0:
        raise ValueError("masses and c must be positive")
    ratio = delta_ke / (total_mass * c * c)
    return BenchmarkRatios(
        ratio=ratio,
        first_order=1.5 * ratio,
        second_order=2.5 * ratio * ratio,
        radiative=np.sqrt(2.0 * ratio) * ratio,
        antiparticle=ratio * ratio,
    )

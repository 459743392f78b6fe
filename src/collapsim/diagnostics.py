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
hold for a state of any norm.

``attributed_gap`` and ``identity_residual`` are the two measurements
of the conservation suite, and ``conservation_block`` runs one of its
blocks from a parsed config. ``collapsim conserve`` and the refinement
acceptance tests both call ``conservation_block``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .collapse import collapse_sum
from .config import RunConfig
from .integrator import GridSystem, IntegratorConfig, run_trajectory
from .operators import (AngularMomentumZOperator, MomentumOperator, PairGeometry,
                        derivative1)
from .state import GridBasis, HilbertState

__all__ = [
    "ConservationGapTracker",
    "EnergyDeviationTerms",
    "DeviationAccumulator",
    "identity_residual",
    "attributed_gap",
    "conservation_block",
    "energy_deviation_terms",
    "deviation_ratio_benchmark",
]


def _mismatch_field(amp, diag, increment, q_op, dt):
    """Pointwise gap between the shifted observable density and the
    proportional law, at the formal one-step level, for the state
    amplitudes ``amp`` under the collapse diagonal ``diag``.

    The shift changes psi* Q psi by

        psi* D Q psi dxi* + psi* Q D psi dxi
        + psi* (D Q D - D^2 Q / 2 - Q D^2 / 2) psi dt

    (quadratic noise already contracted, dxi* dxi -> dt). When Q
    commutes with the diagonal D this collapses to psi* D Q psi times
    (dxi* + dxi), the same relative change the probability density
    gets. The returned field is the difference, which isolates the
    commutator pieces:

        psi* [Q, D] psi dxi + psi* (D Q D - {Q, D^2}/2) psi dt

    The field is evaluated product by product into buffers made here,
    each in the operand order of the one expression

        conj(psi) * (Q(D psi) - D * Q psi) * dxi
        + conj(psi) * (D * Q(D psi) - 0.5 * D * D * Q psi
                       - 0.5 * Q(D * D * psi)) * dt

    (its 0.5 * Q(...) as Q(...) * 0.5, NumPy's order for a large
    temporary), so the two agree bit for bit. Q(D * D * psi) comes first,
    while no other buffer is alive; with the grid observables at most
    four and a half state-sized arrays are then alive at once.
    """
    # an apply result may be its own argument (the identity returns it), so
    # the only results written into are those whose argument was made here,
    # and Q psi only when it is not the state; amp and diag (an operator's
    # own field) are never written
    diag_sq = np.multiply(diag, diag)
    work = np.multiply(diag_sq, amp)
    del diag_sq
    q_sq = q_op.apply(work)
    del work
    np.multiply(q_sq, 0.5, out=q_sq)
    q_d_amp = q_op.apply(diag * amp)
    q_amp = q_op.apply(amp)
    stoch = np.multiply(diag, q_amp)
    np.subtract(q_d_amp, stoch, out=stoch)
    drift = np.multiply(diag, q_d_amp, out=q_d_amp)
    diag_sq = np.multiply(0.5, diag)
    np.multiply(diag_sq, diag, out=diag_sq)
    work = np.multiply(diag_sq, q_amp, out=None if q_amp is amp else q_amp)
    del diag_sq, q_amp
    np.subtract(drift, work, out=drift)
    del work
    np.subtract(drift, q_sq, out=drift)
    conj = np.conjugate(amp, out=q_sq)
    np.multiply(conj, stoch, out=stoch)
    np.multiply(stoch, increment, out=stoch)
    np.multiply(conj, drift, out=drift)
    np.multiply(drift, dt, out=drift)
    return np.add(stoch, drift, out=stoch)


def _relative_norm(state: HilbertState, field) -> float:
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
        # real copies: a .real view would pin its complex product
        amp = state.amplitudes
        conj = np.conj(amp)
        q_dens = (conj * self.q_op.apply(amp)).real.copy()
        dens = (conj * amp).real.copy()
        return float(np.sum(q_dens) / np.sum(dens)), q_dens, dens

    def observe(self, step, state, op, increment):
        value, q_dens, dens = self._measure(state)
        if self._predicted is not None:
            self.residuals.append(value - self._predicted)
        self.values.append(value)
        if op is not None and op.diagonal.any():
            diag = op.diagonal
            a = 1.0 + diag * increment - 0.5 * diag * diag * self.dt
            g = (a * np.conj(a)).real.copy()
            del a
            self._predicted = float(np.sum(g * q_dens) / np.sum(g * dens))
        else:
            # no shift: g is 1 everywhere and the prediction is the value
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

    The collapse operator is built from the system's pairs with the
    gain, the light speed and the time step of ``config``, differentiated
    with the scheme of ``q_op``.
    """
    # only the diagonal is kept: the operator and its centred field are
    # freed before the field's buffers are made
    diag = collapse_sum(state, system.pairs, kappa=config.kappa, c=config.c,
                        scheme=q_op.scheme).diagonal
    return _relative_norm(state, _mismatch_field(state.amplitudes, diag,
                                                 _PROBE_INCREMENT, q_op, config.dt))


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


def _packet_system(cfg: RunConfig, points: int):
    system = cfg.system(points)
    return system, cfg.initial_state(system.basis)


# observable: (section of the run's dt and n_steps, section of the coarse
# points_per_axis, operator class, stencil system and state at a point
# count, spectral system and state from the fine stencil pair, whether the
# gap subtracts its kappa=0 control)
_SUITE_BLOCKS = {
    "momentum": ("numerics", "grid", MomentumOperator, _packet_system,
                 lambda cfg, fine: fine, False),
    "angular_momentum": ("angular", "angular", AngularMomentumZOperator,
                         RunConfig.angular_system,
                         lambda cfg, fine: cfg.angular_system(spectral=True),
                         True),
}


def conservation_block(cfg: RunConfig, observable: str) -> dict:
    """One block of the conservation suite, for ``observable``
    ``"momentum"`` or ``"angular_momentum"``.

    The block takes ``attributed_gap`` and ``identity_residual`` of the
    stencil operator on its coarse grid and on one with twice the points
    per axis; second-order stencils put both coarse/fine ratios near 4.
    Its ``spectral_residual`` is the spectral operator's
    ``identity_residual``, on the fine system for momentum and on the
    ``angular.spectral`` system for angular momentum. Only the angular
    gap subtracts the same-seed ``kappa=0`` control.
    """
    section, grid, q_cls, build, build_spectral, subtract = _SUITE_BLOCKS[observable]
    icfg = cfg.suite_integrator_config(section)
    coarse = int(cfg.section(grid)["points_per_axis"])
    gaps, identities = [], []
    for points in (coarse, 2 * coarse):
        system, state = build(cfg, points)
        q_op = q_cls(system.basis, scheme="stencil")
        gaps.append(attributed_gap(system, state, q_op, icfg, cfg.master_seed,
                                   subtract_control=subtract))
        identities.append(identity_residual(system, state, q_op, icfg))
    # rebinding frees each phase's state before the next phase runs: the
    # 32^4 spectral check sets the suite's peak memory, and one leftover
    # 32^4 state is 16 MiB
    system, state = build_spectral(cfg, (system, state))
    spectral_residual = identity_residual(
        system, state, q_cls(system.basis, scheme="spectral"), icfg)
    return {
        "points": [coarse, 2 * coarse],
        "coarse_gap": gaps[0],
        "fine_gap": gaps[1],
        "gap_ratio": gaps[0] / gaps[1] if gaps[1] > 0.0 else float("inf"),
        "identity_ratio": (identities[0] / identities[1]
                           if identities[1] > 0.0 else float("inf")),
        "spectral_residual": spectral_residual,
    }


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


def _diagonal_derivative_fields(basis: GridBasis, op):
    """Per-axis first derivatives of the collapse diagonal of ``op``, and
    the (coefficient, field) pairs whose weighted sum is its per-axis-mass
    weighted second derivative sum.

    An axis no pair reaches has no first-derivative field (None). The
    derivatives are the closed-form potential derivatives of each of the
    operator's interaction pairs (exact, no ringing at the wrap seam),
    read from the pair's geometry when the operator kept one. A term
    without a pair has nothing to differentiate and is rejected.
    """
    grads = [None] * basis.n_axes
    laplacians = []

    def add(axis, field):
        grads[axis] = field if grads[axis] is None else grads[axis] + field

    for pair, _, scale, geometry in op.terms:
        if pair is None:
            raise ValueError("energy deviation terms need collapse operators "
                             "built from an interaction pair")
        if geometry is None:
            geometry = PairGeometry(basis, pair)
        for d, grad in enumerate(geometry.gradient):
            field = scale * grad
            add(basis.particle_axis(pair.j, d), field)
            # grad_k V = -grad_j V exactly
            add(basis.particle_axis(pair.k, d), -field)
        mj = basis.particles[pair.j].mass
        mk = basis.particles[pair.k].mass
        laplacians.append((scale * (0.5 / mj + 0.5 / mk), geometry.laplacian))
    return grads, laplacians


def energy_deviation_terms(state: HilbertState, op,
                           scheme: str = "spectral") -> EnergyDeviationTerms:
    """Term-level decomposition of the kinetic deviation coefficients.

    Masses enter per particle. Derivatives of the state use ``scheme``;
    derivatives of the diagonal are analytic, so every term of the
    collapse operator ``op`` must carry its interaction pair
    (``ValueError`` otherwise).
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
    grads, laplacians = _diagonal_derivative_fields(basis, op)
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

    def add(self, state: HilbertState, op, dt: float) -> EnergyDeviationTerms:
        terms = energy_deviation_terms(state, op, scheme=self.scheme)
        c = 0.5 * terms.middle_total
        self.variance += 2.0 * abs(c) ** 2 * dt
        self.heating += terms.positive_definite_term * dt
        self.steps += 1
        return terms

    @property
    def rms(self) -> float:
        return float(np.sqrt(self.variance))


def deviation_ratio_benchmark(delta_ke: float, masses, c: float) -> float:
    """Ratio dKE / (sum(masses) c^2) the measured deviation is judged
    against: a kinetic-energy change per unit total rest energy."""
    if delta_ke < 0.0:
        raise ValueError("delta_ke must be nonnegative")
    total_mass = float(np.sum(np.asarray(masses, dtype=float)))
    if total_mass <= 0.0 or c <= 0.0:
        raise ValueError("masses and c must be positive")
    return delta_ke / (total_mass * c * c)

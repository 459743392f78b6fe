"""Conservation identities: proportional density shift, drift tracking,
and the kinetic-energy deviation budget.

Discretization oracles (refinement ratios, spectral floors) were
measured once on the frozen scenarios below and are asserted as bands
around the measured values.
"""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from collapsim.collapse import CollapseOperator, collapse_sum
from collapsim.config import parse_config_data
from collapsim.diagnostics import (
    ConservationGapTracker,
    DeviationAccumulator,
    _mismatch_field,
    _relative_norm,
    deviation_ratio_benchmark,
    energy_deviation_terms,
    identity_residual,
)
from collapsim.integrator import FiniteSystem, GridSystem, IntegratorConfig, run_trajectory
from collapsim.operators import (
    DiagonalOperator,
    GaussianWell,
    IdentityOperator,
    AngularMomentumZOperator,
    InteractionPair,
    KineticOperator,
    MomentumOperator,
    PairGeometry,
    SoftCoulomb,
    derivative1,
)
from collapsim.state import (
    FiniteBasis,
    GridBasis,
    GridSpec,
    ParticleSpec,
    finite_state,
    gaussian_packet,
    normalize,
)

INCREMENT = complex(0.021, -0.013)
DT = 1e-3


def _pair_system(n=64, potential=None, momenta=(0.6, -0.4), scheme="spectral"):
    grid = GridSpec(dims=1, points_per_axis=n, extent=8.0)
    basis = GridBasis(grid, (ParticleSpec(1.0), ParticleSpec(1.5)))
    pairs = [InteractionPair(0, 1, potential or GaussianWell(-2.0, 1.0))]
    state = normalize(gaussian_packet(basis, centers=(-0.8, 0.8),
                                      widths=(0.9, 0.9), momenta=momenta))
    op = collapse_sum(state, pairs, scheme=scheme)
    return basis, pairs, state, op


# ---------------------------------------------------------------------------
# Proportional-shift mismatch


def _residual(state, op, q_op):
    """Norm of the mismatch field under ``op``, per unit state norm."""
    return _relative_norm(state, _mismatch_field(state.amplitudes, op.diagonal,
                                                 INCREMENT, q_op, DT))


def test_identity_has_no_mismatch():
    _, _, state, op = _pair_system()
    res = _residual(state, op, IdentityOperator())
    assert res < 1e-12


def test_zero_increment_leaves_only_drift_part():
    _, _, state, op = _pair_system()
    field = _mismatch_field(state.amplitudes, op.diagonal, 0.0, IdentityOperator(), DT)
    assert np.max(np.abs(field)) < 1e-15


def test_momentum_mismatch_is_second_order_in_spacing():
    # central-difference momentum: residual drops ~4x under h -> h/2
    # (measured 1.3968e-5 -> 3.6239e-6, ratio 3.855)
    residuals = {}
    for n in (64, 128):
        basis, _, state, op = _pair_system(n, potential=SoftCoulomb(1.3, 0.8),
                                           scheme="stencil")
        p = MomentumOperator(basis, scheme="stencil")
        residuals[n] = _residual(state, op, p)
    assert residuals[64] > 1e-6
    assert 3.2 < residuals[64] / residuals[128] < 4.6


def test_momentum_mismatch_spectral_floor():
    basis, _, state, op = _pair_system()
    p = MomentumOperator(basis, scheme="spectral")
    res = _residual(state, op, p)
    assert res < 1e-10


def test_kinetic_energy_does_not_commute():
    basis, _, state, op = _pair_system()
    t = KineticOperator(basis, scheme="spectral")
    res = _residual(state, op, t)
    assert res > 1e-4


def _planar_collision(n):
    grid = GridSpec(dims=2, points_per_axis=n, extent=5.0)
    basis = GridBasis(grid, (ParticleSpec(1.0), ParticleSpec(1.4)))
    pairs = [InteractionPair(0, 1, GaussianWell(-1.5, 1.2))]
    state = normalize(gaussian_packet(basis,
                                      centers=(-0.6, 0.0, 0.6, 0.0),
                                      widths=(0.55,) * 4,
                                      momenta=(0.5, 0.0, -0.5, 0.0)))
    return basis, state, collapse_sum(state, pairs, scheme="spectral")


def test_angular_momentum_mismatch_spectral_2d():
    # rotation-invariant pair potential commutes with total L_z; the
    # spectral residual on this well-resolved state measured 2.06e-11
    basis, state, op = _planar_collision(32)
    (_, gamma, _, _), = op.terms
    assert gamma > 0.05
    lz = AngularMomentumZOperator(basis, scheme="spectral")
    res = _residual(state, op, lz)
    assert res < 1e-10


def test_identity_check_holds_few_state_sized_arrays(traced_peak):
    # at 32^4 the spectral check sets the conservation suite's peak
    # memory; the field's buffers and the observable's hold four and a half
    # state-sized arrays at once, an apply two (its output and one
    # per-axis derivative)
    basis, state, op = _planar_collision(16)
    amp = state.amplitudes
    observables = (AngularMomentumZOperator(basis, scheme="spectral"),
                   KineticOperator(basis, scheme="spectral"),
                   MomentumOperator(basis, scheme="spectral"))
    for q_op in observables:
        assert traced_peak(lambda: q_op.apply(amp)) <= 2.5 * amp.nbytes, type(q_op).__name__
    lz = observables[0]
    peak = traced_peak(lambda: _residual(state, op, lz))
    assert peak <= 5.0 * amp.nbytes


# The conservation suite's angular block runs these phases on a 32^4 grid
# (a 16 MiB state); its 16^4 grid shows the same multiples of the state.
# Each bound is fixed from the arrays the phase holds, in state units:
# a real field is half a state.

def _suite_angular_block():
    cfg = parse_config_data({"scenario": "conservation_suite"})
    system, state = cfg.angular_system(16)
    return system, state, cfg.suite_integrator_config("angular")


def test_collapse_sum_holds_five_state_sized_arrays(traced_peak):
    # the rate numerator on a throwaway geometry: V and lap V (half a state
    # each), the two components of grad V (one), and V psi, one g_d V psi
    # buffer and one derivative (one each); the centred field comes after
    system, state, config = _suite_angular_block()
    peak = traced_peak(lambda: collapse_sum(state, system.pairs, kappa=config.kappa,
                                            c=config.c, scheme="spectral"))
    assert peak <= 5.5 * state.amplitudes.nbytes


def test_identity_residual_holds_five_state_sized_arrays(traced_peak):
    # the summed diagonal (half a state) and the field's four and a half;
    # the operators' centred fields are freed before the field starts
    system, state, config = _suite_angular_block()
    lz = AngularMomentumZOperator(system.basis, scheme="spectral")
    peak = traced_peak(lambda: identity_residual(system, state, lz, config))
    assert peak <= 5.5 * state.amplitudes.nbytes


def test_tracked_stencil_run_holds_no_squared_separation(traced_peak):
    # a short gap-tracked run peaks inside a step, above what the run holds:
    # its pair geometry, operators and states. A geometry that kept u (half
    # a state) beside its fields peaked at 12.2 states here
    system, state, config = _suite_angular_block()
    config = dataclasses.replace(config, n_steps=3, record_every=3)
    lz = AngularMomentumZOperator(system.basis, scheme="stencil")

    def tracked():
        tracker = ConservationGapTracker(lz, config.dt)
        record = run_trajectory(system, state, config, seed=5, per_step=tracker)
        tracker.finish(record.final_state)

    assert traced_peak(tracked) <= 12.0 * state.amplitudes.nbytes


# ---------------------------------------------------------------------------
# Free-run drift


def test_free_run_conserves_momentum():
    grid = GridSpec(dims=1, points_per_axis=64, extent=8.0)
    basis = GridBasis(grid, (ParticleSpec(1.0),))
    state = normalize(gaussian_packet(basis, centers=(0.0,), widths=(1.0,),
                                      momenta=(0.7,)))
    cfg = IntegratorConfig(dt=0.01, n_steps=60, scheme="split_step_spectral",
                           kappa=0.0, record_every=10,
                           record_observables=("momentum",))
    series = run_trajectory(GridSystem(basis), state, cfg, seed=3).expectations["momentum"]
    assert series[0] == pytest.approx(0.7, rel=1e-3)
    assert np.max(np.abs(series - series[0])) < 1e-12


# ---------------------------------------------------------------------------
# Measured-minus-predicted gap tracking


def _tracked_run(n, scheme, seed=5):
    grid = GridSpec(dims=1, points_per_axis=n, extent=8.0)
    basis = GridBasis(grid, (ParticleSpec(1.0), ParticleSpec(1.5)))
    pairs = [InteractionPair(0, 1, GaussianWell(-2.0, 1.0))]
    state = normalize(gaussian_packet(basis, centers=(-0.8, 0.8),
                                      widths=(0.9, 0.9), momenta=(0.6, -0.4)))
    cfg = IntegratorConfig(dt=0.003, n_steps=40, scheme=scheme)
    dscheme = cfg.derivative_scheme
    tracker = ConservationGapTracker(MomentumOperator(basis, scheme=dscheme),
                                     cfg.dt)
    record = run_trajectory(GridSystem(basis, pairs), state, cfg, seed=seed,
                            per_step=tracker)
    tracker.finish(record.final_state)
    return basis, cfg, tracker


def test_gap_tracker_isolates_discretization_spectral():
    # a single run redistributes momentum between branches (raw drift
    # measured 2.6e-4, resolution independent) yet the reweighting
    # prediction explains it to machine precision
    _, _, tracker = _tracked_run(64, "split_step_spectral")
    raw = abs(tracker.values[-1] - tracker.values[0])
    assert raw > 1e-5
    assert tracker.gap < 1e-12
    assert np.max(np.abs(tracker.residuals)) < 1e-13


def test_gap_tracker_stencil_refines_second_order():
    # measured gaps 7.643e-4 (n=64) and 1.952e-4 (n=128), ratio 3.91
    _, _, coarse = _tracked_run(64, "crank_nicolson_stencil")
    _, _, fine = _tracked_run(128, "crank_nicolson_stencil")
    assert coarse.gap > 1e-4
    assert 3.0 < coarse.gap / fine.gap < 4.8


def test_gap_tracker_exact_for_commuting_finite_diagonal():
    basis = FiniteBasis(("in", "out"))
    psi = finite_state(basis, np.array([np.sqrt(0.37), np.sqrt(0.63)], dtype=complex))
    system = FiniteSystem(basis, (1.0, 0.0), gamma=4.0, energy_denominator=2.0)
    cfg = IntegratorConfig(dt=0.01, n_steps=200)
    tracker = ConservationGapTracker(DiagonalOperator(np.array([1.0, 0.0])),
                                     cfg.dt)
    record = run_trajectory(system, psi, cfg, seed=31, per_step=tracker)
    tracker.finish(record.final_state)
    assert abs(tracker.values[-1] - tracker.values[0]) > 0.05
    assert tracker.gap < 1e-12


def test_gap_tracker_idle_without_steps():
    basis = FiniteBasis(("in", "out"))
    psi = finite_state(basis, np.array([1.0, 0.0], dtype=complex))
    tracker = ConservationGapTracker(DiagonalOperator(np.array([1.0, 0.0])), 0.01)
    tracker.finish(psi)
    assert tracker.gap == 0.0
    assert tracker.residuals == []


# ---------------------------------------------------------------------------
# Energy deviation terms


def test_linear_diagonal_matches_closed_form():
    # D = a (x_0 - x_1), given to the pair operator as its derivative
    # fields (grad_0 D = a = -grad_1 D, no Laplacian): grad term
    # -i a (k_0 / m_0 - k_1 / m_1), positive a^2 (1/2m_0 + 1/2m_1)
    basis, pairs, state, _ = _pair_system()
    alpha, (k0, k1), (m0, m1) = 0.3, (0.6, -0.4), basis.masses
    linear = SimpleNamespace(gradient=(np.array(alpha),), laplacian=np.array(0.0))
    zero = np.zeros(basis.shape)
    lin = CollapseOperator(zero, zero, [(pairs[0], 1.0, 1.0, linear)])
    terms = energy_deviation_terms(state, lin, scheme="stencil")
    assert terms.gradient_term == pytest.approx(-1j * alpha * (k0 / m0 - k1 / m1), rel=2e-2)
    assert abs(terms.laplacian_term) < 1e-10
    assert terms.positive_definite_term == pytest.approx(
        alpha ** 2 * (0.5 / m0 + 0.5 / m1), rel=2e-2)


def test_pair_derivatives_match_numerical_derivatives():
    # the closed-form gradient and Laplacian of V against spectral
    # derivatives of the potential field itself
    basis, pairs, _, _ = _pair_system()
    geometry = PairGeometry(basis, pairs[0])
    h = basis.grid.spacing
    values = np.broadcast_to(geometry.values, basis.shape)
    grad = derivative1(values, 0, h, "spectral").real
    assert np.max(np.abs(geometry.gradient[0] - grad)) < 1e-10
    assert np.max(np.abs(derivative1(values, 1, h, "spectral").real + grad)) < 1e-10
    lap = derivative1(grad, 0, h, "spectral").real
    assert np.max(np.abs(geometry.laplacian - lap)) < 1e-10


def test_middle_line_is_purely_imaginary():
    # integrating by parts, Re(gradient term) = -laplacian term, so the
    # noise coefficient of the energy change is imaginary and its
    # ensemble mean vanishes
    _, _, state, op = _pair_system()
    terms = energy_deviation_terms(state, op)
    assert terms.gradient_term.real == pytest.approx(-terms.laplacian_term.real,
                                                     abs=1e-12)
    assert abs(terms.middle_total.real) < 1e-12
    assert abs(terms.middle_total.imag) > 1e-3


def test_positive_term_nonnegative_on_random_states():
    basis, pairs, state, op = _pair_system()
    rng = np.random.default_rng(17)
    for _ in range(3):
        amp = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
        noisy = normalize(state.with_amplitudes(amp))
        terms = energy_deviation_terms(noisy, op)
        assert terms.positive_definite_term >= 0.0


def test_terms_scale_with_energy_denominator():
    # the diagonal carries 1/E, so middle ~ 1/E and positive ~ 1/E^2
    _, pairs, state, op = _pair_system()
    t1, t2 = (energy_deviation_terms(state, CollapseOperator(
        op.diagonal, op.centered, [(pairs[0], 4.0, np.sqrt(4.0) / e_den, None)]))
        for e_den in (2.0, 20.0))
    assert abs(t1.middle_total) / abs(t2.middle_total) == pytest.approx(10.0, rel=1e-9)
    assert t1.positive_definite_term / t2.positive_definite_term == pytest.approx(
        100.0, rel=1e-9)


def test_energy_terms_require_grid_state():
    basis = FiniteBasis(("in", "out"))
    psi = finite_state(basis, np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(TypeError):
        energy_deviation_terms(psi, None)


def test_energy_terms_reject_zero_state():
    basis, _, state, _ = _pair_system()
    dead = state.with_amplitudes(np.zeros(basis.shape, dtype=complex))
    with pytest.raises(ValueError):
        energy_deviation_terms(dead, None)


def test_accumulator_matches_manual_isometry():
    _, _, state, op = _pair_system()
    acc = DeviationAccumulator()
    terms = acc.add(state, op, 0.01)
    expected = np.sqrt(2.0 * abs(0.5 * terms.middle_total) ** 2 * 0.01)
    assert acc.rms == pytest.approx(expected, rel=1e-12)
    assert acc.heating == pytest.approx(terms.positive_definite_term * 0.01, rel=1e-12)
    before = acc.rms
    acc.add(state, op, 0.01)
    assert acc.rms > before
    assert acc.steps == 2


def test_accumulator_silent_without_operators():
    # a run without pairs hands no operator; one at zero gain shifts nothing
    _, pairs, state, _ = _pair_system()
    acc = DeviationAccumulator()
    acc.add(state, collapse_sum(state, pairs, kappa=0.0), 0.01)
    assert acc.rms == 0.0
    assert acc.heating == 0.0


# ---------------------------------------------------------------------------
# Benchmark ratios


def test_benchmark_first_order_value():
    # dKE / (M c^2), the leading order of the relativistic kinetic series
    assert deviation_ratio_benchmark(2e-3, (1.0, 1.0), 1.0) == pytest.approx(
        1e-3, rel=1e-12)
    assert deviation_ratio_benchmark(2e-3, (0.5, 1.5), 10.0) == pytest.approx(
        1e-5, rel=1e-12)


def test_benchmark_zero_change():
    assert deviation_ratio_benchmark(0.0, (1.0, 2.0), 3.0) == 0.0


def test_benchmark_rejects_bad_inputs():
    with pytest.raises(ValueError):
        deviation_ratio_benchmark(-1.0, (1.0,), 1.0)
    with pytest.raises(ValueError):
        deviation_ratio_benchmark(1.0, (0.0,), 1.0)
    with pytest.raises(ValueError):
        deviation_ratio_benchmark(1.0, (1.0,), 0.0)


def test_benchmark_serializes():
    ratio = deviation_ratio_benchmark(1e-4, (0.5, 0.5), 10.0)
    assert type(ratio) is float
    assert json.loads(json.dumps(ratio)) == ratio

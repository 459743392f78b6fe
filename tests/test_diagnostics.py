"""Conservation identities: proportional density shift, drift tracking,
and the kinetic-energy deviation budget.

Discretization oracles (refinement ratios, spectral floors) were
measured once on the frozen scenarios below and are asserted as bands
around the measured values.
"""

import dataclasses

import numpy as np
import pytest

from collapsim.collapse import CollapseOperator, collapse_from_diagonal, collapse_sum
from collapsim.diagnostics import (
    BenchmarkRatios,
    ConservationGapTracker,
    DeviationAccumulator,
    deviation_ratio_benchmark,
    energy_deviation_terms,
    pointwise_proportionality_check,
    proportionality_mismatch_field,
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
    SoftCoulomb,
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
    ops = collapse_sum(state, pairs, scheme=scheme)
    return basis, pairs, state, ops


# ---------------------------------------------------------------------------
# Proportional-shift mismatch


def test_identity_has_no_mismatch():
    _, _, state, ops = _pair_system()
    res = pointwise_proportionality_check(state, ops, INCREMENT, IdentityOperator(), DT)
    assert res < 1e-12


def test_zero_increment_leaves_only_drift_part():
    _, _, state, ops = _pair_system()
    field = proportionality_mismatch_field(state, ops, 0.0, IdentityOperator(), DT)
    assert np.max(np.abs(field)) < 1e-15


def test_momentum_mismatch_is_second_order_in_spacing():
    # central-difference momentum: residual drops ~4x under h -> h/2
    # (measured 1.3968e-5 -> 3.6239e-6, ratio 3.855)
    residuals = {}
    for n in (64, 128):
        basis, _, state, ops = _pair_system(n, potential=SoftCoulomb(1.3, 0.8),
                                            scheme="stencil")
        p = MomentumOperator(basis, scheme="stencil")
        residuals[n] = pointwise_proportionality_check(state, ops, INCREMENT, p, DT)
    assert residuals[64] > 1e-6
    assert 3.2 < residuals[64] / residuals[128] < 4.6


def test_momentum_mismatch_spectral_floor():
    basis, _, state, ops = _pair_system()
    p = MomentumOperator(basis, scheme="spectral")
    res = pointwise_proportionality_check(state, ops, INCREMENT, p, DT)
    assert res < 1e-10


def test_kinetic_energy_does_not_commute():
    basis, _, state, ops = _pair_system()
    t = KineticOperator(basis, scheme="spectral")
    res = pointwise_proportionality_check(state, ops, INCREMENT, t, DT)
    assert res > 1e-4


def test_angular_momentum_mismatch_spectral_2d():
    # rotation-invariant pair potential commutes with total L_z; the
    # spectral residual on this well-resolved state measured 2.06e-11
    grid = GridSpec(dims=2, points_per_axis=32, extent=5.0)
    basis = GridBasis(grid, (ParticleSpec(1.0), ParticleSpec(1.4)))
    pairs = [InteractionPair(0, 1, GaussianWell(-1.5, 1.2))]
    state = normalize(gaussian_packet(basis,
                                      centers=(-0.6, 0.0, 0.6, 0.0),
                                      widths=(0.55,) * 4,
                                      momenta=(0.5, 0.0, -0.5, 0.0)))
    ops = collapse_sum(state, pairs, scheme="spectral")
    assert ops[0].gamma > 0.05
    lz = AngularMomentumZOperator(basis, scheme="spectral")
    res = pointwise_proportionality_check(state, ops, INCREMENT, lz, DT)
    assert res < 1e-10


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
    cfg = IntegratorConfig(dt=0.003, n_steps=40, scheme=scheme,
                           stop_on_absorb=False)
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
    cfg = IntegratorConfig(dt=0.01, n_steps=200, stop_on_absorb=False)
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
    # D = a x for one particle: grad term -i a k / m, positive a^2 / 2m
    basis, _, state, _ = _pair_system()
    alpha, k0 = 0.3, 0.6
    lin = CollapseOperator(alpha * basis.axis_coordinate(0), 1.0, 1.0)
    terms = energy_deviation_terms(state, [lin], scheme="stencil")
    assert terms.gradient_term == pytest.approx(-1j * alpha * k0, rel=2e-2)
    assert abs(terms.laplacian_term) < 1e-10
    assert terms.positive_definite_term == pytest.approx(alpha ** 2 / 2.0, rel=2e-2)


def test_pair_derivatives_match_numerical_fallback():
    _, _, state, ops = _pair_system()
    op = ops[0]
    bare = CollapseOperator(op.centered, op.gamma, op.energy_denominator)
    analytic = energy_deviation_terms(state, [op])
    numeric = energy_deviation_terms(state, [bare])
    assert analytic.gradient_term == pytest.approx(numeric.gradient_term, abs=1e-10)
    assert analytic.laplacian_term == pytest.approx(numeric.laplacian_term, abs=1e-10)
    assert analytic.positive_definite_term == pytest.approx(
        numeric.positive_definite_term, rel=1e-10)


def test_middle_line_is_purely_imaginary():
    # integrating by parts, Re(gradient term) = -laplacian term, so the
    # noise coefficient of the energy change is imaginary and its
    # ensemble mean vanishes
    _, _, state, ops = _pair_system()
    terms = energy_deviation_terms(state, [ops[0]])
    assert terms.gradient_term.real == pytest.approx(-terms.laplacian_term.real,
                                                     abs=1e-12)
    assert abs(terms.middle_total.real) < 1e-12
    assert abs(terms.middle_total.imag) > 1e-3


def test_positive_term_nonnegative_on_random_states():
    basis, pairs, state, ops = _pair_system()
    rng = np.random.default_rng(17)
    for _ in range(3):
        amp = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
        noisy = normalize(state.with_amplitudes(amp))
        terms = energy_deviation_terms(noisy, ops)
        assert terms.positive_definite_term >= 0.0


def test_terms_scale_with_energy_denominator():
    # the diagonal carries 1/E, so middle ~ 1/E and positive ~ 1/E^2
    _, _, state, ops = _pair_system()
    values = ops[0].centered + 5.0
    t1 = energy_deviation_terms(state, [collapse_from_diagonal(state, values, 4.0, 2.0)])
    t2 = energy_deviation_terms(state, [collapse_from_diagonal(state, values, 4.0, 20.0)])
    assert abs(t1.middle_total) / abs(t2.middle_total) == pytest.approx(10.0, rel=1e-9)
    assert t1.positive_definite_term / t2.positive_definite_term == pytest.approx(
        100.0, rel=1e-9)


def test_energy_terms_require_grid_state():
    basis = FiniteBasis(("in", "out"))
    psi = finite_state(basis, np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(TypeError):
        energy_deviation_terms(psi, [])


def test_energy_terms_reject_zero_state():
    basis, _, state, _ = _pair_system()
    dead = state.with_amplitudes(np.zeros(basis.shape, dtype=complex))
    with pytest.raises(ValueError):
        energy_deviation_terms(dead, [])


def test_accumulator_matches_manual_isometry():
    _, _, state, ops = _pair_system()
    acc = DeviationAccumulator()
    terms = acc.add(state, ops, 0.01)
    expected = np.sqrt(2.0 * abs(0.5 * terms.middle_total) ** 2 * 0.01)
    assert acc.rms == pytest.approx(expected, rel=1e-12)
    assert acc.heating == pytest.approx(terms.positive_definite_term * 0.01, rel=1e-12)
    before = acc.rms
    acc.add(state, ops, 0.01)
    assert acc.rms > before
    assert acc.steps == 2


def test_accumulator_silent_without_operators():
    _, _, state, _ = _pair_system()
    acc = DeviationAccumulator()
    acc.add(state, [], 0.01)
    assert acc.rms == 0.0
    assert acc.heating == 0.0


# ---------------------------------------------------------------------------
# Benchmark ratios


def test_benchmark_first_order_value():
    b = deviation_ratio_benchmark(2e-3, (1.0, 1.0), 1.0)
    assert b.ratio == pytest.approx(1e-3, rel=1e-12)
    assert b.first_order == pytest.approx(1.5e-3, rel=1e-12)
    assert b.second_order == pytest.approx(2.5e-6, rel=1e-12)
    assert b.radiative == pytest.approx(np.sqrt(2e-3) * 1e-3, rel=1e-12)
    assert b.antiparticle == pytest.approx(1e-6, rel=1e-12)


def test_benchmark_zero_change():
    b = deviation_ratio_benchmark(0.0, (1.0, 2.0), 3.0)
    assert b.ratio == 0.0
    assert b.first_order == 0.0
    assert b.radiative == 0.0


def test_benchmark_rejects_bad_inputs():
    with pytest.raises(ValueError):
        deviation_ratio_benchmark(-1.0, (1.0,), 1.0)
    with pytest.raises(ValueError):
        deviation_ratio_benchmark(1.0, (0.0,), 1.0)
    with pytest.raises(ValueError):
        deviation_ratio_benchmark(1.0, (1.0,), 0.0)


def test_benchmark_serializes():
    d = dataclasses.asdict(deviation_ratio_benchmark(1e-4, (0.5, 0.5), 10.0))
    assert set(d) == {"ratio", "first_order", "second_order", "radiative",
                      "antiparticle"}
    assert isinstance(d["ratio"], float)

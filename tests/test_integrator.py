"""Stepping, noise and trajectory bookkeeping.

Oracles here are closed forms: the free Gaussian spreading law, the
two-level Rabi rotation, and the exact algebraic remainder of the
one-step shift map. Stochastic assertions run on frozen seeds with
bands derived from the sample size, so they are deterministic.
"""

import gc
import weakref

import numpy as np
import pytest

from collapsim import collapse as collapse_module
from collapsim import integrator as integrator_module
from collapsim import operators as operators_module
from collapsim.collapse import collapse_from_diagonal, collapse_sum, total_diagonal
from collapsim.integrator import (
    FiniteSystem,
    GridSystem,
    IntegratorConfig,
    UnitaryStepper,
    density_change_decomposition,
    ito_step,
    run_ensemble,
    run_schrodinger_reference,
    run_trajectory,
)
from collapsim.noise import WienerProcess
from collapsim.operators import (
    DiagonalOperator,
    GaussianWell,
    InteractionPair,
    SoftCoulomb,
    hamiltonian_operator,
)
from collapsim.state import (
    FiniteBasis,
    GridBasis,
    GridSpec,
    ParticleSpec,
    expectation,
    finite_state,
    gaussian_packet,
    norm,
    normalize,
)

# ---------------------------------------------------------------- noise


def test_complex_increment_moments():
    dt = 0.04
    draws = WienerProcess(seed=1234).increments(dt, 100_000)
    n = draws.size
    sem_component = np.sqrt(dt / 2.0 / n)
    assert abs(draws.real.mean()) < 4 * sem_component
    assert abs(draws.imag.mean()) < 4 * sem_component
    # E[dxi* dxi] = dt, E[dxi^2] = 0
    sem_sq = dt / np.sqrt(n)
    assert abs((np.conj(draws) * draws).real.mean() - dt) < 4 * sem_sq
    assert abs((draws ** 2).mean()) < 5 * sem_sq


def test_real_noise_moments():
    dt = 0.04
    draws = WienerProcess(seed=99, real_noise=True).increments(dt, 100_000)
    assert np.isrealobj(draws)
    n = draws.size
    assert abs(draws.mean()) < 4 * np.sqrt(dt / n)
    # second moment dt with variance 2 dt^2, unlike the circular case
    assert abs((draws ** 2).mean() - dt) < 4 * np.sqrt(2.0) * dt / np.sqrt(n)


def test_batch_matches_sequential_draws():
    batch = WienerProcess(seed=7, stream=3).increments(0.02, 64)
    one_at_a_time = WienerProcess(seed=7, stream=3)
    singles = np.array([one_at_a_time.increment(0.02) for _ in range(64)])
    assert np.array_equal(batch, singles)


def test_same_seed_reproduces_bitwise():
    a = WienerProcess(seed=42, stream=1).increments(0.1, 1000)
    b = WienerProcess(seed=42, stream=1).increments(0.1, 1000)
    assert np.array_equal(a, b)


def test_distinct_streams_give_distinct_noise():
    a = WienerProcess(seed=42, stream=0).increments(0.1, 100)
    b = WienerProcess(seed=42, stream=1).increments(0.1, 100)
    assert not np.allclose(a, b)


# ---------------------------------------------------------------- config


def test_config_validation_rejects_bad_values():
    good = dict(dt=0.01, n_steps=10)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0, n_steps=10)
    with pytest.raises(ValueError):
        IntegratorConfig(n_steps=0, dt=0.01)
    with pytest.raises(ValueError):
        IntegratorConfig(**good, scheme="leapfrog")
    with pytest.raises(ValueError):
        IntegratorConfig(**good, kappa=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(**good, absorb_threshold=0.5)
    with pytest.raises(ValueError):
        IntegratorConfig(**good, record_every=0)
    nan = float("nan")
    for bad in (dict(dt=nan), dict(dt=0.01, kappa=nan), dict(dt=0.01, c=nan)):
        with pytest.raises(ValueError):
            IntegratorConfig(n_steps=3, **bad)
    cfg = IntegratorConfig(**good)
    assert cfg.derivative_scheme == "spectral"
    assert IntegratorConfig(**good, scheme="crank_nicolson_stencil").derivative_scheme == "stencil"


# the gamma case keeps its earlier test id, gamma_override
@pytest.mark.parametrize("field", [pytest.param("gamma", id="gamma_override"),
                                   "energy_denominator"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
def test_finite_rate_parameters_must_be_positive(field, value):
    rates = dict(gamma=4.0, energy_denominator=2.0)
    basis = FiniteBasis(("in", "out"))
    with pytest.raises(ValueError, match=field):
        FiniteSystem(basis, (1.0, 0.0), **{**rates, field: value})
    with pytest.raises(ValueError, match="diagonal"):
        FiniteSystem(basis, (1.0, 0.0, 0.0), **rates)
    FiniteSystem(basis, (1.0, 0.0), **rates)


def _pair_system(n=64, extent=8.0, masses=(1.0, 1.5), centers=(-0.8, 0.8),
                 widths=(0.9, 0.9), momenta=(0.0, 0.0), strength=-2.0, width=1.0):
    basis = GridBasis(GridSpec(1, n, extent),
                      (ParticleSpec(masses[0]), ParticleSpec(masses[1])))
    pair = InteractionPair(0, 1, GaussianWell(strength=strength, width=width))
    state = normalize(gaussian_packet(basis, centers, widths, momenta))
    return basis, pair, state


def test_stencil_stability_bound_enforced():
    basis, pair, state = _pair_system()
    h = basis.grid.spacing
    bound = 0.25 * h * h * 1.0
    cfg = IntegratorConfig(dt=2.0 * bound, n_steps=5, scheme="crank_nicolson_stencil")
    with pytest.raises(ValueError, match="stability"):
        cfg.validate_grid(basis)
    with pytest.raises(ValueError, match="stability"):
        run_trajectory(GridSystem(basis, (pair,)), state, cfg, seed=0)
    IntegratorConfig(dt=0.5 * bound, n_steps=5,
                     scheme="crank_nicolson_stencil").validate_grid(basis)


# ---------------------------------------------------------------- unitary sub-step


def test_spectral_free_packet_width_matches_closed_form():
    m, s0, k0 = 1.3, 1.0, 0.7
    basis = GridBasis(GridSpec(1, 256, 16.0), (ParticleSpec(m),))
    state = normalize(gaussian_packet(basis, [0.0], [s0], [k0]))
    cfg = IntegratorConfig(dt=0.002, n_steps=1000, renormalize=False)
    final = run_schrodinger_reference(GridSystem(basis), state, cfg)
    t = cfg.dt * cfg.n_steps

    x = DiagonalOperator(basis.axis_coordinate(0))
    x2 = DiagonalOperator(basis.axis_coordinate(0) ** 2)
    mean_x = expectation(x, final).real
    sigma = np.sqrt(expectation(x2, final).real - mean_x ** 2)

    sigma_exact = s0 * np.sqrt(1.0 + t * t / (4.0 * m * m * s0 ** 4))
    assert abs(sigma / sigma_exact - 1.0) < 1e-6
    assert abs(mean_x - k0 * t / m) < 1e-8
    assert abs(norm(final) - 1.0) < 1e-12


def test_unitary_steppers_preserve_norm():
    basis, pair, state = _pair_system()
    for scheme in ("split_step_spectral", "crank_nicolson_stencil"):
        dt = 0.002 if scheme == "crank_nicolson_stencil" else 0.01
        stepper = UnitaryStepper(basis, dt, scheme=scheme, pairs=(pair,))
        amp = state.amplitudes
        for _ in range(200):
            amp = stepper.step(amp)
        drift = abs(norm(state.with_amplitudes(amp)) - 1.0)
        assert drift < 1e-12, scheme


# ---------------------------------------------------------------- single steps


def _two_level(w_in=0.37, phase=0.0):
    basis = FiniteBasis(("in", "out"))
    amp = np.array([np.sqrt(w_in) * np.exp(1j * phase), np.sqrt(1.0 - w_in)], complex)
    return finite_state(basis, amp)


TWO_LEVEL_DIAG = np.array([1.0, 0.0])
TWO_LEVEL = FiniteSystem(FiniteBasis(("in", "out")), TWO_LEVEL_DIAG, gamma=4.0,
                         energy_denominator=2.0)


def test_renormalized_step_reports_prior_norm():
    state = _two_level(0.4)
    cfg = IntegratorConfig(dt=0.01, n_steps=1)
    ops = [collapse_from_diagonal(state, TWO_LEVEL_DIAG, gamma_value=4.0,
                                  energy_denominator=2.0, kappa=1.0)]
    xi = WienerProcess(seed=5).increment(cfg.dt)

    raw_cfg = IntegratorConfig(dt=0.01, n_steps=1, renormalize=False)
    raw, raw_diag = ito_step(state, ops, xi, raw_cfg)
    new, diag = ito_step(state, ops, xi, cfg)

    assert diag.shift_applied and raw_diag.shift_applied
    assert abs(diag.norm_before_renormalize - norm(raw)) < 1e-15
    assert abs(norm(new) - 1.0) < 1e-14
    assert diag.norm_before_renormalize != 1.0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_renormalizing_a_non_finite_state_raises(bad):
    state = finite_state(FiniteBasis(("in", "out")), [bad, 0.6])
    with pytest.raises(FloatingPointError, match="norm"):
        ito_step(state, [], 0.0, IntegratorConfig(dt=0.01, n_steps=1))
    # without renormalization the step reports the norm it produced
    _, diag = ito_step(state, [], 0.0,
                       IntegratorConfig(dt=0.01, n_steps=1, renormalize=False))
    assert not np.isfinite(diag.norm_before_renormalize)


def test_kappa_zero_is_bit_identical_to_reference_finite():
    state = finite_state(TWO_LEVEL.basis, [0.8, 0.6j])
    cfg = IntegratorConfig(dt=0.01, n_steps=50, kappa=0.0)
    rec = run_trajectory(TWO_LEVEL, state, cfg, seed=11)
    ref = run_schrodinger_reference(TWO_LEVEL, state, cfg)
    assert np.array_equal(rec.final_state.amplitudes, ref.amplitudes)

    lively = IntegratorConfig(dt=0.01, n_steps=50, kappa=1.0)
    rec2 = run_trajectory(TWO_LEVEL, state, lively, seed=11)
    assert not np.array_equal(rec2.final_state.amplitudes, ref.amplitudes)


def test_kappa_zero_is_bit_identical_to_reference_grid():
    basis, pair, state = _pair_system()
    cfg = IntegratorConfig(dt=0.005, n_steps=20, kappa=0.0)
    system = GridSystem(basis, (pair,))
    rec = run_trajectory(system, state, cfg, seed=3)
    ref = run_schrodinger_reference(system, state, cfg)
    assert np.array_equal(rec.final_state.amplitudes, ref.amplitudes)


def test_zero_gain_grid_run_skips_the_rate(monkeypatch):
    # at kappa = 0 the rate scales nothing, so no step computes it;
    # otherwise each step taken computes it once (the operator builder
    # reaches the numerator through the private form that takes <V>)
    calls = []
    original = collapse_module._rate_numerator

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(collapse_module, "_rate_numerator", counting)
    basis, pair, state = _pair_system()
    for kappa in (0.0, 1.0):
        calls.clear()
        cfg = IntegratorConfig(dt=0.005, n_steps=5, kappa=kappa, stop_on_absorb=False)
        rec = run_trajectory(GridSystem(basis, (pair,)), state, cfg, seed=3)
        assert rec.steps_taken == 5
        assert len(calls) == (rec.steps_taken if kappa > 0 else 0)


def test_finite_run_work_counts(monkeypatch):
    # one operator and one step per step taken, none after the last step
    # or an absorbing one, and a draw only where the diagonal is nonzero
    built, stepped, drawn = [], [], []
    build, step, draw = (integrator_module.collapse_from_diagonal,
                         integrator_module.ito_step, WienerProcess.increment)

    def counting_build(*args, **kwargs):
        op = build(*args, **kwargs)
        built.append(bool(op.scaled_values.any()))
        return op

    def counting_step(*args, **kwargs):
        stepped.append(1)
        return step(*args, **kwargs)

    def counting_draw(self, dt):
        drawn.append(1)
        return draw(self, dt)

    monkeypatch.setattr(integrator_module, "collapse_from_diagonal", counting_build)
    monkeypatch.setattr(integrator_module, "ito_step", counting_step)
    monkeypatch.setattr(WienerProcess, "increment", counting_draw)
    for overrides, absorbs in ((dict(), True),
                               (dict(n_steps=25, absorb_threshold=1e-6), False),
                               (dict(n_steps=25, kappa=0.0), False)):
        del built[:], stepped[:], drawn[:]
        cfg = _two_level_config(**overrides)
        rec = run_trajectory(TWO_LEVEL, _two_level(0.5), cfg, seed=1)
        assert (rec.outcome is not None) == absorbs
        assert (rec.steps_taken < cfg.n_steps) == absorbs
        assert len(built) == len(stepped) == rec.steps_taken
        assert len(drawn) == sum(built) == (rec.steps_taken if cfg.kappa else 0)


# ------------------------------------------------- density change bookkeeping


def test_hamiltonian_density_change_integrates_to_zero():
    basis, pair, state = _pair_system(momenta=(0.6, -0.4))
    cfg = IntegratorConfig(dt=0.01, n_steps=1)
    ham = hamiltonian_operator(basis, (pair,))
    change = density_change_decomposition(state, [], 0.0, cfg, hamiltonian=ham)
    assert np.all(change.stochastic_part == 0.0)
    assert abs(np.sum(change.hamiltonian_part) * basis.weight) < 1e-12
    assert np.max(np.abs(change.hamiltonian_part)) > 0.0


def test_stochastic_part_is_exact_first_order_norm_budget():
    """Shift-only step: norm change minus the recorded stochastic part
    must equal the closed-form higher-order remainder exactly.

    The step runs on a state the operator was NOT centered on, so the
    leading stochastic term is genuinely nonzero here. Moving packets
    keep the shift rate itself away from zero.
    """
    basis, pair, state = _pair_system(momenta=(0.6, -0.4))
    dt = 0.01
    cfg = IntegratorConfig(dt=dt, n_steps=1, renormalize=False)
    ops = collapse_sum(state, (pair,), kappa=1.0, c=1.0)
    diag = total_diagonal(ops)
    xi = WienerProcess(seed=21).increment(dt)

    skew = 1.0 + 0.25 * np.tanh(basis.axis_coordinate(0))
    tilted = normalize(state.with_amplitudes(state.amplitudes * skew))

    shifted, _ = ito_step(tilted, ops, xi, cfg, stepper=None)
    delta_sq = norm(shifted) ** 2 - norm(tilted) ** 2

    change = density_change_decomposition(tilted, ops, xi, cfg)
    stoch = np.sum(change.stochastic_part) * basis.weight

    dens = (np.conj(tilted.amplitudes) * tilted.amplitudes).real
    remainder = np.sum(dens * (
        diag ** 2 * (abs(xi) ** 2 - dt)
        - diag ** 3 * dt * xi.real
        + diag ** 4 * dt * dt / 4.0
    )) * basis.weight
    assert abs(delta_sq - stoch - remainder) < 1e-13
    assert abs(stoch) > 1e-6  # the leading term is the one being tested


def test_density_decomposition_residual_is_first_order():
    """Halving dt four-fold shrinks the unmodeled remainder four-fold.

    The gain is turned up so the shift's own quadratic terms dominate
    the remainder; at small gain the unitary linearization error is
    comparable and the measured order sits between one and two.
    """
    basis, pair, state = _pair_system(momenta=(0.6, -0.4))
    ham = hamiltonian_operator(basis, (pair,))
    z = complex(1.1, -0.6)  # fixed normal pair, |z|^2/2 != 1

    def residual(dt):
        cfg = IntegratorConfig(dt=dt, n_steps=1, renormalize=False)
        ops = collapse_sum(state, (pair,), kappa=8.0, c=1.0)
        xi = z * np.sqrt(dt / 2.0)
        stepper = UnitaryStepper(basis, dt, pairs=(pair,))
        new, _ = ito_step(state, ops, xi, cfg, stepper=stepper)
        actual = ((np.conj(new.amplitudes) * new.amplitudes)
                  - (np.conj(state.amplitudes) * state.amplitudes)).real
        model = density_change_decomposition(state, ops, xi, cfg, hamiltonian=ham)
        return np.sum(np.abs(actual - model.total)) * basis.weight

    ratio = residual(1e-3) / residual(2.5e-4)
    assert 3.2 < ratio < 5.0


# ---------------------------------------------------------------- martingale


def test_two_level_shift_mean_weight_is_conserved():
    w0 = 0.37
    state = _two_level(w0)
    cfg = IntegratorConfig(dt=0.01, n_steps=1)
    ops = [collapse_from_diagonal(state, TWO_LEVEL_DIAG, gamma_value=4.0,
                                  energy_denominator=2.0, kappa=1.0)]
    noise = WienerProcess(seed=2024)
    deltas = np.empty(4000)
    for i in range(deltas.size):
        new, _ = ito_step(state, ops, noise.increment(cfg.dt), cfg)
        deltas[i] = abs(new.amplitudes[0]) ** 2 - w0
    sem = deltas.std(ddof=1) / np.sqrt(deltas.size)
    assert abs(deltas.mean()) < 4 * sem
    assert deltas.std() > 1e-3  # the step really moves the weight


def test_one_step_conditional_mean_bias_is_second_order():
    """Deterministic Gauss-Hermite average over the circular increment."""
    nodes, weights = np.polynomial.hermite.hermgauss(40)
    w0 = 0.37
    state = _two_level(w0)

    def bias(dt):
        cfg = IntegratorConfig(dt=dt, n_steps=1)
        ops = [collapse_from_diagonal(state, TWO_LEVEL_DIAG, gamma_value=4.0,
                                      energy_denominator=2.0, kappa=1.0)]
        total = 0.0
        for x1, p1 in zip(nodes, weights):
            for x2, p2 in zip(nodes, weights):
                xi = complex(x1, x2) * np.sqrt(dt)  # nodes carry the 1/sqrt(2)
                new, _ = ito_step(state, ops, xi, cfg)
                total += p1 * p2 * abs(new.amplitudes[0]) ** 2
        return abs(total / np.pi - w0)

    b1, b2 = bias(0.02), bias(0.01)
    assert b1 < 1e-4
    assert 3.2 < b1 / b2 < 4.8


# ---------------------------------------------------------------- trajectories


def _two_level_config(**kw):
    base = dict(dt=0.08, n_steps=400, kappa=1.0, absorb_threshold=0.05)
    base.update(kw)
    return IntegratorConfig(**base)


def test_two_level_trajectory_absorbs_and_reports():
    cfg = _two_level_config()
    rec = run_trajectory(TWO_LEVEL, _two_level(0.5), cfg, seed=1)
    assert rec.outcome in ("in", "out")
    assert rec.steps_taken < cfg.n_steps
    assert rec.times[0] == 0.0
    assert rec.times.size == rec.weight_in.size
    edge = rec.weight_in[-1]
    assert edge >= 1.0 - cfg.absorb_threshold or edge <= cfg.absorb_threshold
    np.testing.assert_allclose(rec.weight_in + rec.weight_out, 1.0, atol=1e-12)


def test_trajectory_weight_series_matches_step_count():
    cfg = _two_level_config(n_steps=30, absorb_threshold=1e-6)
    rec = run_trajectory(TWO_LEVEL, _two_level(0.5), cfg, seed=4)
    # no absorption at this tight threshold: full run, one record per step
    assert rec.outcome is None
    assert rec.steps_taken == 30
    assert rec.times.size == 31
    assert rec.max_norm_drift < 0.5


def _reference_trajectory(amp, system, cfg, seed):
    """The two-level loop written straight from the equations: centre V
    on the state, shift by 1 + D dxi - D^2 dt / 2, renormalise, and take
    the weight as the density where V - <V> > 0."""
    wiener = WienerProcess(seed, real_noise=cfg.real_noise)
    values = np.asarray(system.diagonal)
    scale = cfg.kappa * np.sqrt(system.gamma) / system.energy_denominator
    theta = cfg.absorb_threshold

    def centre(amp):
        dens = (np.conj(amp) * amp).real
        total = dens.sum()
        centred = values - float((dens * values).sum() / total)
        return centred, float((dens * (centred > 0.0)).sum() / total)

    centred, w = centre(amp)
    weights, norms, outcome = [w], [], None
    for step in range(1, cfg.n_steps + 1):
        d = scale * centred
        xi = wiener.increment(cfg.dt) if np.any(d != 0.0) else 0.0
        amp = amp * (1.0 + d * xi - 0.5 * d * d * cfg.dt)
        norms.append(float(np.sqrt(np.vdot(amp, amp).real)))
        amp = amp / norms[-1]
        centred, w = centre(amp)
        recorded = step % cfg.record_every == 0 or step == cfg.n_steps
        if recorded:
            weights.append(w)
        if cfg.stop_on_absorb and (w >= 1.0 - theta or w <= theta):
            outcome = "in" if w >= 1.0 - theta else "out"
            break
    if not recorded:
        weights.append(w)
    return np.array(weights), np.array(norms), outcome, step


@pytest.mark.parametrize("overrides", [
    dict(record_every=3),
    dict(real_noise=True),
    dict(n_steps=25, absorb_threshold=1e-6),
    dict(n_steps=60, record_every=7, stop_on_absorb=False),
])
def test_two_level_run_matches_reference_loop(overrides):
    cfg = _two_level_config(**overrides)
    outcomes = set()
    for seed in range(5):
        state = _two_level(0.37, phase=0.4)
        rec = run_trajectory(TWO_LEVEL, state, cfg, seed=seed)
        weights, norms, outcome, steps = _reference_trajectory(
            state.amplitudes, TWO_LEVEL, cfg, seed)
        assert np.array_equal(rec.weight_in, weights)
        assert np.array_equal(rec.norms_before_renormalize, norms)
        assert (rec.outcome, rec.steps_taken) == (outcome, steps)
        outcomes.add(outcome)
    # the capped runs stay unresolved, the others all absorb
    capped = "n_steps" in overrides
    assert outcomes == {None} if capped else None not in outcomes


def test_collapsed_two_level_state_keeps_its_branch_weight():
    # past the reference loop's reach: once the out level holds less than
    # 2**-53 of the density, a one-pass V - <V> rounds to zero on the in
    # level and would put the whole state in the out branch
    cfg = _two_level_config(n_steps=400, stop_on_absorb=False)
    rec = run_trajectory(TWO_LEVEL, _two_level(0.37, phase=0.4), cfg, seed=13)
    dens = np.abs(rec.final_state.amplitudes) ** 2
    assert 0.0 < dens[1] < 2.0 ** -53 * dens[0]
    assert rec.weight_in[-1] == 1.0


def test_ensemble_is_deterministic_and_padded():
    cfg = _two_level_config(n_steps=120)
    ens1 = run_ensemble(TWO_LEVEL, _two_level(0.5), cfg, n_trajectories=12,
                        master_seed=10)
    ens2 = run_ensemble(TWO_LEVEL, _two_level(0.5), cfg, n_trajectories=12,
                        master_seed=10)
    assert np.array_equal(ens1.weight_in, ens2.weight_in)
    assert ens1.weight_in.shape == (12, 121)
    assert ens1.times.size == 121
    assert list(ens1.seeds) == list(range(10, 22))
    # rows that absorbed stay frozen afterwards
    for row, outcome, steps in zip(ens1.weight_in, ens1.outcomes, ens1.steps_taken):
        if outcome is not None and steps < cfg.n_steps:
            tail = row[steps:]
            assert np.all(tail == tail[0])


def test_ensemble_mean_weight_is_martingale():
    cfg = _two_level_config(n_steps=150, dt=0.05)
    w0 = 0.3
    ens = run_ensemble(TWO_LEVEL, _two_level(w0), cfg, n_trajectories=300,
                       master_seed=77)
    final = ens.weight_in[:, -1]
    sem = final.std(ddof=1) / np.sqrt(final.size)
    assert abs(final.mean() - w0) < 4 * sem
    assert final.std() > 0.1  # weights really spread toward the edges


def test_grid_trajectory_records_observables():
    basis, pair, state = _pair_system(momenta=(0.6, -0.4))
    cfg = IntegratorConfig(dt=0.01, n_steps=30, kappa=1.0, record_every=10,
                           record_observables=("momentum", "kinetic", "energy"))
    rec = run_trajectory(GridSystem(basis, (pair,)), state, cfg, seed=8)
    assert rec.times.size == 4  # t=0 plus records at steps 10, 20, 30
    for name in ("momentum", "kinetic", "energy"):
        series = rec.expectations[name]
        assert series.shape == (4,)
        assert np.all(np.isfinite(series))
    # both branches populated for overlapping packets
    assert np.isfinite(rec.expectations["momentum_in"][0])
    assert np.isfinite(rec.expectations["momentum_out"][0])
    assert rec.weight_in[0] > 0.05
    assert rec.max_norm_drift < 0.2


@pytest.mark.parametrize("scheme", ["split_step_spectral", "crank_nicolson_stencil"])
@pytest.mark.parametrize("with_pair", [False, True])
def test_energy_reuses_the_recorded_kinetic_field(monkeypatch, with_pair, scheme):
    # the energy series is the one recorded alone, whatever the order of
    # the names, and each record takes one second derivative per axis
    calls = []
    original = operators_module.derivative2

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(operators_module, "derivative2", counting)
    basis, pair, state = _pair_system(momenta=(0.6, -0.4))
    system = GridSystem(basis, (pair,) if with_pair else ())
    records = {}
    for names in (("energy",), ("kinetic", "energy"), ("energy", "kinetic")):
        calls.clear()
        cfg = IntegratorConfig(dt=0.002, n_steps=12, scheme=scheme, record_every=4,
                               stop_on_absorb=False, record_observables=names)
        rec = run_trajectory(system, state, cfg, seed=8)
        n_records = rec.times.size
        assert len(calls) == n_records * basis.n_axes
        records[names] = rec
    alone = records[("energy",)].expectations
    for names in (("kinetic", "energy"), ("energy", "kinetic")):
        both = records[names].expectations
        for key in ("energy", "energy_in", "energy_out"):
            assert np.array_equal(both[key], alone[key], equal_nan=True), (names, key)
    assert np.array_equal(records[("kinetic", "energy")].expectations["kinetic"],
                          records[("energy", "kinetic")].expectations["kinetic"])


def test_unknown_observable_rejected():
    basis, pair, state = _pair_system()
    cfg = IntegratorConfig(dt=0.01, n_steps=2, record_observables=("spin",))
    with pytest.raises(ValueError, match="spin"):
        run_trajectory(GridSystem(basis, (pair,)), state, cfg, seed=0)


def test_run_ensemble_requires_positive_count():
    cfg = _two_level_config(n_steps=5)
    with pytest.raises(ValueError):
        run_ensemble(TWO_LEVEL, _two_level(0.5), cfg, n_trajectories=0)


@pytest.mark.parametrize("potential", [GaussianWell(-2.0, 1.0),
                                       SoftCoulomb(1.0, 0.5)])
def test_pair_geometry_is_computed_once_per_run(monkeypatch, potential):
    # the potential never changes between steps: a longer run must not
    # evaluate it more often (the repulsive case also takes the radial
    # rate-denominator path)
    calls = []
    original = type(potential).value_u

    def counting(self, u):
        calls.append(1)
        return original(self, u)

    monkeypatch.setattr(type(potential), "value_u", counting)
    basis = GridBasis(GridSpec(2, 8, 4.0), (ParticleSpec(1.0), ParticleSpec(1.5)))
    pair = InteractionPair(0, 1, potential)
    state = normalize(gaussian_packet(basis, (-0.7, -0.35, 0.7, 0.35), (1.0,) * 4,
                                      (0.6, 0.0, -0.6, 0.0)))
    counts = []
    for n_steps in (10, 20):
        calls.clear()
        cfg = IntegratorConfig(dt=0.008, n_steps=n_steps, kappa=1.0, record_every=5,
                               stop_on_absorb=False,
                               record_observables=("momentum", "kinetic", "energy"))
        rec = run_trajectory(GridSystem(basis, (pair,)), state, cfg, seed=2)
        assert rec.steps_taken == n_steps
        counts.append(len(calls))
    assert 0 < counts[0] == counts[1]


def test_system_does_not_pin_pair_fields(monkeypatch):
    # a run builds its pair geometries and frees them on return; a system
    # that kept them would hold every full-shape field between runs
    alive = []
    original = operators_module.PairGeometry.__init__

    def recording(self, *args, **kwargs):
        alive.append(weakref.ref(self))
        original(self, *args, **kwargs)

    monkeypatch.setattr(operators_module.PairGeometry, "__init__", recording)
    basis, pair, state = _pair_system(momenta=(0.6, -0.4))
    system = GridSystem(basis, (pair,))
    cfg = IntegratorConfig(dt=0.005, n_steps=4, record_every=2, stop_on_absorb=False,
                           record_observables=("momentum", "energy"))
    for seed in (0, 1):
        run_trajectory(system, state, cfg, seed=seed)
    gc.collect()
    assert len(alive) == 2
    assert all(ref() is None for ref in alive)
    assert system == GridSystem(basis, (pair,))

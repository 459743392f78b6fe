"""Stepping, noise and trajectory bookkeeping.

Oracles here are closed forms: the free Gaussian spreading law, the
two-level Rabi rotation, and the exact algebraic remainder of the
one-step shift map. Stochastic assertions run on frozen seeds with
bands derived from the sample size, so they are deterministic.
"""

import dataclasses
import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from collapsim import collapse as collapse_module
from collapsim import integrator as integrator_module
from collapsim import operators as operators_module
from collapsim.collapse import collapse_from_diagonal, collapse_sum
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
    KineticOperator,
    PairGeometry,
    SoftCoulomb,
)
from collapsim.state import (
    FiniteBasis,
    GridBasis,
    GridSpec,
    ParticleSpec,
    branch_split,
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
    batch = WienerProcess(seed=7).increments(0.02, 64)
    one_at_a_time = WienerProcess(seed=7)
    singles = np.array([one_at_a_time.increment(0.02) for _ in range(64)])
    assert np.array_equal(batch, singles)


def test_same_seed_reproduces_bitwise():
    a = WienerProcess(seed=42).increments(0.1, 1000)
    b = WienerProcess(seed=42).increments(0.1, 1000)
    assert np.array_equal(a, b)


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
    for theta in (0.0, 0.5):
        with pytest.raises(ValueError):
            IntegratorConfig(**good, absorb_threshold=theta)
    with pytest.raises(ValueError):
        IntegratorConfig(**good, record_every=0)
    nan = float("nan")
    for bad in (dict(dt=nan), dict(dt=0.01, kappa=nan), dict(dt=0.01, c=nan)):
        with pytest.raises(ValueError):
            IntegratorConfig(n_steps=3, **bad)
    cfg = IntegratorConfig(**good)
    assert cfg.absorb_threshold is None
    # frozen: no assignment gets round the checks above
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.dt = 0.0
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


def _hamiltonian(basis, pairs):
    """Spectral kinetic operator plus the diagonal of the summed pair potentials."""
    kinetic = KineticOperator(basis)
    potential = DiagonalOperator(sum(PairGeometry(basis, pair).values for pair in pairs))
    return SimpleNamespace(apply=lambda amp: kinetic.apply(amp) + potential.apply(amp))


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
    dt, n_steps = 0.002, 1000
    stepper = UnitaryStepper(basis, dt)
    amp = state.amplitudes
    for _ in range(n_steps):
        amp = stepper.step(amp)
    final = state.with_amplitudes(amp)
    t = dt * n_steps

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
        stepper = UnitaryStepper(basis, dt, scheme=scheme,
                                 potential=PairGeometry(basis, pair).values)
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
    op = collapse_from_diagonal(state, TWO_LEVEL_DIAG, gamma_value=4.0,
                                energy_denominator=2.0, kappa=1.0)
    xi = WienerProcess(seed=5).increment(cfg.dt)
    diag = op.diagonal
    raw = state.amplitudes * (1.0 + diag * xi - 0.5 * diag * diag * cfg.dt)

    new, norm_pre = ito_step(state, op, xi, cfg)

    assert np.allclose(new.amplitudes * norm_pre, raw, rtol=1e-15, atol=0.0)
    assert abs(norm_pre - norm(state.with_amplitudes(raw))) < 1e-15
    assert abs(norm(new) - 1.0) < 1e-14
    assert norm_pre != 1.0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_renormalizing_a_non_finite_state_raises(bad):
    state = finite_state(FiniteBasis(("in", "out")), [bad, 0.6])
    with pytest.raises(FloatingPointError, match="norm"):
        ito_step(state, None, 0.0, IntegratorConfig(dt=0.01, n_steps=1))


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
    # otherwise each step taken computes its numerator and its
    # denominator once
    calls = []

    def counting(name):
        original = getattr(collapse_module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    for name in ("rate_numerator", "rate_denominator"):
        monkeypatch.setattr(collapse_module, name, counting(name))
    basis, pair, state = _pair_system()
    for kappa in (0.0, 1.0):
        calls.clear()
        cfg = IntegratorConfig(dt=0.005, n_steps=5, kappa=kappa)
        rec = run_trajectory(GridSystem(basis, (pair,)), state, cfg, seed=3)
        assert rec.steps_taken == 5
        expected = rec.steps_taken if kappa > 0 else 0
        assert calls.count("rate_numerator") == expected
        assert calls.count("rate_denominator") == expected


def test_finite_run_work_counts(monkeypatch):
    # one operator and one step per step taken, none after the last step
    # or an absorbing one, and a draw only where the diagonal is nonzero
    built, stepped, drawn = [], [], []
    build, step, draw = (integrator_module.collapse_from_diagonal,
                         integrator_module.ito_step, WienerProcess.increment)

    def counting_build(*args, **kwargs):
        op = build(*args, **kwargs)
        built.append(bool(op.diagonal.any()))
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
    ham = _hamiltonian(basis, (pair,))
    change = density_change_decomposition(state, None, 0.0, cfg, hamiltonian=ham)
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
    cfg = IntegratorConfig(dt=dt, n_steps=1)
    op = collapse_sum(state, (pair,), kappa=1.0, c=1.0)
    diag = op.diagonal
    xi = WienerProcess(seed=21).increment(dt)

    skew = 1.0 + 0.25 * np.tanh(basis.axis_coordinate(0))
    tilted = normalize(state.with_amplitudes(state.amplitudes * skew))

    _, norm_pre = ito_step(tilted, op, xi, cfg, stepper=None)
    delta_sq = norm_pre ** 2 - norm(tilted) ** 2

    change = density_change_decomposition(tilted, op, xi, cfg)
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
    ham = _hamiltonian(basis, (pair,))
    z = complex(1.1, -0.6)  # fixed normal pair, |z|^2/2 != 1

    def residual(dt):
        cfg = IntegratorConfig(dt=dt, n_steps=1)
        op = collapse_sum(state, (pair,), kappa=8.0, c=1.0)
        xi = z * np.sqrt(dt / 2.0)
        stepper = UnitaryStepper(basis, dt, potential=PairGeometry(basis, pair).values)
        new, norm_pre = ito_step(state, op, xi, cfg, stepper=stepper)
        raw = new.amplitudes * norm_pre
        actual = ((np.conj(raw) * raw)
                  - (np.conj(state.amplitudes) * state.amplitudes)).real
        model = density_change_decomposition(state, op, xi, cfg, hamiltonian=ham)
        return np.sum(np.abs(actual - model.total)) * basis.weight

    ratio = residual(1e-3) / residual(2.5e-4)
    assert 3.2 < ratio < 5.0


# ---------------------------------------------------------------- martingale


def test_two_level_shift_mean_weight_is_conserved():
    w0 = 0.37
    state = _two_level(w0)
    cfg = IntegratorConfig(dt=0.01, n_steps=1)
    op = collapse_from_diagonal(state, TWO_LEVEL_DIAG, gamma_value=4.0,
                                energy_denominator=2.0, kappa=1.0)
    noise = WienerProcess(seed=2024)
    deltas = np.empty(4000)
    for i in range(deltas.size):
        new, _ = ito_step(state, op, noise.increment(cfg.dt), cfg)
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
        op = collapse_from_diagonal(state, TWO_LEVEL_DIAG, gamma_value=4.0,
                                    energy_denominator=2.0, kappa=1.0)
        total = 0.0
        for x1, p1 in zip(nodes, weights):
            for x2, p2 in zip(nodes, weights):
                xi = complex(x1, x2) * np.sqrt(dt)  # nodes carry the 1/sqrt(2)
                new, _ = ito_step(state, op, xi, cfg)
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
    # the absorbing step is recorded on the step-index clock
    assert rec.times[-1] == rec.steps_taken * cfg.dt
    edge = rec.weight_in[-1]
    assert edge >= 1.0 - cfg.absorb_threshold or edge <= cfg.absorb_threshold


def test_finite_run_without_a_threshold_takes_every_step():
    # the config that absorbs above, with no threshold: the weight runs
    # past 0.05 and the run still takes all its steps
    cfg = _two_level_config(absorb_threshold=None)
    rec = run_trajectory(TWO_LEVEL, _two_level(0.5), cfg, seed=1)
    assert rec.outcome is None
    assert rec.steps_taken == cfg.n_steps
    assert rec.times.size == cfg.n_steps + 1
    assert min(rec.weight_in[-1], 1.0 - rec.weight_in[-1]) < 0.05


def test_grid_run_with_a_threshold_stops():
    # the library keeps grid absorption: a threshold the weight passes
    # at the first step stops the same-seed run there
    basis, pair, state = _pair_system(momenta=(0.6, -0.4))
    system = GridSystem(basis, (pair,))
    cfg = IntegratorConfig(dt=0.01, n_steps=5)
    free = run_trajectory(system, state, cfg, seed=8)
    assert (free.outcome, free.steps_taken) == (None, 5)
    w = free.weight_in[1]
    theta = min(w, 1.0 - w) + 1e-3
    assert theta < 0.5
    rec = run_trajectory(system, state, dataclasses.replace(cfg, absorb_threshold=theta),
                         seed=8)
    assert (rec.outcome, rec.steps_taken) == ("in" if w > 0.5 else "out", 1)
    assert np.array_equal(rec.weight_in, free.weight_in[:2])
    assert np.array_equal(rec.times, [0.0, cfg.dt])


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
        if theta is not None and (w >= 1.0 - theta or w <= theta):
            outcome = "in" if w >= 1.0 - theta else "out"
            break
    if not recorded:
        weights.append(w)
    return np.array(weights), np.array(norms), outcome, step


@pytest.mark.parametrize("overrides", [
    dict(record_every=3),
    dict(real_noise=True),
    dict(n_steps=25, absorb_threshold=1e-6),
    dict(n_steps=60, record_every=7, absorb_threshold=None),
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
    cfg = _two_level_config(n_steps=400, absorb_threshold=None)
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
    # rows that absorbed stay frozen afterwards
    for row, outcome, steps in zip(ens1.weight_in, ens1.outcomes, ens1.steps_taken):
        if outcome is not None and steps < cfg.n_steps:
            tail = row[steps:]
            assert np.all(tail == tail[0])


def test_ensemble_times_follow_the_record_clock():
    # every run absorbs between record steps, the longest at step 59; the
    # clock still reads step min(i * record_every, n_steps) at entry i
    cfg = _two_level_config(n_steps=203, record_every=5)
    ens = run_ensemble(TWO_LEVEL, _two_level(0.5), cfg, n_trajectories=8,
                       master_seed=3)
    assert None not in ens.outcomes
    assert max(ens.steps_taken) % cfg.record_every != 0
    steps = [5 * i for i in range(41)] + [203]
    assert np.array_equal(ens.times, np.array(steps) * cfg.dt)
    assert ens.weight_in.shape == (8, len(steps))


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


def test_grid_trajectory_times_follow_the_record_clock():
    # a final step off the record grid, and a dt whose running sum drifts
    # off its multiples
    basis, pair, state = _pair_system(n=32, momenta=(0.6, -0.4))
    cfg = IntegratorConfig(dt=0.003, n_steps=43, kappa=1.0, record_every=5)
    rec = run_trajectory(GridSystem(basis, (pair,)), state, cfg, seed=2)
    steps = np.minimum(np.arange(10) * cfg.record_every, cfg.n_steps)
    assert np.array_equal(rec.times, steps * cfg.dt)


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
                               record_observables=names)
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


@pytest.mark.parametrize("names", [("energy",), ("kinetic", "energy")])
def test_two_pair_energy_is_the_summed_hamiltonian(names):
    # three particles on a line, pairs (0, 1) and (1, 2): the recorded
    # energy applies the kinetic term plus both pairs' potentials
    basis = GridBasis(GridSpec(1, 16, 4.0),
                      (ParticleSpec(1.0), ParticleSpec(1.5), ParticleSpec(0.8)))
    pairs = (InteractionPair(0, 1, GaussianWell(-2.0, 1.0)),
             InteractionPair(1, 2, SoftCoulomb(1.0, 0.5)))
    state = normalize(gaussian_packet(basis, [-1.0, 0.2, 1.1], [0.9, 0.8, 1.0],
                                      [0.5, -0.2, -0.4]))
    cfg = IntegratorConfig(dt=0.01, n_steps=6, record_every=2, record_observables=names)
    seen = []
    rec = run_trajectory(GridSystem(basis, pairs), state, cfg, seed=3,
                         per_step=lambda step, state, op, increment: seen.append((state, op)))
    ham = _hamiltonian(basis, pairs)
    expected = {"energy": [], "energy_in": [], "energy_out": []}
    for step in range(0, cfg.n_steps + 1, cfg.record_every):
        # the record after step s splits its state by the fields of step s - 1
        amp = (seen[step][0] if step < cfg.n_steps else rec.final_state).amplitudes
        in_mask, _, _ = branch_split(state.with_amplitudes(amp),
                                     seen[max(step - 1, 0)][1].centered)
        in_mask = np.broadcast_to(in_mask, amp.shape)
        applied = ham.apply(amp)
        dens = (np.conj(amp) * amp).real
        local = (np.conj(amp) * applied).real
        expected["energy"].append(complex(np.vdot(amp, applied) / np.vdot(amp, amp).real).real)
        for mask, suffix in ((in_mask, "_in"), (~in_mask, "_out")):
            expected["energy" + suffix].append(
                float(np.sum(local[mask]) / float(np.sum(dens[mask]))))
    for key, series in expected.items():
        assert np.array_equal(rec.expectations[key], series), key


def test_unknown_observable_rejected():
    with pytest.raises(ValueError, match="spin"):
        IntegratorConfig(dt=0.01, n_steps=2, record_observables=("spin",))


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
    cfg = IntegratorConfig(dt=0.005, n_steps=4, record_every=2,
                           record_observables=("momentum", "energy"))
    for seed in (0, 1):
        run_trajectory(system, state, cfg, seed=seed)
    gc.collect()
    assert len(alive) == 2
    assert all(ref() is None for ref in alive)
    assert system == GridSystem(basis, (pair,))

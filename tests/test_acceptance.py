"""End-to-end checks of the package's headline behaviors.

One test per claim, each printing a one-line summary with the measured
numbers so a verbose run reads as a checklist: Born statistics from the
walk model, martingale structure of the branch weight, walk/SDE
agreement, reduction to plain Schrodinger evolution at zero gain,
second-order refinement of the momentum and angular-momentum drift,
the energy-deviation budget, the interference sweep, the reference
arithmetic chain, and noise determinism.

The expensive ensembles are cached as module fixtures; a full run takes
a few minutes.
"""

import json

import numpy as np
import pytest

from collapsim import cli
from collapsim.collapse import characteristic_time
from collapsim.config import parse_config_data
from collapsim.constants import EV, HBAR
from collapsim.diagnostics import (
    DeviationAccumulator,
    attributed_gap,
    deviation_ratio_benchmark,
    identity_residual,
)
from collapsim.experiments import (
    AIR_STP,
    eraser_bound_check,
    eraser_sweep,
    thermal_estimate,
)
from collapsim.integrator import (
    density_change_decomposition,
    run_ensemble,
    run_schrodinger_reference,
    run_trajectory,
)
from collapsim.noise import WienerProcess
from collapsim.operators import (
    AngularMomentumZOperator,
    DiagonalOperator,
    MomentumOperator,
)
from collapsim.state import expectation
from collapsim.walk import WalkConfig, born_linearity_scan, step_count_estimate


# ---------------------------------------------------------------- helpers


def axis_width(state):
    """Density standard deviation along the first axis."""
    x = state.basis.axis_coordinate(0)
    mean = expectation(DiagonalOperator(x), state).real
    second = expectation(DiagonalOperator(x * x), state).real
    return float(np.sqrt(second - mean * mean))


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def walk_scan():
    config = WalkConfig(step_scale=0.05, mode="binary", max_steps=1_000_000)
    weights = np.arange(1, 10) / 10.0
    return born_linearity_scan(weights, 100_000, config, master_seed=0)


@pytest.fixture(scope="module")
def two_level_ensemble():
    cfg = parse_config_data({"scenario": "two_level_collapse",
                             "numerics": {"dt": 0.05, "n_steps": 400,
                                          "record_every": 10}})
    system, state = cfg.finite_system()
    result = run_ensemble(system, state, cfg.integrator_config(),
                          n_trajectories=10_000, master_seed=0)
    return cfg, result


# ------------------------------------------------------------------ tests


def test_walk_scan_born_slope(walk_scan):
    slope, intercept = walk_scan.slope, walk_scan.intercept
    print("walk linearity: slope %.5f intercept %+.5f unresolved %d"
          % (slope, intercept, walk_scan.max_unresolved))
    assert walk_scan.max_unresolved == 0
    assert abs(slope - 1.0) <= 0.02
    assert abs(intercept) <= 0.01


def test_two_level_martingale(two_level_ensemble):
    cfg, result = two_level_ensemble
    mean = result.mean_weight_in
    sem = result.weight_in.std(axis=0, ddof=1) / np.sqrt(result.n_trajectories)
    deviation = np.abs(mean - 0.3)
    # t=0 has zero spread, so allow roundoff headroom there
    bound = 4.0 * sem + 1e-12
    print("martingale: max |mean-w0| %.5f, max pull %.2f sigma over %d times"
          % (deviation.max(), float(np.max(deviation[1:] / sem[1:])),
             len(mean)))
    assert np.all(deviation <= bound)

    # per-step ledger: the stochastic density change the interacting
    # branch gains is exactly what the other branch loses
    system, state = cfg.finite_system()
    icfg = cfg.integrator_config(n_steps=200, stop_on_absorb=False)
    mismatches, magnitudes = [], []

    def watch(step, current, ops, increment):
        if not ops or increment == 0.0:
            return
        change = density_change_decomposition(current, ops, increment, icfg)
        in_mask = ops[0].centered > 0
        gained = float(np.sum(change.stochastic_part[in_mask]))
        lost = float(np.sum(change.stochastic_part[~in_mask]))
        mismatches.append(abs(gained + lost))
        magnitudes.append(abs(gained))

    run_trajectory(system, state, icfg, seed=3, per_step=watch)
    print("martingale: %d steps, worst in/out mismatch %.3g, typical %.3g"
          % (len(mismatches), max(mismatches), float(np.median(magnitudes))))
    assert len(mismatches) == 200
    assert max(magnitudes) > 0.0
    assert max(mismatches) <= 1e-10


def test_sde_walk_exact_agreement(walk_scan, two_level_ensemble):
    cfg, big = two_level_ensemble
    sde = {0.3: (big.fraction_absorbed_in, big.binomial_sigma(0.3))}
    for weight in (0.5, 0.7):
        local = parse_config_data({"scenario": "two_level_collapse",
                                   "levels": {"weight_in": weight},
                                   "numerics": {"dt": 0.05, "n_steps": 500,
                                                "record_every": 100}})
        system, state = local.finite_system()
        result = run_ensemble(system, state, local.integrator_config(),
                              n_trajectories=4_000, master_seed=1)
        assert result.fraction_unresolved < 0.02
        sde[weight] = (result.fraction_absorbed_in,
                       result.binomial_sigma(weight))

    walk_at = dict(zip(np.round(walk_scan.x0_values, 3), zip(
        walk_scan.fractions, walk_scan.sigmas)))
    for weight, (p_sde, sigma_sde) in sorted(sde.items()):
        p_walk, sigma_walk = walk_at[weight]
        joint = float(np.hypot(sigma_sde, sigma_walk))
        print("absorption w=%.1f: sde %.4f walk %.4f exact %.1f "
              "(3sig %.4f joint %.4f)"
              % (weight, p_sde, p_walk, weight, 3 * sigma_sde, 3 * joint))
        assert abs(p_sde - weight) <= 3.0 * sigma_sde
        assert abs(p_sde - p_walk) <= 3.0 * joint


def test_zero_gain_reduces_to_schrodinger():
    cfg = parse_config_data({"scenario": "free_packet"})
    system = cfg.system()
    initial = cfg.initial_state(system.basis)
    icfg = cfg.integrator_config()
    assert icfg.kappa == 0.0 and icfg.n_steps >= 1000

    mass, spread = 1.3, 1.0
    checkpoints = {}

    def watch(step, state, ops, increment):
        if step in (250, 500, 750):
            checkpoints[state.time] = axis_width(state)

    record = run_trajectory(system, initial, icfg, seed=0, per_step=watch)
    checkpoints[record.final_state.time] = axis_width(record.final_state)

    worst = 0.0
    for t, measured in sorted(checkpoints.items()):
        expected = spread * np.sqrt(1.0 + (t / (2.0 * mass * spread**2)) ** 2)
        worst = max(worst, abs(measured - expected))
    print("free packet: worst width error %.3g over %d checkpoints, t_end %.1f"
          % (worst, len(checkpoints), record.final_state.time))
    assert worst <= 1e-6

    reference = run_schrodinger_reference(system, initial, icfg)
    assert np.array_equal(record.final_state.amplitudes, reference.amplitudes)


def suite_config(kappa, section, dt, steps):
    """The shipped conservation suite at seed 5 with one block retuned."""
    return parse_config_data({"scenario": "conservation_suite",
                              "physics": {"kappa": kappa},
                              section: {"dt": dt, "n_steps": steps},
                              "ensemble": {"master_seed": 5}})


def test_momentum_drift_refines_second_order():
    # halving h should cut both the stencil identity residual and the
    # accumulated drift by about 4; the window [3, 5] brackets that
    for kappa, dt in ((1.0, 0.003), (100.0, 2e-5)):
        cfg = suite_config(kappa, "numerics", dt, 40)
        icfg = cfg.suite_integrator_config("numerics")
        gaps, idents = [], []
        for n in (64, 128):
            system = cfg.system(n)
            state = cfg.initial_state(system.basis)
            q_op = MomentumOperator(system.basis, scheme="stencil")
            gaps.append(attributed_gap(system, state, q_op, icfg,
                                       cfg.master_seed))
            idents.append(identity_residual(system, state, q_op, icfg))
        gap_ratio = gaps[0] / gaps[1]
        ident_ratio = idents[0] / idents[1]
        print("momentum kappa=%g: gap ratio %.3f ident ratio %.3f"
              % (kappa, gap_ratio, ident_ratio))
        assert 3.0 <= gap_ratio <= 5.0
        assert 3.0 <= ident_ratio <= 5.0

    cfg = suite_config(1.0, "numerics", 0.003, 40)
    system = cfg.system(64)
    spectral = identity_residual(system, cfg.initial_state(system.basis),
                                 MomentumOperator(system.basis, scheme="spectral"),
                                 cfg.suite_integrator_config("numerics"))
    print("momentum spectral residual %.3g" % spectral)
    assert spectral < 1e-10


def test_angular_drift_refines_second_order():
    for kappa, dt, steps in ((1.0, 0.008, 30), (100.0, 5e-5, 40)):
        cfg = suite_config(kappa, "angular", dt, steps)
        icfg = cfg.suite_integrator_config("angular")
        gaps, idents = [], []
        for n in (16, 32):
            system, state = cfg.angular_system(n)
            q_op = AngularMomentumZOperator(system.basis, scheme="stencil")
            gaps.append(attributed_gap(system, state, q_op, icfg,
                                       cfg.master_seed, subtract_control=True))
            idents.append(identity_residual(system, state, q_op, icfg))
        gap_ratio = gaps[0] / gaps[1]
        ident_ratio = idents[0] / idents[1]
        print("angular kappa=%g: gap ratio %.3f ident ratio %.3f"
              % (kappa, gap_ratio, ident_ratio))
        assert 3.0 <= gap_ratio <= 5.0
        assert 3.0 <= ident_ratio <= 5.0

    cfg = suite_config(1.0, "angular", 0.01, 30)
    system, state = cfg.angular_system(spectral=True)
    spectral = identity_residual(
        system, state, AngularMomentumZOperator(system.basis, scheme="spectral"),
        cfg.suite_integrator_config("angular"))
    print("angular spectral residual %.3g" % spectral)
    assert spectral < 1e-10


def test_energy_deviation_budget_structure():
    cfg = parse_config_data({"scenario": "grid_scattering"})
    system = cfg.system()
    initial = cfg.initial_state(system.basis)
    icfg = cfg.integrator_config()
    budget = DeviationAccumulator()
    floor = []

    def watch(step, state, ops, increment):
        if ops:
            terms = budget.add(state, ops, icfg.dt)
            floor.append(terms.positive_definite_term)

    record = run_trajectory(system, initial, icfg, seed=0, per_step=watch)
    kinetic = record.expectations["kinetic"]
    delta_ke = abs(kinetic[-1] - kinetic[0])
    measured = budget.rms / delta_ke
    benchmark = deviation_ratio_benchmark(delta_ke, (1.0, 1.5), icfg.c).ratio
    print("energy budget: min term %.3g, rms/dKE %.4g vs dKE/Mc^2 %.4g "
          "(factor %.2f)" % (min(floor), measured, benchmark,
                             measured / benchmark))
    assert len(floor) == icfg.n_steps
    assert min(floor) >= 0.0
    assert benchmark / 10.0 <= measured <= benchmark * 10.0


def test_eraser_quadratic_scaling():
    sweep = eraser_sweep((0.02, 0.05, 0.1), n_traj=100_000, mode="kick",
                         seed=0)
    bound = eraser_bound_check(1e-3)
    print("eraser: log-log slope %.5f, bound probability %.3g"
          % (sweep.slope, bound.probability))
    assert abs(sweep.slope - 2.0) <= 0.1
    assert bound.probability == 1e-3 ** 2 == 1e-6
    assert bound.nonrelativistic and bound.below_bound


def test_reference_arithmetic_chain():
    estimate = thermal_estimate(AIR_STP)
    print("thermal: ratio %.3g rate %.3g /s yearly %.4g J"
          % (estimate.energy_ratio, estimate.fractional_rate,
             estimate.joules_per_year))
    assert 0.5e-12 <= estimate.energy_ratio <= 2e-12
    assert 0.5e-14 <= estimate.fractional_rate <= 2e-14
    assert 0.015 <= estimate.joules_per_year <= 0.06

    assert step_count_estimate(1e-3, 1.0) == 1.0 / (1e-3 * 1.0) ** 2
    assert step_count_estimate(1e-3, 1.0) == pytest.approx(1e6)
    low = step_count_estimate(1e-6, 1.0)
    high = step_count_estimate(1e-10, 1.0)
    assert low == 1.0 / (1e-6 * 1.0) ** 2
    assert high == 1.0 / (1e-10 * 1.0) ** 2
    assert low == pytest.approx(1e12) and high == pytest.approx(1e20)
    assert step_count_estimate(1e-3, 1.0, "optional_stopping") == 0.25 * \
        step_count_estimate(1e-3, 1.0)

    tick = characteristic_time(100.0 * EV, HBAR)
    print("interaction timescale at 100 eV: %.3g s" % tick)
    assert 1e-18 <= tick <= 1e-17


def test_noise_moments_and_byte_determinism(tmp_path):
    dt, n = 0.01, 100_000
    draws = WienerProcess(7).increments(dt, n)
    mean = draws.mean()
    power = np.abs(draws) ** 2
    squared = (draws ** 2).mean()
    print("noise: |mean| %.2e, |mean power - dt| %.2e, |mean square| %.2e"
          % (abs(mean), abs(power.mean() - dt), abs(squared)))
    assert abs(mean) <= 4.0 * np.sqrt(dt / n)
    assert abs(power.mean() - dt) <= 4.0 * power.std(ddof=1) / np.sqrt(n)
    assert abs(squared) <= 4.0 * dt * np.sqrt(2.0 / n)
    assert np.array_equal(draws, WienerProcess(7).increments(dt, n))

    config = tmp_path / "packet.json"
    config.write_text(json.dumps({
        "scenario": "free_packet",
        "numerics": {"dt": 0.002, "n_steps": 12, "record_every": 4},
    }))
    # the output directory is part of the config, so determinism means
    # rerunning the same config into the same place
    out = tmp_path / "artifacts"
    snapshots = []
    for _ in range(2):
        assert cli.main(["run", str(config), "--out-dir", str(out)]) == 0
        snapshots.append({name: (out / name).read_bytes()
                          for name in ("free_packet.json", "free_packet.csv")})
    assert snapshots[0] == snapshots[1]
    print("determinism: artifacts byte-identical across reruns")

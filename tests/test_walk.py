"""Walk-model checks against closed forms and frozen-seed simulation."""

import numpy as np
import pytest

from collapsim import walk
from collapsim.walk import (
    WalkConfig,
    barrier_bias,
    born_linearity_scan,
    matched_step_scale,
    step_count_estimate,
    step_increment,
    walk_ensemble,
)


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(step_scale=0.0)
    with pytest.raises(ValueError):
        WalkConfig(step_scale=1.5)
    with pytest.raises(ValueError):
        WalkConfig(step_scale=0.1, barrier=0.5)
    with pytest.raises(ValueError):
        WalkConfig(step_scale=0.1, mode="levy")
    with pytest.raises(ValueError):
        WalkConfig(step_scale=0.1, max_steps=0)


def test_default_barrier_is_quarter_step_squared():
    assert WalkConfig(step_scale=0.2).barrier_value == pytest.approx(0.01, rel=1e-15)
    assert WalkConfig(step_scale=0.2, barrier=0.03).barrier_value == 0.03


def test_step_increment_shape():
    assert step_increment(0.0, 0.3) == 0.0
    assert step_increment(1.0, 0.3) == 0.0
    assert step_increment(0.5, 0.3) == pytest.approx(0.075)
    # antisymmetric in the kick
    assert step_increment(0.3, -0.2) == -step_increment(0.3, 0.2)
    x, kick = np.linspace(0.0, 1.0, 7), np.linspace(-0.5, 0.5, 7)
    assert np.array_equal(step_increment(x, kick), x * (1.0 - x) * kick)


def test_matched_step_scale_formula():
    # kick = kappa sqrt(gamma) dV / E, scale = kick sqrt(2 dt)
    val = matched_step_scale(kappa=2.0, gamma_value=9.0, level_splitting=1.5,
                             energy_denominator=3.0, dt=0.02)
    assert val == pytest.approx(2.0 * 3.0 * 0.5 * np.sqrt(0.04))


def test_exit_probability_closed_form():
    # the chance of stopping at the upper barrier is x0 + barrier_bias
    assert 0.5 + barrier_bias(0.5, 0.1) == pytest.approx(0.5)
    assert 0.1 + barrier_bias(0.1, 0.1) == pytest.approx(0.0, abs=1e-15)
    assert 0.9 + barrier_bias(0.9, 0.1) == pytest.approx(1.0)
    assert 0.3 + barrier_bias(0.3, 0.0) == 0.3


def test_barrier_bias_consistent_and_monotone():
    for x0 in (0.2, 0.35, 0.5, 0.8):
        for theta in (0.0, 0.01, 0.05):
            assert barrier_bias(x0, theta) == pytest.approx(
                (x0 - theta) / (1.0 - 2.0 * theta) - x0, abs=1e-15)
    assert barrier_bias(0.5, 0.1) == 0.0
    # bias magnitude grows with the barrier, sign follows the start side
    biases = [abs(barrier_bias(0.3, th)) for th in (0.01, 0.02, 0.05, 0.1)]
    assert all(b2 > b1 for b1, b2 in zip(biases, biases[1:]))
    assert barrier_bias(0.3, 0.05) < 0 < barrier_bias(0.7, 0.05)


def test_walker_start_must_sit_between_barriers():
    cfg = WalkConfig(step_scale=0.2, barrier=0.1)
    with pytest.raises(ValueError):
        walk_ensemble(0.05, 10, cfg)
    with pytest.raises(ValueError):
        walk_ensemble(0.95, 10, cfg)
    with pytest.raises(ValueError):
        walk_ensemble(0.5, 0, cfg)


def test_walk_is_deterministic_per_seed():
    cfg = WalkConfig(step_scale=0.2)
    a = walk_ensemble(0.5, 500, cfg, seed=12)
    b = walk_ensemble(0.5, 500, cfg, seed=12)
    assert np.array_equal(a.final, b.final)
    assert np.array_equal(a.steps, b.steps)
    c = walk_ensemble(0.5, 500, cfg, seed=13)
    assert not np.array_equal(a.final, c.final)


def _reference_bits(rng, n_words):
    """Bit i mod 64, least significant first, of raw word i // 64."""
    words = rng.bit_generator.random_raw(n_words)
    return ((words[:, None] >> np.arange(64, dtype=np.uint64)) & 1).ravel()


def _pool_size(n_walkers):
    """Kicks per pooled block: max(2**14, n_walkers), rounded up to 64."""
    return -(-max(2 ** 14, n_walkers) // 64) * 64


def _rescan_walk(x0, n_walkers, config, seed):
    """Reference loop: rescan every walker each pass and step the active ones."""
    theta = config.barrier_value
    scale = config.step_scale
    rng = np.random.default_rng((seed,))
    bits = np.empty(0, dtype=np.uint64)
    x = np.full(n_walkers, float(x0))
    status = np.zeros(n_walkers, dtype=np.int8)
    steps = np.zeros(n_walkers, dtype=np.int64)
    passes = 0
    for _ in range(config.max_steps):
        idx = np.flatnonzero(status == 0)
        if idx.size == 0:
            break
        passes += 1
        if config.mode == "binary":
            if bits.size < idx.size:
                bits = np.concatenate(
                    [bits, _reference_bits(rng, -(-idx.size // 64))])
            kick = np.where(bits[:idx.size] == 1, scale, -scale)
            bits = bits[idx.size:]
        else:
            kick = scale * rng.standard_normal(idx.size)
        xa = x[idx] + step_increment(x[idx], kick)
        np.clip(xa, 0.0, 1.0, out=xa)
        x[idx] = xa
        steps[idx] += 1
        status[idx[xa >= 1.0 - theta]] = 1
        status[idx[xa <= theta]] = -1
    return x, status, steps, passes


@pytest.mark.parametrize("x0, config, n_walkers", [
    (0.3, WalkConfig(step_scale=0.1), 3000),
    (0.6, WalkConfig(step_scale=0.15, mode="gaussian"), 3000),
    (0.45, WalkConfig(step_scale=0.2, max_steps=200), 3000),
    (0.7, WalkConfig(step_scale=0.2, barrier=0.05), 3000),
    # odd walker counts above the 2**14 draw block: odd-length passes
    # straddle refills
    (0.4, WalkConfig(step_scale=0.2), 2 ** 14 + 27),
    # Gaussian steps this large overshoot [0, 1] on crossing
    (0.5, WalkConfig(step_scale=0.9, mode="gaussian"), 2 ** 14 + 1),
    # 1 - barrier rounds to 1.0, so the exit clip sets the final weights
    (0.5, WalkConfig(step_scale=1.0, barrier=1e-17, mode="gaussian"), 3000),
], ids=["0.3-config0", "0.6-config1", "0.45-config2", "0.7-config3",
        "odd-binary", "odd-gaussian-overshoot", "near-zero-barrier"])
def test_compacted_walk_matches_rescan_reference(x0, config, n_walkers):
    x, status, steps, passes = _rescan_walk(x0, n_walkers, config, seed=21)
    res = walk_ensemble(x0, n_walkers, config, seed=21)
    # every case runs past the first block of pooled kicks
    assert res.steps.sum() > _pool_size(n_walkers)
    assert np.array_equal(res.final, x)
    assert np.array_equal(res.status, status)
    assert np.array_equal(res.steps, steps)
    # the pass count read back from the steps, as benchmarks count passes
    assert res.steps.max() == passes
    # only the capped case ends with walkers still active, and not all
    assert res.fraction_unresolved < 1
    assert (res.fraction_unresolved > 0) == (passes == config.max_steps)


def test_pooled_binary_kicks_follow_raw_word_bits(monkeypatch):
    """Each pass makes one ``step_increment`` call, and its kicks are +-s
    from the next bits of the raw stream, over odd and even pass sizes
    and across block refills."""
    kicks = []

    def recording(x, kick):
        kicks.append(kick.copy())
        return step_increment(x, kick)

    monkeypatch.setattr(walk, "step_increment", recording)
    n_walkers = 2 ** 14 + 27
    cfg = WalkConfig(step_scale=0.5, max_steps=40)
    res = walk_ensemble(0.5, n_walkers, cfg, seed=4)
    assert len(kicks) == res.steps.max() == 40
    sizes = [k.size for k in kicks]
    assert sum(sizes) > 2 * _pool_size(n_walkers)
    assert {size % 2 for size in sizes} == {0, 1}
    bits = _reference_bits(np.random.default_rng((4,)), -(-sum(sizes) // 64))
    start = 0
    for kick in kicks:
        sign = bits[start:start + kick.size]
        assert np.array_equal(kick, np.where(sign == 1, 0.5, -0.5))
        start += kick.size


def test_walker_landing_on_a_barrier_is_absorbed():
    # x (1 - x) s = 0.25 at x = 0.5, s = 1: a walker lands exactly on
    # a barrier on the first pass; one walker per run, so a pass can
    # meet only the upper or only the lower barrier
    cfg = WalkConfig(step_scale=1.0, barrier=0.25)
    runs = [walk_ensemble(0.5, 1, cfg, seed=seed) for seed in range(8)]
    assert all(res.steps[0] == 1 for res in runs)
    finals = [res.final[0] for res in runs]
    assert set(finals) == {0.25, 0.75}
    assert [res.status[0] for res in runs] == [
        1 if final == 0.75 else -1 for final in finals]


def test_capped_walk_reports_unresolved():
    cfg = WalkConfig(step_scale=0.05, max_steps=200)
    res = walk_ensemble(0.37, 20_000, cfg, seed=9)
    assert res.fraction_unresolved == 1.0
    assert np.isnan(res.mean_steps_to_absorption)
    # interior martingale: the capped-horizon mean stays at the start
    sem = res.final.std(ddof=1) / np.sqrt(res.n_walkers)
    assert abs(res.final.mean() - 0.37) < 4 * sem
    assert np.all(res.steps == 200)


def test_absorption_fraction_tracks_barrier_bias():
    """A deliberately deep barrier shifts the exit odds by the closed
    form, clearly resolvable above the binomial error."""
    cfg = WalkConfig(step_scale=0.2, barrier=0.05)
    res = walk_ensemble(0.3, 40_000, cfg, seed=11)
    assert res.fraction_unresolved == 0.0
    sigma = res.binomial_sigma()
    assert abs(res.fraction_upper - 0.3 - barrier_bias(0.3, 0.05)) < 4 * sigma
    # and the unbiased value 0.3 is excluded
    assert abs(res.fraction_upper - 0.3) > 4 * sigma


def test_mean_absorption_steps_scale_inverse_square():
    theta = 0.002
    r1 = walk_ensemble(0.5, 5000, WalkConfig(step_scale=0.2, barrier=theta), seed=3)
    r2 = walk_ensemble(0.5, 5000, WalkConfig(step_scale=0.1, barrier=theta), seed=4)
    ratio = r2.mean_steps_to_absorption / r1.mean_steps_to_absorption
    assert 3.4 < ratio < 4.7


def test_born_scan_slope_near_unity_binary():
    cfg = WalkConfig(step_scale=0.15)
    scan = born_linearity_scan(np.linspace(0.1, 0.9, 9), 10_000, cfg, master_seed=7)
    assert scan.max_unresolved == 0.0
    assert abs(scan.slope - 1.0) < 0.03
    assert abs(scan.intercept) < 0.02
    # fractions themselves are monotone along the scan
    assert np.all(np.diff(scan.fractions) > 0)


def test_gaussian_mode_fraction_matches_start_weight():
    cfg = WalkConfig(step_scale=0.15, mode="gaussian")
    res = walk_ensemble(0.4, 20_000, cfg, seed=5)
    assert res.fraction_unresolved == 0.0
    assert abs(res.fraction_upper - 0.4) < 4 * res.binomial_sigma()


def test_step_count_estimate_formulas():
    assert step_count_estimate(0.1, 0.1) == pytest.approx(1e4)
    assert step_count_estimate(0.1, 0.1, method="optional_stopping") == pytest.approx(2.5e3)
    assert step_count_estimate(1.0, 0.5) == 4.0
    with pytest.raises(ValueError):
        step_count_estimate(0.0, 0.1)
    with pytest.raises(ValueError):
        step_count_estimate(0.1, 0.1, method="guess")

"""Reduced random-walk model of the two-branch weight.

The squared weight x of one branch performs a martingale walk on
(0, 1) with state-dependent step x (1 - x) s, absorbed once it comes
within ``barrier`` of either end. Binary steps (+/- s with equal
probability) expose the bare combinatorics; Gaussian steps mirror the
full stochastic integrator, whose per-step weight change is Gaussian
to leading order with standard deviation x (1 - x) K sqrt(2 dt).

Absorption fractions against the starting weight are the discrete
Born-rule check; ``barrier_bias`` gives the (tiny) closed-form bias a
finite barrier adds to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WalkConfig",
    "WalkEnsembleResult",
    "WalkScan",
    "step_increment",
    "matched_step_scale",
    "barrier_bias",
    "walk_ensemble",
    "born_linearity_scan",
    "step_count_estimate",
]

MODES = ("binary", "gaussian")


@dataclass(frozen=True)
class WalkConfig:
    """Step scale s, absorbing barrier and step distribution.

    ``barrier=None`` selects s^2 / 4, deep enough that a walker at the
    barrier needs O(1/s) aligned steps to return to the middle.
    """

    step_scale: float
    barrier: float | None = None
    mode: str = "binary"
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not 0.0 < self.step_scale <= 1.0:
            raise ValueError("step_scale must lie in (0, 1]")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.barrier is not None and not 0.0 < self.barrier < 0.5:
            raise ValueError("barrier must lie in (0, 0.5)")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")

    @property
    def barrier_value(self) -> float:
        if self.barrier is not None:
            return self.barrier
        return 0.25 * self.step_scale ** 2


def step_increment(x, kick):
    """One walk increment x (1 - x) kick, for a kick already scaled by
    the step scale; vanishes at both ends, peaks at x = 1/2.

    Computed in place in one new array. Floating-point multiplication
    commutes, so the value equals ``x * (1.0 - x) * kick`` bit for bit.
    """
    out = 1.0 - x
    out *= x
    out *= kick
    return out


def matched_step_scale(kappa: float, gamma_value: float, level_splitting: float,
                       energy_denominator: float, dt: float) -> float:
    """Walk scale reproducing the two-level integrator's weight kicks.

    The integrator multiplies branch amplitudes by 1 + D dxi - ..., with
    diagonal gap D_in - D_out = kappa sqrt(gamma) dV / E. The resulting
    weight change per step is x (1 - x) times that gap times
    (dxi + conj(dxi)), whose standard deviation is sqrt(2 dt).
    """
    kick = kappa * np.sqrt(gamma_value) * level_splitting / energy_denominator
    return kick * np.sqrt(2.0 * dt)


def barrier_bias(x0: float, barrier: float) -> float:
    """The finite-barrier Born-rule error of a walk from x0.

    A martingale walk stops at the upper barrier with chance
    (x0 - barrier) / (1 - 2 barrier), which is x0 plus this bias.
    """
    return (2.0 * x0 - 1.0) * barrier / (1.0 - 2.0 * barrier)


@dataclass
class WalkEnsembleResult:
    final: np.ndarray
    status: np.ndarray  # +1 upper, -1 lower, 0 still walking
    steps: np.ndarray

    @property
    def n_walkers(self) -> int:
        return self.status.size

    @property
    def fraction_upper(self) -> float:
        return float(np.mean(self.status == 1))

    @property
    def fraction_unresolved(self) -> float:
        return float(np.mean(self.status == 0))

    @property
    def mean_steps_to_absorption(self) -> float:
        done = self.status != 0
        if not np.any(done):
            return float("nan")
        return float(self.steps[done].mean())

    def binomial_sigma(self) -> float:
        p = self.fraction_upper
        return float(np.sqrt(max(p * (1.0 - p), 1e-12) / self.n_walkers))


def _fill_block(rng, config: WalkConfig, pool: np.ndarray) -> None:
    """Overwrite ``pool``, whose length is a multiple of 64, with the
    next walk kicks.

    A binary kick is exactly +s or -s: draw i of the stream is bit
    i mod 64, least significant first, of raw 64-bit word i // 64, and
    a set bit gives +s. A Gaussian kick is s times a ``standard_normal``
    draw. Either way consecutive blocks concatenate to one stream, so
    the kicks do not depend on the pool length.
    """
    scale = config.step_scale
    if config.mode == "binary":
        words = rng.bit_generator.random_raw(pool.size // 64)
        bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                             bitorder="little")
        np.multiply(bits, 2.0 * scale, out=pool)
        pool -= scale
    else:
        rng.standard_normal(out=pool)
        pool *= scale


def walk_ensemble(x0: float, n_walkers: int, config: WalkConfig,
                  seed: int = 0) -> WalkEnsembleResult:
    """Vectorized ensemble stepping only the walkers still active.

    Each pass makes one ``step_increment`` call over the active walkers,
    handing them one kick each in ascending walker order. The kicks come
    as slices of one pooled block of ``max(2**14, n_walkers)`` values
    (rounded up to a multiple of 64), refilled in place as it runs out;
    see ``_fill_block`` for the stream.

    ``idx`` and ``xa`` hold the active walkers' indices and weights. A
    pass first tests the barriers with one maximum and one minimum over
    ``xa``; only a pass on which some walker crossed builds the keep
    mask. An absorbed walker's final weight (clipped to [0, 1]), status
    (read from which barrier its weight passed) and step count (the pass
    on which it crossed) are written out as it leaves, and walkers still
    active after the last pass get theirs at the end. Only a walker that
    crossed a barrier can stand outside [0, 1], so the clip is needed
    only on exit.
    """
    theta = config.barrier_value
    upper = 1.0 - theta
    if not theta < x0 < upper:
        raise ValueError(
            f"x0={x0:g} must start strictly between the barriers "
            f"({theta:g}, {upper:g})")
    if n_walkers < 1:
        raise ValueError("n_walkers must be positive")
    rng = np.random.default_rng((seed,))
    x = np.empty(n_walkers)
    status = np.zeros(n_walkers, dtype=np.int8)
    steps = np.empty(n_walkers, dtype=np.int64)
    idx = np.arange(n_walkers)
    xa = np.full(n_walkers, float(x0))
    pool = np.empty(-(-max(2 ** 14, n_walkers) // 64) * 64)
    _fill_block(rng, config, pool)
    used = 0
    passes = 0
    while passes < config.max_steps and idx.size:
        passes += 1
        end = used + idx.size
        if end <= pool.size:
            kick = pool[used:end]
            used = end
        else:
            # copy the block's tail out before it is refilled in place
            kick = np.empty(idx.size)
            kick[:pool.size - used] = pool[used:]
            _fill_block(rng, config, pool)
            used = end - pool.size
            kick[idx.size - used:] = pool[:used]
        xa += step_increment(xa, kick)
        if np.maximum.reduce(xa) >= upper or np.minimum.reduce(xa) <= theta:
            keep = (xa > theta) & (xa < upper)
            out = np.flatnonzero(~keep)
            done = idx[out]
            crossed = xa[out]
            x[done] = np.clip(crossed, 0.0, 1.0)
            status[done] = np.where(crossed >= upper, 1, -1)
            steps[done] = passes
            idx = idx[keep]
            xa = xa[keep]
    x[idx] = xa
    steps[idx] = passes
    return WalkEnsembleResult(final=x, status=status, steps=steps)


@dataclass
class WalkScan:
    x0_values: np.ndarray
    fractions: np.ndarray
    sigmas: np.ndarray
    slope: float
    intercept: float
    results: list

    @property
    def max_unresolved(self) -> float:
        return max(r.fraction_unresolved for r in self.results)


def born_linearity_scan(x0_values, n_walkers: int, config: WalkConfig,
                        master_seed: int = 0) -> WalkScan:
    """Absorption fraction against starting weight, with an LSQ line.

    A faithful Born rule gives slope 1 and intercept 0 up to the
    barrier bias and binomial noise.
    """
    x0_values = np.asarray(x0_values, dtype=float)
    results, fractions, sigmas = [], [], []
    for i, x0 in enumerate(x0_values):
        res = walk_ensemble(float(x0), n_walkers, config, seed=master_seed + i)
        results.append(res)
        fractions.append(res.fraction_upper)
        sigmas.append(res.binomial_sigma())
    fractions = np.asarray(fractions)
    slope, intercept = np.polyfit(x0_values, fractions, 1)
    return WalkScan(x0_values=x0_values, fractions=fractions,
                    sigmas=np.asarray(sigmas), slope=float(slope),
                    intercept=float(intercept), results=results)


def step_count_estimate(amplitude_ratio: float, step_floor: float,
                        method: str = "direct") -> float:
    """Expected absorption step count for a lopsided superposition.

    ``direct`` counts the aligned steps needed to walk the small branch
    down when every step has relative size ``step_floor`` and the
    branch weight ratio is ``amplitude_ratio`` squared:
    1 / (ratio * floor)^2. ``optional_stopping`` applies the variance
    identity of the stopped martingale instead, which shaves a factor
    of four: 0.25 / (ratio * floor)^2.
    """
    if amplitude_ratio <= 0.0 or step_floor <= 0.0:
        raise ValueError("amplitude_ratio and step_floor must be positive")
    base = 1.0 / (amplitude_ratio * step_floor) ** 2
    if method == "direct":
        return base
    if method == "optional_stopping":
        return 0.25 * base
    raise ValueError(f"unknown method {method!r}")

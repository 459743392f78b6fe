"""Collapse operator construction and the rate parameter.

Oracles here are deliberately independent of the package internals:
interaction fields are rebuilt from the closed forms, time derivatives
come from finite-differencing a test-local FFT propagator, and the
stationary reference state comes from test-local imaginary-time
relaxation.
"""

import numpy as np
import pytest

from collapsim import collapse as collapse_module
from collapsim.collapse import (
    characteristic_time,
    collapse_from_diagonal,
    collapse_sum,
    rate_denominator,
    rate_numerator,
)
from collapsim.constants import EV, HBAR
from collapsim.operators import GaussianWell, InteractionPair, PairGeometry, SoftCoulomb
from collapsim.state import (
    FiniteBasis,
    GridBasis,
    GridSpec,
    HilbertState,
    ParticleSpec,
    finite_state,
    gaussian_packet,
    norm,
    normalize,
)

T_100EV = 6.582119565476075e-18  # hbar / 100 eV, seconds
T_10EV = 6.582119565476075e-17


def pair_basis(n=64, extent=8.0, m1=1.0, m2=1.0):
    return GridBasis(GridSpec(1, n, extent), (ParticleSpec(m1), ParticleSpec(m2)))


def overlap_state(basis, sep=1.5, widths=(0.9, 0.9), momenta=(0.0, 0.0)):
    return normalize(gaussian_packet(
        basis, [-sep / 2, sep / 2], list(widths), list(momenta)))


# test-local field helpers (independent of collapsim.operators)

def _coords(basis):
    n = basis.grid.points_per_axis
    h = basis.grid.spacing
    return -basis.grid.extent + h * np.arange(n)


def _pair_fields(basis, strength, width):
    x = _coords(basis)
    span = 2 * basis.grid.extent
    r = (x[:, None] - x[None, :] + basis.grid.extent) % span - basis.grid.extent
    v = strength * np.exp(-r * r / (2 * width * width))
    return r, v


def _kin_symbol(basis):
    n = basis.grid.points_per_axis
    h = basis.grid.spacing
    k = 2 * np.pi * np.fft.fftfreq(n, d=h)
    m1, m2 = basis.masses
    return (k[:, None] ** 2) / (2 * m1) + (k[None, :] ** 2) / (2 * m2)


def _unitary_step(amp, v, tsym, dt):
    # Strang split step, test-local
    amp = np.exp(-0.5j * dt * v) * amp
    amp = np.fft.ifftn(np.exp(-1j * dt * tsym) * np.fft.fftn(amp))
    return np.exp(-0.5j * dt * v) * amp


def _numerator(psi, pair, scheme="spectral"):
    return rate_numerator(psi, pair, scheme, PairGeometry(psi.basis, pair))


def _denominator(psi, pair, scheme="spectral"):
    return rate_denominator(psi, pair, scheme, PairGeometry(psi.basis, pair))


# ---------------------------------------------------------------------------
# rate numerator


def test_rate_numerator_constant_potential_vanishes():
    basis = pair_basis()
    pair = InteractionPair(0, 1, GaussianWell(1.5, 1e8))
    psi = overlap_state(basis, momenta=(1.0, -1.0))
    assert _numerator(psi, pair) < 1e-12


def test_rate_numerator_equals_energy_drain_rate():
    # oracle: finite-difference d<V>/dt of the normalized interaction-
    # weighted component along a test-local unitary evolution
    basis = pair_basis(n=128, extent=8.0, m1=1.0, m2=1.5)
    strength, width = -2.0, 1.0
    pair = InteractionPair(0, 1, GaussianWell(strength, width))
    psi = normalize(gaussian_packet(
        basis, [-0.9, 0.9], [0.9, 0.9], [0.6, -0.4]))
    num = _numerator(psi, pair, "spectral")

    _, v = _pair_fields(basis, strength, width)
    dens = np.abs(psi.amplitudes) ** 2
    mean = (dens * v).sum() / dens.sum()
    comp = (v / mean) * psi.amplitudes
    comp = comp / np.sqrt((np.abs(comp) ** 2).sum() * basis.weight)

    tsym = _kin_symbol(basis)
    dt = 5e-4

    def mean_v(amp):
        d = np.abs(amp) ** 2
        return (d * v).sum() / d.sum()

    plus = _unitary_step(comp, v, tsym, dt)
    minus = _unitary_step(comp, v, tsym, -dt)
    drain = abs((mean_v(plus) - mean_v(minus)) / (2 * dt))
    assert num == pytest.approx(drain, rel=0.02)


def test_rate_numerator_stationary_state_small():
    # imaginary-time relaxed ground state: the drain rate must sit at
    # the relaxation/discretization floor, far below a moving packet's
    basis = pair_basis(n=64, extent=8.0)
    strength, width = -2.0, 1.0
    pair = InteractionPair(0, 1, GaussianWell(strength, width))
    r, v = _pair_fields(basis, strength, width)
    tsym = _kin_symbol(basis)
    amp = np.exp(-r * r / 4.0).astype(np.complex128)
    dtau = 0.05
    for _ in range(800):
        amp = np.exp(-0.5 * dtau * v) * amp
        amp = np.fft.ifftn(np.exp(-dtau * tsym) * np.fft.fftn(amp)).real.astype(np.complex128)
        amp = np.exp(-0.5 * dtau * v) * amp
        amp /= np.sqrt((np.abs(amp) ** 2).sum() * basis.weight)
    ground = HilbertState(basis, amp)
    moving = overlap_state(basis, momenta=(0.8, -0.8))
    floor = _numerator(ground, pair)
    scale = _numerator(moving, pair)
    assert floor < 1e-4 * scale


# ---------------------------------------------------------------------------
# rate denominator


def test_rate_denominator_positive_branch_quadrature():
    basis = pair_basis(n=128, extent=8.0, m1=1.0, m2=2.0)
    strength, width = 1.2, 0.8
    pair = InteractionPair(0, 1, GaussianWell(strength, width))
    psi = overlap_state(basis, sep=1.0, widths=(0.8, 0.8), momenta=(1.2, -0.6))
    den = _denominator(psi, pair, "spectral")

    # independent quadrature of the same functional
    _, v = _pair_fields(basis, strength, width)
    dens = np.abs(psi.amplitudes) ** 2
    mean = (dens * v).sum() / dens.sum()
    comp = (v / mean) * psi.amplitudes
    comp = comp / np.sqrt((np.abs(comp) ** 2).sum() * basis.weight)
    n = basis.grid.points_per_axis
    k = 2 * np.pi * np.fft.fftfreq(n, d=basis.grid.spacing)
    m1, m2 = basis.masses
    mu = m1 * m2 / (m1 + m2)
    # relative derivative: (m2 d_0 - m1 d_1) / (m1 + m2)
    ft = np.fft.fftn(comp)
    d0 = np.fft.ifftn(1j * k[:, None] * ft)
    d1 = np.fft.ifftn(1j * k[None, :] * ft)
    rel1 = (m2 * d0 - m1 * d1) / (m1 + m2)
    ft1 = np.fft.fftn(rel1)
    rel2 = np.fft.ifftn(1j * k[:, None] * ft1) * m2 / (m1 + m2) \
        - np.fft.ifftn(1j * k[None, :] * ft1) * m1 / (m1 + m2)
    expected = ((comp.conj() * (v * comp - rel2 / mu)).sum() * basis.weight).real
    assert den == pytest.approx(expected, rel=1e-10)
    assert den > 0
    # potential part alone is smaller: the radial term adds energy
    pot_part = ((np.abs(comp) ** 2) * v).sum() * basis.weight
    assert den > pot_part


def test_rate_denominator_scheme_cross_check():
    basis = pair_basis(n=128, extent=8.0)
    pair = InteractionPair(0, 1, GaussianWell(1.2, 0.8))
    psi = overlap_state(basis, sep=1.0, widths=(0.8, 0.8), momenta=(1.0, -1.0))
    a = _denominator(psi, pair, "spectral")
    b = _denominator(psi, pair, "stencil")
    assert a == pytest.approx(b, rel=0.05)


def test_rate_denominator_negative_branch_is_well_depth():
    basis = pair_basis()
    psi = overlap_state(basis)
    pair = InteractionPair(0, 1, GaussianWell(-2.0, 1.0))
    assert _denominator(psi, pair) == 2.0
    pair = InteractionPair(0, 1, SoftCoulomb(-3.0, 1.5))
    assert _denominator(psi, pair) == 2.0
    pair = InteractionPair(0, 1, GaussianWell(-0.7, 2.0))
    assert _denominator(psi, pair) == 0.7


# ---------------------------------------------------------------------------
# gamma and operator construction


def _gamma(op):
    (_, gamma, _, _), = op.terms
    return gamma


def test_gamma_zero_when_degenerate():
    # narrow packets, separation far outside the interaction range even
    # through the periodic wrap
    basis = pair_basis(extent=8.0)
    pair = InteractionPair(0, 1, GaussianWell(-2.0, 0.5))
    psi = normalize(gaussian_packet(basis, [-4.0, 4.0], [0.4, 0.4]))
    op = collapse_sum(psi, [pair])
    assert _gamma(op) == 0.0
    assert np.all(op.diagonal == 0.0)


def test_gamma_positive_during_overlap():
    basis = pair_basis(n=128)
    pair = InteractionPair(0, 1, GaussianWell(-2.0, 1.0))
    psi = overlap_state(basis, momenta=(1.0, -1.0))
    op = collapse_sum(psi, [pair])
    assert _gamma(op) > 0
    assert _gamma(op) == pytest.approx(_numerator(psi, pair) / _denominator(psi, pair))


def test_gamma_independent_of_gain():
    basis = pair_basis(n=128)
    pair = InteractionPair(0, 1, GaussianWell(-2.0, 1.0))
    psi = overlap_state(basis, momenta=(1.0, -1.0))
    op1 = collapse_sum(psi, [pair], kappa=1.0, c=10.0)
    op5 = collapse_sum(psi, [pair], kappa=5.0, c=10.0)
    assert _gamma(op1) == _gamma(op5)
    assert np.allclose(op5.diagonal, 5.0 * op1.diagonal, rtol=1e-12, atol=0)


def test_collapse_operator_is_norm_centered():
    basis = pair_basis(n=128)
    pair = InteractionPair(0, 1, GaussianWell(-2.0, 1.0))
    psi = overlap_state(basis, momenta=(1.0, -1.0))
    op = collapse_sum(psi, [pair], kappa=1.0, c=10.0)
    dens = psi.density()
    mean = (dens * op.diagonal).sum() / dens.sum()
    assert abs(mean) < 1e-10 * np.max(np.abs(op.diagonal))
    # positive region of the diagonal is exactly the interacting branch
    v = PairGeometry(basis, pair).values
    dens_mean = (dens * v).sum() / dens.sum()
    assert np.array_equal(op.diagonal > 0, np.broadcast_to(v - dens_mean, basis.shape) > 0)


def test_zero_gain_gives_exactly_zero_diagonal():
    basis = pair_basis(n=64)
    pair = InteractionPair(0, 1, GaussianWell(-2.0, 1.0))
    psi = overlap_state(basis)
    op = collapse_sum(psi, [pair], kappa=0.0, c=10.0)
    assert _gamma(op) == 0.0
    assert np.all(op.diagonal == 0.0)


def test_two_level_centered_diagonal_frozen():
    # weights 0.3 / 0.7 against diag(v, 0): centered = (0.7 v, -0.3 v)
    v = 2.0
    psi = finite_state(FiniteBasis(("in", "out")), [np.sqrt(0.3), np.sqrt(0.7)])
    op = collapse_from_diagonal(psi, [v, 0.0], gamma_value=1.0,
                                energy_denominator=1.0, kappa=1.0)
    assert np.allclose(op.centered, [1.4, -0.6], atol=1e-12)
    assert np.allclose(op.diagonal, [1.4, -0.6], atol=1e-12)


def test_collapse_sum_rejects_finite_basis():
    psi = finite_state(FiniteBasis(("a", "b")), [1.0, 0.0])
    pair = InteractionPair(0, 1, GaussianWell(1.0, 1.0))
    with pytest.raises(TypeError):
        collapse_sum(psi, [pair])


def test_collapse_sum_three_particles():
    basis = GridBasis(GridSpec(1, 32, 8.0),
                      (ParticleSpec(1.0), ParticleSpec(1.0), ParticleSpec(2.0)))
    pairs = [InteractionPair(0, 1, GaussianWell(-1.0, 1.0)),
             InteractionPair(1, 2, GaussianWell(-1.5, 0.8))]
    psi = normalize(gaussian_packet(basis, [-1.0, 0.0, 1.0], [0.8] * 3))
    op = collapse_sum(psi, pairs, kappa=1.0, c=5.0)
    assert len(op.terms) == 2
    diag = op.diagonal
    dens = psi.density()
    mean = (dens * diag).sum() / dens.sum()
    assert abs(mean) < 1e-12 * max(1e-300, np.max(np.abs(diag)))


def test_one_mean_potential_per_pair(monkeypatch):
    # the centring, the overlap check and a repulsive pair's rate
    # denominator share one <V>
    calls = []
    original = collapse_module._density_mean

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(collapse_module, "_density_mean", counting)
    basis = GridBasis(GridSpec(1, 32, 8.0),
                      (ParticleSpec(1.0), ParticleSpec(1.5), ParticleSpec(0.8)))
    pairs = [InteractionPair(0, 1, GaussianWell(-2.0, 1.0)),
             InteractionPair(1, 2, SoftCoulomb(1.0, 0.5))]
    psi = normalize(gaussian_packet(basis, [-1.0, 0.2, 1.1], [0.9, 0.8, 1.0],
                                    [0.5, -0.2, -0.4]))
    for pair in pairs:
        for geometry in (None, PairGeometry(basis, pair)):
            calls.clear()
            op = collapse_sum(psi, [pair], scheme="stencil", geometries=[geometry])
            assert _gamma(op) > 0.0
            assert len(calls) == 1
    calls.clear()
    collapse_sum(psi, pairs)
    assert len(calls) == len(pairs)


def test_collapse_operator_validation():
    # an explicit diagonal comes with its caller's rate, energy and gain
    psi = finite_state(FiniteBasis(("a", "b")), [1.0, 0.0])
    with pytest.raises(ValueError):
        collapse_from_diagonal(psi, [1.0, 0.0], gamma_value=1.0, energy_denominator=0.0)
    with pytest.raises(ValueError):
        collapse_from_diagonal(psi, [1.0, 0.0], gamma_value=-1.0, energy_denominator=1.0)
    with pytest.raises(ValueError):
        collapse_from_diagonal(psi, [1.0, 0.0], gamma_value=1.0, energy_denominator=1.0,
                               kappa=-0.1)


# ---------------------------------------------------------------------------
# characteristic time


def test_characteristic_time_natural_units():
    assert characteristic_time(1.0) == 1.0
    assert characteristic_time(2.0) == 0.5


def test_characteristic_time_doubling_halves():
    t1 = characteristic_time(3.7)
    t2 = characteristic_time(7.4)
    assert t2 == t1 / 2


def test_characteristic_time_si_values():
    t100 = characteristic_time(100 * EV, hbar=HBAR)
    assert t100 == pytest.approx(T_100EV, rel=1e-12)
    assert 1e-18 < t100 < 1e-17
    t10 = characteristic_time(10 * EV, hbar=HBAR)
    assert t10 == pytest.approx(T_10EV, rel=1e-12)


def test_characteristic_time_rejects_nonpositive():
    with pytest.raises(ValueError):
        characteristic_time(0.0)
    with pytest.raises(ValueError):
        characteristic_time(-1.0)

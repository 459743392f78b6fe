"""Operator kinds: symbols, analytic potential derivatives, commutators."""

import numpy as np
import pytest

from collapsim.operators import (
    AngularMomentumZOperator,
    DiagonalOperator,
    GaussianWell,
    InteractionPair,
    KineticOperator,
    MomentumOperator,
    PairGeometry,
    SoftCoulomb,
    derivative1,
    kinetic_symbol,
)
from collapsim.state import GridBasis, GridSpec, HilbertState, ParticleSpec, expectation, gaussian_packet, normalize

# frozen by hand from the closed forms (see docstrings on the potentials):
# SoftCoulomb(2, 0.5) at r = 1:  V = 2/sqrt(1.25), dV/dx_j = -2*(1.25)^-1.5,
#   lap V = 2*(2 - 0.25)*(1.25)^-2.5
SOFT_VALUE_R1 = 1.7888543819998317
SOFT_GRAD_R1 = -1.4310835055998654
SOFT_LAP_R1 = 2.0035169078398116
# GaussianWell(-0.8, 0.7) at r = 1.2
GAUSS_VALUE_R12 = -0.18405303919504726
GAUSS_GRAD_R12 = 0.4507421368041974
GAUSS_LAP_R12 = -0.7282398468775299
# stencil momentum of a boosted Gaussian (k0 = 2, s = 1, h = 0.25):
# sin(k0 h) exp(-h^2/(8 s^2)) / h
STENCIL_P_BOOSTED = 1.9027784778526764


def single_particle(n=64, extent=8.0, mass=1.0, dims=1):
    return GridBasis(GridSpec(dims, n, extent), (ParticleSpec(mass),))


def pair_basis(n=64, extent=8.0, m1=1.0, m2=1.0, dims=1):
    return GridBasis(GridSpec(dims, n, extent), (ParticleSpec(m1), ParticleSpec(m2)))


def plane_wave(basis, mode):
    # integer mode along axis 0 keeps the wave exactly periodic
    k = 2.0 * np.pi * mode / (2.0 * basis.grid.extent)
    x = basis.axis_coordinate(0)
    amp = np.broadcast_to(np.exp(1j * k * x), basis.shape).astype(np.complex128)
    return k, HilbertState(basis, amp.copy())


# ---------------------------------------------------------------------------
# kinetic operator symbols


def test_stencil_kinetic_plane_wave_eigenvalue():
    basis = single_particle(n=64, extent=8.0, mass=1.7)
    k, psi = plane_wave(basis, mode=5)
    h = basis.grid.spacing
    expected = (1.0 - np.cos(k * h)) / (1.7 * h * h)
    out = KineticOperator(basis, "stencil").apply(psi.amplitudes)
    assert np.max(np.abs(out - expected * psi.amplitudes)) < 1e-12 * abs(expected)


def test_spectral_kinetic_plane_wave_eigenvalue():
    basis = single_particle(n=64, extent=8.0, mass=0.9)
    k, psi = plane_wave(basis, mode=7)
    expected = k * k / (2.0 * 0.9)
    out = KineticOperator(basis, "spectral").apply(psi.amplitudes)
    assert np.max(np.abs(out - expected * psi.amplitudes)) < 1e-10 * abs(expected)


def test_kinetic_on_constant_state_vanishes():
    basis = single_particle(n=32)
    amp = np.ones(basis.shape, dtype=complex)
    for scheme in ("stencil", "spectral"):
        out = KineticOperator(basis, scheme).apply(amp)
        assert np.max(np.abs(out)) < 1e-13


def test_kinetic_symbol_matches_apply():
    basis = pair_basis(n=16, extent=4.0, m1=1.0, m2=2.0)
    rng = np.random.default_rng(3)
    amp = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    for scheme in ("stencil", "spectral"):
        sym = kinetic_symbol(basis, scheme)
        via_symbol = np.fft.ifftn(sym * np.fft.fftn(amp))
        direct = KineticOperator(basis, scheme).apply(amp)
        assert np.max(np.abs(via_symbol - direct)) < 1e-10


# ---------------------------------------------------------------------------
# momentum and angular momentum


def test_momentum_symmetric_packet_is_zero():
    basis = single_particle(n=64, extent=8.0)
    psi = gaussian_packet(basis, [0.0], [1.0])
    for scheme in ("stencil", "spectral"):
        val = expectation(MomentumOperator(basis, 0, scheme), psi)
        assert abs(val) < 1e-10


def test_momentum_boosted_packet_spectral():
    basis = single_particle(n=128, extent=16.0)
    psi = gaussian_packet(basis, [0.0], [1.0], [2.0])
    val = expectation(MomentumOperator(basis, 0, "spectral"), psi)
    assert abs(val.real - 2.0) < 1e-8
    assert abs(val.imag) < 1e-10


def test_momentum_boosted_packet_stencil_symbol():
    # the centered stencil sees sin(kh)/h instead of k; averaged over the
    # packet's momentum density that is sin(k0 h) exp(-h^2/8s^2)/h
    basis = single_particle(n=128, extent=16.0)
    psi = gaussian_packet(basis, [0.0], [1.0], [2.0])
    val = expectation(MomentumOperator(basis, 0, "stencil"), psi)
    assert abs(val.real - STENCIL_P_BOOSTED) < 1e-8


def test_angular_momentum_symmetric_packet_zero():
    basis = single_particle(n=32, extent=8.0, dims=2)
    psi = gaussian_packet(basis, [0.0, 0.0], [1.0, 1.0])
    val = expectation(AngularMomentumZOperator(basis), psi)
    assert abs(val) < 1e-10


def test_angular_momentum_offset_boosted_packet():
    # product Gaussian: <L_z> = x0 ky - y0 kx
    basis = single_particle(n=64, extent=12.0, dims=2)
    psi = gaussian_packet(basis, [1.5, -0.5], [1.0, 1.0], [1.0, 2.0])
    val = expectation(AngularMomentumZOperator(basis, "spectral"), psi)
    assert abs(val.real - 3.5) < 1e-7
    assert abs(val.imag) < 1e-9


def test_angular_momentum_requires_2d():
    basis = single_particle(dims=1)
    with pytest.raises(ValueError):
        AngularMomentumZOperator(basis)


# ---------------------------------------------------------------------------
# hermiticity sweeps


def _random_state(basis, rng):
    amp = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    return amp


def test_hermiticity_of_hermitian_kinds():
    rng = np.random.default_rng(19)
    basis1 = single_particle(n=16, extent=4.0)
    basis2 = single_particle(n=16, extent=4.0, dims=2)
    x = basis1.axis_coordinate(0)
    ops = [
        (basis1, DiagonalOperator(np.broadcast_to(np.cos(x), basis1.shape).copy())),
        (basis1, KineticOperator(basis1, "stencil")),
        (basis1, KineticOperator(basis1, "spectral")),
        (basis1, MomentumOperator(basis1, 0, "stencil")),
        (basis1, MomentumOperator(basis1, 0, "spectral")),
        (basis2, AngularMomentumZOperator(basis2, "stencil")),
        (basis2, AngularMomentumZOperator(basis2, "spectral")),
    ]
    for basis, op in ops:
        for _ in range(100):
            phi = _random_state(basis, rng)
            psi = _random_state(basis, rng)
            lhs = np.vdot(phi, op.apply(psi))
            rhs = np.vdot(op.apply(phi), psi)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# pair potentials: frozen closed-form values


def _field_at_separation(basis, field, r):
    # pick the grid point with x_j - x_k closest to r (1-D pair in 1-D)
    x = basis.grid.axis_points()
    i = int(np.argmin(np.abs(x - r)))
    j = int(np.argmin(np.abs(x - 0.0)))
    full = np.broadcast_to(field, basis.shape)
    return full[i, j], x[i] - x[j]


def test_soft_coulomb_frozen_values():
    basis = pair_basis(n=64, extent=8.0)
    pot = SoftCoulomb(2.0, 0.5)
    pair = InteractionPair(0, 1, pot)
    geometry = PairGeometry(basis, pair)
    v, g, lap = geometry.values, geometry.gradient[0], geometry.laplacian
    val, r = _field_at_separation(basis, v, 1.0)
    assert r == 1.0  # h = 0.25 puts r = 1 exactly on the grid
    assert abs(val - SOFT_VALUE_R1) < 1e-12
    gval, _ = _field_at_separation(basis, g, 1.0)
    assert abs(gval - SOFT_GRAD_R1) < 1e-12
    lval, _ = _field_at_separation(basis, lap, 1.0)
    assert abs(lval - SOFT_LAP_R1) < 1e-12


def test_gaussian_well_frozen_values():
    basis = pair_basis(n=64, extent=8.0)
    pot = GaussianWell(-0.8, 0.7)
    pair = InteractionPair(0, 1, pot)
    # r = 1.2 is not a grid point; evaluate the closed forms off-grid
    u = 1.2 ** 2
    assert abs(pot.value_u(u) - GAUSS_VALUE_R12) < 1e-12
    assert abs(2.0 * 1.2 * pot.dvalue_u(u) - GAUSS_GRAD_R12) < 1e-12
    assert abs(2.0 * pot.dvalue_u(u) + 4.0 * u * pot.d2value_u(u) - GAUSS_LAP_R12) < 1e-12
    # laplacian at contact (1-D): -strength / width^2
    lap = PairGeometry(basis, pair).laplacian
    lval, r = _field_at_separation(basis, lap, 0.0)
    assert r == 0.0
    assert abs(lval - 0.8 / 0.49) < 1e-12


def test_soft_coulomb_gradient_vanishes_at_contact():
    basis = pair_basis(n=64, extent=8.0)
    pair = InteractionPair(0, 1, SoftCoulomb(2.0, 0.5))
    g = PairGeometry(basis, pair).gradient[0]
    gval, r = _field_at_separation(basis, g, 0.0)
    assert r == 0.0
    assert gval == 0.0


def test_translation_invariance_under_grid_shift():
    # dyadic spacing makes coordinate differences exact, so shifting both
    # particles by whole cells reproduces the field bit for bit
    basis = pair_basis(n=64, extent=8.0)
    pair = InteractionPair(0, 1, SoftCoulomb(1.5, 1.0))
    v = np.broadcast_to(PairGeometry(basis, pair).values, basis.shape)
    assert np.array_equal(np.roll(v, (3, 3), axis=(0, 1)), v)


def test_pair_geometry_fields_are_kept_and_read_only():
    basis = pair_basis(n=16, extent=4.0, m2=1.5, dims=2)
    geometry = PairGeometry(basis, InteractionPair(0, 1, SoftCoulomb(1.2, 0.6)))
    # computed once, then shared: a write would corrupt every later step
    assert geometry.values is geometry.values
    assert geometry.gradient is geometry.gradient
    for field in (geometry.values, geometry.laplacian, geometry.u,
                  *geometry.gradient, *geometry.separation):
        with pytest.raises(ValueError):
            field[...] = 0.0


def test_pair_potential_validation():
    with pytest.raises(ValueError):
        SoftCoulomb(1.0, 0.0)
    with pytest.raises(ValueError):
        GaussianWell(0.0, 1.0)
    with pytest.raises(ValueError):
        InteractionPair(1, 1, GaussianWell(1.0, 1.0))
    assert SoftCoulomb(-1.0, 1.0).sign == -1
    assert GaussianWell(2.0, 1.0).sign == 1


def test_separation_is_minimum_image():
    basis = pair_basis(n=16, extent=4.0)
    pair = InteractionPair(0, 1, SoftCoulomb(1.0, 1.0))
    u = np.broadcast_to(PairGeometry(basis, pair).u, basis.shape)
    # max separation on a periodic box of span 8 is 4, so u <= 16
    assert u.max() <= 16.0 + 1e-12


# ---------------------------------------------------------------------------
# commutator residuals


def commutator_residual(q_op, v_values, state):
    """|| Q(v psi) - v(Q psi) || / || psi ||.

    Vanishing residual is what transfers conservation of Q from the
    Hamiltonian flow to the stochastic shifts; on a grid it measures
    pure discretization error when the continuum commutator is zero.
    """
    amp = state.amplitudes
    diff = q_op.apply(v_values * amp) - v_values * q_op.apply(amp)
    return float(np.sqrt(np.vdot(diff, diff).real / np.vdot(amp, amp).real))


def test_commutator_with_constant_potential_vanishes():
    basis = single_particle(n=32, extent=4.0)
    rng = np.random.default_rng(5)
    psi = normalize(HilbertState(basis, _random_state(basis, rng)))
    v = np.full(basis.shape, 2.7)
    for scheme in ("stencil", "spectral"):
        res = commutator_residual(MomentumOperator(basis, 0, scheme), v, psi)
        assert res < 1e-12


def test_momentum_potential_commutator_refines_at_order_two():
    # total momentum commutes with a pair potential in the continuum;
    # the stencil residual is pure discretization error, order h^2
    pot = SoftCoulomb(1.5, 1.0)
    residuals = []
    for n in (64, 128):
        basis = pair_basis(n=n, extent=8.0)
        pair = InteractionPair(0, 1, pot)
        psi = normalize(gaussian_packet(basis, [-2.0, 2.0], [1.0, 1.0], [1.0, -1.0]))
        v = PairGeometry(basis, pair).values
        res = commutator_residual(MomentumOperator(basis, 0, "stencil"), v, psi)
        residuals.append(res)
    ratio = residuals[0] / residuals[1]
    assert 3.0 < ratio < 5.0


def test_momentum_potential_commutator_spectral_tiny():
    # Gaussian interaction decays below machine precision inside the box,
    # so the FFT derivative sees an effectively band-limited product
    basis = pair_basis(n=128, extent=16.0)
    pair = InteractionPair(0, 1, GaussianWell(1.2, 1.0))
    psi = normalize(gaussian_packet(basis, [-3.0, 3.0], [1.2, 1.2], [1.0, -1.0]))
    v = PairGeometry(basis, pair).values
    res = commutator_residual(MomentumOperator(basis, 0, "spectral"), v, psi)
    assert res < 1e-10


def test_kinetic_does_not_commute_with_potential():
    basis = pair_basis(n=64, extent=8.0)
    pair = InteractionPair(0, 1, GaussianWell(1.2, 1.0))
    psi = normalize(gaussian_packet(basis, [-1.0, 1.0], [1.0, 1.0]))
    v = PairGeometry(basis, pair).values
    res = commutator_residual(KineticOperator(basis, "spectral"), v, psi)
    assert res > 1e-3


def test_derivative1_linearity_constant_factor():
    basis = single_particle(n=32, extent=4.0)
    rng = np.random.default_rng(2)
    amp = _random_state(basis, rng)
    for scheme in ("stencil", "spectral"):
        d_scaled = derivative1(2.0 * amp, 0, basis.grid.spacing, scheme)
        d_plain = derivative1(amp, 0, basis.grid.spacing, scheme)
        assert np.max(np.abs(d_scaled - 2.0 * d_plain)) < 1e-12

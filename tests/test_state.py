"""State container, norms, expectations, branch split."""

import numpy as np
import pytest

from collapsim.operators import (DiagonalOperator, GaussianWell, IdentityOperator, InteractionPair,
                                 PairGeometry)
from collapsim.state import (
    FiniteBasis,
    GridBasis,
    GridSpec,
    HilbertState,
    ParticleSpec,
    branch_split,
    expectation,
    finite_state,
    gaussian_packet,
    masked_density_sum,
    norm,
    normalize,
)


def one_particle_basis(n=256, extent=16.0, mass=1.0, dims=1):
    return GridBasis(GridSpec(dims, n, extent), (ParticleSpec(mass),))


def two_level():
    return FiniteBasis(("in", "out"))


# ---------------------------------------------------------------------------
# construction and validation


def test_grid_spec_rejects_bad_points():
    with pytest.raises(ValueError):
        GridSpec(1, 6, 8.0)
    with pytest.raises(ValueError):
        GridSpec(1, 9, 8.0)
    with pytest.raises(ValueError):
        GridSpec(4, 16, 8.0)
    with pytest.raises(ValueError):
        GridSpec(1, 16, -1.0)


def test_particle_mass_positive():
    with pytest.raises(ValueError):
        ParticleSpec(0.0)


def test_amplitude_shape_mismatch_raises():
    basis = two_level()
    with pytest.raises(ValueError):
        HilbertState(basis, np.zeros(3, dtype=complex))
    gb = one_particle_basis(n=16)
    with pytest.raises(ValueError):
        HilbertState(gb, np.zeros(15, dtype=complex))


def test_finite_basis_labels_unique():
    with pytest.raises(ValueError):
        FiniteBasis(("a", "a"))


# ---------------------------------------------------------------------------
# norms


def test_uniform_two_level_norm_is_one():
    psi = finite_state(two_level(), [1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert abs(norm(psi) - 1.0) < 1e-15


def test_zero_state_norm_zero_and_normalize_raises():
    psi = finite_state(two_level(), [0.0, 0.0])
    assert norm(psi) == 0.0
    with pytest.raises(ValueError):
        normalize(psi)


def test_grid_gaussian_analytic_normalization():
    # (2 pi s^2)^(-1/4) exp(-x^2/4s^2) has unit L2 norm in the continuum;
    # the 256-point grid quadrature must agree to 1e-6.
    basis = one_particle_basis(n=256, extent=16.0)
    psi = gaussian_packet(basis, [0.0], [1.0])
    assert abs(norm(psi) - 1.0) < 1e-6


def test_normalize_random_states_both_backends():
    rng = np.random.default_rng(7)
    gb = one_particle_basis(n=32, extent=8.0)
    fb = FiniteBasis(("a", "b", "c"))
    for _ in range(20):
        amp = rng.standard_normal(gb.shape) + 1j * rng.standard_normal(gb.shape)
        st = normalize(HilbertState(gb, amp))
        assert abs(norm(st) - 1.0) < 1e-12
        amp = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        st = normalize(HilbertState(fb, amp))
        assert abs(norm(st) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# expectations


def test_expectation_identity_is_one():
    basis = one_particle_basis(n=64, extent=8.0)
    psi = gaussian_packet(basis, [1.0], [0.8])
    val = expectation(IdentityOperator(), psi)
    assert abs(val - 1.0) < 1e-12
    # normalization happens inside, so a scaled state gives the same answer
    val = expectation(IdentityOperator(), psi.with_amplitudes(3.7 * psi.amplitudes))
    assert abs(val - 1.0) < 1e-12


def test_expectation_two_level_diagonal():
    v = 2.5
    psi = finite_state(two_level(), [1 / np.sqrt(2), 1 / np.sqrt(2)])
    val = expectation(DiagonalOperator(np.array([v, 0.0])), psi)
    assert abs(val - v / 2) < 1e-14


def test_expectation_hermitian_real_on_random_states():
    rng = np.random.default_rng(11)
    basis = one_particle_basis(n=32, extent=8.0)
    x = basis.axis_coordinate(0)
    op = DiagonalOperator(np.broadcast_to(x ** 2, basis.shape).copy())
    for _ in range(50):
        amp = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
        val = expectation(op, HilbertState(basis, amp))
        assert abs(val.imag) < 1e-10 * max(1.0, abs(val.real))


def test_expectation_zero_state_raises():
    psi = finite_state(two_level(), [0.0, 0.0])
    with pytest.raises(ValueError):
        expectation(IdentityOperator(), psi)


# ---------------------------------------------------------------------------
# branch split


def test_two_level_branch_weights():
    psi = finite_state(two_level(), [np.sqrt(0.3), np.sqrt(0.7)])
    in_mask, weight_in, centered = branch_split(psi, np.array([1.0, 0.0]))
    assert in_mask.tolist() == [True, False]
    assert abs(weight_in - 0.3) < 1e-12
    assert abs(masked_density_sum(psi, ~in_mask) - 0.7) < 1e-12
    # centered values: v - <v> with <v> = 0.3
    assert np.allclose(centered, [0.7, -0.3], atol=1e-12)


def test_zero_potential_gives_empty_in_branch():
    psi = finite_state(two_level(), [np.sqrt(0.3), np.sqrt(0.7)])
    in_mask, weight_in, _ = branch_split(psi, np.zeros(2))
    assert not in_mask.any()
    assert weight_in == 0.0
    assert masked_density_sum(psi, ~in_mask) == 1.0


def test_grid_branch_weights_match_mask_quadrature():
    grid = GridSpec(1, 64, 8.0)
    basis = GridBasis(grid, (ParticleSpec(1.0), ParticleSpec(1.0)))
    pair = InteractionPair(0, 1, GaussianWell(2.0, 0.8))
    psi = normalize(gaussian_packet(basis, [-1.0, 1.0], [1.0, 1.0]))
    v = PairGeometry(basis, pair).values
    in_mask, weight_in, _ = branch_split(psi, v)

    # independent quadrature of the same masks
    dens = np.abs(psi.amplitudes) ** 2
    w = basis.weight
    mean = (dens * v).sum() * w / ((dens).sum() * w)
    mask = (v - mean) > 0
    w_in = float((dens * mask).sum() * w)
    assert abs(weight_in + masked_density_sum(psi, ~in_mask) - 1.0) < 1e-12
    assert abs(weight_in - w_in) < 1e-12
    assert masked_density_sum(psi, in_mask) == pytest.approx(weight_in, abs=1e-12)


def test_branch_split_idempotent_under_recentering():
    psi = finite_state(FiniteBasis(("a", "b", "c")), [0.6, 0.0, 0.8])
    values = np.array([2.0, -1.0, 0.5])
    first_mask, first_weight, centered = branch_split(psi, values)
    second_mask, second_weight, _ = branch_split(psi, centered)
    assert np.array_equal(first_mask, second_mask)
    assert abs(first_weight - second_weight) < 1e-14


def test_boundary_points_go_to_out_branch():
    # centered value exactly 0 at one point: strict inequality sends it to O
    psi = finite_state(FiniteBasis(("a", "b", "c", "d")), [0.5, 0.5, 0.5, 0.5])
    values = np.array([1.0, 1.0, 0.0, 2.0])
    in_mask, _, _ = branch_split(psi, values)
    assert not in_mask[2]


def test_gaussian_packet_argument_validation():
    basis = one_particle_basis(n=16)
    with pytest.raises(ValueError):
        gaussian_packet(basis, [0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        gaussian_packet(basis, [0.0], [-1.0])

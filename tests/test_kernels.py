"""Grid kernels against test-local references.

The spectral derivatives are compared with an FFT derivative written
here. ``_reference_rate_numerator`` and ``_reference_energy_deviation_terms``
evaluate the rate and the energy budget as sums over integrand fields,
with every derivative taken by the reference derivative, so the
library's inner-product reductions and its matrix derivatives are both
checked. The kernels reorder sums, so agreement is to a tolerance
a few hundred roundings wide, not bitwise.
"""

import numpy as np
import pytest

from collapsim.collapse import (
    collapse_from_diagonal,
    collapse_sum,
    interacting_component,
    rate_numerator,
)
from collapsim.diagnostics import energy_deviation_terms
from collapsim.operators import (
    GaussianWell,
    InteractionPair,
    PairGeometry,
    SoftCoulomb,
    derivative1,
    derivative2,
)
from collapsim.state import GridBasis, GridSpec, ParticleSpec, gaussian_packet, normalize

DERIVATIVE_RTOL = 1e-13
REDUCTION_RTOL = 1e-12


def _reference_derivative(arr, axis, spacing, scheme, order=1):
    if scheme == "stencil":
        up, down = np.roll(arr, -1, axis=axis), np.roll(arr, 1, axis=axis)
        if order == 1:
            return (up - down) / (2.0 * spacing)
        return (up - 2.0 * arr + down) / (spacing * spacing)
    n = arr.shape[axis]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=spacing)
    symbol = 1j * k if order == 1 else -(k ** 2)
    shape = [1] * arr.ndim
    shape[axis] = n
    return np.fft.ifft(symbol.reshape(shape) * np.fft.fft(arr, axis=axis), axis=axis)


def _planar_pair():
    basis = GridBasis(GridSpec(2, 16, 4.5), (ParticleSpec(1.0), ParticleSpec(1.5)))
    state = normalize(gaussian_packet(basis, [-0.7, -0.35, 0.7, 0.35], [1.0] * 4,
                                      [0.6, 0.0, -0.6, 0.0]))
    return basis, state, [InteractionPair(0, 1, GaussianWell(-2.0, 1.0))]


def _three_in_a_line():
    # pairs (0, 1) and (1, 2) share the axis of particle 1
    basis = GridBasis(GridSpec(1, 16, 4.0),
                      (ParticleSpec(1.0), ParticleSpec(1.5), ParticleSpec(0.8)))
    state = normalize(gaussian_packet(basis, [-1.0, 0.2, 1.1], [0.9, 0.8, 1.0],
                                      [0.5, -0.2, -0.4]))
    return basis, state, [InteractionPair(0, 1, GaussianWell(-2.0, 1.0)),
                          InteractionPair(1, 2, SoftCoulomb(1.0, 0.5))]


SYSTEMS = {"planar_pair": _planar_pair, "three_in_a_line": _three_in_a_line}


@pytest.mark.parametrize("name", ["line"] + sorted(SYSTEMS))
def test_spectral_derivatives_match_the_fft(name):
    if name == "line":
        basis = GridBasis(GridSpec(1, 256, 16.0), (ParticleSpec(1.3),))
    else:
        basis = SYSTEMS[name]()[0]
    h = basis.grid.spacing
    # white noise fills every mode, so max|reference| carries the
    # operator's scale k_max^order; on a smooth input the rounding of
    # either form still scales with it and can pass 1e-13 of a small output
    rng = np.random.default_rng(3)
    real = rng.standard_normal(basis.shape)
    for arr in (real, real + 1j * rng.standard_normal(basis.shape)):
        for axis in range(basis.n_axes):
            for order, kernel in ((1, derivative1), (2, derivative2)):
                ref = _reference_derivative(arr, axis, h, "spectral", order)
                got = kernel(arr, axis, h, "spectral")
                assert got.shape == arr.shape
                err = np.max(np.abs(got - ref))
                assert err <= DERIVATIVE_RTOL * np.max(np.abs(ref)), (axis, order, err)


# the two reductions as sums over integrand fields, on the reference derivative

def _reference_rate_numerator(state, pair, scheme):
    basis = state.basis
    comp = normalize(interacting_component(state, pair))
    amp = comp.amplitudes
    h = basis.grid.spacing
    mj = basis.particles[pair.j].mass
    mk = basis.particles[pair.k].mass
    geometry = PairGeometry(basis, pair)
    term1 = comp.density() * geometry.laplacian * (0.5 / mj + 0.5 / mk)
    dot = np.zeros(basis.shape, dtype=np.complex128)
    for d in range(basis.grid.dims):
        dj = _reference_derivative(amp, basis.particle_axis(pair.j, d), h, scheme)
        dk = _reference_derivative(amp, basis.particle_axis(pair.k, d), h, scheme)
        dot += geometry.gradient[d] * (dj / mj - dk / mk)
    integral = (term1 + amp.conj() * dot).sum() * basis.weight
    return float(abs(integral))


def _reference_energy_deviation_terms(state, collapse_ops, scheme):
    basis = state.basis
    amp = state.amplitudes
    weight = basis.weight
    h = basis.grid.spacing
    norm_sq = float(np.sum(np.abs(amp) ** 2) * weight)
    grads = [np.zeros(basis.shape) for _ in range(basis.n_axes)]
    weighted_lap = np.zeros(basis.shape)
    for op in collapse_ops:
        factor = op.kappa * np.sqrt(op.gamma) / op.energy_denominator
        if op.pair is not None:
            pair = op.pair
            geometry = PairGeometry(basis, pair)
            for particle, orient in ((pair.j, 1.0), (pair.k, -1.0)):
                mass = basis.particles[particle].mass
                for d in range(basis.grid.dims):
                    axis = basis.particle_axis(particle, d)
                    grads[axis] = grads[axis] + orient * factor * geometry.gradient[d]
                weighted_lap = weighted_lap + factor * geometry.laplacian / (2.0 * mass)
        else:
            for axis in range(basis.n_axes):
                first = _reference_derivative(op.scaled_values, axis, h, scheme).real
                second = _reference_derivative(first, axis, h, scheme).real
                grads[axis] = grads[axis] + first
                weighted_lap = weighted_lap + second / (2.0 * basis.axis_mass(axis))
    dens = (np.conj(amp) * amp).real
    gradient_term = 0.0 + 0.0j
    positive = 0.0
    for axis in range(basis.n_axes):
        mass = basis.axis_mass(axis)
        d_amp = _reference_derivative(amp, axis, h, scheme)
        gradient_term += (-1.0 / mass) * np.sum(np.conj(amp) * grads[axis] * d_amp) * weight
        positive += (1.0 / (2.0 * mass)) * float(np.sum(grads[axis] ** 2 * dens)) * weight
    laplacian_term = -np.sum(weighted_lap * dens) * weight
    return (complex(gradient_term) / norm_sq, complex(laplacian_term) / norm_sq,
            positive / norm_sq)


def _close(got, ref):
    return abs(got - ref) <= REDUCTION_RTOL * abs(ref)


@pytest.mark.parametrize("scheme", ["spectral", "stencil"])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_rate_numerator_matches_the_field_sum(name, scheme):
    _, state, pairs = SYSTEMS[name]()
    for pair in pairs:
        ref = _reference_rate_numerator(state, pair, scheme)
        assert ref > 0.0
        assert _close(rate_numerator(state, pair, scheme), ref), pair
        geometry = PairGeometry(state.basis, pair)
        assert _close(rate_numerator(state, pair, scheme, geometry), ref), pair


@pytest.mark.parametrize("scheme", ["spectral", "stencil"])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_energy_deviation_terms_match_the_field_sum(name, scheme):
    _, state, pairs = SYSTEMS[name]()
    ops = collapse_sum(state, pairs, kappa=1.3, c=2.0, scheme=scheme)
    # a bare diagonal takes the numerical fallback, next to pair operators
    bare = collapse_from_diagonal(state, ops[0].centered, gamma_value=0.7,
                                  energy_denominator=3.0)
    for collapse_ops in (ops, ops + [bare]):
        terms = energy_deviation_terms(state, collapse_ops, scheme)
        gradient, laplacian, positive = _reference_energy_deviation_terms(
            state, collapse_ops, scheme)
        assert _close(terms.gradient_term, gradient)
        assert _close(terms.laplacian_term, laplacian)
        assert _close(terms.positive_definite_term, positive)
        assert terms.positive_definite_term > 0.0

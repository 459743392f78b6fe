"""Grid kernels against test-local references.

The stencil derivatives must equal the ``np.roll`` differences written
here (``np.array_equal``: only an exact zero may differ in sign), and
the grid operators a sum accumulated into zeros from the library's
derivatives. The spectral derivatives are compared with an FFT
derivative written here. ``_reference_rate_numerator``,
``_reference_rate_denominator`` and ``_reference_energy_deviation_terms``
evaluate the rate and the energy budget as sums over integrand fields,
with every derivative taken by the reference derivative, so the
library's inner-product reductions and its matrix derivatives are both
checked. The reference denominator keeps the normalized (V/<V>) psi and
the full dims^2 Hessian, against the library's quadratic form over
V psi and its symmetric contraction. The reductions reorder sums,
so that agreement is to a tolerance a few hundred roundings wide, not
bitwise.

The unitary step is compared with the ``fftn`` form of the same step
written here: the spectral split step, which applies one matrix per
axis, to a tolerance; the Crank-Nicolson step, which keeps its
transforms, bit for bit. A collapse operator equals the one assembled
here from the public rate functions at a <V> taken here.

The identity check's mismatch field, which the library evaluates into
buffers of its own, equals the one-expression form written here bit for
bit, on grids above and below the size (256 KiB) from which NumPy
evaluates ``x * (temporary)`` in place as ``temporary *= x``; neither
form may write into the state or the collapse operators.
"""

import numpy as np
import pytest

from collapsim import collapse, diagnostics
from collapsim.collapse import (
    collapse_from_diagonal,
    collapse_sum,
    rate_denominator,
    rate_numerator,
)
from collapsim.diagnostics import _mismatch_field, energy_deviation_terms, identity_residual
from collapsim.integrator import SCHEMES as STEP_SCHEMES
from collapsim.integrator import GridSystem, IntegratorConfig, UnitaryStepper, run_trajectory
from collapsim.operators import (
    AngularMomentumZOperator,
    GaussianWell,
    IdentityOperator,
    InteractionPair,
    KineticOperator,
    MomentumOperator,
    PairGeometry,
    SoftCoulomb,
    derivative1,
    derivative2,
    kinetic_symbol,
)
from collapsim.state import GridBasis, GridSpec, ParticleSpec, gaussian_packet, normalize

DERIVATIVE_RTOL = 1e-13
REDUCTION_RTOL = 1e-12
STEP_ATOL = 1e-13
UNITARY_ATOL = 1e-14


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


def _planar_pair(n=16):
    basis = GridBasis(GridSpec(2, n, 4.5), (ParticleSpec(1.0), ParticleSpec(1.5)))
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


def _basis(name):
    if name == "line":
        return GridBasis(GridSpec(1, 256, 16.0), (ParticleSpec(1.3),))
    return SYSTEMS[name]()[0]


def _white_noise(basis, seed):
    rng = np.random.default_rng(seed)
    real = rng.standard_normal(basis.shape)
    return real, real + 1j * rng.standard_normal(basis.shape)


@pytest.mark.parametrize("name", ["line"] + sorted(SYSTEMS))
def test_stencil_derivatives_equal_the_roll_differences(name):
    basis = _basis(name)
    # at 2h = 1.125 (h = 0.5625), x / 2h and x * (1 / 2h) differ for real x
    spacings = (basis.grid.spacing, 0.5625, 0.1, 1.0 / 3.0)
    real, cplx = _white_noise(basis, 4)
    assert not np.array_equal(real / 1.125, real * (1.0 / 1.125))
    # a transposed view is not contiguous along any axis it shares; an
    # axis of length 1 is a broadcast field's, its own neighbour
    inputs = (real, cplx, real[:1], cplx[..., :1], np.rint(100.0 * real).astype(int))
    if basis.n_axes > 1:
        inputs += (cplx.T,)
    for arr in inputs:
        for axis in range(basis.n_axes):
            for h in spacings:
                for order, kernel in ((1, derivative1), (2, derivative2)):
                    got = kernel(arr, axis, h, "stencil")
                    ref = _reference_derivative(arr, axis, h, "stencil", order)
                    assert got.dtype == ref.dtype
                    assert np.array_equal(got, ref), (axis, h, order)


def _reference_apply(op, amp):
    """The operator as a sum accumulated into zeros, one term at a time."""
    basis, scheme = op.basis, op.scheme
    h = basis.grid.spacing
    out = np.zeros_like(amp, dtype=np.complex128)
    if isinstance(op, KineticOperator):
        for axis in range(basis.n_axes):
            out += derivative2(amp, axis, h, scheme) / (-2.0 * basis.axis_mass(axis))
        return out
    for p in range(len(basis.particles)):
        if isinstance(op, MomentumOperator):
            out += derivative1(amp, basis.particle_axis(p, op.dim), h, scheme)
        else:
            ax_x, ax_y = basis.particle_axis(p, 0), basis.particle_axis(p, 1)
            out += basis.axis_coordinate(ax_x) * derivative1(amp, ax_y, h, scheme)
            out -= basis.axis_coordinate(ax_y) * derivative1(amp, ax_x, h, scheme)
    return -1j * out


def _observables(basis, scheme):
    """Every grid observable of ``basis`` in ``scheme``."""
    ops = [KineticOperator(basis, scheme)]
    ops += [MomentumOperator(basis, dim, scheme) for dim in range(basis.grid.dims)]
    if basis.grid.dims >= 2:
        ops.append(AngularMomentumZOperator(basis, scheme))
    return ops


@pytest.mark.parametrize("scheme", ["spectral", "stencil"])
@pytest.mark.parametrize("name", ["line"] + sorted(SYSTEMS))
def test_operator_sums_equal_the_accumulated_terms(name, scheme):
    basis = _basis(name)
    for amp in _white_noise(basis, 5):
        before = amp.copy()
        for op in _observables(basis, scheme):
            got = op.apply(amp)
            assert got.dtype == np.complex128
            assert np.array_equal(got, _reference_apply(op, amp)), type(op).__name__
            assert np.array_equal(amp, before), type(op).__name__


@pytest.mark.parametrize("name", ["line"] + sorted(SYSTEMS))
def test_spectral_derivatives_match_the_fft(name):
    basis = _basis(name)
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
    geometry = PairGeometry(basis, pair)
    # the interaction-weighted component (V/<V>) psi, normalized
    dens = state.density()
    mean = (dens * geometry.values).sum() / dens.sum()
    comp = normalize(state.with_amplitudes((geometry.values / mean) * state.amplitudes))
    amp = comp.amplitudes
    h = basis.grid.spacing
    mj = basis.particles[pair.j].mass
    mk = basis.particles[pair.k].mass
    term1 = comp.density() * geometry.laplacian * (0.5 / mj + 0.5 / mk)
    dot = np.zeros(basis.shape, dtype=np.complex128)
    for d in range(basis.grid.dims):
        dj = _reference_derivative(amp, basis.particle_axis(pair.j, d), h, scheme)
        dk = _reference_derivative(amp, basis.particle_axis(pair.k, d), h, scheme)
        dot += geometry.gradient[d] * (dj / mj - dk / mk)
    integral = (term1 + amp.conj() * dot).sum() * basis.weight
    return float(abs(integral))


def _reference_rate_denominator(state, pair, scheme):
    basis = state.basis
    geometry = PairGeometry(basis, pair)
    # the normalized interaction-weighted component, as for the numerator
    dens = state.density()
    mean = (dens * geometry.values).sum() / dens.sum()
    comp = normalize(state.with_amplitudes((geometry.values / mean) * state.amplitudes))
    amp = comp.amplitudes
    h = basis.grid.spacing
    mj = basis.particles[pair.j].mass
    mk = basis.particles[pair.k].mass
    mu = mj * mk / (mj + mk)

    def relative(arr, d):
        dj = _reference_derivative(arr, basis.particle_axis(pair.j, d), h, scheme)
        dk = _reference_derivative(arr, basis.particle_axis(pair.k, d), h, scheme)
        return (mk * dj - mj * dk) / (mj + mk)

    # (rhat . grad_rel)^2 over the full Hessian, its isotropic average at r = 0
    dims = basis.grid.dims
    u = geometry.u
    safe_u = np.where(u > 0, u, 1.0)
    radial = np.zeros(basis.shape, dtype=np.complex128)
    trace = np.zeros(basis.shape, dtype=np.complex128)
    for d in range(dims):
        for e in range(dims):
            second = relative(relative(amp, e), d)
            radial += geometry.separation[d] * geometry.separation[e] / safe_u * second
            if d == e:
                trace += second
    radial = np.where(u > 0, radial, trace / dims)
    integrand = amp.conj() * (geometry.values * amp - radial / mu)
    return float(integrand.sum().real * basis.weight)


def _reference_energy_deviation_terms(state, op, kappa, c, scheme):
    basis = state.basis
    amp = state.amplitudes
    weight = basis.weight
    h = basis.grid.spacing
    norm_sq = float(np.sum(np.abs(amp) ** 2) * weight)
    grads = [np.zeros(basis.shape) for _ in range(basis.n_axes)]
    weighted_lap = np.zeros(basis.shape)
    for pair, gamma, _, _ in op.terms:
        e_den = (basis.particles[pair.j].mass + basis.particles[pair.k].mass) * c * c
        factor = kappa * np.sqrt(gamma) / e_den
        geometry = PairGeometry(basis, pair)
        for particle, orient in ((pair.j, 1.0), (pair.k, -1.0)):
            mass = basis.particles[particle].mass
            for d in range(basis.grid.dims):
                axis = basis.particle_axis(particle, d)
                grads[axis] = grads[axis] + orient * factor * geometry.gradient[d]
            weighted_lap = weighted_lap + factor * geometry.laplacian / (2.0 * mass)
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
        geometry = PairGeometry(state.basis, pair)
        assert _close(rate_numerator(state, pair, scheme, geometry), ref), pair


def _repulsive_pairs():
    # the planar pair under two repulsive potentials, and the line's repulsive pair
    _, planar, _ = _planar_pair()
    _, line, line_pairs = _three_in_a_line()
    return [(planar, InteractionPair(0, 1, SoftCoulomb(1.0, 0.5))),
            (planar, InteractionPair(0, 1, GaussianWell(1.2, 0.8))),
            (line, line_pairs[1])]


@pytest.mark.parametrize("scheme", ["spectral", "stencil"])
def test_rate_denominator_matches_the_full_hessian_form(scheme):
    for state, pair in _repulsive_pairs():
        geometry = PairGeometry(state.basis, pair)
        # the isotropic average is reached
        assert np.any(geometry.u == 0.0)
        ref = _reference_rate_denominator(state, pair, scheme)
        assert ref > 0.0
        assert _close(rate_denominator(state, pair, scheme, geometry), ref), pair


@pytest.mark.parametrize("scheme", ["spectral", "stencil"])
def test_rate_denominator_contracts_the_symmetric_hessian(monkeypatch, scheme):
    # dims first relative derivatives, dims (dims + 1) / 2 second ones,
    # two derivative1 calls each
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return derivative1(*args, **kwargs)

    monkeypatch.setattr(collapse, "derivative1", counted)
    for (state, pair), expected in zip(_repulsive_pairs(), (10, 10, 4), strict=True):
        geometry = PairGeometry(state.basis, pair)
        calls.clear()
        rate_denominator(state, pair, scheme, geometry)
        assert len(calls) == expected, pair


@pytest.mark.parametrize("scheme", ["spectral", "stencil"])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_energy_deviation_terms_match_the_field_sum(name, scheme):
    _, state, pairs = SYSTEMS[name]()
    op = collapse_sum(state, pairs, kappa=1.3, c=2.0, scheme=scheme)
    terms = energy_deviation_terms(state, op, scheme)
    gradient, laplacian, positive = _reference_energy_deviation_terms(state, op, 1.3, 2.0,
                                                                      scheme)
    assert _close(terms.gradient_term, gradient)
    assert _close(terms.laplacian_term, laplacian)
    assert _close(terms.positive_definite_term, positive)
    assert terms.positive_definite_term > 0.0
    # a bare diagonal has no pair to differentiate analytically
    bare = collapse_from_diagonal(state, op.centered, gamma_value=0.7,
                                  energy_denominator=3.0)
    with pytest.raises(ValueError, match="interaction pair"):
        energy_deviation_terms(state, bare, scheme)


# the unitary step against its fftn form

def _grid_scattering_default():
    # 64^2 configuration grid, the grid_scattering default
    basis = GridBasis(GridSpec(1, 64, 8.0), (ParticleSpec(1.0), ParticleSpec(1.5)))
    return basis, 0.003, [InteractionPair(0, 1, GaussianWell(-2.0, 1.0))]


def _planar_stepping():
    # 16^4, the benchmark's grid2d config
    basis, _, pairs = _planar_pair()
    return basis, 0.008, pairs


def _three_in_a_line_stepping():
    # two pairs: the step's potential is the sum of both pairs' values
    basis, _, pairs = _three_in_a_line()
    return basis, 0.01, pairs


# every shipped stepping shape and one with two pairs: (basis, configured dt, pairs)
STEPPING = {
    "free_packet": lambda: (_basis("line"), 0.002, []),
    "grid_scattering": _grid_scattering_default,
    "planar_pair": _planar_stepping,
    "three_in_a_line": _three_in_a_line_stepping,
}


def _summed_potential(basis, pairs):
    """The stepper's potential: the pairs' summed values, None without pairs."""
    fields = [PairGeometry(basis, pair).values for pair in pairs]
    return sum(fields[1:], fields[0]) if fields else None


def _reference_step(basis, dt, pairs, amp, scheme):
    """One unitary sub-step with the kinetic factor between fftn and ifftn."""
    symbol = kinetic_symbol(basis, STEP_SCHEMES[scheme])
    if scheme == "split_step_spectral":
        phase = np.exp(-1j * dt * symbol)
    else:
        half = 0.5j * dt * symbol
        phase = (1.0 - half) / (1.0 + half)
    if not pairs:
        return np.fft.ifftn(phase * np.fft.fftn(amp))
    v_total = np.zeros(basis.shape)
    for pair in pairs:
        v_total = v_total + PairGeometry(basis, pair).values
    half_potential = np.exp(-0.5j * dt * v_total)
    amp = np.fft.ifftn(phase * np.fft.fftn(half_potential * amp))
    return half_potential * amp


@pytest.mark.parametrize("with_pairs", [False, True])
@pytest.mark.parametrize("name", sorted(STEPPING))
def test_split_step_matches_the_fftn_form(name, with_pairs, monkeypatch):
    basis, dt, pairs = STEPPING[name]()
    pairs = pairs if with_pairs else []
    stepper = UnitaryStepper(basis, dt, potential=_summed_potential(basis, pairs))
    # the stepper holds one n x n matrix per axis and no full-shape array
    assert stepper._kinetic_phase is None
    assert len(stepper._axis_propagators) == basis.n_axes
    n = basis.grid.points_per_axis
    for matrix in stepper._axis_propagators:
        assert matrix.shape == (n, n)
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0
        assert np.max(np.abs(matrix @ matrix.conj().T - np.eye(n))) <= UNITARY_ATOL
    amps = _white_noise(basis, 6)
    refs = [_reference_step(basis, dt, pairs, amp, "split_step_spectral") for amp in amps]

    def forbidden(*args, **kwargs):
        raise AssertionError("the split step calls an n-D transform")

    monkeypatch.setattr(np.fft, "fftn", forbidden)
    monkeypatch.setattr(np.fft, "ifftn", forbidden)
    for amp, ref in zip(amps, refs):
        got = stepper.step(amp)
        assert got.shape == amp.shape
        assert np.max(np.abs(got - ref)) <= STEP_ATOL


@pytest.mark.parametrize("with_pairs", [False, True])
@pytest.mark.parametrize("name", sorted(STEPPING))
def test_crank_nicolson_step_equals_the_fftn_cayley_form(name, with_pairs):
    basis, dt, pairs = STEPPING[name]()
    pairs = pairs if with_pairs else []
    stepper = UnitaryStepper(basis, dt, scheme="crank_nicolson_stencil",
                             potential=_summed_potential(basis, pairs))
    for amp in _white_noise(basis, 7):
        ref = _reference_step(basis, dt, pairs, amp, "crank_nicolson_stencil")
        assert np.array_equal(stepper.step(amp), ref)


@pytest.mark.parametrize("scheme", ["spectral", "stencil"])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_collapse_operator_equals_the_public_rate_form(name, scheme):
    _, state, pairs = SYSTEMS[name]()
    basis = state.basis
    kappa, c = 1.3, 2.0
    op = collapse_sum(state, pairs, kappa=kappa, c=c, scheme=scheme)
    diagonal = centered = None
    for pair, term in zip(pairs, op.terms, strict=True):
        geometry = PairGeometry(basis, pair)
        v = geometry.values
        dens = state.density()
        mean = float((dens * v).sum() * basis.weight / (dens.sum() * basis.weight))
        gamma = (rate_numerator(state, pair, scheme, geometry)
                 / rate_denominator(state, pair, scheme, geometry))
        e_den = (basis.particles[pair.j].mass + basis.particles[pair.k].mass) * c * c
        scaled = (kappa * np.sqrt(gamma) / e_den) * (v - mean)
        assert term[:2] == (pair, gamma)
        # summed in pair order
        diagonal = scaled if diagonal is None else diagonal + scaled
        centered = v - mean if centered is None else centered + (v - mean)
    assert np.array_equal(op.diagonal, diagonal)
    assert np.array_equal(op.centered, centered)


@pytest.mark.parametrize("scheme", ["spectral", "stencil"])
def test_collapse_sum_adds_the_single_pair_operators(scheme):
    _, state, pairs = _three_in_a_line()
    op = collapse_sum(state, pairs, kappa=1.3, c=2.0, scheme=scheme)
    singles = [collapse_sum(state, [pair], kappa=1.3, c=2.0, scheme=scheme)
               for pair in pairs]
    assert np.array_equal(op.diagonal, singles[0].diagonal + singles[1].diagonal)
    assert np.array_equal(op.centered, singles[0].centered + singles[1].centered)
    assert [term[1] for term in op.terms] == [single.terms[0][1] for single in singles]
    assert collapse_sum(state, ()) is None


def test_two_pair_run_hands_per_step_one_operator():
    basis, state, pairs = _three_in_a_line()
    cfg = IntegratorConfig(dt=0.01, n_steps=3)
    seen = []
    run_trajectory(GridSystem(basis, tuple(pairs)), state, cfg, seed=3,
                   per_step=lambda step, current, op, increment: seen.append(op))
    assert len(seen) == cfg.n_steps
    for op in seen:
        assert [term[0] for term in op.terms] == pairs


# the identity check's mismatch field against its one-expression form

def _reference_mismatch_field(state, op, increment, q_op, dt):
    amp = state.amplitudes
    diag = op.diagonal
    q_amp = q_op.apply(amp)
    q_d_amp = q_op.apply(diag * amp)
    stoch = np.conj(amp) * (q_d_amp - diag * q_amp) * increment
    drift = np.conj(amp) * (diag * q_d_amp
                            - 0.5 * diag * diag * q_amp
                            - 0.5 * q_op.apply(diag * diag * amp)) * dt
    return stoch + drift


# 16^4 complex is 1 MiB, above NumPy's 256 KiB threshold for evaluating
# a temporary in place; 8^4 (64 KiB) is below it. The line of three has
# two pairs on a 16^3 grid, each pair's field broadcast over the third axis.
MISMATCH_SYSTEMS = {
    "planar_pair_16": _planar_pair,
    "planar_pair_8": lambda: _planar_pair(8),
    "three_in_a_line": _three_in_a_line,
}
MISMATCH_INCREMENT = complex(0.021, -0.013)
MISMATCH_DT = 1e-3


class _SchemedIdentity(IdentityOperator):
    # identity_residual differentiates with its observable's scheme; the
    # identity returns its argument itself, so a write into an apply
    # result would reach the state or a buffer still in use

    def __init__(self, scheme):
        self.scheme = scheme


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint8).tobytes()


@pytest.mark.parametrize("scheme", ["spectral", "stencil"])
@pytest.mark.parametrize("name", sorted(MISMATCH_SYSTEMS))
def test_mismatch_field_equals_the_one_expression(name, scheme):
    _, state, pairs = MISMATCH_SYSTEMS[name]()
    op = collapse_sum(state, pairs, kappa=1.3, c=2.0, scheme=scheme)
    for q_op in _observables(state.basis, scheme) + [IdentityOperator()]:
        for increment in (MISMATCH_INCREMENT, 0.0):
            got = _mismatch_field(state.amplitudes, op.diagonal, increment, q_op,
                                  MISMATCH_DT)
            ref = _reference_mismatch_field(state, op, increment, q_op, MISMATCH_DT)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.array_equal(got.view(np.float64), ref.view(np.float64)), \
                (type(q_op).__name__, increment)


@pytest.mark.parametrize("scheme", ["spectral", "stencil"])
@pytest.mark.parametrize("name", sorted(MISMATCH_SYSTEMS))
def test_identity_check_writes_no_input(name, scheme, monkeypatch):
    _, state, pairs = MISMATCH_SYSTEMS[name]()
    system = GridSystem(state.basis, tuple(pairs))
    config = IntegratorConfig(dt=MISMATCH_DT, n_steps=1, kappa=1.3, c=2.0)
    # the diagonal the field reads is the operator's own
    op = collapse_sum(state, pairs, kappa=1.3, c=2.0, scheme=scheme)
    built = []

    def keep(made):
        built.append((made, _bits(made.diagonal), _bits(made.centered)))
        return made

    keep(op)
    monkeypatch.setattr(diagnostics, "collapse_sum",
                        lambda *args, **kwargs: keep(collapse_sum(*args, **kwargs)))
    state_bits = _bits(state.amplitudes)
    observables = _observables(state.basis, scheme) + [_SchemedIdentity(scheme)]
    for q_op in observables:
        _mismatch_field(state.amplitudes, op.diagonal, MISMATCH_INCREMENT, q_op,
                        MISMATCH_DT)
        identity_residual(system, state, q_op, config)
    assert len(built) == 1 + len(observables)
    assert _bits(state.amplitudes) == state_bits
    for made, diagonal_bits, centered_bits in built:
        assert _bits(made.diagonal) == diagonal_bits
        assert _bits(made.centered) == centered_bits

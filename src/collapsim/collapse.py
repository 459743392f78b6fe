"""Norm-centered stochastic shift operators and their rate parameter.

The stochastic term of the dynamics multiplies the state by a diagonal
built from a two-particle interaction potential: the potential is
centered by its current expectation, scaled by the square root of a
rate parameter, and divided by the summed rest energy of the pair. The
rate parameter is dimensionally a frequency: the magnitude of the rate
of change of the interaction energy of the interaction-weighted
component, divided by a bound on the energy available to that
component.

Everything here works in natural units (hbar = 1) on grid states; a
finite system gives its rate and energy explicitly, because labeled
bases carry no derivatives.

The grid functions read the potential and its derivatives from an
optional ``PairGeometry`` of the pair; a run passes its own so the
fields are computed once, and a call without one builds a throwaway
geometry at each point of use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    InteractionPair,
    LinearOperator,
    PairGeometry,
    derivative1,
)
from .state import GridBasis, HilbertState, normalize

__all__ = [
    "DegenerateProjectionError",
    "RateParams",
    "CollapseOperator",
    "interacting_component",
    "rate_numerator",
    "rate_denominator",
    "rate_denominator_bound_state",
    "rate_params",
    "build_collapse_operator",
    "collapse_from_diagonal",
    "collapse_sum",
    "total_diagonal",
    "characteristic_time",
]

# relative threshold on <V> below which the interaction-weighted
# projection is treated as nonexistent
DEGENERATE_RTOL = 1e-14


class DegenerateProjectionError(ValueError):
    """The interaction expectation is zero: no interacting component."""


@dataclass(frozen=True)
class RateParams:
    """Rate numerator and denominator (energies per time and energy)."""

    numerator: float
    denominator: float
    gamma: float
    degenerate: bool = False


def _mean_potential(state: HilbertState, values) -> float:
    dens = state.density()
    total = dens.sum() * state.basis.weight
    if total == 0.0:
        raise ValueError("zero state")
    return float((dens * values).sum() * state.basis.weight / total)


def _geometry(basis, pair, geometry):
    """The caller's geometry of the pair, or a throwaway one."""
    return geometry if geometry is not None else PairGeometry(basis, pair)


def _degenerate(pair: InteractionPair, mean: float) -> bool:
    return abs(mean) <= DEGENERATE_RTOL * pair.potential.max_magnitude()


def _interaction_mean(state: HilbertState, pair: InteractionPair,
                      geometry: PairGeometry | None):
    """The pair's geometry on a grid state, and <V> of the state;
    raises ``DegenerateProjectionError`` on a degenerate overlap."""
    basis = state.basis
    if not isinstance(basis, GridBasis):
        raise TypeError("the interaction-weighted component needs a grid-backed state")
    geometry = _geometry(basis, pair, geometry)
    mean = _mean_potential(state, geometry.values)
    if _degenerate(pair, mean):
        raise DegenerateProjectionError(
            "interaction expectation %.3e is degenerate" % mean)
    return geometry, mean


def interacting_component(state: HilbertState, pair: InteractionPair,
                          geometry: PairGeometry | None = None) -> HilbertState:
    """Interaction-weighted component (V/<V>) psi. Grid backend only.

    Raises ``DegenerateProjectionError`` when |<V>| falls below
    1e-14 times the potential's peak magnitude, i.e. when the state
    has no overlap with the interaction.
    """
    geometry, mean = _interaction_mean(state, pair, geometry)
    return state.with_amplitudes((geometry.values / mean) * state.amplitudes)


def rate_numerator(state: HilbertState, pair: InteractionPair, scheme="spectral",
                   geometry: PairGeometry | None = None) -> float:
    """Magnitude of the interaction-energy drain rate of (V/<V>) psi.

    Equal to |d<V>/dt| of the normalized interaction-weighted
    component under the pair Hamiltonian, evaluated from analytic
    potential derivatives instead of a time difference. With x = V psi
    and g_d = d V / d x_{j,d} it is the ratio of inner products

        [(1/2mj + 1/2mk) <x|lap V x>
         + sum_d (<g_d x|d_{j,d} x>/mj - <g_d x|d_{k,d} x>/mk)] / <x|x>,

    in which the 1/<V> factor and the normalisation cancel.
    """
    geometry, _ = _interaction_mean(state, pair, geometry)
    return _rate_numerator(state, pair, scheme, geometry)


def _rate_numerator(state, pair, scheme, geometry):
    basis = state.basis
    x = geometry.values * state.amplitudes
    norm_sq = np.vdot(x, x).real
    if norm_sq == 0.0 or not math.isfinite(norm_sq):
        raise ValueError("cannot normalize state with squared norm %r" % norm_sq)
    h = basis.grid.spacing
    mj = basis.particles[pair.j].mass
    mk = basis.particles[pair.k].mass
    integral = (0.5 / mj + 0.5 / mk) * np.vdot(x, geometry.laplacian * x).real
    for d, grad in enumerate(geometry.gradient):
        gx = grad * x
        integral += np.vdot(gx, derivative1(x, basis.particle_axis(pair.j, d), h, scheme)) / mj
        integral -= np.vdot(gx, derivative1(x, basis.particle_axis(pair.k, d), h, scheme)) / mk
    return float(abs(integral / norm_sq))


def _relative_derivative(basis, pair, amp, d, scheme):
    # mass-weighted relative coordinate derivative: moves the pair apart
    # while leaving the center of mass fixed
    h = basis.grid.spacing
    mj = basis.particles[pair.j].mass
    mk = basis.particles[pair.k].mass
    total = mj + mk
    dj = derivative1(amp, basis.particle_axis(pair.j, d), h, scheme)
    dk = derivative1(amp, basis.particle_axis(pair.k, d), h, scheme)
    return (mk * dj - mj * dk) / total


def _radial_second_derivative(basis, pair, amp, scheme, geometry):
    """(rhat . grad_rel)^2 psi; isotropic average where r = 0."""
    dims = basis.grid.dims
    if dims == 1:
        first = _relative_derivative(basis, pair, amp, 0, scheme)
        return _relative_derivative(basis, pair, first, 0, scheme)
    geometry = _geometry(basis, pair, geometry)
    comps, u = geometry.separation, geometry.u
    firsts = [_relative_derivative(basis, pair, amp, d, scheme) for d in range(dims)]
    out = np.zeros(basis.shape, dtype=np.complex128)
    trace = np.zeros(basis.shape, dtype=np.complex128)
    safe_u = np.where(u > 0, u, 1.0)
    for d in range(dims):
        for e in range(dims):
            second = _relative_derivative(basis, pair, firsts[e], d, scheme)
            out += (comps[d] * comps[e] / safe_u) * second
            if d == e:
                trace += second
    return np.where(np.broadcast_to(u > 0, out.shape), out, trace / dims)


def rate_denominator(state: HilbertState, pair: InteractionPair, scheme="spectral",
                     geometry: PairGeometry | None = None) -> float:
    """Energy bound on the interaction-weighted component.

    Positive (repulsive) potentials: interaction energy plus the
    relative-coordinate radial term
    integral psi* [V psi - (1/mu) d^2 psi/dr^2], mu = mj mk/(mj+mk).
    Negative (attractive) potentials: the bound-state bound from
    ``rate_denominator_bound_state``.
    """
    if pair.potential.sign < 0:
        return rate_denominator_bound_state(pair.potential)
    geometry, mean = _interaction_mean(state, pair, geometry)
    return _rate_denominator(state, pair, scheme, geometry, mean)


def _rate_denominator(state, pair, scheme, geometry, mean):
    # the repulsive branch, at the state's <V>
    basis = state.basis
    comp = normalize(state.with_amplitudes((geometry.values / mean) * state.amplitudes))
    amp = comp.amplitudes
    mj = basis.particles[pair.j].mass
    mk = basis.particles[pair.k].mass
    mu = mj * mk / (mj + mk)
    radial = _radial_second_derivative(basis, pair, amp, scheme, geometry)
    integrand = amp.conj() * (geometry.values * amp - radial / mu)
    return float(integrand.sum().real * basis.weight)


def rate_denominator_bound_state(potential, angular_momentum: float = 0.0) -> float:
    """Depth of the effective radial potential for the lowest state.

    Convention for attractive potentials: the energy scale of the
    deepest available state is bounded by the sup norm of
    |V + L^2/r^2|; with L = 0 (the only case used here) that is the
    well depth at contact. Isolated in this one function so a
    different reading of "lowest available state" replaces one place.
    """
    if angular_momentum != 0.0:
        raise NotImplementedError("only the L = 0 branch is implemented")
    return potential.max_magnitude()


def rate_params(state: HilbertState, pair: InteractionPair, scheme="spectral",
                geometry: PairGeometry | None = None) -> RateParams:
    """Rate parameter with its two factors; degenerate overlap gives 0."""
    try:
        geometry, mean = _interaction_mean(state, pair, geometry)
    except DegenerateProjectionError:
        return RateParams(0.0, 0.0, 0.0, degenerate=True)
    return _rate_params(state, pair, scheme, geometry, mean)


def _rate_params(state, pair, scheme, geometry, mean) -> RateParams:
    """``rate_params`` from the pair's geometry and the state's <V>."""
    if _degenerate(pair, mean):
        return RateParams(0.0, 0.0, 0.0, degenerate=True)
    num = _rate_numerator(state, pair, scheme, geometry)
    if pair.potential.sign < 0:
        den = rate_denominator_bound_state(pair.potential)
    else:
        den = _rate_denominator(state, pair, scheme, geometry, mean)
    if not den > 0:
        # an unbound ratio has no collapse interpretation; treat as off
        return RateParams(num, den, 0.0, degenerate=True)
    return RateParams(num, den, num / den, degenerate=False)


class CollapseOperator(LinearOperator):
    """Diagonal stochastic shift generator for one interaction pair.

    apply() multiplies by kappa * sqrt(gamma) * (V - <V>) / E_pair,
    where E_pair is the summed rest energy (m_j + m_k) c^2 and kappa
    is a dimensionless study gain (kappa = 1 is the physical setting).
    ``geometry`` is kept only when the caller passed one in, so a
    one-shot operator does not pin the pair's fields.
    """

    def __init__(self, centered, gamma_value, energy_denominator, kappa=1.0, pair=None,
                 geometry=None):
        if not energy_denominator > 0:
            raise ValueError("energy denominator must be positive")
        if gamma_value < 0:
            raise ValueError("rate parameter must be nonnegative")
        if kappa < 0:
            raise ValueError("gain must be nonnegative")
        self.centered = np.asarray(centered, dtype=float)
        self.gamma = float(gamma_value)
        self.energy_denominator = float(energy_denominator)
        self.kappa = float(kappa)
        self.pair = pair
        self.geometry = geometry
        self.scaled_values = (self.kappa * math.sqrt(self.gamma) / self.energy_denominator) * self.centered

    def apply(self, amplitudes):
        return self.scaled_values * amplitudes


def build_collapse_operator(state, pair, kappa=1.0, c=1.0, scheme="spectral",
                            gamma_value=None, geometry=None) -> CollapseOperator:
    """Grid-backend construction; gamma computed from the state unless given.

    At zero gain gamma is taken as 0 instead: every use of gamma is
    multiplied by kappa, so the rate would scale nothing.
    """
    basis = state.basis
    if not isinstance(basis, GridBasis):
        raise TypeError("grid-backed state required; use collapse_from_diagonal "
                        "for finite bases")
    fields = _geometry(basis, pair, geometry)
    mean = _mean_potential(state, fields.values)
    centered = fields.values - mean
    if gamma_value is None:
        gamma_value = _rate_params(state, pair, scheme, fields, mean).gamma if kappa else 0.0
    # free a throwaway geometry before the operator allocates its diagonal:
    # a 32^4 pair otherwise leaves heap holes that raise peak RSS by 8 MiB
    del fields
    e_den = (basis.particles[pair.j].mass + basis.particles[pair.k].mass) * c * c
    return CollapseOperator(centered, gamma_value, e_den, kappa, pair, geometry)


def collapse_from_diagonal(state, values, gamma_value, energy_denominator,
                           kappa=1.0) -> CollapseOperator:
    """Finite-basis construction from explicit diagonal interaction values."""
    values = np.asarray(values, dtype=float)
    centered = values - _mean_potential(state, values)
    return CollapseOperator(centered, gamma_value, energy_denominator, kappa)


def collapse_sum(state, pairs, kappa=1.0, c=1.0, scheme="spectral",
                 geometries=None) -> list[CollapseOperator]:
    """One operator per pair, all centered against the same state.

    ``geometries`` holds one ``PairGeometry`` per pair, in pair order.
    """
    if geometries is None:
        geometries = (None,) * len(pairs)
    return [build_collapse_operator(state, p, kappa, c, scheme, geometry=g)
            for p, g in zip(pairs, geometries, strict=True)]


def total_diagonal(ops) -> np.ndarray:
    """Summed scaled diagonal of a list of collapse operators."""
    if not ops:
        raise ValueError("no collapse operators given")
    total = ops[0].scaled_values
    for op in ops[1:]:
        total = total + op.scaled_values
    return total


def characteristic_time(delta_v: float, hbar: float = 1.0) -> float:
    """Interaction timescale hbar / delta_v for an energy spread delta_v."""
    if not delta_v > 0:
        raise ValueError("energy spread must be positive, got %r" % (delta_v,))
    return hbar / delta_v

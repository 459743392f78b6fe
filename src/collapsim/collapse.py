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

``collapse_sum`` builds the one operator of a grid state, summed over
its pairs. Per pair it takes the state's <V> once, to test for a
degenerate overlap and to centre V; both halves of the rate
``rate_numerator`` / ``rate_denominator`` read x = V psi alone. The
potential and its derivatives come from the pair's ``PairGeometry``; a
run passes its own so the fields are computed once, and a call without
one builds a throwaway geometry per pair.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import InteractionPair, PairGeometry, derivative1
from .state import GridBasis, HilbertState, _density_mean

__all__ = [
    "CollapseOperator",
    "rate_numerator",
    "rate_denominator",
    "collapse_sum",
    "collapse_from_diagonal",
    "characteristic_time",
]

# relative threshold on <V> below which the interaction-weighted
# projection is treated as nonexistent
DEGENERATE_RTOL = 1e-14


def rate_numerator(state: HilbertState, pair: InteractionPair, scheme: str,
                   geometry: PairGeometry) -> float:
    """Magnitude of the interaction-energy drain rate of (V/<V>) psi.

    Equal to |d<V>/dt| of the normalized interaction-weighted
    component under the pair Hamiltonian, evaluated from analytic
    potential derivatives instead of a time difference. With x = V psi
    and g_d = d V / d x_{j,d} it is the ratio of inner products

        [(1/2mj + 1/2mk) <x|lap V x>
         + sum_d (<g_d x|d_{j,d} x>/mj - <g_d x|d_{k,d} x>/mk)] / <x|x>,

    in which the 1/<V> factor and the normalisation cancel.
    """
    basis = state.basis
    x = geometry.values * state.amplitudes
    norm_sq = np.vdot(x, x).real
    if norm_sq == 0.0 or not math.isfinite(norm_sq):
        raise ValueError("cannot normalize state with squared norm %r" % norm_sq)
    h = basis.grid.spacing
    mj = basis.particles[pair.j].mass
    mk = basis.particles[pair.k].mass
    integral = (0.5 / mj + 0.5 / mk) * np.vdot(x, geometry.laplacian * x).real
    # one buffer for every g_d x: a second product is never alive beside it
    gx = np.empty_like(x)
    for d, grad in enumerate(geometry.gradient):
        np.multiply(grad, x, out=gx)
        integral += np.vdot(gx, derivative1(x, basis.particle_axis(pair.j, d), h, scheme)) / mj
        integral -= np.vdot(gx, derivative1(x, basis.particle_axis(pair.k, d), h, scheme)) / mk
    return float(abs(integral / norm_sq))


def _relative_derivative(basis, pair, amp, d, scheme):
    # mass-weighted relative derivative (mk dj - mj dk) / (mj + mk), formed in
    # place: it moves the pair apart and leaves the center of mass fixed
    h = basis.grid.spacing
    mj = basis.particles[pair.j].mass
    mk = basis.particles[pair.k].mass
    out = derivative1(amp, basis.particle_axis(pair.j, d), h, scheme)
    out *= mk
    dk = derivative1(amp, basis.particle_axis(pair.k, d), h, scheme)
    dk *= mj
    out -= dk
    out /= mj + mk
    return out


def _radial_second_derivative(basis, pair, amp, scheme, geometry):
    """(rhat . grad_rel)^2 psi; isotropic average where r = 0."""
    dims = basis.grid.dims
    comps, u = geometry.separation, geometry.u
    firsts = [_relative_derivative(basis, pair, amp, d, scheme) for d in range(dims)]
    safe_u = np.where(u > 0, u, 1.0)
    out = trace = None
    for d in range(dims):
        for e in range(d, dims):
            second = _relative_derivative(basis, pair, firsts[e], d, scheme)
            # the Hessian is symmetric: an off-diagonal term counts twice
            term = ((1.0 if d == e else 2.0) * comps[d] * comps[e] / safe_u) * second
            if out is None:
                out, trace = term, second
            else:
                out += term
                if d == e:
                    trace += second
    return np.where(u > 0, out, trace / dims)


def rate_denominator(state: HilbertState, pair: InteractionPair, scheme: str,
                     geometry: PairGeometry) -> float:
    """Energy bound on the interaction-weighted component (V/<V>) psi.

    Positive (repulsive) potentials: interaction energy plus the relative
    radial term, <x|V x - (1/mu) d^2 x/dr^2> / <x|x> over the numerator's
    x = V psi, mu = mj mk/(mj+mk); the sign of <V> and the norm cancel.
    Negative (attractive) potentials: the energy scale of the deepest
    available state, bounded by the sup norm of |V + L^2/r^2|; with
    L = 0 that is the well depth at contact.
    """
    if pair.potential.sign < 0:
        return pair.potential.max_magnitude()
    basis = state.basis
    x = geometry.values * state.amplitudes
    mj = basis.particles[pair.j].mass
    mk = basis.particles[pair.k].mass
    mu = mj * mk / (mj + mk)
    radial = _radial_second_derivative(basis, pair, x, scheme, geometry)
    return float(np.vdot(x, geometry.values * x - radial / mu).real / np.vdot(x, x).real)


class CollapseOperator:
    """Diagonal stochastic shift generator of one step, summed over pairs.

    ``diagonal`` is D = sum_p kappa * sqrt(gamma_p) * (V_p - <V_p>) / E_p,
    where E_p is the summed rest energy (m_j + m_k) c^2 of pair p and
    kappa is a dimensionless study gain (kappa = 1 is the physical
    setting). ``centered`` is the unscaled sum of V_p - <V_p>, the field
    whose sign defines the branches. ``terms`` holds one
    ``(pair, gamma, scale, geometry)`` tuple per pair, with
    scale = kappa * sqrt(gamma) / E_p; ``geometry`` is kept only when
    the caller passed one in, so a one-shot operator does not pin the
    pair's fields, and ``pair`` is None for an explicit diagonal.
    """

    def __init__(self, diagonal, centered, terms):
        self.diagonal = diagonal
        self.centered = centered
        self.terms = tuple(terms)


def collapse_from_diagonal(state, values, gamma_value, energy_denominator,
                           kappa=1.0) -> CollapseOperator:
    """Finite-basis construction from explicit diagonal interaction values."""
    if not energy_denominator > 0:
        raise ValueError("energy denominator must be positive")
    if gamma_value < 0:
        raise ValueError("rate parameter must be nonnegative")
    if kappa < 0:
        raise ValueError("gain must be nonnegative")
    values = np.asarray(values, dtype=float)
    centered = values - _density_mean(state, values)[2]
    scale = kappa * math.sqrt(gamma_value) / energy_denominator
    return CollapseOperator(scale * centered, centered,
                            [(None, gamma_value, scale, None)])


def collapse_sum(state, pairs, kappa=1.0, c=1.0, scheme="spectral",
                 geometries=None) -> CollapseOperator | None:
    """The summed operator of a grid state's pairs, each centred against
    it, or None without pairs.

    ``geometries`` holds one ``PairGeometry`` per pair, in pair order.
    gamma is 0 when the overlap is degenerate (|<V>| at most 1e-14 times
    the potential's peak magnitude), when the energy bound is not
    positive, and at zero gain, where it would scale nothing.
    """
    basis = state.basis
    if not isinstance(basis, GridBasis):
        raise TypeError("grid-backed state required; use collapse_from_diagonal "
                        "for finite bases")
    if geometries is None:
        geometries = (None,) * len(pairs)
    diagonal = centered = None
    terms = []
    for pair, geometry in zip(pairs, geometries, strict=True):
        fields = geometry if geometry is not None else PairGeometry(basis, pair)
        mean = _density_mean(state, fields.values)[2]
        gamma = 0.0
        if kappa and not abs(mean) <= DEGENERATE_RTOL * pair.potential.max_magnitude():
            num = rate_numerator(state, pair, scheme, fields)
            den = rate_denominator(state, pair, scheme, fields)
            # an unbound ratio has no collapse interpretation; treat as off
            if den > 0:
                gamma = num / den
        # centred after the rate, so the rate's work arrays never sit beside
        # it, and a throwaway geometry freed before the operator's own fields
        pair_centered = fields.values - mean
        del fields
        e_den = (basis.particles[pair.j].mass + basis.particles[pair.k].mass) * c * c
        scale = kappa * math.sqrt(gamma) / e_den
        scaled = scale * pair_centered
        terms.append((pair, gamma, scale, geometry))
        if diagonal is None:
            diagonal, centered = scaled, pair_centered
        else:
            # not in place: a pair's fields broadcast over the axes it skips
            diagonal = diagonal + scaled
            centered = centered + pair_centered
    if diagonal is None:
        return None
    return CollapseOperator(diagonal, centered, terms)


def characteristic_time(delta_v: float, hbar: float = 1.0) -> float:
    """Interaction timescale hbar / delta_v for an energy spread delta_v."""
    if not delta_v > 0:
        raise ValueError("energy spread must be positive, got %r" % (delta_v,))
    return hbar / delta_v

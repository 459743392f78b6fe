"""Linear operators on grid and finite-basis states.

Grid derivative operators come in two discretizations:

* ``"stencil"``: second-order centered differences with periodic wrap.
  Plane-wave symbols are (1 - cos kh)/(m h^2) for the kinetic term and
  sin(kh)/h for the first derivative.
* ``"spectral"``: Fourier differentiation, exact for band-limited
  states. The symbol (i k per derivative, Nyquist mode included) is
  applied to the identity once per axis length, spacing and order, and
  the resulting dense n x n real-space matrix is applied along the axis
  with one matrix product. It is the FFT operator up to rounding, and
  at the grid sizes used here one product is cheaper than the
  forward/inverse transform pair.

One cached builder, ``_symbol_matrix``, makes the real-space matrix of
any per-axis Fourier symbol, and one helper, ``_apply_along_axis``,
applies such a matrix along an axis. They serve both the spectral
derivatives and the free propagator exp(-i dt k^2 / 2m) of one axis,
which the split-step stepper applies axis by axis.

Pair potentials are functions of the minimum-image separation of two
particles, with analytic gradients and Laplacians (no finite
differencing of potential fields anywhere).

A ``PairGeometry`` holds the state-independent fields of one pair on
one grid basis: the separation components and (each computed on first
use from their squared length u, then kept) the potential V, its
gradient with respect to the first particle, and its Laplacian. u
itself is not kept: only the repulsive rate denominator reads it per
step, and holding it would add a full-size field to every run. The
gradient with respect to the second particle is the exact negative of
the first, so only one is stored. ``run_trajectory`` builds one geometry
per pair and hands it to every per-step consumer, so the fields are
computed once per run and freed with it; there is no cache that
outlives the run. The run also sums the pairs' potential values once,
and that one field enters both the unitary sub-step and the recorded
energy (kinetic term plus the potential diagonal). Callers that pass
no geometry get a throwaway one per call, so a one-shot evaluation
holds no more full-size fields than it needs.

Operators share no base class: anything with an ``apply(amplitudes)``
method serves as an observable or a Hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .state import GridBasis

__all__ = [
    "IdentityOperator",
    "DiagonalOperator",
    "KineticOperator",
    "MomentumOperator",
    "AngularMomentumZOperator",
    "SoftCoulomb",
    "GaussianWell",
    "InteractionPair",
    "PairGeometry",
    "kinetic_symbol",
    "derivative1",
    "derivative2",
]

SCHEMES = ("stencil", "spectral")


def _check_scheme(scheme):
    if scheme not in SCHEMES:
        raise ValueError("scheme must be one of %s, got %r" % (SCHEMES, scheme))


def _wavenumbers(n, spacing):
    return 2.0 * np.pi * np.fft.fftfreq(n, d=spacing)


def _derivative_symbol(k, order):
    return 1j * k if order == 1 else -(k ** 2)


def _free_phase_symbol(k, dt, mass):
    """exp(-i dt k^2 / 2m): one axis's factor of the free kinetic phase."""
    return np.exp(-1j * dt * ((k ** 2) / (2.0 * mass)))


@lru_cache(maxsize=16)
def _symbol_matrix(n, spacing, symbol, *params):
    """Read-only n x n real-space matrix of the Fourier symbol
    ``symbol(k, *params)`` on an axis of ``n`` points.

    Column j is the transform pair applied to the unit vector e_j, so the
    matrix applies the same operator as F^-1 diag(symbol) F. A run
    touches a few keys (derivative orders, one free phase per axis mass);
    the bound only stops a long-lived process that visits many grids
    from keeping every matrix.
    """
    k = _wavenumbers(n, spacing)
    matrix = np.fft.ifft(symbol(k, *params)[:, None] * np.fft.fft(np.eye(n), axis=0),
                         axis=0)
    matrix.flags.writeable = False
    return matrix


def _apply_along_axis(matrix, arr, axis):
    """``matrix`` applied to every 1-D line of ``arr`` along ``axis``."""
    shape = arr.shape
    n = shape[axis]
    axis %= arr.ndim
    if axis == arr.ndim - 1:
        return (arr.reshape(-1, n) @ matrix.T).reshape(shape)
    # (pre, n, post): the matrix multiplies every post-column block
    return (matrix @ arr.reshape(-1, n, math.prod(shape[axis + 1:]))).reshape(shape)


def _spectral_derivative(arr, axis, spacing, order):
    matrix = _symbol_matrix(arr.shape[axis], float(spacing), _derivative_symbol, order)
    return _apply_along_axis(matrix, arr, axis)


def _free_propagator(n, spacing, dt, mass):
    """Read-only unitary matrix of the free kinetic phase on one axis of
    ``n`` points, cached by (n, spacing, dt, mass)."""
    return _symbol_matrix(n, float(spacing), _free_phase_symbol, float(dt), float(mass))


def _stencil_derivative(arr, axis, spacing, order):
    """Centered periodic difference along one axis, in one fresh array.

    Order 1 is (a[i+1] - a[i-1]) / 2h and order 2 is
    ((a[i+1] - 2 a[i]) + a[i-1]) / h^2, in the order of the written
    formula, so the numbers are those of the ``np.roll`` form. In a
    C-ordered array the neighbours along ``axis`` sit ``step`` elements
    away in the flat order, so one pass of ``out=`` ufuncs over the flat
    arrays gets every point whose neighbours are inside the axis, with
    long contiguous loops on every axis; the first and last index along
    the axis are then rewritten from their periodic neighbours. Only an
    input that is not C-contiguous, or holds integers, is copied.
    """
    arr = np.ascontiguousarray(arr, dtype=np.result_type(arr, 1.0))
    axis %= arr.ndim
    n = arr.shape[axis]
    step = math.prod(arr.shape[axis + 1:])
    out = np.empty(arr.shape, dtype=arr.dtype)
    flat, flat_out = arr.reshape(-1), out.reshape(-1)

    def wrapped(i):
        # one index along the axis, periodic; an axis of length 1 (a
        # broadcast field) is its own neighbour
        return (slice(None),) * axis + (slice(i % n, i % n + 1),)

    # (output, a[i+1], a[i], a[i-1])
    for dst, up, mid, down in (
            (flat_out[step:-step], flat[2 * step:], flat[step:-step], flat[:-2 * step]),
            (out[wrapped(0)], arr[wrapped(1)], arr[wrapped(0)], arr[wrapped(-1)]),
            (out[wrapped(-1)], arr[wrapped(0)], arr[wrapped(-1)], arr[wrapped(-2)])):
        if order == 1:
            np.subtract(up, down, out=dst)
        else:
            # a + a is 2.0 * a exactly
            np.add(mid, mid, out=dst)
            np.subtract(up, dst, out=dst)
            np.add(dst, down, out=dst)
    scale = 2.0 * spacing if order == 1 else spacing * spacing
    if np.iscomplexobj(out):
        # NumPy divides a complex array by a real scalar as a product with
        # the reciprocal; the product on the real view gives the same
        # numbers (an exact zero may change sign) without the complex
        # division loop
        real = out.view(out.real.dtype)
        real *= 1.0 / scale
    else:
        out /= scale
    return out


def derivative1(arr, axis, spacing, scheme):
    """First derivative along one axis, periodic boundaries."""
    _check_scheme(scheme)
    if scheme == "stencil":
        return _stencil_derivative(arr, axis, spacing, 1)
    return _spectral_derivative(arr, axis, spacing, 1)


def derivative2(arr, axis, spacing, scheme):
    """Second derivative along one axis, periodic boundaries."""
    _check_scheme(scheme)
    if scheme == "stencil":
        return _stencil_derivative(arr, axis, spacing, 2)
    return _spectral_derivative(arr, axis, spacing, 2)


class IdentityOperator:
    def apply(self, amplitudes):
        return amplitudes


class DiagonalOperator:
    """Pointwise multiplication by a (broadcastable) value field."""

    def __init__(self, values):
        self.values = np.asarray(values)

    def apply(self, amplitudes):
        return self.values * amplitudes


class KineticOperator:
    """Sum over axes of -(1/2 m_axis) d^2/dx^2."""

    def __init__(self, basis: GridBasis, scheme="spectral"):
        _check_scheme(scheme)
        self.basis = basis
        self.scheme = scheme

    def apply(self, amplitudes):
        h = self.basis.grid.spacing
        out = np.zeros_like(amplitudes, dtype=np.complex128)
        for axis in range(self.basis.n_axes):
            d = derivative2(amplitudes, axis, h, self.scheme)
            d /= -2.0 * self.basis.axis_mass(axis)
            out += d
            # free it before the next axis allocates its own
            del d
        return out


class MomentumOperator:
    """Total momentum component: -i sum_particles d/dx_{p,dim}."""

    def __init__(self, basis: GridBasis, dim=0, scheme="spectral"):
        _check_scheme(scheme)
        if not 0 <= dim < basis.grid.dims:
            raise ValueError("dim %d out of range for %d-D grid" % (dim, basis.grid.dims))
        self.basis = basis
        self.dim = dim
        self.scheme = scheme

    def apply(self, amplitudes):
        h = self.basis.grid.spacing
        out = np.zeros_like(amplitudes, dtype=np.complex128)
        for p in range(len(self.basis.particles)):
            axis = self.basis.particle_axis(p, self.dim)
            out += derivative1(amplitudes, axis, h, self.scheme)
        out *= -1j
        return out


class AngularMomentumZOperator:
    """Total L_z = sum_particles -i (x d/dy - y d/dx). Needs dims >= 2."""

    def __init__(self, basis: GridBasis, scheme="spectral"):
        _check_scheme(scheme)
        if basis.grid.dims < 2:
            raise ValueError("angular momentum needs at least a 2-D grid")
        self.basis = basis
        self.scheme = scheme

    def apply(self, amplitudes):
        h = self.basis.grid.spacing
        out = np.zeros_like(amplitudes, dtype=np.complex128)
        for p in range(len(self.basis.particles)):
            ax_x = self.basis.particle_axis(p, 0)
            ax_y = self.basis.particle_axis(p, 1)
            x = self.basis.axis_coordinate(ax_x)
            y = self.basis.axis_coordinate(ax_y)
            d = derivative1(amplitudes, ax_y, h, self.scheme)
            d *= x
            out += d
            # free each derivative before the next one is allocated
            del d
            d = derivative1(amplitudes, ax_x, h, self.scheme)
            d *= y
            out -= d
            del d
        out *= -1j
        return out


# ---------------------------------------------------------------------------
# Pair potentials


@dataclass(frozen=True)
class SoftCoulomb:
    """V(r) = strength / sqrt(r^2 + softening^2).

    Positive strength is repulsive; negative is attractive with well
    depth |strength|/softening at contact.
    """

    strength: float
    softening: float

    def __post_init__(self):
        if not self.softening > 0:
            raise ValueError("softening must be positive")
        if self.strength == 0:
            raise ValueError("strength must be nonzero")

    @property
    def sign(self) -> int:
        return 1 if self.strength > 0 else -1

    def value_u(self, u):
        return self.strength / np.sqrt(u + self.softening ** 2)

    def dvalue_u(self, u):
        return -0.5 * self.strength * (u + self.softening ** 2) ** -1.5

    def d2value_u(self, u):
        return 0.75 * self.strength * (u + self.softening ** 2) ** -2.5

    def max_magnitude(self) -> float:
        return abs(self.strength) / self.softening


@dataclass(frozen=True)
class GaussianWell:
    """V(r) = strength * exp(-r^2 / (2 width^2)).

    Positive strength is a repulsive bump, negative an attractive well
    of depth |strength|.
    """

    strength: float
    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("width must be positive")
        if self.strength == 0:
            raise ValueError("strength must be nonzero")

    @property
    def sign(self) -> int:
        return 1 if self.strength > 0 else -1

    def value_u(self, u):
        return self.strength * np.exp(-u / (2.0 * self.width ** 2))

    def dvalue_u(self, u):
        return self.value_u(u) * (-0.5 / self.width ** 2)

    def d2value_u(self, u):
        return self.value_u(u) * (0.25 / self.width ** 4)

    def max_magnitude(self) -> float:
        return abs(self.strength)


@dataclass(frozen=True)
class InteractionPair:
    """A two-particle interaction: particle indices and the potential."""

    j: int
    k: int
    potential: SoftCoulomb | GaussianWell

    def __post_init__(self):
        if self.j == self.k:
            raise ValueError("an interaction pair needs two distinct particles")


def _frozen(arr: np.ndarray) -> np.ndarray:
    # geometry fields are shared by every step of a run; a consumer that
    # wrote into one would corrupt all later steps
    arr.flags.writeable = False
    return arr


class PairGeometry:
    """State-independent fields of one interaction pair on one grid basis.

    ``separation`` (minimum-image components of x_j - x_k, broadcastable)
    is computed at construction. ``values``, ``gradient`` and
    ``laplacian`` are derived from the squared separation length on
    first access and kept; ``u`` is that length, computed afresh on each
    access and not kept, so a geometry never holds it beside the fields
    derived from it. All kept fields are read-only. The geometry lives as
    long as its owner: a run keeps one per pair for its duration, nothing
    caches it beyond.
    """

    def __init__(self, basis: GridBasis, pair: InteractionPair):
        self.basis = basis
        self.pair = pair
        comps = []
        for d in range(basis.grid.dims):
            cj = basis.axis_coordinate(basis.particle_axis(pair.j, d))
            ck = basis.axis_coordinate(basis.particle_axis(pair.k, d))
            comps.append(_frozen(basis.wrap_separation(cj - ck)))
        self.separation = comps

    @property
    def u(self) -> np.ndarray:
        """Squared minimum-image separation |x_j - x_k|^2."""
        comps = self.separation
        u = comps[0] ** 2
        for c in comps[1:]:
            u = u + c ** 2
        return u

    @cached_property
    def values(self) -> np.ndarray:
        """Diagonal potential values over configuration space."""
        return _frozen(self.pair.potential.value_u(self.u))

    @cached_property
    def gradient(self) -> tuple[np.ndarray, ...]:
        """grad_j V, one field per spatial dimension; grad_k V = -grad_j V."""
        dv = self.pair.potential.dvalue_u(self.u)
        return tuple(_frozen(2.0 * c * dv) for c in self.separation)

    @cached_property
    def laplacian(self) -> np.ndarray:
        """lap V w.r.t. either particle: 2 D V'(u) + 4 u V''(u) in D dims."""
        u = self.u
        d = self.basis.grid.dims
        potential = self.pair.potential
        return _frozen(2.0 * d * potential.dvalue_u(u) + 4.0 * u * potential.d2value_u(u))


def kinetic_symbol(basis: GridBasis, scheme="spectral") -> np.ndarray:
    """Fourier-space eigenvalues of the kinetic operator, full shape.

    spectral: sum_axes k^2 / (2 m); stencil: sum_axes (1 - cos kh)/(m h^2),
    which is exactly the plane-wave symbol of the centered stencil.
    """
    _check_scheme(scheme)
    n = basis.grid.points_per_axis
    h = basis.grid.spacing
    k = _wavenumbers(n, h)
    total = np.zeros((1,) * basis.n_axes)
    for axis in range(basis.n_axes):
        m = basis.axis_mass(axis)
        shape = [1] * basis.n_axes
        shape[axis] = n
        if scheme == "spectral":
            term = (k ** 2) / (2.0 * m)
        else:
            term = (1.0 - np.cos(k * h)) / (m * h * h)
        total = total + term.reshape(shape)
    return total


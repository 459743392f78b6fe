"""Configuration-space states and branch bookkeeping.

Two state backends are supported:

* a periodic grid over the joint configuration space of all particles
  (``GridBasis``), with one axis per particle per spatial dimension and
  volume element ``h**n_axes``;
* a labeled finite basis (``FiniteBasis``) for few-level models, with
  unit weight per basis vector.

States are treated as immutable values: evolution and projection
functions return new ``HilbertState`` instances and never write into an
existing amplitude array.

``branch_split`` is the one split of a state into the branch that takes
part in an interaction and the branch that does not. Given a real
diagonal field V, it centres V on the state (V - <V>) and puts the
points where the centred field is strictly positive into the in-branch;
everything else, exact zeros included, is out. It returns the in-mask,
the in-branch weight and the centred field. The stepping loop splits
each new state by the centred collapse fields of the step that produced
it; recentring a centred field on the same state leaves the masks as
they are. The split and the collapse operators take <V> from one
helper, ``_density_mean``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParticleSpec",
    "GridSpec",
    "GridBasis",
    "FiniteBasis",
    "HilbertState",
    "norm",
    "normalize",
    "expectation",
    "masked_density_sum",
    "branch_split",
    "gaussian_packet",
    "finite_state",
]


@dataclass(frozen=True)
class ParticleSpec:
    """One particle: mass in simulation units, optional label."""

    mass: float
    label: str = ""

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError("particle mass must be positive, got %r" % (self.mass,))


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid, identical along every axis.

    Parameters
    ----------
    dims : int
        Spatial dimensions per particle (1 or 2).
    points_per_axis : int
        Grid points along each axis: a power of two, at least 8.
    extent : float
        Half-width of the box; coordinates run over [-extent, extent).
    """

    dims: int
    points_per_axis: int
    extent: float

    def __post_init__(self):
        if self.dims not in (1, 2):
            raise ValueError("dims must be 1 or 2, got %d" % self.dims)
        n = self.points_per_axis
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(
                "points_per_axis must be a power of two >= 8, got %d" % n)
        if not self.extent > 0:
            raise ValueError("extent must be positive, got %r" % (self.extent,))

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / self.points_per_axis

    def axis_points(self) -> np.ndarray:
        """Coordinates along one axis, [-extent, extent) with step h."""
        return -self.extent + self.spacing * np.arange(self.points_per_axis)


@dataclass(frozen=True)
class GridBasis:
    """Joint configuration-space grid for a tuple of particles."""

    grid: GridSpec
    particles: tuple[ParticleSpec, ...]

    def __post_init__(self):
        if len(self.particles) == 0:
            raise ValueError("at least one particle is required")
        object.__setattr__(self, "particles", tuple(self.particles))

    @property
    def n_axes(self) -> int:
        return self.grid.dims * len(self.particles)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.grid.points_per_axis,) * self.n_axes

    @property
    def weight(self) -> float:
        """Volume element of one grid cell."""
        return self.grid.spacing ** self.n_axes

    def particle_axis(self, particle: int, dim: int = 0) -> int:
        """Flat axis index of spatial component `dim` of `particle`."""
        if not 0 <= particle < len(self.particles):
            raise IndexError("particle index %d out of range" % particle)
        if not 0 <= dim < self.grid.dims:
            raise IndexError("dim %d out of range for %d-D grid" % (dim, self.grid.dims))
        return particle * self.grid.dims + dim

    def axis_coordinate(self, axis: int) -> np.ndarray:
        """Coordinate field along `axis`, shaped to broadcast over states."""
        if not 0 <= axis < self.n_axes:
            raise IndexError("axis %d out of range" % axis)
        shape = [1] * self.n_axes
        shape[axis] = self.grid.points_per_axis
        return self.grid.axis_points().reshape(shape)

    def wrap_separation(self, delta: np.ndarray) -> np.ndarray:
        """Minimum-image separation on the periodic box.

        Keeps pair quantities exactly invariant under shifting both
        particles by a whole number of grid cells.
        """
        span = 2.0 * self.grid.extent
        return (delta + self.grid.extent) % span - self.grid.extent

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(p.mass for p in self.particles)

    def axis_mass(self, axis: int) -> float:
        return self.particles[axis // self.grid.dims].mass


@dataclass(frozen=True)
class FiniteBasis:
    """Labeled finite basis; inner products carry unit weight."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 2:
            raise ValueError("finite basis needs at least two labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be unique")

    @property
    def shape(self) -> tuple[int, ...]:
        return (len(self.labels),)

    @property
    def weight(self) -> float:
        return 1.0


@dataclass(frozen=True)
class HilbertState:
    """Amplitudes over a basis.

    Amplitudes are stored in basis shape (the full configuration-space
    array for grids, a flat vector for finite bases) as complex128.
    """

    basis: GridBasis | FiniteBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != self.basis.shape:
            raise ValueError(
                "amplitude shape %s does not match basis shape %s"
                % (amp.shape, self.basis.shape))
        object.__setattr__(self, "amplitudes", amp)

    def with_amplitudes(self, amplitudes: np.ndarray) -> "HilbertState":
        return HilbertState(self.basis, amplitudes)

    def density(self) -> np.ndarray:
        """Pointwise probability density psi* psi (no volume weight)."""
        return (self.amplitudes.conj() * self.amplitudes).real


def norm(state: HilbertState) -> float:
    """L2 norm including the basis volume element."""
    amp = state.amplitudes
    return float(np.sqrt(np.vdot(amp, amp).real * state.basis.weight))


def normalize(state: HilbertState) -> HilbertState:
    n = norm(state)
    if n == 0.0 or not np.isfinite(n):
        raise ValueError("cannot normalize state with norm %r" % n)
    return state.with_amplitudes(state.amplitudes / n)


def expectation(op, state: HilbertState) -> complex:
    """<psi|Q|psi> / <psi|psi> for an operator with an ``apply`` method.

    The volume element cancels in the ratio, so slightly off-norm states
    (e.g. pre-renormalization steps) still get the correct expectation.
    """
    amp = state.amplitudes
    denom = np.vdot(amp, amp).real
    if denom == 0.0:
        raise ValueError("expectation of a zero state is undefined")
    return complex(np.vdot(amp, op.apply(amp)) / denom)


def masked_density_sum(state: HilbertState, mask: np.ndarray) -> float:
    """Integrated density over a region, normalized by the total."""
    dens = state.density()
    total = dens.sum() * state.basis.weight
    if total == 0.0:
        raise ValueError("zero state has no branch weights")
    part = (dens * mask).sum() * state.basis.weight
    return float(part / total)


def _density_mean(state: HilbertState, values):
    """``(density, total, mean)`` of ``state``: its pointwise density, the
    density's integral, and the density-weighted mean <values> of a real
    diagonal field broadcastable against the amplitudes."""
    dens = state.density()
    total = dens.sum() * state.basis.weight
    if total == 0.0:
        raise ValueError("zero state has no density-weighted mean")
    return dens, total, float((dens * values).sum() * state.basis.weight / total)


def branch_split(state: HilbertState, values):
    """``(in_mask, weight_in, centered)`` of ``state`` split by the sign
    of ``values - <values>`` (see the module docstring).

    ``values`` is a real diagonal field broadcastable against the
    amplitudes; the out-branch weight is ``1 - weight_in``.
    """
    dens, total, mean = _density_mean(state, values)
    centered = values - mean
    in_mask = centered > 0.0
    return in_mask, float((dens * in_mask).sum() * state.basis.weight / total), centered


def gaussian_packet(basis: GridBasis, centers, widths, momenta=None) -> HilbertState:
    """Product Gaussian wave packet, analytically normalized.

    Per axis: (2 pi s^2)^(-1/4) exp(-(x-c)^2/(4 s^2) + i k x), so the
    density along each axis has standard deviation ``s``. Discretization
    leaves the grid norm within O(h^2) quadrature error of 1; call
    ``normalize`` if exact unit norm is required.

    Parameters are sequences over axes (length ``basis.n_axes``).
    """
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    if momenta is None:
        momenta = np.zeros(basis.n_axes)
    momenta = np.atleast_1d(np.asarray(momenta, dtype=float))
    for name, arr in (("centers", centers), ("widths", widths), ("momenta", momenta)):
        if arr.shape != (basis.n_axes,):
            raise ValueError("%s must have one entry per axis (%d), got shape %s"
                             % (name, basis.n_axes, arr.shape))
    if np.any(widths <= 0):
        raise ValueError("widths must be positive")

    amp = np.ones(basis.shape, dtype=np.complex128)
    for axis in range(basis.n_axes):
        x = basis.axis_coordinate(axis)
        s, c, k = widths[axis], centers[axis], momenta[axis]
        profile = (2.0 * np.pi * s * s) ** (-0.25) * np.exp(
            -((x - c) ** 2) / (4.0 * s * s) + 1j * k * x)
        amp = amp * profile
    return HilbertState(basis, amp)


def finite_state(basis: FiniteBasis, amplitudes) -> HilbertState:
    return HilbertState(basis, np.asarray(amplitudes, dtype=np.complex128))

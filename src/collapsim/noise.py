"""Seeded Wiener increments for the stochastic sub-step.

One process drives a whole trajectory: every interaction pair sees the
same increment within a step, which is what lets opposing branch
shifts cancel exactly.

Default increments are complex circular,
dxi = (dW1 + i dW2)/sqrt(2), so E[dxi] = 0, E[dxi* dxi] = dt and
E[dxi^2] = 0. The ``real_noise`` variant uses dxi = dW, which keeps
E[dxi* dxi] = dt but has E[dxi^2] = dt.

Draw order contract: each complex increment consumes exactly two
standard normals (dW1 then dW2), each real increment one, so a batch
of n increments reproduces n sequential calls bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WienerProcess"]


class WienerProcess:
    def __init__(self, seed: int, real_noise: bool = False):
        self.seed = int(seed)
        self.real_noise = bool(real_noise)
        # seeded with (seed, 0), not seed alone, to keep the existing draws
        self._rng = np.random.default_rng((self.seed, 0))

    def increment(self, dt: float) -> complex:
        if self.real_noise:
            return complex(self._rng.standard_normal() * np.sqrt(dt))
        z = self._rng.standard_normal(2)
        return complex(z[0], z[1]) * np.sqrt(dt / 2.0)

    def increments(self, dt: float, n: int) -> np.ndarray:
        """Batch of n increments, identical stream to n single draws."""
        if self.real_noise:
            return self._rng.standard_normal(n) * np.sqrt(dt)
        z = self._rng.standard_normal((n, 2))
        return (z[:, 0] + 1j * z[:, 1]) * np.sqrt(dt / 2.0)

"""Sequential random streams for the tests and their oracles.

The package draws only counter windows (see :mod:`nomacast.rng`).
Draws outside the Monte Carlo engine -- test inputs and the channel-matrix
oracle -- come from :class:`RngStream`, one independent Philox stream per
``(seed, stream_id)`` pair; standard normals come from :func:`bits_to_normal`
and exponentials from :func:`bits_to_exponential`.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from nomacast.rng import _key, bits_to_uniform


def bits_to_exponential(bits: np.ndarray) -> np.ndarray:
    """Unit-mean exponentials via inversion (one word per value)."""
    return -np.log(bits_to_uniform(bits))


def bits_to_normal(bits: np.ndarray) -> np.ndarray:
    """Standard normals via the inverse CDF (one word per value)."""
    return ndtri(bits_to_uniform(bits))


class RngStream:
    """A self-contained random stream addressed by ``(seed, stream_id)``.

    The same pair yields the same sample sequence on every platform and
    regardless of thread count; distinct stream ids give statistically
    independent streams.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not 0 <= value < 1 << 64:
                raise ValueError(f"{name} must be in [0, 2**64), got {value}")
        self._bg = Philox(key=_key(self.seed, self.stream_id))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def spawn(self, stream_id: int) -> "RngStream":
        """Fresh stream with the same seed and a different substream id."""
        return RngStream(self.seed, stream_id)

    def raw(self, n: int) -> np.ndarray:
        return self._bg.random_raw(n)

    def _draw(self, size, transform) -> np.ndarray:
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        out = transform(self.raw(n))
        return out.reshape(shape) if shape else out[0]

    def uniform(self, size=()) -> np.ndarray:
        return self._draw(size, bits_to_uniform)

    def normal(self, size=()) -> np.ndarray:
        return self._draw(size, bits_to_normal)

    def exponential(self, size=()) -> np.ndarray:
        return self._draw(size, bits_to_exponential)

"""Random streams for the tests and their oracles, defined word by word.

The package draws its counter windows in place (see :mod:`nomacast.rng`).
:func:`window_bits` is the definition of that stream: the raw words of a
window range, which :func:`bits_to_uniform` maps to doubles in (0, 1), as
``rng.fill_uniform`` must, bit for bit.  Draws outside the Monte Carlo
engine -- test inputs and the channel-matrix oracle -- come from
:class:`RngStream`, one independent Philox stream per ``(seed, stream_id)``
pair; standard normals come from :func:`bits_to_normal` and exponentials
from :func:`bits_to_exponential`.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from nomacast.rng import _key, window_generator

_SHIFT11 = np.uint64(11)


def bits_to_uniform(bits: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to doubles in the open interval (0, 1): the top 2^11
    words, which round to 1.0, give the largest double below 1."""
    u = ((bits >> _SHIFT11).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def window_bits(seed: int, domain: int, first: int, count: int, width: int) -> np.ndarray:
    """Raw words of windows ``[first, first + count)``, shape ``(count, width)``:
    row ``i`` depends only on ``(seed, domain, first + i, width)``."""
    if width < 1 or count < 0:
        raise ValueError("width must be >= 1 and count >= 0")
    padded = -(-width // 4) * 4
    gen = window_generator(seed, domain, first, width)
    return gen.bit_generator.random_raw(count * padded).reshape(count, padded)[:, :width]


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

"""Reproducible random streams built on the counter-based Philox generator.

Two layouts share the same generator family:

* :class:`RngStream` gives an independent stream per ``(seed, stream_id)``
  pair, used by the single-realization sampling API.
* :func:`window_bits` carves one keyed stream into fixed-width counter
  windows, one window per Monte Carlo realization.  Realization ``i``
  always consumes the same counter range, so any chunking of a run across
  processes reproduces bit-identical values.

Every float transform consumes exactly one 64-bit word per output value,
which keeps the per-realization consumption fixed and the windows aligned.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
_SHIFT11 = np.uint64(11)

# Key domains for the Monte Carlo window streams.  Kept far away from the
# small stream ids typically used with RngStream so the two layouts never
# share a Philox key for the same seed.  DOMAIN_DIRECT_GAINS serves
# unscheduled MRT runs, DOMAIN_GAINS every other plan; (1 << 32) + 1 keys
# the tests' channel-matrix oracle, which must stay independent of both.
DOMAIN_DIRECT_GAINS = 1 << 32
DOMAIN_GAINS = (1 << 32) + 2


def bits_to_uniform(bits: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to doubles in the open interval (0, 1)."""
    return ((bits >> _SHIFT11).astype(np.float64) + 0.5) * 2.0**-53


def bits_to_normal(bits: np.ndarray) -> np.ndarray:
    """Standard normals via the inverse CDF (one word per value)."""
    return ndtri(bits_to_uniform(bits))


def bits_to_exponential(bits: np.ndarray) -> np.ndarray:
    """Unit-mean exponentials via inversion (one word per value)."""
    return -np.log(bits_to_uniform(bits))


def window_bits(seed: int, domain: int, first: int, count: int, width: int) -> np.ndarray:
    """Raw words for ``count`` consecutive substreams of ``width`` values.

    Substream ``first + i`` occupies Philox counter blocks
    ``[(first + i) * ceil(width / 4), ...)`` under the key ``(seed, domain)``.
    The returned array has shape ``(count, width)`` and row ``i`` depends
    only on ``(seed, domain, first + i, width)``.
    """
    if width < 1 or count < 0:
        raise ValueError("width must be >= 1 and count >= 0")
    blocks = -(-width // 4)
    bg = Philox(counter=first * blocks, key=[seed & _MASK64, domain & _MASK64])
    raw = bg.random_raw(count * blocks * 4)
    return raw.reshape(count, blocks * 4)[:, :width]


class RngStream:
    """A self-contained random stream addressed by ``(seed, stream_id)``.

    The same pair yields the same sample sequence on every platform and
    regardless of thread count; distinct stream ids give statistically
    independent streams.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._bg = Philox(key=[self.seed & _MASK64, self.stream_id & _MASK64])

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

    def complex_normal(self, size=()) -> np.ndarray:
        """Circularly-symmetric complex Gaussians, unit variance per entry.

        Real and imaginary parts are interleaved in consumption order and
        carry variance 1/2 each.
        """
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        g = bits_to_normal(self.raw(2 * n))
        z = (g[0::2] + 1j * g[1::2]) / np.sqrt(2.0)
        return z.reshape(shape) if shape else z[0]

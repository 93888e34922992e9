"""Reproducible random windows built on the counter-based Philox generator.

:func:`window_bits` carves one keyed stream into fixed-width counter
windows, one window per Monte Carlo realization.  Realization ``i`` always
consumes the same counter range, so any chunking of a run across processes
reproduces bit-identical values.

Every float transform consumes exactly one 64-bit word per output value,
which keeps the per-realization consumption fixed and the windows aligned.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox

_MASK64 = (1 << 64) - 1
_SHIFT11 = np.uint64(11)

# Key domains for the Monte Carlo window streams, kept far away from small
# stream ids.  DOMAIN_GAIN_STATS serves unscheduled MRT runs, DOMAIN_GAINS
# every other plan.  1 << 32 keyed the retired M + K - 1 exponential layout
# of unscheduled MRT runs and (1 << 32) + 1 keys the tests' channel-matrix
# oracle; neither is reused, so the engine's draws stay independent of both.
DOMAIN_GAINS = (1 << 32) + 2
DOMAIN_GAIN_STATS = (1 << 32) + 3


def _key(seed: int, word: int) -> np.ndarray:
    """Philox key as an explicit uint64 array: numpy turns a list holding an
    int >= 2**63 into float64, which merges neighbouring keys."""
    return np.array([seed & _MASK64, word & _MASK64], dtype=np.uint64)


def bits_to_uniform(bits: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to doubles in the open interval (0, 1): the top 2^11
    words, which round to 1.0, give the largest double below 1."""
    u = ((bits >> _SHIFT11).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


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
    bg = Philox(counter=first * blocks, key=_key(seed, domain))
    raw = bg.random_raw(count * blocks * 4)
    return raw.reshape(count, blocks * 4)[:, :width]

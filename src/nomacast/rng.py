"""Reproducible random windows built on the counter-based Philox generator.

:func:`window_bits` carves one keyed stream into fixed-width counter
windows, one window per Monte Carlo realization, and :func:`bits_to_uniform`
maps each word to a double in (0, 1).  Realization ``i`` always consumes the
same counter range, so any chunking of a run reproduces bit-identical values.
The engine draws the same uniforms in place (:func:`fill_uniform`).
"""

from __future__ import annotations

import numpy as np

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


def window_bits(seed: int, domain: int, first: int, count: int, width: int) -> np.ndarray:
    """Raw words of windows ``[first, first + count)``, shape ``(count, width)``:
    row ``i`` depends only on ``(seed, domain, first + i, width)``."""
    if width < 1 or count < 0:
        raise ValueError("width must be >= 1 and count >= 0")
    padded = -(-width // 4) * 4
    gen = window_generator(seed, domain, first, width)
    return gen.bit_generator.random_raw(count * padded).reshape(count, padded)[:, :width]


def window_generator(seed: int, domain: int, first: int, width: int) -> np.random.Generator:
    """A generator at window ``first`` of width ``width``: window ``i`` occupies
    Philox counter blocks ``[i * ceil(width / 4), ...)`` under the key
    ``(seed, domain)``, and the windows follow each other in the stream.
    numpy.random is reached only here, so it loads on the first draw."""
    return np.random.Generator(np.random.Philox(counter=first * -(-width // 4),
                                                key=_key(seed, domain)))


def fill_uniform(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous float64 ``out`` with bits_to_uniform of the next
    ``out.size`` words b of ``gen``: random() gives (b >> 11) 2^-53 exactly,
    and adding 2^-54 rounds as adding 1/2 does before that power-of-two scale."""
    gen.random(out=out)
    np.add(out, 2.0**-54, out=out)
    return np.minimum(out, 1.0 - 2.0**-53, out=out)

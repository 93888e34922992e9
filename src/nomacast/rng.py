"""Reproducible random windows built on the counter-based Philox generator.

One keyed stream is carved into fixed-width counter windows, one window per
Monte Carlo realization (:func:`window_generator`), and :func:`fill_uniform`
maps each word to a double in (0, 1).  Realization ``i`` always consumes the
same counter range, so any chunking of a run reproduces bit-identical values.
The tests keep the word-level definition of the same stream
(``tests/rng_stream.py``: ``window_bits`` and ``bits_to_uniform``).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Key domains of the Monte Carlo window streams (montecarlo.gain_law picks one per
# run), far from small stream ids.  1 << 32 keyed the retired M + K - 1 layout
# and (1 << 32) + 1 keys the tests' oracle; neither is reused.
DOMAIN_GAINS = (1 << 32) + 2
DOMAIN_GAIN_STATS = (1 << 32) + 3
DOMAIN_SPLIT = (1 << 32) + 4


def _key(seed: int, word: int) -> np.ndarray:
    """Philox key as an explicit uint64 array: numpy turns a list holding an
    int >= 2**63 into float64, which merges neighbouring keys."""
    return np.array([seed & _MASK64, word & _MASK64], dtype=np.uint64)


def window_generator(seed: int, domain: int, first: int, width: int) -> np.random.Generator:
    """A generator at window ``first`` of width ``width``: window ``i`` occupies
    Philox counter blocks ``[i * ceil(width / 4), ...)`` under the key
    ``(seed, domain)``, and the windows follow each other in the stream.
    numpy.random is reached only here, so it loads on the first draw."""
    return np.random.Generator(np.random.Philox(counter=first * -(-width // 4),
                                                key=_key(seed, domain)))


def fill_uniform(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous float64 ``out`` with min(((b >> 11) + 1/2) 2^-53, 1 - 2^-53)
    of the next ``out.size`` words b of ``gen``: random() gives (b >> 11) 2^-53 exactly,
    and adding 2^-54 rounds as adding 1/2 does before that power-of-two scale."""
    gen.random(out=out)
    np.add(out, 2.0**-54, out=out)
    return np.minimum(out, 1.0 - 2.0**-53, out=out)

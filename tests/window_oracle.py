"""The Monte Carlo gains computed the plain way, from the raw window words.

:func:`window_gains` draws a window range with ``window_bits``, the stream's
definition in ``rng_stream``, maps it with ``bits_to_uniform`` and
``bits_to_exponential`` and assembles the six gains with whole-array
operations.  The engine draws the same uniforms in place, a block at a time
(``nomacast.montecarlo._sample_gains``); the two must agree bit for bit.
The oracle keeps its own key domain and width of each of the five laws
(``LAYOUTS``); the tests check that ``nomacast.montecarlo.gain_law`` gives
the same, and ``nomacast.montecarlo._block_gains`` describes each law.

:func:`sample_gains` is the engine's sampler over a whole window range, as
one block, and :func:`law_of` builds the law value it takes.
"""

from __future__ import annotations

import numpy as np

from nomacast.montecarlo import _sample_gains
from nomacast.rng import DOMAIN_GAIN_STATS, DOMAIN_GAINS, DOMAIN_SPLIT
from rng_stream import bits_to_exponential, bits_to_uniform, window_bits

# law name -> (key domain, words per window) at (m, k)
LAYOUTS = {
    "mrt": lambda m, k: (DOMAIN_GAIN_STATS, m + 2),
    "split": lambda m, k: (DOMAIN_SPLIT, m + 5),
    "joint": lambda m, k: (DOMAIN_GAINS, m + 3 * (k - 1)),
    "scheduled": lambda m, k: (DOMAIN_GAINS, k * m),
    "scheduled_joint": lambda m, k: (DOMAIN_GAINS, k * m + k),
}


def law_of(name: str, m: int, k: int) -> tuple:
    """The law value (name, key domain, words per window) of the named law."""
    return (name, *LAYOUTS[name](m, k))


def sample_gains(m: int, k: int, law, seed: int, first: int, n: int) -> np.ndarray:
    """The engine's (z1, u, v, z1_oma, u_oma, v_oma) for windows [first, first + n)
    of ``law``, as the rows of one (6, n) array."""
    return next(_sample_gains(m, k, law, seed, first, n, max(n, 1)), np.empty((6, 0)))


def _min_max(others):
    cols = np.ascontiguousarray(others.T)
    return cols.min(axis=0), cols.max(axis=0)


def _renyi_triple(bits, m: int, k: int):
    """(z1, u, v) of one beam from the m + 2 words of each row of ``bits``."""
    uni = bits_to_uniform(bits[:, :m])
    z1 = -np.log(uni[:, :18].prod(axis=1))
    for i in range(18, m, 18):
        z1 -= np.log(uni[:, i:i + 18].prod(axis=1))
    u = bits_to_exponential(bits[:, m]) / (k - 1)
    if k == 2:
        return z1, u, u
    w = bits_to_uniform(bits[:, m + 1]) ** (1.0 / (k - 2))
    return z1, u, u - np.log1p(-np.minimum(w, 1.0 - 2.0**-53))


def window_gains(m: int, k: int, law, seed: int, first: int, n: int):
    """(z1, u, v, z1_oma, u_oma, v_oma) for windows [first, first + n) of the law
    named ``law[0]``, at the oracle's own domain and width; the split law takes
    the MRT triple from the first m + 2 words, the OMA triple as M = 1 from the
    last 3."""
    name = law[0]
    domain, width = LAYOUTS[name](m, k)
    bits = window_bits(seed, domain, first, n, width)
    if name == "split":
        return _renyi_triple(bits[:, :m + 2], m, k) + _renyi_triple(bits[:, m + 2:], 1, k)
    if name == "mrt":
        return _renyi_triple(bits, m, k) * 2
    if name != "joint":
        e = bits_to_exponential(bits[:, :k * m]).reshape(n, m, k)
        norms = np.einsum("rmk->rk", e)
        sel = np.arange(k) == norms.argmax(axis=1)[:, None]
        z1, a_sel = norms[sel], e[:, 0][sel]
        others = e[:, 0][~sel].reshape(n, k - 1)
        if name == "scheduled":
            u, v = _min_max(others)
            return z1, u, v, z1, u, v
        b = e[:, 1][~sel].reshape(n, k - 1)
        phase = bits_to_uniform(bits[:, k * m:][~sel]).reshape(n, k - 1)
    else:
        e = bits_to_exponential(bits[:, :m + 2 * (k - 1)])
        z1, a_sel = e[:, :m].sum(axis=1), e[:, 0]
        others, b = e[:, m:m + k - 1], e[:, m + k - 1:]
        phase = bits_to_uniform(bits[:, m + 2 * (k - 1):])
    c2 = (a_sel / z1)[:, None]
    x, y = np.sqrt(c2 * others), np.sqrt((1.0 - c2) * b)
    others_oma = x * x + y * y + 2.0 * x * y * np.cos(2.0 * np.pi * phase)
    return (z1, *_min_max(others), a_sel, *_min_max(others_oma))

"""The Monte Carlo gains computed the plain way, from the raw window words.

:func:`window_gains` draws a window range with ``window_bits``, the stream's
definition in ``rng_stream``, maps it with ``bits_to_uniform`` and
``bits_to_exponential`` and assembles the six gains with whole-array
operations.  The engine draws the same uniforms in place, a block at a time
(``nomacast.montecarlo._sample_gains``); the two must agree bit for bit.
The law behind each window layout, the split one (``split``) included, is
described in ``nomacast.montecarlo._block_gains``.

:func:`sample_gains` is the engine's sampler over a whole window range, as
one block.
"""

from __future__ import annotations

import numpy as np

from nomacast.montecarlo import MRT, _sample_gains
from nomacast.rng import DOMAIN_GAIN_STATS, DOMAIN_GAINS, DOMAIN_SPLIT
from rng_stream import bits_to_exponential, bits_to_uniform, window_bits


def sample_gains(m: int, k: int, plan, first: int, n: int, split=False) -> np.ndarray:
    """The engine's (z1, u, v, z1_oma, u_oma, v_oma) for windows [first, first + n),
    as the rows of one (6, n) array."""
    return next(_sample_gains(m, k, plan, first, n, max(n, 1), split), np.empty((6, 0)))


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


def window_gains(m: int, k: int, plan, first: int, n: int, split=False):
    """(z1, u, v, z1_oma, u_oma, v_oma) for windows [first, first + n); ``split``
    takes the m + 5 word layout: the MRT triple from the first m + 2 words,
    the OMA triple as M = 1 from the last 3."""
    mrt = plan.oma_beamformer == MRT or m == 1
    if split:
        bits = window_bits(plan.seed, DOMAIN_SPLIT, first, n, m + 5)
        return _renyi_triple(bits[:, :m + 2], m, k) + _renyi_triple(bits[:, m + 2:], 1, k)
    if not plan.scheduling and mrt:
        return _renyi_triple(window_bits(plan.seed, DOMAIN_GAIN_STATS, first, n, m + 2),
                             m, k) * 2
    if plan.scheduling:
        bits = window_bits(plan.seed, DOMAIN_GAINS, first, n, k * m + (0 if mrt else k))
        e = bits_to_exponential(bits[:, :k * m]).reshape(n, m, k)
        norms = np.einsum("rmk->rk", e)
        sel = np.arange(k) == norms.argmax(axis=1)[:, None]
        z1, a_sel = norms[sel], e[:, 0][sel]
        others = e[:, 0][~sel].reshape(n, k - 1)
        if mrt:
            u, v = _min_max(others)
            return z1, u, v, z1, u, v
        b = e[:, 1][~sel].reshape(n, k - 1)
        phase = bits_to_uniform(bits[:, k * m:][~sel]).reshape(n, k - 1)
    else:
        bits = window_bits(plan.seed, DOMAIN_GAINS, first, n, m + 3 * (k - 1))
        e = bits_to_exponential(bits[:, :m + 2 * (k - 1)])
        z1, a_sel = e[:, :m].sum(axis=1), e[:, 0]
        others, b = e[:, m:m + k - 1], e[:, m + k - 1:]
        phase = bits_to_uniform(bits[:, m + 2 * (k - 1):])
    c2 = (a_sel / z1)[:, None]
    x, y = np.sqrt(c2 * others), np.sqrt((1.0 - c2) * b)
    others_oma = x * x + y * y + 2.0 * x * y * np.cos(2.0 * np.pi * phase)
    return (z1, *_min_max(others), a_sel, *_min_max(others_oma))

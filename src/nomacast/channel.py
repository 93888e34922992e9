"""Beamformer kinds and the effective scalar gains of one realization.

A realization is a K x M complex matrix H (rows are users' channel
vectors, H[k] ~ CN(0, I_M)).  All rate formulas downstream depend on the
channel only through the effective gains

    z_k = |h_k . w|^2

for a unit-norm beamformer w.  With maximum ratio transmission toward the
unicast user, z_1 equals that user's squared channel norm, is
Gamma(M, 1)-distributed, and every other gain is Exp(1).

Nothing here builds H.  The Monte Carlo engine draws the gains of every
plan, with or without scheduling and for any OMA beamformer, from their
exact joint law (see :mod:`nomacast.montecarlo`); the channel-matrix model
itself lives on as the test oracle in ``tests/full_matrix_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream, bits_to_exponential

MRT = "mrt"
EQUAL_GAIN = "equal"
RANDOM = "random"
BEAMFORMER_KINDS = (MRT, EQUAL_GAIN, RANDOM)


@dataclass(frozen=True)
class EffectiveGains:
    """Scalar gains of one realization.

    z1 is the unicast user's gain; ``others`` holds the K-1 remaining
    users' gains, with u and v their min and max.
    """

    z1: float
    others: np.ndarray
    u: float
    v: float


def _gains(z1: float, others: np.ndarray) -> EffectiveGains:
    others = np.asarray(others, dtype=np.float64)
    return EffectiveGains(float(z1), others, float(others.min()), float(others.max()))


def sample_gains_direct(k_users: int, m_antennas: int, rng: RngStream) -> EffectiveGains:
    """Draw effective gains without materializing the channel matrix.

    Valid only for MRT toward the unicast user with no scheduling: z1 is a
    sum of M unit-mean exponentials (Gamma(M, 1)) and the other K-1 gains
    are i.i.d. Exp(1).
    """
    if k_users < 2:
        raise ValueError(f"need at least 2 users, got {k_users}")
    if m_antennas < 1:
        raise ValueError(f"need at least 1 antenna, got {m_antennas}")
    e = bits_to_exponential(rng.raw(m_antennas + k_users - 1))
    return _gains(e[:m_antennas].sum(), e[m_antennas:])

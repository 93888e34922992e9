"""Channel-matrix model: the oracle for the Monte Carlo gain sampler.

The package itself never builds a channel matrix.  This module keeps that
model for the tests: the single-realization API (sample a K x M Rayleigh
channel, build a beamformer, project the rows onto it, schedule the
strongest user) and ``full_matrix_gains``, its batched form, which returns
the same four gain arrays as ``nomacast.montecarlo._sample_gains`` from its
own Philox key domain, so its samples are independent of the engine's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from link_oracle import Gains, gains
from nomacast.montecarlo import EQUAL_GAIN, MRT, RANDOM
from nomacast.rng import RngStream, bits_to_normal, window_bits

DOMAIN_FULL_MATRIX = (1 << 32) + 1
_CHUNK = 1 << 14  # keeps the complex channel arrays small


@dataclass(frozen=True)
class Beamformer:
    """Unit-norm transmit weight vector.

    ``target`` records which user an MRT beamformer was matched to, so the
    gain computation can take the exact squared-norm shortcut for that row.
    """

    weights: np.ndarray
    kind: str
    target: int | None = None


def channels_from_normals(g: np.ndarray, k_users: int, m_antennas: int) -> np.ndarray:
    """Assemble CN(0, I) channel matrices from interleaved standard normals.

    ``g`` has ``2*K*M`` values per realization along the last axis
    (re/im interleaved, row-major over users then antennas).
    """
    z = (g[..., 0::2] + 1j * g[..., 1::2]) / np.sqrt(2.0)
    return z.reshape(*g.shape[:-1], k_users, m_antennas)


def sample_channel(k_users: int, m_antennas: int, rng: RngStream) -> np.ndarray:
    """One K x M channel draw with i.i.d. CN(0, 1) entries.

    Each entry has unit variance per complex coefficient (1/2 per real
    component), so E|h_k|^2 = M.
    """
    if k_users < 2:
        raise ValueError(f"need at least 2 users, got {k_users}")
    if m_antennas < 1:
        raise ValueError(f"need at least 1 antenna, got {m_antennas}")
    g = bits_to_normal(rng.raw(2 * k_users * m_antennas))
    return channels_from_normals(g, k_users, m_antennas)


def make_beamformer(h: np.ndarray, unicast_index: int, kind: str = MRT,
                    rng: RngStream | None = None) -> Beamformer:
    """Build a unit-norm beamformer for the given channel realization.

    MRT matches the unicast user's row (conjugate over its norm), EQUAL_GAIN
    is the uniform vector, RANDOM is isotropic on the complex unit sphere.
    """
    h = np.asarray(h)
    k_users, m_antennas = h.shape
    if not 0 <= unicast_index < k_users:
        raise ValueError(f"unicast index {unicast_index} out of range for K={k_users}")
    if kind == MRT:
        row = h[unicast_index]
        norm = np.linalg.norm(row)
        if norm == 0.0:
            raise ValueError("degenerate channel: MRT requested for an all-zero row")
        return Beamformer(row.conj() / norm, MRT, unicast_index)
    if kind == EQUAL_GAIN:
        w = np.full(m_antennas, 1.0 / np.sqrt(m_antennas), dtype=np.complex128)
        return Beamformer(w, EQUAL_GAIN)
    if kind == RANDOM:
        if rng is None:
            raise ValueError("random beamformer needs an RngStream")
        g = bits_to_normal(rng.raw(2 * m_antennas))
        w = g[0::2] + 1j * g[1::2]
        return Beamformer(w / np.linalg.norm(w), RANDOM)
    raise ValueError(f"unknown beamformer kind {kind!r}")


def effective_gains(h: np.ndarray, w: Beamformer, unicast_index: int) -> Gains:
    """Project the channel rows onto the beamformer: z_k = |h_k . w|^2.

    For an MRT beamformer matched to ``unicast_index`` the unicast gain is
    returned as the exact squared row norm.
    """
    h = np.asarray(h)
    weights = np.asarray(w.weights)
    if h.shape[1] != weights.shape[0]:
        raise ValueError(f"dimension mismatch: H is {h.shape}, w has {weights.shape[0]} weights")
    z = np.abs(h @ weights) ** 2
    if w.kind == MRT and w.target == unicast_index:
        z1 = float((h[unicast_index].real ** 2 + h[unicast_index].imag ** 2).sum())
    else:
        z1 = float(z[unicast_index])
    others = np.delete(z, unicast_index)
    return gains(z1, others)


def select_unicast_user(h: np.ndarray) -> int:
    """Index of the user with the largest squared channel norm.

    Ties break toward the lowest index.  Scheduling the strongest user for
    unicasting guarantees z1 >= u for every realization (the projection of
    any other row cannot exceed that row's norm, which in turn cannot
    exceed the selected row's norm).
    """
    h = np.asarray(h)
    if h.shape[0] < 2:
        raise ValueError("need at least 2 users to schedule")
    norms = (h.real**2 + h.imag**2).sum(axis=1)
    return int(np.argmax(norms))


def _chunk_gains(m, k, scheduling, oma_beamformer, seed, first, n):
    width = 2 * k * m + (2 * m if oma_beamformer == RANDOM else 0)
    bits = window_bits(seed, DOMAIN_FULL_MATRIX, first, n, width)
    h = channels_from_normals(bits_to_normal(bits[:, :2 * k * m]), k, m)
    norms = (h.real**2 + h.imag**2).sum(axis=2)
    rows = np.arange(n)
    sel = norms.argmax(axis=1) if scheduling else np.zeros(n, dtype=np.intp)
    z1 = norms[rows, sel]
    proj = np.abs(np.einsum("rkm,rm->rk", h, h[rows, sel].conj())) ** 2 / z1[:, None]
    keep = np.ones((n, k), dtype=bool)
    keep[rows, sel] = False
    others = proj[keep].reshape(n, k - 1)
    if oma_beamformer == MRT:
        return z1, others, z1, others
    if oma_beamformer == EQUAL_GAIN:
        p_bf = np.full((n, m), 1.0 / math.sqrt(m), dtype=np.complex128)
    else:
        gp = bits_to_normal(bits[:, 2 * k * m:])
        p_bf = gp[:, 0::2] + 1j * gp[:, 1::2]
        p_bf /= np.linalg.norm(p_bf, axis=1, keepdims=True)
    proj_o = np.abs(np.einsum("rkm,rm->rk", h, p_bf)) ** 2
    return z1, others, proj_o[rows, sel], proj_o[keep].reshape(n, k - 1)


def full_matrix_gains(m, k, scheduling, oma_beamformer, seed, n):
    """(z1, others, z1_oma, others_oma) of realizations 0..n-1."""
    parts = [_chunk_gains(m, k, scheduling, oma_beamformer, seed, lo,
                          min(_CHUNK, n - lo))
             for lo in range(0, n, _CHUNK)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))

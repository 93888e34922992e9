"""Seeded, chunked Monte Carlo estimation of every link metric.

Realization ``i`` of a run always draws from counter window ``base + i``
(see :mod:`nomacast.rng`), so the estimate is bit-identical for any chunking
of the index range and any worker count.  Chunks are reduced to running
moments and combined in index order; workers only parallelize chunk
evaluation.

Every plan draws the effective gains from their exact joint law, without
building a channel matrix (see :func:`_sample_gains`).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import transmission as tx
from .rng import (DOMAIN_DIRECT_GAINS, DOMAIN_GAINS, bits_to_exponential,
                  bits_to_uniform, window_bits)
from .transmission import RATE_EQ_GUARD, LinkConfig

_CHUNK = 1 << 16
_Z95 = 1.959963984540054

# OMA beamformer kinds: maximum ratio transmission toward the unicast user,
# the uniform (equal-gain) vector, or an isotropic random unit vector.
MRT = "mrt"
EQUAL_GAIN = "equal"
RANDOM = "random"
BEAMFORMER_KINDS = (MRT, EQUAL_GAIN, RANDOM)


class MetricKind(Enum):
    MULTICAST_OUTAGE = "multicast_outage"
    UNICAST_OUTAGE = "unicast_outage"
    UNICAST_OUTAGE_OMA = "unicast_outage_oma"
    SECRECY_OUTAGE = "secrecy_outage"
    SECRECY_OUTAGE_OMA = "secrecy_outage_oma"
    NOMA_TRAILS_OMA = "noma_trails_oma"
    MEAN_NOMA_UNICAST_RATE = "mean_noma_unicast_rate"
    MEAN_OMA_UNICAST_RATE = "mean_oma_unicast_rate"
    MEAN_NOMA_SECRECY_RATE = "mean_noma_secrecy_rate"
    MEAN_OMA_SECRECY_RATE = "mean_oma_secrecy_rate"
    OUTAGE_RATE_UNICAST = "outage_rate_unicast"
    OUTAGE_RATE_UNICAST_OMA = "outage_rate_unicast_oma"
    OUTAGE_RATE_SECRECY = "outage_rate_secrecy"
    OUTAGE_RATE_SECRECY_OMA = "outage_rate_secrecy_oma"


_PROBABILITY_METRICS = {
    MetricKind.MULTICAST_OUTAGE, MetricKind.UNICAST_OUTAGE,
    MetricKind.UNICAST_OUTAGE_OMA, MetricKind.SECRECY_OUTAGE,
    MetricKind.SECRECY_OUTAGE_OMA, MetricKind.NOMA_TRAILS_OMA,
}

# metric -> (per-realization field, outage-rate target attribute or None)
_METRIC_FIELDS = {
    MetricKind.MULTICAST_OUTAGE: ("multicast_outage", None),
    MetricKind.UNICAST_OUTAGE: ("noma_unicast_outage", None),
    MetricKind.UNICAST_OUTAGE_OMA: ("oma_unicast_outage", None),
    MetricKind.SECRECY_OUTAGE: ("noma_secrecy_outage", None),
    MetricKind.SECRECY_OUTAGE_OMA: ("oma_secrecy_outage", None),
    MetricKind.NOMA_TRAILS_OMA: ("noma_trails_oma", None),
    MetricKind.MEAN_NOMA_UNICAST_RATE: ("noma_unicast_rate", None),
    MetricKind.MEAN_OMA_UNICAST_RATE: ("oma_unicast_rate", None),
    MetricKind.MEAN_NOMA_SECRECY_RATE: ("noma_secrecy_rate", None),
    MetricKind.MEAN_OMA_SECRECY_RATE: ("oma_secrecy_rate", None),
    MetricKind.OUTAGE_RATE_UNICAST: ("noma_unicast_outage", "r_u"),
    MetricKind.OUTAGE_RATE_UNICAST_OMA: ("oma_unicast_outage", "r_u"),
    MetricKind.OUTAGE_RATE_SECRECY: ("noma_secrecy_outage", "r_s"),
    MetricKind.OUTAGE_RATE_SECRECY_OMA: ("oma_secrecy_outage", "r_s"),
}

_FIELDS = ("multicast_outage", "noma_unicast_outage", "oma_unicast_outage",
           "noma_secrecy_outage", "oma_secrecy_outage", "noma_trails_oma",
           "noma_unicast_rate", "oma_unicast_rate", "noma_secrecy_rate",
           "oma_secrecy_rate", "secrecy_gap", "secrecy_violation", "sched_ok")


@dataclass(frozen=True)
class SimulationPlan:
    """How to run a Monte Carlo estimate."""

    samples: int
    seed: int
    scheduling: bool = False
    oma_beamformer: str = MRT
    workers: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"need at least one sample, got {self.samples}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.oma_beamformer not in BEAMFORMER_KINDS:
            raise ValueError(f"unknown OMA beamformer {self.oma_beamformer!r}")
        if self.workers < 1:
            raise ValueError(f"need at least one worker, got {self.workers}")


@dataclass(frozen=True)
class Estimate:
    """Sample mean with standard error and a 95% normal interval."""

    value: float
    stderr: float
    ci_low: float
    ci_high: float
    samples: int


@dataclass(frozen=True)
class SecrecyComparison:
    """Per-realization NOMA vs OMA secrecy rate comparison.

    ``violation_fraction`` counts realizations where the NOMA secrecy rate
    falls below the OMA one by more than the floating-point guard;
    ``mean_gap`` is the average NOMA-minus-OMA secrecy rate.
    """

    violation_fraction: Estimate
    mean_gap: Estimate


def _sample_gains(m: int, k: int, plan: SimulationPlan, first: int, n: int):
    """(z1, others, z1_oma, others_oma) for windows [first, first + n).

    A CN(0, I_M) row is its Gamma(M) squared norm times an isotropic
    direction, and scheduling sees only norms.  In the basis (MRT beam, OMA
    beam's part orthogonal to it, rest) a user's squared coordinates are a,
    b ~ Exp(1) and a Gamma(M-2) remainder with a uniform relative phase; the
    unicast user's a is its OMA gain, so |c|^2 = a_sel / z1 ~ Beta(1, M-1)
    for an equal-gain or random beam alike.  With M = 1 every beam is MRT.
    Window layouts: unscheduled MRT, z1's m exponentials then the others';
    scheduled, m rows of k exponentials (a, b, remainders) then k phases;
    otherwise z1's m exponentials, the others' a and b, then k - 1 phases.
    """
    mrt = plan.oma_beamformer == MRT or m == 1
    if not plan.scheduling and mrt:
        e = bits_to_exponential(
            window_bits(plan.seed, DOMAIN_DIRECT_GAINS, first, n, m + k - 1))
        z1, others = e[:, :m].sum(axis=1), e[:, m:]
        return z1, others, z1, others
    if plan.scheduling:
        bits = window_bits(plan.seed, DOMAIN_GAINS, first, n, k * m + (0 if mrt else k))
        e = bits_to_exponential(bits[:, :k * m]).reshape(n, m, k)
        norms = np.einsum("rmk->rk", e)
        sel = np.arange(k) == norms.argmax(axis=1)[:, None]
        z1, a_sel = norms[sel], e[:, 0][sel]
        others = e[:, 0][~sel].reshape(n, k - 1)
        if mrt:
            return z1, others, z1, others
        b = e[:, 1][~sel].reshape(n, k - 1)
        phase = bits_to_uniform(bits[:, k * m:][~sel]).reshape(n, k - 1)
    else:
        bits = window_bits(plan.seed, DOMAIN_GAINS, first, n, m + 3 * (k - 1))
        e = bits_to_exponential(bits[:, :m + 2 * (k - 1)])
        z1, a_sel = e[:, :m].sum(axis=1), e[:, 0]
        others, b = e[:, m:m + k - 1], e[:, m + k - 1:]
        phase = bits_to_uniform(bits[:, m + 2 * (k - 1):])
    # |c x + s y|^2 with |x|^2 = a, |y|^2 = b, |s|^2 = 1 - |c|^2
    c2 = (a_sel / z1)[:, None]
    x, y = np.sqrt(c2 * others), np.sqrt((1.0 - c2) * b)
    others_oma = x * x + y * y + 2.0 * x * y * np.cos(2.0 * np.pi * phase)
    return z1, others, a_sel, others_oma


def _gain_moments(cfg: LinkConfig, z1, others, z1_oma, others_oma):
    """Per-realization outcomes of a batch of gains, reduced to moments."""
    u = others.min(axis=1)
    v = others.max(axis=1)
    gmin = np.minimum(z1, u)  # the weakest of the K gains sets both allocations
    thr = cfg.eps_m / cfg.rho
    alpha_u2 = tx.power_fraction(gmin, cfg)
    gamma = tx.time_fraction(np.minimum(z1_oma, others_oma.min(axis=1)), cfg)

    r1_noma = tx.noma_rate(z1, alpha_u2, cfg)
    eaves_noma = tx.noma_rate(v, alpha_u2, cfg)  # rates increase with gain
    r1_oma = tx.oma_rate(z1_oma, gamma, cfg)
    eaves_oma = tx.oma_rate(others_oma.max(axis=1), gamma, cfg)
    rs_noma = tx.secrecy_rate(r1_noma, eaves_noma)
    rs_oma = tx.secrecy_rate(r1_oma, eaves_oma)
    gap = rs_noma - rs_oma

    fields = {
        "multicast_outage": gmin < thr,
        "noma_unicast_outage": z1 * alpha_u2 < cfg.eps_u / cfg.rho,
        "oma_unicast_outage": r1_oma < cfg.r_u,
        "noma_secrecy_outage": (z1 - 2.0**cfg.r_s * v) * alpha_u2 < cfg.eps_s / cfg.rho,
        "oma_secrecy_outage": rs_oma < cfg.r_s,
        "noma_trails_oma": r1_noma <= r1_oma + RATE_EQ_GUARD,
        "noma_unicast_rate": r1_noma,
        "oma_unicast_rate": r1_oma,
        "noma_secrecy_rate": rs_noma,
        "oma_secrecy_rate": rs_oma,
        "secrecy_gap": gap,
        "secrecy_violation": gap < -RATE_EQ_GUARD,
        "sched_ok": z1 >= u,
    }
    sums = np.empty(len(_FIELDS))
    sumsqs = np.empty(len(_FIELDS))
    for i, name in enumerate(_FIELDS):
        x = fields[name].astype(np.float64, copy=False)
        sums[i] = x.sum()
        sumsqs[i] = (x * x).sum()
    return len(z1), sums, sumsqs


def _chunk_moments(args):
    """Moments of the realizations in window indices [lo, hi)."""
    cfg, m, k, plan, base, lo, hi = args
    return _gain_moments(cfg, *_sample_gains(m, k, plan, base + lo, hi - lo))


def _run_moments(cfg: LinkConfig, system, plan: SimulationPlan, base: int):
    """Accumulate per-field moments over all realizations of a run."""
    m, k = system
    if k < 2:
        raise ValueError(f"need at least 2 users, got {k}")
    if m < 1:
        raise ValueError(f"need at least 1 antenna, got {m}")
    chunks = [(cfg, m, k, plan, base, lo, min(lo + _CHUNK, plan.samples))
              for lo in range(0, plan.samples, _CHUNK)]
    if plan.workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            results = list(pool.map(_chunk_moments, chunks, chunksize=1))
    else:
        results = [_chunk_moments(c) for c in chunks]
    ns, sums, sumsqs = zip(*results)  # fixed chunk order keeps the reduction exact
    zero = np.zeros(len(_FIELDS))
    return (sum(ns), dict(zip(_FIELDS, sum(sums, zero))),
            dict(zip(_FIELDS, sum(sumsqs, zero))))


def _moment_estimate(n: int, s: float, ssq: float, probability: bool) -> Estimate:
    mean = s / n
    var = max(0.0, ssq - s * s / n) / (n - 1) if n > 1 else 0.0
    stderr = math.sqrt(var / n)
    lo, hi = mean - _Z95 * stderr, mean + _Z95 * stderr
    if probability:
        lo, hi = max(0.0, lo), min(1.0, hi)
    return Estimate(mean, stderr, lo, hi, n)


def _metric_estimate(metric: MetricKind, cfg: LinkConfig, n, sums, sumsqs) -> Estimate:
    field, rate_attr = _METRIC_FIELDS[metric]
    base = _moment_estimate(n, sums[field], sumsqs[field],
                            probability=metric in _PROBABILITY_METRICS
                            or rate_attr is not None)
    if rate_attr is None:
        return base
    target = getattr(cfg, rate_attr)
    if not target > 0:
        raise ValueError(f"{metric.value} needs a positive {rate_attr} target")
    # outage rate (1 - P) * target, derived from the outage indicator moments
    return Estimate(target * (1.0 - base.value), target * base.stderr,
                    target * (1.0 - base.ci_high), target * (1.0 - base.ci_low),
                    n)


def estimate_many(metrics, cfg: LinkConfig, system, plan: SimulationPlan,
                  stream_base: int = 0) -> dict:
    """Estimate several metrics from one shared set of realizations."""
    n, sums, sumsqs = _run_moments(cfg, system, plan, stream_base)
    return {m: _metric_estimate(m, cfg, n, sums, sumsqs) for m in metrics}


def estimate(metric: MetricKind, cfg: LinkConfig, system,
             plan: SimulationPlan, stream_base: int = 0) -> Estimate:
    """Monte Carlo estimate of one metric.

    Deterministic for fixed (seed, samples, scheduling, beamformer)
    regardless of worker count: realization ``i`` always consumes counter
    window ``stream_base + i``.
    """
    return estimate_many([metric], cfg, system, plan, stream_base)[metric]


def sweep(metric: MetricKind, cfg: LinkConfig, snr_grid_db, system,
          plan: SimulationPlan):
    """One estimate per SNR grid point (dB); points use disjoint substreams."""
    snr_grid_db = list(snr_grid_db)
    if not snr_grid_db:
        raise ValueError("empty SNR grid")
    out = []
    for idx, snr_db in enumerate(snr_grid_db):
        point_cfg = replace(cfg, rho=10.0 ** (snr_db / 10.0))
        out.append((snr_db, estimate(metric, point_cfg, system, plan,
                                     stream_base=idx * plan.samples)))
    return out


def scheduling_check(cfg: LinkConfig, system, plan: SimulationPlan) -> Estimate:
    """Fraction of realizations with z1 >= u (must be 1.0 under scheduling)."""
    n, sums, sumsqs = _run_moments(cfg, system, plan, 0)
    return _moment_estimate(n, sums["sched_ok"], sumsqs["sched_ok"], probability=True)


def compare_secrecy_rates(cfg: LinkConfig, system, plan: SimulationPlan,
                          rho_db: float | None = None) -> SecrecyComparison:
    """Head-to-head NOMA vs OMA secrecy rates over shared realizations."""
    if rho_db is not None:
        cfg = replace(cfg, rho=10.0 ** (rho_db / 10.0))
    n, sums, sumsqs = _run_moments(cfg, system, plan, 0)
    violation = _moment_estimate(n, sums["secrecy_violation"],
                                 sumsqs["secrecy_violation"], probability=True)
    gap = _moment_estimate(n, sums["secrecy_gap"], sumsqs["secrecy_gap"],
                           probability=False)
    return SecrecyComparison(violation, gap)

"""Seeded, chunked Monte Carlo estimation of every link metric.

Realization ``i`` of a run always draws from counter window ``base + i``
(see :mod:`nomacast.rng`), so the estimate is bit-identical for any chunking
of the index range and any worker count.  Chunks are reduced to running
moments and combined in index order; workers (one pool per run) only
parallelize chunk evaluation.  Gains do not depend on the SNR, so every
point of a run's SNR grid reuses its windows, drawn and reduced once: point
estimates stay unbiased but are correlated (common random numbers).

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


# Every metric but an outage rate is the mean of the kernel field of the same
# name (see _gain_moments).  outage-rate metric -> (its outage-probability
# metric, target attribute): the rate is (1 - P) * target.
OUTAGE_RATE_OF = {
    MetricKind.OUTAGE_RATE_UNICAST: (MetricKind.UNICAST_OUTAGE, "r_u"),
    MetricKind.OUTAGE_RATE_UNICAST_OMA: (MetricKind.UNICAST_OUTAGE_OMA, "r_u"),
    MetricKind.OUTAGE_RATE_SECRECY: (MetricKind.SECRECY_OUTAGE, "r_s"),
    MetricKind.OUTAGE_RATE_SECRECY_OMA: (MetricKind.SECRECY_OUTAGE_OMA, "r_s"),
}

# the metric fields, then three fields that only the checks read
_FIELDS = ("multicast_outage", "unicast_outage", "unicast_outage_oma",
           "secrecy_outage", "secrecy_outage_oma", "noma_trails_oma",
           "mean_noma_unicast_rate", "mean_oma_unicast_rate", "mean_noma_secrecy_rate",
           "mean_oma_secrecy_rate", "secrecy_gap", "secrecy_violation", "sched_ok")


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


def _gain_moments(cfgs, z1, others, z1_oma, others_oma):
    """Batch size and (configs, fields) sums and squares of the outcomes; the
    SNR-free min/max reductions run once per batch, the rest once per config.
    A metric field's mean is the estimate of the metric of the same name."""
    u, v = others.min(axis=1), others.max(axis=1)
    gmin = np.minimum(z1, u)  # the weakest of the K gains sets both allocations
    mrt = z1_oma is z1 and others_oma is others  # the OMA beam sees the same gains
    gmin_oma = gmin if mrt else np.minimum(z1_oma, others_oma.min(axis=1))
    v_oma = v if mrt else others_oma.max(axis=1)
    sums, sumsqs = np.empty((2, len(cfgs), len(_FIELDS)))
    for p, cfg in enumerate(cfgs):
        alpha_u2 = tx.power_fraction(gmin, cfg)
        gamma = tx.time_fraction(gmin_oma, cfg)
        r1_noma = tx.noma_rate(z1, alpha_u2, cfg)
        r1_oma = tx.oma_rate(z1_oma, gamma, cfg)
        # rates increase with gain, so the strongest other user is the best eavesdropper
        rs_noma = tx.secrecy_rate(r1_noma, tx.noma_rate(v, alpha_u2, cfg))
        rs_oma = tx.secrecy_rate(r1_oma, tx.oma_rate(v_oma, gamma, cfg))
        gap = rs_noma - rs_oma
        fields = {
            "multicast_outage": gmin < cfg.eps_m / cfg.rho,
            "unicast_outage": z1 * alpha_u2 < cfg.eps_u / cfg.rho,
            "unicast_outage_oma": r1_oma < cfg.r_u,
            # no positive secrecy rate is an outage, even at r_s = 0
            "secrecy_outage": (z1 - 2.0**cfg.r_s * v) * alpha_u2 <= cfg.eps_s / cfg.rho,
            "secrecy_outage_oma": rs_oma <= cfg.r_s,
            "noma_trails_oma": r1_noma <= r1_oma + RATE_EQ_GUARD,
            "mean_noma_unicast_rate": r1_noma,
            "mean_oma_unicast_rate": r1_oma,
            "mean_noma_secrecy_rate": rs_noma,
            "mean_oma_secrecy_rate": rs_oma,
            "secrecy_gap": gap,
            "secrecy_violation": gap < -RATE_EQ_GUARD,
            "sched_ok": z1 >= u,
        }
        for i, name in enumerate(_FIELDS):
            x = fields[name]  # an indicator is its own square, and its count is exact
            sums[p, i] = np.count_nonzero(x) if x.dtype == bool else x.sum()
            sumsqs[p, i] = sums[p, i] if x.dtype == bool else (x * x).sum()
    return len(z1), sums, sumsqs


def _chunk_moments(args):
    """Moments of the realizations in window indices [lo, hi) at every config."""
    cfgs, m, k, plan, base, lo, hi = args
    return _gain_moments(cfgs, *_sample_gains(m, k, plan, base + lo, hi - lo))


def _run_moments(cfgs, system, plan: SimulationPlan, base: int):
    """Sample count and per-config (sums, sums of squares) field dicts of a run."""
    m, k = system
    if k < 2:
        raise ValueError(f"need at least 2 users, got {k}")
    if m < 1:
        raise ValueError(f"need at least 1 antenna, got {m}")
    chunks = [(cfgs, m, k, plan, base, lo, min(lo + _CHUNK, plan.samples))
              for lo in range(0, plan.samples, _CHUNK)]
    if plan.workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            results = list(pool.map(_chunk_moments, chunks, chunksize=1))
    else:
        results = [_chunk_moments(c) for c in chunks]
    ns, sums, sumsqs = zip(*results)  # fixed chunk order keeps the reduction exact
    zero = np.zeros((len(cfgs), len(_FIELDS)))
    return sum(ns), [(dict(zip(_FIELDS, s)), dict(zip(_FIELDS, q)))
                     for s, q in zip(sum(sums, zero), sum(sumsqs, zero))]


def _moment_estimate(n: int, s: float, ssq: float, probability: bool) -> Estimate:
    mean = s / n
    var = max(0.0, ssq - s * s / n) / (n - 1) if n > 1 else 0.0
    stderr = math.sqrt(var / n)
    lo, hi = mean - _Z95 * stderr, mean + _Z95 * stderr
    if probability:
        lo, hi = max(0.0, lo), min(1.0, hi)
    return Estimate(mean, stderr, lo, hi, n)


def derive_estimate(metric: MetricKind, cfg: LinkConfig, source: Estimate) -> Estimate:
    """Estimate of ``metric`` from ``source``, that of the metric it reads (see
    OUTAGE_RATE_OF): (1 - P) * target for an outage rate, else ``source``."""
    if metric not in OUTAGE_RATE_OF:
        return source
    rate_attr = OUTAGE_RATE_OF[metric][1]
    target = getattr(cfg, rate_attr)
    if not target > 0:
        raise ValueError(f"{metric.value} needs a positive {rate_attr} target")
    return Estimate(target * (1.0 - source.value), target * source.stderr,
                    target * (1.0 - source.ci_high), target * (1.0 - source.ci_low),
                    source.samples)


def _metric_estimate(metric: MetricKind, cfg: LinkConfig, n, sums, sumsqs) -> Estimate:
    field = OUTAGE_RATE_OF.get(metric, (metric,))[0].value
    # every field but a mean rate is a probability
    return derive_estimate(metric, cfg, _moment_estimate(
        n, sums[field], sumsqs[field], probability=not field.startswith("mean_")))


def estimate_many(metrics, cfg, system, plan: SimulationPlan, stream_base: int = 0):
    """Estimate several metrics from one shared set of realizations.

    ``cfg`` is one LinkConfig (one dict of estimates) or a sequence of them,
    say an SNR grid (one dict per config, all on the same windows).
    """
    cfgs = [cfg] if isinstance(cfg, LinkConfig) else list(cfg)
    n, points = _run_moments(cfgs, system, plan, stream_base)
    out = [{metric: _metric_estimate(metric, c, n, *moments) for metric in metrics}
           for c, moments in zip(cfgs, points)]
    return out[0] if isinstance(cfg, LinkConfig) else out


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
    """One estimate per SNR grid point (dB), all on windows [0, samples)."""
    snr_grid_db = list(snr_grid_db)
    if not snr_grid_db:
        raise ValueError("empty SNR grid")
    cfgs = [replace(cfg, rho=10.0 ** (snr_db / 10.0)) for snr_db in snr_grid_db]
    return [(snr_db, est[metric]) for snr_db, est
            in zip(snr_grid_db, estimate_many([metric], cfgs, system, plan))]


def scheduling_check(cfg: LinkConfig, system, plan: SimulationPlan) -> Estimate:
    """Fraction of realizations with z1 >= u (must be 1.0 under scheduling)."""
    n, [(sums, sumsqs)] = _run_moments([cfg], system, plan, 0)
    return _moment_estimate(n, sums["sched_ok"], sumsqs["sched_ok"], probability=True)


def compare_secrecy_rates(cfg: LinkConfig, system,
                          plan: SimulationPlan) -> SecrecyComparison:
    """Head-to-head NOMA vs OMA secrecy rates over shared realizations."""
    n, [(sums, sumsqs)] = _run_moments([cfg], system, plan, 0)
    violation = _moment_estimate(n, sums["secrecy_violation"],
                                 sumsqs["secrecy_violation"], probability=True)
    gap = _moment_estimate(n, sums["secrecy_gap"], sumsqs["secrecy_gap"],
                           probability=False)
    return SecrecyComparison(violation, gap)

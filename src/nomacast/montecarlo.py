"""Seeded, chunked Monte Carlo estimation of every link metric, and the table
of closed forms that check it (CLOSED_FORMS).

:func:`estimate_many` is the one entry point: a list of configs in (say one
per SNR grid point), one ``{metric: Estimate}`` per config out.  Realization
``i`` of a run always draws from counter window ``base + i`` (see
:mod:`nomacast.rng`), so the estimate is bit-identical for any chunking of
the index range and any worker count.  Chunks are reduced to running moments
and combined in index order; workers (one pool per call, at most one worker
per chunk) only parallelize chunk evaluation.  Gains do not depend on the
SNR, so every config of a call reuses its windows, drawn and reduced once:
point estimates stay unbiased but are correlated (common random numbers).
A chunk is one pass from Philox to its moments: ``_BLOCK`` windows at a time
are drawn into one reused workspace and turned into gains in place, and the
kernel reduces ``_KBLOCK`` windows at a time, with the bits of one whole draw.

Every plan draws its gains without a channel matrix (see :func:`_sample_gains`),
from one law per call (:func:`gain_law`): their exact joint law, or each triple's own.
"""

from __future__ import annotations

import math
from concurrent import futures  # .process (multiprocessing) loads with the first pool
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import islice

import numpy as np

from . import analysis, transmission as tx
from .rng import DOMAIN_GAIN_STATS, DOMAIN_GAINS, DOMAIN_SPLIT, fill_uniform, window_generator
from .transmission import RATE_EQ_GUARD, LinkConfig

_CHUNK = 1 << 16
_BLOCK = 1 << 11  # windows per fill of the sampler's workspace, so it stays in L2
_KBLOCK = 1 << 13  # windows per kernel call when only indicator counts are summed
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
    MEAN_SECRECY_GAP = "mean_secrecy_gap"
    SECRECY_VIOLATION = "secrecy_violation"
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

# (outage-probability metric, scheduled?) -> (closed form of (m, k, LinkConfig,
# quadrature rule), absolute tolerance against Monte Carlo); a missing key means
# none applies.  The lambdas look the forms up in ``analysis`` at call time.
CLOSED_FORMS = {
    (MetricKind.MULTICAST_OUTAGE, False):
        (lambda *p: analysis.multicast_outage_prob(*p[:3]), 0.005),
    (MetricKind.UNICAST_OUTAGE, False):
        (lambda *p: analysis.unicast_outage_prob(*p).total, 0.005),
    (MetricKind.SECRECY_OUTAGE, False):
        (lambda *p: analysis.secrecy_outage_prob(*p).total, 0.01),
}


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


def _min_max(others):
    """Row-wise min and max of an (n, K-1) array, reduced over its (K-1, n)
    transpose: elementwise across K-1 contiguous rows, and exact in any order."""
    cols = np.ascontiguousarray(others.T)
    return cols.min(axis=0), cols.max(axis=0)


def _block_gains(w, m: int, k: int, law_name: str):
    """(z1, u, v, z1_oma, u_oma, v_oma) of a block of windows of the named law
    (see gain_law) from their uniforms ``w``, one row per window, which it
    overwrites: the unicast user's gain and the smallest (u) and largest (v)
    of the other users' gains, under the MRT beam and under the OMA beam.

    A CN(0, I_M) row is its Gamma(M) squared norm times an isotropic
    direction, and scheduling sees only norms.  Unscheduled with one beam
    (MRT, or M = 1), z1 ~ Gamma(M) is -log of a product of M uniforms and
    the other users' gains are K - 1 independent unit exponentials, so by
    Renyi's representation u = Exp(1)/(K-1) and v - u is the largest of
    K - 2 more (Devroye 1986, ch. V and IX): M + 2 words per realization.
    Otherwise, in the basis (MRT beam, OMA beam's part orthogonal to it,
    rest) a user's squared coordinates are a, b ~ Exp(1) and a Gamma(M-2)
    remainder with a uniform relative phase; the unicast user's a is its OMA
    gain, so |c|^2 = a_sel / z1 ~ Beta(1, M-1) for an equal-gain or random
    beam alike.  Unscheduled, its OMA gains are then i.i.d. Exp(1), so the
    split law draws them as the M = 1 MRT triple, apart from the MRT triple:
    only each triple's law is exact (the joint law has z1_oma <= z1).  Window
    layouts: mrt, z1's m uniforms, then u's and v's words; split, that of m
    then that of M = 1; scheduled, m rows of k exponentials (a, b,
    remainders), then k phases under scheduled_joint; joint, z1's m
    exponentials, the others' a and b, then k - 1 phases.
    """
    if law_name == "split":
        return _block_gains(w, m, k, "mrt")[:3] + _block_gains(w[:, m + 2:], 1, k, "mrt")[:3]
    if law_name == "mrt":
        z = w[:, :m]
        # 18 uniforms multiply to at least 2^-972, so no product underflows
        z1 = -np.log(z[:, :18].prod(axis=1))
        for i in range(18, m, 18):
            z1 -= np.log(z[:, i:i + 18].prod(axis=1))
        u = -np.log(w[:, m]) / (k - 1)
        if k == 2:
            return z1, u, u, z1, u, u
        # the top words round U^(1/(K-2)) up to 1, where v would be infinite
        v = u - np.log1p(-np.minimum(w[:, m + 1] ** (1.0 / (k - 2)), 1.0 - 2.0**-53))
        return z1, u, v, z1, u, v
    e = w[:, :m + 2 * (k - 1)] if law_name == "joint" else w[:, :k * m]
    np.negative(np.log(e, out=e), out=e)  # unit exponentials by inversion, in place
    if law_name != "joint":  # scheduled: the strongest user by norm is served, as column 0
        e = e.reshape(len(w), m, k)
        norms = np.einsum("rmk->rk", e)
        rows, sel = np.arange(len(w)), norms.argmax(axis=1)
        mrt = law_name == "scheduled"
        users = (e[:, 0],) if mrt else (e[:, 0], e[:, 1], w[:, k * m:k * m + k])
        for x in users:  # column 0 becomes the served user's a (and b and phase)
            x[rows, sel], x[:, 0] = x[:, 0], x[rows, sel]
        z1, a_sel, others = norms[rows, sel], users[0][:, 0], users[0][:, 1:]
        if mrt:
            return (z1, *_min_max(others)) * 2
        b, phase = users[1][:, 1:], users[2][:, 1:]
    else:
        z1, a_sel = e[:, :m].sum(axis=1), e[:, 0]
        others, b = e[:, m:m + k - 1], e[:, m + k - 1:]
        phase = w[:, m + 2 * (k - 1):m + 3 * (k - 1)]
    # |c x + s y|^2 with |x|^2 = a, |y|^2 = b, |s|^2 = 1 - |c|^2
    c2 = (a_sel / z1)[:, None]
    x, y = np.sqrt(c2 * others), np.sqrt((1.0 - c2) * b)
    others_oma = x * x + y * y + 2.0 * x * y * np.cos(2.0 * np.pi * phase)
    return (z1, *_min_max(others), a_sel, *_min_max(others_oma))


def _sample_gains(m: int, k: int, law, seed: int, first: int, n: int, step: int):
    """The gains of windows [first, first + n) of ``law`` (see gain_law) as
    successive (6, <= step) views of one buffer, each valid until the next is
    drawn.  One generator draws the windows in turn (a window's words follow
    the previous one's) into one reused workspace of _BLOCK windows."""
    name, domain, width = law
    gen = window_generator(seed, domain, first, width)
    ws, gains = np.empty((min(_BLOCK, n), -(-width // 4) * 4)), np.empty((6, min(step, n)))
    for lo in range(0, n, step):
        nk = min(step, n - lo)
        for r in range(0, nk, _BLOCK):
            w = fill_uniform(gen, ws[:min(_BLOCK, nk - r)])
            gains[:, r:r + len(w)] = _block_gains(w, m, k, name)
        yield gains[:, :nk]


class _Outcomes:
    """The per-realization quantities of one batch at one config.  Each is
    computed on first use and kept as an attribute of the instance, so a
    field that is not requested costs nothing and no reference cycle keeps
    a chunk's arrays alive."""

    def __init__(self, cfg, z1, v, z1_oma, v_oma, gmin, gmin_oma):
        self.cfg, self.z1, self.v = cfg, z1, v
        self.z1_oma, self.v_oma, self.gmin, self.gmin_oma = z1_oma, v_oma, gmin, gmin_oma

    @cached_property
    def alpha_u2(self):
        return tx.power_fraction(self.gmin, self.cfg)

    @cached_property
    def gamma(self):
        return tx.time_fraction(self.gmin_oma, self.cfg)

    @cached_property
    def r1_noma(self):
        return tx.noma_rate(self.z1, self.alpha_u2, self.cfg)

    @cached_property
    def r1_oma(self):
        return tx.oma_rate(self.z1_oma, self.gamma, self.cfg)

    # rates increase with gain, so the strongest other user is the best eavesdropper
    @cached_property
    def rs_noma(self):
        return tx.secrecy_rate(self.r1_noma, tx.noma_rate(self.v, self.alpha_u2, self.cfg))

    @cached_property
    def rs_oma(self):
        return tx.secrecy_rate(self.r1_oma, tx.oma_rate(self.v_oma, self.gamma, self.cfg))


# field name -> its per-realization value: a float for a ``mean_*`` name, else
# an event indicator.  The _PAIRED fields read both beams' gains (their joint law).
# The NOMA unicast and secrecy outages are kernel fields too, read from _RHO_STAR.
_FIELD_OF = {
    "multicast_outage": lambda o: o.gmin < o.cfg.eps_m / o.cfg.rho,
    "unicast_outage_oma": lambda o: o.r1_oma < o.cfg.r_u,
    "secrecy_outage_oma": lambda o: o.rs_oma <= o.cfg.r_s,
    "noma_trails_oma": lambda o: o.r1_noma <= o.r1_oma + RATE_EQ_GUARD,
    "mean_noma_unicast_rate": lambda o: o.r1_noma,
    "mean_oma_unicast_rate": lambda o: o.r1_oma,
    "mean_noma_secrecy_rate": lambda o: o.rs_noma,
    "mean_oma_secrecy_rate": lambda o: o.rs_oma,
    "mean_secrecy_gap": lambda o: o.rs_noma - o.rs_oma,
    "secrecy_violation": lambda o: o.rs_noma - o.rs_oma < -RATE_EQ_GUARD,
}


def _unicast_rho_star(o):
    """rho*_U = eps_m/g + eps_u (1 + eps_m)/z1: with alpha_U^2 of power_fraction,
    z1 alpha_U^2 < eps_u/rho exactly when rho < rho*_U."""
    with np.errstate(divide="ignore"):  # a zero gain is an outage at every SNR
        return o.cfg.eps_m / o.gmin + o.cfg.eps_u * (1.0 + o.cfg.eps_m) / o.z1


def _secrecy_rho_star(o):
    """rho*_S = eps_m/g + eps_s (1 + eps_m)/(z1 - 2^r_s v), or infinity where
    z1 <= 2^r_s v: (z1 - 2^r_s v) alpha_U^2 <= eps_s/rho exactly when rho <= rho*_S.
    No positive secrecy rate is an outage, even at r_s = 0."""
    d = o.z1 - 2.0**o.cfg.r_s * o.v
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = np.where(d > 0.0, o.cfg.eps_s * (1.0 + o.cfg.eps_m) / d, np.inf)
        return o.cfg.eps_m / o.gmin + excess


# field name -> (its per-realization critical SNR rho*, the ufunc of (rho*, rho)
# that is its indicator).  Each NOMA event here holds exactly when rho is below
# rho* (or at it), so a grid's counts are one compare per point; rho* reads no rho.
_RHO_STAR = {
    "unicast_outage": (_unicast_rho_star, np.greater),
    "secrecy_outage": (_secrecy_rho_star, np.greater_equal),
}
_PAIRED = frozenset({"noma_trails_oma", "secrecy_violation", "mean_secrecy_gap"})


def source_metric(metric: MetricKind) -> MetricKind:
    """The metric whose kernel field ``metric`` reads: the outage probability
    of an outage rate (see OUTAGE_RATE_OF), else ``metric`` itself."""
    return OUTAGE_RATE_OF.get(metric, (metric,))[0]


def _gain_moments(cfgs, fields, z1, u, v, z1_oma, u_oma, v_oma):
    """Batch size and (configs, fields) sums and squares of the named fields;
    the SNR-free minima are formed once per batch, a _RHO_STAR field's critical
    SNRs once per distinct rate targets, the rest once per config.
    A field's mean is the estimate of the metric of the same name."""
    gmin = np.minimum(z1, u)  # the weakest of the K gains sets both allocations
    gmin_oma = np.minimum(z1_oma, u_oma)
    sums, sumsqs = np.empty((2, len(cfgs), len(fields)))
    rho_stars = {}
    for p, cfg in enumerate(cfgs):
        outcomes = _Outcomes(cfg, z1, v, z1_oma, v_oma, gmin, gmin_oma)
        for i, name in enumerate(fields):
            if name in _RHO_STAR:
                rho_star, holds = _RHO_STAR[name]
                key = (name, cfg.r_m, cfg.r_u, cfg.r_s)
                if key not in rho_stars:
                    rho_stars[key] = rho_star(outcomes)
                x = holds(rho_stars[key], cfg.rho)
            else:
                x = _FIELD_OF[name](outcomes)  # an indicator is its own square, its count exact
            sums[p, i] = np.count_nonzero(x) if x.dtype == bool else x.sum()
            sumsqs[p, i] = sums[p, i] if x.dtype == bool else (x * x).sum()
    return len(z1), sums, sumsqs


def _chunk_moments(args):
    """Moments of the named fields over windows [first, first + n) of ``law`` at
    every config, summed over kernel blocks of _KBLOCK windows as each is drawn:
    exact for indicator counts.  A ``mean_*`` float sum keeps its whole-chunk rounding."""
    cfgs, fields, m, k, law, seed, first, n = args
    step = n if any(name.startswith("mean_") for name in fields) else _KBLOCK
    sums = sumsqs = np.zeros((len(cfgs), len(fields)))
    for gains in _sample_gains(m, k, law, seed, first, n, step):
        _, block_sums, block_sumsqs = _gain_moments(cfgs, fields, *gains)
        sums, sumsqs = sums + block_sums, sumsqs + block_sumsqs
    return n, sums, sumsqs


def _chunk_results(cfgs, fields, m: int, k: int, law, plan: SimulationPlan, base: int):
    """(n, sums, sumsqs) of each _CHUNK-window chunk, in chunk order, built and
    evaluated lazily: with several workers and chunks, in one pool (at most
    one worker per chunk) 2 * workers chunks at a time, so memory stays flat."""
    chunks = ((cfgs, fields, m, k, law, plan.seed, base + lo, min(_CHUNK, plan.samples - lo))
              for lo in range(0, plan.samples, _CHUNK))
    workers = min(plan.workers, -(-plan.samples // _CHUNK))
    if workers == 1:
        yield from map(_chunk_moments, chunks)
        return
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        while batch := list(islice(chunks, 2 * workers)):
            yield from pool.map(_chunk_moments, batch)


def _field_estimates(fields, n: int, sums, sumsqs) -> dict:
    """{field: Estimate} from one config's sums and squares over n realizations:
    a ``mean_*`` field is a mean, any other an event probability in [0, 1]."""
    out = {}
    for name, s, ssq in zip(fields, sums, sumsqs):
        mean = s / n
        var = max(0.0, ssq - s * s / n) / (n - 1) if n > 1 else 0.0
        stderr = math.sqrt(var / n)
        lo, hi = mean - _Z95 * stderr, mean + _Z95 * stderr
        if not name.startswith("mean_"):
            lo, hi = max(0.0, lo), min(1.0, hi)
        out[name] = Estimate(mean, stderr, lo, hi, n)
    return out


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


def analytic_estimate(metric: MetricKind, cfg: LinkConfig, m, k, na, scheduling=False):
    """Closed-form Estimate of ``metric`` with an na-node rule, or None where
    CLOSED_FORMS has none.  The secrecy form raises UnsupportedAnalyticsError at K = 2."""
    if (form := CLOSED_FORMS.get((source_metric(metric), scheduling))) is None:
        return None
    p = form[0](m, k, cfg, analysis.chebyshev_rule(na))
    return derive_estimate(metric, cfg, Estimate(p, 0.0, p, p, 0))


def analytic_value(metric: MetricKind, cfg: LinkConfig, m, k, na, scheduling=False):
    """The value of analytic_estimate, or None when no closed form applies."""
    return getattr(analytic_estimate(metric, cfg, m, k, na, scheduling), "value", None)


def gain_law(metrics, m: int, k: int, plan: SimulationPlan):
    """(name, key domain, words per window) of the one law that estimate_many draws
    every window of a run from (see _block_gains).  Of an unscheduled run with a
    non-MRT beam and M > 1, only a _PAIRED field needs both triples' "joint" law."""
    one_beam = plan.oma_beamformer == MRT or m == 1
    paired = not _PAIRED.isdisjoint(source_metric(x).value for x in metrics)
    return (("scheduled", DOMAIN_GAINS, k * m) if plan.scheduling and one_beam else
            ("scheduled_joint", DOMAIN_GAINS, k * m + k) if plan.scheduling else
            ("mrt", DOMAIN_GAIN_STATS, m + 2) if one_beam else
            ("joint", DOMAIN_GAINS, m + 3 * (k - 1)) if paired else
            ("split", DOMAIN_SPLIT, m + 5))


def estimate_many(metrics, cfgs, system, plan: SimulationPlan, stream_base: int = 0):
    """One {metric: Estimate} per config of ``cfgs`` (say an SNR grid), all from
    one shared set of realizations.  Deterministic for fixed (seed, samples,
    scheduling, beamformer, law picked by gain_law) for any worker count:
    realization ``i`` always consumes counter window ``stream_base + i``."""
    cfgs = list(cfgs)
    fields = tuple(dict.fromkeys(source_metric(metric).value for metric in metrics))
    analysis._check_size(*system)
    zero = np.zeros((len(cfgs), len(fields)))
    n, sums, sumsqs = 0, zero, zero
    law = gain_law(metrics, *system, plan)
    for chunk in _chunk_results(cfgs, fields, *system, law, plan, stream_base):  # exact order
        n, sums, sumsqs = n + chunk[0], sums + chunk[1], sumsqs + chunk[2]
    estimates = [_field_estimates(fields, n, s, q) for s, q in zip(sums, sumsqs)]
    return [{metric: derive_estimate(metric, cfg, est[source_metric(metric).value])
             for metric in metrics} for cfg, est in zip(cfgs, estimates)]

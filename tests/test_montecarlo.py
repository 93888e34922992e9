import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from full_matrix_oracle import full_matrix_gains
from link_oracle import evaluate_link, gains
from nomacast.montecarlo import (EQUAL_GAIN, MRT, OUTAGE_RATE_OF, RANDOM, MetricKind,
                                 SimulationPlan, _chunk_moments, _FIELDS, _gain_moments,
                                 _metric_estimate, compare_secrecy_rates, estimate,
                                 estimate_many, scheduling_check, sweep)
from nomacast.rng import (DOMAIN_DIRECT_GAINS, DOMAIN_GAINS, RngStream,
                          bits_to_exponential, bits_to_uniform, window_bits)
from nomacast.transmission import RATE_EQ_GUARD, LinkConfig, power_fraction

CFG = LinkConfig(rho=10.0 ** 1.6, r_m=1.0, r_u=6.0, r_s=2.0)


def test_plan_validation():
    with pytest.raises(ValueError):
        SimulationPlan(0, 1)
    with pytest.raises(ValueError):
        SimulationPlan(10, 1, oma_beamformer="bogus")
    with pytest.raises(ValueError, match="seed"):
        SimulationPlan(10, -1)
    with pytest.raises(ValueError, match="seed"):
        SimulationPlan(10, 1 << 64)
    with pytest.raises(ValueError):
        SimulationPlan(10, 1, workers=0)
    # every combination of scheduling and beamformer has a sampler
    SimulationPlan(10, (1 << 64) - 1, scheduling=True, oma_beamformer=EQUAL_GAIN)


def test_unscheduled_mrt_estimates_pinned():
    """Unscheduled MRT keeps the direct-gain window layout, value for value."""
    metrics = (MetricKind.UNICAST_OUTAGE, MetricKind.SECRECY_OUTAGE,
               MetricKind.MEAN_OMA_SECRECY_RATE)
    got = estimate_many(metrics, CFG, (10, 11), SimulationPlan(70_000, seed=2024),
                        stream_base=3)
    assert got[MetricKind.UNICAST_OUTAGE].value == 0.32977142857142855
    assert got[MetricKind.UNICAST_OUTAGE].stderr == 0.0017769371360171296
    assert got[MetricKind.SECRECY_OUTAGE].value == 0.7081285714285714
    assert got[MetricKind.SECRECY_OUTAGE].stderr == 0.0017183274692244596
    assert got[MetricKind.MEAN_OMA_SECRECY_RATE].value == 0.7071000729035575
    assert got[MetricKind.MEAN_OMA_SECRECY_RATE].stderr == 0.002210008797216999


def test_estimate_deterministic_and_worker_independent():
    """Same seed gives bit-identical results for any worker count."""
    plan1 = SimulationPlan(70_000, seed=99, workers=1)
    plan2 = SimulationPlan(70_000, seed=99, workers=2)
    a = estimate(MetricKind.UNICAST_OUTAGE, CFG, (10, 11), plan1)
    b = estimate(MetricKind.UNICAST_OUTAGE, CFG, (10, 11), plan2)
    assert a.value == b.value and a.stderr == b.stderr


def test_multicast_outage_closed_form():
    cfg = LinkConfig(rho=10.0, r_m=1.0, r_u=1.0)
    est = estimate(MetricKind.MULTICAST_OUTAGE, cfg, (1, 2),
                   SimulationPlan(1_000_000, seed=3))
    expected = 1.0 - math.exp(-0.2)
    assert abs(est.value - expected) <= 3 * est.stderr


def test_multicast_outage_closed_form_large_system():
    """Closed form vs a 10^7-draw run at the 16 dB operating point."""
    from nomacast.analysis import AnalysisParams, multicast_outage_prob
    est = estimate(MetricKind.MULTICAST_OUTAGE, CFG, (10, 11),
                   SimulationPlan(10_000_000, seed=16, workers=2))
    analytic = multicast_outage_prob(AnalysisParams.from_link(10, 11, CFG))
    assert abs(est.value - analytic) <= 3 * est.stderr


def test_unicast_outage_certain_at_tiny_snr():
    cfg = LinkConfig(rho=10.0 ** -3, r_m=1.0, r_u=6.0)
    est = estimate(MetricKind.UNICAST_OUTAGE, cfg, (2, 3),
                   SimulationPlan(10_000, seed=4))
    assert est.value == 1.0


def _oracle_estimates(metrics, cfg, m, k, plan):
    """Estimates from the channel-matrix oracle's gains through the same kernel."""
    gains = full_matrix_gains(m, k, plan.scheduling, plan.oma_beamformer,
                              plan.seed, plan.samples)
    n, [sums], [sumsqs] = _gain_moments([cfg], *gains)
    sums, sumsqs = dict(zip(_FIELDS, sums)), dict(zip(_FIELDS, sumsqs))
    return {metric: _metric_estimate(metric, cfg, n, sums, sumsqs)
            for metric in metrics}


def test_full_and_direct_modes_agree():
    metrics = (MetricKind.UNICAST_OUTAGE, MetricKind.MEAN_NOMA_SECRECY_RATE)
    plan = SimulationPlan(100_000, seed=5)
    direct = estimate_many(metrics, CFG, (3, 6), plan)
    full = _oracle_estimates(metrics, CFG, 3, 6, plan)
    for m in metrics:
        combined = math.hypot(direct[m].stderr, full[m].stderr)
        assert abs(direct[m].value - full[m].value) <= 3 * combined


@pytest.mark.parametrize("plan", [
    SimulationPlan(100_000, seed=51, scheduling=True),
    SimulationPlan(100_000, seed=52, oma_beamformer=EQUAL_GAIN),
    SimulationPlan(100_000, seed=53, scheduling=True, oma_beamformer=RANDOM),
], ids=["sched", "equal", "sched_random"])
def test_metrics_match_full_matrix_oracle(plan):
    metrics = (MetricKind.UNICAST_OUTAGE, MetricKind.UNICAST_OUTAGE_OMA,
               MetricKind.SECRECY_OUTAGE_OMA, MetricKind.MEAN_OMA_SECRECY_RATE,
               MetricKind.NOMA_TRAILS_OMA)
    engine = estimate_many(metrics, CFG, (3, 6), plan)
    oracle = _oracle_estimates(metrics, CFG, 3, 6, plan)
    for m in metrics:
        combined = math.hypot(engine[m].stderr, oracle[m].stderr)
        assert abs(engine[m].value - oracle[m].value) <= 4 * combined, m


def test_stderr_scales_with_samples():
    a = estimate(MetricKind.UNICAST_OUTAGE, CFG, (2, 11),
                 SimulationPlan(50_000, seed=6))
    b = estimate(MetricKind.UNICAST_OUTAGE, CFG, (2, 11),
                 SimulationPlan(100_000, seed=6))
    assert a.stderr / b.stderr == pytest.approx(math.sqrt(2.0), rel=0.10)


def test_probability_interval_clamped():
    cfg = LinkConfig(rho=10.0 ** -3, r_m=1.0, r_u=6.0)
    est = estimate(MetricKind.UNICAST_OUTAGE, cfg, (2, 3),
                   SimulationPlan(500, seed=7))
    assert 0.0 <= est.ci_low <= est.value <= est.ci_high <= 1.0


def test_outage_rate_metric_transform():
    plan = SimulationPlan(50_000, seed=8)
    got = estimate_many((MetricKind.UNICAST_OUTAGE, MetricKind.OUTAGE_RATE_UNICAST),
                        CFG, (10, 11), plan)
    prob = got[MetricKind.UNICAST_OUTAGE]
    rate = got[MetricKind.OUTAGE_RATE_UNICAST]
    assert rate.value == pytest.approx((1.0 - prob.value) * CFG.r_u, rel=1e-12)
    assert rate.stderr == pytest.approx(prob.stderr * CFG.r_u, rel=1e-12)


def test_outage_rate_secrecy_needs_target():
    cfg = LinkConfig(rho=10.0, r_m=1.0, r_u=6.0, r_s=0.0)
    with pytest.raises(ValueError, match="positive"):
        estimate(MetricKind.OUTAGE_RATE_SECRECY, cfg, (2, 3),
                 SimulationPlan(100, seed=9))


def test_sweep_single_point_reduces_to_estimate():
    plan = SimulationPlan(20_000, seed=10)
    [(snr, via_sweep)] = sweep(MetricKind.UNICAST_OUTAGE, CFG, [16.0], (10, 11), plan)
    direct = estimate(MetricKind.UNICAST_OUTAGE, CFG, (10, 11), plan)
    assert snr == 16.0 and via_sweep.value == direct.value


def test_sweep_outage_nonincreasing():
    plan = SimulationPlan(40_000, seed=11)
    points = sweep(MetricKind.UNICAST_OUTAGE, CFG, range(0, 44, 4), (2, 11), plan)
    for (_, lo), (_, hi) in zip(points[1:], points[:-1]):
        assert lo.value <= hi.value + 3 * math.hypot(lo.stderr, hi.stderr)


def test_sweep_outage_exactly_nonincreasing():
    """Every grid point reuses the same windows and a realization's outage
    indicators never increase with the SNR, so the curves are monotone exactly."""
    plan = SimulationPlan(40_000, seed=11)
    for metric in (MetricKind.MULTICAST_OUTAGE, MetricKind.UNICAST_OUTAGE):
        points = sweep(metric, CFG, range(0, 44, 4), (2, 11), plan)
        for (_, lo), (_, hi) in zip(points[1:], points[:-1]):
            assert lo.value <= hi.value, metric


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("plan", [
    SimulationPlan(70_000, seed=31),
    SimulationPlan(70_000, seed=32, scheduling=True),
    SimulationPlan(70_000, seed=33, oma_beamformer=EQUAL_GAIN),
], ids=["mrt", "sched", "equal"])
def test_grid_points_equal_single_point_estimates(plan, workers):
    """A grid run evaluates every point on windows [0, samples), bit for bit
    what a single-point run at stream_base 0 gives (70k samples: two chunks)."""
    plan = replace(plan, workers=workers)
    metrics = list(MetricKind)
    cfgs = [replace(CFG, rho=10.0 ** (db / 10.0)) for db in (4.0, 16.0, 28.0)]
    grid = estimate_many(metrics, cfgs, (3, 5), plan, stream_base=0)
    assert len(grid) == len(cfgs)
    for cfg, point in zip(cfgs, grid):
        assert point == estimate_many(metrics, cfg, (3, 5), plan, stream_base=0)


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep(MetricKind.UNICAST_OUTAGE, CFG, [], (2, 11), SimulationPlan(10, seed=1))


def test_scheduling_invariant_holds():
    plan = SimulationPlan(20_000, seed=12, scheduling=True)
    assert scheduling_check(CFG, (3, 5), plan).value == 1.0


def test_no_scheduling_sometimes_trails():
    plan = SimulationPlan(20_000, seed=13)
    assert scheduling_check(CFG, (3, 5), plan).value < 1.0


def test_secrecy_comparison_all_multicast_regime():
    cfg = LinkConfig(rho=10.0 ** -3, r_m=1.0, r_u=6.0)
    cmp = compare_secrecy_rates(cfg, (2, 5), SimulationPlan(5_000, seed=14))
    assert cmp.mean_gap.value == 0.0
    assert cmp.violation_fraction.value == 0.0


def test_secrecy_comparison_gap_nonnegative_at_high_snr():
    cfg = LinkConfig(rho=1.0, r_m=1.0, r_u=6.0)
    for snr_db in (10.0, 20.0, 30.0):
        cmp = compare_secrecy_rates(replace(cfg, rho=10.0 ** (snr_db / 10.0)), (4, 6),
                                    SimulationPlan(100_000, seed=15))
        assert cmp.mean_gap.value >= -3 * cmp.mean_gap.stderr


def _decode_window(words, m, k, plan):
    """Gains of one realization from its raw window, one user at a time."""
    mrt = plan.oma_beamformer == MRT or m == 1
    if not plan.scheduling and mrt:
        e = bits_to_exponential(words)
        g = gains(e[:m].sum(), e[m:])
        return g, g
    if plan.scheduling:  # word i*k + j is term i of user j, then k phases
        e = bits_to_exponential(words[:k * m])
        users = [e[j:k * m:k] for j in range(k)]
        sel = max(range(k), key=lambda j: (float(users[j].sum()), -j))
        rest = [j for j in range(k) if j != sel]
        z1, a_sel = float(users[sel].sum()), float(users[sel][0])
        a = np.array([users[j][0] for j in rest])
        b = np.array([users[j][1] if m > 1 else 0.0 for j in rest])
        phase = (bits_to_uniform(words[k * m:])[rest] if not mrt else None)
    else:  # unicast user's m words, then a, b and phase of the k-1 others
        e = bits_to_exponential(words[:m + 2 * (k - 1)])
        z1, a_sel = float(e[:m].sum()), float(e[0])
        a, b = e[m:m + k - 1], e[m + k - 1:]
        phase = bits_to_uniform(words[m + 2 * (k - 1):])
    g = gains(z1, a)
    if mrt:
        return g, g
    c2 = a_sel / z1
    # OMA beam = c * (MRT direction) + s * (orthogonal direction)
    z = (math.sqrt(c2) * np.sqrt(a) * np.exp(2j * np.pi * phase)
         + math.sqrt(1.0 - c2) * np.sqrt(b))
    return g, gains(a_sel, np.abs(z) ** 2)


def _scalar_reference_moments(cfg, m, k, plan, lo, hi):
    """Recompute chunk moments realization by realization via the link oracle."""
    n = hi - lo
    mrt = plan.oma_beamformer == MRT or m == 1
    if not plan.scheduling and mrt:
        bits = window_bits(plan.seed, DOMAIN_DIRECT_GAINS, lo, n, m + k - 1)
    elif plan.scheduling:
        bits = window_bits(plan.seed, DOMAIN_GAINS, lo, n, k * m + (0 if mrt else k))
    else:
        bits = window_bits(plan.seed, DOMAIN_GAINS, lo, n, m + 3 * (k - 1))
    return _oracle_moments(cfg, (_decode_window(bits[i], m, k, plan) for i in range(n)))


def _oracle_moments(cfg, realizations):
    """Field sums and sums of squares over (g, g_oma) pairs from the link oracle."""
    sums = np.zeros(len(_FIELDS))
    sumsqs = np.zeros(len(_FIELDS))
    for g, g_oma in realizations:
        out = evaluate_link(g, cfg, g_oma)
        gap = out.noma_secrecy - out.oma_secrecy
        row = {
            "multicast_outage": out.multicast_outage,
            "unicast_outage": out.unicast_outage,
            "unicast_outage_oma": out.oma_unicast < cfg.r_u,
            "secrecy_outage": out.secrecy_outage,
            "secrecy_outage_oma": out.oma_secrecy <= cfg.r_s,
            "noma_trails_oma": out.noma_unicast <= out.oma_unicast + RATE_EQ_GUARD,
            "mean_noma_unicast_rate": out.noma_unicast,
            "mean_oma_unicast_rate": out.oma_unicast,
            "mean_noma_secrecy_rate": out.noma_secrecy,
            "mean_oma_secrecy_rate": out.oma_secrecy,
            "secrecy_gap": gap,
            "secrecy_violation": gap < -RATE_EQ_GUARD,
            "sched_ok": g.z1 >= g.u,
        }
        for j, name in enumerate(_FIELDS):
            x = float(row[name])
            sums[j] += x
            sumsqs[j] += x * x
    return sums, sumsqs


@pytest.mark.parametrize("plan", [
    SimulationPlan(150, seed=21),
    SimulationPlan(150, seed=22),
    SimulationPlan(150, seed=23, scheduling=True),
    SimulationPlan(150, seed=24, oma_beamformer=EQUAL_GAIN),
    SimulationPlan(150, seed=25, oma_beamformer=RANDOM, scheduling=True),
])
def test_batch_engine_matches_per_realization_api(plan):
    """The vectorized engine reproduces the per-realization link oracle."""
    m, k = 3, 5
    n, [sums], [sumsqs] = _chunk_moments(([CFG], m, k, plan, 0, 0, plan.samples))
    ref_sums, ref_sumsqs = _scalar_reference_moments(CFG, m, k, plan, 0, plan.samples)
    assert n == plan.samples
    assert np.allclose(sums, ref_sums, rtol=1e-10, atol=1e-12)
    assert np.allclose(sumsqs, ref_sumsqs, rtol=1e-10, atol=1e-12)


def test_gain_moments_match_link_oracle_when_any_gain_is_weakest():
    """All K gains i.i.d., so the unicast user's own gain is often the weakest
    (rare in the window plans above, where z1 ~ Gamma(M)).  At r_s = 0 about
    a fifth of the realizations are all-multicast, with no secrecy rate."""
    z = RngStream(43).exponential((2000, 5)) * 0.5
    z_oma = RngStream(44).exponential((2000, 5)) * 0.5
    for cfg in (CFG, replace(CFG, r_s=0.0)):
        n, [sums], [sumsqs] = _gain_moments([cfg], z[:, 0], z[:, 1:], z_oma[:, 0],
                                            z_oma[:, 1:])
        ref_sums, ref_sumsqs = _oracle_moments(
            cfg, ((gains(a[0], a[1:]), gains(b[0], b[1:])) for a, b in zip(z, z_oma)))
        assert np.allclose(sums, ref_sums, rtol=1e-10, atol=1e-12), cfg
        assert np.allclose(sumsqs, ref_sumsqs, rtol=1e-10, atol=1e-12), cfg


def test_every_metric_is_a_kernel_field_or_an_outage_rate_of_one():
    """Each metric has one definition: the kernel field of its name, or (1 - P)
    times a target where P is such a field."""
    for metric in MetricKind:
        source, attr = OUTAGE_RATE_OF.get(metric, (metric, None))
        assert source.value in _FIELDS and source not in OUTAGE_RATE_OF, metric
        assert (metric.value in _FIELDS) == (attr is None), metric
    checks = set(_FIELDS) - {metric.value for metric in MetricKind}
    assert checks == {"secrecy_gap", "secrecy_violation", "sched_ok"}


@settings(derandomize=True, deadline=None)
@given(z1=st.floats(1e-2, 100.0), others=st.lists(st.floats(1e-2, 100.0), min_size=1,
                                                  max_size=9),
       lo_db=st.floats(-40.0, 20.0), step_db=st.floats(0.05, 5.0),
       r_m=st.floats(0.1, 4.0), r_u=st.floats(0.1, 12.0))
def test_outage_indicators_nonincreasing_in_snr(z1, others, lo_db, step_db, r_m, r_u):
    """The multicast and NOMA unicast outage indicators of one realization do
    not increase along an SNR grid up to 80 dB, and 0 <= alpha_U^2 < 1/(1 + eps_m).

    With gains in [0.01, 100] both thresholds lie below 80 dB, so an indicator
    that starts at 1 falls to 0 inside the grid.  Bounded gains also keep the
    strict upper bound on alpha_U^2 from being lost to rounding.
    """
    z1, others = np.array([z1]), np.array([others])
    cfgs = [LinkConfig(10.0 ** (db / 10.0), r_m, r_u)
            for db in np.arange(lo_db, 80.0, step_db)]
    for cfg in cfgs:
        alpha_u2 = power_fraction(min(z1[0], others.min()), cfg)
        assert 0.0 <= alpha_u2 < 1.0 / (1.0 + cfg.eps_m)
    fields = [_FIELDS.index("multicast_outage"), _FIELDS.index("unicast_outage")]
    _, sums, _ = _gain_moments(cfgs, z1, others, z1, others)
    assert np.all(np.diff(sums[:, fields], axis=0) <= 0)


@settings(derandomize=True, deadline=None)
@given(others=st.lists(st.tuples(st.floats(1e-2, 10.0), st.floats(1e-2, 10.0)),
                       min_size=1, max_size=9),
       ratios=st.tuples(st.floats(0.25, 16.0), st.floats(0.25, 16.0)),
       same_beam=st.booleans(), lo_db=st.floats(-10.0, 20.0),
       step_db=st.floats(0.05, 5.0), r_m=st.floats(0.1, 4.0),
       r_u=st.floats(0.1, 12.0), r_s=st.floats(0.0, 4.0))
def test_secrecy_outage_indicators_nonincreasing_in_snr(others, ratios, same_beam, lo_db,
                                                         step_db, r_m, r_u, r_s):
    """For every r_s >= 0 the NOMA and OMA secrecy outage indicators of one
    realization do not increase along an SNR grid up to 60 dB.

    z1 is a multiple of 2^r_s times the strongest other gain, so in about
    half the examples an indicator falls from 1 to 0 inside the grid.  The
    OMA secrecy rate is a difference of two rounded logs, so a step far below
    0.05 dB could flip an indicator sitting within an ulp of r_s.  At r_s = 0
    a realization with no positive secrecy rate (all power on the multicast
    layer, or z1 <= v) is an outage, as it is for r_s > 0.
    """
    others = np.array(others).T[:, None, :]  # (MRT, OMA beam) x 1 realization x K-1
    z1 = np.array(ratios)[:, None] * 2.0 ** r_s * others.max(axis=2)
    gains = (z1[0], others[0])
    gains_oma = gains if same_beam else (z1[1], others[1])  # same objects: the MRT path
    fields = [_FIELDS.index("secrecy_outage"), _FIELDS.index("secrecy_outage_oma")]
    cfgs = [LinkConfig(10.0 ** (db / 10.0), r_m, r_u, r_s)
            for db in np.arange(lo_db, 60.0, step_db)]
    _, sums, _ = _gain_moments(cfgs, *gains, *gains_oma)
    assert np.all(np.diff(sums[:, fields], axis=0) <= 0)


@settings(derandomize=True, deadline=None)
@given(others=st.lists(st.floats(1e-3, 100.0), min_size=1, max_size=9),
       excess=st.floats(0.0, 100.0), lo_db=st.floats(-10.0, 20.0),
       r_m=st.floats(0.1, 4.0), r_u=st.floats(0.1, 12.0))
def test_noma_unicast_rate_not_below_oma_when_unicast_user_is_not_weakest(
        others, excess, lo_db, r_m, r_u):
    """Under one beam, z1 >= u gives a NOMA unicast rate at least the OMA one,
    up to RATE_EQ_GUARD: at z1 = u the two are equal in exact arithmetic."""
    others = np.array([others])
    z1 = others.min(axis=1) * (1.0 + excess)
    cfgs = [LinkConfig(10.0 ** (db / 10.0), r_m, r_u)
            for db in np.arange(lo_db, 60.0, 2.5)]
    _, sums, _ = _gain_moments(cfgs, z1, others, z1, others)
    noma = sums[:, _FIELDS.index("mean_noma_unicast_rate")]
    oma = sums[:, _FIELDS.index("mean_oma_unicast_rate")]
    assert np.all(noma >= oma - RATE_EQ_GUARD)


def test_rejects_too_few_users():
    with pytest.raises(ValueError):
        estimate(MetricKind.UNICAST_OUTAGE, CFG, (2, 1), SimulationPlan(10, seed=1))

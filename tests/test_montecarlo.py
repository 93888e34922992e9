import gc
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from full_matrix_oracle import full_matrix_gains
from link_oracle import evaluate_link, gains, outage_events
from nomacast.montecarlo import (_BLOCK, _CHUNK, _KBLOCK, _PAIRED, EQUAL_GAIN, MRT,
                                 OUTAGE_RATE_OF, RANDOM, MetricKind, SimulationPlan,
                                 _chunk_moments, _FIELD_OF, _field_estimates,
                                 _gain_moments, _Outcomes, _RHO_STAR, _sample_gains,
                                 derive_estimate, estimate_many, gain_law, source_metric)
from nomacast.rng import DOMAIN_GAIN_STATS, DOMAIN_GAINS
from nomacast.transmission import RATE_EQ_GUARD, LinkConfig, power_fraction
from rng_stream import RngStream, bits_to_exponential, bits_to_uniform, window_bits
from window_oracle import law_of, sample_gains, window_gains

CFG = LinkConfig(rho=10.0 ** 1.6, r_m=1.0, r_u=6.0, r_s=2.0)
_FIELDS = (*_FIELD_OF, *_RHO_STAR)  # every kernel field, of either table


def _field_value(name, outcomes):
    """A field's per-realization value, from whichever of the two tables holds it."""
    if name in _RHO_STAR:
        rho_star, holds = _RHO_STAR[name]
        return holds(rho_star(outcomes), outcomes.cfg.rho)
    return _FIELD_OF[name](outcomes)


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
    """Unscheduled MRT keeps its (z1, u, v) window layout, value for value."""
    metrics = (MetricKind.UNICAST_OUTAGE, MetricKind.SECRECY_OUTAGE,
               MetricKind.MEAN_OMA_SECRECY_RATE)
    [got] = estimate_many(metrics, [CFG], (10, 11), SimulationPlan(70_000, seed=2024),
                          stream_base=3)
    assert got[MetricKind.UNICAST_OUTAGE].value == 0.3361857142857143
    assert got[MetricKind.UNICAST_OUTAGE].stderr == 0.0017855294049311868
    assert got[MetricKind.SECRECY_OUTAGE].value == 0.7105428571428571
    assert got[MetricKind.SECRECY_OUTAGE].stderr == 0.0017141205304983475
    assert got[MetricKind.MEAN_OMA_SECRECY_RATE].value == 0.7029997122055395
    assert got[MetricKind.MEAN_OMA_SECRECY_RATE].stderr == 0.0022185283676161545


def test_estimate_deterministic_and_worker_independent():
    """Same seed gives bit-identical results for any worker count."""
    plan1 = SimulationPlan(70_000, seed=99, workers=1)
    plan2 = SimulationPlan(70_000, seed=99, workers=2)
    metric = MetricKind.UNICAST_OUTAGE
    a = estimate_many([metric], [CFG], (10, 11), plan1)[0][metric]
    b = estimate_many([metric], [CFG], (10, 11), plan2)[0][metric]
    assert a.value == b.value and a.stderr == b.stderr


def test_multicast_outage_closed_form():
    cfg = LinkConfig(rho=10.0, r_m=1.0, r_u=1.0)
    metric = MetricKind.MULTICAST_OUTAGE
    est = estimate_many([metric], [cfg], (1, 2), SimulationPlan(1_000_000, seed=3))[0][metric]
    expected = 1.0 - math.exp(-0.2)
    assert abs(est.value - expected) <= 3 * est.stderr


def test_multicast_outage_closed_form_large_system():
    """Closed form vs a 10^7-draw run at the 16 dB operating point."""
    from nomacast.analysis import multicast_outage_prob
    metric = MetricKind.MULTICAST_OUTAGE
    est = estimate_many([metric], [CFG], (10, 11),
                        SimulationPlan(10_000_000, seed=16, workers=2))[0][metric]
    analytic = multicast_outage_prob(10, 11, CFG)
    assert abs(est.value - analytic) <= 3 * est.stderr


def test_unicast_outage_certain_at_tiny_snr():
    cfg = LinkConfig(rho=10.0 ** -3, r_m=1.0, r_u=6.0)
    metric = MetricKind.UNICAST_OUTAGE
    est = estimate_many([metric], [cfg], (2, 3), SimulationPlan(10_000, seed=4))[0][metric]
    assert est.value == 1.0


def _oracle_estimates(metrics, cfg, m, k, plan):
    """Estimates from the channel-matrix oracle's gains through the same kernel."""
    gains = full_matrix_gains(m, k, plan.scheduling, plan.oma_beamformer,
                              plan.seed, plan.samples)
    n, [sums], [sumsqs] = _gain_moments([cfg], _FIELDS, *gains)
    est = _field_estimates(_FIELDS, n, sums, sumsqs)
    return {metric: derive_estimate(metric, cfg, est[source_metric(metric).value])
            for metric in metrics}


def test_full_and_direct_modes_agree():
    metrics = (MetricKind.UNICAST_OUTAGE, MetricKind.MEAN_NOMA_SECRECY_RATE)
    plan = SimulationPlan(100_000, seed=5)
    [direct] = estimate_many(metrics, [CFG], (3, 6), plan)
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
    [engine] = estimate_many(metrics, [CFG], (3, 6), plan)
    oracle = _oracle_estimates(metrics, CFG, 3, 6, plan)
    for m in metrics:
        combined = math.hypot(engine[m].stderr, oracle[m].stderr)
        assert abs(engine[m].value - oracle[m].value) <= 4 * combined, m


def test_stderr_scales_with_samples():
    metric = MetricKind.UNICAST_OUTAGE
    a = estimate_many([metric], [CFG], (2, 11), SimulationPlan(50_000, seed=6))[0][metric]
    b = estimate_many([metric], [CFG], (2, 11), SimulationPlan(100_000, seed=6))[0][metric]
    assert a.stderr / b.stderr == pytest.approx(math.sqrt(2.0), rel=0.10)


def test_probability_interval_clamped():
    cfg = LinkConfig(rho=10.0 ** -3, r_m=1.0, r_u=6.0)
    metric = MetricKind.UNICAST_OUTAGE
    est = estimate_many([metric], [cfg], (2, 3), SimulationPlan(500, seed=7))[0][metric]
    assert 0.0 <= est.ci_low <= est.value <= est.ci_high <= 1.0


def test_outage_rate_metric_transform():
    plan = SimulationPlan(50_000, seed=8)
    [got] = estimate_many((MetricKind.UNICAST_OUTAGE, MetricKind.OUTAGE_RATE_UNICAST),
                          [CFG], (10, 11), plan)
    prob = got[MetricKind.UNICAST_OUTAGE]
    rate = got[MetricKind.OUTAGE_RATE_UNICAST]
    assert rate.value == pytest.approx((1.0 - prob.value) * CFG.r_u, rel=1e-12)
    assert rate.stderr == pytest.approx(prob.stderr * CFG.r_u, rel=1e-12)


def test_outage_rate_secrecy_needs_target():
    cfg = LinkConfig(rho=10.0, r_m=1.0, r_u=6.0, r_s=0.0)
    metric = MetricKind.OUTAGE_RATE_SECRECY
    with pytest.raises(ValueError, match="positive"):
        estimate_many([metric], [cfg], (2, 3), SimulationPlan(100, seed=9))[0][metric]


# the SNR grid 0, 4, ..., 40 dB on CFG's rate targets
SWEEP_CFGS = [replace(CFG, rho=10.0 ** (snr_db / 10.0)) for snr_db in range(0, 44, 4)]


def test_sweep_outage_nonincreasing():
    plan = SimulationPlan(40_000, seed=11)
    metric = MetricKind.UNICAST_OUTAGE
    points = [est[metric] for est in estimate_many([metric], SWEEP_CFGS, (2, 11), plan)]
    for lo, hi in zip(points[1:], points[:-1]):
        assert lo.value <= hi.value + 3 * math.hypot(lo.stderr, hi.stderr)


def test_sweep_outage_exactly_nonincreasing():
    """Every grid point reuses the same windows and a realization's outage
    indicators never increase with the SNR, so the curves are monotone exactly."""
    plan = SimulationPlan(40_000, seed=11)
    for metric in (MetricKind.MULTICAST_OUTAGE, MetricKind.UNICAST_OUTAGE):
        points = [est[metric] for est in estimate_many([metric], SWEEP_CFGS, (2, 11), plan)]
        for lo, hi in zip(points[1:], points[:-1]):
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
        assert [point] == estimate_many(metrics, [cfg], (3, 5), plan, stream_base=0)


def test_scheduling_invariant_holds():
    z1, u, *_ = sample_gains(3, 5, law_of("scheduled", 3, 5), 12, 0, 20_000)
    assert np.mean(z1 >= u) == 1.0


def test_no_scheduling_sometimes_trails():
    z1, u, *_ = sample_gains(3, 5, law_of("mrt", 3, 5), 13, 0, 20_000)
    assert np.mean(z1 >= u) < 1.0


SECRECY_CHECKS = (MetricKind.SECRECY_VIOLATION, MetricKind.MEAN_SECRECY_GAP)


def test_secrecy_comparison_all_multicast_regime():
    cfg = LinkConfig(rho=10.0 ** -3, r_m=1.0, r_u=6.0)
    [got] = estimate_many(SECRECY_CHECKS, [cfg], (2, 5), SimulationPlan(5_000, seed=14))
    assert got[MetricKind.MEAN_SECRECY_GAP].value == 0.0
    assert got[MetricKind.SECRECY_VIOLATION].value == 0.0


def test_secrecy_comparison_gap_nonnegative_at_high_snr():
    cfg = LinkConfig(rho=1.0, r_m=1.0, r_u=6.0)
    for snr_db in (10.0, 20.0, 30.0):
        [got] = estimate_many(SECRECY_CHECKS, [replace(cfg, rho=10.0 ** (snr_db / 10.0))],
                              (4, 6), SimulationPlan(100_000, seed=15))
        gap = got[MetricKind.MEAN_SECRECY_GAP]
        assert gap.value >= -3 * gap.stderr


def _decode_window(words, m, k, plan):
    """Gains of one realization from its raw window, one user at a time."""
    mrt = plan.oma_beamformer == MRT or m == 1
    if not plan.scheduling and mrt:  # z1's m uniforms, then the words of u and v
        *z, w_u, w_v = (float(x) for x in bits_to_uniform(words))
        z1 = -sum(math.log(math.prod(z[i:i + 18])) for i in range(0, m, 18))
        u = -math.log(w_u) / (k - 1)
        v = u - math.log1p(-w_v ** (1.0 / (k - 2))) if k > 2 else u
        g = gains(z1, (u, v))  # every metric reads only the smallest and largest other
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
        bits = window_bits(plan.seed, DOMAIN_GAIN_STATS, lo, n, m + 2)
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
            "mean_secrecy_gap": gap,
            "secrecy_violation": gap < -RATE_EQ_GUARD,
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
    # every metric, so the joint law where the beams differ
    law = gain_law(list(MetricKind), m, k, plan.scheduling, plan.oma_beamformer)
    n, [sums], [sumsqs] = _chunk_moments(([CFG], _FIELDS, m, k, law, plan.seed, 0, plan.samples))
    ref_sums, ref_sumsqs = _scalar_reference_moments(CFG, m, k, plan, 0, plan.samples)
    assert n == plan.samples
    assert np.allclose(sums, ref_sums, rtol=1e-10, atol=1e-12)
    assert np.allclose(sumsqs, ref_sumsqs, rtol=1e-10, atol=1e-12)


def _stats(z):
    """(z1, u, v) of an (n, K) array whose first column is the unicast user's."""
    return z[:, 0], z[:, 1:].min(axis=1), z[:, 1:].max(axis=1)


def test_gain_moments_match_link_oracle_when_any_gain_is_weakest():
    """All K gains i.i.d., so the unicast user's own gain is often the weakest
    (rare in the window plans above, where z1 ~ Gamma(M)).  At r_s = 0 about
    a fifth of the realizations are all-multicast, with no secrecy rate."""
    z = RngStream(43).exponential((2000, 5)) * 0.5
    z_oma = RngStream(44).exponential((2000, 5)) * 0.5
    for cfg in (CFG, replace(CFG, r_s=0.0)):
        n, [sums], [sumsqs] = _gain_moments([cfg], _FIELDS, *_stats(z), *_stats(z_oma))
        ref_sums, ref_sumsqs = _oracle_moments(
            cfg, ((gains(a[0], a[1:]), gains(b[0], b[1:])) for a, b in zip(z, z_oma)))
        assert np.allclose(sums, ref_sums, rtol=1e-10, atol=1e-12), cfg
        assert np.allclose(sumsqs, ref_sumsqs, rtol=1e-10, atol=1e-12), cfg


def test_every_metric_is_a_kernel_field_or_an_outage_rate_of_one():
    """Each metric has one definition: the kernel field of its name, or (1 - P)
    times a target where P is such a field.  Every kernel field is a metric's."""
    for metric in MetricKind:
        source, attr = OUTAGE_RATE_OF.get(metric, (metric, None))
        assert source.value in _FIELDS and source not in OUTAGE_RATE_OF, metric
        assert (metric.value in _FIELDS) == (attr is None), metric
    assert set(_FIELDS) == {source_metric(metric).value for metric in MetricKind}


@pytest.mark.parametrize("plan", [
    SimulationPlan(2000, seed=65),
    SimulationPlan(2000, seed=66, scheduling=True, oma_beamformer=RANDOM),
], ids=["same_beam", "two_beams"])
def test_a_field_is_an_indicator_exactly_when_its_name_lacks_mean(plan):
    """The reduction to estimates tells a probability from a mean by the field
    name alone (see _field_estimates), so the kernel must give a boolean per
    realization for every field but a ``mean_*`` one."""
    law = gain_law((), 3, 5, plan.scheduling, plan.oma_beamformer)
    z1, u, v, z1_oma, u_oma, v_oma = sample_gains(3, 5, law, plan.seed, 0, plan.samples)
    for cfg in (CFG, replace(CFG, rho=1e4, r_s=0.0)):
        outcomes = _Outcomes(cfg, z1, v, z1_oma, v_oma, np.minimum(z1, u),
                             np.minimum(z1_oma, u_oma))
        for name in _FIELDS:
            x = _field_value(name, outcomes)
            assert x.shape == (plan.samples,), name
            assert (x.dtype == bool) == (not name.startswith("mean_")), name


@pytest.mark.parametrize("plan", [
    SimulationPlan(3000, seed=61),
    SimulationPlan(3000, seed=62, scheduling=True, oma_beamformer=RANDOM),
], ids=["same_beam", "two_beams"])
def test_requested_fields_equal_the_all_fields_evaluation(plan):
    """The fields each metric reads, alone and in a pair, come out exactly as
    they do when the kernel evaluates every field on the same gains."""
    law = gain_law((), 3, 5, plan.scheduling, plan.oma_beamformer)
    gains = sample_gains(3, 5, law, plan.seed, 0, plan.samples)
    cfgs = [replace(CFG, rho=10.0 ** (db / 10.0)) for db in (0.0, 16.0, 40.0)]
    _, all_sums, all_sumsqs = _gain_moments(cfgs, _FIELDS, *gains)
    sets = [(source_metric(metric).value,) for metric in MetricKind]
    for fields in sets + [("secrecy_violation", "mean_secrecy_gap")]:
        n, sums, sumsqs = _gain_moments(cfgs, fields, *gains)
        columns = [_FIELDS.index(name) for name in fields]
        assert n == plan.samples
        assert np.array_equal(sums, all_sums[:, columns]), fields
        assert np.array_equal(sumsqs, all_sumsqs[:, columns]), fields


@pytest.mark.parametrize("plan", [
    SimulationPlan(3000, seed=63),
    SimulationPlan(3000, seed=64, scheduling=True, oma_beamformer=EQUAL_GAIN),
], ids=["same_beam", "two_beams"])
def test_chunk_moments_leave_no_reference_cycles(plan):
    """A chunk's arrays are freed by reference counting alone: with the cyclic
    collector off during the call, it has nothing to collect afterwards."""
    law = gain_law(list(MetricKind), 3, 5, plan.scheduling, plan.oma_beamformer)
    gc.collect()
    gc.disable()
    try:
        _chunk_moments(([CFG, replace(CFG, rho=1e3)], _FIELDS, 3, 5, law, plan.seed, 0,
                        plan.samples))
    finally:
        gc.enable()
    assert gc.collect() == 0


_BLOCK_CFGS = [replace(CFG, rho=10.0 ** (db / 10.0)) for db in (0.0, 16.0, 40.0)] + [
    replace(CFG, rho=1e3, r_s=0.0)]
_ACROSS_BLOCKS = 3 * _BLOCK + 77  # three whole blocks and a partial one


# m1_random, an M = 1 run with a random OMA beam, draws the MRT law (see gain_law)
@pytest.mark.parametrize("system, name, seed, n", [
    ((10, 11), "mrt", 71, _ACROSS_BLOCKS),
    ((40, 11), "mrt", 72, _ACROSS_BLOCKS),
    ((3, 2), "mrt", 73, _ACROSS_BLOCKS),
    ((1, 5), "mrt", 74, _ACROSS_BLOCKS),
    ((2, 11), "scheduled", 75, _ACROSS_BLOCKS),
    ((3, 5), "scheduled_joint", 76, _ACROSS_BLOCKS),
    ((10, 11), "joint", 77, _ACROSS_BLOCKS),
    ((10, 11), "scheduled_joint", 78, 300),
    ((10, 11), "split", 82, _ACROSS_BLOCKS),
    ((40, 2), "split", 83, 300),
], ids=["mrt", "mrt_m40", "k2", "m1_random", "sched", "sched_equal", "random",
        "below_one_block", "split", "split_m40_k2"])
def test_blocked_chunk_equals_one_whole_range_draw(system, name, seed, n):
    """A chunk drawn in _BLOCK-window blocks gives every field's sums and squares
    bit for bit as one draw of its whole window range, from a nonzero first
    window, so the float sums of the ``mean_*`` fields are pinned too."""
    m, k = system
    law, first = law_of(name, m, k), 1005
    blocked = _chunk_moments((_BLOCK_CFGS, _FIELDS, m, k, law, seed, first, n))
    n_whole, sums, sumsqs = _gain_moments(_BLOCK_CFGS, _FIELDS,
                                          *sample_gains(m, k, law, seed, first, n))
    assert blocked[0] == n_whole == n
    assert np.array_equal(blocked[1], sums) and np.array_equal(blocked[2], sumsqs)


def test_chunk_sampling_memory_stays_blocked():
    """One fig5_sched-shaped chunk (M = 10, K = 11, scheduled MRT, 2^16
    windows) peaks near 8.6 MB when drawn in blocks of 2^11 windows, 14 MB in
    blocks of 2^12 and 174 MB when drawn whole, where each of the sampler's
    arrays of 110 words per window is 58 MB."""
    import tracemalloc
    cfgs = [replace(CFG, rho=10.0 ** (db / 10.0)) for db in (20.0, 24.0, 28.0)]
    tracemalloc.start()
    try:
        _chunk_moments((cfgs, ("unicast_outage", "secrecy_outage"), 10, 11,
                        law_of("scheduled", 10, 11), 79, 0, _CHUNK))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


_INDICATORS = tuple(name for name in _FIELDS if not name.startswith("mean_"))


@pytest.mark.parametrize("n", [_KBLOCK + 3 * _BLOCK + 77, 300],
                         ids=["across_kernel_blocks", "below_one_block"])
@pytest.mark.parametrize("system, name, seed", [
    ((10, 11), "mrt", 71),
    ((40, 11), "mrt", 72),
    ((3, 2), "mrt", 73),
    ((1, 5), "mrt", 74),
    ((2, 11), "scheduled", 75),
    ((3, 5), "scheduled_joint", 76),
    ((10, 11), "joint", 77),
    ((10, 11), "scheduled_joint", 78),
    ((10, 11), "scheduled", 80),
    ((10, 11), "split", 84),
    ((40, 11), "split", 85),
    ((2, 2), "split", 86),
], ids=["mrt", "mrt_m40", "k2", "m1_random", "sched", "sched_equal", "random",
        "sched_random", "fig5_sched", "split", "split_m40", "split_k2"])
def test_sampler_matches_the_window_oracle(system, name, seed, n):
    """The one pass from Philox to the gains (one generator and one reused
    workspace per call, uniforms and exponentials made in place) gives the
    six gains of window_bits' words bit for bit, whether drawn as one block
    or in _KBLOCK-window kernel blocks, and _chunk_moments gives the kernel's
    sums and squares over the oracle's gains: from a nonzero first window,
    over a range that is not a multiple of _KBLOCK and over one below
    _BLOCK, for indicator fields alone (summed per kernel block) and with
    the ``mean_*`` fields (one block per chunk), under each of the five laws."""
    m, k = system
    law, first = law_of(name, m, k), 1005
    expected = [np.asarray(g) for g in window_gains(m, k, law, seed, first, n)]
    kernel_blocks = np.concatenate(
        [g.copy() for g in _sample_gains(m, k, law, seed, first, n, _KBLOCK)], axis=1)
    for drawn in (sample_gains(m, k, law, seed, first, n), kernel_blocks):
        for got, want in zip(drawn, expected):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for fields in (_INDICATORS, _FIELDS):
        chunk = _chunk_moments((_BLOCK_CFGS, fields, m, k, law, seed, first, n))
        whole = _gain_moments(_BLOCK_CFGS, fields, *expected)
        assert chunk[0] == whole[0] == n
        assert np.array_equal(chunk[1], whole[1]) and np.array_equal(chunk[2], whole[2])


@pytest.mark.parametrize("scheduling, step_db, metrics, bound", [
    (False, 4, ("unicast_outage", "unicast_outage_oma"), 2_000_000),
    (True, 5, ("secrecy_outage", "secrecy_outage_oma"), 4_000_000),
], ids=["fig1", "fig5_sched"])
def test_chunk_peak_memory_is_a_few_blocks(scheduling, step_db, metrics, bound):
    """One 2^16-window chunk shaped as a preset's (M = 10, K = 11; fig1: 11 SNR
    points, unscheduled MRT; fig5_sched: 9 points, scheduled, 110 words per
    window) peaks near 1.1 and 2.8 MB of traced allocations: one workspace of
    _BLOCK windows and kernel arrays of _KBLOCK windows.  Reduced over the
    whole chunk at once it peaked at 6.9 and 8.6 MB."""
    import tracemalloc
    plan = SimulationPlan(_CHUNK, seed=81, scheduling=scheduling)
    cfgs = [LinkConfig(10.0 ** (db / 10.0), 1.0, 6.0, 0.0 if step_db == 4 else 2.0)
            for db in range(0, 41, step_db)]
    law = gain_law((), 10, 11, plan.scheduling, plan.oma_beamformer)
    tracemalloc.start()
    try:
        _chunk_moments((cfgs, metrics, 10, 11, law, plan.seed, 0, _CHUNK))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


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
    Each indicator is one compare of rho against an SNR-free threshold
    (eps_m/g, rho*_U), so this holds by construction.
    """
    z1, others = np.array([z1]), np.array([others])
    cfgs = [LinkConfig(10.0 ** (db / 10.0), r_m, r_u)
            for db in np.arange(lo_db, 80.0, step_db)]
    for cfg in cfgs:
        alpha_u2 = power_fraction(min(z1[0], others.min()), cfg)
        assert 0.0 <= alpha_u2 < 1.0 / (1.0 + cfg.eps_m)
    gains = (z1, others.min(axis=1), others.max(axis=1))
    _, sums, _ = _gain_moments(cfgs, ("multicast_outage", "unicast_outage"), *gains, *gains)
    assert np.all(np.diff(sums, axis=0) <= 0)


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
    The NOMA indicator is one compare of rho against rho*_S: it holds by construction.
    """
    others = np.array(others).T[:, None, :]  # (MRT, OMA beam) x 1 realization x K-1
    z1 = np.array(ratios)[:, None] * 2.0 ** r_s * others.max(axis=2)
    gains, gains_oma = ((z1[i], others[i].min(axis=1), others[i].max(axis=1))
                        for i in (0, 1))
    if same_beam:
        gains_oma = gains  # the same objects: the MRT path
    cfgs = [LinkConfig(10.0 ** (db / 10.0), r_m, r_u, r_s)
            for db in np.arange(lo_db, 60.0, step_db)]
    _, sums, _ = _gain_moments(cfgs, ("secrecy_outage", "secrecy_outage_oma"), *gains,
                               *gains_oma)
    assert np.all(np.diff(sums, axis=0) <= 0)


def _predicate_counts(cfgs, z1, u, v):
    """(configs, 2) counts of the NOMA unicast and secrecy outage predicates at
    every config, as the kernel evaluated them before their critical SNRs: from
    alpha_U^2 of power_fraction at each point."""
    g = np.minimum(z1, u)
    counts = np.empty((len(cfgs), 2))
    for p, cfg in enumerate(cfgs):
        alpha_u2 = power_fraction(g, cfg)
        counts[p] = (np.count_nonzero(z1 * alpha_u2 < cfg.eps_u / cfg.rho),
                     np.count_nonzero((z1 - 2.0**cfg.r_s * v) * alpha_u2 <= cfg.eps_s / cfg.rho))
    return counts


_ORACLE_EVENTS = ("multicast_outage", "unicast_outage", "secrecy_outage")  # of outage_events
_DENSE_DB = np.arange(0.0, 40.05, 0.1).tolist()  # 0:40:0.1, 401 points


@pytest.mark.parametrize("name, seed", [("mrt", 91), ("split", 92), ("joint", 93),
                                        ("scheduled", 94), ("scheduled_joint", 95)])
def test_critical_snr_counts_equal_the_rate_predicate_counts(name, seed):
    """On 2^18 windows of each law at M = 10, K = 11, the counts of rho < rho*_U
    and rho <= rho*_S equal those of the per-point predicates they replaced, at
    every preset's grid and targets and on a 401-point grid: sums and squares alike."""
    law, fields = law_of(name, 10, 11), ("unicast_outage", "secrecy_outage")
    cfgs = [LinkConfig(10.0 ** (db / 10.0), 1.0, r_u, r_s)
            for grid, r_u, r_s in [(range(0, 41, 4), 6.0, 0.0), (range(0, 41, 4), 7.0, 0.0),
                                   (range(0, 41, 5), 6.0, 1.0), (range(0, 41, 5), 6.0, 2.0),
                                   (range(0, 41, 5), 6.0, 3.0), (_DENSE_DB, 6.0, 2.0)]
            for db in grid]
    for block in _sample_gains(10, 11, law, seed, 0, 1 << 18, _KBLOCK):
        _, sums, sumsqs = _gain_moments(cfgs, fields, *block)
        expected = _predicate_counts(cfgs, *block[:3])
        assert np.array_equal(sums, expected) and np.array_equal(sumsqs, expected)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(z1=st.floats(1e-2, 100.0), others=st.lists(st.floats(1e-2, 100.0), min_size=1,
                                                  max_size=9),
       r_m=st.floats(0.1, 4.0), r_u=st.floats(0.1, 12.0), r_s=st.floats(0.0, 4.0),
       ulps=st.integers(1, 4))
def test_critical_snr_counts_agree_with_the_link_oracle_near_a_tie(z1, others, r_m, r_u,
                                                                   r_s, ulps):
    """Grid points placed within ``ulps`` ulps of each rho* on either side, and
    at relative distances 1e-11 to 1e-2 from it: wherever |rho - rho*| exceeds
    1e-12 rho*, each NOMA outage count of one realization equals the link
    oracle's indicator, whose alpha_U^2 is the minimum over all K users.
    Within an ulp the two roundings may disagree; nothing is asserted there."""
    stats = (np.array([z1]), np.array([min(others)]), np.array([max(others)]))
    gmin = np.minimum(stats[0], stats[1])
    outcomes = _Outcomes(LinkConfig(1.0, r_m, r_u, r_s), *stats[::2], *stats[::2], gmin, gmin)
    for name, (rho_star, _) in _RHO_STAR.items():
        star = float(rho_star(outcomes)[0])
        if not math.isfinite(star):  # z1 <= 2^r_s v: an outage at every SNR
            rhos = [1e-3, 1.0, 1e6]
        else:
            rhos = [star * (1.0 + sign * rel) for sign in (-1.0, 1.0)
                    for rel in (1e-11, 1e-6, 1e-2)]
            below = above = star
            for _ in range(ulps):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            rhos += [below, star, above]
        cfgs = [LinkConfig(rho, r_m, r_u, r_s) for rho in rhos]
        _, sums, _ = _gain_moments(cfgs, (name,), *stats, *stats)
        for cfg, [count] in zip(cfgs, sums):
            if not abs(cfg.rho - star) <= 1e-12 * star:  # also where rho* is infinite
                oracle = outage_events(gains(z1, others), cfg)[_ORACLE_EVENTS.index(name)]
                assert count == oracle, (name, cfg)


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
    gains = (z1, others.min(axis=1), others.max(axis=1))
    _, sums, _ = _gain_moments(cfgs, ("mean_noma_unicast_rate", "mean_oma_unicast_rate"),
                               *gains, *gains)
    noma, oma = sums.T
    assert np.all(noma >= oma - RATE_EQ_GUARD)


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(z1=st.floats(0.0, 100.0), u=st.floats(0.0, 100.0), spread=st.floats(0.0, 100.0),
       snr_db=st.floats(-10.0, 60.0), r_m=st.floats(0.05, 4.0), r_s=st.floats(0.0, 4.0))
def test_noma_dominates_oma_on_every_realization_under_mrt(z1, u, spread, snr_db, r_m, r_s):
    """The pathwise theorem (README): under MRT, with g = min(z1, u) above
    eps_m/rho, NOMA minus OMA rate at gain x is 0 at x = g and never decreases
    in x >= g.  So no realization has a NOMA secrecy rate below OMA's, and NOMA
    trails OMA wherever g <= eps_m/rho (both rates are 0) or z1 <= u (equal
    rates).  Only that direction is asserted: near z1 = u the NOMA gap falls
    below RATE_EQ_GUARD, which counts as trailing too."""
    cfg = LinkConfig(10.0 ** (snr_db / 10.0), r_m, 1.0, r_s)
    z1, u, v = np.array([z1]), np.array([u]), np.array([u + spread])
    gmin = np.minimum(z1, u)
    outcomes = _Outcomes(cfg, z1, v, z1, v, gmin, gmin)  # the OMA beam is the MRT one
    assert not _FIELD_OF["secrecy_violation"](outcomes).any()
    if gmin[0] <= cfg.eps_m / cfg.rho or z1[0] <= u[0]:
        assert _FIELD_OF["noma_trails_oma"](outcomes).all()


def test_pool_starts_at_most_one_worker_per_chunk(monkeypatch):
    """A fork-based pool starts every worker it is allowed at its first task,
    so a run of two chunks asks for two workers however many the plan allows."""
    import nomacast.montecarlo as montecarlo
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

        def shutdown(self):
            pass
    monkeypatch.setattr(montecarlo.futures, "ProcessPoolExecutor", SerialPool)
    metrics = (MetricKind.UNICAST_OUTAGE, MetricKind.MEAN_OMA_SECRECY_RATE)
    samples = montecarlo._CHUNK + 5000  # two chunks
    pooled = estimate_many(metrics, [CFG], (10, 11), SimulationPlan(samples, 12, workers=64))
    serial = estimate_many(metrics, [CFG], (10, 11), SimulationPlan(samples, 12, workers=1))
    assert asked == [2] and pooled == serial


def test_pool_holds_at_most_two_chunks_per_worker(monkeypatch):
    """Chunks are built lazily and handed to the pool 2 * workers at a time, so
    memory does not grow with --samples: over a 10-chunk run at 2 workers no
    more than 4 chunks are ever handed over and not yet reduced, and the
    estimates equal the serial run's bit for bit."""
    import nomacast.montecarlo as montecarlo
    in_flight, peaks, handed = [0], [], []

    class SerialPool:
        def __init__(self, max_workers):
            pass

        def map(self, fn, items):
            items = list(items)
            handed.extend(args[6] for args in items)
            in_flight[0] += len(items)
            peaks.append(in_flight[0])
            for args in items:
                in_flight[0] -= 1
                yield fn(args)

        def shutdown(self):
            pass
    monkeypatch.setattr(montecarlo.futures, "ProcessPoolExecutor", SerialPool)
    metrics = (MetricKind.UNICAST_OUTAGE, MetricKind.MEAN_OMA_SECRECY_RATE)
    samples = 9 * _CHUNK + 5000  # ten chunks
    pooled = estimate_many(metrics, [CFG], (3, 5), SimulationPlan(samples, 13, workers=2))
    serial = estimate_many(metrics, [CFG], (3, 5), SimulationPlan(samples, 13, workers=1))
    assert handed == list(range(0, samples, _CHUNK))
    assert max(peaks) <= 4 and pooled == serial


def _children():
    import multiprocessing
    return {p.pid for p in multiprocessing.active_children()}


def test_another_worker_count_replaces_the_pool():
    """A pooled call with another worker count shuts the live pool down before
    it starts one of its own size: a pool is never reused at a larger size."""
    import nomacast.montecarlo as montecarlo
    metrics = (MetricKind.UNICAST_OUTAGE,)
    before = _children()
    three = SimulationPlan(2 * _CHUNK + 5, 14, workers=3)  # three chunks
    two = SimulationPlan(_CHUNK + 5, 14, workers=3)  # two chunks, so two workers
    pooled = [estimate_many(metrics, [CFG], (3, 5), three)]
    first = _children() - before
    pooled.append(estimate_many(metrics, [CFG], (3, 5), two))
    second = _children() - before
    assert len(first) == 3 and len(second) == 2 and not first & second
    assert pooled == [estimate_many(metrics, [CFG], (3, 5), replace(plan, workers=1))
                      for plan in (three, two)]
    montecarlo.close_pool()
    assert not _children() & second


def test_a_killed_worker_costs_a_retry_not_the_run():
    """A worker of the live pool killed between two calls breaks that pool; the
    next call hands its batch to a new pool and equals the serial run."""
    import os
    import signal

    metrics = (MetricKind.UNICAST_OUTAGE, MetricKind.MEAN_OMA_SECRECY_RATE)
    plan = SimulationPlan(_CHUNK + 5000, 15, workers=2)
    before = _children()
    estimate_many(metrics, [CFG], (3, 5), plan)
    os.kill(min(_children() - before), signal.SIGKILL)
    pooled = estimate_many(metrics, [CFG], (3, 5), plan)
    assert pooled == estimate_many(metrics, [CFG], (3, 5), replace(plan, workers=1))


def test_rejects_too_few_users():
    metric = MetricKind.UNICAST_OUTAGE
    with pytest.raises(ValueError):
        estimate_many([metric], [CFG], (2, 1), SimulationPlan(10, seed=1))[0][metric]


def test_paired_fields_are_the_fields_that_read_both_beams():
    """_PAIRED holds exactly the fields whose value reads a gain of the MRT triple
    and one of the OMA triple, seen by recording the attributes each field's
    lambda (or critical SNR) touches (the cached rates read the gains in turn)."""
    class Recording(_Outcomes):
        def __init__(self, *args):
            self.read = set()
            super().__init__(*args)

        def __getattribute__(self, name):
            object.__getattribute__(self, "read").add(name)
            return object.__getattribute__(self, name)

    gains = [np.array([0.5, 3.0, 40.0])] * 6
    both = set()
    for name, field in [*_FIELD_OF.items(), *((n, f) for n, (f, _) in _RHO_STAR.items())]:
        outcomes = Recording(CFG, *gains)
        field(outcomes)
        reads_mrt = bool(outcomes.read & {"z1", "v", "gmin"})
        reads_oma = bool(outcomes.read & {"z1_oma", "v_oma", "gmin_oma"})
        assert reads_mrt or reads_oma, name
        if reads_mrt and reads_oma:
            both.add(name)
    assert both == _PAIRED


def test_the_gain_law_is_chosen_from_the_plan_and_the_metrics():
    """Five laws.  Unscheduled: "mrt" with the MRT beam or M = 1, else "split",
    or "joint" when a paired metric reads both triples (an outage rate reads
    its probability's field, which is not paired).  Scheduled: "scheduled"
    with the MRT beam or M = 1, else "scheduled_joint", whatever the metrics.
    Each law's key domain and width are the window oracle's own."""
    rates = (MetricKind.OUTAGE_RATE_UNICAST, MetricKind.OUTAGE_RATE_UNICAST_OMA,
             MetricKind.OUTAGE_RATE_SECRECY_OMA)
    unpaired = tuple(m for m in MetricKind if source_metric(m).value not in _PAIRED)
    every = tuple(MetricKind)
    cases = [  # (scheduling, OMA beamformer, M, metrics, law)
        (False, MRT, 10, every, "mrt"), (False, MRT, 1, rates, "mrt"),
        (False, RANDOM, 1, rates, "mrt"), (False, EQUAL_GAIN, 1, every, "mrt"),
        (False, RANDOM, 10, rates, "split"), (False, EQUAL_GAIN, 2, rates, "split"),
        (False, RANDOM, 10, unpaired, "split"), (False, EQUAL_GAIN, 40, (), "split"),
        (False, RANDOM, 10, every, "joint"),
        (True, MRT, 10, rates, "scheduled"), (True, MRT, 2, every, "scheduled"),
        (True, RANDOM, 1, rates, "scheduled"), (True, EQUAL_GAIN, 1, every, "scheduled"),
        (True, RANDOM, 10, rates, "scheduled_joint"),
        (True, EQUAL_GAIN, 2, every, "scheduled_joint"),
    ] + [(False, beam, 10, rates + (paired,), "joint") for beam in (RANDOM, EQUAL_GAIN)
         for paired in (MetricKind.NOMA_TRAILS_OMA, MetricKind.SECRECY_VIOLATION,
                        MetricKind.MEAN_SECRECY_GAP)]
    for scheduling, beamformer, m, metrics, name in cases:
        for k in (2, 5, 11):
            law = gain_law(metrics, m, k, scheduling, beamformer)
            assert law == law_of(name, m, k), (scheduling, beamformer, m, k, metrics)


def test_paired_metric_keeps_the_joint_windows():
    """A fig3_random-shaped run that also asks for noma_trails_oma draws the joint
    law, value for value as recorded before the split law existed; without the
    paired metric the same run draws the split windows."""
    cfg = LinkConfig(10.0 ** 2.0, r_m=1.0, r_u=6.0)
    plan = SimulationPlan(20_000, seed=2024, oma_beamformer=RANDOM)
    oma = (MetricKind.UNICAST_OUTAGE_OMA, MetricKind.MEAN_OMA_UNICAST_RATE)
    [joint] = estimate_many(oma + (MetricKind.NOMA_TRAILS_OMA,), [cfg], (10, 11), plan,
                            stream_base=3)
    assert joint[MetricKind.UNICAST_OUTAGE_OMA].value == 0.9623
    assert joint[MetricKind.UNICAST_OUTAGE_OMA].stderr == 0.001346857899449702
    assert joint[MetricKind.NOMA_TRAILS_OMA].value == 0.0955
    assert joint[MetricKind.NOMA_TRAILS_OMA].stderr == 0.0020782693425475457
    assert joint[MetricKind.MEAN_OMA_UNICAST_RATE].value == 3.3199774294524165
    assert joint[MetricKind.MEAN_OMA_UNICAST_RATE].stderr == 0.012755439730379467
    [split] = estimate_many(oma, [cfg], (10, 11), plan, stream_base=3)
    assert split[MetricKind.MEAN_OMA_UNICAST_RATE].value != 3.3199774294524165


def test_split_runs_are_bit_identical_for_any_workers_and_chunking():
    """A split run (70k samples: two chunks) gives the same estimates at workers
    1 and 2, and its counts are those of any cut of its window range."""
    plan = SimulationPlan(70_000, seed=87, oma_beamformer=EQUAL_GAIN)
    metrics = [m for m in MetricKind if source_metric(m).value not in _PAIRED]
    cfgs = [replace(CFG, rho=10.0 ** (db / 10.0)) for db in (8.0, 20.0, 32.0)]
    law = gain_law(metrics, 10, 11, plan.scheduling, plan.oma_beamformer)
    assert law[0] == "split"
    one = estimate_many(metrics, cfgs, (10, 11), plan)
    assert one == estimate_many(metrics, cfgs, (10, 11), replace(plan, workers=2))
    fields = tuple(name for name in _INDICATORS if name not in _PAIRED)
    cuts = [0, 1, 4099, 40_000, plan.samples]
    counts = sum(_chunk_moments((cfgs, fields, 10, 11, law, plan.seed, lo, hi - lo))[1]
                 for lo, hi in zip(cuts, cuts[1:]))
    for point, row in zip(one, counts):
        for name, count in zip(fields, row):
            assert point[MetricKind(name)].value == count / plan.samples, name


def test_split_oma_metrics_match_the_single_antenna_system():
    """The OMA metrics of an unscheduled random beam have no closed form, but
    its OMA gains have the law of the M = 1 MRT system's: on the fig1 grid at
    2^18 draws, fig3_random's OMA outages agree with M = 1's and its NOMA
    unicast outage with fig3_mrt's, within 4 combined standard errors."""
    cfgs = [LinkConfig(10.0 ** (db / 10.0), r_m=1.0, r_u=6.0) for db in range(0, 41, 4)]
    oma = (MetricKind.UNICAST_OUTAGE_OMA, MetricKind.SECRECY_OUTAGE_OMA)
    noma = (MetricKind.UNICAST_OUTAGE,)
    plan = SimulationPlan(1 << 18, seed=88, oma_beamformer=RANDOM)
    assert gain_law(noma + oma, 10, 11, plan.scheduling, plan.oma_beamformer)[0] == "split"
    random = estimate_many(noma + oma, cfgs, (10, 11), plan)
    single = estimate_many(oma, cfgs, (1, 11), SimulationPlan(1 << 18, seed=89))
    mrt = estimate_many(noma, cfgs, (10, 11), SimulationPlan(1 << 18, seed=90))
    for point, *refs in zip(random, single, mrt):
        for metric, ref in [(m, refs[0]) for m in oma] + [(noma[0], refs[1])]:
            combined = math.hypot(point[metric].stderr, ref[metric].stderr)
            assert abs(point[metric].value - ref[metric].value) <= 4 * combined, metric

"""The Monte Carlo gain sampler against the channel-matrix oracle.

For each plan the engine's gains and the oracle's gains (independent
streams, fixed seeds) are compared on z1, u, v, their OMA counterparts and
z1 - v: a two-sample Kolmogorov-Smirnov test, and the means and variances
within four combined standard errors.  The split law's two triples are
compared with the oracle and with the one-beam draws whose law each should
have.  A property test checks the invariants every draw must satisfy, and
each law's branch of the sampler reads exactly the words of its width.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from full_matrix_oracle import DOMAIN_FULL_MATRIX, full_matrix_gains
from nomacast import montecarlo
from nomacast.montecarlo import (EQUAL_GAIN, MRT, RANDOM, MetricKind, SimulationPlan,
                                 _block_gains, gain_law)
from nomacast.rng import (DOMAIN_GAIN_STATS, DOMAIN_GAINS, DOMAIN_SPLIT, fill_uniform,
                          window_generator)
from rng_stream import bits_to_uniform, window_bits
from window_oracle import LAYOUTS, law_of, sample_gains

N = 100_000
SEED = 32
KS_MIN_P = 1e-3
SIGMAS = 4.0

# name -> (M, K, scheduling, OMA beamformer)
CASES = {
    "fig1": (10, 11, False, MRT),
    "m1_mrt": (1, 2, False, MRT),
    "fig2_sched": (2, 11, True, MRT),
    "fig3_random": (10, 11, False, RANDOM),
    "fig3_equal": (10, 11, False, EQUAL_GAIN),
    "sched_random": (3, 5, True, RANDOM),
    "sched_equal": (2, 4, True, EQUAL_GAIN),
    "m1_sched_random": (1, 4, True, RANDOM),
    "m1_equal": (1, 3, False, EQUAL_GAIN),
    "m2_random": (2, 3, False, RANDOM),
    "m2_sched_random": (2, 5, True, RANDOM),
}


def test_key_domains_are_distinct():
    """The engine's three layouts, the retired M + K - 1 layout (1 << 32) and the
    oracle each have their own Philox key, so no two share draws."""
    domains = {DOMAIN_GAIN_STATS, DOMAIN_GAINS, DOMAIN_SPLIT, 1 << 32, DOMAIN_FULL_MATRIX}
    assert len(domains) == 5


def _law(m, k, scheduling, beamformer, metrics=tuple(MetricKind)):
    """The law a run of ``metrics`` draws; by default every metric, so the joint
    law wherever the beams differ, as the oracle draws."""
    return gain_law(metrics, m, k, SimulationPlan(1, 1, scheduling, beamformer))


def _engine_gains(m, k, law, seed, n, chunk=1 << 14):
    parts = [sample_gains(m, k, law, seed, lo, min(chunk, n - lo)) for lo in range(0, n, chunk)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _statistics(z1, u, v, z1_oma, u_oma, v_oma):
    return {"z1": z1, "u": u, "v": v, "z1_oma": z1_oma, "u_oma": u_oma, "v_oma": v_oma,
            "z1-v": z1 - v}


@pytest.fixture(scope="module", params=list(CASES))
def samples(request):
    m, k, scheduling, beamformer = CASES[request.param]
    engine = _statistics(*_engine_gains(m, k, _law(m, k, scheduling, beamformer), SEED, N))
    oracle = _statistics(*full_matrix_gains(m, k, scheduling, beamformer, SEED, N))
    return engine, oracle


def test_gain_distributions_match_oracle(samples):
    engine, oracle = samples
    pvalues = {name: stats.ks_2samp(engine[name], oracle[name]).pvalue
               for name in engine}
    assert min(pvalues.values()) >= KS_MIN_P, pvalues


def _mean_var_se(x):
    mean, var = x.mean(), x.var(ddof=1)
    m4 = ((x - mean) ** 4).mean()
    return mean, var, np.sqrt(var / len(x)), np.sqrt(max(m4 - var * var, 0.0) / len(x))


def test_gain_moments_match_oracle(samples):
    engine, oracle = samples
    for name in engine:
        mean_a, var_a, se_mean_a, se_var_a = _mean_var_se(engine[name])
        mean_b, var_b, se_mean_b, se_var_b = _mean_var_se(oracle[name])
        assert abs(mean_a - mean_b) <= SIGMAS * np.hypot(se_mean_a, se_mean_b), name
        assert abs(var_a - var_b) <= SIGMAS * np.hypot(se_var_a, se_var_b), name


@pytest.mark.parametrize("m, k, beamformer", [(10, 11, RANDOM), (10, 11, EQUAL_GAIN),
                                               (2, 3, RANDOM)])
def test_split_triples_have_their_joint_law_marginals(m, k, beamformer):
    """Under the split law the OMA triple has the oracle's OMA marginals and
    those of an M = 1 MRT draw, and the MRT triple and z1 - v those of an
    unscheduled MRT draw at the same M (KS, independent streams)."""
    law = _law(m, k, False, beamformer, metrics=())
    assert law[0] == "split"
    split = _statistics(*_engine_gains(m, k, law, SEED, N))
    oracle = _statistics(*full_matrix_gains(m, k, False, beamformer, SEED + 1, N))
    single = _statistics(*_engine_gains(1, k, law_of("mrt", 1, k), SEED + 2, N))
    mrt = _statistics(*_engine_gains(m, k, law_of("mrt", m, k), SEED + 3, N))
    pairs = [(name, oracle[name]) for name in ("z1_oma", "u_oma", "v_oma")]
    pairs += [(name + "_oma", single[name]) for name in ("z1", "u", "v")]
    pairs += [(name, mrt[name]) for name in ("z1", "u", "v", "z1-v")]
    pvalues = {(name, i): stats.ks_2samp(split[name], ref).pvalue
               for i, (name, ref) in enumerate(pairs)}
    assert min(pvalues.values()) >= KS_MIN_P, pvalues


def test_equal_gain_and_random_beams_share_one_sampler():
    """Both beams are independent of the MRT direction, so they draw one law,
    with or without a paired metric, and the sampler reads nothing else of
    the plan."""
    for m, k, scheduling in ((10, 11, False), (3, 5, True)):
        for metrics in ((), tuple(MetricKind)):
            assert (_law(m, k, scheduling, EQUAL_GAIN, metrics)
                    == _law(m, k, scheduling, RANDOM, metrics))


@pytest.mark.parametrize("scheduling", [False, True])
def test_single_antenna_oma_gains_are_the_mrt_gains(scheduling):
    """With M = 1 every unit beam is a phase, so c = 1 and the OMA gains are the
    MRT gains."""
    for beamformer in (EQUAL_GAIN, RANDOM):
        gains = _engine_gains(1, 4, _law(1, 4, scheduling, beamformer), 6, 1000)
        mrt = _engine_gains(1, 4, _law(1, 4, scheduling, MRT), 6, 1000)
        assert all(np.array_equal(a, b) for a, b in zip(gains[:3], gains[3:]))
        assert all(np.array_equal(a, b) for a, b in zip(gains, mrt))


def test_top_words_give_a_finite_v(monkeypatch):
    """The largest words map to the largest double below 1, whose 9th root still
    rounds to 1.0; v must stay finite there."""
    def top_words(gen, out):
        out[...] = bits_to_uniform(np.array([(1 << 64) - 1], dtype=np.uint64))[0]
        return out
    monkeypatch.setattr(montecarlo, "fill_uniform", top_words)
    _, u, v, _, _, _ = sample_gains(10, 11, law_of("mrt", 10, 11), 1, 0, 4)
    assert np.all(np.isfinite(v)) and np.all(u <= v)


def test_scheduled_user_is_the_strongest():
    """The selected norm dominates every other user's MRT gain and its own OMA gain."""
    z1, _, v, z1_oma, _, _ = _engine_gains(3, 5, law_of("scheduled_joint", 3, 5), 8, 20_000)
    assert np.all(z1 >= v)
    assert np.all((0.0 <= z1_oma) & (z1_oma <= z1))


def test_unicast_gain_beyond_one_product_of_uniforms():
    """Above M = 18 z1 sums the -log of products of at most 18 uniforms: the sum
    of its M exponentials to rounding, and Gamma(M) distributed."""
    m, seed, n = 40, 40, 1 << 16
    z1 = sample_gains(m, 11, law_of("mrt", m, 11), seed, 0, n)[0]
    uni = bits_to_uniform(window_bits(seed, DOMAIN_GAIN_STATS, 0, n, m + 2))
    assert np.allclose(z1, -np.log(uni[:, :m]).sum(axis=1), rtol=1e-12, atol=0.0)
    assert stats.kstest(z1, stats.gamma(m).cdf).pvalue >= KS_MIN_P


@settings(derandomize=True, deadline=None, max_examples=200)
@given(m=st.sampled_from([1, 2, 10, 40]), k=st.sampled_from([2, 3, 11]),
       name=st.sampled_from(list(LAYOUTS)), seed=st.integers(0, (1 << 64) - 1),
       first=st.integers(0, 1 << 40), n=st.integers(1, 40), cut=st.integers(0, 40))
def test_sampled_gains_properties(m, k, name, seed, first, n, cut):
    """Each of the five laws gives six finite positive 1-D arrays with u <= v
    under both beams, z1 >= u under scheduling, u = v at K = 2, and the same
    bits for any split of the window range.  z1_oma <= z1 holds under the
    joint laws only, so it is not asserted."""
    assume(m > 1 or name in ("mrt", "scheduled"))  # gain_law's only laws at M = 1
    law = law_of(name, m, k)
    gains = sample_gains(m, k, law, seed, first, n)
    z1, u, v, z1_oma, u_oma, v_oma = gains
    for x in gains:
        assert x.shape == (n,) and np.all(np.isfinite(x)) and np.all(x > 0)
    assert np.all(u <= v) and np.all(u_oma <= v_oma)
    if name.startswith("scheduled"):
        assert np.all(z1 >= u)
    if k == 2:
        assert np.array_equal(u, v) and np.array_equal(u_oma, v_oma)
    cut = min(cut, n)
    parts = zip(sample_gains(m, k, law, seed, first, cut),
                sample_gains(m, k, law, seed, first + cut, n - cut))
    for whole, (head, tail) in zip(gains, parts):
        assert np.array_equal(np.concatenate([head, tail]), whole)


# law name -> (scheduling, OMA beamformer, metrics) of a run at M > 1 that draws it
_RUN_OF = {"mrt": (False, MRT, ()), "split": (False, RANDOM, ()),
           "joint": (False, EQUAL_GAIN, (MetricKind.SECRECY_VIOLATION,)),
           "scheduled": (True, MRT, ()), "scheduled_joint": (True, RANDOM, ())}


@pytest.mark.parametrize("name", list(_RUN_OF))
def test_each_law_reads_exactly_the_words_of_its_width(name):
    """The sampler's workspace is padded to a multiple of 4 words, so a branch
    of _block_gains that read past its law's width would read uniforms: with
    every word at or past the width NaN, all six gains stay finite.  At
    K >= 3 each branch reads every word below its width: a NaN in any one
    column makes some gain NaN."""
    scheduling, beamformer, metrics = _RUN_OF[name]
    for m, k in ((2, 2), (3, 5), (10, 11), (25, 3)):
        law = _law(m, k, scheduling, beamformer, metrics)
        assert law[0] == name
        width = law[2]
        fresh = fill_uniform(window_generator(9, law[1], 0, width + 8), np.empty((64, width + 8)))
        fresh[:, width:] = np.nan
        assert all(np.all(np.isfinite(g)) for g in _block_gains(fresh.copy(), m, k, name))
        for col in range(width if k >= 3 else 0):
            w = fresh.copy()
            w[:, col] = np.nan
            assert any(np.isnan(g).any() for g in _block_gains(w, m, k, name)), (m, k, col)

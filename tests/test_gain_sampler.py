"""The Monte Carlo gain sampler against the channel-matrix oracle.

For each plan the engine's gains and the oracle's gains (independent
streams, fixed seeds) are compared on z1, u, v, their OMA counterparts and
z1 - v: a two-sample Kolmogorov-Smirnov test, and the means and variances
within four combined standard errors.
"""

import numpy as np
import pytest
from scipy import stats

from full_matrix_oracle import full_matrix_gains
from nomacast.channel import EQUAL_GAIN, MRT, RANDOM
from nomacast.montecarlo import SimulationPlan, _sample_gains

N = 100_000
SEED = 32
KS_MIN_P = 1e-3
SIGMAS = 4.0

# name -> (M, K, scheduling, OMA beamformer)
CASES = {
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


def _engine_gains(m, k, scheduling, beamformer, seed, n, chunk=1 << 14):
    plan = SimulationPlan(n, seed, scheduling, beamformer)
    parts = [_sample_gains(m, k, plan, lo, min(chunk, n - lo))
             for lo in range(0, n, chunk)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _statistics(z1, others, z1_oma, others_oma):
    v = others.max(axis=1)
    return {"z1": z1, "u": others.min(axis=1), "v": v, "z1_oma": z1_oma,
            "u_oma": others_oma.min(axis=1), "v_oma": others_oma.max(axis=1),
            "z1-v": z1 - v}


@pytest.fixture(scope="module", params=list(CASES))
def samples(request):
    m, k, scheduling, beamformer = CASES[request.param]
    engine = _statistics(*_engine_gains(m, k, scheduling, beamformer, SEED, N))
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


def test_equal_gain_and_random_beams_share_one_sampler():
    """Both beams are independent of the MRT direction, so they draw alike."""
    for m, k, scheduling in ((10, 11, False), (3, 5, True)):
        equal = _engine_gains(m, k, scheduling, EQUAL_GAIN, 5, 1000)
        random = _engine_gains(m, k, scheduling, RANDOM, 5, 1000)
        for a, b in zip(equal, random):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("scheduling", [False, True])
def test_single_antenna_oma_gains_are_the_mrt_gains(scheduling):
    """With M = 1 every unit beam is a phase, so c = 1 and others_oma = others."""
    for beamformer in (EQUAL_GAIN, RANDOM):
        z1, others, z1_oma, others_oma = _engine_gains(1, 4, scheduling, beamformer,
                                                       6, 1000)
        mrt = _engine_gains(1, 4, scheduling, MRT, 6, 1000)
        assert np.array_equal(z1_oma, z1) and np.array_equal(others_oma, others)
        assert np.array_equal(z1, mrt[0]) and np.array_equal(others, mrt[1])


def test_scheduled_user_is_the_strongest():
    """The selected norm dominates every other user's MRT gain and its own OMA gain."""
    z1, others, z1_oma, _ = _engine_gains(3, 5, True, RANDOM, 8, 20_000)
    assert np.all(z1 >= others.max(axis=1))
    assert np.all((0.0 <= z1_oma) & (z1_oma <= z1))

import numpy as np
import pytest
from scipy import stats

from full_matrix_oracle import (effective_gains, make_beamformer, sample_channel,
                                select_unicast_user)
from nomacast.montecarlo import EQUAL_GAIN, MRT, RANDOM
from rng_stream import RngStream

N_STAT = 100_000


@pytest.fixture(scope="module")
def mrt_gain_samples():
    """z1 and one eavesdropper gain through the full-matrix path, M=3, K=2."""
    z1 = np.empty(N_STAT)
    other = np.empty(N_STAT)
    rng = RngStream(101)
    for i in range(N_STAT):
        h = sample_channel(2, 3, rng.spawn(i))
        w = make_beamformer(h, 0, MRT)
        g = effective_gains(h, w, 0)
        z1[i] = g.z1
        other[i] = g.others[0]
    return z1, other


def test_sample_channel_deterministic():
    a = sample_channel(2, 1, RngStream(5, 0))
    b = sample_channel(2, 1, RngStream(5, 0))
    assert np.array_equal(a, b)
    assert a.shape == (2, 1)


def test_sample_channel_row_power():
    """Mean squared row norm equals the antenna count."""
    rng = RngStream(55)
    norms = []
    for i in range(1000):
        h = sample_channel(11, 10, rng.spawn(i))
        norms.append((np.abs(h) ** 2).sum(axis=1))
    mean = np.concatenate(norms).mean()
    assert abs(mean - 10.0) < 0.1


def test_sample_channel_rejects_bad_sizes():
    with pytest.raises(ValueError):
        sample_channel(1, 2, RngStream(0))
    with pytest.raises(ValueError):
        sample_channel(2, 0, RngStream(0))


def test_mrt_hand_value():
    h = np.array([[3.0 + 0j, 4.0j], [1.0 + 0j, 0j]])
    w = make_beamformer(h, 0, MRT)
    assert np.allclose(w.weights, np.array([3.0, -4.0j]) / 5.0)


def test_equal_gain_weights():
    h = np.zeros((2, 4), dtype=complex) + 1.0
    w = make_beamformer(h, 0, EQUAL_GAIN)
    assert np.allclose(w.weights, 0.5)


def test_beamformer_unit_norm():
    rng = RngStream(77)
    h = sample_channel(4, 6, rng)
    for kind in (MRT, EQUAL_GAIN, RANDOM):
        w = make_beamformer(h, 2, kind, rng)
        assert abs(np.linalg.norm(w.weights) - 1.0) < 1e-12


def test_mrt_zero_row_raises():
    h = np.zeros((2, 3), dtype=complex)
    h[1] = 1.0
    with pytest.raises(ValueError, match="degenerate"):
        make_beamformer(h, 0, MRT)


def test_random_beamformer_needs_rng():
    h = np.ones((2, 3), dtype=complex)
    with pytest.raises(ValueError):
        make_beamformer(h, 0, RANDOM)


def test_effective_gains_orthogonal_rows():
    h = np.array([[1.0 + 0j, 0j], [0j, 1.0 + 0j]])
    g = effective_gains(h, make_beamformer(h, 0, MRT), 0)
    assert g.z1 == 1.0
    assert g.others == (0.0,)
    assert g.u == g.v == 0.0


def test_effective_gains_mrt_exact_norm():
    h = np.array([[3.0 + 0j, 4.0j], [1.0 + 1.0j, 0.5j]])
    g = effective_gains(h, make_beamformer(h, 0, MRT), 0)
    assert g.z1 == 25.0


def test_effective_gains_dimension_mismatch():
    h = np.ones((2, 3), dtype=complex)
    w = make_beamformer(np.ones((2, 4), dtype=complex), 0, EQUAL_GAIN)
    with pytest.raises(ValueError):
        effective_gains(h, w, 0)


def test_mrt_gain_distributions(mrt_gain_samples):
    """z1 fits Gamma(M, 1) and the other gain fits Exp(1)."""
    z1, other = mrt_gain_samples
    assert abs(z1.mean() - 3.0) < 0.05
    assert abs(other.mean() - 1.0) < 0.02
    assert stats.kstest(z1, "gamma", args=(3,)).pvalue > 0.01
    assert stats.kstest(other, "expon").pvalue > 0.01


def test_select_unicast_user_argmax():
    h = np.array([[np.sqrt(1.2)], [np.sqrt(3.4)], [np.sqrt(0.7)]], dtype=complex)
    assert select_unicast_user(h) == 1


def test_select_unicast_user_tie_break():
    h = np.ones((3, 2), dtype=complex)
    assert select_unicast_user(h) == 0


def test_scheduling_gain_dominance():
    """With the strongest user scheduled, z1 >= u on every draw."""
    rng = RngStream(606)
    for i in range(10_000):
        h = sample_channel(5, 3, rng.spawn(i))
        sel = select_unicast_user(h)
        g = effective_gains(h, make_beamformer(h, sel, MRT), sel)
        assert g.z1 >= g.u

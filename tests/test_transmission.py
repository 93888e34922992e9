import numpy as np
import pytest

import link_oracle as oracle
from link_oracle import (evaluate_link, gains, noma_rates, oma_rates, outage_events,
                         secrecy_rate)
from rng_stream import RngStream
from nomacast.transmission import LinkConfig, noma_rate, power_fraction, time_fraction

CFG = LinkConfig(rho=10.0, r_m=1.0, r_u=6.0, r_s=2.0)


def test_link_config_thresholds():
    assert CFG.eps_m == 1.0
    assert CFG.eps_u == 63.0
    assert CFG.eps_s == 3.0


@pytest.mark.parametrize("kwargs", [
    dict(rho=0.0, r_m=1.0, r_u=1.0),
    dict(rho=1.0, r_m=0.0, r_u=1.0),
    dict(rho=1.0, r_m=1.0, r_u=0.0),
    dict(rho=1.0, r_m=1.0, r_u=1.0, r_s=-0.5),
    dict(rho=float("inf"), r_m=1.0, r_u=1.0),
    dict(rho=1.0, r_m=float("nan"), r_u=1.0),
    dict(rho=1.0, r_m=1.0, r_u=float("inf")),
    dict(rho=1.0, r_m=1.0, r_u=1.0, r_s=float("nan")),
    # thresholds 2**r - 1 that overflow a double
    dict(rho=10.0, r_m=1.0, r_u=2000.0),
    dict(rho=10.0, r_m=1024.0, r_u=1.0),
    dict(rho=10.0, r_m=1.0, r_u=1.0, r_s=1e6),
])
def test_link_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        LinkConfig(**kwargs)


def test_link_config_accepts_largest_finite_threshold():
    assert LinkConfig(rho=10.0, r_m=1.0, r_u=1023.0).eps_u == 2.0**1023 - 1.0


def test_power_split_hand_value():
    assert oracle.power_fraction(gains(3.0, [2.0]), CFG) == pytest.approx(0.475, abs=1e-12)
    assert power_fraction(2.0, CFG) == pytest.approx(0.475, abs=1e-12)


def test_power_split_clamps_to_zero():
    assert oracle.power_fraction(gains(3.0, [0.05]), CFG) == 0.0
    assert power_fraction(0.05, CFG) == 0.0
    assert power_fraction(0.0, CFG) == 0.0
    # a subnormal gain overflows the masked quotient, which must not warn
    assert np.array_equal(power_fraction(np.array([1e-320, 5e-324]), CFG), [0.0, 0.0])


def test_power_split_limit():
    assert oracle.power_fraction(gains(1e12, [1e12]), CFG) == pytest.approx(0.5, rel=1e-10)
    assert power_fraction(1e12, CFG) == pytest.approx(0.5, rel=1e-10)


def test_power_split_strictly_below_cap():
    rng = RngStream(42)
    z = rng.exponential((5000, 4)) + 1e-12
    frac = power_fraction(z.min(axis=1), CFG)
    assert np.all(frac < 1.0 / (1.0 + CFG.eps_m))


def test_noma_rates_hand_value():
    g = gains(3.0, [2.0])
    r1, eaves = noma_rates(g, oracle.power_fraction(g, CFG), CFG)
    assert r1 == pytest.approx(np.log2(15.25), abs=1e-12)
    assert eaves[0] == pytest.approx(np.log2(10.5), abs=1e-12)


def test_noma_rates_zero_when_all_multicast():
    g = gains(3.0, [0.05])
    r1, eaves = noma_rates(g, oracle.power_fraction(g, CFG), CFG)
    assert r1 == 0.0 and all(e == 0.0 for e in eaves)


def test_binding_user_hits_multicast_rate_exactly():
    """The gain achieving the allocation minimum decodes at exactly r_m."""
    rng = RngStream(7)
    for i in range(200):
        z1 = float(rng.exponential()) + 0.2
        others = rng.exponential(3) + 0.2
        z_min = min(z1, others.min())
        alpha = float(power_fraction(z_min, CFG))
        if alpha == 0.0:
            continue
        sinr = (1.0 - alpha) * z_min / (alpha * z_min + 1.0 / CFG.rho)
        assert np.log2(1.0 + sinr) == pytest.approx(CFG.r_m, abs=1e-9)


def test_time_split_hand_value():
    assert oracle.time_fraction(gains(3.0, [2.0]), CFG) == pytest.approx(
        1.0 / np.log2(21.0), abs=1e-12)
    assert time_fraction(2.0, CFG) == pytest.approx(1.0 / np.log2(21.0), abs=1e-12)


def test_time_split_clamps_to_one():
    assert oracle.time_fraction(gains(0.05, [3.0]), CFG) == 1.0
    assert oracle.time_fraction(gains(0.0, [3.0]), CFG) == 1.0
    assert time_fraction(0.05, CFG) == 1.0 and time_fraction(0.0, CFG) == 1.0


def test_time_split_vanishes_with_multicast_rate():
    cfg = LinkConfig(rho=10.0, r_m=1e-9, r_u=6.0)
    assert oracle.time_fraction(gains(3.0, [2.0]), cfg) < 1e-8
    assert time_fraction(2.0, cfg) < 1e-8


def test_oma_rates_hand_value():
    g = gains(3.0, [2.0])
    r1, eaves = oma_rates(g, oracle.time_fraction(g, CFG), CFG)
    expected = (1.0 - 1.0 / np.log2(21.0)) * np.log2(31.0)
    assert r1 == pytest.approx(expected, abs=1e-9)
    assert r1 == pytest.approx(3.8264, abs=5e-4)


def test_oma_rates_zero_in_all_multicast():
    g = gains(0.05, [2.0])
    r1, eaves = oma_rates(g, oracle.time_fraction(g, CFG), CFG)
    assert r1 == 0.0 and all(e == 0.0 for e in eaves)


def test_noma_beats_oma_when_scheduled_user_strongest():
    g = gains(3.0, [2.0])
    r1n, _ = noma_rates(g, oracle.power_fraction(g, CFG), CFG)
    r1o, _ = oma_rates(g, oracle.time_fraction(g, CFG), CFG)
    assert r1n > r1o


def test_secrecy_rates():
    assert secrecy_rate(3.93, (3.51, 1.2)) == pytest.approx(0.42)
    assert secrecy_rate(3.0, (3.4,)) == 0.0


def test_secrecy_rates_zero_in_all_multicast():
    out = evaluate_link(gains(0.05, [2.0]), CFG)
    assert (out.noma_secrecy, out.oma_secrecy) == (0.0, 0.0)


def test_outage_events_examples():
    assert outage_events(gains(3.0, [2.0]), CFG)[0] is False
    # all power to multicasting counts as a secrecy outage for r_s > 0
    assert outage_events(gains(3.0, [0.05]), CFG)[2] is True
    # z1 * alpha_u2 = 1.425 < eps_u / rho = 6.3
    assert outage_events(gains(3.0, [2.0]), CFG)[1] is True


def test_rate_identity_bottleneck_form():
    """log2(1 + rho (z - eps_m/rho)/(1+eps_m)) == log2(1 + rho z) - r_m."""
    rng = RngStream(11)
    z = rng.exponential(10_000) + CFG.eps_m / CFG.rho * 1.0001
    lhs = np.log2(1.0 + CFG.rho * (z - CFG.eps_m / CFG.rho) / (1.0 + CFG.eps_m))
    rhs = np.log2(1.0 + CFG.rho * z) - CFG.r_m
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


def test_bottleneck_eavesdropper_rates_coincide():
    """When the weakest other gain sets the allocation, its NOMA and OMA
    unicast-layer rates are identical."""
    rng = RngStream(13)
    for i in range(2000):
        u = float(rng.exponential()) + CFG.eps_m / CFG.rho * 1.01
        z1 = u + float(rng.exponential())
        out = evaluate_link(gains(z1, [u, u + 1.0]), CFG)
        assert out.noma_eaves[0] == pytest.approx(out.oma_eaves[0], abs=1e-9)


def test_multicast_outage_identical_for_both_schemes():
    """alpha_u2 == 0 exactly when gamma == 1, realization by realization."""
    rng = RngStream(17)
    z = rng.exponential((100_000, 5)) * 0.25
    gmin = z.min(axis=1)
    alpha = power_fraction(gmin, CFG)
    gamma = time_fraction(gmin, CFG)
    assert np.array_equal(alpha == 0.0, gamma == 1.0)
    assert 0 < int((alpha == 0).sum()) < len(alpha)  # both branches exercised


def test_rate_monotonicity_in_gain():
    rng = RngStream(19)
    alpha_u2 = oracle.power_fraction(gains(5.0, rng.exponential(4) + 0.2), CFG)
    zs = np.sort(rng.exponential(50))
    rates = noma_rate(zs, alpha_u2, CFG)
    assert np.all(np.diff(rates) >= 0)


def test_unicast_rate_dominates_weaker_eavesdroppers():
    rng = RngStream(23)
    for i in range(500):
        others = rng.exponential(4)
        z1 = others.max() + float(rng.exponential())
        g = gains(z1, others)
        r1, eaves = noma_rates(g, oracle.power_fraction(g, CFG), CFG)
        assert r1 >= max(eaves)


def test_evaluate_link_multicast_outage_zeroes_rates():
    out = evaluate_link(gains(3.0, [0.05]), CFG)
    assert out.multicast_outage
    assert out.noma_unicast == 0.0 and out.oma_unicast == 0.0
    assert out.noma_secrecy == 0.0 and out.oma_secrecy == 0.0
    assert out.secrecy_outage  # no positive secrecy rate is a secrecy outage
    at_zero_target = LinkConfig(CFG.rho, CFG.r_m, CFG.r_u, r_s=0.0)
    assert evaluate_link(gains(3.0, [0.05]), at_zero_target).secrecy_outage  # also at r_s = 0


def test_evaluate_link_rates_nonnegative():
    rng = RngStream(29)
    for i in range(500):
        g = gains(float(rng.exponential()), rng.exponential(3))
        out = evaluate_link(g, CFG)
        assert out.noma_unicast >= 0 and out.oma_unicast >= 0
        assert min(out.noma_eaves) >= 0 and min(out.oma_eaves) >= 0
        assert out.noma_secrecy >= 0 and out.oma_secrecy >= 0

import math

import numpy as np
import pytest
from scipy import special

import link_oracle as oracle
from nomacast.analysis import (AnalysisParams, UnsupportedAnalyticsError,
                               adaptive_integrate, chebyshev_rule,
                               incomplete_gamma_int, joint_minmax_pdf,
                               multicast_outage_prob, noma_rate_advantage,
                               noma_shortfall_bound, secrecy_outage_prob,
                               unicast_outage_bounds, unicast_outage_prob)
from nomacast.rng import RngStream
from nomacast.transmission import LinkConfig


def params(m, k, snr_db, r_m=1.0, r_u=6.0, r_s=0.0):
    cfg = LinkConfig(10.0 ** (snr_db / 10.0), r_m, r_u, r_s)
    return AnalysisParams.from_link(m, k, cfg)


# --- incomplete gamma ----------------------------------------------------------

def test_incomplete_gamma_at_zero():
    upper, lower = incomplete_gamma_int(3, 0.0)
    assert upper == 2.0 and lower == 0.0


def test_incomplete_gamma_shape_one():
    upper, _ = incomplete_gamma_int(1, 1.0)
    assert upper == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_incomplete_gamma_hand_series():
    upper, _ = incomplete_gamma_int(3, 2.0)
    assert upper == pytest.approx(10.0 * math.exp(-2.0), rel=1e-14)


def test_incomplete_gamma_complementarity():
    for m in range(1, 31):
        x = np.linspace(0.0, 100.0, 157)
        upper, lower = incomplete_gamma_int(m, x)
        fact = math.factorial(m - 1)
        assert np.allclose(upper + lower, fact, rtol=1e-12)
        # independent reference implementation
        assert np.allclose(upper, special.gammaincc(m, x) * fact, rtol=1e-12,
                           atol=1e-300)


def test_regularized_gamma_large_shape_stays_finite():
    """Shapes above 100 overflow the series at large x; those entries fall back."""
    from nomacast.analysis import _upper_reg
    x = np.array([0.5, 250.0, 300.0, 2e3, 1e4, 1e6])
    got = _upper_reg(300, x)
    assert np.all(np.isfinite(got))
    assert np.allclose(got, special.gammaincc(300, x), rtol=1e-10, atol=1e-300)


def test_incomplete_gamma_rejects_bad_args():
    with pytest.raises(ValueError):
        incomplete_gamma_int(0, 1.0)
    with pytest.raises(ValueError):
        incomplete_gamma_int(2, -0.1)


# --- quadrature ----------------------------------------------------------------

def test_chebyshev_rule_two_nodes():
    rule = chebyshev_rule(2)
    assert rule.nodes == pytest.approx([np.cos(np.pi / 4), np.cos(3 * np.pi / 4)])
    assert rule.weights == pytest.approx([np.pi / 2, np.pi / 2])


def test_chebyshev_rule_one_node():
    rule = chebyshev_rule(1)
    assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert rule.weights[0] == pytest.approx(np.pi)


def test_chebyshev_nodes_strictly_decreasing():
    rule = chebyshev_rule(33)
    assert np.all(np.diff(rule.nodes) < 0)
    assert np.all(np.abs(rule.nodes) < 1)


@pytest.mark.parametrize("n", [2, 3, 7, 20])
def test_chebyshev_semicircle_exact(n):
    """sum w_i (1 - x_i^2) == pi/2: exact once the rule integrates degree-2
    polynomials, i.e. for every order >= 2 (a single node yields pi)."""
    rule = chebyshev_rule(n)
    val = np.sum(rule.weights * np.sqrt(1 - rule.nodes**2) * np.sqrt(1 - rule.nodes**2))
    assert val == pytest.approx(np.pi / 2, rel=1e-14)


def test_chebyshev_constant_weighted_integrand_exact_any_order():
    """sum w_i == pi at every order: the rule is exact for a constant."""
    for n in (1, 2, 5):
        assert np.sum(chebyshev_rule(n).weights) == pytest.approx(np.pi, rel=1e-14)


def test_chebyshev_rejects_zero_nodes():
    with pytest.raises(ValueError):
        chebyshev_rule(0)


def test_adaptive_integrate_polynomial():
    assert adaptive_integrate(lambda x: x, 0.0, 1.0, 1e-10) == pytest.approx(0.5, abs=1e-10)


def test_adaptive_integrate_infinite_tail():
    val = adaptive_integrate(lambda x: np.exp(-x), 0.0, np.inf, 1e-8)
    assert val == pytest.approx(1.0, abs=1e-7)


def test_adaptive_integrate_reports_nonconvergence():
    step = lambda x: np.where(x < np.sqrt(0.5), 0.0, 1.0)
    with pytest.raises(RuntimeError, match="did not converge"):
        adaptive_integrate(step, 0.0, 1.0, 1e-12, max_depth=3)


# --- parameter bundle ----------------------------------------------------------

def test_params_derived_thresholds():
    p = params(2, 3, 10.0)  # rho = 10, eps_m = 1, eps_u = 63
    assert p.phi == pytest.approx(0.1 + 12.6)
    assert p.psi == pytest.approx(12.6)
    assert p.a == pytest.approx(1.0 / 12.7)
    assert p.b == pytest.approx(10.0)


def test_params_interval_ordering():
    rng = RngStream(3)
    for i in range(200):
        snr = float(rng.uniform()) * 60 - 10
        p = params(int(rng.uniform() * 9) + 1, int(rng.uniform() * 9) + 2, snr,
                   r_m=0.5 + float(rng.uniform()) * 3, r_u=0.5 + float(rng.uniform()) * 7)
        assert 0 < p.a < p.b
        assert p.phi > p.eps_m / p.rho


def test_params_validation():
    with pytest.raises(ValueError):
        AnalysisParams(0, 3, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        AnalysisParams(2, 1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        AnalysisParams(2, 3, 1.0, 1.0, 1.0, -1.0)


# --- multicast / unicast outage -------------------------------------------------

def test_multicast_outage_hand_value():
    # M=1, K=2, eps_m/rho = 0.1: 1 - e^{-0.1} e^{-0.1}
    assert multicast_outage_prob(params(1, 2, 10.0)) == pytest.approx(
        1.0 - math.exp(-0.2), rel=1e-12)


def test_multicast_outage_vanishes_at_high_snr():
    assert multicast_outage_prob(params(4, 5, 120.0)) < 1e-9


def test_unicast_outage_certain_at_low_snr():
    res = unicast_outage_prob(params(2, 11, -30.0), chebyshev_rule(20))
    assert res.total == 1.0
    assert abs(res.raw - 1.0) < 1e-3


def test_unicast_outage_components_in_range():
    for snr in (0.0, 8.0, 16.0, 24.0, 40.0):
        for m in (1, 2, 10):
            res = unicast_outage_prob(params(m, 11, snr), chebyshev_rule(64))
            for q in (res.q1, res.q2, res.q3):
                assert -1e-9 <= q <= 1.0 + 1e-9
            assert -1e-3 <= res.raw <= 1.0 + 1e-3
            assert 0.0 <= res.total <= 1.0


def test_unicast_outage_nonincreasing_in_snr():
    rule = chebyshev_rule(64)
    vals = [unicast_outage_prob(params(2, 11, snr), rule).total
            for snr in np.arange(0.0, 41.0, 1.0)]
    assert np.all(np.diff(vals) <= 1e-12)


def test_unicast_outage_refinement_delta():
    res = unicast_outage_prob(params(10, 11, 16.0), chebyshev_rule(500),
                              check_refinement=True)
    assert res.refinement_delta is not None and res.refinement_delta < 1e-4


def test_q3_matches_adaptive_oracle():
    """Chebyshev branch integral vs the adaptive integrator at N=500."""
    for m in (2, 10):
        p = params(m, 11, 16.0)
        res = unicast_outage_prob(p, chebyshev_rule(500))

        def integrand(x):
            inner = 1.0 / p.psi - p.eps_m / (p.rho * p.psi) * x
            hi = special.gammaincc(m, 1.0 / x)
            lo = np.where(inner > 0, special.gammaincc(m, 1.0 / np.maximum(inner, 1e-300)), 0.0)
            return (hi - lo) * (p.k - 1) / x**2 * np.exp(-(p.k - 1) / x)

        oracle = adaptive_integrate(integrand, p.a, p.b, 1e-7)
        assert res.q3 == pytest.approx(oracle, abs=1e-3)


def test_outage_bounds_bracket_total():
    rule = chebyshev_rule(200)
    for m in (2, 10):
        for snr in (0.0, 10.0, 20.0, 30.0, 40.0):
            p = params(m, 11, snr)
            res = unicast_outage_prob(p, rule)
            bounds = unicast_outage_bounds(p)
            assert bounds.lower <= res.total + 1e-9
            assert res.total <= bounds.upper + 1e-9


def test_outage_bounds_high_snr_hand_value():
    assert unicast_outage_bounds(params(2, 3, 40.0)).lower_high_snr == pytest.approx(3e-4)


def test_shortfall_bound_hand_value():
    p = AnalysisParams(2, 3, 30.0, 1.0, 63.0)
    bound = noma_shortfall_bound(p)
    assert bound.exact == pytest.approx(1.1 * math.exp(-0.1) / 9.0, rel=1e-12)
    assert bound.high_snr == pytest.approx(1.0 / 9.0)


def test_shortfall_bound_high_snr_limit():
    bound = noma_shortfall_bound(params(2, 3, 60.0))
    assert bound.exact == pytest.approx(bound.high_snr, rel=0.01)


# --- rate advantage / joint density ---------------------------------------------

def test_rate_advantage_zero_at_bottleneck():
    rng = RngStream(31)
    for i in range(200):
        p = params(2, 5, 10 + 30 * float(rng.uniform()))
        u = p.eps_m / p.rho + float(rng.exponential()) + 1e-6
        assert abs(noma_rate_advantage(u, u, p)) < 1e-9


def test_rate_advantage_increases_at_high_snr():
    p = params(2, 5, 40.0)  # rho = 1e4
    assert noma_rate_advantage(1.0, 2.0, p) >= noma_rate_advantage(1.0, 1.5, p)


def test_rate_advantage_rejects_bad_inputs():
    p = params(2, 5, 10.0)
    with pytest.raises(ValueError):
        noma_rate_advantage(0.05, 1.0, p)
    with pytest.raises(ValueError):
        noma_rate_advantage(1.0, 0.5, p)


def test_rate_advantage_reconstructs_secrecy_gap():
    """F_u(z1) - F_u(z2) equals the direct NOMA-minus-OMA secrecy difference."""
    rng = RngStream(37)
    checked = 0
    while checked < 500:
        cfg = LinkConfig(10.0 ** (float(rng.uniform()) * 3 + 0.5), 1.0, 6.0)
        p = AnalysisParams.from_link(2, 4, cfg)
        z = np.sort(rng.exponential(4))[::-1]  # z[0] >= z[1] >= z[2]
        u = z[-1]
        if u <= cfg.eps_m / cfg.rho:
            continue
        checked += 1
        z1, z2 = z[0] + 0.5, z[0]  # unicast user strongest
        out = oracle.evaluate_link(oracle.gains(z1, z), cfg)
        direct = ((out.noma_unicast - max(out.noma_eaves))
                  - (out.oma_unicast - max(out.oma_eaves)))
        via_advantage = noma_rate_advantage(u, z1, p) - noma_rate_advantage(u, z2, p)
        assert direct == pytest.approx(via_advantage, abs=1e-9)


def minmax_expansion_coeffs(k: int) -> np.ndarray:
    """Alternating expansion coefficients of the joint min/max density.

    tau_m = (k-1)(k-2) C(k-3, m) (-1)^m for m = 0..k-3; the expansion
    sum_m tau_m exp(-(k-2-m)u) exp(-(m+1)v) equals joint_minmax_pdf(u, v, k).
    """
    if k < 3:
        raise UnsupportedAnalyticsError(f"joint min/max analytics need K >= 3, got {k}")
    m = np.arange(k - 2)
    return (k - 1) * (k - 2) * special.comb(k - 3, m) * (-1.0) ** m


def test_expansion_coeffs_structure():
    tau = minmax_expansion_coeffs(11)
    assert tau[0] == 90.0
    assert np.all(np.sign(tau) == (-1.0) ** np.arange(9))


def test_joint_pdf_hand_value():
    assert joint_minmax_pdf(0.2, 0.5, 3) == pytest.approx(2 * math.exp(-0.7), rel=1e-12)


def test_joint_pdf_boundary():
    assert joint_minmax_pdf(0.4, 0.4, 5) == 0.0
    assert joint_minmax_pdf(0.4, 0.4, 3) == pytest.approx(2 * math.exp(-0.8))


def test_joint_pdf_matches_expansion():
    """Closed form equals the alternating expansion up to its cancellation
    error (the series loses relative accuracy where terms nearly cancel)."""
    rng = RngStream(41)
    for k in (3, 4, 7, 11):
        tau = minmax_expansion_coeffs(k)
        m = np.arange(k - 2)
        for i in range(100):
            u = float(rng.exponential())
            v = u + float(rng.exponential())
            terms = tau * np.exp(-(k - 2 - m) * u) * np.exp(-(m + 1) * v)
            series = float(terms.sum())
            tol = 1e-9 * abs(series) + 1e-13 * np.abs(terms).max()
            assert abs(joint_minmax_pdf(u, v, k) - series) <= tol


def test_joint_pdf_normalizes():
    k = 5

    def outer(u):
        u = np.atleast_1d(u)
        out = np.empty_like(u)
        for i, uu in enumerate(u):
            out[i] = adaptive_integrate(lambda v: joint_minmax_pdf(uu, v, k),
                                        uu, np.inf, 1e-9)
        return out

    total = adaptive_integrate(outer, 0.0, np.inf, 1e-8)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_joint_pdf_rejects_k2():
    with pytest.raises(UnsupportedAnalyticsError):
        joint_minmax_pdf(0.1, 0.2, 2)
    with pytest.raises(UnsupportedAnalyticsError):
        minmax_expansion_coeffs(2)


# --- secrecy outage --------------------------------------------------------------

def test_secrecy_outage_rejects_k2():
    with pytest.raises(UnsupportedAnalyticsError):
        secrecy_outage_prob(params(2, 2, 20.0, r_s=2.0), chebyshev_rule(100))


def test_secrecy_outage_components_in_range():
    rule = chebyshev_rule(200)
    for snr in (0.0, 10.0, 20.0, 40.0):
        res = secrecy_outage_prob(params(10, 11, snr, r_s=2.0), rule)
        for q in (res.q4, res.q5, res.q6):
            assert -1e-9 <= q <= 1.0 + 1e-9
        assert -1e-3 <= res.raw <= 1.0 + 1e-3
        assert 0.0 <= res.total <= 1.0


def test_secrecy_outage_certain_at_low_snr():
    res = secrecy_outage_prob(params(10, 11, -20.0, r_s=2.0), chebyshev_rule(100))
    assert res.total == pytest.approx(1.0, abs=1e-6)


def test_secrecy_outage_refinement_delta():
    res = secrecy_outage_prob(params(10, 11, 20.0, r_s=2.0), chebyshev_rule(500),
                              check_refinement=True)
    assert res.refinement_delta is not None and res.refinement_delta < 1e-4


def test_secrecy_zero_target_drops_gap_branch():
    res = secrecy_outage_prob(params(10, 11, 20.0, r_s=0.0), chebyshev_rule(200))
    assert res.q4 == pytest.approx(0.0, abs=1e-12)

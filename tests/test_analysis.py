import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import link_oracle as oracle
import nomacast
import secrecy_oracle
from nomacast.analysis import (UnsupportedAnalyticsError, _psi,
                               chebyshev_rule, joint_minmax_pdf,
                               multicast_outage_prob, noma_rate_advantage,
                               noma_shortfall_bound, secrecy_outage_prob,
                               unicast_outage_bounds, unicast_outage_prob)
from numeric_oracle import adaptive_integrate, incomplete_gamma_int
from rng_stream import RngStream
from nomacast.transmission import LinkConfig


def params(m, k, snr_db, r_m=1.0, r_u=6.0, r_s=0.0):
    return m, k, LinkConfig(10.0 ** (snr_db / 10.0), r_m, r_u, r_s)


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


# --- thresholds and system size --------------------------------------------------

def test_params_derived_thresholds():
    _, _, cfg = params(2, 3, 10.0)  # rho = 10, eps_m = 1, eps_u = 63
    assert _psi(cfg) == pytest.approx(12.6)


def test_params_interval_ordering():
    rng = RngStream(3)
    for i in range(200):
        snr = float(rng.uniform()) * 60 - 10
        _, _, cfg = params(int(rng.uniform() * 9) + 1, int(rng.uniform() * 9) + 2, snr,
                           r_m=0.5 + float(rng.uniform()) * 3,
                           r_u=0.5 + float(rng.uniform()) * 7)
        assert _psi(cfg) > 0  # so phi = eps_m/rho + psi > eps_m/rho, and 0 < a < b


@pytest.mark.parametrize("m, k, message", [(0, 3, "need at least 1 antenna, got 0"),
                                           (2, 1, "need at least 2 users, got 1")],
                         ids=["m0", "k1"])
@pytest.mark.parametrize("form", [
    multicast_outage_prob, lambda *p: unicast_outage_prob(*p, chebyshev_rule(8)),
    unicast_outage_bounds, noma_shortfall_bound,
    lambda *p: secrecy_outage_prob(*p, chebyshev_rule(8))],
    ids=["multicast", "unicast", "bounds", "shortfall", "secrecy"])
def test_closed_forms_reject_bad_system_size(form, m, k, message):
    """The closed forms check the system size; LinkConfig checks rho and the rates."""
    with pytest.raises(ValueError, match=message):
        form(m, k, LinkConfig(10.0, 1.0, 6.0, 2.0))


# --- multicast / unicast outage -------------------------------------------------

def test_multicast_outage_hand_value():
    # M=1, K=2, eps_m/rho = 0.1: 1 - e^{-0.1} e^{-0.1}
    assert multicast_outage_prob(*params(1, 2, 10.0)) == pytest.approx(
        1.0 - math.exp(-0.2), rel=1e-12)


def test_multicast_outage_vanishes_at_high_snr():
    assert multicast_outage_prob(*params(4, 5, 120.0)) < 1e-9


def test_unicast_outage_certain_at_low_snr():
    res = unicast_outage_prob(*params(2, 11, -30.0), chebyshev_rule(20))
    assert res.total == 1.0
    assert abs(res.raw - 1.0) < 1e-3


def test_unicast_outage_components_in_range():
    for snr in (0.0, 8.0, 16.0, 24.0, 40.0):
        for m in (1, 2, 10):
            res = unicast_outage_prob(*params(m, 11, snr), chebyshev_rule(64))
            for q in (res.q1, res.q2, res.q3):
                assert -1e-9 <= q <= 1.0 + 1e-9
            assert -1e-3 <= res.raw <= 1.0 + 1e-3
            assert 0.0 <= res.total <= 1.0


def test_unicast_outage_nonincreasing_in_snr():
    rule = chebyshev_rule(64)
    vals = [unicast_outage_prob(*params(2, 11, snr), rule).total
            for snr in np.arange(0.0, 41.0, 1.0)]
    assert np.all(np.diff(vals) <= 1e-12)


def test_unicast_outage_refinement_delta():
    res = unicast_outage_prob(*params(10, 11, 16.0), chebyshev_rule(500),
                              check_refinement=True)
    assert res.refinement_delta is not None and res.refinement_delta < 1e-4


def test_q3_matches_adaptive_oracle():
    """Chebyshev branch integral vs the adaptive integrator at N=500."""
    for m in (2, 10):
        _, k, cfg = params(m, 11, 16.0)
        res = unicast_outage_prob(m, k, cfg, chebyshev_rule(500))
        eps_m, rho = cfg.eps_m, cfg.rho
        psi = cfg.eps_u * (1.0 + eps_m) / rho  # the paper's thresholds and endpoints
        a, b = 1.0 / (psi * (1.0 + eps_m / (rho * psi))), rho / eps_m

        def integrand(x):
            inner = 1.0 / psi - eps_m / (rho * psi) * x
            hi = special.gammaincc(m, 1.0 / x)
            lo = np.where(inner > 0, special.gammaincc(m, 1.0 / np.maximum(inner, 1e-300)), 0.0)
            return (hi - lo) * (k - 1) / x**2 * np.exp(-(k - 1) / x)

        oracle = adaptive_integrate(integrand, a, b, 1e-7)
        assert res.q3 == pytest.approx(oracle, abs=1e-3)


def test_outage_bounds_bracket_total():
    rule = chebyshev_rule(200)
    for m in (2, 10):
        for snr in (0.0, 10.0, 20.0, 30.0, 40.0):
            p = params(m, 11, snr)
            res = unicast_outage_prob(*p, rule)
            bounds = unicast_outage_bounds(*p)
            assert bounds.lower <= res.total + 1e-9
            assert res.total <= bounds.upper + 1e-9


def test_outage_bounds_high_snr_hand_value():
    assert unicast_outage_bounds(*params(2, 3, 40.0)).lower_high_snr == pytest.approx(3e-4)


def test_shortfall_bound_hand_value():
    bound = noma_shortfall_bound(2, 3, LinkConfig(30.0, 1.0, 6.0))
    assert bound.exact == pytest.approx(1.1 * math.exp(-0.1) / 9.0, rel=1e-12)
    assert bound.high_snr == pytest.approx(1.0 / 9.0)


def test_shortfall_bound_high_snr_limit():
    bound = noma_shortfall_bound(*params(2, 3, 60.0))
    assert bound.exact == pytest.approx(bound.high_snr, rel=0.01)


# --- rate advantage / joint density ---------------------------------------------

def test_rate_advantage_zero_at_bottleneck():
    rng = RngStream(31)
    for i in range(200):
        _, _, cfg = params(2, 5, 10 + 30 * float(rng.uniform()))
        u = cfg.eps_m / cfg.rho + float(rng.exponential()) + 1e-6
        assert abs(noma_rate_advantage(u, u, cfg)) < 1e-9


def test_rate_advantage_increases_at_high_snr():
    _, _, cfg = params(2, 5, 40.0)  # rho = 1e4
    assert noma_rate_advantage(1.0, 2.0, cfg) >= noma_rate_advantage(1.0, 1.5, cfg)


def test_rate_advantage_rejects_bad_inputs():
    _, _, cfg = params(2, 5, 10.0)
    with pytest.raises(ValueError):
        noma_rate_advantage(0.05, 1.0, cfg)
    with pytest.raises(ValueError):
        noma_rate_advantage(1.0, 0.5, cfg)


def test_rate_advantage_reconstructs_secrecy_gap():
    """F_u(z1) - F_u(z2) equals the direct NOMA-minus-OMA secrecy difference."""
    rng = RngStream(37)
    checked = 0
    while checked < 500:
        cfg = LinkConfig(10.0 ** (float(rng.uniform()) * 3 + 0.5), 1.0, 6.0)
        z = np.sort(rng.exponential(4))[::-1]  # z[0] >= z[1] >= z[2]
        u = z[-1]
        if u <= cfg.eps_m / cfg.rho:
            continue
        checked += 1
        z1, z2 = z[0] + 0.5, z[0]  # unicast user strongest
        out = oracle.evaluate_link(oracle.gains(z1, z), cfg)
        direct = ((out.noma_unicast - max(out.noma_eaves))
                  - (out.oma_unicast - max(out.oma_eaves)))
        via_advantage = noma_rate_advantage(u, z1, cfg) - noma_rate_advantage(u, z2, cfg)
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
        secrecy_outage_prob(*params(2, 2, 20.0, r_s=2.0), chebyshev_rule(100))


def test_secrecy_outage_components_in_range():
    rule = chebyshev_rule(200)
    for snr in (0.0, 10.0, 20.0, 40.0):
        res = secrecy_outage_prob(*params(10, 11, snr, r_s=2.0), rule)
        for q in (res.q4, res.q5, res.q6):
            assert -1e-9 <= q <= 1.0 + 1e-9
        assert -1e-3 <= res.raw <= 1.0 + 1e-3
        assert 0.0 <= res.total <= 1.0


def test_secrecy_outage_certain_at_low_snr():
    res = secrecy_outage_prob(*params(10, 11, -20.0, r_s=2.0), chebyshev_rule(100))
    assert res.total == pytest.approx(1.0, abs=1e-6)


def test_secrecy_outage_refinement_delta():
    res = secrecy_outage_prob(*params(10, 11, 20.0, r_s=2.0), chebyshev_rule(500),
                              check_refinement=True)
    assert res.refinement_delta is not None and res.refinement_delta < 1e-4


def test_secrecy_zero_target_drops_gap_branch():
    res = secrecy_outage_prob(*params(10, 11, 20.0, r_s=0.0), chebyshev_rule(200))
    assert res.q4 == pytest.approx(0.0, abs=1e-12)


# --- blocked secrecy quadrature vs the whole-grid oracle ---------------------------

EPS = np.finfo(np.float64).eps


@pytest.mark.parametrize("m", [1, 2, 3, 10, 100, 101, 150, 300])
def test_regularized_gamma_matches_oracle_bit_for_bit(m):
    """Up to shape 100 the Horner loop on 1/m! stays within 2*m ulps of the
    oracle's; above it every entry is gammaincc's, bit for bit."""
    from nomacast.analysis import _upper_reg
    x = np.concatenate([np.linspace(0.0, 50.0, 1001), np.logspace(-6, 6, 601),
                        [1e4, np.inf]])
    if m > 100:
        assert np.array_equal(_upper_reg(m, x), special.gammaincc(m, x))
        assert _upper_reg(m, 2.5) == special.gammaincc(m, 2.5)
    else:
        np.testing.assert_allclose(_upper_reg(m, x), secrecy_oracle.upper_reg(m, x),
                                   rtol=2 * m * EPS, atol=1e-300)
        assert _upper_reg(m, 2.5) == pytest.approx(secrecy_oracle.upper_reg(m, 2.5),
                                                   rel=2 * m * EPS, abs=0)


def test_regularized_gamma_above_shape_100_has_no_false_zeros():
    """exp(-x) underflows at these points, but the values are representable
    (references from mpmath at 40 digits)."""
    from nomacast.analysis import _upper_reg
    assert _upper_reg(300, 800.0) == pytest.approx(6.058669723339453e-92, rel=1e-12, abs=0)
    assert _upper_reg(101, 750.0) == pytest.approx(7.538878552219594e-197, rel=1e-12, abs=0)


@pytest.mark.parametrize("m, x", [(100, 750.0), (50, 760.0), (10, 745.5)])
def test_regularized_gamma_up_to_shape_100_has_no_false_zeros(m, x):
    """exp(-x) underflows at these points, but the series times exp(-x/2)
    twice does not: gammaincc gives 1.0e-197, 2.2e-252 and 3.4e-304."""
    from nomacast.analysis import _upper_reg
    assert _upper_reg(m, x) == pytest.approx(special.gammaincc(m, x), rel=1e-12, abs=0)
    assert _upper_reg(m, np.array([1.0, x]))[1] == _upper_reg(m, x)


# na = 7 and 33 fit in one block; at na = 500 the last block is ragged (500 = 15 x 32 + 20)
@pytest.mark.parametrize("na", [7, 33, 500])
@pytest.mark.parametrize("m", [1, 2, 10, 150])  # 150 takes the gammaincc branch
def test_secrecy_quadrature_matches_whole_grid_oracle(m, na):
    """Blocked sums agree with the whole-grid ones to 1e-13 (about 450 ulps);
    k = 3, 4, 5, 11 raise the density to the powers 0, 1, 2 and 8."""
    from nomacast.analysis import _secrecy_q4_q6
    rule = chebyshev_rule(na)
    for k in (3, 4, 5, 11):
        for r_s in (0.0, 2.0):
            for snr in (0.0, 20.0, 60.0):
                p = params(m, k, snr, r_s=r_s)
                assert _secrecy_q4_q6(*p, rule) == pytest.approx(
                    secrecy_oracle.secrecy_q4_q6(*p, rule), rel=0, abs=1e-13)


@pytest.mark.parametrize("m, na", [(10, 7), (10, 33), (150, 33), (10, 500)])
def test_secrecy_refinement_matches_whole_grid_oracle(m, na):
    """check_refinement reruns the doubled grid; its delta agrees to 2e-13."""
    p = params(m, 11, 20.0, r_s=2.0)
    res = secrecy_outage_prob(*p, chebyshev_rule(na), check_refinement=True)
    q4, q6 = secrecy_oracle.secrecy_q4_q6(*p, chebyshev_rule(na))
    f4, f6 = secrecy_oracle.secrecy_q4_q6(*p, chebyshev_rule(2 * na))
    assert (res.q4, res.q6) == pytest.approx((q4, q6), rel=0, abs=1e-13)
    assert res.refinement_delta == pytest.approx(
        abs(q4 + res.q5 + q6 - (f4 + res.q5 + f6)), rel=0, abs=2e-13)


def test_secrecy_quadrature_memory_stays_blocked():
    """No (na, na) buffer and no per-block arrays: at na = 2000 one full grid
    array alone is 31 MiB, and the call peaks near 0.88 MB with its block
    arrays in one workspace, 1.01 MB when a block allocates one 128 KiB array
    of its own and 1.39 MB when it allocates all of them."""
    import tracemalloc
    from nomacast.analysis import _secrecy_q4_q6
    p, rule = params(10, 11, 20.0, r_s=2.0), chebyshev_rule(2000)
    tracemalloc.start()
    try:
        _secrecy_q4_q6(*p, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 950_000


_BITS = json.loads((Path(__file__).parent / "data" / "closed_form_bits.json").read_text())


def _hexes(values):
    return [float(x).hex() for x in values]


def _sha256(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def _libm_matches_recording() -> bool:
    """exp, cos and gammaincc at the recording's probe points, and sha256 hashes
    of exp on [-745, 0], log1p on (-1, 0] and u**(1/9) on [0, 1] at 100 001
    points each: numpy's AVX2 and AVX-512 kernels round these differently."""
    probe, x, u = _BITS["probe"], np.linspace(0.0, 40.0, 97), np.linspace(0.0, 1.0, 100_001)
    return (_hexes(np.exp(-x)) == probe["exp"]
            and _hexes(chebyshev_rule(7).nodes) == probe["nodes"]
            and _hexes(special.gammaincc(150, 100.0 + x)) == probe["gammaincc"]
            and _sha256(np.exp(np.linspace(-745.0, 0.0, 100_001))) == probe["exp_sha256"]
            and _sha256(np.log1p(-u[:-1])) == probe["log1p_sha256"]
            and _sha256(np.power(u, 1.0 / 9.0)) == probe["pow_sha256"])


_POINTS = [(kind, pt) for kind in ("unicast", "secrecy") for pt in _BITS[kind]]


@pytest.mark.parametrize("kind, point", _POINTS, ids=[
    "-".join([kind] + [f"{key}{val:g}" for key, val in pt.items() if key != "bits"])
    for kind, pt in _POINTS])
def test_closed_forms_match_recorded_bits(kind, point):
    """Every result field, refinement delta included, equals the float.hex
    recorded before q3 and the secrecy block loop were rewritten in place
    (the golden CSVs fix only 9 digits).  The points cover M = 10 and 2 at
    na = 20, M = 150 (the gammaincc path) for both closed forms, and for the
    secrecy quadrature a partial last block (na = 500), na = 2000, density
    powers 0 and 1 (K = 3, 4) and r_s = 0..3.  The probe pins the library
    functions the bits rest on: where exp, cos, gammaincc, log1p or pow round
    otherwise (another numpy build or CPU dispatch), the recorded bits do not
    apply."""
    if not _libm_matches_recording():
        pytest.skip("libm rounds differently from the recording's numpy build and dispatch")
    cfg = LinkConfig(10.0 ** (point["snr_db"] / 10.0), 1.0,
                     point["r_u"] if kind == "unicast" else 6.0, point.get("r_s", 0.0))
    prob = unicast_outage_prob if kind == "unicast" else secrecy_outage_prob
    assert _hexes(astuple(prob(point["m"], point["k"], cfg, chebyshev_rule(point["na"]), check_refinement=True))) == (
        point["bits"])


def test_recorded_bits_hold_or_skip_under_another_cpu_dispatch():
    """With numpy's AVX-512 kernels disabled, exp, log1p and pow round otherwise
    on an AVX-512 machine (its AVX2 path): the probe must see that, so every
    pinned case passes or skips and none fails."""
    src = Path(nomacast.__file__).resolve().parents[1]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4",
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          f"{__file__}::test_closed_forms_match_recorded_bits"],
                         cwd=Path(__file__).resolve().parents[1], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    counts = re.findall(r"(\d+) (passed|skipped)", run.stdout.splitlines()[-1])
    assert sum(int(n) for n, _ in counts) == len(_POINTS), run.stdout[-3000:]

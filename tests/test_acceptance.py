"""End-to-end acceptance checks.

Each test prints one ``criterion NN PASS/FAIL`` line with the measured
numbers, then asserts.  Run with ``pytest tests/test_acceptance.py -v -s``
to see every line.  Criterion 09's rate-level target is not reachable for
this configuration (the all-multicast event alone caps the secrecy outage
rate well below the target at 10 dB); the check is kept as stated and is
expected to fail.  See the README's acceptance section.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from nomacast.analysis import (AnalysisParams, adaptive_integrate,
                               chebyshev_rule, incomplete_gamma_int,
                               joint_minmax_pdf, noma_rate_advantage,
                               noma_shortfall_bound, secrecy_outage_prob,
                               unicast_outage_prob)
from nomacast.montecarlo import (MetricKind, SimulationPlan,
                                 compare_secrecy_rates, estimate, estimate_many,
                                 scheduling_check, sweep)
from nomacast.rng import DOMAIN_DIRECT_GAINS, RngStream, bits_to_exponential, window_bits
from nomacast.transmission import LinkConfig, power_fraction, time_fraction

DATA_DIR = Path(__file__).parent / "data"


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_c01_unicast_outage_rates_at_16db():
    """NOMA supports ~4 BPCU at 16 dB where OMA supports ~0.8 BPCU."""
    t0 = time.perf_counter()
    cfg = LinkConfig(10.0 ** 1.6, r_m=1.0, r_u=6.0)
    plan = SimulationPlan(1_000_000, seed=1001)
    got = estimate_many((MetricKind.OUTAGE_RATE_UNICAST,
                         MetricKind.OUTAGE_RATE_UNICAST_OMA), cfg, (10, 11), plan)
    noma = got[MetricKind.OUTAGE_RATE_UNICAST].value
    oma = got[MetricKind.OUTAGE_RATE_UNICAST_OMA].value
    elapsed = time.perf_counter() - t0
    ok = abs(noma - 4.0) <= 0.3 and abs(oma - 0.8) <= 0.2 and elapsed < 60.0
    assert _report(1, ok, f"NOMA rate {noma:.3f} BPCU (target 4.0+-0.3), "
                          f"OMA {oma:.3f} (target 0.8+-0.2), {elapsed:.1f}s")


def test_c02_unicast_outage_analytic_vs_monte_carlo():
    """Closed-form unicast outage tracks simulation across the SNR grid."""
    grid = list(range(0, 41, 4))
    rule = chebyshev_rule(20)
    worst = 0.0
    ok = True
    for m in (2, 10):
        cfg = LinkConfig(1.0, r_m=1.0, r_u=6.0)
        plan = SimulationPlan(1_000_000, seed=1002 + m, workers=2)
        points = sweep(MetricKind.UNICAST_OUTAGE, cfg, grid, (m, 11), plan)
        for snr_db, est in points:
            p = AnalysisParams(m, 11, 10.0 ** (snr_db / 10.0), 1.0, 63.0)
            analytic = unicast_outage_prob(p, rule).total
            diff = abs(analytic - est.value)
            tol = max(0.005, 3.0 * est.stderr)
            worst = max(worst, diff)
            ok &= diff <= tol
    assert _report(2, ok, f"max |analytic - mc| = {worst:.5f} over both antenna "
                          f"counts and 11 grid points (tol 0.005 or 3 SE)")


def test_c03_multicast_outage_identical_for_noma_and_oma():
    """The all-multicast event is the same realization set for both schemes."""
    cfg = LinkConfig(10.0, r_m=1.0, r_u=6.0)
    m, k, n = 10, 11, 1_000_000
    mismatches = 0
    outages = 0
    for lo in range(0, n, 1 << 16):
        hi = min(lo + (1 << 16), n)
        bits = window_bits(1003, DOMAIN_DIRECT_GAINS, lo, hi - lo, m + k - 1)
        e = bits_to_exponential(bits)
        z1, others = e[:, :m].sum(axis=1), e[:, m:]
        gmin = np.minimum(z1, others.min(axis=1))
        alpha = power_fraction(gmin, cfg)
        gamma = time_fraction(gmin, cfg)
        mismatches += int(np.count_nonzero((alpha == 0.0) != (gamma == 1.0)))
        outages += int(np.count_nonzero(alpha == 0.0))
    ok = mismatches == 0 and 0 < outages < n
    assert _report(3, ok, f"{mismatches} mismatches over {n} realizations "
                          f"({outages} outages)")


def test_c04_unicast_outage_diversity_slope():
    """log10 outage falls one decade per 10 dB between 35 and 45 dB."""
    rule = chebyshev_rule(20)
    slopes = {}
    ok = True
    for m in (2, 10):
        snrs = np.arange(35.0, 45.1, 1.0)
        pn = np.array([unicast_outage_prob(
            AnalysisParams(m, 11, 10.0 ** (s / 10.0), 1.0, 63.0), rule).total
            for s in snrs])
        design = np.vstack([snrs / 10.0, np.ones_like(snrs)]).T
        slope = float(np.linalg.lstsq(design, np.log10(pn), rcond=None)[0][0])
        slopes[m] = slope
        ok &= -1.15 <= slope <= -0.85
    assert _report(4, ok, f"slopes M=2: {slopes[2]:.3f}, M=10: {slopes[10]:.3f} "
                          f"(target [-1.15, -0.85])")


def test_c05_exact_identity_suite():
    """Randomized exact identities at 1e-9 relative tolerance."""
    rng = RngStream(1005)
    n = 10_000

    # bottleneck rate identity
    rho = 10.0 ** (rng.uniform(n) * 4.0)
    r_m = 0.5 + rng.uniform(n) * 2.5
    eps_m = 2.0**r_m - 1.0
    z = eps_m / rho * (1.0 + rng.exponential(n))
    lhs = np.log2(1.0 + rho * (z - eps_m / rho) / (1.0 + eps_m))
    rhs = np.log2(1.0 + rho * z) - r_m
    rate_ok = np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    # the rate advantage vanishes at the bottleneck gain
    adv_ok = True
    for i in range(n):
        p = AnalysisParams(2, 5, float(10.0 ** (rng.uniform() * 4.0)), 1.0, 63.0)
        u = p.eps_m / p.rho + float(rng.exponential()) + 1e-9
        adv_ok &= abs(noma_rate_advantage(u, u, p)) <= 1e-9

    # incomplete gamma complementarity
    gamma_ok = True
    for i in range(n):
        m = int(rng.uniform() * 30) + 1
        x = float(rng.uniform()) * 100.0
        upper, lower = incomplete_gamma_int(m, x)
        fact = math.factorial(m - 1)
        gamma_ok &= abs(upper + lower - fact) <= 1e-9 * fact
        gamma_ok &= abs(upper - special.gammaincc(m, x) * fact) <= 1e-9 * fact

    ok = rate_ok and adv_ok and gamma_ok
    assert _report(5, ok, f"rate identity {rate_ok}, bottleneck advantage {adv_ok}, "
                          f"gamma complementarity {gamma_ok} (10^4 inputs each)")


def test_c06_noma_shortfall_probability_bound():
    """Monte Carlo P(NOMA <= OMA) sits above its closed-form floor."""
    cfg = LinkConfig(1.0, r_m=1.0, r_u=6.0)
    ok = True
    worst_margin = np.inf
    for idx, snr_db in enumerate([0, 5, 10, 15, 20, 25, 30, 35, 40, 60]):
        point = LinkConfig(10.0 ** (snr_db / 10.0), 1.0, 6.0)
        plan = SimulationPlan(1_000_000, seed=1006)
        est = estimate(MetricKind.NOMA_TRAILS_OMA, point, (2, 3), plan,
                       stream_base=idx * plan.samples)
        bound = noma_shortfall_bound(AnalysisParams.from_link(2, 3, point))
        margin = est.value - (bound.exact - 3.0 * est.stderr)
        worst_margin = min(worst_margin, margin)
        ok &= margin >= 0.0
    bound60 = noma_shortfall_bound(AnalysisParams(2, 3, 1e6, 1.0, 63.0))
    limit_ok = abs(bound60.exact - bound60.high_snr) <= 0.01 * bound60.high_snr
    ok &= limit_ok
    assert _report(6, ok, f"worst margin above bound {worst_margin:+.4f}; "
                          f"60 dB bound within 1% of K^-M: {limit_ok}")


def test_c07_noma_secrecy_rate_dominates_oma():
    """Mean secrecy-rate gap nonnegative; violations within the pilot bound."""
    pilot = json.loads((DATA_DIR / "secrecy_gap_pilot.json").read_text())
    assert pilot["plan"]["samples"] == 10_000_000  # provenance of the bound
    cfg = LinkConfig(10.0 ** 4.0, r_m=1.0, r_u=6.0)
    plan = SimulationPlan(1_000_000, seed=1007)
    cmp = compare_secrecy_rates(cfg, (10, 11), plan)
    gap_ok = cmp.mean_gap.value >= -3.0 * cmp.mean_gap.stderr
    bound = (pilot["violation_fraction"]
             + 3.0 * (pilot["violation_stderr"] + cmp.violation_fraction.stderr))
    viol_ok = cmp.violation_fraction.value <= bound
    ok = gap_ok and viol_ok
    assert _report(7, ok, f"mean gap {cmp.mean_gap.value:.4f} "
                          f"(+-{cmp.mean_gap.stderr:.1e}), violation fraction "
                          f"{cmp.violation_fraction.value:.2e} <= pilot bound "
                          f"{bound:.2e}")


def test_c08_secrecy_outage_analytic_vs_monte_carlo():
    """Closed-form secrecy outage tracks simulation across the SNR grid."""
    grid = list(range(0, 41, 5))
    rule = chebyshev_rule(500)
    cfg = LinkConfig(1.0, r_m=1.0, r_u=6.0, r_s=2.0)
    plan = SimulationPlan(1_000_000, seed=1008, workers=2)
    points = sweep(MetricKind.SECRECY_OUTAGE, cfg, grid, (10, 11), plan)
    worst = 0.0
    ok = True
    for snr_db, est in points:
        p = AnalysisParams(10, 11, 10.0 ** (snr_db / 10.0), 1.0, 63.0, 3.0)
        analytic = secrecy_outage_prob(p, rule).total
        diff = abs(analytic - est.value)
        worst = max(worst, diff)
        ok &= diff <= max(0.01, 3.0 * est.stderr)
    assert _report(8, ok, f"max |analytic - mc| = {worst:.5f} over 9 grid points "
                          f"(tol 0.01 or 3 SE)")


@pytest.mark.xfail(reason="the all-multicast event alone caps the 10 dB secrecy "
                          "outage rate at 3 e^-1 ~ 1.10 BPCU for K=11, and the "
                          "realized optimum over the target grid is ~0.28 BPCU; "
                          "the 1.0 BPCU floor is unreachable at this operating "
                          "point", strict=True)
def test_c09_secrecy_outage_rate_point():
    """Best NOMA secrecy outage rate at 10 dB across targets 1..3 BPCU."""
    best = (-1.0, None, None)
    for idx, r_s in enumerate((1.0, 2.0, 3.0)):
        cfg = LinkConfig(10.0, r_m=1.0, r_u=6.0, r_s=r_s)
        plan = SimulationPlan(1_000_000, seed=1009)
        got = estimate_many((MetricKind.OUTAGE_RATE_SECRECY,
                             MetricKind.OUTAGE_RATE_SECRECY_OMA), cfg, (10, 11),
                            plan, stream_base=idx * plan.samples)
        noma = got[MetricKind.OUTAGE_RATE_SECRECY].value
        oma = got[MetricKind.OUTAGE_RATE_SECRECY_OMA].value
        if noma > best[0]:
            best = (noma, oma, r_s)
    noma, oma, r_s = best
    ratio = noma / oma if oma > 0 else np.inf
    ok = noma >= 1.0 and ratio >= 3.0
    assert _report(9, ok, f"best NOMA secrecy outage rate {noma:.3f} BPCU at "
                          f"target {r_s:g} (floor 1.0), OMA {oma:.3f}, "
                          f"ratio {ratio:.1f} (floor 3.0)")


def test_c10_scheduling_widens_secrecy_rate_gap():
    """NOMA-OMA secrecy outage-rate gap at 20 dB, without and with scheduling."""
    cfg = LinkConfig(100.0, r_m=1.0, r_u=6.0, r_s=2.0)
    gaps = {}
    for scheduling in (False, True):
        plan = SimulationPlan(1_000_000, seed=1010, scheduling=scheduling,
                              workers=2)
        got = estimate_many((MetricKind.OUTAGE_RATE_SECRECY,
                             MetricKind.OUTAGE_RATE_SECRECY_OMA), cfg, (10, 11),
                            plan)
        gaps[scheduling] = (got[MetricKind.OUTAGE_RATE_SECRECY].value
                            - got[MetricKind.OUTAGE_RATE_SECRECY_OMA].value)
    ok = abs(gaps[False] - 0.6) <= 0.2 and abs(gaps[True] - 1.1) <= 0.2
    assert _report(10, ok, f"gap without scheduling {gaps[False]:.3f} BPCU "
                           f"(target 0.6+-0.2), with scheduling {gaps[True]:.3f} "
                           f"(target 1.1+-0.2)")


def test_c11_quadrature_against_adaptive_oracle():
    """Chebyshev branch integrals agree with adaptive integration and are
    converged at 500 nodes."""
    rule = chebyshev_rule(500)
    finer = chebyshev_rule(1000)
    ok = True
    details = []

    # unicast branch integral at the 16 dB operating point
    for m in (2, 10):
        p = AnalysisParams(m, 11, 10.0 ** 1.6, 1.0, 63.0)
        q3 = unicast_outage_prob(p, rule).q3
        q3f = unicast_outage_prob(p, finer).q3

        def integrand(x):
            inner = 1.0 / p.psi - p.eps_m / (p.rho * p.psi) * x
            hi = special.gammaincc(m, 1.0 / x)
            lo = np.where(inner > 0,
                          special.gammaincc(m, 1.0 / np.maximum(inner, 1e-300)), 0.0)
            return (hi - lo) * (p.k - 1) / x**2 * np.exp(-(p.k - 1) / x)

        oracle = adaptive_integrate(integrand, p.a, p.b, 1e-7)
        ok &= abs(q3 - oracle) <= 1e-3 and abs(q3 - q3f) < 1e-4
        details.append(f"q3[M={m}] |d|={abs(q3 - oracle):.1e}")

    # secrecy branch integrals at 10 and 20 dB
    for snr_db in (10.0, 20.0):
        p = AnalysisParams(10, 11, 10.0 ** (snr_db / 10.0), 1.0, 63.0, 3.0)
        res = secrecy_outage_prob(p, rule)
        res_f = secrecy_outage_prob(p, finer)
        thr = p.eps_m / p.rho
        scale = 1.0 + p.eps_s

        def outer(v, which):
            v = np.atleast_1d(v)
            out = np.empty_like(v)
            for i, vv in enumerate(v):
                def inner(u):
                    pdf = joint_minmax_pdf(u, vv, p.k)
                    if which == "q4":
                        with np.errstate(divide="ignore"):
                            shift = p.xi / (1.0 - thr / u)
                        return pdf * (special.gammainc(p.m, np.minimum(
                            scale * vv + shift, 1e9)) - special.gammainc(p.m, scale * vv))
                    return pdf * (special.gammainc(p.m, scale * vv)
                                  - special.gammainc(p.m, u))
                out[i] = (adaptive_integrate(inner, thr, vv, 2e-6)
                          if vv > thr * (1 + 1e-12) else 0.0)
            return out

        q4_oracle = adaptive_integrate(lambda v: outer(v, "q4"), thr, np.inf, 1e-5)
        q6_oracle = adaptive_integrate(lambda v: outer(v, "q6"), thr, np.inf, 1e-5)
        ok &= abs(res.q4 - q4_oracle) <= 1e-3 and abs(res.q4 - res_f.q4) < 1e-4
        ok &= abs(res.q6 - q6_oracle) <= 1e-3 and abs(res.q6 - res_f.q6) < 1e-4
        details.append(f"q4@{snr_db:g}dB |d|={abs(res.q4 - q4_oracle):.1e}")
        details.append(f"q6@{snr_db:g}dB |d|={abs(res.q6 - q6_oracle):.1e}")

    assert _report(11, ok, "; ".join(details))


def test_c12_scheduling_gain_dominance_exact():
    """With the strongest user scheduled, z1 >= u on every realization."""
    cfg = LinkConfig(100.0, r_m=1.0, r_u=6.0, r_s=2.0)
    plan = SimulationPlan(1_000_000, seed=1012, scheduling=True, workers=2)
    frac = scheduling_check(cfg, (2, 11), plan)
    ok = frac.value == 1.0
    assert _report(12, ok, f"z1 >= u on fraction {frac.value:.7f} of 10^6 draws "
                           f"(required: exactly 1)")

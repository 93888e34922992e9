"""Closed-form and quadrature evaluation of the outage probabilities.

Everything here is deterministic numerics: the exact finite-series
incomplete gamma for integer shapes, the Chebyshev-Gauss rule, the
three-term unicast outage decomposition with its bounds, the lower bound
on the probability that NOMA trails OMA, the per-eavesdropper rate
advantage function, the joint min/max density of the non-unicast gains,
and the three-term secrecy outage decomposition.  The Monte Carlo engine
is the independent cross-check for all of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from .transmission import LinkConfig

# Series argument beyond which the regularized upper incomplete gamma is
# below ~1e-3900 for every supported shape; clipping there avoids inf*0
# while leaving all representable values exact.
_GAMMA_ARG_CAP = 1e4


class UnsupportedAnalyticsError(ValueError):
    """A closed-form expression does not cover the requested configuration."""


# --- incomplete gamma (integer shape) ----------------------------------------

def _upper_reg(shape: int, x) -> np.ndarray:
    """Regularized upper incomplete gamma for integer shape.

    Gamma(M, x) / (M-1)! = exp(-x) * sum_{m<M} x^m / m!, evaluated with a
    Horner recurrence; exact (to rounding) for every integer shape.  Above
    shape 100 the sum can overflow where exp(-x) underflows; such entries
    come from ``scipy.special.gammaincc`` instead.
    """
    x = np.asarray(x, dtype=np.float64)
    xc = np.minimum(x, _GAMMA_ARG_CAP)
    p = np.ones_like(xc)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(shape - 1, 0, -1):
            p = 1.0 + p * xc / m
        out = np.exp(-xc) * p
    if shape > 100:
        out = np.where(np.isfinite(out), out, gammaincc(shape, xc))
    return out


def _lower_reg(shape: int, x) -> np.ndarray:
    return 1.0 - _upper_reg(shape, x)


def incomplete_gamma_int(shape: int, x):
    """Upper and lower incomplete gamma at integer shape.

    Returns ``(upper, lower)`` with upper + lower = (shape-1)!.
    """
    if shape < 1:
        raise ValueError(f"shape must be a positive integer, got {shape}")
    if np.any(np.asarray(x) < 0):
        raise ValueError("x must be nonnegative")
    fact = float(math.factorial(shape - 1))
    upper = _upper_reg(shape, x) * fact
    return upper, fact - upper


# --- quadrature ---------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Chebyshev-Gauss nodes and weights on (-1, 1)."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def order(self) -> int:
        return len(self.nodes)


def chebyshev_rule(n_nodes: int) -> QuadratureRule:
    """Nodes cos((2i-1)pi/(2n)) and uniform weights pi/n."""
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    i = np.arange(1, n_nodes + 1)
    nodes = np.cos((2 * i - 1) * np.pi / (2 * n_nodes))
    return QuadratureRule(nodes, np.full(n_nodes, np.pi / n_nodes))


def _cheb_integral(rule: QuadratureRule, lo: float, hi: float, f) -> float:
    """Integrate f over [lo, hi] with the Chebyshev-Gauss rule."""
    half = 0.5 * (hi - lo)
    t = half * rule.nodes + 0.5 * (hi + lo)
    return float(np.sum(rule.weights * half * f(t) * np.sqrt(1.0 - rule.nodes**2)))


def adaptive_integrate(f, lo: float, hi: float, tol: float = 1e-8,
                       max_depth: int = 48) -> float:
    """Adaptive Simpson integration down to an absolute tolerance.

    ``f`` must accept numpy arrays.  An infinite upper limit is mapped to a
    finite interval through x = lo + t/(1-t).  Raises RuntimeError if some
    subinterval still fails its share of the tolerance after ``max_depth``
    rounds of bisection.
    """
    if hi == np.inf:
        def mapped(t):
            t = np.asarray(t, dtype=np.float64)
            x = lo + t / (1.0 - t)
            return f(x) / (1.0 - t) ** 2
        return adaptive_integrate(mapped, 0.0, 1.0 - 1e-12, tol, max_depth)
    if not hi > lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    length = hi - lo
    a = np.array([lo], dtype=np.float64)
    b = np.array([hi], dtype=np.float64)
    total = 0.0
    for _ in range(max_depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        fa, fm, fb, flm, frm = f(a), f(m), f(b), f(lm), f(rm)
        coarse = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        fine = (b - a) / 12.0 * (fa + 4.0 * flm + 2.0 * fm + 4.0 * frm + fb)
        done = np.abs(fine - coarse) / 15.0 <= tol * (b - a) / length
        total += float(np.sum(fine[done]))
        if np.all(done):
            return total
        keep = ~done
        a = np.concatenate([a[keep], m[keep]])
        b = np.concatenate([m[keep], b[keep]])
    raise RuntimeError(f"adaptive integration did not converge; {len(a)} intervals "
                       f"above tolerance after {max_depth} refinement rounds")


# --- parameter bundle ---------------------------------------------------------

@dataclass(frozen=True)
class AnalysisParams:
    """System size, SNR, and the derived thresholds the closed forms use."""

    m: int
    k: int
    rho: float
    eps_m: float
    eps_u: float
    eps_s: float = 0.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"need at least 1 antenna, got {self.m}")
        if self.k < 2:
            raise ValueError(f"need at least 2 users, got {self.k}")
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not (self.eps_m > 0 and self.eps_u > 0 and self.eps_s >= 0):
            raise ValueError("thresholds must be positive (eps_s may be zero)")

    @classmethod
    def from_link(cls, m: int, k: int, cfg: LinkConfig) -> "AnalysisParams":
        return cls(m, k, cfg.rho, cfg.eps_m, cfg.eps_u, cfg.eps_s)

    @property
    def phi(self) -> float:
        """Gain a bottlenecked unicast user needs for outage-free decoding."""
        return self.eps_m / self.rho + self.eps_u * (1.0 + self.eps_m) / self.rho

    @property
    def psi(self) -> float:
        """Unicast threshold inflated by the multicast protection factor."""
        return self.eps_u * (1.0 + self.eps_m) / self.rho

    @property
    def xi(self) -> float:
        """Secrecy threshold inflated by the multicast protection factor."""
        return self.eps_s * (1.0 + self.eps_m) / self.rho

    @property
    def a(self) -> float:
        """Lower quadrature endpoint on the reciprocal min-gain axis."""
        return 1.0 / (self.psi * (1.0 + self.eps_m / (self.rho * self.psi)))

    @property
    def b(self) -> float:
        """Upper quadrature endpoint, reciprocal of the multicast threshold."""
        return self.rho / self.eps_m


# --- multicast / unicast outage ------------------------------------------------

def multicast_outage_prob(p: AnalysisParams) -> float:
    """P(min over all K gains < eps_m/rho); identical for NOMA and OMA."""
    thr = p.eps_m / p.rho
    return float(1.0 - _upper_reg(p.m, thr) * np.exp(-(p.k - 1) * thr))


@dataclass(frozen=True)
class UnicastOutageResult:
    """Assembled NOMA unicast outage probability with its three components."""

    total: float
    raw: float
    q1: float
    q2: float
    q3: float
    refinement_delta: float | None = None


def _reciprocal_gain_cdf(p: AnalysisParams, z) -> np.ndarray:
    """CDF of 1/z1: P(1/z1 <= z) = Gamma(m, 1/z)/(m-1)! for z > 0."""
    z = np.asarray(z, dtype=np.float64)
    out = np.zeros_like(z)
    pos = z > 0
    out[pos] = _upper_reg(p.m, 1.0 / z[pos])
    return out


def _reciprocal_min_pdf(p: AnalysisParams, x) -> np.ndarray:
    """Density of 1/u where u is the min of k-1 unit exponentials."""
    x = np.asarray(x, dtype=np.float64)
    return (p.k - 1) / x**2 * np.exp(-(p.k - 1) / x)


def unicast_outage_prob(p: AnalysisParams, rule: QuadratureRule,
                        check_refinement: bool = False) -> UnicastOutageResult:
    """NOMA unicast outage probability P(R_U1 < r_u).

    Decomposes the outage event into the all-multicast branch (q1), the
    branch where the unicast user's own gain is the allocation bottleneck
    (q2, in closed form), and the branch where the weakest other user is
    (q3, by Chebyshev-Gauss quadrature on the reciprocal-gain axis).

    With ``check_refinement`` the quadrature is repeated at twice the node
    count and the difference reported; a delta above ~1e-4 flags a rule
    that is too coarse for the operating point.
    """
    q1 = multicast_outage_prob(p)
    thr = p.eps_m / p.rho
    q2 = float((_lower_reg(p.m, p.k * p.phi) - _lower_reg(p.m, p.k * thr))
               * float(p.k) ** -p.m)

    slope = p.eps_m / (p.rho * p.psi)

    def integrand(x):
        return ((_reciprocal_gain_cdf(p, x)
                 - _reciprocal_gain_cdf(p, 1.0 / p.psi - slope * x))
                * _reciprocal_min_pdf(p, x))

    q3 = _cheb_integral(rule, p.a, p.b, integrand)
    raw = q1 + q2 + q3
    delta = None
    if check_refinement:
        finer = chebyshev_rule(2 * rule.order)
        raw2 = q1 + q2 + _cheb_integral(finer, p.a, p.b, integrand)
        delta = abs(raw - raw2)
    return UnicastOutageResult(float(np.clip(raw, 0.0, 1.0)), raw, q1, q2, q3, delta)


@dataclass(frozen=True)
class OutageBounds:
    """Bracketing bounds on the NOMA unicast outage probability."""

    lower: float
    upper: float
    lower_high_snr: float
    q1: float
    q2: float
    q31: float


def unicast_outage_bounds(p: AnalysisParams) -> OutageBounds:
    """Lower/upper bounds whose common high-SNR slope is one decade per 10 dB.

    The lower bound is the all-multicast branch alone; the upper bound
    replaces the bottleneck-branch integral with the probability that the
    weakest gain lands in the outage-critical window (q31).
    """
    thr = p.eps_m / p.rho
    q1 = multicast_outage_prob(p)
    q2 = float((_lower_reg(p.m, p.k * p.phi) - _lower_reg(p.m, p.k * thr))
               * float(p.k) ** -p.m)
    q31 = float(np.exp(-(p.k - 1) * thr) - np.exp(-(p.k - 1) * (thr + p.psi)))
    upper = min(1.0, q1 + q2 + q31)
    return OutageBounds(q1, upper, p.k * thr, q1, q2, q31)


@dataclass(frozen=True)
class ShortfallBound:
    """Lower bound on P(NOMA unicast rate <= OMA unicast rate)."""

    exact: float
    high_snr: float


def noma_shortfall_bound(p: AnalysisParams) -> ShortfallBound:
    """Probability floor for NOMA failing to beat OMA on the unicast rate.

    Whenever the unicast user's own gain is the allocation bottleneck
    (z1 below every other gain but above the multicast threshold), the two
    schemes deliver the same rate, so P(z1 > eps_m/rho, z1 < u) lower-bounds
    the comparison probability; it tends to K^-M as the SNR grows.
    """
    exact = float(_upper_reg(p.m, p.k * p.eps_m / p.rho) * float(p.k) ** -p.m)
    return ShortfallBound(exact, float(p.k) ** (-p.m))


# --- secrecy ------------------------------------------------------------------

def noma_rate_advantage(u: float, x, p: AnalysisParams):
    """NOMA-minus-OMA unicast rate at gain x when the weakest gain is u.

    Vanishes exactly at x = u and grows with x at high SNR, which is what
    makes the NOMA secrecy rate dominate the OMA one: the scheduled user
    (largest gain) benefits more than any eavesdropper.
    """
    u = float(u)
    if not u > p.eps_m / p.rho:
        raise ValueError("the weakest gain must exceed the multicast threshold")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < u):
        raise ValueError("gain x must be at least the weakest gain u")
    r_m = np.log2(1.0 + p.eps_m)
    boost = (u - p.eps_m / p.rho) / (u * (1.0 + p.eps_m))
    adv = (np.log2(1.0 + p.rho * x * boost)
           - (1.0 - r_m / np.log2(1.0 + p.rho * u)) * np.log2(1.0 + p.rho * x))
    return float(adv) if adv.ndim == 0 else adv


def joint_minmax_pdf(u, v, k: int):
    """Joint density of the min and max of k-1 unit exponentials on u <= v."""
    if k < 3:
        raise UnsupportedAnalyticsError(f"joint min/max analytics need K >= 3, got {k}")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    pdf = (k - 1) * (k - 2) * np.exp(-u - v) * (np.exp(-u) - np.exp(-v)) ** (k - 3)
    return float(pdf) if pdf.ndim == 0 else pdf


@dataclass(frozen=True)
class SecrecyOutageResult:
    """Assembled NOMA secrecy outage probability with its three components."""

    total: float
    raw: float
    q4: float
    q5: float
    q6: float
    refinement_delta: float | None = None


def _minmax_tail_cap(p: AnalysisParams) -> float:
    # P(v > cap) <= (k-1) e^-(cap) < 1e-16, so truncating the expectation
    # there changes nothing at double precision.
    return p.eps_m / p.rho + math.log(p.k - 1.0) + 37.0


def _secrecy_q4_q6(p: AnalysisParams, rule: QuadratureRule):
    """Nested Chebyshev-Gauss evaluation of the two secrecy integrals.

    Outer axis: the largest other gain v on [eps_m/rho, cap] (the tail
    beyond the cap is below double precision).  Integrating on the gain
    axis rather than its reciprocal keeps the nodes in the probability
    mass region at every SNR; the reciprocal-axis form spreads them over
    an interval that grows like the SNR and starves the mass region.
    Inner axis: the smallest other gain u on [eps_m/rho, v].
    """
    thr = p.eps_m / p.rho
    cap = _minmax_tail_cap(p)
    t = rule.nodes  # both axes use the same rule
    v = 0.5 * (cap - thr) * t + 0.5 * (cap + thr)
    half = 0.5 * (v - thr)
    u = half[:, None] * t[None, :] + 0.5 * (v[:, None] + thr)
    pdf = joint_minmax_pdf(u, v[:, None], p.k)
    scaled_v = (1.0 + p.eps_s) * v[:, None]  # 2^r_s * v
    with np.errstate(divide="ignore", over="ignore"):
        shift = p.xi / (1.0 - thr / u)
    d4 = _upper_reg(p.m, scaled_v) - _upper_reg(p.m, np.minimum(scaled_v + shift,
                                                                _GAMMA_ARG_CAP))
    d6 = _lower_reg(p.m, scaled_v) - _lower_reg(p.m, u)
    inner = rule.weights * np.sqrt(1.0 - t**2)
    outer = inner * 0.5 * (cap - thr) * half
    weight = outer[:, None] * inner[None, :] * pdf
    return float(np.sum(weight * d4)), float(np.sum(weight * d6))


def secrecy_outage_prob(p: AnalysisParams, rule: QuadratureRule,
                        check_refinement: bool = False) -> SecrecyOutageResult:
    """NOMA secrecy outage probability P((z1 - 2^r_s v) alpha_U^2 <= eps_s/rho).

    A realization with no positive secrecy rate is an outage, even at r_s = 0.
    q5 collects the branches that are certain outages (unicast user not the
    strongest, or all power spent on multicasting) in closed form; q4 and
    q6 cover the remaining branches through the nested quadrature over the
    joint min/max density.  Needs K >= 3.
    """
    if p.k < 3:
        raise UnsupportedAnalyticsError(
            f"secrecy analytics need K >= 3, got K={p.k}; use Monte Carlo instead")
    thr = p.eps_m / p.rho
    q5 = float(1.0 - _upper_reg(p.m, thr) * np.exp(-p.eps_m * (p.k - 1) / p.rho)
               + float(p.k) ** -p.m * _upper_reg(p.m, p.eps_m * p.k / p.rho))
    q4, q6 = _secrecy_q4_q6(p, rule)
    raw = q4 + q5 + q6
    delta = None
    if check_refinement:
        finer = chebyshev_rule(2 * rule.order)
        f4, f6 = _secrecy_q4_q6(p, finer)
        delta = abs(raw - (f4 + q5 + f6))
    return SecrecyOutageResult(float(np.clip(raw, 0.0, 1.0)), raw, q4, q5, q6, delta)

"""Closed-form and quadrature evaluation of the outage probabilities.

Everything here is deterministic numerics: the exact finite-series
incomplete gamma for integer shapes, the Chebyshev-Gauss rule, the
three-term unicast outage decomposition with its bounds, the probability
that NOMA trails OMA above the multicast threshold, and the three-term
secrecy outage decomposition over the joint min/max density of the
non-unicast gains.  Each closed form takes the system size (m antennas,
k users) and the operating point as the same ``LinkConfig`` the Monte Carlo
engine reads, which is the independent cross-check for all of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .transmission import LinkConfig

# Series argument beyond which the regularized upper incomplete gamma is
# below ~1e-3900 for every supported shape; clipping there avoids inf*0
# while leaving all representable values exact.
_GAMMA_ARG_CAP = 1e4

_INV_FACTORIAL = tuple(1 / math.factorial(m) for m in range(100))  # 1/m!, m < 100

# Elements per block of the nested secrecy quadrature grid: a block's five
# arrays (128 KiB each) fit in L2 cache, and the block sums set q4/q6's rounding.
_GRID_BLOCK = 1 << 14


class UnsupportedAnalyticsError(ValueError):
    """A closed-form expression does not cover the requested configuration."""


# --- incomplete gamma (integer shape) ----------------------------------------

def _upper_reg(shape: int, x, exp_neg_x=None, out=None) -> np.ndarray:
    """Regularized upper incomplete gamma for integer shape.

    Gamma(M, x) / (M-1)! = exp(-x) * sum_{m<M} x^m / m!: up to shape 100 a
    Horner recurrence on 1/m! (a multiply and an add per term, exact to
    rounding) times exp(-x) (exp(-x/2) twice where x > 700, as exp(-x) can
    underflow), or ``exp_neg_x`` if the caller holds it.  Above shape 100 the
    sum can overflow where exp(-x) underflows, so every entry comes from
    ``scipy.special.gammaincc``.  With ``out`` the result is written there
    and ``x``, a float64 array, is overwritten.
    """
    if out is None:  # x becomes a float64 copy that the call may overwrite
        out = np.empty_like(x := np.array(x, dtype=np.float64))
    np.minimum(x, _GAMMA_ARG_CAP, out=x)
    if shape > 100:
        from scipy.special import gammaincc  # imported only here: scipy is slow to load
        return gammaincc(shape, x, out=out)
    out.fill(_INV_FACTORIAL[shape - 1])
    for c in reversed(_INV_FACTORIAL[:shape - 1]):  # out = c + out*x, in place
        out *= x
        out += c
    if exp_neg_x is None and (big := x > 700.0).any():  # (out h) h, as h h underflows
        h = np.exp(-0.5 * x[big])  # those x become 0, so the exp(-x) below leaves them
        out[big], x[big] = out[big] * h * h, 0.0
    out *= np.exp(np.negative(x, out=x), out=x) if exp_neg_x is None else exp_neg_x
    return out


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


# --- system size and thresholds ------------------------------------------------

def _check_size(m: int, k: int):
    """Every public closed form and estimate_many check m and k; LinkConfig the rest."""
    if m < 1:
        raise ValueError(f"need at least 1 antenna, got {m}")
    if k < 2:
        raise ValueError(f"need at least 2 users, got {k}")


def _psi(cfg: LinkConfig) -> float:
    """Unicast threshold inflated by the multicast protection factor."""
    return cfg.eps_u * (1.0 + cfg.eps_m) / cfg.rho


# --- multicast / unicast outage ------------------------------------------------

def multicast_outage_prob(m: int, k: int, cfg: LinkConfig) -> float:
    """P(min over all K gains < eps_m/rho); identical for NOMA and OMA."""
    _check_size(m, k)
    thr = cfg.eps_m / cfg.rho
    return float(1.0 - _upper_reg(m, thr) * np.exp(-(k - 1) * thr))


@dataclass(frozen=True)
class UnicastOutageResult:
    """Assembled NOMA unicast outage probability with its three components."""

    total: float
    raw: float
    q1: float
    q2: float
    q3: float


def _bottleneck_outage_prob(m: int, k: int, cfg: LinkConfig) -> float:
    """q2 = P(eps_m/rho <= z1 < min(phi, u)) = K^-M (U(M, K eps_m/rho) - U(M, K phi)),
    with phi = eps_m/rho + psi the gain a bottlenecked unicast user needs."""
    phi = cfg.eps_m / cfg.rho + _psi(cfg)
    return float((_upper_reg(m, k * cfg.eps_m / cfg.rho) - _upper_reg(m, k * phi))
                 * float(k) ** -m)


def _unicast_q3(m: int, k: int, cfg: LinkConfig, rule: QuadratureRule) -> float:
    """q3 = P(outage with the weakest other gain u the bottleneck), by Chebyshev-Gauss
    on x = 1/u over [a, b] = [1/(psi (1 + eps_m/(rho psi))), rho/eps_m]:
    P(y < 1/z1 <= x) times the density of 1/u, where y = 1/psi - eps_m x / (rho psi)."""
    eps_m, rho, psi = cfg.eps_m, cfg.rho, _psi(cfg)
    a, b = 1.0 / (psi * (1.0 + eps_m / (rho * psi))), rho / eps_m
    half = 0.5 * (b - a)
    x = half * rule.nodes + 0.5 * (b + a)
    y = 1.0 / psi - eps_m / (rho * psi) * x
    cdf_y = np.zeros_like(y)  # P(1/z1 <= y) = Gamma(M, 1/y)/(M-1)! for y > 0, else 0
    cdf_y[y > 0] = _upper_reg(m, 1.0 / y[y > 0])
    pdf_x = (k - 1) / x**2 * np.exp(-(k - 1) / x)
    return float(np.sum(rule.weights * half * ((_upper_reg(m, 1.0 / x) - cdf_y) * pdf_x)
                        * np.sqrt(1.0 - rule.nodes**2)))


def unicast_outage_prob(m: int, k: int, cfg: LinkConfig,
                        rule: QuadratureRule) -> UnicastOutageResult:
    """NOMA unicast outage probability P(R_U1 < r_u).

    Decomposes the outage event into the all-multicast branch (q1), the
    branch where the unicast user's own gain is the allocation bottleneck
    (q2, in closed form), and the branch where the weakest other user is
    (q3, by Chebyshev-Gauss quadrature on the reciprocal-gain axis).
    """
    q1 = multicast_outage_prob(m, k, cfg)
    q2 = _bottleneck_outage_prob(m, k, cfg)
    q3 = _unicast_q3(m, k, cfg, rule)
    raw = q1 + q2 + q3
    return UnicastOutageResult(float(np.clip(raw, 0.0, 1.0)), raw, q1, q2, q3)


@dataclass(frozen=True)
class OutageBounds:
    """Bracketing bounds on the NOMA unicast outage probability."""

    lower: float
    upper: float
    lower_high_snr: float
    q1: float
    q2: float
    q31: float


def unicast_outage_bounds(m: int, k: int, cfg: LinkConfig) -> OutageBounds:
    """Lower/upper bounds whose common high-SNR slope is one decade per 10 dB.

    The lower bound is the all-multicast branch alone; the upper bound
    replaces the bottleneck-branch integral with the probability that the
    weakest gain lands in the outage-critical window (q31).
    """
    q1 = multicast_outage_prob(m, k, cfg)
    q2 = _bottleneck_outage_prob(m, k, cfg)
    thr = cfg.eps_m / cfg.rho
    q31 = float(np.exp(-(k - 1) * thr) - np.exp(-(k - 1) * (thr + _psi(cfg))))
    upper = min(1.0, q1 + q2 + q31)
    return OutageBounds(q1, upper, k * thr, q1, q2, q31)


@dataclass(frozen=True)
class ShortfallBound:
    """P(NOMA unicast rate <= OMA's) outside the multicast outage (MRT)."""

    exact: float
    high_snr: float


def noma_shortfall_bound(m: int, k: int, cfg: LinkConfig) -> ShortfallBound:
    """P(eps_m/rho < z1 < u), which tends to K^-M as the SNR grows.  There both
    schemes deliver the same unicast rate and elsewhere above the multicast
    threshold NOMA's is higher (the README's pathwise theorem), so under unscheduled
    MRT multicast_outage_prob + exact is exactly P(NOMA rate <= OMA rate)."""
    _check_size(m, k)
    exact = float(_upper_reg(m, k * cfg.eps_m / cfg.rho) * float(k) ** -m)
    return ShortfallBound(exact, float(k) ** (-m))


# --- secrecy ------------------------------------------------------------------

def _minmax_density(eu, ev, k: int, base):
    """eu (eu - ev)^(k-3), written over eu, by repeated squaring (no libm pow) with
    ``base`` as scratch: with eu = e^-u, ev = e^-v, the joint min/max density over
    (k-1)(k-2) ev."""
    np.subtract(eu, ev, out=base)
    e = k - 3
    while e:
        if e & 1:
            eu *= base
        if e := e >> 1:
            base *= base
    return eu


@dataclass(frozen=True)
class SecrecyOutageResult:
    """Assembled NOMA secrecy outage probability with its three components."""

    total: float
    raw: float
    q4: float
    q5: float
    q6: float


def _minmax_tail_cap(k: int, cfg: LinkConfig) -> float:
    # P(v > cap) <= (k-1) e^-(cap) < 1e-16, so truncating the expectation
    # there changes nothing at double precision.
    return cfg.eps_m / cfg.rho + math.log(k - 1.0) + 37.0


def _secrecy_q4_q6(m: int, k: int, cfg: LinkConfig, rule: QuadratureRule):
    """Nested Chebyshev-Gauss evaluation of the two secrecy integrals.

    Outer axis: the largest other gain v on [eps_m/rho, cap] (the tail
    beyond the cap is below double precision).  Integrating on the gain
    axis rather than its reciprocal keeps the nodes in the probability
    mass region at every SNR; the reciprocal-axis form spreads them over
    an interval that grows like the SNR and starves the mass region.
    Inner axis: the smallest other gain u on [eps_m/rho, v].

    The grid is evaluated in blocks of outer-axis rows of about ``_GRID_BLOCK``
    elements written into one workspace per call, so a block's arrays stay in
    cache, no (na, na) array is built and the heap is not trimmed and refaulted
    between blocks.  An element costs two exps (e^-u serves the density and the
    incomplete gamma at u), one division, and otherwise multiplies and adds; the
    per-row factor (k-1)(k-2) e^-v rides in the outer weight.  Each block is
    summed on its own, so q4 and q6 round differently from a whole-grid sum, by
    far less than the rule's error.
    """
    thr = cfg.eps_m / cfg.rho
    xi = cfg.eps_s * (1.0 + cfg.eps_m) / cfg.rho  # secrecy threshold, inflated like psi
    cap = _minmax_tail_cap(k, cfg)
    t = rule.nodes  # both axes use the same rule
    n = rule.order
    v = 0.5 * (cap - thr) * t + 0.5 * (cap + thr)
    half = 0.5 * (v - thr)
    ev = np.exp(-v)
    scaled_v = (1.0 + cfg.eps_s) * v  # 2^r_s * v
    upper_v = _upper_reg(m, scaled_v)
    inner = rule.weights * np.sqrt(1.0 - t**2)
    outer = inner * 0.5 * (cap - thr) * half * ((k - 1) * (k - 2)) * ev
    q4 = q6 = 0.0
    rows = max(1, _GRID_BLOCK // n)
    ws = np.empty((5, min(rows, n), n))  # every block's arrays are views of it
    for r in range(0, n, rows):
        b = slice(r, r + rows)
        u, eu, weight, d4, d6 = ws[:, :min(rows, n - r)]
        np.add(np.multiply(half[b, None], t, out=u), 0.5 * (v[b, None] + thr), out=u)
        np.exp(np.negative(u, out=eu), out=eu)
        with np.errstate(divide="ignore", over="ignore"):  # shift = xi u / (u - thr)
            np.divide(np.multiply(xi, u, out=d4), np.subtract(u, thr, out=d6), out=d4)
        np.add(scaled_v[b, None], d4, out=d4)
        np.subtract(upper_v[b, None], _upper_reg(m, d4, out=d6), out=d4)
        np.subtract(_upper_reg(m, u, eu, out=d6), upper_v[b, None], out=d6)
        np.multiply(np.multiply(outer[b, None], inner, out=weight),  # u is free by now
                    _minmax_density(eu, ev[b, None], k, base=u), out=weight)
        q4 += np.einsum("ij,ij->", weight, d4)
        q6 += np.einsum("ij,ij->", weight, d6)
    return float(q4), float(q6)


def secrecy_outage_prob(m: int, k: int, cfg: LinkConfig,
                        rule: QuadratureRule) -> SecrecyOutageResult:
    """NOMA secrecy outage probability P((z1 - 2^r_s v) alpha_U^2 <= eps_s/rho).

    A realization with no positive secrecy rate is an outage, even at r_s = 0.
    q5 collects two branches that are certain outages in closed form: all
    power spent on multicasting (the multicast outage) and the unicast user's
    gain the weakest but above the multicast threshold (the NOMA shortfall
    floor).  q4 and q6 cover the remaining branches through the nested
    quadrature over the joint min/max density.  Needs K >= 3.
    """
    _check_size(m, k)
    if k < 3:
        raise UnsupportedAnalyticsError(
            f"secrecy analytics need K >= 3, got K={k}; use Monte Carlo instead")
    q5 = multicast_outage_prob(m, k, cfg) + noma_shortfall_bound(m, k, cfg).exact
    q4, q6 = _secrecy_q4_q6(m, k, cfg, rule)
    raw = q4 + q5 + q6
    return SecrecyOutageResult(float(np.clip(raw, 0.0, 1.0)), raw, q4, q5, q6)

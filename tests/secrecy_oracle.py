"""Whole-grid secrecy quadrature: the oracle for ``analysis._secrecy_q4_q6``.

The package evaluates the nested Chebyshev-Gauss grid in blocks of rows,
sums each block on its own, and runs the incomplete-gamma series on
precomputed 1/m!.  This module keeps the straightforward forms: the
whole-grid evaluation with one sum per integral, and the series as
``p = 1 + p*x/m``.  The tests bound the package's departure from them by
tolerances set from float64 epsilon.  Like the package, ``upper_reg``
multiplies by exp(-x/2) twice where x > 700, so it has no false zeros where
exp(-x) alone underflows.  Above shape 100 it takes gammaincc only where
the series overflows; the tests compare the package with gammaincc there.
The density is the package's ``joint_minmax_pdf``, which
``test_joint_pdf_matches_expansion`` checks on its own.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaincc

from nomacast.analysis import (_GAMMA_ARG_CAP, QuadratureRule, _minmax_tail_cap,
                               joint_minmax_pdf)
from nomacast.transmission import LinkConfig


def upper_reg(shape: int, x) -> np.ndarray:
    """Regularized upper incomplete gamma for integer shape.

    Gamma(M, x) / (M-1)! = exp(-x) * sum_{m<M} x^m / m!, evaluated with a
    Horner recurrence; exact (to rounding) for every integer shape.  Where
    x > 700, exp(-x) can underflow although the value does not, so p is
    multiplied by exp(-x/2) twice, in sequence.  Above shape 100 the sum can
    overflow where exp(-x) underflows; such entries come from
    ``scipy.special.gammaincc`` instead.
    """
    x = np.asarray(x, dtype=np.float64)
    xc = np.minimum(x, _GAMMA_ARG_CAP)
    p = np.ones_like(xc)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(shape - 1, 0, -1):
            p = 1.0 + p * xc / m
        half = np.exp(-0.5 * xc)
        out = np.where(xc > 700.0, p * half * half, np.exp(-xc) * p)
    if shape > 100:
        out = np.where(np.isfinite(out), out, gammaincc(shape, xc))
    return out


def lower_reg(shape: int, x) -> np.ndarray:
    return 1.0 - upper_reg(shape, x)


def secrecy_q4_q6(m: int, k: int, cfg: LinkConfig, rule: QuadratureRule):
    """Nested Chebyshev-Gauss evaluation of the two secrecy integrals.

    Outer axis: the largest other gain v on [eps_m/rho, cap] (the tail
    beyond the cap is below double precision).  Integrating on the gain
    axis rather than its reciprocal keeps the nodes in the probability
    mass region at every SNR; the reciprocal-axis form spreads them over
    an interval that grows like the SNR and starves the mass region.
    Inner axis: the smallest other gain u on [eps_m/rho, v].
    """
    thr = cfg.eps_m / cfg.rho
    xi = cfg.eps_s * (1.0 + cfg.eps_m) / cfg.rho  # the paper's inflated secrecy threshold
    cap = _minmax_tail_cap(k, cfg)
    t = rule.nodes  # both axes use the same rule
    v = 0.5 * (cap - thr) * t + 0.5 * (cap + thr)
    half = 0.5 * (v - thr)
    u = half[:, None] * t[None, :] + 0.5 * (v[:, None] + thr)
    pdf = joint_minmax_pdf(u, v[:, None], k)
    scaled_v = (1.0 + cfg.eps_s) * v[:, None]  # 2^r_s * v
    with np.errstate(divide="ignore", over="ignore"):
        shift = xi / (1.0 - thr / u)
    d4 = upper_reg(m, scaled_v) - upper_reg(m, np.minimum(scaled_v + shift, _GAMMA_ARG_CAP))
    d6 = lower_reg(m, scaled_v) - lower_reg(m, u)
    inner = rule.weights * np.sqrt(1.0 - t**2)
    outer = inner * 0.5 * (cap - thr) * half
    weight = outer[:, None] * inner[None, :] * pdf
    return float(np.sum(weight * d4)), float(np.sum(weight * d6))

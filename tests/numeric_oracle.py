"""Reference numerics that only the tests use.

``adaptive_integrate`` is the independent quadrature the closed forms are
checked against (an adaptive Simpson rule shares nothing with the
Chebyshev-Gauss grids of ``nomacast.analysis``), and
``incomplete_gamma_int`` exposes the package's regularized incomplete
gamma as the unregularized pair, for hand values and scipy comparisons.
"""

from __future__ import annotations

import math

import numpy as np

from nomacast.analysis import _upper_reg


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

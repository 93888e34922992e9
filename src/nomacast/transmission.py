"""Power/time allocation policies and per-realization rates and outages.

NOMA superimposes the unicast message on the multicast one and gives the
multicast stream priority: the unicast power fraction alpha_U^2 is the
largest value that still lets every user decode the multicast message at
its target rate, and it drops to zero when any user's gain falls below
the decoding threshold.  The OMA benchmark instead splits the slot in
time, spending the fraction gamma needed to deliver the multicast message
and unicasting in the remainder.

All rate helpers are written against arrays so the Monte Carlo engine can
evaluate whole batches of realizations.

Rates are in bits per channel use (base-2 logs); a target rate R maps to
the SNR threshold 2^R - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Slack used when comparing two rates that can be algebraically identical
# but are computed along different floating-point routes.
RATE_EQ_GUARD = 1e-9


@dataclass(frozen=True)
class LinkConfig:
    """Link-level operating point.

    rho is the transmit SNR on a linear scale; the targets are in bits per
    channel use: r_m (multicast), r_u (unicast), r_s (secrecy).
    """

    rho: float
    r_m: float
    r_u: float
    r_s: float = 0.0

    def __post_init__(self):
        for name in ("rho", "r_m", "r_u", "r_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not self.r_m > 0:
            raise ValueError(f"multicast rate must be positive, got {self.r_m}")
        if not self.r_u > 0:
            raise ValueError(f"unicast rate must be positive, got {self.r_u}")
        if self.r_s < 0:
            raise ValueError(f"secrecy rate must be nonnegative, got {self.r_s}")
        for name in ("r_m", "r_u", "r_s"):
            try:
                2.0 ** getattr(self, name)
            except OverflowError:
                raise ValueError(f"{name} = {getattr(self, name)} is out of range: "
                                 f"its threshold 2**{name} - 1 overflows") from None

    @property
    def eps_m(self) -> float:
        return 2.0**self.r_m - 1.0

    @property
    def eps_u(self) -> float:
        return 2.0**self.r_u - 1.0

    @property
    def eps_s(self) -> float:
        return 2.0**self.r_s - 1.0


def power_fraction(g, cfg: LinkConfig):
    """Unicast power fraction alpha_U^2 from each realization's weakest gain.

    alpha_U^2 = max(0, min_k (z_k - eps_m/rho) / (z_k (1 + eps_m))) over all
    K gains.  The fraction increases with z_k, so the minimum gain g sets it:
    alpha_U^2 = max(0, (g - eps_m/rho) / (g (1 + eps_m))), zero whenever g is
    at or below eps_m/rho.
    """
    g = np.asarray(g, dtype=np.float64)
    thr = cfg.eps_m / cfg.rho
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a subnormal g
        frac = (g - thr) / (g * (1.0 + cfg.eps_m))
    return np.where(g > thr, frac, 0.0)


def time_fraction(g, cfg: LinkConfig):
    """Multicast time fraction gamma = min(1, r_m / log2(1 + rho * g)).

    g is each realization's minimum gain.  gamma = 1 (all-time multicast, no
    unicasting) exactly when g is at or below eps_m/rho -- the same event
    that zeroes alpha_U^2.
    """
    g = np.asarray(g, dtype=np.float64)
    thr = cfg.eps_m / cfg.rho
    with np.errstate(divide="ignore"):
        ratio = cfg.r_m / np.log2(1.0 + cfg.rho * g)
    return np.where(g <= thr, 1.0, np.minimum(1.0, ratio))


def noma_rate(gain, alpha_u2, cfg: LinkConfig):
    """Unicast-layer rate log2(1 + rho * z * alpha_U^2) at a given gain."""
    return np.log2(1.0 + cfg.rho * np.asarray(gain, dtype=np.float64) * alpha_u2)


def oma_rate(gain, gamma, cfg: LinkConfig):
    """OMA unicast rate (1 - gamma) * log2(1 + rho * z) at a given gain."""
    return (1.0 - gamma) * np.log2(1.0 + cfg.rho * np.asarray(gain, dtype=np.float64))


def secrecy_rate(legit_rate, best_eaves_rate):
    """Positive part of the legitimate rate minus the best eavesdropper's."""
    return np.maximum(0.0, np.asarray(legit_rate) - np.asarray(best_eaves_rate))


"""Power/time allocation policies and per-realization rates and outages.

NOMA superimposes the unicast message on the multicast one and gives the
multicast stream priority: the unicast power fraction alpha_U^2 is the
largest value that still lets every user decode the multicast message at
its target rate, and it drops to zero when any user's gain falls below
the decoding threshold.  The OMA benchmark instead splits the slot in
time, spending the fraction gamma needed to deliver the multicast message
and unicasting in the remainder.

All rate helpers are written against arrays so the Monte Carlo engine can
evaluate whole batches of realizations; the scalar dataclass API wraps the
same functions for single realizations.

Rates are in bits per channel use (base-2 logs); a target rate R maps to
the SNR threshold 2^R - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import EffectiveGains

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

    @property
    def eps_m(self) -> float:
        return 2.0**self.r_m - 1.0

    @property
    def eps_u(self) -> float:
        return 2.0**self.r_u - 1.0

    @property
    def eps_s(self) -> float:
        return 2.0**self.r_s - 1.0


@dataclass(frozen=True)
class PowerSplit:
    """NOMA power allocation; alpha_u2 is the unicast fraction."""

    alpha_u2: float

    @property
    def alpha_m2(self) -> float:
        return 1.0 - self.alpha_u2


@dataclass(frozen=True)
class TimeSplit:
    """OMA time allocation; gamma is the multicast fraction of the slot."""

    gamma: float


@dataclass(frozen=True)
class RateOutcome:
    """Everything one realization contributes to the metrics."""

    noma_unicast: float
    noma_eaves: np.ndarray
    oma_unicast: float
    oma_eaves: np.ndarray
    noma_secrecy: float
    oma_secrecy: float
    multicast_outage: bool
    unicast_outage: bool
    secrecy_outage: bool


# --- array-level core -------------------------------------------------------

def power_fraction(z1, others, cfg: LinkConfig):
    """Unicast power fraction alpha_U^2 for each realization.

    alpha_U^2 = max(0, min_k (z_k - eps_m/rho) / (z_k (1 + eps_m))) over all
    K gains; zero whenever any gain is below eps_m/rho.
    """
    z1 = np.asarray(z1, dtype=np.float64)
    others = np.asarray(others, dtype=np.float64)
    gains = np.concatenate([z1[..., None], others], axis=-1)
    thr = cfg.eps_m / cfg.rho
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (gains - thr) / (gains * (1.0 + cfg.eps_m))
    frac = np.where(gains > 0, frac, -np.inf)
    return np.maximum(0.0, frac.min(axis=-1))


def time_fraction(z1, others, cfg: LinkConfig):
    """Multicast time fraction gamma = min(1, r_m / log2(1 + rho * min gain)).

    gamma = 1 (all-time multicast, no unicasting) exactly when the minimum
    gain is at or below eps_m/rho -- the same event that zeroes alpha_U^2.
    """
    z1 = np.asarray(z1, dtype=np.float64)
    others = np.asarray(others, dtype=np.float64)
    gmin = np.minimum(z1, others.min(axis=-1))
    thr = cfg.eps_m / cfg.rho
    with np.errstate(divide="ignore"):
        ratio = cfg.r_m / np.log2(1.0 + cfg.rho * gmin)
    return np.where(gmin <= thr, 1.0, np.minimum(1.0, ratio))


def noma_rate(gain, alpha_u2, cfg: LinkConfig):
    """Unicast-layer rate log2(1 + rho * z * alpha_U^2) at a given gain."""
    return np.log2(1.0 + cfg.rho * np.asarray(gain, dtype=np.float64) * alpha_u2)


def oma_rate(gain, gamma, cfg: LinkConfig):
    """OMA unicast rate (1 - gamma) * log2(1 + rho * z) at a given gain."""
    return (1.0 - gamma) * np.log2(1.0 + cfg.rho * np.asarray(gain, dtype=np.float64))


def secrecy_rate(legit_rate, best_eaves_rate):
    """Positive part of the legitimate rate minus the best eavesdropper's."""
    return np.maximum(0.0, np.asarray(legit_rate) - np.asarray(best_eaves_rate))


# --- single-realization API --------------------------------------------------

def noma_power_split(g: EffectiveGains, cfg: LinkConfig) -> PowerSplit:
    return PowerSplit(float(power_fraction(g.z1, g.others, cfg)))


def noma_rates(g: EffectiveGains, split: PowerSplit, cfg: LinkConfig):
    """Unicast rate at user 1 and the eavesdropping rates at users 2..K."""
    r1 = float(noma_rate(g.z1, split.alpha_u2, cfg))
    return r1, noma_rate(g.others, split.alpha_u2, cfg)


def oma_time_split(g: EffectiveGains, cfg: LinkConfig) -> TimeSplit:
    return TimeSplit(float(time_fraction(g.z1, g.others, cfg)))


def oma_rates(g: EffectiveGains, split: TimeSplit, cfg: LinkConfig):
    """OMA unicast rate at user 1 and at the other users."""
    r1 = float(oma_rate(g.z1, split.gamma, cfg))
    return r1, oma_rate(g.others, split.gamma, cfg)


def secrecy_rates(noma_unicast, noma_eaves, oma_unicast, oma_eaves):
    """Secrecy rates of both schemes from their unicast/eavesdropper rates."""
    rs = float(secrecy_rate(noma_unicast, np.max(noma_eaves)))
    rs_bar = float(secrecy_rate(oma_unicast, np.max(oma_eaves)))
    return rs, rs_bar


def outage_events(g: EffectiveGains, cfg: LinkConfig):
    """(multicast, unicast, secrecy) outage indicators for one realization.

    Multicast outage is min(z1, u) < eps_m/rho, identical for NOMA and OMA.
    The unicast and secrecy events use the threshold forms
    z1 * alpha_U^2 < eps_u/rho and (z1 - 2^r_s v) * alpha_U^2 < eps_s/rho,
    which are algebraically equivalent to the rate comparisons.
    """
    alpha_u2 = float(power_fraction(g.z1, g.others, cfg))
    multicast = bool(min(g.z1, g.u) < cfg.eps_m / cfg.rho)
    unicast = bool(g.z1 * alpha_u2 < cfg.eps_u / cfg.rho)
    secrecy = bool((g.z1 - 2.0**cfg.r_s * g.v) * alpha_u2 < cfg.eps_s / cfg.rho)
    return multicast, unicast, secrecy


def evaluate_link(g: EffectiveGains, cfg: LinkConfig,
                  g_oma: EffectiveGains | None = None) -> RateOutcome:
    """Full per-realization outcome.

    ``g_oma`` supplies the gains under the OMA beamformer when it differs
    from the NOMA one; by default both schemes share the same gains.
    """
    if g_oma is None:
        g_oma = g
    split = noma_power_split(g, cfg)
    r1n, eaves_n = noma_rates(g, split, cfg)
    tsplit = oma_time_split(g_oma, cfg)
    r1o, eaves_o = oma_rates(g_oma, tsplit, cfg)
    rs, rs_bar = secrecy_rates(r1n, eaves_n, r1o, eaves_o)
    multicast, unicast, secrecy = outage_events(g, cfg)
    return RateOutcome(r1n, eaves_n, r1o, eaves_o, rs, rs_bar,
                       multicast, unicast, secrecy)

"""Per-realization link model: the oracle for the batched rate kernel.

Plain Python on floats, written from the paper's definitions rather than
from ``nomacast.transmission``: the unicast power fraction is the minimum
over all K users of (z_k - eps_m/rho) / (z_k (1 + eps_m)), not the
weakest-gain shortcut the kernel takes.  Only ``LinkConfig`` is shared, as
the input type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from nomacast.transmission import LinkConfig


@dataclass(frozen=True)
class Gains:
    """Effective gains of one realization: the unicast user's and the K-1 others'."""

    z1: float
    others: tuple[float, ...]

    @property
    def u(self) -> float:
        return min(self.others)

    @property
    def v(self) -> float:
        return max(self.others)


def gains(z1, others) -> Gains:
    return Gains(float(z1), tuple(float(z) for z in others))


@dataclass(frozen=True)
class RateOutcome:
    """Everything one realization contributes to the metrics."""

    noma_unicast: float
    noma_eaves: tuple[float, ...]
    oma_unicast: float
    oma_eaves: tuple[float, ...]
    noma_secrecy: float
    oma_secrecy: float
    multicast_outage: bool
    unicast_outage: bool
    secrecy_outage: bool


def power_fraction(g: Gains, cfg: LinkConfig) -> float:
    """alpha_U^2: the largest unicast share that every user still decodes under."""
    thr = cfg.eps_m / cfg.rho
    fracs = [(z - thr) / (z * (1.0 + cfg.eps_m)) if z > 0 else -math.inf
             for z in (g.z1, *g.others)]
    return max(0.0, min(fracs))


def time_fraction(g: Gains, cfg: LinkConfig) -> float:
    """gamma: the slot share that delivers the multicast message to every user."""
    zmin = min(g.z1, *g.others)
    if zmin <= cfg.eps_m / cfg.rho:
        return 1.0
    return min(1.0, cfg.r_m / math.log2(1.0 + cfg.rho * zmin))


def noma_rates(g: Gains, alpha_u2: float, cfg: LinkConfig):
    """Unicast-layer rate at user 1 and the eavesdropping rates at users 2..K."""
    def rate(z):
        return math.log2(1.0 + cfg.rho * z * alpha_u2)
    return rate(g.z1), tuple(rate(z) for z in g.others)


def oma_rates(g: Gains, gamma: float, cfg: LinkConfig):
    """OMA unicast rate at user 1 and at the other users."""
    def rate(z):
        return (1.0 - gamma) * math.log2(1.0 + cfg.rho * z)
    return rate(g.z1), tuple(rate(z) for z in g.others)


def secrecy_rate(legit: float, eaves) -> float:
    return max(0.0, legit - max(eaves))


def outage_events(g: Gains, cfg: LinkConfig):
    """(multicast, unicast, secrecy) outage indicators of the NOMA scheme.

    The unicast and secrecy events use the threshold forms
    z1 alpha_U^2 < eps_u/rho and (z1 - 2^r_s v) alpha_U^2 <= eps_s/rho: no
    positive secrecy rate is a secrecy outage, even at r_s = 0.
    """
    alpha_u2 = power_fraction(g, cfg)
    multicast = min(g.z1, g.u) < cfg.eps_m / cfg.rho
    unicast = g.z1 * alpha_u2 < cfg.eps_u / cfg.rho
    secrecy = (g.z1 - 2.0**cfg.r_s * g.v) * alpha_u2 <= cfg.eps_s / cfg.rho
    return multicast, unicast, secrecy


def evaluate_link(g: Gains, cfg: LinkConfig, g_oma: Gains | None = None) -> RateOutcome:
    """Full outcome of one realization; ``g_oma`` holds the gains under the
    OMA beamformer when it differs from the NOMA (MRT) one."""
    if g_oma is None:
        g_oma = g
    r1n, eaves_n = noma_rates(g, power_fraction(g, cfg), cfg)
    r1o, eaves_o = oma_rates(g_oma, time_fraction(g_oma, cfg), cfg)
    return RateOutcome(r1n, eaves_n, r1o, eaves_o,
                       secrecy_rate(r1n, eaves_n), secrecy_rate(r1o, eaves_o),
                       *outage_events(g, cfg))

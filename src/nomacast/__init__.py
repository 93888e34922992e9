"""Link-level simulator and outage calculator for NOMA-assisted
multicast/unicast downlink transmission, with Monte Carlo and closed-form
evaluation cross-validating each other."""

from .analysis import (QuadratureRule, SecrecyOutageResult, UnicastOutageResult,
                       UnsupportedAnalyticsError, chebyshev_rule, multicast_outage_prob,
                       noma_shortfall_bound, secrecy_outage_prob,
                       unicast_outage_bounds, unicast_outage_prob)
from .montecarlo import (BEAMFORMER_KINDS, EQUAL_GAIN, MRT, RANDOM, Estimate,
                         MetricKind, SimulationPlan, estimate_many)
from .transmission import LinkConfig

__version__ = "0.1.0"

__all__ = [
    "BEAMFORMER_KINDS", "EQUAL_GAIN", "Estimate", "LinkConfig", "MRT", "MetricKind",
    "QuadratureRule", "RANDOM", "SecrecyOutageResult", "SimulationPlan",
    "UnicastOutageResult", "UnsupportedAnalyticsError", "chebyshev_rule", "estimate_many",
    "multicast_outage_prob", "noma_shortfall_bound", "secrecy_outage_prob",
    "unicast_outage_bounds", "unicast_outage_prob",
]

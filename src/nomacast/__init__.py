"""Link-level simulator and outage calculator for NOMA-assisted
multicast/unicast downlink transmission, with Monte Carlo and closed-form
evaluation cross-validating each other."""

from .analysis import (AnalysisParams, QuadratureRule, SecrecyOutageResult,
                       UnicastOutageResult, UnsupportedAnalyticsError,
                       adaptive_integrate, chebyshev_rule, incomplete_gamma_int,
                       joint_minmax_pdf, multicast_outage_prob,
                       noma_rate_advantage, noma_shortfall_bound,
                       secrecy_outage_prob, unicast_outage_bounds,
                       unicast_outage_prob)
from .montecarlo import (BEAMFORMER_KINDS, EQUAL_GAIN, MRT, RANDOM, Estimate,
                         MetricKind, SecrecyComparison, SimulationPlan,
                         compare_secrecy_rates, estimate, estimate_many,
                         scheduling_check, sweep)
from .rng import RngStream
from .transmission import LinkConfig

__version__ = "0.1.0"

__all__ = [
    "AnalysisParams", "BEAMFORMER_KINDS", "EQUAL_GAIN", "Estimate",
    "LinkConfig", "MRT", "MetricKind", "QuadratureRule", "RANDOM",
    "RngStream", "SecrecyComparison", "SecrecyOutageResult", "SimulationPlan",
    "UnicastOutageResult", "UnsupportedAnalyticsError", "adaptive_integrate",
    "chebyshev_rule", "compare_secrecy_rates", "estimate", "estimate_many",
    "incomplete_gamma_int", "joint_minmax_pdf", "multicast_outage_prob",
    "noma_rate_advantage", "noma_shortfall_bound", "scheduling_check",
    "secrecy_outage_prob", "sweep", "unicast_outage_bounds",
    "unicast_outage_prob",
]

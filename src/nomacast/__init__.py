"""Link-level simulator and outage calculator for NOMA-assisted
multicast/unicast downlink transmission, with Monte Carlo and closed-form
evaluation cross-validating each other."""

from .analysis import (AnalysisParams, QuadratureRule, SecrecyOutageResult,
                       UnicastOutageResult, UnsupportedAnalyticsError,
                       adaptive_integrate, chebyshev_rule, incomplete_gamma_int,
                       joint_minmax_pdf, minmax_expansion_coeffs,
                       multicast_outage_prob, noma_rate_advantage,
                       noma_shortfall_bound, secrecy_outage_prob,
                       unicast_outage_bounds, unicast_outage_prob)
from .channel import (BEAMFORMER_KINDS, EQUAL_GAIN, MRT, RANDOM, EffectiveGains,
                      sample_gains_direct)
from .montecarlo import (Estimate, MetricKind, SecrecyComparison, SimulationPlan,
                         compare_secrecy_rates, estimate, estimate_many,
                         scheduling_check, sweep)
from .rng import RngStream
from .transmission import (LinkConfig, PowerSplit, RateOutcome, TimeSplit,
                           evaluate_link, noma_power_split, noma_rates,
                           oma_rates, oma_time_split, outage_events,
                           secrecy_rates)

__version__ = "0.1.0"

__all__ = [
    "AnalysisParams", "BEAMFORMER_KINDS", "EQUAL_GAIN", "EffectiveGains",
    "Estimate", "LinkConfig", "MRT", "MetricKind", "PowerSplit",
    "QuadratureRule", "RANDOM", "RateOutcome", "RngStream",
    "SecrecyComparison", "SecrecyOutageResult", "SimulationPlan", "TimeSplit",
    "UnicastOutageResult", "UnsupportedAnalyticsError", "adaptive_integrate",
    "chebyshev_rule", "compare_secrecy_rates", "estimate", "estimate_many",
    "evaluate_link", "incomplete_gamma_int", "joint_minmax_pdf",
    "minmax_expansion_coeffs", "multicast_outage_prob", "noma_power_split",
    "noma_rate_advantage", "noma_rates", "noma_shortfall_bound", "oma_rates",
    "oma_time_split", "outage_events", "sample_gains_direct",
    "scheduling_check", "secrecy_outage_prob", "secrecy_rates", "sweep",
    "unicast_outage_bounds", "unicast_outage_prob",
]

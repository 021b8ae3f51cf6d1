"""Traveling-wave fronts of the diffusive two-species competition system.

Builds explicit upper/lower envelope pairs for the wave profile, certifies
them numerically as super/subsolutions, squeezes the wave out of them by a
monotone integral-operator iteration, classifies the resulting shape, and
continues non-monotone waves toward the degenerate limit where the hump
becomes a pulse.
"""

from .model import (
    Admissibility,
    DecayRates,
    Equilibria,
    Regime,
    SystemParams,
    admissibility,
    classify_regime,
    critical_speed,
    decay_rates,
    equilibria,
    species_swap,
)
from .envelopes import (
    CriticalBump,
    EnvelopeParams,
    EnvelopeSet,
    ExpBump,
    PiecewiseProfile,
    SelectionKnobs,
    build_envelopes,
    select_critical,
    select_supercritical,
)
from .certify import Certificate, certify
from .solve import OperatorConfig, Profile, apply_P, iterate, ode_residual, tail_check
from .analyze import (
    ShapeClass,
    classify,
    ma_front_criterion,
    nonmonotone_condition_u,
    nonmonotone_condition_v,
    scan_region,
    sturm_interval,
)
from .pulse import ContinuationPlan, PulseResult, plan_continuation, run_continuation

__version__ = "0.1.0"

__all__ = [
    "Admissibility", "DecayRates", "Equilibria", "Regime", "SystemParams",
    "admissibility", "classify_regime", "critical_speed", "decay_rates",
    "equilibria", "species_swap",
    "CriticalBump", "EnvelopeParams", "EnvelopeSet", "ExpBump", "PiecewiseProfile",
    "SelectionKnobs", "build_envelopes", "select_critical", "select_supercritical",
    "Certificate", "certify",
    "OperatorConfig", "Profile", "apply_P", "iterate", "ode_residual",
    "tail_check",
    "ShapeClass", "classify", "ma_front_criterion", "nonmonotone_condition_u",
    "nonmonotone_condition_v", "scan_region", "sturm_interval",
    "ContinuationPlan", "PulseResult", "plan_continuation", "run_continuation",
]

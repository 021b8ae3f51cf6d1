"""Parameter domain, regime classification, equilibria and linear wave theory.

The two-species competition-diffusion system in the co-moving frame is

    u'' - s u' + u (1 - u - c v)  = 0,
    d v'' - s v' + v (a - b u - v) = 0,

with a, b, c, d > 0.  Everything in this module is a closed-form function
of the four coefficients and the wave speed s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

#: absolute tolerance used to decide the boundary cases a*c = 1 and a = b,
#: and to detect the critical speed s = s*
EQ_TOL = 1e-12


class Regime(Enum):
    STRICT_WEAK = "StrictWeak"
    CRITICAL_WEAK_C = "CriticalWeakC"  # b < a and a*c = 1
    CRITICAL_WEAK_B = "CriticalWeakB"  # b = a and a < 1/c
    OUT_OF_SCOPE = "OutOfScope"


@dataclass(frozen=True)
class SystemParams:
    """The four positive coefficients of the competition system."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"parameter {name} must be a positive finite real, got {val!r}")


@dataclass(frozen=True)
class Equilibria:
    extinction: Tuple[float, float]
    semitrivial_u: Tuple[float, float]
    semitrivial_v: Tuple[float, float]
    coexistence: Optional[Tuple[float, float]]


@dataclass(frozen=True)
class DecayRates:
    """Positive decay rates of the linearization at the origin.

    lambda1 <= lambda3 are the roots of x^2 - s x + 1 = 0 and
    lambda2 <= lambda4 the roots of d x^2 - s x + a = 0.
    """

    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float


@dataclass(frozen=True)
class Admissibility:
    admissible: bool
    reason: Optional[str] = None


def classify_regime(p: SystemParams) -> Regime:
    """Classify (a, b, c) into the weak-competition regimes.

    Boundary cases a*c = 1 and a = b are decided with absolute tolerance
    EQ_TOL on the defining expressions; OutOfScope is a value, not an error,
    so parameter sweeps can cross regime boundaries.
    """
    a, b, c = p.a, p.b, p.c
    ac_critical = abs(a * c - 1.0) <= EQ_TOL
    ab_critical = abs(a - b) <= EQ_TOL
    if ab_critical and not ac_critical and a * c < 1.0:
        return Regime.CRITICAL_WEAK_B
    if ac_critical and not ab_critical and b < a:
        return Regime.CRITICAL_WEAK_C
    if not ac_critical and not ab_critical and b < a < 1.0 / c:
        return Regime.STRICT_WEAK
    return Regime.OUT_OF_SCOPE


def equilibria(p: SystemParams) -> Equilibria:
    """Constant states of the system; coexistence from the closed form."""
    regime = classify_regime(p)
    if regime is Regime.OUT_OF_SCOPE:
        raise ValueError("unsupported regime")
    if regime is Regime.CRITICAL_WEAK_C:
        coexist = (0.0, p.a)
    elif regime is Regime.CRITICAL_WEAK_B:
        coexist = (1.0, 0.0)
    else:
        denom = 1.0 - p.b * p.c
        coexist = ((1.0 - p.a * p.c) / denom, (p.a - p.b) / denom)
    return Equilibria(
        extinction=(0.0, 0.0),
        semitrivial_u=(1.0, 0.0),
        semitrivial_v=(0.0, p.a),
        coexistence=coexist,
    )


def critical_speed(p: SystemParams) -> float:
    """Minimal speed admitting positive fronts: max(2, 2*sqrt(a*d))."""
    return max(2.0, 2.0 * math.sqrt(p.a * p.d))


#: speeds this close to s* take the critical-speed envelopes
CRITICAL_SPEED_TOL = 1e-9


def at_critical_speed(p: SystemParams, s: float) -> bool:
    """Whether s counts as the critical speed s* of p."""
    return abs(s - critical_speed(p)) <= CRITICAL_SPEED_TOL


def decay_rates(p: SystemParams, s: float) -> DecayRates:
    """Roots of the two linearization quadratics at the origin.

    Discriminants within EQ_TOL of zero are clamped to zero so the double
    root at s = s* is produced deterministically.  Raises for s < s*.
    """
    if s < critical_speed(p) - EQ_TOL:
        raise ValueError("subcritical speed")

    def clamp(x):
        return 0.0 if -EQ_TOL < x < 0.0 else x

    disc1 = clamp(s * s - 4.0)
    disc2 = clamp(s * s - 4.0 * p.a * p.d)
    if disc1 < 0.0 or disc2 < 0.0:
        raise ValueError("subcritical speed")
    r1 = math.sqrt(disc1)
    r2 = math.sqrt(disc2)
    return DecayRates(lambda1=(s - r1) / 2.0, lambda2=(s - r2) / (2.0 * p.d),
                      lambda3=(s + r1) / 2.0, lambda4=(s + r2) / (2.0 * p.d))


def admissibility(p: SystemParams, s: float) -> Admissibility:
    """Whether the speed s admits positive fronts.

    Below s* one of the linearization quadratics has complex roots, which
    forces sign changes in any candidate profile; nonpositive speeds are
    ruled out separately.
    """
    if s <= 0.0:
        return Admissibility(False, "nonpositive speed")
    if s < critical_speed(p) - EQ_TOL:
        return Admissibility(False, "complex linearization roots")
    return Admissibility(True)


def species_swap(p: SystemParams, s: float) -> Tuple[SystemParams, float]:
    """Map the system onto itself with the roles of u and v exchanged.

    The substitution (U, V)(eta) = (v/a, u/a)(xi) with eta = sqrt(a/d) xi
    sends (a, b, c, d, s) to (1/a, c, b, 1/d, s/sqrt(a*d)).  The map is an
    involution and exchanges a*d <= 1 with a*d >= 1, which is how the
    critical-speed construction covers a*d > 1.
    """
    q = SystemParams(a=1.0 / p.a, b=p.c, c=p.b, d=1.0 / p.d)
    return q, s / math.sqrt(p.a * p.d)

"""Shape classification, (non-)monotonicity criteria, and diagnostics.

Classification finds prominence-filtered interior extrema of a computed
profile.  The non-monotonicity criteria compare the lower-envelope
maximum against the coexistence component it must overshoot; the
monotone-front criterion and the two theorem-backed alarms (interior-box
monotonicity, oscillation coupling) act as falsifiable consistency checks
on computed waves.  The Sturm interval is a nonexistence diagnostic for
subcritical speeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy.signal import find_peaks

from .model import (
    EQ_TOL,
    Regime,
    SystemParams,
    at_critical_speed,
    classify_regime,
    critical_speed,
    decay_rates,
    equilibria,
)
from .envelopes import (
    CRITICAL_AD_EQ1,
    EnvelopeSet,
    SelectionKnobs,
    bump_log_max,
    lower_bump,
    select_critical,
)
from .solve import Profile

#: relative prominence below which an extremum is treated as ripple
PROMINENCE_FRAC = 1e-4


@dataclass(frozen=True)
class Extremum:
    component: str
    location: float
    value: float
    kind: str  # "max" or "min"


@dataclass(frozen=True)
class ShapeClass:
    tag: str  # MonotoneBoth | NonMonotoneU | NonMonotoneV | NonMonotoneBoth
    extrema: Tuple[Extremum, ...]


@dataclass(frozen=True)
class BoxMonotonicity:
    hypothesis_holds: bool
    passed: bool


@dataclass(frozen=True)
class NonMonotoneCondition:
    holds: bool
    fmax: float
    star: float
    log_fmax: float


@dataclass(frozen=True)
class OscillationCheck:
    u_oscillates: bool
    v_oscillates: bool
    passed: bool


@dataclass(frozen=True)
class RegionScan:
    s_values: np.ndarray
    gap_values: np.ndarray  # values of a - b
    holds: np.ndarray       # boolean matrix, shape (len(gap), len(s))
    fmax: np.ndarray
    star: np.ndarray


def _interior_extrema(grid: np.ndarray, y: np.ndarray, component: str) -> List[Extremum]:
    span = float(y.max() - y.min())
    if span <= 0.0:
        return []
    prom = PROMINENCE_FRAC * span
    out = []
    for sign, kind in ((1.0, "max"), (-1.0, "min")):
        idx, _ = find_peaks(sign * y, prominence=prom)
        out.extend(Extremum(component, float(grid[i]), float(y[i]), kind)
                   for i in idx)
    out.sort(key=lambda e: e.location)
    return out


def classify(prof: Profile) -> ShapeClass:
    """Tag a converged profile by which components have interior extrema."""
    if not prof.converged:
        raise ValueError("classify requires converged profile")
    ex_u = _interior_extrema(prof.grid, prof.u, "u")
    ex_v = _interior_extrema(prof.grid, prof.v, "v")
    nm_u, nm_v = bool(ex_u), bool(ex_v)
    if nm_u and nm_v:
        tag = "NonMonotoneBoth"
    elif nm_u:
        tag = "NonMonotoneU"
    elif nm_v:
        tag = "NonMonotoneV"
    else:
        tag = "MonotoneBoth"
    return ShapeClass(tag=tag, extrema=tuple(ex_u + ex_v))


def interior_box_implies_monotone(prof: Profile, p: SystemParams) -> BoxMonotonicity:
    """Alarm: a wave confined to (0,u*) x (0,v*) must be monotone.

    Vacuously passes when the profile leaves the open box; a failure on a
    converged in-box profile flags a numerical artifact.
    """
    ustar, vstar = equilibria(p).coexistence
    u, v = prof.u, prof.v
    hyp = bool(np.all((u > 0) & (u < ustar) & (v > 0) & (v < vstar)))
    if not hyp:
        return BoxMonotonicity(hypothesis_holds=False, passed=True)
    return BoxMonotonicity(hypothesis_holds=True,
                           passed=classify(prof).tag == "MonotoneBoth")


def _nonmonotone_condition(p: SystemParams, s: float, knobs: SelectionKnobs,
                           component: str) -> NonMonotoneCondition:
    if classify_regime(p) is not Regime.STRICT_WEAK:
        raise ValueError("unsupported regime")
    if s < critical_speed(p) - EQ_TOL:
        raise ValueError("subcritical speed")
    ustar, vstar = equilibria(p).coexistence
    star = ustar if component == "u" else vstar

    if at_critical_speed(p, s):
        ck = SelectionKnobs(nonmonotone_u=(component == "u"),
                            nonmonotone_v=(component == "v"),
                            mu2=knobs.mu2, q2=knobs.q2)
        ep = select_critical(p, ck)
        if component == "u" or ep.case == CRITICAL_AD_EQ1:
            # the g-bump maximum that select_critical computed for its q
            fmax = ep.margins["gmax1" if component == "u" else "gmax2"]
            log_fmax = math.log(fmax) if fmax > 0.0 else -math.inf
        else:
            log_fmax = bump_log_max(p.a, decay_rates(p, s).lambda2, ep.muhat2, ep.Qhat2)
            fmax = math.exp(log_fmax) if log_fmax > -700.0 else 0.0
    else:
        mu, q = (knobs.mu1, knobs.q1) if component == "u" else (knobs.mu2, knobs.q2)
        bump = lower_bump(p, s, component, mu, q, overshoot=True)
        log_fmax = bump_log_max(bump.coef, bump.lam, bump.mu, bump.q)
        fmax = math.exp(log_fmax) if log_fmax > -700.0 else 0.0

    holds = log_fmax > math.log(star)
    return NonMonotoneCondition(holds=holds, fmax=fmax, star=star,
                                log_fmax=log_fmax)


def nonmonotone_condition_u(p: SystemParams, s: float,
                            knobs: SelectionKnobs = SelectionKnobs()) -> NonMonotoneCondition:
    """Overshoot criterion: the u lower envelope tops the coexistence u*."""
    return _nonmonotone_condition(p, s, knobs, "u")


def nonmonotone_condition_v(p: SystemParams, s: float,
                            knobs: SelectionKnobs = SelectionKnobs()) -> NonMonotoneCondition:
    """Overshoot criterion: the v lower envelope tops the coexistence v*."""
    return _nonmonotone_condition(p, s, knobs, "v")


def ma_front_criterion(env: EnvelopeSet, p: SystemParams) -> bool:
    """Three-condition sufficient test for a monotone front.

    (1) envelopes confined to [0, u*] x [0, v*]; (2) the running sup of
    each lower envelope stays below its upper envelope; (3) no constant
    equilibrium in the product of (0, inf upper] union [sup lower, star).
    """
    ustar, vstar = equilibria(p).coexistence
    joins = env.join_points
    grid = np.linspace(min(joins) - 30.0, max(joins) + 30.0, 4001)
    uu, ul = env.u_upper(grid), env.u_lower(grid)
    vu, vl = env.v_upper(grid), env.v_lower(grid)
    tol = 1e-12

    cond1 = (np.all(ul >= -tol) and np.all(uu <= ustar + tol)
             and np.all(ul <= uu + tol)
             and np.all(vl >= -tol) and np.all(vu <= vstar + tol)
             and np.all(vl <= vu + tol))
    cond2 = (np.all(np.maximum.accumulate(ul) <= uu + tol)
             and np.all(np.maximum.accumulate(vl) <= vu + tol))

    inf_uu, sup_ul = float(uu.min()), float(ul.max())
    inf_vu, sup_vl = float(vu.min()), float(vl.max())

    def in_component(x, inf_up, sup_lo, star):
        return (0.0 < x <= inf_up) or (sup_lo <= x < star)

    eq = equilibria(p)
    states = [eq.extinction, eq.semitrivial_u, eq.semitrivial_v, eq.coexistence]
    cond3 = not any(in_component(ue, inf_uu, sup_ul, ustar)
                    and in_component(ve, inf_vu, sup_vl, vstar)
                    for ue, ve in states)
    return bool(cond1 and cond2 and cond3)


def right_tail_extrema(prof: Profile, component: str) -> Tuple[bool, List[Extremum]]:
    """Prominence-filtered extrema of one component on the rightmost
    quarter of the truncated domain, and whether the component oscillates
    there, which it does when it has at least two of them."""
    n = prof.grid.size
    sl = slice(3 * n // 4, n)
    y = prof.u if component == "u" else prof.v
    ex = _interior_extrema(prof.grid[sl], y[sl], component)
    return len(ex) >= 2, ex


def oscillation_coupling(prof: Profile) -> OscillationCheck:
    """Alarm: near +infinity either both components oscillate or neither
    (see right_tail_extrema)."""
    if not prof.converged:
        raise ValueError("classify requires converged profile")
    osc_u, _ = right_tail_extrema(prof, "u")
    osc_v, _ = right_tail_extrema(prof, "v")
    return OscillationCheck(u_oscillates=osc_u, v_oscillates=osc_v,
                            passed=osc_u == osc_v)


def scan_region(base: SystemParams, s_values, gap_values,
                knobs: SelectionKnobs = SelectionKnobs()) -> RegionScan:
    """Evaluate the v-overshoot criterion over a (speed, a-b gap) grid.

    Speeds are clamped from below at the critical speed; every scanned
    point must remain strictly weak.
    """
    s_values = np.asarray(list(s_values), dtype=float)
    gap_values = np.asarray(list(gap_values), dtype=float)
    holds = np.zeros((gap_values.size, s_values.size), dtype=bool)
    fmax = np.zeros_like(holds, dtype=float)
    star = np.zeros_like(holds, dtype=float)
    for i, gap in enumerate(gap_values):
        b = base.a - gap
        if b <= 0.0:
            raise ValueError("a - b gap exceeds a: b must stay positive")
        p = SystemParams(base.a, b, base.c, base.d)
        if classify_regime(p) is not Regime.STRICT_WEAK:
            raise ValueError("unsupported regime")
        for j, s in enumerate(s_values):
            s_eff = max(s, critical_speed(p))
            cond = nonmonotone_condition_v(p, s_eff, knobs)
            holds[i, j] = cond.holds
            fmax[i, j] = cond.fmax
            star[i, j] = cond.star
    return RegionScan(s_values=s_values, gap_values=gap_values,
                      holds=holds, fmax=fmax, star=star)


def sturm_interval(p: SystemParams, s: float, eps: float, L: float,
                   prof: Optional[Profile] = None):
    """First comparison interval left of -L for the subcritical argument.

    Any positive solution would contradict the Wronskian identity of
    w = e^{s xi / 2} u against sin(sqrt(eps) xi) on this interval.
    """
    if s <= 0.0 or s >= 2.0:
        raise ValueError("diagnostic applies to subcritical speeds only")
    if not 0.0 < eps < 1.0 - s * s / 4.0:
        raise ValueError("eps must lie in (0, 1 - s^2/4)")
    root = math.sqrt(eps)
    M = 1
    while (2 * M - 1) * math.pi / root <= L:
        M += 1
    xi1 = -2.0 * M * math.pi / root
    xi2 = -(2 * M - 1) * math.pi / root
    psi_min = None
    if prof is not None:
        mask = (prof.grid >= xi1) & (prof.grid <= xi2)
        if mask.any():
            psi = 1.0 - s * s / 4.0 - prof.u[mask] - p.c * prof.v[mask]
            psi_min = float(psi.min())
    return (xi1, xi2), M, psi_min

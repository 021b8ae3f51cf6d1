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

from .model import SystemParams, critical_speed, equilibria, require_strict_weak
from .envelopes import EnvelopeSet, InadmissibleBump, SelectionKnobs
from .certify import select_params
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


def _prominent_peaks(x: np.ndarray, prom: float) -> np.ndarray:
    """Indices of the local maxima of x whose prominence is at least prom,
    as scipy.signal.find_peaks(x, prominence=prom) gives them.

    A maximum is a run of equal samples above both neighbouring runs; it is
    reported at its middle sample, rounded down, and the first and last
    runs are never maxima.  Its prominence is its value minus the larger of
    the two lowest values met walking left and walking right from it, each
    walk ending before the first higher sample or at the end of x.  Those
    lowest values are turning points of the run values, or their two ends,
    so the walks step over the turning points alone.
    """
    if x.size < 3:
        return np.empty(0, dtype=np.intp)
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    vals = x[starts]
    rise, fall = vals[1:] > vals[:-1], vals[1:] < vals[:-1]
    peaks = np.flatnonzero(rise[:-1] & fall[1:]) + 1
    if peaks.size == 0:
        return peaks
    turns = np.flatnonzero(np.r_[True, rise[:-1] != rise[1:], True])
    tv = vals[turns]
    kept = []
    # a peak is never the last run, so its run ends where the next starts
    for r, mid in zip(peaks, (starts[peaks] + starts[peaks + 1] - 1) // 2):
        i = np.searchsorted(turns, r)
        top = tv[i]
        higher = np.flatnonzero(tv[:i] > top)
        left = tv[(higher[-1] + 1 if higher.size else 0):i + 1].min()
        higher = np.flatnonzero(tv[i:] > top)
        right = tv[i:(i + higher[0] if higher.size else tv.size)].min()
        if top - max(left, right) >= prom:
            kept.append(mid)
    return np.array(kept, dtype=np.intp)


def _interior_extrema(grid: np.ndarray, y: np.ndarray, component: str,
                      start: int = 0) -> List[Extremum]:
    """Extrema of y[start:], prominent against the span of the whole of y."""
    span = float(y.max() - y.min())
    if span <= 0.0:
        return []
    prom = PROMINENCE_FRAC * span
    out = []
    for sign, kind in ((1.0, "max"), (-1.0, "min")):
        idx = _prominent_peaks(sign * y[start:], prom)
        out.extend(Extremum(component, float(grid[start + i]), float(y[start + i]), kind)
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
    require_strict_weak(p)
    ustar, vstar = equilibria(p).coexistence
    star = ustar if component == "u" else vstar

    # the envelope certify selects with this component's overshoot flag and
    # pins; the other component's pins do not move this bump
    ck = (SelectionKnobs(nonmonotone_u=True, mu1=knobs.mu1, q1=knobs.q1) if component == "u"
          else SelectionKnobs(nonmonotone_v=True, mu2=knobs.mu2, q2=knobs.q2))
    try:
        _, ep = select_params(p, s, ck)
    except InadmissibleBump:
        # constants that the selection refuses give no envelope
        return NonMonotoneCondition(holds=False, fmax=0.0, star=star, log_fmax=-math.inf)
    bump = ep.u if component == "u" else ep.v
    return NonMonotoneCondition(holds=bump.log_fmax > math.log(star), fmax=bump.fmax,
                                star=star, log_fmax=bump.log_fmax)


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
    """Extrema of one component on the rightmost quarter of the truncated
    domain, prominent against the whole component's span, and whether the
    component oscillates there, which it does when it has at least two."""
    y = prof.u if component == "u" else prof.v
    ex = _interior_extrema(prof.grid, y, component, 3 * prof.grid.size // 4)
    return len(ex) >= 2, ex


def oscillation_coupling(prof: Profile) -> OscillationCheck:
    """Alarm: near +infinity either both components oscillate or neither
    (see right_tail_extrema)."""
    if not prof.converged:
        raise ValueError("oscillation_coupling requires converged profile")
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
        require_strict_weak(p)
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

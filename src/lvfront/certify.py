"""Numerical verification that an envelope set brackets a true wave.

Checks three things on a dense grid: the pointwise ordering of the
envelopes, the corner (one-sided derivative) conditions at the join
points, and the four differential inequalities

    u_up'' - s u_up' + u_up (1 - u_up - c v_lo) <= 0,
    u_lo'' - s u_lo' + u_lo (1 - u_lo - c v_up) >= 0,
    d v_up'' - s v_up' + v_up (a - b u_lo - v_up) <= 0,
    d v_lo'' - s v_lo' + v_lo (a - b u_up - v_lo) >= 0,

with small exclusion windows around the joins where second derivatives
are undefined.  This is a floating-point grid check, not interval
arithmetic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .model import Regime, SystemParams, admissibility, at_critical_speed, classify_regime, critical_speed
from .envelopes import (
    CriticalParams,
    EnvelopeSet,
    SelectionKnobs,
    SupercriticalParams,
    build_envelopes,
    min_decay_rate,
    select_critical,
    select_supercritical,
)

#: residual within this band of zero counts as satisfying its inequality
RESIDUAL_TOL = 1e-10
#: grid points closer than this to a join point are skipped
EXCLUSION_RADIUS = 1e-6
#: distances from each join at which make_grid adds points on both sides
_JOIN_OFFSETS = np.geomspace(2.0 * EXCLUSION_RADIUS, 1.0, 80)
_JOIN_OFFSETS.flags.writeable = False


@dataclass(frozen=True)
class CornerCheck:
    profile: str
    location: float
    left_deriv: float
    right_deriv: float
    ok: bool


@dataclass(frozen=True)
class Certificate:
    inequality_margins: Dict[str, np.ndarray]
    min_margins: Dict[str, float]
    corner_checks: List[CornerCheck]
    ordering_ok: bool
    ordering_gap: float
    grid: Dict[str, float]
    verdict: str
    envelope: EnvelopeSet

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def make_grid(env: EnvelopeSet, n_points: int = 20001) -> np.ndarray:
    """Evaluation grid clustered near join points and deep in the left tail.

    Spans [leftmost join - 40/lam_min, 30] with geometric refinement on
    both sides of every join; points inside the exclusion radius of a join
    are dropped.
    """
    lam_min = min_decay_rate(env)
    joins = env.join_points
    left = min(joins) - 40.0 / lam_min
    pts = np.concatenate([np.linspace(left, 30.0, n_points)]
                         + [j + _JOIN_OFFSETS for j in joins]
                         + [j - _JOIN_OFFSETS for j in joins])
    # every part is a monotone run, which the stable sort merges in near
    # linear time; repeated points are then dropped as np.unique drops them
    pts.sort(kind="stable")
    keep = np.empty(pts.size, dtype=bool)
    keep[0] = True
    np.not_equal(pts[1:], pts[:-1], out=keep[1:])
    keep &= (pts >= left) & (pts <= 30.0)
    for j in joins:
        keep &= np.abs(pts - j) > EXCLUSION_RADIUS
    return pts[keep]


def check_ordering(env: EnvelopeSet, grid: np.ndarray) -> Tuple[bool, float]:
    """Pointwise u_lower <= u_upper and v_lower <= v_upper on the sorted grid."""
    return _ordering(env.jet(grid)[:, 0])


def _ordering(values: np.ndarray) -> Tuple[bool, float]:
    """check_ordering from the (4, n) values of u_upper, u_lower, v_upper
    and v_lower."""
    uu, ul, vu, vl = values
    worst = float(min((uu - ul).min(), (vu - vl).min()))
    return worst >= -1e-12, worst


def check_corners(env: EnvelopeSet) -> List[CornerCheck]:
    """One-sided derivative orientation at every join point.

    Upper envelopes must be concave at corners (left derivative >= right);
    lower envelopes convex (left <= right).
    """
    out = []
    specs = [
        ("u_upper", env.u_upper, True), ("u_lower", env.u_lower, False),
        ("v_upper", env.v_upper, True), ("v_lower", env.v_lower, False),
    ]
    for name, prof, is_upper in specs:
        for j in prof.join_points:
            dl, dr = prof.one_sided(j)
            ok = dl >= dr - RESIDUAL_TOL if is_upper else dl <= dr + RESIDUAL_TOL
            out.append(CornerCheck(name, j, dl, dr, ok))
    return out


def check_differential_inequalities(env: EnvelopeSet, p: SystemParams, s: float,
                                    grid: np.ndarray, *,
                                    jet: Optional[np.ndarray] = None) -> Dict[str, np.ndarray]:
    """Signed residuals of the four inequalities from closed-form derivatives
    on the sorted grid, with one jet (value, first, second) per envelope.

    jet, if given, is env.jet(grid, 2), already evaluated by the caller.
    """
    a, b, c, d = p.a, p.b, p.c, p.d
    # the residuals are allocated before any jet evaluated here, so that the
    # jets and the temporaries are freed from the top of the heap and the
    # next certificate reuses that memory instead of faulting in fresh pages
    res = np.empty((4, grid.size))
    if jet is None:
        jet = env.jet(grid, 2)
    (uu, uu1, uu2), (ul, ul1, ul2), (vu, vu1, vu2), (vl, vl1, vl2) = jet
    np.add(uu2 - s * uu1, uu * (1.0 - uu - c * vl), out=res[0])
    np.add(ul2 - s * ul1, ul * (1.0 - ul - c * vu), out=res[1])
    np.add(d * vu2 - s * vu1, vu * (a - b * ul - vu), out=res[2])
    np.add(d * vl2 - s * vl1, vl * (a - b * uu - vl), out=res[3])
    return dict(zip(("u_upper", "u_lower", "v_upper", "v_lower"), res))


def _mode_knobs(mode: str) -> SelectionKnobs:
    if mode == "default":
        return SelectionKnobs()
    if mode == "nonmonotone-u":
        return SelectionKnobs(nonmonotone_u=True)
    if mode == "nonmonotone-v":
        return SelectionKnobs(nonmonotone_v=True)
    raise ValueError(f"unknown mode {mode!r}")


def select_params(p: SystemParams, s: float, knobs: SelectionKnobs
                  ) -> Tuple[float, Union[SupercriticalParams, CriticalParams]]:
    """The envelope speed and constants that (p, s, knobs) select: the critical
    selection at s* (model.at_critical_speed), the supercritical one above."""
    if at_critical_speed(p, s):
        return critical_speed(p), select_critical(p, knobs)
    return s, select_supercritical(p, s, knobs)


def select_and_build(p: SystemParams, s: float, mode: str = "default",
                     knobs: SelectionKnobs = None) -> EnvelopeSet:
    """Pick envelope constants for (p, s) and assemble the envelope set."""
    if knobs is None:
        knobs = _mode_knobs(mode)
    return build_envelopes(p, *select_params(p, s, knobs))


def certify(p: SystemParams, s: float, mode: str = "default",
            knobs: SelectionKnobs = None, n_points: int = 20001) -> Certificate:
    """Build envelopes for (p, s) and verify all bracketing conditions."""
    adm = admissibility(p, s)
    if not adm.admissible:
        raise ValueError(adm.reason)
    if classify_regime(p) is not Regime.STRICT_WEAK:
        raise ValueError("unsupported regime")
    env = select_and_build(p, s, mode, knobs)
    grid = make_grid(env, n_points)
    jet = env.jet(grid, 2)
    ordering_ok, gap = _ordering(jet[:, 0])
    corners = check_corners(env)
    residuals = check_differential_inequalities(env, p, s, grid, jet=jet)

    min_margins = {}
    signs_ok = True
    for name, arr in residuals.items():
        if name.endswith("upper"):
            worst = float(arr.max())   # must be <= tol
            min_margins[name] = worst
            signs_ok &= worst <= RESIDUAL_TOL
        else:
            worst = float(arr.min())   # must be >= -tol
            min_margins[name] = worst
            signs_ok &= worst >= -RESIDUAL_TOL

    verdict = "pass" if (signs_ok and ordering_ok and all(cc.ok for cc in corners)) else "fail"
    grid_desc = {
        "left": float(grid[0]), "right": float(grid[-1]),
        "n_points": int(grid.size), "exclusion_radius": EXCLUSION_RADIUS,
    }
    return Certificate(
        inequality_margins=residuals,
        min_margins=min_margins,
        corner_checks=corners,
        ordering_ok=ordering_ok,
        ordering_gap=gap,
        grid=grid_desc,
        verdict=verdict,
        envelope=env,
    )


def certificate_to_json(cert: Certificate) -> Dict:
    """JSON-ready summary (residual arrays reduced to their worst values)."""
    return {
        "verdict": cert.verdict,
        "ordering_ok": cert.ordering_ok,
        "ordering_gap": cert.ordering_gap,
        "min_margins": cert.min_margins,
        "corner_checks": [asdict(cc) for cc in cert.corner_checks],
        "grid": cert.grid,
        "case": cert.envelope.case,
    }


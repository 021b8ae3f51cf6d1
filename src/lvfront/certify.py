"""Verification that an envelope set brackets a true wave.

Checks three things: the ordering of the envelopes, the corner
(one-sided derivative) conditions at the join points, and the four
differential inequalities

    u_up'' - s u_up' + u_up (1 - u_up - c v_lo) <= 0,
    u_lo'' - s u_lo' + u_lo (1 - u_lo - c v_up) >= 0,
    d v_up'' - s v_up' + v_up (a - b u_lo - v_up) <= 0,
    d v_lo'' - s v_lo' + v_lo (a - b u_up - v_lo) >= 0.

For s > s* every envelope piece is a sum of terms c e^{r xi}, so on each
cell between join points every residual and both ordering gaps are such
sums too; check_cells decides their signs cell by cell on the whole real
line.  At s = s* the inequalities and the ordering are checked on a dense
grid, with small exclusion windows around the joins where second
derivatives are undefined.  Both are floating-point checks, not interval
arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .model import (Regime, SystemParams, admissibility, at_critical_speed, classify_regime,
                    critical_speed, decay_rates)
from .envelopes import (
    CriticalParams,
    EnvelopeSet,
    PiecewiseProfile,
    SelectionKnobs,
    SupercriticalParams,
    build_envelopes,
    min_decay_rate,
    select_critical,
    select_supercritical,
)

#: the four differential inequalities, in the order of the module docstring
_INEQUALITIES = ("u_upper", "u_lower", "v_upper", "v_lower")
#: residual within this band of zero counts as satisfying its inequality
RESIDUAL_TOL = 1e-10
#: ordering gap within this band of zero counts as ordered
ORDERING_TOL = 1e-12
#: decide_sums halves a cell at most this often, and holds at most
#: MAX_CELLS cells at once; a cell still undecided then fails
MAX_BISECTIONS = 200
MAX_CELLS = 4096
#: grid points (s = s* only) closer than this to a join point are skipped
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
    """The verdict on an envelope set and what it rests on.

    Above s*, inequality_margins holds one bound per cell between join
    points (check_cells), ordering_gap is the smallest cell bound of the
    two gaps and grid is {left, right, cells}; at s*, the residuals on the
    grid, the smallest gap on it and the grid's span, size and exclusion
    radius.  Upper residuals are bounded above, lower ones below, and
    min_margins holds the worst of each.
    """

    inequality_margins: Dict[str, np.ndarray]
    min_margins: Dict[str, float]
    corner_checks: List[CornerCheck]
    ordering_ok: bool
    ordering_gap: float
    grid: Dict[str, float]
    verdict: str
    envelope: EnvelopeSet
    #: xi of each inequality's worst residual (s = s*) or worst cell bound
    tightest: Dict[str, float] = field(default_factory=dict)
    #: the first failed check, None on a pass
    reason: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def grid_span(env: EnvelopeSet) -> Tuple[float, float]:
    """[leftmost join - 40/lam_min, 30]: the span of make_grid, and the
    span that a certificate reports in either case."""
    return min(env.join_points) - 40.0 / min_decay_rate(env), 30.0


def make_grid(env: EnvelopeSet, n_points: int = 20001) -> np.ndarray:
    """Evaluation grid clustered near join points and deep in the left tail.

    Spans grid_span(env) with geometric refinement on both sides of every
    join; points inside the exclusion radius of a join are dropped.
    """
    joins = env.join_points
    left, right = grid_span(env)
    pts = np.concatenate([np.linspace(left, right, n_points)]
                         + [j + _JOIN_OFFSETS for j in joins]
                         + [j - _JOIN_OFFSETS for j in joins])
    # every part is a monotone run, which the stable sort merges in near
    # linear time; repeated points are then dropped as np.unique drops them
    pts.sort(kind="stable")
    keep = np.empty(pts.size, dtype=bool)
    keep[0] = True
    np.not_equal(pts[1:], pts[:-1], out=keep[1:])
    keep &= (pts >= left) & (pts <= right)
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
    return worst >= -ORDERING_TOL, worst


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
    return dict(zip(_INEQUALITIES, res))


class CellCheck(NamedTuple):
    """What decide_sums decides, per named sum: one signed bound per cell
    between the cuts (an upper bound where the sum must be <= 0, a lower
    bound where it must be >= 0), the xi where the worst of them is
    approached (-inf for the limit on the left half-line), the number of
    cells decided over all sums, and why each failed sum failed."""

    bounds: Dict[str, np.ndarray]
    tightest: Dict[str, float]
    cells: int
    reasons: Dict[str, str]


def _exp(rate, x):
    """e^{rate x} elementwise, 1 where rate is 0 (also at an infinite x)."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.where(rate == 0.0, 1.0, np.exp(rate * x))


def _left_split(terms: Dict[float, float], sigma: float, hi: float) -> Tuple[float, float]:
    """The sigma-signed coefficient c0 of the slowest term on (-inf, hi]
    and, if c0 > 0, a split point y <= hi left of which each of the n terms
    of the wrong sign is at most c0/(2n) relative to the slowest term."""
    r0 = min(terms)
    c0 = sigma * terms[r0]
    bad = [(-sigma * c, r - r0) for r, c in terms.items() if sigma * c < 0.0]
    y = hi
    if c0 > 0.0:
        for mag, dr in bad:
            y = min(y, math.log(c0 / (2.0 * len(bad) * mag)) / dr)
    return c0, y


class _Rows(NamedTuple):
    """Flat sigma-signed terms (coefs, rates) grouped by row, a row being one
    sum on one cell between cuts: its terms start at start[row], count[row]
    many, with smallest rate rmin[row] and largest rmax[row]."""

    coefs: np.ndarray
    rates: np.ndarray
    start: np.ndarray
    count: np.ndarray
    rmin: np.ndarray
    rmax: np.ndarray

    def bound(self, row, lo, hi):
        """For the cells [lo, hi] of the rows row: a lower bound of the
        row's sum on the cell, and the sum at both ends.

        The sum is e^{r_m xi} sum_k c_k e^{(r_k - r_m) xi}, with r_m the
        row's smallest rate (its largest on a cell reaching +inf), and each
        term of the second sum lies between its values at the cell ends.
        """
        m = row.size
        cnt = self.count[row]
        cell = np.repeat(np.arange(m), cnt)
        idx = np.arange(cell.size) + np.repeat(self.start[row] - (np.cumsum(cnt) - cnt), cnt)
        ref = np.where(hi == math.inf, self.rmax[row], self.rmin[row])
        dr = self.rates[idx] - ref[cell]
        t_lo = self.coefs[idx] * _exp(dr, lo[cell])
        t_hi = self.coefs[idx] * _exp(dr, hi[cell])
        inner = np.bincount(cell, np.minimum(t_lo, t_hi), m)
        e_lo, e_hi = _exp(ref, lo), _exp(ref, hi)
        bound = np.where(inner >= 0.0, inner * np.minimum(e_lo, e_hi),
                         inner * np.maximum(e_lo, e_hi))
        return bound, e_lo * np.bincount(cell, t_lo, m), e_hi * np.bincount(cell, t_hi, m)


def decide_sums(sums: Dict[str, Tuple[float, float, List[Dict[float, float]]]],
                cuts: Tuple[float, ...]) -> CellCheck:
    """Decide sigma * f >= -tol on the whole line for each named sum
    (sigma, tol, cells), where cells holds f = sum_k c_k e^{r_k xi} as
    {r_k: c_k} on each cell of the line split at the sorted cuts.

    Zero coefficients are dropped.  On (-inf, cuts[0]] the slowest term
    must have the strict sign; left of a split point (_left_split) the
    others cannot undo it, and the rest of the half-line is checked as a
    finite cell.  All cells are bounded at once (_Rows.bound).  A finite
    cell whose bound misses -tol is halved, unless a cell end already
    breaks it; a cell reaching +inf is not.  Rates must not exceed 0 on
    that cell, or its bound is infinite.
    """
    lefts = (-math.inf,) + tuple(cuts)
    ends = lefts[1:] + (math.inf,)
    n_cells = len(lefts)
    names = list(sums)
    reasons: Dict[int, str] = {}
    coefs, term_rates, start, count, rmin, rmax = [], [], [], [], [], []
    row, lo, hi = [], [], []
    for k, (name, (sigma, _, cells)) in enumerate(sums.items()):
        for i, terms in enumerate(cells):
            terms = {r: x for r, x in terms.items() if x != 0.0}
            start.append(len(coefs))
            count.append(len(terms))
            coefs += [sigma * x for x in terms.values()]
            term_rates += terms
            rmin.append(min(terms, default=0.0))
            rmax.append(max(terms, default=0.0))
            cut = [lefts[i], ends[i]]
            if i == 0 and terms:
                c0, y = _left_split(terms, sigma, ends[0])
                if c0 < 0.0:
                    sign = "negative" if sigma > 0.0 else "positive"
                    reasons[k] = f"{name}: leading coefficient {sign} as xi -> -inf"
                elif y < ends[0]:
                    cut.insert(1, y)
            row += [k * n_cells + i] * (len(cut) - 1)
            lo += cut[:-1]
            hi += cut[1:]
    rows = _Rows(*map(np.array, (coefs, term_rates, start, count, rmin, rmax)))
    row, lo, hi = np.array(row), np.array(lo), np.array(hi)
    tol = np.array([t for _, t, _ in sums.values()])
    failed = np.zeros(len(sums), dtype=bool)
    failed[list(reasons)] = True

    done = []  # (row, bound, xi) of every decided cell
    for _ in range(MAX_BISECTIONS + 1):
        bound, v_lo, v_hi = rows.bound(row, lo, hi)
        k_of = row // n_cells
        short = bound < -tol[k_of]
        witness = np.minimum(v_lo, v_hi) < -tol[k_of]
        mid = 0.5 * (lo + hi)
        split = (short & ~witness & ~failed[k_of] & (lo < mid) & (mid < hi)
                 & (row.size < MAX_CELLS))
        keep = ~split
        done.append((row[keep], bound[keep], np.where(v_hi < v_lo, hi, lo)[keep]))
        for j in np.flatnonzero(keep & short & ~failed[k_of]).tolist():
            k = int(k_of[j])
            if failed[k]:
                continue
            failed[k] = True
            if witness[j]:
                at, value = (hi[j], v_hi[j]) if v_hi[j] < v_lo[j] else (lo[j], v_lo[j])
                sigma = sums[names[k]][0]
                reasons[k] = f"{names[k]} = {sigma * value:.3g} at xi = {at:.6g}"
            else:
                reasons[k] = f"{names[k]}: sign undecided on [{lo[j]:.6g}, {hi[j]:.6g}]"
        if not split.any():
            break
        row = np.repeat(row[split], 2)
        lo, hi = (np.column_stack(pair).ravel() for pair in
                  ((lo[split], mid[split]), (mid[split], hi[split])))

    # the worst bound of each row, the leftmost of equal ones
    done_row, done_bound, done_xi = map(np.concatenate, zip(*done))
    order = np.lexsort((done_xi, done_bound, done_row))
    first = order[np.r_[True, done_row[order][1:] != done_row[order][:-1]]]
    worst = done_bound[first].reshape(len(sums), n_cells)
    worst_xi = done_xi[first].reshape(len(sums), n_cells)
    bounds, tightest = {}, {}
    for k, (name, (sigma, _, _)) in enumerate(sums.items()):
        bounds[name] = sigma * worst[k] + 0.0
        tightest[name] = float(worst_xi[k, np.argmin(worst[k])])
    return CellCheck(bounds, tightest, done_row.size,
                     {names[k]: reasons[k] for k in sorted(reasons)})


def _xi_pieces(prof: PiecewiseProfile) -> List[List[Tuple[float, float]]]:
    """The (c, r) pairs of c e^{r xi} of each piece, in the shifted frame."""
    out = []
    for pc in prof.pieces:
        if any(p for _, p, _ in pc.terms):
            raise ValueError("check_cells needs exponential terms (s > s*)")
        out.append([(c * math.exp(-r * prof.shift) if prof.shift else c, r)
                    for c, _, r in pc.terms])
    return out


def _residual_terms(w, other, diff, growth, coupling, s, root) -> Dict[float, float]:
    """{rate: coefficient} of diff w'' - s w' + w (growth - w - coupling other)
    for the (c, r) pairs w and other; the linear term of rate root, bitwise
    the component's own decay rate, is zero analytically and is left out."""
    acc = defaultdict(float)
    for c, r in w:
        if r != root:
            acc[r] += (diff * r * r - s * r + growth) * c
    for c1, r1 in w:
        for c2, r2 in w:
            acc[r1 + r2] -= c1 * c2
        for c2, r2 in other:
            acc[r1 + r2] -= coupling * c1 * c2
    return acc


def _gap_terms(upper, lower) -> Dict[float, float]:
    acc = defaultdict(float)
    for c, r in upper:
        acc[r] += c
    for c, r in lower:
        acc[r] -= c
    return acc


def check_cells(env: EnvelopeSet, p: SystemParams, s: float) -> CellCheck:
    """The four residuals and the two ordering gaps u_ordering = u_upper -
    u_lower and v_ordering = v_upper - v_lower of a supercritical envelope
    set, decided by decide_sums on the cells between its join points.

    On a cell each residual is a sum of terms c e^{r xi}: the products of
    the pieces' terms and one operator coefficient diff r^2 - s r + growth
    per term, like rates merged.  The residuals must clear RESIDUAL_TOL and
    the gaps ORDERING_TOL.
    """
    a, b, c, d = p.a, p.b, p.c, p.d
    rates = decay_rates(p, s)
    lefts = (-math.inf,) + env.join_points

    def on_cells(prof):
        pieces, joins = _xi_pieces(prof), prof.join_points
        return [pieces[bisect_right(joins, x)] for x in lefts]

    uu, ul, vu, vl = map(on_cells, (env.u_upper, env.u_lower, env.v_upper, env.v_lower))
    sums = {}
    for name, sigma, w, o, diff, growth, k, root in (
            ("u_upper", -1.0, uu, vl, 1.0, 1.0, c, rates.lambda1),
            ("u_lower", 1.0, ul, vu, 1.0, 1.0, c, rates.lambda1),
            ("v_upper", -1.0, vu, ul, d, a, b, rates.lambda2),
            ("v_lower", 1.0, vl, uu, d, a, b, rates.lambda2)):
        sums[name] = (sigma, RESIDUAL_TOL, [_residual_terms(wi, oi, diff, growth, k, s, root)
                                            for wi, oi in zip(w, o)])
    for name, up, low in (("u_ordering", uu, ul), ("v_ordering", vu, vl)):
        sums[name] = (1.0, ORDERING_TOL, [_gap_terms(x, y) for x, y in zip(up, low)])
    return decide_sums(sums, env.join_points)


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
            knobs: SelectionKnobs = None) -> Certificate:
    """Build envelopes for (p, s) and verify all bracketing conditions.

    Above s* the signs are decided cell by cell (check_cells); at s* on the
    grid of make_grid(env).
    """
    adm = admissibility(p, s)
    if not adm.admissible:
        raise ValueError(adm.reason)
    if classify_regime(p) is not Regime.STRICT_WEAK:
        raise ValueError("unsupported regime")
    env = select_and_build(p, s, mode, knobs)
    corners = check_corners(env)
    if isinstance(env.params, SupercriticalParams):
        cells = check_cells(env, p, s)
        margins = {name: cells.bounds[name] for name in _INEQUALITIES}
        tightest = {name: cells.tightest[name] for name in margins}
        gap = float(min(cells.bounds["u_ordering"].min(), cells.bounds["v_ordering"].min()))
        ordering_ok = not {"u_ordering", "v_ordering"} & set(cells.reasons)
        reasons = list(cells.reasons.values())
        left, right = grid_span(env)
        grid_desc = {"left": left, "right": right, "cells": cells.cells}
    else:
        grid = make_grid(env)
        jet = env.jet(grid, 2)
        ordering_ok, gap = _ordering(jet[:, 0])
        margins = check_differential_inequalities(env, p, s, grid, jet=jet)
        tightest, reasons = {}, []
        for name, arr in margins.items():
            k = int(arr.argmax() if name.endswith("upper") else arr.argmin())
            tightest[name] = float(grid[k])
            if not (arr[k] <= RESIDUAL_TOL if name.endswith("upper") else arr[k] >= -RESIDUAL_TOL):
                reasons.append(f"{name} = {arr[k]:.3g} at xi = {grid[k]:.6g}")
        if not ordering_ok:
            reasons.append(f"ordering gap = {gap:.3g}")
        grid_desc = {
            "left": float(grid[0]), "right": float(grid[-1]),
            "n_points": int(grid.size), "exclusion_radius": EXCLUSION_RADIUS,
        }
    reasons += [f"{cc.profile}: corner at xi = {cc.location:.6g} is not "
                + ("concave" if cc.profile.endswith("upper") else "convex")
                for cc in corners if not cc.ok]

    min_margins = {name: float(arr.max() if name.endswith("upper") else arr.min())
                   for name, arr in margins.items()}
    return Certificate(
        inequality_margins=margins,
        min_margins=min_margins,
        corner_checks=corners,
        ordering_ok=ordering_ok,
        ordering_gap=gap,
        grid=grid_desc,
        verdict="fail" if reasons else "pass",
        envelope=env,
        tightest=tightest,
        reason=reasons[0] if reasons else None,
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
        "reason": cert.reason,
        # JSON has no -inf: null marks a bound approached as xi -> -inf
        "tightest": {name: xi if math.isfinite(xi) else None
                     for name, xi in cert.tightest.items()},
    }


"""Verification that an envelope set brackets a true wave.

Checks that the envelopes are upper and lower solutions: at each join,
continuity and a concave (upper) or convex (lower) corner, read from one
jet per side; the ordering of the envelopes; and the four inequalities

    u_up'' - s u_up' + u_up (1 - u_up - c v_lo) <= 0,
    u_lo'' - s u_lo' + u_lo (1 - u_lo - c v_up) >= 0,
    d v_up'' - s v_up' + v_up (a - b u_lo - v_up) <= 0,
    d v_lo'' - s v_lo' + v_lo (a - b u_up - v_lo) >= 0.

Every envelope piece is a sum of terms c (-xi)^p e^{r xi}, so on each cell
between join points every residual and both ordering gaps are such sums
too; check_cells decides their signs cell by cell on the whole real line,
at s > s* and at s = s* alike.  This is a floating-point check, not
interval arithmetic.  make_grid, check_differential_inequalities and
check_ordering evaluate the same conditions on a dense grid; certify does
not call them, and the tests keep them as an independent reference.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import chain
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .model import (SystemParams, admissibility, at_critical_speed, critical_speed, decay_rates,
                    require_strict_weak)
from .envelopes import (
    EnvelopeParams,
    EnvelopeSet,
    SelectionKnobs,
    build_envelopes,
    left_reach,
    select_critical,
    select_supercritical,
)

#: the four differential inequalities, in the order of the module docstring
_INEQUALITIES = ("u_upper", "u_lower", "v_upper", "v_lower")
#: residual within this band of zero counts as satisfying its inequality
RESIDUAL_TOL = 1e-10
#: ordering gap within this band of zero counts as ordered
ORDERING_TOL = 1e-12
#: a jump at a join within this band of zero counts as continuous
CONTINUITY_TOL = 1e-10
#: decide_sums halves a cell at most this often, and holds at most
#: MAX_CELLS cells at once; a cell still undecided then fails
MAX_BISECTIONS = 200
MAX_CELLS = 4096
#: decide_sums halves a cell this many times at once, into 2^_HALVINGS parts
_HALVINGS = 4
#: grid points of make_grid closer than this to a join point are skipped
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

    inequality_margins holds one bound per cell between join points
    (check_cells), ordering_gap is the smallest cell bound of the two gaps
    and grid is {left, right, cells}.  Upper residuals are bounded above,
    lower ones below, and min_margins holds the worst of each.
    """

    inequality_margins: Dict[str, np.ndarray]
    min_margins: Dict[str, float]
    corner_checks: List[CornerCheck]
    ordering_ok: bool
    ordering_gap: float
    grid: Dict[str, float]
    verdict: str
    envelope: EnvelopeSet
    #: xi of each inequality's worst cell bound
    tightest: Dict[str, float] = field(default_factory=dict)
    #: the first failed check, None on a pass
    reason: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def grid_span(env: EnvelopeSet) -> Tuple[float, float]:
    """[leftmost join - 40/lam_min, 30]: the span of make_grid, and the
    span that a certificate reports."""
    return left_reach(env, 40.0), 30.0


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
    uu, ul, vu, vl = env.jet(grid)[:, 0]
    worst = float(min((uu - ul).min(), (vu - vl).min()))
    return worst >= -ORDERING_TOL, worst


def check_differential_inequalities(env: EnvelopeSet, p: SystemParams, s: float,
                                    grid: np.ndarray) -> Dict[str, np.ndarray]:
    """Signed residuals of the four inequalities from closed-form derivatives
    on the sorted grid, with one jet (value, first, second) per envelope."""
    a, b, c, d = p.a, p.b, p.c, p.d
    (uu, uu1, uu2), (ul, ul1, ul2), (vu, vu1, vu2), (vl, vl1, vl2) = env.jet(grid, 2)
    return dict(zip(_INEQUALITIES, (uu2 - s * uu1 + uu * (1.0 - uu - c * vl),
                                    ul2 - s * ul1 + ul * (1.0 - ul - c * vu),
                                    d * vu2 - s * vu1 + vu * (a - b * ul - vu),
                                    d * vl2 - s * vl1 + vl * (a - b * uu - vl))))


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


#: stands in for an infinite cell end, where a term's factors are 0 or 1
_BIG = np.finfo(float).max


def _left_split(terms: Dict[Tuple[float, float], float], sigma: float,
                hi: float) -> Tuple[float, float]:
    """The sigma-signed coefficient c0 of the leading term as xi -> -inf (the
    smallest rate, and among equal rates the highest power) and, if c0 > 0,
    a split point y <= hi left of which each of the n terms of the wrong
    sign is at most c0/(2n) relative to it.  With x = -xi such a term is
    x^k e^{-eps x} relative to the leading one, and x^k e^{-eps x} <=
    (2k/(e eps))^k e^{-eps x/2} for k > 0, x^k <= 1 for k < 0 and x >= 1."""
    r0, p0 = min(terms, key=lambda rp: (rp[0], -rp[1]))
    c0 = sigma * terms[r0, p0]
    bad = [(-sigma * c, r - r0, p - p0) for (r, p), c in terms.items() if sigma * c < 0.0]
    y = hi
    for mag, eps, k in bad if c0 > 0.0 else ():
        lim = math.log(c0 / (2.0 * len(bad) * mag))
        if k > 0:
            lim = 2.0 * (lim - k * math.log(2.0 * k / (math.e * eps)))
        y = min(y, lim / eps if k >= 0 else -math.exp(lim / k) if eps == 0.0
                else min(-1.0, lim / eps))
    return c0, y


class _Rows(NamedTuple):
    """The sigma-signed terms c x^p e^{r xi} (x = -xi) of every row, a row
    being one sum (or the negated second derivative of one) on one cell
    between cuts, padded with zero terms, and the row's reference term
    x^{p0} e^{r0 xi} in the last column: the leading term, or the largest
    rate on the cell reaching +inf.  terms holds c, r - r0 and, if powered,
    p - p0 and the x of the term's maximum relative to the reference (0 if
    none), with r0, p0 and the x of its own maximum in the last column."""

    terms: np.ndarray
    powered: bool

    def bound(self, row, lo, hi):
        """For the cells [lo, hi] of the rows row: a lower bound of the row's
        sum on the cell, and the sum at both ends.

        The sum is x^{p0} e^{r0 xi} sum_k c_k x^{p_k - p0} e^{(r_k - r0) xi}.
        Each factor x^k e^{eps xi} (the reference's too) is monotone on the
        cell or has one maximum, at x = k/eps (k, eps > 0), so it lies
        between its values at the cell ends and there.
        """
        c, dr, *power = self.terms[row].transpose(1, 0, 2)
        xi = np.stack((np.maximum(lo, -_BIG), np.minimum(hi, _BIG)))[:, :, None]
        if self.powered:
            # one exponential per value, so that a vanishing factor is never
            # multiplied by an overflowing one; x^0 = 1 where x <= 0
            dp, peak = power
            x = np.minimum(np.maximum(peak, -xi[1]), -xi[0])
            x = np.concatenate((np.broadcast_to(-xi, (2,) + x.shape), x[None]))
            e = np.exp(dp * np.log(np.where(x > 0.0, x, 1.0)) - dr * x)
        else:
            e = np.exp(dr * xi)
        ce, outer = c * e, e[..., -1]
        inner = ce.min(0).sum(-1)
        ends = outer[:2] * ce[:2].sum(-1)
        return np.where(inner >= 0.0, inner * outer[:2].min(0), inner * outer.max(0)), ends


def _rows(c, dr, dp=None) -> _Rows:
    if dp is None:
        return _Rows(np.stack((c, dr), 1), False)
    peak = np.where(dp > 0.0, dp, 0.0) / np.where(dr > 0.0, dr, math.inf)
    return _Rows(np.stack((c, dr, dp, peak), 1), True)


def decide_sums(sums: Dict[str, Tuple[float, float, List[Dict[Tuple[float, float], float]]]],
                cuts: Tuple[float, ...]) -> CellCheck:
    """Decide sigma * f >= -tol on the whole line for each named sum
    (sigma, tol, cells), where cells holds f = sum_k c_k (-xi)^{p_k} e^{r_k xi}
    as {(r_k, p_k): c_k} on each cell of the line split at the sorted cuts.

    Zero coefficients are dropped; a nonzero power needs a cell left of
    xi = 0.  On (-inf, cuts[0]] the leading term must have the strict sign,
    and left of a split point (_left_split) the others cannot undo it.  All
    other cells are bounded at once (_Rows.bound), a finite one whose bound
    misses -tol while neither end does also by min(f(lo), f(hi)) - w^2/8
    max(0, sup f'') for its width w (Suli & Mayers, An Introduction to
    Numerical Analysis, CUP 2003, Thm 6.2).  A finite cell still short is
    halved _HALVINGS times at once, unless an end breaks it; a cell reaching
    +inf is not, and its rates must not exceed 0.
    """
    lefts = (-math.inf,) + tuple(cuts)
    ends = lefts[1:] + (math.inf,)
    n_cells = len(lefts)
    names = list(sums)
    reasons: Dict[int, str] = {}
    keys, coefs, counts, signs, settled = [], [], [], [], []
    lo, hi = list(lefts * len(sums)), ends * len(sums)
    for k, (name, (sigma, _, cells)) in enumerate(sums.items()):
        for terms in cells:
            keys += terms
            coefs += terms.values()
            counts.append(len(terms))
        signs += [sigma] * n_cells
        if leading := {rp: x for rp, x in cells[0].items() if x}:
            c0, y = _left_split(leading, sigma, ends[0])
            if c0 < 0.0:
                sign = "negative" if sigma > 0.0 else "positive"
                reasons[k] = f"{name}: leading coefficient {sign} as xi -> -inf"
            else:  # (-inf, y] is bounded by 0, the sum's limit there
                settled.append(k * n_cells)
                lo[k * n_cells] = y
    # each row's terms, padded with zeros; its reference (r0, p0) goes into
    # the padding and zero terms, so that these contribute nothing
    counts = np.array(counts)
    at = np.repeat(np.arange(counts.size), counts)
    col = np.arange(at.size) - np.repeat(np.cumsum(counts) - counts, counts)
    c, r, p = np.zeros((3, counts.size, counts.max() + 1))
    c[at, col] = np.repeat(signs, counts) * coefs
    r[at, col], p[at, col] = np.fromiter(chain.from_iterable(keys), float).reshape(-1, 2).T
    lo, hi = np.array((lo, hi))
    pad, last = c == 0.0, hi == math.inf
    r0 = np.where(last, np.where(pad, -math.inf, r).max(1), np.where(pad, math.inf, r).min(1))
    r0[pad.all(1)] = 0.0
    r = np.where(pad, r0[:, None], r)
    dr = r - r0[:, None]
    dr[:, -1] = r0
    # the rows of -f'' (curvature) are built when a cell first needs them
    if not p.any():
        rows, curvature = _rows(c, dr), cache(lambda: _rows(-c * r * r, dr))
    else:
        lead = ~pad & (r == r0[:, None]) & ~last[:, None]
        p0 = np.nan_to_num(np.where(lead, p, -math.inf).max(1), neginf=0.0)
        p = np.where(pad, p0[:, None], p)
        if (p[hi >= 0.0] != 0.0).any():
            raise ValueError("a power of -xi on a cell reaching xi >= 0")
        dp = p - p0[:, None]
        dp[:, -1] = p0
        # -(c x^p e^{r xi})'' = -c (r^2 x^p - 2 r p x^{p - 1} + p (p - 1) x^{p - 2}) e^{r xi}
        rows, curvature = _rows(c, dr, dp), cache(lambda: _rows(
            np.concatenate([-c[:, :-1] * f[:, :-1] for f in (r * r, -2.0 * r * p, p * (p - 1.0))]
                           + [c[:, -1:]], 1),
            np.concatenate([dr[:, :-1]] * 3 + [dr[:, -1:]], 1),
            np.concatenate([dp[:, :-1] - j for j in range(3)] + [dp[:, -1:]], 1)))
    tol = np.array([t for _, t, _ in sums.values()])
    failed = np.array([k in reasons for k in range(len(sums))])

    # (row, bound, xi) of every decided cell, the settled ones first
    done = [(np.array(settled, int), np.zeros(len(settled)), np.full(len(settled), -math.inf))]
    row = np.flatnonzero(lo < hi)
    lo, hi = lo[row], hi[row]
    frac = np.arange(1, 1 << _HALVINGS) / (1 << _HALVINGS)
    for _ in range(MAX_BISECTIONS // _HALVINGS + 1):
        k_of = row // n_cells
        tol_of = tol[k_of]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            bound, (v_lo, v_hi) = rows.bound(row, lo, hi)
            # a NaN bound decides nothing
            short, xi = ~(bound >= -tol_of), np.where(v_hi < v_lo, hi, lo)
            if not short.any():
                done.append((row, bound, xi))
                break
            low = np.minimum(v_lo, v_hi)
            witness = low < -tol_of
            need = np.flatnonzero(short & ~witness & (hi - lo < math.inf))
            if need.size:
                width = hi[need] - lo[need]
                bend = np.maximum(0.0, -curvature().bound(row[need], lo[need], hi[need])[0])
                bound[need] = np.maximum(bound[need], low[need] - width * width / 8.0 * bend)
                short = ~(bound >= -tol_of)
            split = np.flatnonzero(short & ~witness & ~failed[k_of] & (row.size < MAX_CELLS))
            # the inner cut points of each cell to split; an infinite cell has none
            inner = lo[split, None] + (hi[split] - lo[split])[:, None] * frac
            ok = (inner[:, 0] > lo[split]) & (inner[:, -1] < hi[split])
        split, inner = split[ok], inner[ok]
        keep = np.ones(row.size, dtype=bool)
        keep[split] = False
        done.append((row[keep], bound[keep], xi[keep]))
        for j in np.flatnonzero(keep & short & ~failed[k_of]).tolist():
            k = int(k_of[j])
            if failed[k]:
                continue
            failed[k] = True
            if witness[j]:
                at, value = (hi[j], v_hi[j]) if v_hi[j] < v_lo[j] else (lo[j], v_lo[j])
                reasons[k] = f"{names[k]} = {signs[row[j]] * value:.3g} at xi = {at:.6g}"
            else:
                reasons[k] = f"{names[k]}: sign undecided on [{lo[j]:.6g}, {hi[j]:.6g}]"
        if not split.size:
            break
        row = np.repeat(row[split], frac.size + 1)
        lo, hi = (np.column_stack(cut).ravel() for cut in ((lo[split], inner), (inner, hi[split])))

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


def _residual_terms(w, other, diff, growth, coupling, s, root):
    """{(rate, power): coefficient} of diff w'' - s w' + w (growth - w -
    coupling other) for the (c, p, r) triples w and other: with x = -t and
    p in {0, 1}, the linear part of a term is c e^{r t} [(diff r^2 - s r +
    growth) x^p + p (s - 2 diff r) x^{p - 1}].  At the rate root, bitwise
    the component's own decay rate, both coefficients vanish analytically
    (the second at the double root of s = s*) and are left out."""
    acc = defaultdict(float)
    for c, p, r in w:
        if r != root:
            acc[r, p] += (diff * r * r - s * r + growth) * c
            if p:
                acc[r, p - 1] += p * (s - 2.0 * diff * r) * c
    for c1, p1, r1 in w:
        for c2, p2, r2 in w:
            acc[r1 + r2, p1 + p2] -= c1 * c2
        for c2, p2, r2 in other:
            acc[r1 + r2, p1 + p2] -= coupling * c1 * c2
    return acc


def _gap_terms(upper, lower):
    acc = defaultdict(float)
    for sign, terms in ((1.0, upper), (-1.0, lower)):
        for c, p, r in terms:
            acc[r, p] += sign * c
    return acc


def check_cells(env: EnvelopeSet, p: SystemParams, s: float) -> CellCheck:
    """The four residuals and the two ordering gaps u_ordering = u_upper -
    u_lower and v_ordering = v_upper - v_lower of an envelope set, decided
    by decide_sums on the cells between its join points.

    On a cell each residual is a sum of terms c (-xi)^p e^{r xi}: the
    products of the pieces' terms and the operator applied to each term
    (_residual_terms), like terms merged.  The residuals must clear
    RESIDUAL_TOL and the gaps ORDERING_TOL.
    """
    a, b, c, d = p.a, p.b, p.c, p.d
    rates = decay_rates(p, s)
    cuts = env.join_points
    uu, ul, vu, vl = ([prof.pieces[bisect_right(prof.join_points, x)].terms
                       for x in (-math.inf,) + cuts]
                      for prof in (env.u_upper, env.u_lower, env.v_upper, env.v_lower))
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
    return decide_sums(sums, cuts)


def _mode_knobs(mode: str) -> SelectionKnobs:
    if mode == "default":
        return SelectionKnobs()
    if mode == "nonmonotone-u":
        return SelectionKnobs(nonmonotone_u=True)
    if mode == "nonmonotone-v":
        return SelectionKnobs(nonmonotone_v=True)
    raise ValueError(f"unknown mode {mode!r}")


def select_params(p: SystemParams, s: float, knobs: SelectionKnobs
                  ) -> Tuple[float, EnvelopeParams]:
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
    """Build envelopes for (p, s) and verify all bracketing conditions: at
    each join, one jet of the piece on each side gives the jump and the two
    one-sided slopes of the corner; check_cells decides the signs.  Reasons
    name the jumps first, then the cells, then the corners."""
    adm = admissibility(p, s)
    if not adm.admissible:
        raise ValueError(adm.reason)
    require_strict_weak(p)
    env = select_and_build(p, s, mode, knobs)
    jumps, corners = [], []
    for name, prof in zip(_INEQUALITIES, (env.u_upper, env.u_lower, env.v_upper, env.v_lower)):
        for left, right in zip(prof.pieces, prof.pieces[1:]):
            x = left.hi
            (f_left, d_left), (f_right, d_right) = left.at(x, 1), right.at(x, 1)
            if (jump := abs(f_left - f_right)) > CONTINUITY_TOL:
                jumps.append(f"{name}: jump of {jump:.3g} at xi = {x:.6g}")
            ok = (d_left >= d_right - RESIDUAL_TOL if name.endswith("upper")
                  else d_left <= d_right + RESIDUAL_TOL)
            corners.append(CornerCheck(name, x, d_left, d_right, ok))
    cells = check_cells(env, p, s)
    margins = {name: cells.bounds[name] for name in _INEQUALITIES}
    tightest = {name: cells.tightest[name] for name in margins}
    gap = float(min(cells.bounds["u_ordering"].min(), cells.bounds["v_ordering"].min()))
    ordering_ok = not {"u_ordering", "v_ordering"} & set(cells.reasons)
    reasons = jumps + list(cells.reasons.values()) + [
        f"{cc.profile}: corner at xi = {cc.location:.6g} is not "
        + ("concave" if cc.profile.endswith("upper") else "convex") for cc in corners if not cc.ok]
    min_margins = {name: float(arr.max() if name.endswith("upper") else arr.min())
                   for name, arr in margins.items()}
    return Certificate(
        inequality_margins=margins,
        min_margins=min_margins,
        corner_checks=corners,
        ordering_ok=ordering_ok,
        ordering_gap=gap,
        grid=dict(zip(("left", "right"), grid_span(env)), cells=cells.cells),
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


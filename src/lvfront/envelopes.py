"""Explicit super/sub-solution envelopes for the competition wave system.

The four envelopes are piecewise-analytic.  Each piece is a sum of terms
c (-xi)^p e^{r xi} with p in {0, 1/2, 1}, held as (c, p, r) triples, and
one evaluator reads them all.  The upper pair is a decaying exponential
e^{lam xi} (at s = s*, -h xi e^{lam xi}) capped by a constant; the lower
pair is a positive bump coef e^{lam xi} - q e^{mu lam xi} (at s = s*, the
g-bump (-h xi - q sqrt(-xi)) e^{lam xi}) glued to a small constant.  The
free constants are selected so that the differential inequalities
verified in :mod:`lvfront.certify` hold with positive margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, NamedTuple, Optional, Tuple, Union

import numpy as np
from scipy.optimize import brentq

from .model import EQ_TOL, Regime, SystemParams, classify_regime, critical_speed, decay_rates

# envelope cases
SUPERCRITICAL = "Supercritical"
CRITICAL_AD_EQ1 = "CriticalAdEq1"
CRITICAL_AD_LT1 = "CriticalAdLt1"

#: smallest bump maximum considered representable; below this the join
#: point and the lower envelope drown in floating-point underflow
MIN_BUMP_MAX = 1e-250
#: multiplicative margin carried by every strict lower bound on q
Q_SAFETY = 1.1
#: places each delta at this fraction of its cap
DELTA_FRACTION = 0.5
#: places mu at 1 + THETA_MU (cap - 1), mid-way in its interval (1, cap)
THETA_MU = 0.5
#: mu placement in the overshoot modes, near the top of the interval where
#: the lower-envelope maximum is largest
THETA_MU_NONMONOTONE = 0.9
#: distances left of the g-bump zero that _critical_q_search checks in
#: addition to its uniform grid, largest first so that xi0 - offsets ascends
_LADDER_OFFSETS = np.geomspace(1e-9, 1.0, 500)[::-1]
_LADDER_OFFSETS.flags.writeable = False
#: uniform ladder points nearest the g-bump zero, checked before the rest
_LADDER_NEAR = 600


# ---------------------------------------------------------------------------
# piecewise profiles
# ---------------------------------------------------------------------------

def _terms_jet(terms, t, out, exp=np.exp, sqrt=np.sqrt):
    """Fills out[k], for k < len(out), with the k-th derivative of
    sum c (-t)^p e^{r t} over the (c, p, r) triples of terms.

    p is 0, 1/2 or 1, and a p != 0 term is only ever evaluated at t < 0.
    Adjacent terms that share a rate are summed in order into phi(t), the
    factor of one exponential e^{r t}, and each row sums these products in
    order; (-t)^{1/2} is taken once.  Row k is formed after row k - 1 from
    phi's derivatives up to k, so that few arrays are alive at once.  out
    is an array of rows at the array t, or a list of floats at the float t
    with exp=math.exp and sqrt=math.sqrt.  Row k does not depend on
    len(out).
    """
    mt = root = None
    rates = []  # (r, e^{r t}, the rate's (c, p), phi and its derivatives so far)
    for c, p, r in terms:
        if p and mt is None:
            mt = -t
        if p == 0.5 and root is None:
            root = sqrt(mt)
        if rates and rates[-1][0] == r:
            rates[-1][2].append((c, p))
        else:
            rates.append((r, exp(r * t) if r else 1.0, [(c, p)], []))
    for k in range(len(out)):
        row = None
        for r, e, cps, phi in rates:
            phi_k = None
            for c, p in cps:
                if k == 0:
                    part = c if p == 0 else c * mt if p == 1 else c * root
                elif p == 0 or (p == 1 and k == 2):
                    continue  # a zero derivative
                elif p == 1:
                    part = -c
                else:
                    part = -0.5 * c / root if k == 1 else -0.25 * c / (mt * root)
                phi_k = part if phi_k is None else phi_k + part
            phi.append(0.0 if phi_k is None else phi_k)
            if k == 0:
                f = phi[0] * e
            elif k == 1:
                f = (phi[1] + r * phi[0]) * e
            else:
                f = (phi[2] + 2.0 * r * phi[1] + r * r * phi[0]) * e
            row = f if row is None else row + f
        out[k] = row
        # drop this row's arrays before the next is formed: a higher peak
        # lets the heap be trimmed after a certificate and faulted in again
        row = f = part = None


def _check_order(order: int) -> None:
    if order not in (0, 1, 2):
        raise ValueError("derivative order must be 0, 1 or 2")


@dataclass(frozen=True, slots=True)
class Piece:
    """sum c (-t)^p e^{r t} over the (c, p, r) triples of terms, on [lo, hi).

    Terms that share a rate are given next to each other, so that they
    share one exponential.
    """

    lo: float
    hi: float
    terms: Tuple[Tuple[float, float, float], ...]

    def __post_init__(self):
        if any(p not in (0, 0.5, 1) for _, p, _ in self.terms):
            raise ValueError("term power must be 0, 1/2 or 1")

    def at(self, t: float, order: int = 0) -> List[float]:
        """Value and derivatives up to order at the float t, from math.exp
        and math.sqrt."""
        out = [0.0] * (order + 1)
        _terms_jet(self.terms, t, out, math.exp, math.sqrt)
        return out


@dataclass(frozen=True)
class PiecewiseProfile:
    """Piecewise-analytic function tiling the real line.

    Pieces are evaluated in the unshifted frame; `shift` translates the
    whole profile to the right.  Value and the first two derivatives are
    available in closed form away from the join points.
    """

    pieces: Tuple[Piece, ...]
    shift: float = 0.0

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("empty profile")
        if self.pieces[0].lo != -math.inf or self.pieces[-1].hi != math.inf:
            raise ValueError("pieces must tile the real line")
        for left, right in zip(self.pieces, self.pieces[1:]):
            if left.hi != right.lo:
                raise ValueError("pieces must tile the real line without gaps")

    @property
    def join_points(self) -> Tuple[float, ...]:
        return tuple(pc.hi + self.shift for pc in self.pieces[:-1])

    def __call__(self, x, deriv: int = 0):
        """The deriv-th derivative at x, in any order and shape: jet at the
        stably sorted points, put back in place."""
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        idx = np.argsort(flat, kind="stable")
        out = np.empty(flat.size)
        out[idx] = self.jet(flat[idx], deriv)[deriv]
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    def jet(self, x, order: int = 0, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Value and derivatives up to order at the sorted 1-D array x.

        Returns shape (order + 1, x.size), filled into out if given.  Each
        piece covers the contiguous slice of x that searchsorted finds on
        the piece boundaries, so no masks are built.
        """
        _check_order(order)
        # envelopes are built unshifted, and x - 0.0 == x bit for bit
        t = np.asarray(x, dtype=float)
        # NaN sorts last, so a sorted x holds one only if it ends with one
        if t.size and math.isnan(t[-1]):
            raise ValueError("abscissa is NaN")
        if self.shift != 0.0:
            t = t - self.shift
        if out is None:
            out = np.empty((order + 1, t.size))
        cuts = np.searchsorted(t, [pc.hi for pc in self.pieces[:-1]]).tolist()
        for pc, i, j in zip(self.pieces, [0] + cuts, cuts + [t.size]):
            if j > i:
                _terms_jet(pc.terms, t[i:j], out[:, i:j])
        return out

    def one_sided(self, x_join: float) -> Tuple[float, float]:
        """Closed-form one-sided first derivatives at an interior join."""
        t = x_join - self.shift
        for left, right in zip(self.pieces, self.pieces[1:]):
            if abs(left.hi - t) <= 1e-12:
                return left.at(t, 1)[1], right.at(t, 1)[1]
        raise ValueError(f"{x_join} is not a join point of this profile")

    def shifted(self, delta: float) -> "PiecewiseProfile":
        return replace(self, shift=self.shift + delta)

    def continuity_defects(self) -> Tuple[float, ...]:
        return tuple(abs(left.at(left.hi)[0] - right.at(left.hi)[0])
                     for left, right in zip(self.pieces, self.pieces[1:]))


# ---------------------------------------------------------------------------
# bump profiles and their extrema
# ---------------------------------------------------------------------------

def bump_extrema(coef: float, lam: float, mu: float, q: float) -> Tuple[float, float, float]:
    """Zero, maximum point and maximum of f(xi) = coef e^{lam xi} - q e^{mu lam xi}.

    Closed forms: xi0 = -log(q/coef)/((mu-1) lam), xiM = -log(q mu/coef)/((mu-1) lam),
    fmax = coef (1 - 1/mu) (q mu / coef)^{-1/(mu-1)}.
    """
    if q <= coef:
        raise ValueError("no interior zero")
    if mu <= 1.0 or lam <= 0.0 or coef <= 0.0:
        raise ValueError("bump requires coef > 0, lam > 0, mu > 1")
    xi0 = -math.log(q / coef) / ((mu - 1.0) * lam)
    xiM = -math.log(q * mu / coef) / ((mu - 1.0) * lam)
    return xi0, xiM, exp_or_zero(bump_log_max(coef, lam, mu, q))


def bump_log_max(coef: float, lam: float, mu: float, q: float) -> float:
    """log of the bump maximum, safe against underflow for mu near 1."""
    if q <= coef:
        raise ValueError("no interior zero")
    return math.log(coef * (1.0 - 1.0 / mu)) - math.log(q * mu / coef) / (mu - 1.0)


def exp_or_zero(log_f: float) -> float:
    """exp(log_f), flushed to 0.0 at log_f <= -700, where it nears underflow."""
    return math.exp(log_f) if log_f > -700.0 else 0.0


def gbump_extrema(h: float, q: float, lam: float) -> Tuple[float, float, float]:
    """Zero, maximum point and maximum of g(xi) = (-h xi - q sqrt(-xi)) e^{lam xi}.

    g is positive exactly on (-inf, xi0_hat) with xi0_hat = -(q/h)^2.  With
    t = sqrt(-xi), g = (h t^2 - q t) e^{-lam t^2} and g'(t) = -e^{-lam t^2} P(t)
    for the cubic P(t) = 2 lam h t^3 - 2 lam q t^2 - 2 h t + q.  P(q/h) = -q
    and P is convex on t >= q/h, so the maximum point is its one root there.
    Newton's method from t0 = (lam q + sqrt(lam^2 q^2 + 4 lam h^2)) / (2 lam h),
    where P(t0) = q > 0, decreases monotonically to that root; it stops at the
    first step that no longer decreases t.  It runs on u = t - q/h, in which
    P = 2 h u (lam t^2 - 1) - q, P' = 2 lam t (q + 3 h u) - 2 h and
    g = h t u e^{-lam t^2} have no cancellation.
    """
    if min(h, q, lam) <= 0.0:
        raise ValueError("g-bump requires h, q, lam > 0")
    r = q / h
    xi0_hat = -(r ** 2)
    u = 2.0 * h / (lam * q + math.hypot(lam * q, 2.0 * h * math.sqrt(lam)))  # t0 - q/h
    t = r + u
    for _ in range(100):
        P = 2.0 * h * u * (lam * t * t - 1.0) - q
        dP = 2.0 * lam * t * (q + 3.0 * h * u) - 2.0 * h
        u_next = u - P / dP
        if not u_next < u:
            break
        u, t = u_next, r + u_next
    xiM_hat = -t * t
    gmax = h * t * u * math.exp(-lam * t * t)
    return xi0_hat, xiM_hat, gmax


def join_point(f: Callable[[float], float], delta: float,
               bracket: Tuple[float, float]) -> float:
    """Point in (xiM, xi0) where the bump equals delta on its decreasing branch.

    Root-finds f - delta on the bracket; the returned xi satisfies
    |f(xi) - delta| <= 1e-12 with f decreasing through it.
    """
    xiM, xi0 = bracket
    if delta <= 0.0 or delta >= f(xiM):
        raise ValueError("delta above envelope maximum")
    try:
        xi = brentq(lambda x: f(x) - delta, xiM, xi0, xtol=1e-14, rtol=8.9e-16)
    except ValueError as exc:
        raise ValueError("no continuity point in bracket") from exc
    if abs(f(xi) - delta) > 1e-12:
        raise ValueError("no continuity point in bracket")
    return float(xi)


# ---------------------------------------------------------------------------
# parameter selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectionKnobs:
    """Tunable placement of the free envelope constants.

    The nonmonotone flags switch the corresponding q to the overshoot value
    of lower_bump and move mu from THETA_MU to THETA_MU_NONMONOTONE.
    mu1/mu2/q1/q2 pin a constant outright.
    """

    nonmonotone_u: bool = False
    nonmonotone_v: bool = False
    mu1: Optional[float] = None
    mu2: Optional[float] = None
    q1: Optional[float] = None
    q2: Optional[float] = None


@dataclass(frozen=True)
class SupercriticalParams:
    """Envelope constants for s > s*: each lower envelope is the bump
    coef e^{lam xi} - q e^{mu lam xi} capped at delta."""

    case = SUPERCRITICAL
    mu1: float
    mu2: float
    q1: float
    q2: float
    delta1: float
    delta2: float


@dataclass(frozen=True)
class CriticalParams:
    """Envelope constants at s = s*.

    The u lower envelope is the g-bump (h1, qhat1) capped at deltahat1.  The
    v lower envelope, capped at deltahat2, is the g-bump (h2, qhat2) when
    a*d = 1 and the bump (muhat2, Qhat2) when a*d < 1; the other pair is None.
    """

    h1: float
    qhat1: float
    deltahat1: float
    deltahat2: float
    h2: Optional[float] = None
    qhat2: Optional[float] = None
    muhat2: Optional[float] = None
    Qhat2: Optional[float] = None

    @property
    def case(self) -> str:
        return CRITICAL_AD_EQ1 if self.qhat2 is not None else CRITICAL_AD_LT1


@dataclass(frozen=True)
class EnvelopeSet:
    u_upper: PiecewiseProfile
    u_lower: PiecewiseProfile
    v_upper: PiecewiseProfile
    v_lower: PiecewiseProfile
    params: Union[SupercriticalParams, CriticalParams]
    speed: float
    system: SystemParams

    @property
    def case(self) -> str:
        return self.params.case

    def shifted(self, delta: float) -> "EnvelopeSet":
        return replace(
            self,
            u_upper=self.u_upper.shifted(delta),
            u_lower=self.u_lower.shifted(delta),
            v_upper=self.v_upper.shifted(delta),
            v_lower=self.v_lower.shifted(delta),
        )

    def jet(self, x, order: int = 0) -> np.ndarray:
        """Jets of u_upper, u_lower, v_upper and v_lower at the sorted x, in
        one array of shape (4, order + 1, x.size)."""
        x = np.asarray(x, dtype=float)
        out = np.empty((4, order + 1, x.size))
        for prof, o in zip((self.u_upper, self.u_lower, self.v_upper, self.v_lower), out):
            prof.jet(x, order, o)
        return out

    @property
    def join_points(self) -> Tuple[float, ...]:
        pts = []
        for prof in (self.u_upper, self.u_lower, self.v_upper, self.v_lower):
            pts.extend(prof.join_points)
        return tuple(sorted(set(pts)))


class BumpConstants(NamedTuple):
    """Constants of one lower bump coef e^{lam xi} - q e^{mu lam xi}."""

    coef: float
    lam: float
    cap: float
    mu: float
    floor: float
    q: float


def _critical_slope(coef: float, lam: float) -> float:
    """Slope h making the capped piece -h xi e^{lam xi} meet coef continuously."""
    return coef * lam / (lam + 1.0) * math.exp(lam + 1.0)


def lower_bump(p: SystemParams, s: float, component: str,
               mu: Optional[float], q: Optional[float],
               overshoot: bool) -> BumpConstants:
    """The sequential choice of mu and q for one lower bump.

    mu = 1 + THETA_MU (cap - 1) unless pinned, with THETA_MU_NONMONOTONE in
    place of THETA_MU in overshoot mode; q = Q_SAFETY * floor unless pinned,
    and in overshoot mode at least 2/denom.  At s = s* (a*d < 1) only the v
    bump has this form, and the critical u upper envelope changes its cap
    and floor.  Nothing is validated: callers that need admissible
    constants check mu against (1, cap) and q against floor.
    """
    a, b, c, d = p.a, p.b, p.c, p.d
    r = decay_rates(p, s)
    if component == "u":
        coef, lam, diff = 1.0, r.lambda1, 1.0
        cap = min(r.lambda3 / lam, (lam + r.lambda2) / lam, 2.0)
        numer = 1.0 + a * c
    else:
        coef, lam, diff = a, r.lambda2, d
        if s > critical_speed(p):
            cap = min(r.lambda4 / lam, (r.lambda1 + lam) / lam, 2.0)
            numer = a * a + a * b
        else:
            lh1 = s / 2.0
            cap = min(r.lambda4 / lam, 1.0 + lh1 / (2.0 * lam), 2.0)
            numer = a * a + 2.0 * a * b * _critical_slope(1.0, lh1) * math.exp(-1.0) / lh1
    if mu is None:
        mu = 1.0 + (THETA_MU_NONMONOTONE if overshoot else THETA_MU) * (cap - 1.0)
    denom = -diff * (mu * lam) ** 2 + s * mu * lam - coef
    # q must also exceed coef so the bump has a zero on the negative
    # half-line; a denominator <= 0 (mu outside its interval) bounds nothing
    floor = max(1.0, coef, numer / denom) if denom > 0.0 else max(1.0, coef)
    if q is None:
        q = Q_SAFETY * floor
        if overshoot and denom > 0.0:
            q = max(2.0 / denom, q)
    return BumpConstants(coef, lam, cap, mu, floor, q)


class InadmissibleBump(ValueError):
    """A bump constant that the selection refuses: mu or q out of bounds."""


def check_bumps(*bumps: BumpConstants) -> None:
    """Raise InadmissibleBump unless 1 < mu < cap and q > floor for every bump."""
    if not all(1.0 < b.mu < b.cap for b in bumps):
        raise InadmissibleBump("mu outside admissible interval")
    if not all(b.q > b.floor for b in bumps):
        raise InadmissibleBump("q below its selection floor")


def _deltas(p: SystemParams, max1: float, max2: float) -> Tuple[float, float]:
    """delta1 and delta2, each at DELTA_FRACTION of its cap min(coexistence
    gap, lower-bump maximum)."""
    return (DELTA_FRACTION * min(1.0 - p.a * p.c, max1),
            DELTA_FRACTION * min(p.a - p.b, max2))


def select_supercritical(p: SystemParams, s: float,
                         knobs: SelectionKnobs = SelectionKnobs()) -> SupercriticalParams:
    """Pick mu, q and delta for the supercritical envelopes (s > s*).

    mu and q come from lower_bump and are checked against their
    admissible intervals; delta sits at DELTA_FRACTION of its cap.
    """
    if classify_regime(p) is not Regime.STRICT_WEAK:
        raise ValueError("unsupported regime")
    if s <= critical_speed(p):
        raise ValueError("subcritical speed")
    u = lower_bump(p, s, "u", knobs.mu1, knobs.q1, knobs.nonmonotone_u)
    v = lower_bump(p, s, "v", knobs.mu2, knobs.q2, knobs.nonmonotone_v)
    check_bumps(u, v)
    delta1, delta2 = _deltas(p, _bump(u.coef, u.lam, u.mu, u.q).fmax,
                             _bump(v.coef, v.lam, v.mu, v.q).fmax)
    return SupercriticalParams(mu1=u.mu, mu2=v.mu, q1=u.q, q2=v.q,
                               delta1=delta1, delta2=delta2)


def _critical_q_search(lam: float, h: float, dcoef: float, coupling: float,
                       other: PiecewiseProfile) -> Tuple[float, float]:
    """Smallest q (on a deterministic geometric ladder) whose sub-solution
    residual is nonnegative on a dense grid left of the g-bump zero, and
    the maximum of its g-bump.

    residual(xi) = dcoef e^{lam xi} (q/4)(-xi)^{-3/2} - g^2 - coupling*g*other
    where g is the (h, q, lam) bump and other is the upper envelope of the
    other species.  The ladder starts at Q_SAFETY *
    max(sqrt(h (1/lam + 1)), h sqrt(1 + 1/lam)); it stops where gmax underflows.
    Each rung checks the points nearest the zero first, where failing rungs
    fail, and stops at the first chunk with a negative residual; the minimum
    over all of them does not depend on that order.
    """
    q = Q_SAFETY * max(math.sqrt(h * (1.0 / lam + 1.0)), h * math.sqrt(1.0 + 1.0 / lam))
    for _ in range(80):
        xi0 = -((q / h) ** 2)   # < -Q_SAFETY**2, as q/h >= Q_SAFETY sqrt(1 + 1/lam) and q grows
        _, _, gmax = gbump_extrema(h, q, lam)
        if gmax < MIN_BUMP_MAX:
            break
        uniform = np.linspace(xi0 - 200.0 / lam, xi0 - 1e-9, 6000)
        for xs in (xi0 - _LADDER_OFFSETS, uniform[-_LADDER_NEAR:], uniform[:-_LADDER_NEAR]):
            mxs = -xs
            e = np.exp(lam * xs)
            g = (h * mxs - q * np.sqrt(mxs)) * e
            res = dcoef * e * (q / 4.0) * mxs ** -1.5 - g * g - coupling * g * other.jet(xs)[0]
            if not res.min() >= -1e-12:  # a NaN residual fails the rung too
                break
        else:
            return q, gmax
        q *= 1.25
    raise ValueError("no admissible critical q found")


def select_critical(p: SystemParams, knobs: SelectionKnobs = SelectionKnobs()) -> CriticalParams:
    """Pick the envelope constants at the critical speed s = s* (a*d <= 1).

    The slope constants h follow the closed forms that make the capped
    piece continuous.  The analytic lower bounds on q-hat scale like
    4 h^2 (7/(2e lam))^{7/2}; taken literally they push the bump support so
    far left that its maximum underflows double precision, so q-hat is
    instead chosen as the smallest ladder value whose differential-
    inequality residuals verify numerically (see _critical_q_search).
    """
    if classify_regime(p) is not Regime.STRICT_WEAK:
        raise ValueError("unsupported regime")
    a, c, d = p.a, p.c, p.d
    if a * d > 1.0 + EQ_TOL:
        raise ValueError("apply species swap")
    s = critical_speed(p)
    lh1 = s / 2.0
    h1 = _critical_slope(1.0, lh1)

    if abs(a * d - 1.0) <= EQ_TOL:
        lh2 = s / (2.0 * d)
        h2 = _critical_slope(a, lh2)
        qhat1, gmax1 = _critical_q_search(lh1, h1, 1.0, c, _capped_linexp(h2, lh2, a))
        qhat2, gmax2 = _critical_q_search(lh2, h2, d, p.b, _capped_linexp(h1, lh1, 1.0))
        v_shape = dict(h2=h2, qhat2=qhat2)
    else:
        # a*d < 1: the v-side keeps its supercritical shape with rates from
        # the (now non-degenerate) second quadratic
        v = lower_bump(p, s, "v", knobs.mu2, knobs.q2, knobs.nonmonotone_v)
        check_bumps(v)
        qhat1, gmax1 = _critical_q_search(lh1, h1, 1.0, c, _capped_exp(a, v.lam))
        gmax2 = _bump(a, v.lam, v.mu, v.q).fmax
        v_shape = dict(muhat2=v.mu, Qhat2=v.q)
    deltahat1, deltahat2 = _deltas(p, gmax1, gmax2)
    return CriticalParams(h1=h1, qhat1=qhat1, deltahat1=deltahat1, deltahat2=deltahat2,
                          **v_shape)


# ---------------------------------------------------------------------------
# envelope assembly
# ---------------------------------------------------------------------------

def _capped(terms, join, cap):
    """The terms left of join and the constant cap from join on."""
    return PiecewiseProfile((Piece(-math.inf, join, terms),
                             Piece(join, math.inf, ((cap, 0, 0.0),))))


def _capped_exp(coef, lam):
    return _capped(((coef, 0, lam),), 0.0, coef)


def _capped_linexp(h, lam, cap):
    return _capped(((h, 1, lam),), -1.0 / lam - 1.0, cap)


class LowerBump(NamedTuple):
    """One lower bump before its cap: its terms, the bracket (maximum point,
    zero) of its decreasing branch, its maximum and that maximum's log."""

    terms: Tuple[Tuple[float, float, float], ...]
    bracket: Tuple[float, float]
    fmax: float
    log_fmax: float


def _bump(coef, lam, mu, q) -> LowerBump:
    """coef e^{lam xi} - q e^{mu lam xi}, with maximum exp_or_zero(bump_log_max)."""
    xi0, xiM, _ = bump_extrema(coef, lam, mu, q)
    log_fmax = bump_log_max(coef, lam, mu, q)
    return LowerBump(((coef, 0, lam), (-q, 0, mu * lam)), (xiM, xi0),
                     exp_or_zero(log_fmax), log_fmax)


def _gbump(h, q, lam) -> LowerBump:
    """(-h xi - q sqrt(-xi)) e^{lam xi}; its maximum comes from gbump_extrema."""
    xi0, xiM, gmax = gbump_extrema(h, q, lam)
    return LowerBump(((h, 1, lam), (-q, 0.5, lam)), (xiM, xi0),
                     gmax, math.log(gmax) if gmax > 0.0 else -math.inf)


def lower_bumps(p: SystemParams, s: float,
                ep: Union[SupercriticalParams, CriticalParams]) -> Tuple[LowerBump, LowerBump]:
    """The u and v lower bumps of ep at the envelope speed s, before their
    caps: the exponential bump above s*, the g-bump at s*, and at s* with
    a*d < 1 the exponential bump for v."""
    if isinstance(ep, SupercriticalParams):
        r = decay_rates(p, s)
        return _bump(1.0, r.lambda1, ep.mu1, ep.q1), _bump(p.a, r.lambda2, ep.mu2, ep.q2)
    u = _gbump(ep.h1, ep.qhat1, s / 2.0)
    if ep.case == CRITICAL_AD_EQ1:
        return u, _gbump(ep.h2, ep.qhat2, s / (2.0 * p.d))
    return u, _bump(p.a, decay_rates(p, s).lambda2, ep.muhat2, ep.Qhat2)


def _capped_lower(bump: LowerBump, delta: float) -> PiecewiseProfile:
    """A lower bump capped at delta from where its decreasing branch meets
    delta."""
    piece = Piece(-math.inf, math.inf, bump.terms)
    return _capped(bump.terms, join_point(lambda x: piece.at(x)[0], delta, bump.bracket), delta)


def build_envelopes(p: SystemParams, s: float,
                    ep: Union[SupercriticalParams, CriticalParams]) -> EnvelopeSet:
    """Assemble the four piecewise envelopes for the case of ep.

    The lower envelopes are the bumps of lower_bumps capped at their
    deltas, from join points located by join_point; the continuity of
    every profile is verified to 1e-10.
    """
    r = decay_rates(p, s)
    supercritical = isinstance(ep, SupercriticalParams)
    u_up = _capped_exp(1.0, r.lambda1) if supercritical else _capped_linexp(ep.h1, s / 2.0, 1.0)
    v_up = (_capped_linexp(ep.h2, s / (2.0 * p.d), p.a) if ep.case == CRITICAL_AD_EQ1
            else _capped_exp(p.a, r.lambda2))
    deltas = (ep.delta1, ep.delta2) if supercritical else (ep.deltahat1, ep.deltahat2)
    u_lo, v_lo = (_capped_lower(bump, delta)
                  for bump, delta in zip(lower_bumps(p, s, ep), deltas))

    for prof in (u_up, u_lo, v_up, v_lo):
        if max(prof.continuity_defects()) > 1e-10:
            raise ValueError("no continuity point in bracket")
    return EnvelopeSet(u_upper=u_up, u_lower=u_lo, v_upper=v_up, v_lower=v_lo,
                       params=ep, speed=s, system=p)


def min_decay_rate(env: EnvelopeSet) -> float:
    """Slower of the two decay rates backing an envelope set."""
    r = decay_rates(env.system, env.speed)
    return min(r.lambda1, r.lambda2)

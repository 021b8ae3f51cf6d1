"""Explicit super/sub-solution envelopes for the competition wave system.

The four envelopes are piecewise-analytic: a decaying exponential (or the
critical-speed variant -h*xi*exp(lam*xi)) capped by a constant for the
upper pair, and a positive "bump" glued to a small constant for the lower
pair.  The free constants are selected so that the differential
inequalities verified in :mod:`lvfront.certify` hold with positive margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

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

# Each piece kind has one jet evaluator: it fills out[k] (out has shape
# (order + 1, t.size)) with the k-th derivative at t for k = 0..order, all
# from one set of exponentials.  Row k does not depend on the order asked.

def _jet_constant(t, pr, out):
    out[0] = pr["c0"]
    out[1:] = 0.0


def _jet_exp(t, pr, out):
    A, lam = pr["A"], pr["lam"]
    e = np.exp(lam * t)
    for k in range(len(out)):
        out[k] = A * lam ** k * e


def _jet_bump(t, pr, out):
    A, lam, mu, q = pr["A"], pr["lam"], pr["mu"], pr["q"]
    e = np.exp(lam * t)
    em = np.exp(mu * lam * t)
    for k in range(len(out)):
        out[k] = A * lam ** k * e - q * (mu * lam) ** k * em


def _jet_linexp(t, pr, out):
    h, lam = pr["h"], pr["lam"]
    e = np.exp(lam * t)
    out[0] = -h * t * e
    if len(out) > 1:
        he = -h * e
        out[1] = he * (1.0 + lam * t)
    if len(out) > 2:
        out[2] = he * (2.0 * lam + lam * lam * t)


def _jet_rootexp(t, pr, out):
    # (-h t - q sqrt(-t)) e^{lam t}, only ever evaluated for t < 0
    h, lam, q = pr["h"], pr["lam"], pr["q"]
    mt = np.maximum(-t, 1e-300)
    root = np.sqrt(mt)
    phi = h * mt - q * root
    e = np.exp(lam * t)
    out[0] = phi * e
    if len(out) > 1:
        dphi = -h + 0.5 * q / root
        out[1] = (dphi + lam * phi) * e
    if len(out) > 2:
        d2phi = 0.25 * q * mt ** -1.5
        out[2] = (d2phi + 2.0 * lam * dphi + lam * lam * phi) * e


_PIECE_JET = {
    "constant": _jet_constant,
    "exp": _jet_exp,
    "bump": _jet_bump,
    "linexp": _jet_linexp,
    "rootexp": _jet_rootexp,
}


def _check_order(order: int) -> None:
    if order not in (0, 1, 2):
        raise ValueError("derivative order must be 0, 1 or 2")


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    kind: str
    params: Dict[str, float]


def _piece_jet(pc: Piece, t: np.ndarray, order: int) -> np.ndarray:
    out = np.empty((order + 1, t.size))
    _PIECE_JET[pc.kind](t, pc.params, out)
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
        """The deriv-th derivative at x, in any order and shape."""
        _check_order(deriv)
        t = np.asarray(x, dtype=float) - self.shift
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if np.isnan(t).any():
            raise ValueError("abscissa is NaN")
        out = np.empty_like(t)
        for i, pc in enumerate(self.pieces):
            if i == len(self.pieces) - 1:
                mask = t >= pc.lo
            else:
                mask = (t >= pc.lo) & (t < pc.hi)
            if mask.any():
                out[mask] = _piece_jet(pc, t[mask], deriv)[deriv]
        return float(out[0]) if scalar else out

    def jet(self, x, order: int = 0, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Value and derivatives up to order at the sorted 1-D array x.

        Returns shape (order + 1, x.size), filled into out if given; row k
        equals self(x, k) bit for bit.  Each piece covers the contiguous
        slice of x that searchsorted finds on the piece boundaries, so no
        masks are built.
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
                _PIECE_JET[pc.kind](t[i:j], pc.params, out[:, i:j])
        return out

    def one_sided(self, x_join: float) -> Tuple[float, float]:
        """Closed-form one-sided first derivatives at an interior join."""
        t = np.array([x_join - self.shift])
        for left, right in zip(self.pieces, self.pieces[1:]):
            if abs(left.hi - t[0]) <= 1e-12:
                return float(_piece_jet(left, t, 1)[1, 0]), float(_piece_jet(right, t, 1)[1, 0])
        raise ValueError(f"{x_join} is not a join point of this profile")

    def shifted(self, delta: float) -> "PiecewiseProfile":
        return replace(self, shift=self.shift + delta)

    def continuity_defects(self) -> Tuple[float, ...]:
        out = []
        for left, right in zip(self.pieces, self.pieces[1:]):
            t = np.array([left.hi])
            out.append(abs(float(_piece_jet(left, t, 0)[0, 0])
                           - float(_piece_jet(right, t, 0)[0, 0])))
        return tuple(out)


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
    log_fmax = bump_log_max(coef, lam, mu, q)
    fmax = math.exp(log_fmax) if log_fmax > -700.0 else 0.0
    return xi0, xiM, fmax


def bump_log_max(coef: float, lam: float, mu: float, q: float) -> float:
    """log of the bump maximum, safe against underflow for mu near 1."""
    if q <= coef:
        raise ValueError("no interior zero")
    return math.log(coef * (1.0 - 1.0 / mu)) - math.log(q * mu / coef) / (mu - 1.0)


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
    margins: Dict[str, float] = field(default_factory=dict)


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
    margins: Dict[str, float] = field(default_factory=dict)

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
    denom: float
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
    return BumpConstants(coef, lam, cap, mu, denom, floor, q)


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
    a, b, c = p.a, p.b, p.c
    u = lower_bump(p, s, "u", knobs.mu1, knobs.q1, knobs.nonmonotone_u)
    v = lower_bump(p, s, "v", knobs.mu2, knobs.q2, knobs.nonmonotone_v)
    if not 1.0 < u.mu < u.cap or not 1.0 < v.mu < v.cap:
        raise ValueError("mu outside admissible interval")
    if u.q <= u.floor or v.q <= v.floor:
        raise ValueError("q below its selection floor")

    _, _, fmax1 = bump_extrema(1.0, u.lam, u.mu, u.q)
    _, _, fmax2 = bump_extrema(a, v.lam, v.mu, v.q)
    delta1 = DELTA_FRACTION * min(1.0 - a * c, fmax1)
    delta2 = DELTA_FRACTION * min(a - b, fmax2)

    margins = {
        "mu1_cap": u.cap - u.mu,
        "mu2_cap": v.cap - v.mu,
        "q1_floor": u.q - u.floor,
        "q2_floor": v.q - v.floor,
        "delta1_cap": min(1.0 - a * c, fmax1) - delta1,
        "delta2_cap": min(a - b, fmax2) - delta2,
    }
    return SupercriticalParams(mu1=u.mu, mu2=v.mu, q1=u.q, q2=v.q,
                               delta1=delta1, delta2=delta2, margins=margins)


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
    a, b, c, d = p.a, p.b, p.c, p.d
    if a * d > 1.0 + EQ_TOL:
        raise ValueError("apply species swap")
    s = critical_speed(p)
    lh1 = s / 2.0
    h1 = _critical_slope(1.0, lh1)

    if abs(a * d - 1.0) <= EQ_TOL:
        lh2 = s / (2.0 * d)
        h2 = _critical_slope(a, lh2)
        qhat1, gmax1 = _critical_q_search(lh1, h1, 1.0, c, _capped_linexp(h2, lh2, a))
        qhat2, gmax2 = _critical_q_search(lh2, h2, d, b, _capped_linexp(h1, lh1, 1.0))
        deltahat1 = DELTA_FRACTION * min(1.0 - a * c, gmax1)
        deltahat2 = DELTA_FRACTION * min(a - b, gmax2)
        margins = {"gmax1": gmax1, "gmax2": gmax2}
        return CriticalParams(h1=h1, qhat1=qhat1, deltahat1=deltahat1,
                              deltahat2=deltahat2, h2=h2, qhat2=qhat2,
                              margins=margins)

    # a*d < 1: the v-side keeps its supercritical shape with rates from
    # the (now non-degenerate) second quadratic
    v = lower_bump(p, s, "v", knobs.mu2, knobs.q2, knobs.nonmonotone_v)
    qhat1, gmax1 = _critical_q_search(lh1, h1, 1.0, c, _capped_exp(a, v.lam))
    deltahat1 = DELTA_FRACTION * min(1.0 - a * c, gmax1)

    if not 1.0 < v.mu < v.cap:
        raise ValueError("mu outside admissible interval")
    _, _, fmax2 = bump_extrema(a, v.lam, v.mu, v.q)
    deltahat2 = DELTA_FRACTION * min(a - b, fmax2)
    margins = {"gmax1": gmax1, "muhat2_cap": v.cap - v.mu, "Qhat2_floor": v.q - v.floor}
    return CriticalParams(h1=h1, qhat1=qhat1, deltahat1=deltahat1,
                          deltahat2=deltahat2, muhat2=v.mu, Qhat2=v.q,
                          margins=margins)


# ---------------------------------------------------------------------------
# envelope assembly
# ---------------------------------------------------------------------------

def _bump_profile(coef, lam, mu, q, delta):
    xi0, xiM, fmax = bump_extrema(coef, lam, mu, q)
    pr = {"A": coef, "lam": lam, "mu": mu, "q": q}

    def f(x):
        return coef * math.exp(lam * x) - q * math.exp(mu * lam * x)

    xi = join_point(f, delta, (xiM, xi0))
    return PiecewiseProfile((
        Piece(-math.inf, xi, "bump", pr),
        Piece(xi, math.inf, "constant", {"c0": delta}),
    ))


def _gbump_profile(h, q, lam, delta):
    xi0, xiM, gmax = gbump_extrema(h, q, lam)

    def g(x):
        return (h * (-x) - q * math.sqrt(-x)) * math.exp(lam * x)

    xi = join_point(g, delta, (xiM, xi0))
    return PiecewiseProfile((
        Piece(-math.inf, xi, "rootexp", {"h": h, "q": q, "lam": lam}),
        Piece(xi, math.inf, "constant", {"c0": delta}),
    ))


def _capped_exp(coef, lam):
    return PiecewiseProfile((
        Piece(-math.inf, 0.0, "exp", {"A": coef, "lam": lam}),
        Piece(0.0, math.inf, "constant", {"c0": coef}),
    ))


def _capped_linexp(h, lam, cap):
    knee = -1.0 / lam - 1.0
    return PiecewiseProfile((
        Piece(-math.inf, knee, "linexp", {"h": h, "lam": lam}),
        Piece(knee, math.inf, "constant", {"c0": cap}),
    ))


def build_envelopes(p: SystemParams, s: float,
                    ep: Union[SupercriticalParams, CriticalParams]) -> EnvelopeSet:
    """Assemble the four piecewise envelopes for the case of ep.

    Join points of the lower envelopes are located by join_point; the
    continuity of every profile is verified to 1e-10.
    """
    r = decay_rates(p, s)
    a = p.a
    if isinstance(ep, SupercriticalParams):
        u_up = _capped_exp(1.0, r.lambda1)
        u_lo = _bump_profile(1.0, r.lambda1, ep.mu1, ep.q1, ep.delta1)
        v_up = _capped_exp(a, r.lambda2)
        v_lo = _bump_profile(a, r.lambda2, ep.mu2, ep.q2, ep.delta2)
    else:
        lh1 = s / 2.0
        u_up = _capped_linexp(ep.h1, lh1, 1.0)
        u_lo = _gbump_profile(ep.h1, ep.qhat1, lh1, ep.deltahat1)
        if ep.case == CRITICAL_AD_EQ1:
            lh2 = s / (2.0 * p.d)
            v_up = _capped_linexp(ep.h2, lh2, a)
            v_lo = _gbump_profile(ep.h2, ep.qhat2, lh2, ep.deltahat2)
        else:
            v_up = _capped_exp(a, r.lambda2)
            v_lo = _bump_profile(a, r.lambda2, ep.muhat2, ep.Qhat2, ep.deltahat2)

    for prof in (u_up, u_lo, v_up, v_lo):
        if max(prof.continuity_defects()) > 1e-10:
            raise ValueError("no continuity point in bracket")
    return EnvelopeSet(u_upper=u_up, u_lower=u_lo, v_upper=v_up, v_lower=v_lo,
                       params=ep, speed=s, system=p)


def min_decay_rate(env: EnvelopeSet) -> float:
    """Slower of the two decay rates backing an envelope set."""
    r = decay_rates(env.system, env.speed)
    return min(r.lambda1, r.lambda2)

"""Explicit super/sub-solution envelopes for the competition wave system.

The four envelopes are piecewise-analytic.  Each piece is a sum of terms
c (-xi)^p e^{r xi} with p in {0, 1}, held as (c, p, r) triples, and one
evaluator reads them all.  The upper pair is a decaying exponential
e^{lam xi} (at s = s*, -h xi e^{lam xi}) capped by a constant; the lower
pair is a positive bump coef e^{lam xi} - q e^{mu lam xi} (at s = s*, where
the rate is a double root, e^{lam xi} (h x - (q/nu)(1 - e^{-nu x})) with
x = -xi) glued to a small constant.  The free constants are selected so
that the differential inequalities verified in :mod:`lvfront.certify`
hold with positive margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from ._scipy import scipy_extension
from .model import EQ_TOL, SystemParams, critical_speed, decay_rates, require_strict_weak

# envelope cases
SUPERCRITICAL = "Supercritical"
CRITICAL_AD_EQ1 = "CriticalAdEq1"
CRITICAL_AD_LT1 = "CriticalAdLt1"

#: multiplicative margin carried by every strict lower bound on q
Q_SAFETY = 1.1
#: places each delta at this fraction of its cap
DELTA_FRACTION = 0.5
#: places mu at 1 + THETA_MU (cap - 1), mid-way in its interval (1, cap),
#: and the rate of the correction at s = s* at THETA_MU min(lambda1, lambda2)
THETA_MU = 0.5
#: mu placement in the overshoot modes, near the top of the interval where
#: the lower-envelope maximum is largest
THETA_MU_NONMONOTONE = 0.9
#: decay lengths (left_reach) from the leftmost join to the default left edge
#: of a solve: the slowest mode's truncation stays below the sandwich-abort
#: threshold
SOLVE_REACH = 45.0
#: iterate refuses a left edge at or right of left_reach(env, MIN_REACH)
MIN_REACH = 10.0


# ---------------------------------------------------------------------------
# scalar root finding
# ---------------------------------------------------------------------------

#: scipy.optimize's compiled root finders
_zeros = scipy_extension("optimize", "_zeros")


def _brentq(f: Callable[[float], float], a: float, b: float, xtol: float = 1e-14,
            rtol: float = 8.9e-16) -> float:
    """A zero of f in [a, b], where f(a) and f(b) differ in sign, by Brent's
    method (Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 4), to within xtol + rtol |x|.

    scipy's compiled routine, the one behind scipy.optimize.brentq, so it
    returns that function's float for the same f, bracket and tolerances.
    Raises ValueError if f(a) and f(b) have one sign or a value is NaN (the
    check of scipy's Python wrapper, which is not loaded), and RuntimeError
    after 100 steps, scipy's default limit.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x = {x} is NaN")
        return fx

    return _zeros._brentq(value, a, b, xtol, rtol, 100, (), False, True)


def _exprel(x: float) -> float:
    """(e^x - 1)/x, and its limit 1 at |x| below the machine epsilon 2^-52,
    as scipy.special.exprel forms it for x <= 717."""
    return 1.0 if abs(x) < 2.0 ** -52 else math.expm1(x) / x


# ---------------------------------------------------------------------------
# piecewise profiles
# ---------------------------------------------------------------------------

def _terms_jet(terms, t, order, exp=np.exp):
    """The derivatives 0..order of sum c (-t)^p e^{r t} over the (c, p, r)
    triples of terms, p in {0, 1}: arrays at the array t, or floats at the
    float t with exp=math.exp.  A run of adjacent terms with one rate r is
    phi e^{r t}, with phi = A + B (-t) and phi' = -B, where A and B sum the
    run's p = 0 and p = 1 coefficients in order; row k sums phi e,
    (phi' + r phi) e or (2 r phi' + r^2 phi) e over the runs in order.
    """
    runs = []  # [r, A, B], with None for a sum of no terms
    for c, p, r in terms:
        if not runs or runs[-1][0] != r:
            runs.append([r, None, None])
        run = runs[-1]
        run[1 + p] = c if run[1 + p] is None else run[1 + p] + c
    rows = []
    for r, A, B in runs:
        phi = A if B is None else B * -t if A is None else A + B * -t
        e = exp(r * t) if r else 1.0
        fs = [phi * e]
        if order:
            dphi = 0.0 if B is None else -B
            fs.append((dphi + r * phi) * e)
            if order > 1:
                fs.append((2.0 * r * dphi + r * r * phi) * e)
        rows = [row + f for row, f in zip(rows, fs)] if rows else fs
    return rows


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
        if any(p not in (0, 1) for _, p, _ in self.terms):
            raise ValueError("term power must be 0 or 1")

    def at(self, t: float, order: int = 0) -> List[float]:
        """Value and derivatives up to order at the float t, from math.exp."""
        return _terms_jet(self.terms, t, order, math.exp)


@dataclass(frozen=True)
class PiecewiseProfile:
    """Piecewise-analytic function tiling the real line.

    Value and the first two derivatives are available in closed form away
    from the join points.
    """

    pieces: Tuple[Piece, ...]

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
        return tuple(pc.hi for pc in self.pieces[:-1])

    def __call__(self, x, deriv: int = 0):
        """The deriv-th derivative at x, in any order and shape: jet at the
        stably sorted points, put back in place."""
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        idx = np.argsort(flat, kind="stable")
        out = np.empty(flat.size)
        out[idx] = self.jet(flat[idx], deriv)[deriv]
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    def jet(self, x, order: int = 0) -> np.ndarray:
        """Value and derivatives up to order at the sorted 1-D array x, in
        shape (order + 1, x.size).

        Each piece fills the contiguous slice of x that searchsorted finds
        on the piece boundaries, so no masks are built.
        """
        if order not in (0, 1, 2):
            raise ValueError("derivative order must be 0, 1 or 2")
        t = np.asarray(x, dtype=float)
        # NaN sorts last, so a sorted x holds one only if it ends with one
        if t.size and math.isnan(t[-1]):
            raise ValueError("abscissa is NaN")
        out = np.empty((order + 1, t.size))
        cuts = np.searchsorted(t, self.join_points).tolist()
        for pc, i, j in zip(self.pieces, [0] + cuts, cuts + [t.size]):
            if j > i:
                for k, row in enumerate(_terms_jet(pc.terms, t[i:j], order)):
                    out[k, i:j] = row
        return out


# ---------------------------------------------------------------------------
# lower bumps: each carries its component's shape
# ---------------------------------------------------------------------------

def exp_or_zero(log_f: float) -> float:
    """exp(log_f), flushed to 0.0 at log_f <= -700, where it nears underflow."""
    return math.exp(log_f) if log_f > -700.0 else 0.0


def _capped(terms, join, cap):
    """The terms left of join and the constant cap from join on."""
    return PiecewiseProfile((Piece(-math.inf, join, terms),
                             Piece(join, math.inf, ((cap, 0, 0.0),))))


class Bump:
    """A lower bump, which carries its component's shape: its terms, the
    bracket (maximum point, zero) of its decreasing branch, log_fmax, the log
    of its maximum, and upper(), the upper envelope of its component.  An
    ExpBump reads them from closed forms; a CriticalBump solves for them
    once, when it is made."""

    __slots__ = ()

    @property
    def fmax(self) -> float:
        return exp_or_zero(self.log_fmax)


@dataclass(frozen=True, slots=True)
class ExpBump(Bump):
    """coef e^{lam xi} - q e^{mu lam xi}, under the upper envelope
    coef e^{lam xi} capped at coef.

    Closed forms: xi0 = -log(q/coef)/((mu-1) lam), xiM = -log(q mu/coef)/((mu-1) lam),
    fmax = coef (1 - 1/mu) (q mu / coef)^{-1/(mu-1)}, taken through its log,
    which is safe against underflow for mu near 1.
    """

    coef: float
    lam: float
    mu: float
    q: float

    def __post_init__(self):
        if self.q <= self.coef:
            raise ValueError("no interior zero")
        if self.mu <= 1.0 or self.lam <= 0.0 or self.coef <= 0.0:
            raise ValueError("bump requires coef > 0, lam > 0, mu > 1")

    @property
    def terms(self) -> Tuple[Tuple[float, float, float], ...]:
        return (self.coef, 0, self.lam), (-self.q, 0, self.mu * self.lam)

    @property
    def bracket(self) -> Tuple[float, float]:
        coef, lam, mu, q = self.coef, self.lam, self.mu, self.q
        return (-math.log(q * mu / coef) / ((mu - 1.0) * lam),
                -math.log(q / coef) / ((mu - 1.0) * lam))

    @property
    def log_fmax(self) -> float:
        coef, mu, q = self.coef, self.mu, self.q
        return math.log(coef * (1.0 - 1.0 / mu)) - math.log(q * mu / coef) / (mu - 1.0)

    def upper(self) -> PiecewiseProfile:
        return _capped(((self.coef, 0, self.lam),), 0.0, self.coef)


@dataclass(frozen=True, slots=True)
class CriticalBump(Bump):
    """e^{lam xi} g(x) with x = -xi and g(x) = h x + (q/nu) expm1(-nu x), the
    lower bump at a double root lam, under the upper envelope -h xi e^{lam xi}
    capped at cap.

    g is convex with g(0) = 0 and g'(0) = h - q, so for q > h it has one
    zero x0 > 0, in [ln(q/h)/nu, q/(nu h)].  The maximum point, where
    g' = lam g, lies in [x0, x0 + h/(lam g'(x0))], because g' < h and g
    lies above its tangent at x0; the search runs on twice that width, whose
    end keeps its sign under rounding.  The log of the maximum is
    ln g(xM) - lam xM.
    """

    h: float
    q: float
    lam: float
    nu: float
    cap: float
    bracket: Tuple[float, float] = field(init=False, repr=False, compare=False)
    log_fmax: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h, q, lam, nu = self.h, self.q, self.lam, self.nu
        if q <= h:
            raise ValueError("no interior zero")
        g = lambda x: h * x + q / nu * math.expm1(-nu * x)
        dg = lambda x: h - q * math.exp(-nu * x)
        x0 = _brentq(g, math.log(q / h) / nu, q / (nu * h))
        xM = _brentq(lambda x: dg(x) - lam * g(x), x0, x0 + 2.0 * h / (lam * dg(x0)))
        object.__setattr__(self, "bracket", (-xM, -x0))
        object.__setattr__(self, "log_fmax", math.log(g(xM)) - lam * xM)

    @property
    def terms(self) -> Tuple[Tuple[float, float, float], ...]:
        h, q, lam, nu = self.h, self.q, self.lam, self.nu
        return (h, 1, lam), (-q / nu, 0, lam), (q / nu, 0, lam + nu)

    def upper(self) -> PiecewiseProfile:
        return _capped(((self.h, 1, self.lam),), -1.0 / self.lam - 1.0, self.cap)


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
        xi = _brentq(lambda x: f(x) - delta, xiM, xi0)
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


@dataclass(frozen=True, slots=True)
class EnvelopeParams:
    """Envelope constants: the u and v lower bumps, which also carry their
    components' upper envelopes, and the deltas that cap the bumps.  Above s*
    both bumps are ExpBumps; at s* the u bump is a CriticalBump, and so is
    the v bump when a*d = 1."""

    u: Bump
    v: Bump
    delta1: float
    delta2: float

    @property
    def case(self) -> str:
        return _CASES[type(self.u), type(self.v)]


_CASES = {(ExpBump, ExpBump): SUPERCRITICAL, (CriticalBump, CriticalBump): CRITICAL_AD_EQ1,
          (CriticalBump, ExpBump): CRITICAL_AD_LT1}


@dataclass(frozen=True)
class EnvelopeSet:
    u_upper: PiecewiseProfile
    u_lower: PiecewiseProfile
    v_upper: PiecewiseProfile
    v_lower: PiecewiseProfile
    params: EnvelopeParams
    speed: float
    system: SystemParams

    @property
    def case(self) -> str:
        return self.params.case

    def jet(self, x, order: int = 0) -> np.ndarray:
        """Jets of u_upper, u_lower, v_upper and v_lower at the sorted x, in
        one array of shape (4, order + 1, x.size)."""
        return np.stack([prof.jet(x, order) for prof in
                         (self.u_upper, self.u_lower, self.v_upper, self.v_lower)])

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

    def bump(self) -> ExpBump:
        return ExpBump(self.coef, self.lam, self.mu, self.q)


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


def _params(p: SystemParams, u: Bump, v: Bump) -> EnvelopeParams:
    """The bumps u and v with delta1 and delta2, each at DELTA_FRACTION of its
    cap min(coexistence gap, lower-bump maximum)."""
    return EnvelopeParams(u, v, DELTA_FRACTION * min(1.0 - p.a * p.c, u.fmax),
                          DELTA_FRACTION * min(p.a - p.b, v.fmax))


def select_supercritical(p: SystemParams, s: float,
                         knobs: SelectionKnobs = SelectionKnobs()) -> EnvelopeParams:
    """Pick mu, q and delta for the supercritical envelopes (s > s*).

    mu and q come from lower_bump and are checked against their
    admissible intervals; delta sits at DELTA_FRACTION of its cap.
    """
    require_strict_weak(p)
    if s <= critical_speed(p):
        raise ValueError("subcritical speed")
    u = lower_bump(p, s, "u", knobs.mu1, knobs.q1, knobs.nonmonotone_u)
    v = lower_bump(p, s, "v", knobs.mu2, knobs.q2, knobs.nonmonotone_v)
    check_bumps(u, v)
    return _params(p, u.bump(), v.bump())


def _critical_q(h: float, lam: float, nu: float, diff: float, coupling: float,
                other: Tuple[float, float, float]) -> float:
    """Q_SAFETY times the q at which q diff nu meets a closed-form bound on
    the losses of the critical bump w = (h, q, lam, nu) beyond its zero x0.

    At the double root lam the linear part of the operator leaves
    q diff nu e^{(lam + nu) xi}, and the losses w^2 + coupling w o, with o
    the other species' upper envelope, must stay below it.  Beyond x0,
    w <= h (x - x0) e^{-lam x} (see CriticalBump: g' < h), and from x = 1/lam_o on
    o <= c_o x^{k_o} e^{-lam_o x}, with other = (c_o, k_o, lam_o) the leading
    term of o.  So the losses times e^{(lam + nu) x} are at most
    h^2 e^{-(lam - nu) x0} (2/(e (lam - nu)))^2 + coupling h c_o e^{-(lam_o - nu) x0}
    (x0^{k_o}/(e (lam_o - nu)) + k_o (2/(e (lam_o - nu)))^2).  The q whose
    bump vanishes at x0, h nu x0/(1 - e^{-nu x0}), rises with x0 and the
    bound falls; _brentq finds where they meet.
    """
    c_o, k_o, lam_o = other
    sq = (2.0 / (math.e * (lam - nu))) ** 2
    b = 1.0 / (math.e * (lam_o - nu))

    def excess(x0):
        loss = (h * h * math.exp(-(lam - nu) * x0) * sq + coupling * h * c_o
                * math.exp(-(lam_o - nu) * x0) * (x0 ** k_o * b + k_o * (2.0 * b) ** 2))
        return h / _exprel(-nu * x0) * diff * nu - loss

    hi = 1.0 / nu
    while excess(hi) < 0.0:
        hi *= 2.0
    x0 = _brentq(excess, 0.0, hi)
    return Q_SAFETY * h / _exprel(-nu * x0)


def select_critical(p: SystemParams, knobs: SelectionKnobs = SelectionKnobs()) -> EnvelopeParams:
    """Pick the envelope constants at the critical speed s = s* (a*d <= 1).

    The slope constants h follow the closed forms that make the capped
    upper piece continuous; each critical bump takes its upper envelope's
    slope h, the q of _critical_q and the correction rate
    nu = THETA_MU min(lambda1, lambda2).  When a*d < 1 the v bump keeps its
    supercritical shape, with rates from the (now non-degenerate) second
    quadratic.
    """
    require_strict_weak(p)
    a, c, d = p.a, p.c, p.d
    if a * d > 1.0 + EQ_TOL:
        raise ValueError("apply species swap")
    s = critical_speed(p)
    lh1 = s / 2.0
    h1 = _critical_slope(1.0, lh1)
    r = decay_rates(p, s)
    nu = THETA_MU * min(r.lambda1, r.lambda2)
    if abs(a * d - 1.0) <= EQ_TOL:
        lh2 = s / (2.0 * d)
        h2 = _critical_slope(a, lh2)
        u_q = _critical_q(h1, lh1, nu, 1.0, c, (h2, 1, lh2))
        v = CriticalBump(h2, _critical_q(h2, lh2, nu, d, p.b, (h1, 1, lh1)), lh2, nu, a)
    else:
        vc = lower_bump(p, s, "v", knobs.mu2, knobs.q2, knobs.nonmonotone_v)
        check_bumps(vc)
        u_q = _critical_q(h1, lh1, nu, 1.0, c, (a, 0, vc.lam))
        v = vc.bump()
    return _params(p, CriticalBump(h1, u_q, lh1, nu, 1.0), v)


# ---------------------------------------------------------------------------
# envelope assembly
# ---------------------------------------------------------------------------

def _capped_lower(bump: Bump, delta: float) -> PiecewiseProfile:
    """A lower bump capped at delta from where its decreasing branch meets
    delta."""
    piece = Piece(-math.inf, math.inf, bump.terms)
    return _capped(bump.terms, join_point(lambda x: piece.at(x)[0], delta, bump.bracket), delta)


def build_envelopes(p: SystemParams, s: float, ep: EnvelopeParams) -> EnvelopeSet:
    """Assemble the four piecewise envelopes of ep at the speed s.

    Each upper envelope is its bump's, continuous by construction; each
    lower one is its bump capped at its delta at the join point of
    join_point, continuous to 1e-12.  certify checks both.
    """
    return EnvelopeSet(u_upper=ep.u.upper(), u_lower=_capped_lower(ep.u, ep.delta1),
                       v_upper=ep.v.upper(), v_lower=_capped_lower(ep.v, ep.delta2),
                       params=ep, speed=s, system=p)


def min_decay_rate(env: EnvelopeSet) -> float:
    """Slower of the two decay rates backing an envelope set."""
    r = decay_rates(env.system, env.speed)
    return min(r.lambda1, r.lambda2)


def left_reach(env: EnvelopeSet, lengths: float) -> float:
    """The point `lengths` decay lengths 1/lam_min left of the leftmost join."""
    return min(env.join_points) - lengths / min_decay_rate(env)

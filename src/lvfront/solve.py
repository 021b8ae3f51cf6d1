"""Wave profiles as fixed points of the exponential-kernel integral operator.

The system is rewritten as (u, v) = P(u, v) where P inverts the linear
parts shifted by beta, i.e. convolution with the Green kernel of
d_i w'' - s w' - beta_i w against F_i = beta_i*w_i + reaction_i.  With
shifts above shift_bounds the reactions are monotone in their own
variable on the order interval the iterates span, and Picard iteration
from the upper pair (u_up, v_lo) and the lower pair (u_lo, v_up) squeezes
the wave from both sides.  iterate recomputes one shift per component
from the current pair at every step, so the shifts fall from at most their
values on the box [0,1] x [0,a] as the pair closes, to
BETA_MARGIN * (u*, v*) on a monotone front.  The fixed point -Lx = f(x)
does not depend on the shift; its discretisation does, at O(h^2).

Near the critical speed the pair gap shrinks by only about 0.998 per step,
on the non-monotone front by 0.925.  After NEWTON_WARMUP steps a pair
whose gap is still above tol is handed over once to a semismooth Newton
method on the clipped map x = clip(P(x), lo, hi)
(Qi & Sun, Math. Programming 58, 1993).  Newton is damped on the residual
while its steps are large, so it may start from the midpoint of a pair
that has made only 20 steps, and it stops at a bound on its answer's
estimated error, scaled by min(tol, HANDOVER_MAX_TOL), or at rounding's
floor (_clipped_newton).  A warm start seeds a hand-over of its own at the
first step, from the warm profile: Newton is the corrector of a
continuation step, and pulse.run_continuation's secant predictor supplies
the profile (Allgower & Georg, Introduction to Numerical Continuation
Methods, SIAM 2003).  The clip pins the wave's translation, so no phase
condition is needed.  Its Jacobian is banded: _kernel_bands writes each
kernel as T^-1 M with T and M tridiagonal, constant but for their end
rows, and a Newton step fills one (3, 3) band over the interleaved
unknowns in place and factors it, or, after a small step and while the
active set stays, takes a chord step on the factor it has (Kelley, Solving
Nonlinear Equations with Newton's Method, SIAM 2003, ch. 2); the band is
20 arrays of n doubles, and a hand-over holds at most about 40 of them,
the pair loop's own included.  Newton refits the shifts to its iterate,
beta = shift_bounds(x), so one run converges to the self-consistent
x = clip(P_beta(x)(x)).  The margin direction e, (I - Pi DP) e = (u, -v),
is solved with the live factor and seeds the pair x +- eps*e, with
eps*max|e| = min(tol, HANDOVER_MAX_TOL)/4.  The next pair step, under
shift_bounds(x), must map the seeded pair inside itself in the mixed
order, exactly: a discrete super- and sub-solution pair (Sattinger,
Indiana Univ. Math. J. 21, 1972).  The pair loop then goes on unchanged;
a warm start so becomes a bracket.  If Newton fails or the check does not
hold, the seed is dropped and the pair loop goes on as if it never handed
over, bit for bit.  A failed warm seed leaves the cold pair's own
hand-over to come, so a warm run is then the cold run, that hand-over
included.  IterationReport.handover says how the
last hand-over ended, and newton_steps, newton_factors and newton_exit
how its Newton run did.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ._scipy import scipy_extension
from .model import SystemParams, equilibria
from .envelopes import MIN_REACH, EnvelopeSet, left_reach


dtbsv = scipy_extension("linalg", "_fblas").dtbsv
dgbtrf = scipy_extension("linalg", "_flapack").dgbtrf
dgbtrs = scipy_extension("linalg", "_flapack").dgbtrs

#: clip adjustments larger than this count as sandwich violations
CLIP_EVENT_TOL = 1e-9
#: clip adjustments larger than this abort the iteration
CLIP_ABORT_TOL = 1e-8
#: factor by which a shift exceeds the smallest monotone shift
BETA_MARGIN = 1.05
#: rows formatted per call by write_csv
CSV_BLOCK_ROWS = 1024
#: pair steps before a pair whose gap is still above tol is handed over to
#: Newton, once: for about the cost of one cold Newton run they bring its
#: start within reach of its damped steps (README)
NEWTON_WARMUP = 20
#: Newton stops once its answer's estimated error, theta/(1 - theta) times
#: its last step with theta the ratio of its last two steps (both relative
#: to |x|), is at most NEWTON_RTOL * tol; or at rounding's floor, where a
#: freshly factored step below tol shrinks by less than NEWTON_STALL after
#: an earlier step shrank by NEWTON_QUADRATIC or more.  A chord step that
#: shrinks by less than NEWTON_STALL ends the reuse of its factor
NEWTON_RTOL = 1e-3
NEWTON_STALL = 0.5
NEWTON_QUADRATIC = 0.1
#: past NEWTON_MAX_STEPS a run goes on only while its freshly factored
#: steps shrink, up to NEWTON_STEP_CAP steps, chord steps included
NEWTON_MAX_STEPS = 20
NEWTON_STEP_CAP = 50
#: a step larger than NEWTON_DAMPED_FROM relative to |x| is halved, down to
#: NEWTON_MIN_DAMPING, until ||clip(P(x)) - x|| falls by 1 - damping/4
NEWTON_DAMPED_FROM = 0.1
NEWTON_MIN_DAMPING = 2.0 ** -10
#: a hand-over runs Newton to min(tol, HANDOVER_MAX_TOL) and seeds the pair
#: x +- eps*e with eps*max|e| a quarter of that: at tol >= 1e-6 a seed of
#: width tol/4 crosses the active set's edge at a few points, and a seed
#: narrower than its Newton answer's error fails at s*
HANDOVER_MAX_TOL = 1e-8


@dataclass(frozen=True)
class OperatorConfig:
    left: float = -60.0
    right: float = 80.0
    n_points: int = 2801
    max_iters: int = 5000
    tol: float = 1e-8


@dataclass(frozen=True)
class TailReport:
    eps: float
    thetas: Tuple[float, ...]
    entry_abscissas: Tuple[float, ...]
    right_gap: float
    left_bound_ok: bool
    increasing_ok: bool
    right_ok: bool
    passed: bool


@dataclass(frozen=True)
class Profile:
    grid: np.ndarray
    u: np.ndarray
    v: np.ndarray
    speed: float
    params: SystemParams
    residual: float
    converged: bool
    tail_report: Optional[TailReport] = None
    config: Optional[OperatorConfig] = None


@dataclass(frozen=True)
class IterationReport:
    residual_history: np.ndarray
    pair_gap_history: np.ndarray
    sandwich_violations: List[int]
    converged: bool
    iterations_used: int
    beta_used: Tuple[float, float]  # (beta_u, beta_v) on the final pair
    # the last Newton hand-over: "none", "accepted", "rejected" or "newton_failed"
    handover: str = "none"
    # its Newton run's steps, chord steps included, and factorisations, and
    # how the run ended: "none" (no run), "converged", "diverged",
    # "stalled", "singular" or "max_steps"
    newton_steps: int = 0
    newton_factors: int = 0
    newton_exit: str = "none"


def shift_bounds(p: SystemParams, u_hi, v_hi,
                 work: Optional[np.ndarray] = None) -> Tuple[float, float]:
    """Per-component shifts (beta_u, beta_v) for pairs below (u_hi, v_hi).

    beta_u + 1 - 2u - cv >= 0 and beta_v + a - bu - 2v >= 0 for
    0 <= u <= u_hi, 0 <= v <= v_hi; each bound is widened by BETA_MARGIN.
    On the box (u_hi, v_hi) = (1, a) they are BETA_MARGIN * (1 + ac, a + b).
    A bound <= 0 (a pair at the extinction state) is replaced by the
    component's box-corner value, 1 + ac or a + b, since P needs beta > 0.
    The sums 2u + cv and bu + 2v are formed in work, a (2, n) array whose
    values are not read, if given.
    """
    w = np.empty((2, np.size(u_hi))) if work is None else work
    need_u = float(np.add(np.multiply(u_hi, 2.0, out=w[0]),
                          np.multiply(v_hi, p.c, out=w[1]), out=w[0]).max()) - 1.0
    need_v = float(np.add(np.multiply(u_hi, p.b, out=w[0]),
                          np.multiply(v_hi, 2.0, out=w[1]), out=w[0]).max()) - p.a
    return (BETA_MARGIN * need_u if need_u > 0.0 else 1.0 + p.a * p.c,
            BETA_MARGIN * need_v if need_v > 0.0 else p.a + p.b)


def kernel_rates(p: SystemParams, s: float, beta):
    """Real roots (negative, positive) of d_i r^2 - s r - beta_i for i = 1, 2,
    with beta the pair (beta_u, beta_v)."""
    out = []
    for d, bt in zip((1.0, p.d), beta):
        disc = math.sqrt(s * s + 4.0 * d * bt)
        out.append(((s - disc) / (2.0 * d), (s + disc) / (2.0 * d)))
    return tuple(out)


def _kernel_coefficients(h: float, alpha: float, gamma: float):
    """(ea, c1, c2, eg, d1, d2) of the two recurrences of _kernel_apply.

    L_i = ea L_{i-1} + c1 F_{i-1} + c2 F_i runs left to right and
    R_i = eg R_{i+1} + d1 F_i + d2 F_{i+1} right to left.
    """
    ea = math.exp(alpha * h)
    I0 = math.expm1(alpha * h) / alpha
    I1 = h * ea / alpha - math.expm1(alpha * h) / (alpha * alpha)
    eg = math.exp(-gamma * h)
    J0 = -math.expm1(-gamma * h) / gamma
    J1 = (1.0 - eg * (1.0 + gamma * h)) / (gamma * gamma)
    return ea, I1 / h, I0 - I1 / h, eg, J0 - J1 / h, J1 / h


def _kernel_apply(F: np.ndarray, h: float, alpha: float, gamma: float,
                  dcoef: float, F_left: float, F_right: float,
                  out: Optional[np.ndarray] = None,
                  band: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact convolution of the piecewise-linear interpolant of F with the
    two-sided exponential kernel, plus the constant-tail contributions.

    Both half-line integrals obey first-order recurrences along the grid
    (_kernel_coefficients), which are the bidiagonal solves
    (I - ea S) L = r_L and (I - eg S^T) R = r_R, with S the down-shift and
    the two-tap right-hand sides r_L = c2 F_i + c1 F_{i-1} (i >= 1) and
    r_R = d1 F_i + d2 F_{i+1} (i <= n - 2): O(n), and stable at stiff rates
    since ea, eg < 1.  The tail integrals L_0 = -F_left/alpha and
    R_{n-1} = F_right/gamma enter the first entry of each as ea L_0 and
    eg R_{n-1}.  Both solves are BLAS dtbsv (lower, unit diagonal, one
    subdiagonal) on one Fortran-ordered band of n - 1 columns, which f2py
    passes without a copy: L forward, and R on the same band transposed, so
    F is never reversed.  The band is built in band, a Fortran-ordered
    (2, >= n - 1) array, if given.  Needs n >= 2.  Writes into out if given.
    """
    ea, c1, c2, eg, d1, d2 = _kernel_coefficients(h, alpha, gamma)
    L0, R_last = F_left * (-1.0 / alpha), F_right / gamma
    m = F.size - 1
    band = np.empty((2, m), order="F") if band is None else band[:, :m]
    rL = np.convolve(F, (c2, c1), "valid")
    rL[0] += ea * L0
    rR = np.convolve(F, (d2, d1), "valid")
    rR[-1] += eg * R_last
    band[1] = -ea
    L = dtbsv(1, band, rL, lower=1, diag=1, overwrite_x=1)            # L_1 .. L_{n-1}
    band[1] = -eg
    R = dtbsv(1, band, rR, lower=1, trans=1, diag=1, overwrite_x=1)   # R_0 .. R_{n-2}
    if out is None:
        out = np.empty_like(F)
    np.add(L[:-1], R[1:], out=out[1:-1])
    out[0] = L0 + R[0]
    out[-1] = L[-1] + R_last
    out /= dcoef * (gamma - alpha)
    return out


def apply_P(u: np.ndarray, v: np.ndarray, p: SystemParams, s: float,
            beta, h: float, right_state: Tuple[float, float],
            out: Optional[np.ndarray] = None, work: Optional[np.ndarray] = None):
    """One application of the integral operator to sampled (u, v) under the
    shifts beta = (beta_u, beta_v): (Pu, Pv), or out, a (2, n) array, with
    Pu and Pv written into its rows.

    Samples are extended by constant states beyond the truncated domain: the
    extinction state on the left, where the reaction F vanishes, and
    right_state (normally the coexistence state) on the right.  One
    component is formed at a time, and both kernels build their band in
    work, a C-contiguous (2, n) array whose values are not read, if given.
    """
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValueError("invalid input profile")
    a, b, c = p.a, p.b, p.c
    beta_u, beta_v = beta
    reactions = (lambda uu, vv: beta_u * uu + uu * (1.0 - uu - c * vv),
                 lambda uu, vv: beta_v * vv + vv * (a - b * uu - vv))
    # the same 2n doubles, read by columns
    band = (np.empty((2, u.size), order="F") if work is None
            else work.reshape(-1).reshape((2, -1), order="F"))
    rows = (None, None) if out is None else out
    images = tuple(_kernel_apply(F(u, v), h, al, ga, dc, 0.0, F(*right_state), out=row,
                                 band=band)
                   for F, (al, ga), dc, row in zip(reactions, kernel_rates(p, s, beta),
                                                   (1.0, p.d), rows))
    return images if out is None else out


def _clip_to(arr: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(clip(arr, lo, hi), events, worst) for lo <= hi.

    worst is the largest excursion |arr - clip(arr)|, 0 inside the bounds,
    and events counts the points whose excursion exceeds CLIP_EVENT_TOL.
    arr is overwritten with its excursion arr - clip(arr).
    """
    out = np.maximum(arr, lo)
    np.minimum(out, hi, out=out)
    excursion = np.subtract(arr, out, out=arr)
    worst = max(float(excursion.max()), -float(excursion.min()), 0.0)
    # no point can exceed the event tolerance unless the worst one does
    events = 0
    if worst > CLIP_EVENT_TOL:
        events = int(np.count_nonzero(np.abs(excursion) > CLIP_EVENT_TOL))
    return out, events, worst


class _Tridiagonal(NamedTuple):
    """A tridiagonal matrix with constant diagonals, except for the two end
    values of the main diagonal."""
    sub: float
    diag: float
    sup: float
    first: float
    last: float


def _kernel_bands(h: float, alpha: float, gamma: float, dcoef: float):
    """Banded form of one kernel: T @ _kernel_apply(F) = M @ F + tail terms.

    With S the down-shift and k = dcoef * (gamma - alpha), T is
    k (I - ea S)(I - eg S^T) in every row but the first and the last, which
    keep only k (I - eg S^T)'s and k (I - ea S)'s row: there L_0 and
    R_{n-1} are the tail constants, so no recurrence needs undoing.  Then
    M = (I - eg S^T) B_L + (I - ea S) B_R, with B_L, B_R the recurrences'
    bidiagonal weights, and T and M are tridiagonal with constant
    diagonals but for their end rows.  The tail terms vanish when
    F_left = F_right = 0.  Returns (T, M).
    """
    ea, c1, c2, eg, d1, d2 = _kernel_coefficients(h, alpha, gamma)
    k = dcoef * (gamma - alpha)
    T = _Tridiagonal(sub=-k * ea, diag=k * (1.0 + ea * eg), sup=-k * eg, first=k, last=k)
    M = _Tridiagonal(sub=c1 - ea * d1, diag=(c2 - ea * d2) + (d1 - eg * c1),
                     sup=d2 - eg * c2, first=d1 - eg * c1, last=c2 - ea * d2)
    return T, M


def _band_apply(band: _Tridiagonal, x: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """band @ x for len(x) >= 2, into out if given."""
    y = np.multiply(x, band.diag, out=out)
    y[0], y[-1] = band.first * x[0], band.last * x[-1]
    y[:-1] += band.sup * x[1:]
    y[1:] += band.sub * x[:-1]
    return y


def _reaction_jacobian(X, p: SystemParams, beta, k: int, l: int, out: np.ndarray,
                       work: Optional[np.ndarray] = None) -> np.ndarray:
    """Entry (k, l) of the pointwise 2x2 Jacobian D of the shifted reactions
    at X = (u, v), written into out: beta_u + 1 - 2u - cv, -cu, -bv and
    beta_v + a - bu - 2v.  A diagonal entry takes work as its one temporary."""
    u, v = X
    if k != l:
        return np.multiply(X[k], -(p.c, p.b)[k], out=out)
    np.multiply(u, (2.0, p.b)[k], out=out)
    np.subtract(beta[k] + (1.0, p.a)[k], out, out=out)
    out -= np.multiply(v, (p.c, 2.0)[k], out=work)
    return out


def _reaction_product(X, p: SystemParams, beta, k: int, rhs, v_sign: float,
                      out: np.ndarray) -> np.ndarray:
    """Row k of D(X) times (rhs[0], v_sign * rhs[1]), written into out, with
    one temporary."""
    work = np.empty_like(out)
    _reaction_jacobian(X, p, beta, k, k, out, work)
    out *= rhs[k]
    _reaction_jacobian(X, p, beta, k, 1 - k, work)
    work *= rhs[1 - k]
    # D_k0 rhs_0 first, as the sum is written
    first, second = (out, work) if k == 0 else (work, out)
    return (np.add if v_sign > 0.0 else np.subtract)(first, second, out=out)


#: the diagonals of a kernel band as (row of the block (0, 0) in gbtrf's
#: layout, columns, the rows they meet, _Tridiagonal field); the main
#: diagonal's end values overwrite its first and last entry
_DIAGONALS = ((4, slice(1, None), slice(None, -1), "sup"),
              (6, slice(None), slice(None), "diag"),
              (6, slice(None, 1), slice(None, 1), "first"),
              (6, slice(-1, None), slice(-1, None), "last"),
              (8, slice(None, -1), slice(1, None), "sub"))


def _newton_factor(ab: np.ndarray, X, W, free, p: SystemParams, beta, kernels):
    """Fill ab with the Newton matrix at X and factor it in place; returns
    the pivots.

    DP = T^-1 M D per component, with D the pointwise 2x2 Jacobian of the
    shifted reactions, and Pi = diag(free) zeroes the active rows.  With
    z = T^-1 M D delta, (I - Pi DP) delta = rhs becomes
    (T - M D Pi) z = M D rhs, delta = rhs + Pi z: banded (3, 3) over the
    interleaved unknowns (u_0, v_0, u_1, ...).  Rows and unknowns are scaled
    by W = |X|, whose tails reach 1e-24.  ab is (n, 2, 10), gbtrf's layout
    ab[6 + i - j, j] = A[i, j] stored by columns; its rows 0-2 take the
    fill-in of the pivoting.
    """
    n = X.shape[1]
    # inside the band but outside the tridiagonal blocks
    ab[:, 0, 3] = ab[:, 1, 9] = 0.0
    G = np.empty(n)
    for k, (T, M) in enumerate(kernels):
        for l in range(2):
            _reaction_jacobian(X, p, beta, k, l, out=G)
            G *= free[l]
            G *= W[l]
            for row, cols, rows, name in _DIAGONALS:
                entries = np.multiply(G[cols], -getattr(M, name), out=ab[cols, l, row + k - l])
                if k == l:
                    entries += getattr(T, name) * W[l][cols]
                entries /= W[k][rows]
    _, piv, info = dgbtrf(ab.reshape(2 * n, 10).T, 3, 3, overwrite_ab=True)
    if info != 0:
        raise np.linalg.LinAlgError("singular Newton matrix")
    return piv


def _newton_solve(ab: np.ndarray, piv, X, W, free, rhs, p: SystemParams, beta, kernels,
                  out: Optional[np.ndarray] = None, v_sign: float = 1.0):
    """Solve (I - Pi DP(X)) delta = (rhs[0], v_sign * rhs[1]) with the factor
    of _newton_factor.

    M D rhs is formed in the columns of one (n, 2) array, which the band
    solve overwrites with z.  delta = rhs + Pi W z goes into out, which may
    be rhs itself, or else into that array, returned as a (2, n) view.
    """
    n = X.shape[1]
    B = np.empty((n, 2))
    Dr = np.empty(n)
    for k, (_, M) in enumerate(kernels):
        _band_apply(M, _reaction_product(X, p, beta, k, rhs, v_sign, Dr), out=B[:, k])
        B[:, k] /= W[k]
    Z, _ = dgbtrs(ab.reshape(2 * n, 10).T, 3, 3, B.reshape(2 * n, 1), piv, overwrite_b=True)
    Z = Z.reshape(n, 2).T
    delta = Z if out is None else out
    for k in range(2):
        np.multiply(free[k], W[k], out=Dr)
        Dr *= Z[k]
        (np.add if k == 0 or v_sign > 0.0 else np.subtract)(Dr, rhs[k], out=delta[k])
    return delta


class NewtonRun(NamedTuple):
    """One run of _clipped_newton: its answer x and mixed-order margin
    direction e, both None unless exit is "converged", its steps, chord
    steps included, its factorisations, and how it ended
    (IterationReport.newton_exit)."""
    x: Optional[np.ndarray]
    e: Optional[np.ndarray]
    steps: int
    factors: int
    exit: str


def _clipped_newton(X, p: SystemParams, s: float, h: float, star, lo, hi,
                    tol: float) -> NewtonRun:
    """Semismooth Newton on X = clip(P_beta(X), lo, hi) from X, a (2, n)
    array that it updates in place.  The rows where P(X) leaves (lo, hi)
    are active and solve X_i = bound.  Steps are sized by max|step|/|X|.

    A step larger than NEWTON_DAMPED_FROM is damped: the residual
    clip(P(X)) - X at the trial point, which the next step needs anyway,
    must fall by 1 - damping/4 in max norm, or the damping halves
    (Deuflhard, Newton Methods for Nonlinear Problems, Springer 2004,
    ch. 3).  Smaller steps are taken in full, since near the answer the
    weakly pinned translation lets the residual rise while the steps still
    contract.  beta = shift_bounds(X) is refitted at every point but the
    trial points of a damped step, which keep their step's beta so that
    the test compares like with like, and it is held fixed in the
    Jacobian: the fixed point moves with beta only at O(h^2).  So a run
    converges to the self-consistent X = clip(P_beta(X)(X)).

    A step of at most NEWTON_DAMPED_FROM is followed by chord steps on its
    factor, with the factor's beta and kernel bands (Kelley, Solving
    Nonlinear Equations with Newton's Method, SIAM 2003, ch. 2), while the
    active set is the factor's.  The run refactors when the set changes,
    after a damped step, and after a chord step that shrinks by less than
    NEWTON_STALL.  A chord step forms its right-hand side with D and the
    row scales of the current X, so that of the point where the factor was
    formed only its active set is kept, packed into bits.  The run stops at
    the bound of NEWTON_RTOL or, on a freshly factored step, at rounding's
    floor; then its result holds e, (I - Pi DP) e = (u, -v), the
    mixed-order margin direction, solved with the live factor, whose
    active set is the final one.  Besides X and e, a run holds the band and
    two (2, n) arrays.  P's band lives in the step, which the last step has
    been added to X from, except at a damped step's trial points: there the
    step is still needed, and P's band and the step's start live in the
    Newton band's memory, whose factor a damped step no longer needs.
    """
    n = X.shape[1]
    ab = np.empty((n, 2, 10))
    step, W = np.empty_like(X), np.empty_like(X)
    band, base = (ab.reshape(-1)[k * n:(k + 2) * n].reshape(2, n) for k in (0, 2))
    damping, steps, factors = 1.0, 0, 0
    # live is the active set of the factor that chord steps may reuse,
    # packed, or None
    size, residual, quadratic, live = math.inf, math.inf, False, None
    # a diverging Newton overflows in its row scaling before its iterate
    # turns non-finite; that exit, not a warning, reports the failure
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while True:
            damped = steps > 0 and size > NEWTON_DAMPED_FROM
            # the shifts' sums, then clip(P(X)) - X, go into W
            if not damped:
                beta = shift_bounds(p, X[0], X[1], work=W)
            apply_P(X[0], X[1], p, s, beta, h, star, out=W, work=band if damped else step)
            free = ~((W <= lo) | (W >= hi))
            np.clip(W, lo, hi, out=W)
            W -= X
            trial = float(np.abs(W).max())
            falls = trial <= (1.0 - 0.25 * damping) * residual   # False on NaN
            if not (falls if damped else math.isfinite(trial)):
                if not damped or damping <= NEWTON_MIN_DAMPING:
                    return NewtonRun(None, None, steps, factors, "diverged")
                damping *= 0.5
                np.add(base, damping * step, out=X)
                continue
            residual = trial
            chord = live is not None and np.array_equal(np.packbits(free), live)
            # the residual becomes the step, solved in place, and W the row scales
            np.copyto(step, W)
            np.maximum(np.abs(X, out=W), np.finfo(float).tiny, out=W)
            try:
                if not chord:
                    factor_beta, live = beta, np.packbits(free)
                    kernels = [_kernel_bands(h, al, ga, dc)
                               for (al, ga), dc in zip(kernel_rates(p, s, beta), (1.0, p.d))]
                    piv = _newton_factor(ab, X, W, free, p, beta, kernels)
                    factors += 1
                _newton_solve(ab, piv, X, W, free, step, p, factor_beta, kernels, out=step)
            except np.linalg.LinAlgError:
                return NewtonRun(None, None, steps, factors, "singular")
            steps += 1
            last, size = size, max(float(np.max(np.abs(d) / w)) for d, w in zip(step, W))
            if not math.isfinite(size):
                return NewtonRun(None, None, steps, factors, "diverged")
            theta = size / last if steps > 1 else math.inf
            if (theta < 1.0 and size * theta / (1.0 - theta) <= NEWTON_RTOL * tol
                    or not chord and quadratic and size <= tol and theta >= NEWTON_STALL):
                # e's right-hand side (u, -v) points up in the mixed order
                e = _newton_solve(ab, piv, X, W, free, X, p, factor_beta, kernels,
                                  v_sign=-1.0)
                X += step
                return NewtonRun(X, e, steps, factors, "converged")
            quadratic |= theta <= NEWTON_QUADRATIC
            if steps >= NEWTON_STEP_CAP:
                return NewtonRun(None, None, steps, factors, "max_steps")
            if steps >= NEWTON_MAX_STEPS and theta >= 1.0 and not chord:
                return NewtonRun(None, None, steps, factors, "stalled")
            if size > NEWTON_DAMPED_FROM:
                # the step's start overwrites the factor
                live = None
                np.copyto(base, X)
            elif chord and theta > NEWTON_STALL:
                live = None
            damping = min(1.0, 2.0 * damping)
            X += damping * step


def iterate(env: EnvelopeSet, p: SystemParams, s: float, cfg: OperatorConfig,
            warm_start: Optional[Tuple[np.ndarray, np.ndarray]] = None):
    """Picard iteration under P of the upper pair (u_up, v_lo) and the lower
    pair (u_lo, v_up), clipped to the box and to the envelope sandwich; they
    bracket every fixed point in the mixed quasimonotone order.

    After NEWTON_WARMUP steps a pair whose gap is above cfg.tol is handed
    over to Newton once (module docstring).  A warm start seeds one
    more hand-over, at the first step, from warm_start clipped to the
    sandwich.  If the seeded pair is accepted it is iterated as the bracket
    and hands over no more; otherwise the cold pair goes on as the cold run,
    its own hand-over included.  The report's handover is the outcome of the
    last hand-over.  Converged when both the pair gap and the step change
    drop below cfg.tol; the returned Profile is the midpoint of the two pairs.
    """
    if cfg.left >= left_reach(env, MIN_REACH):
        raise ValueError("domain too small")

    def make_grid():
        # not held by the loop, so that no hand-over holds it
        return np.linspace(cfg.left, cfg.right, cfg.n_points)

    grid = make_grid()
    h = grid[1] - grid[0]
    star = equilibria(p).coexistence
    lo = np.maximum([env.u_lower(grid), env.v_lower(grid)], 0.0)
    hi = np.minimum([env.u_upper(grid), env.v_upper(grid)], [[1.0], [p.a]])
    del grid

    X = [(hi[0], lo[1]), (lo[0], hi[1])]   # upper pair, lower pair
    # the norms and shift_bounds' u input go through one buffer, apply_P's
    # band and shift_bounds' sums through another; a hand-over drops both
    scratch, work = np.empty(cfg.n_points), np.empty((2, cfg.n_points))

    def max_abs_diff(x, y):
        diff = np.subtract(x, y, out=scratch)
        return np.abs(diff, out=diff).max()

    def pair_shifts(X):
        return shift_bounds(p, np.maximum(X[0][0], X[1][0], out=scratch),
                            np.maximum(X[0][1], X[1][1]), work=work)

    beta = pair_shifts(X)
    start = None if warm_start is None else np.clip(warm_start, lo, hi)

    def pair_step(X, beta):
        """(the clipped P of each pair, clip events, escapes): each escape
        is a clip above CLIP_ABORT_TOL, as (size, index of the worst point,
        component and pair)."""
        nX, events, escapes = [], 0, []
        for pair, x in zip(("upper", "lower"), X):
            y = list(apply_P(*x, p, s, beta, h, star, work=work))
            for k in (0, 1):
                excursion = y[k]   # _clip_to overwrites it with the excursion
                y[k], ev, w = _clip_to(excursion, lo[k], hi[k]); events += ev
                if w > CLIP_ABORT_TOL:
                    escapes.append((w, int(np.argmax(np.abs(excursion))),
                                    f"{'uv'[k]} of the {pair} pair"))
            nX.append(tuple(y))
        return nX, events, escapes

    # a hand-over's Newton stop bound and seed width scale with this
    newton_tol = min(cfg.tol, HANDOVER_MAX_TOL)

    def hand_over(x0):
        """Newton to newton_tol from x0, then the seed x +- eps*e of its
        answer x, eps*max|e| = newton_tol/4, and the seed's pair step under
        beta = shift_bounds(x).  Returns the outcome, the Newton run's
        (steps, factors, exit) and, if accepted, (seed, beta, step)."""
        run = _clipped_newton(x0, p, s, h, star, lo, hi, newton_tol)
        newton = run.steps, run.factors, run.exit
        if run.x is None:
            return "newton_failed", newton, None
        x, e = run.x, run.e
        beta = shift_bounds(p, x[0], x[1])
        eps = 0.25 * newton_tol / np.max(np.abs(e))
        seed = [tuple(np.clip(x + eps * e, lo, hi)), tuple(np.clip(x - eps * e, lo, hi))]
        nxt = pair_step(seed, beta)
        ((nAu, nAv), (nBu, nBv)), _, escapes = nxt
        (sAu, sAv), (sBu, sBv) = seed
        # a discrete super- and sub-solution pair in the mixed order
        verified = (not escapes
                    and np.all(sBu <= sAu) and np.all(sAv <= sBv)
                    and np.all(nAu <= sAu) and np.all(nAv >= sAv)
                    and np.all(nBu >= sBu) and np.all(nBv <= sBv))
        if not verified:
            return "rejected", newton, None
        return "accepted", newton, (seed, beta, nxt)

    res_hist, gap_hist, violations = [], [], []
    converged = False
    handover, newton = "none", (0, 0, "none")
    armed = True
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        nxt = None
        if armed and (start is not None
                      or len(gap_hist) >= NEWTON_WARMUP and gap_hist[-1] > cfg.tol):
            scratch = work = None
            handover, newton, seeded = hand_over(0.5 * np.add(X[0], X[1]) if start is None else start)
            # only a failed warm seed leaves the cold pair's own hand-over armed
            armed = start is not None and seeded is None
            start = None   # the clipped warm start is not needed again
            scratch, work = np.empty(cfg.n_points), np.empty((2, cfg.n_points))
            if seeded is not None:
                X, beta, nxt = seeded
        if nxt is None:
            nxt = pair_step(X, beta)
        nX, step_events, escapes = nxt
        if escapes:
            size, i, where = max(escapes)
            raise ValueError(f"iteration escaped envelope: clip of {size:.3g} in {where} "
                             f"at xi = {make_grid()[i]:.6g} (h = {h:.3g})")
        violations.append(step_events)

        step = max(max_abs_diff(y, x) for new, old in zip(nX, X) for y, x in zip(new, old))
        gap = max(max_abs_diff(nX[0][k], nX[1][k]) for k in (0, 1))
        res_hist.append(step)
        gap_hist.append(gap)
        X = nX
        beta = pair_shifts(X)
        if step < cfg.tol and gap < cfg.tol:
            converged = True
            break

    u, v = (0.5 * (a + b) for a, b in zip(X[0], X[1]))
    Pu, Pv = apply_P(u, v, p, s, beta, h, star, work=work)
    residual = float(max(np.abs(Pu - u).max(), np.abs(Pv - v).max()))
    prof = Profile(grid=make_grid(), u=u, v=v, speed=s, params=p, residual=residual,
                   converged=converged, config=cfg)
    report = IterationReport(
        residual_history=np.asarray(res_hist),
        pair_gap_history=np.asarray(gap_hist),
        sandwich_violations=violations,
        converged=converged,
        iterations_used=iterations,
        beta_used=beta,
        handover=handover,
        newton_steps=newton[0],
        newton_factors=newton[1],
        newton_exit=newton[2],
    )
    return prof, report


def tail_check(prof: Profile, p: SystemParams, env: EnvelopeSet) -> TailReport:
    """Shrinking-box test of the right-tail limit (u, v) -> (u*, v*).

    A ladder of nested boxes collapsing onto the coexistence state must be
    entered at finite, nondecreasing abscissas; the right endpoint must sit
    within 10 * cfg.tol of the coexistence state and the left endpoint
    under the upper envelopes.
    """
    a, b, c = p.a, p.b, p.c
    tol = prof.config.tol if prof.config is not None else 1e-8
    ustar, vstar = equilibria(p).coexistence
    eps = 0.5 * min((1.0 - a * c) / c, (a - b) / b)
    thetas = tuple([i / 10.0 for i in range(10)] + [1.0 - tol])
    grid, u, v = prof.grid, prof.u, prof.v
    abscissas = []
    for th in thetas:
        mu_, Mu_ = th * ustar, th * ustar + (1.0 - th) * (1.0 + eps)
        mv_, Mv_ = th * vstar, th * vstar + (1.0 - th) * (a + eps)
        inside = (u >= mu_) & (u <= Mu_) & (v >= mv_) & (v <= Mv_)
        if inside[-1]:
            outside = np.nonzero(~inside)[0]
            abscissas.append(float(grid[outside[-1] + 1]) if outside.size else float(grid[0]))
        else:
            abscissas.append(math.inf)
    finite = all(math.isfinite(x) for x in abscissas)
    increasing_ok = finite and all(x2 >= x1 - 1e-12 for x1, x2 in
                                   zip(abscissas, abscissas[1:]))
    right_gap = float(max(abs(u[-1] - ustar), abs(v[-1] - vstar)))
    right_ok = right_gap <= 10.0 * tol
    left_bound_ok = bool(u[0] <= env.u_upper(float(grid[0])) + 1e-9
                         and v[0] <= env.v_upper(float(grid[0])) + 1e-9)
    passed = bool(finite and increasing_ok and right_ok and left_bound_ok)
    return TailReport(eps=eps, thetas=thetas,
                      entry_abscissas=tuple(abscissas), right_gap=right_gap,
                      left_bound_ok=left_bound_ok, increasing_ok=increasing_ok,
                      right_ok=right_ok, passed=passed)


def ode_residual(prof: Profile, p: SystemParams) -> float:
    """Sup-norm of the central-difference residual of the wave system."""
    a, b, c, d = p.a, p.b, p.c, p.d
    h = prof.grid[1] - prof.grid[0]
    u, v, s = prof.u, prof.v, prof.speed
    upp = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    up = (u[2:] - u[:-2]) / (2.0 * h)
    vpp = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    vp = (v[2:] - v[:-2]) / (2.0 * h)
    um, vm = u[1:-1], v[1:-1]
    r1 = upp - s * up + um * (1.0 - um - c * vm)
    r2 = d * vpp - s * vp + vm * (a - b * um - vm)
    return float(max(np.abs(r1).max(), np.abs(r2).max()))


def write_csv(path: str, rows: np.ndarray, header: str) -> None:
    """A header line, then the rows of a 2-D array as "%.17g" values joined
    by commas: the bytes of np.savetxt(path, rows, fmt="%.17g",
    delimiter=",", header=header, comments=""), with one format call per
    block of CSV_BLOCK_ROWS rows in place of one per row."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, rows.shape[0], CSV_BLOCK_ROWS):
            block = rows[start:start + CSV_BLOCK_ROWS]
            fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def write_profile(prof: Profile, csv_path: str, json_path: str,
                  header_extra: Optional[dict] = None) -> None:
    """Profile CSV (xi, u, v) plus a JSON header with run metadata."""
    write_csv(csv_path, np.column_stack([prof.grid, prof.u, prof.v]), "xi,u,v")
    head = {
        "params": {"a": prof.params.a, "b": prof.params.b,
                   "c": prof.params.c, "d": prof.params.d},
        "speed": prof.speed,
        "residual": prof.residual,
        "converged": prof.converged,
    }
    if prof.config is not None:
        head["config"] = asdict(prof.config)
    if prof.tail_report is not None:
        tr = prof.tail_report
        head["tail_report"] = {
            "passed": tr.passed, "right_gap": tr.right_gap, "eps": tr.eps,
            # JSON has no inf: null marks a box that is never entered
            "entry_abscissas": [x if math.isfinite(x) else None for x in tr.entry_abscissas],
        }
    if header_extra:
        head.update(header_extra)
    with open(json_path, "w") as fh:
        json.dump(head, fh, indent=2, sort_keys=True)

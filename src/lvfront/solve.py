"""Wave profiles as fixed points of the exponential-kernel integral operator.

The system is rewritten as (u, v) = P(u, v) where P inverts the linear
parts shifted by beta, i.e. convolution with the Green kernel of
d_i w'' - s w' - beta_i w against F_i = beta_i*w_i + reaction_i.  With
shifts above shift_bounds the reactions are monotone in their own
variable on the order interval the iterates span, and Picard iteration
from the upper pair (u_up, v_lo) and the lower pair (u_lo, v_up) squeezes
the wave from both sides.  By default iterate recomputes one shift per
component from the current pair at every step, so the shifts fall from
at most their values on the box [0,1] x [0,a] as the pair closes, to
BETA_MARGIN * (u*, v*) on a monotone front; an explicit
OperatorConfig.beta fixes one shift for both components.  The fixed
point -Lx = f(x) does not depend on the shift; its discretisation does, at
O(h^2).

Near the critical speed the pair gap shrinks by only about 0.998 per step.
Once it has shrunk by NEWTON_RATE or more slowly per step over the last
NEWTON_WINDOW steps, after NEWTON_WARMUP steps, the pair is handed over
once to a semismooth Newton method on the clipped map x = clip(P(x), lo, hi)
(Qi & Sun, Math. Programming 58, 1993).  The clip pins the wave's
translation, so no phase condition is needed.  Its Jacobian is banded:
_kernel_bands writes each kernel as T^-1 M with T tridiagonal and M
tridiagonal plus one dense row.  Newton runs under the pair's shifts and
again under shift_bounds of its answer x; from the margin direction e,
(I - Pi DP) e = (u, -v), it seeds the pair x +- eps*e.  The next pair step,
under the same shifts, must map the seeded pair inside itself in the mixed
order, exactly: a discrete super- and sub-solution pair (Sattinger, Indiana
Univ. Math. J. 21, 1972).  The pair loop then goes on unchanged.  If Newton
fails or the check does not hold, the seed is dropped and the run is the
one that never handed over, bit for bit.  IterationReport.handover says
which happened.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import List, Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dgbsv
from scipy.signal import lfilter

from .model import SystemParams, equilibria
from .envelopes import EnvelopeSet, min_decay_rate

#: clip adjustments larger than this count as sandwich violations
CLIP_EVENT_TOL = 1e-9
#: clip adjustments larger than this abort the iteration
CLIP_ABORT_TOL = 1e-8
#: factor by which a shift exceeds the smallest monotone shift
BETA_MARGIN = 1.05
#: rows formatted per call by write_csv
CSV_BLOCK_ROWS = 1024
#: a pair whose gap shrinks per step by this factor or more slowly, over
#: the last NEWTON_WINDOW steps and after NEWTON_WARMUP steps, is handed
#: over to Newton once
NEWTON_RATE = 0.99
NEWTON_WARMUP = 50
NEWTON_WINDOW = 10
#: Newton stops when its step is this small relative to the iterate
NEWTON_TOL = 1e-12
NEWTON_MAX_STEPS = 20


@dataclass(frozen=True)
class OperatorConfig:
    left: float = -60.0
    right: float = 80.0
    n_points: int = 2801
    # None: per-component shifts from the current pair (shift_bounds) at
    # every iteration; a number: that shift for both components throughout
    beta: Optional[float] = None
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
    # Newton hand-over: "none", "accepted", "rejected" or "newton_failed"
    handover: str = "none"


def beta_floor(p: SystemParams) -> float:
    """Smallest beta making both shifted reactions monotone on the box.

    beta + 1 - 2u - cv >= 0 and beta + a - bu - 2v >= 0 on [0,1] x [0,a]
    are tightest at the corner (1, a).
    """
    return max(1.0 + p.a * p.c, p.a + p.b)


def shift_bounds(p: SystemParams, u_hi, v_hi) -> Tuple[float, float]:
    """Per-component shifts (beta_u, beta_v) for pairs below (u_hi, v_hi).

    beta_u + 1 - 2u - cv >= 0 and beta_v + a - bu - 2v >= 0 for
    0 <= u <= u_hi, 0 <= v <= v_hi; each bound is widened by BETA_MARGIN.
    On the box (u_hi, v_hi) = (1, a) they are BETA_MARGIN * (1 + ac, a + b).
    A bound <= 0 (a pair at the extinction state) is replaced by the
    component's box-corner value, 1 + ac or a + b, since P needs beta > 0.
    """
    need_u = float(np.max(2.0 * u_hi + p.c * v_hi)) - 1.0
    need_v = float(np.max(p.b * u_hi + 2.0 * v_hi)) - p.a
    return (BETA_MARGIN * need_u if need_u > 0.0 else 1.0 + p.a * p.c,
            BETA_MARGIN * need_v if need_v > 0.0 else p.a + p.b)


def _beta_pair(beta) -> Tuple[float, float]:
    return (beta, beta) if np.ndim(beta) == 0 else (beta[0], beta[1])


def kernel_rates(p: SystemParams, s: float, beta):
    """Real roots (negative, positive) of d_i r^2 - s r - beta_i for i = 1, 2.

    beta is one shift for both components or a pair (beta_u, beta_v).
    """
    out = []
    for d, bt in zip((1.0, p.d), _beta_pair(beta)):
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
                  dcoef: float, F_left: float, F_right: float) -> np.ndarray:
    """Exact convolution of the piecewise-linear interpolant of F with the
    two-sided exponential kernel, plus the constant-tail contributions.

    Both half-line integrals obey first-order recurrences along the grid,
    evaluated with lfilter for O(n) cost and stability at stiff rates.  Each
    is one pass over F with a two-tap numerator that starts one point in
    from its tail end: the tail integrals L_0 = -F_left/alpha and
    R_{n-1} = F_right/gamma enter through the first state zi, c1 F_0 + ea L_0
    or d2 F_{n-1} + eg R_{n-1}, which cancels against nothing.  Needs n >= 2.
    """
    ea, c1, c2, eg, d1, d2 = _kernel_coefficients(h, alpha, gamma)
    L0, R_last = F_left * (-1.0 / alpha), F_right / gamma
    L, _ = lfilter([c2, c1], [1.0, -ea], F[1:], zi=[c1 * F[0] + ea * L0])   # L_1 .. L_{n-1}
    R, _ = lfilter([d1, d2], [1.0, -eg], F[-2::-1],
                   zi=[d2 * F[-1] + eg * R_last])                           # R_{n-2} .. R_0
    out = np.empty_like(F)
    np.add(L[:-1], R[-2::-1], out=out[1:-1])
    out[0] = L0 + R[-1]
    out[-1] = L[-1] + R_last
    out /= dcoef * (gamma - alpha)
    return out


def apply_P(u: np.ndarray, v: np.ndarray, p: SystemParams, s: float,
            beta, h: float, right_state: Tuple[float, float],
            left_state: Tuple[float, float] = (0.0, 0.0)):
    """One application of the integral operator to sampled (u, v).

    beta is one shift for both components or a pair (beta_u, beta_v).
    Samples are extended by constant states beyond the truncated domain:
    left_state (the extinction state by default) and right_state (normally
    the coexistence state).
    """
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValueError("invalid input profile")
    a, b, c = p.a, p.b, p.c
    beta_u, beta_v = _beta_pair(beta)

    def F(uu, vv):
        return (beta_u * uu + uu * (1.0 - uu - c * vv),
                beta_v * vv + vv * (a - b * uu - vv))

    F1, F2 = F(u, v)
    F1_right, F2_right = F(*right_state)
    F1_left, F2_left = F(*left_state)
    (a1, g1), (a2, g2) = kernel_rates(p, s, beta)
    Pu = _kernel_apply(F1, h, a1, g1, 1.0, F1_left, F1_right)
    Pv = _kernel_apply(F2, h, a2, g2, p.d, F2_left, F2_right)
    return Pu, Pv


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


def _kernel_bands(h: float, alpha: float, gamma: float, dcoef: float, n: int):
    """Banded form of one kernel: T @ _kernel_apply(F) = M @ F + tail terms.

    With S the down-shift and k = dcoef * (gamma - alpha), the two
    recurrences multiply out to T = k (I - ea S)(I - eg S^T), which is
    tridiagonal, and M = (I - eg S^T) B_L + (I - ea S) B_R + ea eg e_{n-1} w^T,
    tridiagonal plus a dense last row, where B_L, B_R are the recurrences'
    bidiagonal weights and w_j = c2 ea^(n-1-j) [j >= 1] + c1 ea^(n-2-j)
    [j <= n-2] sums the left recurrence into the last point.  The tail
    terms vanish when F_left = F_right = 0.  Returns (T, M, last): T and M
    in solve_banded's (1, 1) layout, band[1 + i - j, j] = A[i, j], and
    last = ea eg w.
    """
    ea, c1, c2, eg, d1, d2 = _kernel_coefficients(h, alpha, gamma)
    k = dcoef * (gamma - alpha)
    T = np.empty((3, n))
    T[0], T[1], T[2] = -k * eg, k * (1.0 + ea * eg), -k * ea
    T[1, 0] = k
    M = np.empty((3, n))
    M[0], M[1], M[2] = d2 - eg * c2, (c2 - ea * d2) + (d1 - eg * c1), c1 - ea * d1
    M[1, 0], M[1, -1] = d1 - eg * c1, c2 - ea * d2
    T[0, 0] = T[2, -1] = M[0, 0] = M[2, -1] = 0.0
    powers = ea ** np.arange(n - 1, -1, -1)   # ea^(n-1-j)
    w = np.zeros(n)
    w[1:] += c2 * powers[1:]
    w[:-1] += c1 * powers[1:]
    return T, M, (ea * eg) * w


def _band_apply(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Tridiagonal matrix in solve_banded's (1, 1) layout times x."""
    y = band[1] * x
    y[:-1] += band[0, 1:] * x[1:]
    y[1:] += band[2, :-1] * x[:-1]
    return y


def _newton_solve(X, rhs, active, p: SystemParams, beta, kernels):
    """Solve (I - Pi DP(X)) delta = rhs for each rhs in the list.

    DP = T^-1 M D per component, with D the pointwise 2x2 Jacobian of the
    shifted reactions, and Pi zeroes the active rows.  With z = T^-1 M D
    delta the system is (T - M D Pi) z = M D rhs, delta = rhs + Pi z: banded
    (3, 3) over the interleaved unknowns (u_0, v_0, u_1, ...) plus the two
    dense last rows, which a 2x2 capacitance system (Woodbury) takes out.
    Rows and unknowns are scaled by |X|, whose tails reach 1e-24.
    """
    a, b, c = p.a, p.b, p.c
    beta_u, beta_v = _beta_pair(beta)
    u, v = X
    n = u.size
    D = ((beta_u + 1.0 - 2.0 * u - c * v, -c * u),
         (-b * v, beta_v + a - b * u - 2.0 * v))
    W = np.maximum(np.abs(X), np.finfo(float).tiny)
    free = ~active
    # gbsv's band layout, ab[6 + i - j, j] = A[i, j], stored by columns;
    # rows 0-2 take the fill-in of the pivoting
    ab = np.zeros((n, 2, 10))
    U = np.zeros((2, n, 2))
    for k, (T, M, last) in enumerate(kernels):
        for l in range(2):
            DPi = D[k][l] * free[l] * W[l]
            U[k, :, l] = -last * DPi / W[k, -1]
            for dj in (-1, 0, 1):
                val = -M[1 - dj] * DPi
                if k == l:
                    val += T[1 - dj] * W[l]
                rows = np.roll(W[k], dj)   # W[k, j - dj]; the wrapped end is a zero band entry
                ab[:, l, 6 - 2 * dj + k - l] = val / rows
    m = len(rhs)
    B = np.zeros((m + 2, n, 2))
    for i, r in enumerate(rhs):
        Dr = (D[0][0] * r[0] + D[0][1] * r[1], D[1][0] * r[0] + D[1][1] * r[1])
        for k, (T, M, last) in enumerate(kernels):
            B[i, :, k] = _band_apply(M, Dr[k])
            B[i, -1, k] += last @ Dr[k]
            B[i, :, k] /= W[k]
    B[m, -1, 0] = B[m + 1, -1, 1] = 1.0
    # solve_banded's LAPACK routine, called in place
    _, _, Y, info = dgbsv(3, 3, ab.reshape(2 * n, 10).T, B.reshape(m + 2, 2 * n).T,
                          overwrite_ab=True, overwrite_b=True)
    if info != 0:
        raise np.linalg.LinAlgError("singular Newton matrix")
    U = U.reshape(2, 2 * n)
    Z, Q = Y[:, :m], Y[:, m:]
    Z = Z - Q @ np.linalg.solve(np.eye(2) + U @ Q, U @ Z)
    return [r + free * W * Z[:, i].reshape(n, 2).T for i, r in enumerate(rhs)]


def _clipped_newton(X, p: SystemParams, s: float, beta, h: float, star,
                    lo, hi):
    """Semismooth Newton on X = clip(P_beta(X), lo, hi) from X.

    The rows where P(X) leaves (lo, hi) are active and solve X_i = bound;
    the clip pins the wave's translation, so no phase condition is needed.
    Returns (X, e) once the step is below NEWTON_TOL relative to |X|, where
    (I - Pi DP) e = (u, -v) is the mixed-order margin direction from the
    last Jacobian, or None if Newton does not converge.
    """
    n = X.shape[1]
    kernels = [_kernel_bands(h, al, ga, dc, n)
               for (al, ga), dc in zip(kernel_rates(p, s, beta), (1.0, p.d))]
    # a diverging Newton overflows in its row scaling before its iterate
    # turns non-finite; that exit, not a warning, reports the failure
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_STEPS):
            PX = np.array(apply_P(X[0], X[1], p, s, beta, h, star))
            active = (PX <= lo) | (PX >= hi)
            try:
                # e's right-hand side (u, -v) points up in the mixed order
                step, e = _newton_solve(X, [np.clip(PX, lo, hi) - X, X * [[1.0], [-1.0]]],
                                        active, p, beta, kernels)
            except np.linalg.LinAlgError:
                return None
            scale = np.maximum(np.abs(X), np.finfo(float).tiny)
            X = X + step
            if not np.all(np.isfinite(X)):
                return None
            if np.max(np.abs(step) / scale) <= NEWTON_TOL:
                return X, e
    return None


def _slow_pair(gap_hist: List[float]) -> bool:
    """The pair gap contracted by NEWTON_RATE or slower per step over the
    last NEWTON_WINDOW steps, after NEWTON_WARMUP steps."""
    if len(gap_hist) < NEWTON_WARMUP:
        return False
    g0, g1 = gap_hist[-1 - NEWTON_WINDOW], gap_hist[-1]
    return g0 > 0.0 and g1 > 0.0 and g1 >= g0 * NEWTON_RATE ** NEWTON_WINDOW


def iterate(env: EnvelopeSet, p: SystemParams, s: float, cfg: OperatorConfig,
            warm_start: Optional[Tuple[np.ndarray, np.ndarray]] = None):
    """Picard iteration under P of (u, v) sequences clipped to the box and to
    the envelope sandwich.

    A cold solve iterates the upper pair (u_up, v_lo) and the lower pair
    (u_lo, v_up), which bracket every fixed point in the mixed quasimonotone
    order.  A warm start iterates one sequence, from warm_start clipped to
    the sandwich, and its pair gap is 0.  Converged when both the pair gap
    and the step change drop below cfg.tol; the returned Profile is the
    midpoint of the first and last sequence.  A slowly contracting pair is
    handed over to Newton once (module docstring).
    """
    lam_min = min_decay_rate(env)
    if cfg.left >= min(env.join_points) - 10.0 / lam_min:
        raise ValueError("domain too small")
    beta = cfg.beta
    if beta is not None and beta < beta_floor(p):
        raise ValueError("beta below monotonicity floor")

    grid = np.linspace(cfg.left, cfg.right, cfg.n_points)
    h = grid[1] - grid[0]
    star = equilibria(p).coexistence
    lo = (np.maximum(env.u_lower(grid), 0.0), np.maximum(env.v_lower(grid), 0.0))
    hi = (np.minimum(env.u_upper(grid), 1.0), np.minimum(env.v_upper(grid), p.a))

    if warm_start is None:
        X = [(hi[0], lo[1]), (lo[0], hi[1])]   # upper pair, lower pair
    else:
        X = [tuple(np.clip(w, l, u) for w, l, u in zip(warm_start, lo, hi))]
    # the step and gap norms and shift_bounds' u input go through one buffer
    scratch = np.empty_like(grid)

    def max_abs_diff(x, y):
        diff = np.subtract(x, y, out=scratch)
        return np.abs(diff, out=diff).max()

    def pair_shifts(X):
        return shift_bounds(p, np.maximum(X[0][0], X[-1][0], out=scratch),
                            np.maximum(X[0][1], X[-1][1]))

    if beta is None:
        beta = pair_shifts(X)

    def pair_step(X, beta):
        """(the clipped P of each sequence, clip events, escapes): each
        escape is a clip above CLIP_ABORT_TOL, as (size, index of the worst
        point, component and pair).  A warm start's one sequence is named
        the upper pair."""
        nX, events, escapes = [], 0, []
        for pair, x in zip(("upper", "lower"), X):
            y = list(apply_P(*x, p, s, beta, h, star))
            for k in (0, 1):
                excursion = y[k]   # _clip_to overwrites it with the excursion
                y[k], ev, w = _clip_to(excursion, lo[k], hi[k]); events += ev
                if w > CLIP_ABORT_TOL:
                    escapes.append((w, int(np.argmax(np.abs(excursion))),
                                    f"{'uv'[k]} of the {pair} pair"))
            nX.append(tuple(y))
        return nX, events, escapes

    def hand_over(X, beta):
        """Newton from the pair's midpoint under beta and, with adaptive
        shifts, again under beta' = shift_bounds of its answer x; then the
        seed x +- eps*e, eps*max|e| = tol/4, and its pair step under beta'.
        Returns the outcome and, if accepted, (seed, beta', step)."""
        lo2, hi2 = np.array(lo), np.array(hi)
        out = _clipped_newton(0.5 * (np.array(X[0]) + np.array(X[-1])), p, s, beta, h, star,
                              lo2, hi2)
        if out is not None and cfg.beta is None:
            beta = shift_bounds(p, out[0][0], out[0][1])
            out = _clipped_newton(out[0], p, s, beta, h, star, lo2, hi2)
        if out is None:
            return "newton_failed", None
        x, e = out
        eps = 0.25 * cfg.tol / np.max(np.abs(e))
        seed = [tuple(np.clip(x + eps * e, lo2, hi2)), tuple(np.clip(x - eps * e, lo2, hi2))]
        nxt = pair_step(seed, beta)
        ((nAu, nAv), (nBu, nBv)), _, escapes = nxt
        (sAu, sAv), (sBu, sBv) = seed
        # a discrete super- and sub-solution pair in the mixed order
        verified = (not escapes
                    and np.all(sBu <= sAu) and np.all(sAv <= sBv)
                    and np.all(nAu <= sAu) and np.all(nAv >= sAv)
                    and np.all(nBu >= sBu) and np.all(nBv <= sBv))
        if not verified:
            return "rejected", None
        return "accepted", (seed, beta, nxt)

    res_hist, gap_hist, violations = [], [], []
    converged = False
    handover = "none"
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        nxt = None
        if handover == "none" and _slow_pair(gap_hist):
            handover, seeded = hand_over(X, beta)
            if seeded is not None:
                X, beta, nxt = seeded
        if nxt is None:
            nxt = pair_step(X, beta)
        nX, step_events, escapes = nxt
        if escapes:
            size, i, where = max(escapes)
            raise ValueError(f"iteration escaped envelope: clip of {size:.3g} in {where} "
                             f"at xi = {grid[i]:.6g} (h = {h:.3g})")
        violations.append(step_events)

        step = max(max_abs_diff(y, x) for new, old in zip(nX, X) for y, x in zip(new, old))
        gap = max(max_abs_diff(nX[0][k], nX[-1][k]) for k in (0, 1))
        res_hist.append(step)
        gap_hist.append(gap)
        X = nX
        if cfg.beta is None:
            beta = pair_shifts(X)
        if step < cfg.tol and gap < cfg.tol:
            converged = True
            break

    u, v = (0.5 * (a + b) for a, b in zip(X[0], X[-1]))
    Pu, Pv = apply_P(u, v, p, s, beta, h, star)
    residual = float(max(np.abs(Pu - u).max(), np.abs(Pv - v).max()))
    prof = Profile(grid=grid, u=u, v=v, speed=s, params=p, residual=residual,
                   converged=converged, config=cfg)
    report = IterationReport(
        residual_history=np.asarray(res_hist),
        pair_gap_history=np.asarray(gap_hist),
        sandwich_violations=violations,
        converged=converged,
        iterations_used=iterations,
        beta_used=_beta_pair(beta),
        handover=handover,
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


def with_tail_report(prof: Profile, report: TailReport) -> Profile:
    return replace(prof, tail_report=report)


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
            "entry_abscissas": list(tr.entry_abscissas),
        }
    if header_extra:
        head.update(header_extra)
    with open(json_path, "w") as fh:
        json.dump(head, fh, indent=2, sort_keys=True)

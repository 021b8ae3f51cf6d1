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
point -Lx = f(x) does not depend on the shift.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import List, Optional, Tuple

import numpy as np
from scipy.signal import lfilter

from .model import SystemParams, equilibria
from .envelopes import EnvelopeSet, min_decay_rate

#: clip adjustments larger than this count as sandwich violations
CLIP_EVENT_TOL = 1e-9
#: clip adjustments larger than this abort the iteration
CLIP_ABORT_TOL = 1e-8
#: factor by which a shift exceeds the smallest monotone shift
BETA_MARGIN = 1.05


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
    damping: float = 1.0


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
    damping_used: float
    beta_used: Tuple[float, float]  # (beta_u, beta_v) on the final pair


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


def _kernel_apply(F: np.ndarray, h: float, alpha: float, gamma: float,
                  dcoef: float, F_left: float, F_right: float) -> np.ndarray:
    """Exact convolution of the piecewise-linear interpolant of F with the
    two-sided exponential kernel, plus the constant-tail contributions.

    Both half-line integrals obey first-order recurrences along the grid,
    evaluated with lfilter for O(n) cost and stability at stiff rates.
    """
    ea = math.exp(alpha * h)
    I0 = math.expm1(alpha * h) / alpha
    I1 = h * ea / alpha - math.expm1(alpha * h) / (alpha * alpha)
    x = np.empty_like(F)
    x[0] = F_left * (-1.0 / alpha)
    x[1:] = (I1 / h) * F[:-1] + (I0 - I1 / h) * F[1:]
    L = lfilter([1.0], [1.0, -ea], x)

    eg = math.exp(-gamma * h)
    J0 = -math.expm1(-gamma * h) / gamma
    J1 = (1.0 - eg * (1.0 + gamma * h)) / (gamma * gamma)
    terms = (J0 - J1 / h) * F[:-1] + (J1 / h) * F[1:]
    xr = np.empty_like(F)
    xr[0] = F_right / gamma
    xr[1:] = terms[::-1]
    R = lfilter([1.0], [1.0, -eg], xr)[::-1]

    return (L + R) / (dcoef * (gamma - alpha))


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
    above, below = arr - hi, lo - arr
    worst = max(float(np.max(above, initial=0.0)), float(np.max(below, initial=0.0)), 0.0)
    # no point can exceed the event tolerance unless the worst one does
    events = 0
    if worst > CLIP_EVENT_TOL:
        events = int(np.count_nonzero((above > CLIP_EVENT_TOL) | (below > CLIP_EVENT_TOL)))
    return np.clip(arr, lo, hi), events, worst


def iterate(env: EnvelopeSet, p: SystemParams, s: float, cfg: OperatorConfig,
            warm_start: Optional[Tuple[np.ndarray, np.ndarray]] = None):
    """Coupled Picard iteration between the envelope pairs.

    The upper pair (u_up, v_lo) and lower pair (u_lo, v_up) are iterated
    under P and clipped to the box and to the envelope sandwich; the two
    pairs bracket every fixed point in the mixed quasimonotone order.
    Converged when both the pair gap and the step change drop below
    cfg.tol; the returned Profile is the midpoint of the final pair.
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
    lo_u = np.maximum(env.u_lower(grid), 0.0)
    hi_u = np.minimum(env.u_upper(grid), 1.0)
    lo_v = np.maximum(env.v_lower(grid), 0.0)
    hi_v = np.minimum(env.v_upper(grid), p.a)

    if warm_start is None:
        Au, Av = hi_u.copy(), lo_v.copy()   # upper pair (u_up, v_lo)
        Bu, Bv = lo_u.copy(), hi_v.copy()   # lower pair (u_lo, v_up)
    else:
        wu = np.clip(warm_start[0], lo_u, hi_u)
        wv = np.clip(warm_start[1], lo_v, hi_v)
        Au, Av = wu.copy(), wv.copy()
        Bu, Bv = wu.copy(), wv.copy()
    if beta is None:
        beta = shift_bounds(p, np.maximum(Au, Bu), np.maximum(Av, Bv))

    damping = cfg.damping
    res_hist, gap_hist, violations = [], [], []
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        nAu, nAv = apply_P(Au, Av, p, s, beta, h, star)
        nBu, nBv = apply_P(Bu, Bv, p, s, beta, h, star)
        if damping < 1.0:
            nAu = (1.0 - damping) * Au + damping * nAu
            nAv = (1.0 - damping) * Av + damping * nAv
            nBu = (1.0 - damping) * Bu + damping * nBu
            nBv = (1.0 - damping) * Bv + damping * nBv
        step_events = 0
        worst = 0.0
        nAu, ev, w = _clip_to(nAu, lo_u, hi_u); step_events += ev; worst = max(worst, w)
        nAv, ev, w = _clip_to(nAv, lo_v, hi_v); step_events += ev; worst = max(worst, w)
        nBu, ev, w = _clip_to(nBu, lo_u, hi_u); step_events += ev; worst = max(worst, w)
        nBv, ev, w = _clip_to(nBv, lo_v, hi_v); step_events += ev; worst = max(worst, w)
        if worst > CLIP_ABORT_TOL:
            raise ValueError("iteration escaped envelope")
        violations.append(step_events)

        step = max(np.abs(nAu - Au).max(), np.abs(nAv - Av).max(),
                   np.abs(nBu - Bu).max(), np.abs(nBv - Bv).max())
        gap = max(np.abs(nAu - nBu).max(), np.abs(nAv - nBv).max())
        res_hist.append(step)
        gap_hist.append(gap)
        Au, Av, Bu, Bv = nAu, nAv, nBu, nBv
        if cfg.beta is None:
            beta = shift_bounds(p, np.maximum(Au, Bu), np.maximum(Av, Bv))
        if step < cfg.tol and gap < cfg.tol:
            converged = True
            break

    u = 0.5 * (Au + Bu)
    v = 0.5 * (Av + Bv)
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
        damping_used=damping,
        beta_used=_beta_pair(beta),
    )
    return prof, report


def tail_check(prof: Profile, p: SystemParams,
               env: Optional[EnvelopeSet] = None) -> TailReport:
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
    if env is not None:
        left_bound_ok = bool(u[0] <= env.u_upper(float(grid[0])) + 1e-9
                             and v[0] <= env.v_upper(float(grid[0])) + 1e-9)
    else:
        left_bound_ok = bool(abs(u[0]) <= 1e-6 and abs(v[0]) <= 1e-6)
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


def write_profile(prof: Profile, csv_path: str, json_path: str,
                  header_extra: Optional[dict] = None) -> None:
    """Profile CSV (xi, u, v) plus a JSON header with run metadata."""
    cols = np.column_stack([prof.grid, prof.u, prof.v])
    np.savetxt(csv_path, cols, delimiter=",", fmt="%.17g",
               header="xi,u,v", comments="")
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

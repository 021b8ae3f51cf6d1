"""Front-pulse computation by continuation toward a critical-weak limit.

A non-monotone wave is continued in c toward 1/a (u-pulse) or in b toward
a (v-pulse).  The envelope constants mu and q are frozen at the start so
the lower-envelope maximum -- the floor under the pulsed component's peak
-- is step-independent, while delta shrinks with the closing coexistence
gap.  The limit profile is checked against the degenerate system.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .model import SystemParams, at_critical_speed, critical_speed, require_strict_weak
from .envelopes import (MIN_REACH, Q_SAFETY, SOLVE_REACH, SelectionKnobs, build_envelopes,
                        left_reach, lower_bump, select_supercritical)
from .certify import certify, select_and_build
from .analyze import classify, right_tail_extrema
from .solve import (
    IterationReport,
    OperatorConfig,
    Profile,
    iterate,
    ode_residual,
    write_profile,
)

#: a base within this distance of the limit is refused ("target not reachable")
LIMIT_GAP = 1e-4
#: the final step lands within this distance of the limit: small enough that
#: the limit profile's residual against the degenerate system is dominated
#: by grid truncation (which refinement shrinks), not by the parameter gap
FINAL_GAP = 1e-7
#: operator for every step; h = 0.04 keeps the quadrature overshoot of the
#: envelope pair an order of magnitude under the sandwich-violation abort
#: threshold
PULSE_CONFIG = OperatorConfig(left=-80.0, right=600.0, n_points=17001,
                              tol=1e-7, max_iters=40000)


@dataclass(frozen=True)
class ContinuationPlan:
    target: str                # "c_to_1_over_a" or "b_to_a"
    base: SystemParams
    speed: float
    steps: Tuple[float, ...]   # successive values of the moving parameter
    knobs: SelectionKnobs      # frozen envelope constants
    config: OperatorConfig
    floor: float               # maximum of the fixed lower envelope


@dataclass(frozen=True)
class StepResult:
    value: float
    profile: Profile
    report: IterationReport
    certified: bool
    max_pulsed: float
    floor_ok: bool


@dataclass(frozen=True)
class PulseResult:
    plan: ContinuationPlan
    steps: List[StepResult]
    limit_profile: Optional[Profile]
    degenerate_residual: Optional[float]
    degenerate_residual_refined: Optional[float]
    tail_verdicts: dict
    failure_index: Optional[int]

    @property
    def passed(self) -> bool:
        return (self.failure_index is None
                and all(st.certified and st.floor_ok for st in self.steps)
                and all(self.tail_verdicts.values()))


#: each continuation target: the coefficient it moves and that coefficient's
#: limit, where the system turns critical-weak
_MOVING = {"c_to_1_over_a": ("c", lambda p: 1.0 / p.a),
           "b_to_a": ("b", lambda p: p.a)}


def _step_params(plan: ContinuationPlan, value: float) -> SystemParams:
    return replace(plan.base, **{_MOVING[plan.target][0]: value})


def degenerate_system(plan: ContinuationPlan) -> SystemParams:
    """The critical-weak system at the exact limit of the continuation."""
    return _step_params(plan, _MOVING[plan.target][1](plan.base))


def plan_continuation(p_base: SystemParams, s: float, target: str,
                      n_steps: int,
                      config: OperatorConfig = PULSE_CONFIG) -> ContinuationPlan:
    """Geometric schedule toward the degenerate limit with frozen envelopes.

    Step distances to the limit halve each step; the final step lands
    within FINAL_GAP of it, and a base within LIMIT_GAP of it is refused.
    The pulsed q (the bump's selection floor at
    the limit, times Q_SAFETY where that floor is only its constant term)
    and the mu placements are computed once and reused at every
    step, which keeps the lower-envelope maximum -- the floor -- fixed.
    Constants that build no envelope set at the base are refused with the
    build's reason.
    """
    require_strict_weak(p_base)
    if s < critical_speed(p_base):
        raise ValueError("subcritical speed")
    if at_critical_speed(p_base, s):
        # cap = 1 there, so mu = 1 and every denominator vanishes; certify
        # switches to the critical selection, which ignores frozen mu/q
        raise ValueError("continuation needs a supercritical speed")
    if target not in _MOVING:
        raise ValueError(f"unknown continuation target {target!r}")
    moving, limit_of = _MOVING[target]
    limit, start = limit_of(p_base), getattr(p_base, moving)
    total = limit - start
    if total <= LIMIT_GAP:
        raise ValueError("target not reachable from the base parameters")
    steps = [limit - total * 0.5 ** k for k in range(1, n_steps)]
    steps.append(limit - min(total * 0.5 ** n_steps, FINAL_GAP))
    if any(s2 <= s1 for s1, s2 in zip([start] + steps, steps)):
        raise ValueError("continuation schedule is not strictly monotone")

    # q is the pulsed bump's selection floor at the limit, where 1 + ac or
    # a^2 + ab becomes 2 coef^2.  Certify's overshoot q lies below it for
    # a > 1, where the certificate of each v-pulse step would refuse it.
    pulse_u = target == "c_to_1_over_a"
    p_lim = replace(p_base, **{moving: limit})
    lim = lower_bump(p_lim, s, "u" if pulse_u else "v", None, None, overshoot=True)
    q = lim.floor
    if q == max(1.0, lim.coef):
        # the floor is only its constant term, at the limit and so at the
        # base too (neither the mu cap nor the denominator moves), and the
        # selection needs q strictly above the base floor
        q *= Q_SAFETY
    pinned = (SelectionKnobs(nonmonotone_u=True, q1=q) if pulse_u
              else SelectionKnobs(nonmonotone_v=True, q2=q))
    ep = select_supercritical(p_base, s, pinned)
    floor = (ep.u if pulse_u else ep.v).fmax
    knobs = SelectionKnobs(mu1=ep.u.mu, mu2=ep.v.mu, q1=ep.u.q, q2=ep.v.q)
    # knobs select ep's bumps at every step, where they do not move, so the
    # base set fails to build (e.g. "delta above envelope maximum" in a dead
    # band near s*) exactly when a step's set does
    build_envelopes(p_base, s, ep)
    return ContinuationPlan(target=target, base=p_base, speed=s,
                            steps=tuple(steps), knobs=knobs, config=config,
                            floor=floor)


def widen_left_edge(plan: ContinuationPlan, keep_h: bool) -> ContinuationPlan:
    """plan with its left edge moved to the minimum over steps of
    left_reach(env, SOLVE_REACH), the rule of `lvfront solve`, if some step's
    envelopes reach the left edge of iterate's "domain too small" test
    (left_reach(env, MIN_REACH)); otherwise plan itself.  keep_h keeps the grid
    spacing by adding points, the left edge rounded out to a whole number of
    steps.
    """
    cfg = plan.config
    envs = [select_and_build(_step_params(plan, value), plan.speed, knobs=plan.knobs)
            for value in plan.steps]
    if all(left_reach(env, MIN_REACH) > cfg.left for env in envs):
        return plan
    left = min(left_reach(env, SOLVE_REACH) for env in envs)
    n_points = cfg.n_points
    if keep_h:
        h = (cfg.right - cfg.left) / (cfg.n_points - 1)
        n_points = math.ceil((cfg.right - left) / h) + 1
        left = cfg.right - (n_points - 1) * h
    return replace(plan, config=replace(cfg, left=left, n_points=n_points))


def _pulsed_component(plan: ContinuationPlan, prof: Profile) -> np.ndarray:
    return prof.u if plan.target == "c_to_1_over_a" else prof.v


def run_continuation(plan: ContinuationPlan, refine: bool = True) -> PulseResult:
    """Solve every step warm-started from the previous profile.

    A warm start only seeds iterate's Newton hand-over, whose result is kept
    only as a verified bracket (IterationReport.handover reads "accepted");
    after a rejected or failed hand-over the step is solved cold.  Each
    step is certified with the frozen constants before solving; the floor
    must survive every step.  The limit profile (last step) is
    checked against the degenerate system obtained at the exact limit,
    optionally re-solved at doubled resolution to confirm the residual
    drops with the grid.
    """
    s = plan.speed
    results: List[StepResult] = []
    warm = None
    failure = None
    for k, value in enumerate(plan.steps):
        p_k = _step_params(plan, value)
        cert = certify(p_k, s, knobs=plan.knobs)
        prof, rep = iterate(cert.envelope, p_k, s, plan.config, warm_start=warm)
        pulsed = _pulsed_component(plan, prof)
        max_pulsed = float(pulsed.max())
        results.append(StepResult(
            value=value, profile=prof, report=rep, certified=cert.passed,
            max_pulsed=max_pulsed,
            floor_ok=max_pulsed >= plan.floor - 1e-8,
        ))
        if not rep.converged:
            failure = k
            break
        warm = (prof.u, prof.v)

    limit_prof = results[-1].profile if results and failure is None else None
    deg_res = deg_res_fine = None
    tails = {}
    if limit_prof is not None:
        p_lim = degenerate_system(plan)
        deg_res = ode_residual(limit_prof, p_lim)
        # the companion is judged against its nullcline given the pulsed tail
        u, v = limit_prof.u[-1], limit_prof.v[-1]
        if plan.target == "c_to_1_over_a":
            pulsed_right, companion_right = abs(u), abs(v - (p_lim.a - p_lim.b * u))
        else:
            pulsed_right, companion_right = abs(v), abs(u - (1.0 - p_lim.c * v))
        tails = {
            "pulsed_right_small": bool(pulsed_right <= 1e-2),
            "companion_right_at_carrying": bool(companion_right <= 1e-2),
            "left_both_small": bool(abs(limit_prof.u[0]) <= 1e-6
                                    and abs(limit_prof.v[0]) <= 1e-6),
        }
        if refine:
            # p_k and cert are still those of the last step, whose
            # certificate the refined solve reuses
            cfg2 = replace(plan.config, n_points=2 * plan.config.n_points - 1)
            grid2 = np.linspace(cfg2.left, cfg2.right, cfg2.n_points)
            warm2 = (np.interp(grid2, limit_prof.grid, limit_prof.u),
                     np.interp(grid2, limit_prof.grid, limit_prof.v))
            prof2, _ = iterate(cert.envelope, p_k, s, cfg2, warm_start=warm2)
            deg_res_fine = ode_residual(prof2, p_lim)
    return PulseResult(plan=plan, steps=results, limit_profile=limit_prof,
                       degenerate_residual=deg_res,
                       degenerate_residual_refined=deg_res_fine,
                       tail_verdicts=tails, failure_index=failure)


@dataclass(frozen=True)
class TailCase:
    case: int                      # 1..4 per eventual monotonicity pattern
    u_oscillates: bool
    v_oscillates: bool
    bracket_ok: Optional[bool]     # companion bracket at extrema (case 2)
    peak_bound_ok: Optional[bool]  # pulsed-peak bound (case 4 style)


def pulse_tail_diagnostics(prof: Profile, p_degenerate: SystemParams) -> TailCase:
    """Classify the right-tail behavior and check its necessary inequalities.

    prof must be converged.  Oscillation follows analyze.right_tail_extrema.
    When v oscillates, each interior v-maximum must satisfy u <= (a - v)/b
    there; at the interior u-maxima of classify, u + v/a <= 1 must hold.
    """
    a, b = p_degenerate.a, p_degenerate.b
    osc_u, _ = right_tail_extrema(prof, "u")
    osc_v, ex_v = right_tail_extrema(prof, "v")
    case = {(False, False): 1, (False, True): 2,
            (True, False): 3, (True, True): 4}[(osc_u, osc_v)]

    def maxima(extrema, component):
        return [int(np.argmin(np.abs(prof.grid - e.location))) for e in extrema
                if e.component == component and e.kind == "max"]

    u_max, v_max = maxima(classify(prof).extrema, "u"), maxima(ex_v, "v")
    bracket_ok = (all(prof.u[i] <= (a - prof.v[i]) / b + 1e-9 for i in v_max)
                  if osc_v else None)
    peak_bound_ok = (all(prof.u[i] + prof.v[i] / a <= 1.0 + 1e-9 for i in u_max)
                     if u_max else None)
    return TailCase(case=case, u_oscillates=osc_u, v_oscillates=osc_v,
                    bracket_ok=bracket_ok, peak_bound_ok=peak_bound_ok)


def write_pulse_result(res: PulseResult, out_dir: str,
                       header_extra: Optional[dict] = None) -> None:
    """One profile CSV per step plus a summary JSON in a directory."""
    os.makedirs(out_dir, exist_ok=True)
    for k, st in enumerate(res.steps):
        base = os.path.join(out_dir, f"step_{k:02d}")
        write_profile(st.profile, base + ".csv", base + ".json",
                      header_extra={"step_value": st.value})
    summary = {
        "target": res.plan.target,
        "speed": res.plan.speed,
        "steps": list(res.plan.steps),
        "floor": res.plan.floor,
        "max_pulsed": [st.max_pulsed for st in res.steps],
        "floor_ok": [st.floor_ok for st in res.steps],
        "iterations": [st.report.iterations_used for st in res.steps],
        "handover": [st.report.handover for st in res.steps],
        "degenerate_residual": res.degenerate_residual,
        "degenerate_residual_refined": res.degenerate_residual_refined,
        "tail_verdicts": res.tail_verdicts,
        "failure_index": res.failure_index,
        "passed": res.passed,
    }
    if header_extra:
        summary.update(header_extra)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)

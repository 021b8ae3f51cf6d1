"""Continuation toward the degenerate limit and the pulse diagnostics."""

import json
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from lvfront import pulse
from lvfront.model import SystemParams, decay_rates
from lvfront.certify import certify
from lvfront.envelopes import Q_SAFETY, ExpBump, lower_bump, min_decay_rate
from lvfront import solve as solve_mod
from lvfront.solve import Profile, iterate
from helpers import assert_gated
from lvfront.pulse import (
    FINAL_GAP,
    LIMIT_GAP,
    degenerate_system,
    plan_continuation,
    pulse_tail_diagnostics,
    run_continuation,
    widen_left_edge,
    write_pulse_result,
    _step_params,
)

P = SystemParams(1.0, 0.5, 0.9, 1.0)


class TestLeftEdge:
    def test_default_pulses_keep_their_domain(self):
        for p, target in ((P, "c_to_1_over_a"), (SystemParams(1.0, 0.5, 0.5, 1.0), "b_to_a")):
            plan = plan_continuation(p, 2.5, target, 8)
            assert widen_left_edge(plan, keep_h=True) is plan

    def test_small_a_v_pulse_moves_left_by_the_solve_rule(self):
        plan = plan_continuation(SystemParams(0.4, 0.2, 1.0, 1.0), 2.5, "b_to_a", 8)
        wide = widen_left_edge(plan, keep_h=False)
        envs = [certify(_step_params(plan, x), 2.5, knobs=plan.knobs).envelope
                for x in plan.steps]
        assert wide.config.left == min(min(env.join_points) - 45.0 / min_decay_rate(env)
                                       for env in envs)
        assert wide.config.n_points == plan.config.n_points
        kept = widen_left_edge(plan, keep_h=True).config
        assert kept.left <= wide.config.left < kept.left + 0.04
        assert (kept.right - kept.left) / (kept.n_points - 1) == pytest.approx(0.04, rel=1e-12)


class TestPlan:
    def test_geometric_schedule(self):
        plan = plan_continuation(P, 2.5, "c_to_1_over_a", 8)
        assert plan.steps[:3] == (0.95, 0.975, 0.9875)
        assert len(plan.steps) == 8
        assert all(s2 > s1 for s1, s2 in zip(plan.steps, plan.steps[1:]))
        assert 1.0 - plan.steps[-1] <= LIMIT_GAP
        assert 1.0 - plan.steps[-1] == pytest.approx(FINAL_GAP, rel=1e-9)

    def test_b_target_mirrors(self):
        plan = plan_continuation(SystemParams(1.0, 0.5, 0.5, 1.0), 2.5,
                                 "b_to_a", 4)
        assert plan.steps[0] == 0.75
        assert plan.steps[-1] == pytest.approx(1.0 - FINAL_GAP, rel=1e-9)

    def test_floor_is_fixed_lower_envelope_maximum(self):
        plan = plan_continuation(P, 2.5, "c_to_1_over_a", 8)
        assert 0.0 < plan.floor < 1.0
        # frozen constants: every step sees the same floor
        assert plan.knobs.mu1 is not None and plan.knobs.q1 is not None

    def test_step_params_mapping(self):
        plan_c = plan_continuation(P, 2.5, "c_to_1_over_a", 4)
        p1 = _step_params(plan_c, 0.97)
        assert (p1.a, p1.b, p1.c, p1.d) == (P.a, P.b, 0.97, P.d)
        plan_b = plan_continuation(SystemParams(1.0, 0.5, 0.5, 1.0), 2.5,
                                   "b_to_a", 4)
        p2 = _step_params(plan_b, 0.8)
        assert (p2.a, p2.b, p2.c, p2.d) == (1.0, 0.8, 0.5, 1.0)

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown continuation target"):
            plan_continuation(P, 2.5, "d_to_zero", 4)

    def test_unreachable_target(self):
        near = SystemParams(1.0, 0.5, 1.0 - 5e-5, 1.0)
        with pytest.raises(ValueError, match="not reachable"):
            plan_continuation(near, 2.5, "c_to_1_over_a", 4)

    def test_schedule_that_stalls_in_floats_is_refused(self):
        # total * 0.5^k falls below half the float spacing at the limit 1/c,
        # so the last two steps both round to 1/c itself
        p = SystemParams(1.0, 0.5, 0.9, 1.0)
        with pytest.raises(ValueError, match="^continuation schedule is not strictly monotone$"):
            plan_continuation(p, 2.5, "c_to_1_over_a", 52)
        assert len(plan_continuation(p, 2.5, "c_to_1_over_a", 45).steps) == 45

    def test_subcritical_speed_rejected(self):
        with pytest.raises(ValueError, match="subcritical"):
            plan_continuation(P, 1.5, "c_to_1_over_a", 4)

    def test_out_of_regime_rejected(self):
        assert_gated("pulse")

    @pytest.mark.parametrize("target", ["c_to_1_over_a", "b_to_a"])
    def test_critical_speed_rejected(self, target):
        # s* = 2: the mu cap is 1 there, so every bump denominator vanishes
        with pytest.raises(ValueError, match="needs a supercritical speed"):
            plan_continuation(P, 2.0, target, 4)

    def test_pulsed_q_is_bare_two_over_denominator(self):
        plan = plan_continuation(P, 2.5, "c_to_1_over_a", 8)
        r = decay_rates(P, 2.5)
        cap = min(r.lambda3 / r.lambda1, (r.lambda1 + r.lambda2) / r.lambda1, 2.0)
        mu = 1.0 + 0.9 * (cap - 1.0)
        denom = -((mu * r.lambda1) ** 2) + 2.5 * mu * r.lambda1 - 1.0
        floor = max(1.0, (1.0 + P.a * P.c) / denom)
        assert plan.knobs.mu1 == pytest.approx(mu, rel=1e-12)
        assert plan.knobs.q1 == pytest.approx(2.0 / denom, rel=1e-12)
        assert plan.knobs.q1 == pytest.approx(4.233, abs=1e-3)
        # not certify's overshoot q, max(2/denominator, 1.1 * floor)
        assert max(2.0 / denom, 1.1 * floor) == pytest.approx(4.423, abs=1e-3)

    @pytest.mark.parametrize("p,target", [(P, "c_to_1_over_a"),
                                          (SystemParams(1.0, 0.5, 0.5, 1.0), "b_to_a")])
    def test_floor_and_knobs_are_the_selected_envelope(self, p, target):
        # the floor is the maximum of the pulsed bump that the frozen knobs
        # select, and those knobs certify at the base parameters
        plan = plan_continuation(p, 2.5, target, 8)
        r, k = decay_rates(p, 2.5), plan.knobs
        if target == "c_to_1_over_a":
            floor = ExpBump(1.0, r.lambda1, k.mu1, k.q1).fmax
        else:
            floor = ExpBump(p.a, r.lambda2, k.mu2, k.q2).fmax
        assert plan.floor == floor
        assert certify(p, 2.5, knobs=plan.knobs).passed

    @pytest.mark.parametrize("p,target", [(P, "c_to_1_over_a"), (P, "b_to_a"),
                                          (SystemParams(2.0, 1.0, 0.3, 0.4), "b_to_a")])
    def test_pulsed_q_is_the_selection_floor_at_the_limit(self, p, target):
        plan = plan_continuation(p, 2.5, target, 8)
        component, q = ("u", plan.knobs.q1) if target == "c_to_1_over_a" else ("v", plan.knobs.q2)
        limit = lower_bump(degenerate_system(plan), 2.5, component, None, None, overshoot=True)
        assert q == limit.floor

    def test_constant_floor_at_the_limit_takes_the_safety_margin(self):
        # at a = 0.3 the limit floor is its constant term max(1, a) = 1, the
        # base floor too, which the selection refuses as a pin
        p = SystemParams(0.3, 0.15, 1.0, 1.0)
        plan = plan_continuation(p, 2.5, "b_to_a", 8)
        limit = lower_bump(degenerate_system(plan), 2.5, "v", None, None, overshoot=True)
        assert limit.floor == 1.0
        assert plan.knobs.q2 == Q_SAFETY * limit.floor
        assert certify(p, 2.5, knobs=plan.knobs).passed


@pytest.fixture(scope="module")
def short_run():
    plan = plan_continuation(SystemParams(1.0, 0.5, 0.5, 1.0), 2.5,
                             "b_to_a", 4)
    return plan, run_continuation(plan, refine=False)


class TestRun:
    def test_all_steps_converge_and_hold_floor(self, short_run):
        plan, res = short_run
        assert res.failure_index is None
        assert len(res.steps) == 4
        for st in res.steps:
            assert st.report.converged
            assert st.certified
            assert st.max_pulsed >= plan.floor - 1e-8

    def test_limit_tails(self, short_run):
        _, res = short_run
        assert res.tail_verdicts["pulsed_right_small"]
        assert res.tail_verdicts["companion_right_at_carrying"]
        assert res.tail_verdicts["left_both_small"]
        lp = res.limit_profile
        assert abs(lp.v[-1]) <= 1e-2          # pulsed component dies out
        assert abs(lp.u[-1] - 1.0) <= 1e-2    # companion reaches carrying value

    def test_degenerate_residual(self, short_run):
        _, res = short_run
        assert res.degenerate_residual is not None
        assert res.degenerate_residual <= 1e-3
        assert res.degenerate_residual_refined is None  # refine=False

    def test_warm_starts_speed_up_late_steps(self, short_run):
        _, res = short_run
        iters = [st.report.iterations_used for st in res.steps]
        # warm-started steps should not blow past the cold first step by much
        assert max(iters[1:]) <= 4 * iters[0]

    def test_passed_summary(self, short_run):
        _, res = short_run
        assert res.passed


@pytest.fixture(scope="module")
def u_pulse():
    plan = plan_continuation(P, 2.5, "c_to_1_over_a", 8)
    return plan, run_continuation(plan, refine=False)


class TestNewtonCorrector:
    """Each warm step is corrected by Newton into a verified bracket."""

    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_warm_step_brackets_the_cold_answer(self, u_pulse, k, monkeypatch):
        # the cold reference is Picard alone
        monkeypatch.setattr(solve_mod, "NEWTON_WARMUP", math.inf)
        plan, res = u_pulse
        rep, prof = res.steps[k].report, res.steps[k].profile
        assert rep.handover == "accepted" and rep.converged
        assert rep.pair_gap_history[0] > 0.0
        p_k = _step_params(plan, plan.steps[k])
        env = certify(p_k, plan.speed, knobs=plan.knobs).envelope
        cold, cold_rep = iterate(env, p_k, plan.speed, plan.config)
        assert cold_rep.converged and cold_rep.handover == "none"
        assert np.abs(prof.u - cold.u).max() <= plan.config.tol
        assert np.abs(prof.v - cold.v).max() <= plan.config.tol

    def test_accepted_warm_solve_fits_in_36_arrays(self, u_pulse):
        plan, res = u_pulse
        p1 = _step_params(plan, plan.steps[1])
        env = certify(p1, plan.speed, knobs=plan.knobs).envelope
        warm = (res.steps[0].profile.u, res.steps[0].profile.v)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _, rep = iterate(env, p1, plan.speed, plan.config, warm_start=warm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.handover == "accepted"
        assert peak - start <= 36 * plan.config.n_points * 8

    def test_bench_pulse_factors_fewer_than_60_newton_matrices(self, monkeypatch):
        # the benchmark's u-pulse, refined: one Newton run per hand-over
        # factors 50-odd matrices, two runs per hand-over factored 71
        factor, calls = solve_mod._newton_factor, []
        monkeypatch.setattr(solve_mod, "_newton_factor", lambda *a: calls.append(1) or factor(*a))
        res = run_continuation(plan_continuation(P, 2.5, "c_to_1_over_a", 8), refine=True)
        assert all(st.report.handover == "accepted" for st in res.steps)
        assert len(calls) < 60

    def test_bench_pulse_factors_at_most_30_newton_matrices(self, monkeypatch):
        # the benchmark's u-pulse, refined: the secant predictor and chord
        # steps on the live factor; plain warm starts that factor every
        # Newton step take 43 factorisations
        factor, solve, factors, steps = solve_mod._newton_factor, solve_mod._newton_solve, [], []

        def counted_solve(*args, **kwargs):
            if kwargs.get("v_sign", 1.0) > 0.0:   # a step, not e
                steps.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(solve_mod, "_newton_factor",
                            lambda *a: factors.append(1) or factor(*a))
        monkeypatch.setattr(solve_mod, "_newton_solve", counted_solve)
        res = run_continuation(plan_continuation(P, 2.5, "c_to_1_over_a", 8), refine=True)
        assert all(st.report.handover == "accepted" for st in res.steps)
        assert all(st.report.iterations_used == 1 for st in res.steps[1:])
        assert len(factors) <= 30 and len(steps) > len(factors)

    def test_summary_lists_each_hand_over(self, u_pulse, tmp_path):
        _, res = u_pulse
        write_pulse_result(res, str(tmp_path))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["handover"] == [st.report.handover for st in res.steps]
        assert summary["newton_factors"] == [st.report.newton_factors for st in res.steps]
        assert summary["newton_steps"] == [st.report.newton_steps for st in res.steps]
        # the cold first step is predicted to outlast a hand-over's cost
        assert summary["handover"][0] == "accepted"
        assert max(summary["iterations"][1:]) < 10


class TestDiagnostics:
    def _profile(self, u, v, g):
        return Profile(grid=g, u=u, v=v, speed=2.5,
                       params=SystemParams(1.0, 0.5, 1.0, 1.0),
                       residual=0.0, converged=True)

    def test_monotone_tails_case1(self):
        g = np.linspace(-40.0, 40.0, 4001)
        u = np.exp(-np.abs(g) / 10.0) * 0.3
        v = 0.5 * (1.0 + np.tanh(0.3 * g))
        diag = pulse_tail_diagnostics(self._profile(u, v, g),
                                      SystemParams(1.0, 0.5, 1.0, 1.0))
        assert diag.case == 1
        assert not diag.u_oscillates and not diag.v_oscillates

    def test_v_oscillation_case2_bracket(self):
        g = np.linspace(-40.0, 40.0, 4001)
        u = np.zeros_like(g)
        v = 0.45 * (1.0 + np.tanh(0.3 * g)) + 0.01 * np.sin(g) * (g > 25.0)
        diag = pulse_tail_diagnostics(self._profile(u, v, g),
                                      SystemParams(1.0, 0.5, 1.0, 1.0))
        assert diag.case == 2
        assert diag.v_oscillates
        assert diag.bracket_ok  # u = 0 trivially below (a - v)/b at v-maxima

    def test_peak_bound_checked_at_u_maxima(self):
        g = np.linspace(-40.0, 40.0, 4001)
        u = 0.3 * np.exp(-((g - 0.0) / 5.0) ** 2)
        v = 0.5 * (1.0 + np.tanh(0.3 * g))
        diag = pulse_tail_diagnostics(self._profile(u, v, g),
                                      SystemParams(1.0, 0.5, 1.0, 1.0))
        assert diag.peak_bound_ok is not None


def test_failed_newton_hand_over_warns_nothing(monkeypatch):
    # the small-a v-pulse's first step, warm-started from its upper envelope
    # pair with the cold pair's own hand-over forbidden: Newton diverges,
    # and Picard goes on from where the hand-over began, as the cold run
    monkeypatch.setattr(solve_mod, "NEWTON_WARMUP", math.inf)
    plan = plan_continuation(SystemParams(0.3, 0.15, 1.0, 1.0), 2.5, "b_to_a", 8)
    plan = widen_left_edge(plan, keep_h=True)
    p0 = _step_params(plan, plan.steps[0])
    env = certify(p0, 2.5, knobs=plan.knobs).envelope
    cfg = plan.config
    grid = np.linspace(cfg.left, cfg.right, cfg.n_points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, rep = iterate(env, p0, 2.5, cfg, warm_start=(env.u_upper(grid), env.v_lower(grid)))
    assert rep.handover == "newton_failed" and rep.newton_exit == "diverged"
    assert rep.converged and rep.iterations_used == 247


def test_secant_predictor_from_the_third_step_on(monkeypatch):
    # step 1 starts from step 0's profile, each later step from the line
    # through the last two profiles, and the refined solve from the limit
    # profile interpolated onto its grid
    starts = []

    def recorded(env, p, s, cfg, warm_start=None):
        starts.append(warm_start)
        return iterate(env, p, s, cfg, warm_start=warm_start)

    monkeypatch.setattr(pulse, "iterate", recorded)
    plan = plan_continuation(SystemParams(1.0, 0.5, 0.5, 1.0), 2.5, "b_to_a", 3)
    res = run_continuation(plan, refine=True)
    assert res.degenerate_residual_refined is not None and len(starts) == 4
    (b0, b1, b2), (p0, p1, p2) = plan.steps, [st.profile for st in res.steps]
    assert starts[0] is None
    assert starts[1][0] is p0.u and starts[1][1] is p0.v
    t = (b2 - b1) / (b1 - b0)
    assert np.array_equal(starts[2][0], p1.u + t * (p1.u - p0.u))
    assert np.array_equal(starts[2][1], p1.v + t * (p1.v - p0.v))
    assert not np.array_equal(starts[2][0], p1.u)
    grid2 = np.linspace(plan.config.left, plan.config.right, 2 * plan.config.n_points - 1)
    assert np.array_equal(starts[3][0], np.interp(grid2, p2.grid, p2.u))
    assert np.array_equal(starts[3][1], np.interp(grid2, p2.grid, p2.v))


def test_one_certificate_per_step(monkeypatch):
    # the refined solve reuses the last step's certificate
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return certify(*args, **kwargs)

    plan = plan_continuation(SystemParams(1.0, 0.5, 0.5, 1.0), 2.5, "b_to_a", 2)
    monkeypatch.setattr(pulse, "certify", counted)
    res = run_continuation(plan, refine=True)
    assert res.degenerate_residual_refined is not None
    assert len(calls) == len(plan.steps) == 2


@pytest.mark.parametrize("target", ["b_to_a", "c_to_1_over_a"])
@pytest.mark.parametrize("offset,held", [(0.0, True), (0.02, False)])
def test_companion_is_judged_against_its_nullcline(monkeypatch, target, offset, held):
    # a synthetic limit profile whose pulsed tail is still 0.0085 at the
    # right edge and whose companion sits offset off its nullcline there,
    # 1 - c v for u (b -> a) and a - b u for v (c -> 1/a)
    p = SystemParams(0.339, 0.323, 1.557, 0.904)
    plan = plan_continuation(p, 2.5, target, 2)
    t = np.linspace(0.0, 1.0, 401)
    pulsed = 0.2 * np.sin(np.pi * t) ** 2 + 0.0085 * t
    if target == "b_to_a":
        companion = t * (1.0 - p.c * 0.0085 + offset)
    else:
        companion = t * (p.a - p.b * 0.0085 + offset)
    u, v = (companion, pulsed) if target == "b_to_a" else (pulsed, companion)
    prof = Profile(grid=np.linspace(-100.0, 100.0, t.size), u=u, v=v, speed=2.5,
                   params=p, residual=0.0, converged=True)
    monkeypatch.setattr(pulse, "iterate",
                        lambda *args, **kwargs: (prof, SimpleNamespace(converged=True)))
    res = run_continuation(plan, refine=False)
    assert res.tail_verdicts["pulsed_right_small"]
    assert res.tail_verdicts["left_both_small"]
    assert res.tail_verdicts["companion_right_at_carrying"] == held

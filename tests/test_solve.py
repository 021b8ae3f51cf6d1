"""Integral-operator solver: kernel exactness, iteration, tails, residuals."""

import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lvfront.model import SystemParams, equilibria
from lvfront.certify import certify
from lvfront.solve import (
    IterationReport,
    OperatorConfig,
    apply_P,
    iterate,
    kernel_rates,
    ode_residual,
    tail_check,
)
import dataclasses
from dataclasses import replace
from types import SimpleNamespace
from lvfront.envelopes import min_decay_rate
from lvfront.model import critical_speed
from lvfront.solve import BETA_MARGIN, CLIP_ABORT_TOL, shift_bounds
from lvfront import solve as solve_mod
from lvfront.solve import (_band_apply, _kernel_apply, _kernel_bands, _newton_factor,
                           _newton_solve)
from lvfront.solve import (CLIP_EVENT_TOL, CSV_BLOCK_ROWS, _clip_to, _kernel_coefficients,
                           write_csv)
from scipy.signal import lfilter
from helpers import constant_image, translated

P = SystemParams(1.0, 0.5, 0.5, 1.0)
S = 3.0
CFG = OperatorConfig(left=-100.0, right=120.0, n_points=4401, tol=1e-10,
                     max_iters=5000)


@pytest.fixture(scope="module")
def solved():
    cert = certify(P, S)
    prof, rep = iterate(cert.envelope, P, S, CFG)
    return cert, prof, rep


@pytest.fixture(scope="module")
def picard(solved):
    """The solve of `solved` with the Newton hand-over forbidden."""
    cert = solved[0]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solve_mod, "NEWTON_COST", math.inf)
        prof, rep = iterate(cert.envelope, P, S, CFG)
    return cert, prof, rep


class TestKernel:
    def test_rates_bracket_zero(self):
        (a1, g1), (a2, g2) = kernel_rates(P, S, (2.0, 2.0))
        assert a1 < 0.0 < g1
        assert a2 < 0.0 < g2

    @given(K1=st.floats(0.0, 1.0), K2=st.floats(0.0, 1.0))
    @settings(max_examples=25)
    def test_constants_map_to_reaction_over_beta(self, K1, K2):
        beta = 1.05 * max(1.0 + P.a * P.c, P.a + P.b)
        Pu, Pv = constant_image(K1, K2, P, S, (beta, beta), 0.1, 801)
        F1 = beta * K1 + K1 * (1.0 - K1 - P.c * K2)
        F2 = beta * K2 + K2 * (P.a - P.b * K1 - K2)
        assert np.abs(Pu - F1 / beta).max() < 1e-10
        assert np.abs(Pv - F2 / beta).max() < 1e-10

    def test_rejects_nonfinite_input(self):
        u = np.full(101, 0.5)
        v = np.full(101, 0.5)
        u[50] = np.nan
        with pytest.raises(ValueError, match="invalid input profile"):
            apply_P(u, v, P, S, (2.0, 2.0), 0.1, (0.5, 0.5))


class TestIterate:
    def test_converges_with_zero_clip_events(self, solved):
        _, prof, rep = solved
        assert rep.converged
        assert prof.converged
        assert sum(rep.sandwich_violations) == 0
        assert rep.residual_history[-1] < CFG.tol
        assert rep.pair_gap_history[-1] < CFG.tol

    def test_residual_small(self, solved):
        _, prof, _ = solved
        assert prof.residual < 1e-8

    def test_profile_between_envelopes(self, solved):
        cert, prof, _ = solved
        env = cert.envelope
        g = prof.grid
        assert np.all(prof.u <= env.u_upper(g) + 1e-9)
        assert np.all(prof.u >= env.u_lower(g) - 1e-9)
        assert np.all(prof.v <= env.v_upper(g) + 1e-9)
        assert np.all(prof.v >= env.v_lower(g) - 1e-9)

    def test_connects_extinction_to_coexistence(self, solved):
        _, prof, _ = solved
        ustar, vstar = equilibria(P).coexistence
        assert abs(prof.u[0]) < 1e-8 and abs(prof.v[0]) < 1e-8
        assert prof.u[-1] == pytest.approx(ustar, abs=1e-8)
        assert prof.v[-1] == pytest.approx(vstar, abs=1e-8)

    def test_domain_too_small_rejected(self):
        cert = certify(P, S)
        bad = OperatorConfig(left=-5.0, right=40.0, n_points=901)
        with pytest.raises(ValueError, match="domain too small"):
            iterate(cert.envelope, P, S, bad)

    def test_warm_start_faster_than_cold(self, solved):
        cert, prof, rep = solved
        _, rep2 = iterate(cert.envelope, P, S, CFG, warm_start=(prof.u, prof.v))
        assert rep2.converged
        assert rep2.iterations_used < rep.iterations_used

    def test_max_iters_exhaustion_reported_not_raised(self):
        cert = certify(P, S)
        cfg = OperatorConfig(left=-100.0, right=120.0, n_points=2201,
                             tol=1e-12, max_iters=5)
        prof, rep = iterate(cert.envelope, P, S, cfg)
        assert not rep.converged and not prof.converged
        assert rep.iterations_used == 5


@pytest.fixture()
def apply_p_calls(monkeypatch):
    """A list that grows by one at each apply_P call made inside lvfront.solve."""
    calls = []
    apply_p = solve_mod.apply_P
    monkeypatch.setattr(solve_mod, "apply_P", lambda *a, **k: calls.append(1) or apply_p(*a, **k))
    return calls


@pytest.fixture()
def newton_calls(monkeypatch):
    """A list that grows by one at each Newton run made inside lvfront.solve."""
    calls = []
    newton = solve_mod._clipped_newton
    monkeypatch.setattr(solve_mod, "_clipped_newton", lambda *a: calls.append(1) or newton(*a))
    return calls


def _broken_newton(outcome):
    """_clipped_newton made to fail: it diverges at once for "newton_failed",
    and for "rejected" returns an answer perturbed so that its seed is not
    verified."""
    newton = solve_mod._clipped_newton

    def broken(X, *args):
        if outcome == "newton_failed":
            return solve_mod.NewtonRun(None, None, 0, 0, "diverged")
        run = newton(X, *args)
        return run._replace(x=run.x * (1.0 + 1e-6 * np.sin(np.arange(X.shape[1]))))

    return broken


class TestWarmStart:
    """A warm start only seeds the Newton hand-over; when that fails, the run
    is the cold run."""

    @pytest.mark.parametrize("outcome", ["rejected", "newton_failed"])
    def test_failed_hand_over_is_the_cold_run(self, picard, monkeypatch, outcome):
        # every Newton run fails or is perturbed, so the cold pair's own
        # hand-over fails too, and the cold run is Picard alone
        monkeypatch.setattr(solve_mod, "_clipped_newton", _broken_newton(outcome))
        cert, ref_prof, ref = picard
        warm = (ref_prof.u * (1.0 + 1e-3 * np.sin(ref_prof.grid)), ref_prof.v)
        prof, rep = iterate(cert.envelope, P, S, CFG, warm_start=warm)
        assert rep.handover == outcome and ref.handover == "none"
        assert rep.iterations_used == ref.iterations_used
        assert np.array_equal(rep.residual_history, ref.residual_history)
        assert np.array_equal(rep.pair_gap_history, ref.pair_gap_history)
        assert rep.pair_gap_history[0] > 0.0
        assert rep.sandwich_violations == ref.sandwich_violations
        assert rep.beta_used == ref.beta_used
        assert np.array_equal(prof.u, ref_prof.u) and np.array_equal(prof.v, ref_prof.v)
        assert prof.residual == ref_prof.residual

    def test_failed_warm_seed_leaves_the_cold_hand_over(self, solved, monkeypatch):
        # only the warm seed's Newton run fails; the cold pair then hands
        # over at its own step, as the cold run does
        newton, calls = solve_mod._clipped_newton, []

        def failing_once(X, *args):
            calls.append(1)
            return (solve_mod.NewtonRun(None, None, 0, 0, "diverged") if len(calls) == 1
                    else newton(X, *args))

        monkeypatch.setattr(solve_mod, "_clipped_newton", failing_once)
        cert, ref_prof, ref = solved
        warm = (ref_prof.u * (1.0 + 1e-3 * np.sin(ref_prof.grid)), ref_prof.v)
        prof, rep = iterate(cert.envelope, P, S, CFG, warm_start=warm)
        assert ref.handover == "accepted" and len(calls) == 2
        for field in dataclasses.fields(IterationReport):
            got, want = getattr(rep, field.name), getattr(ref, field.name)
            assert (np.array_equal(got, want) if isinstance(want, np.ndarray)
                    else got == want), field.name
        assert np.array_equal(prof.u, ref_prof.u) and np.array_equal(prof.v, ref_prof.v)
        assert prof.residual == ref_prof.residual

    def test_accepted_hand_over_brackets_the_cold_answer(self, solved):
        cert, prof, _ = solved
        grid = prof.grid
        warm = (prof.u * (1.0 + 1e-3 * np.sin(grid)), prof.v)
        wprof, wrep = iterate(cert.envelope, P, S, CFG, warm_start=warm)
        assert wrep.handover == "accepted" and wrep.converged
        assert wrep.pair_gap_history[0] > 0.0
        assert sum(wrep.sandwich_violations) == 0
        assert np.abs(wprof.u - prof.u).max() <= CFG.tol
        assert np.abs(wprof.v - prof.v).max() <= CFG.tol

    @pytest.mark.parametrize("amplitude", [0.0, 1e-3])
    def test_accepted_warm_step_runs_newton_once(self, solved, newton_calls, amplitude):
        # Newton refits its shifts at each step, so no second run follows
        cert, prof, _ = solved
        warm = (prof.u * (1.0 + amplitude * np.sin(prof.grid)), prof.v)
        _, rep = iterate(cert.envelope, P, S, CFG, warm_start=warm)
        assert rep.handover == "accepted" and len(newton_calls) == 1

    def test_cold_solve_applies_P_twice_per_step(self, picard, monkeypatch, apply_p_calls):
        monkeypatch.setattr(solve_mod, "NEWTON_COST", math.inf)
        cert, _, rep = picard
        _, rep2 = iterate(cert.envelope, P, S, CFG)
        assert rep2.iterations_used == rep.iterations_used
        assert len(apply_p_calls) == 2 * rep.iterations_used + 1


class TestAccuracy:
    def test_grid_refinement_contracts(self):
        cert = certify(P, S)
        profs = []
        for n in (2201, 4401, 8801):
            cfg = OperatorConfig(left=-100.0, right=120.0, n_points=n,
                                 tol=1e-11, max_iters=5000)
            prof, rep = iterate(cert.envelope, P, S, cfg)
            assert rep.converged
            profs.append(prof)
        g = profs[0].grid
        d1 = max(np.abs(np.interp(g, profs[1].grid, profs[1].u) - profs[0].u).max(),
                 np.abs(np.interp(g, profs[1].grid, profs[1].v) - profs[0].v).max())
        d2 = max(np.abs(np.interp(g, profs[2].grid, profs[2].u)
                        - np.interp(g, profs[1].grid, profs[1].u)).max(),
                 np.abs(np.interp(g, profs[2].grid, profs[2].v)
                        - np.interp(g, profs[1].grid, profs[1].v)).max())
        assert d2 < d1  # refinement must keep contracting

    def test_translation_covariance(self, solved):
        cert, prof, _ = solved
        delta = 4.0
        env2 = translated(cert.envelope, delta)
        prof2, rep2 = iterate(env2, P, S, CFG)
        assert rep2.converged
        inner = (prof.grid > CFG.left + delta + 1.0) & (prof.grid < CFG.right - 1.0)
        shifted_u = np.interp(prof.grid[inner] - delta, prof.grid, prof.u)
        shifted_v = np.interp(prof.grid[inner] - delta, prof.grid, prof.v)
        assert np.abs(prof2.u[inner] - shifted_u).max() < 1e-6
        assert np.abs(prof2.v[inner] - shifted_v).max() < 1e-6

    def test_ode_residual_small(self, solved):
        _, prof, _ = solved
        assert ode_residual(prof, P) < 1e-4


class TestTailCheck:
    def test_passes_on_converged_profile(self, solved):
        cert, prof, _ = solved
        tr = tail_check(prof, P, cert.envelope)
        assert tr.passed
        assert tr.right_ok and tr.increasing_ok and tr.left_bound_ok
        finite = [x for x in tr.entry_abscissas]
        assert all(np.isfinite(finite))
        assert all(x2 >= x1 - 1e-12 for x1, x2 in zip(finite, finite[1:]))

    def test_attached_report_round_trips(self, solved):
        cert, prof, _ = solved
        tr = tail_check(prof, P, cert.envelope)
        prof2 = replace(prof, tail_report=tr)
        assert prof2.tail_report is tr
        assert prof2.u is prof.u

    def test_fails_when_tail_truncated(self, solved):
        cert, prof, _ = solved
        # chop the domain so the profile never settles near coexistence
        cut = prof.grid < 0.0
        from dataclasses import replace
        short = replace(prof, grid=prof.grid[cut], u=prof.u[cut], v=prof.v[cut])
        tr = tail_check(short, P, cert.envelope)
        assert not tr.passed


class TestAdaptiveShift:
    @given(K1=st.floats(0.0, 1.0), K2=st.floats(0.0, 1.0),
           beta_u=st.floats(0.3, 3.0), beta_v=st.floats(0.3, 3.0))
    @settings(max_examples=25)
    def test_constants_map_to_reaction_over_own_beta(self, K1, K2, beta_u, beta_v):
        Pu, Pv = constant_image(K1, K2, P, S, (beta_u, beta_v), 0.1, 801)
        F1 = beta_u * K1 + K1 * (1.0 - K1 - P.c * K2)
        F2 = beta_v * K2 + K2 * (P.a - P.b * K1 - K2)
        assert np.abs(Pu - F1 / beta_u).max() < 1e-10
        assert np.abs(Pv - F2 / beta_v).max() < 1e-10

    @pytest.mark.parametrize("p", [
        P, SystemParams(1.0, 25.0 / 26.0, 0.5, 1.0),
        SystemParams(0.5, 0.25, 1.0, 1.0), SystemParams(1.6, 1.2, 0.3, 2.0),
    ])
    def test_bounds_on_the_box_are_the_corner_values(self, p):
        beta_u, beta_v = shift_bounds(p, np.ones(7), np.full(7, p.a))
        assert beta_u == pytest.approx(BETA_MARGIN * (1.0 + p.a * p.c), rel=1e-14)
        assert beta_v == pytest.approx(BETA_MARGIN * (p.a + p.b), rel=1e-14)
        assert max(beta_u, beta_v) == pytest.approx(
            BETA_MARGIN * max(1.0 + p.a * p.c, p.a + p.b), rel=1e-14)

    def test_bounds_positive_at_extinction(self):
        beta_u, beta_v = shift_bounds(P, np.zeros(7), np.zeros(7))
        assert (beta_u, beta_v) == (1.0 + P.a * P.c, P.a + P.b)
        assert beta_u > 0.0 and beta_v > 0.0

    @pytest.fixture(scope="class")
    def fixed(self):
        """The pair loop of iterate under one fixed shift for both
        components, the larger of the two bounds on the box [0,1] x [0,a]."""
        env = certify(P, S).envelope
        grid = np.linspace(CFG.left, CFG.right, CFG.n_points)
        h, star = grid[1] - grid[0], equilibria(P).coexistence
        lo = np.maximum([env.u_lower(grid), env.v_lower(grid)], 0.0)
        hi = np.minimum([env.u_upper(grid), env.v_upper(grid)], [[1.0], [P.a]])
        beta = max(shift_bounds(P, np.ones(1), np.full(1, P.a)))
        X = [np.array([hi[0], lo[1]]), np.array([lo[0], hi[1]])]   # upper pair, lower pair
        for iterations in range(1, CFG.max_iters + 1):
            nX = [np.array(apply_P(*x, P, S, (beta, beta), h, star)) for x in X]
            assert all(np.all(y >= lo - CLIP_ABORT_TOL) and np.all(y <= hi + CLIP_ABORT_TOL)
                       for y in nX)
            nX = [np.clip(y, lo, hi) for y in nX]
            step = max(np.abs(y - x).max() for y, x in zip(nX, X))
            gap = np.abs(nX[0] - nX[1]).max()
            X = nX
            if step < CFG.tol and gap < CFG.tol:
                break
        u, v = 0.5 * (X[0] + X[1])
        return SimpleNamespace(u=u, v=v, iterations_used=iterations,
                               converged=step < CFG.tol and gap < CFG.tol,
                               beta_used=(beta, beta))

    def test_fewer_iterations_than_fixed_shift(self, picard, fixed):
        _, prof, rep = picard
        assert rep.converged and fixed.converged
        assert sum(rep.sandwich_violations) == 0
        assert rep.iterations_used < fixed.iterations_used

    def test_same_profile_as_fixed_shift(self, solved, fixed):
        _, prof, _ = solved
        assert np.abs(prof.u - fixed.u).max() < 1e-4
        assert np.abs(prof.v - fixed.v).max() < 1e-4

    def test_reported_shifts(self, solved, fixed):
        _, _, rep = solved
        beta = 1.05 * max(1.0 + P.a * P.c, P.a + P.b)
        assert fixed.beta_used == (beta, beta)
        # a monotone front peaks at the coexistence state, where the
        # bounds reduce to BETA_MARGIN * (u*, v*)
        ustar, vstar = equilibria(P).coexistence
        assert rep.beta_used[0] == pytest.approx(BETA_MARGIN * ustar, abs=1e-6)
        assert rep.beta_used[1] == pytest.approx(BETA_MARGIN * vstar, abs=1e-6)

    @given(a=st.floats(0.5, 0.8), b_frac=st.floats(0.1, 0.4),
           ac=st.floats(0.1, 0.4), d=st.floats(0.5, 1.0),
           s_frac=st.floats(1.02, 2.0))
    @settings(max_examples=12, deadline=None)
    def test_keeps_the_bracket_on_strict_weak_draws(self, a, b_frac, ac, d, s_frac):
        p = SystemParams(a, b_frac * a, ac / a, d)
        s = s_frac * critical_speed(p)
        cert = certify(p, s)
        assert cert.passed
        env = cert.envelope
        left = min(-60.0, min(env.join_points) - 25.0 / min_decay_rate(env))
        cfg = OperatorConfig(left=left, right=60.0, n_points=4001)
        _, rep = iterate(env, p, s, cfg)
        assert rep.converged
        assert sum(rep.sandwich_violations) == 0


class TestKernelBands:
    @pytest.mark.parametrize("h, alpha, gamma, dcoef", [
        (0.025, -1.2, 3.1, 1.0),
        (0.1, -0.3, 0.8, 0.7),
        (0.5, -2.0, 5.0, 1.3),
        (0.05, -0.01, 400.0, 1.0),   # stiff right rate: gamma*h = 20
        (0.2, -150.0, 0.05, 2.0),    # stiff left rate: alpha*h = -30
    ])
    @pytest.mark.parametrize("n", [2, 3, 500, 54401])
    def test_kernel_times_T_is_M(self, h, alpha, gamma, dcoef, n):
        F = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        T, M = _kernel_bands(h, alpha, gamma, dcoef)
        lhs = _band_apply(T, _kernel_apply(F, h, alpha, gamma, dcoef, 0.0, 0.0))
        rhs = _band_apply(M, F)
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

    # T's first and last rows differ from the interior product: small n
    # stresses them most
    @pytest.mark.parametrize("n", [2, 3, 40])
    def test_newton_system_against_dense_jacobian(self, n):
        h, s, beta = 0.3, S, (1.3, 0.9)
        rng = np.random.default_rng(3)
        X = rng.uniform(0.05, 0.6, (2, n))
        active = rng.uniform(size=(2, n)) < 0.2
        rhs = rng.uniform(-1.0, 1.0, (2, n))
        rates = kernel_rates(P, s, beta)
        kernels = [_kernel_bands(h, al, ga, dc) for (al, ga), dc in zip(rates, (1.0, P.d))]
        W, free = np.abs(X), ~active
        # the band is refilled over an earlier factor, as in a Newton run
        ab = np.full((n, 2, 10), np.nan)
        _newton_factor(ab, X[::-1], W[::-1], free, P, beta, kernels)
        piv = _newton_factor(ab, X, W, free, P, beta, kernels)
        delta = _newton_solve(ab, piv, X, W, free, rhs, P, beta, kernels)
        # dense DP: kernel columns times the pointwise reaction Jacobian
        K = [np.column_stack([_kernel_apply(col, h, al, ga, dc, 0.0, 0.0)
                              for col in np.eye(n)])
             for (al, ga), dc in zip(rates, (1.0, P.d))]
        u, v = X
        D = [[np.diag(beta[0] + 1.0 - 2.0 * u - P.c * v), np.diag(-P.c * u)],
             [np.diag(-P.b * v), np.diag(beta[1] + P.a - P.b * u - 2.0 * v)]]
        DP = np.block([[K[0] @ D[0][0], K[0] @ D[0][1]],
                       [K[1] @ D[1][0], K[1] @ D[1][1]]])
        J = np.eye(2 * n) - np.diag(~active.ravel()) @ DP
        assert np.abs(J @ delta.ravel() - rhs.ravel()).max() < 1e-12


def _critical_cfg(env, h=0.025):
    """[min(-60, min join - 25/lambda_min), 100] with spacing h."""
    left = min(-60.0, min(env.join_points) - 25.0 / min_decay_rate(env))
    return OperatorConfig(left=left, right=100.0,
                          n_points=int(round((100.0 - left) / h)) + 1, tol=1e-8)


class TestNewtonHandover:
    @pytest.fixture(scope="class")
    def cert(self):
        return certify(P, S)

    def _run(self, monkeypatch, cert, cost, newton=None):
        """iterate with NEWTON_COST = cost: 0 forces the hand-over after
        NEWTON_WARMUP steps, inf forbids it."""
        with monkeypatch.context() as m:
            m.setattr(solve_mod, "NEWTON_COST", cost)
            if newton is not None:
                m.setattr(solve_mod, "_clipped_newton", newton)
            return iterate(cert.envelope, P, S, CFG)

    def test_fast_pairs_never_hand_over(self):
        # at tol 1e-4 this pair is predicted to close in fewer pair steps
        # than a hand-over costs, from the first step the rule reads on
        p = SystemParams(1.0, 0.1, 0.1, 1.0)
        _, rep = iterate(certify(p, S).envelope, p, S, replace(CFG, tol=1e-4))
        assert rep.converged and rep.handover == "none"
        assert rep.iterations_used > solve_mod.NEWTON_WARMUP

    def test_pairs_predicted_to_outlast_the_cost_hand_over(self, solved, picard):
        # at tol 1e-10 the same pair is predicted to need more than NEWTON_COST steps
        assert solved[2].handover == "accepted"
        assert solved[2].iterations_used == solve_mod.NEWTON_WARMUP + 1
        assert picard[2].handover == "none"
        assert picard[2].iterations_used > solve_mod.NEWTON_WARMUP + solve_mod.NEWTON_WINDOW

    def test_accepted_cold_hand_over_runs_newton_once(self, cert, solved, newton_calls):
        _, rep = iterate(cert.envelope, P, S, CFG)
        assert rep.handover == solved[2].handover == "accepted" and len(newton_calls) == 1

    @pytest.mark.parametrize("outcome", ["rejected", "newton_failed"])
    def test_fallback_leaves_no_trace(self, monkeypatch, cert, outcome):
        prof, rep = self._run(monkeypatch, cert, 0.0, _broken_newton(outcome))
        ref_prof, ref = self._run(monkeypatch, cert, math.inf)
        assert rep.handover == outcome and ref.handover == "none"
        assert rep.iterations_used == ref.iterations_used
        assert np.array_equal(rep.residual_history, ref.residual_history)
        assert np.array_equal(rep.pair_gap_history, ref.pair_gap_history)
        assert rep.sandwich_violations == ref.sandwich_violations
        assert rep.beta_used == ref.beta_used
        assert np.array_equal(prof.u, ref_prof.u) and np.array_equal(prof.v, ref_prof.v)
        assert prof.residual == ref_prof.residual

    def test_forced_handover_keeps_the_answer(self, monkeypatch, cert, picard):
        _, ref_prof, _ = picard
        prof, rep = self._run(monkeypatch, cert, 0.0)
        assert rep.handover == "accepted" and rep.converged
        assert rep.iterations_used == solve_mod.NEWTON_WARMUP + 1
        assert sum(rep.sandwich_violations) == 0
        assert np.abs(prof.u - ref_prof.u).max() <= CFG.tol
        assert np.abs(prof.v - ref_prof.v).max() <= CFG.tol
        assert prof.residual <= ref_prof.residual

    # every set is rejected when the verified step uses another shift than
    # the last Newton solve
    @pytest.mark.parametrize("params, factor", [
        ((0.9, 0.62, 0.41, 0.69), 1.0),
        ((1.16, 0.13, 0.11, 0.8), 1.0),
        ((0.62, 0.16, 0.63, 1.13), 1.0),
        ((0.55, 0.33, 1.26, 1.52), 1.03),
    ])
    def test_slow_pairs_near_critical_speed_are_handed_over(self, params, factor):
        p = SystemParams(*params)
        s = factor * critical_speed(p)
        cert = certify(p, s)
        _, rep = iterate(cert.envelope, p, s, _critical_cfg(cert.envelope))
        assert rep.handover == "accepted"
        assert rep.converged and rep.iterations_used < 200
        assert sum(rep.sandwich_violations) == 0

    def test_cold_front_hand_over_fits_in_40_arrays(self):
        # the benchmark's non-monotone front; its (n, 2, 10) band alone is
        # 20 arrays of n doubles
        p = SystemParams(1.0, 25.0 / 26.0, 0.5, 1.0)
        cfg = OperatorConfig(left=-120.0, right=2600.0, n_points=54401, tol=1e-10)
        env = certify(p, 4.5, mode="nonmonotone-v").envelope
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _, rep = iterate(env, p, 4.5, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.handover == "accepted" and rep.converged
        assert peak - start <= 40 * cfg.n_points * 8


#: s* solves that Newton could not finish before it was damped and stopped
#: at rounding's floor, as (params, (left, right, n_points, tol)): a stop
#: rule below the rounding floor, a slow active-set crawl, a divergence from
#: the first step (draw 16 of the seeded s* draws below) and a wide left edge
FAILED_CRITICAL_SOLVES = [
    ((1.0, 0.5, 0.5, 1.0), (-60.0, 100.0, 25601, 1e-10)),
    ((0.567, 0.4552, 0.2847, 0.9006), (-149.0, 120.0, 10761, 1e-8)),
    ((1.108, 0.690, 0.717, 0.884), (-60.0, 100.0, 6401, 1e-10)),
    ((1.0, 0.5, 0.5, 1.0), (-200.0, 100.0, 12001, 1e-10)),
]
#: the s* draws of random.Random(2027): a and d log-uniform in [0.5, 2],
#: b/a and ac uniform in [0.1, 0.9], a*d <= 0.99; each solved by _critical_cfg
SEEDED_CRITICAL_DRAWS = [
    (0.581, 0.064, 0.616, 0.951), (0.734, 0.118, 0.856, 1.296), (0.902, 0.620, 0.410, 0.686),
    (0.888, 0.628, 0.358, 1.099), (0.550, 0.070, 0.623, 0.688), (1.165, 0.129, 0.105, 0.798),
    (0.969, 0.117, 0.681, 0.698), (1.249, 0.909, 0.280, 0.689), (1.108, 0.690, 0.717, 0.884),
    (0.616, 0.163, 0.627, 1.134), (1.605, 0.484, 0.105, 0.576), (0.658, 0.362, 0.944, 0.854),
]


def _critical_solve(params, domain=None, max_iters=5000):
    """The report of iterate at s* on domain, (left, right, n_points, tol),
    or else on _critical_cfg."""
    p = SystemParams(*params)
    s = critical_speed(p)
    env = certify(p, s).envelope
    cfg = _critical_cfg(env) if domain is None else OperatorConfig(*domain[:3], tol=domain[3])
    return iterate(env, p, s, replace(cfg, max_iters=max_iters))[1]


class TestNewtonRun:
    """The damped Newton run, its stop rule and its exits."""

    @pytest.mark.parametrize("case", FAILED_CRITICAL_SOLVES
                             + [(params, None) for params in SEEDED_CRITICAL_DRAWS])
    def test_critical_solves_hand_over_once_and_are_accepted(self, case):
        rep = _critical_solve(*case)
        assert rep.handover == "accepted" and rep.newton_exit == "converged"
        assert rep.converged and rep.iterations_used == solve_mod.NEWTON_WARMUP + 1

    def test_damping_rescues_a_start_that_diverges(self, monkeypatch):
        # draw 16's full Newton steps grow from the first one
        monkeypatch.setattr(solve_mod, "NEWTON_DAMPED_FROM", math.inf)
        rep = _critical_solve(*FAILED_CRITICAL_SOLVES[2], max_iters=solve_mod.NEWTON_WARMUP + 1)
        assert rep.handover == "newton_failed" and rep.newton_exit != "converged"

    def test_a_run_that_still_contracts_goes_past_the_soft_cap(self):
        rep = _critical_solve(*FAILED_CRITICAL_SOLVES[3])
        assert rep.handover == "accepted"
        assert solve_mod.NEWTON_MAX_STEPS < rep.newton_steps <= solve_mod.NEWTON_STEP_CAP

    def test_rounding_floor_stops_a_run(self, monkeypatch):
        # with no error bound to reach, only the floor rule stops the run
        monkeypatch.setattr(solve_mod, "NEWTON_RTOL", 0.0)
        rep = _critical_solve(*FAILED_CRITICAL_SOLVES[0])
        assert rep.handover == "accepted" and rep.newton_exit == "converged"

    def test_singular_matrix_and_step_cap_are_named(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("singular Newton matrix")

        cfg = replace(CFG, max_iters=solve_mod.NEWTON_WARMUP + 1)
        env = certify(P, S).envelope
        with monkeypatch.context() as m:
            m.setattr(solve_mod, "NEWTON_STEP_CAP", 2)
            _, rep = iterate(env, P, S, cfg)
        assert (rep.handover, rep.newton_exit, rep.newton_steps) == ("newton_failed",
                                                                     "max_steps", 2)
        monkeypatch.setattr(solve_mod, "_newton_factor", singular)
        _, rep = iterate(env, P, S, cfg)
        assert (rep.handover, rep.newton_exit, rep.newton_steps) == ("newton_failed",
                                                                     "singular", 0)


class TestChordSteps:
    """Newton reuses its live factor for chord steps while the active set is
    the factor's."""

    def test_a_chord_step_at_an_unmoved_point_is_the_factored_step(self, monkeypatch):
        # each step is taken at 1e-30 of its size, so X does not move: every
        # step solves the same system, a chord step on the factor, a factored
        # step after each chord step, which shrinks by less than NEWTON_STALL
        factors, steps = [], []
        factor, solve = solve_mod._newton_factor, solve_mod._newton_solve

        def counted(*args):
            factors.append(1)
            return factor(*args)

        def shrunk(*args, **kwargs):
            delta = solve(*args, **kwargs)
            if kwargs.get("v_sign", 1.0) > 0.0:
                steps.append((len(factors), delta.copy()))
                delta *= 1e-30
            return delta

        monkeypatch.setattr(solve_mod, "_newton_factor", counted)
        monkeypatch.setattr(solve_mod, "_newton_solve", shrunk)
        cfg = replace(CFG, max_iters=solve_mod.NEWTON_WARMUP + 1)
        iterate(certify(P, S).envelope, P, S, cfg)
        assert [k for k, _ in steps[:6]] == [1, 1, 2, 2, 3, 3]
        first = steps[0][1]
        for _, delta in steps[1:6]:
            assert np.abs(delta - first).max() <= 1e-12 * np.abs(first).max()

    def test_a_changed_active_set_is_refactored_and_e_solved_on_the_final_one(
            self, monkeypatch):
        # the critical front's run crawls along its active set, and takes
        # chord steps where the set stays
        factored, solves = [], []
        factor, solve = solve_mod._newton_factor, solve_mod._newton_solve

        def recorded_factor(ab, X, W, free, *args):
            factored.append(free.copy())
            return factor(ab, X, W, free, *args)

        def recorded_solve(ab, piv, X, W, free, *args, **kwargs):
            solves.append((len(factored), free.copy(), kwargs.get("v_sign", 1.0)))
            return solve(ab, piv, X, W, free, *args, **kwargs)

        monkeypatch.setattr(solve_mod, "_newton_factor", recorded_factor)
        monkeypatch.setattr(solve_mod, "_newton_solve", recorded_solve)
        p = SystemParams(1.0, 0.5, 0.5, 1.0)
        cfg = OperatorConfig(left=-60.0, right=100.0, n_points=6401, tol=1e-8)
        _, rep = iterate(certify(p, 2.0).envelope, p, 2.0, cfg)
        assert rep.handover == "accepted"
        assert (rep.newton_steps, rep.newton_factors) == (len(solves) - 1, len(factored))
        assert any(not np.array_equal(a, b) for a, b in zip(factored, factored[1:]))
        assert len(solves) - 1 > len(factored)   # chord steps
        # each step and e are solved with a factor of their own active set
        for k, free, _ in solves:
            assert np.array_equal(free, factored[k - 1])
        assert solves[-1][2] < 0.0 and solves[-2][2] > 0.0


#: solves whose hand-over seed x +- eps*e with eps*max|e| = tol/4 failed the
#: mixed-order check next to the active set's edge, as (params, speed, tol),
#: each on CFG's 4401 points over [-100, 120]
WIDE_SEED_SOLVES = [((1.0, 0.2, 0.2, 2.0), 4.243, 1e-5), ((1.0, 0.2, 0.2, 2.0), 4.243, 1e-6),
                    ((1.0, 0.1, 0.1, 1.0), 4.0, 1e-5)]
#: s* solves, h = 0.05, whose seed of width HANDOVER_MAX_TOL/4 fails if
#: Newton stops at tol, as (params, tol)
LOOSE_CRITICAL_SOLVES = [((0.659, 0.207, 1.025, 1.162), 1e-7),
                         ((0.501, 0.062, 1.786, 1.699), 1e-6)]


class TestSeedWidth:
    """A hand-over works at min(tol, HANDOVER_MAX_TOL): Newton's stop bound
    and the seed's width."""

    @pytest.mark.parametrize("params, s, tol", WIDE_SEED_SOLVES)
    def test_loose_tolerance_seeds_are_accepted(self, params, s, tol):
        p = SystemParams(*params)
        _, rep = iterate(certify(p, s).envelope, p, s, replace(CFG, tol=tol))
        assert rep.handover == "accepted" and rep.converged
        assert rep.iterations_used == solve_mod.NEWTON_WARMUP + 1

    @pytest.mark.parametrize("params, tol", LOOSE_CRITICAL_SOLVES)
    def test_newton_stops_within_the_seed_width(self, monkeypatch, params, tol):
        p = SystemParams(*params)
        s = critical_speed(p)
        env = certify(p, s).envelope
        cfg = replace(_critical_cfg(env, h=0.05), tol=tol, max_iters=solve_mod.NEWTON_WARMUP + 1)
        _, rep = iterate(env, p, s, cfg)
        assert rep.handover == "accepted" and rep.converged
        newton = solve_mod._clipped_newton
        monkeypatch.setattr(solve_mod, "_clipped_newton", lambda *a: newton(*a[:-1], tol))
        _, rep = iterate(env, p, s, cfg)
        assert rep.handover == "rejected" and rep.newton_exit == "converged"


def _gaps(last, rate, steps=solve_mod.NEWTON_WARMUP):
    """A gap history of `steps` steps that shrinks by `rate` per step to `last`."""
    return [last * rate ** (i + 1 - steps) for i in range(steps)]


class TestHandOverRule:
    """_hand_over_pays on gap histories: log(tol/gap)/log(rate) steps are
    predicted, and more than NEWTON_COST of them pay for a hand-over."""

    TOL = 1e-10

    def _pays(self, hist):
        return solve_mod._hand_over_pays(hist, self.TOL)

    def test_fast_pair_stays(self):
        # 0.7 per step from 2.5e-8: about 15 steps left
        assert not self._pays(_gaps(2.5e-8, 0.7))

    def test_slow_pair_hands_over(self):
        # 0.95 per step from 0.08: about 400 steps left
        assert self._pays(_gaps(0.08, 0.95))

    @pytest.mark.parametrize("extra, pays", [(-1, False), (1, True)])
    def test_threshold_is_the_cost(self, extra, pays):
        steps = solve_mod.NEWTON_COST + extra
        assert self._pays(_gaps(self.TOL * 0.9 ** -steps, 0.9)) is pays

    @pytest.mark.parametrize("hist", [[1e-3] * 50, _gaps(1e-3, 1.01), [0.0] * 40 + [1e-3] * 10])
    def test_pair_not_contracting_hands_over(self, hist):
        assert self._pays(hist)

    @pytest.mark.parametrize("last", [1e-10, 5e-11, 0.0])
    def test_gap_at_or_below_tol_stays(self, last):
        assert not self._pays(_gaps(last, 0.999))

    def test_a_tol_the_gap_never_reaches_hands_over(self):
        assert solve_mod._hand_over_pays(_gaps(2.5e-8, 0.7), 0.0)

    def test_the_window_fits_in_the_shortest_warm_up(self, monkeypatch):
        # the rate reads the gap NEWTON_WINDOW steps back; at the shortest
        # warm-up that is the first gap
        window = solve_mod.NEWTON_WINDOW
        assert window < solve_mod.NEWTON_WARMUP
        monkeypatch.setattr(solve_mod, "NEWTON_WARMUP", window + 1)
        assert not self._pays(_gaps(1e-3, 1.0, window))
        assert self._pays(_gaps(1e-3, 1.0, window + 1))
        assert not self._pays(_gaps(2.5e-8, 0.7, window + 1))

    def test_a_warm_up_within_the_window_is_refused(self):
        source = inspect.getsource(solve_mod)
        source = re.sub(r"^NEWTON_WARMUP = .*$", "NEWTON_WARMUP = NEWTON_WINDOW", source,
                        count=1, flags=re.M)
        with pytest.raises(ValueError, match="NEWTON_WARMUP"):
            exec(compile(source, solve_mod.__file__, "exec"),
                 {"__name__": "lvfront._solve_copy", "__package__": "lvfront"})

    def test_nothing_before_the_warm_up(self):
        assert not self._pays(_gaps(1e-3, 1.0, solve_mod.NEWTON_WARMUP - 1))
        assert self._pays(_gaps(1e-3, 1.0, solve_mod.NEWTON_WARMUP))

    def test_cost_zero_forces_and_inf_forbids(self, monkeypatch):
        fast, stalled = _gaps(2.5e-8, 0.7), [1e-3] * 50
        monkeypatch.setattr(solve_mod, "NEWTON_COST", 0.0)
        assert self._pays(fast) and self._pays(stalled)
        monkeypatch.setattr(solve_mod, "NEWTON_COST", math.inf)
        assert not self._pays(fast) and not self._pays(stalled)


def _kernel_apply_reference(F, h, alpha, gamma, dcoef, F_left, F_right):
    """The one-tap construction: the two-point terms are formed first and
    each lfilter pass starts from its tail value.  Returns (P, L, R)."""
    ea, c1, c2, eg, d1, d2 = _kernel_coefficients(h, alpha, gamma)
    x = np.empty_like(F)
    x[0] = F_left * (-1.0 / alpha)
    x[1:] = c1 * F[:-1] + c2 * F[1:]
    L = lfilter([1.0], [1.0, -ea], x)
    terms = d1 * F[:-1] + d2 * F[1:]
    xr = np.empty_like(F)
    xr[0] = F_right / gamma
    xr[1:] = terms[::-1]
    R = lfilter([1.0], [1.0, -eg], xr)[::-1]
    return (L + R) / (dcoef * (gamma - alpha)), L, R


class TestKernelRecurrences:
    @pytest.mark.parametrize("h, alpha, gamma, dcoef", [
        (0.025, -1.2, 3.1, 1.0),
        (0.1, -0.3, 0.8, 0.7),
        (0.05, -0.01, 400.0, 1.0),   # stiff right rate: gamma*h = 20
        (0.2, -150.0, 0.05, 2.0),    # stiff left rate: alpha*h = -30
    ])
    @pytest.mark.parametrize("n", [2, 3, 500])
    def test_two_tap_filters_match_the_one_tap_construction(self, h, alpha, gamma, dcoef, n):
        F = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        F[0] = 1e6   # F_0 much larger than the left tail's F_left
        ref, L, R = _kernel_apply_reference(F, h, alpha, gamma, dcoef, 1e-3, 0.7)
        got = _kernel_apply(F, h, alpha, gamma, dcoef, 1e-3, 0.7)
        scale = (np.abs(L) + np.abs(R)) / (dcoef * (gamma - alpha))
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)


def _clip_reference(arr, lo, hi):
    above, below = arr - hi, lo - arr
    worst = max(float(np.max(above, initial=0.0)), float(np.max(below, initial=0.0)), 0.0)
    events = int(np.count_nonzero((above > CLIP_EVENT_TOL) | (below > CLIP_EVENT_TOL)))
    return np.clip(arr, lo, hi), events, worst


# one point: its lower bound, the width hi - lo (0 sometimes), where it sits
# and how far it leaves the bounds, on either side of CLIP_EVENT_TOL
_clip_point = st.tuples(
    st.floats(-1.0, 1.0),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    st.sampled_from(["lo", "hi", "inside", "above", "below"]),
    st.one_of(st.sampled_from([0.5, 1.0, 2.0, 1e3]).map(lambda k: k * CLIP_EVENT_TOL),
              st.floats(0.0, 1e-6)),
)


class TestClipTo:
    @given(points=st.lists(_clip_point, min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_matches_clip_and_positive_parts(self, points):
        lo = np.array([pt[0] for pt in points])
        hi = lo + np.array([pt[1] for pt in points])
        place = {"lo": lambda l, h, e: l, "hi": lambda l, h, e: h,
                 "inside": lambda l, h, e: 0.5 * (l + h),
                 "above": lambda l, h, e: h + e, "below": lambda l, h, e: l - e}
        arr = np.array([place[pt[2]](l, h, pt[3]) for pt, l, h in zip(points, lo, hi)])
        ref_out, ref_events, ref_worst = _clip_reference(arr, lo, hi)
        work = arr.copy()
        out, events, worst = _clip_to(work, lo, hi)
        assert np.array_equal(out, ref_out)
        assert events == ref_events
        assert worst == ref_worst
        # the input now holds its excursion
        assert np.array_equal(work, arr - ref_out)


class TestWriteCsv:
    # (0, 4) is an empty scan matrix
    @pytest.mark.parametrize("shape", [(0, 3), (0, 4), (1, 3), (CSV_BLOCK_ROWS - 1, 3),
                                       (CSV_BLOCK_ROWS, 3), (CSV_BLOCK_ROWS + 1, 3)])
    def test_bytes_equal_savetxt(self, tmp_path, shape):
        rows = np.random.default_rng(shape[0]).normal(size=shape) * 10.0 ** (5 * np.arange(shape[1]) - 5)
        special = np.array([-0.0, 1e-300, 5e-324, np.nan, 2.2250738585072014e-308 / 3.0])
        rows.ravel()[:min(rows.size, special.size)] = special[:rows.size]
        header = ",".join(f"c{k}" for k in range(shape[1]))
        write_csv(str(tmp_path / "got.csv"), rows, header)
        np.savetxt(tmp_path / "ref.csv", rows, fmt="%.17g", delimiter=",",
                   header=header, comments="")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

"""Integral-operator solver: kernel exactness, iteration, tails, residuals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lvfront.model import SystemParams, equilibria
from lvfront.certify import certify
from lvfront.solve import (
    OperatorConfig,
    apply_P,
    beta_floor,
    iterate,
    kernel_rates,
    ode_residual,
    tail_check,
    with_tail_report,
)
from dataclasses import replace
from lvfront.envelopes import min_decay_rate
from lvfront.model import critical_speed
from lvfront.solve import BETA_MARGIN, shift_bounds
from lvfront import solve as solve_mod
from lvfront.solve import _band_apply, _kernel_apply, _kernel_bands, _newton_solve

P = SystemParams(1.0, 0.5, 0.5, 1.0)
S = 3.0
CFG = OperatorConfig(left=-100.0, right=120.0, n_points=4401, tol=1e-10,
                     max_iters=5000)


@pytest.fixture(scope="module")
def solved():
    cert = certify(P, S)
    prof, rep = iterate(cert.envelope, P, S, CFG)
    return cert, prof, rep


class TestKernel:
    def test_rates_bracket_zero(self):
        (a1, g1), (a2, g2) = kernel_rates(P, S, 2.0)
        assert a1 < 0.0 < g1
        assert a2 < 0.0 < g2

    def test_beta_floor_corner(self):
        assert beta_floor(P) == max(1.0 + P.a * P.c, P.a + P.b)

    @given(K1=st.floats(0.0, 1.0), K2=st.floats(0.0, 1.0))
    @settings(max_examples=25)
    def test_constants_map_to_reaction_over_beta(self, K1, K2):
        beta = 1.05 * beta_floor(P)
        u = np.full(801, K1)
        v = np.full(801, K2)
        Pu, Pv = apply_P(u, v, P, S, beta, 0.1, (K1, K2), (K1, K2))
        F1 = beta * K1 + K1 * (1.0 - K1 - P.c * K2)
        F2 = beta * K2 + K2 * (P.a - P.b * K1 - K2)
        assert np.abs(Pu - F1 / beta).max() < 1e-10
        assert np.abs(Pv - F2 / beta).max() < 1e-10

    def test_rejects_nonfinite_input(self):
        u = np.full(101, 0.5)
        v = np.full(101, 0.5)
        u[50] = np.nan
        with pytest.raises(ValueError, match="invalid input profile"):
            apply_P(u, v, P, S, 2.0, 0.1, (0.5, 0.5))


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

    def test_beta_floor_enforced(self):
        cert = certify(P, S)
        bad = OperatorConfig(left=-100.0, right=120.0, n_points=2201, beta=0.5)
        with pytest.raises(ValueError, match="beta below monotonicity floor"):
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
        env2 = cert.envelope.shifted(delta)
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
        prof2 = with_tail_report(prof, tr)
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
        u = np.full(801, K1)
        v = np.full(801, K2)
        Pu, Pv = apply_P(u, v, P, S, (beta_u, beta_v), 0.1, (K1, K2), (K1, K2))
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
        assert max(beta_u, beta_v) == pytest.approx(BETA_MARGIN * beta_floor(p), rel=1e-14)

    def test_bounds_positive_at_extinction(self):
        beta_u, beta_v = shift_bounds(P, np.zeros(7), np.zeros(7))
        assert (beta_u, beta_v) == (1.0 + P.a * P.c, P.a + P.b)
        assert beta_u > 0.0 and beta_v > 0.0

    @pytest.fixture(scope="class")
    def fixed(self):
        cert = certify(P, S)
        return iterate(cert.envelope, P, S, replace(CFG, beta=1.05 * beta_floor(P)))

    def test_fewer_iterations_than_fixed_shift(self, solved, fixed):
        _, prof, rep = solved
        prof_f, rep_f = fixed
        assert rep.converged and rep_f.converged
        assert sum(rep.sandwich_violations) == 0
        assert rep.iterations_used < rep_f.iterations_used

    def test_same_profile_as_fixed_shift(self, solved, fixed):
        _, prof, _ = solved
        prof_f, _ = fixed
        assert np.abs(prof.u - prof_f.u).max() < 1e-4
        assert np.abs(prof.v - prof_f.v).max() < 1e-4

    def test_reported_shifts(self, solved, fixed):
        _, _, rep = solved
        _, rep_f = fixed
        assert rep_f.beta_used == (1.05 * beta_floor(P), 1.05 * beta_floor(P))
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
    @pytest.mark.parametrize("n", [2, 3, 500])
    def test_kernel_times_T_is_M(self, h, alpha, gamma, dcoef, n):
        F = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        T, M, last = _kernel_bands(h, alpha, gamma, dcoef, n)
        lhs = _band_apply(T, _kernel_apply(F, h, alpha, gamma, dcoef, 0.0, 0.0))
        rhs = _band_apply(M, F)
        rhs[-1] += last @ F
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

    def test_newton_system_against_dense_jacobian(self):
        n, h, s, beta = 40, 0.3, S, (1.3, 0.9)
        rng = np.random.default_rng(3)
        X = rng.uniform(0.05, 0.6, (2, n))
        active = rng.uniform(size=(2, n)) < 0.2
        rhs = rng.uniform(-1.0, 1.0, (2, n))
        rates = kernel_rates(P, s, beta)
        kernels = [_kernel_bands(h, al, ga, dc, n) for (al, ga), dc in zip(rates, (1.0, P.d))]
        (delta,) = _newton_solve(X, [rhs], active, P, beta, kernels)
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


def _critical_cfg(env):
    """[min(-60, min join - 25/lambda_min), 100] with h = 0.025."""
    left = min(-60.0, min(env.join_points) - 25.0 / min_decay_rate(env))
    return OperatorConfig(left=left, right=100.0,
                          n_points=int(round((100.0 - left) / 0.025)) + 1, tol=1e-8)


class TestNewtonHandover:
    @pytest.fixture(scope="class")
    def cert(self):
        return certify(P, S)

    def _run(self, monkeypatch, cert, rate, newton=None):
        with monkeypatch.context() as m:
            m.setattr(solve_mod, "NEWTON_RATE", rate)
            if newton is not None:
                m.setattr(solve_mod, "_clipped_newton", newton)
            return iterate(cert.envelope, P, S, CFG)

    def test_fast_pairs_never_hand_over(self, solved):
        assert solved[2].handover == "none"

    @pytest.mark.parametrize("outcome", ["rejected", "newton_failed"])
    def test_fallback_leaves_no_trace(self, monkeypatch, cert, outcome):
        newton = solve_mod._clipped_newton

        def broken(X, *args):
            if outcome == "newton_failed":
                return None
            X, e = newton(X, *args)
            return X * (1.0 + 1e-6 * np.sin(np.arange(X.shape[1]))), e

        prof, rep = self._run(monkeypatch, cert, 0.5, broken)
        ref_prof, ref = self._run(monkeypatch, cert, 2.0)
        assert rep.handover == outcome and ref.handover == "none"
        assert rep.iterations_used == ref.iterations_used
        assert np.array_equal(rep.residual_history, ref.residual_history)
        assert np.array_equal(rep.pair_gap_history, ref.pair_gap_history)
        assert rep.sandwich_violations == ref.sandwich_violations
        assert rep.beta_used == ref.beta_used
        assert np.array_equal(prof.u, ref_prof.u) and np.array_equal(prof.v, ref_prof.v)
        assert prof.residual == ref_prof.residual

    def test_forced_handover_keeps_the_answer(self, monkeypatch, cert, solved):
        _, ref_prof, _ = solved
        prof, rep = self._run(monkeypatch, cert, 0.5)
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

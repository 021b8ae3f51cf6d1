"""Verification of envelope bracketing: signs, corners and ordering, on the
cells between joins, with the dense grid as an independent reference."""

import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from lvfront.model import SystemParams, critical_speed, decay_rates
from lvfront.certify import (
    EXCLUSION_RADIUS,
    ORDERING_TOL,
    RESIDUAL_TOL,
    certificate_to_json,
    certify,
    check_cells,
    check_differential_inequalities,
    check_ordering,
    decide_sums,
    make_grid,
    select_and_build,
    _residual_terms,
)
from lvfront.envelopes import (Q_SAFETY, THETA_MU, CriticalBump, EnvelopeSet, ExpBump, Piece,
                               PiecewiseProfile, _capped, _capped_lower, _terms_jet,
                               build_envelopes, min_decay_rate)
from helpers import assert_gated, jumps, translated

#: the module, which the package's certify function shadows
certify_module = importlib.import_module("lvfront.certify")
envelopes_module = importlib.import_module("lvfront.envelopes")

P = SystemParams(1.0, 0.5, 0.5, 1.0)
#: a*d = 1 with d = 1 and with d != 1, a*d < 1, and a*d = 0.979; s* = 2 for each
NEAR_CRITICAL_SETS = [P, SystemParams(0.5, 0.25, 1.0, 1.0), SystemParams(2.0, 0.2, 0.05, 0.5),
                      SystemParams(1.108, 0.69, 0.717, 0.884)]


class TestCertify:
    @pytest.mark.parametrize("p,s,mode", [
        (P, 3.0, "default"),
        (P, 4.5, "nonmonotone-v"),
        (SystemParams(1.0, 25.0 / 26.0, 0.5, 1.0), 4.5, "nonmonotone-v"),
        (P, 2.0, "default"),
        (SystemParams(0.5, 0.25, 1.0, 1.0), 2.0, "default"),
    ])
    def test_passes_on_canonical_cases(self, p, s, mode):
        cert = certify(p, s, mode=mode)
        assert cert.passed
        assert cert.ordering_ok
        assert all(cc.ok for cc in cert.corner_checks)
        assert cert.min_margins["u_upper"] <= RESIDUAL_TOL
        assert cert.min_margins["u_lower"] >= -RESIDUAL_TOL

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            certify(P, 3.0, mode="sideways")

    def test_subcritical_rejected(self):
        with pytest.raises(ValueError, match="complex linearization roots"):
            certify(P, 1.5)

    @pytest.mark.parametrize("offset", [1e-13, 1e-10, 5e-10])
    @pytest.mark.parametrize("p", NEAR_CRITICAL_SETS)
    def test_speeds_just_above_s_star_are_supercritical(self, p, offset):
        # only s* itself takes the critical envelopes; just above it the
        # supercritical bump is too flat to reach its delta
        with pytest.raises(ValueError, match="delta above envelope maximum"):
            certify(p, critical_speed(p) + offset)

    @pytest.mark.parametrize("a", [0.03, 30.0])
    def test_rate_disparate_systems_inside_the_band_pass(self, a):
        p = SystemParams(a, a / 2.0, 0.5 / a, 1.0)
        assert certify(p, 1.5 * critical_speed(p)).passed

    @pytest.mark.parametrize("a", [1e-3, 1e-2, 1e2, 1e3])
    def test_rate_disparate_systems_outside_the_band_are_named(self, a):
        # with a far from 1 one decay rate dwarfs the other, and the lower
        # bump that must outrun the cross term b*u*v has no room for a delta
        p = SystemParams(a, a / 2.0, 0.5 / a, 1.0)
        with pytest.raises(ValueError) as exc:
            certify(p, 1.5 * critical_speed(p))
        assert str(exc.value) == "delta above envelope maximum"

    @pytest.mark.parametrize("p", NEAR_CRITICAL_SETS)
    def test_s_star_alone_takes_the_critical_envelopes(self, p):
        s = critical_speed(p)
        assert certify(p, s).passed
        # the admissibility gate is exact at s*: every s < s* is refused
        with pytest.raises(ValueError, match="complex linearization roots"):
            certify(p, s - 1e-13)

    @pytest.mark.parametrize("p", [P, SystemParams(0.5, 0.25, 1.0, 1.0)])
    def test_each_critical_bump_is_solved_once(self, p, monkeypatch):
        # the selection reads each critical bump's maximum and the build its
        # bracket; one zero search and one maximum search serve both
        solves = []
        root = envelopes_module._brentq

        def counting(f, *args, **kwargs):
            if f.__qualname__.startswith("CriticalBump."):
                solves.append(f.__qualname__)
            return root(f, *args, **kwargs)

        monkeypatch.setattr(envelopes_module, "_brentq", counting)
        ep = certify(p, 2.0).envelope.params
        bumps = [b for b in (ep.u, ep.v) if isinstance(b, CriticalBump)]
        assert len(bumps) == (2 if p.a * p.d == 1.0 else 1)
        assert len(solves) == 2 * len(bumps)

    def test_out_of_regime_rejected(self):
        assert_gated("certify")

    def test_a_discontinuous_envelope_is_refused(self, monkeypatch):
        # e^{lam1 xi}, then e^{lam1 - 1} e^xi from xi = -1, then 1 from
        # xi = lam1 - 1: every cell and corner check passes, but the profile
        # drops from 0.683 to 0.198 at xi = -1
        s = 3.0
        lam1 = decay_rates(P, s).lambda1
        env = dataclasses.replace(select_and_build(P, s), u_upper=PiecewiseProfile((
            Piece(-math.inf, -1.0, ((1.0, 0, lam1),)),
            Piece(-1.0, lam1 - 1.0, ((math.exp(lam1 - 1.0), 0, 1.0),)),
            Piece(lam1 - 1.0, math.inf, ((1.0, 0, 0.0),)))))
        assert max(jumps(env.u_upper)) > 0.7
        monkeypatch.setattr(certify_module, "select_and_build", lambda *args: env)
        cert = certify(P, s)
        assert cert.verdict == "fail"
        assert cert.reason == "u_upper: jump of 0.484 at xi = -1"
        _assert_joins_read_their_profiles(cert)

    @pytest.mark.parametrize("mutate,reason", [
        # half the selected q-hat leaves the u bump too tall for a sub-solution
        (lambda env: build_envelopes(P, 2.0, dataclasses.replace(
            env.params, u=dataclasses.replace(env.params.u, q=0.5 * env.params.u.q))),
         "u_lower = -0.00103 at xi = -6.10374"),
        (lambda env: dataclasses.replace(env, u_upper=translated(env.u_upper, 1.0)),
         "u_ordering: leading coefficient negative as xi -> -inf"),
    ], ids=["halved_qhat1", "shifted_u_upper"])
    def test_critical_certificate_names_the_reason(self, mutate, reason, monkeypatch):
        env = mutate(select_and_build(P, 2.0))
        monkeypatch.setattr(certify_module, "select_and_build", lambda *args: env)
        cert = certify(P, 2.0)
        assert cert.verdict == "fail"
        assert cert.reason == reason

    @pytest.mark.parametrize("corner", ["lower_capped_on_its_rise", "upper_steepened"])
    def test_a_corner_of_the_wrong_orientation_is_named(self, corner, monkeypatch):
        # each envelope is a sub- or super-solution on its pieces, so only the
        # corner check fails
        env = select_and_build(P, 3.0)
        ep = env.params
        if corner == "lower_capped_on_its_rise":
            # the u bump capped at delta1 where it still increases
            bump = ep.u
            rise = PiecewiseProfile((Piece(-math.inf, math.inf, bump.terms),))
            xi = brentq(lambda x: rise(x) - ep.delta1, bump.bracket[0] - 60.0, bump.bracket[0])
            env = dataclasses.replace(env, u_lower=_capped(bump.terms, xi, ep.delta1))
            reason = "u_lower: corner at xi = -13.2971 is not convex"
        else:
            # e^{lam1 xi} turns into the steeper e^{xi + 1 - lam1} at xi = -1,
            # which the cap 1 meets at xi = lam1 - 1
            lam1 = decay_rates(P, 3.0).lambda1
            env = dataclasses.replace(env, u_upper=PiecewiseProfile((
                Piece(-math.inf, -1.0, ((1.0, 0, lam1),)),
                Piece(-1.0, lam1 - 1.0, ((math.exp(1.0 - lam1), 0, 1.0),)),
                Piece(lam1 - 1.0, math.inf, ((1.0, 0, 0.0),)))))
            reason = "u_upper: corner at xi = -1 is not concave"
        for prof in (env.u_upper, env.u_lower):
            assert max(jumps(prof)) <= 1e-12
        monkeypatch.setattr(certify_module, "select_and_build", lambda *args: env)
        cert = certify(P, 3.0)
        assert cert.verdict == "fail"
        assert cert.reason == reason
        assert [cc.ok for cc in cert.corner_checks].count(False) == 1
        _assert_joins_read_their_profiles(cert)

    def test_json_summary_shape(self):
        cert = certify(P, 3.0)
        payload = certificate_to_json(cert)
        assert payload["verdict"] == "pass"
        assert set(payload["min_margins"]) == {"u_upper", "u_lower",
                                               "v_upper", "v_lower"}
        assert payload["case"] == "Supercritical"
        assert payload["reason"] is None
        assert set(payload["tightest"]) == set(payload["min_margins"])
        assert set(payload["grid"]) == {"left", "right", "cells"}

    def test_supercritical_margins_are_cell_bounds(self):
        cert = certify(P, 3.0)
        env = cert.envelope
        n_cells = len(env.join_points) + 1
        for name, bounds in cert.inequality_margins.items():
            assert bounds.shape == (n_cells,)
            worst = bounds.max() if name.endswith("upper") else bounds.min()
            assert cert.min_margins[name] == worst
        # the residuals vanish as xi -> -inf, and so does every margin there
        assert cert.tightest == dict.fromkeys(cert.min_margins, -math.inf)
        assert certificate_to_json(cert)["tightest"] == dict.fromkeys(cert.min_margins)
        assert cert.ordering_gap == 0.0
        assert cert.grid["left"] == min(env.join_points) - 40.0 / min_decay_rate(env)
        assert cert.grid["right"] == 30.0
        assert cert.grid["cells"] >= 6 * n_cells

    def test_critical_margins_are_cell_bounds(self):
        cert = certify(P, 2.0)
        env = cert.envelope
        n_cells = len(env.join_points) + 1
        for name, bounds in cert.inequality_margins.items():
            assert bounds.shape == (n_cells,)
            worst = bounds.max() if name.endswith("upper") else bounds.min()
            assert cert.min_margins[name] == worst == 0.0
        assert cert.tightest == dict.fromkeys(cert.min_margins, -math.inf)
        assert cert.ordering_gap == 0.0
        assert cert.reason is None
        assert cert.grid["left"] == min(env.join_points) - 40.0 / min_decay_rate(env)
        assert cert.grid["right"] == 30.0
        assert cert.grid["cells"] >= 6 * n_cells
        assert set(cert.grid) == {"left", "right", "cells"}


class TestGrid:
    def test_excludes_join_neighborhoods(self):
        env = select_and_build(P, 3.0)
        grid = make_grid(env, 5001)
        for j in env.join_points:
            assert np.abs(grid - j).min() > EXCLUSION_RADIUS
        assert np.all(np.diff(grid) > 0.0)

    def test_reaches_deep_left_tail(self):
        env = select_and_build(P, 3.0)
        grid = make_grid(env, 5001)
        assert grid[0] < min(env.join_points) - 30.0
        assert grid[-1] <= 30.0


class TestResiduals:
    def test_closed_form_matches_finite_differences(self):
        env = select_and_build(P, 3.0)
        grid = make_grid(env, 4001)
        # keep a wide berth of the joins so the FD stencil stays analytic
        joins = np.array(env.join_points)
        grid = grid[np.min(np.abs(grid[:, None] - joins[None, :]), axis=1) > 0.01]
        res = check_differential_inequalities(env, P, 3.0, grid)

        h = 1e-5
        a, b, c, d = P.a, P.b, P.c, P.d
        uu, ul = env.u_upper(grid), env.u_lower(grid)
        vu, vl = env.v_upper(grid), env.v_lower(grid)

        def fd2(prof):
            return (prof(grid + h) - 2.0 * prof(grid) + prof(grid - h)) / (h * h)

        def fd1(prof):
            return (prof(grid + h) - prof(grid - h)) / (2.0 * h)

        fd = {
            "u_upper": fd2(env.u_upper) - 3.0 * fd1(env.u_upper) + uu * (1 - uu - c * vl),
            "u_lower": fd2(env.u_lower) - 3.0 * fd1(env.u_lower) + ul * (1 - ul - c * vu),
            "v_upper": d * fd2(env.v_upper) - 3.0 * fd1(env.v_upper) + vu * (a - b * ul - vu),
            "v_lower": d * fd2(env.v_lower) - 3.0 * fd1(env.v_lower) + vl * (a - b * uu - vl),
        }
        for name in res:
            assert np.abs(res[name] - fd[name]).max() < 1e-5

    def test_linear_exponential_term_off_the_root(self):
        # a p = 1 term at a rate other than the component's own root, which
        # no selected envelope has yet: its linear part keeps both of its
        # coefficients
        w = ((0.7, 1, 1.3), (-0.2, 0, 1.3), (0.4, 0, 2.1))
        other = ((0.5, 1, 0.9), (0.3, 0, 1.7))
        diff, growth, k, s = 1.4, 0.8, 0.6, 2.5
        acc = _residual_terms(w, other, diff, growth, k, s, root=0.95)
        t = np.linspace(-8.0, -0.01, 400)
        got = sum(coef * (-t) ** p * np.exp(r * t) for (r, p), coef in acc.items())
        w0, w1, w2 = _terms_jet(w, t, 2)
        (o0,) = _terms_jet(other, t, 0)
        want = diff * w2 - s * w1 + w0 * (growth - w0 - k * o0)
        assert np.abs(got - want).max() < 1e-14

    def test_upper_residuals_nonpositive_lower_nonnegative(self):
        for s in (2.0, 2.5, 4.5):
            cert = certify(P, s)
            assert cert.min_margins["u_upper"] <= RESIDUAL_TOL
            assert cert.min_margins["v_upper"] <= RESIDUAL_TOL
            assert cert.min_margins["u_lower"] >= -RESIDUAL_TOL
            assert cert.min_margins["v_lower"] >= -RESIDUAL_TOL


class TestSelectAndBuild:
    def test_critical_speed_detection(self):
        env = select_and_build(P, critical_speed(P))
        assert env.case == "CriticalAdEq1"
        env = select_and_build(P, critical_speed(P) + 0.5)
        assert env.case == "Supercritical"


#: the TestCertify cases plus two more at s*, one with a*d = 1 and d != 1
POINTWISE_CASES = [
    (P, 3.0, "default"),
    (P, 4.5, "nonmonotone-v"),
    (SystemParams(1.0, 25.0 / 26.0, 0.5, 1.0), 4.5, "nonmonotone-v"),
    (P, 2.0, "default"),
    (SystemParams(0.5, 0.25, 1.0, 1.0), 2.0, "default"),
    (P, 2.0, "nonmonotone-u"),
    (SystemParams(2.0, 0.2, 0.05, 0.5), 2.0, "default"),
]


class TestJetResiduals:
    @pytest.mark.parametrize("p,s,mode", POINTWISE_CASES)
    def test_residuals_equal_pointwise_formula(self, p, s, mode):
        env = select_and_build(p, s, mode)
        grid = make_grid(env)
        a, b, c, d = p.a, p.b, p.c, p.d
        uu, ul = env.u_upper(grid), env.u_lower(grid)
        vu, vl = env.v_upper(grid), env.v_lower(grid)
        expected = {
            "u_upper": env.u_upper(grid, 2) - s * env.u_upper(grid, 1)
            + uu * (1.0 - uu - c * vl),
            "u_lower": env.u_lower(grid, 2) - s * env.u_lower(grid, 1)
            + ul * (1.0 - ul - c * vu),
            "v_upper": d * env.v_upper(grid, 2) - s * env.v_upper(grid, 1)
            + vu * (a - b * ul - vu),
            "v_lower": d * env.v_lower(grid, 2) - s * env.v_lower(grid, 1)
            + vl * (a - b * uu - vl),
        }
        res = check_differential_inequalities(env, p, s, grid)
        assert list(res) == list(expected)
        for name in expected:
            assert np.array_equal(res[name], expected[name]), name
        gap = float(min((uu - ul).min(), (vu - vl).min()))
        assert check_ordering(env, grid) == (gap >= -1e-12, gap)


class TestGridConstruction:
    @pytest.mark.parametrize("p,s,mode", POINTWISE_CASES)
    @pytest.mark.parametrize("n_points", [2001, 20001])
    def test_equals_unique_construction(self, p, s, mode, n_points):
        env = select_and_build(p, s, mode)
        for shifted in (env, translated(env, 0.37)):
            lam_min = min_decay_rate(shifted)
            joins = shifted.join_points
            left = min(joins) - 40.0 / lam_min
            offs = np.geomspace(2.0 * EXCLUSION_RADIUS, 1.0, 80)
            clusters = [np.linspace(left, 30.0, n_points)]
            for j in joins:
                clusters += [j + offs, j - offs]
            grid = np.unique(np.concatenate(clusters))
            keep = np.ones(grid.size, dtype=bool)
            for j in joins:
                keep &= np.abs(grid - j) > EXCLUSION_RADIUS
            expected = grid[keep & (grid >= left) & (grid <= 30.0)]
            assert np.array_equal(make_grid(shifted, n_points), expected)


class TestOneJetPerCertificate:
    @pytest.mark.parametrize("p,s,mode", POINTWISE_CASES)
    def test_one_jet_and_same_results(self, p, s, mode, monkeypatch):
        # no jet and no grid: the signs are decided cell by cell at every speed
        calls = []
        jet = EnvelopeSet.jet

        def counted(self, x, order=0):
            calls.append(order)
            return jet(self, x, order)

        monkeypatch.setattr(EnvelopeSet, "jet", counted)
        cert = certify(p, s, mode=mode)
        monkeypatch.undo()
        env = cert.envelope

        assert calls == []
        assert cert.passed
        cells = check_cells(env, p, s)
        assert list(cert.inequality_margins) == ["u_upper", "u_lower", "v_upper", "v_lower"]
        for name in cert.inequality_margins:
            assert np.array_equal(cert.inequality_margins[name], cells.bounds[name]), name
        gap = min(cells.bounds["u_ordering"].min(), cells.bounds["v_ordering"].min())
        assert (cert.ordering_ok, cert.ordering_gap) == (True, gap)


#: the critical parameter sets of POINTWISE_CASES
CRITICAL_SETS = list(dict.fromkeys(p for p, s, mode in POINTWISE_CASES if s == critical_speed(p)))


class TestCriticalQ:
    """The q of each critical bump e^{lam xi} g(x), x = -xi, g = h x +
    (q/nu) expm1(-nu x): at its zero x0, q diff nu meets the closed-form
    bound on the losses w (w + coupling o) e^{(lam + nu) x} beyond x0."""

    @staticmethod
    def sides(p):
        """nu and, per critical bump, (h, q, lam, diff, coupling, other
        upper envelope, bump)."""
        env = select_and_build(p, critical_speed(p))
        ep, s = env.params, env.speed
        r = decay_rates(p, s)
        u, v = ep.u, ep.v
        out = [(u.h, u.q, s / 2.0, 1.0, p.c, env.v_upper, u)]
        if isinstance(v, CriticalBump):
            out.append((v.h, v.q, s / (2.0 * p.d), p.d, p.b, env.u_upper, v))
        return THETA_MU * min(r.lambda1, r.lambda2), out

    @staticmethod
    def bound(h, lam, nu, coupling, other, x0):
        c_o, k_o, lam_o = other.pieces[0].terms[0]
        a, b = 2.0 / (math.e * (lam - nu)), 1.0 / (math.e * (lam_o - nu))
        return (h * h * math.exp(-(lam - nu) * x0) * a * a + coupling * h * c_o
                * math.exp(-(lam_o - nu) * x0) * (x0 ** k_o * b + k_o * (2.0 * b) ** 2))

    @pytest.mark.parametrize("p", CRITICAL_SETS)
    def test_q_over_safety_makes_the_bound_tight(self, p):
        nu, sides = self.sides(p)
        for h, q, lam, diff, coupling, other, _ in sides:
            q_star = q / Q_SAFETY
            x0 = brentq(lambda x: h * x + q_star / nu * math.expm1(-nu * x),
                        math.log(q_star / h) / nu, q_star / (nu * h), xtol=1e-15, rtol=8.9e-16)
            assert q_star * diff * nu == pytest.approx(
                self.bound(h, lam, nu, coupling, other, x0), rel=1e-11)

    @pytest.mark.parametrize("p", CRITICAL_SETS)
    def test_bound_dominates_the_losses_beyond_the_zero(self, p):
        nu, sides = self.sides(p)
        for h, q, lam, diff, coupling, other, bump in sides:
            x0 = -bump.bracket[1]
            x = x0 + np.concatenate([np.geomspace(1e-9, 1.0, 500),
                                     np.linspace(1.0, 1.0 + 200.0 / lam, 20001)])
            w = PiecewiseProfile((Piece(-math.inf, math.inf, bump.terms),))(-x)
            losses = w * (w + coupling * other(-x)) * np.exp((lam + nu) * x)
            bound = self.bound(h, lam, nu, coupling, other, x0)
            assert losses.max() <= bound
            assert bound < q * diff * nu

    @pytest.mark.parametrize("p", CRITICAL_SETS)
    def test_zero_and_maximum_solve_their_equations(self, p):
        nu, sides = self.sides(p)
        for h, q, lam, _, _, _, bump in sides:
            x0, xM = -bump.bracket[1], -bump.bracket[0]
            g = lambda x: h * x + q / nu * math.expm1(-nu * x)
            dg = lambda x: h - q * math.exp(-nu * x)
            assert abs(g(x0)) <= 1e-14 * h * x0
            assert abs(dg(xM) - lam * g(xM)) <= 1e-14 * (h + lam * h * xM)
            assert bump.log_fmax == math.log(g(xM)) - lam * xM


def _mutated_u_lower(s):
    """(1, .5, .5, 1) at s with the u lower bump's rate 1.01 lambda1, which
    breaks its sub-solution inequality as xi -> -inf."""
    env = select_and_build(P, s)
    ep = env.params
    lam = 1.01 * decay_rates(P, s).lambda1
    return dataclasses.replace(env, u_lower=_capped_lower(ExpBump(1.0, lam, ep.u.mu, ep.u.q),
                                                          ep.delta1))


class TestCells:
    @pytest.mark.parametrize("s", [2.01, 2.05, 2.2, 3.0])
    def test_mutated_rate_fails_with_leading_coefficient(self, s):
        check = check_cells(_mutated_u_lower(s), P, s)
        assert check.reasons == {"u_lower": "u_lower: leading coefficient negative as xi -> -inf"}

    @pytest.mark.parametrize("s", [2.01, 2.05])
    def test_grid_misses_the_mutation_near_s_star(self, s):
        # why the cells are needed: the grid residual clears the tolerance
        env = _mutated_u_lower(s)
        res = check_differential_inequalities(env, P, s, make_grid(env))
        assert -RESIDUAL_TOL < res["u_lower"].min() < 0.0

    def test_certificate_names_the_reason(self, monkeypatch):
        s = 2.2
        env = _mutated_u_lower(s)
        monkeypatch.setattr(certify_module, "select_and_build", lambda *args: env)
        cert = certify(P, s)
        assert cert.verdict == "fail"
        assert cert.reason == "u_lower: leading coefficient negative as xi -> -inf"
        assert certificate_to_json(cert)["reason"] == cert.reason
        assert cert.ordering_ok and all(cc.ok for cc in cert.corner_checks)

    @pytest.mark.parametrize("p,s,mode", POINTWISE_CASES[:3])
    def test_shift_keeps_the_verdict(self, p, s, mode):
        env = select_and_build(p, s, mode)
        for delta in (-2.5, 0.37):
            assert not check_cells(translated(env, delta), p, s).reasons

    @pytest.mark.parametrize("p", CRITICAL_SETS)
    def test_critical_envelopes_are_decided(self, p):
        # the critical bump and the linear-exponential pieces carry the power
        # 1 of -xi, and the residuals powers 0 to 2
        env = select_and_build(p, 2.0)
        check = check_cells(env, p, 2.0)
        assert not check.reasons
        assert check.cells >= 6 * (len(env.join_points) + 1)
        assert {pw for pc in env.u_lower.pieces for _, pw, _ in pc.terms} == {0, 1}


def _decide_terms(cells, cuts, sigma=1.0, tol=RESIDUAL_TOL):
    """decide_sums on the one sum f given by its cells as {(rate, power): c},
    with the constant 1 (or -1 for sigma = -1) right of the last cut."""
    return decide_sums({"f": (sigma, tol, list(cells) + [{(0.0, 0): sigma}])}, cuts)


def _decide(cells, cuts=(0.0,), sigma=1.0, tol=RESIDUAL_TOL):
    """_decide_terms on cells given as {rate: c}."""
    return _decide_terms([{(r, 0): c for r, c in terms.items()} for terms in cells],
                         cuts, sigma, tol)


class TestSignPrimitive:
    def test_sums_of_known_sign(self):
        # e^xi (1 - e^xi / 2) > 0 on (-inf, 0]
        assert not _decide([{1.0: 1.0, 2.0: -0.5}]).reasons
        assert not _decide([{1.0: -1.0, 2.0: 0.5}], sigma=-1.0).reasons
        assert not _decide([{1.0: 2.0, 1.5: 1.0, 3.0: 4.0}]).reasons
        # 3 e^xi - e^{2 xi} - e^{3 xi} >= e^xi on (-inf, 0]
        check = _decide([{1.0: 3.0, 2.0: -1.0, 3.0: -1.0}])
        assert not check.reasons
        assert check.bounds["f"].tolist() == [0.0, 1.0]

    def test_leading_coefficient_decides_the_left_half_line(self):
        check = _decide([{1.0: -1e-30, 1.5: 1.0}])
        assert check.reasons == {"f": "f: leading coefficient negative as xi -> -inf"}
        check = _decide([{1.0: 1e-30, 1.5: -1.0}], sigma=-1.0)
        assert check.reasons == {"f": "f: leading coefficient positive as xi -> -inf"}

    def test_root_inside_a_cell_fails(self):
        # x (1 - 2x)^2 - eps x with x = e^xi is positive at both ends of
        # [-3, 0] and negative for x in (0.45, 0.55)
        eps = 0.01
        cells = [{1.0: 1.0 - eps, 2.0: -4.0, 3.0: 4.0}] * 2
        check = _decide(cells, cuts=(-3.0, 0.0))
        reason = check.reasons["f"]
        assert reason.startswith("f = -")
        xi = float(reason.rsplit("=", 1)[1])
        assert math.log(0.45) < xi < math.log(0.55)
        assert check.bounds["f"].min() < -RESIDUAL_TOL

    def test_thin_positive_minimum_is_bisected(self):
        eps = -0.01  # x (1 - 2x)^2 + 0.01 x > 0 everywhere
        cells = [{1.0: 1.0 - eps, 2.0: -4.0, 3.0: 4.0}] * 2
        check = _decide(cells, cuts=(-3.0, 0.0))
        assert not check.reasons
        assert check.cells > 6
        assert check.bounds["f"].min() >= -RESIDUAL_TOL

    def test_two_terms_that_nearly_cancel(self):
        # e^xi - (1 - 1e-9) e^{(1 + 1e-6) xi} > 0 on (-inf, 0], by 1e-9 at 0
        check = _decide([{1.0: 1.0, 1.0 + 1e-6: -(1.0 - 1e-9)}], tol=0.0)
        assert not check.reasons
        assert check.cells <= 4
        # with 1 + 1e-9 it is -1e-9 at xi = 0
        check = _decide([{1.0: 1.0, 1.0 + 1e-6: -(1.0 + 1e-9)}], tol=0.0)
        assert check.reasons["f"].startswith("f = -1e-09 at xi = 0")

    def test_zero_coefficients_are_dropped(self):
        # a zero leading coefficient leaves the next term to decide
        assert not _decide([{1.0: 0.0, 2.0: 1.0}]).reasons
        assert _decide([{1.0: 0.0, 2.0: -1.0}]).reasons
        check = _decide([{1.0: 0.0}])
        assert not check.reasons
        assert check.bounds["f"][0] == 0.0


@st.composite
def strict_weak_draws(draw):
    a = math.exp(draw(st.floats(math.log(0.5), math.log(2.0))))
    d = math.exp(draw(st.floats(math.log(0.5), math.log(2.0))))
    p = SystemParams(a, a * draw(st.floats(0.1, 0.95)), draw(st.floats(0.05, 0.95)) / a, d)
    s = critical_speed(p) * draw(st.floats(1.01, 2.0))
    return p, s, draw(st.sampled_from(["default", "nonmonotone-u", "nonmonotone-v"]))


@st.composite
def critical_draws(draw):
    """Strict-weak sets at s* with a*d <= 0.99, a and d in [0.5, 2]."""
    a = math.exp(draw(st.floats(math.log(0.5), math.log(1.98))))
    d = math.exp(draw(st.floats(math.log(0.5), math.log(0.99 / a))))
    p = SystemParams(a, a * draw(st.floats(0.1, 0.95)), draw(st.floats(0.05, 0.95)) / a, d)
    mode = draw(st.sampled_from(["default", "nonmonotone-u", "nonmonotone-v"]))
    return p, critical_speed(p), mode


#: draw 16 of the table of s* solves, a*d = 0.979
DRAW_16 = SystemParams(1.108, 0.690, 0.717, 0.884)


def _cells_agree_with_grid(env, p, s):
    """The cell verdict on env equals the grid verdict, and each cell's bound
    lies on the safe side of every grid residual and ordering gap inside it."""
    check = check_cells(env, p, s)
    grid = make_grid(env)
    res = check_differential_inequalities(env, p, s, grid)
    ordering_ok, _ = check_ordering(env, grid)
    grid_ok = ordering_ok and all(
        r.max() <= RESIDUAL_TOL if name.endswith("upper") else r.min() >= -RESIDUAL_TOL
        for name, r in res.items())
    assert grid_ok == (not check.reasons)
    uu, ul, vu, vl = env.jet(grid)[:, 0]
    res.update(u_ordering=uu - ul, v_ordering=vu - vl)
    cell = np.searchsorted(env.join_points, grid, side="right")
    for name, r in res.items():
        sigma = -1.0 if name.endswith("upper") else 1.0
        assert np.all(sigma * check.bounds[name][cell] <= sigma * r + 1e-12), name


class TestCellsAgreeWithGrid:
    @given(case=strict_weak_draws())
    @settings(max_examples=60, deadline=None)
    def test_verdicts_agree_and_passes_are_sound(self, case):
        p, s, mode = case
        env = select_and_build(p, s, mode)
        check = check_cells(env, p, s)
        grid = make_grid(env)
        res = check_differential_inequalities(env, p, s, grid)
        ordering_ok, _ = check_ordering(env, grid)
        grid_ok = ordering_ok and all(
            r.max() <= RESIDUAL_TOL if name.endswith("upper") else r.min() >= -RESIDUAL_TOL
            for name, r in res.items())
        assert grid_ok == (not check.reasons)
        if not check.reasons:
            for name, r in res.items():
                worst = r.max() if name.endswith("upper") else -r.min()
                assert worst <= RESIDUAL_TOL, name
            gaps = check.bounds["u_ordering"].min(), check.bounds["v_ordering"].min()
            assert min(gaps) >= -ORDERING_TOL

    @given(case=critical_draws())
    @settings(max_examples=40, deadline=None)
    def test_critical_verdicts_agree_and_bounds_hold(self, case):
        p, s, mode = case
        _cells_agree_with_grid(select_and_build(p, s, mode), p, s)

    @pytest.mark.parametrize("p,mode", [(p, mode) for p, s, mode in POINTWISE_CASES
                                        if s == critical_speed(p) and p.a * p.d == 1.0]
                             + [(DRAW_16, "default")])
    def test_critical_fixtures_agree_and_bounds_hold(self, p, mode):
        _cells_agree_with_grid(select_and_build(p, 2.0, mode), p, 2.0)


def _assert_joins_read_their_profiles(cert):
    """The certificate's corner checks are its profiles' joins in order, each
    slope a second-order one-sided difference of the profile, and each jump
    the profile's own values on either side of its join."""
    env = cert.envelope
    profs = dict(zip(("u_upper", "u_lower", "v_upper", "v_lower"),
                     (env.u_upper, env.u_lower, env.v_upper, env.v_lower)))
    assert [(cc.profile, cc.location) for cc in cert.corner_checks] == [
        (name, x) for name, prof in profs.items() for x in prof.join_points]
    h = 1e-4
    for cc in cert.corner_checks:
        prof, x = profs[cc.profile], cc.location
        below = prof(np.nextafter(x, -math.inf))
        f2l, f1l, at, f1r, f2r = prof(x + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
        assert cc.left_deriv == pytest.approx((3.0 * below - 4.0 * f1l + f2l) / (2.0 * h),
                                              abs=1e-6)
        assert cc.right_deriv == pytest.approx((4.0 * f1r - 3.0 * at - f2r) / (2.0 * h),
                                               abs=1e-6)
    for prof in profs.values():
        for x, jump in zip(prof.join_points, jumps(prof)):
            assert jump == pytest.approx(abs(prof(np.nextafter(x, -math.inf)) - prof(x)),
                                         abs=1e-12)


class TestJoins:
    @pytest.mark.parametrize("p,s,case", [
        (P, 3.0, "Supercritical"),
        (P, 2.0, "CriticalAdEq1"),
        (SystemParams(0.5, 0.25, 1.0, 1.0), 2.0, "CriticalAdLt1"),
    ])
    def test_corners_and_jumps_read_the_profiles_on_each_case(self, p, s, case):
        cert = certify(p, s)
        assert cert.envelope.case == case
        _assert_joins_read_their_profiles(cert)

    @given(case=st.one_of(strict_weak_draws(), critical_draws()))
    @settings(max_examples=30, deadline=None)
    def test_corners_and_jumps_read_the_profiles(self, case):
        _assert_joins_read_their_profiles(certify(*case))


class TestCriticalMutations:
    @pytest.mark.parametrize("p", [P, SystemParams(0.5, 0.25, 1.0, 1.0), DRAW_16])
    @pytest.mark.parametrize("factor", [0.5, 0.8, 1.0])
    def test_shrunk_qhat1_fails_on_cells_and_grid(self, p, factor):
        # a smaller q-hat makes the u bump too tall for a sub-solution
        ep = select_and_build(p, 2.0).params
        env = build_envelopes(p, 2.0, dataclasses.replace(
            ep, u=dataclasses.replace(ep.u, q=factor * ep.u.q)))
        check = check_cells(env, p, 2.0)
        res = check_differential_inequalities(env, p, 2.0, make_grid(env))
        assert (not check.reasons) == (factor == 1.0)
        assert (res["u_lower"].min() >= -RESIDUAL_TOL) == (factor == 1.0)
        if factor < 1.0:
            assert check.reasons["u_lower"].startswith("u_lower = -")

    @pytest.mark.parametrize("delta", [-0.5, 0.5])
    def test_a_lower_envelope_shifted_alone_is_decided(self, delta):
        # moved alone, it carries p = 1 terms with a p = 0 term of the same rate
        env = select_and_build(P, 2.0)
        _cells_agree_with_grid(dataclasses.replace(env, u_lower=translated(env.u_lower, delta)),
                               P, 2.0)


class TestPowers:
    def test_square_root_against_a_square(self):
        # sqrt(x) e^xi - 1e-3 x^2 e^{2 xi} > 0 for x = -xi > 0
        cells = [{(1.0, 0.5): 1.0, (2.0, 2.0): -1e-3}] * 2
        check = _decide_terms(cells, (-4.0, -0.01), tol=0.0)
        assert not check.reasons
        assert check.bounds["f"].min() >= 0.0
        check = _decide_terms([{(1.0, 0.5): -1.0, (2.0, 2.0): 1e-3}] * 2, (-4.0, -0.01), -1.0, 0.0)
        assert not check.reasons

    def test_thin_minimum_takes_few_cells(self):
        # x (1 - 2x)^2 + 1e-4 x > 0 with x = e^xi, by 1e-4 x near x = 1/2
        cells = [{(1.0, 0): 1.0 + 1e-4, (2.0, 0): -4.0, (3.0, 0): 4.0}] * 2
        check = _decide_terms(cells, (-3.0, 0.0))
        assert not check.reasons
        assert check.cells < 100

    def test_dip_between_cell_ends_has_a_witness(self):
        # 1 - 1e-4 - e x e^{-x} with x = -xi dips to -1e-4 at x = 1, and is
        # positive at both ends of [-3, -0.01]
        cells = [{(0.0, 0): 1.0 - 1e-4, (1.0, 1): -math.e}] * 2
        check = _decide_terms(cells, (-3.0, -0.01))
        reason = check.reasons["f"]
        assert reason.startswith("f = -")
        assert -1.015 < float(reason.rsplit("=", 1)[1]) < -0.985

    def test_leading_inverse_power_decides_the_left_half_line(self):
        # x^{-3/2} e^xi outlasts -5 x^2 e^{1.5 xi} as xi -> -inf, and is the
        # whole sign left of the split point
        check = _decide_terms([{(1.0, -1.5): 1.0, (1.5, 2.0): -5.0}], (-40.0,), tol=0.0)
        assert not check.reasons
        assert check.tightest["f"] == -math.inf
        check = _decide_terms([{(1.0, -1.5): -1.0, (1.5, 2.0): 5.0}], (-40.0,), tol=0.0)
        assert check.reasons == {"f": "f: leading coefficient negative as xi -> -inf"}
        # among equal rates the highest power leads: e^xi - 5 x^{-1} e^xi
        check = _decide_terms([{(1.0, 0): 1.0, (1.0, -1.0): -5.0}], (-10.0,), tol=0.0)
        assert not check.reasons

    def test_power_right_of_zero_is_refused(self):
        with pytest.raises(ValueError, match="power of -xi"):
            _decide_terms([{(1.0, 1): 1.0}], (0.5,))

"""Verification of envelope bracketing: signs, corners, ordering, on the
cells between joins above s* and on the grid at s*."""

import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
)
from lvfront.envelopes import (Q_SAFETY, EnvelopeSet, _bump, _capped_lower, build_envelopes,
                               min_decay_rate)

#: the module, which the package's certify function shadows
certify_module = importlib.import_module("lvfront.certify")

P = SystemParams(1.0, 0.5, 0.5, 1.0)


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

    def test_out_of_regime_rejected(self):
        with pytest.raises(ValueError, match="unsupported regime"):
            certify(SystemParams(1.0, 2.0, 2.0, 1.0), 3.0)

    @pytest.mark.parametrize("mutate,reason", [
        # half the ladder's q-hat leaves the u g-bump too tall for a sub-solution
        (lambda env: build_envelopes(P, 2.0, dataclasses.replace(
            env.params, qhat1=0.5 * env.params.qhat1)), "u_lower = -0.074 at xi = -2.53091"),
        (lambda env: dataclasses.replace(env, u_upper=env.u_upper.shifted(1.0)),
         "ordering gap = -5.46e-08"),
    ])
    def test_critical_certificate_names_the_reason(self, mutate, reason, monkeypatch):
        env = mutate(select_and_build(P, 2.0))
        monkeypatch.setattr(certify_module, "select_and_build", lambda *args: env)
        cert = certify(P, 2.0)
        assert cert.verdict == "fail"
        assert cert.reason == reason

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

    def test_critical_tightest_is_the_worst_grid_point(self):
        cert = certify(P, 2.0)
        grid = make_grid(cert.envelope)
        for name, res in cert.inequality_margins.items():
            k = res.argmax() if name.endswith("upper") else res.argmin()
            assert cert.tightest[name] == grid[k]
        assert cert.reason is None
        assert set(cert.grid) == {"left", "right", "n_points", "exclusion_radius"}


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
        for shifted in (env, env.shifted(0.37)):
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
        # one jet of order 2 at s*; none above it, where the signs are
        # decided cell by cell
        calls = []
        jet = EnvelopeSet.jet

        def counted(self, x, order=0):
            calls.append(order)
            return jet(self, x, order)

        monkeypatch.setattr(EnvelopeSet, "jet", counted)
        cert = certify(p, s, mode=mode)
        monkeypatch.undo()
        env = cert.envelope

        if s != critical_speed(p):
            assert calls == []
            assert cert.passed
            cells = check_cells(env, p, s)
            assert list(cert.inequality_margins) == ["u_upper", "u_lower", "v_upper", "v_lower"]
            for name in cert.inequality_margins:
                assert np.array_equal(cert.inequality_margins[name], cells.bounds[name]), name
            gap = min(cells.bounds["u_ordering"].min(), cells.bounds["v_ordering"].min())
            assert (cert.ordering_ok, cert.ordering_gap) == (True, gap)
            return

        assert calls == [2]
        grid = make_grid(env)
        res = check_differential_inequalities(env, p, s, grid)
        assert list(cert.inequality_margins) == list(res)
        for name in res:
            assert np.array_equal(cert.inequality_margins[name], res[name]), name
        assert (cert.ordering_ok, cert.ordering_gap) == check_ordering(env, grid)


#: the critical parameter sets of POINTWISE_CASES
CRITICAL_SETS = list(dict.fromkeys(p for p, s, mode in POINTWISE_CASES if s == critical_speed(p)))


class TestCriticalLadder:
    @pytest.mark.parametrize("p", CRITICAL_SETS)
    def test_picks_the_smallest_passing_rung(self, p):
        # the full residual of every rung on the uniform grid and the
        # offsets together, checked in one piece
        env = select_and_build(p, critical_speed(p))
        ep, s = env.params, env.speed
        sides = [(ep.qhat1, ep.h1, s / 2.0, 1.0, p.c, env.v_upper)]
        if ep.qhat2 is not None:
            sides.append((ep.qhat2, ep.h2, s / (2.0 * p.d), p.d, p.b, env.u_upper))
        for qhat, h, lam, dcoef, coupling, other in sides:
            q = Q_SAFETY * max(math.sqrt(h * (1.0 / lam + 1.0)), h * math.sqrt(1.0 + 1.0 / lam))
            for _ in range(80):
                xi0 = -((q / h) ** 2)
                if xi0 <= -1e-6:
                    xs = np.concatenate([np.linspace(xi0 - 200.0 / lam, xi0 - 1e-9, 6000),
                                         xi0 - np.geomspace(1e-9, 1.0, 500)])
                    g = (h * -xs - q * np.sqrt(-xs)) * np.exp(lam * xs)
                    res = (dcoef * np.exp(lam * xs) * (q / 4.0) * (-xs) ** -1.5
                           - g * g - coupling * g * other(xs))
                    if res.min() >= -1e-12:
                        break
                q *= 1.25
            assert qhat == q


def _mutated_u_lower(s):
    """(1, .5, .5, 1) at s with the u lower bump's rate 1.01 lambda1, which
    breaks its sub-solution inequality as xi -> -inf."""
    env = select_and_build(P, s)
    ep = env.params
    lam = 1.01 * decay_rates(P, s).lambda1
    return dataclasses.replace(env, u_lower=_capped_lower(_bump(1.0, lam, ep.mu1, ep.q1), ep.delta1))


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
            assert not check_cells(env.shifted(delta), p, s).reasons

    def test_critical_envelopes_are_refused(self):
        env = select_and_build(P, 2.0)
        with pytest.raises(ValueError, match="exponential terms"):
            check_cells(env, P, 2.0)


def _decide(cells, cuts=(0.0,), sigma=1.0, tol=RESIDUAL_TOL):
    """decide_sums on the one sum f given by its cells, with the constant 1
    (or -1 for sigma = -1) right of the last cut."""
    return decide_sums({"f": (sigma, tol, list(cells) + [{0.0: sigma}])}, cuts)


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

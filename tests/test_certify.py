"""Grid verification of envelope bracketing: signs, corners, ordering."""

import math

import numpy as np
import pytest

from lvfront.model import SystemParams, critical_speed
from lvfront.certify import (
    EXCLUSION_RADIUS,
    RESIDUAL_TOL,
    certificate_to_json,
    certify,
    check_differential_inequalities,
    check_ordering,
    make_grid,
    select_and_build,
)
from lvfront.envelopes import Q_SAFETY, EnvelopeSet, min_decay_rate

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

    def test_refinement_does_not_flip(self):
        coarse = certify(P, 3.0, n_points=2001)
        fine = certify(P, 3.0, n_points=8001)
        assert coarse.passed and fine.passed

    def test_json_summary_shape(self):
        cert = certify(P, 3.0)
        payload = certificate_to_json(cert)
        assert payload["verdict"] == "pass"
        assert set(payload["min_margins"]) == {"u_upper", "u_lower",
                                               "v_upper", "v_lower"}
        assert payload["case"] == "Supercritical"


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
        calls = []
        jet = EnvelopeSet.jet

        def counted(self, x, order=0):
            calls.append(order)
            return jet(self, x, order)

        monkeypatch.setattr(EnvelopeSet, "jet", counted)
        cert = certify(p, s, mode=mode)
        assert calls == [2]
        monkeypatch.undo()

        env = cert.envelope
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

"""Shape classification, overshoot criteria, alarms, and the Sturm interval."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq, minimize_scalar
from scipy.signal import find_peaks

from lvfront.model import SystemParams, critical_speed, decay_rates, equilibria
from lvfront.envelopes import (
    THETA_MU,
    CriticalBump,
    ExpBump,
    Piece,
    PiecewiseProfile,
    SelectionKnobs,
    select_critical,
    select_supercritical,
)
from lvfront.certify import select_and_build
from lvfront.solve import Profile
from lvfront.analyze import (
    _prominent_peaks,
    classify,
    interior_box_implies_monotone,
    ma_front_criterion,
    nonmonotone_condition_u,
    nonmonotone_condition_v,
    oscillation_coupling,
    scan_region,
    sturm_interval,
)
from helpers import assert_gated

P = SystemParams(1.0, 0.5, 0.5, 1.0)


def synthetic_profile(u, v, grid=None, converged=True, p=P, s=3.0):
    if grid is None:
        grid = np.linspace(-40.0, 40.0, u.size)
    return Profile(grid=grid, u=u, v=v, speed=s, params=p,
                   residual=0.0, converged=converged)


# a random walk as runs of equal samples: each run's step from the last
# value (0 makes a tie with it), its length (a plateau from 2 on) and its
# noise, in absolute size
_walk = st.lists(st.tuples(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.0]),
                           st.integers(1, 4),
                           st.sampled_from([0.0, 0.0, 1e-12, -1e-12, 0.3, -0.3])),
                 max_size=40)


class TestProminentPeaks:
    @given(walk=_walk, frac=st.sampled_from([0.0, 1e-4, 0.1, 0.5, 1.0, 2.0]))
    @settings(max_examples=400)
    def test_matches_find_peaks(self, walk, frac):
        level, samples = 0.0, []
        for step, length, noise in walk:
            level += step
            samples += [level + noise] * length
        x = np.array(samples)
        prom = frac * float(np.ptp(x)) if x.size else frac
        for sign in (1.0, -1.0):
            want, _ = find_peaks(sign * x, prominence=prom)
            assert np.array_equal(_prominent_peaks(sign * x, prom), want)


class TestClassify:
    def test_monotone_both(self):
        g = np.linspace(-40.0, 40.0, 2001)
        u = 0.5 * (1.0 + np.tanh(0.3 * g))
        prof = synthetic_profile(u, 0.6 * u, grid=g)
        assert classify(prof).tag == "MonotoneBoth"

    def test_single_overshoot_in_v(self):
        g = np.linspace(-40.0, 40.0, 2001)
        u = 0.5 * (1.0 + np.tanh(0.3 * g))
        v = 0.4 * (1.0 + np.tanh(0.3 * g)) + 0.1 * np.exp(-((g - 15.0) / 2.0) ** 2)
        prof = synthetic_profile(u, v, grid=g)
        shape = classify(prof)
        assert shape.tag == "NonMonotoneV"
        assert any(e.kind == "max" and e.component == "v" for e in shape.extrema)

    def test_overshoot_in_both(self):
        g = np.linspace(-40.0, 40.0, 2001)
        bump = np.exp(-((g - 15.0) / 2.0) ** 2)
        u = 0.5 * (1.0 + np.tanh(0.3 * g)) + 0.1 * bump
        v = 0.4 * (1.0 + np.tanh(0.3 * g)) + 0.1 * bump
        shape = classify(synthetic_profile(u, v, grid=g))
        assert shape.tag == "NonMonotoneBoth"
        assert {e.component for e in shape.extrema if e.kind == "max"} == {"u", "v"}

    def test_ripple_below_prominence_ignored(self):
        g = np.linspace(-40.0, 40.0, 2001)
        u = 0.5 * (1.0 + np.tanh(0.3 * g)) + 1e-9 * np.sin(g)
        prof = synthetic_profile(u, 0.6 * (1.0 + np.tanh(0.3 * g)), grid=g)
        assert classify(prof).tag == "MonotoneBoth"

    @pytest.mark.parametrize("check", [classify, oscillation_coupling],
                             ids=lambda f: f.__name__)
    def test_requires_convergence(self, check):
        g = np.linspace(-40.0, 40.0, 101)
        prof = synthetic_profile(np.linspace(0, 1, 101),
                                 np.linspace(0, 0.5, 101), grid=g,
                                 converged=False)
        with pytest.raises(ValueError, match=f"^{check.__name__} requires converged profile"):
            check(prof)


class TestBoxAlarm:
    def test_vacuous_outside_box(self):
        g = np.linspace(-40.0, 40.0, 1001)
        u = np.full(1001, 1.5)  # above u*: hypothesis void
        check = interior_box_implies_monotone(synthetic_profile(u, 0.1 * u, grid=g), P)
        assert not check.hypothesis_holds
        assert check.passed

    def test_in_box_monotone_passes(self):
        ustar, vstar = equilibria(P).coexistence
        g = np.linspace(-40.0, 40.0, 2001)
        u = 0.98 * ustar * (0.5 * (1.0 + np.tanh(0.3 * g))) + 1e-6
        v = 0.98 * vstar * (0.5 * (1.0 + np.tanh(0.3 * g))) + 1e-6
        check = interior_box_implies_monotone(synthetic_profile(u, v, grid=g), P)
        assert check.hypothesis_holds
        assert check.passed


class TestOscillationCoupling:
    def test_both_quiet(self):
        g = np.linspace(-40.0, 40.0, 2001)
        u = 0.5 * (1.0 + np.tanh(0.3 * g))
        check = oscillation_coupling(synthetic_profile(u, 0.6 * u, grid=g))
        assert check.passed and not check.u_oscillates

    def test_single_component_ringing_flags(self):
        g = np.linspace(-40.0, 40.0, 4001)
        u = 0.5 * (1.0 + np.tanh(0.3 * g))
        v = 0.6 * u + 0.01 * np.sin(2.0 * g) * (g > 20.0)
        check = oscillation_coupling(synthetic_profile(u, v, grid=g))
        assert check.v_oscillates and not check.u_oscillates
        assert not check.passed

    def test_rounding_noise_on_a_flat_tail_is_quiet(self):
        # the last quarter is flat to 1e-12: its ripples are prominent against
        # the tail's own span, but not against the component's
        g = np.linspace(-40.0, 40.0, 4001)
        u = 0.5 * (1.0 + np.tanh(g))
        noise = 1e-12 * np.random.default_rng(0).standard_normal((2, g.size))
        check = oscillation_coupling(synthetic_profile(u + noise[0], 0.6 * u + noise[1], grid=g))
        assert not check.u_oscillates and not check.v_oscillates
        # a decaying oscillation on the same tail still counts
        ring = 1e-3 * np.exp(-0.1 * (g - 20.0)) * np.sin(2.0 * g) * (g > 20.0)
        check = oscillation_coupling(synthetic_profile(u + noise[0] + ring, 0.6 * u + noise[1],
                                                       grid=g))
        assert check.u_oscillates and not check.v_oscillates


class TestOvershootCriterion:
    def test_remark_knobs_reproduce_threshold(self):
        knobs = SelectionKnobs(mu2=1.0 + 1.0 / 1.1, q2=2.6)
        for n in range(24, 40):
            p = SystemParams(1.0, 1.0 - 1.0 / n, 0.5, 1.0)
            assert nonmonotone_condition_v(p, 4.5, knobs).holds, n
        p23 = SystemParams(1.0, 1.0 - 1.0 / 23.0, 0.5, 1.0)
        assert not nonmonotone_condition_v(p23, 4.5, knobs).holds

    def test_fmax_reported(self):
        knobs = SelectionKnobs(mu2=1.0 + 1.0 / 1.1, q2=2.6)
        cond = nonmonotone_condition_v(SystemParams(1.0, 25.0 / 26.0, 0.5, 1.0),
                                       4.5, knobs)
        assert cond.fmax == pytest.approx(0.0817, abs=5e-4)
        assert cond.star == pytest.approx(2.0 / 27.0, abs=1e-12)
        assert cond.log_fmax == pytest.approx(math.log(cond.fmax), rel=1e-12)

    def test_u_side_mirrors(self):
        cond = nonmonotone_condition_u(P, 4.5)
        assert cond.star == equilibria(P).coexistence[0]

    def test_subcritical_rejected(self):
        with pytest.raises(ValueError, match="subcritical"):
            nonmonotone_condition_v(P, 1.0)

    def test_out_of_regime_rejected(self):
        assert_gated("analyze")

    def test_critical_speed_branch_evaluates(self):
        cond = nonmonotone_condition_v(P, critical_speed(P))
        assert math.isfinite(cond.log_fmax) or cond.log_fmax == -math.inf
        assert cond.star > 0.0

    @pytest.mark.parametrize("p,s", [
        (SystemParams(1.5, 0.7, 0.4, 0.8), 3.5),
        (SystemParams(0.7, 0.3, 1.1, 1.6), 3.0),
        (SystemParams(2.0, 1.2, 0.3, 0.6), 4.0),
        (SystemParams(0.6, 0.45, 1.2, 2.5), 2.6),
    ])
    def test_bump_maximum_is_the_selected_bump(self, p, s):
        # the criterion and certify's overshoot modes share mu and q exactly
        r = decay_rates(p, s)
        ep_u = select_supercritical(p, s, SelectionKnobs(nonmonotone_u=True))
        ep_v = select_supercritical(p, s, SelectionKnobs(nonmonotone_v=True))
        assert nonmonotone_condition_u(p, s).log_fmax == ExpBump(
            1.0, r.lambda1, ep_u.u.mu, ep_u.u.q).log_fmax
        assert nonmonotone_condition_v(p, s).log_fmax == ExpBump(
            p.a, r.lambda2, ep_v.v.mu, ep_v.v.q).log_fmax

    @pytest.mark.parametrize("p", [P, SystemParams(0.5, 0.25, 1.0, 1.0)])
    def test_critical_g_bump_maximum_matches_recomputation(self, p):
        # the criterion reads the maximum of the selected critical bump
        # e^{lam xi} g(-xi), g(x) = h x + (q/nu) expm1(-nu x), which a bounded
        # search for the largest ln g(x) - lam x recomputes
        s = critical_speed(p)
        r = decay_rates(p, s)
        nu = THETA_MU * min(r.lambda1, r.lambda2)

        def log_max(h, q, lam):
            g = lambda x: h * x + q / nu * math.expm1(-nu * x)
            x0 = brentq(g, 1e-3, q / (nu * h))
            res = minimize_scalar(lambda x: lam * x - math.log(g(x)), method="bounded",
                                  bounds=(x0 * (1.0 + 1e-9), x0 + 10.0 / lam),
                                  options={"xatol": 1e-12})
            return -res.fun

        ep_u = select_critical(p, SelectionKnobs(nonmonotone_u=True))
        cond_u = nonmonotone_condition_u(p, s)
        assert cond_u.log_fmax == pytest.approx(log_max(ep_u.u.h, ep_u.u.q, s / 2.0), rel=1e-12)
        assert cond_u.fmax == math.exp(cond_u.log_fmax)
        ep_v = select_critical(p, SelectionKnobs(nonmonotone_v=True))
        cond_v = nonmonotone_condition_v(p, s)
        if isinstance(ep_v.v, CriticalBump):
            assert cond_v.log_fmax == pytest.approx(
                log_max(ep_v.v.h, ep_v.v.q, s / (2.0 * p.d)), rel=1e-12)
            assert cond_v.fmax == math.exp(cond_v.log_fmax)
        else:
            assert cond_v.log_fmax == ExpBump(
                p.a, decay_rates(p, s).lambda2, ep_v.v.mu, ep_v.v.q).log_fmax

    def test_pinned_bump_outside_selection_does_not_hold(self):
        # (1, .99, .5, 1) at s = 2.1: q2 = 1.01 is below the v floor, which
        # select_supercritical refuses, so the criterion has no bump to read
        p, s = SystemParams(1.0, 0.99, 0.5, 1.0), 2.1
        knobs = SelectionKnobs(nonmonotone_v=True, q2=1.01)
        with pytest.raises(ValueError, match="q below its selection floor"):
            select_supercritical(p, s, knobs)
        cond = nonmonotone_condition_v(p, s, knobs)
        assert not cond.holds and cond.fmax == 0.0 and cond.log_fmax == -math.inf
        with pytest.raises(ValueError, match="mu outside admissible interval"):
            select_supercritical(p, s, SelectionKnobs(nonmonotone_u=True, mu1=5.0))
        assert not nonmonotone_condition_u(p, s, SelectionKnobs(mu1=5.0)).holds
        # the same rule at s*, where the a*d < 1 v bump takes the pins
        p = SystemParams(0.5, 0.25, 1.0, 1.0)
        knobs = SelectionKnobs(q2=0.9)
        with pytest.raises(ValueError, match="q below its selection floor"):
            select_critical(p, knobs)
        cond = nonmonotone_condition_v(p, 2.0, knobs)
        assert not cond.holds and cond.fmax == 0.0 and cond.log_fmax == -math.inf
        # other errors still raise
        with pytest.raises(ValueError, match="apply species swap"):
            nonmonotone_condition_v(SystemParams(2.0, 1.0, 0.3, 1.0), 2.0 * math.sqrt(2.0))

    def test_scan_holds_only_where_selection_accepts_the_pins(self):
        knobs = SelectionKnobs(nonmonotone_v=True, q2=1.01)
        scan = scan_region(P, np.linspace(2.1, 5.0, 6), np.linspace(0.01, 0.5, 6), knobs)
        assert not scan.holds.any()
        for i, j in zip(*np.nonzero(scan.fmax)):
            p = SystemParams(P.a, P.a - scan.gap_values[i], P.c, P.d)
            select_supercritical(p, scan.s_values[j], knobs)

    def test_critical_bump_q_checked_against_its_floor(self):
        # a*d < 1 at s*: the v bump takes q2, which must clear max(1, a, ...)
        with pytest.raises(ValueError, match="q below its selection floor"):
            select_critical(SystemParams(0.5, 0.25, 1.0, 1.0), SelectionKnobs(q2=0.9))


class TestScanRegion:
    def test_holds_monotone_in_gap(self):
        knobs = SelectionKnobs(mu2=1.0 + 1.0 / 1.1, q2=2.6)
        gaps = np.linspace(0.01, 0.2, 12)
        scan = scan_region(P, [4.5], gaps, knobs)
        col = scan.holds[:, 0]
        # once the gap is too wide the criterion stays false
        assert all(not col[i + 1] or col[i] for i in range(len(col) - 1))
        assert col[0]          # tiny coexistence gap: overshoot wins
        assert not col[-1]     # wide gap: v* exceeds the envelope maximum

    def test_speed_clamped_to_critical(self):
        scan = scan_region(P, [0.5], [0.05])
        assert scan.holds.shape == (1, 1)  # evaluated at s* instead of failing

    def test_gap_wider_than_a_rejected(self):
        with pytest.raises(ValueError, match="b must stay positive"):
            scan_region(P, [3.0], [1.5])


class TestMaFrontCriterion:
    def test_holds_for_confined_envelopes(self):
        ustar, vstar = equilibria(P).coexistence
        lam = decay_rates(P, 3.0).lambda1

        def capped(coef):
            return PiecewiseProfile((
                Piece(-math.inf, 0.0, ((coef, 0, lam),)),
                Piece(0.0, math.inf, ((coef, 0, 0.0),)),
            ))

        env = select_and_build(P, 3.0)
        from dataclasses import replace
        confined = replace(env, u_upper=capped(ustar), u_lower=capped(0.9 * ustar),
                           v_upper=capped(vstar), v_lower=capped(0.9 * vstar))
        assert ma_front_criterion(confined, P)

    def test_fails_when_upper_exceeds_coexistence(self):
        env = select_and_build(P, 3.0)  # u_upper caps at 1 > u*
        assert not ma_front_criterion(env, P)


class TestSturmInterval:
    def test_closed_form_and_position(self):
        (xi1, xi2), M, _ = sturm_interval(P, 1.0, 0.5, 10.0)
        root = math.sqrt(0.5)
        assert M == 2
        assert xi1 == pytest.approx(-4.0 * math.pi / root, abs=1e-12)
        assert xi2 == pytest.approx(-3.0 * math.pi / root, abs=1e-12)
        assert xi2 - xi1 == pytest.approx(math.pi / root, abs=1e-12)
        assert xi2 < -10.0

    def test_interval_left_of_window(self):
        for L in (1.0, 5.0, 25.0, 100.0):
            (xi1, xi2), M, _ = sturm_interval(P, 1.0, 0.5, L)
            assert xi2 < -L
            assert (2 * M - 1) * math.pi / math.sqrt(0.5) > L

    def test_speed_guard(self):
        with pytest.raises(ValueError, match="subcritical speeds only"):
            sturm_interval(P, 2.5, 0.5, 10.0)

    def test_eps_guard(self):
        with pytest.raises(ValueError, match="eps"):
            sturm_interval(P, 1.0, 0.9, 10.0)  # needs eps < 1 - s^2/4 = 0.75

    def test_profile_potential_minimum(self):
        g = np.linspace(-60.0, 10.0, 7001)
        u = np.zeros_like(g)
        v = np.zeros_like(g)
        prof = synthetic_profile(u, v, grid=g, s=1.0)
        (_, _), _, psi_min = sturm_interval(P, 1.0, 0.5, 10.0, prof)
        assert psi_min == pytest.approx(1.0 - 0.25, abs=1e-12)

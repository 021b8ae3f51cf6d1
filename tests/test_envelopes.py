"""Piecewise envelope profiles, bump extrema, and constant selection."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from lvfront.model import SystemParams, critical_speed
from lvfront.envelopes import (
    CRITICAL_AD_EQ1,
    CRITICAL_AD_LT1,
    SUPERCRITICAL,
    CriticalParams,
    EnvelopeSet,
    Piece,
    PiecewiseProfile,
    SelectionKnobs,
    SupercriticalParams,
    build_envelopes,
    bump_extrema,
    bump_log_max,
    gbump_extrema,
    join_point,
    min_decay_rate,
    select_critical,
    select_supercritical,
)

P = SystemParams(1.0, 0.5, 0.5, 1.0)


def build(p=P, s=3.0, knobs=SelectionKnobs()):
    ep = select_supercritical(p, s, knobs)
    return build_envelopes(p, s, ep)


class TestBumpExtrema:
    @given(coef=st.floats(0.1, 3.0), lam=st.floats(0.1, 2.0),
           mu=st.floats(1.05, 1.95), qf=st.floats(1.1, 10.0))
    @settings(max_examples=60)
    def test_closed_forms_match_grid_scan(self, coef, lam, mu, qf):
        q = qf * coef
        xi0, xiM, fmax = bump_extrema(coef, lam, mu, q)
        f = lambda x: coef * np.exp(lam * x) - q * np.exp(mu * lam * x)
        assert xiM < xi0 < 0.0
        assert abs(f(xi0)) < 1e-12 * max(1.0, fmax)
        xs = np.linspace(xi0 - 50.0 / lam, xi0, 20001)
        assert fmax >= f(xs).max() - 1e-9 * max(fmax, 1e-300)
        assert f(xiM) == pytest.approx(fmax, rel=1e-10)

    def test_log_max_consistent(self):
        _, _, fmax = bump_extrema(1.0, 0.5, 1.5, 3.0)
        assert bump_log_max(1.0, 0.5, 1.5, 3.0) == pytest.approx(math.log(fmax), rel=1e-12)

    def test_log_max_survives_underflow(self):
        # mu barely above 1 drives the max below double-precision range
        lg = bump_log_max(1.0, 0.2344, 1.001, 2.6)
        assert lg < -900.0  # exp(lg) underflows to 0.0 in double precision
        assert math.isfinite(lg)

    def test_requires_interior_zero(self):
        with pytest.raises(ValueError, match="no interior zero"):
            bump_extrema(1.0, 0.5, 1.5, 0.9)


class TestGBump:
    @given(h=st.floats(0.5, 10.0), qf=st.floats(1.1, 5.0),
           lam=st.floats(0.3, 2.0))
    @settings(max_examples=40)
    def test_zero_and_max(self, h, qf, lam):
        q = qf * h
        xi0, xiM, gmax = gbump_extrema(h, q, lam)
        g = lambda x: (h * (-x) - q * np.sqrt(-x)) * np.exp(lam * x)
        assert xi0 == pytest.approx(-((q / h) ** 2), rel=1e-12)
        assert xiM < xi0
        assert abs(g(xi0)) < 1e-10
        xs = np.linspace(xi0 - 40.0 / lam, xi0 - 1e-9, 20001)
        assert gmax >= g(xs).max() - 1e-9 * max(gmax, 1e-300)
        assert gmax > 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gbump_extrema(-1.0, 1.0, 1.0)


def assert_root_of_the_cubic(h, q, lam, xiM):
    """P(sqrt(-xiM)) is zero to a few ulps of its largest terms."""
    t = math.sqrt(-xiM)
    terms = (2.0 * lam * h * t ** 3, -2.0 * lam * q * t * t, -2.0 * h * t, q)
    assert abs(math.fsum(terms)) <= 8.0 * np.finfo(float).eps * sum(map(abs, terms))


class TestGBumpClosedForm:
    """The maximum point is the root of P(t) = 2 lam h t^3 - 2 lam q t^2
    - 2 h t + q beyond q/h, with t = sqrt(-xi)."""

    # g is conditioned like e^{-lam t^2}: a relative change of lam moves it
    # lam t^2 times as much, so the oracle comparison keeps lam (q/h)^2 <= 10
    @given(h=st.floats(0.5, 10.0), qf=st.floats(1.1, 2.5), lam=st.floats(0.3, 1.5))
    @settings(max_examples=60)
    def test_root_of_the_cubic_and_oracle(self, h, qf, lam):
        q = qf * h
        xi0, xiM, gmax = gbump_extrema(h, q, lam)
        assert_root_of_the_cubic(h, q, lam, xiM)

        g = lambda x: (h * (-x) - q * np.sqrt(-x)) * np.exp(lam * x)
        xs = np.linspace(xi0 - 40.0 / lam, xi0 - 1e-9, 20001)
        assert gmax >= g(xs).max() * (1.0 - 1e-14)

        # bounded search in u = t - q/h, where g = u (q + h u) e^{-lam t^2}
        # has no cancellation and the tolerance is relative to u
        r = q / h
        oracle = minimize_scalar(lambda u: -u * (q + h * u) * math.exp(-lam * (r + u) ** 2),
                                 bounds=(0.0, 10.0 / math.sqrt(lam) + 1.0),
                                 method="bounded", options={"xatol": 1e-14})
        assert gmax == pytest.approx(-oracle.fun, rel=1e-14)

    @given(h=st.floats(0.05, 20.0), qf=st.floats(1.01, 20.0), lam=st.floats(0.05, 5.0))
    @settings(max_examples=60)
    def test_root_of_the_cubic_on_a_wide_box(self, h, qf, lam):
        q = qf * h
        xi0, xiM, gmax = gbump_extrema(h, q, lam)
        assert_root_of_the_cubic(h, q, lam, xiM)
        assert xiM < xi0 and gmax >= 0.0

    @given(h=st.floats(0.5, 10.0), qf=st.floats(100.0, 1e6), lam=st.floats(0.3, 2.0))
    @settings(max_examples=60)
    def test_underflow_regime_gives_zero(self, h, qf, lam):
        # q lam this large is where the critical q ladder stops: e^{lam xi}
        # underflows on the whole positive part of the bump
        q = qf * h
        xi0, xiM, gmax = gbump_extrema(h, q, lam)
        assert gmax == 0.0
        assert math.isfinite(xi0) and math.isfinite(xiM) and xiM < xi0


class TestJoinPoint:
    def test_value_matches_delta(self):
        coef, lam, mu, q = 1.0, 0.5, 1.5, 3.0
        xi0, xiM, fmax = bump_extrema(coef, lam, mu, q)
        f = lambda x: coef * math.exp(lam * x) - q * math.exp(mu * lam * x)
        xi = join_point(f, 0.3 * fmax, (xiM, xi0))
        assert xiM < xi < xi0
        assert abs(f(xi) - 0.3 * fmax) <= 1e-12

    def test_delta_above_maximum_rejected(self):
        coef, lam, mu, q = 1.0, 0.5, 1.5, 3.0
        xi0, xiM, fmax = bump_extrema(coef, lam, mu, q)
        f = lambda x: coef * math.exp(lam * x) - q * math.exp(mu * lam * x)
        with pytest.raises(ValueError, match="delta above envelope maximum"):
            join_point(f, 2.0 * fmax, (xiM, xi0))


class TestPiecewiseProfile:
    def test_must_tile_real_line(self):
        with pytest.raises(ValueError, match="tile the real line"):
            PiecewiseProfile((Piece(0.0, math.inf, ((1.0, 0, 0.0),)),))
        with pytest.raises(ValueError, match="tile the real line"):
            PiecewiseProfile((
                Piece(-math.inf, 0.0, ((1.0, 0, 0.0),)),
                Piece(1.0, math.inf, ((2.0, 0, 0.0),)),
            ))

    def test_scalar_and_vector_evaluation(self):
        env = build()
        x = np.linspace(-20.0, 10.0, 101)
        vec = env.u_upper(x)
        for i in (0, 50, 100):
            assert env.u_upper(float(x[i])) == vec[i]

    def test_shift_translates_values_and_joins(self):
        env = build()
        sh = env.u_upper.shifted(3.0)
        x = np.linspace(-15.0, 15.0, 301)
        assert np.allclose(sh(x), env.u_upper(x - 3.0), atol=1e-14)
        assert sh.join_points == tuple(j + 3.0 for j in env.u_upper.join_points)

    def test_one_sided_requires_join(self):
        env = build()
        with pytest.raises(ValueError, match="not a join point"):
            env.u_upper.one_sided(5.0)


@pytest.mark.parametrize("p,s,case", [
    (P, 3.0, SUPERCRITICAL),
    (P, 2.0, CRITICAL_AD_EQ1),
    (SystemParams(0.5, 0.25, 1.0, 1.0), 2.0, CRITICAL_AD_LT1),
])
class TestBuiltEnvelopes:
    def _env(self, p, s):
        if abs(s - critical_speed(p)) <= 1e-9:
            return build_envelopes(p, s, select_critical(p))
        return build_envelopes(p, s, select_supercritical(p, s))

    def test_case_tag(self, p, s, case):
        assert self._env(p, s).case == case

    def test_continuity(self, p, s, case):
        env = self._env(p, s)
        for prof in (env.u_upper, env.u_lower, env.v_upper, env.v_lower):
            assert max(prof.continuity_defects()) <= 1e-10

    def test_ordering_and_positivity(self, p, s, case):
        env = self._env(p, s)
        lam = min_decay_rate(env)
        x = np.linspace(min(env.join_points) - 30.0 / lam, 25.0, 4001)
        assert np.all(env.u_lower(x) <= env.u_upper(x) + 1e-12)
        assert np.all(env.v_lower(x) <= env.v_upper(x) + 1e-12)
        assert np.all(env.u_upper(x) > 0.0)
        assert np.all(env.v_upper(x) > 0.0)

    def test_derivatives_match_finite_differences(self, p, s, case):
        env = self._env(p, s)
        h = 1e-6
        for prof in (env.u_upper, env.u_lower, env.v_upper, env.v_lower):
            joins = np.array(prof.join_points)
            x = np.linspace(min(env.join_points) - 25.0, 20.0, 1501)
            x = x[np.min(np.abs(x[:, None] - joins[None, :]), axis=1) > 0.05]
            fd1 = (prof(x + h) - prof(x - h)) / (2.0 * h)
            fd2 = (prof(x + h) - 2.0 * prof(x) + prof(x - h)) / (h * h)
            assert np.abs(prof(x, 1) - fd1).max() < 1e-5
            assert np.abs(prof(x, 2) - fd2).max() < 1e-3


class TestSelection:
    def test_subcritical_rejected(self):
        with pytest.raises(ValueError, match="subcritical"):
            select_supercritical(P, 1.5)

    def test_out_of_regime_rejected(self):
        with pytest.raises(ValueError, match="unsupported regime"):
            select_supercritical(SystemParams(1.0, 2.0, 2.0, 1.0), 3.0)

    def test_mu_override_validated(self):
        with pytest.raises(ValueError, match="mu outside admissible interval"):
            select_supercritical(P, 3.0, SelectionKnobs(mu1=5.0))

    def test_q_override_validated(self):
        with pytest.raises(ValueError, match="q below its selection floor"):
            select_supercritical(P, 3.0, SelectionKnobs(q1=0.5))

    def test_nonmonotone_knobs_raise_lower_maximum(self):
        ep_d = select_supercritical(P, 4.5)
        ep_n = select_supercritical(P, 4.5, SelectionKnobs(nonmonotone_v=True))
        _, _, fmax_d = bump_extrema(P.a, 0.2344, ep_d.mu2, ep_d.q2)
        _, _, fmax_n = bump_extrema(P.a, 0.2344, ep_n.mu2, ep_n.q2)
        assert fmax_n > fmax_d

    def test_critical_requires_small_product(self):
        with pytest.raises(ValueError, match="apply species swap"):
            select_critical(SystemParams(2.0, 0.5, 0.25, 1.0))

    def test_critical_constants(self):
        # a = d = 1: slope constant h = (1/2) e^2 at lam-hat = 1
        ep = select_critical(P)
        assert ep.h1 == pytest.approx(0.5 * math.e ** 2, rel=1e-12)
        assert ep.h2 == pytest.approx(ep.h1, rel=1e-12)
        assert ep.qhat1 > 0.0 and ep.qhat2 > 0.0

    @given(s=st.floats(2.1, 8.0))
    @settings(max_examples=30)
    def test_selection_feasible_across_speeds(self, s):
        ep = select_supercritical(P, s)
        env = build_envelopes(P, s, ep)
        assert env.case == SUPERCRITICAL


class TestEnvelopeSet:
    def test_shift_moves_all_joins(self):
        env = build()
        sh = env.shifted(2.5)
        assert isinstance(sh, EnvelopeSet)
        assert sh.join_points == tuple(j + 2.5 for j in env.join_points)

    def test_tail_decay_rates(self):
        env = build()
        x = -30.0
        lam1 = math.log(env.u_upper(x + 1.0) / env.u_upper(x))
        assert lam1 == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, rel=1e-9)


#: one profile with a piece of every envelope shape: g-bump, bump, linexp,
#: exp and constant; the pieces with p != 0 terms stay at t < 0
ALL_KINDS = PiecewiseProfile((
    Piece(-math.inf, -8.0, ((2.0, 1, 0.8), (-3.0, 0.5, 0.8))),
    Piece(-8.0, -4.0, ((1.0, 0, 0.6), (-2.5, 0, 1.5 * 0.6))),
    Piece(-4.0, -1.0, ((0.7, 1, 1.2),)),
    Piece(-1.0, 2.0, ((0.5, 0, 0.9),)),
    Piece(2.0, math.inf, ((0.3, 0, 0.0),)),
))


class TestJet:
    @given(shift=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
           window=st.tuples(st.floats(-30.0, 12.0), st.floats(-30.0, 12.0)),
           free=st.lists(st.floats(0.0, 1.0), max_size=40),
           at_joins=st.lists(st.integers(0, 3), max_size=6))
    @settings(max_examples=200)
    def test_rows_equal_pointwise_derivatives(self, shift, window, free, at_joins):
        # points drawn in a window that may straddle or miss any piece, plus
        # points exactly at joins
        prof = ALL_KINDS.shifted(shift)
        lo, hi = min(window), max(window)
        joins = prof.join_points
        x = np.sort(np.array([lo + f * (hi - lo) for f in free]
                             + [joins[i] for i in at_joins], dtype=float))
        jet = prof.jet(x, 2)
        assert jet.shape == (3, x.size)
        for k in range(3):
            assert np.array_equal(jet[k], prof(x, k))
            assert np.array_equal(prof.jet(x, k)[k], prof(x, k))

    @pytest.mark.parametrize("p,s", [(P, 3.0), (P, 2.0), (SystemParams(0.5, 0.25, 1.0, 1.0), 2.0)])
    def test_envelope_set_jet_stacks_the_four_profiles(self, p, s):
        env = (build_envelopes(p, s, select_critical(p)) if s == critical_speed(p)
               else build(p, s))
        x = np.linspace(min(env.join_points) - 30.0, 20.0, 2001)
        jets = env.jet(x, 2)
        for prof, jet in zip((env.u_upper, env.u_lower, env.v_upper, env.v_lower), jets):
            assert np.array_equal(jet, prof.jet(x, 2))

    def test_nan_abscissa_rejected(self):
        env = build()
        with pytest.raises(ValueError, match="abscissa is NaN"):
            env.u_upper(np.array([math.nan, 1.0, math.nan]))
        with pytest.raises(ValueError, match="abscissa is NaN"):
            env.u_lower(math.nan)
        with pytest.raises(ValueError, match="abscissa is NaN"):
            ALL_KINDS.shifted(0.5)(np.array([0.0, math.nan]), 2)
        # NaN sorts last, so it ends a sorted array
        x = np.sort(np.array([math.nan, -3.0, 1.0]))
        for prof in (ALL_KINDS, ALL_KINDS.shifted(0.5)):
            with pytest.raises(ValueError, match="abscissa is NaN"):
                prof.jet(x, 2)
        with pytest.raises(ValueError, match="abscissa is NaN"):
            env.jet(x)
        assert env.u_upper.jet(np.array([]), 2).shape == (3, 0)

    def test_order_above_two_rejected(self):
        with pytest.raises(ValueError, match="derivative order"):
            ALL_KINDS.jet(np.zeros(3), 3)
        with pytest.raises(ValueError, match="derivative order"):
            ALL_KINDS(0.0, 3)


@st.composite
def term_sums(draw):
    """Terms (c, p, r) with coefficients of both signs, shared rates and the
    rate 0, and sorted points, all at t < 0 where a term has p != 0."""
    rates = draw(st.lists(st.floats(-1.0, 3.0), min_size=1, max_size=2)) + [0.0]
    terms = draw(st.lists(st.tuples(st.floats(-5.0, 5.0), st.sampled_from([0, 0.5, 1]),
                                    st.sampled_from(rates)), min_size=1, max_size=5))
    hi = -1e-3 if any(p for _, p, _ in terms) else 10.0
    t = draw(st.lists(st.floats(-30.0, hi), min_size=1, max_size=8))
    return tuple(terms), np.sort(np.array(t))


def mp_jet(terms, t):
    """Value and first two derivatives of sum c (-t)^p e^{r t} at 40 digits,
    and for each row the sum of the absolute values of its summands, each
    widened by 1 + |r t| for the rounding of the exponent's argument."""
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        m = -t
        rows, mags = [mpmath.mpf(0)] * 3, [mpmath.mpf(0)] * 3
        for c, p, r in terms:
            e = c * mpmath.exp(r * t)
            # (-t)^p and its first two t-derivatives
            w = (m ** p, -p * m ** (p - 1) if p else 0, p * (p - 1) * m ** (p - 2) if p else 0)
            parts = ((w[0],), (w[1], r * w[0]), (w[2], 2 * r * w[1], r * r * w[0]))
            for k in range(3):
                rows[k] += e * sum(parts[k])
                mags[k] += abs(e) * sum(abs(x) for x in parts[k]) * (1 + abs(r * t))
        return rows, mags


class TestTermEvaluator:
    @given(case=term_sums())
    @settings(max_examples=300)
    def test_jet_matches_a_40_digit_evaluation(self, case):
        terms, t = case
        jet = PiecewiseProfile((Piece(-math.inf, math.inf, terms),)).jet(t, 2)
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny  # tiny: subnormal results
        for i, ti in enumerate(t):
            rows, mags = mp_jet(terms, float(ti))
            for k in range(3):
                err = abs(mpmath.mpf(float(jet[k, i])) - rows[k])
                assert err <= 8 * eps * mags[k] + tiny, (k, ti)

    def test_value_row_is_the_written_out_formula(self):
        # the five envelope shapes, each with the operand order of its
        # closed form: constant, exp, bump, linexp, g-bump
        t = np.linspace(-30.0, -0.25, 3001)
        A, lam, mu, q, h, c0 = 0.7, 1.3, 1.4, 2.2, 3.69, 0.45
        shapes = (
            (((c0, 0, 0.0),), np.full(t.size, c0)),
            (((A, 0, lam),), A * np.exp(lam * t)),
            (((A, 0, lam), (-q, 0, mu * lam)), A * np.exp(lam * t) - q * np.exp(mu * lam * t)),
            (((h, 1, lam),), -h * t * np.exp(lam * t)),
            (((h, 1, lam), (-q, 0.5, lam)), (h * -t - q * np.sqrt(-t)) * np.exp(lam * t)),
        )
        for terms, want in shapes:
            assert np.array_equal(PiecewiseProfile((Piece(-math.inf, math.inf, terms),)).jet(t)[0],
                                  want)

    def test_power_outside_zero_half_one_rejected(self):
        with pytest.raises(ValueError, match="term power"):
            Piece(-math.inf, math.inf, ((1.0, 2, 0.5),))


class TestParamsTypes:
    def test_supercritical_params_have_no_critical_fields(self):
        ep = select_supercritical(P, 3.0)
        assert isinstance(ep, SupercriticalParams)
        names = [f.name for f in dataclasses.fields(ep)]
        assert names == ["mu1", "mu2", "q1", "q2", "delta1", "delta2"]
        assert all(getattr(ep, name) is not None for name in names)
        for name in ("h1", "h2", "qhat1", "qhat2", "muhat2", "Qhat2", "xi1", "xihat1"):
            assert not hasattr(ep, name), name

    def test_critical_ad_below_one_takes_the_exponential_bump(self):
        ep = select_critical(SystemParams(0.5, 0.25, 1.0, 1.0))
        assert isinstance(ep, CriticalParams)
        assert ep.qhat2 is None and ep.h2 is None
        assert ep.muhat2 is not None and ep.Qhat2 is not None
        assert ep.case == CRITICAL_AD_LT1

    def test_critical_ad_one_takes_the_g_bump(self):
        ep = select_critical(P)
        assert isinstance(ep, CriticalParams)
        assert ep.qhat2 is not None and ep.h2 is not None
        assert ep.muhat2 is None and ep.Qhat2 is None
        assert ep.case == CRITICAL_AD_EQ1

    def test_envelope_case_is_the_params_case(self):
        assert build_envelopes(P, 3.0, select_supercritical(P, 3.0)).case == SUPERCRITICAL
        assert build_envelopes(P, 2.0, select_critical(P)).params.case == CRITICAL_AD_EQ1

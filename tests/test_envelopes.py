"""Piecewise envelope profiles, bump extrema, and constant selection."""

import dataclasses
import inspect
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import exprel

from lvfront import envelopes as envelopes_module
from lvfront.certify import certify
from lvfront.model import SystemParams, critical_speed
from lvfront.envelopes import (
    CRITICAL_AD_EQ1,
    CRITICAL_AD_LT1,
    SUPERCRITICAL,
    CriticalBump,
    EnvelopeParams,
    ExpBump,
    Piece,
    PiecewiseProfile,
    SelectionKnobs,
    _brentq,
    _exprel,
    build_envelopes,
    join_point,
    min_decay_rate,
    select_critical,
    select_supercritical,
)
from helpers import assert_gated, jumps, translated

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
        bump = ExpBump(coef, lam, mu, q)
        (xiM, xi0), fmax = bump.bracket, bump.fmax
        f = lambda x: coef * np.exp(lam * x) - q * np.exp(mu * lam * x)
        assert xiM < xi0 < 0.0
        assert abs(f(xi0)) < 1e-12 * max(1.0, fmax)
        xs = np.linspace(xi0 - 50.0 / lam, xi0, 20001)
        assert fmax >= f(xs).max() - 1e-9 * max(fmax, 1e-300)
        assert f(xiM) == pytest.approx(fmax, rel=1e-10)

    def test_log_max_consistent(self):
        bump = ExpBump(1.0, 0.5, 1.5, 3.0)
        assert bump.log_fmax == pytest.approx(math.log(bump.fmax), rel=1e-12)

    def test_log_max_survives_underflow(self):
        # mu barely above 1 drives the max below double-precision range
        lg = ExpBump(1.0, 0.2344, 1.001, 2.6).log_fmax
        assert lg < -900.0  # exp(lg) underflows to 0.0 in double precision
        assert math.isfinite(lg)

    def test_requires_interior_zero(self):
        with pytest.raises(ValueError, match="no interior zero"):
            ExpBump(1.0, 0.5, 1.5, 0.9)


def critical_bump_cases(lam_hi=2.0):
    """(h, q, lam, nu) with q/h in [1.05, 5] and nu/lam in [0.1, 0.5]."""
    return st.tuples(st.floats(0.5, 30.0), st.floats(1.05, 5.0), st.floats(0.3, lam_hi),
                     st.floats(0.1, 0.5)).map(lambda t: (t[0], t[1] * t[0], t[2], t[3] * t[2]))


def g_of(h, q, nu):
    """The bracket g(x) = h x + (q/nu) expm1(-nu x) of the critical bump and g'."""
    return (lambda x: h * x + q / nu * np.expm1(-nu * x),
            lambda x: h - q * np.exp(-nu * x))


class TestGBump:
    """The critical bump e^{lam xi} g(x), x = -xi: its zero, maximum point
    and maximum."""

    @given(case=critical_bump_cases())
    @settings(max_examples=60)
    def test_zero_and_max(self, case):
        h, q, lam, nu = case
        bump = CriticalBump(h, q, lam, nu, 1.0)
        xiM, xi0 = bump.bracket
        f = PiecewiseProfile((Piece(-math.inf, math.inf, bump.terms),))
        g, _ = g_of(h, q, nu)
        assert xiM < xi0 < 0.0
        assert abs(g(-xi0)) <= 1e-13 * h * -xi0
        xs = np.linspace(xi0 - 40.0 / lam, xi0, 20001)
        assert bump.fmax >= f(xs).max() * (1.0 - 1e-12)
        assert f(xiM) == pytest.approx(bump.fmax, rel=1e-12)
        assert bump.log_fmax == pytest.approx(math.log(bump.fmax), rel=1e-12)

    @given(case=critical_bump_cases(lam_hi=5.0))
    @settings(max_examples=60)
    def test_zero_and_maximum_solve_their_equations_in_their_brackets(self, case):
        # g(x0) = 0 in [ln(q/h)/nu, q/(nu h)], and g' = lam g at xM in
        # [x0, x0 + h/(lam g'(x0))], each to a few ulps of its terms
        h, q, lam, nu = case
        bump = CriticalBump(h, q, lam, nu, 1.0)
        x0, xM = -bump.bracket[1], -bump.bracket[0]
        g, dg = g_of(h, q, nu)
        assert math.log(q / h) / nu <= x0 <= q / (nu * h)
        assert x0 < xM <= x0 + h / (lam * dg(x0)) * (1.0 + 1e-12)
        assert abs(dg(xM) - lam * g(xM)) <= 1e-12 * h * (1.0 + lam * xM)
        assert bump.log_fmax == pytest.approx(math.log(g(xM)) - lam * xM, rel=1e-14)

    @given(case=critical_bump_cases(lam_hi=5.0))
    @settings(max_examples=60)
    def test_maximum_matches_a_40_digit_evaluation(self, case):
        # the zero, the maximum point and the log of the maximum, each found
        # again at 40 digits on the same brackets
        h, q, lam, nu = case
        bump = CriticalBump(h, q, lam, nu, 1.0)
        with mpmath.workdps(40):
            H, Q, L, N = map(mpmath.mpf, (h, q, lam, nu))
            g = lambda x: H * x + Q / N * mpmath.expm1(-N * x)
            dg = lambda x: H - Q * mpmath.exp(-N * x)
            x0 = mpmath.findroot(g, (mpmath.log(Q / H) / N, Q / (N * H)), solver="anderson")
            xM = mpmath.findroot(lambda x: dg(x) - L * g(x), (x0, x0 + 2 * H / (L * dg(x0))),
                                 solver="anderson")
            log_fmax = float(mpmath.log(g(xM)) - L * xM)
        assert -bump.bracket[1] == pytest.approx(float(x0), rel=1e-13)
        assert -bump.bracket[0] == pytest.approx(float(xM), rel=1e-13)
        assert abs(bump.log_fmax - log_fmax) <= 1e-14 * (1.0 + abs(log_fmax))

    @given(h=st.floats(0.5, 10.0), qf=st.floats(1e3, 1e5), lam=st.floats(1.0, 2.0))
    @settings(max_examples=30)
    def test_underflow_regime_gives_zero(self, h, qf, lam):
        # a zero this far left leaves a maximum below double precision, and
        # its log finite
        bump = CriticalBump(h, qf * h, lam, 0.5, 1.0)
        assert bump.fmax == 0.0
        assert -math.inf < bump.log_fmax < -700.0

    def test_rejects_nonpositive(self):
        # q <= h: g rises from g(0) = 0, so the bump has no zero x0 > 0
        with pytest.raises(ValueError, match="no interior zero"):
            CriticalBump(1.0, 1.0, 1.0, 0.5, 1.0)


class TestJoinPoint:
    def test_value_matches_delta(self):
        coef, lam, mu, q = 1.0, 0.5, 1.5, 3.0
        bump = ExpBump(coef, lam, mu, q)
        (xiM, xi0), fmax = bump.bracket, bump.fmax
        f = lambda x: coef * math.exp(lam * x) - q * math.exp(mu * lam * x)
        xi = join_point(f, 0.3 * fmax, (xiM, xi0))
        assert xiM < xi < xi0
        assert abs(f(xi) - 0.3 * fmax) <= 1e-12

    def test_delta_above_maximum_rejected(self):
        coef, lam, mu, q = 1.0, 0.5, 1.5, 3.0
        bump = ExpBump(coef, lam, mu, q)
        (xiM, xi0), fmax = bump.bracket, bump.fmax
        f = lambda x: coef * math.exp(lam * x) - q * math.exp(mu * lam * x)
        with pytest.raises(ValueError, match="delta above envelope maximum"):
            join_point(f, 2.0 * fmax, (xiM, xi0))


    @pytest.mark.parametrize("f", [lambda x: 2.0, lambda x: math.nan],
                             ids=["no sign change", "nan"])
    def test_root_finder_errors_name_the_bracket(self, f):
        with pytest.raises(ValueError, match="no continuity point in bracket"):
            join_point(f, 1.0, (0.0, 1.0))


def _sweep_critical_sets(count=62, seed=0, ad_max=0.99):
    """The s* sets of the benchmark's certificate sweep (sweep_cases in
    bench/workloads.py): strict-weak sets with a, d log-uniform in [0.5, 2],
    b/a in [0.1, 0.95] and ac in [0.05, 0.95], three supercritical speeds
    drawn after each, and a*d <= ad_max kept."""
    rng = random.Random(seed)
    lo, hi = math.log(0.5), math.log(2.0)
    out = []
    while len(out) < count:
        a = math.exp(rng.uniform(lo, hi))
        d = math.exp(rng.uniform(lo, hi))
        p = SystemParams(a, a * rng.uniform(0.1, 0.95), rng.uniform(0.05, 0.95) / a, d)
        for _ in range(3):
            rng.uniform(0.01, 1.0)
        if a * d <= ad_max:
            out.append(p)
    return out


#: _brentq's own tolerances, which its call sites use
_TOLS = {name: inspect.signature(_brentq).parameters[name].default for name in ("xtol", "rtol")}


class TestBrentq:
    """The private root finder returns scipy.optimize.brentq's float, and
    _exprel scipy.special.exprel's."""

    def test_same_float_as_scipy_at_every_call_site(self, monkeypatch):
        sites, pairs = set(), []

        def both(f, a, b):
            sites.add(f.__qualname__.split(".")[0])
            pairs.append((_brentq(f, a, b), brentq(f, a, b, **_TOLS)))
            return pairs[-1][0]

        monkeypatch.setattr(envelopes_module, "_brentq", both)
        for p in _sweep_critical_sets():
            for mode in ("default", "nonmonotone-u", "nonmonotone-v"):
                certify(p, critical_speed(p), mode=mode)
        assert sites == {"CriticalBump", "join_point", "_critical_q"}
        assert all(ours == theirs for ours, theirs in pairs)

    # cubics with a root in the bracket, some at an end of it
    @given(r=st.floats(-1.0, 1.0), k=st.floats(0.0, 50.0), a=st.floats(-3.0, -1.0),
           b=st.sampled_from([1.0, 2.5, 40.0]), xtol=st.sampled_from([1e-14, 1e-6]))
    @settings(max_examples=200)
    def test_same_float_as_scipy_on_cubics(self, r, k, a, b, xtol):
        f = lambda x: (x - r) * (1.0 + k * x * x)
        assert _brentq(f, a, b, xtol=xtol) == brentq(f, a, b, xtol=xtol, rtol=_TOLS["rtol"])
        assert _brentq(f, r, b) == r

    @pytest.mark.parametrize("scale", [1e-170, 1e-178, 1e-300])
    def test_an_underflowing_interpolation_bisects_as_scipy(self, scale):
        # the inverse quadratic step divides by a product of three
        # differences of values near scale, which is 0 in floats
        f = lambda x: scale * (x - 0.3) * (1.0 + 4.0 * x * x)
        assert _brentq(f, -1.0, 2.0) == brentq(f, -1.0, 2.0, **_TOLS)

    def test_a_set_whose_join_search_underflows_is_decided(self):
        # delta2 is 1.5e-178 here, a hair above s*; the join search once
        # raised ZeroDivisionError
        p = SystemParams(0.9322301471612778, 0.17280902225785988, 0.11543202457300278,
                         1.6546720810705609)
        assert certify(p, 2.4844594415989874).passed

    @pytest.mark.parametrize("f", [lambda x: x * x + 1.0, lambda x: math.nan],
                             ids=["no sign change", "nan"])
    def test_value_error(self, f):
        with pytest.raises(ValueError):
            _brentq(f, -1.0, 1.0)

    @given(x=st.one_of(st.floats(-745.0, 700.0), st.sampled_from([0.0, -0.0, 1e-17, -5e-324])))
    @settings(max_examples=300)
    def test_exprel_is_scipys(self, x):
        assert _exprel(x) == exprel(x)

    @pytest.mark.parametrize("x", [1e-16, 1.8229709588581847e-16, 2.0 ** -52,
                                   math.nextafter(2.0 ** -52, 0.0),
                                   math.nextafter(2.0 ** -52, 1.0), -2.0 ** -52,
                                   math.nextafter(-2.0 ** -52, 0.0), 3e-16])
    def test_exprel_is_scipys_at_its_limit_branch(self, x):
        # scipy returns 1 below the machine epsilon, where expm1(x)/x may
        # round up to 1 + 2^-52
        assert _exprel(x) == exprel(x)

    def test_runtime_error_after_100_steps(self):
        # a step function: about 1000 halvings from 1e300 down to its jump
        step = lambda x: -1.0 if x < 0.3 else 1.0
        for root in (_brentq, lambda f, a, b: brentq(f, a, b, **_TOLS)):
            with pytest.raises(RuntimeError):
                root(step, -1e300, 1e300)


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
            assert max(jumps(prof)) <= 1e-10

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
        assert_gated("envelopes")

    def test_mu_override_validated(self):
        with pytest.raises(ValueError, match="mu outside admissible interval"):
            select_supercritical(P, 3.0, SelectionKnobs(mu1=5.0))

    def test_q_override_validated(self):
        with pytest.raises(ValueError, match="q below its selection floor"):
            select_supercritical(P, 3.0, SelectionKnobs(q1=0.5))

    def test_nonmonotone_knobs_raise_lower_maximum(self):
        ep_d = select_supercritical(P, 4.5)
        ep_n = select_supercritical(P, 4.5, SelectionKnobs(nonmonotone_v=True))
        fmax_d = ExpBump(P.a, 0.2344, ep_d.v.mu, ep_d.v.q).fmax
        fmax_n = ExpBump(P.a, 0.2344, ep_n.v.mu, ep_n.v.q).fmax
        assert fmax_n > fmax_d

    def test_critical_requires_small_product(self):
        with pytest.raises(ValueError, match="apply species swap"):
            select_critical(SystemParams(2.0, 0.5, 0.25, 1.0))

    def test_critical_constants(self):
        # a = d = 1: slope constant h = (1/2) e^2 at lam-hat = 1
        ep = select_critical(P)
        assert ep.u.h == pytest.approx(0.5 * math.e ** 2, rel=1e-12)
        assert ep.v.h == pytest.approx(ep.u.h, rel=1e-12)
        assert ep.u.q > 0.0 and ep.v.q > 0.0

    @given(s=st.floats(2.1, 8.0))
    @settings(max_examples=30)
    def test_selection_feasible_across_speeds(self, s):
        ep = select_supercritical(P, s)
        env = build_envelopes(P, s, ep)
        assert env.case == SUPERCRITICAL


class TestEnvelopeSet:
    def test_tail_decay_rates(self):
        env = build()
        x = -30.0
        lam1 = math.log(env.u_upper(x + 1.0) / env.u_upper(x))
        assert lam1 == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, rel=1e-9)


#: one profile with a piece of every envelope shape: critical bump, bump,
#: linexp, exp and constant; the pieces with p != 0 terms stay at t < 0
ALL_KINDS = PiecewiseProfile((
    Piece(-math.inf, -8.0, ((2.0, 1, 0.8), (-3.0, 0, 0.8), (3.0, 0, 1.2))),
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
        prof = translated(ALL_KINDS, shift)
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
            translated(ALL_KINDS, 0.5)(np.array([0.0, math.nan]), 2)
        # NaN sorts last, so it ends a sorted array
        x = np.sort(np.array([math.nan, -3.0, 1.0]))
        for prof in (ALL_KINDS, translated(ALL_KINDS, 0.5)):
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
    terms = draw(st.lists(st.tuples(st.floats(-5.0, 5.0), st.sampled_from([0, 1]),
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

    @staticmethod
    def written_out_shapes(t):
        """The five envelope shapes, each with its rows 0, 1 and 2 in the
        operand order of its closed form: constant, exp, bump, linexp and
        critical bump."""
        A, lam, mu, q, h, c0, nu = 0.7, 1.3, 1.4, 2.2, 3.69, 0.45, 0.65
        e, mr, lr = np.exp(lam * t), mu * lam, lam + nu
        zero = np.zeros(t.size)
        phi = h * -t + -q / nu
        return (
            (((c0, 0, 0.0),), (np.full(t.size, c0), zero, zero)),
            (((A, 0, lam),), (A * e, lam * A * e, lam * lam * A * e)),
            (((A, 0, lam), (-q, 0, mr)),
             (A * e - q * np.exp(mr * t), lam * A * e + mr * -q * np.exp(mr * t),
              lam * lam * A * e + mr * mr * -q * np.exp(mr * t))),
            (((h, 1, lam),),
             (-h * t * e, (-h + lam * (h * -t)) * e,
              (2.0 * lam * -h + lam * lam * (h * -t)) * e)),
            (((h, 1, lam), (-q / nu, 0, lam), (q / nu, 0, lr)),
             (phi * e + q / nu * np.exp(lr * t),
              (-h + lam * phi) * e + lr * (q / nu) * np.exp(lr * t),
              (2.0 * lam * -h + lam * lam * phi) * e + lr * lr * (q / nu) * np.exp(lr * t))),
        )

    def test_value_row_is_the_written_out_formula(self):
        t = np.linspace(-30.0, -0.25, 3001)
        for terms, want in self.written_out_shapes(t):
            assert np.array_equal(PiecewiseProfile((Piece(-math.inf, math.inf, terms),)).jet(t)[0],
                                  want[0])

    def test_derivative_rows_are_the_written_out_formulas(self):
        t = np.linspace(-30.0, -0.25, 3001)
        for terms, want in self.written_out_shapes(t):
            jet = PiecewiseProfile((Piece(-math.inf, math.inf, terms),)).jet(t, 2)
            for k in (1, 2):
                assert np.array_equal(jet[k], want[k]), (terms, k)

    def test_float_path_equals_the_array_rows(self):
        # Piece.at (math.exp, the path of every brentq) and jet (np.exp)
        # compute the same closed forms, so they give the same bits wherever
        # the two exponentials do; np.exp may differ from math.exp in the
        # last bit, at a few percent of the points
        t = np.linspace(-30.0, -0.25, 997)
        for terms, _ in self.written_out_shapes(t):
            same_exp = np.ones(t.size, dtype=bool)
            for r in {r for _, _, r in terms}:
                same_exp &= np.exp(r * t) == np.array([math.exp(r * ti) for ti in t])
            assert same_exp.mean() > 0.8
            piece = Piece(-math.inf, math.inf, terms)
            jet = PiecewiseProfile((piece,)).jet(t[same_exp], 2)
            for k in range(3):
                floats = [piece.at(float(ti), k)[k] for ti in t[same_exp]]
                assert all(type(f) is float for f in floats)
                assert np.array_equal(np.array(floats), jet[k]), (terms, k)

    def test_power_outside_zero_one_rejected(self):
        for p in (2, 0.5):
            with pytest.raises(ValueError, match="term power"):
                Piece(-math.inf, math.inf, ((1.0, p, 0.5),))


class TestParamsTypes:
    def test_params_have_no_optional_field(self):
        # every case is the same four fields, each set; the bumps carry the shape
        for ep in (select_supercritical(P, 3.0), select_critical(P),
                   select_critical(SystemParams(0.5, 0.25, 1.0, 1.0))):
            assert isinstance(ep, EnvelopeParams)
            names = [f.name for f in dataclasses.fields(ep)]
            assert names == ["u", "v", "delta1", "delta2"]
            assert all(getattr(ep, name) is not None for name in names)
            for bump in (ep.u, ep.v):
                assert all(getattr(bump, f.name) is not None for f in dataclasses.fields(bump))
        for f in dataclasses.fields(EnvelopeParams):
            assert "Optional" not in str(f.type) and "None" not in str(f.type), f

    def test_supercritical_params_have_no_critical_fields(self):
        ep = select_supercritical(P, 3.0)
        assert isinstance(ep.u, ExpBump) and isinstance(ep.v, ExpBump)
        for name in ("h", "nu", "cap"):
            assert not hasattr(ep.u, name) and not hasattr(ep.v, name), name
        assert ep.case == SUPERCRITICAL

    def test_critical_ad_below_one_takes_the_exponential_bump(self):
        ep = select_critical(SystemParams(0.5, 0.25, 1.0, 1.0))
        assert isinstance(ep.u, CriticalBump) and isinstance(ep.v, ExpBump)
        assert ep.case == CRITICAL_AD_LT1

    def test_critical_ad_one_takes_the_g_bump(self):
        ep = select_critical(P)
        assert isinstance(ep.u, CriticalBump) and isinstance(ep.v, CriticalBump)
        assert ep.case == CRITICAL_AD_EQ1

    def test_envelope_case_is_the_params_case(self):
        assert build_envelopes(P, 3.0, select_supercritical(P, 3.0)).case == SUPERCRITICAL
        assert build_envelopes(P, 2.0, select_critical(P)).params.case == CRITICAL_AD_EQ1

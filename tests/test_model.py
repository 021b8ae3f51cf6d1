"""Regimes, equilibria, decay rates, admissibility, and the species swap."""

import math

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from lvfront.certify import certify
from lvfront.model import (
    EQ_TOL,
    Admissibility,
    Regime,
    SystemParams,
    admissibility,
    classify_regime,
    critical_speed,
    decay_rates,
    equilibria,
    species_swap,
)

positive = st.floats(min_value=0.05, max_value=5.0,
                     allow_nan=False, allow_infinity=False)


def strict_weak_params(a=1.0, b_frac=0.5, c_frac=0.5, d=1.0):
    return SystemParams(a, b_frac * a, c_frac / a, d)


class TestSystemParams:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(ValueError):
            SystemParams(1.0, 0.5, bad, 1.0)

    def test_frozen(self):
        p = SystemParams(1.0, 0.5, 0.5, 1.0)
        with pytest.raises(AttributeError):
            p.a = 2.0


class TestRegime:
    def test_strict_weak(self):
        assert classify_regime(SystemParams(1.0, 0.5, 0.5, 1.0)) is Regime.STRICT_WEAK

    def test_critical_c(self):
        assert classify_regime(SystemParams(2.0, 0.5, 0.5, 1.0)) is Regime.CRITICAL_WEAK_C

    def test_critical_b(self):
        assert classify_regime(SystemParams(1.0, 1.0, 0.5, 1.0)) is Regime.CRITICAL_WEAK_B

    def test_strong_competition_out_of_scope(self):
        assert classify_regime(SystemParams(1.0, 2.0, 2.0, 1.0)) is Regime.OUT_OF_SCOPE

    def test_boundary_tolerance(self):
        # a*c within EQ_TOL of 1 counts as the critical-c boundary
        p = SystemParams(2.0, 0.5, (1.0 + 0.5 * EQ_TOL) / 2.0, 1.0)
        assert classify_regime(p) is Regime.CRITICAL_WEAK_C


class TestEquilibria:
    def test_coexistence_closed_form(self):
        eq = equilibria(SystemParams(1.0, 25.0 / 26.0, 0.5, 1.0))
        assert eq.coexistence[0] == pytest.approx(26.0 / 27.0, abs=1e-14)
        assert eq.coexistence[1] == pytest.approx(2.0 / 27.0, abs=1e-14)

    def test_degenerate_points(self):
        assert equilibria(SystemParams(1.0, 1.0, 0.5, 1.0)).coexistence == (1.0, 0.0)
        assert equilibria(SystemParams(2.0, 0.5, 0.5, 1.0)).coexistence == (0.0, 2.0)

    def test_out_of_scope_raises(self):
        with pytest.raises(ValueError, match="unsupported regime"):
            equilibria(SystemParams(1.0, 2.0, 2.0, 1.0))

    @given(a=positive, bf=st.floats(0.05, 0.95), cf=st.floats(0.05, 0.95))
    def test_coexistence_inside_box(self, a, bf, cf):
        p = SystemParams(a, bf * a, cf / a, 1.0)
        ustar, vstar = equilibria(p).coexistence
        assert 0.0 < ustar < 1.0
        assert 0.0 < vstar < a


class TestCriticalSpeedAndRates:
    def test_critical_speed_values(self):
        assert critical_speed(SystemParams(1.0, 0.5, 0.5, 1.0)) == 2.0
        assert critical_speed(SystemParams(2.0, 0.5, 0.25, 2.0)) == 4.0
        assert critical_speed(SystemParams(0.5, 0.2, 0.5, 0.5)) == 2.0

    def test_supercritical_roots(self):
        r = decay_rates(SystemParams(1.0, 0.5, 0.5, 1.0), 2.5)
        assert r.lambda1 == pytest.approx(0.5, abs=1e-14)
        assert r.lambda3 == pytest.approx(2.0, abs=1e-14)

    def test_critical_double_root(self):
        r = decay_rates(SystemParams(1.0, 0.5, 0.5, 1.0), 2.0)
        assert r.lambda1 == r.lambda3 == 1.0

    def test_a_d_one_ulp_below_one_is_the_double_root_at_s_star(self):
        # fl(a*d) = 1 - 2^-53: select_critical builds the double root, and
        # decay_rates clamps the discriminant 4 - 4 fl(a*d) = 4.4e-16 to it
        p = SystemParams(0.9649368974046932, 0.7283483228761555, 0.5022050152786232,
                         1.036337197478522)
        assert p.a * p.d < 1.0 and critical_speed(p) == 2.0
        r = decay_rates(p, 2.0)
        assert r.lambda2 == r.lambda4 == 1.0 / p.d
        assert certify(p, 2.0).passed
        # above s* the discriminant is kept: two roots
        r = decay_rates(p, math.nextafter(2.0, 3.0))
        assert r.lambda2 < r.lambda4

    @given(a=st.floats(0.5, 2.0), bf=st.floats(0.1, 0.9), cf=st.floats(0.1, 0.9))
    @example(a=1.3750730591825469, bf=0.5, cf=0.5)   # fl(a * (1/a)) < 1
    @settings(max_examples=25, deadline=None)
    def test_d_one_over_a_is_a_double_root_certified_at_s_star(self, a, bf, cf):
        p = SystemParams(a, bf * a, cf / a, 1.0 / a)
        s = critical_speed(p)
        r = decay_rates(p, s)
        assert r.lambda1 == r.lambda3 and r.lambda2 == r.lambda4
        assert certify(p, s).passed

    def test_subcritical_raises(self):
        # the gate is exact: the float just below s* is refused
        for s in (1.5, math.nextafter(2.0, 0.0)):
            with pytest.raises(ValueError, match="subcritical"):
                decay_rates(SystemParams(1.0, 0.5, 0.5, 1.0), s)

    @given(a=positive, d=positive, extra=st.floats(0.01, 3.0))
    def test_root_products(self, a, d, extra):
        p = SystemParams(a, 0.5 * a, 0.5 / a, d)
        s = critical_speed(p) + extra
        r = decay_rates(p, s)
        assert r.lambda1 * r.lambda3 == pytest.approx(1.0, rel=1e-9)
        assert r.lambda2 * r.lambda4 == pytest.approx(a / d, rel=1e-9)
        assert 0.0 < r.lambda1 <= r.lambda3
        assert 0.0 < r.lambda2 <= r.lambda4

    @given(a=positive, d=positive, log_s=st.floats(0.0, 8.0))
    @example(a=1.0, d=1.0, log_s=2.0)
    @example(a=1.0, d=1.0, log_s=5.0)
    @example(a=1.0, d=1.0, log_s=8.0)
    @settings(max_examples=200)
    def test_each_root_satisfies_its_quadratic_to_a_few_ulps(self, a, d, log_s):
        # the residual D x^2 - s x + A of each float root, at 50 digits, is a
        # few rounding units of the size of its terms from s* up to s = 1e8;
        # (s - sqrt(s^2 - 4))/2 misses lambda1 by 25 % at s = 1e8
        p = SystemParams(a, 0.5 * a, 0.5 / a, d)
        s = max(critical_speed(p), 10.0 ** log_s)
        r = decay_rates(p, s)
        eps = 2.0 ** -52
        with mpmath.workdps(50):
            for x, D, A in ((r.lambda1, 1.0, 1.0), (r.lambda3, 1.0, 1.0),
                            (r.lambda2, d, a), (r.lambda4, d, a)):
                x = mpmath.mpf(x)
                size = D * x * x + s * x + A
                assert abs(D * x * x - s * x + A) <= 4 * eps * size, (x, D, A, s)


class TestAdmissibility:
    def test_reasons(self):
        p = SystemParams(1.0, 0.5, 0.5, 1.0)
        assert admissibility(p, -1.0).reason == "nonpositive speed"
        assert admissibility(p, 1.9).reason == "complex linearization roots"
        assert admissibility(p, math.nextafter(2.0, 0.0)).reason == "complex linearization roots"
        assert admissibility(p, 2.0).admissible

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_speed(self, s):
        p = SystemParams(1.0, 0.5, 0.5, 1.0)
        assert admissibility(p, s) == Admissibility(False, "non-finite speed")
        with pytest.raises(ValueError, match="non-finite speed"):
            decay_rates(p, s)
        with pytest.raises(ValueError, match="non-finite speed"):
            certify(p, s)

    @pytest.mark.parametrize("s", [1e155, 1e300, 1.7e308])
    def test_speed_whose_square_overflows(self, s):
        p = SystemParams(1.0, 0.5, 0.5, 1.0)
        assert admissibility(p, s) == Admissibility(False, "speed squared overflows")
        with pytest.raises(ValueError, match="speed squared overflows"):
            decay_rates(p, s)
        with pytest.raises(ValueError, match="speed squared overflows"):
            certify(p, s)

    @given(a=positive, d=positive)
    def test_critical_speed_is_admissible(self, a, d):
        p = SystemParams(a, 0.5 * a, 0.5 / a, d)
        assert admissibility(p, critical_speed(p)).admissible

    @given(a=st.floats(0.05, 3000.0), d=st.floats(0.05, 3000.0))
    @example(a=64.55533093067538, d=291.7673862868019)
    def test_decay_rates_at_the_admissible_s_star(self, a, d):
        # the clamp scales with s^2, the size of its rounding, so the rates
        # exist wherever the gate admits s*, a*d in the thousands included
        p = SystemParams(a, 0.5 * a, 0.5 / a, d)
        r = decay_rates(p, critical_speed(p))
        assert 0.0 < r.lambda1 <= r.lambda3 and 0.0 < r.lambda2 <= r.lambda4


class TestSpeciesSwap:
    @given(a=positive, bf=st.floats(0.05, 0.95), cf=st.floats(0.05, 0.95),
           d=positive, extra=st.floats(0.0, 3.0))
    def test_involution(self, a, bf, cf, d, extra):
        p = SystemParams(a, bf * a, cf / a, d)
        s = critical_speed(p) + extra
        q, s1 = species_swap(p, s)
        p2, s2 = species_swap(q, s1)
        assert p2.a == pytest.approx(p.a, rel=1e-12)
        assert p2.b == pytest.approx(p.b, rel=1e-12)
        assert p2.c == pytest.approx(p.c, rel=1e-12)
        assert p2.d == pytest.approx(p.d, rel=1e-12)
        assert s2 == pytest.approx(s, rel=1e-12)

    def test_swap_exchanges_product_regimes(self):
        p = SystemParams(2.0, 0.5, 0.25, 1.0)  # a*d = 2 > 1
        q, _ = species_swap(p, critical_speed(p))
        assert q.a * q.d == pytest.approx(0.5, rel=1e-12)

    @given(ad=st.floats(1.001, 4.0))
    def test_swap_preserves_admissibility_from_above(self, ad):
        p = SystemParams(ad, 0.5 * ad, 0.5 / ad, 1.0)
        s = critical_speed(p)
        q, s1 = species_swap(p, s)
        assert admissibility(q, s1 + 1e-9).admissible

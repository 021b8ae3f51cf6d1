"""Regimes, equilibria, decay rates, admissibility, and the species swap."""

import math

import pytest
from hypothesis import given, strategies as st

from lvfront.model import (
    EQ_TOL,
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

    def test_subcritical_raises(self):
        with pytest.raises(ValueError, match="subcritical"):
            decay_rates(SystemParams(1.0, 0.5, 0.5, 1.0), 1.5)

    @given(a=positive, d=positive, extra=st.floats(0.01, 3.0))
    def test_root_products(self, a, d, extra):
        p = SystemParams(a, 0.5 * a, 0.5 / a, d)
        s = critical_speed(p) + extra
        r = decay_rates(p, s)
        assert r.lambda1 * r.lambda3 == pytest.approx(1.0, rel=1e-9)
        assert r.lambda2 * r.lambda4 == pytest.approx(a / d, rel=1e-9)
        assert 0.0 < r.lambda1 <= r.lambda3
        assert 0.0 < r.lambda2 <= r.lambda4


class TestAdmissibility:
    def test_reasons(self):
        p = SystemParams(1.0, 0.5, 0.5, 1.0)
        assert admissibility(p, -1.0).reason == "nonpositive speed"
        assert admissibility(p, 1.9).reason == "complex linearization roots"
        assert admissibility(p, 2.0).admissible

    @given(a=positive, d=positive)
    def test_critical_speed_is_admissible(self, a, d):
        p = SystemParams(a, 0.5 * a, 0.5 / a, d)
        assert admissibility(p, critical_speed(p)).admissible


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

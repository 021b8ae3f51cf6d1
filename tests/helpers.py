"""Shared test helpers: envelopes moved along the line, their jumps at the
joins, the operator on a constant state, the table of entry points that the
regime gate guards, and the draws of the solve atlas."""

import dataclasses
import math
import random

import numpy as np
import pytest

from lvfront.analyze import nonmonotone_condition_u, nonmonotone_condition_v, scan_region
from lvfront.certify import certify
from lvfront.envelopes import (SOLVE_REACH, EnvelopeSet, Piece, PiecewiseProfile, left_reach,
                               select_critical, select_supercritical)
from lvfront.model import SystemParams, critical_speed
from lvfront.pulse import plan_continuation
from lvfront.solve import OperatorConfig, _kernel_apply, kernel_rates


def translated(env, delta):
    """The profile or envelope set env moved right by delta.

    Each piece's ends move by delta, and its term c (-t)^p e^{r t} becomes
    c (delta - xi)^p e^{r (xi - delta)}: the term c e^{-r delta} (-xi)^p e^{r xi}
    and, for p = 1, the term c delta e^{-r delta} e^{r xi}.
    """
    if isinstance(env, EnvelopeSet):
        return dataclasses.replace(env, **{
            name: translated(getattr(env, name), delta)
            for name in ("u_upper", "u_lower", "v_upper", "v_lower")})
    pieces = []
    for pc in env.pieces:
        terms = []
        for c, p, r in pc.terms:
            c *= math.exp(-r * delta)
            terms += [(c, p, r), (c * delta, 0, r)] if p else [(c, p, r)]
        pieces.append(Piece(pc.lo + delta, pc.hi + delta, tuple(terms)))
    return PiecewiseProfile(tuple(pieces))


def jumps(prof):
    """|f(x-) - f(x+)| at each join x of the profile prof, from the pieces on
    either side."""
    return [abs(left.at(left.hi)[0] - right.at(left.hi)[0])
            for left, right in zip(prof.pieces, prof.pieces[1:])]


def constant_image(K1, K2, p, s, beta, h, n):
    """P of the constant state (K1, K2) on n points, extended by the same
    state on both sides: the kernel of each component applied to its shifted
    reaction F(K1, K2), with that value as both tails (apply_P extends by
    the extinction state on the left)."""
    beta_u, beta_v = beta
    F1 = beta_u * K1 + K1 * (1.0 - K1 - p.c * K2)
    F2 = beta_v * K2 + K2 * (p.a - p.b * K1 - K2)
    (a1, g1), (a2, g2) = kernel_rates(p, s, beta)
    return (_kernel_apply(np.full(n, F1), h, a1, g1, 1.0, F1, F1),
            _kernel_apply(np.full(n, F2), h, a2, g2, p.d, F2, F2))


def atlas_draws(count, seed=17):
    """The first count draws (params, s) of the solve atlas.

    random.Random(seed) draws a and d log-uniform in [0.5, 2], b/a uniform
    in [0.1, 0.95] and ac in [0.05, 0.95], the certificate sweep's box.
    Where a*d <= 0.99 a draw takes s* with probability 0.3; every other
    draw takes s = s*(1 + U(0.01, 1)).
    """
    rng = random.Random(seed)
    log_lo, log_hi = math.log(0.5), math.log(2.0)
    draws = []
    for _ in range(count):
        a = math.exp(rng.uniform(log_lo, log_hi))
        d = math.exp(rng.uniform(log_lo, log_hi))
        p = SystemParams(a, a * rng.uniform(0.1, 0.95), rng.uniform(0.05, 0.95) / a, d)
        s_star = critical_speed(p)
        at_s_star = a * d <= 0.99 and rng.random() < 0.3
        draws.append((p, s_star if at_s_star else s_star * (1.0 + rng.uniform(0.01, 1.0))))
    return draws


def cli_config(env, n_points=2801, tol=1e-8):
    """The OperatorConfig of lvfront solve without --domain: left edge
    min(-60, left_reach(env, SOLVE_REACH)) and right edge 120."""
    return OperatorConfig(left=min(-60.0, left_reach(env, SOLVE_REACH)), right=120.0,
                          n_points=n_points, tol=tol)


#: the sets outside the strict-weak regime that the gate refuses: a*c = 1,
#: b = a, and out of scope; s* = 2 for each
UNSUPPORTED = (SystemParams(1.0, 0.5, 1.0, 1.0), SystemParams(1.0, 1.0, 0.5, 1.0),
               SystemParams(1.0, 2.0, 2.0, 1.0))

#: every entry point that calls model.require_strict_weak, by module, each
#: called with a set at the speed 2.5
GATED = {
    "certify": [lambda p: certify(p, 2.5)],
    "envelopes": [lambda p: select_supercritical(p, 2.5), select_critical],
    "analyze": [lambda p: nonmonotone_condition_u(p, 2.5),
                lambda p: nonmonotone_condition_v(p, 2.5),
                lambda p: scan_region(p, [2.5], [p.a - p.b])],
    "pulse": [lambda p: plan_continuation(p, 2.5, "c_to_1_over_a", 4)],
}


def assert_gated(module):
    """Every gated entry point of module refuses every UNSUPPORTED set."""
    for call in GATED[module]:
        for p in UNSUPPORTED:
            with pytest.raises(ValueError, match="unsupported regime"):
                call(p)

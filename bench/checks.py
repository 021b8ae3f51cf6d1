"""Correctness checks made apart from the program.

Each check recomputes what it needs from the closed-form system (the
equilibria, the ODE residual by central differences, the bump maximum)
and never compares against stored output, so a change that translates or
refines a profile still passes.  Every check raises CheckFailed.
"""

from __future__ import annotations

import numpy as np

#: an interior extremum whose prominence exceeds this share of the
#: component's range makes the component non-monotone
PROMINENCE_FRAC = 1e-4
#: allowed excursion outside the box [0,1] x [0,a]
BOX_TOL = 1e-12
#: distance of the domain ends from the closed-form end states
END_TOL = 1e-6
#: sup-norm of the central-difference ODE residual of a front
FRONT_RESIDUAL_TOL = 1e-4
#: sup-norm of the residual of the pulse limit against c = 1/a
PULSE_RESIDUAL_TOL = 1e-3
#: right-end tolerance of the pulse limit, u -> 0 and v -> a
PULSE_END_TOL = 1e-2
#: finite-difference step for the envelope inequalities, and the share of
#: the local envelope value the recomputed residual may err by
FD_STEP = 5e-4
FD_REL_TOL = 1e-6
#: seeded check points per certificate
POINTS_PER_CERT = 32
#: check points whose envelope values drop below this are skipped, since
#: there the values are denormal or already zero
TINY = 1e-200


class CheckFailed(AssertionError):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def read_profile_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1], data[:, 2]


def coexistence(params):
    a, b, c, d = params
    return (1.0 - a * c) / (1.0 - b * c), (a - b) / (1.0 - b * c)


def fd_residual(xi, u, v, params, s):
    """Sup-norm of the central-difference residual of
    u'' - s u' + u(1-u-cv) = 0 and d v'' - s v' + v(a-bu-v) = 0."""
    a, b, c, d = params
    h = (xi[-1] - xi[0]) / (xi.size - 1)
    require(np.allclose(np.diff(xi), h, rtol=1e-9, atol=0.0), "grid is not uniform")
    worst = 0.0
    for w, other, eq in ((u, v, 0), (v, u, 1)):
        w2 = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / (h * h)
        w1 = (w[2:] - w[:-2]) / (2.0 * h)
        wm, om = w[1:-1], other[1:-1]
        if eq == 0:
            r = w2 - s * w1 + wm * (1.0 - wm - c * om)
        else:
            r = d * w2 - s * w1 + wm * (a - b * om - wm)
        worst = max(worst, float(np.abs(r).max()))
    return worst


def drawdown(y):
    """Largest drop below the running maximum: the prominence of the most
    prominent interior extremum of a rising profile."""
    return float((np.maximum.accumulate(y) - y).max())


def check_front(xi, u, v, params, s, v_overshoot):
    a = params[0]
    ustar, vstar = coexistence(params)
    require(u.min() >= -BOX_TOL and u.max() <= 1.0 + BOX_TOL, "u leaves [0, 1]")
    require(v.min() >= -BOX_TOL and v.max() <= a + BOX_TOL, "v leaves [0, a]")
    require(abs(u[-1] - ustar) <= END_TOL and abs(v[-1] - vstar) <= END_TOL,
            f"right end ({u[-1]}, {v[-1]}) is not ({ustar}, {vstar})")
    require(abs(u[0]) <= END_TOL and abs(v[0]) <= END_TOL, "left end is not near 0")
    require(drawdown(u) <= PROMINENCE_FRAC * np.ptp(u), "u has an interior extremum")
    if v_overshoot:
        require(v.max() > vstar + END_TOL, f"max v {v.max()} does not overshoot v* {vstar}")
    else:
        require(drawdown(v) <= PROMINENCE_FRAC * np.ptp(v), "v has an interior extremum")
    res = fd_residual(xi, u, v, params, s)
    require(res < FRONT_RESIDUAL_TOL, f"ODE residual {res:.3g}")


def bump_max(coef, mu, q):
    """Maximum of coef e^{lam xi} - q e^{mu lam xi}; lam drops out."""
    return coef * (1.0 - 1.0 / mu) * (q * mu / coef) ** (-1.0 / (mu - 1.0))


def check_pulse(out, params, s):
    a, b, c, d = params
    require(len(out["converged"]) == out["n_steps"] and all(out["converged"]),
            "a continuation step did not converge")
    floor = bump_max(1.0, out["mu1"], out["q1"])
    for k, m in enumerate(out["max_u"]):
        require(m >= floor - 1e-8, f"step {k}: max u {m} below the bump maximum {floor}")
    u, v = out["u"], out["v"]
    require(abs(u[-1]) <= PULSE_END_TOL and abs(v[-1] - a) <= PULSE_END_TOL,
            f"limit right end ({u[-1]}, {v[-1]}) is not (0, {a})")
    res = fd_residual(out["xi"], u, v, (a, b, 1.0 / a, d), s)
    require(res <= PULSE_RESIDUAL_TOL, f"limit residual {res:.3g} against c = 1/a")
    refined = out["refined_residual"]
    require(refined is not None and refined <= 0.5 * res,
            f"refined residual {refined} is not at most half of {res:.3g}")


def check_envelopes(env, params, s, left, right, rng):
    """At seeded points away from the joins, the envelopes are ordered and
    the four differential inequalities, from second differences of
    envelope values, hold within the finite-difference error."""
    a, b, c, d = params
    h = FD_STEP
    joins = np.asarray(env.join_points)
    xs = np.array([rng.uniform(left, right) for _ in range(2 * POINTS_PER_CERT)])
    xs = xs[np.abs(xs[:, None] - joins[None, :]).min(axis=1) > 4.0 * h][:POINTS_PER_CERT]
    names = ("u_upper", "u_lower", "v_upper", "v_lower")
    vals = {}
    for name in names:
        f = getattr(env, name)
        vals[name] = (f(xs - h), f(xs), f(xs + h))
    keep = np.ones(xs.size, dtype=bool)
    for lo, mid, hi in vals.values():
        keep &= np.minimum(np.minimum(np.abs(lo), np.abs(mid)), np.abs(hi)) > TINY
    require(keep.sum() >= POINTS_PER_CERT // 4, "too few check points")

    def parts(name):
        lo, mid, hi = (x[keep] for x in vals[name])
        return mid, (hi - lo) / (2.0 * h), (hi - 2.0 * mid + lo) / (h * h)

    uu, uu1, uu2 = parts("u_upper")
    ul, ul1, ul2 = parts("u_lower")
    vu, vu1, vu2 = parts("v_upper")
    vl, vl1, vl2 = parts("v_lower")
    require(np.all(ul <= uu * (1.0 + 1e-12)) and np.all(vl <= vu * (1.0 + 1e-12)),
            f"envelopes out of order ({env.case}, s={s})")
    ineqs = (
        ("u_upper", uu2 - s * uu1 + uu * (1.0 - uu - c * vl), uu, +1),
        ("u_lower", ul2 - s * ul1 + ul * (1.0 - ul - c * vu), ul, -1),
        ("v_upper", d * vu2 - s * vu1 + vu * (a - b * ul - vu), vu, +1),
        ("v_lower", d * vl2 - s * vl1 + vl * (a - b * uu - vl), vl, -1),
    )
    for name, res, w, sign in ineqs:
        slack = FD_REL_TOL * np.abs(w)
        bad = sign * res > slack
        require(not bad.any(), f"{name} inequality fails by {np.max(sign * res - slack):.3g} "
                               f"({env.case}, params={params}, s={s})")

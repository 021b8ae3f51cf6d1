"""End-to-end acceptance gate: the ten headline behaviors of the package."""

import json
import math
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from lvfront.model import SystemParams, admissibility, critical_speed, decay_rates, equilibria
from lvfront.envelopes import bump_extrema
from lvfront.certify import certify
from lvfront.solve import OperatorConfig, apply_P, beta_floor, iterate, ode_residual, tail_check, with_tail_report
from lvfront.analyze import classify, interior_box_implies_monotone, oscillation_coupling, sturm_interval
from lvfront.pulse import plan_continuation, run_continuation
from lvfront import cli

P_FRONT = SystemParams(1.0, 25.0 / 26.0, 0.5, 1.0)
CFG_FRONT = OperatorConfig(left=-120.0, right=2600.0, n_points=54401,
                           tol=1e-10, max_iters=4000)
P_CRIT = SystemParams(1.0, 0.5, 0.5, 1.0)
CFG_CRIT = OperatorConfig(left=-60.0, right=100.0, n_points=6401,
                          tol=1e-8, max_iters=20000)


@pytest.fixture(scope="module")
def front_run():
    """Non-monotone front at s=4.5 squeezed out of the overshoot envelopes."""
    t0 = time.time()
    cert = certify(P_FRONT, 4.5, mode="nonmonotone-v")
    prof, rep = iterate(cert.envelope, P_FRONT, 4.5, CFG_FRONT)
    prof = with_tail_report(prof, tail_check(prof, P_FRONT, cert.envelope))
    return SimpleNamespace(cert=cert, prof=prof, rep=rep,
                           elapsed=time.time() - t0)


@pytest.fixture(scope="module")
def critical_run():
    """Front at the exact critical speed s = s* = 2."""
    t0 = time.time()
    s = critical_speed(P_CRIT)
    cert = certify(P_CRIT, s)
    prof, rep = iterate(cert.envelope, P_CRIT, s, CFG_CRIT)
    prof = with_tail_report(prof, tail_check(prof, P_CRIT, cert.envelope))
    return SimpleNamespace(cert=cert, prof=prof, rep=rep,
                           elapsed=time.time() - t0)


@pytest.fixture(scope="module")
def pulse_run():
    """u-pulse continuation c: 0.9 -> 1 in 8 geometric steps."""
    t0 = time.time()
    plan = plan_continuation(SystemParams(1.0, 0.5, 0.9, 1.0), 2.5,
                             "c_to_1_over_a", 8)
    res = run_continuation(plan)
    return SimpleNamespace(plan=plan, res=res, elapsed=time.time() - t0)


def test_decay_rate_values():
    r = decay_rates(SystemParams(1.0, 0.5, 0.5, 1.0), 4.5)
    assert r.lambda1 == pytest.approx(0.2344, abs=1e-3)
    assert r.lambda2 == pytest.approx(0.2344, abs=1e-3)
    assert r.lambda1 == pytest.approx(r.lambda2, abs=1e-14)


def test_overshoot_maximum_and_integer_threshold():
    lam2 = decay_rates(SystemParams(1.0, 0.5, 0.5, 1.0), 4.5).lambda2
    mu2 = 1.0 + 1.0 / 1.1
    _, _, fmax = bump_extrema(1.0, lam2, mu2, 2.6)
    assert fmax == pytest.approx(0.0817, abs=5e-4)
    threshold = min(n for n in range(1, 200) if 2.0 / (n + 1) < fmax)
    assert threshold == 24


def test_certificate_parameter_sweep():
    t0 = time.time()
    a_vals = [0.6, 0.8, 1.0, 1.3, 1.6]
    b_fracs = [0.15, 0.35, 0.55, 0.75, 0.9]
    c_fracs = [0.1, 0.3, 0.5, 0.7, 0.9]
    d_cycle = [0.5, 1.0, 2.0]
    i = 0
    for a in a_vals:
        for bf in b_fracs:
            for cf in c_fracs:
                p = SystemParams(a, bf * a, cf / a, d_cycle[i % 3])
                i += 1
                s_star = critical_speed(p)
                for s in (s_star + 0.1, s_star + 1.0, 2.0 * s_star):
                    cert = certify(p, s)
                    assert cert.passed, (p, s, cert.min_margins)
    for a, d in [(1.0, 1.0), (0.5, 1.0)]:
        p = SystemParams(a, 0.5 * a, 0.5 / a, d)
        cert = certify(p, critical_speed(p))
        assert cert.passed, (p, cert.min_margins)
    assert time.time() - t0 < 30.0


def test_operator_normalization_and_fixed_points():
    p = SystemParams(1.0, 0.5, 0.5, 1.0)
    s, h = 3.0, 0.05
    beta = 1.05 * beta_floor(p)
    n = 2001

    def F(uu, vv):
        return (beta * uu + uu * (1.0 - uu - p.c * vv),
                beta * vv + vv * (p.a - p.b * uu - vv))

    rng = np.random.default_rng(20240817)
    for _ in range(20):
        K1 = float(rng.uniform(0.0, 1.0))
        K2 = float(rng.uniform(0.0, p.a))
        u = np.full(n, K1)
        v = np.full(n, K2)
        Pu, Pv = apply_P(u, v, p, s, beta, h, (K1, K2), (K1, K2))
        F1, F2 = F(K1, K2)
        assert np.abs(Pu - F1 / beta).max() < 1e-10
        assert np.abs(Pv - F2 / beta).max() < 1e-10

    ustar, vstar = equilibria(p).coexistence
    for K1, K2 in [(0.0, 0.0), (1.0, 0.0), (ustar, vstar)]:
        u = np.full(n, K1)
        v = np.full(n, K2)
        Pu, Pv = apply_P(u, v, p, s, beta, h, (K1, K2), (K1, K2))
        assert np.abs(Pu - K1).max() < 1e-10
        assert np.abs(Pv - K2).max() < 1e-10


def test_nonmonotone_front_pipeline(front_run):
    assert front_run.rep.converged
    assert front_run.prof.residual < 1e-6
    assert sum(front_run.rep.sandwich_violations) == 0
    assert ode_residual(front_run.prof, P_FRONT) < 1e-4
    assert front_run.prof.tail_report.passed
    shape = classify(front_run.prof)
    assert shape.tag == "NonMonotoneV"
    assert front_run.prof.v.max() > 2.0 / 27.0
    assert front_run.elapsed < 60.0


def test_critical_speed_pipeline(critical_run):
    assert critical_speed(P_CRIT) == 2.0
    assert critical_run.rep.converged
    assert critical_run.prof.tail_report.passed
    assert critical_run.elapsed < 120.0


def test_nonexistence_gate(capsys):
    p = SystemParams(1.0, 0.5, 0.5, 1.0)
    for s in (0.5, 1.0, 1.9):
        adm = admissibility(p, s)
        assert not adm.admissible
        assert adm.reason == "complex linearization roots"
        code = cli.main(["speed", "--params", "1,0.5,0.5,1",
                         "--speed", str(s)])
        assert code == 2
    capsys.readouterr()

    (xi1, xi2), M, _ = sturm_interval(p, 1.0, 0.5, 10.0)
    assert M == 2
    root = math.sqrt(0.5)
    assert xi1 == pytest.approx(-2.0 * M * math.pi / root, abs=1e-9)
    assert xi2 == pytest.approx(-(2 * M - 1) * math.pi / root, abs=1e-9)
    assert xi2 < -10.0


def test_pulse_continuation(pulse_run):
    res = pulse_run.res
    assert len(res.steps) == 8
    assert res.failure_index is None
    for st in res.steps:
        assert st.report.converged
        assert st.max_pulsed >= res.plan.floor - 1e-8
    lp = res.limit_profile
    assert abs(lp.u[-1]) <= 1e-2
    assert abs(lp.v[-1] - 1.0) <= 1e-2
    assert res.degenerate_residual <= 1e-3
    assert res.degenerate_residual_refined <= 0.5 * res.degenerate_residual
    assert pulse_run.elapsed < 300.0


def test_alarms_silent_on_healthy_runs(front_run, critical_run, pulse_run):
    profiles = [front_run.prof, critical_run.prof]
    profiles += [st.profile for st in pulse_run.res.steps]
    params = [P_FRONT, P_CRIT] + [st.profile.params for st in pulse_run.res.steps]
    for prof, p in zip(profiles, params):
        assert interior_box_implies_monotone(prof, p).passed
        assert oscillation_coupling(prof).passed


def test_repeat_run_byte_identical(tmp_path, capsys):
    config = {
        "params": [1.0, 25.0 / 26.0, 0.5, 1.0],
        "speed": 4.5,
        "mode": "nonmonotone-v",
        "grid": CFG_FRONT.n_points,
        "domain": [CFG_FRONT.left, CFG_FRONT.right],
        "tol": CFG_FRONT.tol,
        "out": "front",
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    cwd = os.getcwd()
    for name in ("first", "second"):
        d = tmp_path / name
        d.mkdir()
        os.chdir(d)
        try:
            code = cli.main(["solve", "--config", str(cfg_path)])
        finally:
            os.chdir(cwd)
        assert code == 0
        outputs.append({ext: (d / f"front.{ext}").read_bytes()
                        for ext in ("csv", "json")})
    capsys.readouterr()
    assert outputs[0]["csv"] == outputs[1]["csv"]
    assert outputs[0]["json"] == outputs[1]["json"]

"""Self-test of the benchmark's checks, on reduced inputs.

For each workload: one round at reduced size, traced, whose output must
pass its check; then a set of deliberately corrupted copies of that
output, each of which the check must reject with the named reason.

    python3 bench/run.py --self-test
"""

from __future__ import annotations

import sys
import tempfile
import types
from pathlib import Path

import numpy as np

import worker

worker.import_lvfront()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def with_arrays(out, **changes):
    new = dict(out)
    for key, fn in changes.items():
        new[key] = fn(np.array(out[key], dtype=float) if key in ("xi", "u", "v") else out[key])
    return new


def ripple(y, start, amp=1e-6, n=100):
    """Alternating +-amp on n points: tiny extrema, large second differences."""
    y = y.copy()
    y[start:start + n] += amp * (-1.0) ** np.arange(n)
    return y


def dip(y, start, depth=1e-2, n=50):
    y = y.copy()
    y[start:start + n] -= depth
    return y


def front_corruptions(out, params, v_overshoot):
    n = len(out["u"])
    ustar, vstar = checks.coexistence(params)
    cases = [
        ("u leaves", with_arrays(out, u=lambda u: 1.1 * u / u.max())),
        ("right end", with_arrays(out, v=lambda v: np.concatenate([v[:-n // 10], v[-n // 10:] + 1e-3]))),
        ("left end", with_arrays(out, u=lambda u: np.concatenate([u[:n // 100] + 1e-3, u[n // 100:]]))),
        ("u has an interior extremum", with_arrays(out, u=lambda u: dip(u, n // 2))),
        ("ODE residual", with_arrays(out, u=lambda u: ripple(u, n // 2))),
    ]
    if v_overshoot:
        cases.append(("does not overshoot", with_arrays(out, v=lambda v: np.minimum(v, vstar))))
    else:
        cases.append(("v has an interior extremum", with_arrays(out, v=lambda v: dip(v, n // 2))))
    return cases


def pulse_corruptions(out):
    floor = checks.bump_max(1.0, out["mu1"], out["q1"])
    n = len(out["u"])
    base = checks.fd_residual(np.asarray(out["xi"]), out["u"], out["v"],
                              (workloads.PULSE_PARAMS[0], workloads.PULSE_PARAMS[1],
                               1.0 / workloads.PULSE_PARAMS[0], workloads.PULSE_PARAMS[3]),
                              workloads.PULSE_SPEED)
    return [
        ("did not converge", with_arrays(out, converged=lambda c: c[:-1] + [False])),
        ("below the bump maximum", with_arrays(out, max_u=lambda m: m[:-1] + [0.99 * floor])),
        ("limit right end", with_arrays(out, u=lambda u: np.concatenate([u[:-1], [0.05]]))),
        ("limit residual", with_arrays(out, u=lambda u: ripple(u, n // 2, amp=1e-5))),
        ("not at most half", with_arrays(out, refined_residual=lambda r: 0.8 * base)),
    ]


class Scaled:
    def __init__(self, prof, k):
        self.prof, self.k, self.join_points = prof, k, prof.join_points

    def __call__(self, x, deriv=0):
        return self.k * self.prof(x, deriv)


def sweep_corruptions(out):
    (passed, env, left, right), rest = out["kept"][0], out["kept"][1:]

    def env_with(**changes):
        fields = {name: getattr(env, name) for name in
                  ("u_upper", "u_lower", "v_upper", "v_lower", "join_points", "case", "speed")}
        fields.update(changes)
        return types.SimpleNamespace(**fields)

    def kept(e, ok=True):
        return {"kept": [(ok, e, left, right)] + rest, "unexpected": out["unexpected"]}

    return [
        ("out of order", kept(env_with(u_upper=env.u_lower, u_lower=env.u_upper))),
        ("inequality fails", kept(env_with(u_upper=Scaled(env.u_upper, 2.0)))),
        ("certificate failed", kept(env, ok=False)),
        ("expected", {"kept": out["kept"], "unexpected": ["x: y (expected 'z')"]}),
    ]


def main():
    failures = 0
    with tempfile.TemporaryDirectory(dir=worker.BENCH / "out") as workdir:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(1, workdir, reduced=True)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                _, _, result = wl.round()
            finally:
                tracer.uninstall()
            layers = tracing.layer_metrics(tracer.take())
            out = wl.output(result)
            try:
                wl.check(out)
                print(f"{name}: reduced run passes; {layers['solve.iterations']} iterations, "
                      f"{layers['envelopes.eval_calls']} envelope evaluations")
            except checks.CheckFailed as exc:
                failures += 1
                print(f"{name}: reduced run FAILS its check: {exc}")
                continue
            if name == "front_overshoot":
                cases = [("exit code", dict(out, code=3))] + front_corruptions(
                    out, workloads.FRONT_PARAMS, True)
            elif name == "critical_front":
                cases = front_corruptions(out, workloads.CRIT_PARAMS, False)
            elif name == "pulse_continuation":
                cases = pulse_corruptions(out)
            else:
                cases = sweep_corruptions(out)
            for reason, bad in cases:
                try:
                    wl.check(bad)
                    failures += 1
                    print(f"{name}: corruption '{reason}' was NOT rejected")
                except checks.CheckFailed as exc:
                    if reason not in str(exc):
                        failures += 1
                        print(f"{name}: corruption '{reason}' rejected for another reason: {exc}")
                    else:
                        print(f"{name}: corruption '{reason}' rejected")
    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    Path(worker.BENCH / "out").mkdir(exist_ok=True)
    sys.exit(main())

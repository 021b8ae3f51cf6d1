"""The four workloads: their inputs, one round of the timed pipeline, the
certificates timed for latency, and the checks of a round's output.

Calls go through the lvfront modules' attributes at call time, so the
tracer's patches see them.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import time

import checks

# Each workload class has `nominal_round_s`, its typical round time on a
# 2-vCPU Xeon; a run makes max(1, seconds // nominal_round_s) rounds.
#
# cert_ms_p50 and cert_ms_p99 need a thousand certificates or more.  The
# sweep times its own; the solve workloads run one to nine, so their
# set-up workers time one pass over the sweep cases of seed 0 instead.
# Those cost from about 2 to 9 ms each, so the median moves smoothly with
# the speed of the host, where a thousand repeats of one certificate
# would put it in whichever of the host's two speeds held most of the run.
MIX_SEED = 0

FRONT_PARAMS = (1.0, 25.0 / 26.0, 0.5, 1.0)
FRONT_SPEED = 4.5
CRIT_PARAMS = (1.0, 0.5, 0.5, 1.0)
PULSE_PARAMS = (1.0, 0.5, 0.9, 1.0)
PULSE_SPEED = 2.5
PULSE_STEPS = 8

#: strict-weak sets whose near-critical speeds fall in the dead band of
#: select_supercritical, and the single a*d > 1 set certified at s*
DEAD_BAND_SETS = ((1.0, 0.5, 0.5, 1.0), (2.0, 1.0, 0.3, 1.0), (0.5, 0.25, 1.0, 1.0))
DEAD_BAND_OFFSETS = (1e-8, 1e-6, 1e-4)
DEAD_BAND_REASON = "delta above envelope maximum"
SWAP_SET = (2.0, 1.0, 0.3, 1.0)
SWAP_REASON = "apply species swap"

MODES = ("default", "nonmonotone-u", "nonmonotone-v")
#: (parameter set, speed) pairs per sweep round, each certified in every
#: mode: a fixed number above s* and at s*, so that every seed asks for
#: the same mix of work (a critical certificate costs about twice as much)
SWEEP_SUPERCRITICAL_PAIRS = 354
SWEEP_CRITICAL_PAIRS = 62
#: s* is certified only for a*d at most this; a*d in (1 - 2e-4, 1) falls
#: in a second dead band at s* (see CHANGES.md)
SWEEP_CRITICAL_AD_MAX = 0.99


def lv(name):
    return importlib.import_module("lvfront." + name)


def system(params):
    return lv("model").SystemParams(*params)


class SolveWorkload:
    """A pipeline whose certificate latency is timed on the sweep mix."""

    round_latencies_ms = ()

    def latency_calls(self):
        certify = lv("certify").certify
        return [lambda p=system(params), s=s, mode=mode: certify(p, s, mode=mode)
                for params, s, mode in sweep_cases(MIX_SEED)]


class FrontOvershoot(SolveWorkload):
    """`lvfront solve --config` on the acceptance-test overshoot front."""

    name = "front_overshoot"
    nominal_round_s = 11

    def __init__(self, seed, workdir, reduced=False):
        self.out = os.path.join(workdir, "front")
        config = {
            "params": list(FRONT_PARAMS), "speed": FRONT_SPEED,
            "mode": "nonmonotone-v", "domain": [-120.0, 2600.0],
            "grid": 27201 if reduced else 54401, "tol": 1e-10, "out": self.out,
        }
        self.config_path = os.path.join(workdir, "front_config.json")
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)

    def round(self):
        code = lv("cli").main(["solve", "--config", self.config_path])
        return 1, 0, code

    def output(self, code):
        """What the checks read: exit code and the written CSV."""
        xi, u, v = checks.read_profile_csv(self.out + ".csv")
        return {"code": code, "xi": xi, "u": u, "v": v}

    def check(self, out):
        checks.require(out["code"] == 0, f"exit code {out['code']}")
        checks.check_front(out["xi"], out["u"], out["v"], FRONT_PARAMS, FRONT_SPEED,
                           v_overshoot=True)


class CriticalFront(SolveWorkload):
    """certify -> iterate -> tail_check -> classify at s = s* = 2."""

    name = "critical_front"
    nominal_round_s = 13

    def __init__(self, seed, workdir, reduced=False):
        # no reduced size: on any coarser grid the iteration escapes the
        # envelope sandwich
        self.p = system(CRIT_PARAMS)
        self.s = lv("model").critical_speed(self.p)
        self.cfg = lv("solve").OperatorConfig(
            left=-60.0, right=100.0, n_points=6401, tol=1e-8, max_iters=20000)

    def round(self):
        cert = lv("certify").certify(self.p, self.s)
        prof, rep = lv("solve").iterate(cert.envelope, self.p, self.s, self.cfg)
        tail = lv("solve").tail_check(prof, self.p, cert.envelope)
        shape = lv("analyze").classify(prof)
        return 1, 0, (prof, rep, tail, shape)

    def output(self, result):
        prof, rep, tail, shape = result
        return {"converged": rep.converged, "xi": prof.grid, "u": prof.u, "v": prof.v}

    def check(self, out):
        checks.require(out["converged"], "critical front did not converge")
        checks.check_front(out["xi"], out["u"], out["v"], CRIT_PARAMS, self.s,
                           v_overshoot=False)


class PulseContinuation(SolveWorkload):
    """plan_continuation + run_continuation(refine=True), c -> 1/a."""

    name = "pulse_continuation"
    nominal_round_s = 12

    def __init__(self, seed, workdir, reduced=False):
        self.p = system(PULSE_PARAMS)
        self.steps = 3 if reduced else PULSE_STEPS

    def round(self):
        plan = lv("pulse").plan_continuation(self.p, PULSE_SPEED, "c_to_1_over_a", self.steps)
        return 1, 0, lv("pulse").run_continuation(plan, refine=True)

    def output(self, res):
        plan = res.plan
        return {
            "converged": [st.report.converged for st in res.steps],
            "n_steps": len(plan.steps),
            "max_u": [float(st.profile.u.max()) for st in res.steps],
            "mu1": plan.knobs.mu1, "q1": plan.knobs.q1,
            "xi": res.limit_profile.grid, "u": res.limit_profile.u,
            "v": res.limit_profile.v,
            "refined_residual": res.degenerate_residual_refined,
        }

    def check(self, out):
        checks.check_pulse(out, PULSE_PARAMS, PULSE_SPEED)


def sweep_cases(seed):
    """The seeded certificates of one sweep round: (params, speed, mode).

    Strict-weak sets with a, d log-uniform in [0.5, 2], b/a in [0.1, 0.95]
    and ac in [0.05, 0.95]; each set gets three speeds s*(1 + U(0.01, 1))
    until the supercritical quota is full, and s* itself while the
    critical quota is open and a*d <= SWEEP_CRITICAL_AD_MAX.
    """
    rng = random.Random(seed)
    log_lo, log_hi = math.log(0.5), math.log(2.0)
    supercritical, critical = [], []
    while (len(supercritical) < SWEEP_SUPERCRITICAL_PAIRS
           or len(critical) < SWEEP_CRITICAL_PAIRS):
        a = math.exp(rng.uniform(log_lo, log_hi))
        d = math.exp(rng.uniform(log_lo, log_hi))
        params = (a, a * rng.uniform(0.1, 0.95), rng.uniform(0.05, 0.95) / a, d)
        s_star = max(2.0, 2.0 * math.sqrt(a * d))
        speeds = [s_star * (1.0 + rng.uniform(0.01, 1.0)) for _ in range(3)]
        if len(supercritical) < SWEEP_SUPERCRITICAL_PAIRS:
            supercritical.extend((params, s) for s in speeds)
        if a * d <= SWEEP_CRITICAL_AD_MAX and len(critical) < SWEEP_CRITICAL_PAIRS:
            critical.append((params, s_star))
    pairs = supercritical[:SWEEP_SUPERCRITICAL_PAIRS] + critical
    return [(params, s, mode) for params, s in pairs for mode in MODES]


def fault_cases():
    """Certificates that fail on every run, each with its named reason."""
    out = []
    for params in DEAD_BAND_SETS:
        s_star = max(2.0, 2.0 * math.sqrt(params[0] * params[3]))
        out.extend((params, s_star + off, "default", DEAD_BAND_REASON)
                   for off in DEAD_BAND_OFFSETS)
    s_star = 2.0 * math.sqrt(SWAP_SET[0] * SWAP_SET[3])
    out.append((SWAP_SET, s_star, "default", SWAP_REASON))
    return out


class CertifySweep:
    """~1250 seeded certificates on the default grid, plus the ten faults."""

    name = "certify_sweep"
    nominal_round_s = 4

    def __init__(self, seed, workdir, reduced=False):
        self.seed = seed
        cases = sweep_cases(seed)
        if reduced:
            cases = cases[:: len(cases) // 30]
        model = lv("model")
        self.cases = [(model.SystemParams(*pr), s, mode) for pr, s, mode in cases]
        self.faults = [(model.SystemParams(*pr), s, mode, reason)
                       for pr, s, mode, reason in fault_cases()]
        #: one list per round: the time of each case, in case order
        self.round_latencies_ms = []

    def round(self):
        """Certify every case; keep only each envelope set, not the residual
        arrays, so memory stays that of one certificate."""
        certify = lv("certify").certify
        kept, times = [], []
        self.round_latencies_ms.append(times)
        for p, s, mode in self.cases:
            t0 = time.perf_counter()
            cert = certify(p, s, mode=mode)
            times.append(1e3 * (time.perf_counter() - t0))
            kept.append((cert.passed, cert.envelope, cert.grid["left"], cert.grid["right"]))
        unexpected = []
        failed = 0
        for p, s, mode, reason in self.faults:
            try:
                certify(p, s, mode=mode)
            except ValueError as exc:
                failed += 1
                if str(exc) != reason:
                    unexpected.append(f"{p} s={s}: {exc} (expected {reason!r})")
        return len(self.cases) + len(self.faults), failed, (kept, unexpected)

    def latency_calls(self):
        return []

    def output(self, result):
        kept, unexpected = result
        return {"kept": kept, "unexpected": unexpected}

    def check(self, out):
        checks.require(not out["unexpected"], "; ".join(out["unexpected"]))
        rng = random.Random(self.seed + 1)
        for (p, s, mode), (passed, env, left, right) in zip(self.cases, out["kept"]):
            checks.require(passed, f"certificate failed for {p} s={s} {mode}")
            checks.check_envelopes(env, (p.a, p.b, p.c, p.d), env.speed, left, right, rng)


WORKLOADS = {cls.name: cls for cls in
             (FrontOvershoot, CriticalFront, PulseContinuation, CertifySweep)}

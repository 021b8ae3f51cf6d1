"""Command-line surface: speed / certify / solve / scan / pulse.

Every run is a pure function of its RunConfig; outputs are JSON and CSV
with sorted keys and no timestamps, so identical configurations produce
byte-identical files.  Exit codes: 0 pass, 1 usage error, 2 criterion
failure, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .model import SystemParams, admissibility, critical_speed, decay_rates
from .envelopes import SOLVE_REACH, SelectionKnobs, left_reach
from .certify import certify, certificate_to_json
from .solve import OperatorConfig, iterate, tail_check, write_csv, write_profile
from .analyze import classify, interior_box_implies_monotone, oscillation_coupling, scan_region
from .pulse import (
    PULSE_CONFIG,
    degenerate_system,
    plan_continuation,
    pulse_tail_diagnostics,
    run_continuation,
    widen_left_edge,
    write_pulse_result,
)

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_CRITERION = 2
EXIT_NO_CONVERGENCE = 3


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: Tuple[float, float, float, float]
    speed: Optional[float] = None
    mode: str = "default"
    grid: Optional[int] = None
    domain: Optional[Tuple[float, float]] = None
    tol: Optional[float] = None
    out: Optional[str] = None
    # scan knobs
    s_range: Optional[Tuple[float, float, int]] = None
    gap_range: Optional[Tuple[float, float, int]] = None
    mu2: Optional[float] = None
    q2: Optional[float] = None
    # pulse knobs
    target: str = "c_to_1_over_a"
    steps: int = 8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _Csv:
    """argparse type: "x1,...,xn" into a tuple of n values of the given kinds.

    Text that does not parse is returned as it is, for the option's test
    to refuse with the option's name.
    """

    def __init__(self, *kinds):
        self.kinds = kinds

    def __call__(self, text: str):
        try:
            return tuple(kind(x) for kind, x in zip(self.kinds, text.split(","), strict=True))
        except ValueError:
            return text


def _finite(x) -> bool:
    """x is a finite int or float, not a bool, a string or another JSON value."""
    return type(x) in (int, float) and math.isfinite(x)


def _finites(x, n: int) -> bool:
    """x is a list or tuple of n finite numbers."""
    return type(x) in (list, tuple) and len(x) == n and all(map(_finite, x))


_MODES = ("default", "nonmonotone-u", "nonmonotone-v")
_TARGETS = ("c_to_1_over_a", "b_to_a")
_RANGE = _Csv(float, float, int)
_NUMBER = dict(type=float), "a finite number", _finite
_RANGE_TEST = ("finite lo and hi and an integer n >= 0",
               lambda x: _finites(x, 3) and type(x[2]) is int and x[2] >= 0)
#: every option: its add_argument keywords, what a valid value is, and the
#: test that its value passes, whether a flag or a config key gave it
_OPTIONS = {
    "params": (dict(default="1,0.5,0.5,1", type=_Csv(float, float, float, float),
                    help="a,b,c,d system coefficients"),
               "four finite numbers", lambda x: _finites(x, 4)),
    "speed": _NUMBER,
    "mode": (dict(default=_MODES[0], choices=_MODES), f"one of {_MODES}", lambda x: x in _MODES),
    "grid": (dict(type=int), "an integer >= 3", lambda x: type(x) is int and x >= 3),
    "domain": (dict(type=_Csv(float, float), help="left,right"),
               "two finite numbers left < right", lambda x: _finites(x, 2) and x[0] < x[1]),
    "tol": (dict(type=float), "a positive finite number", lambda x: _finite(x) and x > 0.0),
    "s_range": (dict(default="2.1,5.0,15", type=_RANGE, help="lo,hi,n"), *_RANGE_TEST),
    "gap_range": (dict(default="0.01,0.5,15", type=_RANGE, help="lo,hi,n"), *_RANGE_TEST),
    "mu2": _NUMBER,
    "q2": _NUMBER,
    "target": (dict(default=_TARGETS[0], choices=_TARGETS), f"one of {_TARGETS}",
               lambda x: x in _TARGETS),
    "steps": (dict(type=int, default=8), "an integer >= 1", lambda x: type(x) is int and x >= 1),
    "out": ({}, "a string", lambda x: type(x) is str),
}
#: the options each subcommand reads, besides params and out
_COMMAND_OPTIONS = {
    "speed": "speed",
    "certify": "speed mode",
    "solve": "speed mode grid domain tol",
    "scan": "s_range gap_range mu2 q2",
    "pulse": "speed grid domain tol target steps",
}


def _build_parser() -> _Parser:
    ap = _Parser(prog="lvfront", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, keys in _COMMAND_OPTIONS.items():
        sp = sub.add_parser(name)
        for key in ["params"] + keys.split() + ["out"]:
            sp.add_argument("--" + key.replace("_", "-"), **_OPTIONS[key][0])
        sp.add_argument("--config", help="JSON file whose keys override the flags")
    return ap


def _checked(key: str, value):
    """value, from a flag or a config key, once it passes the option's test;
    null passes only where the flag has no default, a comma string goes
    through the flag's parse, lists become tuples and range ends floats."""
    flag, what, test = _OPTIONS[key]
    if value is None and flag.get("default") is None:
        return None
    if isinstance(value, str) and isinstance(flag.get("type"), _Csv):
        value = flag["type"](value)
    if not test(value):
        raise _UsageError(f"--{key.replace('_', '-')} must be {what}, got {value!r}")
    if flag.get("type") is _RANGE:
        return float(value[0]), float(value[1]), value[2]
    return tuple(value) if isinstance(value, list) else value


def _to_runconfig(ns: argparse.Namespace) -> RunConfig:
    raw = vars(ns).copy()
    command, path = raw.pop("command"), raw.pop("config")
    if path:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise _UsageError(f"cannot read config {path!r}: {exc}") from None
        if not isinstance(loaded, dict):
            raise _UsageError(f"config {path!r} does not hold a JSON object")
        # a config file sets only the options its subcommand reads
        unknown = sorted(set(loaded) - set(raw))
        if unknown:
            raise _UsageError(f"{command} does not take config key(s) {unknown}")
        raw.update(loaded)
    return RunConfig(command=command, **{key: _checked(key, v) for key, v in raw.items()})


def _system(cfg: RunConfig) -> SystemParams:
    a, b, c, d = cfg.params
    return SystemParams(a, b, c, d)


def _operator_config(cfg: RunConfig, base: OperatorConfig) -> OperatorConfig:
    """base with the domain, grid and tolerance that the run sets."""
    kw = {}
    if cfg.domain is not None:
        kw["left"], kw["right"] = cfg.domain
    if cfg.grid is not None:
        kw["n_points"] = cfg.grid
    if cfg.tol is not None:
        kw["tol"] = cfg.tol
    return replace(base, **kw)


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_speed(cfg: RunConfig) -> int:
    p = _system(cfg)
    s = cfg.speed if cfg.speed is not None else critical_speed(p)
    adm = admissibility(p, s)
    payload = {
        "run_config": asdict(cfg),
        "critical_speed": critical_speed(p),
        "speed": s,
        "admissible": adm.admissible,
        "reason": adm.reason,
    }
    if adm.admissible:
        r = decay_rates(p, s)
        payload["decay_rates"] = {
            "lambda1": r.lambda1, "lambda2": r.lambda2,
            "lambda3": r.lambda3, "lambda4": r.lambda4,
        }
    _emit(payload, cfg.out)
    return EXIT_PASS if adm.admissible else EXIT_CRITERION


def cmd_certify(cfg: RunConfig) -> int:
    p = _system(cfg)
    s = cfg.speed if cfg.speed is not None else critical_speed(p)
    try:
        cert = certify(p, s, mode=cfg.mode)
    except ValueError as exc:
        _emit({"run_config": asdict(cfg), "error": str(exc)}, cfg.out)
        return EXIT_CRITERION
    payload = certificate_to_json(cert)
    payload["run_config"] = asdict(cfg)
    _emit(payload, cfg.out)
    return EXIT_PASS if cert.passed else EXIT_CRITERION


def cmd_solve(cfg: RunConfig) -> int:
    p = _system(cfg)
    s = cfg.speed if cfg.speed is not None else critical_speed(p)
    # errors go where the header would, <out>.json, or to stdout
    err_out = cfg.out + ".json" if cfg.out else None
    try:
        cert = certify(p, s, mode=cfg.mode)
    except ValueError as exc:
        _emit({"run_config": asdict(cfg), "error": str(exc)}, err_out)
        return EXIT_CRITERION
    if not cert.passed:
        _emit({"run_config": asdict(cfg), "certificate": certificate_to_json(cert)},
              err_out)
        return EXIT_CRITERION
    ocfg = _operator_config(cfg, OperatorConfig())
    if cfg.domain is None:
        left = left_reach(cert.envelope, SOLVE_REACH)
        ocfg = replace(ocfg, left=min(ocfg.left, left), right=max(ocfg.right, 120.0))
    try:
        prof, report = iterate(cert.envelope, p, s, ocfg)
    except ValueError as exc:
        _emit({"run_config": asdict(cfg), "error": str(exc)}, err_out)
        return EXIT_NO_CONVERGENCE
    extra = {"run_config": asdict(cfg),
             "iterations": report.iterations_used,
             "handover": report.handover,
             "pair_gap": float(report.pair_gap_history[-1]),
             "beta_used": list(report.beta_used),
             "sandwich_violations": int(sum(report.sandwich_violations))}
    if report.converged:
        prof = replace(prof, tail_report=tail_check(prof, p, cert.envelope))
        shape = classify(prof)
        extra["shape_class"] = shape.tag
        extra["extrema"] = [asdict(e) for e in shape.extrema]
        extra["alarms"] = {
            "interior_box_monotone": interior_box_implies_monotone(prof, p).passed,
            "oscillation_coupling": oscillation_coupling(prof).passed,
        }
    base = cfg.out if cfg.out else "profile"
    write_profile(prof, base + ".csv", base + ".json", header_extra=extra)
    if not report.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_PASS if prof.tail_report.passed else EXIT_CRITERION


def cmd_scan(cfg: RunConfig) -> int:
    p = _system(cfg)
    knobs = SelectionKnobs(nonmonotone_v=True, mu2=cfg.mu2, q2=cfg.q2)
    try:
        scan = scan_region(p, np.linspace(*cfg.s_range), np.linspace(*cfg.gap_range), knobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    base = cfg.out if cfg.out else "scan"
    rows = np.column_stack([scan.gap_values.reshape(-1, 1), scan.holds.astype(int)])
    header = "gap," + ",".join("%.17g" % s for s in scan.s_values)
    write_csv(base + ".csv", rows, header)
    _emit({
        "run_config": asdict(cfg),
        "s_values": [float(x) for x in scan.s_values],
        "gap_values": [float(x) for x in scan.gap_values],
        "holds_any": bool(scan.holds.any()),
    }, base + ".json")
    return EXIT_PASS


def cmd_pulse(cfg: RunConfig) -> int:
    p = _system(cfg)
    s = cfg.speed if cfg.speed is not None else critical_speed(p) + 0.5
    try:
        plan = plan_continuation(p, s, cfg.target, cfg.steps,
                                 config=_operator_config(cfg, PULSE_CONFIG))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if cfg.domain is None:
            plan = widen_left_edge(plan, keep_h=cfg.grid is None)
        res = run_continuation(plan)
    except ValueError as exc:
        _emit({"run_config": asdict(cfg), "error": str(exc)}, None)
        return EXIT_NO_CONVERGENCE
    out_dir = cfg.out if cfg.out else "pulse_out"
    extra = {"run_config": asdict(cfg)}
    if res.limit_profile is not None:
        diag = pulse_tail_diagnostics(res.limit_profile, degenerate_system(plan))
        extra["tail_case"] = asdict(diag)
    write_pulse_result(res, out_dir, header_extra=extra)
    if res.failure_index is not None:
        return EXIT_NO_CONVERGENCE
    return EXIT_PASS if res.passed else EXIT_CRITERION


_COMMANDS = {
    "speed": cmd_speed,
    "certify": cmd_certify,
    "solve": cmd_solve,
    "scan": cmd_scan,
    "pulse": cmd_pulse,
}


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        cfg = _to_runconfig(ns)
        _system(cfg)  # validate params early
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _COMMANDS[cfg.command](cfg)


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()

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
from .envelopes import SelectionKnobs, min_decay_rate
from .certify import certify, certificate_to_json
from .solve import (OperatorConfig, iterate, tail_check, with_tail_report, write_csv,
                    write_profile)
from .analyze import classify, interior_box_implies_monotone, oscillation_coupling, scan_region
from .pulse import (
    PULSE_CONFIG,
    degenerate_system,
    plan_continuation,
    pulse_tail_diagnostics,
    run_continuation,
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


def _parse_floats(text: str, n: int, what: str):
    parts = text.split(",")
    if len(parts) != n:
        raise _UsageError(f"{what} expects {n} comma-separated values")
    try:
        return tuple(float(x) for x in parts)
    except ValueError as exc:
        raise _UsageError(f"bad {what}: {exc}") from exc


def _finite(x) -> bool:
    """x is a finite int or float, not a bool, a string or another JSON value."""
    return type(x) in (int, float) and math.isfinite(x)


#: every flag's add_argument keywords
_FLAGS = {
    "--params": dict(default="1,0.5,0.5,1", help="a,b,c,d system coefficients"),
    "--speed": dict(type=float),
    "--mode": dict(default="default", choices=["default", "nonmonotone-u", "nonmonotone-v"]),
    "--grid": dict(type=int),
    "--domain": dict(help="left,right"),
    "--tol": dict(type=float),
    "--s-range": dict(default="2.1,5.0,15", help="lo,hi,n"),
    "--gap-range": dict(default="0.01,0.5,15", help="lo,hi,n"),
    "--mu2": dict(type=float),
    "--q2": dict(type=float),
    "--target": dict(default="c_to_1_over_a", choices=["c_to_1_over_a", "b_to_a"]),
    "--steps": dict(type=int, default=8),
    "--out": {},
    "--config": dict(help="JSON file whose keys override the flags"),
}
#: the flags each subcommand reads, besides --params, --out and --config
_COMMAND_FLAGS = {
    "speed": "--speed",
    "certify": "--speed --mode",
    "solve": "--speed --mode --grid --domain --tol",
    "scan": "--s-range --gap-range --mu2 --q2",
    "pulse": "--speed --grid --domain --tol --target --steps",
}


def _build_parser() -> _Parser:
    ap = _Parser(prog="lvfront", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, flags in _COMMAND_FLAGS.items():
        sp = sub.add_parser(name)
        for flag in ["--params"] + flags.split() + ["--out", "--config"]:
            sp.add_argument(flag, **_FLAGS[flag])
    return ap


def _to_runconfig(ns: argparse.Namespace) -> RunConfig:
    raw = vars(ns).copy()
    cfg_path = raw.pop("config", None)
    if cfg_path:
        with open(cfg_path) as fh:
            loaded = json.load(fh)
        # a config file sets only the options its subcommand reads
        unknown = sorted(set(loaded) - (set(raw) - {"command"}))
        if unknown:
            raise _UsageError(f"{raw['command']} does not take config key(s) {unknown}")
        raw.update(loaded)
    params = raw["params"]
    if isinstance(params, str):
        params = _parse_floats(params, 4, "--params")
    domain = raw.get("domain")
    if isinstance(domain, str):
        domain = _parse_floats(domain, 2, "--domain")
    elif domain is not None:
        domain = tuple(domain)

    # a config file can hold any JSON value here, not only a number
    grid, tol, speed = raw.get("grid"), raw.get("tol"), raw.get("speed")
    steps = raw.get("steps", 8)
    if grid is not None and not (type(grid) is int and grid >= 3):
        raise _UsageError(f"--grid must be an integer >= 3, got {grid!r}")
    if not (type(steps) is int and steps >= 1):
        raise _UsageError(f"--steps must be an integer >= 1, got {steps!r}")
    if tol is not None and not (_finite(tol) and tol > 0.0):
        raise _UsageError(f"--tol must be a positive finite number, got {tol!r}")
    if speed is not None and not _finite(speed):
        raise _UsageError(f"--speed must be a finite number, got {speed!r}")
    if domain is not None and not (len(domain) == 2 and all(_finite(x) for x in domain)
                                   and domain[0] < domain[1]):
        raise _UsageError(f"--domain needs two finite numbers left < right, got {domain!r}")
    for key in ("mu2", "q2"):
        if raw.get(key) is not None and not _finite(raw[key]):
            raise _UsageError(f"--{key} must be a finite number, got {raw[key]!r}")

    def rng(key):
        val = raw.get(key)
        if val is None:
            return None
        lo, hi, n = val.split(",") if isinstance(val, str) else val
        return float(lo), float(hi), int(n)

    return RunConfig(
        command=raw["command"], params=tuple(params), speed=speed,
        mode=raw.get("mode", "default"), grid=grid,
        domain=domain, tol=tol, out=raw.get("out"),
        s_range=rng("s_range"), gap_range=rng("gap_range"),
        mu2=raw.get("mu2"), q2=raw.get("q2"),
        target=raw.get("target", "c_to_1_over_a"), steps=steps,
    )


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
        # deep enough left end that boundary truncation of the slowest
        # envelope mode stays below the sandwich-abort threshold
        left = min(cert.envelope.join_points) - 45.0 / min_decay_rate(cert.envelope)
        ocfg = replace(ocfg, left=min(ocfg.left, left), right=max(ocfg.right, 120.0))
    try:
        prof, report = iterate(cert.envelope, p, s, ocfg)
    except ValueError as exc:
        _emit({"run_config": asdict(cfg), "error": str(exc)}, err_out)
        return EXIT_NO_CONVERGENCE
    extra = {"run_config": asdict(cfg),
             "iterations": report.iterations_used,
             "beta_used": list(report.beta_used),
             "sandwich_violations": int(sum(report.sandwich_violations))}
    if report.converged:
        tr = tail_check(prof, p, cert.envelope)
        prof = with_tail_report(prof, tr)
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
    lo, hi, n = cfg.s_range
    s_values = np.linspace(lo, hi, n) if n > 0 else np.empty(0)
    lo, hi, n = cfg.gap_range
    gap_values = np.linspace(lo, hi, n) if n > 0 else np.empty(0)
    knobs = SelectionKnobs(nonmonotone_v=True, mu2=cfg.mu2, q2=cfg.q2)
    try:
        scan = scan_region(p, s_values, gap_values, knobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    base = cfg.out if cfg.out else "scan"
    rows = np.column_stack([scan.gap_values.reshape(-1, 1),
                            scan.holds.astype(int)]) \
        if scan.gap_values.size else np.empty((0, 1 + scan.s_values.size))
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

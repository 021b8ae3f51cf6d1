"""Golden records of the fixed CLI configurations of tier1.yml and the README.

Each configuration runs through lvfront.cli.main in an empty directory.  Its
record, tests/golden/<name>.json, holds the exit code and stderr; for every
JSON output (stdout included) its non-float fields, compared exactly, and its
float fields; for every CSV its header, its row count and every k-th row.
Floats are compared within TOL * max(1, |recorded|), since np.exp and the
BLAS kernels may differ in their last bits from host to host.

    python tests/golden.py            # compare every configuration with its record
    python tests/golden.py --write    # rewrite the records, printing the max |delta| per file
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lvfront import cli  # noqa: E402

RECORDS = Path(__file__).resolve().parent / "golden"
#: a recorded float x matches a new one within TOL * max(1, |x|)
TOL = 1e-12
#: a CSV keeps every k-th row, k = max(1, rows // CSV_SAMPLES)
CSV_SAMPLES = 40
#: written into every run's directory for the config-file configuration
CONFIG_FILE = ("solve.json", '{"params": [1.0, 0.5, 0.5, 1.0], "speed": 3.0, '
               '"grid": 4401, "tol": 1e-9}')

_P = ["--params", "1,0.5,0.5,1"]
#: every fixed configuration: tier1.yml's smoke tests, named faults and case
#: checks, then the README's session; outputs go to "out"
CONFIGS = {
    "certify_s3": ["certify", *_P, "--speed", "3.0"],
    "certify_critical_eq1": ["certify", *_P, "--speed", "2"],
    "certify_critical_lt1": ["certify", "--params", "0.5,0.25,1,1", "--speed", "2"],
    "certify_critical_eq1_d": ["certify", "--params", "2,0.2,0.05,0.5", "--speed", "2"],
    "certify_critical_ad_0979": ["certify", "--params", "1.108,0.690,0.717,0.884",
                                 "--speed", "2"],
    "certify_near_critical": ["certify", *_P, "--speed", "2.05"],
    "certify_overshoot_u": ["certify", *_P, "--speed", "3.0", "--mode", "nonmonotone-u"],
    "speed": ["speed", *_P, "--speed", "4.5"],
    "scan": ["scan", *_P, "--s-range", "4,5,3", "--gap-range", "0.02,0.3,4", "--out", "out"],
    "solve_critical": ["solve", *_P, "--speed", "2", "--grid", "6401", "--domain=-60,100",
                       "--out", "out"],
    "solve_critical_draw16": ["solve", "--params", "1.108,0.690,0.717,0.884", "--speed", "2",
                              "--grid", "14401", "--domain=-60,300", "--tol", "1e-10",
                              "--out", "out"],
    "pulse_u": ["pulse", "--params", "1,0.5,0.9,1", "--speed", "2.5", "--tol", "1e-7",
                "--out", "out"],
    "pulse_v": ["pulse", *_P, "--speed", "2.5", "--target", "b_to_a", "--steps", "8",
                "--out", "out"],
    "pulse_small_a": ["pulse", "--params", "0.3,0.15,1,1", "--speed", "2.5",
                      "--target", "b_to_a", "--out", "out"],
    "pulse_companion": ["pulse", "--params", "0.339,0.323,1.557,0.904", "--speed", "2.5",
                        "--target", "b_to_a", "--out", "out"],
    "scan_refused": ["scan", "--params", "0.5,0.25,1,1", "--s-range", "1.5,3,4",
                     "--gap-range", "0.01,0.2,3", "--q2", "0.9", "--out", "out"],
    "solve_front": ["solve", "--params", "1,0.9615384615384616,0.5,1", "--speed", "4.5",
                    "--mode", "nonmonotone-v", "--grid", "27201", "--domain=-120,2600",
                    "--tol", "1e-10", "--out", "out"],
    "solve_config": ["solve", "--config", CONFIG_FILE[0], "--out", "out"],
    "missing_config": ["certify", "--config", "missing.json"],
    "fault_species_swap": ["certify", "--params", "2,1,0.3,1"],
    "fault_dead_band": ["certify", *_P, "--speed", "2.000001"],
    "fault_dead_band_near": ["certify", *_P, "--speed", "2.0000000005"],
    "fault_unsupported": ["certify", "--params", "1,0.5,1,1", "--speed", "2.5"],
    "fault_complex_roots": ["certify", *_P, "--speed", "1.9999999999999"],
    "speed_overflow": ["speed", *_P, "--speed", "1e300"],
    "solve_tail_box": ["solve", *_P, "--speed", "10", "--out", "out"],
    "readme_certify": ["certify", *_P, "--speed", "3.0", "--out", "cert.json"],
    "readme_solve": ["solve", *_P, "--speed", "3.0", "--out", "out"],
}


def _flatten(node, path, exact, floats):
    if isinstance(node, dict):
        for key in sorted(node):
            _flatten(node[key], f"{path}.{key}" if path else key, exact, floats)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            _flatten(item, f"{path}[{i}]", exact, floats)
    elif isinstance(node, float):
        floats[path] = node
    else:
        exact[path] = node


def _json_record(text):
    exact, floats = {}, {}
    _flatten(json.loads(text), "", exact, floats)
    return {"exact": exact, "floats": floats}


def _csv_record(text):
    header, *lines = text.splitlines()
    every = max(1, len(lines) // CSV_SAMPLES)
    return {"header": header, "rows": len(lines), "every": every,
            "sample": [[float(x) for x in line.split(",")] for line in lines[::every]]}


def run(argv):
    """The record of one configuration, run in the current directory."""
    Path(CONFIG_FILE[0]).write_text(CONFIG_FILE[1])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    files = {"stderr": err.getvalue()}
    if out.getvalue():
        files["stdout"] = _json_record(out.getvalue())
    for path in sorted(Path(".").rglob("*")):
        if path.is_file() and path.name != CONFIG_FILE[0]:
            reader = _csv_record if path.suffix == ".csv" else _json_record
            files[path.as_posix()] = reader(path.read_text())
    return {"argv": list(argv), "exit": code, "files": files}


def _close(old, new):
    if math.isnan(old) or math.isnan(new):
        return math.isnan(old) and math.isnan(new)
    return abs(new - old) <= TOL * max(1.0, abs(old))


def _fields(rec):
    """The exact fields and the float fields of one file's record."""
    if isinstance(rec, str):
        return {"text": rec}, {}
    if "sample" in rec:
        return ({key: rec[key] for key in ("header", "rows", "every")},
                {f"row {i * rec['every']} column {j}": x
                 for i, row in enumerate(rec["sample"]) for j, x in enumerate(row)})
    return rec["exact"], rec["floats"]


def compare(old, new):
    """(mismatches, max |delta| per file) of the record new against old."""
    mismatches, deltas = [], {}
    for key in ("argv", "exit"):
        if old[key] != new[key]:
            mismatches.append(f"{key}: {old[key]!r} != {new[key]!r}")
    for name in sorted(old["files"].keys() | new["files"].keys()):
        if name not in old["files"] or name not in new["files"]:
            mismatches.append(f"{name}: in one record only")
            continue
        (exact, floats), (exact_new, floats_new) = (_fields(rec["files"][name])
                                                    for rec in (old, new))
        mismatches += [f"{name}: {key}: {exact.get(key)!r} != {exact_new.get(key)!r}"
                       for key in sorted(exact.keys() | exact_new.keys())
                       if key not in exact or key not in exact_new
                       or exact[key] != exact_new[key]]
        mismatches += [f"{name}: {key}: float in one record only"
                       for key in sorted(floats.keys() ^ floats_new.keys())]
        common = [key for key in floats if key in floats_new]
        deltas[name] = max((abs(floats_new[key] - floats[key]) for key in common
                            if math.isfinite(floats[key]) and math.isfinite(floats_new[key])),
                           default=0.0)
        mismatches += [f"{name}: {key}: {floats[key]!r} != {floats_new[key]!r}"
                       for key in common if not _close(floats[key], floats_new[key])]
    return mismatches, deltas


def load(name):
    return json.loads((RECORDS / f"{name}.json").read_text())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="rewrite the records")
    args = ap.parse_args(argv)
    RECORDS.mkdir(exist_ok=True)
    failed = False
    for name, config in CONFIGS.items():
        here = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                new = run(config)
            finally:
                os.chdir(here)
        path = RECORDS / f"{name}.json"
        if path.exists():
            mismatches, deltas = compare(load(name), new)
        else:
            mismatches, deltas = ["no record"], {}
        for file, delta in deltas.items():
            print(f"{name}/{file}: max |delta| {delta:.3g}")
        for line in mismatches:
            print(f"{name}: {line}")
        failed |= bool(mismatches)
        if args.write:
            path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    return 0 if args.write or not failed else 1


if __name__ == "__main__":
    sys.exit(main())

"""lvfront's import graph: numpy and scipy.linalg, and no heavier scipy; and
the names that the benchmark's tracer patches."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import lvfront

#: scipy subpackages that each cost a large share of a process's start-up
HEAVY = ("scipy.signal", "scipy.optimize", "scipy.special", "scipy.stats")


def test_import_loads_no_heavy_scipy_subpackage():
    # a fresh interpreter, since this one has imported scipy for the tests
    src = str(Path(lvfront.__file__).resolve().parents[1])
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    code = f"import sys, lvfront; print(sorted(m for m in {HEAVY!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


def test_every_name_the_benchmark_traces_exists():
    # bench/tracing.py patches these by name; a rename or a move out of src/
    # would otherwise fail only in the benchmark's self-test
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing._PATCHES
    for modname, attr, *_ in tracing._PATCHES:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)

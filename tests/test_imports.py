"""lvfront's import graph: numpy and scipy's three compiled modules (BLAS,
LAPACK and Brent's method), and not the scipy, scipy.linalg or
scipy.optimize packages; and the names that the benchmark's tracer
patches."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lvfront

#: the only scipy modules that import lvfront loads
SCIPY_EXTENSIONS = ["scipy.linalg._fblas", "scipy.linalg._flapack", "scipy.optimize._zeros"]


def _fresh(code):
    """stdout of code run in a fresh interpreter, since this one has
    imported scipy for the tests."""
    src = str(Path(lvfront.__file__).resolve().parents[1])
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    return out.stdout


def test_import_loads_no_heavy_scipy_subpackage():
    # not even the scipy, scipy.linalg and scipy.optimize packages: only
    # three compiled modules
    code = ("import json, sys, lvfront; "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    assert json.loads(_fresh(code)) == SCIPY_EXTENSIONS


@pytest.mark.parametrize("order", [
    "import lvfront; import scipy.linalg, scipy.linalg.blas, scipy.linalg.lapack",
    "import scipy.linalg, scipy.linalg.blas, scipy.linalg.lapack; import lvfront",
    "import lvfront; import scipy.optimize",
    "import scipy.optimize; import lvfront",
])
def test_routines_are_scipys_in_either_import_order(order):
    # the same objects, so every kernel, factorisation and root is scipy's
    # to the bit; and scipy.linalg and scipy.optimize still work when
    # lvfront loaded their modules first, each of which is an attribute of
    # its package, the very module that lvfront loaded
    code = order + """
import json, sys, numpy as np
import scipy, scipy.linalg, scipy.optimize
from lvfront import envelopes, solve
from scipy.linalg import blas, lapack, solve_banded
from scipy.optimize import brentq
from scipy.optimize._zeros import _brentq
same = [solve.dtbsv is blas.dtbsv, solve.dgbtrf is lapack.dgbtrf,
        solve.dgbtrs is lapack.dgbtrs, envelopes._zeros._brentq is _brentq,
        scipy.optimize._zeros is envelopes._zeros is sys.modules["scipy.optimize._zeros"],
        scipy.linalg._fblas is sys.modules["scipy.linalg._fblas"],
        scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"],
        scipy.linalg._fblas.dtbsv is solve.dtbsv,
        scipy.linalg._flapack.dgbtrf is solve.dgbtrf]
ab = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]])
x = solve_banded((1, 1), ab, np.array([5.0, 6.0, 5.0]))
root = brentq(lambda t: t * t - 2.0, 0.0, 2.0)
print(json.dumps({"same": same, "x": x.tolist(), "root": root}))
"""
    out = json.loads(_fresh(code))
    assert out["same"] == [True] * 9
    assert out["x"] == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)
    assert out["root"] == pytest.approx(2.0 ** 0.5, abs=1e-12)


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

"""scipy's compiled modules, loaded without their packages."""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys


def scipy_extension(subpackage: str, name: str):
    """scipy's compiled module scipy.<subpackage>.<name>, loaded without the
    package.

    dtbsv, dgbtrf and dgbtrs live in scipy's f2py modules linalg/_fblas and
    linalg/_flapack, and Brent's method in optimize/_zeros; each loads in a
    few ms or less.  Importing one by name runs its package's __init__
    first: scipy.linalg's pulls in the array-API layer, numpy.ma and
    numpy.f2py and costs about half of a process's start-up, and
    scipy.optimize's about 0.28 s.  The module is registered under its real
    name, so a later import of the package reuses it, and its routines are
    the very objects that the package exports.
    """
    fullname = f"scipy.{subpackage}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    scipy_spec = importlib.util.find_spec("scipy")  # finds, does not import
    if scipy_spec is None:
        raise ImportError("lvfront needs scipy", name="scipy")
    base = os.path.join(scipy_spec.submodule_search_locations[0], subpackage, name)
    path = next((base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                 if os.path.isfile(base + suffix)), None)
    if path is None:
        raise ImportError(f"no compiled module {base}.*", name=fullname, path=base)
    loader = importlib.machinery.ExtensionFileLoader(fullname, path)
    spec = importlib.util.spec_from_file_location(fullname, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[fullname] = module
    return module

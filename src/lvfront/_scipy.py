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
    the very objects that the package exports; once the package is
    imported, the module is its attribute too (_Binder).
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
    # the package, which imports the module, has not been imported either
    _BINDER.defer(f"scipy.{subpackage}", name)
    return module


class _Binder:
    """A meta path finder that binds modules loaded by scipy_extension to
    their package when the package is imported later: the import system
    binds a submodule to its package only when it loads the submodule.  It
    finds the package's spec with the finders after it, and binds the
    modules once the package's own code has run."""

    def __init__(self):
        self.pending = {}   # package name -> names of its loaded modules

    def defer(self, package: str, name: str) -> None:
        if not self.pending:
            sys.meta_path.insert(0, self)
        self.pending.setdefault(package, []).append(name)

    def find_spec(self, fullname, path=None, target=None):
        names = self.pending.pop(fullname, None)
        if names is None:
            return None
        finders = (f for f in sys.meta_path if f is not self and hasattr(f, "find_spec"))
        spec = next(filter(None, (f.find_spec(fullname, path, target) for f in finders)), None)
        if spec is None or spec.loader is None:
            return spec
        loader, exec_module = spec.loader, spec.loader.exec_module

        def exec_and_bind(module):
            del loader.exec_module
            if not self.pending:
                # not from find_spec, while the import system walks sys.meta_path
                sys.meta_path.remove(self)
            exec_module(module)
            for name in names:
                setattr(module, name, sys.modules[f"{fullname}.{name}"])

        loader.exec_module = exec_and_bind
        return spec


_BINDER = _Binder()

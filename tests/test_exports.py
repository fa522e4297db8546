import importlib
import os
import subprocess
import sys

import fracwave

LIBRARY_MODULES = [
    "mittag_leffler",
    "fractional",
    "operator_model",
    "contour",
    "propagators",
    "solvers",
]

# exported by its module only: too generic a name for the package namespace
MODULE_ONLY = {"apply"}


def test_exported_names_resolve_and_package_mirrors_modules():
    union = set()
    for name in LIBRARY_MODULES + ["cli"]:
        mod = importlib.import_module(f"fracwave.{name}")
        missing = [n for n in mod.__all__ if not hasattr(mod, n)]
        assert not missing, f"fracwave.{name}.__all__ names undefined {missing}"
        if name != "cli":
            union |= set(mod.__all__)
    missing = [n for n in fracwave.__all__ if not hasattr(fracwave, n)]
    assert not missing, f"fracwave.__all__ names undefined {missing}"
    assert len(fracwave.__all__) == len(set(fracwave.__all__))
    assert set(fracwave.__all__) - {"__version__"} == union - MODULE_ONLY


def _loaded_by_import(module: str) -> bool:
    """Whether a fresh ``import fracwave, fracwave.cli`` loads ``module``."""
    src = os.path.dirname(os.path.dirname(fracwave.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, fracwave, fracwave.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def test_import_does_not_load_scipy():
    # scipy is a test dependency only; the runtime needs numpy and mpmath
    assert not _loaded_by_import("scipy")


def test_import_does_not_load_mpmath():
    # mpmath serves only the arbitrary-precision fallback, which imports it
    assert not _loaded_by_import("mpmath")

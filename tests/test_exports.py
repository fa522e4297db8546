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


def test_import_does_not_load_scipy():
    # scipy is a test dependency only; the runtime needs numpy and mpmath
    src = os.path.dirname(os.path.dirname(fracwave.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, fracwave, fracwave.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

import importlib
import inspect
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


# every optional parameter of the library's public callables, each object
# once (make_propagator is PropagatorHandle): an option is added here on
# purpose, with the callers that need it
OPTIONS = {
    "fractional.TimeGrid": ("grading",),
    "fractional.trajectory_to_csv": ("header_lines",),
    "operator_model.SectorProfile": ("c_mu",),
    "operator_model.build_ladder_model": ("coupling_scale", "theta", "mu"),
    "operator_model.build_scalar_model": ("gamma",),
    "operator_model.verify_resolvent_bound": ("arg_z", "moduli"),
    "contour.ContourSpec": ("nodes_per_decade",),
    "contour.default_contour": ("t_alpha_scale",),
    "contour.calculus_apply": ("return_error",),
    "contour.hankel_propagator": ("delta",),
    "propagators.PropagatorHandle": ("delta", "representation", "hankel"),
    "propagators.DecayReport": ("fitted_slope", "c_empirical"),
    "propagators.prop_norm_decay": ("with_prefactor",),
    "propagators.laplace_check": ("nodes_per_decade",),
    "propagators.derivative_identity_check": ("method", "n_grid"),
    "propagators.decay_report_to_csv": ("header_lines",),
    "solvers.ForcingSpec": ("kind", "func", "nu", "lipschitz"),
    "solvers.WaveProblem": ("forcing",),
    "solvers.regime_report": ("nu",),
    "solvers.solve_semilinear": ("tol", "max_iter", "initial"),
    "solvers.verify_classical": ("window",),
    "solvers.residual_report_to_csv": ("header_lines",),
}


def test_optional_parameters_are_pinned():
    seen, got = set(), {}
    for name in LIBRARY_MODULES:
        mod = importlib.import_module(f"fracwave.{name}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if not callable(obj) or id(obj) in seen:
                continue
            seen.add(id(obj))
            params = inspect.signature(obj).parameters.values()
            optional = tuple(p.name for p in params if p.default is not p.empty)
            if optional:
                got[f"{name}.{attr}"] = optional
    assert got == OPTIONS


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

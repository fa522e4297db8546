"""Command-line front end: model building, invariant verification sweeps,
solver runs, and admissibility-region rasters.

Exit codes: 0 success, 1 verification failure, 2 usage/config error (an
unknown config key included), 3 domain/parameter error (any ``ValueError``
or ``OverflowError`` of the library, mapped once in :func:`main`), 4 solver
non-convergence.  All CSV outputs carry ``# fracwave-version/config-hash/seed``
comment headers; identical config and seed reproduce outputs bitwise.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fractional import TimeGrid, _csv, trajectory_to_csv
from .mittag_leffler import MLParams, ml_derivative, ml_eval
from .operator_model import (
    build_ladder_model,
    build_scalar_model,
    model_from_text,
    model_to_text,
    verify_resolvent_bound,
)
from .propagators import (
    a_prop_norm_decay,
    conv_norm_decay,
    derivative_identity_check,
    laplace_check,
    make_propagator,
    prop_apply,
    prop_norm_decay,
    uno_identity_check,
)
from .solvers import (
    ForcingSpec,
    PicardError,
    WaveProblem,
    regime_report,
    residual_report_to_csv,
    solve_homogeneous,
    solve_linear,
    solve_semilinear,
    verify_classical,
)

__all__ = ["main"]


class UsageError(Exception):
    pass


# ---------------------------------------------------------------- config


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    cfg = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        s = line.split("#", 1)[0].strip()
        if not s:
            continue
        if "=" not in s:
            raise UsageError(f"config line {ln}: expected key=value, got {s!r}")
        k, v = s.split("=", 1)
        cfg[k.strip()] = v.strip()
    if not cfg:
        raise UsageError("config is empty")
    return cfg


def _parse_complex(s: str) -> complex:
    parts = s.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ValueError(f"expected a complex number as 're' or 're,im', got {s!r}")


def _count(s: str) -> int:
    """An integral count; spellings such as ``1e3`` are accepted."""
    v = float(s)
    if not v.is_integer():
        raise ValueError(f"expected an integer, got {s!r}")
    return int(v)


def _finite(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {s!r}")
    return v


# every key some subcommand reads, and its reader; TimeGrid checks grading
_KEYS = {
    "a": _parse_complex,
    **dict.fromkeys(("blocks_per_decade", "n_steps", "max_iter", "n"), _count),
    **dict.fromkeys(
        ("model_file", "model", "w0", "w1", "problem", "forcing", "theorem", "axis"), str
    ),
    **dict.fromkeys(
        (
            "gamma", "omega", "rho_min", "rho_max", "coupling_scale", "theta", "mu",
            "alpha", "T", "tol", "forcing_value", "alpha_min", "alpha_max",
            "gamma_min", "gamma_max", "nu", "nu_min", "nu_max",
        ),
        _finite,
    ),
    "grading": float,
}


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {path}")
    cfg = parse_config_text(p.read_text())
    for key in cfg:
        if key not in _KEYS:
            raise UsageError(f"unknown config key {key!r}")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _get(cfg: dict, key: str, default=None):
    """``cfg[key]`` through its ``_KEYS`` reader, or ``default`` when absent."""
    read = _KEYS[key]  # before the presence test, so an unlisted key fails even when unset
    if key not in cfg:
        return default
    try:
        return read(cfg[key])
    except ValueError as e:
        raise ValueError(f"config key {key}: {e}") from None


def build_model_from_config(cfg: dict):
    path = _get(cfg, "model_file")
    if path is not None:
        if not Path(path).is_file():
            raise UsageError(f"model file not found: {path}")
        try:
            return model_from_text(Path(path).read_text())
        except ValueError as e:
            raise ValueError(f"model file {path}: {e}") from None
    kind = _get(cfg, "model", "ladder")
    if kind == "scalar":
        return build_scalar_model(_get(cfg, "a", 1 + 0j), gamma=_get(cfg, "gamma", -0.5))
    if kind == "ladder":
        kw = {opt: _get(cfg, opt) for opt in ("coupling_scale", "theta", "mu") if opt in cfg}
        return build_ladder_model(
            _get(cfg, "gamma", -0.75),
            _get(cfg, "omega", math.pi / 6.0),
            _get(cfg, "rho_min", 1e-2),
            _get(cfg, "rho_max", 1e4),
            _get(cfg, "blocks_per_decade", 4),
            **kw,
        )
    raise ValueError(f"unknown model kind {kind!r}")


def _header_lines(cfg: dict, seed: int) -> list:
    return [
        f"fracwave-version: {__version__}",
        f"config-hash: {config_hash(cfg) if cfg else 'none'}",
        f"seed: {seed}",
    ]


def _emit(name: str, text: str, out_dir: str, to_stdout: bool) -> None:
    if to_stdout:
        sys.stdout.write(text)
    else:
        d = Path(out_dir)
        d.mkdir(parents=True, exist_ok=True)
        (d / name).write_text(text)
        print(f"wrote {d / name}", file=sys.stderr)


# ---------------------------------------------------------------- ml


def cmd_ml(args) -> int:
    try:
        z = _parse_complex(args.z)
    except ValueError as e:
        raise UsageError(e) from None
    p = MLParams(args.alpha, args.delta)
    v = ml_eval(p, z) if args.derivative == 0 else ml_derivative(p, z, args.derivative)
    if v.imag == 0.0:
        print(repr(v.real))
    else:
        im = repr(v.imag)
        print(f"{v.real!r}{'' if im.startswith('-') else '+'}{im}j")
    return 0


# ---------------------------------------------------------------- verify


def _verify_checks(m, alpha: float, rng) -> list:
    """Battery rows (name, value, target, tol, status)."""
    gamma = m.profile.gamma
    lo, hi = m.spectral_radius_range()
    rows = []

    def add(name, value, target, tol):
        rows.append((name, value, target, tol, "pass" if abs(value - target) <= tol else "FAIL"))

    rep = verify_resolvent_bound(m, moduli=np.geomspace(lo, hi, 25))
    add("resolvent-slope", rep.slope, gamma, 0.1)

    ts = np.geomspace(0.01, 10.0, 12)
    p1 = make_propagator(m, alpha, representation="oracle")
    add("decay-e-alpha", prop_norm_decay(p1, ts).fitted_slope, -alpha * (1 + gamma), 0.15)
    p2 = make_propagator(m, alpha, delta=2.0, representation="oracle")
    add(
        "decay-t-e-alpha-2",
        prop_norm_decay(p2, ts, with_prefactor=True).fitted_slope,
        1.0 - alpha * (1 + gamma),
        0.15,
    )
    add(
        "decay-conv",
        conv_norm_decay(p1, ts).fitted_slope,
        -1.0 - alpha * (1 + gamma),
        0.15,
    )
    pa = make_propagator(m, alpha, delta=alpha, representation="oracle")
    add(
        "decay-a-e",
        a_prop_norm_decay(pa, ts).fitted_slope,
        -2.0 * alpha - alpha * gamma,
        0.15,
    )

    x = rng.standard_normal(m.dimension) + 1j * rng.standard_normal(m.dimension)
    add("identity-uno", uno_identity_check(p1, 1.0, x), 0.0, 1e-5)
    add(
        "identity-derivative",
        derivative_identity_check(p1, 1.0, x, method="oracle"),
        0.0,
        1e-8,
    )
    add("identity-laplace", laplace_check(p1, 2.0, x), 0.0, 1e-4)

    oracle = prop_apply(p1, 1.0, x)
    scale = np.linalg.norm(oracle)
    for name in ("gamma", "hankel"):
        y = prop_apply(make_propagator(m, alpha, representation=f"{name}-path"), 1.0, x)
        add(f"repr-{name}-vs-oracle", float(np.linalg.norm(y - oracle) / scale), 0.0, 1e-8)
    return rows


def cmd_verify(args) -> int:
    if args.config is None:
        raise UsageError("verify requires --config")
    cfg = load_config(args.config)
    m = build_model_from_config(cfg)
    alpha = _get(cfg, "alpha", 1.5)
    if not m.profile.admissible_for_alpha(alpha):
        raise ValueError(f"model sector mu={m.profile.mu} violates mu < pi - alpha*pi/2")
    rows = _verify_checks(m, alpha, np.random.default_rng(args.seed))
    for name, value, target, tol, status in rows:
        print(f"{status}  {name}: {value:.3e} (target {target:.3e} +- {tol:.1e})", file=sys.stderr)
    text = _csv(_header_lines(cfg, args.seed), ["check", "value", "target", "tol", "status"], rows)
    _emit("verify_summary.csv", text, args.out, args.stdout)
    return 0 if all(row[-1] == "pass" for row in rows) else 1


# ---------------------------------------------------------------- solve


def _parse_vector(spec: str, dim: int, rng) -> np.ndarray:
    if spec == "random":
        return rng.standard_normal(dim) + 0j
    if spec == "zero":
        return np.zeros(dim, dtype=complex)
    vals = [float(v) for v in spec.split(",")]
    if len(vals) == 1:
        out = np.zeros(dim, dtype=complex)
        out[0] = vals[0]
        return out
    if len(vals) != dim:
        raise ValueError(f"vector has {len(vals)} entries, model dimension is {dim}")
    return np.asarray(vals, dtype=complex)


def _forcing_from_config(cfg: dict) -> ForcingSpec:
    kind = _get(cfg, "forcing", "none")
    value = _get(cfg, "forcing_value", 1.0)
    if kind == "none":
        return ForcingSpec.none()
    if kind == "constant":
        return ForcingSpec.time_dependent(lambda t: value, nu=1.0)
    if kind == "sin-t":
        return ForcingSpec.time_dependent(lambda t: value * math.sin(t), nu=1.0)
    if kind == "linear-w":
        return ForcingSpec.semilinear(lambda t, w: value * w, lipschitz=abs(value))
    if kind == "sin-w":
        return ForcingSpec.semilinear(
            lambda t, w: value * np.sin(w), lipschitz=abs(value)
        )
    raise ValueError(f"unknown forcing {kind!r}")


def cmd_solve(args) -> int:
    if args.config is None:
        raise UsageError("solve requires --config")
    cfg = load_config(args.config)
    m = build_model_from_config(cfg)
    rng = np.random.default_rng(args.seed)
    grid = TimeGrid(_get(cfg, "T", 1.0), _get(cfg, "n_steps", 512), grading=_get(cfg, "grading", 2.0))
    prob = WaveProblem(
        model=m,
        alpha=_get(cfg, "alpha", 1.5),
        w0=_parse_vector(_get(cfg, "w0", "zero"), m.dimension, rng),
        w1=_parse_vector(_get(cfg, "w1", "zero"), m.dimension, rng),
        grid=grid,
        forcing=_forcing_from_config(cfg),
    )
    problem = _get(cfg, "problem", "homogeneous")
    if problem == "homogeneous":
        w = solve_homogeneous(prob)
    elif problem == "linear":
        w = solve_linear(prob)
    elif problem == "semilinear":
        tol = args.tol if args.tol is not None else _get(cfg, "tol", 1e-10)
        w, iters, history = solve_semilinear(prob, tol=tol, max_iter=_get(cfg, "max_iter", 60))
        print(
            f"picard converged in {iters} sweeps; last increment {history[-1]:.3e}",
            file=sys.stderr,
        )
    else:
        raise ValueError(f"unknown problem {problem!r}")
    rep = verify_classical(prob, w)
    header = _header_lines(cfg, args.seed)
    _emit("solution.csv", trajectory_to_csv(w, header), args.out, args.stdout)
    _emit(
        "residual.csv", residual_report_to_csv(rep, header), args.out, args.stdout
    )
    print(f"max interior residual {rep.max_residual:.3e}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- regions


def cmd_regions(args) -> int:
    cfg = load_config(args.config)
    theorem = _get(cfg, "theorem", "homogeneous")
    axis = _get(cfg, "axis", "gamma")
    n = _get(cfg, "n", 200)
    if n < 2:
        raise ValueError("raster needs n >= 2")
    alphas = np.linspace(_get(cfg, "alpha_min", 1.005), _get(cfg, "alpha_max", 1.995), n)
    if axis == "gamma":
        nus = [_get(cfg, "nu", 0.5)]
        gammas = np.linspace(_get(cfg, "gamma_min", -0.995), _get(cfg, "gamma_max", -0.005), n)
    elif axis == "nu":
        nus = np.linspace(_get(cfg, "nu_min", 0.005), _get(cfg, "nu_max", 0.995), n)
        gammas = [_get(cfg, "gamma", -0.75)]
    else:
        raise ValueError(f"unknown axis {axis!r}")
    rows = (
        (a, v, g, int(regime_report(theorem, a, g, v).classical_ok))
        for a in alphas
        for v in nus
        for g in gammas
    )
    text = _csv(_header_lines(cfg, args.seed), ["alpha", "nu", "gamma", "flag"], rows)
    _emit("regions.csv", text, args.out, args.stdout)
    return 0


# ---------------------------------------------------------------- model


def cmd_model_build(args) -> int:
    if args.config is None:
        raise UsageError("model build requires --config")
    cfg = load_config(args.config)
    m = build_model_from_config(cfg)
    text = "".join(f"# {line}\n" for line in _header_lines(cfg, args.seed))
    _emit("model.txt", text + model_to_text(m), args.out, args.stdout)
    lo, hi = m.spectral_radius_range()
    print(
        f"model: {m.n_blocks} blocks, spectral radii [{lo:g}, {hi:g}], "
        f"gamma={m.profile.gamma}, omega={m.profile.omega:.6g}",
        file=sys.stderr,
    )
    return 0


def cmd_model_check(args) -> int:
    if args.config is None:
        raise UsageError("model check requires --config")
    cfg = load_config(args.config)
    m = build_model_from_config(cfg)
    lo, hi = m.spectral_radius_range()
    rep = verify_resolvent_bound(m, moduli=np.geomspace(lo, hi, 33))
    tol = args.tol if args.tol is not None else 0.1
    ok = abs(rep.slope - m.profile.gamma) <= tol
    print(
        f"{'pass' if ok else 'FAIL'}  resolvent slope {rep.slope:.4f} "
        f"(target {m.profile.gamma} +- {tol}); C_mu = {rep.constant:.6g}",
        file=sys.stderr,
    )
    return 0 if ok else 1


# ---------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracwave",
        description="Contour-calculus propagators and fractional wave solvers.",
    )
    ap.add_argument("--version", action="version", version=f"fracwave {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, tol=False):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        if tol:  # only the subcommands that read it
            p.add_argument("--tol", type=_finite, default=None, help="tolerance override")
        p.add_argument(
            "--stdout", action="store_true", help="write CSV data to stdout"
        )

    p_ml = sub.add_parser("ml", help="evaluate E_{alpha,delta}(z)")
    p_ml.add_argument("--alpha", type=float, required=True)
    p_ml.add_argument("--delta", type=float, default=1.0)
    p_ml.add_argument(
        "--z", required=True, help="complex argument 're' or 're,im', e.g. --z=-2,0.5"
    )
    p_ml.add_argument("--derivative", type=int, default=0)
    p_ml.set_defaults(func=cmd_ml)

    for name, fn in [
        ("verify", cmd_verify),
        ("solve", cmd_solve),
        ("regions", cmd_regions),
    ]:
        p = sub.add_parser(name)
        common(p, tol=name == "solve")
        p.set_defaults(func=fn)

    p_model = sub.add_parser("model")
    msub = p_model.add_subparsers(dest="subcommand", required=True)
    for name, fn in [("build", cmd_model_build), ("check", cmd_model_check)]:
        p = msub.add_parser(name)
        common(p, tol=name == "check")
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except PicardError as e:
        print(f"error: {e}", file=sys.stderr)
        for k, inc in enumerate(e.history, start=1):
            print(f"  sweep {k}: increment {inc:.6e}", file=sys.stderr)
        return 4
    except (ValueError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()

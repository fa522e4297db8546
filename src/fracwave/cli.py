"""Command-line front end: model building, invariant verification sweeps,
solver runs, and admissibility-region rasters.

Exit codes: 0 success, 1 verification failure, 2 usage/config parse error,
3 domain/parameter error, 4 solver non-convergence.  All CSV outputs carry
``# fracwave-version/config-hash/seed`` comment headers; identical config
and seed reproduce outputs bitwise.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fractional import TimeGrid, trajectory_to_csv
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


class DomainError(Exception):
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


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {path}")
    return parse_config_text(p.read_text())


def config_hash(cfg: dict) -> str:
    canon = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _get(cfg, key, default=None, cast=str):
    if key not in cfg:
        return default
    try:
        return cast(cfg[key])
    except ValueError as e:
        raise DomainError(f"config key {key}: {e}") from None


def _getf(cfg, key, default=None):
    return _get(cfg, key, default=default, cast=float)


def _geti(cfg, key, default):
    """An integer key; integral spellings such as ``1e3`` are accepted."""
    v = _getf(cfg, key, default)
    if not float(v).is_integer():
        raise DomainError(f"config key {key}: expected an integer, got {cfg[key]!r}")
    return int(v)


def build_model_from_config(cfg: dict):
    if "model_file" in cfg:
        p = Path(cfg["model_file"])
        if not p.is_file():
            raise UsageError(f"model file not found: {cfg['model_file']}")
        try:
            return model_from_text(p.read_text())
        except ValueError as e:
            raise DomainError(f"model file {cfg['model_file']}: {e}") from None
    kind = cfg.get("model", "ladder")
    try:
        if kind == "scalar":
            a = _parse_complex(cfg.get("a", "1"))
            return build_scalar_model(a, gamma=_getf(cfg, "gamma", -0.5))
        if kind == "ladder":
            kw = {}
            for opt in ("coupling_scale", "theta", "mu"):
                if opt in cfg:
                    kw[opt] = float(cfg[opt])
            return build_ladder_model(
                _getf(cfg, "gamma", -0.75),
                _getf(cfg, "omega", math.pi / 6.0),
                _getf(cfg, "rho_min", 1e-2),
                _getf(cfg, "rho_max", 1e4),
                _geti(cfg, "blocks_per_decade", 4),
                **kw,
            )
    except ValueError as e:
        raise DomainError(str(e)) from None
    raise DomainError(f"unknown model kind {kind!r}")


def _parse_complex(s: str) -> complex:
    parts = s.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise UsageError(f"expected a complex number as 're' or 're,im', got {s!r}")


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
    z = _parse_complex(args.z)
    try:
        p = MLParams(args.alpha, args.delta)
        v = ml_eval(p, z) if args.derivative == 0 else ml_derivative(p, z, args.derivative)
    except (ValueError, OverflowError) as e:
        raise DomainError(str(e)) from None
    if v.imag == 0.0:
        print(repr(v.real))
    else:
        im = repr(v.imag)
        print(f"{v.real!r}{'' if im.startswith('-') else '+'}{im}j")
    return 0


# ---------------------------------------------------------------- verify


def _verify_checks(m, alpha: float, rng) -> list:
    """Battery rows (name, value, target, tol, ok)."""
    gamma = m.profile.gamma
    lo, hi = m.spectral_radius_range()
    rows = []

    def add(name, value, target, tol):
        rows.append((name, value, target, tol, abs(value - target) <= tol))

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
    pg = make_propagator(m, alpha, representation="gamma-path")
    add(
        "repr-gamma-vs-oracle",
        float(np.linalg.norm(prop_apply(pg, 1.0, x) - oracle) / scale),
        0.0,
        1e-8,
    )
    ph = make_propagator(m, alpha, representation="hankel-path")
    add(
        "repr-hankel-vs-oracle",
        float(np.linalg.norm(prop_apply(ph, 1.0, x) - oracle) / scale),
        0.0,
        1e-8,
    )
    return rows


def cmd_verify(args) -> int:
    if args.config is None:
        raise UsageError("verify requires --config")
    cfg = load_config(args.config)
    m = build_model_from_config(cfg)
    alpha = _getf(cfg, "alpha", 1.5)
    if not m.profile.admissible_for_alpha(alpha):
        raise DomainError(
            f"model sector mu={m.profile.mu} violates mu < pi - alpha*pi/2"
        )
    rng = np.random.default_rng(args.seed)
    rows = _verify_checks(m, alpha, rng)
    buf = io.StringIO()
    for line in _header_lines(cfg, args.seed):
        buf.write(f"# {line}\n")
    buf.write("check,value,target,tol,status\n")
    ok_all = True
    for name, value, target, tol, ok in rows:
        ok_all &= ok
        buf.write(f"{name},{value:.17g},{target:.17g},{tol:.17g},{'pass' if ok else 'FAIL'}\n")
        print(f"{'pass' if ok else 'FAIL'}  {name}: {value:.3e} (target {target:.3e} +- {tol:.1e})", file=sys.stderr)
    _emit("verify_summary.csv", buf.getvalue(), args.out, args.stdout)
    return 0 if ok_all else 1


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
        raise DomainError(f"vector has {len(vals)} entries, model dimension is {dim}")
    return np.asarray(vals, dtype=complex)


def _forcing_from_config(cfg: dict) -> ForcingSpec:
    kind = cfg.get("forcing", "none")
    value = _getf(cfg, "forcing_value", 1.0)
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
    raise DomainError(f"unknown forcing {kind!r}")


def cmd_solve(args) -> int:
    if args.config is None:
        raise UsageError("solve requires --config")
    cfg = load_config(args.config)
    m = build_model_from_config(cfg)
    rng = np.random.default_rng(args.seed)
    alpha = _getf(cfg, "alpha", 1.5)
    try:
        grid = TimeGrid(
            _getf(cfg, "T", 1.0),
            _geti(cfg, "n_steps", 512),
            grading=_getf(cfg, "grading", 2.0),
        )
        prob = WaveProblem(
            model=m,
            alpha=alpha,
            w0=_parse_vector(cfg.get("w0", "zero"), m.dimension, rng),
            w1=_parse_vector(cfg.get("w1", "zero"), m.dimension, rng),
            grid=grid,
            forcing=_forcing_from_config(cfg),
        )
        problem = cfg.get("problem", "homogeneous")
        if problem == "homogeneous":
            w = solve_homogeneous(prob)
        elif problem == "linear":
            w = solve_linear(prob)
        elif problem == "semilinear":
            tol = args.tol if args.tol is not None else _getf(cfg, "tol", 1e-10)
            w, iters, history = solve_semilinear(
                prob, tol=tol, max_iter=_geti(cfg, "max_iter", 60)
            )
            print(
                f"picard converged in {iters} sweeps; last increment {history[-1]:.3e}",
                file=sys.stderr,
            )
        else:
            raise DomainError(f"unknown problem {problem!r}")
        rep = verify_classical(prob, w)
    except PicardError as e:
        print(f"error: {e}", file=sys.stderr)
        for k, inc in enumerate(e.history, start=1):
            print(f"  sweep {k}: increment {inc:.6e}", file=sys.stderr)
        return 4
    except ValueError as e:
        raise DomainError(str(e)) from None
    header = _header_lines(cfg, args.seed)
    _emit("solution.csv", trajectory_to_csv(w, header), args.out, args.stdout)
    _emit(
        "residual.csv", residual_report_to_csv(rep, header), args.out, args.stdout
    )
    print(f"max interior residual {rep.max_residual:.3e}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- regions


def cmd_regions(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    theorem = cfg.get("theorem", "homogeneous")
    axis = cfg.get("axis", "gamma")
    n = _geti(cfg, "n", 200)
    if n < 2:
        raise DomainError("raster needs n >= 2")
    alphas = np.linspace(_getf(cfg, "alpha_min", 1.005), _getf(cfg, "alpha_max", 1.995), n)
    if axis == "gamma":
        gammas = np.linspace(
            _getf(cfg, "gamma_min", -0.995), _getf(cfg, "gamma_max", -0.005), n
        )
        nus = np.full(n, _getf(cfg, "nu", 0.5))
        pairs = [(a, nus[j], g) for a in alphas for j, g in enumerate(gammas)]
    elif axis == "nu":
        nus = np.linspace(_getf(cfg, "nu_min", 0.005), _getf(cfg, "nu_max", 0.995), n)
        gamma = _getf(cfg, "gamma", -0.75)
        pairs = [(a, v, gamma) for a in alphas for v in nus]
    else:
        raise DomainError(f"unknown axis {axis!r}")
    buf = io.StringIO()
    for line in _header_lines(cfg, args.seed):
        buf.write(f"# {line}\n")
    buf.write("alpha,nu,gamma,flag\n")
    try:
        for a, v, g in pairs:
            flag = int(regime_report(theorem, a, g, v).classical_ok)
            buf.write(f"{a:.17g},{v:.17g},{g:.17g},{flag}\n")
    except ValueError as e:
        raise DomainError(str(e)) from None
    _emit("regions.csv", buf.getvalue(), args.out, args.stdout)
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
            p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument(
            "--stdout", action="store_true", help="write CSV data to stdout"
        )

    p_ml = sub.add_parser("ml", help="evaluate E_{alpha,delta}(z)")
    p_ml.add_argument("--alpha", type=float, required=True)
    p_ml.add_argument("--delta", type=float, default=1.0)
    p_ml.add_argument("--z", required=True, help="complex argument 're' or 're,im'")
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
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except PicardError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()

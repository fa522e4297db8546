"""The three benchmark workloads.

Each workload has ``setup(seed, workdir)``, which builds what the job needs
and is what ``setup_s`` times, and ``job(state)``, one closed-loop job whose
outputs are checked here.  A job returns a ``JobResult``: operations
attempted and failed, the worst error against the job's reference, and a
digest of everything it wrote, which must repeat exactly for the same seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

# README ladder.cfg: 25 moduli on two rays, 50 Jordan blocks
LADDER_CFG = """\
model = ladder
gamma = -0.75
omega = 0.5235987755982988
rho_min = 1e-2
rho_max = 1e4
blocks_per_decade = 4
alpha = 1.5
"""

# README solve.cfg with n_steps raised from 1024 to 4096
SOLVE_CFG = """\
model = scalar
a = 2
gamma = -0.75
alpha = 1.5
T = 1.0
n_steps = 4096
w0 = 1
problem = semilinear
forcing = sin-w
forcing_value = 1
"""

# rows of ``fracwave verify`` and which of them enter accuracy_digits
VERIFY_ROWS = (
    "resolvent-slope",
    "decay-e-alpha",
    "decay-t-e-alpha-2",
    "decay-conv",
    "decay-a-e",
    "identity-uno",
    "identity-derivative",
    "identity-laplace",
    "repr-gamma-vs-oracle",
    "repr-hankel-vs-oracle",
)
VERIFY_ACCURACY_ROWS = VERIFY_ROWS[5:]

PATH_TIMES = (0.01, 10.0, 8)  # geomspace(start, stop, num)
PATH_GAP_TOL = 1e-8  # the verify and acceptance gate for path-vs-oracle gaps
RESIDUAL_TOL = 1e-3  # the acceptance gate for the classical residual


@dataclass
class JobResult:
    attempted: int
    failed: int
    worst_error: float
    digest: str


def _run_cli(argv):
    """``fracwave.cli.main(argv)``; returns (exit code, captured stderr)."""
    from fracwave import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


# ------------------------------------------------------------ verify-ladder


def setup_verify(seed: int, workdir: Path):
    from fracwave import cli

    cfg_path = workdir / "ladder.cfg"
    cfg_path.write_text(LADDER_CFG)
    cfg = cli.load_config(str(cfg_path))
    # the CLI builds its own model in the job; this one makes setup_s cover it
    cli.build_model_from_config(cfg)
    out = workdir / "verify"
    return ["verify", "--config", str(cfg_path), "--out", str(out), "--seed", str(seed)], out


def job_verify(state) -> JobResult:
    argv, out = state
    csv_path = out / "verify_summary.csv"
    csv_path.unlink(missing_ok=True)
    code, _ = _run_cli(argv)
    if code not in (0, 1) or not csv_path.is_file():
        return JobResult(len(VERIFY_ROWS), len(VERIFY_ROWS), math.inf, f"exit {code}")
    text = csv_path.read_text()
    rows = {}
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("check,"):
            continue
        name, value, target, tol, status = line.split(",")
        rows[name] = (float(value), float(target), float(tol), status)
    failed = 0
    worst = 0.0
    for name in VERIFY_ROWS:
        if name not in rows:
            failed += 1
            continue
        value, target, tol, status = rows[name]
        err = abs(value - target)
        if not err <= tol or status != "pass":
            failed += 1
        if name in VERIFY_ACCURACY_ROWS:
            worst = max(worst, err if math.isfinite(err) else math.inf)
    return JobResult(len(VERIFY_ROWS), failed, worst, _digest(text))


# ------------------------------------------------------------ propagate-paths


def setup_paths(seed: int, workdir: Path):
    import numpy as np

    from fracwave import cli, make_propagator

    cfg_path = workdir / "ladder.cfg"
    cfg_path.write_text(LADDER_CFG)
    cfg = cli.load_config(str(cfg_path))
    model = cli.build_model_from_config(cfg)
    alpha = float(cfg["alpha"])
    handles = {
        rep: make_propagator(model, alpha, representation=rep)
        for rep in ("oracle", "gamma-path", "hankel-path")
    }
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(model.dimension) + 1j * rng.standard_normal(model.dimension)
    return handles, x, np.geomspace(*PATH_TIMES)


def job_paths(state) -> JobResult:
    import numpy as np

    from fracwave import prop_apply

    handles, x, times = state
    attempted = failed = 0
    worst = 0.0
    parts = []
    for t in times:
        oracle = prop_apply(handles["oracle"], t, x)
        scale = np.linalg.norm(oracle)
        parts.append(oracle.tobytes())
        for rep in ("gamma-path", "hankel-path"):
            attempted += 1
            try:
                y = prop_apply(handles[rep], t, x)
            except (ArithmeticError, ValueError):
                failed += 1
                worst = math.inf
                continue
            parts.append(y.tobytes())
            gap = float(np.linalg.norm(y - oracle) / scale)
            if not gap <= PATH_GAP_TOL:
                failed += 1
            worst = max(worst, gap if math.isfinite(gap) else math.inf)
    return JobResult(attempted, failed, worst, _digest(*parts))


# ------------------------------------------------------------ solve-semilinear

_PICARD = re.compile(r"picard converged in (\d+) sweeps")
_RESIDUAL = re.compile(r"max interior residual (\S+)")


def setup_solve(seed: int, workdir: Path):
    from fracwave import cli

    cfg_path = workdir / "solve.cfg"
    cfg_path.write_text(SOLVE_CFG)
    cfg = cli.load_config(str(cfg_path))
    cli.build_model_from_config(cfg)  # as in setup_verify
    out = workdir / "solve"
    n_rows = int(cfg["n_steps"]) + 1
    argv = ["solve", "--config", str(cfg_path), "--out", str(out), "--seed", str(seed)]
    return argv, out, n_rows


def job_solve(state) -> JobResult:
    argv, out, n_rows = state
    paths = [out / "solution.csv", out / "residual.csv"]
    for p in paths:
        p.unlink(missing_ok=True)
    code, err = _run_cli(argv)
    picard = _PICARD.search(err)
    residual = _RESIDUAL.search(err)
    if code != 0 or not picard or not residual or not all(p.is_file() for p in paths):
        return JobResult(1, 1, math.inf, f"exit {code}")
    solution, resid_text = (p.read_text() for p in paths)
    data = [ln for ln in solution.splitlines() if not ln.startswith(("#", "t,"))]
    res = float(residual.group(1))
    first = data[0].split(",") if data else []
    ok = (
        len(data) == n_rows
        and first[:2] == ["0", "1"]  # w(0) = w0 = 1
        and res <= RESIDUAL_TOL
    )
    return JobResult(1, 0 if ok else 1, res, _digest(solution, resid_text))


WORKLOADS = {
    "verify-ladder": (setup_verify, job_verify),
    "propagate-paths": (setup_paths, job_paths),
    "solve-semilinear": (setup_solve, job_solve),
}

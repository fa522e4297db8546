"""fracwave benchmark: one workload, one closed-loop client, checked outputs.

Run from the root of a fracwave source tree:

    python3 bench/run.py --workload verify-ladder --seed 1 --seconds 35 --trace 0

Workloads: verify-ladder, propagate-paths, solve-semilinear (see
``bench/README.md``).  With ``--trace 0`` the run reports the end-to-end
metrics: ``setup_s`` (median over fresh processes), ``job_s`` (median job
wall time), ``peak_rss_mb`` and ``accuracy_digits``.  Both times are
corrected to the reference host speed (``hostspeed.py``); the summary also
shows them as measured.  With ``--trace 1`` a separate run wraps each
module's public functions and reports the per-layer metrics.  A human-readable summary, including ``fail_share``,
precedes the last line of stdout, which is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 with a result, 2 when the tree holds no fracwave sources or a
worker process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 7  # extra fresh processes that only set up, for setup_s
BLAS_THREADS = "1"  # one client, one job at a time, no helper threads
# the whole run must end within 180 s; the job loop stops before --seconds
# unless its minimum number of jobs takes longer
WORKER_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 30.0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "fraction"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_digits"):
        return "digits"
    return "count"


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run_worker(args, workdir: Path, setup_only: bool, timeout: float) -> dict:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--root", str(Path.cwd()),
        "--workdir", str(workdir),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # subprocess.run kills the worker on timeout and waits for it
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(), timeout=timeout
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _environment() -> str:
    import mpmath
    import numpy
    import scipy

    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}, mpmath {mpmath.__version__}, "
        f"nproc {os.cpu_count()}, BLAS threads {BLAS_THREADS}"
    )


def _accuracy_digits(worst_error: float) -> float:
    return -math.log10(min(max(worst_error, 1e-17), 1e300))


def _spread(values) -> str:
    return (
        f"median {statistics.median(values):.4g} of {len(values)}, "
        f"min {min(values):.4g}, max {max(values):.4g}"
    )


def _setup_probes(args, workdir: Path, n: int) -> list:
    return [_run_worker(args, workdir, True, PROBE_TIMEOUT_S) for _ in range(n)]


def end_to_end(args, workdir: Path):
    # probes on both sides of the job loop, so that setup_s samples the
    # host's speed over the whole run rather than over its first seconds
    probes = _setup_probes(args, workdir, SETUP_PROBES // 2)
    res = _run_worker(args, workdir, False, WORKER_TIMEOUT_S)
    probes += [res, *_setup_probes(args, workdir, SETUP_PROBES - SETUP_PROBES // 2)]
    samples = [p["setup_s"] for p in probes]
    walls = [p["setup_wall_s"] for p in probes]
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "job_s": (statistics.median(res["job_s"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "accuracy_digits": (_accuracy_digits(res["worst_error"]), "digits"),
    }
    notes = {
        "setup_s": f"fresh processes, {_spread(samples)}; as measured: {_spread(walls)}",
        "job_s": f"closed loop, one client, {_spread(res['job_s'])}; as measured: {_spread(res['job_wall_s'])}",
        "peak_rss_mb": "workload process",
        "accuracy_digits": f"-log10 of worst error {res['worst_error']:.3e}",
    }
    return res, metrics, notes


def per_layer(args, workdir: Path):
    res = _run_worker(args, workdir, False, WORKER_TIMEOUT_S)
    per_job = [m for m, _ in res["per_job"]]
    metrics = {}
    for name in per_job[0]:
        values = [m[name] for m in per_job]
        # counts repeat exactly between jobs (checked below); times vary
        value = values[0] if name in tracing.COUNTS else statistics.median(values)
        metrics[name] = (value, _unit(name))
    metrics["ml.err_digits"] = (res["ml_err_digits"], "digits")
    overhead = statistics.median(res["traced_s"]) - statistics.median(res["job_s"])
    metrics["trace.overhead_s"] = (overhead, "s")
    res["counts_repeat"] = all(
        len({m[name] for m in per_job}) == 1 for name in tracing.COUNTS
    )
    layer_self = res["per_job"][0][1]
    total = sum(layer_self.values()) or 1.0
    notes = {
        "layer self time": ", ".join(
            f"{layer} {100.0 * s / total:.1f}%"
            for layer, s in sorted(layer_self.items(), key=lambda kv: -kv[1])
        ),
        "traced jobs": _spread(res["traced_s"]),
        "untraced jobs": _spread(res["job_s"]),
    }
    return res, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (Path.cwd() / "src" / "fracwave" / "__init__.py").is_file():
        print("error: run from the root of a fracwave source tree (no src/fracwave)", file=sys.stderr)
        return 2
    workdir = Path.cwd() / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        res, metrics, notes = (per_layer if args.trace else end_to_end)(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    correct = res["failed"] == 0 and res["digests_equal"] and res.get("counts_repeat", True)
    print(f"# {args.workload}, seed {args.seed}, --seconds {args.seconds}, trace {args.trace}")
    print(f"# environment: {_environment()}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name:26s} {value:>14.6g} {unit:8s}{'  (' + note + ')' if note else ''}")
    fail_share = res["failed"] / res["attempted"]
    print(f"{'fail_share':26s} {fail_share:>14.6g} {'fraction':8s}  ({res['failed']} of {res['attempted']} operations)")
    for name in ("layer self time", "traced jobs", "untraced jobs"):
        if name in notes:
            print(f"# {name}: {notes[name]}")
    print(f"# outputs repeat exactly between jobs: {res['digests_equal']}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload process: set up, then run jobs in a closed loop.

Started by ``run.py`` in a fresh interpreter, so that ``setup_s`` includes
importing fracwave and its dependencies and ``peak_rss_mb`` is this
process alone.  Times are reported both as measured and corrected to the
reference host speed (``hostspeed.py``).  Prints one JSON object on its last
line of stdout.

    python3 bench/worker.py --root . --workdir DIR --workload NAME --seed N
                            --seconds S --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads
from hostspeed import HostSpeed

MIN_JOBS = 2  # the determinism check compares two jobs with the same seed


def _timed_job(job, state):
    """(wall time, corrected time, result) of one job."""
    gc.collect()  # every job starts from a collected heap
    with HostSpeed() as speed:
        start = time.perf_counter()
        try:
            result = job(state)
        except Exception as exc:  # an operation that raises counts as failed
            traceback.print_exc()
            result = workloads.JobResult(1, 1, math.inf, f"raised {exc!r}")
        wall = time.perf_counter() - start
    return wall, speed.correct(wall), result


def _closed_loop(job, state, seconds):
    """Untraced jobs until the next one would end past ``seconds``."""
    deadline = time.perf_counter() + seconds
    walls, times, results = [], [], []
    while True:
        wall, dt, result = _timed_job(job, state)
        walls.append(wall)
        times.append(dt)
        results.append(result)
        if len(times) >= MIN_JOBS and time.perf_counter() + wall > deadline:
            return walls, times, results


def _traced_loop(job, state, seconds, workdir):
    """Traced and untraced jobs alternating, starting and ending traced."""
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    traced_times, plain_times, results, per_job = [], [], [], []
    while True:
        tracer.job = len(traced_times)
        tracer.install()
        try:
            wall, dt, result = _timed_job(job, state)
        finally:
            tracer.uninstall()
        traced_times.append(dt)
        results.append(result)
        per_job.append(tracing.job_metrics(tracer, tracer.job))
        if len(traced_times) >= MIN_JOBS and time.perf_counter() + wall > deadline:
            break
        _, dt, result = _timed_job(job, state)
        plain_times.append(dt)
        results.append(result)
    tracer.write(workdir / "spans.csv")
    if tracer.missing:
        print(f"trace targets not found: {', '.join(sorted(set(tracer.missing)))}", file=sys.stderr)
    return traced_times, plain_times, results, per_job


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    setup, job = workloads.WORKLOADS[args.workload]

    with HostSpeed() as speed:
        start = time.perf_counter()
        import fracwave

        state = setup(args.seed, args.workdir)
        setup_wall = time.perf_counter() - start

    if not Path(fracwave.__file__).resolve().is_relative_to(src):
        print(f"imported fracwave from {fracwave.__file__}, not from {src}", file=sys.stderr)
        return 2
    out = {"setup_s": speed.correct(setup_wall), "setup_wall_s": setup_wall}
    if not args.setup_only:
        if args.trace:
            traced, plain, results, per_job = _traced_loop(job, state, args.seconds, args.workdir)
            # imported here: it loads numpy and mpmath, which setup_s must time
            import ml_reference
            from fracwave import mittag_leffler

            out.update(
                traced_s=traced,
                job_s=plain,
                per_job=per_job,
                ml_err_digits=ml_reference.error_digits(mittag_leffler, args.seed),
            )
        else:
            walls, times, results = _closed_loop(job, state, args.seconds)
            out.update(
                job_s=times,
                job_wall_s=walls,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
        out.update(
            attempted=sum(r.attempted for r in results),
            failed=sum(r.failed for r in results),
            worst_error=max(r.worst_error for r in results),
            digests_equal=len({r.digest for r in results}) == 1,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

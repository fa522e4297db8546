"""Span tracing around the public functions of each fracwave module.

The program is not modified: every traced function is replaced, for the
duration of a traced job, by a wrapper at *every* name that holds it in a
``fracwave`` module.  fracwave modules import names directly
(``from .mittag_leffler import ml_eval``), so patching only the defining
module would miss most calls.  Spans are kept in memory as
``(id, name, start, end, parent, job, note)`` rows and written out once at
the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import fallback_probe

# (module, function, layer).  ``fallback_probe.TARGETS`` adds the one
# private boundary on top of this table.
TARGETS = [
    ("mittag_leffler", "ml_eval", "ml"),
    ("mittag_leffler", "ml_derivative", "ml"),
    ("operator_model", "resolvent_apply", "op"),
    ("operator_model", "spectral_matrices", "op"),
    ("contour", "calculus_apply", "contour"),
    ("contour", "hankel_propagator", "contour"),
    ("propagators", "prop_apply", "prop"),
    ("propagators", "laplace_check", "prop"),
    ("propagators", "prop_norm_decay", "prop"),
    ("propagators", "a_prop_norm_decay", "prop"),
    ("propagators", "conv_norm_decay", "prop"),
    ("propagators", "strong_continuity_check", "prop"),
    ("fractional", "duhamel_convolve", "frac"),
    ("fractional", "rl_integral", "frac"),
    ("fractional", "caputo_derivative", "frac"),
    ("solvers", "propagator_snapshots", "solve"),
    ("solvers", "solve_semilinear", "solve"),
    ("solvers", "verify_classical", "solve"),
    ("fractional", "trajectory_to_csv", "cli"),
    ("solvers", "residual_report_to_csv", "cli"),
]

SWEEPS = ("prop_norm_decay", "a_prop_norm_decay", "conv_norm_decay", "strong_continuity_check")


def _prop_label(args, kwargs):
    handle = args[0] if args else kwargs["p"]
    return f"prop_apply[{handle.representation}]"


def _csv_bytes(result, args, kwargs):
    return len(result.encode())


def _picard_sweeps(result, args, kwargs):
    return result[1]


# span label and note hooks, by function name
LABELS = {"prop_apply": _prop_label}
NOTES = {
    "trajectory_to_csv": _csv_bytes,
    "residual_report_to_csv": _csv_bytes,
    "solve_semilinear": _picard_sweeps,
}


class Tracer:
    """In-memory span recorder.  ``job`` tags every span with the job id.

    A span's name is the function name, with the representation appended in
    brackets for ``prop_apply``.
    """

    def __init__(self):
        self.spans = []
        self.layer_of = {}
        self.job = 0
        self._stack = [-1]
        self._next_id = 0
        self._patches = []
        self.missing = []

    def wrap(self, fn, name):
        label = LABELS.get(name)
        note = NOTES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            span_name = label(args, kwargs) if label else name
            parent = stack[-1]
            stack.append(sid)
            value = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if note:
                    value = note(result, args, kwargs)
                return result
            finally:
                # recorded also when fn raises, so its children keep a parent
                spans.append((sid, span_name, start, clock(), parent, self.job, value))
                stack.pop()

        return traced

    def patch(self, module_name, func_name, layer):
        """Replace ``fracwave.<module_name>.<func_name>`` wherever it is bound.

        A target the program no longer defines is skipped and listed in
        ``missing``; its metrics then read zero.
        """
        self.layer_of[func_name] = layer
        module = sys.modules.get(f"fracwave.{module_name}")
        original = getattr(module, func_name, None)
        if original is None:
            self.missing.append(f"{module_name}.{func_name}")
            return
        wrapped = self.wrap(original, func_name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "fracwave" or mod_name.startswith("fracwave."):
                if getattr(mod, func_name, None) is original:
                    setattr(mod, func_name, wrapped)
                    self._patches.append((mod, func_name, original))

    def install(self):
        for target in (*TARGETS, *fallback_probe.TARGETS):
            self.patch(*target)

    def uninstall(self):
        for mod, func_name, original in reversed(self._patches):
            setattr(mod, func_name, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,job,note\n")
            for sid, name, start, end, parent, job, note in sorted(self.spans):
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{job},{'' if note is None else note}\n")


# per-job counts; they must repeat exactly between jobs with the same seed
COUNTS = {
    "ml.calls",
    "op.resolvent_calls",
    "op.spectral_calls",
    "contour.calculus_calls",
    "contour.hankel_calls",
    "contour.nodes_per_call",
    "frac.duhamel_calls",
    "frac.rl_calls",
    "solve.snapshot_calls",
    "solve.picard_sweeps",
    "cli.csv_bytes",
}


def job_metrics(tracer: Tracer, job: int):
    """Per-layer metrics of one traced job, and self time summed by layer.

    Definitions are in ``bench/README.md``.
    """
    spans = [s for s in tracer.spans if s[5] == job]
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for sid, name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    count = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    notes = defaultdict(int)
    layer_self = defaultdict(float)
    ml_entries = 0
    contour_nodes = 0
    for sid, name, start, end, parent, _, note in spans:
        dur = end - start
        own = dur - child_time[sid]
        count[name] += 1
        incl[name] += dur
        self_s[name] += own
        if note is not None:
            notes[name] += note
        layer = tracer.layer_of[name.partition("[")[0]]
        layer_self[layer] += own
        parent_name = by_id[parent][1] if parent >= 0 else None
        if layer == "ml" and name != "_series_mp" and (
            parent_name is None or tracer.layer_of[parent_name.partition("[")[0]] != "ml"
        ):
            ml_entries += 1
        if name == "resolvent_apply" and parent_name in ("calculus_apply", "hankel_propagator"):
            contour_nodes += 1

    contour_calls = count["calculus_apply"] + count["hankel_propagator"]
    ml_names = ("ml_eval", "ml_derivative", "_series_mp")
    metrics = {
        "ml.calls": ml_entries,
        "ml.self_s": sum(self_s[n] for n in ml_names),
        "ml.fallback_share": count["_series_mp"] / ml_entries if ml_entries else 0.0,
        "ml.fallback_s": incl["_series_mp"],
        "op.resolvent_calls": count["resolvent_apply"],
        "op.resolvent_s": incl["resolvent_apply"],
        "op.spectral_calls": count["spectral_matrices"],
        "op.spectral_self_s": self_s["spectral_matrices"],
        "contour.calculus_calls": count["calculus_apply"],
        "contour.calculus_self_s": self_s["calculus_apply"],
        "contour.hankel_calls": count["hankel_propagator"],
        "contour.hankel_self_s": self_s["hankel_propagator"],
        "contour.nodes_per_call": contour_nodes / contour_calls if contour_calls else 0.0,
        "prop.oracle_s": incl["prop_apply[oracle]"],
        "prop.gamma_s": incl["prop_apply[gamma-path]"],
        "prop.hankel_s": incl["prop_apply[hankel-path]"],
        "prop.laplace_s": incl["laplace_check"],
        "prop.sweep_s": sum(incl[n] for n in SWEEPS),
        "frac.duhamel_calls": count["duhamel_convolve"],
        "frac.duhamel_self_s": self_s["duhamel_convolve"],
        "frac.rl_calls": count["rl_integral"],
        "frac.rl_s": incl["rl_integral"],
        "frac.caputo_s": incl["caputo_derivative"],
        "solve.snapshot_calls": count["propagator_snapshots"],
        "solve.snapshot_self_s": self_s["propagator_snapshots"],
        "solve.picard_sweeps": notes["solve_semilinear"],
        "solve.verify_s": incl["verify_classical"],
        "cli.csv_s": incl["trajectory_to_csv"] + incl["residual_report_to_csv"],
        "cli.csv_bytes": notes["trajectory_to_csv"] + notes["residual_report_to_csv"],
    }
    return metrics, dict(layer_self)

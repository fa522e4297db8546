"""Mild solutions of the Caputo wave-type problem

    d^alpha_t w(t) + A w(t) = f(t, w(t)),   w(0) = w0,  w'(0) = w1,

with 1 < alpha < 2, on a graded grid: the homogeneous part from propagator
snapshots, the Duhamel term from ``fractional.duhamel_convolve``; linear
forced and semilinear (Picard) variants, plus regime validation and
classical-solution residual verification.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .fractional import (
    TimeGrid,
    Trajectory,
    _csv,
    _DuhamelSteps,
    caputo_derivative,
    duhamel_convolve,
)
from .operator_model import AlmostSectorialModel, _symbol_apply, apply as op_apply
from .propagators import propagator_snapshots

__all__ = [
    "ForcingSpec",
    "WaveProblem",
    "RegimeReport",
    "ResidualReport",
    "HoelderEstimate",
    "PicardError",
    "regime_report",
    "validate_regime",
    "solve_homogeneous",
    "solve_linear",
    "solve_semilinear",
    "verify_classical",
    "hoelder_modulus",
    "residual_report_to_csv",
]

@dataclass(frozen=True)
class ForcingSpec:
    """Forcing term: absent, time-only f(t), or semilinear f(t, w).

    ``nu`` is the declared Hoelder exponent of a time-only forcing;
    ``lipschitz`` the declared Lipschitz constant of a semilinear one.
    """

    kind: str = "none"
    func: object = None
    nu: float | None = None
    lipschitz: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "time", "semilinear"):
            raise ValueError(f"unknown forcing kind {self.kind!r}")
        if self.kind != "none" and not callable(self.func):
            raise ValueError(f"{self.kind} forcing needs a callable")

    @classmethod
    def none(cls) -> "ForcingSpec":
        return cls()

    @classmethod
    def time_dependent(cls, func, nu: float | None = None) -> "ForcingSpec":
        return cls(kind="time", func=func, nu=nu)

    @classmethod
    def semilinear(cls, func, lipschitz: float) -> "ForcingSpec":
        if not (lipschitz >= 0.0 and math.isfinite(lipschitz)):
            raise ValueError(f"lipschitz constant must be finite, got {lipschitz}")
        return cls(kind="semilinear", func=func, lipschitz=lipschitz)


@dataclass(frozen=True)
class WaveProblem:
    model: AlmostSectorialModel
    alpha: float
    w0: np.ndarray = field(repr=False)
    w1: np.ndarray = field(repr=False)
    grid: TimeGrid
    forcing: ForcingSpec = ForcingSpec()

    def __post_init__(self) -> None:
        if not (1.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie in (1, 2), got {self.alpha}")
        d = self.model.dimension
        w0 = np.asarray(self.w0, dtype=complex).ravel()
        w1 = np.asarray(self.w1, dtype=complex).ravel()
        if w0.size != d or w1.size != d:
            raise ValueError(f"initial data must have dimension {d}")
        if not (np.isfinite(w0).all() and np.isfinite(w1).all()):
            raise ValueError("initial data must be finite")
        object.__setattr__(self, "w0", w0)
        object.__setattr__(self, "w1", w1)


@dataclass(frozen=True)
class RegimeReport:
    """Which of the classical-solution inequalities hold."""

    cond_alpha_upper: bool  # alpha < 1/(1+gamma)
    cond_alpha_lower: bool  # alpha > 1/(-gamma)
    cond_holder: bool  # nu > alpha*(1+gamma)
    classical_ok: bool


def regime_report(
    theorem: str, alpha: float, gamma: float, nu: float | None = None
) -> RegimeReport:
    """Which inequalities assumed by the selected solvability result hold.

    ``nu`` is the Hoelder exponent of the forcing; None (no time-only
    forcing) leaves the Hoelder condition satisfied.
    """
    upper = alpha * (1.0 + gamma) < 1.0
    lower = alpha * (-gamma) > 1.0
    holder = True if nu is None else nu > alpha * (1.0 + gamma)
    required = {
        "homogeneous": upper and lower,
        "linear": upper and lower and holder,
        "semilinear-mild": upper,
        "semilinear-classical": upper and lower,
    }
    if theorem not in required:
        raise ValueError(f"unknown theorem {theorem!r}; pick one of {tuple(required)}")
    return RegimeReport(
        cond_alpha_upper=upper,
        cond_alpha_lower=lower,
        cond_holder=holder,
        classical_ok=required[theorem],
    )


def validate_regime(p: WaveProblem, theorem: str) -> RegimeReport:
    """Evaluate the inequalities assumed by the selected solvability result.

    Solvers do not call this implicitly; runs outside the guaranteed regime
    are permitted but carry experimental status only.
    """
    nu = p.forcing.nu
    if nu is None and p.forcing.kind == "time":
        samples = np.array([p.forcing.func(t) for t in p.grid.nodes()], dtype=complex)
        nu = hoelder_modulus(Trajectory(p.grid, np.atleast_2d(samples.T).T)).nu
    return regime_report(theorem, p.alpha, p.model.profile.gamma, nu)


def solve_homogeneous(p: WaveProblem) -> Trajectory:
    """w(t_i) = E_alpha(-t_i^alpha A) w0 + t_i E_{alpha,2}(-t_i^alpha A) w1."""
    if p.forcing.kind != "none":
        raise ValueError("homogeneous solver requires absent forcing")
    return Trajectory(p.grid, _homogeneous_values(p))


def _homogeneous_values(p: WaveProblem) -> np.ndarray:
    """Homogeneous solution on the grid, from the symbol pair of one set of
    snapshots per nonzero initial datum."""
    t = p.grid.nodes()
    vals = np.zeros((t.size, p.model.dimension), dtype=complex)
    if np.any(p.w0 != 0):
        e1 = propagator_snapshots(p.model, p.alpha, 1.0, p.grid)
        vals += _symbol_apply(p.model, *e1, p.w0)
    if np.any(p.w1 != 0):
        e2 = propagator_snapshots(p.model, p.alpha, 2.0, p.grid)
        vals += t[:, None] * _symbol_apply(p.model, *e2, p.w1)
    return vals


def _sample_forcing(
    p: WaveProblem, w_values: np.ndarray | None = None, t: np.ndarray | None = None
) -> np.ndarray:
    """The forcing at the nodes ``t`` (all of the grid's by default), one
    call of ``func`` per node; a semilinear one reads the matching rows of
    ``w_values``."""
    if t is None:
        t = p.grid.nodes()
    d = p.model.dimension
    if p.forcing.kind == "none":
        return np.zeros((t.size, d), dtype=complex)
    if p.forcing.kind == "time":
        rows = [p.forcing.func(ti) for ti in t]
    else:
        rows = [p.forcing.func(ti, wi) for ti, wi in zip(t, w_values)]
    out = np.asarray(rows, dtype=complex)
    if out.ndim == 1:  # scalar-valued forcing broadcast over components
        out = np.repeat(out[:, None], d, axis=1)
    if out.shape != (t.size, d):
        n = p.grid.n_steps + 1  # the shapes of the samples at every node
        raise ValueError(f"forcing samples have shape {(n, *out.shape[1:])}, want {(n, d)}")
    return out


def solve_linear(p: WaveProblem) -> Trajectory:
    """Homogeneous part plus the Duhamel term (g_{alpha-1} * E_alpha * f)(t)."""
    if p.forcing.kind != "time":
        raise ValueError("linear solver requires a time-only forcing")
    vals = _homogeneous_values(p)
    fvals = _sample_forcing(p)
    duh = duhamel_convolve(p.model, p.alpha, Trajectory(p.grid, fvals))
    return Trajectory(p.grid, vals + duh.values)


class PicardError(RuntimeError):
    """Fixed-point iteration failed to reach the tolerance; carries the
    increment history for diagnostics."""

    def __init__(self, message: str, history: list):
        super().__init__(message)
        self.history = list(history)


def _graph_sup_norm(m: AlmostSectorialModel, values: np.ndarray) -> float:
    # sup over nodes of the D(A) (graph) norm ||v|| + ||A v||
    av = op_apply(m, values)
    return float(
        np.max(np.linalg.norm(values, axis=1) + np.linalg.norm(av, axis=1))
    )


# Picard sweeps run in passes of "levels" over the grid: the first pass runs
# _FIRST_LEVELS of them, each later one as many as the last two increments
# predict, geometrically, to reach the tolerance, at most _MAX_LEVELS (a
# level holds an (n + 1, d) array)
_FIRST_LEVELS = 3
_MAX_LEVELS = 6


def _pass_levels(history: list, tol: float, left: int) -> int:
    if len(history) < 2 or not 0.0 < history[-1] / history[-2] < 1.0:
        return min(_FIRST_LEVELS, left)
    need = math.ceil(math.log(tol / history[-1]) / math.log(history[-1] / history[-2]))
    return max(1, min(need, _MAX_LEVELS, left))


def _picard_pass(p: WaveProblem, steps: _DuhamelSteps, t, homog, w, levels: int):
    """The next ``levels`` Picard sweeps from ``w``, advanced together tile
    by tile: level k's forcing on a tile reads level k - 1's values there,
    which it has just written, and every level steps with the tile's
    coefficients, computed once.  Returns the values of the levels that
    finished the grid and the exception that stopped the next one, if any;
    the levels before it go on, since one of them may converge."""
    ws = [np.empty_like(homog) for _ in range(levels)]
    states = [steps.start() for _ in range(levels)]
    error = None
    for i0, c in steps.tiles():
        rows = slice(i0, i0 + c)
        coefs = steps.coefficients(i0, c)
        src = w
        for k, (level, w_next) in enumerate(zip(states, ws)):
            try:
                f = _sample_forcing(p, src[rows], t[rows])
                w_next[rows] = homog[rows] + steps.step(level, coefs, f)
            except Exception as e:  # raised by the forcing, or a warning made an error
                # one sweep at a time stops at an earlier level that
                # converges and never sees this one, so those go on
                del states[k:], ws[k:]
                if not ws:
                    raise
                error = e
                break
            src = w_next
    return ws, error


def solve_semilinear(
    p: WaveProblem,
    tol: float = 1e-10,
    max_iter: int = 60,
    initial: str = "w0",
):
    """Picard iteration w_{k+1} = homogeneous + Duhamel(f(., w_k)).

    Returns (Trajectory, iterations, contraction_history); the history is
    the sup-node graph-norm increment per sweep and should become geometric
    once the horizon T keeps the one-step contraction factor below one.  The
    exponential sums of the Duhamel term are built once, for all sweeps.

    The sweeps run in passes over the grid, several "levels" per pass
    (``_picard_pass``): ``_FIRST_LEVELS`` in the first, then as many as the
    ratio of the last two increments predicts to reach ``tol``, at most
    ``_MAX_LEVELS``, and never past ``max_iter``.  The tiles' coefficients
    are computed once per pass instead of once per sweep.  Each level does
    a sweep's arithmetic, bit for bit, and the increments are taken in
    order after the pass, so the result, the sweep count and the history
    are those of one sweep at a time; levels past the converged one are
    wasted work, never a change.
    """
    if p.forcing.kind != "semilinear":
        raise ValueError("semilinear solver requires a semilinear forcing")
    try:
        max_iter = operator.index(max_iter)
    except TypeError:
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}") from None
    if not tol > 0 or max_iter < 1:  # a NaN tol fails too
        raise ValueError("need tol > 0 and max_iter >= 1")
    homog = _homogeneous_values(p)
    if initial == "w0":
        w = np.repeat(p.w0[None, :], p.grid.n_steps + 1, axis=0)
    elif initial == "zero":
        w = np.zeros_like(homog)
    else:
        raise ValueError(f"unknown initialization {initial!r}")
    history: list[float] = []
    steps = _DuhamelSteps(p.model, p.alpha, p.grid)
    t = p.grid.nodes()
    while len(history) < max_iter:
        levels = _pass_levels(history, tol, max_iter - len(history))
        ws, error = _picard_pass(p, steps, t, homog, w, levels)
        for w_next in ws:
            inc = _graph_sup_norm(p.model, w_next - w)
            history.append(inc)
            w = w_next
            if inc <= tol:
                return Trajectory(p.grid, w), len(history), history
        del ws  # before the next pass allocates its levels
        if error is not None:
            raise error
    raise PicardError(
        f"no contraction below tol={tol} within {max_iter} sweeps "
        f"(last increment {history[-1]:.3e})",
        history,
    )


@dataclass(frozen=True)
class ResidualReport:
    """Interior-node residuals of the classical-solution equation."""

    t_values: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    max_residual: float
    initial_value_error: float
    initial_slope_error: float


def verify_classical(p: WaveProblem, w: Trajectory, window: float = 0.02) -> ResidualReport:
    """Normalized residual || d^alpha_t w + A w - f || at interior nodes.

    Nodes with t < window * T are excluded from the maximum: the second
    differences feeding the Caputo derivative carry an O(1) relative error
    in a fixed number of leading nodes on any graded grid, so the early
    window shrinks in t (not in node count) under refinement.
    """
    if w.grid != p.grid:
        raise ValueError("trajectory grid differs from the problem grid")
    t = p.grid.nodes()
    cap = caputo_derivative(p.alpha, w, p.w1).values
    aw = op_apply(p.model, w.values)
    fvals = _sample_forcing(p, w.values)
    resid_vec = cap + aw - fvals
    scale = np.linalg.norm(aw, axis=1) + np.linalg.norm(fvals, axis=1) + 1e-300
    residuals = np.linalg.norm(resid_vec, axis=1) / scale
    lo = int(np.searchsorted(t, window * p.grid.T))
    interior = residuals[max(lo, 1) : -1]
    max_resid = float(np.max(interior)) if interior.size else math.nan
    iv_err = float(np.linalg.norm(w.values[0] - p.w0))
    # one-sided second-order derivative at 0 on the nonuniform grid
    t1, t2 = t[1], t[2]
    fd = (
        t2**2 * (w.values[1] - w.values[0]) - t1**2 * (w.values[2] - w.values[0])
    ) / (t1 * t2 * (t2 - t1))
    slope_err = float(np.linalg.norm(fd - p.w1))
    return ResidualReport(
        t_values=t,
        residuals=residuals,
        max_residual=max_resid,
        initial_value_error=iv_err,
        initial_slope_error=slope_err,
    )


@dataclass(frozen=True)
class HoelderEstimate:
    nu: float
    degenerate: bool


#: values of f per block of node pairs in ``hoelder_modulus``
_PAIR_BLOCK = 1 << 16


def _node_pairs(f: Trajectory, floor: float):
    """The gaps t_j - t_i > 0 and distances ||f(t_j) - f(t_i)|| > floor of the
    node pairs i < j, by lag offset j - i, in blocks of at most
    ``_PAIR_BLOCK`` values."""
    t, vals = f.grid.nodes(), f.values
    # offset k = j - i holds the pairs starts[k - 1] <= p < starts[k]
    starts = np.concatenate([[0], np.cumsum(np.arange(t.size - 1, 0, -1))])
    rows = max(1, _PAIR_BLOCK // vals.shape[1])
    for lo in range(0, starts[-1], rows):
        p = np.arange(lo, min(lo + rows, starts[-1]))
        k = np.searchsorted(starts, p, side="right")
        i = p - starts[k - 1]
        gaps, diffs = t[i + k] - t[i], np.linalg.norm(vals[i + k] - vals[i], axis=1)
        good = (diffs > floor) & (gaps > 0)
        yield gaps[good], diffs[good]


def hoelder_modulus(f: Trajectory, n_bins: int = 24) -> HoelderEstimate:
    """Empirical Hoelder exponent from the worst-case modulus of continuity.

    Node pairs are binned by log gap; the fit runs on the per-bin maximum
    of ||f(t) - f(s)|| (the modulus is a sup, so an all-pairs fit would be
    biased toward the smooth-interior slope 1).  The pairs are streamed
    twice, for the bin edges and then for the maxima, so memory does not
    grow with their number.
    """
    n = f.grid.n_steps + 1
    if n < 8:
        raise ValueError("need at least 8 samples")
    floor = 1e-13 * (float(np.max(np.abs(f.values))) + 1e-300)
    n_good, lo, hi = 0, math.inf, -math.inf
    for gaps, _ in _node_pairs(f, floor):
        n_good += gaps.size
        lo, hi = min(lo, gaps.min(initial=math.inf)), max(hi, gaps.max(initial=-math.inf))
    if n_good < n * (n - 1) // 4:
        return HoelderEstimate(nu=1.0, degenerate=True)
    edges = np.geomspace(lo, hi * (1 + 1e-12), n_bins + 1)
    peak = np.zeros(n_bins)  # every distance kept exceeds floor > 0
    for gaps, diffs in _node_pairs(f, floor):
        which = np.clip(np.searchsorted(edges, gaps, side="right") - 1, 0, n_bins - 1)
        np.maximum.at(peak, which, diffs)
    filled = np.flatnonzero(peak)
    if filled.size < 4:
        return HoelderEstimate(nu=1.0, degenerate=True)
    xs = [math.log(math.sqrt(edges[b] * edges[b + 1])) for b in filled]
    ys = [math.log(float(peak[b])) for b in filled]
    slope = float(np.polyfit(xs, ys, 1)[0])
    return HoelderEstimate(nu=slope, degenerate=False)


def residual_report_to_csv(rep: ResidualReport, header_lines=()) -> str:
    return _csv(header_lines, ["t", "residual"], zip(rep.t_values, rep.residuals))

"""Discrete fractional calculus on graded time grids.

Kernels g_beta(t) = t^(beta-1)/Gamma(beta), Riemann-Liouville integrals by
product integration exact on piecewise-linear data, regularized Caputo
derivatives (1 < alpha < 2), and the Duhamel term of the forced problem.

Both convolutions with a long memory run through one exponential-mode
engine: a kernel written as a sum of terms w tau^m e^{z tau}, m = 0 or 1,
is convolved with piecewise-linear data by a recurrence that is exact on
every panel of the grid, in O(n K) work for K modes (Lubich and Schaedle,
SIAM J. Sci. Comput. 24 (2002)).  The engine (``_Modes``) is resumable:
it steps one tile of nodes at a time, all of a set's modes in one block on
the contiguous axis and at most max(``_CHUNK_BYTES``, half the data) of
history, or one node, per tile, and contracts the histories with the
weights itself, in real arithmetic for real modes.  A tile's data terms,
the panel weights times [u_{i-1}, u_i] for every node, column and mode,
are one batched matrix product.  A tile's coefficients, e^{zh} and the
phi functions, depend on the grid and the modes only and are computed
apart from the histories, which each data stream carries from tile to
tile; so the sweeps of a Picard iteration
(``solvers.solve_semilinear``) advance together over a pass of the grid,
and ``_DuhamelSteps.tiles`` hands each tile's coefficients to all of them.
``_mode_sums`` is the whole-grid loop over one stream.  ``rl_integral``
asks for the lagged sum, the histories carried across the last panel
without its data, of g_beta, or of tau g_{beta-1}(tau)/(beta - 1) for
1 < beta < 2, and adds that panel, integrated exactly against g_beta;
the Duhamel term's second stage does the same per tile.  Both sums are
trapezoid rules in log r, each on its own lattice: a step from its
integrand's analyticity strip and a target a decade or more under
``_SUM_TOL`` (``mittag_leffler._log_lattice_step``), and ends at stated
targets.  g_beta, 0 < beta < 1, is one on [min h, T] (Jiang, Zhang,
Zhang and Zhang, Commun. Comput. Phys. 21 (2017)), its small-rate end
closed by one exact tail mode; E_alpha(-tau^alpha A) is one on [0, T]
through its residues and its real-axis integral, whose quadrature error
from the roots near the branch cut is added back exactly as modes of
their own (``mittag_leffler._Cut``, also the third of ``ml_eval``'s four
regimes, at tau = 1), its small-rate end closed by one tail mode per
block that matches the moments of the nodes it replaces.  Each sum is
built to a fixed accuracy and checked against the exact kernel at log-spaced lags; a
sum that misses ``_SUM_TOL`` raises ``ValueError`` instead of returning
degraded numbers.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .mittag_leffler import (
    _CUT_FACTOR,
    _CUT_STRIP,
    MLParams,
    _Cut,
    _log_lattice_step,
    ml_eval,
    reciprocal_gamma,
)
from .operator_model import AlmostSectorialModel

__all__ = [
    "TimeGrid",
    "Kernel",
    "Trajectory",
    "rl_integral",
    "caputo_derivative",
    "duhamel_convolve",
    "trajectory_to_csv",
    "trajectory_from_csv",
]


@dataclass(frozen=True)
class TimeGrid:
    """Graded grid t_i = T * (i/n)**grading on [0, T]."""

    T: float
    n_steps: int
    grading: float = 2.0

    def __post_init__(self) -> None:
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError(f"horizon T must be positive, got {self.T}")
        try:
            object.__setattr__(self, "n_steps", operator.index(self.n_steps))
        except TypeError:
            raise ValueError(f"n_steps must be an integer, got {self.n_steps!r}") from None
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not (1.0 <= self.grading < math.inf):
            raise ValueError(f"grading must be finite and >= 1, got {self.grading}")
        if not self.nodes()[1] > 0.0:
            raise ValueError(
                f"grading {self.grading} puts the first node t_1 at 0 "
                f"(T = {self.T}, n_steps = {self.n_steps})"
            )

    def nodes(self) -> np.ndarray:
        i = np.arange(self.n_steps + 1, dtype=float)
        return self.T * (i / self.n_steps) ** self.grading


@dataclass(frozen=True)
class Kernel:
    """Riemann-Liouville kernel g_beta(t) = t^(beta-1)/Gamma(beta)."""

    beta: float

    def __post_init__(self) -> None:
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"kernel order beta must be positive, got {self.beta}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(t > 0, t ** (self.beta - 1.0), 0.0) * reciprocal_gamma(self.beta)


@dataclass(frozen=True)
class Trajectory:
    """Node samples of a vector-valued function of time."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.n_steps + 1 or v.shape[1] == 0:
            raise ValueError(
                f"values must have one row per node "
                f"({self.grid.n_steps + 1}) and at least one column, got shape {v.shape}"
            )
        object.__setattr__(self, "values", v)

    @property
    def dimension(self) -> int:
        return self.values.shape[1]


# an exponential sum is built for relative errors under _SUM_TOL (each sum
# states its own targets) and must pass _SUM_TOL at _SUM_CHECK_LAGS
# log-spaced lags; it may hold _SUM_MAX_MODES modes.  The check allows for
# its oracle, ml_eval, seen 1.9e-13 off (E_{1.97} at z = -3e4 2.63^1.97).  In
# the mid-band it compares two quadratures of one cut representation; the
# dense-reference tests in tests/test_fractional.py are its independent guard
_SUM_TOL = 1e-12
_SUM_CHECK_LAGS = 32
_SUM_MAX_MODES = 1 << 14

# the E_alpha sum: its step on the cut's strip at _E_STEP_EPS, its large-r
# end at _E_STEP_EPS, its coupling floor, small-r end and tail cut at _E_EPS
_E_STEP_EPS, _E_EPS = 1e-13, 1e-15
# the g_beta sum: its strip half-width, its step at _G_STEP_EPS on that
# strip and its two ends at _G_END_EPS
_G_STRIP, _G_STEP_EPS, _G_END_EPS = 1.55, 1e-15, 1e-14

# the log of the largest float: a sum's lattice forms no larger power
_LOG_TOP = math.log(np.finfo(float).max)

# a tile of the mode engine, some nodes times all the modes of a set, holds
# at most this many bytes of history, or half the size of its data when that
# is more (its temporaries are a few times that), or one node when that needs
# more
_CHUNK_BYTES = 1 << 16

# phi_k(x) is summed as a series of this degree below |x| = _PHI_RADIUS
_PHI_RADIUS = 0.25
_PHI_DEGREE = 13
# 1/m! for that series and the phi recurrences, up to phi_3
_RECIP_FACTORIAL = tuple(1.0 / math.factorial(m) for m in range(_PHI_DEGREE + 4))


def _phi(x: np.ndarray, k_max: int):
    """e^x and phi_1(x), ..., phi_{k_max}(x), phi_k(x) = sum_m x^m / (m + k)!.

    For |x| < _PHI_RADIUS, where the closed forms cancel, phi_{k_max} is a
    series and the others follow from phi_{k-1} = 1/(k-1)! + x phi_k;
    elsewhere phi_1 = expm1(x)/x and phi_{k+1} = (phi_k - 1/k!)/x.
    """
    rf = _RECIP_FACTORIAL
    small = np.abs(x) < _PHI_RADIUS
    xs = np.where(small, x, 0.0)
    xl = np.where(small, 1.0, x)
    top = xs * rf[_PHI_DEGREE + k_max]
    top += rf[_PHI_DEGREE - 1 + k_max]
    for m in range(_PHI_DEGREE - 2, -1, -1):
        top *= xs
        top += rf[m + k_max]
    series = [top]
    for k in range(k_max - 1, 0, -1):
        series.insert(0, rf[k] + xs * series[0])
    closed = [np.expm1(xl) / xl]
    for k in range(1, k_max):
        closed.append((closed[-1] - rf[k]) / xl)
    return np.exp(x), [np.where(small, s, c) for s, c in zip(series, closed)]


def _real_blocks(w: np.ndarray, real: bool) -> np.ndarray:
    """Weights (k, g) as (g, 2, 2k) reals whose two rows, dotted with a row
    of real sums in ``_Modes.step``, give Re and Im of sum_k w_k y_k: the
    blocks [[Re w, -Im w], [Im w, Re w]].  One dot product per sum keeps its
    bits independent of the tile size."""
    wr, wi = w.real.T, w.imag.T
    b = np.stack([np.stack([wr, -wi], axis=1), np.stack([wi, wr], axis=1)], axis=1)
    return (b if real else b.swapaxes(2, 3)).reshape(b.shape[0], 2, -1)


class _Modes:
    """One set of modes of the engine, the kernel sum_k w_k tau^m e^{z_k tau},
    laid out for complex (n + 1, d) data on the nodes ``t`` and advanced one
    tile of at most ``size`` nodes by all the modes at a time (see
    ``_mode_sums``): max(``_CHUNK_BYTES``, half the data) of history, or one
    node when that is more.

    ``coefficients`` computes what a tile needs of the grid and the modes
    alone; ``step`` advances one set of histories (``start``) over a tile of
    data with them, so several data streams on one grid share that work.
    The histories between tiles are each state's own; the tile arrays they
    are stepped in are shared by every state.

    The data terms of a tile are one ``np.matmul``: the pairs [u_{i-1},
    u_i], (c, g, columns/g, 2) for the g rows of ``zt`` (1 when the modes
    are shared by the columns, one per column otherwise), times the panel
    weights, (c, g, 2, modes), into the histories' rows.  Each node's
    product has the same shape whatever the tile size, and every operand is
    C-contiguous, a slice along the node axis of a C-contiguous array, so
    each takes the same BLAS path and no bit depends on the tile.
    """

    def __init__(self, z, w, t, shape, lagged: bool = False, derivative: bool = False):
        self.real = real = np.isrealobj(z)
        self.zt = np.repeat(z.T, 2, axis=0) if real and z.shape[1] > 1 else z.T
        self.h = np.diff(t)
        self.lagged, self.derivative = lagged, derivative
        self.cols = cols = shape[1] * 2 if real else shape[1]
        itemsize = 8 if real else 16
        per_node = cols * z.shape[0] * itemsize * (2 if derivative else 1)
        budget = max(_CHUNK_BYTES, shape[0] * cols * itemsize // 2)
        self.size = max(1, budget // per_node)  # nodes per tile at most
        self.block = _real_blocks(w, real)

    def start(self) -> np.ndarray:
        """Histories 0 at t_0: the history (and its z-derivative) at the last
        node stepped, (1 or 2, columns, modes)."""
        n = 2 if self.derivative else 1
        return np.zeros((n, self.cols, self.zt.shape[1]), float if self.real else complex)

    def coefficients(self, i0: int, c: int) -> list:
        """e^{zh} (a list of rows) and the panel weights of the data,
        h (phi_1 - phi_2)(zh) and h phi_2(zh) stacked as (c, g, 2, modes),
        for the nodes i0 <= i < i0 + c; with ``derivative`` also those of the
        z-derivatives, stacked alike, and h."""
        hc = self.h[i0 - 1 : i0 - 1 + c, None, None]
        a, (p1, p2, *p3) = _phi(hc * self.zt, 3 if self.derivative else 2)
        # e^{zh} per node, one (columns, modes) row each: the step's per-node
        # products then broadcast nothing
        a = list(np.broadcast_to(a, (c, self.cols, a.shape[2])).copy())
        # the weights of u_{i-1} and u_i stacked per node, (c, g, 2, modes)
        # for the g rows of zt: the right operand of the step's matmul
        c01 = np.stack((p1 - p2, p2), axis=2)
        c01 *= hc[..., None]
        co = [a, c01]
        if self.derivative:
            (p3,) = p3
            d01 = np.stack((p1 - 2.0 * p2 + 2.0 * p3, p2 - 2.0 * p3), axis=2)
            d01 *= (hc * hc)[..., None]
            co += [d01, hc]
        return co

    @functools.cached_property
    def _tile(self):
        # histories, their products with e^{zh}, with ``derivative`` the
        # z-derivatives and e^{zh} (dy + h y) (tile nodes, columns, modes);
        # their rows, and the data pairs [u_{i-1}, u_i] (tile nodes, columns, 2)
        dtype = float if self.real else complex
        shape = (4 if self.derivative else 2, self.size + 1, self.cols, self.zt.shape[1])
        y, ay, *d = np.empty(shape, dtype)
        pairs = np.empty((self.size, self.cols, 2), dtype)
        return y, ay, d, list(y), list(ay), pairs

    def step(self, state: np.ndarray, coefs: list, u: np.ndarray, out: np.ndarray) -> None:
        """Advance ``state`` over the c nodes of a tile with their
        ``coefficients`` and add the tile's sums into ``out``, complex (c, d)
        and C-ordered.  ``u`` is the complex data, (c + 1, d), the node
        before the tile first.  Real modes step its real and imaginary parts
        as separate real columns.  The data terms are one matrix product per
        tile, the recurrence one node at a time.  The sums are those of
        ``_mode_sums``, of either kernel, current or ``lagged``."""
        c = out.shape[0]
        v = np.ascontiguousarray(u).view(float) if self.real else u
        reim = out.view(float).reshape(c, -1, 2)
        g, k = self.zt.shape
        y, ay, d, rows_y, rows_ay, pairs = self._tile
        pairs = pairs[:c]
        pairs[:, :, 0], pairs[:, :, 1] = v[:c], v[1 : c + 1]
        data = pairs.reshape(c, g, -1, 2)  # the columns by the rows of zt
        a, c01, *dc = coefs
        y[0] = state[0]
        np.matmul(data, c01, out=y[1 : c + 1].reshape(c, g, -1, k))
        for aj, yj, ayj, yn in zip(a, rows_y, rows_ay, rows_y[1:]):
            np.multiply(aj, yj, out=ayj)
            yn += ayj
        state[0] = y[c]
        if self.derivative:
            (d01, hc), (dy, ady) = dc, d
            dy[0] = state[1]
            np.matmul(data, d01, out=dy[1 : c + 1].reshape(c, g, -1, k))
            for j in range(c):
                np.multiply(a[j], dy[j] + hc[j] * y[j], out=ady[j])
                dy[j + 1] += ady[j]
            state[1] = dy[c]
            y, ay = dy, ady  # the m = 1 kernel's
        sums = ay[:c] if self.lagged else y[1 : c + 1]
        # as (c, d, 2k) reals, one row per column of u: [Re y, Im y] for
        # real modes, (re, im) per mode for complex ones
        sums = sums.reshape(c, -1, 2 * sums.shape[2]) if self.real else sums.view(float)
        reim += np.vecdot(sums[:, :, None], self.block)


def _mode_sums(z, w, t, u, lagged: bool = False, derivative: bool = False) -> np.ndarray:
    """The convolution of the node data ``u`` (n + 1, d), linear between
    nodes, with the kernel sum_k w_k tau^m e^{z_k tau}, m = 1 with
    ``derivative`` and 0 without: a complex (n + 1, d) array, 0 at t_0.

    ``z`` and ``w`` are (K, 1), shared by the columns of u, or (K, d), one
    per column.  The history of mode k,

        y_k(t_i) = int_0^{t_i} e^{z_k (t_i - s)} u(s) ds,

    is advanced exactly panel by panel,

        y_i = e^{z h} y_{i-1} + h [(phi_1 - phi_2)(z h) u_{i-1} + phi_2(z h) u_i],

    and row i is sum_k w_k y_k(t_i).  With ``derivative`` the z-derivatives
    dy_k(t_i) = int_0^{t_i} (t_i - s) e^{z_k (t_i - s)} u(s) ds advance
    too, by the next phi-function, and row i is sum_k w_k dy_k(t_i).
    ``lagged`` (both kernels) carries the histories across the last panel
    without its data, which the caller integrates exactly: row i is sum_k
    w_k e^{z_k h_i} y_k(t_{i-1}), or e^{z_k h_i} (dy_k + h_i y_k)(t_{i-1}).

    This is the whole-grid loop of ``_Modes.step``: tiles of consecutive
    nodes i0 <= i < i0 + c by all the modes are stepped one node at a time,
    after the data terms h[...] of the whole tile, one batched matrix
    product; every tile array is (nodes, columns, modes), the modes on the
    contiguous axis.  Real exponents act on the real and imaginary parts of
    u as separate real columns, weighed in real arithmetic
    (``_real_blocks``).  A tile holds at most max(``_CHUNK_BYTES``, half
    the size of u) of history, or one node of all the modes when that is
    more.  Each node's data terms are one matrix product of a fixed shape
    and each row is one dot product over the modes, so no bit depends on
    the tile.
    """
    modes = _Modes(z, w, t, u.shape, lagged, derivative)
    out = np.zeros(u.shape, dtype=complex)
    state = modes.start()
    for i0 in range(1, t.size, modes.size):
        c = min(modes.size, t.size - i0)
        modes.step(state, modes.coefficients(i0, c), u[i0 - 1 : i0 + c], out[i0 : i0 + c])
    return out


def _mode_count(
    x_lo: float, x_hi: float, step: float, what: str, top: float, tau_min: float, T: float
) -> int:
    """The nodes x_lo + j step, j < K, that reach x_hi: K.  ``top`` is the
    log of the largest power of a rate the sum of ``what`` on [tau_min, T]
    forms; a lattice that leaves the floats is refused before it is built."""
    if not top < _LOG_TOP:
        raise ValueError(
            f"the exponential sum for {what} on [tau_min, T] = [{tau_min:.3g}, {T:.3g}] "
            f"would form e^{top:.4g}, beyond the float range"
        )
    k = int(math.ceil((x_hi - x_lo) / step)) + 1
    if k > _SUM_MAX_MODES:
        raise ValueError(
            f"the exponential sum for {what} would need {k} modes, "
            f"more than {_SUM_MAX_MODES}"
        )
    return k


@functools.lru_cache(maxsize=16)
def _power_sum(beta: float, tau_min: float, T: float):
    """Rates r_k and weights c_k with g_beta(tau) = sum_k c_k e^{-r_k tau} to
    ``_SUM_TOL`` relative on [tau_min, T], for 0 < beta < 1.

    g_beta(tau) = (sin(pi beta)/pi) int e^{-e^x tau} e^{(1-beta) x} dx by the
    trapezoid rule on x_lo + j h, weights h r_j^(1-beta).  The integrand has
    no poles: on |Im x| = d its L1 norm is cos(d)^(beta-1) of the value, so
    the strip is d = ``_G_STRIP`` with C = 2 cos(d)^(beta-1), and h is its
    step at ``_G_STEP_EPS`` (0.262 at beta = 1/2).  The top node is e^{-r
    tau_min} = ``_G_END_EPS``; one mode A_0 e^{-rho tau}, rho = A_1/A_0,
    matches the moments A_k = h r_lo^(k+1-beta) / expm1((k+1-beta) h) of the
    nodes below x_lo in tau^0 and tau^1 and is O((r_lo T)^(3-beta)) off
    them relative, which sets x_lo at ``_G_END_EPS``: it closes the
    trapezoid sum, not the integral, so the rule converges geometrically.
    A horizon whose lattice leaves the floats raises ``ValueError``.
    """
    h = _log_lattice_step(_G_STRIP, 2.0 * math.cos(_G_STRIP) ** (beta - 1.0), _G_STEP_EPS)
    log_eps = math.log(_G_END_EPS)
    x_lo = log_eps / (3.0 - beta) - math.log(T)
    x_hi = math.log(-log_eps) - math.log(tau_min)
    top = max(x_hi + h, (2.0 - beta) * x_lo)  # the top rate, the tail moment
    r = np.exp(x_lo + h * np.arange(_mode_count(x_lo, x_hi, h, f"g_{beta}", top, tau_min, T)))
    a0, a1 = (h * r[0] ** (k + 1.0 - beta) / math.expm1((k + 1.0 - beta) * h) for k in (0, 1))
    rates = np.append(a1 / a0, r)
    weights = np.append(a0, h * r ** (1.0 - beta))
    weights *= math.sin(math.pi * min(beta, 1.0 - beta)) / math.pi
    _check_power_sum(beta, rates, weights, np.geomspace(tau_min, T, _SUM_CHECK_LAGS))
    rates.flags.writeable = weights.flags.writeable = False  # every caller shares them
    return rates, weights


def _check_power_sum(beta, rates, weights, lags) -> None:
    exact = Kernel(beta)(lags)
    err = float(np.max(np.abs(np.exp(-np.outer(lags, rates)) @ weights / exact - 1.0)))
    if not err <= _SUM_TOL:
        raise ValueError(
            f"the exponential sum for g_{beta} misses {_SUM_TOL:.0e} on "
            f"[{lags[0]:.3g}, {lags[-1]:.3g}] (relative error {err:.2e})"
        )


def _last_panel(beta: float, h: np.ndarray):
    """Columns of the weights M0 - M1/h of u_{i-1} and M1/h of u_i in the
    integral of g_beta against the panel [t_{i-1}, t_i] that ends at t_i,
    M0 = int_0^h g_beta and M1 = int_0^h (h - tau) g_beta(tau) dtau."""
    rg = reciprocal_gamma(beta)
    pb = h**beta
    m0 = pb / beta * rg
    m1 = (h * pb / beta - h * pb / (beta + 1.0)) * rg
    return (m0 - m1 / h)[:, None], (m1 / h)[:, None]


def rl_integral(k: Kernel, u: Trajectory) -> Trajectory:
    """(g_beta * u)(t_i) at every node for 0 < beta < 2 (``ValueError``
    from 2), u linear between nodes: beta = 1 is the cumulative trapezoid,
    exact; otherwise the last panel is integrated exactly and the earlier
    ones, in O(n K) work and to ``_SUM_TOL``, through the exponential sum
    of g_beta on [min h, T], for 1 < beta < 2 the m = 1 kernel
    g_beta(tau) = tau g_{beta-1}(tau) / (beta - 1) on g_{beta-1}'s modes.
    """
    beta = k.beta
    if not beta < 2.0:
        raise ValueError(f"Riemann-Liouville order beta must lie in (0, 2), got {beta}")
    t = u.grid.nodes()
    vals = u.values
    h = np.diff(t)
    left, right = _last_panel(beta, h)
    panels = left * vals[:-1] + right * vals[1:]
    if beta == 1.0:
        out = np.zeros_like(vals)
        out[1:] = np.cumsum(panels, axis=0)
        return Trajectory(u.grid, out)
    m = beta > 1.0
    rates, weights = _power_sum(beta - 1.0 if m else beta, float(h.min()), float(t[-1]))
    w = weights[:, None] / (beta - 1.0) if m else weights[:, None]
    out = _mode_sums(-rates[:, None], w, t, vals, lagged=True, derivative=m)
    out[1:] += panels
    return Trajectory(u.grid, out)


def _second_derivative(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Second derivative of node data on a nonuniform grid.

    Central three-point formula at interior nodes, copied inward values at
    the two boundary nodes (the weakly singular kernel weights them little,
    and residual checks exclude the endpoints anyway).
    """
    n = len(t) - 1
    d2 = np.zeros_like(v)
    h1 = (t[1:-1] - t[:-2])[:, None]
    h2 = (t[2:] - t[1:-1])[:, None]
    d2[1:-1] = 2.0 * (h2 * v[:-2] - (h1 + h2) * v[1:-1] + h1 * v[2:]) / (
        h1 * h2 * (h1 + h2)
    )
    d2[0] = d2[1]
    d2[n] = d2[n - 1]
    return d2


def caputo_derivative(alpha: float, w: Trajectory, w1: np.ndarray) -> Trajectory:
    """Regularized Caputo derivative g_{2-alpha} * w'' for 1 < alpha < 2.

    ``w1`` is the initial velocity; the affine part w(0) + t*w1 is removed
    before differencing to limit cancellation (it is annihilated
    analytically in any case).  The leading t^alpha behaviour typical of
    this solution class makes w'' blow up like t^(alpha-2); the coefficient
    is estimated from the first node and its exact Caputo derivative
    c*Gamma(alpha+1) added back analytically, so only the tamer remainder
    is differenced.  Intended for residual verification at interior nodes;
    the endpoint values are extrapolated, not trusted.
    """
    if not (1.0 < alpha < 2.0):
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    if w.grid.n_steps + 1 < 4:
        raise ValueError("need at least 4 nodes for second differences")
    t = w.grid.nodes()
    w1 = np.atleast_1d(np.asarray(w1, dtype=complex))
    v = w.values - w.values[0] - t[:, None] * w1[None, :]
    c = v[1] / t[1] ** alpha
    v = v - (t**alpha)[:, None] * c[None, :]
    d2 = _second_derivative(t, v)
    out = rl_integral(Kernel(2.0 - alpha), Trajectory(w.grid, d2))
    return Trajectory(w.grid, out.values + math.gamma(alpha + 1.0) * c[None, :])


def _trapezoid_weights(t: np.ndarray) -> np.ndarray:
    w = np.zeros_like(t)
    w[:-1] += 0.5 * np.diff(t)
    w[1:] += 0.5 * np.diff(t)
    return w


def _propagator_sum(m: AlmostSectorialModel, alpha: float, tau_min: float, T: float):
    """E_alpha(-tau^alpha A) as blockwise exponential sums in tau >= 0,
    checked on [tau_min, T]: the rate set (-r, w, cw) of the modes
    e^{-r_j tau}, -r (K, 1) shared by the blocks and w, cw (K, nb), and the
    pole set (sigma, W, cW) of the modes e^{sigma tau}, each (P, nb), W 0
    where a root is left out, its last row the tail mode when there is one.

    On a block [[lambda, s], [0, lambda]] the diagonal is the residue and
    cut modes of ``mittag_leffler._Cut`` at delta = 1, on one lattice shared
    by all blocks, its offset chosen to keep every block's poles off the
    nodes.  Its strip is the cut's, |Im log r| < 0.85 pi/2 with the poles
    inside corrected, and its step that strip's at ``_E_STEP_EPS`` (0.2556,
    against ``_CUT_STEP`` = 0.224 at the cut's 1e-15).  The superdiagonal
    is s d/dlambda E = (s tau/(alpha lambda)) d/dtau E, so a mode w e^{z tau}
    adds cw tau e^{z tau} to it, cw = s z w/(alpha lambda); unlike d rho/d
    lambda, whose terms cancel to O(lambda) of their size when |lambda|
    T^alpha << 1, this keeps the coupling's relative accuracy.  The range is
    set by the tails: |lambda| r^-alpha at large r, at ``_E_STEP_EPS``, so
    the diagonal holds down to tau = 0, but the superdiagonal's terms cw tau
    e^{-r tau}, |cw| ~ s h r^(1-alpha), fall with r only through e^{-r tau},
    so a coupled model's lattice also reaches r tau_min = -log eps, eps =
    ``_E_EPS`` here and below; at small r both r^alpha/|lambda| against E(0)
    = 1 and (r T)^alpha/Gamma(alpha + 1) against the algebraic tail |E(T)| ~
    1/(T^alpha |lambda| |Gamma(1 - alpha)|) of a stiff block, whose
    small values the Duhamel integral accumulates over [0, T].

    Below a cut r_c the nodes are one tail mode per block, A_0 e^{-rho tau}
    with rho = A_1/A_0, matching their moments A_k = sum_j w_j r_j^k in
    tau^0 and tau^1, as ``_power_sum`` closes g_beta.  For r^alpha <=
    |lambda|/2 a node's weight is at most 4 h sin(pi (alpha - 1)) r^alpha /
    (pi |lambda|), so the nodes below r_c have sum_j |w_j| r_j^2 <=
    K r_c^(alpha+2)/|lambda|, K = 4 h sin(pi (alpha - 1)) / (pi (1 -
    e^{-(alpha+2) h})).  Their weights share one phase to O(r_c^alpha /
    |lambda|), so the mode is off them by at most tau^2 times that on the
    diagonal and, through cw, by 2 |s|/(alpha |lambda|) times as much on the
    superdiagonal.  Against the block's scale min(1, 1/(|lambda| T^alpha))
    over [0, T], as for the range above, that sets r_c^(alpha+2) =
    eps min(|lambda|, T^-alpha) / (K T^2 (1 + 2 |s|/(alpha |lambda|))), the
    least over the blocks, with r_c^alpha <= min |lambda|/2: the first term
    holds the small |lambda| to E(0) = 1, the second a stiff block over a
    long T to its tail.  A lattice that leaves the floats, as a coupled
    model's on a tiny horizon, raises ``ValueError``.
    """
    if not (1.0 < alpha < 2.0):
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    lam = m.lam
    log_eps = math.log(_E_EPS)
    step = _log_lattice_step(_CUT_STRIP, _CUT_FACTOR, _E_STEP_EPS)
    log_lam = np.log(np.abs(lam))
    min_log_lam = float(np.min(log_lam))
    spread = math.log(math.pi * alpha / math.sin(math.pi * min(alpha - 1.0, 2.0 - alpha)))
    x_lo = min(min_log_lam + spread, math.lgamma(alpha + 1.0) - alpha * math.log(T))
    x_lo = (x_lo + log_eps) / alpha
    x_hi = float(np.max(log_lam - spread - math.log(_E_STEP_EPS))) / alpha
    if np.any(m.coupling):
        x_hi = max(x_hi, math.log(-log_eps) - math.log(tau_min))
    cut = _Cut(alpha, np.angle(lam), log_lam, step)
    shifts, gaps = cut.gaps(x_lo)
    x0 = float(shifts[int(np.argmax(np.min(gaps, axis=1)))])
    # the top rate, and (r^alpha/lambda)^2, which the weights' denominator forms
    top = max(x_hi + step, 2.0 * (alpha * (x_hi + step) - min_log_lam))
    j = np.arange(_mode_count(x0, x_hi, step, f"E_{alpha}", top, tau_min, T))[:, None]
    r, weights, poles, pole_weights = cut.modes(1.0, x0, j)
    ds = m.coupling / (alpha * lam)
    # the nodes below the cut x_c = log r_c as one tail mode per block
    q = alpha + 2.0
    k = 4.0 * math.sin(math.pi * (alpha - 1.0)) * step
    k /= -math.pi * math.expm1(-q * step)
    scale = np.minimum(log_lam, -alpha * math.log(T)) - np.log1p(2.0 * np.abs(ds))
    x_c = (log_eps - math.log(k) + float(np.min(scale)) - 2.0 * math.log(T)) / q
    x_c = min(x_c, (min_log_lam - math.log(2.0)) / alpha)
    n = int(np.count_nonzero(r[:, 0] < math.exp(x_c)))
    if n:
        a0, a1 = weights[:n].sum(axis=0), (r[:n] * weights[:n]).sum(axis=0)
        poles, pole_weights = np.vstack((poles, -a1 / a0)), np.vstack((pole_weights, a0))
        r, weights = r[n:], weights[n:]
    sets = (-r, weights, -r * weights * ds), (poles, pole_weights, poles * pole_weights * ds)
    _check_propagator_sum(sets, m, alpha, np.geomspace(tau_min, T, _SUM_CHECK_LAGS))
    return sets


def _check_propagator_sum(sets, m: AlmostSectorialModel, alpha: float, lags) -> None:
    """Compare the summed (diagonal, superdiagonal) pairs of the mode
    ``sets`` of ``_propagator_sum`` with the oracle's, entry by entry, at
    increasing ``lags``.  The error of a block at a lag is measured against
    its largest entry at that lag or later: a decaying block must keep its
    relative accuracy in the tail, and the coupling of a block with
    lambda T^alpha << 1, whose sum cancels to far below its scale
    1/|lambda|, is measured against the diagonal.  The lambda-derivative is
    -tau^alpha E_{alpha,alpha}(-tau^alpha lambda)/alpha, through values only:
    ``ml_derivative`` is accepted at a looser tolerance than ``_SUM_TOL``.
    In the mid-band ``ml_eval`` uses the same cut representation, so there
    this compares two quadratures of one representation; its independent
    guard is the dense-reference tests in ``tests/test_fractional.py``."""
    (z, w, cw), (sigma, pw, pcw) = sets
    er = np.exp(np.outer(lags, z))
    ep = np.exp(sigma[None] * lags[:, None, None])
    sums = (er @ w + np.sum(pw * ep, axis=1), lags[:, None] * (er @ cw + np.sum(pcw * ep, axis=1)))
    ta = lags[:, None] ** alpha
    z = -ta * m.lam
    oracle = (
        ml_eval(MLParams(alpha, 1.0), z),
        m.coupling * (-ta / alpha * ml_eval(MLParams(alpha, alpha), z)),
    )
    err = np.maximum(*(np.abs(g - o) for g, o in zip(sums, oracle)))
    scale = np.maximum.accumulate(np.maximum(*map(np.abs, oracle))[::-1])[::-1]
    bad = np.any(~(err <= _SUM_TOL * scale), axis=0)  # a NaN fails too
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"the exponential sum for E_{alpha}(-tau^alpha A) misses {_SUM_TOL:.0e} "
            f"on block {k} (lambda = {complex(m.lam[k]):.6g}) over "
            f"[{lags[0]:.3g}, {lags[-1]:.3g}]"
        )


class _DuhamelSteps:
    """The Duhamel term (g_{alpha-1} * E_alpha(-.^alpha A) * u)(t_i) of m,
    alpha on ``grid``, advanced one tile of nodes at a time for any number
    of forcings u ("levels").

    Stage 1, q = E_alpha(-.^alpha A) * u, runs the rate and pole modes of
    the propagator's sums, built and checked on [min h, T] here, and, for
    coupled blocks, their tau e^{z tau} couplings; stage 2 is
    ``rl_integral`` of q, its lagged g_{alpha-1} sum plus the exact last
    panel.  ``tiles`` yields node 0, where the term is 0 and the data start
    the histories, then runs of at most ``size`` nodes, the smallest tile of
    the sets (``_Modes``), each with its coefficients, which depend on the
    grid and the modes only; every level's ``step`` over that tile uses
    them.  Each level (``start``) holds its histories and the last node's u
    and q.  A level's rows are those of one ``duhamel_convolve`` call, bit
    for bit.
    """

    def __init__(self, m: AlmostSectorialModel, alpha: float, grid: TimeGrid):
        t = grid.nodes()
        h = np.diff(t)
        d = self.dimension = m.dimension
        shape, every = (t.size, d), slice(None)

        def per_column(x):  # one entry per block, for both of its columns
            return x if x.shape[1] == 1 else np.repeat(x, 2, axis=1)

        # (modes, the columns of u they read, the columns of q they add into)
        self.stage1 = []
        for z, w, cw in _propagator_sum(m, alpha, float(h.min()), float(t[-1])):
            self.stage1.append((_Modes(per_column(z), per_column(w), t, shape), every, every))
            if np.any(m.coupling):  # s d/dlambda E of a block's second component, into its first
                coupled = _Modes(z, cw, t, (t.size, d // 2), derivative=True)
                self.stage1.append((coupled, slice(1, None, 2), slice(0, None, 2)))
        beta = alpha - 1.0
        rates, weights = _power_sum(beta, float(h.min()), float(t[-1]))
        self.stage2 = _Modes(-rates[:, None], weights[:, None], t, shape, lagged=True)
        self.panel = _last_panel(beta, h)
        # one tile for all sets, their smallest: no bit depends on it (``_mode_sums``)
        self.modes = [mo for mo, _, _ in self.stage1] + [self.stage2]
        self.size = min(mo.size for mo in self.modes)
        for mo in self.modes:
            mo.size = self.size
        self.n_nodes = t.size

    def tiles(self):
        """(i0, c, coefficients): node 0, whose coefficients are None, then
        the tiles of c nodes from i0 with what every level's step over them
        needs of the grid and the modes."""
        yield 0, 1, None
        n, size = self.n_nodes, self.size
        # a set with fewer modes computes its coefficients for a block of
        # tiles at once, as many as keep its phi arguments no larger than
        # those of the largest set's tile
        per_node = [mo.zt.nbytes for mo in self.modes]
        spans = [max(1, max(per_node) // b) * size for b in per_node]
        current = [None] * len(self.modes)  # the coefficients of each set's current block
        for i0 in range(1, n, size):
            c = min(size, n - i0)
            per_set = []
            for k, (mo, span) in enumerate(zip(self.modes, spans)):
                at = (i0 - 1) % span
                if at == 0:
                    current[k] = mo.coefficients(i0, min(span, n - i0))
                per_set.append(current[k] if span == size else [x[at : at + c] for x in current[k]])
            panel = tuple(x[i0 - 1 : i0 - 1 + c] for x in self.panel)
            yield i0, c, (per_set[:-1], per_set[-1], panel)

    def start(self) -> list:
        """A level at t_0: its stage-1 and stage-2 histories, and buffers of
        a tile's u and q whose row 0 is the node before the tile."""
        rows = (self.size + 1, self.dimension)
        states = [mo.start() for mo, _, _ in self.stage1]
        return [states, self.stage2.start(), np.zeros(rows, complex), np.zeros(rows, complex)]

    def step(self, level: list, coefs, u: np.ndarray) -> np.ndarray:
        """Advance ``level`` over the tile whose forcing rows are ``u`` (c,
        d), with the tile's coefficients from ``tiles``; returns the Duhamel
        term on the tile."""
        states, state2, ub, qb = level
        g = np.zeros(u.shape, complex)
        if coefs is None:
            ub[0] = u[0]
            return g
        coefs1, coefs2, (left, right) = coefs
        c = u.shape[0]
        ub[1 : c + 1] = u
        q = qb[1 : c + 1]
        q[...] = 0.0
        for (mo, src, dst), state, co in zip(self.stage1, states, coefs1):
            data = ub[: c + 1, src]
            o = np.zeros((c, data.shape[1]), complex)
            mo.step(state, co, data, o)
            q[:, dst] += o
        qv = qb[: c + 1]
        self.stage2.step(state2, coefs2, qv, g)
        g += left * qv[:c] + right * qv[1:]
        ub[0], qb[0] = ub[c], qb[c]
        return g


def duhamel_convolve(m: AlmostSectorialModel, alpha: float, f: Trajectory) -> Trajectory:
    """The Duhamel term (g_{alpha-1} * E_alpha(-.^alpha A) * f)(t_i).

    Stage 1 is q = E_alpha(-.^alpha A) * f with f linear between nodes,
    integrated exactly panel by panel through the exponential sums of the
    propagator on f's grid; stage 2 is the ``rl_integral`` of the
    piecewise-linear q.  Both cost O(n K) for K modes, and run tile by tile
    through ``_DuhamelSteps`` with one level, which builds the sums.  The
    value at t = 0 is exactly 0.  Raises ``ValueError`` if f does not have
    the model's dimension or if an exponential sum misses its accuracy
    target.
    """
    d = m.dimension
    if f.dimension != d:
        raise ValueError(f"forcing dimension {f.dimension} != model dimension {d}")
    steps = _DuhamelSteps(m, alpha, f.grid)
    u = f.values
    out = np.empty(u.shape, dtype=complex)
    level = steps.start()
    for i0, c, coefs in steps.tiles():
        out[i0 : i0 + c] = steps.step(level, coefs, u[i0 : i0 + c])
    return Trajectory(f.grid, out)


def _csv(header_lines, columns, rows) -> str:
    """``# `` header lines, the column row, then one line per row: numbers
    as ``.17g``, strings verbatim, each column holding the kind of cell its
    first row holds.  One ``%`` format serves every row; rows of Python
    floats (``ndarray.tolist()``) format fastest."""
    lines = [f"# {line}" for line in header_lines]
    lines.append(",".join(columns))
    fmt = None
    for row in rows:
        if fmt is None:
            fmt = ",".join("%s" if isinstance(v, str) else "%.17g" for v in row)
        lines.append(fmt % tuple(row))
    lines.append("")
    return "\n".join(lines)


def trajectory_to_csv(w: Trajectory, header_lines=()) -> str:
    """Serialize to CSV with header ``t,re_0,im_0,...`` at full precision."""
    cols = ["t"] + [f"{part}_{j}" for j in range(w.dimension) for part in ("re", "im")]
    reim = np.ascontiguousarray(w.values).view(float)  # re_0, im_0, re_1, ...
    return _csv(header_lines, cols, np.column_stack((w.grid.nodes(), reim)).tolist())


def trajectory_from_csv(text: str) -> Trajectory:
    """Inverse of :func:`trajectory_to_csv`.  The grading, which the CSV does
    not store, is recovered from the first interior node (1 when n < 2); the
    node times round-trip only up to rounding, so callers needing exact
    nodes should keep the original grid."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("t,"):
            continue
        rows.append([float(x) for x in line.split(",")])
    if not rows:
        raise ValueError("trajectory CSV has no data rows")
    arr = np.array(rows)
    t = arr[:, 0]
    vals = arr[:, 1::2] + 1j * arr[:, 2::2]
    n = len(t) - 1
    # recover the grading exponent from the first interior node
    grading = 1.0
    if n >= 2 and t[1] > 0:
        grading = max(1.0, math.log(t[1] / t[-1]) / math.log(1.0 / n))
    grid = TimeGrid(T=float(t[-1]), n_steps=n, grading=grading)
    return Trajectory(grid, vals)

"""Discrete fractional calculus on graded time grids.

Kernels g_beta(t) = t^(beta-1)/Gamma(beta), Riemann-Liouville integrals by
product integration exact on piecewise-linear data, regularized Caputo
derivatives (1 < alpha < 2), and the Duhamel term of the forced problem.

Both convolutions with a long memory run through one exponential-mode
engine: a kernel written as a sum of terms w tau^m e^{z tau}, m = 0 or 1,
is convolved with piecewise-linear data by a recurrence that is exact on
every panel of the grid, in O(n K) work for K modes (Lubich and Schaedle,
SIAM J. Sci. Comput. 24 (2002)).  The engine (``_Modes``) is resumable: it
steps one tile of nodes by modes at a time, laid out with the modes on the
contiguous axis, and contracts the histories with the weights itself, in
real arithmetic for real modes.  A tile's coefficients, e^{zh} and the phi
functions, depend on the grid and the modes only and are computed apart
from the histories, which each data stream carries from tile to tile; so
the sweeps of a Picard iteration (``solvers.solve_semilinear``) advance
together over a pass of the grid and compute them once (``_DuhamelSteps``).
``_mode_sums`` is the whole-grid loop over one stream.  ``rl_integral``
asks for the lagged sum, the histories carried across the last panel
without its data, and adds that panel, integrated exactly against g_beta;
the Duhamel term's second stage does the same per tile.  Both sums are
trapezoid rules
in log r on the step ``mittag_leffler._CUT_STEP``.  g_beta, 0 < beta < 1,
is one on [min h, T] (Jiang, Zhang, Zhang and Zhang, Commun. Comput. Phys.
21 (2017)), its small-rate end closed by one exact tail mode;
E_alpha(-tau^alpha A) is one on [0, T] through its residues and its
real-axis integral, whose quadrature error from the roots near the branch
cut is added back exactly as modes of their own (``mittag_leffler._Cut``,
also the third of ``ml_eval``'s four regimes, at tau = 1).  Each sum is
built to a fixed accuracy and checked against the exact kernel at
log-spaced lags; a sum that misses ``_SUM_TOL`` raises ``ValueError``
instead of returning degraded numbers.
"""

from __future__ import annotations

import functools
import io
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .mittag_leffler import _CUT_EPS, _CUT_STEP, MLParams, _Cut, ml_eval, reciprocal_gamma
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
        if v.ndim != 2 or v.shape[0] != self.grid.n_steps + 1:
            raise ValueError(
                f"values must have one row per node "
                f"({self.grid.n_steps + 1}), got shape {v.shape}"
            )
        object.__setattr__(self, "values", v)

    @property
    def dimension(self) -> int:
        return self.values.shape[1]


def _panel_moments(
    beta: float, a: np.ndarray, b: np.ndarray, pa: np.ndarray, pb: np.ndarray
):
    """Exact integrals of g_beta against piecewise-linear hat pieces.

    For a panel [t_j, t_{j+1}] contributing to the value at t_i, with
    a = t_i - t_{j+1}, b = t_i - t_j and their powers pa = a**beta and
    pb = b**beta, returns

        M0 = int_a^b g_beta(tau) dtau
        M1 = int_a^b (b - tau) g_beta(tau) dtau

    so the panel contributes u_j*M0 + (u_{j+1}-u_j)*M1/h.
    """
    rg = reciprocal_gamma(beta)
    m0 = (pb - pa) / beta * rg
    m1 = (b * (pb - pa) / beta - (b * pb - a * pa) / (beta + 1.0)) * rg
    return m0, m1


# an exponential sum is built for the relative error _CUT_EPS and must pass
# _SUM_TOL at _SUM_CHECK_LAGS log-spaced lags; it may hold _SUM_MAX_MODES
# modes.  The check allows for its oracle, ml_eval, seen 1.9e-13 off (E_{1.97}
# at z = -3e4 2.63^1.97).  In the mid-band it compares two quadratures of one
# cut representation; the dense-reference tests in tests/test_fractional.py
# are its independent guard
_SUM_TOL = 1e-12
_SUM_CHECK_LAGS = 32
_SUM_MAX_MODES = 1 << 14

# a tile of the mode engine, some nodes times some modes, holds at most this
# many bytes of history, or half the size of its data when that is more (its
# temporaries are a few times that); the modes are split only when those of
# one node need more
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
    tile of nodes at a time (see ``_mode_sums``).

    ``coefficients`` computes what a tile needs of the grid and the modes
    alone; ``step`` advances one set of histories (``start``) over a tile of
    data with them, so several data streams on one grid share that work.
    The histories between tiles are each state's own; the tile arrays they
    are stepped in are shared by every state.
    """

    def __init__(self, z, w, t, shape, lagged: bool = False, derivative: bool = False):
        self.real = real = np.isrealobj(z)
        self.zt = np.repeat(z.T, 2, axis=0) if real and z.shape[1] > 1 else z.T
        self.h = np.diff(t)
        self.lagged, self.derivative = lagged, derivative
        self.cols = cols = shape[1] * 2 if real else shape[1]
        itemsize = 8 if real else 16
        nk = z.shape[0]
        per_mode = cols * itemsize * (2 if derivative else 1)
        budget = max(_CHUNK_BYTES, shape[0] * cols * itemsize // 2)
        kc = max(1, min(nk, budget // per_mode))
        self.size = max(1, budget // (kc * per_mode))  # nodes per tile at most
        self.slices = [slice(k0, min(k0 + kc, nk)) for k0 in range(0, nk, kc)]
        self.blocks = [_real_blocks(w[ks], real) for ks in self.slices]

    def start(self) -> list:
        """Histories 0 at t_0: per slice of the modes, the history (and its
        z-derivative) at the last node stepped, (1 or 2, columns, modes)."""
        dtype = float if self.real else complex
        n = 2 if self.derivative else 1
        return [np.zeros((n, self.cols, ks.stop - ks.start), dtype) for ks in self.slices]

    def coefficients(self, i0: int, c: int) -> list:
        """Per slice, e^{zh} (a list of rows) and the panel weights of the
        data, h (phi_1 - phi_2)(zh) and h phi_2(zh), for the nodes
        i0 <= i < i0 + c; with ``derivative`` also those of the z-derivatives
        and h."""
        hc = self.h[i0 - 1 : i0 - 1 + c, None, None]
        out = []
        for ks in self.slices:
            a, (p1, p2, *p3) = _phi(hc * self.zt[:, ks], 3 if self.derivative else 2)
            # e^{zh} per node, one (columns, modes) row each: the step's
            # per-node products then broadcast nothing
            a = list(np.broadcast_to(a, (c, self.cols, a.shape[2])).copy())
            co = [a, hc * (p1 - p2), hc * p2]
            if self.derivative:
                (p3,) = p3
                hh = hc * hc
                co += [hh * (p1 - 2.0 * p2 + 2.0 * p3), hh * (p2 - 2.0 * p3), hc]
            out.append(co)
        return out

    @functools.cached_property
    def _tiles(self) -> list:
        # per slice: histories, their products with e^{zh}, the z-derivatives
        # (tile nodes, columns, modes), and the histories' rows
        rows, kc = self.size + 1, self.slices[0].stop
        dtype = float if self.real else complex
        store = np.empty((3 if self.derivative else 2, rows * self.cols * kc), dtype=dtype)
        views = []
        for ks in self.slices:
            k = ks.stop - ks.start
            y, ay, *dy = (s[: rows * self.cols * k].reshape(rows, self.cols, k) for s in store)
            views.append((y, ay, dy[0] if dy else None, list(y), list(ay)))
        return views

    def step(self, state: list, coefs: list, u: np.ndarray, out: np.ndarray) -> None:
        """Advance ``state`` over the c nodes of a tile with their
        ``coefficients`` and add the tile's sums into ``out``, complex (c, d)
        and C-ordered.  ``u`` is the complex data, (c + 1, d), the node
        before the tile first.  Real modes step its real and imaginary parts
        as separate real columns."""
        c = out.shape[0]
        v = np.ascontiguousarray(u).view(float) if self.real else u
        reim = out.view(float).reshape(c, -1, 2)
        prev, cur = v[:c, :, None], v[1 : c + 1, :, None]
        for (y, ay, dy, rows_y, rows_ay), wb, carry, (a, c0, c1, *dc) in zip(
            self._tiles, self.blocks, state, coefs
        ):
            y[0] = carry[0]
            np.multiply(c0, prev, out=y[1 : c + 1])
            y[1 : c + 1] += c1 * cur
            for aj, yj, ayj, yn in zip(a, rows_y, rows_ay, rows_y[1:]):
                np.multiply(aj, yj, out=ayj)
                yn += ayj
            if self.derivative:
                d0, d1, hc = dc
                dy[0] = carry[1]
                np.multiply(d0, prev, out=dy[1 : c + 1])
                dy[1 : c + 1] += d1 * cur
                for j in range(c):
                    dy[j + 1] += a[j] * (dy[j] + hc[j] * y[j])
                carry[1] = dy[c]
            sums = dy[1 : c + 1] if self.derivative else ay[:c] if self.lagged else y[1 : c + 1]
            # as (c, d, 2k) reals, one row per column of u: [Re y, Im y] for
            # real modes, (re, im) per mode for complex ones
            sums = sums.reshape(c, -1, 2 * sums.shape[2]) if self.real else sums.view(float)
            reim += np.vecdot(sums[:, :, None], wb)
            carry[0] = y[c]


def _mode_sums(z, w, t, u, lagged: bool = False, derivative: bool = False) -> np.ndarray:
    """The convolution of the node data ``u`` (n + 1, d), linear between
    nodes, with the kernel sum_k w_k tau^m e^{z_k tau}, m = 1 with
    ``derivative`` and 0 without: a complex (n + 1, d) array, 0 at t_0.

    ``z`` and ``w`` are (K, 1), shared by the columns of u, or (K, d), one
    per column.  The history of mode k,

        y_k(t_i) = int_0^{t_i} e^{z_k (t_i - s)} u(s) ds,

    is advanced exactly panel by panel,

        y_i = e^{z h} y_{i-1} + h [(phi_1 - phi_2)(z h) u_{i-1} + phi_2(z h) u_i],

    and row i is sum_k w_k y_k(t_i), or with ``lagged`` (m = 0 only)
    sum_k w_k e^{z_k h_i} y_k(t_{i-1}): the histories carried across the
    last panel without its data, which the caller integrates exactly.  With
    ``derivative`` the z-derivatives dy_k(t_i) = int_0^{t_i} (t_i - s)
    e^{z_k (t_i - s)} u(s) ds advance too, by the next phi-function, and
    row i is sum_k w_k dy_k(t_i).

    This is the whole-grid loop of ``_Modes.step``: tiles of consecutive
    nodes i0 <= i < i0 + c by a slice of the modes are stepped one node at a
    time; every tile array is (nodes, columns, modes), the modes on the
    contiguous axis.  Real exponents act on the real and imaginary parts of
    u as separate real columns, weighed in real arithmetic
    (``_real_blocks``).  A tile holds at most ``_CHUNK_BYTES``, or half the
    size of u when that is more, of history (unless one mode of one node
    needs more).  Each row is a sum over the slices in order, and each
    slice's share one dot product per row, so no bit depends on the tile.
    """
    modes = _Modes(z, w, t, u.shape, lagged, derivative)
    out = np.zeros(u.shape, dtype=complex)
    state = modes.start()
    for i0 in range(1, t.size, modes.size):
        c = min(modes.size, t.size - i0)
        modes.step(state, modes.coefficients(i0, c), u[i0 - 1 : i0 + c], out[i0 : i0 + c])
    return out


def _mode_count(x_lo: float, x_hi: float, step: float, what: str) -> int:
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
    trapezoid rule on x_lo + j h, h = ``_CUT_STEP``, weights h r_j^(1-beta).
    One mode A_0 e^{-rho tau}, rho = A_1/A_0, matches the moments A_k =
    h r_lo^(k+1-beta) / expm1((k+1-beta) h) of the nodes below x_lo in tau^0
    and tau^1 and is O((r_lo T)^(3-beta)) off them relative: it closes the
    trapezoid sum, not the integral, so the rule converges geometrically.
    """
    h = _CUT_STEP
    log_eps = math.log(_CUT_EPS)
    x_lo = log_eps / (3.0 - beta) - math.log(T)
    x_hi = math.log(-log_eps / tau_min)
    r = np.exp(x_lo + h * np.arange(_mode_count(x_lo, x_hi, h, f"g_{beta}")))
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
    """Columns of the weights of u_{i-1} and u_i in the integral of g_beta
    against the panel [t_{i-1}, t_i] that ends at t_i, i >= 1."""
    m0, m1 = _panel_moments(beta, 0.0, h, 0.0, h**beta)
    return (m0 - m1 / h)[:, None], (m1 / h)[:, None]


def rl_integral(k: Kernel, u: Trajectory) -> Trajectory:
    """(g_beta * u)(t_i) at every node, exact for piecewise-linear u.

    For 0 < beta < 1 the last panel is integrated exactly against g_beta and
    the earlier ones through the exponential sum of g_beta on [min h, T],
    in O(n K) work; for beta >= 1 every panel is summed exactly, in O(n^2).
    """
    t = u.grid.nodes()
    n = u.grid.n_steps
    vals = u.values
    beta = k.beta
    h = np.diff(t)
    if beta < 1.0:
        rates, weights = _power_sum(beta, float(h.min()), float(t[-1]))
        out = _mode_sums(-rates[:, None], weights[:, None], t, vals, lagged=True)
        left, right = _last_panel(beta, h)
        out[1:] += left * vals[:-1] + right * vals[1:]
        return Trajectory(u.grid, out)
    out = np.zeros_like(vals)
    for i in range(1, n + 1):
        lag = t[i] - t[: i + 1]
        p = lag**beta
        m0, m1 = _panel_moments(beta, lag[1:], lag[:-1], p[1:], p[:-1])
        w_left = m0 - m1 / h[:i]
        w_right = m1 / h[:i]
        out[i] = w_left @ vals[:i] + w_right @ vals[1 : i + 1]
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


@dataclass(frozen=True)
class _PropagatorSum:
    """E_alpha(-tau^alpha A) as blockwise exponential sums in tau >= 0.

    On a block [[lambda, s], [0, lambda]] the diagonal is the residue and
    cut modes of ``mittag_leffler._Cut`` at delta = 1, on rates shared by
    all blocks.  The superdiagonal is s d/dlambda E =
    (s tau/(alpha lambda)) d/dtau E, so a mode w e^{z tau} adds
    s z w/(alpha lambda) tau e^{z tau} to it; unlike d rho/d lambda, whose
    terms cancel to O(lambda) of their size when |lambda| T^alpha << 1, this
    keeps the coupling's relative accuracy.
    """

    rates: np.ndarray  # (K,) rates r_j of the modes e^{-r_j tau}
    weights: np.ndarray  # (K, nb) their weights on the diagonal
    couplings: np.ndarray  # (K, nb) -s r_j w/(alpha lambda), of tau e^{-r_j tau}
    poles: np.ndarray  # (P, nb) root exponents sigma
    pole_weights: np.ndarray  # (P, nb) W, or 0 where the root is left out
    pole_couplings: np.ndarray  # (P, nb) s sigma W/(alpha lambda), of tau e^{sigma tau}

    def at(self, tau: np.ndarray):
        """The summed (diagonal, superdiagonal) pair at lags ``tau``, each
        (len(tau), nb)."""
        tau = np.asarray(tau, dtype=float)
        er = np.exp(-np.outer(tau, self.rates))
        ep = np.exp(self.poles[None] * tau[:, None, None])
        diag = er @ self.weights + np.sum(self.pole_weights * ep, axis=1)
        off = er @ self.couplings + np.sum(self.pole_couplings * ep, axis=1)
        return diag, tau[:, None] * off


def _propagator_sum(m: AlmostSectorialModel, alpha: float, tau_min: float, T: float):
    """The exponential sums of E_alpha(-tau^alpha A), checked on [tau_min, T].

    The modes are those of ``mittag_leffler._Cut`` at delta = 1, on one
    lattice shared by all blocks, its offset chosen to keep every block's
    poles off the nodes.  The range is set by the tails: |lambda| r^-alpha
    at large r, so the sum holds down to tau = 0; at small r both
    r^alpha/|lambda| against E(0) = 1 and (r T)^alpha/Gamma(alpha + 1)
    against the algebraic tail |E(T)| ~ 1/(T^alpha |lambda| |Gamma(1 - alpha)|)
    of a stiff block, whose small values the Duhamel integral accumulates
    over [0, T].
    """
    if not (1.0 < alpha < 2.0):
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    lam = m.lam
    log_eps = math.log(_CUT_EPS)
    log_lam = np.log(np.abs(lam))
    spread = math.log(math.pi * alpha / math.sin(math.pi * min(alpha - 1.0, 2.0 - alpha)))
    x_lo = min(float(np.min(log_lam)) + spread, math.lgamma(alpha + 1.0) - alpha * math.log(T))
    x_lo = (x_lo + log_eps) / alpha
    x_hi = float(np.max(log_lam - spread - log_eps)) / alpha
    cut = _Cut(alpha, lam)
    shifts, gaps = cut.gaps(x_lo)
    x0 = float(shifts[int(np.argmax(np.min(gaps, axis=1)))])
    j = np.arange(_mode_count(x0, x_hi, _CUT_STEP, f"E_{alpha}"))[:, None]
    r, weights, poles, pole_weights = cut.modes(1.0, x0, j)
    ds = m.coupling / (alpha * lam)
    es = _PropagatorSum(
        rates=r[:, 0],
        weights=weights,
        couplings=-r * weights * ds,
        poles=poles,
        pole_weights=pole_weights,
        pole_couplings=poles * pole_weights * ds,
    )
    _check_propagator_sum(es, m, alpha, np.geomspace(tau_min, T, _SUM_CHECK_LAGS))
    return es


def _check_propagator_sum(es: _PropagatorSum, m: AlmostSectorialModel, alpha: float, lags) -> None:
    """Compare the sums' (diagonal, superdiagonal) pairs with the oracle's,
    entry by entry, at increasing ``lags``.  The error of a block at a lag
    is measured against its largest entry at that lag or later: a decaying
    block must keep its relative accuracy in the tail, and the coupling of
    a block with lambda T^alpha << 1, whose sum cancels to far below its
    scale 1/|lambda|, is measured against the diagonal.  The lambda-derivative is
    -tau^alpha E_{alpha,alpha}(-tau^alpha lambda)/alpha, through values only:
    ``ml_derivative`` is accepted at a looser tolerance than ``_SUM_TOL``.
    In the mid-band ``ml_eval`` uses the same cut representation, so there
    this compares two quadratures of one representation; its independent
    guard is the dense-reference tests in ``tests/test_fractional.py``."""
    ta = lags[:, None] ** alpha
    z = -ta * m.lam
    oracle = (
        ml_eval(MLParams(alpha, 1.0), z),
        m.coupling * (-ta / alpha * ml_eval(MLParams(alpha, alpha), z)),
    )
    err = np.maximum(*(np.abs(g - o) for g, o in zip(es.at(lags), oracle)))
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
    panel.  The tiles are node 0, where the term is 0 and the data start the
    histories, then runs of at most ``size`` nodes.  ``coefficients`` of a
    tile depend on the grid and the modes only, and every level's ``step``
    over that tile uses them; each level (``start``) holds its histories and
    the last node's u and q.  A level's rows are those of one
    ``duhamel_convolve`` call, bit for bit.
    """

    def __init__(self, m: AlmostSectorialModel, alpha: float, grid: TimeGrid):
        t = grid.nodes()
        h = np.diff(t)
        es = _propagator_sum(m, alpha, float(h.min()), float(t[-1]))
        d = self.dimension = m.dimension
        shape, every = (t.size, d), slice(None)

        def per_column(x):  # one entry per block, for both of its columns
            return x if x.shape[1] == 1 else np.repeat(x, 2, axis=1)

        # (modes, the columns of u they read, the columns of q they add into)
        self.stage1 = []
        for z, w, cw in (
            (-es.rates[:, None], es.weights, es.couplings),
            (es.poles, es.pole_weights, es.pole_couplings),
        ):
            self.stage1.append((_Modes(per_column(z), per_column(w), t, shape), every, every))
            if np.any(m.coupling):  # s d/dlambda E of a block's second component, into its first
                coupled = _Modes(z, cw, t, (t.size, d // 2), derivative=True)
                self.stage1.append((coupled, slice(1, None, 2), slice(0, None, 2)))
        beta = alpha - 1.0
        rates, weights = _power_sum(beta, float(h.min()), float(t[-1]))
        self.stage2 = _Modes(-rates[:, None], weights[:, None], t, shape, lagged=True)
        self.panel = _last_panel(beta, h)
        # one tile for all sets, their smallest, since no bit depends on it
        # (``_mode_sums``).  A set with fewer modes computes its coefficients
        # for a block of tiles at once, as many as keep its phi arguments no
        # larger than those of the largest set's tile
        self.modes = [mo for mo, _, _ in self.stage1] + [self.stage2]
        self.size = min(mo.size for mo in self.modes)
        per_node = [mo.zt.nbytes for mo in self.modes]
        self.spans = [max(1, max(per_node) // b) * self.size for b in per_node]
        for mo in self.modes:
            mo.size = self.size
        self.held = [None] * len(self.modes)  # the coefficients of each set's current block
        self.n_nodes = t.size

    def tiles(self):
        """(i0, c): node 0, then the tiles of c nodes from i0."""
        yield 0, 1
        for i0 in range(1, self.n_nodes, self.size):
            yield i0, min(self.size, self.n_nodes - i0)

    def coefficients(self, i0: int, c: int):
        """What every level's step over the tile needs of the grid and the
        modes; None for node 0.  Called for the tiles in order."""
        if i0 == 0:
            return None
        per_set = []
        for k, (mo, span) in enumerate(zip(self.modes, self.spans)):
            at = (i0 - 1) % span
            if at == 0:
                self.held[k] = mo.coefficients(i0, min(span, self.n_nodes - i0))
            co = self.held[k]
            per_set.append(co if span == self.size else [[x[at : at + c] for x in s] for s in co])
        panel = tuple(x[i0 - 1 : i0 - 1 + c] for x in self.panel)
        return per_set[:-1], per_set[-1], panel

    def start(self) -> list:
        """A level at t_0: its stage-1 and stage-2 histories, and buffers of
        a tile's u and q whose row 0 is the node before the tile."""
        rows = (self.size + 1, self.dimension)
        states = [mo.start() for mo, _, _ in self.stage1]
        return [states, self.stage2.start(), np.zeros(rows, complex), np.zeros(rows, complex)]

    def step(self, level: list, coefs, u: np.ndarray) -> np.ndarray:
        """Advance ``level`` over the tile whose forcing rows are ``u`` (c,
        d), with the tile's ``coefficients``; returns the Duhamel term on
        the tile."""
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
    for i0, c in steps.tiles():
        out[i0 : i0 + c] = steps.step(level, steps.coefficients(i0, c), u[i0 : i0 + c])
    return Trajectory(f.grid, out)


def _csv(header_lines, columns, rows) -> str:
    """``# `` header lines, the column row, then one line per row: numbers
    as ``.17g``, strings verbatim.  ``rows`` is consumed lazily."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n")
    return buf.getvalue()


def trajectory_to_csv(w: Trajectory, header_lines=()) -> str:
    """Serialize to CSV with header ``t,re_0,im_0,...`` at full precision."""
    cols = ["t"] + [f"{part}_{j}" for j in range(w.dimension) for part in ("re", "im")]
    reim = np.ascontiguousarray(w.values).view(float)  # re_0, im_0, re_1, ...
    return _csv(header_lines, cols, ((t, *r) for t, r in zip(w.grid.nodes(), reim)))


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

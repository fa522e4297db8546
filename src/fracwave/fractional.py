"""Discrete fractional calculus on graded time grids.

Kernels g_beta(t) = t^(beta-1)/Gamma(beta), Riemann-Liouville integrals by
product integration exact on piecewise-linear data, regularized Caputo
derivatives (1 < alpha < 2), and the Duhamel term of the forced problem.

Both convolutions with a long memory run through one exponential-mode
engine (``_mode_sums``): a kernel written as a sum of terms w tau^m e^{z tau},
m = 0 or 1, is convolved with piecewise-linear data by a recurrence that is
exact on every panel of the grid, in O(n K) work for K modes (Lubich and
Schaedle, SIAM J. Sci. Comput. 24 (2002)).  The engine steps tiles of nodes
by modes, laid out with the modes on the contiguous axis, and contracts the
histories with the weights itself, in real arithmetic for real modes; it
sees only columns of data, and each caller makes one call per mode set and
power m.  ``rl_integral`` asks for the lagged sum, the histories carried
across the last panel without its data, and adds that panel, integrated
exactly against g_beta.  Both sums are trapezoid rules
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
    "propagator_sum",
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


def _as_reals(a: np.ndarray, real: bool) -> np.ndarray:
    """Tile rows (c, columns, k) as (c, d, 2k) reals, one row per column of
    u: [Re y, Im y] for a real tile, (re, im) per mode for a complex one."""
    return a.reshape(a.shape[0], -1, 2 * a.shape[2]) if real else a.view(float)


def _real_blocks(w: np.ndarray, real: bool) -> np.ndarray:
    """Weights (k, g) as (g, 2, 2k) reals whose two rows, dotted with a row
    of ``_as_reals``, give Re and Im of sum_k w_k y_k: the blocks
    [[Re w, -Im w], [Im w, Re w]].  One dot product per sum keeps its bits
    independent of the tile size."""
    wr, wi = w.real.T, w.imag.T
    b = np.stack([np.stack([wr, -wi], axis=1), np.stack([wi, wr], axis=1)], axis=1)
    return (b if real else b.swapaxes(2, 3)).reshape(b.shape[0], 2, -1)


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

    Tiles of consecutive nodes i0 <= i < i0 + c by a slice of the modes are
    stepped one node at a time; every tile array is (nodes, columns, modes),
    the modes on the contiguous axis.  Real exponents act on the real and
    imaginary parts of u as separate real columns, weighed in real
    arithmetic (``_real_blocks``).  A tile holds at most ``_CHUNK_BYTES``,
    or half the size of u when that is more, of history (unless one mode of
    one node needs more), and its arrays are reused by the next tile.
    """
    real = np.isrealobj(z)
    v = np.ascontiguousarray(u).view(float) if real else u
    zt = np.repeat(z.T, 2, axis=0) if real and z.shape[1] > 1 else z.T
    nk, cols = z.shape[0], v.shape[1]
    h = np.diff(t)
    per_mode = cols * v.itemsize * (2 if derivative else 1)
    budget = max(_CHUNK_BYTES, v.nbytes // 2)
    kc = max(1, min(nk, budget // per_mode))
    size = max(1, budget // (kc * per_mode))
    # histories, their products with e^{zh} and the z-derivatives
    store = np.empty((3 if derivative else 2, (size + 1) * cols * kc), dtype=v.dtype)
    out = np.zeros(u.shape, dtype=complex)
    reim = out.view(float).reshape(out.shape[0], -1, 2)
    for k0 in range(0, nk, kc):
        ks = slice(k0, min(k0 + kc, nk))
        zk, k = zt[:, ks], ks.stop - k0
        views = [s[: (size + 1) * cols * k].reshape(size + 1, cols, k) for s in store]
        y, ay, dy = views if derivative else (*views, None)
        y[0] = 0.0
        rows_y, rows_ay = list(y), list(ay)
        wb = _real_blocks(w[ks], real)
        if derivative:
            dy[0] = 0.0
        for i0 in range(1, t.size, size):
            c = min(size, t.size - i0)
            hc = h[i0 - 1 : i0 - 1 + c, None, None]
            a, (p1, p2, *p3) = _phi(hc * zk, 3 if derivative else 2)
            prev, cur = v[i0 - 1 : i0 - 1 + c, :, None], v[i0 : i0 + c, :, None]
            np.multiply(hc * (p1 - p2), prev, out=y[1 : c + 1])
            y[1 : c + 1] += hc * p2 * cur
            for aj, yj, ayj, yn in zip(a, rows_y, rows_ay, rows_y[1:]):
                np.multiply(aj, yj, out=ayj)
                yn += ayj
            if derivative:
                (p3,) = p3
                hh = hc * hc
                np.multiply(hh * (p1 - 2.0 * p2 + 2.0 * p3), prev, out=dy[1 : c + 1])
                dy[1 : c + 1] += hh * (p2 - 2.0 * p3) * cur
                for j in range(c):
                    dy[j + 1] += a[j] * (dy[j] + hc[j] * y[j])
            sums = dy[1 : c + 1] if derivative else ay[:c] if lagged else y[1 : c + 1]
            reim[i0 : i0 + c] += np.vecdot(_as_reals(sums, real)[:, :, None], wb)
            if derivative:
                dy[0] = dy[c]
            y[0] = y[c]
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
        m0, m1 = _panel_moments(beta, 0.0, h, 0.0, h**beta)
        out[1:] += (m0 - m1 / h)[:, None] * vals[:-1] + (m1 / h)[:, None] * vals[1:]
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
    # what the sums were built and checked for: alpha, lambda, s, lags [tau_min, T]
    alpha: float
    lam: np.ndarray
    coupling: np.ndarray
    tau_min: float
    T: float

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
        alpha=alpha, lam=lam, coupling=m.coupling, tau_min=tau_min, T=T,
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


def propagator_sum(m: AlmostSectorialModel, alpha: float, grid: TimeGrid) -> _PropagatorSum:
    """The checked exponential sums of E_alpha(-tau^alpha A) for ``grid``, to
    pass to every ``duhamel_convolve`` call of a solve on that grid."""
    t = grid.nodes()
    return _propagator_sum(m, alpha, float(np.diff(t).min()), float(t[-1]))


def duhamel_convolve(
    m: AlmostSectorialModel, alpha: float, f: Trajectory, sums: _PropagatorSum | None = None
) -> Trajectory:
    """The Duhamel term (g_{alpha-1} * E_alpha(-.^alpha A) * f)(t_i).

    Stage 1 is q = E_alpha(-.^alpha A) * f with f linear between nodes,
    integrated exactly panel by panel through the exponential sums of the
    propagator, ``sums`` from ``propagator_sum`` for m, alpha and f's grid
    (built here when omitted); stage 2 is ``rl_integral`` of the
    piecewise-linear q.  Both cost O(n K) for K modes.  The value at t = 0 is
    exactly 0.  Raises ``ValueError`` if f does not have the model's
    dimension, if ``sums`` were built for another model, alpha or lag range
    than f's grid needs, or if an exponential sum misses its accuracy target.
    """
    d = m.dimension
    if f.dimension != d:
        raise ValueError(f"forcing dimension {f.dimension} != model dimension {d}")
    es = propagator_sum(m, alpha, f.grid) if sums is None else sums
    t = f.grid.nodes()
    built = np.array_equal(es.lam, m.lam) and np.array_equal(es.coupling, m.coupling)
    if not built or es.alpha != alpha or np.diff(t).min() < es.tau_min or t[-1] > es.T:
        raise ValueError("the exponential sums were built for another model, alpha or grid")
    u = f.values
    q = np.zeros(u.shape, dtype=complex)

    def per_column(x):  # one entry per block, for both of its columns
        return x if x.shape[1] == 1 else np.repeat(x, 2, axis=1)

    for z, w, cw in (
        (-es.rates[:, None], es.weights, es.couplings),
        (es.poles, es.pole_weights, es.pole_couplings),
    ):
        q += _mode_sums(per_column(z), per_column(w), t, u)
        if np.any(m.coupling):  # s d/dlambda E of a block's second component, into its first
            q[:, 0::2] += _mode_sums(z, cw, t, u[:, 1::2], derivative=True)
    return rl_integral(Kernel(alpha - 1.0), Trajectory(f.grid, q))


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

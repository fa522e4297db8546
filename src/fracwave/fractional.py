"""Discrete fractional calculus on graded time grids.

Kernels g_beta(t) = t^(beta-1)/Gamma(beta), Riemann-Liouville integrals by
product integration exact on piecewise-linear data, regularized Caputo
derivatives (1 < alpha < 2), and the Laplace-convolution quadrature used by
the forced-problem solver.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import rgamma

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
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.grading < 1.0:
            raise ValueError(f"grading must be >= 1, got {self.grading}")

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
            return np.where(t > 0, t ** (self.beta - 1.0), 0.0) * rgamma(self.beta)


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
    rg = rgamma(beta)
    m0 = (pb - pa) / beta * rg
    m1 = (b * (pb - pa) / beta - (b * pb - a * pa) / (beta + 1.0)) * rg
    return m0, m1


def rl_integral(k: Kernel, u: Trajectory) -> Trajectory:
    """(g_beta * u)(t_i) at every node, exact for piecewise-linear u."""
    t = u.grid.nodes()
    n = u.grid.n_steps
    vals = u.values
    out = np.zeros_like(vals)
    beta = k.beta
    h = np.diff(t)
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


def duhamel_convolve(k: Kernel, opvals, f: Trajectory) -> Trajectory:
    """Triple convolution (g_beta * E * f)(t_i) by product integration.

    ``opvals`` holds snapshots of the block-diagonal propagator at the grid
    nodes used as quadrature shifts, shape (n+1, nb, 2, 2).  The operator
    convolution (E * f) is evaluated by the trapezoidal rule over the graded
    nodes with f interpolated linearly at the shifted times; the weakly
    singular kernel g_beta is then integrated exactly against the
    piecewise-linear result.
    """
    ops = np.asarray(opvals, dtype=complex)
    t = f.grid.nodes()
    n = f.grid.n_steps
    d = f.dimension
    if ops.shape[0] != n + 1:
        raise ValueError(
            f"need one operator snapshot per node ({n + 1}), got {ops.shape[0]}"
        )
    if ops.ndim != 4 or ops.shape[1] * 2 != d or ops.shape[2:] != (2, 2):
        raise ValueError(f"block snapshots {ops.shape} do not match dimension {d}")
    # trapezoid weights on t[:i+1] are those on t, but for the last node
    weights = _trapezoid_weights(t)
    half_h = 0.5 * np.diff(t)
    re, im = f.values.real, f.values.imag
    q = np.zeros((n + 1, d), dtype=complex)
    for i in range(1, n + 1):
        wts = weights[: i + 1].copy()
        wts[i] = half_h[i - 1]
        s = t[i] - t[: i + 1]
        fb = np.empty((i + 1, d), dtype=complex)
        for j in range(d):
            fb[:, j] = np.interp(s, t, re[:, j]) + 1j * np.interp(s, t, im[:, j])
        fb = fb.reshape(i + 1, -1, 2)
        contrib = np.einsum("jkab,jkb->jka", ops[: i + 1], fb).reshape(i + 1, d)
        q[i] = wts @ contrib
    return rl_integral(k, Trajectory(f.grid, q))


def trajectory_to_csv(w: Trajectory, header_lines=()) -> str:
    """Serialize to CSV with header ``t,re_0,im_0,...`` at full precision."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    cols = ["t"]
    for j in range(w.dimension):
        cols += [f"re_{j}", f"im_{j}"]
    buf.write(",".join(cols) + "\n")
    t = w.grid.nodes()
    for i in range(w.grid.n_steps + 1):
        row = [f"{t[i]:.17g}"]
        for j in range(w.dimension):
            row += [f"{w.values[i, j].real:.17g}", f"{w.values[i, j].imag:.17g}"]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


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

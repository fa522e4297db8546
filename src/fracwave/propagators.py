"""Wave-type solution operators E_{alpha,delta}(-t^alpha A) and their
identities and decay estimates.

Every propagator handle can evaluate through three representations:

* ``oracle``: exact blockwise spectral form (authoritative in tests),
* ``gamma-path``: functional-calculus quadrature along Gamma_theta,
* ``hankel-path``: Laplace-inversion path.

Norm sweeps always use the exact blockwise spectral norm, so decay-slope
measurements are independent of quadrature resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .contour import HankelSpec, calculus_apply, default_contour, hankel_propagator
from .fractional import Kernel, TimeGrid, Trajectory, _csv, _trapezoid_weights, rl_integral
from .mittag_leffler import BoundReport, MLParams, _ml, ml_eval, reciprocal_gamma
from .operator_model import AlmostSectorialModel, _symbol_apply, _symbol_norms, resolvent_apply
from .operator_model import apply as op_apply

__all__ = [
    "PropagatorHandle",
    "DecayReport",
    "make_propagator",
    "prop_apply",
    "propagator_snapshots",
    "prop_norm_decay",
    "a_prop_norm_decay",
    "conv_norm_decay",
    "prop_time_derivative",
    "a_prop_apply",
    "laplace_check",
    "derivative_identity_check",
    "uno_identity_check",
    "strong_continuity_check",
    "decay_report_to_csv",
]

_REPRESENTATIONS = ("oracle", "gamma-path", "hankel-path")


@dataclass(frozen=True)
class PropagatorHandle:
    model: AlmostSectorialModel
    alpha: float
    delta: float = 1.0
    representation: str = "gamma-path"
    hankel: HankelSpec | None = None

    def __post_init__(self) -> None:
        if not (1.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie in (1, 2), got {self.alpha}")
        if self.representation not in _REPRESENTATIONS:
            raise ValueError(f"unknown representation {self.representation!r}")
        prof = self.model.profile
        if not prof.admissible_for_alpha(self.alpha):
            raise ValueError(
                f"sector hypothesis omega < theta < mu < pi - alpha*pi/2 "
                f"fails: mu={prof.mu}, alpha={self.alpha}"
            )


make_propagator = PropagatorHandle


def _symbol_values(p: MLParams, t, lam):
    """The symbol E_{alpha,delta}(-t^alpha z) and its z-derivative
    -t^alpha E'_{alpha,delta}(-t^alpha z) at the eigenvalues ``lam``, as two
    arrays from one Mittag-Leffler dispatch: the blockwise oracle needs both
    at the same points, and the expansion and cut sums of the derivative
    hold the value's.

    ``t`` may be an array shaped to broadcast against ``lam`` (e.g.
    ``ts[:, None]`` against the eigenvalues), giving one value per (t, z)
    pair.
    """
    ta = t**p.alpha
    e, de = _ml(p, -ta * lam, (0, 1))
    return e, -ta * de


def _apply(p: PropagatorHandle, t: float, x, delta: float, representation: str) -> np.ndarray:
    """E_{alpha,delta}(-t^alpha A) x as ``prop_apply`` gives it, through
    ``representation``, on the default Gamma_theta contour or, without
    ``p.hankel``, the Hankel angle in the middle of (pi/2, (pi - theta)/alpha)."""
    x = np.asarray(x, dtype=complex).ravel()
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    if t == 0.0:
        return reciprocal_gamma(delta) * x
    if representation == "hankel-path":
        theta0 = 0.5 * (math.pi / 2.0 + (math.pi - p.model.profile.theta) / p.alpha)
        return hankel_propagator(p.model, p.alpha, t, p.hankel or HankelSpec(theta0), x, delta)
    ml = MLParams(p.alpha, delta)
    if representation == "oracle":
        return _symbol_apply(p.model, *_symbol_values(ml, t, p.model.lam), x)
    ta = t**p.alpha
    f = lambda z: ml_eval(ml, -ta * z)
    return calculus_apply(p.model, f, default_contour(p.model, t_alpha_scale=ta), x)


def propagator_snapshots(m: AlmostSectorialModel, alpha: float, delta: float, grid: TimeGrid):
    """The symbol pair of E_{alpha,delta}(-t_i^alpha A) at the grid nodes:
    values and lambda-derivatives, each (n+1, nb).  The t = 0 row is the
    limit (1/Gamma(delta), 0)."""
    t = grid.nodes()
    fv = np.full((t.size, m.n_blocks), reciprocal_gamma(delta), dtype=complex)
    dv = np.zeros_like(fv)
    fv[1:], dv[1:] = _symbol_values(MLParams(alpha, delta), t[1:, None], m.lam)
    return fv, dv


def prop_apply(p: PropagatorHandle, t: float, x) -> np.ndarray:
    """E_{alpha,delta}(-t^alpha A) x under the selected representation.

    t = 0 returns the limit x / Gamma(delta); in finite dimension every
    vector lies in D(A), where the limit is guaranteed.
    """
    return _apply(p, t, x, p.delta, p.representation)


@dataclass(frozen=True)
class DecayReport:
    """Norm sweep with fitted power law norm ~ C * t^slope."""

    t_values: np.ndarray = field(repr=False)
    norms: np.ndarray = field(repr=False)
    fitted_slope: float = 0.0
    c_empirical: float = 0.0


def _fit_decay(ts, norms) -> DecayReport:
    ts = np.asarray(ts, dtype=float)
    norms = np.asarray(norms, dtype=float)
    slope = float(np.polyfit(np.log(ts), np.log(norms), 1)[0])
    c = float(np.max(norms / ts**slope))
    return DecayReport(t_values=ts, norms=norms, fitted_slope=slope, c_empirical=c)


def _norm_sweep(
    p: PropagatorHandle, t_values, delta: float, weight, power: float = 0.0
) -> DecayReport:
    """Exact norms ||t^power w(A, E_{alpha,delta}(-t^alpha A))|| over a t sweep.

    E and its z-derivative are evaluated once on the (t x block) grid;
    ``weight(z, e, de)`` maps them to the swept symbol and its z-derivative.
    Returns the sweep with its fitted log-log slope.
    """
    ts = np.asarray(t_values, dtype=float)
    if ts.size < 2 or np.any(ts <= 0):
        raise ValueError("need at least two positive t values")
    lam = p.model.lam
    g, gp = weight(lam, *_symbol_values(MLParams(p.alpha, delta), ts[:, None], lam))
    return _fit_decay(ts, _symbol_norms(p.model, g, gp) * ts**power)


def _times_z(z, e, de):
    return z * e, e + z * de


def prop_norm_decay(p: PropagatorHandle, t_values, with_prefactor: bool = False) -> DecayReport:
    """Exact norms ||t^{delta-1} E_{alpha,delta}(-t^alpha A)|| (prefactor
    optional) over a t sweep, with fitted log-log slope."""
    power = p.delta - 1.0 if with_prefactor else 0.0
    return _norm_sweep(p, t_values, p.delta, lambda z, e, de: (e, de), power)


def a_prop_norm_decay(p: PropagatorHandle, t_values) -> DecayReport:
    """Norm sweep of A E_{alpha,delta}(-t^alpha A) via the symbol z*E(..)."""
    return _norm_sweep(p, t_values, p.delta, _times_z)


def conv_norm_decay(p: PropagatorHandle, t_values) -> DecayReport:
    """Norm sweep of A (g_{alpha-1} * E_alpha)(t) = t^{alpha-1} A E_{alpha,alpha}(-t^alpha A)."""
    return _norm_sweep(p, t_values, p.alpha, _times_z, p.alpha - 1.0)


def prop_time_derivative(p: PropagatorHandle, t: float, n: int, x) -> np.ndarray:
    """d^n/dt^n of t^{delta-1} E_{alpha,delta}(-t^alpha A) x, evaluated by
    the shift rule as t^{delta-n-1} E_{alpha,delta-n}(-t^alpha A) x through
    the handle's own representation, for the orders n = 0, 1, 2 that the
    wave equation uses."""
    if n not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, got {n}")
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    return t ** (p.delta - n - 1.0) * _apply(p, t, x, p.delta - n, p.representation)


def a_prop_apply(
    p: PropagatorHandle, t: float, x, via: str = "apply"
) -> np.ndarray:
    """A E_{alpha,delta}(-t^alpha A) x.

    ``via='apply'`` composes A with prop_apply; ``via='contour'`` applies
    the calculus directly to the symbol z * E_{alpha,delta}(-t^alpha z)
    (which still decays on the contour since E(..) falls like 1/|t^alpha z|^2
    for the delta = alpha - n family).
    """
    x = np.asarray(x, dtype=complex).ravel()
    if via == "apply":
        return op_apply(p.model, prop_apply(p, t, x))
    if via != "contour":
        raise ValueError(f"unknown via={via!r}")
    ml, ta = MLParams(p.alpha, p.delta), t**p.alpha
    g = lambda z: z * ml_eval(ml, -ta * z)
    return calculus_apply(p.model, g, default_contour(p.model, t_alpha_scale=ta), x)


def laplace_check(p: PropagatorHandle, lam: float, x, nodes_per_decade: int = 48) -> float:
    """Relative residual of the Laplace transform formula

        int_0^inf e^{-lam t} E_alpha(-t^alpha A) x dt
            = lam^{alpha-1} (lam^alpha + A)^{-1} x.
    """
    gamma = p.model.profile.gamma
    if p.alpha * (1.0 + gamma) >= 1.0:
        raise ValueError("laplace check requires alpha * (1 + gamma) < 1")
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    x = np.asarray(x, dtype=complex).ravel()
    nx = np.linalg.norm(x)
    if nx == 0.0:
        return 0.0
    t_max = 45.0 / lam
    t_min = 1e-14 / lam
    n = max(16, int(nodes_per_decade * math.log10(t_max / t_min)))
    ts = np.geomspace(t_min, t_max, n)
    # the t integral is the symbol sum_j q_j E_alpha(-t_j^alpha z), one row
    # of t nodes per eigenvalue
    q = _trapezoid_weights(np.log(ts)) * ts * np.exp(-lam * ts)
    e, de = _symbol_values(MLParams(p.alpha, 1.0), ts, p.model.lam[:, None])
    integral = _symbol_apply(p.model, np.sum(q * e, axis=1), np.sum(q * de, axis=1), x)
    rhs = lam ** (p.alpha - 1.0) * (-resolvent_apply(p.model, -(lam**p.alpha), x))
    return float(np.linalg.norm(integral - rhs) / nx)


def _g_conv(p: PropagatorHandle, t: float, beta: float, x, method: str, n_grid: int):
    """(g_beta * E_alpha)(t) x through the oracle: ``method='oracle'`` by the
    series identity t^beta E_{alpha,1+beta}(-t^alpha A) x, ``method='grid'``
    by product integration of snapshots on a graded grid (grid-order
    accurate)."""
    if method == "oracle":
        return t**beta * _apply(p, t, x, 1.0 + beta, "oracle")
    if method != "grid":
        raise ValueError(f"unknown method {method!r}")
    grid = TimeGrid(t, n_grid, grading=2.0)
    snaps = _symbol_apply(p.model, *propagator_snapshots(p.model, p.alpha, 1.0, grid), x)
    return rl_integral(Kernel(beta), Trajectory(grid, snaps)).values[-1]


def derivative_identity_check(
    p: PropagatorHandle, t: float, x, method: str = "grid", n_grid: int = 2048
) -> float:
    """Relative residual of d/dt E_alpha(-t^alpha A)x = -A (g_{alpha-1} * E_alpha)(t) x.

    ``method='grid'`` evaluates the convolution by product integration on a
    graded grid (grid-order accurate); ``method='oracle'`` uses the exact
    series identity (g_{alpha-1} * E_alpha)(t) = t^{alpha-1} E_{alpha,alpha}.
    """
    x = np.asarray(x, dtype=complex).ravel()
    if np.all(x == 0):
        return 0.0
    lhs = prop_time_derivative(replace(p, delta=1.0, representation="oracle"), t, 1, x)
    rhs = -op_apply(p.model, _g_conv(p, t, p.alpha - 1.0, x, method, n_grid))
    scale = np.linalg.norm(lhs) + np.linalg.norm(rhs) + 1e-300
    return float(np.linalg.norm(lhs - rhs) / scale)


def uno_identity_check(
    p: PropagatorHandle, t: float, x, method: str = "oracle", n_grid: int = 2048
) -> float:
    """Relative residual of A (g_alpha * E_alpha)(t) x = x - E_alpha(-t^alpha A) x.

    The convolution uses the exact series identity
    (g_alpha * E_alpha)(t) = t^alpha E_{alpha,1+alpha}(-t^alpha A) by default
    ('oracle'); 'grid' uses product integration instead (grid-order accurate,
    amplified by ||A|| on stiff models, so best reserved for scalar checks).
    """
    gamma = p.model.profile.gamma
    if p.alpha * (1.0 + gamma) >= 1.0:
        raise ValueError("uno identity requires alpha * (1 + gamma) < 1")
    x = np.asarray(x, dtype=complex).ravel()
    nx = np.linalg.norm(x)
    if nx == 0.0:
        return 0.0
    lhs = op_apply(p.model, _g_conv(p, t, p.alpha, x, method, n_grid))
    rhs = x - _apply(p, t, x, 1.0, "oracle")
    return float(np.linalg.norm(lhs - rhs) / nx)


def strong_continuity_check(p: PropagatorHandle, t_values) -> BoundReport:
    """Fit of the operator norm ||(E_alpha(-t^alpha A) - I) A^{-1}|| vs t.

    This is the sharp constant in the strong-continuity estimate
    ||E x - x|| <= C ||A x|| t^{-alpha gamma} on D(A); the worst-case x
    moves with t, so the slope is only visible on the operator norm.
    """
    weight = lambda z, e, de: ((e - 1.0) / z, (de * z - (e - 1.0)) / z**2)
    rep = _norm_sweep(p, t_values, 1.0, weight)
    return BoundReport(
        constant=rep.c_empirical, slope=rep.fitted_slope, n_samples=rep.t_values.size
    )


def decay_report_to_csv(rep: DecayReport, header_lines=()) -> str:
    rows = ((t, n, rep.fitted_slope, rep.c_empirical) for t, n in zip(rep.t_values, rep.norms))
    return _csv(header_lines, ["t", "norm", "fitted_slope", "C_empirical"], rows)

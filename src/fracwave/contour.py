"""Holomorphic functional calculus by contour quadrature.

Two integration paths:

* ``Gamma_theta``: the pair of rays r e^{+/- i theta}, used for f(A)x with
  f decaying like 1/(1+|z|) on the rays.  Geometric nodes, trapezoid in
  log space; the integrand vanishes at both ends of the (truncated) rays.
* Hankel path ``Gamma_theta0``: the hyperbola with asymptotes at +/- theta0
  in (pi/2, pi), used for the Laplace-type propagator representation.
  Trapezoid rule in the hyperbola's parameter, with step and node count set
  by the target accuracy (Weideman and Trefethen, Math. Comp. 76 (2007)).

Both are one node sum sum_j c_j (z_j - A)^{-1} x, applied as one blockwise
symbol through the spectral oracle; on Gamma_theta, f is called once on the
array of nodes (a scalar result is broadcast).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fractional import _trapezoid_weights
from .operator_model import AlmostSectorialModel, spectral_apply

__all__ = [
    "ContourSpec",
    "HankelSpec",
    "default_contour",
    "calculus_apply",
    "resolvent_of_power_sum",
    "hankel_propagator",
]


@dataclass(frozen=True)
class ContourSpec:
    """Ray angle and radial truncation of the Gamma_theta path."""

    theta: float
    r_min: float
    r_max: float
    nodes_per_decade: int = 96

    def __post_init__(self) -> None:
        if not (0.0 < self.theta < math.pi):
            raise ValueError(f"theta must lie in (0, pi), got {self.theta}")
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError(
                f"need 0 < r_min < r_max, got ({self.r_min}, {self.r_max})"
            )
        if self.nodes_per_decade < 4:
            raise ValueError("nodes_per_decade must be >= 4")

    def radii(self, refine: float = 1.0) -> np.ndarray:
        decades = math.log10(self.r_max / self.r_min)
        n = max(8, int(round(self.nodes_per_decade * refine * decades)) + 1)
        return np.geomspace(self.r_min, self.r_max, n)


# the Gamma_theta rays reach _CONTOUR_MARGIN times past the spectral radius,
# and at least to where |t_alpha_scale z|^gamma has fallen to _CONTOUR_TAIL_TOL
_CONTOUR_MARGIN = 1e2
_CONTOUR_TAIL_TOL = 1e-10


def default_contour(
    m: AlmostSectorialModel,
    t_alpha_scale: float = 1.0,
    nodes_per_decade: int = 96,
) -> ContourSpec:
    """Contour covering the model's spectral range with truncation margin.

    ``t_alpha_scale`` is the factor multiplying z inside f (typically
    t^alpha); larger values push the integrand's decay outward, so the
    outer truncation grows accordingly.
    """
    lo, hi = m.spectral_radius_range()
    gamma = m.profile.gamma
    # inner truncation error ~ r_min * |f(0)| * ||A^-1||; decades are cheap,
    # so cut far below the spectral floor (well past the stated margin)
    r_min = min(lo, 1.0) * 1e-12
    r_tail = (_CONTOUR_TAIL_TOL ** (1.0 / gamma)) / max(t_alpha_scale, 1e-300)
    r_max = max(hi * _CONTOUR_MARGIN, r_tail, r_min * 1e4)
    return ContourSpec(
        theta=m.profile.theta,
        r_min=r_min,
        r_max=r_max,
        nodes_per_decade=nodes_per_decade,
    )


def _path_apply(m: AlmostSectorialModel, z, c, x) -> np.ndarray:
    """sum_j c_j (z_j - A)^{-1} x for node and weight arrays z and c.

    On a Jordan block (z - J)^{-1} = [[r, s r^2], [0, r]] with r = 1/(z - lambda),
    so the sum is the symbol F = sum_j c_j r_j with F' = sum_j c_j r_j^2,
    reduced one eigenvalue at a time (no nodes x blocks array is held).
    """
    tiny = 1e-14 * np.maximum(np.abs(z), 1e-300)
    fv, dv = np.empty((2, m.n_blocks), dtype=complex)
    for k, lam in enumerate(m.lam):
        d = z - lam
        hit = np.abs(d) < tiny
        if np.any(hit):
            raise ValueError(f"z={complex(z[np.argmax(hit)])} collides with the spectrum")
        cr = c / d
        fv[k] = np.sum(cr)
        dv[k] = np.sum(cr / d)
    return spectral_apply(m, lambda _: fv, lambda _: dv, x)


def _gamma_path_sum(m, f, c, x, refine=1):
    """Gamma_theta quadrature: the vector, the nodes (lower ray, then upper) and f on them."""
    r = c.radii(refine=refine)
    w = _trapezoid_weights(np.log(r)) * r
    up = cmath.exp(1j * c.theta)
    dn = cmath.exp(-1j * c.theta)
    z = np.concatenate([r * dn, r * up])
    fz = np.broadcast_to(f(z), z.shape)
    coef = fz * np.concatenate([w * dn, -w * up]) / (2.0j * math.pi)
    return _path_apply(m, z, coef, x), z, fz


def calculus_apply(
    m: AlmostSectorialModel,
    f,
    c: ContourSpec,
    x,
    return_error: bool = False,
):
    """f(A) x = (1/2 pi i) int_{Gamma_theta} f(z) (z-A)^{-1} x dz.

    The path runs in along the upper ray and out along the lower one, so
    the spectral sector lies to the left.  ``f`` is called once, on the
    array of path nodes, and may return a scalar, which is broadcast.  With
    ``return_error=True`` also returns the two-grid difference against half
    the node density (an estimate, not a bound; it calls ``f`` once more).
    """
    if c.theta <= m.profile.omega:
        raise ValueError("contour angle theta must exceed the sector angle omega")
    val, z, fz = _gamma_path_sum(m, f, c, x)
    _warn_on_slow_decay(z, fz)
    if not return_error:
        return val
    coarse = _gamma_path_sum(m, f, c, x, refine=0.5)[0]
    return val, float(np.linalg.norm(val - coarse))


def _warn_on_slow_decay(z, fz) -> None:
    # |f(z)| (1 + |z|) at the middle and the outer end of the upper ray
    n = z.size // 2
    fm, fo = (abs(fz[j]) * (1.0 + abs(z[j])) for j in (n + n // 2, -1))
    if fm > 0 and fo > 100.0 * fm:
        warnings.warn(
            "integrand does not satisfy the |f(z)| <= C/(1+|z|) decay "
            "assumed by the functional calculus; result may diverge",
            RuntimeWarning,
            stacklevel=3,
        )


def resolvent_of_power_sum(
    m: AlmostSectorialModel,
    lam: complex,
    alpha: float,
    c: ContourSpec,
    x,
) -> np.ndarray:
    """(lam^alpha + A)^{-1} x as the calculus applied to 1/(lam^alpha + z)."""
    lam_a = complex(lam) ** alpha
    return calculus_apply(m, lambda z: 1.0 / (lam_a + z), c, x)


@dataclass(frozen=True)
class HankelSpec:
    """Hankel path: the hyperbola whose asymptotes lie at +/- theta0."""

    theta0: float

    def __post_init__(self) -> None:
        if not (math.pi / 2.0 < self.theta0 < math.pi):
            raise ValueError(f"theta0 must lie in (pi/2, pi), got {self.theta0}")


# the Hankel trapezoid rule aims at an error e^{-L}; its hyperbola has mu t = mu_t;
# a path may hold at most _HANKEL_MAX_NODES nodes
_HANKEL_L = 36.0
_HANKEL_MU_T = 4.0
_HANKEL_MAX_NODES = 1 << 16


def hankel_propagator(
    m: AlmostSectorialModel,
    alpha: float,
    t: float,
    h: HankelSpec,
    x,
    delta: float = 1.0,
) -> np.ndarray:
    """E_{alpha,delta}(-t^alpha A) x via the Laplace-inversion path integral

        (t^{1-delta}/2 pi i) int e^{lambda t} lambda^{alpha-delta} (lambda^alpha+A)^{-1} x

    by the trapezoid rule in u on lambda(u) = mu (1 + sin(i u - phi)), the
    hyperbola with asymptotes at +/- theta0 (phi = theta0 - pi/2, mu = mu_t/t;
    Weideman and Trefethen, Math. Comp. 76 (2007)).  On the strip |Im u| < d
    the asymptotes stay within [pi/2, (pi - theta)/alpha], clear of the poles
    of (lambda^alpha + A)^{-1}.  The step balances the discretization error
    e^{mu_t - 2 pi d / step} against e^{-L}, and the path is cut where
    e^{lambda t} has fallen to e^{-L}.  The node count grows like
    log(1/phi)/d as theta0 nears either end of its range; a path that would
    need more than ``_HANKEL_MAX_NODES`` nodes raises ``ValueError``.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    if not (1.0 < alpha < 2.0):
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    theta_model = m.profile.theta
    if not (math.pi / 2.0 < h.theta0 < (math.pi - theta_model) / alpha):
        raise ValueError(
            f"theta0={h.theta0} outside (pi/2, (pi - theta)/alpha) for "
            f"theta={theta_model}, alpha={alpha}"
        )
    phi = h.theta0 - math.pi / 2.0
    d = min(phi, (math.pi - theta_model) / alpha - h.theta0)
    step = 2.0 * math.pi * d / (_HANKEL_L + _HANKEL_MU_T)
    n = math.ceil(math.acosh((1.0 + _HANKEL_L / _HANKEL_MU_T) / math.sin(phi)) / step)
    if 2 * n + 1 > _HANKEL_MAX_NODES:
        raise ValueError(
            f"theta0={h.theta0} needs {2 * n + 1} Hankel nodes, more than "
            f"{_HANKEL_MAX_NODES}; move it away from the ends of its range"
        )
    iu = 1j * step * np.arange(-n, n + 1)
    mu = _HANKEL_MU_T / t
    lam = mu * (1.0 + np.sin(iu - phi))
    c = step * 1j * mu * np.cos(iu - phi)  # d lambda
    c *= np.exp(lam * t)
    # (lambda^alpha + A)^{-1} = -(z - A)^{-1} at z = -lambda^alpha
    c *= lam ** (alpha - delta) / (-2.0j * math.pi)
    return t ** (1.0 - delta) * _path_apply(m, -(lam**alpha), c, x)

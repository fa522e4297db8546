"""Holomorphic functional calculus by contour quadrature.

Two integration paths, each its own mirror image under conjugation:

* ``Gamma_theta``: the pair of rays r e^{+/- i theta}, for f(A)x with f
  decaying like 1/(1+|z|) on the rays; geometric nodes, trapezoid rule in
  log r.  ``calculus_apply`` serves any such f on truncated rays.  The
  propagator route (``_gamma_propagator``) serves E_{alpha,delta}(-t^alpha z)
  on the same lattice over the whole line in log r, and sums the nodes
  below the spectrum and far above it in closed form.
* Hankel path ``Gamma_theta0``: the hyperbola with asymptotes at +/- theta0
  in (pi/2, pi), for the Laplace-type propagator representation; trapezoid
  rule in its parameter, with step and node count set by the target
  accuracy (Weideman and Trefethen, Math. Comp. 76 (2007)).

Every node sum sum_j c_j (z_j - A)^{-1} x goes to one kernel,
``_path_symbols``, as the lower half of its path and the weights of that
half's mirror image, and comes back as one symbol pair for the model's
applicator.  On Gamma_theta, f is called once, on the nodes of both rays.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .fractional import _trapezoid_weights
from .mittag_leffler import MLParams, _asymptotic_table, _series_table, ml_eval
from .operator_model import AlmostSectorialModel, _check_vector, _symbol_apply

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


def default_contour(m: AlmostSectorialModel, t_alpha_scale: float = 1.0) -> ContourSpec:
    """Contour covering the model's spectral range with truncation margin.

    ``t_alpha_scale`` is the factor multiplying z inside f (typically
    t^alpha); larger values push the integrand's decay outward, so the
    outer truncation grows accordingly.  A growth order gamma so close to 0
    that r_max is not a finite float raises ``ValueError``.
    """
    lo, hi = m.spectral_radius_range()
    gamma = m.profile.gamma
    # inner truncation error ~ r_min * |f(0)| * ||A^-1||; decades are cheap,
    # so cut far below the spectral floor (well past the stated margin)
    r_min = min(lo, 1.0) * 1e-12
    # r_tail = _CONTOUR_TAIL_TOL^(1/gamma) / t_alpha_scale, in logs
    log_tail = math.log(_CONTOUR_TAIL_TOL) / gamma - math.log(max(t_alpha_scale, 1e-300))
    if not log_tail <= math.log(sys.float_info.max):
        raise ValueError(
            f"gamma={gamma} with t_alpha_scale={t_alpha_scale} puts the "
            f"contour's r_max beyond the floats"
        )
    r_max = max(hi * _CONTOUR_MARGIN, math.exp(log_tail), r_min * 1e4)
    return ContourSpec(theta=m.profile.theta, r_min=r_min, r_max=r_max)


# eigenvalue points per block of the Cauchy sums: blocks of 4-16 time
# alike, and a block's nodes x points arrays stay small
_POINT_BLOCK = 8


def _cauchy_sums(z, w, q, lam):
    """(sum_j w_j r_j, sum_j w_j r_j^2), r_j = 1/(z_j - q), for each point of
    ``q`` and column of ``w``, one reciprocal per (node, point), in blocks of
    ``_POINT_BLOCK`` points.  A node within 1e-14 |z_j| of a point raises
    ``ValueError`` naming z_j, or conj(z_j) at a point not in ``lam``."""
    tiny = 1e-14 * np.maximum(np.abs(z), 1e-300)
    out = np.empty((2, q.size, w.shape[1]), dtype=complex)
    for i in range(0, q.size, _POINT_BLOCK):
        r = z - q[i : i + _POINT_BLOCK, None]
        hit = np.abs(r) < tiny
        if np.any(hit):
            k, j = np.argwhere(hit)[0]
            node = z[j] if q[i + k] in lam else z[j].conjugate()
            raise ValueError(f"z={complex(node)} collides with the spectrum")
        np.divide(1.0, r, out=r)
        out[0, i : i + _POINT_BLOCK] = r @ w
        out[1, i : i + _POINT_BLOCK] = (r * r) @ w
    return out


def _path_symbols(m: AlmostSectorialModel, z, a, b):
    """The symbol pair (sum_j c_j r_j, sum_j c_j r_j^2), r_j = 1/(z_j - lambda),
    of sum_j c_j (z_j - A)^{-1} at the eigenvalues, over the nodes ``z``
    with weights ``a`` and their mirror images conj(z) with weights ``b``.

    The mirror half's sum at lambda is the conjugate of the sum over z with
    weights conj(b) at conj(lambda), so both are sums over z, at each point
    of the eigenvalues and their conjugates once; one weight column serves
    both where b is, bit for bit, conj(a).  A node within 1e-14 |z_j| of an
    eigenvalue raises ``ValueError``.
    """
    q, at = np.unique(np.concatenate([m.lam, m.lam.conj()]), return_inverse=True)
    bc = b.conj()
    w = a[:, None] if np.array_equal(bc, a) else np.stack([a, bc], axis=1)
    s = _cauchy_sums(z, w, q, m.lam)
    at = at.reshape(2, -1)
    return s[:, at[0], 0] + s[:, at[1], -1].conj()


def _gamma_path_sum(m, f, c, x, refine=1):
    """Gamma_theta quadrature: the vector, the nodes (lower ray, then upper) and f on them."""
    r = c.radii(refine=refine)
    w = _trapezoid_weights(np.log(r)) * r
    up = cmath.exp(1j * c.theta)
    dn = cmath.exp(-1j * c.theta)
    z = np.concatenate([r * dn, r * up])
    fz = np.broadcast_to(f(z), z.shape)
    bad = ~np.isfinite(fz)
    if np.any(bad):
        raise ValueError(f"f is not finite at the node z={complex(z[bad][0])}")
    a, b = np.split(fz * np.concatenate([w * dn, -w * up]) / (2.0j * math.pi), 2)
    return _symbol_apply(m, *_path_symbols(m, z[: r.size], a, b), _check_vector(m, x)), z, fz


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
    array of path nodes, and may return a scalar, which is broadcast; a
    value that is not finite raises ``ValueError`` naming its node.  With
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
    # |f(z)| (1 + |z|) over the outer quarter (in log |z|) of the upper ray:
    # a bounded one may still rise steeply before it levels off
    n = z.size // 2
    fm, fo = (abs(fz[j]) * (1.0 + abs(z[j])) for j in (n + 3 * n // 4, -1))
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


# the Hankel trapezoid rule and the closed ends of the propagator route on
# Gamma_theta aim at an error e^{-L}; the hyperbola has mu t = mu_t; a path
# may hold at most _PATH_MAX_NODES nodes
_HANKEL_L = 36.0
_HANKEL_MU_T = 4.0
_PATH_MAX_NODES = 1 << 16


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
    need more than ``_PATH_MAX_NODES`` nodes raises ``ValueError``, and so
    does a t so small that the path's nodes or weights are not finite, or
    so large that t^alpha is not a finite float (as on the other two
    representations).  u -> -u conjugates the nodes and weights, so only
    u >= 0 is computed, the u = 0 node, its own mirror image, at half weight.
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
    if 2 * n + 1 > _PATH_MAX_NODES:
        raise ValueError(
            f"theta0={h.theta0} needs {2 * n + 1} Hankel nodes, more than "
            f"{_PATH_MAX_NODES}; move it away from the ends of its range"
        )
    if not alpha * math.log(t) < math.log(sys.float_info.max):
        raise ValueError(f"t={t}: t^alpha is not a finite float")
    # the nodes and weights for u >= 0, u -> -u conjugates both; from the
    # far end in, so the sums take the weights that e^{lambda t} shrinks first
    iu = 1j * step * np.arange(n, -1, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        mu = _HANKEL_MU_T / t
        lam = mu * (1.0 + np.sin(iu - phi))
        c = step * 1j * mu * np.cos(iu - phi)  # d lambda
        c *= np.exp(lam * t)
        # (lambda^alpha + A)^{-1} = -(z - A)^{-1} at z = -lambda^alpha
        c *= lam ** (alpha - delta) / (-2.0j * math.pi)
        z = -(lam**alpha)
        scale = np.float64(t) ** (1.0 - delta)
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(c)) and np.isfinite(scale)):
        raise ValueError(f"t={t}: the Hankel path's nodes or weights are not finite")
    c[-1] *= 0.5  # the u = 0 node is its own mirror image
    return scale * _symbol_apply(m, *_path_symbols(m, z, c, c.conj()), _check_vector(m, x))


def _outer_reach(alpha: float, delta: float, theta: float) -> float:
    """log W: for |w| >= W on the rays arg w = +/-(pi - theta), the
    exponential branch term (1/alpha) w^((1-delta)/alpha) e^{w^(1/alpha)} of
    E_{alpha,delta}(w) is below e^{-L}, and so is the first term left out of
    the algebraic expansion, times |w|, at some truncation order.

    The branch term falls like e^{-c s}, s = |w|^(1/alpha), c =
    -cos((pi - theta)/alpha) > 0, and W solves c s - max(0, 1 - delta) log s
    = L (fixed-point iteration from below, monotone).  The expansion's term k
    is at most |Gamma(1 - delta + alpha k)| / (pi |w|^k).
    """
    c = -math.cos((math.pi - theta) / alpha)
    b = max(0.0, 1.0 - delta)
    s = _HANKEL_L / c
    while (s_next := (_HANKEL_L + b * math.log(s)) / c) > s:
        s = s_next
    log_gamma = np.array(_asymptotic_table(alpha, delta)[1])
    k = np.arange(1, log_gamma.size)
    return max(alpha * math.log(s), float(np.min((log_gamma[1:] + _HANKEL_L) / k)))


def _gamma_propagator(m: AlmostSectorialModel, alpha: float, t: float, x, delta: float = 1.0):
    """E_{alpha,delta}(-t^alpha A) x by the Gamma_theta quadrature of
    ``calculus_apply`` (theta of the model's profile, the step h of
    ``ContourSpec``'s default node density) on the lattice r_j = r_1 e^{jh}
    over the whole line in log r.

    The nodes r_1 <= r_j < R are evaluated, with full trapezoid weights.
    Below r_1 = min(lo/4, 1/t^alpha) (lo, hi the smallest and largest
    eigenvalue moduli) f(z) = E_{alpha,delta}(-t^alpha z) is its Taylor
    series, which sums there without cancellation (t^alpha |z| <= 1), and
    1/(z - lambda) = -sum_k z^k / lambda^(k+1); from R = max(4 hi,
    W/t^alpha) (``_outer_reach``) on, f is its algebraic expansion
    -sum_i (-t^alpha z)^(-i) / Gamma(delta - alpha i) and 1/(z - lambda) =
    sum_k lambda^k z^(-k-1).  Both geometric series in lambda shrink at
    least 4-fold per term, and stop at e^{-L}.  Each end is then a double
    series in powers of the node, z^p, and the nodes of a ray sum them in
    closed form: sum_{j>=1} (r_1 e^{-jh})^p = r_1^p / expm1(hp) below,
    sum_{j>=0} (r_N e^{jh})^(-q) = r_N^(-q) / -expm1(-hq) above.  With the
    two rays together each end is a power series in 1/lambda or lambda,
    differentiated termwise for the symbol's lambda-derivative, and its
    coefficients are one small matrix product.

    r_1 follows 1/t^alpha down for large t, so the node count grows with
    log t, because the nodes near 1/t^alpha carry a share of the result of
    order one: the truncated rays of ``default_contour``, which stop at
    1e-12 min(lo, 1), lose it as t^alpha nears 1e12 / min(lo, 1) (README
    ladder, delta = 1: 0.7 % off at t^alpha = 1e12, 22 % from 1e30 on).  A
    t whose path would need more than ``_PATH_MAX_NODES`` nodes, or
    non-finite nodes or t^alpha, raises ``ValueError``; so does theta so
    close to pi (1 - alpha/2) that R needs that many.
    """
    theta = m.profile.theta
    lo, hi = m.spectral_radius_range()
    h = math.log(10.0) / ContourSpec.nodes_per_decade
    log_ta = alpha * math.log(t)
    if not log_ta < math.log(sys.float_info.max):
        raise ValueError(f"t={t}: t^alpha is not a finite float")
    log_r1 = min(math.log(lo / 4.0), -log_ta)
    log_end = max(math.log(4.0 * hi), _outer_reach(alpha, delta, theta) - log_ta)
    n = (log_end - log_r1) / h
    if not 2 * n <= _PATH_MAX_NODES:
        raise ValueError(
            f"t={t} needs {2 * n:.3g} Gamma_theta nodes, more than {_PATH_MAX_NODES}"
        )
    n = math.ceil(n)
    log_rn = log_r1 + n * h
    if not log_rn < math.log(sys.float_info.max):
        raise ValueError(f"t={t}: the Gamma_theta path's nodes are not finite")
    # the evaluated nodes of the lower ray and their weights; f has real
    # Taylor coefficients, so the upper ray's are their conjugates
    z = np.exp(log_r1 + h * np.arange(n)) * cmath.exp(-1j * theta)
    c = h * z * ml_eval(MLParams(alpha, delta), -math.exp(log_ta) * z) / (2.0j * math.pi)
    fv, dv = _path_symbols(m, z, c, c.conj())
    lam = m.lam
    # below r_1: u = r_1/lambda, a_i = (-t^alpha r_1)^i / Gamma(alpha i + delta),
    # the end is sum_k b_k u^(k+1), b_k = sum_i g_{i+k+1} a_i, with the two
    # rays' node sums g_p = (h/pi) sin(p theta) / expm1(hp)
    coef, radii = _series_table(alpha, delta, 0)
    x1 = math.exp(log_ta + log_r1)
    nf = int(np.searchsorted(radii, x1, "right"))
    a = coef[:nf] * (-x1) ** np.arange(nf)
    k = np.arange(1, math.ceil(_HANKEL_L / (math.log(lo) - log_r1)) + 3)
    p = k[:, None] + np.arange(nf)
    b = (h / math.pi) * np.sin(p * theta) / np.expm1(h * p) @ a
    u = np.vander(math.exp(log_r1) / lam, k.size + 1, increasing=True)[:, 1:]
    fv += u @ b
    dv -= u @ (k * b) / lam
    # at and above r_N: v = lambda/r_N, beta_i = -(-t^alpha r_N)^(-i) /
    # Gamma(delta - alpha i) for i up to the first term below e^{-L}/|w|,
    # the end is sum_k c_k v^k, c_k = sum_i g_{i+k} beta_i, with the node
    # sums g_q = (h/pi) sin(q theta) / -expm1(-hq)
    rgamma, log_gamma = _asymptotic_table(alpha, delta)
    log_xn = log_ta + log_rn
    bound = np.array(log_gamma[1:]) - np.arange(1, len(log_gamma)) * log_xn
    na = 1 + int(np.argmax(bound <= max(-_HANKEL_L, bound.min())))
    beta = -np.array(rgamma[:na]) * (-math.exp(-log_xn)) ** np.arange(1, na + 1)
    k = np.arange(math.ceil(_HANKEL_L / (log_rn - math.log(hi))) + 2)
    q = k[:, None] + np.arange(1, na + 1)
    cq = (h / math.pi) * np.sin(q * theta) / -np.expm1(-h * q) @ beta
    v = np.vander(lam / math.exp(log_rn), k.size, increasing=True)
    fv += v @ cq
    dv += v @ (k * cq) / lam
    return _symbol_apply(m, fv, dv, _check_vector(m, x))

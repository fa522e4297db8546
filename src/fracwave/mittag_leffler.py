"""Two-parameter Mittag-Leffler function on the complex plane.

Values and derivatives of every order 0..4 share one array kernel, and one
call serves any set of orders at the same points: ``ml_eval`` asks for order
0, ``ml_derivative`` for one order, and the spectral symbols of
``propagators`` for orders 0 and 1 together.  A scalar argument is a 0-d
array; an array is cut into chunks of at most ``_CHUNK`` points, so the
working memory does not grow with the call.  Each point of a chunk lands,
for each order, in one of four regimes, tried in the order listed, and its
result does not depend on the other points of the chunk or on the other
orders asked for:

* ``|z| <= min(12, 8**alpha)``: the termwise differentiated Taylor series
  in doubles, by one numpy Horner loop per order over every point of the
  disc.  Each point sums only the terms its modulus needs
  (``_series_table``).  The same loop accumulates ``S = sum |c_k| |z|^k``,
  and a point is accepted only if ``8 * 2**-53 * S <= tol * |value|``, the
  Horner error bound in the running form of Higham, *Accuracy and
  Stability of Numerical Algorithms*, section 5.1; the factor 8 also covers
  the rounding of the coefficients.
* every point of orders 0 and 1 the series leaves with |z| >= 1, for
  1 < alpha < 2: the residues plus the real-axis integral along the branch
  cut (``_Cut``) at tau = 1, the representation the Duhamel term's
  exponential sums are built from, accepted on the running bound of the
  series.  One pass over the points either order left serves both, since
  the first derivative's sums hold the value's.  The node weights depend on
  a point only through arg z, so they are built once per distinct arg z of
  the chunk: ~0.3 ms per call and a few microseconds per point on a shared
  ray.
* outside the disc, orders 0 and 1, the points the cut rejects, or all of
  them for alpha outside (1, 2): algebraic asymptotic series truncated at
  its smallest term, plus the exponential branch contributions
  ``(1/alpha) s^(1-delta) exp(s)`` for every branch
  ``s = z^(1/alpha) * exp(2*pi*i*m/alpha)`` lying in the principal sector.
  The branch terms decay in the sector ``mu <= |arg z| <= pi`` but are kept
  because they dominate the truncation error of the algebraic tail at
  moderate modulus.  The coefficients and envelope terms are cached per
  ``(alpha, delta)``; each point stops at its own smallest term.  One term
  loop serves both orders, each with its own stopping lanes.  The loop
  costs about a millisecond per call whatever the number of points, which
  is why it comes after the cut.
* everything else, in practice orders 2..4 outside the disc and alpha
  outside (1, 2), falls back one point at a time to an arbitrary-precision
  Taylor sum in mpmath, with the working precision chosen from the largest
  series term.  mpmath is imported on the first such point.  A point whose
  largest term would need more than ~400 digits raises ``ValueError``.

The expansion and the cut also accept a point whose error bound lies below
the subnormal spacing, whatever its relative error: its rounded value, 0
included, is then the answer, as far out as the double range holds a point.

All branch powers use the principal argument in ``(-pi, pi]``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MLParams",
    "BoundReport",
    "ml_eval",
    "ml_derivative",
    "reciprocal_gamma",
    "ml_sector_bound_check",
]

#: relative accuracy demanded of the asymptotic expansion before the
#: arbitrary-precision fallback kicks in
_ASYMPTOTIC_RTOL = 1e-13

_MAX_SERIES_TERMS = 400

#: an asymptotic lane stops once its envelope term is this far below its sum
_NEGLIGIBLE = 2.0**-60

#: the double series is accepted if _SERIES_BOUND * S <= tol * |value|
_SERIES_BOUND = 8.0 * 2.0**-53

#: the spacing of the subnormal doubles: a lane of the expansion or the cut
#: whose error bound lies below it is accepted whatever its value, 0 included,
#: since the value it rounds to is then the answer
_SUBNORMAL = 2.0**-1074

#: the largest |z|^(1/alpha) the arbitrary-precision sum takes on.  Past
#: -log(_SUBNORMAL) = 744.4 the expansion's exponentially small remainder lies
#: below every subnormal, so orders 0 and 1 are the double regimes' there; the
#: ceiling leaves room for the orders 2..4 this sum serves (E''_{2,1}(6e5),
#: at 775, overflows to inf).  A sum at the ceiling takes ~15 s (order 2,
#: alpha 1.5, arg z = 0.95 pi, on a 2-core x86-64 host)
_MP_MAX_ROOT = 900.0

#: a point's series stops once the next term is 2**-64 below an earlier one
_TAIL_NATS = 64.0 * math.log(2.0)

#: points per chunk of an array call
_CHUNK = 4096

#: relative accuracy of the branch-cut sums and of the g_beta sums of ``fractional``
_CUT_EPS = 1e-15

# e^{-r tau} decays in the strip |Im log r| < pi/2 of the cut integral; the
# trapezoid step in log r is set for a strip of 0.85 of that half-width.  It
# serves the g_beta sums too, whose L1 norm on |Im log r| = d is cos(d)^(beta-1)
# of the value: at this d, their step 2 pi d / log(2 cos(d)^(beta-1) / eps) > 0.228
_CUT_GAP = math.pi / 2.0
_CUT_STRIP = 0.85 * _CUT_GAP
_CUT_STEP = 2.0 * math.pi * _CUT_STRIP / (
    math.log(1.0 + 4.0 / (_CUT_GAP - _CUT_STRIP)) - math.log(_CUT_EPS)
)

#: lattice offsets, in fractions of a step, tried to keep the corrected poles
#: of the blocks sharing one lattice off its nodes
_OFFSETS = 16

#: the cut sums sum their nodes below log r = _CUT_TAIL in closed form, one
#: row per term in (r^alpha / lambda)^m r^p, m < _TAIL_Q, p < _TAIL_R
_CUT_TAIL, _TAIL_Q, _TAIL_R = math.log(1e-4), 4, 5
_TAIL_M, _TAIL_P = np.divmod(np.arange(float(_TAIL_Q * _TAIL_R)), _TAIL_R)

#: a tile of the cut sums, nodes times points, and a table of their weights,
#: nodes times rays, hold about this many bytes per complex array
_CUT_TILE_BYTES = 1 << 16


@dataclass(frozen=True)
class MLParams:
    """Order pair (alpha, delta) of ``E_{alpha,delta}``."""

    alpha: float
    delta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.delta)):
            raise ValueError("alpha and delta must be finite")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class BoundReport:
    """Empirical constant and log-log slope from a bound sweep."""

    constant: float
    slope: float
    n_samples: int


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x; ``ValueError`` unless
    every x and y is positive and finite and two x are distinct."""
    if not (np.all((0 < x) & (x < np.inf) & (0 < y) & (y < np.inf)) and np.unique(x).size > 1):
        raise ValueError("a log-log slope needs positive finite values at two distinct abscissae")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x) for real scalar x: 0 at the poles 0, -1, -2, ... and where
    Gamma overflows, +-inf where it underflows."""
    try:
        return 1.0 / math.gamma(x)
    except ValueError:  # a pole
        return 0.0
    except OverflowError:  # x > 171.6, or x so small that 1/Gamma(x) = x
        return 0.0 if x > 1.0 else x
    except ZeroDivisionError:  # far below 0, Gamma(x) rounds to a signed 0
        return math.copysign(math.inf, math.gamma(x))


def _finite_array(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    bad = ~np.isfinite(z)
    if bad.any():
        raise ValueError(f"argument must be finite, got {complex(z[bad][0])}")
    return z


@functools.lru_cache(maxsize=64)
def _series_table(alpha: float, delta: float, order: int):
    """Coefficients of the ``order``-th derivative series and its term counts.

    ``c[j] = (j+order)!/j! / Gamma(alpha (j+order) + delta)`` multiplies
    ``z**j``.  A point of modulus ``r`` sums the first
    ``searchsorted(radii, r, "right")`` terms, ``len(c)`` meaning the cap was
    reached.  Term ``n`` is left out, with all later ones, once it is smaller
    than term ``n - 1`` and ``2**-64`` below an earlier term.  Past the poles
    of 1/Gamma, log|c_j| is concave in j, so from there on the terms fall
    by at least a constant ratio and the tail is negligible against ``S``.
    Both conditions hold for all ``r`` below a radius, so the term count
    grows with ``r``.
    """
    k = np.arange(order, _MAX_SERIES_TERMS)
    falling = np.array([math.perm(j, order) for j in k], dtype=float)
    c = falling * np.array([reciprocal_gamma(alpha * j + delta) for j in k.tolist()])
    # coefficients that underflow to 0 count as 1e-300
    logc = np.log(np.maximum(np.abs(c), 1e-300))
    log_radii = np.full(c.size, -np.inf)
    for n in range(1, c.size):
        if alpha * (n - 1 + order) + delta <= 0.0:
            continue
        below = np.max((logc[:n] - logc[n] - _TAIL_NATS) / np.arange(n, 0, -1))
        log_radii[n] = min(logc[n - 1] - logc[n], below)
    radii = np.exp(np.maximum.accumulate(np.minimum(log_radii, 700.0)))
    return c, radii


def _series(alpha: float, delta: float, z: np.ndarray, r: np.ndarray, order: int):
    """The double Taylor series by Horner's rule; returns (values, accepted).

    Lanes are sorted by term count, so the lanes still summing at degree
    ``j`` are a suffix; a lane enters its first term from zero, as a lone
    point does.  The complex product is not taken in place: numpy's
    in-place product of one element rounds differently from its array loop.
    """
    c, radii = _series_table(alpha, delta, order)
    n = np.searchsorted(radii, r, side="right")
    perm = np.argsort(n, kind="stable")
    z, r, n = z[perm], r[perm], n[perm]
    value = np.zeros_like(z)
    bound = np.zeros_like(r)  # S = sum |c_j| r^j, by the same recurrence
    counts = [0] + np.unique(n).tolist()
    for i in range(len(counts) - 1, 0, -1):
        # degrees counts[i-1] <= j < counts[i] are summed by the lanes from lo on
        lo = np.searchsorted(n, counts[i])
        v, b, zz, rr = value[lo:], bound[lo:], z[lo:], r[lo:]
        for j in range(counts[i] - 1, counts[i - 1] - 1, -1):
            v = v * zz + c[j]
            b = b * rr + abs(c[j])
        value[lo:], bound[lo:] = v, b
    tol = 1e-11 if order else 1e-13
    ok = (n < c.size) & (_SERIES_BOUND * bound <= tol * np.abs(value))
    values, accepted = np.empty_like(value), np.empty_like(ok)
    values[perm], accepted[perm] = value, ok
    return values, accepted


@functools.lru_cache(maxsize=64)
def _asymptotic_table(alpha: float, delta: float):
    """``1/Gamma(delta - alpha k)`` and ``log|Gamma(1 - delta + alpha k)| - log pi``
    for ``1 <= k < 200``, the log +inf at the poles of Gamma."""
    x = [delta - alpha * k for k in range(1, 200)]
    log_gamma = [math.lgamma(1.0 - v) if 1.0 - v > 0.0 or v % 1.0 else math.inf for v in x]
    return [reciprocal_gamma(v) for v in x], [h - math.log(math.pi) for h in log_gamma]


def _exponential_branch_terms(alpha: float, delta: float, z, root, angs, order: int):
    """Sum of residue contributions (1/alpha) s^(1-delta) e^s over admissible
    branches s = ``root`` e^{i angs}, for ``order`` 1 differentiated in z."""
    val = np.zeros(z.shape, dtype=complex)
    dval = np.zeros(z.shape, dtype=complex)
    for ang in angs:
        live = np.abs(ang) <= math.pi * (1.0 + 1e-14)
        if not live.any():
            continue
        re = root * np.cos(ang)
        hot = live & (re > 700.0)
        if hot.any():
            raise OverflowError(f"exp branch overflows for z={complex(z[hot][0])}, alpha={alpha}")
        im = root * np.sin(ang)
        # a branch sitting exactly on the contour counts with half weight
        weight = np.where(np.abs(np.abs(ang) - math.pi) <= 1e-14, 0.5, 1.0) / alpha
        # s^(1-delta) e^s, with arg s = ang on the principal branch
        mag = weight * root ** (1.0 - delta) * np.exp(np.where(live, re, -np.inf))
        phase = (1.0 - delta) * ang + im
        base = np.where(live, mag * (np.cos(phase) + 1j * np.sin(phase)), 0.0)
        val += base
        if order:
            # d/dz of (1/alpha) s^(1-delta) e^s with ds/dz = s/(alpha z)
            dval += base * (1.0 - delta + (re + 1j * im)) / (alpha * z)
    return val, dval


def _smaller_part(v: np.ndarray, real_axis: np.ndarray) -> np.ndarray:
    """min(|Re v|, |Im v|), or |Re v| where the imaginary part stays 0."""
    re = np.abs(v.real)
    return np.where(real_axis, re, np.minimum(re, np.abs(v.imag)))


def _asymptotic(alpha: float, delta: float, z: np.ndarray, r: np.ndarray, orders):
    """Algebraic expansion + exponential branches for each of ``orders``
    (0, 1 or both); returns (values, accepted), one row per order.

    Each point stops at its own smallest term.  Terms whose Gamma argument
    sits exactly on a pole vanish and are excluded from the smallest-term
    truncation logic.  The envelopes, powers and branch terms are shared;
    each order keeps its own lanes, sums and smallest term, so a row is the
    one that order alone would give.
    """
    coefs, log_envelope = _asymptotic_table(alpha, delta)
    real_axis = z.imag == 0.0  # every term is real there
    inv = 1.0 / z
    log_absz = np.log(r)
    # per order: the lanes still summing, the algebraic sum and that of its
    # derivative (order 1 only), the smallest envelope term so far and
    # whether every term taken sat on a Gamma pole
    active = [np.ones(r.shape, dtype=bool) for _ in orders]
    total = [np.zeros_like(z) for _ in orders]
    dtotal = [np.zeros_like(z) for _ in orders]
    smallest_env = [np.full(r.shape, np.inf) for _ in orders]
    all_poles = [np.ones(r.shape, dtype=bool) for _ in orders]
    derivative = 1 in orders
    zk = inv
    prev_env = np.inf
    env_sum = 0.0
    # lanes past their last term keep running in the arithmetic below; their
    # overflows and NaNs are masked out
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, (coef, h) in enumerate(zip(coefs, log_envelope), 1):
            # envelope of |z^-k / Gamma(x)| with the reflection sine set to 1;
            # the realized terms can dip far below it, so the truncation error
            # must be judged against the envelope, not the terms themselves
            log_env = h - k * log_absz
            env = np.where(log_env < 700.0, np.exp(log_env), np.inf)
            if k > 2:
                falling = ~(env > prev_env)
                for lanes in active:
                    lanes &= falling
                if not any(lanes.any() for lanes in active):
                    break
            if coef != 0.0 and math.isfinite(coef):
                nonzero = zk != 0.0
                term = zk * coef
                for i, order in enumerate(orders):
                    live = active[i] & nonzero
                    all_poles[i] &= ~live
                    total[i] = np.where(live, total[i] - term, total[i])
                    if order:
                        dtotal[i] = np.where(live, dtotal[i] + k * zk * inv * coef, dtotal[i])
            prev_env = env
            # an order-1 lane is judged on its derivative's envelope (k + 1) env / |z|
            env_d = env * (k + 1) / r if derivative else None
            for i, order in enumerate(orders):
                env_k = env_d if order else env
                smallest_env[i] = np.where(
                    active[i], np.minimum(smallest_env[i], env_k), smallest_env[i]
                )
            zk = zk * inv
            if k > 2:
                nonzero = zk != 0.0
                for lanes in active:
                    lanes &= nonzero
            env_sum = env_sum + env  # bounds |total|
            if k > 1 and k & (k - 1) == 0 and np.any(env < _NEGLIGIBLE * env_sum):
                # every later term is below its envelope, which does not rise
                # before the lane stops (its j-th derivative term below
                # j env/|z|); once those bounds are under a quarter ulp of
                # both parts of the sum, no later term changes a bit of it.
                # A lane that qualifies stays qualified, so checking at powers
                # of two is enough.
                for i, order in enumerate(orders):
                    negligible = env < _NEGLIGIBLE * _smaller_part(total[i], real_axis)
                    if order:
                        bound = len(coefs) * env / r
                        negligible &= bound < _NEGLIGIBLE * _smaller_part(dtotal[i], real_axis)
                    active[i] &= ~negligible
        root = r ** (1.0 / alpha)
        # arg s on the sheets |m| <= 3 alpha/4 + 1/2: they reach |arg s| < 3 pi/2
        # (e^s grows past it) and hold every live branch
        k = int(0.75 * alpha + 0.5)
        angs = (np.arctan2(z.imag, z.real) + 2.0 * math.pi * np.arange(-k, k + 1)[:, None]) / alpha
        exp_val, exp_dval = _exponential_branch_terms(alpha, delta, z, root, angs, int(derivative))
        values, errs, judged, tols = [], [], [], []
        for i, order in enumerate(orders):
            part = dtotal[i] if order else total[i]
            values.append(part + (exp_dval if order else exp_val))
            errs.append(smallest_env[i] / (np.abs(values[i]) + np.abs(part)))
            tols.append(10.0 * _ASYMPTOTIC_RTOL if order else _ASYMPTOTIC_RTOL)
            # every coefficient on a Gamma pole (e.g. alpha = 1): the branches are exact;
            # a lane whose whole error lies below the subnormal spacing is its rounding
            ok = (errs[i] <= tols[i]) | (smallest_env[i] < _SUBNORMAL)
            judged.append(~all_poles[i] & ok)
        if any(ok.any() for ok in judged):
            # the Stokes error, which can only reject those lanes: a branch switches on across
            # |arg s| = pi by (1/2) erfc(sqrt(|s|/2) (pi - |arg s|)) (Berry smoothing), not by a
            # step, so each with |arg s| < 3 pi/2 adds its term times (1/2) e^{-|s| u^2/2}
            lanes = np.flatnonzero(np.logical_or.reduce(judged))
            mod, u = root[lanes], np.abs(angs[:, lanes]) - math.pi
            cu = np.cos(u)
            # one exponent, as e^{Re s} = e^{-|s| cos u} may overflow
            expo = (1.0 - delta) * np.log(mod) - math.log(2.0 * alpha) - mod * (cu + 0.5 * u * u)
            bound = np.exp(np.where(u < 0.5 * math.pi, expo, -np.inf))
            if derivative:  # the derivative's terms grow by |1 - delta + s| / (alpha |z|)
                grow = np.hypot(1.0 - delta - mod * cu, mod * np.sin(u)) / (alpha * r[lanes])
            for i, order in enumerate(orders):
                err = (bound * grow if order else bound).sum(axis=0)
                rel = errs[i][lanes] + err / np.abs(values[i][lanes]) <= tols[i]
                judged[i][lanes] &= rel | (smallest_env[i][lanes] + err < _SUBNORMAL)
        accepted = [ok | poles for ok, poles in zip(judged, all_poles)]
    return values, accepted


@functools.lru_cache(maxsize=64)
def _coefficient_prefix(alpha: float, delta: float, dps: int) -> list:
    # one list per working precision, extended in place by _mp_coefficients:
    # the k-th value does not depend on how many follow it
    return []


def _mp_coefficients(alpha: float, delta: float, n: int, dps: int) -> list:
    """The first ``n`` values ``1/Gamma(alpha k + delta)`` at ``dps`` digits."""
    import mpmath  # loaded on the first fallback point, not with the module

    coef = _coefficient_prefix(alpha, delta, dps)
    if len(coef) < n:
        with mpmath.workdps(dps):
            a = mpmath.mpf(alpha)
            coef.extend(mpmath.rgamma(a * k + delta) for k in range(len(coef), n))
    return coef


def _series_mp(alpha: float, delta: float, z: complex, order: int = 0) -> complex:
    """Arbitrary-precision Taylor sum; ``order`` differentiates termwise.

    Working precision starts a safe margin above the largest-term magnitude
    and is doubled while cancellation still swamps the result; the term
    count is grown while the last term is not negligible.  A ``z`` with
    |z|^(1/alpha) past ``_MP_MAX_ROOT`` raises ``ValueError`` instead.
    """
    z = complex(z)
    r = abs(z)
    if r > 0.0 and math.log(r) > alpha * math.log(_MP_MAX_ROOT):
        raise ValueError(
            f"z={z}: |z|^(1/alpha) exceeds {_MP_MAX_ROOT:g}, past the precision "
            f"of the arbitrary-precision sum (alpha={alpha}, delta={delta}, order {order})"
        )
    import mpmath

    peak_digits = int(0.4343 * r ** (1.0 / alpha)) + 10
    n_terms = int(3.0 * r ** (1.0 / alpha) / alpha) + 80
    dps = peak_digits + 30
    while True:
        coef = _mp_coefficients(alpha, delta, n_terms, dps)
        with mpmath.workdps(dps):
            zz = mpmath.mpc(z)
            total = mpmath.mpc(0)
            zk = mpmath.mpc(1)
            term = mpmath.mpc(0)
            for k in range(order, n_terms):
                term = math.perm(k, order) * zk * coef[k]
                total += term
                zk *= zz
            # the tail must be negligible at the working precision
            tail_ok = abs(term) < mpmath.mpf(10) ** (peak_digits - dps + 15) * (1 + abs(total))
            # catastrophic cancellation relative to the working precision
            ok = abs(total) > mpmath.mpf(10) ** (peak_digits - dps + 20)
            result = complex(total)
        if not tail_ok and n_terms < 200_000:
            n_terms = n_terms * 2 + 100
            continue
        if ok or abs(result) == 0.0 or dps > 8 * peak_digits + 400:
            return result
        dps *= 2


def _sin_pi(x: float) -> float:
    """sin(pi x) from the reduced argument, so exactly 0 at the integers."""
    n = round(x)
    s = math.sin(math.pi * (x - n))
    return -s if n % 2 else s


class _Cut:
    """``E_{alpha,delta}`` by its residues and the integral along its branch cut.

    For 1 < alpha < 2, delta < alpha + 1 and each column's lambda, of
    argument ``arg`` and log-modulus ``log_modulus`` (a scalar serves every
    column), tau^(delta-1) E_{alpha,delta}(-tau^alpha lambda) is

        (1/alpha) sum_sigma sigma^(1-delta) e^{sigma tau} + int_0^inf e^{-r tau} rho(r) dr,
        rho(r) = r^(alpha-delta) [r^alpha sin(pi delta) - lambda sin(pi (alpha-delta))]
                 / (pi (r^alpha + lambda e^{i pi alpha}) (r^alpha + lambda e^{-i pi alpha})),

    over the roots sigma^alpha = -lambda with |arg sigma| < pi (Gorenflo,
    Loutchko and Luchko, Fract. Calc. Appl. Anal. 5 (2002)), the integral by
    the trapezoid rule in x = log r.  In x, rho(r) r has a simple pole at
    x_p = log sigma -+ i pi for every root sigma = |lambda|^(1/alpha) e^{i theta}
    on any sheet, with residue -+sigma^(1-delta)/(2 pi i alpha) (upper signs
    for theta > 0).  Beyond |Im x| = pi/2 e^{-r tau} stops decaying, so the
    step is set for that strip, whatever lambda, and the poles inside it,
    the roots with pi/2 < |theta| < 3 pi/2, are corrected exactly (Trefethen
    and Weideman, SIAM Rev. 56 (2014)): for nodes x0 + j h a pole adds
    W sigma^(1-delta) e^{sigma tau}, W = (1/alpha) / (1 - e^{+-2 pi i (x0 - x_p)/h}),
    1/alpha for a residue far from the cut and 0 for a far non-residue, so
    each such root is one mode whose weight stays finite as sigma crosses
    the cut.  ``gaps`` measures how far the poles stay from the nodes.
    """

    def __init__(self, alpha: float, arg: np.ndarray, log_modulus):
        self.alpha, self.arg = alpha, arg
        self.log_sigma = log_modulus / alpha
        # the roots on the sheets -2..1 and Im x_p of their poles
        theta = (self.arg + math.pi + 2.0 * math.pi * np.arange(-2, 2)[:, None]) / alpha
        sign = np.array([-1.0, -1.0, 1.0, 1.0])[:, None]
        im_p = theta - sign * math.pi
        # the two factors of the density's denominator, each through its pole
        # nearest the axis: r^alpha + lambda e^{-+i pi alpha}
        # = |lambda| e^{i phi} expm1(alpha (x - log|sigma|) - i phi), phi = alpha Im x_p
        self.cols = np.arange(arg.size)
        self.phi = [
            alpha * v[np.argmin(np.abs(v), axis=0), self.cols] for v in (im_p[:2], im_p[2:])
        ]
        # the poles in the strip and the residues
        keep = np.abs(theta) < 1.5 * math.pi
        rows = np.any(keep, axis=1)
        self.theta, sign, self.keep = theta[rows], sign[rows], keep[rows]
        # e = e^{+-2 pi i (x0 - x_p)/h} or its inverse, whichever is at most 1
        self.depth = 2.0 * math.pi * (np.abs(self.theta) - math.pi) / _CUT_STEP
        self.turn = np.where(self.depth > 0.0, -sign, sign)

    def _near(self, d):
        return np.exp(-np.abs(self.depth) + 2j * math.pi * self.turn * d / _CUT_STEP)

    def gaps(self, x_ref: float):
        """Lattice origins, ``_OFFSETS`` fractions of a step below ``x_ref``,
        and for each origin and column the least |1 - e| over the column's
        poles in the strip (+inf without one), shape (offsets, nb): how far
        they stay from a node."""
        shifts = x_ref - _CUT_STEP * np.arange(_OFFSETS) / _OFFSETS
        dist = np.abs(1.0 - self._near(shifts[:, None, None] - self.log_sigma))
        return shifts, np.min(np.where(self.keep, dist, np.inf), axis=1)

    def modes(self, delta: float, x0, j: np.ndarray):
        """The modes of the nodes ``x0 + j h`` for the integers ``j`` (n, 1) or
        (n, nb), ``x0`` a scalar or one origin per column: rates r (n, 1) or
        (n, nb), the trapezoid weights h r rho(r) (n, nb), the pole exponents
        sigma (P, nb) and their weights W sigma^(1-delta) (P, nb), 0 where a
        root is left out."""
        alpha, step = self.alpha, _CUT_STEP
        r = np.exp(x0 + step * j)
        # the nodes less log|sigma|, taken from x0 - log|sigma| rather than from
        # r, so that a node next to a pole and the pole's weight see the same
        # distance where they nearly cancel
        d = (x0 - self.log_sigma) + step * j
        e = self._near(d[np.argmin(np.abs(d), axis=0), self.cols])
        w = np.where(self.depth > 0.0, -e, 1.0) / (alpha * (1.0 - e))
        log_sigma = self.log_sigma + 1j * self.theta
        sigma = np.exp(log_sigma)
        if delta != 1.0:
            w = w * np.exp((1.0 - delta) * log_sigma)
        # h r rho(r) with r^alpha / lambda = e^{u - i arg lambda}; the sines
        # from reduced arguments, so that at delta = 1 the r^alpha term is 0
        u = alpha * d
        ratio = np.exp(u - 1j * self.arg)
        weights = step * -_sin_pi(alpha - delta) / math.pi * ratio
        sin_pd = -_sin_pi(delta - 1.0)
        if sin_pd:
            weights += step * sin_pd / math.pi * ratio * ratio
        if delta != 1.0:
            weights *= r ** (1.0 - delta)
        weights /= np.expm1(u - 1j * self.phi[0]) * np.expm1(u - 1j * self.phi[1])
        sigma_kept = np.where(self.keep, sigma, -np.abs(sigma))
        return r, weights, sigma_kept, np.where(self.keep, w, 0.0)


@functools.lru_cache(maxsize=64)
def _tail_table(alpha: float, delta: float, order: int):
    """The powers s of ``_cut_tail``'s terms, one per (m, p) of ``_TAIL_M``,
    ``_TAIL_P``, their coefficients and the factor of the bound on the terms
    left out, row k of both for the k-th derivative, k <= ``order``."""
    s = alpha - delta + 1.0 + alpha * _TAIL_M + _TAIL_P
    # U_m(-cos(pi alpha)) = sin((m + 1) t) / sin(t), t = pi (alpha - 1)
    t, sd, sad = math.pi * (alpha - 1.0), _sin_pi(delta), _sin_pi(alpha - delta)
    cm = [math.sin(m * t) * sd - math.sin((m + 1) * t) * sad for m in range(_TAIL_Q)]
    c = [x * (-1.0) ** p / math.factorial(p) for x in cm for p in range(_TAIL_R)]
    coef = _CUT_STEP / (math.pi * math.sin(t)) * np.array(c) / np.expm1(s * _CUT_STEP)
    # the k-th derivative's tail terms r^p by 1 - delta + p, its rest by at
    # most (|1 - delta| + P) / alpha, as |z| >= 1
    k = np.arange(order + 1)[:, None]
    rest = (2 * _TAIL_Q + 2) / (3.0 * (alpha - delta + 1.0)) * ((abs(1.0 - delta) + _TAIL_R) / alpha) ** k
    return s, (coef * (1.0 - delta + _TAIL_P) ** k)[:, None], rest


def _cut_tail(alpha: float, delta: float, z: np.ndarray, r_c: np.ndarray, order: int):
    """The nodes x_c - j h, j >= 1, below each point's lowest node r_c <= 1e-4,
    in closed form (delta < alpha, |z| >= 1): the terms, one row per point
    and one column per (m, p) of ``_TAIL_M``, ``_TAIL_P``, and a bound on
    those left out, row k of each for the k-th derivative, k <= ``order``,
    the terms less their factor 1 / (alpha z).  With lambda = -z and
    a = alpha - delta + 1, a node's h r rho(r) e^{-r} is
    h sum_{m,p} C_m lambda^(-m-1) (-1)^p / p! r^s, s = a + m alpha + p,
    C_m = (U_{m-1} sin(pi delta) - U_m sin(pi (alpha - delta))) / pi, U_m the
    Chebyshev polynomials of the second kind at -cos(pi alpha), U_{-1} = 0,
    and the nodes sum r^s to r_c^s / expm1(s h).  As |C_m| <= (2m + 1) / pi,
    h / expm1(s h) <= 1 / a and |r^alpha / lambda| <= r, the terms m >= M or
    p >= P (``_TAIL_Q``, ``_TAIL_R``) sum to below (2M + 2) r_c^(a+M) / (3 a)."""
    s, coef, rest = _tail_table(alpha, delta, order)
    log_rc = np.log(r_c)
    terms = coef * np.exp(s * log_rc[:, None] - (_TAIL_M + 1.0) * np.log(-z)[:, None])
    return terms, rest * np.exp((alpha - delta + 1.0 + _TAIL_Q) * log_rc)


def _cut_sums(alpha: float, delta: float, z: np.ndarray, order: int):
    """The tau = 1 slice of the cut sums at lambda = -z: row k of the two
    results is the k-th derivative, k <= order, and the sum of the moduli of
    its terms.  With F(tau) = tau^(delta-1) E(-tau^alpha lambda),
    F'(1) = (delta-1) E(z) + alpha z E'(z), so the derivative reweights each
    mode w e^{zeta} by (1 - delta + zeta) / (alpha z).  For delta >= alpha,
    where the cut decays slowly at r = 0, E_{alpha,delta}(z) =
    (E_{alpha,delta-alpha}(z) - 1/Gamma(delta-alpha)) / z, without
    cancellation in the decay sector, where E_{alpha,delta-alpha} tends to 0.

    A point's nodes lie at the offsets d = h (j - 1/2) from log|sigma|,
    |sigma| = |z|^(1/alpha), so its poles all sit half a step off them, where
    |1 - rho e^{-+2 pi i o}|, rho <= 1, is largest.  Their weights depend on
    the point only through arg z and d, times |sigma|^(1-delta): they are
    built once per ray, a ``_Cut`` column at |lambda| = 1 for each distinct
    arg z, on a window of j holding its points' nodes and j = 0, from which
    ``modes`` weights the poles.  Each point sums a fixed number of nodes of
    that window on its own row, so its bits do not depend on the other
    points.  The lattice starts within a step below x_c = ``_CUT_TAIL``;
    ``_cut_tail`` sums the nodes below it in closed form, its terms and its
    bound on those it leaves out joining the nodes'.  At the top e^{-r} is
    below eps^2.
    """
    ladder = []  # the deltas above alpha, reached from delta - k alpha
    while delta >= alpha:
        ladder.append(delta)
        delta -= alpha
    step = _CUT_STEP
    n = int(math.ceil((math.log(-2.0 * math.log(_CUT_EPS)) - _CUT_TAIL) / step)) + 2
    # the points sorted by ray, arg lambda = arg(-z): ray k holds edges[k] to edges[k + 1]
    arg = np.angle(-z)
    perm = np.argsort(arg, kind="stable")
    zs, arg = z[perm], arg[perm]
    heads = np.flatnonzero(np.concatenate(([True], arg[1:] != arg[:-1])))
    ray, edges = np.searchsorted(arg[heads], arg), heads.tolist() + [z.size]
    log_sigma = np.log(np.abs(zs)) / alpha
    modulus, scale = np.exp(log_sigma), np.exp((1.0 - delta) * log_sigma)
    # each point's lowest node j, within a step below x_c, and each ray's
    # window of j, from its lowest node to its highest and to j = 0
    first = np.floor((_CUT_TAIL + 0.5 * step - log_sigma) / step).astype(int)
    lo = np.minimum.reduceat(first, heads)
    width = int((np.maximum(np.maximum.reduceat(first, heads), 1 - n) - lo).max()) + n
    group = max(1, _CUT_TILE_BYTES // (16 * width))  # rays per table
    col = ray % group
    pos = col * width + first - lo[ray]  # each point's lowest node in its table
    tile = max(1, _CUT_TILE_BYTES // (16 * (n + _TAIL_Q * _TAIL_R)))  # points per tile
    nodes = np.arange(n)
    values, bounds = np.empty((order + 1, z.size), dtype=complex), np.empty((order + 1, z.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for g in range(0, heads.size, group):
            cut = _Cut(alpha, arg[heads[g : g + group]], 0.0)
            j = lo[g : g + group] + np.arange(width)[:, None]
            unit, w, sigma, pw = cut.modes(delta, -0.5 * step, j)
            # a row per ray of each: the rates at |sigma| = 1, Re w, Im w, |w|
            table = np.concatenate((unit, w.real, w.imag, np.abs(w)), axis=1).T.reshape(4, -1)
            sigma, pw = sigma.T.copy(), pw.T.copy()
            a, b = edges[g], edges[min(g + group, heads.size)]
            tiles = max(1, round((b - a) / tile))
            for i in range(tiles):
                sl = slice(a + (b - a) * i // tiles, a + (b - a) * (i + 1) // tiles)
                t = np.take(table, pos[sl, None] + nodes, axis=1)
                sig, c = modulus[sl], col[sl]
                rates, roots = t[0] * sig[:, None], sigma[c] * sig[:, None]
                f, poles = np.exp(-rates)[None], (pw[c] * np.exp(roots))[None]
                if order:
                    f = np.concatenate((f, f * (1.0 - delta - rates)))
                    poles = np.concatenate((poles, poles * (1.0 - delta + roots)))
                # each point summed over its own contiguous rows, in reals
                terms = t[1:, None] * f
                np.abs(terms[2], out=terms[2])
                re, im, mod = terms.sum(axis=3)
                # the closed tail and the poles, a row per point; e^{sigma}
                # inherits the rounding of sigma, a few ulps of |sigma|
                tail, rest = _cut_tail(alpha, delta, zs[sl], rates[:, 0], order)
                sc = scale[sl]
                v = sc * (re + 1j * im + poles.sum(axis=2)) + tail.sum(axis=2)
                e = sc * (mod + (1.0 + sig) * np.abs(poles).sum(axis=2)) + np.abs(tail).sum(axis=2)
                if order:
                    # not in place: numpy's in-place complex arithmetic on one
                    # element rounds differently from its array loop
                    v[1] = v[1] / (alpha * zs[sl])
                    e[1] /= alpha * np.abs(zs[sl])
                p = perm[sl]
                values[:, p], bounds[:, p] = v, e + rest
    r = np.abs(z)
    for d in reversed(ladder):
        c = reciprocal_gamma(d - alpha)
        values[0] = (values[0] - c) / z
        bounds[0] = (bounds[0] + abs(c)) / r
        if order:
            values[1] = (values[1] - values[0]) / z
            bounds[1] = (bounds[1] + bounds[0]) / r
    return values, bounds


def _cut(alpha: float, delta: float, z: np.ndarray, r: np.ndarray, order: int):
    """The branch-cut representation at tau = 1; returns (values, accepted),
    row k the k-th derivative for k <= ``order`` (0 or 1), each row accepted
    on the running bound of ``_series``."""
    values, bounds = _cut_sums(alpha, delta, z, order)
    tol = np.array([1e-13, 1e-11][: order + 1])[:, None]
    err = _SERIES_BOUND * bounds
    ok = np.isfinite(values) & ((err <= tol * np.abs(values)) | (err < _SUBNORMAL))
    return values, ok


def _ml_chunk(p: MLParams, z: np.ndarray, orders: tuple) -> np.ndarray:
    """The regime dispatch over one chunk of points; row i of the result is
    the derivative of order ``orders[i]`` (0..4).  Each order keeps its own
    set of points no regime has accepted yet.  The series runs once per
    order; for the orders 0 and 1 among them, the cut sums run once, on
    every point with |z| >= 1 one of them left, then the asymptotic
    expansion at most once, on the points outside the disc still left, for
    the orders still missing there."""
    r = np.abs(z)
    out = np.empty((len(orders),) + z.shape, dtype=complex)
    rest = np.ones(out.shape, dtype=bool)  # points no regime has accepted yet

    def accept(i, idx, value, ok):
        out[i, idx[ok]] = value[ok]
        rest[i, idx[ok]] = False

    # the float series loses ~log10(e) * r**(1/alpha) digits to cancellation
    # in the algebraic sector; the disc radius keeps that to ~4 digits
    disc = r <= min(12.0, 8.0**p.alpha)
    idx = np.flatnonzero(disc)
    if idx.size:
        for i, order in enumerate(orders):
            accept(i, idx, *_series(p.alpha, p.delta, z[idx], r[idx], order))
    low = [(i, order) for i, order in enumerate(orders) if order <= 1]
    if low:
        rows = [i for i, _ in low]
        if 1.0 < p.alpha < 2.0:
            # what the series left, where the cut's lattice holds
            idx = np.flatnonzero((r >= 1.0) & rest[rows].any(axis=0))
            if idx.size:
                top = max(order for _, order in low)
                values, oks = _cut(p.alpha, p.delta, z[idx], r[idx], top)
                for i, order in low:
                    accept(i, idx, values[order], oks[order] & rest[i, idx])
        # what the cut left outside the disc, or every point outside it
        idx = np.flatnonzero(~disc & rest[rows].any(axis=0))
        if idx.size:
            need = [(i, order) for i, order in low if rest[i, idx].any()]
            values, oks = _asymptotic(p.alpha, p.delta, z[idx], r[idx], [o for _, o in need])
            for (i, _), value, ok in zip(need, values, oks):
                accept(i, idx, value, ok & rest[i, idx])
    for i, order in enumerate(orders):
        for j in np.flatnonzero(rest[i]):
            out[i, j] = _series_mp(p.alpha, p.delta, complex(z[j]), order)
    # the Taylor coefficients are real, so a real z has a real value; the
    # cut sums' complex factors leave rounding in its imaginary part
    out.imag[:, z.imag == 0] = 0.0
    return out


def _order(order) -> int:
    try:
        k = operator.index(order)
    except TypeError:
        raise ValueError(f"derivative order must be an integer, got {order}") from None
    if not 0 <= k <= 4:
        raise ValueError(f"derivative order must be in 0..4, got {order}")
    return k


def _ml(p: MLParams, z, orders) -> list:
    """The derivatives of the given orders (each 0..4) at a scalar, or
    elementwise over an array, from one regime dispatch: one complex or one
    array shaped like ``z`` per order.  Each is bit-identical to the one
    ``ml_derivative`` gives alone."""
    orders = tuple(_order(k) for k in orders)
    z = _finite_array(z)
    flat = z.ravel()
    out = np.empty((len(orders), flat.size), dtype=complex)
    for lo in range(0, flat.size, _CHUNK):
        out[:, lo : lo + _CHUNK] = _ml_chunk(p, flat[lo : lo + _CHUNK], orders)
    if z.ndim == 0:
        return [complex(v[0]) for v in out]
    return list(out.reshape((len(orders),) + z.shape))


def ml_eval(p: MLParams, z):
    """Evaluate ``E_{alpha,delta}(z)`` at a scalar, or elementwise over an
    array (same shape out)."""
    return _ml(p, z, (0,))[0]


def ml_derivative(p: MLParams, z, order: int):
    """d^order/dz^order of ``E_{alpha,delta}(z)``, order an integer 0..4, at
    a scalar or elementwise over an array (same shape out)."""
    return _ml(p, z, (order,))[0]


def ml_sector_bound_check(p: MLParams, mu: float, samples) -> BoundReport:
    """Empirical check of the algebraic decay bound in the sector
    ``mu <= |arg z| <= pi``.

    Returns the measured constant ``sup |E(z)| * (1 + |z|)`` and the fitted
    log-log slope of ``|E(z)|`` against ``|z|`` over the samples.
    """
    if p.alpha >= 2.0:
        raise ValueError("sector bound requires alpha < 2")
    lo = math.pi * p.alpha / 2.0
    hi = min(math.pi, math.pi * p.alpha)
    if not (lo < mu < hi):
        raise ValueError(f"mu={mu} outside (pi*alpha/2, min(pi, pi*alpha))")
    samples = _finite_array(samples).ravel()
    if not samples.size:
        raise ValueError("empty sample list")
    if np.any(samples == 0):
        raise ValueError("z=0 is not in the sector")
    a = np.abs(np.arctan2(samples.imag, samples.real))
    outside = ~((mu - 1e-12 <= a) & (a <= math.pi + 1e-12))
    if outside.any():
        raise ValueError(f"sample {complex(samples[outside][0])} violates mu <= |arg z| <= pi")
    values = ml_eval(p, samples)
    # np.hypot, not np.abs: its bits are those of the scalar abs(complex)
    mags = np.hypot(samples.real, samples.imag)
    vals = np.hypot(values.real, values.imag)
    constant = float(np.max(vals * (1.0 + mags)))
    pos = vals > 0
    slope = _loglog_slope(mags[pos], vals[pos])
    return BoundReport(constant=constant, slope=slope, n_samples=samples.size)

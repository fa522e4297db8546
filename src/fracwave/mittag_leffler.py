"""Two-parameter Mittag-Leffler function on the complex plane.

Values and derivatives of every order 0..4 share one array kernel.  A
scalar argument is a 0-d array; an array is cut into chunks of at most
``_CHUNK`` points, so the working memory does not grow with the call.  Each
point of a chunk lands in one of three regimes, split by modulus and
argument, and its result does not depend on the other points of the chunk:

* ``|z| <= z_switch``: the termwise differentiated Taylor series in doubles,
  by one numpy Horner loop over every point of the disc.  Each point sums
  only the terms its modulus needs (``_series_table``).  The same loop
  accumulates ``S = sum |c_k| |z|^k``, and a point is accepted only if
  ``8 * 2**-53 * S <= tol * |value|``, the Horner error bound in the
  running form of Higham, *Accuracy and Stability of Numerical
  Algorithms*, section 5.1; the factor 8 also covers the rounding of the
  coefficients.
* large ``|z|``, orders 0 and 1: algebraic asymptotic series truncated at
  its smallest term, plus the exponential branch contributions
  ``(1/alpha) s^(1-delta) exp(s)`` for every branch
  ``s = z^(1/alpha) * exp(2*pi*i*m/alpha)`` lying in the principal sector.
  The branch terms decay in the sector ``mu <= |arg z| <= pi`` but are kept
  because they dominate the truncation error of the algebraic tail at
  moderate modulus.  The coefficients and envelope terms are cached per
  ``(alpha, delta)``; each point stops at its own smallest term.
* the points both regimes reject, and orders 2..4 outside the series disc,
  fall back one at a time to an arbitrary-precision Taylor sum with working
  precision chosen from the largest series term.  Its coefficients
  ``1/Gamma(alpha k + delta)`` come from mpmath; the sum itself is binary
  fixed point on Python ints (Horner's rule in ``z / 2**E``), correctly
  rounded to a double at the end.

All branch powers use the principal argument in ``(-pi, pi]``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath
import numpy as np

__all__ = [
    "MLParams",
    "BoundReport",
    "ml_eval",
    "ml_derivative",
    "reciprocal_gamma",
    "ml_sector_bound_check",
]

#: modulus below which the plain Taylor series is used
Z_SWITCH_DEFAULT = 12.0

#: relative accuracy demanded of the asymptotic expansion before the
#: arbitrary-precision fallback kicks in
_ASYMPTOTIC_RTOL = 1e-13

_MAX_SERIES_TERMS = 400

#: an asymptotic lane stops once its envelope term is this far below its sum
_NEGLIGIBLE = 2.0**-60

#: the double series is accepted if _SERIES_BOUND * S <= tol * |value|
_SERIES_BOUND = 8.0 * 2.0**-53

#: a point's series stops once the next term is 2**-64 below an earlier one
_TAIL_NATS = 64.0 * math.log(2.0)

#: points per chunk of an array call
_CHUNK = 4096

_LOG2_10 = math.log2(10.0)


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


def _exponential_branch_terms(alpha: float, delta: float, z, r, order: int):
    """Sum of residue contributions (1/alpha) s^(1-delta) e^s over admissible
    branches, and for ``order`` 1 the same sum differentiated in z."""
    phi = np.arctan2(z.imag, z.real)
    root = r ** (1.0 / alpha)
    val = np.zeros_like(z)
    dval = np.zeros_like(z)
    m_max = int(math.ceil(alpha / 2.0)) + 1
    for m in range(-m_max, m_max + 1):
        ang = (phi + 2.0 * math.pi * m) / alpha
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


def _asymptotic(alpha: float, delta: float, z: np.ndarray, r: np.ndarray, order: int):
    """Algebraic expansion + exponential branches; returns (values, accepted).

    Each point stops at its own smallest term.  Terms whose Gamma argument
    sits exactly on a pole vanish and are excluded from the smallest-term
    truncation logic.
    """
    coefs, log_envelope = _asymptotic_table(alpha, delta)
    real_axis = z.imag == 0.0  # every term is real there
    inv = 1.0 / z
    log_absz = np.log(r)
    total = np.zeros_like(z)
    dtotal = np.zeros_like(z)
    zk = inv
    prev_env = np.inf
    smallest_env = np.full(r.shape, np.inf)
    env_sum = 0.0
    all_poles = np.ones(r.shape, dtype=bool)
    active = np.ones(r.shape, dtype=bool)
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
                active &= ~(env > prev_env)
                if not active.any():
                    break
            if coef != 0.0 and math.isfinite(coef):
                live = active & (zk != 0.0)
                all_poles &= ~live
                total = np.where(live, total - zk * coef, total)
                if order:
                    dtotal = np.where(live, dtotal + k * zk * inv * coef, dtotal)
            prev_env = env
            # an order-1 lane is judged on its derivative's envelope (k + 1) env / |z|
            env_k = env * (k + 1) / r if order else env
            smallest_env = np.where(active, np.minimum(smallest_env, env_k), smallest_env)
            zk = zk * inv
            if k > 2:
                active &= zk != 0.0
            env_sum = env_sum + env  # bounds |total|
            if k > 1 and k & (k - 1) == 0 and np.any(env < _NEGLIGIBLE * env_sum):
                # every later term is below its envelope, which does not rise
                # before the lane stops (its j-th derivative term below
                # j env/|z|); once those bounds are under a quarter ulp of
                # both parts of the sum, no later term changes a bit of it.
                # A lane that qualifies stays qualified, so checking at powers
                # of two is enough.
                negligible = env < _NEGLIGIBLE * _smaller_part(total, real_axis)
                if order:
                    bound = len(coefs) * env / r
                    negligible &= bound < _NEGLIGIBLE * _smaller_part(dtotal, real_axis)
                active &= ~negligible
        exp_val, exp_dval = _exponential_branch_terms(alpha, delta, z, r, order)
        value, part = (dtotal + exp_dval, dtotal) if order else (total + exp_val, total)
        # every algebraic coefficient on a Gamma pole (e.g. alpha = 1): the
        # branch terms are then the exact value
        err = np.where(all_poles, 0.0, smallest_env / (np.abs(value) + np.abs(part)))
    ok = err <= (10.0 * _ASYMPTOTIC_RTOL if order else _ASYMPTOTIC_RTOL)
    return value, ok


def _mp_series_params(alpha: float, r: float):
    peak_digits = int(0.4343 * r ** (1.0 / alpha)) + 10
    n_terms = int(3.0 * r ** (1.0 / alpha) / alpha) + 80
    return peak_digits, n_terms


@functools.lru_cache(maxsize=64)
def _coefficient_prefix(alpha: float, delta: float, dps: int) -> list:
    # one list per working precision, extended in place by _mp_coefficients:
    # the k-th value does not depend on how many follow it
    return []


def _mp_coefficients(alpha: float, delta: float, n: int, dps: int) -> list:
    """The first ``n`` values ``1/Gamma(alpha k + delta)`` rounded at ``dps``
    digits, each as an exact pair ``(signed mantissa, binary exponent)``."""
    coef = _coefficient_prefix(alpha, delta, dps)
    if len(coef) < n:
        with mpmath.workdps(dps):
            a = mpmath.mpf(alpha)
            for k in range(len(coef), n):
                sign, man, exp, _ = mpmath.rgamma(a * k + delta)._mpf_
                coef.append((-man if sign else man, exp))
    return coef


def _fixed_point_unit(z: complex):
    """``z = u 2**E`` with ``u = (ur + i ui) / 2**s`` in exact integers.

    ``E = floor(log2|z|) + 1``, so ``|u| <= 1`` and Horner's rule cannot amplify
    its rounding errors.  Both parts of the double ``z`` are dyadic
    rationals, so the split is exact at any precision.
    """
    big_e = math.frexp(abs(z))[1] if z else 0
    (nr, dr), (ni, di) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    tr, ti = dr.bit_length() - 1 + big_e, di.bit_length() - 1 + big_e
    s = max(tr, ti, 0)
    return nr << (s - tr), ni << (s - ti), s, big_e


@functools.lru_cache(maxsize=64)
def _scaled_coefficients(
    alpha: float, delta: float, dps: int, order: int, n_terms: int, big_e: int, p: int
) -> tuple:
    """The Horner coefficients of ``_horner_fixed``, highest degree first:
    ``k!/(k-order)! c_k 2**((k-order) E + p)`` for ``order <= k < n_terms``,
    each a shift of the mantissa of ``c_k``."""
    coef = _mp_coefficients(alpha, delta, n_terms, dps)
    scaled = []
    for j in range(n_terms - 1 - order, -1, -1):
        man, exp = coef[j + order]
        b = man * math.perm(j + order, order)
        shift = exp + j * big_e + p
        scaled.append(b << shift if shift >= 0 else b >> -shift)
    return tuple(scaled)


def _horner_fixed(scaled, unit):
    """sum_j b_j u^j as two ints (real, imaginary) for the scaled
    coefficients ``b_j`` (``_scaled_coefficients``): Horner's rule in
    ``u = z / 2**E``."""
    ur, ui, s, _ = unit
    ar = ai = 0
    for b in scaled:
        ar, ai = ((ar * ur - ai * ui) >> s) + b, (ar * ui + ai * ur) >> s
    return ar, ai


def _fixed_to_float(a: int, p: int) -> float:
    # int / int is correctly rounded, as is mpmath's float conversion; it
    # raises where mpmath overflows to infinity
    try:
        return a / (1 << p)
    except OverflowError:
        return math.inf if a > 0 else -math.inf


def _series_mp(alpha: float, delta: float, z: complex, order: int = 0) -> complex:
    """Arbitrary-precision Taylor sum; ``order`` differentiates termwise.

    Working precision starts a safe margin above the largest-term magnitude
    and is doubled while cancellation still swamps the result.  mpmath only
    computes the coefficients; the sum is exact-integer fixed point with
    ``P = ceil(dps log2 10) + 16`` fractional bits (``_horner_fixed``).  Its
    roundings are absolute, below ``2**-P`` each, and ``|u| <= 1`` keeps them
    from growing, so the sum is closer to the exact one than a power sum in
    mpmath arithmetic at ``dps`` digits, whose roundings scale with the
    largest term; both round to the same double.
    """
    z = complex(z)
    r = abs(z)
    peak_digits, n_terms = _mp_series_params(alpha, r)
    unit = _fixed_point_unit(z)
    log2_r = math.log2(r) if r else -math.inf
    dps = peak_digits + 30
    while True:
        coef = _mp_coefficients(alpha, delta, n_terms, dps)
        p = math.ceil(dps * _LOG2_10) + 16
        scaled = _scaled_coefficients(alpha, delta, dps, order, n_terms, unit[3], p)
        ar, ai = _horner_fixed(scaled, unit)
        norm2 = ar * ar + ai * ai
        # the tail must be negligible at the working precision:
        # |last term| < 10**(peak_digits - dps + 15) (1 + |total|), in log2
        last = n_terms - 1
        man, exp = coef[last]
        man *= math.perm(last, order)
        log2_term = math.log2(abs(man)) + exp + (last - order) * log2_r if man else -math.inf
        log2_total = 0.5 * math.log2(norm2) - p if norm2 else -math.inf
        # log2(1 + |total|) without |total| as a float, which may overflow
        log2_one_plus = max(log2_total, 0.0) + math.log2(1.0 + 2.0 ** -abs(log2_total))
        tail_ok = log2_term < (peak_digits - dps + 15) * _LOG2_10 + log2_one_plus
        # detect catastrophic cancellation relative to the working precision
        # and retry harder: |total| > 10**(peak_digits - dps + 20), exactly
        ok = norm2 * 10 ** (2 * (dps - peak_digits - 20)) > 1 << (2 * p)
        result = complex(_fixed_to_float(ar, p), _fixed_to_float(ai, p))
        if not tail_ok and n_terms < 200_000:
            n_terms = n_terms * 2 + 100
            continue
        if ok or abs(result) == 0.0 or dps > 8 * peak_digits + 400:
            return result
        dps *= 2


def _effective_switch(alpha: float, z_switch: float) -> float:
    # the float series loses ~log10(e) * r**(1/alpha) digits to cancellation
    # in the algebraic sector; cap the switch so at most ~4 digits are lost
    return min(z_switch, 8.0**alpha)


def _ml_chunk(p: MLParams, z: np.ndarray, order: int, z_switch: float) -> np.ndarray:
    """The regime dispatch over one chunk of points, any order 0..4."""
    r = np.abs(z)
    out = np.empty_like(z)
    rest = np.ones(z.shape, dtype=bool)  # points no regime has accepted yet
    disc = r <= _effective_switch(p.alpha, z_switch)
    regimes = [(disc, _series)]
    if order <= 1:
        regimes.append((~disc, _asymptotic))
    for mask, regime in regimes:
        idx = np.flatnonzero(mask)
        if idx.size:
            value, ok = regime(p.alpha, p.delta, z[idx], r[idx], order)
            out[idx[ok]] = value[ok]
            rest[idx[ok]] = False
    for i in np.flatnonzero(rest):
        out[i] = _series_mp(p.alpha, p.delta, complex(z[i]), order)
    return out


def _ml(p: MLParams, z, order: int, z_switch: float):
    z = _finite_array(z)
    flat = z.ravel()
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _CHUNK):
        out[lo : lo + _CHUNK] = _ml_chunk(p, flat[lo : lo + _CHUNK], order, z_switch)
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def ml_eval(p: MLParams, z, z_switch: float = Z_SWITCH_DEFAULT):
    """Evaluate ``E_{alpha,delta}(z)`` at a scalar, or elementwise over an
    array (same shape out)."""
    return _ml(p, z, 0, z_switch)


def ml_derivative(p: MLParams, z, order: int, z_switch: float = Z_SWITCH_DEFAULT):
    """d^order/dz^order of ``E_{alpha,delta}(z)``, order <= 4, at a scalar
    or elementwise over an array (same shape out)."""
    if order < 0 or order > 4:
        raise ValueError(f"derivative order must be in 0..4, got {order}")
    return _ml(p, z, order, z_switch)


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
    if np.count_nonzero(pos) < 2:
        raise ValueError("not enough nonzero values for a slope fit")
    slope = float(np.polyfit(np.log(mags[pos]), np.log(vals[pos]), 1)[0])
    return BoundReport(constant=constant, slope=slope, n_samples=samples.size)

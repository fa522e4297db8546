"""Two-parameter Mittag-Leffler function on the complex plane.

Values and derivatives of every order 0..4 share one regime dispatch,
split by modulus and argument:

* ``|z| <= z_switch``: the termwise differentiated Taylor series in doubles,
  real and imaginary parts each summed exactly by ``math.fsum``.
* large ``|z|``, orders 0 and 1: algebraic asymptotic series truncated at
  its smallest term, plus the exponential branch contributions
  ``(1/alpha) s^(1-delta) exp(s)`` for every branch
  ``s = z^(1/alpha) * exp(2*pi*i*m/alpha)`` lying in the principal sector.
  The branch terms decay in the sector ``mu <= |arg z| <= pi`` but are kept
  because they dominate the truncation error of the algebraic tail at
  moderate modulus.
* the band in between, where neither expansion reaches full double
  precision, and orders 2..4 outside the series disc fall back to an
  arbitrary-precision Taylor sum with working precision chosen from the
  largest series term.  Its coefficients ``1/Gamma(alpha k + delta)`` come
  from mpmath; the sum itself is binary fixed point on Python ints
  (Horner's rule in ``z / 2**E``), correctly rounded to a double at the end.

All branch powers use the principal argument in ``(-pi, pi]``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.special import gammaln, rgamma

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


def reciprocal_gamma(x):
    """1/Gamma(x), total on the reals: exactly 0 at the poles 0, -1, -2, ...

    Accepts scalars or arrays, real or complex.
    """
    return rgamma(x)


def _check_finite(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"argument must be finite, got {z}")
    return z


@functools.lru_cache(maxsize=64)
def _float_coefficients(alpha: float, delta: float, order: int) -> tuple:
    """``k!/(k-order)! / Gamma(alpha k + delta)`` for ``order <= k`` below
    the series term cap, as doubles."""
    k = np.arange(order, _MAX_SERIES_TERMS)
    falling = np.array([math.perm(j, order) for j in k], dtype=float)
    return tuple((falling * rgamma(alpha * k + delta)).tolist())


def _series_float(alpha: float, delta: float, z: complex, order: int):
    """d^order/dz^order of the Taylor series in doubles, each part summed
    exactly (``math.fsum``) and rounded once.

    Returns the sum together with the largest term magnitude, from which the
    caller can bound the cancellation error.
    """
    r = abs(z)
    re, im = [], []
    s_re = s_im = 0.0  # running sums, for the stop rule only
    zk = 1.0 + 0.0j
    tiny_streak = 0
    max_term = 0.0
    for k, coef in enumerate(_float_coefficients(alpha, delta, order), order):
        term = zk * coef
        max_term = max(max_term, abs(term))
        re.append(term.real)
        im.append(term.imag)
        s_re += term.real
        s_im += term.imag
        if abs(term) < 1e-18 * (abs(s_re) + abs(s_im) + 1e-300) and alpha * k > r:
            tiny_streak += 1
            if tiny_streak >= 3:
                break
        else:
            tiny_streak = 0
        zk *= z
    return complex(math.fsum(re), math.fsum(im)), max_term


def _exponential_branch_terms(alpha: float, delta: float, z: complex):
    """Sum of residue contributions (1/alpha) s^(1-delta) e^s over admissible
    branches, together with the same sum differentiated in z."""
    if z == 0:
        return 0.0j, 0.0j
    r = abs(z)
    phi = math.atan2(z.imag, z.real)
    val = 0.0j
    dval = 0.0j
    root = r ** (1.0 / alpha)
    m_max = int(math.ceil(alpha / 2.0)) + 1
    for m in range(-m_max, m_max + 1):
        ang = (phi + 2.0 * math.pi * m) / alpha
        if abs(ang) > math.pi * (1.0 + 1e-14):
            continue
        # a branch sitting exactly on the contour counts with half weight
        weight = 0.5 if abs(abs(ang) - math.pi) <= 1e-14 else 1.0
        s = root * complex(math.cos(ang), math.sin(ang))
        if s.real > 700.0:
            raise OverflowError(
                f"exp branch overflows for z={z}, alpha={alpha}"
            )
        es = np.exp(s)
        base = weight / alpha * s ** (1.0 - delta) * es
        val += base
        # d/dz of (1/alpha) s^(1-delta) e^s with ds/dz = s/(alpha z)
        dval += weight / alpha**2 / z * es * s ** (1.0 - delta) * (1.0 - delta + s)
    return val, dval


def _asymptotic(alpha: float, delta: float, z: complex, want_derivative: bool):
    """Algebraic expansion + exponential branches.

    Returns (value, derivative, relative error estimate); derivative is None
    unless requested.  Terms whose Gamma argument sits exactly on a pole
    vanish and are excluded from the smallest-term truncation logic.
    """
    exp_val, exp_dval = _exponential_branch_terms(alpha, delta, z)
    inv = 1.0 / z
    log_absz = math.log(abs(z))
    total = 0.0j
    dtotal = 0.0j
    zk = inv
    smallest_env = math.inf
    prev_env = math.inf
    all_poles = True
    for k in range(1, 200):
        x = delta - alpha * k
        # envelope of |z^-k / Gamma(x)| with the reflection sine set to 1;
        # the realized terms can dip far below it, so the truncation error
        # must be judged against the envelope, not the terms themselves
        log_env = -k * log_absz + gammaln(1.0 - x) - math.log(math.pi)
        env = math.exp(log_env) if log_env < 700 else math.inf
        if env > prev_env and k > 2:
            break
        coef = rgamma(x)
        if coef != 0.0 and math.isfinite(coef) and zk != 0.0:
            all_poles = False
            total -= zk * coef
            if want_derivative:
                dtotal += k * zk * inv * coef
        prev_env = env
        smallest_env = min(smallest_env, env)
        zk *= inv
        if zk == 0.0 and k > 2:
            break
    value = total + exp_val
    if all_poles:
        # every algebraic coefficient hit a Gamma pole (e.g. alpha = 1);
        # the branch terms are then the exact value
        err = 0.0
    else:
        scale = abs(value) + abs(total)
        err = smallest_env / scale if scale > 0 else math.inf
    return value, (dtotal + exp_dval) if want_derivative else None, err


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


def _horner_fixed(coef, order: int, n_terms: int, unit, p: int):
    """sum_{order <= k < n_terms} k!/(k-order)! c_k z^(k-order), times 2**p,
    as two ints (real, imaginary): Horner's rule in ``u = z / 2**E`` on the
    scaled coefficients ``c_k 2**((k-order) E)``, each a shift of a mantissa."""
    ur, ui, s, big_e = unit
    ar = ai = 0
    for j in range(n_terms - 1 - order, -1, -1):
        man, exp = coef[j + order]
        b = man * math.perm(j + order, order)
        shift = exp + j * big_e + p
        b = b << shift if shift >= 0 else b >> -shift
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
        ar, ai = _horner_fixed(coef, order, n_terms, unit, p)
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


def _elementwise(kernel, p: MLParams, z, *args):
    """A scalar kernel at scalar ``z``, or mapped over array ``z`` (shape kept)."""
    if np.isscalar(z) or np.ndim(z) == 0:  # isscalar first: it is the cheap test
        return kernel(p, z, *args)
    z = np.asarray(z)
    return np.array([kernel(p, zi, *args) for zi in z.ravel()], dtype=complex).reshape(z.shape)


def ml_eval(p: MLParams, z, z_switch: float = Z_SWITCH_DEFAULT):
    """Evaluate ``E_{alpha,delta}(z)`` at a scalar, or elementwise over an
    array (same shape out)."""
    return _elementwise(_ml_scalar, p, z, 0, z_switch)


def ml_derivative(p: MLParams, z, order: int, z_switch: float = Z_SWITCH_DEFAULT):
    """d^order/dz^order of ``E_{alpha,delta}(z)``, order <= 4, at a scalar
    or elementwise over an array (same shape out)."""
    if order < 0 or order > 4:
        raise ValueError(f"derivative order must be in 0..4, got {order}")
    return _elementwise(_ml_scalar, p, z, order, z_switch)


def _ml_scalar(p: MLParams, z: complex, order: int, z_switch: float) -> complex:
    """The regime dispatch, one scalar ``z``, any order 0..4."""
    z = _check_finite(z)
    if abs(z) <= _effective_switch(p.alpha, z_switch):
        value, max_term = _series_float(p.alpha, p.delta, z, order)
        # per-term coefficient roundoff times the cancellation ratio
        if 3e-16 * max_term <= (1e-11 if order else 1e-13) * (abs(value) + 1e-300):
            return value
    elif order <= 1:
        value, dval, err = _asymptotic(p.alpha, p.delta, z, want_derivative=order == 1)
        if err <= (10.0 * _ASYMPTOTIC_RTOL if order else _ASYMPTOTIC_RTOL):
            return dval if order else value
    return _series_mp(p.alpha, p.delta, z, order)


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
    samples = [_check_finite(z) for z in samples]
    if not samples:
        raise ValueError("empty sample list")
    for z in samples:
        if z == 0:
            raise ValueError("z=0 is not in the sector")
        a = abs(math.atan2(z.imag, z.real))
        if not (mu - 1e-12 <= a <= math.pi + 1e-12):
            raise ValueError(f"sample {z} violates mu <= |arg z| <= pi")
    samples = np.array(samples)
    values = ml_eval(p, samples)
    # np.hypot, not np.abs: its bits are those of the scalar abs(complex)
    mags = np.hypot(samples.real, samples.imag)
    vals = np.hypot(values.real, values.imag)
    constant = float(np.max(vals * (1.0 + mags)))
    pos = vals > 0
    if np.count_nonzero(pos) < 2:
        raise ValueError("not enough nonzero values for a slope fit")
    slope = float(np.polyfit(np.log(mags[pos]), np.log(vals[pos]), 1)[0])
    return BoundReport(constant=constant, slope=slope, n_samples=len(samples))

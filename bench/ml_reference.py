"""Accuracy map of ``ml_eval`` against a reference the benchmark owns.

The reference is the Taylor series of E_{alpha,delta}(z) summed in mpmath
at a working precision that covers the cancellation between its terms.
It shares no code with fracwave, so a change to ``ml_eval`` cannot move
its own reference.  It is evaluated outside every timed region.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

SAMPLE_SIZE = 200
Z_MIN = 1e-2
# the series reference needs ~|z|^(1/alpha) / ln(10) guard digits; this bound
# keeps it under 50 digits and the whole map under a few seconds
Z_MAX = 50.0


def series_reference(alpha: float, delta: float, z: complex, dps: int) -> mpmath.mpc:
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        d = mpmath.mpf(delta)
        zz = mpmath.mpc(z)
        total = mpmath.mpc(0)
        zk = mpmath.mpc(1)
        floor = mpmath.mpf(10) ** (-dps)
        k = 0
        while True:
            term = zk * mpmath.rgamma(a * k + d)
            total += term
            # past the peak term, stop once the terms are below the precision
            if alpha * k > abs(z) ** (1.0 / alpha) + 10 and abs(term) < floor * (1 + abs(total)):
                return total
            zk *= zz
            k += 1


def reference(alpha: float, delta: float, z: complex) -> complex:
    """E_{alpha,delta}(z) to full double precision, checked at two precisions."""
    guard = int(abs(z) ** (1.0 / alpha) / math.log(10.0)) + 1
    dps = guard + 30
    lo = series_reference(alpha, delta, z, dps)
    hi = series_reference(alpha, delta, z, dps + 15)
    with mpmath.workdps(dps + 15):
        if abs(hi - lo) > mpmath.mpf(10) ** -22 * abs(hi):
            raise RuntimeError(f"series reference unstable at alpha={alpha}, delta={delta}, z={z}")
    return complex(hi)


def sample(seed: int):
    """Points (alpha, delta, z) in the decay sector mu <= |arg z| <= pi.

    alpha is drawn from (1, 2) and delta from {1, 2, alpha}, the parameters
    the propagators use; mu sits a tenth of the way from the growth boundary
    alpha*pi/2 to pi, and |z| is log-uniform on [Z_MIN, Z_MAX].
    """
    rng = np.random.default_rng([seed, 0x4D4C])
    points = []
    for _ in range(SAMPLE_SIZE):
        alpha = float(rng.uniform(1.01, 1.99))
        delta = (1.0, 2.0, alpha)[int(rng.integers(3))]
        mu = alpha * math.pi / 2 + 0.1 * (math.pi - alpha * math.pi / 2)
        arg = float(rng.uniform(mu, math.pi)) * (1.0 if rng.random() < 0.5 else -1.0)
        r = float(math.exp(rng.uniform(math.log(Z_MIN), math.log(Z_MAX))))
        points.append((alpha, delta, r * complex(math.cos(arg), math.sin(arg))))
    return points


def error_digits(fracwave_ml, seed: int) -> float:
    """-log10 of the largest relative error of ``ml_eval`` over the sample."""
    points = sample(seed)
    refs = [reference(a, d, z) for a, d, z in points]
    worst = 0.0
    for (alpha, delta, z), ref in zip(points, refs):
        value = fracwave_ml.ml_eval(fracwave_ml.MLParams(alpha, delta), z)
        worst = max(worst, abs(value - ref) / abs(ref))
    return -math.log10(max(worst, 1e-17))

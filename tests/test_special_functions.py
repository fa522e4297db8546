import cmath
import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import erfc

from fracwave import mittag_leffler
from fracwave.mittag_leffler import (
    MLParams,
    ml_derivative,
    ml_eval,
    ml_sector_bound_check,
    reciprocal_gamma,
)

RNG = np.random.default_rng(20240817)


def rand_z(rng, rmax=5.0, n=100):
    r = rmax * rng.random(n)
    ang = 2 * math.pi * rng.random(n) - math.pi
    return r * np.exp(1j * ang)


class TestClosedForms:
    def test_exp(self):
        for z in rand_z(RNG):
            v = ml_eval(MLParams(1.0, 1.0), z)
            assert abs(v - cmath.exp(z)) <= 1e-11 * abs(cmath.exp(z))

    def test_cos(self):
        for z in rand_z(RNG):
            v = ml_eval(MLParams(2.0, 1.0), -z * z)
            ref = cmath.cos(z)
            assert abs(v - ref) <= 1e-11 * (abs(ref) + 1.0)

    def test_cosh(self):
        for z in rand_z(RNG):
            v = ml_eval(MLParams(2.0, 1.0), z * z)
            ref = cmath.cosh(z)
            assert abs(v - ref) <= 1e-11 * abs(ref)

    def test_expm1_over_z(self):
        for z in rand_z(RNG):
            if abs(z) < 1e-3:
                continue
            v = ml_eval(MLParams(1.0, 2.0), z)
            ref = (cmath.exp(z) - 1.0) / z
            assert abs(v - ref) <= 1e-11 * (abs(ref) + 1.0)

    def test_sinh_over_z(self):
        for z in rand_z(RNG):
            if abs(z) < 1e-3:
                continue
            v = ml_eval(MLParams(2.0, 2.0), z * z)
            ref = cmath.sinh(z) / z
            assert abs(v - ref) <= 1e-11 * (abs(ref) + 1.0)

    def test_erfc_half(self):
        # E_{1/2}(z) = exp(z^2) erfc(-z)
        for z in rand_z(RNG, rmax=3.0, n=40):
            v = ml_eval(MLParams(0.5, 1.0), z)
            ref = cmath.exp(z * z) * erfc(-z)
            assert abs(v - ref) <= 1e-10 * (abs(ref) + 1.0)

    def test_at_zero(self):
        assert abs(ml_eval(MLParams(1.5, 0.7), 0.0) - reciprocal_gamma(0.7)) < 1e-14
        assert ml_eval(MLParams(1.0, 1.0), 0.0) == 1.0

    def test_cos_zero(self):
        z = -((math.pi / 2.0) ** 2)
        assert abs(ml_eval(MLParams(2.0, 1.0), z)) < 1e-14


class TestLargeModulus:
    def test_exp_large(self):
        for r in [20.0, 100.0, 1000.0]:
            for frac in [1.0, 0.9, 0.75, -1.0]:
                z = r * cmath.exp(1j * frac * math.pi)
                ref = cmath.exp(z)
                if abs(ref) < 1e-250:
                    continue
                v = ml_eval(MLParams(1.0, 1.0), z)
                assert abs(v - ref) <= 1e-10 * abs(ref)

    def test_erfc_large(self):
        for r in [20.0, 100.0, 1000.0]:
            for frac in [1.0, 0.9, 0.75, -1.0, -0.8]:
                z = r * cmath.exp(1j * frac * math.pi)
                if (z * z).real > 700.0:
                    continue
                ref = cmath.exp(z * z) * erfc(-z)
                if abs(ref) < 1e-250 or not np.isfinite(abs(ref)):
                    continue
                v = ml_eval(MLParams(0.5, 1.0), z)
                assert abs(v - ref) <= 1e-10 * abs(ref)

    def test_midband_consistency(self):
        # values on the two sides of the series/asymptotic switch agree
        p = MLParams(1.5, 1.0)
        for r in [7.9, 8.1, 11.9, 12.1, 14.0, 30.0]:
            for frac in [1.0, 0.85, -0.9]:
                z = r * cmath.exp(1j * frac * math.pi)
                a = ml_eval(p, z)
                b = ml_eval(p, z, z_switch=40.0)
                assert abs(a - b) <= 1e-10 * (abs(a) + 1e-30)


class TestRecurrencesAndDerivatives:
    def test_index_shift(self):
        # E_{a,d}(z) = z E_{a,d+a}(z) + 1/Gamma(d)
        for a in [0.7, 1.3, 1.5, 1.9]:
            for d in [0.5, 1.0, 2.0, -0.3]:
                for z in rand_z(RNG, rmax=8.0, n=12):
                    lhs = ml_eval(MLParams(a, d), z)
                    rhs = z * ml_eval(MLParams(a, d + a), z) + reciprocal_gamma(d)
                    assert abs(lhs - rhs) <= 1e-11 * (abs(lhs) + 1.0)

    def test_derivative_order0_is_eval(self):
        p = MLParams(1.3, 0.8)
        for z in rand_z(RNG, rmax=6.0, n=10):
            assert ml_derivative(p, z, 0) == ml_eval(p, z)

    def test_derivative_at_zero(self):
        assert abs(ml_derivative(MLParams(1.0, 1.0), 0.0, 1) - 1.0) < 1e-14
        v = ml_derivative(MLParams(1.5, 1.0), 0.0, 1)
        assert abs(v - reciprocal_gamma(2.5)) < 1e-14

    @pytest.mark.parametrize("order", [1, 2])
    def test_derivative_vs_finite_difference(self, order):
        for a, d in [(1.3, 1.0), (1.5, 1.5), (1.0, 1.0)]:
            p = MLParams(a, d)
            for z in [-2.0 + 0.5j, 1.0 + 1.0j, -5.0, 3.0 - 2.0j]:
                h = 1e-6 * max(1.0, abs(z))
                if order == 1:
                    fd = (ml_eval(p, z + h) - ml_eval(p, z - h)) / (2 * h)
                else:
                    fd = (
                        ml_eval(p, z + h) - 2 * ml_eval(p, z) + ml_eval(p, z - h)
                    ) / h**2
                v = ml_derivative(p, z, order)
                assert abs(v - fd) <= 2e-4 * (abs(v) + 1.0)

    def test_derivative_large_modulus(self):
        # d/dz e^z = e^z
        p = MLParams(1.0, 1.0)
        for z in [30.0 * cmath.exp(1j * 0.8 * math.pi), -25.0 + 3.0j]:
            v = ml_derivative(p, z, 1)
            ref = cmath.exp(z)
            assert abs(v - ref) <= 1e-9 * abs(ref)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            ml_derivative(MLParams(1.5, 1.0), 1.0, 5)
        with pytest.raises(ValueError):
            ml_derivative(MLParams(1.5, 1.0), 1.0, -1)


class TestArrayInput:
    # series, mid-band fallback and asymptotic regimes, decay and growth sectors
    Z = np.array(
        [
            [0.0, 0.5 - 0.2j, -3.0 + 1.0j, 9.0j],
            [-15.0 + 2.0j, 20.0, -60.0 - 5.0j, 300.0 * cmath.exp(2.5j)],
        ]
    )

    def test_eval_matches_scalar_calls(self):
        p = MLParams(1.5, 1.2)
        got = ml_eval(p, self.Z)
        assert got.shape == self.Z.shape and got.dtype == complex
        want = np.array([[ml_eval(p, z) for z in row] for row in self.Z])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_derivative_matches_scalar_calls(self, order):
        p = MLParams(1.5, 1.2)
        got = ml_derivative(p, self.Z, order)
        assert got.shape == self.Z.shape
        want = np.array([[ml_derivative(p, z, order) for z in row] for row in self.Z])
        assert np.array_equal(got, want)

    def test_scalar_in_scalar_out(self):
        assert isinstance(ml_eval(MLParams(1.5, 1.0), -1.0), complex)
        assert isinstance(ml_derivative(MLParams(1.5, 1.0), -1.0, 1), complex)


@functools.lru_cache(maxsize=64)
def _reference_coefficients(alpha, delta, n, dps):
    with mpmath.workdps(dps):
        return tuple(mpmath.rgamma(mpmath.mpf(alpha) * k + delta) for k in range(n))


def reference_series_mp(alpha, delta, z, order=0):
    """The mid-band fallback summed in mpmath arithmetic: the power sum that
    ``_series_mp`` replaced by its fixed-point form, kept here unchanged
    (same terms, precision schedule, tail and cancellation tests)."""
    r = abs(z)
    peak_digits = int(0.4343 * r ** (1.0 / alpha)) + 10
    n_terms = int(3.0 * r ** (1.0 / alpha) / alpha) + 80
    dps = peak_digits + 30
    while True:
        coef = _reference_coefficients(alpha, delta, n_terms, dps)
        with mpmath.workdps(dps):
            zz = mpmath.mpc(z)
            total = mpmath.mpc(0)
            zk = mpmath.mpc(1)
            term = mpmath.mpc(0)
            for k in range(order, n_terms):
                factor = 1
                for j in range(order):
                    factor *= k - j
                term = factor * zk * coef[k]
                total += term
                zk *= zz
            floor = mpmath.mpf(10) ** (peak_digits - dps + 15)
            tail_ok = abs(term) < floor * (1 + abs(total))
            ok = abs(total) > mpmath.mpf(10) ** (peak_digits - dps + 20)
            result = complex(total)
        if not tail_ok and n_terms < 200_000:
            n_terms = n_terms * 2 + 100
            continue
        if ok or abs(result) == 0.0 or dps > 8 * peak_digits + 400:
            return result
        dps *= 2


class TestSeriesFallback:
    """The fixed-point mid-band sum gives the mpmath power sum's doubles."""

    ALPHAS = (1.2, 1.5, 1.8)

    def test_matches_mpmath_power_sum(self):
        rng = np.random.default_rng(20261018)
        args = []
        for a in self.ALPHAS:
            for d in (0.0, 1.0, a, 2.0, 2.5):
                for order in range(5):
                    # one point in the decay sector, one in the growth sector
                    for lo, hi in ((a * math.pi / 2, math.pi), (0.0, a * math.pi / 2)):
                        r = 10.0 ** rng.uniform(1.0, math.log10(300.0))
                        ang = rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))
                        args.append((a, d, complex(r * cmath.exp(1j * ang)), order))
        got = np.array([mittag_leffler._series_mp(*q) for q in args])
        want = np.array([reference_series_mp(*q) for q in args])
        assert np.array_equal(got, want)

    def test_small_modulus_cancellation_fallback(self, monkeypatch):
        # below the series switch, _ml_eval_scalar hands a call to the
        # fallback when the float series cancels too many digits
        calls = []
        kernel = mittag_leffler._series_mp

        def recorded(alpha, delta, z, order=0):
            value = kernel(alpha, delta, z, order)
            calls.append(((alpha, delta, z, order), value))
            return value

        monkeypatch.setattr(mittag_leffler, "_series_mp", recorded)
        for d in (0.0, 1.0, 1.2, 2.0, 2.5):
            for r in (7.0, 9.0, 11.0):
                ml_eval(MLParams(1.2, d), r * cmath.exp(0.9j * math.pi))
        assert len(calls) >= 5
        for args, value in calls:
            assert value == reference_series_mp(*args)

    def test_overflow_to_infinity(self):
        # E''_{2,1}(z) = d^2/dz^2 cosh(sqrt z) exceeds the double range
        args = (2.0, 1.0, 6e5 + 0j, 2)
        got = mittag_leffler._series_mp(*args)
        assert got == reference_series_mp(*args) == complex(math.inf, 0.0)

    @pytest.mark.parametrize(
        "r, want",
        [
            (2e3, -6.283609326887514e-11 - 3.201610722516652e-11j),
            # P exceeds 1000 bits here, past where a float scaling of z overflows
            (2e4, -6.283706515980728e-14 - 3.201707905512886e-14j),
        ],
    )
    def test_far_decay_sector_second_derivative(self, r, want):
        z = r * cmath.exp(0.95j * math.pi)
        assert ml_derivative(MLParams(1.5, 1.0), z, 2) == want


class TestReciprocalGamma:
    def test_poles(self):
        for n in range(0, 6):
            assert reciprocal_gamma(-float(n)) == 0.0

    def test_values(self):
        assert abs(reciprocal_gamma(1.0) - 1.0) < 1e-15
        assert abs(reciprocal_gamma(0.5) - 1.0 / math.sqrt(math.pi)) < 1e-15

    def test_functional_equation(self):
        for x in np.linspace(-4.3, 4.7, 37):
            lhs = x * reciprocal_gamma(x + 1.0)
            rhs = reciprocal_gamma(x)
            assert abs(lhs - rhs) <= 1e-13 * (abs(rhs) + 1.0)

    def test_reflection(self):
        for x in np.linspace(-3.3, 3.9, 29):
            lhs = reciprocal_gamma(x) * reciprocal_gamma(1.0 - x)
            rhs = math.sin(math.pi * x) / math.pi
            assert abs(lhs - rhs) <= 1e-13 * (abs(rhs) + 1.0)


class TestSectorBound:
    def test_slope_delta1(self):
        p = MLParams(1.5, 1.0)
        samples = [-r for r in np.logspace(2, 4, 60)]
        rep = ml_sector_bound_check(p, 0.8 * math.pi, samples)
        assert -1.05 <= rep.slope <= -0.95
        assert np.isfinite(rep.constant)

    def test_slope_delta_alpha(self):
        p = MLParams(1.5, 1.5)
        samples = [-r for r in np.logspace(2, 4, 60)]
        rep = ml_sector_bound_check(p, 0.8 * math.pi, samples)
        assert -2.1 <= rep.slope <= -1.9

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            ml_sector_bound_check(MLParams(1.5, 1.0), 0.5 * math.pi, [-10.0])

    def test_rejects_out_of_sector(self):
        with pytest.raises(ValueError):
            ml_sector_bound_check(MLParams(1.5, 1.0), 0.8 * math.pi, [10.0 + 0.1j])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ml_sector_bound_check(MLParams(1.5, 1.0), 0.8 * math.pi, [])


class TestValidation:
    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            MLParams(0.0, 1.0)
        with pytest.raises(ValueError):
            MLParams(-1.0, 1.0)

    def test_finite_input(self):
        with pytest.raises(ValueError):
            ml_eval(MLParams(1.5, 1.0), complex(math.nan, 0.0))
        with pytest.raises(ValueError):
            ml_eval(MLParams(1.5, 1.0), complex(math.inf, 0.0))

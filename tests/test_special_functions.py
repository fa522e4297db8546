import cmath
import functools
import math
import sys

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
from fracwave.operator_model import build_ladder_model
from fracwave.propagators import laplace_check, make_propagator, prop_apply, prop_norm_decay

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
        # values on the two sides of the series disc radius (8**1.5 > 12)
        # agree with the high-precision sum
        p = MLParams(1.5, 1.0)
        for r in [7.9, 8.1, 11.9, 12.1, 14.0, 30.0]:
            for frac in [1.0, 0.85, -0.9]:
                z = r * cmath.exp(1j * frac * math.pi)
                a = ml_eval(p, z)
                b = reference_series_mp(p.alpha, p.delta, z)
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

    def test_series_regime_derivatives_match_reference(self):
        # orders 1-4 in the double series disc against the high-precision sum
        rng = np.random.default_rng(20261019)
        for a in (1.2, 1.5, 1.8):
            for d in (1.0, a, 2.0):
                p = MLParams(a, d)
                for z in rand_z(rng, rmax=2.0, n=6):
                    for order in range(1, 5):
                        v = ml_derivative(p, z, order)
                        ref = reference_series_mp(a, d, complex(z), order)
                        assert abs(v - ref) <= 1e-13 * abs(ref)

    def test_ladder_series_derivatives_match_reference(self):
        # alpha = 1.2 at -t^1.5 lambda on the README ladder, |z| in [8, 12]:
        # inside the series disc, where the double sum cancels enough digits
        # that a derivative must be sent to the fallback
        lam = build_ladder_model(-0.75, math.pi / 6, 1e-2, 1e4, 4).lam
        z = -np.outer(np.geomspace(1e-3, 1e3, 121) ** 1.5, lam).ravel()
        z = z[(np.abs(z) >= 8.0) & (np.abs(z) <= 12.0)]
        assert z.size >= 100
        p = MLParams(1.2, 1.0)
        for order in range(1, 5):
            for v, zi in zip(ml_derivative(p, z, order), z):
                ref = reference_series_mp(1.2, 1.0, complex(zi), order)
                assert abs(v - ref) <= 1e-11 * abs(ref)

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

    @pytest.mark.parametrize("order", [1.5, 1.0])
    def test_non_integer_order(self, order):
        with pytest.raises(ValueError, match=f"got {order}"):
            ml_derivative(MLParams(1.5, 1.0), -3.0, order)

    def test_integer_like_order(self):
        p = MLParams(1.5, 1.0)
        want = ml_derivative(p, -3.0, 1)
        assert ml_derivative(p, -3.0, True) == ml_derivative(p, -3.0, np.int64(1)) == want


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

    def test_chunks_match_scalar_calls(self):
        # more points than one chunk, every regime: each point's bits do not
        # depend on the chunk or on the other points it is evaluated with
        rng = np.random.default_rng(20261021)
        n = 10_000
        assert n > mittag_leffler._CHUNK
        r = np.exp(rng.uniform(math.log(1e-2), math.log(40.0), n))
        z = r * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
        p = MLParams(1.5, 1.2)
        for order in (0, 1, 3):
            got = ml_derivative(p, z, order)
            want = np.array([ml_derivative(p, zi, order) for zi in z])
            assert np.array_equal(got, want)


class TestOrderPair:
    """One dispatch for orders (0, 1), as the spectral symbols ask for them,
    gives the bits of ``ml_eval`` and ``ml_derivative(., 1)``, runs the
    expansion and the cut sums once per chunk, and hands the cut each point
    at most once."""

    @staticmethod
    def count_calls(monkeypatch, names) -> dict:
        """Count the calls of the named ``mittag_leffler`` functions."""
        counts = dict.fromkeys(names, 0)
        for name in names:

            def counted(*args, kernel=getattr(mittag_leffler, name), name=name):
                counts[name] += 1
                return kernel(*args)

            monkeypatch.setattr(mittag_leffler, name, counted)
        return counts

    @staticmethod
    def check_pair(p, z):
        e, de = mittag_leffler._ml(p, z, (0, 1))
        assert np.array_equal(e, ml_eval(p, z))
        assert np.array_equal(de, ml_derivative(p, z, 1))
        assert type(e) is type(de) is type(ml_eval(p, z))

    @pytest.mark.parametrize("delta", ["1", "alpha", "2", "alpha + 1"])
    def test_pair_matches_single_orders(self, monkeypatch, delta):
        # the series disc, the expansion and the cut at alpha = 1.5; the
        # arbitrary-precision sum at alpha = 0.8, just outside its disc in the
        # decay sector, where the expansion is still short of its target
        rng = np.random.default_rng(20261102)
        regimes = ("_series", "_asymptotic", "_cut_sums", "_series_mp")
        for alpha, n, (lo, hi), (r_lo, r_hi) in (
            (1.5, mittag_leffler._CHUNK + 1000, (-math.pi, math.pi), (1e-2, 200.0)),
            (0.8, 4, (0.5 * math.pi, math.pi), (6.0, 12.0)),
        ):
            d = {"1": 1.0, "alpha": alpha, "2": 2.0, "alpha + 1": alpha + 1.0}[delta]
            p = MLParams(alpha, d)
            r = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), n))
            z = r * np.exp(1j * rng.uniform(lo, hi, n) * rng.choice((-1.0, 1.0), n))
            counts = self.count_calls(monkeypatch, regimes)
            mittag_leffler._ml(p, z, (0, 1))
            if alpha == 1.5:
                # one expansion and at most one cut pass per chunk, both orders
                assert counts["_asymptotic"] == 2 and 1 <= counts["_cut_sums"] <= 2
                assert counts["_series"] == 4
            else:
                assert counts["_series_mp"] == 2 * n
            self.check_pair(p, z)
            self.check_pair(p, z[:600].reshape(2, -1))
            self.check_pair(p, complex(z[0]))

    def test_pairs_hand_each_point_to_the_cut_once(self, monkeypatch):
        # the oracle and the Laplace check on the README ladder: with one
        # dispatch per order, every cut point went in twice
        seen = []
        sums = mittag_leffler._cut_sums

        def recorded(alpha, delta, z, order):
            seen.append(z.copy())
            return sums(alpha, delta, z, order)

        monkeypatch.setattr(mittag_leffler, "_cut_sums", recorded)
        m = build_ladder_model(-0.75, math.pi / 6, 1e-2, 1e4, 4)
        x = np.random.default_rng(1).standard_normal(m.dimension) + 0j
        oracle = make_propagator(m, 1.5, representation="oracle")
        calls = [lambda: laplace_check(oracle, 2.0, x)]
        calls += [lambda t=t: prop_apply(oracle, t, x) for t in np.geomspace(0.01, 10.0, 8)]
        counts = []
        for call in calls:
            seen.clear()
            call()
            points = np.concatenate(seen) if seen else np.empty(0, dtype=complex)
            assert np.unique(points).size == points.size
            counts.append(points.size)
        assert counts[0] > 1000 and sum(counts[1:]) > 0


@functools.lru_cache(maxsize=64)
def _reference_coefficients(alpha, delta, n, dps):
    with mpmath.workdps(dps):
        return tuple(mpmath.rgamma(mpmath.mpf(alpha) * k + delta) for k in range(n))


def reference_series_mp(alpha, delta, z, order=0):
    """The arbitrary-precision fallback summed in mpmath arithmetic, kept
    here apart from ``_series_mp`` (same terms, precision schedule, tail and
    cancellation tests)."""
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
    """The arbitrary-precision fallback gives the mpmath power sum's doubles."""

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
        # below the disc radius, the double series hands a point on when it
        # cancels too many digits; the branch-cut regime serves it
        calls = []
        regime = mittag_leffler._cut

        def recorded(alpha, delta, z, r, order):
            values, oks = regime(alpha, delta, z, r, order)
            value, ok = values[order], oks[order]
            calls.extend((alpha, delta, zi, order, vi) for zi, vi in zip(z[ok], value[ok]))
            return values, oks

        monkeypatch.setattr(mittag_leffler, "_cut", recorded)
        for d in (0.0, 1.0, 1.2, 2.0, 2.5):
            for r in (7.0, 9.0, 11.0):
                ml_eval(MLParams(1.2, d), r * cmath.exp(0.9j * math.pi))
        assert len(calls) >= 5
        for alpha, delta, z, order, value in calls:
            ref = reference_series_mp(alpha, delta, complex(z), order)
            assert abs(value - ref) <= 1e-13 * abs(ref)

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


class TestAccuracyMap:
    """``ml_eval`` and the first derivative against the high-precision sum on
    seeded decay-sector points over all three regimes."""

    def test_decay_sector_map(self):
        rng = np.random.default_rng(20261022)
        for _ in range(200):
            a = rng.uniform(1.01, 1.99)
            d = (1.0, 2.0, a)[rng.integers(3)]
            mu = a * math.pi / 2 + 0.1 * (math.pi - a * math.pi / 2)
            ang = rng.uniform(mu, math.pi) * rng.choice((-1.0, 1.0))
            r = math.exp(rng.uniform(math.log(1e-2), math.log(50.0)))
            z = complex(r * cmath.exp(1j * ang))
            for order, tol in ((0, 1e-13), (1, 1e-11)):
                ref = reference_series_mp(a, d, z, order)
                assert abs(ml_derivative(MLParams(a, d), z, order) - ref) <= tol * abs(ref)


    def test_asymptotic_first_derivative_judged_on_its_envelope(self):
        # a point of the seeded map (rng seed 9, |z| on [12, 150]) whose first
        # derivative the asymptotic regime accepted 1.15e-11 off
        p = MLParams(1.4444795448851226, 2.0)
        z = -120.06426450835598 + 25.053575839129977j
        ref = reference_series_mp(p.alpha, p.delta, z, 1)
        assert abs(ml_derivative(p, z, 1) - ref) <= 1e-11 * abs(ref)

    @pytest.mark.parametrize(
        "alpha, delta, z",
        [
            # a branch 0.012 rad inside the Stokes line |arg s| = pi, |s| = 19.3
            (1.5, 2.5, -1.5840940342803624 - 84.85671009541169j),
            # a branch 0.015 rad past it, |s| = 15.0
            (1.8, 1.8, 107.43760482618582 - 73.81237794616334j),
            # two branches 0.44 and 0.61 rad from it, |s| = 37
            (1.2, 1.2, -75.711 - 7.596j),
        ],
    )
    def test_asymptotic_judged_on_its_stokes_error(self, alpha, delta, z):
        # points the asymptotic regime accepted 1.2e-13 to 2.2e-13 off, when
        # its branches switched on at the Stokes line with full weight
        ref = reference_series_mp(alpha, delta, z)
        assert abs(ml_eval(MLParams(alpha, delta), z) - ref) <= 1e-13 * abs(ref)


class TestCutRegime:
    """The branch-cut regime (residues plus the corrected trapezoid rule on
    the cut) against the high-precision sum, and the points it takes from
    the arbitrary-precision fallback."""

    ALPHAS = (1.2, 1.5, 1.8, 1.95)

    @staticmethod
    def sample(rng, alpha, n):
        """n points in each of the decay sector, the growth sector and the
        band where a root sigma of sigma^alpha = z sits near the cut, |z|
        log-uniform on [2, 200]."""
        edge = 2.0 * math.pi - alpha * math.pi  # |arg z| of a root on the cut
        sectors = (
            (alpha * math.pi / 2, math.pi),
            (0.0, alpha * math.pi / 2),
            (edge - 0.05, edge + 0.05),
        )
        z = []
        for lo, hi in sectors:
            r = np.exp(rng.uniform(math.log(2.0), math.log(200.0), n))
            z.extend(r * np.exp(1j * rng.uniform(lo, hi, n) * rng.choice((-1.0, 1.0), n)))
        return np.array(z)

    @staticmethod
    def record_fallback(monkeypatch) -> list:
        """Record the arguments of every ``_series_mp`` call in the list returned."""
        calls = []
        kernel = mittag_leffler._series_mp

        def recorded(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(mittag_leffler, "_series_mp", recorded)
        return calls

    def test_accuracy_map(self, monkeypatch):
        rng = np.random.default_rng(20261101)
        fallback = self.record_fallback(monkeypatch)
        accepted = total = 0
        for a in self.ALPHAS:
            for d in (0.0, 1.0, a, 2.0, a + 1.0):
                z = self.sample(rng, a, 3)
                for order, tol in ((0, 1e-13), (1, 1e-11)):
                    value, ok = (rows[order] for rows in mittag_leffler._cut(a, d, z, np.abs(z), order))
                    for zi, v in zip(z[ok], value[ok]):
                        ref = reference_series_mp(a, d, complex(zi), order)
                        assert abs(v - ref) <= tol * abs(ref), (a, d, zi, order)
                    accepted += int(np.count_nonzero(ok))
                    total += z.size
                    # the public route: every point the series disc and the
                    # asymptotic regime reject is served without the fallback
                    ml_derivative(MLParams(a, d), z, order)
        assert accepted >= 0.95 * total
        assert fallback == []

    def test_half_step_keeps_every_pole_off_the_nodes(self):
        # relative to an origin o/16 of a step below log|sigma|, all of a
        # point's poles sit at the same fraction of a step from the nodes, so
        # the origin half a step below, which ``_cut_sums`` takes without a
        # search, is the best of the offsets for all of them at once
        rng = np.random.default_rng(20261018)
        half = mittag_leffler._OFFSETS // 2
        for a in (1.05, 1.2, 1.5, 1.8, 1.95):
            r = np.exp(rng.uniform(0.0, math.log(1e4), 200))
            for z in r * np.exp(1j * rng.uniform(-math.pi, math.pi, 200)):
                cut = mittag_leffler._Cut(a, np.array([-z]))
                shifts, gaps = cut.gaps(float(cut.log_sigma[0]))
                assert shifts[half] == cut.log_sigma[0] - 0.5 * mittag_leffler._CUT_STEP
                assert gaps[half, 0] >= (1.0 - 1e-15) * np.max(gaps[:, 0]), (a, z)

    def test_readme_ladder_needs_no_fallback(self, monkeypatch):
        # the oracle sweeps and the Laplace check of ``fracwave verify`` on the
        # README ladder: all their mid-band points are served by the cut
        calls = self.record_fallback(monkeypatch)
        m = build_ladder_model(-0.75, math.pi / 6, 1e-2, 1e4, 4)
        ts = np.geomspace(0.01, 10.0, 12)
        for d in (1.0, 2.0, 1.5):
            prop_norm_decay(make_propagator(m, 1.5, delta=d, representation="oracle"), ts)
        x = np.random.default_rng(1).standard_normal(m.dimension) + 0j
        laplace_check(make_propagator(m, 1.5, representation="oracle"), 2.0, x)
        assert calls == []


class TestReciprocalGamma:
    def test_poles(self):
        for n in range(0, 6):
            assert reciprocal_gamma(-float(n)) == 0.0

    def test_matches_mpmath_on_table_arguments(self):
        # the arguments of the series and asymptotic coefficient tables:
        # alpha k + delta for k < 400 and delta - alpha k for 1 <= k < 200
        args = set()
        for a in (0.5, 0.7, 1.0, 1.2, 1.3, 1.4445, 1.5, 1.8, 1.95, 1.99):
            for d in (0.0, 0.5, 1.0, a, 1.5, 2.0, 2.5, 3.0, a - 1.0, 2.0 * a):
                args.update(a * k + d for k in range(400))
                args.update(d - a * k for k in range(1, 200))
        checked = 0
        with mpmath.workdps(40):
            # 1/Gamma is 0 or +-inf in doubles outside (-190, 172)
            for x in sorted(v for v in args if -190.0 < v < 172.0):
                ref = mpmath.rgamma(x)
                if ref == 0 or not sys.float_info.min <= abs(float(ref)) <= sys.float_info.max:
                    continue
                checked += 1
                assert abs(reciprocal_gamma(x) - ref) <= 1e-15 * abs(ref), x
        assert checked > 9000

    def test_edge_values(self):
        for x in (0.0, -1.0, -7.0, -170.0, -300.0):
            assert reciprocal_gamma(x) == 0.0
        for x in (171.7, 200.0, 1e6, math.inf):
            assert reciprocal_gamma(x) == 0.0
        assert reciprocal_gamma(-180.5) == -math.inf
        assert reciprocal_gamma(-181.5) == math.inf
        assert reciprocal_gamma(1e-310) == 1e-310
        # finite here, while Gamma(-170.8) = -1.2e-308 is subnormal
        with mpmath.workdps(40):
            ref = mpmath.rgamma(-170.8)
        assert float(ref) == pytest.approx(-8.2994e307, rel=1e-4)
        assert abs(reciprocal_gamma(-170.8) - ref) <= 1e-15 * abs(ref)

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

    @pytest.mark.parametrize("alpha, delta", [(math.nan, 1.0), (math.inf, 1.0), (1.5, -math.inf)])
    def test_orders_finite(self, alpha, delta):
        with pytest.raises(ValueError, match="must be finite"):
            MLParams(alpha, delta)

    def test_finite_input(self):
        with pytest.raises(ValueError):
            ml_eval(MLParams(1.5, 1.0), complex(math.nan, 0.0))
        with pytest.raises(ValueError):
            ml_eval(MLParams(1.5, 1.0), complex(math.inf, 0.0))

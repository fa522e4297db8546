import math
import re
from functools import partial

import numpy as np
import pytest

from fracwave import contour, mittag_leffler, propagators
from fracwave.contour import HankelSpec, calculus_apply, default_contour
from fracwave.fractional import TimeGrid, _trapezoid_weights
from fracwave.mittag_leffler import MLParams, ml_derivative, ml_eval, reciprocal_gamma
from fracwave.operator_model import (
    AlmostSectorialModel,
    _symbol_apply,
    build_ladder_model,
    build_scalar_model,
    resolvent_apply,
)
from fracwave.operator_model import apply as op_apply
from fracwave.propagators import (
    DecayReport,
    PropagatorHandle,
    a_prop_apply,
    a_prop_norm_decay,
    conv_norm_decay,
    decay_report_to_csv,
    derivative_identity_check,
    laplace_check,
    make_propagator,
    prop_apply,
    prop_norm_decay,
    prop_time_derivative,
    propagator_snapshots,
    strong_continuity_check,
    uno_identity_check,
)

RNG = np.random.default_rng(271828)
ALPHA = 1.5
GAMMA = -0.75


def ladder():
    return build_ladder_model(GAMMA, math.pi / 6, 1e-2, 1e4, 4)


def wide_ladder():
    # reaches high enough spectral radii that the t -> 0 transition
    # rho* = t^{-alpha} stays inside the modelled range
    return build_ladder_model(GAMMA, math.pi / 6, 1e-2, 1e7, 4)


def rand_vec(m):
    return RNG.standard_normal(m.dimension) + 1j * RNG.standard_normal(m.dimension)


def mid_theta0(m, alpha=ALPHA):
    return 0.5 * (math.pi / 2.0 + (math.pi - m.profile.theta) / alpha)


class TestHandle:
    def test_rejects_bad_alpha(self):
        for alpha in [0.5, 1.0, 2.0, 2.5]:
            with pytest.raises(ValueError):
                make_propagator(ladder(), alpha)

    def test_rejects_unknown_representation(self):
        with pytest.raises(ValueError):
            make_propagator(ladder(), ALPHA, representation="dense")

    def test_rejects_inadmissible_sector(self):
        # mu of this model exceeds pi - alpha*pi/2 once alpha is close to 2
        with pytest.raises(ValueError):
            make_propagator(ladder(), 1.9)

    def test_t0_limit(self):
        m = ladder()
        x = rand_vec(m)
        p1 = make_propagator(m, ALPHA, representation="oracle")
        assert np.allclose(prop_apply(p1, 0.0, x), x)
        p2 = make_propagator(m, ALPHA, delta=2.0, representation="oracle")
        assert np.allclose(prop_apply(p2, 0.0, x), x)  # 1/Gamma(2) = 1
        with pytest.raises(ValueError):
            prop_apply(p1, -1.0, x)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("representation", ["oracle", "gamma-path", "hankel-path"])
    def test_rejects_time_outside_half_line(self, representation, t):
        m = ladder()
        x = rand_vec(m)
        p = make_propagator(m, ALPHA, representation=representation)
        with pytest.raises(ValueError, match="finite"):
            prop_apply(p, t, x)
        with pytest.raises(ValueError, match="finite"):
            prop_time_derivative(p, t, 1, x)

    def test_make_propagator_is_the_handle(self):
        m = ladder()
        assert make_propagator(m, ALPHA, delta=2.0, representation="oracle") == PropagatorHandle(
            m, ALPHA, 2.0, "oracle"
        )


class TestRepresentationsAgree:
    def test_scalar_closed_form(self):
        m = build_scalar_model(2.0)
        x = np.array([1.0, 0.0], dtype=complex)
        p = make_propagator(m, ALPHA, representation="gamma-path")
        for t in [0.3, 1.0, 5.0]:
            want = ml_eval(MLParams(ALPHA, 1.0), -(t**ALPHA) * 2.0)
            assert abs(prop_apply(p, t, x)[0] - want) <= 1e-8 * abs(want) + 1e-12

    def test_three_way(self):
        m = ladder()
        x = rand_vec(m)
        hank = HankelSpec(theta0=mid_theta0(m))
        handles = [
            make_propagator(m, ALPHA, representation="oracle"),
            make_propagator(m, ALPHA, representation="gamma-path"),
            make_propagator(m, ALPHA, representation="hankel-path", hankel=hank),
        ]
        for t in [0.1, 1.0]:
            vals = [prop_apply(p, t, x) for p in handles]
            scale = np.linalg.norm(vals[0])
            for v in vals[1:]:
                assert np.linalg.norm(v - vals[0]) <= 1e-8 * scale

    @pytest.mark.parametrize("representation", ["oracle", "gamma-path", "hankel-path"])
    @pytest.mark.parametrize("t", [1e250, 1e300])
    def test_refuse_t_alpha_past_the_float_range(self, representation, t):
        m = ladder()
        p = make_propagator(m, ALPHA, representation=representation)
        with pytest.raises(ValueError, match=re.escape(f"t={t}: t^alpha is not a finite float")):
            prop_apply(p, t, np.ones(m.dimension))

    def test_delta_two(self):
        m = ladder()
        x = rand_vec(m)
        oracle = make_propagator(m, ALPHA, delta=2.0, representation="oracle")
        path = make_propagator(m, ALPHA, delta=2.0, representation="gamma-path")
        for t in [0.5, 2.0]:
            want = prop_apply(oracle, t, x)
            got = prop_apply(path, t, x)
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


# the README ladder's benchmark times
PATH_TIMES = np.geomspace(0.01, 10.0, 8)


class TestGammaPathRoute:
    """The propagator route on Gamma_theta: the lattice of calculus_apply
    over the whole line in log r, its two ends summed in closed form."""

    @pytest.mark.parametrize("delta", [1.0, ALPHA, 2.0])
    def test_ladder_oracle_gap(self, delta):
        m = ladder()
        x = rand_vec(m)
        oracle = make_propagator(m, ALPHA, delta=delta, representation="oracle")
        path = make_propagator(m, ALPHA, delta=delta, representation="gamma-path")
        for t in PATH_TIMES:
            want = prop_apply(oracle, t, x)
            gap = np.linalg.norm(prop_apply(path, t, x) - want) / np.linalg.norm(want)
            assert gap <= 1.5e-12, (t, gap)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_time_derivatives(self, n):
        m = ladder()
        x = rand_vec(m)
        oracle = make_propagator(m, ALPHA, representation="oracle")
        path = make_propagator(m, ALPHA, representation="gamma-path")
        for t in (1e-3, *PATH_TIMES):
            want = prop_time_derivative(oracle, t, n, x)
            gap = np.linalg.norm(prop_time_derivative(path, t, n, x) - want) / np.linalg.norm(want)
            assert gap <= 1e-8, (t, gap)

    def test_node_count(self, monkeypatch):
        # the truncated rays of default_contour hold 4962-5826 nodes here;
        # the kernel is handed the lower ray, half of the evaluated nodes
        m = ladder()
        x = rand_vec(m)
        sizes = []
        path_symbols = contour._path_symbols
        monkeypatch.setattr(
            contour, "_path_symbols", lambda m, z, a, b: sizes.append(z.size) or path_symbols(m, z, a, b)
        )
        path = make_propagator(m, ALPHA, representation="gamma-path")
        for t in PATH_TIMES:
            prop_apply(path, t, x)
        assert len(sizes) == PATH_TIMES.size
        assert max(sizes) <= 1000, sizes

    @pytest.mark.parametrize("t", [1e8, 1e20])
    def test_large_time_keeps_the_small_r_end(self, t):
        # the nodes near r = 1/t^alpha carry a share of order one of
        # E(-t^alpha A) x ~ A^-1 x / (t^alpha Gamma(1 - alpha)); the truncated
        # rays of default_contour stop above them and miss 0.7 % (t = 1e8)
        # and 22 % (t = 1e20)
        m = ladder()
        x = rand_vec(m)
        want = prop_apply(make_propagator(m, ALPHA, representation="oracle"), t, x)
        got = prop_apply(make_propagator(m, ALPHA), t, x)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_close_to_the_truncated_rays(self):
        # the same lattice step as calculus_apply on default_contour, so
        # the two differ by their discretization errors only
        m = ladder()
        x = rand_vec(m)
        ml = MLParams(ALPHA, 1.0)
        want = calculus_apply(m, lambda z: ml_eval(ml, -z), default_contour(m, t_alpha_scale=1.0), x)
        got = prop_apply(make_propagator(m, ALPHA), 1.0, x)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("representation", ["gamma-path", "hankel-path"])
    def test_vanishing_time_is_refused(self, representation):
        # at t = 1e-300 the Gamma_theta path would need ~88,000 nodes and
        # the Hankel nodes -lambda^alpha overflow; the oracle has the limit
        m = ladder()
        x = rand_vec(m)
        path = make_propagator(m, ALPHA, delta=2.0, representation=representation)
        with pytest.raises(ValueError, match="t=1e-300"):
            prop_apply(path, 1e-300, x)
        oracle = make_propagator(m, ALPHA, delta=2.0, representation="oracle")
        assert np.array_equal(prop_apply(oracle, 1e-300, x), x / math.gamma(2.0))


class TestSnapshots:
    @pytest.mark.parametrize("delta", [1.0, ALPHA, 2.0])
    def test_symbol_pair_per_node(self, delta):
        # row i is the oracle symbol pair at t_i; the t = 0 row is (1/Gamma(delta), 0)
        m = ladder()
        grid = TimeGrid(2.0, 8)
        fv, dv = propagator_snapshots(m, ALPHA, delta, grid)
        assert fv.shape == dv.shape == (9, m.n_blocks)
        assert np.all(fv[0] == reciprocal_gamma(delta)) and np.all(dv[0] == 0.0)
        p = make_propagator(m, ALPHA, delta=delta, representation="oracle")
        x = np.arange(m.dimension) + 0.5j
        for i, t in enumerate(grid.nodes()):
            assert np.array_equal(_symbol_apply(m, fv[i], dv[i], x), prop_apply(p, t, x))


def direct_symbol(m, delta, t):
    """The oracle's symbol pair at the eigenvalues, one ``ml_eval`` and one
    ``ml_derivative`` call per eigenvalue."""
    p, ta = MLParams(ALPHA, delta), t**ALPHA
    f = np.array([ml_eval(p, -ta * lam) for lam in m.lam])
    df = np.array([-ta * ml_derivative(p, -ta * lam, 1) for lam in m.lam])
    return f, df


class TestConjugatePairs:
    """The oracle evaluates the symbol once per distinct eigenvalue, and once
    per exact conjugate pair, whose lower member takes the conjugate."""

    TS = np.geomspace(0.01, 10.0, 8)

    @staticmethod
    def count_points(monkeypatch) -> list:
        """Record the number of points of each Mittag-Leffler dispatch the
        oracle makes."""
        sizes = []
        dispatch = propagators._ml

        def counted(p, z, orders):
            sizes.append(np.size(z))
            return dispatch(p, z, orders)

        monkeypatch.setattr(propagators, "_ml", counted)
        return sizes

    def test_one_point_per_pair_and_t(self, monkeypatch):
        m = ladder()
        assert np.array_equal(m.lam[25:], m.lam[:25].conj())
        sizes = self.count_points(monkeypatch)
        x = rand_vec(m)
        p = make_propagator(m, ALPHA, representation="oracle")
        prop_apply(p, 0.5, x)
        assert sizes == [25]
        grid = TimeGrid(2.0, 16)
        sizes.clear()
        propagator_snapshots(m, ALPHA, 1.0, grid)
        assert sizes == [25 * 16]
        sizes.clear()
        laplace_check(p, 2.0, x, nodes_per_decade=8)
        assert sizes == [25 * int(8 * math.log10(45.0 / 1e-14))]

    @pytest.mark.parametrize("delta", [1.0, ALPHA, 2.0, 2.5])
    def test_matches_per_eigenvalue_calls(self, delta):
        m = ladder()
        x = rand_vec(m)
        p = make_propagator(m, ALPHA, delta=delta, representation="oracle")
        fv, dv = propagator_snapshots(m, ALPHA, delta, TimeGrid(10.0, 8))
        for i, t in enumerate(TimeGrid(10.0, 8).nodes()[1:], 1):
            f, df = direct_symbol(m, delta, t)
            assert np.all(np.abs(fv[i] - f) <= 4e-15 * np.abs(f))
            assert np.all(np.abs(dv[i] - df) <= 4e-15 * np.abs(df))
            want = _symbol_apply(m, f, df, x)
            assert np.max(np.abs(prop_apply(p, t, x) - want)) <= 4e-15 * np.max(np.abs(want))

    def test_nudged_eigenvalue_is_evaluated_directly(self, monkeypatch):
        # one ulp off its partner's conjugate, block 30 and its former partner
        # block 5 each get a point of their own, with the bits of a direct call
        m = ladder()
        lam = m.lam.copy()
        lam[30] = complex(lam[30].real, np.nextafter(lam[30].imag, 0.0))
        nudged = AlmostSectorialModel(lam, m.coupling, m.profile)
        sizes = self.count_points(monkeypatch)
        fv, dv = propagator_snapshots(nudged, ALPHA, 1.0, TimeGrid(10.0, 8))
        assert sizes == [26 * 8]
        for i, t in enumerate(TimeGrid(10.0, 8).nodes()[1:], 1):
            f, df = direct_symbol(nudged, 1.0, t)
            for j in (5, 30):
                assert fv[i, j] == f[j] and dv[i, j] == df[j]

    def test_lower_member_first_and_a_repeat(self, monkeypatch):
        # blocks 0 and 1 a pair listed lower member first, blocks 2 and 3 one
        # eigenvalue twice, block 4 on its own: three conjugate classes
        m = ladder()
        a, b, c = m.lam[3], m.lam[7], m.lam[40]
        lam = np.array([a.conjugate(), a, b, b, c])
        model = AlmostSectorialModel(lam, m.coupling[:5], m.profile)
        sizes = self.count_points(monkeypatch)
        grid = TimeGrid(10.0, 8)
        fv, dv = propagator_snapshots(model, ALPHA, 1.0, grid)
        assert sizes == [3 * 8]
        for i, t in enumerate(grid.nodes()[1:], 1):
            f, df = direct_symbol(model, 1.0, t)
            assert np.all(np.abs(fv[i] - f) <= 4e-15 * np.abs(f))
            assert np.all(np.abs(dv[i] - df) <= 4e-15 * np.abs(df))

    @pytest.mark.parametrize(
        "model", [build_scalar_model(2.0), build_ladder_model(GAMMA, 0.0, 1e-2, 1e4, 4)]
    )
    def test_real_spectra_keep_their_bits(self, model):
        # no pairs: one dispatch over every eigenvalue, as without the pairing
        grid = TimeGrid(10.0, 8)
        t = grid.nodes()[1:, None]
        ta = t**ALPHA
        e, de = mittag_leffler._ml(MLParams(ALPHA, 1.0), -ta * model.lam, (0, 1))
        fv, dv = propagator_snapshots(model, ALPHA, 1.0, grid)
        assert np.array_equal(fv[1:], e) and np.array_equal(dv[1:], -ta * de)
        x = rand_vec(model)
        p = make_propagator(model, ALPHA, representation="oracle")
        for i, ti in enumerate(t[:, 0]):
            assert np.array_equal(prop_apply(p, ti, x), _symbol_apply(model, e[i], -ta[i] * de[i], x))

    def test_refuses_t_alpha_past_the_float_range(self):
        m = ladder()
        p = make_propagator(m, ALPHA, representation="oracle")
        with pytest.raises(ValueError, match=r"t=1e\+250: t\^alpha is not a finite float"):
            prop_apply(p, 1e250, np.ones(m.dimension))
        with pytest.raises(ValueError, match=r"t=1e\+250: t\^alpha is not a finite float"):
            prop_norm_decay(p, [1.0, 1e250])

    def test_refuses_complex_t(self):
        with pytest.raises(ValueError, match="t must be real"):
            propagators._symbol_values(MLParams(ALPHA, 1.0), np.array([1.0 + 0j]), ladder().lam)


class TestNormDecay:
    TS = np.geomspace(0.01, 10.0, 16)

    def test_e_alpha_slope(self):
        p = make_propagator(ladder(), ALPHA, representation="oracle")
        rep = prop_norm_decay(p, self.TS)
        assert abs(rep.fitted_slope - (-ALPHA * (1.0 + GAMMA))) <= 0.08

    def test_t_e_alpha2_slope(self):
        p = make_propagator(ladder(), ALPHA, delta=2.0, representation="oracle")
        rep = prop_norm_decay(p, self.TS, with_prefactor=True)
        assert abs(rep.fitted_slope - (1.0 - ALPHA * (1.0 + GAMMA))) <= 0.08

    def test_conv_slope(self):
        # norm of A (g_{alpha-1} * E_alpha)(t), i.e. of the time derivative
        p = make_propagator(ladder(), ALPHA, representation="oracle")
        rep = conv_norm_decay(p, self.TS)
        assert abs(rep.fitted_slope - (-1.0 - ALPHA * (1.0 + GAMMA))) <= 0.15

    def test_a_e_slope(self):
        p = make_propagator(ladder(), ALPHA, delta=ALPHA, representation="oracle")
        rep = a_prop_norm_decay(p, self.TS)
        assert abs(rep.fitted_slope - (-2.0 * ALPHA - ALPHA * GAMMA)) <= 0.1

    def test_constant_positive(self):
        p = make_propagator(ladder(), ALPHA, representation="oracle")
        rep = prop_norm_decay(p, self.TS)
        assert rep.c_empirical > 0
        assert np.all(rep.norms > 0)

    def test_rejects_bad_sweep(self):
        p = make_propagator(ladder(), ALPHA, representation="oracle")
        with pytest.raises(ValueError):
            prop_norm_decay(p, [1.0])
        with pytest.raises(ValueError):
            prop_norm_decay(p, [0.0, 1.0])
        # two equal times leave the log-log fit without a slope
        with pytest.raises(ValueError, match="positive finite values at two distinct abscissae"):
            prop_norm_decay(p, [1.0, 1.0])


class TestTimeDerivative:
    def finite_difference(self, p, t, n, x, h):
        # central differences of t^{delta-1} E(.) x
        g = lambda s: s ** (p.delta - 1.0) * prop_apply(p, s, x)
        if n == 1:
            return (g(t + h) - g(t - h)) / (2.0 * h)
        return (g(t + h) - 2.0 * g(t) + g(t - h)) / h**2

    @pytest.mark.parametrize("delta", [1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_finite_differences(self, delta, n):
        m = ladder()
        x = rand_vec(m)
        p = make_propagator(m, ALPHA, delta=delta, representation="oracle")
        t = 1.0
        want = prop_time_derivative(p, t, n, x)
        h = 1e-5 if n == 1 else 1e-4
        fd = self.finite_difference(p, t, n, x, h)
        assert np.linalg.norm(fd - want) <= 1e-5 * (np.linalg.norm(want) + 1.0)

    def test_order_zero_is_prefactored_apply(self):
        m = ladder()
        x = rand_vec(m)
        p = make_propagator(m, ALPHA, delta=2.0, representation="oracle")
        want = 2.0 * prop_apply(p, 2.0, x)
        assert np.allclose(prop_time_derivative(p, 2.0, 0, x), want)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_paths_against_oracle(self, n):
        # each path applies the shifted symbol E_{alpha,delta-n} itself
        m = ladder()
        x = rand_vec(m)
        oracle = make_propagator(m, ALPHA, representation="oracle")
        pg = make_propagator(m, ALPHA, representation="gamma-path")
        ph = make_propagator(m, ALPHA, representation="hankel-path")
        for t in (0.1, 1.0, 5.0):
            want = prop_time_derivative(oracle, t, n, x)
            for p in (pg, ph):
                gap = np.linalg.norm(prop_time_derivative(p, t, n, x) - want) / np.linalg.norm(want)
                assert gap <= 1e-8

    @pytest.mark.parametrize("delta", [1.0, ALPHA, 2.0, ALPHA + 1.0])
    @pytest.mark.parametrize("model", ["ladder", "scalar"])
    def test_hankel_every_delta(self, model, delta):
        # the Hankel path serves the whole E_{alpha,delta} family and its
        # time derivatives through the shift delta -> delta - n
        if model == "ladder":
            m = ladder()
            z1, z2 = np.random.default_rng(1).standard_normal((2, m.dimension))
            x = z1 + 1j * z2
        else:
            m = build_scalar_model(2.0)
            x = np.array([1.0, 0.0], dtype=complex)
        oracle = make_propagator(m, ALPHA, delta=delta, representation="oracle")
        hankel = make_propagator(m, ALPHA, delta=delta, representation="hankel-path")
        for n in (0, 1, 2):
            for t in (0.1, 1.0, 5.0):
                want = prop_time_derivative(oracle, t, n, x)
                got = prop_time_derivative(hankel, t, n, x)
                assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_rejects_bad_args(self):
        p = make_propagator(ladder(), ALPHA, representation="oracle")
        x = rand_vec(p.model)
        with pytest.raises(ValueError):
            prop_time_derivative(p, 0.0, 1, x)
        with pytest.raises(ValueError):
            prop_time_derivative(p, 1.0, -1, x)
        with pytest.raises(ValueError):
            prop_time_derivative(p, 1.0, 3, x)
        with pytest.raises(ValueError):
            prop_time_derivative(p, 1.0, 1.5, x)


class TestAProp:
    def test_dual_forms_agree(self):
        # A f(A) = (z f)(A): the composed form against the calculus applied
        # to the symbol z E_{alpha,delta}(-t^alpha z)
        m = ladder()
        x = rand_vec(m)
        p = make_propagator(m, ALPHA, delta=ALPHA, representation="oracle")
        for t in [0.5, 1.0, 3.0]:
            composed = a_prop_apply(p, t, x)
            g = lambda z: z * ml_eval(MLParams(ALPHA, ALPHA), -(t**ALPHA) * z)
            direct = calculus_apply(m, g, default_contour(m, t_alpha_scale=t**ALPHA), x)
            assert np.linalg.norm(direct - composed) <= 1e-8 * np.linalg.norm(composed)

    @pytest.mark.parametrize(
        "t, why",
        [
            (-1.0, "t must be nonnegative and finite"),
            (math.nan, "t must be nonnegative and finite"),
            (math.inf, "t must be nonnegative and finite"),
            (1e250, "t^alpha is not a finite float"),
        ],
    )
    def test_rejects_bad_t(self, t, why):
        p = make_propagator(ladder(), ALPHA, delta=ALPHA, representation="oracle")
        with pytest.raises(ValueError, match=re.escape(why)):
            a_prop_apply(p, t, rand_vec(p.model))

    def test_at_t_zero_is_the_limit(self):
        # A x / Gamma(delta)
        p = make_propagator(ladder(), ALPHA, delta=ALPHA, representation="oracle")
        x = rand_vec(p.model)
        want = op_apply(p.model, reciprocal_gamma(ALPHA) * x)
        assert np.array_equal(a_prop_apply(p, 0.0, x), want)


class TestIdentities:
    def test_laplace_transform(self):
        m = ladder()
        x = rand_vec(m)
        p = make_propagator(m, ALPHA, representation="oracle")
        for lam in [0.5, 2.0, 10.0]:
            assert laplace_check(p, lam, x) <= 1e-4

    def test_laplace_matches_per_t_loop(self):
        m = build_ladder_model(GAMMA, math.pi / 6, 1e-2, 1e2, 2)
        x = rand_vec(m)
        p = make_propagator(m, ALPHA, representation="oracle")
        lam, npd = 2.0, 8
        # the t integral as a loop of oracle prop_apply calls
        ts = np.geomspace(1e-14 / lam, 45.0 / lam, int(npd * math.log10(45.0 / 1e-14)))
        w = _trapezoid_weights(np.log(ts))
        integral = sum(wj * tj * math.exp(-lam * tj) * prop_apply(p, tj, x) for tj, wj in zip(ts, w))
        rhs = lam ** (ALPHA - 1.0) * (-resolvent_apply(m, -(lam**ALPHA), x))
        want = np.linalg.norm(integral - rhs) / np.linalg.norm(x)
        # the residual is relative to ||x||, so this bounds the change of the
        # integral by 1e-13 ||x||
        assert abs(laplace_check(p, lam, x, nodes_per_decade=npd) - want) <= 1e-13

    def test_laplace_rejects_bad_lam(self):
        p = make_propagator(ladder(), ALPHA, representation="oracle")
        with pytest.raises(ValueError):
            laplace_check(p, -1.0, rand_vec(p.model))
        # NaN and inf are refused before they reach the node count
        for lam in [0.0, math.nan, math.inf]:
            with pytest.raises(ValueError, match="lam must be positive and finite"):
                laplace_check(p, lam, rand_vec(p.model))
        # finite, but lam^alpha is not
        for lam in [1e300, np.float64(1e300)]:
            with pytest.raises(ValueError, match=r"lam\^alpha is not a finite float"):
                laplace_check(p, lam, rand_vec(p.model))

    @pytest.mark.parametrize("npd", [0, -5, 2.5])
    def test_laplace_rejects_bad_nodes_per_decade(self, npd):
        # not clamped to the minimum of 16 nodes, nor taken as a fraction
        p = make_propagator(ladder(), ALPHA, representation="oracle")
        with pytest.raises(ValueError, match="nodes_per_decade must be an integer >= 1"):
            laplace_check(p, 2.0, rand_vec(p.model), nodes_per_decade=npd)

    def test_laplace_rejects_outside_regime(self):
        # alpha (1 + gamma) = 1.125 >= 1
        m = build_ladder_model(-0.25, math.pi / 6, 1e-2, 1e4, 4)
        p = make_propagator(m, ALPHA, representation="oracle")
        with pytest.raises(ValueError, match="laplace check requires"):
            laplace_check(p, 1.0, np.ones(m.dimension))

    def test_derivative_identity_rejects_unknown_method(self):
        m = ladder()
        p = make_propagator(m, ALPHA, representation="oracle")
        with pytest.raises(ValueError, match="unknown method 'dense'"):
            derivative_identity_check(p, 1.0, np.ones(m.dimension), method="dense")

    def test_derivative_identity_oracle(self):
        m = ladder()
        x = rand_vec(m)
        p = make_propagator(m, ALPHA, representation="oracle")
        for t in [0.1, 1.0, 5.0]:
            assert derivative_identity_check(p, t, x, method="oracle") <= 1e-8

    def test_derivative_identity_grid_scalar(self):
        m = build_scalar_model(2.0)
        x = np.array([1.0, 0.0], dtype=complex)
        p = make_propagator(m, ALPHA, representation="oracle")
        assert derivative_identity_check(p, 1.0, x, n_grid=2048) <= 1e-4

    def test_uno_identity(self):
        m = ladder()
        x = rand_vec(m)
        p = make_propagator(m, ALPHA, representation="oracle")
        assert uno_identity_check(p, 1.0, x) <= 1e-5

    def test_oracle_identities_ignore_the_representation(self):
        # both identity checks evaluate through the oracle, whatever the handle
        m = ladder()
        x = rand_vec(m)
        reps = ("oracle", "gamma-path", "hankel-path")
        handles = [make_propagator(m, ALPHA, representation=r) for r in reps]
        for check in (uno_identity_check, partial(derivative_identity_check, method="oracle")):
            got = {check(p, 1.0, x) for p in handles}
            assert len(got) == 1, (check, got)


class TestStrongContinuity:
    def test_operator_norm_slope(self):
        p = make_propagator(wide_ladder(), ALPHA, representation="oracle")
        rep = strong_continuity_check(p, np.geomspace(1e-4, 1e-1, 10))
        assert abs(rep.slope - (-ALPHA * GAMMA)) <= 0.1
        assert rep.constant > 0


class TestCsv:
    def test_round_trip_columns(self):
        p = make_propagator(ladder(), ALPHA, representation="oracle")
        rep = prop_norm_decay(p, np.geomspace(0.1, 10.0, 6))
        text = decay_report_to_csv(rep, header_lines=["seed=1"])
        lines = text.strip().splitlines()
        assert lines[0] == "# seed=1"
        assert lines[1] == "t,norm,fitted_slope,C_empirical"
        body = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
        assert body.shape == (6, 4)
        assert np.allclose(body[:, 0], rep.t_values)
        assert np.allclose(body[:, 1], rep.norms)
        assert np.allclose(body[:, 2], rep.fitted_slope)

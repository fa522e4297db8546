import math

import numpy as np
import pytest

from fracwave.contour import HankelSpec
from fracwave.fractional import TimeGrid, _trapezoid_weights
from fracwave.mittag_leffler import MLParams, ml_eval, reciprocal_gamma
from fracwave.operator_model import _symbol_apply, build_ladder_model, build_scalar_model, resolvent_apply
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

    def test_delta_two(self):
        m = ladder()
        x = rand_vec(m)
        oracle = make_propagator(m, ALPHA, delta=2.0, representation="oracle")
        path = make_propagator(m, ALPHA, delta=2.0, representation="gamma-path")
        for t in [0.5, 2.0]:
            want = prop_apply(oracle, t, x)
            got = prop_apply(path, t, x)
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


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
        m = ladder()
        x = rand_vec(m)
        p = make_propagator(m, ALPHA, delta=ALPHA, representation="oracle")
        for t in [0.5, 1.0, 3.0]:
            composed = a_prop_apply(p, t, x, via="apply")
            direct = a_prop_apply(p, t, x, via="contour")
            assert np.linalg.norm(direct - composed) <= 1e-8 * np.linalg.norm(composed)

    def test_rejects_unknown_via(self):
        p = make_propagator(ladder(), ALPHA, representation="oracle")
        with pytest.raises(ValueError):
            a_prop_apply(p, 1.0, rand_vec(p.model), via="dense")


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

    def test_laplace_rejects_outside_regime(self):
        # alpha (1 + gamma) = 1.125 >= 1
        m = build_ladder_model(-0.25, math.pi / 6, 1e-2, 1e4, 4)
        p = make_propagator(m, ALPHA, representation="oracle")
        with pytest.raises(ValueError, match="laplace check requires"):
            laplace_check(p, 1.0, np.ones(m.dimension))

    @pytest.mark.parametrize("check", [derivative_identity_check, uno_identity_check])
    def test_identities_reject_unknown_method(self, check):
        m = ladder()
        p = make_propagator(m, ALPHA, representation="oracle")
        with pytest.raises(ValueError, match="unknown method 'dense'"):
            check(p, 1.0, np.ones(m.dimension), method="dense")

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
        for check in (uno_identity_check, derivative_identity_check):
            got = {check(p, 1.0, x, method="oracle") for p in handles}
            assert len(got) == 1, (check.__name__, got)

    def test_uno_identity_grid_scalar(self):
        m = build_scalar_model(2.0)
        x = np.array([1.0, 0.0], dtype=complex)
        p = make_propagator(m, ALPHA, representation="oracle")
        coarse = uno_identity_check(p, 1.0, x, method="grid", n_grid=512)
        fine = uno_identity_check(p, 1.0, x, method="grid", n_grid=2048)
        assert fine <= 1e-6
        assert fine <= coarse


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

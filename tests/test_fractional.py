import cmath
import dataclasses
import math

import numpy as np
import pytest
from scipy.special import gamma

from fracwave import fractional
from fracwave.fractional import (
    Kernel,
    TimeGrid,
    Trajectory,
    caputo_derivative,
    duhamel_convolve,
    rl_integral,
    trajectory_from_csv,
    trajectory_to_csv,
)
from fracwave.mittag_leffler import MLParams, ml_eval
from fracwave.operator_model import build_ladder_model, build_scalar_model
from fracwave.solvers import ForcingSpec, WaveProblem, solve_linear


def make_traj(grid, fn):
    t = grid.nodes()
    return Trajectory(grid, np.asarray([fn(ti) for ti in t], dtype=complex))


class TestTimeGrid:
    def test_nodes(self):
        g = TimeGrid(2.0, 4, grading=1.0)
        assert np.allclose(g.nodes(), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_graded_monotone(self):
        g = TimeGrid(1.0, 64, grading=2.5)
        t = g.nodes()
        assert t[0] == 0.0 and t[-1] == 1.0
        assert np.all(np.diff(t) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 4, grading=0.5)

    @pytest.mark.parametrize(
        "n_steps, grading",
        [
            (8, math.nan),  # NaN nodes
            (8, math.inf),  # every interior node underflows to 0
            (8, 1e6),  # the same at a finite grading
            (2.5, 2.0),  # no whole number of rows
        ],
    )
    def test_rejects_grids_without_valid_nodes(self, n_steps, grading):
        with pytest.raises(ValueError):
            TimeGrid(1.0, n_steps, grading=grading)

    def test_numpy_integer_steps(self):
        g = TimeGrid(1.0, np.int64(8))
        assert g.n_steps == 8 and type(g.n_steps) is int
        assert np.array_equal(g.nodes(), TimeGrid(1.0, 8).nodes())
        assert Trajectory(g, np.zeros(9)).values.shape == (9, 1)


class TestRLIntegral:
    def test_beta_one_is_plain_integral(self):
        grid = TimeGrid(1.0, 32, grading=1.0)
        u = make_traj(grid, lambda t: 1.0)
        out = rl_integral(Kernel(1.0), u)
        assert np.allclose(out.values[:, 0], grid.nodes(), atol=1e-13)

    def test_power_rule_half(self):
        # g_beta * t = t^(1+beta) / Gamma(2+beta)
        grid = TimeGrid(1.0, 64, grading=1.0)
        u = make_traj(grid, lambda t: t)
        out = rl_integral(Kernel(0.5), u)
        t = grid.nodes()
        ref = t**1.5 / gamma(2.5)
        assert np.allclose(out.values[:, 0], ref, atol=1e-13)

    def test_zero_input(self):
        grid = TimeGrid(1.0, 16)
        u = make_traj(grid, lambda t: 0.0)
        out = rl_integral(Kernel(2.0), u)
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("beta", [0.5, 1.5])
    def test_kernel_values(self, beta):
        t = np.array([0.0, 0.25, 1.0, 4.0])
        got = Kernel(beta)(t)
        assert got[0] == 0.0
        assert np.allclose(got[1:], t[1:] ** (beta - 1.0) / gamma(beta), rtol=1e-15, atol=0.0)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            Kernel(0.0)
        with pytest.raises(ValueError):
            Kernel(-0.5)

    @pytest.mark.parametrize("a,b", [(0.3, 0.7), (0.7, 1.1), (0.3, 1.1)])
    def test_semigroup(self, a, b):
        grid = TimeGrid(1.0, 256, grading=2.0)
        u = make_traj(grid, lambda t: math.cos(3.0 * t))
        two_step = rl_integral(Kernel(b), rl_integral(Kernel(a), u))
        one_step = rl_integral(Kernel(a + b), u)
        gap = np.max(np.abs(two_step.values - one_step.values))
        assert gap < 5e-5

    def test_identity_limit(self):
        # I^1 then differencing recovers u to grid order
        grid = TimeGrid(1.0, 512, grading=1.0)
        u = make_traj(grid, lambda t: math.sin(2.0 * t))
        out = rl_integral(Kernel(1.0), u)
        t = grid.nodes()
        du = np.gradient(out.values[:, 0].real, t)
        assert np.max(np.abs(du[1:-1] - u.values[1:-1, 0].real)) < 5e-5


class TestCaputo:
    def test_power_alpha(self):
        # caputo of t^alpha is Gamma(alpha+1), constant
        alpha = 1.5
        grid = TimeGrid(1.0, 512, grading=2.0)
        w = make_traj(grid, lambda t: t**alpha)
        out = caputo_derivative(alpha, w, np.array([0.0]))
        ref = gamma(alpha + 1.0)
        lo = np.searchsorted(grid.nodes(), 0.02)
        interior = out.values[lo:-1, 0].real
        assert np.max(np.abs(interior - ref)) / ref < 5e-3

    def test_affine_killed(self):
        grid = TimeGrid(1.0, 64, grading=2.0)
        w = make_traj(grid, lambda t: 2.0 + 3.0 * t)
        out = caputo_derivative(1.5, w, np.array([3.0]))
        assert np.max(np.abs(out.values)) < 1e-12

    def test_quadratic(self):
        # caputo of t^2 with alpha=1.5 is 2 t^0.5 / Gamma(1.5)
        grid = TimeGrid(1.0, 512, grading=2.0)
        w = make_traj(grid, lambda t: t * t)
        out = caputo_derivative(1.5, w, np.array([0.0]))
        t = grid.nodes()
        ref = 2.0 * np.sqrt(t) / gamma(1.5)
        interior = slice(8, -1)
        err = np.max(np.abs(out.values[interior, 0].real - ref[interior]))
        assert err < 2e-2

    def test_inversion(self):
        # caputo(alpha, I^alpha u + affine) = u at interior nodes
        alpha = 1.4
        grid = TimeGrid(1.0, 1024, grading=2.0)
        u = make_traj(grid, lambda t: math.cos(2.0 * t))
        v = rl_integral(Kernel(alpha), u)
        t = grid.nodes()
        vals = v.values + 0.7 + 0.3 * t[:, None]
        out = caputo_derivative(alpha, Trajectory(grid, vals), np.array([0.3]))
        lo = np.searchsorted(t, 0.02)
        interior = slice(lo, -2)
        err = np.max(np.abs(out.values[interior, 0] - u.values[interior, 0]))
        assert err < 1e-2

    def test_validation(self):
        grid = TimeGrid(1.0, 64)
        w = make_traj(grid, lambda t: t)
        with pytest.raises(ValueError):
            caputo_derivative(2.5, w, np.array([0.0]))
        small = TimeGrid(1.0, 2)
        with pytest.raises(ValueError):
            caputo_derivative(1.5, make_traj(small, lambda t: t), np.array([0.0]))


class TestDuhamel:
    def test_zero_forcing(self):
        grid = TimeGrid(1.0, 64)
        f = make_traj(grid, lambda t: [0.0, 0.0])
        out = duhamel_convolve(build_scalar_model(1.0), 1.5, f)
        assert np.all(out.values == 0.0)

    def test_scalar_constant_forcing(self):
        # w = g_{alpha-1} * E_alpha * 1 -> (1 - E_alpha(-t^alpha a)) / a
        alpha, a = 1.5, 2.0
        errs = []
        for n in [128, 256]:
            grid = TimeGrid(1.0, n, grading=2.0)
            f = make_traj(grid, lambda t: [1.0, 1.0])
            out = duhamel_convolve(build_scalar_model(a), alpha, f)
            t = grid.nodes()
            ref = np.array(
                [
                    (1.0 - ml_eval(MLParams(alpha, 1.0), -(ti**alpha) * a)) / a
                    for ti in t
                ]
            )
            errs.append(np.max(np.abs(out.values[:, 0] - ref)))
        assert errs[0] < 1e-3
        assert errs[0] / errs[1] >= 2.0

    def test_linearity(self):
        grid = TimeGrid(1.0, 48, grading=2.0)
        m = build_scalar_model(1.0)
        f1 = make_traj(grid, lambda t: [math.sin(t), t])
        f2 = make_traj(grid, lambda t: [t * t, 1.0])
        both = Trajectory(grid, f1.values + f2.values)
        out = duhamel_convolve(m, 1.5, both)
        sep = duhamel_convolve(m, 1.5, f1).values + duhamel_convolve(m, 1.5, f2).values
        assert np.max(np.abs(out.values - sep)) < 1e-13

    def test_rejects_wrong_dimension(self):
        # the forcing must have one column per model component
        grid = TimeGrid(1.0, 8)
        f = make_traj(grid, lambda t: [t, 1.0, 0.0])
        with pytest.raises(ValueError):
            duhamel_convolve(build_scalar_model(1.0), 1.5, f)


def direct_rl(beta, u):
    """(g_beta * u)(t_i) by the O(n^2) exact sum over every panel."""
    t = u.grid.nodes()
    h = np.diff(t)
    out = np.zeros_like(u.values)
    for i in range(1, u.grid.n_steps + 1):
        lag = t[i] - t[: i + 1]
        p = lag**beta
        m0, m1 = fractional._panel_moments(beta, lag[1:], lag[:-1], p[1:], p[:-1])
        out[i] = (m0 - m1 / h[:i]) @ u.values[:i] + (m1 / h[:i]) @ u.values[1 : i + 1]
    return out


def psi_blocks(m, alpha, delta, tau):
    """Blockwise tau^(delta-1) E_{alpha,delta}(-tau^alpha A) for tau >= 0 (any
    shape), the blocks [[f, s f'], [0, f]] of shape tau.shape + (n_blocks,
    2, 2), f' through values only:
    E'_{alpha,delta} = (E_{alpha,alpha+delta-1} - (delta-1) E_{alpha,alpha+delta})/alpha."""
    ta = tau[..., None] ** alpha
    pre = tau[..., None] ** (delta - 1.0)
    e = lambda d: ml_eval(MLParams(alpha, d), -ta * m.lam)
    f = pre * e(delta)
    fprime = -pre * ta * (e(alpha + delta - 1.0) - (delta - 1.0) * e(alpha + delta)) / alpha
    blocks = np.zeros(f.shape + (2, 2), dtype=complex)
    blocks[..., 0, 0] = blocks[..., 1, 1] = f
    blocks[..., 0, 1] = m.coupling * fprime
    return blocks


def dense_duhamel(m, alpha, f):
    """The two-stage Duhamel term in O(n^2): stage 1 integrates E_alpha against
    the piecewise-linear f panel by panel through Psi1 = tau E_{alpha,2} and
    Psi2 = tau^2 E_{alpha,3}, stage 2 is the direct RL sum."""
    t = f.grid.nodes()
    h = np.diff(t)[None, :, None, None, None]
    lag = np.maximum(t[:, None] - t[None, :], 0.0)  # Psi vanishes at lag 0
    p1, p2 = psi_blocks(m, alpha, 2.0, lag), psi_blocks(m, alpha, 3.0, lag)
    m0 = p1[:, :-1] - p1[:, 1:]
    m1 = p2[:, :-1] - p2[:, 1:] - h * p1[:, 1:]
    fb = f.values.reshape(t.size, -1, 2)
    q = np.einsum("ijkab,jkb->ika", m0 - m1 / h, fb[:-1])
    q += np.einsum("ijkab,jkb->ika", m1 / h, fb[1:])
    return direct_rl(alpha - 1.0, Trajectory(f.grid, q.reshape(t.size, -1)))


def smooth_forcing(grid, d):
    t = grid.nodes()
    rng = np.random.default_rng(7)
    c = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
    return Trajectory(grid, c[0] + np.outer(np.sin(3.0 * t), c[1]) + np.outer(t**0.7, c[2]))


def small_ladder():
    # six coupled blocks, |lambda| in [0.1, 10] on two rays
    return build_ladder_model(-0.75, 0.3, 0.1, 10.0, 1)


def readme_ladder():
    # 50 coupled blocks, |lambda| in [1e-2, 1e4]
    return build_ladder_model(-0.75, math.pi / 6, 1e-2, 1e4, 4)


def reference_phi(x):
    """e^x, phi_1(x), phi_2(x), phi_3(x) of one complex x: the series to
    convergence for |x| < 1/2, the closed forms elsewhere."""
    if abs(x) < 0.5:
        return (cmath.exp(x), *(sum(x**m / math.factorial(m + k) for m in range(40)) for k in (1, 2, 3)))
    e = cmath.exp(x)
    p1 = (e - 1.0) / x
    p2 = (p1 - 1.0) / x
    return e, p1, p2, (p2 - 0.5) / x


def reference_mode_sums(z, w, t, u, lagged=False, derivative=False):
    """What ``fractional._mode_sums`` returns, by one scalar recurrence per mode
    and column: y_i = e^{zh} y_{i-1} + h[(phi_1 - phi_2) u_{i-1} + phi_2 u_i]
    and, for the tau e^{z tau} kernel, its z-derivative dy_i = e^{zh}(dy_{i-1} + h y_{i-1})
    + h^2[(phi_1 - 2 phi_2 + 2 phi_3) u_{i-1} + (phi_2 - 2 phi_3) u_i]."""
    n1, d = u.shape
    zz, ww = np.broadcast_to(z, (z.shape[0], d)), np.broadcast_to(w, (z.shape[0], d))
    out = np.zeros((n1, d), dtype=complex)
    for k in range(z.shape[0]):
        for j in range(d):
            y = dy = 0.0
            for i in range(1, n1):
                h = t[i] - t[i - 1]
                e, p1, p2, p3 = reference_phi(complex(zz[k, j]) * h)
                if lagged:
                    out[i, j] += ww[k, j] * e * y
                data = (p1 - 2 * p2 + 2 * p3) * u[i - 1, j] + (p2 - 2 * p3) * u[i, j]
                dy = e * (dy + h * y) + h * h * data
                y = e * y + h * ((p1 - p2) * u[i - 1, j] + p2 * u[i, j])
                if not lagged:
                    out[i, j] += ww[k, j] * (dy if derivative else y)
    return out


def mode_sum_case(name, n, modes, d=4):
    """Seeded exponents, weights and data for the engine contract tests; the
    rates span |z h| from below to far above phi's series radius."""
    rng = np.random.default_rng(11)
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    t = TimeGrid(1.0, n).nodes()
    u = cplx(n + 1, d)
    rates = -np.geomspace(0.1, 1e3, modes)[:, None]
    poles = -rng.uniform(0.1, 40.0, (modes, d)) + 1j * rng.uniform(-20.0, 20.0, (modes, d))
    return t, u, {
        "real-shared": dict(z=rates, w=cplx(modes, 1)),
        "real-shared-lagged": dict(z=rates, w=rng.uniform(0.1, 1.0, (modes, 1)), lagged=True),
        "real-per-column": dict(z=-np.exp(rng.uniform(-2.3, 6.9, (modes, d))), w=cplx(modes, d)),
        "real-derivative-shared": dict(z=rates, w=cplx(modes, 1), derivative=True),
        "real-derivative-per-column": dict(z=rates, w=cplx(modes, d), derivative=True),
        "complex-per-column": dict(z=poles, w=cplx(modes, d)),
        "complex-derivative-per-column": dict(z=poles, w=cplx(modes, d), derivative=True),
        "complex-per-column-lagged": dict(z=poles, w=cplx(modes, d), lagged=True),
    }[name]


MODE_SUM_CASES = [
    "real-shared",
    "real-shared-lagged",
    "real-per-column",
    "real-derivative-shared",
    "real-derivative-per-column",
    "complex-per-column",
    "complex-derivative-per-column",
    "complex-per-column-lagged",
]


class TestExponentialHistory:
    @pytest.mark.parametrize("chunk_bytes", [None, 1])
    @pytest.mark.parametrize("case", MODE_SUM_CASES)
    def test_mode_sums_match_reference_recurrence(self, monkeypatch, case, chunk_bytes):
        # 24 modes on 21 nodes: with a 1-byte budget a tile holds one node
        # and at most 10 modes, so the modes are split into uneven slices
        t, u, kw = mode_sum_case(case, 20, 24)
        if chunk_bytes is not None:
            monkeypatch.setattr(fractional, "_CHUNK_BYTES", chunk_bytes)
        out = fractional._mode_sums(t=t, u=u, **kw)
        ref = reference_mode_sums(t=t, u=u, **kw)
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", MODE_SUM_CASES)
    def test_mode_sums_do_not_depend_on_tile_size(self, monkeypatch, case):
        # 24 modes on 201 nodes: every budget keeps all modes in one slice,
        # and the default one holds ~20 times more nodes per tile
        t, u, kw = mode_sum_case(case, 200, 24)
        outs = []
        for chunk_bytes in (fractional._CHUNK_BYTES, 1):
            monkeypatch.setattr(fractional, "_CHUNK_BYTES", chunk_bytes)
            outs.append(fractional._mode_sums(t=t, u=u, **kw))
        assert np.array_equal(outs[0], outs[1])

    @pytest.mark.parametrize(
        "model,alpha,n,T",
        [
            (lambda: build_scalar_model(2.0, gamma=-0.75), 1.5, 256, 1.0),
            (lambda: build_scalar_model(2.0, gamma=-0.75), 1.2, 128, 1.0),
            (lambda: build_scalar_model(2.0, gamma=-0.75), 1.9, 128, 1.0),
            (small_ladder, 1.2, 128, 1.0),
            (small_ladder, 1.5, 128, 1.0),
            (small_ladder, 1.9, 128, 1.0),
            (readme_ladder, 1.5, 32, 1.0),
            # stiff block over a long horizon: the sum must stay accurate
            # relative to the small algebraic tail of E_alpha
            (lambda: build_scalar_model(782.16 - 175.29j, gamma=-0.5), 1.275, 40, 8.14),
            # a root of sigma^alpha = -lambda on the branch cut: arg lambda = (alpha - 1) pi
            (lambda: build_scalar_model(2.0 * cmath.exp(0.2j * math.pi)), 1.2, 64, 1.0),
            # ... and its pole on a node of the first lattice offset tried
            (lambda: build_scalar_model(1.7885565961789676 + 1.29946243086853j), 1.2, 64, 1.0),
            (readme_ladder, 7.0 / 6.0, 32, 1.0),
            # strongly coupled blocks with |lambda| T^alpha << 1
            (lambda: build_ladder_model(-0.75, 0.3, 1e-3, 1e-2, 1, coupling_scale=5e3), 1.2, 64, 1.0),
        ],
    )
    def test_duhamel_matches_dense_reference(self, model, alpha, n, T):
        m = model()
        f = smooth_forcing(TimeGrid(T, n), m.dimension)
        ref = dense_duhamel(m, alpha, f)
        out = duhamel_convolve(m, alpha, f).values
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.all(out[0] == 0.0)

    def test_stiff_constant_forcing(self):
        # w = (1 - E_alpha(-t^alpha a)) / a; a trapezoid rule over E at the
        # lags t_i - t_j under-resolves this block (2.8e-3 at a = 1e4)
        a, alpha = 1e4, 1.5
        p = WaveProblem(
            model=build_scalar_model(a, gamma=-0.75),
            alpha=alpha,
            w0=np.zeros(2),
            w1=np.zeros(2),
            grid=TimeGrid(1.0, 1024),
            forcing=ForcingSpec.time_dependent(lambda t: 1.0),
        )
        w = solve_linear(p).values[:, 0]
        t = p.grid.nodes()
        ref = (1.0 - ml_eval(MLParams(alpha, 1.0), -(t**alpha) * a)) / a
        assert np.max(np.abs(w - ref)) <= 3e-4 * np.max(np.abs(ref))

    def test_column_major_data(self):
        # the engine adds into the real and imaginary parts of a C-ordered output
        grid, m = TimeGrid(1.0, 64), build_scalar_model(2.0)
        u = smooth_forcing(grid, 2)
        f = Trajectory(grid, np.asfortranarray(u.values))
        assert not f.values.flags.c_contiguous
        assert np.array_equal(rl_integral(Kernel(0.5), f).values, rl_integral(Kernel(0.5), u).values)
        assert np.array_equal(duhamel_convolve(m, 1.5, f).values, duhamel_convolve(m, 1.5, u).values)

    @pytest.mark.parametrize("beta", [0.02, 0.1, 0.5, 0.9, 0.98])
    @pytest.mark.parametrize("grading", [1.0, 2.0])
    def test_rl_integral_matches_direct_sum(self, beta, grading):
        grid = TimeGrid(1.0, 2048, grading=grading)
        u = smooth_forcing(grid, 2)
        ref = direct_rl(beta, u)
        out = rl_integral(Kernel(beta), u).values
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("factor", [1.0 + 1e-9, math.nan])
    def test_corrupted_propagator_weight_fails_check(self, factor):
        m, alpha = small_ladder(), 1.5
        lags = np.geomspace(1e-4, 1.0, 32)
        es = fractional._propagator_sum(m, alpha, 1e-4, 1.0)
        fractional._check_propagator_sum(es, m, alpha, lags)
        weights = es.weights.copy()
        k = int(np.argmax(np.abs(weights[:, 0])))
        weights[k, 0] *= factor
        with pytest.raises(ValueError):
            fractional._check_propagator_sum(dataclasses.replace(es, weights=weights), m, alpha, lags)

    def test_power_sum_matches_kernel(self):
        # the trapezoid nodes and the tail mode over beta, the horizon and the
        # shortest lag, at many more lags than the sum's own check
        for beta in (0.001, 0.03, 0.3, 0.5, 0.7, 0.97, 0.999):
            for T in (1e-3, 1.0, 100.0):
                for ratio in (1e-12, 1e-8, 1e-3, 0.5):
                    rates, weights = fractional._power_sum(beta, ratio * T, T)
                    lags = np.geomspace(ratio * T, T, 400)
                    got = np.exp(-np.outer(lags, rates)) @ weights
                    err = np.max(np.abs(got / Kernel(beta)(lags) - 1.0))
                    assert err <= 1e-14, (beta, T, ratio, err)

    def test_corrupted_power_weight_fails_check(self):
        beta, lags = 0.5, np.geomspace(1e-4, 1.0, 32)
        rates, weights = fractional._power_sum(beta, 1e-4, 1.0)
        bad = weights.copy()
        bad[int(np.argmax(weights * np.exp(-rates)))] *= 1.0 + 1e-9
        with pytest.raises(ValueError):
            fractional._check_power_sum(beta, rates, bad, lags)


class TestSerialization:
    def test_round_trip(self):
        grid = TimeGrid(1.5, 16, grading=2.0)
        w = make_traj(grid, lambda t: np.array([t + 1j * t * t, math.cos(t)]))
        text = trajectory_to_csv(w, header_lines=["fracwave-version: test"])
        back = trajectory_from_csv(text)
        assert back.dimension == 2
        assert np.allclose(back.values, w.values, atol=0, rtol=1e-15)
        assert np.allclose(back.grid.nodes(), grid.nodes(), rtol=1e-12)

    def test_header(self):
        grid = TimeGrid(1.0, 2, grading=1.0)
        w = make_traj(grid, lambda t: t)
        text = trajectory_to_csv(w)
        assert text.splitlines()[0] == "t,re_0,im_0"

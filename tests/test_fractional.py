import math

import numpy as np
import pytest
from scipy.special import gamma

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


def scalar_opvals(grid, alpha, a):
    # E_alpha(-t^alpha a) times the 2x2 identity: one block, the scalar
    # problem on each of its two components
    t = grid.nodes()
    e = np.array([ml_eval(MLParams(alpha, 1.0), -(ti**alpha) * a) for ti in t])
    return e[:, None, None, None] * np.eye(2)[None, None]


class TestDuhamel:
    def test_zero_forcing(self):
        grid = TimeGrid(1.0, 64)
        f = make_traj(grid, lambda t: [0.0, 0.0])
        ops = scalar_opvals(grid, 1.5, 1.0)
        out = duhamel_convolve(Kernel(0.5), ops, f)
        assert np.all(out.values == 0.0)

    def test_scalar_constant_forcing(self):
        # w = g_{alpha-1} * E_alpha * 1 -> (1 - E_alpha(-t^alpha a)) / a
        alpha, a = 1.5, 2.0
        errs = []
        for n in [128, 256]:
            grid = TimeGrid(1.0, n, grading=2.0)
            f = make_traj(grid, lambda t: [1.0, 1.0])
            ops = scalar_opvals(grid, alpha, a)
            out = duhamel_convolve(Kernel(alpha - 1.0), ops, f)
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
        ops = scalar_opvals(grid, 1.5, 1.0)
        f1 = make_traj(grid, lambda t: [math.sin(t), t])
        f2 = make_traj(grid, lambda t: [t * t, 1.0])
        both = Trajectory(grid, f1.values + f2.values)
        k = Kernel(0.5)
        out = duhamel_convolve(k, ops, both)
        sep = duhamel_convolve(k, ops, f1).values + duhamel_convolve(k, ops, f2).values
        assert np.max(np.abs(out.values - sep)) < 1e-13

    def test_rejects_dense_snapshots(self):
        # snapshots come as (n+1, nb, 2, 2) blocks; a dense (n+1, d, d)
        # array is refused, not read as blocks
        grid = TimeGrid(1.0, 8)
        f = make_traj(grid, lambda t: [t, 1.0])
        dense = np.zeros((grid.n_steps + 1, 2, 2), dtype=complex)
        with pytest.raises(ValueError):
            duhamel_convolve(Kernel(0.5), dense, f)


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

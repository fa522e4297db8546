import math
import tracemalloc

import numpy as np
import pytest

from fracwave import solvers
from fracwave.fractional import TimeGrid, Trajectory
from fracwave.mittag_leffler import MLParams, ml_eval
from fracwave.operator_model import build_ladder_model, build_scalar_model
from fracwave.solvers import (
    ForcingSpec,
    PicardError,
    WaveProblem,
    hoelder_modulus,
    residual_report_to_csv,
    solve_homogeneous,
    solve_linear,
    solve_semilinear,
    validate_regime,
    verify_classical,
)

RNG = np.random.default_rng(161803)
ALPHA = 1.5
A_SCALAR = 2.0


def scalar_problem(w0=1.0, w1=0.0, forcing=ForcingSpec.none(), n=256, T=1.0, alpha=ALPHA):
    m = build_scalar_model(A_SCALAR, gamma=-0.75)
    return WaveProblem(
        model=m,
        alpha=alpha,
        w0=np.array([w0, 0.0]),
        w1=np.array([w1, 0.0]),
        grid=TimeGrid(T, n),
        forcing=forcing,
    )


def ml_ref(t, a=A_SCALAR, alpha=ALPHA, delta=1.0):
    return ml_eval(MLParams(alpha, delta), -(t**alpha) * a)


class TestValidateRegime:
    def test_homogeneous_ok(self):
        p = scalar_problem()  # gamma = -0.75: 4 > 1.5 > 4/3
        rep = validate_regime(p, "homogeneous")
        assert rep.cond_alpha_upper and rep.cond_alpha_lower and rep.classical_ok

    def test_homogeneous_fails_lower(self):
        m = build_scalar_model(A_SCALAR, gamma=-0.5)  # 1/(-gamma) = 2 > alpha
        p = WaveProblem(
            model=m,
            alpha=ALPHA,
            w0=np.array([1.0, 0.0]),
            w1=np.zeros(2),
            grid=TimeGrid(1.0, 32),
        )
        rep = validate_regime(p, "homogeneous")
        assert rep.cond_alpha_upper and not rep.cond_alpha_lower
        assert not rep.classical_ok

    def test_linear_holder_condition(self):
        f = ForcingSpec.time_dependent(lambda t: t**0.5, nu=0.5)
        p = scalar_problem(forcing=f)  # alpha(1+gamma) = 0.375 < 0.5
        rep = validate_regime(p, "linear")
        assert rep.cond_holder and rep.classical_ok

    def test_holder_estimated_when_undeclared(self):
        f = ForcingSpec.time_dependent(lambda t: t**0.2)  # 0.2 < 0.375
        p = scalar_problem(forcing=f)
        rep = validate_regime(p, "linear")
        assert not rep.cond_holder

    def test_rejects_unknown_theorem(self):
        with pytest.raises(ValueError):
            validate_regime(scalar_problem(), "mild")


class TestHomogeneous:
    def test_scalar_w0_only(self):
        p = scalar_problem(w0=1.0)
        w = solve_homogeneous(p)
        t = p.grid.nodes()
        ref = np.array([ml_ref(ti) if ti > 0 else 1.0 for ti in t])
        assert np.max(np.abs(w.values[:, 0] - ref)) <= 1e-11

    def test_scalar_w1_only(self):
        p = scalar_problem(w0=0.0, w1=1.0)
        w = solve_homogeneous(p)
        t = p.grid.nodes()
        ref = np.array([ti * ml_ref(ti, delta=2.0) for ti in t])
        assert np.max(np.abs(w.values[:, 0] - ref)) <= 1e-11
        # numeric slope at 0 approximates w1
        slope = (w.values[1, 0] - w.values[0, 0]) / t[1]
        assert abs(slope - 1.0) <= 1e-3

    def test_zero_data(self):
        p = scalar_problem(w0=0.0, w1=0.0)
        assert np.all(solve_homogeneous(p).values == 0.0)

    def test_initial_value_exact(self):
        p = scalar_problem(w0=0.7, w1=-0.3)
        w = solve_homogeneous(p)
        assert w.values[0, 0] == pytest.approx(0.7)

    def test_rejects_forced_problem(self):
        p = scalar_problem(forcing=ForcingSpec.time_dependent(lambda t: t))
        with pytest.raises(ValueError):
            solve_homogeneous(p)

    def test_ladder_matches_snapshot_oracle(self):
        from fracwave.propagators import make_propagator, prop_apply

        m = build_ladder_model(-0.75, math.pi / 6, 1e-1, 1e2, 3)
        w0 = RNG.standard_normal(m.dimension)
        prob = WaveProblem(
            model=m,
            alpha=ALPHA,
            w0=w0,
            w1=np.zeros(m.dimension),
            grid=TimeGrid(1.0, 16),
        )
        w = solve_homogeneous(prob)
        ph = make_propagator(m, ALPHA, representation="oracle")
        for i in [4, 16]:
            t = prob.grid.nodes()[i]
            want = prop_apply(ph, t, w0)
            assert np.linalg.norm(w.values[i] - want) <= 1e-12 * np.linalg.norm(want)


class TestLinear:
    def test_zero_forcing_equals_homogeneous(self):
        f = ForcingSpec.time_dependent(lambda t: 0.0)
        p = scalar_problem(w0=0.5, w1=0.2, forcing=f)
        w = solve_linear(p)
        hom = solve_homogeneous(scalar_problem(w0=0.5, w1=0.2))
        assert np.allclose(w.values, hom.values)

    def test_constant_forcing_scalar_limit(self):
        # w0 = w1 = 0, f = 1: w(t) = (1 - E_alpha(-t^alpha a)) / a
        errs = []
        for n in [256, 512, 1024]:
            f = ForcingSpec.time_dependent(lambda t: 1.0)
            p = scalar_problem(w0=0.0, w1=0.0, forcing=f, n=n)
            w = solve_linear(p)
            t = p.grid.nodes()
            ref = np.array([(1.0 - ml_ref(ti)) / A_SCALAR for ti in t])
            errs.append(np.max(np.abs(w.values[:, 0] - ref)))
        assert errs[0] / errs[1] >= 2.0 and errs[1] / errs[2] >= 2.0

    def test_superposition_exact(self):
        f = ForcingSpec.time_dependent(lambda t: math.sin(t))
        full = solve_linear(scalar_problem(w0=0.4, w1=-0.1, forcing=f))
        hom = solve_homogeneous(scalar_problem(w0=0.4, w1=-0.1))
        forced = solve_linear(scalar_problem(w0=0.0, w1=0.0, forcing=f))
        assert np.allclose(full.values, hom.values + forced.values, atol=1e-14)

    def test_rejects_wrong_forcing(self):
        with pytest.raises(ValueError):
            solve_linear(scalar_problem())


class TestSemilinear:
    def test_zero_nonlinearity_fixed_point(self):
        f = ForcingSpec.semilinear(lambda t, w: np.zeros_like(w), lipschitz=0.0)
        p = scalar_problem(w0=0.8, w1=0.0, forcing=f)
        w, iters, history = solve_semilinear(p, tol=1e-12)
        hom = solve_homogeneous(scalar_problem(w0=0.8, w1=0.0))
        assert np.allclose(w.values, hom.values)
        assert iters <= 2 and history[-1] <= 1e-12

    def test_linear_nonlinearity_matches_shifted_scalar(self):
        # f(t, w) = c w turns the scalar problem into one with a - c
        c = 0.5
        f = ForcingSpec.semilinear(lambda t, w: c * w, lipschitz=c)
        p = scalar_problem(w0=1.0, w1=0.0, forcing=f, n=2048)
        w, _, _ = solve_semilinear(p, tol=1e-12)
        t = p.grid.nodes()
        ref = np.array([ml_ref(ti, a=A_SCALAR - c) for ti in t])
        assert np.max(np.abs(w.values[:, 0] - ref)) <= 1e-4

    def test_sin_nonlinearity_residual(self):
        f = ForcingSpec.semilinear(lambda t, w: np.sin(w), lipschitz=1.0)
        p = scalar_problem(w0=1.0, w1=0.0, forcing=f, n=2048, T=0.5)
        w, iters, history = solve_semilinear(p, tol=1e-10)
        assert history[-1] <= 1e-10
        rep = verify_classical(p, w)
        assert rep.max_residual <= 1e-3

    def test_contraction_eventually_geometric(self):
        f = ForcingSpec.semilinear(lambda t, w: np.sin(w), lipschitz=1.0)
        p = scalar_problem(w0=1.0, w1=0.0, forcing=f, n=128, T=0.5)
        _, _, history = solve_semilinear(p, tol=1e-12)
        ratios = [b / a for a, b in zip(history[1:-1], history[2:]) if a > 0]
        assert ratios and max(ratios) < 1.0

    def test_uniqueness_probe(self):
        f = ForcingSpec.semilinear(lambda t, w: np.sin(w), lipschitz=1.0)
        tol = 1e-10
        p = scalar_problem(w0=1.0, w1=0.0, forcing=f, n=128, T=0.5)
        wa, _, _ = solve_semilinear(p, tol=tol, initial="w0")
        wb, _, _ = solve_semilinear(p, tol=tol, initial="zero")
        assert np.max(np.abs(wa.values - wb.values)) <= 10.0 * tol

    def test_nonconvergence_raises_with_history(self):
        f = ForcingSpec.semilinear(lambda t, w: 50.0 * w, lipschitz=50.0)
        p = scalar_problem(w0=1.0, w1=0.0, forcing=f, n=64, T=2.0)
        with pytest.raises(PicardError) as err:
            solve_semilinear(p, tol=1e-12, max_iter=15)
        assert len(err.value.history) == 15
        assert err.value.history[-1] > err.value.history[0]

    def test_snapshots_built_once(self, monkeypatch):
        calls = []
        build = solvers.propagator_snapshots
        monkeypatch.setattr(
            solvers, "propagator_snapshots", lambda *a: calls.append(a[2]) or build(*a)
        )
        f = ForcingSpec.semilinear(lambda t, w: np.sin(w), lipschitz=1.0)
        solve_semilinear(scalar_problem(w0=1.0, w1=0.0, forcing=f, n=64, T=0.5))
        assert calls == [1.0]

    def test_rejects_wrong_forcing(self):
        with pytest.raises(ValueError):
            solve_semilinear(scalar_problem())


class TestVerifyClassical:
    def test_homogeneous_scalar_residual(self):
        p = scalar_problem(w0=1.0, w1=0.0, n=2048)
        rep = verify_classical(p, solve_homogeneous(p))
        assert rep.max_residual <= 1e-3
        assert rep.initial_value_error == 0.0
        assert rep.initial_slope_error <= 1e-2

    def test_residual_halves_under_refinement(self):
        maxima = []
        for n in [1024, 2048]:
            p = scalar_problem(w0=1.0, w1=0.0, n=n)
            maxima.append(verify_classical(p, solve_homogeneous(p)).max_residual)
        assert maxima[0] / maxima[1] >= 1.7

    def test_perturbed_trajectory_flagged(self):
        p = scalar_problem(w0=1.0, w1=0.0, n=512)
        w = solve_homogeneous(p)
        noisy = Trajectory(
            w.grid, w.values + 0.1 * RNG.standard_normal(w.values.shape)
        )
        rep = verify_classical(p, noisy)
        assert rep.max_residual > 1.0

    def test_zero_problem(self):
        p = scalar_problem(w0=0.0, w1=0.0)
        rep = verify_classical(p, solve_homogeneous(p))
        assert rep.max_residual == 0.0

    def test_rejects_mismatched_grid(self):
        p = scalar_problem()
        other = scalar_problem(n=128)
        with pytest.raises(ValueError):
            verify_classical(p, solve_homogeneous(other))


class TestHoelderModulus:
    def grid_func(self, fn, n=128):
        g = TimeGrid(1.0, n)
        vals = np.array([[fn(t)] for t in g.nodes()], dtype=complex)
        return Trajectory(g, vals)

    def test_sqrt(self):
        est = hoelder_modulus(self.grid_func(lambda t: t**0.5))
        assert not est.degenerate
        assert abs(est.nu - 0.5) <= 0.05

    def test_linear(self):
        est = hoelder_modulus(self.grid_func(lambda t: t))
        assert abs(est.nu - 1.0) <= 0.05

    def test_constant_degenerate(self):
        est = hoelder_modulus(self.grid_func(lambda t: 3.0))
        assert est.degenerate and est.nu == 1.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            hoelder_modulus(self.grid_func(lambda t: t, n=4))

    @staticmethod
    def all_pairs_nu(f, n_bins=24):
        """The estimate with every node pair held at once."""
        t, vals = f.grid.nodes(), f.values
        scale = float(np.max(np.abs(vals))) + 1e-300
        i, j = np.triu_indices(t.size, k=1)
        gaps, diffs = t[j] - t[i], np.linalg.norm(vals[j] - vals[i], axis=1)
        good = (diffs > 1e-13 * scale) & (gaps > 0)
        if np.count_nonzero(good) < i.size // 2:
            return 1.0
        gaps, diffs = gaps[good], diffs[good]
        edges = np.geomspace(gaps.min(), gaps.max() * (1 + 1e-12), n_bins + 1)
        which = np.clip(np.searchsorted(edges, gaps, side="right") - 1, 0, n_bins - 1)
        xs, ys = [], []
        for b in range(n_bins):
            if np.any(which == b):
                xs.append(math.log(math.sqrt(edges[b] * edges[b + 1])))
                ys.append(math.log(float(diffs[which == b].max())))
        return float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 4 else 1.0

    @pytest.mark.parametrize("n,dim,grading", [(64, 1, 1.0), (150, 3, 2.0), (300, 1, 2.0)])
    def test_matches_all_pairs(self, n, dim, grading):
        g = TimeGrid(1.0, n, grading=grading)
        rng = np.random.default_rng(n)
        walk = np.cumsum(rng.standard_normal((n + 1, dim)), axis=0)
        f = Trajectory(g, np.sqrt(g.nodes())[:, None] + 0.01 * walk)
        assert hoelder_modulus(f).nu == self.all_pairs_nu(f)

    def test_memory_stays_bounded(self):
        f = self.grid_func(lambda t: t**0.5, n=2048)
        tracemalloc.start()
        try:
            est = hoelder_modulus(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(est.nu - 0.5) <= 0.05
        assert peak < 32 * 2**20


class TestResidualCsv:
    def test_columns(self):
        p = scalar_problem(w0=1.0, n=64)
        rep = verify_classical(p, solve_homogeneous(p))
        text = residual_report_to_csv(rep, header_lines=["config-hash=00"])
        lines = text.strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "t,residual"
        assert len(lines) == 2 + 65

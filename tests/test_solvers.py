import math
import tracemalloc

import numpy as np
import pytest

from fracwave import cli, solvers
from fracwave.fractional import TimeGrid, Trajectory, _DuhamelSteps, duhamel_convolve
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


class TestProblemValidation:
    def test_forcing_spec_rejects_bad_kind_and_func(self):
        with pytest.raises(ValueError, match="unknown forcing kind"):
            ForcingSpec(kind="cubic")
        with pytest.raises(ValueError, match="needs a callable"):
            ForcingSpec(kind="time", func=1.0)

    def test_problem_rejects_bad_alpha_and_dimension(self):
        for alpha in (1.0, 2.0):
            with pytest.raises(ValueError, match="alpha must lie in"):
                scalar_problem(alpha=alpha)
        m = build_scalar_model(A_SCALAR, gamma=-0.75)
        with pytest.raises(ValueError, match="dimension 2"):
            WaveProblem(model=m, alpha=ALPHA, w0=np.ones(3), w1=np.zeros(2), grid=TimeGrid(1.0, 8))


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

    def test_non_finite_increment_stops_the_sweeps(self):
        # the README scalar with T = 4 and f(w) = 1e6 w overflows at sweep 31
        # of 60; the norm of that sweep overflows too, so warnings are muted
        f = ForcingSpec.semilinear(lambda t, w: 1e6 * w, lipschitz=1e6)
        p = scalar_problem(forcing=f, n=256, T=4.0)
        with np.errstate(all="ignore"), pytest.raises(PicardError) as err:
            solve_semilinear(p)
        history = err.value.history
        assert len(history) < 60
        assert not math.isfinite(history[-1])
        assert all(math.isfinite(inc) for inc in history[:-1])

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

    @pytest.mark.parametrize(
        "kw, match",
        [
            ({"tol": 0.0}, "tol > 0"),
            ({"tol": math.nan}, "tol > 0"),
            ({"max_iter": 0}, "max_iter >= 1"),
            ({"max_iter": 5.5}, "max_iter must be an integer"),
            ({"initial": "w1"}, "unknown initialization"),
        ],
        ids=["tol", "tol-nan", "max_iter", "max_iter-float", "initial"],
    )
    def test_rejects_bad_iteration_settings(self, kw, match):
        calls = []
        f = ForcingSpec.semilinear(lambda t, w: calls.append(t) or np.sin(w), lipschitz=1.0)
        with pytest.raises(ValueError, match=match):
            solve_semilinear(scalar_problem(forcing=f, n=16), **kw)
        assert not calls  # rejected before any sweep


def sequential_picard(p, tol=1e-10, max_iter=60):
    """The sweep loop ``solve_semilinear`` ran before it advanced several
    sweeps per pass: one whole-grid ``duhamel_convolve`` per sweep.  Returns
    (w, sweeps or None when max_iter ran out, history)."""
    homog = solvers._homogeneous_values(p)
    w = np.repeat(p.w0[None, :], p.grid.n_steps + 1, axis=0)
    history = []
    for k in range(1, max_iter + 1):
        fvals = solvers._sample_forcing(p, w)
        duh = duhamel_convolve(p.model, p.alpha, Trajectory(p.grid, fvals))
        w_next = homog + duh.values
        inc = solvers._graph_sup_norm(p.model, w_next - w)
        history.append(inc)
        w = w_next
        if inc <= tol:
            return w, k, history
    return w, None, history


def coupled_ladder_problem(n=100):
    # Jordan blocks with |lambda| T^alpha << 1 and strong couplings: the
    # coupling (derivative) passes and the pole modes both run
    m = build_ladder_model(-0.75, 0.3, 1e-3, 1e-2, 1, coupling_scale=5e3)
    w0 = np.zeros(m.dimension, dtype=complex)
    w0[0], w0[1::2] = 1.0, 0.3
    f = ForcingSpec.semilinear(lambda t, w: 0.5 * np.sin(w), lipschitz=0.5)
    return WaveProblem(m, 1.2, w0, np.zeros(m.dimension), TimeGrid(1.0, n), f)


SIN_W = ForcingSpec.semilinear(lambda t, w: np.sin(w), lipschitz=1.0)
DIVERGENT = ForcingSpec.semilinear(lambda t, w: 50.0 * w, lipschitz=50.0)


class TestPicardLevels:
    """Several sweeps per pass over the grid ("levels") against one sweep
    at a time: the same values, sweep count and history, bit for bit."""

    @pytest.mark.parametrize(
        "problem, kw",
        [
            (lambda: scalar_problem(forcing=SIN_W, n=1024), {}),  # the README problem
            (coupled_ladder_problem, {}),
            # converges on the 8th sweep, inside the second pass (sweeps 4 to 9)
            (lambda: scalar_problem(forcing=SIN_W, n=1024), {"tol": 1e-8}),
            # max_iter cuts the second pass to two levels
            (lambda: scalar_problem(forcing=SIN_W, n=257), {"max_iter": 5}),
        ],
        ids=["readme-scalar", "coupled-ladder", "converged-mid-pass", "max-iter-mid-pass"],
    )
    def test_levels_equal_sweeps(self, problem, kw):
        p = problem()
        ref_w, ref_iters, ref_history = sequential_picard(p, **kw)
        if ref_iters is None:
            with pytest.raises(PicardError) as err:
                solve_semilinear(p, **kw)
            assert err.value.history == ref_history
            return
        w, iters, history = solve_semilinear(p, **kw)
        assert np.array_equal(w.values, ref_w)
        assert iters == ref_iters and history == ref_history

    def test_partial_last_tile(self):
        p = scalar_problem(forcing=SIN_W, n=257)
        size = _DuhamelSteps(p.model, p.alpha, p.grid).size
        assert p.grid.n_steps % size != 0
        ref_w, ref_iters, ref_history = sequential_picard(p)
        w, iters, history = solve_semilinear(p)
        assert np.array_equal(w.values, ref_w)
        assert iters == ref_iters and history == ref_history

    @pytest.mark.parametrize("max_iter", [1, 2, 4, 7])
    def test_divergence_stops_at_max_iter(self, max_iter):
        # no level runs past max_iter: RuntimeWarnings are errors here, and
        # an overflowing sweep would raise one instead of PicardError
        p = scalar_problem(w0=1.0, w1=0.0, forcing=DIVERGENT, n=64, T=2.0)
        _, _, ref_history = sequential_picard(p, tol=1e-12, max_iter=15)
        with pytest.raises(PicardError) as err:
            solve_semilinear(p, tol=1e-12, max_iter=max_iter)
        assert err.value.history == ref_history[:max_iter]

    def test_wrong_forcing_shape_raises_the_same_error(self):
        f = ForcingSpec.semilinear(lambda t, w: np.zeros(3), lipschitz=1.0)
        with pytest.raises(ValueError, match=r"^forcing samples have shape \(65, 3\), want \(65, 2\)$"):
            solve_semilinear(scalar_problem(forcing=f, n=64))

    def test_wrong_forcing_shape_exits_3(self, tmp_path, monkeypatch, capsys):
        bad = ForcingSpec.semilinear(lambda t, w: np.zeros(3), lipschitz=1.0)
        monkeypatch.setattr(cli, "_forcing_from_config", lambda cfg: bad)
        path = tmp_path / "run.cfg"
        path.write_text("model = scalar\na = 2\nn_steps = 64\nw0 = 1\nproblem = semilinear\n")
        assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error: forcing samples have shape (65, 3)")

    def test_forcing_error_part_way_propagates(self):
        calls = []

        def f(t, w):
            calls.append(t)
            if len(calls) == 200:  # on the first level, between tiles
                raise ZeroDivisionError("forcing failed")
            return np.sin(w)

        with pytest.raises(ZeroDivisionError, match="forcing failed"):
            solve_semilinear(scalar_problem(forcing=ForcingSpec.semilinear(f, 1.0), n=1024))

    def test_forcing_error_past_the_converged_sweep_is_not_seen(self):
        # the third level of the first pass raises, but the second sweep has
        # converged: one sweep at a time never reaches the third
        starts = []

        def f(t, w):
            if t == 0.0:
                starts.append(t)
                if len(starts) == 3:
                    raise ZeroDivisionError("third sweep")
            return np.zeros_like(w)

        p = scalar_problem(w0=0.8, forcing=ForcingSpec.semilinear(f, 0.0), n=64)
        w, iters, history = solve_semilinear(p, tol=1e-12)
        assert iters <= 2 and len(starts) == 3
        assert np.array_equal(w.values, solvers._homogeneous_values(p))

    def test_forcing_called_per_node(self):
        seen = set()

        def f(t, w):
            seen.add((type(t), np.shape(w)))
            return np.sin(w)

        solve_semilinear(scalar_problem(forcing=ForcingSpec.semilinear(f, 1.0), n=64))
        assert seen == {(np.float64, (2,))}


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

    @pytest.mark.parametrize("window", [1.0, 1.5, -0.1, math.nan])
    def test_rejects_window_outside_unit_interval(self, window):
        p = scalar_problem(n=16)
        with pytest.raises(ValueError, match="window must lie in"):
            verify_classical(p, solve_homogeneous(p), window=window)

    def test_window_without_interior_nodes_is_nan(self):
        # t_7 = (7/8)^2 T < 0.99 T, so no node lies in [0.99 T, T)
        p = scalar_problem(n=8)
        assert math.isnan(verify_classical(p, solve_homogeneous(p), window=0.99).max_residual)


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

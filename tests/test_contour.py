import cmath
import math
import re

import numpy as np
import pytest

from fracwave import contour, propagators
from fracwave.contour import (
    ContourSpec,
    HankelSpec,
    _HANKEL_L,
    _HANKEL_MU_T,
    calculus_apply,
    default_contour,
    hankel_propagator,
    resolvent_of_power_sum,
)
from fracwave.fractional import _trapezoid_weights
from fracwave.mittag_leffler import MLParams, ml_derivative, ml_eval
from fracwave.operator_model import (
    AlmostSectorialModel,
    SectorProfile,
    _symbol_apply,
    build_ladder_model,
    build_scalar_model,
    resolvent_apply,
    resolvent_norm,
    spectral_apply,
)
from fracwave.propagators import make_propagator, prop_apply

RNG = np.random.default_rng(314159)
ALPHA = 1.5


def ladder():
    return build_ladder_model(-0.75, math.pi / 6, 1e-2, 1e4, 4)


def rand_vec(m):
    return RNG.standard_normal(m.dimension) + 1j * RNG.standard_normal(m.dimension)


def ml_pair(t, alpha=ALPHA, delta=1.0):
    p = MLParams(alpha, delta)
    ta = t**alpha
    f = lambda z: ml_eval(p, -ta * z)
    fp = lambda z: -ta * ml_derivative(p, -ta * z, 1)
    return f, fp


def mid_theta0(m, alpha=ALPHA):
    return 0.5 * (math.pi / 2.0 + (math.pi - m.profile.theta) / alpha)


def gamma_path_reference(m, f, c, x):
    """The Gamma_theta quadrature as a loop over nodes, one scalar symbol
    value and one resolvent_apply per node."""
    r = c.radii()
    w = _trapezoid_weights(np.log(r)) * r
    up, dn = cmath.exp(1j * c.theta), cmath.exp(-1j * c.theta)
    total = np.zeros(m.dimension, dtype=complex)
    for rj, wj in zip(r, w):
        z_up, z_dn = rj * up, rj * dn
        total += wj * (
            f(z_dn) * dn * resolvent_apply(m, z_dn, x)
            - f(z_up) * up * resolvent_apply(m, z_up, x)
        )
    return total / (2.0j * math.pi)


def hankel_reference(m, alpha, t, h, x, delta=1.0):
    """The Hankel-path quadrature as a loop over nodes, one resolvent_apply
    per node (the trapezoid rule on the hyperbola of hankel_propagator)."""
    phi = h.theta0 - math.pi / 2.0
    d = min(phi, (math.pi - m.profile.theta) / alpha - h.theta0)
    step = 2.0 * math.pi * d / (_HANKEL_L + _HANKEL_MU_T)
    n = math.ceil(math.acosh((1.0 + _HANKEL_L / _HANKEL_MU_T) / math.sin(phi)) / step)
    mu = _HANKEL_MU_T / t
    total = np.zeros(m.dimension, dtype=complex)
    for k in range(-n, n + 1):
        w = 1j * k * step - phi
        lam = mu * (1.0 + cmath.sin(w))
        dlam = step * 1j * mu * cmath.cos(w)
        resolvent_power = -resolvent_apply(m, -(lam**alpha), x)
        total += dlam * cmath.exp(lam * t) * lam ** (alpha - delta) * resolvent_power
    return t ** (1.0 - delta) * total / (2.0j * math.pi)


class TestCalculusApply:
    def test_scalar_resolvent_function(self):
        m = build_scalar_model(2.0)
        x = np.array([1.0, 0.0], dtype=complex)
        v = calculus_apply(m, lambda z: 1.0 / (1.0 + z), default_contour(m), x)
        assert abs(v[0] - 1.0 / 3.0) < 1e-8

    def test_zero_function(self):
        m = ladder()
        v = calculus_apply(m, lambda z: 0.0, default_contour(m), rand_vec(m))
        assert np.all(v == 0.0)

    def test_oracle_equivalence_ml(self):
        m = ladder()
        f, fp = ml_pair(1.0)
        x = rand_vec(m)
        want = spectral_apply(m, f, fp, x)
        got = calculus_apply(m, f, default_contour(m, t_alpha_scale=1.0), x)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_theta_independence(self):
        m = ladder()
        f, fp = ml_pair(1.0)
        x = rand_vec(m)
        base = default_contour(m, t_alpha_scale=1.0)
        omega = m.profile.omega
        upper = math.pi - ALPHA * math.pi / 2.0
        # stay clear of the upper admissibility limit: there the scalar
        # symbol's argument approaches |arg z| = pi*alpha/2 where its
        # exponential branch oscillates too slowly to resolve cheaply
        vals = []
        for theta in [0.5 * (omega + upper), omega + 0.7 * (upper - omega)]:
            c = ContourSpec(theta, base.r_min, base.r_max, base.nodes_per_decade)
            vals.append(calculus_apply(m, f, c, x))
        gap = np.linalg.norm(vals[0] - vals[1]) / np.linalg.norm(vals[0])
        assert gap <= 1e-8

    def test_quadrature_convergence(self):
        m = ladder()
        f, fp = ml_pair(1.0)
        x = rand_vec(m)
        want = spectral_apply(m, f, fp, x)
        gaps = []
        c = default_contour(m, t_alpha_scale=1.0)
        for npd in [24, 48]:
            got = calculus_apply(m, f, ContourSpec(c.theta, c.r_min, c.r_max, npd), x)
            gaps.append(np.linalg.norm(got - want))
        assert gaps[0] / gaps[1] >= 10.0

    def test_product_formula(self):
        m = ladder()
        f = lambda z: 1.0 / (1.0 + z)
        fg = lambda z: 1.0 / (1.0 + z) ** 2
        x = rand_vec(m)
        c = default_contour(m)
        lhs = calculus_apply(m, fg, c, x)
        rhs = calculus_apply(m, f, c, calculus_apply(m, f, c, x))
        assert np.linalg.norm(lhs - rhs) <= 1e-7 * np.linalg.norm(lhs)

    def test_error_estimate_reported(self):
        m = ladder()
        f, _ = ml_pair(1.0)
        x = rand_vec(m)
        val, est = calculus_apply(
            m, f, default_contour(m, t_alpha_scale=1.0), x, return_error=True
        )
        assert est >= 0.0 and est <= 1e-4 * np.linalg.norm(val)

    def test_refuses_a_symbol_not_finite_on_the_path(self):
        # NaN past |z| = 1e3 would otherwise reach every entry of the result
        m = ladder()
        f = lambda z: np.where(np.abs(z) > 1e3, np.nan, 1.0 / (1.0 + z))
        with pytest.raises(ValueError, match="^f is not finite at the node z=") as e:
            calculus_apply(m, f, default_contour(m), rand_vec(m))
        assert abs(complex(str(e.value).split("z=")[1])) > 1e3

    def test_decay_warning(self):
        m = build_scalar_model(2.0)
        x = np.array([1.0, 0.0], dtype=complex)
        c = ContourSpec(m.profile.theta, 1e-6, 1e6, 16)
        with pytest.warns(RuntimeWarning):
            calculus_apply(m, lambda z: 1.0 + z, c, x)

    def test_symbol_called_once_per_node_grid(self):
        m = ladder()
        calls = []

        def f(z):
            calls.append(np.shape(z))
            return 1.0 / (1.0 + z)

        c = default_contour(m)
        calculus_apply(m, f, c, rand_vec(m))
        assert calls == [(2 * c.radii().size,)]
        calls.clear()
        calculus_apply(m, f, c, rand_vec(m), return_error=True)
        assert len(calls) == 2

    def test_spectral_collision(self):
        # an eigenvalue on the upper ray, at a quadrature node
        theta = 0.5 + 1e-13
        prof = SectorProfile(omega=0.5, gamma=-0.5, mu=0.7, theta=theta)
        c = ContourSpec(theta, 1e-2, 1e2, 16)
        lam = c.radii()[5] * cmath.exp(1j * theta)
        m = AlmostSectorialModel(lam=np.array([lam]), coupling=np.array([1.0]), profile=prof)
        with pytest.raises(ValueError, match="collides with the spectrum"):
            calculus_apply(m, lambda z: 1.0 / (1.0 + z), c, np.ones(2))

    def test_rejects_theta_inside_sector(self):
        m = ladder()
        c = ContourSpec(0.1, 1e-8, 1e8, 16)
        with pytest.raises(ValueError):
            calculus_apply(m, lambda z: 1.0 / (1.0 + z), c, rand_vec(m))

    @pytest.mark.parametrize(
        "theta, r_min, r_max, nodes_per_decade",
        [(0.0, 1e-8, 1e8, 16), (math.pi, 1e-8, 1e8, 16), (0.5, 0.0, 1e8, 16), (0.5, 1e8, 1e-8, 16), (0.5, 1e-8, 1e8, 3)],
        ids=["theta-0", "theta-pi", "r_min-0", "radii-reversed", "nodes_per_decade-3"],
    )
    def test_contour_spec_rejects_bad_fields(self, theta, r_min, r_max, nodes_per_decade):
        with pytest.raises(ValueError):
            ContourSpec(theta, r_min, r_max, nodes_per_decade)


class TestDefaultContour:
    def test_growth_order_near_zero_is_refused(self):
        # r_max ~ 1e-10^(1/gamma) is past the largest float
        with pytest.raises(ValueError, match="gamma=-1e-09"):
            default_contour(build_scalar_model(2.0, gamma=-1e-9))


class TestResolventOfPowerSum:
    def test_scalar(self):
        m = build_scalar_model(1.0)
        x = np.array([1.0, 0.0], dtype=complex)
        lam = 1.0  # lam^alpha = 1, (1 + 1)^{-1} = 1/2
        v = resolvent_of_power_sum(m, lam, ALPHA, default_contour(m), x)
        assert abs(v[0] - 0.5) < 1e-8

    def test_matches_block_resolvent(self):
        m = ladder()
        x = rand_vec(m)
        c = default_contour(m)
        for lam in [0.5 * cmath.exp(1.3j), 2.0 * cmath.exp(-1.3j)]:
            want = -resolvent_apply(m, -(lam**ALPHA), x)
            got = resolvent_of_power_sum(m, lam, ALPHA, c, x)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_norm_slope_alpha_gamma(self):
        # || (lam^alpha + A)^{-1} || ~ |lam|^{alpha gamma} along a Hankel ray
        m = ladder()
        theta0 = mid_theta0(m)
        mags = np.geomspace(1.0, 1e2, 24)
        norms = [
            resolvent_norm(m, -((r * cmath.exp(1j * theta0)) ** ALPHA)) for r in mags
        ]
        slope = np.polyfit(np.log(mags), np.log(norms), 1)[0]
        assert abs(slope - ALPHA * (-0.75)) <= 0.15


class TestHankelPropagator:
    def test_node_cap(self, monkeypatch):
        # theta0 = pi/2 + 1e-4 would need ~1.55 million nodes: refused before
        # any is built; the default theta0 (2319 nodes, of which the kernel
        # is handed the u >= 0 half, 1160) is unaffected
        m = ladder()
        x = rand_vec(m)
        built = []
        path_symbols = contour._path_symbols
        monkeypatch.setattr(
            contour, "_path_symbols", lambda m, z, a, b: built.append(z.size) or path_symbols(m, z, a, b)
        )
        with pytest.raises(ValueError):
            hankel_propagator(m, ALPHA, 1.0, HankelSpec(theta0=math.pi / 2.0 + 1e-4), x)
        assert built == []
        hankel_propagator(m, ALPHA, 1.0, HankelSpec(theta0=mid_theta0(m)), x)
        assert built == [1160]

    def test_scalar_oracle(self):
        m = build_scalar_model(2.0)
        x = np.array([1.0, 0.0], dtype=complex)
        h = HankelSpec(theta0=mid_theta0(m))
        p = MLParams(ALPHA, 1.0)
        for t in [0.1, 1.0, 10.0]:
            want = ml_eval(p, -(t**ALPHA) * 2.0)
            got = hankel_propagator(m, ALPHA, t, h, x)
            assert abs(got[0] - want) <= 1e-8 * max(abs(want), 1e-3)

    def test_dual_representation(self):
        m = ladder()
        x = rand_vec(m)
        h = HankelSpec(theta0=mid_theta0(m))
        for t in [0.1, 1.0, 10.0]:
            f, _ = ml_pair(t)
            gamma_path = calculus_apply(
                m, f, default_contour(m, t_alpha_scale=t**ALPHA), x
            )
            hankel = hankel_propagator(m, ALPHA, t, h, x)
            gap = np.linalg.norm(gamma_path - hankel) / np.linalg.norm(gamma_path)
            assert gap <= 1e-8

    def test_ladder_oracle_gap(self):
        m = ladder()
        x = rand_vec(m)
        h = HankelSpec(theta0=mid_theta0(m))
        oracle = make_propagator(m, ALPHA, representation="oracle")
        for t in np.geomspace(0.01, 10.0, 8):
            want = prop_apply(oracle, t, x)
            got = hankel_propagator(m, ALPHA, t, h, x)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_strong_continuity_bound(self):
        # ||E_alpha(-t^alpha A)x - x|| <= C ||Ax|| t^{-alpha gamma} on D(A);
        # the sharp slope is an operator-norm statement (see the propagator
        # suite); here the bound itself is checked along a t sweep
        m = ladder()
        from fracwave.operator_model import apply as op_apply

        x = rand_vec(m)
        ax_norm = np.linalg.norm(op_apply(m, x))
        h = HankelSpec(theta0=mid_theta0(m))
        ts = np.geomspace(1e-4, 1e-1, 8)
        for t in ts:
            gap = np.linalg.norm(hankel_propagator(m, ALPHA, t, h, x) - x)
            assert gap <= 10.0 * ax_norm * t ** (ALPHA * 0.75)

    def test_default_delta_is_one(self):
        m = ladder()
        x = rand_vec(m)
        h = HankelSpec(theta0=mid_theta0(m))
        for t in [0.01, 1.0, 10.0]:
            assert np.array_equal(
                hankel_propagator(m, ALPHA, t, h, x, delta=1.0), hankel_propagator(m, ALPHA, t, h, x)
            )

    def test_rejects_bad_args(self):
        m = ladder()
        x = rand_vec(m)
        h = HankelSpec(theta0=mid_theta0(m))
        for t in [-1.0, math.nan, math.inf]:
            with pytest.raises(ValueError):
                hankel_propagator(m, ALPHA, t, h, x)
        with pytest.raises(ValueError):
            HankelSpec(theta0=0.3)
        bad = HankelSpec(theta0=math.pi - 0.05)
        with pytest.raises(ValueError):
            hankel_propagator(m, ALPHA, 1.0, bad, x)
        for alpha in [1.0, 2.0]:
            with pytest.raises(ValueError, match="alpha must lie in"):
                hankel_propagator(m, alpha, 1.0, h, x)


class TestNodeLoopReference:
    """The batched node sums against per-node loops over resolvent_apply;
    only the order of summation differs."""

    def test_gamma_path(self):
        m = ladder()
        x = rand_vec(m)
        f, _ = ml_pair(1.0)
        c = default_contour(m, t_alpha_scale=1.0)
        want = gamma_path_reference(m, f, c, x)
        got = calculus_apply(m, f, c, x)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_hankel_path(self):
        m = ladder()
        x = rand_vec(m)
        h = HankelSpec(theta0=mid_theta0(m))
        for delta in [1.0, ALPHA, 2.0, ALPHA + 1.0]:
            for t in [0.01, 1.0, 10.0]:
                want = hankel_reference(m, ALPHA, t, h, x, delta)
                got = hankel_propagator(m, ALPHA, t, h, x, delta)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def path_symbols_reference(m, z, c):
    """The node sums of ``contour._path_symbols`` as a loop over the
    eigenvalues: the whole path at each one, two divisions per node."""
    tiny = 1e-14 * np.maximum(np.abs(z), 1e-300)
    fv, dv = np.empty((2, m.n_blocks), dtype=complex)
    for k, lam in enumerate(m.lam):
        d = z - lam
        hit = np.abs(d) < tiny
        if np.any(hit):
            raise ValueError(f"z={complex(z[np.argmax(hit)])} collides with the spectrum")
        cr = c / d
        fv[k] = np.sum(cr)
        dv[k] = np.sum(cr / d)
    return fv, dv


def recorded_halves(monkeypatch, run):
    """The (nodes, weights, mirror weights) triples that ``run()`` hands
    ``contour._path_symbols``."""
    paths = []
    path_symbols = contour._path_symbols
    monkeypatch.setattr(
        contour, "_path_symbols", lambda m, z, a, b: paths.append((z, a, b)) or path_symbols(m, z, a, b)
    )
    run()
    monkeypatch.undo()
    return paths


def propagator_paths(monkeypatch, m, delta):
    """The half paths of the Gamma_theta and Hankel representations of
    E_{alpha,delta}(-t^alpha A) at the README ladder's benchmark times."""
    x = np.ones(m.dimension)

    def run():
        for rep in ("gamma-path", "hankel-path"):
            p = make_propagator(m, ALPHA, delta=delta, representation=rep)
            for t in np.geomspace(0.01, 10.0, 8):
                prop_apply(p, t, x)

    return recorded_halves(monkeypatch, run)


def calculus_path(monkeypatch, f):
    """The half path that ``calculus_apply`` hands the kernel for ``f`` on
    the README ladder's default contour."""
    m = ladder()
    [path] = recorded_halves(monkeypatch, lambda: calculus_apply(m, f, default_contour(m), np.ones(m.dimension)))
    return path


def half_path(rng, n, real_node=False):
    """Random nodes and weights, with the conjugate weights for the mirror
    image; with ``real_node``, a real node first, at half of a real weight,
    as the Hankel path's u = 0 node."""
    z = 10.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) - 5.0
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if real_node:
        zm, am = rng.standard_normal(2) - [20.0, 0.0]
        z, a = np.append(zm, z), np.append(0.5 * am, a)
    return z, a, a.conj()


def seed_vector(seed, d):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


class TestCauchySums:
    """``_path_symbols`` on a half path against the loop over eigenvalues
    on the whole path (the nodes and their conjugates, the weights and the
    mirror weights): the sums at the conjugate eigenvalues change only the
    rounding of the cancelling node sums.  The path results are compared
    relative to their largest entry, for the vector of the benchmark's seed
    1 (1.6e-15 at most here)."""

    def check(self, m, z, a, b):
        x = seed_vector(1, m.dimension)
        want = _symbol_apply(m, *path_symbols_reference(m, np.concatenate([z, z.conj()]), np.concatenate([a, b])), x)
        got = _symbol_apply(m, *contour._path_symbols(m, z, a, b), x)
        assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))

    @staticmethod
    def nudged_ladder():
        # block 30 one ulp off the conjugate of block 5: no longer a pair
        m = ladder()
        lam = m.lam.copy()
        lam[30] = complex(lam[30].real, np.nextafter(lam[30].imag, 0.0))
        return AlmostSectorialModel(lam, m.coupling, m.profile)

    @pytest.mark.parametrize("delta", [1.0, ALPHA, 2.0])
    def test_propagator_paths(self, monkeypatch, delta):
        m = ladder()
        paths = propagator_paths(monkeypatch, m, delta)
        assert len(paths) == 16
        for z, a, b in paths:
            assert np.array_equal(b, a.conj())
            self.check(m, z, a, b)

    @pytest.mark.parametrize("delta", [1.0, ALPHA, 2.0])
    def test_spectrum_not_closed_under_conjugation(self, monkeypatch, delta):
        m = self.nudged_ladder()
        # the oracle evaluates 26 points: 24 pairs, block 30 and block 5
        sizes, dispatch = [], propagators._ml

        def counted(p, z, orders):
            sizes.append(np.size(z))
            return dispatch(p, z, orders)

        with monkeypatch.context() as mp:
            mp.setattr(propagators, "_ml", counted)
            prop_apply(make_propagator(m, ALPHA, delta=delta, representation="oracle"), 1.0, np.ones(m.dimension))
        assert sizes == [26]
        for z, a, b in propagator_paths(monkeypatch, ladder(), delta):
            self.check(m, z, a, b)

    @pytest.mark.parametrize("model", ["ladder", "nudged", "one-ray"])
    def test_half_path_with_a_real_node(self, model):
        m = {
            "ladder": ladder,
            "nudged": self.nudged_ladder,
            "one-ray": lambda: build_ladder_model(-0.75, 0.0, 1e-2, 1e4, 4),
        }[model]()
        self.check(m, *half_path(np.random.default_rng(8), 300, real_node=True))

    @pytest.mark.parametrize("weights", ["random", "calculus"])
    def test_mirror_weights_not_conjugate(self, monkeypatch, weights):
        if weights == "random":
            rng = np.random.default_rng(7)
            z, a, _ = half_path(rng, 501)
            b = rng.standard_normal(501) + 1j * rng.standard_normal(501)
        else:
            # f without real Taylor coefficients: f(conj z) != conj f(z)
            z, a, b = calculus_path(monkeypatch, lambda z: 1j / (1.0 + z))
        assert not np.array_equal(b, a.conj())
        self.check(ladder(), z, a, b)

    def test_ml_mirror_weights(self, monkeypatch):
        # E_1.5(-z): ml_eval gives the conjugate nodes of the README ladder's
        # default contour the conjugate bits, its cut nodes included, whose
        # node weights are built once per ray from arg z
        z, a, b = calculus_path(monkeypatch, ml_pair(1.0)[0])
        assert np.array_equal(b, a.conj())
        self.check(ladder(), z, a, b)

    @pytest.mark.parametrize("f", ["1/(1+z)", "1j/(1+z)", "ml"])
    def test_calculus_sums_half_the_nodes(self, monkeypatch, f):
        # f is called once on both rays; the kernel sums the lower one
        f = {"1/(1+z)": lambda z: 1.0 / (1.0 + z), "1j/(1+z)": lambda z: 1j / (1.0 + z), "ml": ml_pair(1.0)[0]}[f]
        m = ladder()
        c = default_contour(m)
        calls, sizes = [], []
        cauchy_sums = contour._cauchy_sums
        monkeypatch.setattr(contour, "_cauchy_sums", lambda z, *rest: sizes.append(z.size) or cauchy_sums(z, *rest))
        calculus_apply(m, lambda z: calls.append(z.size) or f(z), c, np.ones(m.dimension))
        assert calls == [2 * c.radii().size]
        assert sizes and set(sizes) == {c.radii().size}

    @pytest.mark.parametrize("where", ["summed", "mirrored", "real"])
    def test_collision_on_either_half_and_the_real_node(self, where):
        # the model's one eigenvalue a has no conjugate partner, so a node
        # on the mirrored half can collide with it while its mirror image
        # on the summed half does not; it is named as conj(z_j)
        a = 2.0 if where == "real" else 3.0 + 1.0j
        m = build_scalar_model(a)
        z, w, wb = half_path(np.random.default_rng(10), 40, real_node=True)
        z[{"summed": 5, "mirrored": 5, "real": 0}[where]] = np.conj(a) if where == "mirrored" else a
        with pytest.raises(ValueError, match=re.escape(f"z={complex(a)} collides with the spectrum")):
            contour._path_symbols(m, z, w, wb)
        with pytest.raises(ValueError, match=re.escape(f"z={complex(a)} collides with the spectrum")):
            path_symbols_reference(m, np.concatenate([z, z.conj()]), np.concatenate([w, wb]))

import cmath
import math

import numpy as np
import pytest

from fracwave.mittag_leffler import MLParams, ml_derivative, ml_eval
from fracwave.operator_model import (
    AlmostSectorialModel,
    _symbol_apply,
    SectorProfile,
    apply,
    build_ladder_model,
    build_scalar_model,
    graph_norm,
    model_from_text,
    model_norm_of_function,
    model_to_text,
    power,
    resolvent_apply,
    resolvent_norm,
    spectral_apply,
    verify_resolvent_bound,
)

RNG = np.random.default_rng(42)


def ladder(gamma=-0.75, omega=math.pi / 6):
    return build_ladder_model(gamma, omega, 1e-2, 1e4, 4)


def rand_vec(m):
    d = m.dimension
    return RNG.standard_normal(d) + 1j * RNG.standard_normal(d)


class TestConstruction:
    def test_ladder_shape(self):
        m = ladder()
        assert m.dimension == 2 * m.n_blocks
        assert np.all(np.abs(np.angle(m.lam)) <= m.profile.omega + 1e-12)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            build_ladder_model(0.5, math.pi / 6, 1e-2, 1e4, 4)
        with pytest.raises(ValueError):
            build_ladder_model(-0.75, math.pi / 6, 1e4, 1e-2, 4)
        with pytest.raises(ValueError):
            build_ladder_model(-0.75, -0.1, 1e-2, 1e4, 4)

    def test_one_ray_ladder(self):
        m = build_ladder_model(-0.75, 0.0, 1e-2, 1e2, 2)
        assert m.n_blocks == 9 and np.all(m.lam.imag == 0.0) and np.all(m.lam.real > 0.0)
        assert np.allclose(m.coupling, 4.0 * 1e-2**-0.25 * m.lam.real**1.25)

    @pytest.mark.parametrize(
        "lam, coupling",
        [([1.0, 2.0], [0.0]), ([[1.0]], [[0.0]]), ([complex(1.0, 1.0)], [0.0]), ([1.0], [-1.0])],
        ids=["lengths-differ", "two-dimensional", "outside-sector", "negative-coupling"],
    )
    def test_rejects_bad_blocks(self, lam, coupling):
        prof = SectorProfile(omega=0.1, gamma=-0.5, mu=0.3, theta=0.2)
        with pytest.raises(ValueError):
            AlmostSectorialModel(lam=np.array(lam, dtype=complex), coupling=np.array(coupling), profile=prof)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            SectorProfile(omega=0.5, gamma=-0.5, mu=0.4, theta=0.45)
        with pytest.raises(ValueError):
            SectorProfile(omega=0.5, gamma=0.5, mu=0.7, theta=0.6)

    def test_zero_eigenvalue_rejected(self):
        prof = SectorProfile(omega=0.1, gamma=-0.5, mu=0.3, theta=0.2)
        with pytest.raises(ValueError):
            AlmostSectorialModel(
                lam=np.array([0.0 + 0j]), coupling=np.array([0.0]), profile=prof
            )

    @pytest.mark.parametrize(
        "lam, coupling",
        [(math.nan, 1.0), (complex(1.0, math.nan), 0.0), (math.inf, 0.0), (1.0, math.inf)],
        ids=["nan-eigenvalue", "nan-imaginary-part", "inf-eigenvalue", "inf-coupling"],
    )
    def test_non_finite_entries_rejected(self, lam, coupling):
        prof = SectorProfile(omega=0.1, gamma=-0.5, mu=0.3, theta=0.2)
        with pytest.raises(ValueError, match="must be finite"):
            AlmostSectorialModel(
                lam=np.array([lam], dtype=complex), coupling=np.array([coupling]), profile=prof
            )


class TestApplyAndResolvent:
    def test_apply_diagonal(self):
        m = build_scalar_model(2.0)
        assert np.allclose(apply(m, [1.0, 0.0]), [2.0, 0.0])

    def test_apply_coupled(self):
        prof = SectorProfile(omega=0.1, gamma=-0.5, mu=0.3, theta=0.2)
        m = AlmostSectorialModel(
            lam=np.array([1.0 + 0j]), coupling=np.array([3.0]), profile=prof
        )
        assert np.allclose(apply(m, [0.0, 1.0]), [3.0, 1.0])

    def test_apply_rows(self):
        m = ladder()
        rows = np.array([[rand_vec(m) for _ in range(3)] for _ in range(2)])
        want = np.array([[apply(m, v) for v in r] for r in rows])
        assert np.array_equal(apply(m, rows), want)
        with pytest.raises(ValueError):
            apply(m, rows[..., :-2])

    def test_resolvent_diagonal(self):
        m = build_scalar_model(1.0)
        assert np.allclose(resolvent_apply(m, 2.0, [1.0, 0.0]), [1.0, 0.0])

    def test_resolvent_coupled(self):
        prof = SectorProfile(omega=0.1, gamma=-0.5, mu=0.3, theta=0.2)
        m = AlmostSectorialModel(
            lam=np.array([1.0 + 0j]), coupling=np.array([3.0]), profile=prof
        )
        assert np.allclose(resolvent_apply(m, 2.0, [0.0, 1.0]), [3.0, 1.0])

    def test_spectral_collision(self):
        m = ladder()
        with pytest.raises(ValueError):
            resolvent_apply(m, m.lam[3], rand_vec(m))

    def test_resolvent_inverse_property(self):
        m = ladder()
        for z in [-1.0, -100.0, 50j, complex(-3.0, 7.0)]:
            x = rand_vec(m)
            y = resolvent_apply(m, z, x)
            back = z * y - apply(m, y)
            assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)

    def test_resolvent_identity(self):
        m = ladder()
        z1, z2 = -2.0 + 1.0j, -30.0 - 5.0j
        x = rand_vec(m)
        lhs = resolvent_apply(m, z1, x) - resolvent_apply(m, z2, x)
        rhs = (z2 - z1) * resolvent_apply(m, z1, resolvent_apply(m, z2, x))
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)


class TestResolventBound:
    def test_slope_gamma_075(self):
        m = ladder(gamma=-0.75)
        rep = verify_resolvent_bound(m, math.pi, np.geomspace(1e-2, 1e4, 80))
        assert abs(rep.slope - (-0.75)) <= 0.1
        assert math.isfinite(m.profile.c_mu)

    def test_slope_gamma_05(self):
        m = ladder(gamma=-0.5)
        rep = verify_resolvent_bound(m, math.pi, np.geomspace(1e-2, 1e4, 80))
        assert abs(rep.slope - (-0.5)) <= 0.1

    def test_diagonal_slope_minus_one(self):
        m = build_scalar_model(2.0)
        rep = verify_resolvent_bound(m, math.pi, np.geomspace(1e2, 1e4, 40))
        assert abs(rep.slope - (-1.0)) <= 0.05

    def test_rejects_in_sector(self):
        m = ladder()
        with pytest.raises(ValueError):
            verify_resolvent_bound(m, 0.1, [1.0, 10.0])

    @pytest.mark.parametrize("arg_z", [2.0 * math.pi + 0.1, -2.0 * math.pi - 0.1, math.pi + 1e-9])
    def test_rejects_angles_past_pi(self, arg_z):
        # 2 pi + 0.1 is the ray at 0.1 rad, inside the sector, whose norms
        # would overwrite c_mu
        m = ladder()
        with pytest.raises(ValueError, match="be at most pi"):
            verify_resolvent_bound(m, arg_z, [1.0, 10.0])
        assert math.isnan(m.profile.c_mu)

    def test_rejects_empty(self):
        m = ladder()
        with pytest.raises(ValueError):
            verify_resolvent_bound(m, math.pi, [])

    @pytest.mark.parametrize("moduli", [[10.0] * 25])
    def test_rejects_moduli_without_a_slope(self, moduli):
        # one distinct modulus
        m = build_scalar_model(2.0)
        with pytest.raises(ValueError, match="positive finite values at two distinct abscissae"):
            verify_resolvent_bound(m, math.pi, moduli)

    @pytest.mark.parametrize(
        "moduli", [[0.0, 1.0, 10.0], [1.0, math.inf], [-1.0, 1.0], [math.nan, 1.0]]
    )
    def test_rejects_moduli_off_the_positive_axis(self, moduli):
        # refused on entry, before z = modulus e^{i arg} is formed, from which
        # an infinite modulus leaked a RuntimeWarning (an error in this suite)
        m = build_scalar_model(2.0)
        with pytest.raises(ValueError, match="moduli must be positive and finite"):
            verify_resolvent_bound(m, math.pi, moduli)

    def test_norm_matches_dense(self):
        m = build_ladder_model(-0.6, math.pi / 8, 0.1, 10.0, 3)
        for z in [-1.0, -20.0 + 4.0j]:
            dense = np.linalg.inv(z * np.eye(m.dimension) - m.as_dense())
            assert abs(resolvent_norm(m, z) - np.linalg.norm(dense, 2)) < 1e-10


class TestPower:
    def test_identity(self):
        m = ladder()
        p = power(m, 1.0)
        assert np.allclose(p.lam, m.lam)
        assert np.allclose(p.coupling, m.coupling)

    def test_sqrt_diagonal(self):
        m = build_scalar_model(4.0, gamma=-0.6)
        p = power(m, 0.5)
        assert np.allclose(p.lam, [2.0])

    def test_profile_update(self):
        m = ladder(gamma=-0.75)
        p = power(m, 1.5)
        assert abs(p.profile.gamma - (-1.0 + 0.25 / 1.5)) < 1e-14
        assert abs(p.profile.omega - 1.5 * math.pi / 6) < 1e-14

    def test_power_slope(self):
        m = ladder(gamma=-0.75)
        p = power(m, 1.5)
        rep = verify_resolvent_bound(p, math.pi, np.geomspace(1e-3, 1e6, 80))
        assert abs(rep.slope - p.profile.gamma) <= 0.1

    def test_composition_eigenvalues(self):
        m = ladder()
        a = power(power(m, 1.2), 0.7)
        b = power(m, 1.2 * 0.7)
        assert np.max(np.abs(np.sort_complex(a.lam) - np.sort_complex(b.lam))) < 1e-10

    def test_rejects_out_of_range(self):
        m = ladder(gamma=-0.75)
        with pytest.raises(ValueError):
            power(m, 0.2)  # below 1 + gamma
        with pytest.raises(ValueError):
            power(m, 7.0)  # above pi / omega


class TestSpectralOracle:
    def test_matches_dense_matrix_function(self):
        m = build_ladder_model(-0.6, math.pi / 8, 0.5, 5.0, 3)
        f = lambda z: 1.0 / (1.0 + z)
        fp = lambda z: -1.0 / (1.0 + z) ** 2
        x = rand_vec(m)
        want = np.linalg.inv(np.eye(m.dimension) + m.as_dense()) @ x
        got = spectral_apply(m, f, fp, x)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_norm_of_function(self):
        m = build_ladder_model(-0.6, math.pi / 8, 0.5, 5.0, 3)
        f = lambda z: 1.0 / (1.0 + z)
        fp = lambda z: -1.0 / (1.0 + z) ** 2
        dense = np.linalg.inv(np.eye(m.dimension) + m.as_dense())
        assert abs(model_norm_of_function(m, f, fp) - np.linalg.norm(dense, 2)) < 1e-10

    def test_leading_time_axis(self):
        m = build_ladder_model(-0.6, math.pi / 8, 0.5, 5.0, 3)
        p = MLParams(1.5, 1.0)
        ta = np.array([0.1, 1.0, 3.0])[:, None] ** 1.5

        def symbol(ta):
            f = lambda z: ml_eval(p, -ta * z)
            fp = lambda z: -ta * ml_derivative(p, -ta * z, 1)
            return f, fp

        norms = model_norm_of_function(m, *symbol(ta))
        assert norms.shape == (3,)
        for i, t in enumerate(ta[:, 0]):
            assert norms[i] == model_norm_of_function(m, *symbol(t))

    def test_symbol_apply_time_axis(self):
        # one row per time, each the oracle f(A) x at that time
        m = build_ladder_model(-0.6, math.pi / 8, 0.5, 5.0, 3)
        p = MLParams(1.5, 1.0)
        x = np.arange(m.dimension) - 0.5j
        ta = np.array([0.1, 1.0, 3.0])[:, None] ** 1.5
        got = _symbol_apply(m, ml_eval(p, -ta * m.lam), -ta * ml_derivative(p, -ta * m.lam, 1), x)
        assert got.shape == (3, m.dimension)
        for i, t in enumerate(ta[:, 0]):
            want = spectral_apply(m, lambda z: ml_eval(p, -t * z), lambda z: -t * ml_derivative(p, -t * z, 1), x)
            assert np.array_equal(got[i], want)

    def test_graph_norm(self):
        m = build_scalar_model(3.0)
        x = np.array([1.0, 0.0])
        assert abs(graph_norm(m, x) - 4.0) < 1e-14


class TestSerialization:
    def test_round_trip(self):
        m = ladder()
        verify_resolvent_bound(m, math.pi, np.geomspace(1e-2, 1e4, 20))
        text = model_to_text(m)
        back = model_from_text(text)
        assert np.array_equal(back.lam, m.lam)
        assert np.array_equal(back.coupling, m.coupling)
        assert back.profile == m.profile

    HEADER = "omega 0.5\ngamma -0.5\nmu 0.7\ntheta 0.6\n"

    @pytest.mark.parametrize("blocks", ["1.5", "inf", "nan"])
    def test_rejects_non_integral_block_count(self, blocks):
        with pytest.raises(ValueError, match="block count must be an integer"):
            model_from_text(f"{self.HEADER}blocks {blocks}\n1.0 0.0 0.5\n")

    @pytest.mark.parametrize("blocks", ["", "blocks 0\n"])
    def test_rejects_model_without_blocks(self, blocks):
        with pytest.raises(ValueError, match="at least one block"):
            model_from_text(self.HEADER + blocks)

"""Finite-dimensional model operators with almost sectorial resolvent growth.

The models are direct sums of 2x2 upper-triangular Jordan blocks
[[lambda, s], [0, lambda]] with eigenvalues on the rays arg = +/- omega.
A diagonal (s = 0) model is sectorial: its resolvent decays like 1/|z| off
the sector.  Nonzero coupling s ~ |lambda|^(2+gamma) makes the resolvent
norm near |z| ~ |lambda| behave like s/|z - lambda|^2 ~ |z|^gamma with
gamma in (-1, 0), which no normal matrix can do.

Functions of a model are available in closed blockwise form,
f(J) = [[f(lambda), s f'(lambda)], [0, f(lambda)]], which serves as the
exact spectral oracle against which contour quadrature is tested.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .mittag_leffler import BoundReport, _loglog_slope

__all__ = [
    "SectorProfile",
    "AlmostSectorialModel",
    "build_ladder_model",
    "build_scalar_model",
    "resolvent_apply",
    "apply",
    "power",
    "verify_resolvent_bound",
    "resolvent_norm",
    "spectral_apply",
    "model_norm_of_function",
    "graph_norm",
    "model_to_text",
    "model_from_text",
]


@dataclass
class SectorProfile:
    """Sector geometry and growth order of a model.

    omega: spectral sector half-angle; gamma: resolvent growth order in
    (-1, 0); theta < mu: admissible contour / bound angles; c_mu: empirical
    resolvent constant, filled in by verify_resolvent_bound.
    """

    omega: float
    gamma: float
    mu: float
    theta: float
    c_mu: float = math.nan

    def __post_init__(self) -> None:
        if not (0.0 <= self.omega < math.pi):
            raise ValueError(f"omega must lie in [0, pi), got {self.omega}")
        if not (-1.0 < self.gamma < 0.0):
            raise ValueError(f"gamma must lie in (-1, 0), got {self.gamma}")
        if not (self.omega < self.theta < self.mu < math.pi):
            raise ValueError(
                f"need omega < theta < mu < pi, got "
                f"({self.omega}, {self.theta}, {self.mu})"
            )

    def admissible_for_alpha(self, alpha: float) -> bool:
        """Whether omega < theta < mu < pi - alpha*pi/2 holds."""
        return self.mu < math.pi - alpha * math.pi / 2.0


@dataclass
class AlmostSectorialModel:
    """Direct sum of 2x2 Jordan blocks [[lambda, s], [0, lambda]]."""

    lam: np.ndarray = field(repr=False)
    coupling: np.ndarray = field(repr=False)
    profile: SectorProfile

    def __post_init__(self) -> None:
        lam = np.atleast_1d(np.asarray(self.lam, dtype=complex))
        s = np.atleast_1d(np.asarray(self.coupling, dtype=float))
        if lam.shape != s.shape or lam.ndim != 1:
            raise ValueError("lam and coupling must be 1-d arrays of equal length")
        if lam.size == 0:
            raise ValueError("a model needs at least one block")
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(s))):
            raise ValueError("eigenvalues and couplings must be finite")
        if np.any(lam == 0):
            raise ValueError("eigenvalues must be nonzero (0 in the resolvent set)")
        if np.any(np.abs(np.angle(lam)) > self.profile.omega + 1e-12):
            raise ValueError("every eigenvalue must satisfy |arg lambda| <= omega")
        if np.any(s < 0):
            raise ValueError("couplings must be nonnegative")
        self.lam = lam
        self.coupling = s

    @property
    def n_blocks(self) -> int:
        return self.lam.size

    @property
    def dimension(self) -> int:
        return 2 * self.lam.size

    def as_dense(self) -> np.ndarray:
        d = self.dimension
        a = np.zeros((d, d), dtype=complex)
        for k in range(self.n_blocks):
            a[2 * k, 2 * k] = a[2 * k + 1, 2 * k + 1] = self.lam[k]
            a[2 * k, 2 * k + 1] = self.coupling[k]
        return a

    def spectral_radius_range(self):
        mags = np.abs(self.lam)
        return float(mags.min()), float(mags.max())


def _default_angles(omega: float):
    # keep mu below pi - alpha*pi/2 for alpha up to 1.5 when the sector
    # angle permits; a wide theta also speeds up contour quadrature, whose
    # convergence rate is set by the angular gap to the spectrum
    room = math.pi / 4.0 - omega
    if room > 0.05:
        theta = omega + 0.6 * room
        mu = omega + 0.8 * room
    else:
        theta = omega + (math.pi - omega) / 6.0
        mu = theta + (math.pi - theta) / 6.0
    return theta, mu


def build_ladder_model(
    gamma: float,
    omega: float,
    rho_min: float,
    rho_max: float,
    blocks_per_decade: int,
    coupling_scale: float | None = None,
    theta: float | None = None,
    mu: float | None = None,
) -> AlmostSectorialModel:
    """Geometric ladder of Jordan blocks realizing resolvent growth |z|^gamma.

    Eigenvalue moduli rho_k run geometrically through [rho_min, rho_max]
    with blocks on both rays arg = +/- omega (one ray when omega = 0), and
    couplings s_k = coupling_scale * rho_k^(2+gamma).  The default
    coupling_scale = 4 * rho_min^(-(1+gamma)) lifts the coupled branch of
    the resolvent norm above the 1/|z| diagonal branch across the whole
    covered range, so the measured log-log slope is gamma throughout rather
    than only beyond a crossover modulus.
    """
    if not (-1.0 < gamma < 0.0):
        raise ValueError(f"gamma must lie in (-1, 0), got {gamma}")
    if not (0.0 <= omega < math.pi):
        raise ValueError(f"omega must lie in [0, pi), got {omega}")
    if not (0.0 < rho_min < rho_max):
        raise ValueError(f"need 0 < rho_min < rho_max, got ({rho_min}, {rho_max})")
    if blocks_per_decade < 1:
        raise ValueError("blocks_per_decade must be >= 1")
    n = max(2, int(round(blocks_per_decade * math.log10(rho_max / rho_min))) + 1)
    rho = np.geomspace(rho_min, rho_max, n)
    if coupling_scale is None:
        coupling_scale = 4.0 * rho_min ** (-(1.0 + gamma))
    s = coupling_scale * rho ** (2.0 + gamma)
    if omega > 0.0:
        lam = np.concatenate([rho * cmath.exp(1j * omega), rho * cmath.exp(-1j * omega)])
        s = np.concatenate([s, s])
    else:
        lam = rho.astype(complex)
    if theta is None or mu is None:
        th, m = _default_angles(omega)
        theta = th if theta is None else theta
        mu = m if mu is None else mu
    profile = SectorProfile(omega=omega, gamma=gamma, mu=mu, theta=theta)
    return AlmostSectorialModel(lam=lam, coupling=s, profile=profile)


def build_scalar_model(a: complex, gamma: float = -0.5) -> AlmostSectorialModel:
    """Single diagonal block (s = 0): the scalar operator x -> a*x, with
    sector half-angle omega just above |arg a|."""
    a = complex(a)
    ang = abs(math.atan2(a.imag, a.real))
    omega = min(ang + 1e-9, math.pi - 1e-6) if ang > 0 else 0.0
    theta, mu = _default_angles(omega)
    profile = SectorProfile(omega=omega, gamma=gamma, mu=mu, theta=theta)
    return AlmostSectorialModel(
        lam=np.array([a]), coupling=np.array([0.0]), profile=profile
    )


def _check_vector(m: AlmostSectorialModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=complex).ravel()
    if x.size != m.dimension:
        raise ValueError(f"vector length {x.size} != model dimension {m.dimension}")
    return x


def _symbol_apply(m: AlmostSectorialModel, f, df, x) -> np.ndarray:
    """f(A) x for the symbol pair (f(lambda), f'(lambda)): each block of x
    times [[f, s f'], [0, f]].  ``f`` and ``df`` broadcast against the
    eigenvalues and may carry leading axes (e.g. time), one result row per
    leading index; ``x`` is one vector or a (..., d) array of rows."""
    if x.shape[-1] != m.dimension:
        raise ValueError(f"row length {x.shape[-1]} != model dimension {m.dimension}")
    xb = x.reshape(x.shape[:-1] + (-1, 2))
    out = np.stack([f * xb[..., 0] + m.coupling * df * xb[..., 1], f * xb[..., 1]], axis=-1)
    return out.reshape(out.shape[:-2] + (-1,))


def apply(m: AlmostSectorialModel, x) -> np.ndarray:
    """A x by blockwise upper-triangular multiply; ``x`` is one vector or a
    (..., d) array of rows, each multiplied."""
    x = np.asarray(x, dtype=complex)
    return _symbol_apply(m, m.lam, 1.0, _check_vector(m, x) if x.ndim < 2 else x)


def resolvent_apply(m: AlmostSectorialModel, z: complex, x) -> np.ndarray:
    """(z - A)^{-1} x by the per-block closed form."""
    z = complex(z)
    x = _check_vector(m, x)
    gap = np.abs(z - m.lam)
    if np.min(gap) < 1e-14 * max(abs(z), 1e-300):
        raise ValueError(f"z={z} collides with the spectrum")
    inv = 1.0 / (z - m.lam)
    return _symbol_apply(m, inv, inv * inv, x)


def power(m: AlmostSectorialModel, beta: float) -> AlmostSectorialModel:
    """A^beta, blockwise principal branch; valid for 1+gamma < beta < pi/omega.

    Eigenvalues map to lambda^beta, couplings to s * beta * lambda^(beta-1)
    (the derivative rule for functions of a Jordan block), and the profile
    to (beta*omega, -1 + (gamma+1)/beta).
    """
    p = m.profile
    upper = math.pi / p.omega if p.omega > 0 else math.inf
    if not (1.0 + p.gamma < beta < upper):
        raise ValueError(
            f"beta={beta} outside admissible interval "
            f"({1.0 + p.gamma}, {upper})"
        )
    if beta == 1.0:
        return AlmostSectorialModel(
            lam=m.lam.copy(), coupling=m.coupling.copy(), profile=p
        )
    lam_new = m.lam**beta
    coup_new = m.coupling * beta * np.abs(m.lam ** (beta - 1.0))
    # coupling phase folds into a unitary diagonal similarity; keep the
    # block real-coupled form by storing the magnitude (norms unchanged)
    omega_new = beta * p.omega
    gamma_new = -1.0 + (p.gamma + 1.0) / beta
    theta, mu = _default_angles(omega_new)
    profile = SectorProfile(
        omega=omega_new, gamma=gamma_new, mu=mu, theta=theta
    )
    return AlmostSectorialModel(lam=lam_new, coupling=coup_new, profile=profile)


def _block_norms(a, b, c) -> np.ndarray:
    """Spectral norms of 2x2 triangular blocks [[a, b], [0, c]]."""
    f = np.abs(a) ** 2 + np.abs(b) ** 2 + np.abs(c) ** 2
    det2 = np.abs(a * c) ** 2
    disc = np.sqrt(np.maximum(f * f - 4.0 * det2, 0.0))
    return np.sqrt((f + disc) / 2.0)


def resolvent_norm(m: AlmostSectorialModel, z: complex) -> float:
    """Exact spectral norm of (z - A)^{-1}."""
    z = complex(z)
    inv = 1.0 / (z - m.lam)
    return _symbol_norms(m, inv, inv * inv)


def verify_resolvent_bound(
    m: AlmostSectorialModel, arg_z: float | None = None, moduli=None
) -> BoundReport:
    """Measure ||(z-A)^{-1}|| along the ray arg z = arg_z and fit its slope.

    Also records the empirical constant C = sup ||(z-A)^{-1}|| / |z|^gamma
    into the model profile (c_mu).
    """
    if arg_z is None:
        arg_z = math.pi
    if not m.profile.mu < abs(arg_z) <= math.pi:
        raise ValueError(f"|arg_z|={abs(arg_z)} must exceed mu={m.profile.mu} and be at most pi")
    if moduli is None or len(moduli) == 0:
        raise ValueError("need a nonempty list of moduli")
    moduli = np.asarray(moduli, dtype=float)
    bad = ~((0.0 < moduli) & (moduli < np.inf))
    if bad.any():
        raise ValueError(f"moduli must be positive and finite, got {moduli[bad][0]}")
    zs = moduli * cmath.exp(1j * arg_z)
    inv = 1.0 / (zs[:, None] - m.lam)
    norms = _symbol_norms(m, inv, inv * inv)
    slope = _loglog_slope(moduli, norms)
    c_mu = float(np.max(norms / moduli**m.profile.gamma))
    m.profile.c_mu = c_mu
    return BoundReport(constant=c_mu, slope=slope, n_samples=moduli.size)


def spectral_apply(m: AlmostSectorialModel, f, fprime, x) -> np.ndarray:
    """f(A) x via the blockwise oracle; ``f`` and ``fprime`` are called once,
    on ``m.lam``."""
    return _symbol_apply(m, f(m.lam), fprime(m.lam), _check_vector(m, x))


def _symbol_norms(m: AlmostSectorialModel, f, df):
    """Exact spectral norm of f(A) for the symbol pair (f(lambda),
    f'(lambda)) at the eigenvalues; one norm per leading index of the pair
    (a float when it has none)."""
    norms = np.max(_block_norms(f, m.coupling * df, f), axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def model_norm_of_function(m: AlmostSectorialModel, f, fprime):
    """Exact spectral norm of f(A) from the blockwise oracle; one norm per
    leading index of the symbol (a float when it has none)."""
    return _symbol_norms(m, f(m.lam), fprime(m.lam))


def graph_norm(m: AlmostSectorialModel, x) -> float:
    """The D(A) norm ||x|| + ||A x||."""
    x = _check_vector(m, x)
    return float(np.linalg.norm(x) + np.linalg.norm(apply(m, x)))


def model_to_text(m: AlmostSectorialModel) -> str:
    p = m.profile
    lines = [
        f"omega {float(p.omega)!r}",
        f"gamma {float(p.gamma)!r}",
        f"mu {float(p.mu)!r}",
        f"theta {float(p.theta)!r}",
        f"c_mu {float(p.c_mu)!r}",
        f"blocks {m.n_blocks}",
    ]
    for k in range(m.n_blocks):
        lines.append(
            f"{float(m.lam[k].real)!r} {float(m.lam[k].imag)!r} "
            f"{float(m.coupling[k])!r}"
        )
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> AlmostSectorialModel:
    fields = {}
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] in {"omega", "gamma", "mu", "theta", "c_mu", "blocks"}:
            key, value = parts  # a header line without its value is a ValueError
            fields[key] = float(value)
        else:
            rows.append([float(v) for v in parts])
    blocks = fields.get("blocks", len(rows))
    if not float(blocks).is_integer():
        raise ValueError(f"block count must be an integer, got {blocks}")
    if len(rows) != blocks:
        raise ValueError("block count mismatch in model file")
    for key in ("omega", "gamma", "mu", "theta"):
        if key not in fields:
            raise ValueError(f"model file has no {key!r} line")
    lam = np.array([complex(r, i) for r, i, _ in rows])
    coupling = np.array([s for _, _, s in rows])
    profile = SectorProfile(
        omega=fields["omega"],
        gamma=fields["gamma"],
        mu=fields["mu"],
        theta=fields["theta"],
        c_mu=fields.get("c_mu", math.nan),
    )
    return AlmostSectorialModel(lam=lam, coupling=coupling, profile=profile)

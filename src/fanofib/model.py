"""Model fibrations P^1 x P^1 -> P^1 and their exact derived constants.

The total space carries the reference class a*[FS_base] + c*[FS_fiber]
with a > c, so the fiber direction degenerates first under the
normalized Ricci flow of the class and the projection to the second
factor is the induced fibration.  All class arithmetic is exact
rational; the metric representative may be warped inside the fixed
class by a separable polynomial bump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .calculus import (TWO_PI, _carry_columns, _col_range, _row_blocks,
                       _simpson_of_rows, _simpson_rows)
from .errors import ConfigError, FanofibError, ModelOrientationError, PositivityError
from .grids import Grid

# Polynomials are coefficient arrays, highest degree first, evaluated by
# ``np.polyval``.  Moment-coordinate weight x(1-x); warp factors are kept
# at degree <= 3 so that every class integral below is Simpson-exact.
_G = np.array([-1.0, 1.0, 0.0])

WARP_SHAPES: dict[str, tuple[np.ndarray, np.ndarray]] = {
    # unit-amplitude separable bumps psi_w/eps = P(x_f) * Q(x_b)
    "product_bump": (np.array([-1.0, 1.0, 0.0]), np.array([-1.0, 1.0, 0.0])),
    "skew_bump": (np.array([-1.0, 1.0, 0.0]), np.array([-1.0, 1.0, 0.0, 0.0])),
    # cubic fiber factor: the fiber solves are then not polynomial-exact,
    # which gives refinement studies genuine truncation content
    "fiber_cubic": (np.array([-1.0, 1.0, 0.0, 0.0]), np.array([-1.0, 1.0, 0.0])),
}


@dataclass(frozen=True)
class ModelSpec:
    """Model parameters: class pair, warp potential, grid resolution."""

    a: Fraction
    c: Fraction
    warp_amplitude: float
    warp_shape: str
    n_fiber: int
    n_base: int

    @classmethod
    def make(cls, a, c, warp_amplitude=0.0, warp_shape="product_bump",
             n_fiber=64, n_base=64) -> "ModelSpec":
        if warp_shape not in WARP_SHAPES:
            raise ConfigError(f"unknown warp_shape {warp_shape!r}; "
                              f"available: {sorted(WARP_SHAPES)}")
        eps = float(warp_amplitude)
        if not (math.isfinite(eps) and eps >= 0.0):
            raise ConfigError(f"warp_amplitude must be finite and >= 0, got {eps!r}")
        return cls(Fraction(a), Fraction(c), eps, warp_shape,
                   int(n_fiber), int(n_base))


@dataclass(frozen=True)
class DerivedConstants:
    """Exact rational invariants of the collapsing class."""

    eT: Fraction            # e^{-T}
    T: float
    lam: Fraction           # ratio e^{-T} / (1 - e^{-T})
    kappa: Fraction         # base form eta = kappa * FS_b
    k: int
    kprime: int             # k' = k (1 - e^{-T})
    alpha: int
    beta: int

    def by_name(self) -> dict:
        """The constants by their names in report.json and ``fanofib constants``.

        The class components (D_base, D_fiber) are (kappa, 0) and the
        integral powers (p, q, r) are (k, alpha, beta), as
        ``derive_constants`` asserts."""
        return {"eT": self.eT, "T": self.T, "lambda": self.lam,
                "kappa": self.kappa, "k": self.k, "kprime": self.kprime,
                "alpha": self.alpha, "beta": self.beta, "D_base": self.kappa,
                "D_fiber": Fraction(0), "p": self.k, "q": self.alpha, "r": self.beta}


def derive_constants(spec: ModelSpec) -> DerivedConstants:
    """Exact rational arithmetic throughout; see DerivedConstants."""
    a, c = spec.a, spec.c
    if not (a > 0 and c > 0):
        raise ModelOrientationError("class coefficients must be positive")
    if a <= c:
        raise ModelOrientationError("fiber collapse requires a > c")

    eT = Fraction(2, 1) / (c + 2)
    one_minus = 1 - eT
    lam = eT / one_minus
    assert lam == Fraction(2, 1) / c
    kappa = (2 * a - 2 * c) / (c + 2)

    # smallest k with k e^{-T} and k(1 - e^{-T}) both integral
    k = eT.denominator
    if k > 10**4:
        raise ConfigError(f"class denominators too large (k = {k}); the "
                          "integral section powers become impractical")
    alpha = int(k * eT)
    kprime = k - alpha
    beta = kprime
    assert Fraction(alpha, beta) == lam
    assert Fraction(1, 1) / one_minus == lam + 1

    d_base = eT * a - 2 * one_minus
    d_fiber = eT * c - 2 * one_minus    # identically 0 for eT = 2/(c+2)
    assert d_fiber == 0 and d_base == kappa

    return DerivedConstants(eT=eT, T=math.log(float(1 / eT)), lam=lam,
                            kappa=kappa, k=k, kprime=kprime, alpha=alpha,
                            beta=beta)


@dataclass(eq=False)
class WarpData:
    """Nodal values of the separable warp factors and their D-derivatives."""

    eps: float
    P: np.ndarray        # P(x_f)
    Q: np.ndarray        # Q(x_b)
    DP: np.ndarray       # x(1-x) P'
    DQ: np.ndarray
    D2P_fs: np.ndarray   # (x(1-x) d_x)^2 P / x(1-x) = (g P')', polynomial
    D2Q_fs: np.ndarray   # hence exact at the poles
    DP_half: np.ndarray  # sqrt(g) P', for the FS-relative mixed entry
    DQ_half: np.ndarray


def _warp_data(grid: Grid, spec: ModelSpec) -> WarpData:
    P, Q = WARP_SHAPES[spec.warp_shape]
    xf, xb = grid.nodes_f, grid.nodes_b
    dP, dQ = np.polyder(P), np.polyder(Q)
    DP, DQ = np.polymul(_G, dP), np.polymul(_G, dQ)
    return WarpData(
        eps=spec.warp_amplitude,
        P=np.polyval(P, xf), Q=np.polyval(Q, xb),
        DP=np.polyval(DP, xf), DQ=np.polyval(DQ, xb),
        D2P_fs=np.polyval(np.polyder(DP), xf), D2Q_fs=np.polyval(np.polyder(DQ), xb),
        DP_half=np.sqrt(np.polyval(_G, xf)) * np.polyval(dP, xf),
        DQ_half=np.sqrt(np.polyval(_G, xb)) * np.polyval(dQ, xb),
    )


def _checked_range(lo: float, hi: float, what: str) -> None:
    """PositivityError unless a density whose least and greatest nodal
    values are ``lo`` and ``hi`` is finite and positive (a NaN fails)."""
    if not (lo > 0.0 and hi < math.inf):
        raise PositivityError(f"{what}: density not finite and positive "
                              f"(min {lo:.3e}, max {hi:.3e})", worst=lo)


def checked_volume(rho: np.ndarray, what: str) -> np.ndarray:
    """``rho`` if finite and positive at every node, else PositivityError."""
    _checked_range(float(rho.min()), float(rho.max()), what)
    return rho


@dataclass(eq=False)
class ReferenceGeometry:
    """Reference metric omega0, normalized volume form and h_L's weight.

    omega0's FS-relative entries are rank one in the warp profiles: c +
    eps D2P_fs(x_f) Q(x_b) on the fibers, a + eps P(x_f) D2Q_fs(x_b) on the
    base and the log-frame mixed entry eps DP(x_f) DQ(x_b).  So is the
    smooth part psi_w = eps P(x_f) Q(x_b) of h_L's weight c log(1+s_f) +
    a log(1+s_b) + psi_w, whose log poles (log(1+s) = -log(1-x)) are kept
    symbolic, and the volume density is C exp(-lambda psi_w).  No n^2
    field is held: ``vertical_rows``, ``base_rows``, ``weight_rows`` and
    ``volume_rows`` form the rows a stage reads, block by block, and a
    stage that needs the mixed entry forms its rows from ``warp``.  Of the
    volume form the reference keeps C and its push-forward, a base profile.
    """

    spec: ModelSpec
    consts: DerivedConstants
    grid: Grid
    warp: WarpData
    C: float                 # the volume density is C exp(-lambda psi_w)
    Omega_push: np.ndarray   # f_* Omega = 2 pi int Omega dx_f on the base
    eta_fs: float            # FS-relative density of eta (the constant kappa)
    V: float                 # 2 * fiber volume of omega0

    def vertical_rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows [lo, hi) of omega0's FS-relative density on the fibers."""
        w = self.warp
        return float(self.spec.c) + w.eps * w.D2P_fs[lo:hi, None] * w.Q[None, :]

    def base_rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows [lo, hi) of the FS-relative density of omega0's base-base
        entry."""
        w = self.warp
        return float(self.spec.a) + w.eps * w.P[lo:hi, None] * w.D2Q_fs[None, :]

    def weight_rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows [lo, hi) of psi_w, the smooth part of h_L's weight."""
        w = self.warp
        return w.eps * w.P[lo:hi, None] * w.Q[None, :]

    def volume_rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows [lo, hi) of the volume density Omega = C exp(-lambda psi_w),
        relative to the product FS volume."""
        rows = self.weight_rows(lo, hi)
        rows *= -float(self.consts.lam)
        np.exp(rows, out=rows)
        rows *= self.C
        return rows


def _check_positive(ref: ReferenceGeometry) -> None:
    """Minimum eigenvalue of omega0 from its FS-relative entries, in row
    blocks; raises unless positive, so also if it is NaN.

    The reported node is the first minimum of the whole field in row-major
    order, or its first NaN: ``argmin`` picks it within a block, and again
    among the blocks' minima.
    """
    grid, w = ref.grid, ref.warp
    width = grid.n_base + 1
    mins, nodes = [], []
    for lo, hi in _row_blocks(0, grid.n_fiber + 1, width):
        a11, a22 = ref.vertical_rows(lo, hi), ref.base_rows(lo, hi)
        a12 = w.eps * w.DP_half[lo:hi, None] * w.DQ_half[None, :]
        half_tr = 0.5 * (a11 + a22)
        disc = np.sqrt((0.5 * (a11 - a22))**2 + a12**2)
        lam_min = half_tr - disc
        k = int(np.argmin(lam_min))
        mins.append(lam_min.flat[k])
        nodes.append(lo * width + k)
    b = int(np.argmin(mins))
    worst = float(mins[b])
    if not worst > 0.0:
        i, j = divmod(nodes[b], width)
        raise PositivityError(
            f"reference form not positive: eigenvalue {worst:.3e} at "
            f"(x_f, x_b) = ({grid.nodes_f[i]:.4f}, {grid.nodes_b[j]:.4f})",
            worst=worst, location=(float(grid.nodes_f[i]), float(grid.nodes_b[j])))


def build_reference(spec: ModelSpec) -> ReferenceGeometry:
    """Build the reference geometry on one grid: omega0's warp profiles,
    the normalized volume form and h_L's weight.

    omega0 is checked for positivity row block by row block.  The twist
    form chi of pullback(eta) = e^{-T} omega0 + (1-e^{-T}) chi has minus
    the anticanonical class, so the volume form with Ric = -chi has the
    closed-form density Omega = C exp(-lambda psi_w); only the constant C
    is fixed by quadrature, against the mass of 2 omega0 ^ pullback(eta).
    The build holds no field: a first pass over Omega's row blocks, with
    C = 1, takes the row sums of both masses, and a second takes Omega's
    extremes, its normalization defect and its push-forward.  A density
    that is not finite and positive raises PositivityError.
    """
    consts = derive_constants(spec)
    grid = Grid(spec.n_fiber, spec.n_base)
    kappa = float(consts.kappa)
    ref = ReferenceGeometry(spec=spec, consts=consts, grid=grid,
                            warp=_warp_data(grid, spec), C=1.0, Omega_push=None,
                            eta_fs=kappa, V=2.0 * TWO_PI * float(spec.c))
    _check_positive(ref)

    blocks = list(_row_blocks(0, grid.n_fiber + 1, grid.n_base + 1))
    mass, rows = np.empty(grid.n_fiber + 1), np.empty(grid.n_fiber + 1)
    for lo, hi in blocks:
        mass[lo:hi] = _simpson_rows(grid, 2.0 * kappa * ref.vertical_rows(lo, hi))
        rows[lo:hi] = _simpson_rows(grid, ref.volume_rows(lo, hi))
    target = TWO_PI**2 * _simpson_of_rows(grid, mass)
    ref.C = target / (TWO_PI**2 * _simpson_of_rows(grid, rows))

    low = high = sums = None
    for lo, hi in blocks:
        block = ref.volume_rows(lo, hi)
        low, high = _col_range(low, high, block)
        rows[lo:hi] = _simpson_rows(grid, block)
        sums = _carry_columns(grid, sums, block, lo)
    _checked_range(float(low.min()), float(high.max()), "reference volume form")
    ref.Omega_push = TWO_PI * (sums / (3.0 * grid.n_fiber))

    norm_defect = abs(TWO_PI**2 * _simpson_of_rows(grid, rows) / target - 1.0)
    if norm_defect > 1e-12:
        raise FanofibError(f"volume normalization defect {norm_defect:.3e}")
    return ref

"""Push-forward, the base Monge-Ampere solves, and residual checks of the
displayed base-space equations.  G' and the descent of G are read from
one streamed pass over the fiber family's volume.

With a one-dimensional base the complex Monge-Ampere equation is
semilinear in the potential; Newton iterations on the FS-relative
densities stay regular through the poles because the divided operator
L = g d2 + g' d1 carries the natural Robin rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import (TWO_PI, _carry_columns, _col_range, _row_blocks,
                       _simpson_of_rows, _simpson_rows, lap, lap_bands, simpson,
                       simpson2d)
from .errors import PositivityError
from .fiberwise import SKE, SPR, FiberFamilySolution
from .grids import BASE, Grid
from .model import ReferenceGeometry, _checked_range
from .solvers import BandedMatrix, newton_semilinear
from .wpform import WPResult

VARIANT_B = "B"
VARIANT_BPRIME = "Bprime"


# ---------------------------------------------------------------------------
# push-forward and the fiber-averaged density
# ---------------------------------------------------------------------------

# the monomial test functions psi(x_b) = 1, x_b, x_b^2 of the adjoint check
_ADJOINT_POWERS = (0, 1, 2)


def _adjoint_rows(grid: Grid, rows: np.ndarray, block: np.ndarray, lo: int) -> None:
    """Write, for each test function psi_p = x_b^p, the base-weighted sums
    of the fiber rows of psi_p * ``block``, the rows from ``lo`` on of a
    volume density, to ``rows[p]``."""
    for p in _ADJOINT_POWERS:
        rows[p, lo:lo + block.shape[0]] = _simpson_rows(
            grid, block * (grid.nodes_b**p)[None, :])


def _adjoint_defect(grid: Grid, push: np.ndarray, rows: np.ndarray) -> float:
    """Worst relative defect of int_B psi f_*V = int_X (f^*psi) V over the
    test functions of ``_adjoint_rows``, from the push-forward of V and the
    row sums that ``_adjoint_rows`` wrote for all fiber rows of V."""
    worst = 0.0
    for p in _ADJOINT_POWERS:
        lhs = simpson(grid, BASE, grid.nodes_b**p * push)
        rhs = TWO_PI * _simpson_of_rows(grid, rows[p])
        worst = float(np.max([worst, abs(lhs - rhs) / max(abs(rhs), 1e-30)]))
    return worst


# ---------------------------------------------------------------------------
# G' and its descent from the total space
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class GprimeReport:
    family: FiberFamilySolution   # the family whose volume was pushed forward
    gprime: np.ndarray
    delta_lower: float
    normalization_defect: float
    adjoint_defect: float
    g_lo: np.ndarray         # per-column extremes of G = volume / (2 eta u)
    g_hi: np.ndarray


def _twisted_rows(ref: ReferenceGeometry, rho: np.ndarray, lo: int,
                  hi: int) -> np.ndarray:
    """Rows [lo, hi) of e^{-lambda rho} Omega."""
    rows = -float(ref.consts.lam) * rho[lo:hi]
    np.exp(rows, out=rows)
    np.multiply(ref.volume_rows(lo, hi), rows, out=rows)
    return rows


def compute_gprime(ref: ReferenceGeometry,
                   fiber_sol: FiberFamilySolution) -> GprimeReport:
    """G' = f_* Omega / (V eta) as a base profile, with the defects of its
    unit mean and of the push-forward's adjoint identity, both exact, and
    the per-column extremes of G = Omega / (2 u eta) that
    ``check_g_descends`` reads.

    The fiber family picks the volume: the Einstein family pushes forward
    Omega' = s e^{-lambda rho} Omega, with s set so that the push-forward
    carries unit mean against eta (the free multiplicative constant of the
    construction), the prescribed-Ricci family Omega itself.  Neither
    volume is held, and Omega's rows come from ``ref.volume_rows``: the
    Einstein family's first pass sums the fiber rows of e^{-lambda rho}
    Omega against the base weights, as ``simpson2d`` does, to fix s; one
    pass forms the volume block by block for its fiber integrals (fiber
    axis first), its adjoint row sums (base axis first), its extremes and
    those of G.  Raises PositivityError unless the volume is finite and
    positive.
    """
    grid = ref.grid
    blocks = list(_row_blocks(0, grid.n_fiber + 1, grid.n_base + 1))
    if fiber_sol.kind == SKE:
        rows = np.empty(grid.n_fiber + 1)
        for lo, hi in blocks:
            rows[lo:hi] = _simpson_rows(grid, _twisted_rows(ref, fiber_sol.rho, lo, hi))
        target_mass = ref.V * (TWO_PI * float(ref.eta_fs))   # V * int_B eta
        scale = target_mass / (TWO_PI**2 * _simpson_of_rows(grid, rows))

    sums = low = high = g_lo = g_hi = None
    adjoint = np.empty((len(_ADJOINT_POWERS), grid.n_fiber + 1))
    for lo, hi in blocks:
        if fiber_sol.kind == SKE:
            block = _twisted_rows(ref, fiber_sol.rho, lo, hi)
            block *= scale
        else:
            block = ref.volume_rows(lo, hi)
        low, high = _col_range(low, high, block)
        sums = _carry_columns(grid, sums, block, lo)
        _adjoint_rows(grid, adjoint, block, lo)
        G = block / (2.0 * ref.eta_fs * fiber_sol.vertical_fs[lo:hi])
        g_lo, g_hi = _col_range(g_lo, g_hi, G)
    _checked_range(float(low.min()), float(high.max()), "twisted volume form")
    push = TWO_PI * (sums / (3.0 * grid.n_fiber))    # f_* of the volume
    gprime = push / (ref.V * ref.eta_fs)
    if np.any(gprime <= 0.0):
        raise PositivityError("push-forward density lost positivity; "
                              "upstream data corrupted")
    defect = abs(simpson(grid, BASE, gprime) - 1.0)
    return GprimeReport(family=fiber_sol, gprime=gprime,
                        delta_lower=float(gprime.min()),
                        normalization_defect=float(defect),
                        adjoint_defect=_adjoint_defect(grid, push, adjoint),
                        g_lo=g_lo, g_hi=g_hi)


@dataclass(eq=False)
class GDescendsReport:
    vertical_oscillation: float
    pullback_defect: float


def check_g_descends(ref: ReferenceGeometry, fiber_sol: FiberFamilySolution,
                     gprime: GprimeReport) -> GDescendsReport:
    """Fiber constancy of G = Omega / (2 omega_family ^ pullback(eta)) and
    agreement with the pulled-back base profile, Omega the volume that
    ``gprime`` pushed forward: both are read in O(n_base) from the
    per-column extremes of G that ``compute_gprime`` took in its pass
    (``_sup_about``: the full-field values bit for bit).  Raises
    ValueError unless ``fiber_sol`` is the family ``gprime`` was formed
    from."""
    if fiber_sol is not gprime.family:
        raise ValueError(f"G' was formed from another family than this "
                         f"{fiber_sol.kind} one")
    lo, hi = gprime.g_lo, gprime.g_hi
    return GDescendsReport(vertical_oscillation=float((hi - lo).max()),
                           pullback_defect=_sup_about(lo, hi, gprime.gprime))


# ---------------------------------------------------------------------------
# the base Monge-Ampere solves
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class BaseMetricSolution:
    variant: str             # "B" | "Bprime"
    rho: np.ndarray
    dens_fs: np.ndarray      # FS-relative density of the solved base metric
    khat: float              # density of the reference form in the equation
    gprime: np.ndarray       # the G' profile of the equation
    forward_residual: float
    positivity_margin: float
    zeroth_order_min: float  # monotonicity witness of the Newton linearization
    iterations: int


def solve_base_ma(ref: ReferenceGeometry, gprime: GprimeReport, variant: str,
                  init: np.ndarray | float = 0.0) -> BaseMetricSolution:
    """Newton for (ref_form + i ddbar rho) = G' e^rho ref_form.

    ``variant`` selects the reference form eta or eta/(1-e^{-T}); the
    linearization L - khat G' e^rho has a strictly negative-definite
    zeroth-order part, so every step is a regular solve, and Newton gets
    at most 60 steps.  The residual
    applies L by its stencil (``lap``) and the Jacobian is banded, so a
    step costs O(n) time and memory.
    """
    grid = ref.grid
    kappa = float(ref.eta_fs)
    lam_plus = float(ref.consts.lam + 1)
    if variant == VARIANT_B:
        khat = kappa
    elif variant == VARIANT_BPRIME:
        khat = kappa * lam_plus
    else:
        raise ValueError(f"unknown variant {variant!r}")

    bands = lap_bands(grid, BASE)
    G = gprime.gprime
    zeroth_min = [np.inf]

    def residual(rho):
        return khat + lap(grid, rho, BASE) - khat * G * np.exp(rho)

    def jacobian(rho):
        coeff = khat * G * np.exp(rho)
        zeroth_min[0] = min(zeroth_min[0], float(coeff.min()))
        J = bands.copy()
        J[2] -= coeff
        return BandedMatrix(J)

    x0 = np.broadcast_to(np.asarray(init, dtype=float),
                         (grid.n_base + 1,)).astype(float)
    result = newton_semilinear(residual, jacobian, x0, max_iter=60)
    rho = result.x
    dens = khat + lap(grid, rho, BASE)
    margin = float(dens.min())
    if margin <= 0.0:
        raise PositivityError(f"base metric lost positivity (margin {margin:.3e})",
                              worst=margin)
    return BaseMetricSolution(variant=variant, rho=rho, dens_fs=dens, khat=khat,
                              gprime=G,
                              forward_residual=result.trace[-1],
                              positivity_margin=margin,
                              zeroth_order_min=float(zeroth_min[0]),
                              iterations=result.iterations)


def integrated_ma_defect(ref: ReferenceGeometry, sol: BaseMetricSolution) -> float:
    """Relative gap between int_B of the solved metric and of G' e^rho times
    the reference form; equals the integrated equation residual."""
    grid = ref.grid
    lhs = simpson(grid, BASE, sol.dens_fs)
    rhs = simpson(grid, BASE, sol.khat * sol.gprime * np.exp(sol.rho))
    return abs(lhs - rhs) / abs(rhs)


# ---------------------------------------------------------------------------
# residuals of the displayed equations
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ResidualReport:
    name: str
    residual_sup: float
    relative: float          # residual_sup over the equation's scale
    extra: dict
    field: np.ndarray | None = None   # the residual on the base grid


def twisted_ke_residual(ref: ReferenceGeometry, sol: BaseMetricSolution,
                        wp: WPResult) -> ResidualReport:
    """Sup-norm of Ric(omega) + omega [+ lambda eta] - wp over the base: an
    identity up to roundoff and the Newton tolerance on the sections route's
    ``wp``; the residual route's field is this plus wp_sections - wp_residual."""
    grid = ref.grid
    g = grid.g_b
    ric_fs = 2.0 - lap(grid, np.log(sol.dens_fs), BASE)
    res_fs = ric_fs + sol.dens_fs - wp.wp_fs
    if sol.variant == VARIANT_B:
        res_fs = res_fs + float(ref.consts.lam) * float(ref.eta_fs)
    res = g * res_fs
    scale = float(np.abs(g * sol.dens_fs).max())
    sup = float(np.abs(res).max())
    return ResidualReport(name=f"twisted_ke[{sol.variant}]", residual_sup=sup,
                          relative=sup / scale, extra={}, field=res)


def wpl_fs_residual(ref: ReferenceGeometry, wp: WPResult) -> ResidualReport:
    """Residual of -Ric(f_* Omega) + wp = (lambda + 1) eta on the base; like
    ``twisted_ke_residual`` an identity up to roundoff on the sections route."""
    grid = ref.grid
    g = grid.g_b
    lam_plus = float(ref.consts.lam + 1)
    ric_fs = 2.0 - lap(grid, np.log(ref.Omega_push), BASE)
    res = g * (-ric_fs + wp.wp_fs - lam_plus * ref.eta_fs)
    scale = float(np.abs(g * lam_plus * ref.eta_fs).max())
    sup = float(np.abs(res).max())
    return ResidualReport(name="wpl_fs", residual_sup=sup, relative=sup / scale,
                          extra={})


def _sup_about(lo: np.ndarray, hi: np.ndarray, centre) -> float:
    """max |f - centre| over a field whose base columns span [lo, hi], for a
    number or base profile ``centre``.  Rounding is monotone, so this is
    the full-field value bit for bit; a NaN propagates."""
    return float(np.maximum(hi - centre, centre - lo).max())


# the displayed volume identity of each (fiber family, base variant) pair
_VOLUME_IDENTITY = {(SPR, VARIANT_B): 1, (SPR, VARIANT_BPRIME): 2,
                    (SKE, VARIANT_B): 3, (SKE, VARIANT_BPRIME): 4}


def volume_identity_residual(ref: ReferenceGeometry, fiber_sol: FiberFamilySolution,
                             wp: WPResult,
                             base_sols: list[BaseMetricSolution]) -> list[ResidualReport]:
    """Coefficient-wise residuals of the displayed volume-form equations of
    one fiber family, one report volume_identity[k] per base solution:

    1 (spr, B):   pullback(omega_B)  = eT w - (1-eT) Ric(e^{lam(f* rho_B - rho)} Vol)
    2 (spr, B'):  (1-eT) pullback(omega_B') = eT w - (1-eT) Ric(e^{-lam rho} Vol)
    3 (ske, B):   pullback(omega_B)  = eT w - (1-eT) Ric(e^{lam f* rho_B} Vol)
    4 (ske, B'):  (1-eT) pullback(omega_B') = eT w - (1-eT) Ric(Vol)

    with w = omega0 + i ddbar rho the family form and Vol = 2 w_vertical ^
    pullback(base metric).  The log of the twisted volume is F + b, with
    F = log 2u [- lam rho for spr] set by the family and b = log dens_B
    [+ lam rho_B for B] by the variant.  ddbar is linear and i ddbar b =
    pullback(L_b b), so each right side is R + (1-eT) pullback(L_b b) with
    one family field

        R = eT omega0 - 2(1-eT)(FS_f + FS_b) + i ddbar(eT rho + (1-eT) F).

    R is the pullback residual r of ``wpform.wp_from_residual`` up to a
    factor and the pulled-back form 2 FS_b.  There r = lam omega0 - 2 FS_f +
    i ddbar log u for spr and r = lam w - 2 FS_f + i ddbar log u for ske.
    Since lam (1-eT) = eT, the spr potential is eT rho + (1-eT) F =
    (1-eT) log 2u, and i ddbar log 2 = 0, so in both cases

        R = (1-eT) (r - 2 FS_b).

    ``wp`` must be the residual route's result for this family; R's
    vertical sup and the base-column extremes of R_bb follow from its
    summary of r in O(n_base).  A variant changes only base profiles in
    the base-base entry, so it costs O(n_base) as well.

    The left side is c g_b dens_B, c = 1 for B and 1-eT for B', and
    L_b rho_B = dens_B - khat.  L_b log dens_B would difference dens_B a
    second time, and that roundoff grows like h^-4.  So log dens_B and the
    left side's density are both read from the base equation's right side
    khat G' e^{rho_B}.  Since (1-eT)(1 + lam) = 1, the L_b rho_B terms of
    the two sides cancel, and the residual is the spread of R_bb about

        centre = g_b (c khat - (1-eT) L_b log G') - c g_b (dens_B - khat G' e^{rho_B}):

    a family profile from G', the same for both variants (c khat = kappa),
    less the solved omega_B's pointwise defect in its own equation, which
    is where the base solution enters.  Taken exactly, the identity applies
    L_b to the log of that defect instead; both vanish exactly when the
    base equation holds.  The deviation gaps of the fiber potential and
    the pulled-back base potential are reported; the exponential factor
    disappears exactly when the matching gap vanishes.
    """
    summary = wp.residual
    if wp.route != "residual" or summary is None:
        raise ValueError("the volume identities need the residual route's "
                         f"form, not the {wp.route!r} route's")
    if summary.kind != fiber_sol.kind:
        raise ValueError(f"the residual of the {summary.kind} family cannot "
                         f"serve the {fiber_sol.kind} family")
    grid = ref.grid
    one_minus = float(1 - ref.consts.eT)
    shared_sup = one_minus * float(np.max([summary.ff_sup, summary.fb_sup]))
    two_fs_b = 2.0 * grid.g_b
    r_lo = one_minus * (summary.bb_lo - two_fs_b)
    r_hi = one_minus * (summary.bb_hi - two_fs_b)
    rho_f = fiber_sol.rho
    f_lo, f_hi = rho_f.min(axis=0), rho_f.max(axis=0)
    f_mean = simpson2d(grid, rho_f)
    gap_fiber = _sup_about(f_lo, f_hi, f_mean)

    reports = []
    for sol in base_sols:
        c = 1.0 if sol.variant == VARIANT_B else one_minus
        defect = sol.dens_fs - sol.khat * sol.gprime * np.exp(sol.rho)
        centre = grid.g_b * (c * (sol.khat - defect)
                             - one_minus * lap(grid, np.log(sol.gprime), BASE))
        lhs = c * grid.g_b * sol.dens_fs    # rhs_bb = R_bb + lhs - centre
        sup = float(np.max([shared_sup, _sup_about(r_lo, r_hi, centre)]))
        scale = float(np.max([shared_sup, 1e-30, _sup_about(r_lo, r_hi, centre - lhs)]))
        b_mean = simpson(grid, BASE, sol.rho)
        offset = sol.rho + (f_mean - b_mean)   # rho_f - offset has mean 0
        gaps = {"gap_fiber_potential": gap_fiber,
                "gap_base_potential": _sup_about(sol.rho, sol.rho, b_mean),
                "gap_difference": _sup_about(f_lo - offset, f_hi - offset, 0.0)}
        which = _VOLUME_IDENTITY[fiber_sol.kind, sol.variant]
        reports.append(ResidualReport(
            name=f"volume_identity[{which}]", residual_sup=sup,
            relative=sup / scale, extra=gaps))
    return reports

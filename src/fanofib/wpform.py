"""The Weil-Petersson-type base form, by two independent routes.

Route one integrates a family of fiber volume forms built from a
non-vanishing holomorphic section family and differentiates the log of
the fiber integrals.  Route two assembles the Ricci form of the
fibration volume (vertical metric wedged with a pulled-back base
metric) and reads the form off as the base-base component of a
residual that must be a pullback.

On the standard chart the section weight splits into exact log poles of
the base coordinate plus a globally smooth part; the pole parts are
differentiated in closed form (D^2 log x = D^2 log(1-x) = -x(1-x)), so
the computed form is regular across the whole base including the poles
where the chart frame degenerates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .calculus import TWO_PI, dop, lap, simpson_columns
from .errors import FanofibError, PullbackStructureError
from .fiberwise import SKE, SPR, FiberFamilySolution
from .grids import BASE, FIBER
from .model import ReferenceGeometry


@dataclass(frozen=True)
class SectionFamilySpec:
    """Chart data of a non-vanishing holomorphic section family.

    F(b, z) = f_scale * z_b**f_power on the standard chart; nonzero
    ``f_power`` realizes the frame of the opposite chart, which is how
    the gluing of the local definitions is exercised.  The Hermitian
    weight is not part of the chart data: the fiber family handed to
    ``volume_family_from_sections`` selects it.
    """

    alpha: int
    beta: int
    f_scale: float = 1.0
    f_power: int = 0

    @classmethod
    def canonical(cls, consts) -> "SectionFamilySpec":
        return cls(alpha=consts.alpha, beta=consts.beta)


@dataclass(eq=False)
class SectionVolumeFamily:
    """Family of fiber volume densities relative to the fiber FS volume.

    density(x_f, b) = exp(smooth_log) * x_b^pole_zero * (1-x_b)^pole_one.
    """

    smooth_log: np.ndarray
    smooth_log_norm: np.ndarray  # log 2*pi int exp(smooth_log) per fiber
    pole_zero: float
    pole_one: float
    ric_defect: float            # forward check of the prescribed fiber Ricci


@dataclass(frozen=True, eq=False)
class PullbackResidualSummary:
    """Extremes of the pullback residual r of the residual route.

    r = twist - 2 FS_f + i ddbar log u in the log frame: its vertical
    entries must vanish and its base-base entry must be constant along
    each fiber.
    The verticality gate reads these numbers, and the volume identities
    derive their family field from them (``basespace``), so r is
    assembled once per fiber family.
    """

    kind: str                    # the fiber family r was assembled from
    ff_sup: float                # sup |r_ff|
    fb_sup: float                # sup |r_fb|
    bb_lo: np.ndarray            # per base column: min over the fiber of r_bb
    bb_hi: np.ndarray            # per base column: max over the fiber of r_bb


@dataclass(eq=False)
class WPResult:
    """The base-form coefficient, with the data particular to its route."""

    wp_base: np.ndarray          # log-frame coefficient on the base grid
    wp_fs: np.ndarray            # FS-relative density (finite everywhere)
    route: str                   # "sections" | "residual"
    # sections route: log of the fiber integrals, -inf where the chart
    # frame degenerates at a base pole, and its smooth part
    log_norm: np.ndarray | None = None
    smooth_log_norm: np.ndarray | None = None
    # residual route
    verticality_defect: float | None = None
    residual: PullbackResidualSummary | None = None


def volume_family_from_sections(ref: ReferenceGeometry, sfs: SectionFamilySpec,
                                fiber: FiberFamilySolution | None = None
                                ) -> SectionVolumeFamily:
    """Fiber volume forms of a section family, as FS-relative densities.

    The fiber family picks the Hermitian weight and the fiber Ricci
    target of the forward check: the Einstein family (``fiber.kind ==
    SKE``) takes the weight h_L e^{-rho} and the target lambda u of its
    own metric; any other ``fiber``, or none, takes h_L and lambda times
    the reference vertical density.

    The fiber-pole exponent 2 - lambda*c cancels exactly (that is the
    degeneration identity), so the density is bounded on every fiber; an
    imbalance means the section exponents are inconsistent with the
    model and is rejected.
    """
    consts = ref.consts
    if Fraction(sfs.alpha, sfs.beta) != consts.lam:
        raise FanofibError(
            f"section exponents {sfs.alpha}/{sfs.beta} inconsistent with the "
            f"degeneration ratio {consts.lam}")
    fiber_exponent = 2 - consts.lam * ref.spec.c
    if fiber_exponent != 0:
        raise FanofibError("unbounded fiber-pole behavior in the section "
                           "volume family")
    if sfs.f_scale <= 0.0:
        raise ValueError("f_scale must be positive")

    lam = float(consts.lam)
    smooth_weight = ref.phi_L.smooth
    ric_target = ref.vertical_fs
    if fiber is not None and fiber.kind == SKE:
        smooth_weight = smooth_weight + fiber.rho
        ric_target = fiber.vertical_fs

    beta = float(sfs.beta)
    smooth_log = (2.0 / beta) * math.log(sfs.f_scale) - lam * smooth_weight
    pole_zero = sfs.f_power / beta
    pole_one = float(consts.lam * ref.spec.a) - pole_zero

    # forward check of the defining fiber Ricci prescription
    ric_fs = 2.0 - lap(ref.grid, smooth_log, FIBER)
    ric_defect = float(np.abs(ric_fs - lam * ric_target).max())

    integrals = TWO_PI * simpson_columns(ref.grid, np.exp(smooth_log))
    if np.any(integrals <= 0.0):
        raise FanofibError("non-positive fiber integral in the section family")

    return SectionVolumeFamily(smooth_log=smooth_log,
                               smooth_log_norm=np.log(integrals),
                               pole_zero=pole_zero, pole_one=pole_one,
                               ric_defect=ric_defect)


def wp_from_sections(ref: ReferenceGeometry,
                     family: SectionVolumeFamily) -> WPResult:
    """Differentiate the log fiber integrals of the section volume family.

    The pole parts of log_norm contribute pole_zero + pole_one to the
    FS-relative density in closed form; only the smooth part is
    differentiated on the grid.
    """
    grid = ref.grid
    smooth_log_norm = family.smooth_log_norm
    wp_fs = (family.pole_zero + family.pole_one) - lap(grid, smooth_log_norm, BASE)
    wp_base = grid.g_b * wp_fs

    xb = grid.nodes_b
    log_norm = smooth_log_norm.copy()
    with np.errstate(divide="ignore"):
        if family.pole_zero != 0.0:
            log_norm = log_norm + family.pole_zero * np.log(xb)
        if family.pole_one != 0.0:
            log_norm = log_norm + family.pole_one * np.log(1.0 - xb)

    return WPResult(wp_base=wp_base, wp_fs=wp_fs, route="sections",
                    log_norm=log_norm, smooth_log_norm=smooth_log_norm)


def wp_from_residual(ref: ReferenceGeometry, fiber_sol: FiberFamilySolution,
                     theta_fs: np.ndarray | float | None = None) -> WPResult:
    """Recover the base form from the Ricci form of a fibration volume.

    For any base metric theta the combination

        r = twist + pullback(Ric theta) - Ric(vertical ^ pullback(theta))

    is a pullback.  The theta terms cancel symbolically, before any
    discretisation, so r is assembled without theta: ``theta_fs`` is only
    checked to be a positive base density, and no computation reads it.
    The base-base component is fiber-averaged and the vertical components
    plus the fiber oscillation are reported as the verticality defect; a
    defect above max(1e-8, 50 h^2 max(1, sup|r_bb|)), or one that is not
    a number, raises PullbackStructureError.  The extremes of r are kept
    in ``WPResult.residual`` for the volume identities.
    """
    grid = ref.grid
    lam = float(ref.consts.lam)
    if theta_fs is None:
        theta_fs = ref.eta_fs
    theta = np.broadcast_to(np.asarray(theta_fs, dtype=float),
                            (grid.n_base + 1,)).astype(float)
    if np.any(theta <= 0.0):
        raise ValueError("theta must be a base metric (positive density)")
    if fiber_sol.kind not in (SPR, SKE):
        raise ValueError(f"unknown fiber family kind {fiber_sol.kind!r}")

    u = fiber_sol.vertical_fs
    log_u = np.log(u)

    # the twist form lambda*omega: the reference form for the
    # prescribed-Ricci family, the family form itself for the Einstein one
    if fiber_sol.kind == SPR:
        twist_ff_fs = lam * ref.vertical_fs
        twist_fb = lam * ref.mixed_fb
        twist_bb_fs = lam * ref.base_fs
    else:
        rho = fiber_sol.rho
        twist_ff_fs = lam * (ref.vertical_fs + lap(grid, rho, FIBER))
        twist_fb = lam * (ref.mixed_fb + dop(grid, dop(grid, rho, BASE), FIBER))
        twist_bb_fs = lam * ref.base_fs + lam * lap(grid, rho, BASE)

    # vertical channel: twist_ff - (2 - L_f log u), times g_f
    abs_ff = np.abs((twist_ff_fs - (2.0 - lap(grid, log_u, FIBER)))
                    * grid.g_f[:, None])

    # mixed channel: the pulled-back pieces have no mixed entry
    abs_fb = np.abs(twist_fb + dop(grid, dop(grid, log_u, BASE), FIBER))

    # base-base channel, FS-relative; the Ric(theta) and wedge theta terms
    # cancel identically, leaving twist_bb + L_b log u (added in place, so
    # the twist costs no n^2 array beyond the residual)
    r_bb_fs = twist_bb_fs
    r_bb_fs += lap(grid, log_u, BASE)
    r_bb = r_bb_fs * grid.g_b[None, :]

    bb_lo, bb_hi = r_bb.min(axis=0), r_bb.max(axis=0)
    defect = float((abs_ff + abs_fb + (bb_hi - bb_lo)[None, :]).max())
    h2 = grid.h(FIBER)**2 + grid.h(BASE)**2
    defect_tol = max(1e-8, 50.0 * h2 * max(1.0, float(np.abs(r_bb).max())))
    if not defect <= defect_tol:
        raise PullbackStructureError(
            f"reconstructed form is not a pullback: defect {defect:.3e} "
            f"exceeds {defect_tol:.3e}")

    wp_fs = simpson_columns(grid, r_bb_fs)
    summary = PullbackResidualSummary(
        kind=fiber_sol.kind, ff_sup=float(abs_ff.max()),
        fb_sup=float(abs_fb.max()), bb_lo=bb_lo, bb_hi=bb_hi)
    return WPResult(wp_base=grid.g_b * wp_fs, wp_fs=wp_fs, route="residual",
                    verticality_defect=defect, residual=summary)

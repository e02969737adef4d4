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

from .calculus import (TWO_PI, _LAP_REACH, _carry_columns, _col_max, _col_range,
                       _dfdb, _halo, _lap_base, _lap_fiber, _lap_rows, _row_blocks,
                       lap)
from .errors import FanofibError, PullbackStructureError
from .fiberwise import SKE, SPR, FiberFamilySolution
from .grids import BASE
from .model import ReferenceGeometry


@dataclass(frozen=True)
class SectionFamilySpec:
    """Chart data of a non-vanishing holomorphic section family.

    F(b, z) = f_scale on the standard chart, a constant multiple of the
    chart frame.  The Hermitian weight is not part of the chart data: the
    fiber family handed to ``volume_family_from_sections`` selects it.
    """

    alpha: int
    beta: int
    f_scale: float = 1.0

    @classmethod
    def canonical(cls, consts) -> "SectionFamilySpec":
        return cls(alpha=consts.alpha, beta=consts.beta)


@dataclass(eq=False)
class SectionVolumeFamily:
    """Family of fiber volume densities relative to the fiber FS volume.

    density(x_f, b) = exp(smooth_log) * (1-x_b)^pole_one, with smooth_log
    = 2/beta log f_scale - lambda * (smooth part of the Hermitian weight)
    and pole_one = lambda a, the weight's log pole at x_b = 1.  The base
    form reads only the fiber integrals of the smooth part, so smooth_log
    itself is not kept.
    """

    smooth_log_norm: np.ndarray  # log 2*pi int exp(smooth_log) per fiber
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
    degeneration identity, which ``derive_constants`` asserts), so the
    density is bounded on every fiber; section exponents that are not
    integers, positive with ratio lambda, are inconsistent with the model
    and are rejected, and so is an f_scale that is not positive and finite.
    """
    consts = ref.consts
    if (not isinstance(sfs.alpha, int) or not isinstance(sfs.beta, int)
            or sfs.beta <= 0 or Fraction(sfs.alpha, sfs.beta) != consts.lam):
        raise FanofibError(
            f"section exponents {sfs.alpha}/{sfs.beta} inconsistent with the "
            f"degeneration ratio {consts.lam} over a positive beta")
    if not 0.0 < sfs.f_scale < math.inf:
        raise ValueError("f_scale must be positive and finite")

    lam = float(consts.lam)
    grid = ref.grid
    n = grid.n_fiber
    log_scale = (2.0 / sfs.beta) * math.log(sfs.f_scale)
    ske_u = fiber.vertical_fs if fiber is not None and fiber.kind == SKE else None
    pole_one = float(consts.lam * ref.spec.a)

    # smooth_log = 2/beta log f_scale - lam * (smooth part of the weight) on
    # the rows each block's stencil reads; per row block, the forward check
    # of the defining fiber Ricci prescription and the fiber integrals of
    # exp(smooth_log)
    worst = sums = None
    for lo, hi in _row_blocks(0, n + 1, grid.n_base + 1):
        s, e = _halo(lo, hi, n, _LAP_REACH)
        smooth_log = ref.weight_rows(s, e)
        if ske_u is not None:
            smooth_log += fiber.rho[s:e]
        smooth_log *= lam
        np.subtract(log_scale, smooth_log, out=smooth_log)
        ric_fs = 2.0 - _lap_fiber(grid, smooth_log, lo, hi, s)
        target = ref.vertical_rows(lo, hi) if ske_u is None else ske_u[lo:hi]
        worst = _col_max(worst, np.abs(ric_fs - lam * target))
        sums = _carry_columns(grid, sums, np.exp(smooth_log[lo - s:hi - s]), lo)
    ric_defect = float(worst.max())

    integrals = TWO_PI * (sums / (3.0 * grid.n_fiber))
    if np.any(integrals <= 0.0):
        raise FanofibError("non-positive fiber integral in the section family")

    return SectionVolumeFamily(smooth_log_norm=np.log(integrals),
                               pole_one=pole_one, ric_defect=ric_defect)


def wp_from_sections(ref: ReferenceGeometry,
                     family: SectionVolumeFamily) -> WPResult:
    """Differentiate the log fiber integrals of the section volume family.

    The log fiber integrals are the smooth part plus the pole part
    pole_one log(1 - x_b), which contributes pole_one to the FS-relative
    density in closed form; only the smooth part is differentiated on the
    grid.
    """
    grid = ref.grid
    wp_fs = family.pole_one - lap(grid, family.smooth_log_norm, BASE)
    return WPResult(wp_base=grid.g_b * wp_fs, wp_fs=wp_fs, route="sections")


def wp_from_residual(ref: ReferenceGeometry, fiber_sol: FiberFamilySolution,
                     theta_fs: np.ndarray | float | None = None) -> WPResult:
    """Recover the base form from the Ricci form of a fibration volume.

    For any base metric theta the combination

        r = twist + pullback(Ric theta) - Ric(vertical ^ pullback(theta))

    is a pullback.  The theta terms cancel symbolically, before any
    discretisation, so r is assembled without theta: ``theta_fs`` is only
    checked to be a finite positive base density; no computation reads it.
    The base-base component is fiber-averaged and the vertical components
    plus the fiber oscillation are reported as the verticality defect; a
    defect above ``grid.truncation_tol(max(1, sup|r_bb|))``, or one that is
    not a number, raises PullbackStructureError.  The extremes of r are kept
    in ``WPResult.residual`` for the volume identities.  r is formed in
    row blocks and reduced per column as it is formed, its fiber average
    included; log u is taken on the rows each block reads.

    A family whose metric is one column (``solve_ske``) has log u and
    L_f log u taken on that column and broadcast, with the bits of the
    field it stands for: its D_f D_b log u is +-0 (D_b of a row constant
    along the base is 0 inside, and g_b = 0 at both ends), which the
    absolute value of the mixed channel erases, and its L_b log u is +0
    inside, leaving the two one-sided end rows.
    """
    grid = ref.grid
    lam = float(ref.consts.lam)
    if theta_fs is None:
        theta_fs = ref.eta_fs
    theta = np.broadcast_to(np.asarray(theta_fs, dtype=float),
                            (grid.n_base + 1,)).astype(float)
    if not np.all((0.0 < theta) & (theta < np.inf)):
        raise ValueError("theta must be a base metric (finite positive density)")
    if fiber_sol.kind not in (SPR, SKE):
        raise ValueError(f"unknown fiber family kind {fiber_sol.kind!r}")

    n = grid.n_fiber
    u = fiber_sol.vertical_fs
    column = u.shape[1] == 1
    if column:
        # L_b's end rows are those of four copies of the column, placed
        # at base nodes 0, 1, n_b - 1 and n_b
        ends = [0, 1, grid.n_base - 1, grid.n_base]
        g_ends, gp_ends = grid.g_b[ends], grid.gp_b[ends]
    w = ref.warp
    rho = fiber_sol.rho if fiber_sol.kind == SKE else None   # the twist's potential

    # r in row blocks, one channel at a time: the ff and fb channels are
    # reduced to per-column maxima as they are formed, and the FS-relative
    # r_bb to its per-column extremes and its running fiber sums.  log u is
    # taken on the rows each block's stencils read.  The twist form is
    # lambda*omega: the reference form for the prescribed-Ricci family, the
    # family form itself for the Einstein one.
    ff = fb = ffb = bb_lo = bb_hi = bb_sums = None
    for lo, hi in _row_blocks(0, n + 1, grid.n_base + 1):
        s, e = _halo(lo, hi, n, _LAP_REACH)
        log_u = np.log(u[s:e])
        # vertical channel: twist_ff - (2 - L_f log u), times g_f
        if rho is None:
            abs_ff = lam * ref.vertical_rows(lo, hi)
        else:
            abs_ff = _lap_fiber(grid, rho, lo, hi)
            np.add(ref.vertical_rows(lo, hi), abs_ff, out=abs_ff)
            abs_ff *= lam
        abs_ff -= 2.0 - _lap_fiber(grid, log_u, lo, hi, s)
        abs_ff *= grid.g_f[lo:hi, None]
        ff = _col_max(ff, np.abs(abs_ff, out=abs_ff))

        # mixed channel: the pulled-back pieces have no mixed entry;
        # omega0's is eps DP(x_f) DQ(x_b)
        abs_fb = w.eps * w.DP[lo:hi, None] * w.DQ[None, :]
        if rho is not None:
            abs_fb += _dfdb(grid, rho, lo, hi)
        abs_fb *= lam
        if not column:
            abs_fb += _dfdb(grid, log_u, lo, hi, s)
        fb = _col_max(fb, np.abs(abs_fb, out=abs_fb))
        abs_ff += abs_fb
        ffb = _col_max(ffb, abs_ff)
        del abs_ff, abs_fb      # before the next channel's temporaries

        # base-base channel, FS-relative; the Ric(theta) and wedge theta
        # terms cancel identically, leaving twist_bb + L_b log u
        block = ref.base_rows(lo, hi)
        block *= lam
        if rho is not None:
            block += lam * _lap_base(grid, rho, lo, hi)
        if column:
            # adding L_b log u's +0 inside would change no entry: the twist
            # is positive, so none is -0
            t = np.broadcast_to(log_u[lo - s:hi - s].T, (4, hi - lo))
            lb = _lap_rows(t, 0, 4, g_ends, gp_ends, grid.h(BASE))
            block[:, 0] += lb[0]
            block[:, -1] += lb[-1]
        else:
            block += _lap_base(grid, log_u, lo, hi, s)
        bb_lo, bb_hi = _col_range(bb_lo, bb_hi, block * grid.g_b[None, :])
        bb_sums = _carry_columns(grid, bb_sums, block, lo)
        del block, log_u        # before the next block's temporaries

    # max over the field of |r_ff| + |r_fb| + the fiber spread of r_bb:
    # rounding is monotone, so adding the spread to each column's maximum
    # gives the full-field value bit for bit
    defect = float((ffb + (bb_hi - bb_lo)).max())
    r_bb_sup = float(np.maximum(np.abs(bb_lo), np.abs(bb_hi)).max())
    defect_tol = grid.truncation_tol(max(1.0, r_bb_sup))
    if not defect <= defect_tol:
        raise PullbackStructureError(
            f"reconstructed form is not a pullback: defect {defect:.3e} "
            f"exceeds {defect_tol:.3e}")

    wp_fs = bb_sums / (3.0 * grid.n_fiber)
    summary = PullbackResidualSummary(
        kind=fiber_sol.kind, ff_sup=float(ff.max()), fb_sup=float(fb.max()),
        bb_lo=bb_lo, bb_hi=bb_hi)
    return WPResult(wp_base=grid.g_b * wp_fs, wp_fs=wp_fs, route="residual",
                    verticality_defect=defect, residual=summary)

"""Fiberwise elliptic solves over the base grid.

Two families of fiber metrics are produced, both in the fixed fiber
class (volume 2*pi*c):

* the prescribed-Ricci family, Ric = lambda * omega0 restricted to the
  fiber, which on curve fibers linearizes to a Poisson problem and is
  unique;
* the fiberwise Einstein family, Ric = lambda * (metric itself), whose
  metric on each fiber is the round one of the class volume.  The
  discrete system is checked at that start without a Newton step.  The
  fiber equation does not depend on the base point, so the family is
  constant along the base, and its metric is one column, shape
  (n_f+1, 1), which every reader broadcasts.

Fiber potentials carry the mean-zero gauge per fiber; the per-fiber
constant never enters wedges against pulled-back base forms, so every
verified identity is gauge-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import (_AUDIT_REACH, _audit_rows, _col_max, _halo, _lap_fiber,
                       _row_blocks, lap_bands, lap_slabs, simpson_columns,
                       slab_product)
from .errors import FanofibError
from .grids import FIBER
from .model import ReferenceGeometry, checked_volume
from .solvers import BandedMatrix, newton_semilinear, solve_poisson_1d

SPR = "spr"
SKE = "ske"


@dataclass(eq=False)
class FiberFamilySolution:
    """A family of fiber potentials with residual diagnostics."""

    kind: str
    rho: np.ndarray            # (nf+1, nb+1), mean-zero per fiber
    # FS-relative vertical metric density, > 0, (nf+1, nb+1); the Einstein
    # family's is its one column, (nf+1, 1), which readers broadcast
    vertical_fs: np.ndarray
    residual_sup: float        # solver residual (discrete system)
    volume_defect: float       # relative defect of the per-fiber volume


def _recover_potential(ref: ReferenceGeometry, u: np.ndarray) -> np.ndarray:
    """Mean-zero fiber potentials with ddbar_fiber(rho) = (u - m0) FS-wise.

    The source is formed in one array of the grid's shape, row block by
    row block (m0 varies along the base even where u is one column), and
    the solve writes the potentials into it.  u and m0 are O(1) while
    their difference may be O(h^2) next to a pole, so each column's
    compatibility gate is scaled by sup|g u| + sup|g m0|, the size of the
    terms whose roundoff the integral carries, taken in the same pass.
    """
    grid = ref.grid
    g = grid.g_f[:, None]
    rhs = np.empty((grid.n_fiber + 1, grid.n_base + 1))
    size_u = size_m0 = None
    for lo, hi in _row_blocks(0, grid.n_fiber + 1, grid.n_base + 1):
        m0 = ref.vertical_rows(lo, hi)
        np.subtract(u[lo:hi], m0, out=rhs[lo:hi])
        size_u = _col_max(size_u, np.abs(g[lo:hi] * u[lo:hi]))
        size_m0 = _col_max(size_m0, np.abs(m0 * g[lo:hi], out=m0))
    return solve_poisson_1d(grid, FIBER, rhs, scale=size_u + size_m0)


def _family(ref: ReferenceGeometry, kind: str, u: np.ndarray, residual: float,
            what: str) -> FiberFamilySolution:
    """The family of fiber metrics u, each column scaled in place to the
    class volume c: a discrete solve keeps it only to truncation, and the
    forward audit carries that O(h^2) gap.  u is the grid's field or, for
    a family constant along the base, its one column.  ``what`` names the
    metric in the positivity check."""
    c = float(ref.spec.c)
    u *= (c / simpson_columns(ref.grid, u))[None, :]
    checked_volume(u, what)
    rho = _recover_potential(ref, u)
    vols = simpson_columns(ref.grid, u)
    return FiberFamilySolution(kind=kind, rho=rho, vertical_fs=u,
                               residual_sup=residual,
                               volume_defect=float(np.abs(vols - c).max() / c))


def solve_spr(ref: ReferenceGeometry) -> FiberFamilySolution:
    """Prescribed-Ricci family: Ric(omega_b) = lambda * omega0 on each fiber.

    Writes the fiber metric as C(b) e^{v_b} * FS with i ddbar v_b =
    2 FS - lambda omega0 restricted to the fiber (both sides integrate to
    zero by the degeneration identity lambda*c = 2), then fixes C(b) by
    the class volume.
    """
    grid = ref.grid
    lam = float(ref.consts.lam)
    w = ref.warp

    # source of the linear fiber problem; the FS parts cancel exactly.  It
    # is rank one, so the solve writes v into it and the residual check
    # forms again the rows it reads
    def source(lo, hi):
        return -lam * w.eps * w.D2P_fs[lo:hi, None] * w.Q[None, :]

    rows = grid.n_fiber + 1
    v = solve_poisson_1d(grid, FIBER, source(0, rows))

    # discrete forward residual of the linear solve, per row block
    worst = None
    for lo, hi in _row_blocks(0, rows, grid.n_base + 1):
        worst = _col_max(worst, np.abs(_lap_fiber(grid, v, lo, hi) - source(lo, hi)))
    residual = float(worst.max())

    # u = C(b) e^v, formed in the array that held v
    return _family(ref, SPR, np.exp(v, out=v), residual,
                   "prescribed-Ricci fiber metric")


def solve_ske(ref: ReferenceGeometry) -> FiberFamilySolution:
    """Fiberwise Einstein family: Ric(omega_b) = lambda * omega_b.

    On a P^1 fiber of class volume c the Einstein metric is the round
    one, u = c, since lambda c = 2.  Newton starts there, at v = log c;
    the discrete system 2 - L v - lambda e^v = 0 holds there up to the
    roundoff of L @ v, because each row of L sums to zero.  Newton takes
    no step (``max_iter=0``): it probes the banded Jacobian
    -L - lambda diag(e^v) against the residual, which on a c = 1
    run is the one check of the slabs against the bands (L @ 0 = 0 shows
    nothing), and raises NonConvergence unless the start's residual is at
    most ``NEWTON_TOL``.  Every fiber shares the system and the start, so
    the family is constant along the base.

    The residual keeps the bits of the dense BLAS product L @ v: its
    roundoff floor decides whether the start passes, and with it the
    outcome of the a = 3, c = 2 solve on 512x64 that the benchmark records
    as the known defect ``einstein_c_ne_1``.  It takes that product by
    ``lap_slabs``, built once per solve, so no run builds the dense L.

    The metric is formed, scaled and volume-checked on that one column,
    and ``vertical_fs`` is the column, shape (n_f+1, 1); only the
    potential, whose source varies along the base, is a grid field.
    """
    grid = ref.grid
    lam = float(ref.consts.lam)
    slabs = lap_slabs(grid, FIBER)
    bands = lap_bands(grid, FIBER)

    def residual(v):
        return 2.0 - slab_product(slabs, v) - lam * np.exp(v)

    def jacobian(v):
        J = np.negative(bands)
        J[2] -= lam * np.exp(v)
        return BandedMatrix(J)

    result = newton_semilinear(residual, jacobian,
                               np.log(np.full(grid.n_fiber + 1, float(ref.spec.c))),
                               max_iter=0)
    del slabs         # before the recovery

    return _family(ref, SKE, np.exp(result.x, out=result.x)[:, None],
                   result.trace[-1], "Einstein fiber metric")


@dataclass(eq=False)
class FiberVerifyReport:
    """Independent audit of a fiber family.

    The solver residual and the volume defect are the family's own
    ``residual_sup`` and ``volume_defect``; the audit adds what the
    solver does not measure.  ``fiber_forward`` gates the maximum of its
    residuals and the section family's fiber Ricci check.
    """

    forward_residual_sup: float   # independent higher-order audit
    positivity_margin: float
    weight_forward_sup: float | None   # fiberwise curvature of the Einstein
                                       # Hermitian weight; None for spr


def verify_fiber_family(ref: ReferenceGeometry,
                        sol: FiberFamilySolution) -> FiberVerifyReport:
    """Residual audit of a fiber family against its defining equation.

    The forward residual is measured with an independent higher-order
    discretization, so it reflects the distance to the continuum solution
    rather than the solver's own fixed point; for the Einstein family the
    same stencil checks that the curvature of its weight phi_L + rho
    reproduces the fiber metric.  The audit runs in row blocks, reducing
    every residual to per-column maxima as it is formed.  A family whose
    metric is one column (``solve_ske``) has it audited, and its
    positivity checked, on that column.  A fiber potential that is not
    finite raises FanofibError: the later stages would read it; a
    non-finite residual fails its record.
    """
    grid = ref.grid
    lam = float(ref.consts.lam)
    u, rho = sol.vertical_fs, sol.rho
    if not (math.isfinite(float(rho.min())) and math.isfinite(float(rho.max()))):
        raise FanofibError(f"{sol.kind} fiber potential is not finite")
    n = grid.n_fiber
    g, gp, h = grid.g_f, grid.gp_f, grid.h(FIBER)
    forward = curv_gap = None
    for lo, hi in _row_blocks(0, n + 1, grid.n_base + 1):
        s, e = _halo(lo, hi, n, _AUDIT_REACH)
        ric_fs = _audit_rows(np.log(u[s:e]), lo, hi, g, gp, h, s, n)
        np.subtract(2.0, ric_fs, out=ric_fs)
        # the gap in the target's array: it has the shape of both when
        # one of them is a single column
        gap = lam * (ref.vertical_rows(lo, hi) if sol.kind == SPR else u[lo:hi])
        np.subtract(ric_fs, gap, out=gap)
        forward = _col_max(forward, np.abs(gap, out=gap))
        del ric_fs, gap
        if sol.kind == SKE:
            # weight of the Einstein Hermitian metric: phi_L + rho,
            # fiberwise curvature must reproduce the fiber metric
            curv = _audit_rows(rho, lo, hi, g, gp, h)
            curv += ref.vertical_rows(lo, hi)
            curv -= u[lo:hi]
            curv_gap = _col_max(curv_gap, np.abs(curv, out=curv))
            del curv
    return FiberVerifyReport(
        forward_residual_sup=float(forward.max()), positivity_margin=float(u.min()),
        weight_forward_sup=None if curv_gap is None else float(curv_gap.max()))

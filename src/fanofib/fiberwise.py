"""Fiberwise elliptic solves over the base grid.

Two families of fiber metrics are produced, both in the fixed fiber
class (volume 2*pi*c):

* the prescribed-Ricci family, Ric = lambda * omega0 restricted to the
  fiber, which on curve fibers linearizes to a Poisson problem and is
  unique;
* the fiberwise Einstein family, Ric = lambda * (metric itself), a
  Liouville-type problem whose solutions form a Moebius orbit; the
  orbit coordinate is pinned by a bordered Newton gauge.  One fiber is
  solved and its solution fills every column: the fiber equation does
  not depend on the base point, so the family is constant along the base.

Fiber potentials carry the mean-zero gauge per fiber; the per-fiber
constant never enters wedges against pulled-back base forms, so every
verified identity is gauge-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import (TWO_PI, _audit_halo, _audit_rows, _audit_weights, _col_max,
                       _lap_fiber, _row_blocks, _simpson_of_rows, _simpson_rows,
                       lap_bands, lap_matrix, simpson_columns)
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
    vertical_fs: np.ndarray    # FS-relative vertical metric density, > 0
    residual_sup: float        # solver residual (discrete system)
    volume_defect: float       # relative defect of the per-fiber volume


def _recover_potential(ref: ReferenceGeometry, u: np.ndarray) -> np.ndarray:
    """Mean-zero fiber potentials with ddbar_fiber(rho) = (u - m0) FS-wise.

    The source is formed in one array, row block by row block, and the
    solve writes the potentials into it.  u and m0 are O(1) while their
    difference may be O(h^2) next to a pole, so each column's
    compatibility gate is scaled by sup|g u| + sup|g m0|, the size of the
    terms whose roundoff the integral carries, taken in the same pass.
    """
    grid = ref.grid
    g = grid.g_f[:, None]
    rhs = np.empty_like(u)
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
    forward audit carries that O(h^2) gap.  ``what`` names the metric in
    the positivity check."""
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


@dataclass(eq=False)
class _BorderedJacobian:
    """The Jacobian [[-L - lam diag(e^v), k], [w, 0]] of one fiber's
    bordered Einstein system at v.

    ``J @ x`` applies it in O(n) through the bands of L, which is all the
    Jacobian probe reads.  ``solve`` runs only when the fiber takes a
    Newton step: it assembles the dense matrix entry for entry as the
    step has always been taken (-L, then the diagonal, then the border)
    and hands it to LAPACK.  The step is not eliminated against the block
    A = -L - lam diag(e^v): A is singular at the Einstein solution
    (L k = -2k and lam c = 2 give A k = 0 for u = c).

    ``L`` is ``calculus.lap_matrix``'s matrix, of which from n = 1024 on
    only the pages holding its bands are resident; the step's working
    matrix is an ordinary heap array, resident in full, made only when
    Newton computes a step, which no fiber of the benchmark's timed
    workloads does.
    """

    L: np.ndarray           # dense L, also read by the residual
    band: BandedMatrix      # the same L by its bands
    lam_ev: np.ndarray      # lam e^v
    kvec: np.ndarray        # border column, the Moebius kernel direction
    wk: np.ndarray          # border row, the orbit gauge weights

    def __matmul__(self, x):
        y, mu = x[:-1], x[-1]
        return np.concatenate([-(self.band @ y) - self.lam_ev * y + mu * self.kvec,
                               [self.wk @ y]])

    def solve(self, rhs) -> np.ndarray:
        n = self.kvec.size
        diag = np.arange(n)
        work = np.zeros((n + 1, n + 1))
        np.negative(self.L, out=work[:n, :n])
        work[diag, diag] -= self.lam_ev
        work[:n, n] = self.kvec
        work[n, :n] = self.wk
        return np.linalg.solve(work, rhs)


def _ske_single_fiber(L: np.ndarray, band: BandedMatrix, wk: np.ndarray,
                      lam: float, v0: np.ndarray):
    """Bordered Newton for 2 - L v - lam e^v = 0 with the orbit gauge
    <wk, v - v0> = 0; the border column spans the Moebius kernel.

    ``L`` is the dense fiber Laplacian and ``band`` the same matrix by its
    bands; the Jacobian is a ``_BorderedJacobian``.
    """
    n = v0.size
    kvec = 1.0 - 2.0 * np.linspace(0.0, 1.0, n)

    def residual(wv):
        v, mu = wv[:n], wv[n]
        F = 2.0 - L @ v - lam * np.exp(v) + mu * kvec
        gauge = float(wk @ (v - v0))
        return np.concatenate([F, [gauge]])

    def jacobian(wv):
        return _BorderedJacobian(L, band, lam * np.exp(wv[:n]), kvec, wk)

    result = newton_semilinear(residual, jacobian, np.concatenate([v0, [0.0]]))
    return result.x[:n], result


def solve_ske(ref: ReferenceGeometry) -> FiberFamilySolution:
    """Fiberwise Einstein family: Ric(omega_b) = lambda * omega_b.

    Newton (at most 40 steps) runs on the log FS-density of fiber 0, from
    the reference vertical metric on base column 0, with the orbit gauge
    pinned there; its solution fills every column.  There is no
    warm-start chain: a fiber's system depends on its index only through
    the start point, and every warp shape has Q(0) = 0, so fiber 0 starts
    at v = log c, which solves the discrete system (each row of L sums to
    zero and lambda c = 2) up to the roundoff of the dense L @ v.  The
    family is therefore constant along the base; only a gauge profile
    along the base, a Moebius dilation per fiber, would make it vary.

    The Jacobian is applied by bands and assembled densely only for a
    Newton step.  The residual keeps the dense product L @ v: its roundoff
    floor decides whether the start is already converged, and with it the
    outcome of the a = 3, c = 2 solve on 512x64 that the benchmark
    records as the known defect ``einstein_c_ne_1``, so the dense L stays
    until a closed-form Einstein solve deletes it.  From n = 1024 on only
    the pages its bands are written to are resident (``lap_matrix``),
    about one 4 KB page per row: 8.4 MB of 33.6 MB at n = 2048.
    """
    grid = ref.grid
    lam = float(ref.consts.lam)
    c = float(ref.spec.c)
    L = lap_matrix(grid, FIBER)
    band = BandedMatrix(lap_bands(grid, FIBER))
    wk = (grid.simpson_f / (3.0 * grid.n_fiber)) * (1.0 - 2.0 * grid.nodes_f)
    # fiber 0 starts at omega0's vertical density on base column 0, formed
    # from the 1D profiles as ``ref.vertical_rows`` forms each column
    w = ref.warp
    v0, result = _ske_single_fiber(L, band, wk, lam,
                                   np.log(c + w.eps * w.D2P_fs * w.Q[0]))
    del L             # the dense Laplacian, before the recovery

    v = np.repeat(v0[:, None], grid.n_base + 1, axis=1)
    return _family(ref, SKE, np.exp(v, out=v), result.trace[-1],
                   "Einstein fiber metric")


@dataclass(eq=False)
class FiberVerifyReport:
    """Independent audit of a fiber family.

    The solver residual and the volume defect are the family's own
    ``residual_sup`` and ``volume_defect``; the audit adds what the
    solver does not measure.
    """

    forward_residual_sup: float   # independent higher-order audit
    positivity_margin: float
    weight_forward_sup: float | None   # fiberwise curvature of the Einstein
                                       # Hermitian weight; None for spr
    exp_l2_diagnostic: float | None


def verify_fiber_family(ref: ReferenceGeometry,
                        sol: FiberFamilySolution) -> FiberVerifyReport:
    """Residual audit of a fiber family against its defining equation.

    The forward residual is measured with an independent higher-order
    discretization, so it reflects the distance to the continuum solution
    rather than the solver's own fixed point.  The audit runs in row
    blocks: log u is taken on the rows each block's stencils read, and
    every residual is reduced to per-column maxima as it is formed.  A
    fiber potential, Einstein weight residual or exp_l2 diagnostic that is
    not finite raises FanofibError: the later stages would read it.
    """
    grid = ref.grid
    lam = float(ref.consts.lam)
    u, rho = sol.vertical_fs, sol.rho
    if not (math.isfinite(float(rho.min())) and math.isfinite(float(rho.max()))):
        raise FanofibError(f"{sol.kind} fiber potential is not finite")
    n = grid.n_fiber
    g, gp = grid.g_f, grid.gp_f
    weights = _audit_weights(grid.h(FIBER))
    forward = curv_gap = None
    rows = np.empty(n + 1)
    for lo, hi in _row_blocks(0, n + 1, grid.n_base + 1):
        s, e = _audit_halo(lo, hi, n)
        ric_fs = _audit_rows(np.log(u[s:e]), lo, hi, g, gp, weights, s, n)
        np.subtract(2.0, ric_fs, out=ric_fs)
        ric_fs -= lam * (ref.vertical_rows(lo, hi) if sol.kind == SPR else u[lo:hi])
        forward = _col_max(forward, np.abs(ric_fs, out=ric_fs))
        del ric_fs
        if sol.kind == SKE:
            # weight of the Einstein Hermitian metric: phi_L + rho,
            # fiberwise curvature must reproduce the fiber metric
            curv = _audit_rows(rho, lo, hi, g, gp, weights)
            curv += ref.vertical_rows(lo, hi)
            curv -= u[lo:hi]
            curv_gap = _col_max(curv_gap, np.abs(curv, out=curv))
            del curv
            weight = -2.0 * lam * rho[lo:hi]
            np.exp(weight, out=weight)
            weight *= ref.Omega[lo:hi]
            rows[lo:hi] = _simpson_rows(grid, weight)

    weight_forward = exp_l2 = None
    if sol.kind == SKE:
        weight_forward = float(curv_gap.max())
        exp_l2 = float(np.sqrt(TWO_PI**2 * _simpson_of_rows(grid, rows)))
        if not (math.isfinite(weight_forward) and math.isfinite(exp_l2)):
            raise FanofibError(f"Einstein weight audit is not finite: weight "
                               f"residual {weight_forward}, exp_l2 {exp_l2}")
    return FiberVerifyReport(forward_residual_sup=float(forward.max()),
                             positivity_margin=float(u.min()),
                             weight_forward_sup=weight_forward,
                             exp_l2_diagnostic=exp_l2)

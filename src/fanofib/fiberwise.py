"""Fiberwise elliptic solves over the base grid.

Two families of fiber metrics are produced, both in the fixed fiber
class (volume 2*pi*c):

* the prescribed-Ricci family, Ric = lambda * omega0 restricted to the
  fiber, which on curve fibers linearizes to a Poisson problem and is
  unique;
* the fiberwise Einstein family, Ric = lambda * (metric itself), a
  Liouville-type problem whose solutions form a Moebius orbit; the
  orbit coordinate is pinned by a bordered Newton gauge and warm starts
  select a smoothly varying family along the base.

Fiber potentials carry the mean-zero gauge per fiber; the per-fiber
constant never enters wedges against pulled-back base forms, so every
verified identity is gauge-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import (audit_lap, integrate_total, lap, lap_matrix,
                       simpson_columns)
from .errors import PositivityError
from .grids import FIBER
from .model import ReferenceGeometry
from .solvers import newton_semilinear, solve_poisson_1d

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
    newton_iterations: np.ndarray | None = None


def _recover_potential(ref: ReferenceGeometry, u: np.ndarray) -> np.ndarray:
    """Mean-zero fiber potentials with ddbar_fiber(rho) = (u - m0) FS-wise."""
    return solve_poisson_1d(ref.grid, FIBER, u - ref.vertical_fs)


def _volume_defect(ref: ReferenceGeometry, u: np.ndarray) -> float:
    c = float(ref.spec.c)
    vols = simpson_columns(ref.grid, u)
    return float(np.abs(vols - c).max() / c)


def solve_spr(ref: ReferenceGeometry) -> FiberFamilySolution:
    """Prescribed-Ricci family: Ric(omega_b) = lambda * omega0 on each fiber.

    Writes the fiber metric as C(b) e^{v_b} * FS with i ddbar v_b =
    2 FS - lambda omega0 restricted to the fiber (both sides integrate to
    zero by the degeneration identity lambda*c = 2), then fixes C(b) by
    the class volume.
    """
    grid = ref.grid
    lam = float(ref.consts.lam)
    c = float(ref.spec.c)
    w = ref.warp

    # source of the linear fiber problem; the FS parts cancel exactly
    rhs_fs = -lam * w.eps * w.D2P_fs[:, None] * w.Q[None, :]
    v = solve_poisson_1d(grid, FIBER, rhs_fs)

    ev = np.exp(v)
    C = c / simpson_columns(grid, ev)
    u = ev * C[None, :]
    if np.any(u <= 0.0):
        raise PositivityError("prescribed-Ricci fiber metric lost positivity")

    # discrete forward residual of the linear solve
    residual = float(np.abs(lap(grid, v, FIBER) - rhs_fs).max())

    rho = _recover_potential(ref, u)
    return FiberFamilySolution(kind=SPR, rho=rho, vertical_fs=u,
                               residual_sup=residual,
                               volume_defect=_volume_defect(ref, u))


def _ske_single_fiber(L: np.ndarray, wk: np.ndarray, lam: float,
                      v0: np.ndarray, tol: float, max_iter: int,
                      work: np.ndarray):
    """Bordered Newton for 2 - L v - lam e^v = 0 with the orbit gauge
    <wk, v - v0> = 0; the border column spans the Moebius kernel.

    The Jacobian is written into ``work``, an (n+1)^2 array whose last
    diagonal entry is zero, and each caller uses it before the next call.
    """
    n = v0.size
    kvec = 1.0 - 2.0 * np.linspace(0.0, 1.0, n)
    diag = np.arange(n)

    def residual(wv):
        v, mu = wv[:n], wv[n]
        F = 2.0 - L @ v - lam * np.exp(v) + mu * kvec
        gauge = float(wk @ (v - v0))
        return np.concatenate([F, [gauge]])

    def jacobian(wv):
        # the entries of -L - lam diag(e^v), bordered by kvec and wk, with
        # no (n+1)^2 temporary per call
        np.negative(L, out=work[:n, :n])
        work[diag, diag] -= lam * np.exp(wv[:n])
        work[:n, n] = kvec
        work[n, :n] = wk
        return work

    result = newton_semilinear(residual, jacobian,
                               np.concatenate([v0, [0.0]]),
                               tol=tol, max_iter=max_iter)
    return result.x[:n], result


def solve_ske(ref: ReferenceGeometry, tol: float = 1e-11) -> FiberFamilySolution:
    """Fiberwise Einstein family: Ric(omega_b) = lambda * omega_b.

    Newton (at most 40 steps) runs on the log FS-density per fiber.  The
    first fiber starts at the reference vertical metric; each later fiber
    is initialized (and its orbit gauge pinned) at the previous solution,
    selecting a smoothly varying family.

    A fiber's system depends on its index only through the start point:
    L, the gauge weights, lambda and ``tol`` are shared.  A fiber that
    converges in 0 iterations returns its start point unchanged, so the
    next fiber would be handed the identical system; it reuses that
    solution (0 iterations, the same residual) instead of re-running the
    probe and Newton.  A fiber after one that iterated is solved in full.
    """
    grid = ref.grid
    lam = float(ref.consts.lam)
    c = float(ref.spec.c)
    L = lap_matrix(grid, FIBER)
    wk = (grid.simpson_f / (3.0 * grid.n_fiber)) * (1.0 - 2.0 * grid.nodes_f)

    nb = grid.n_base + 1
    v = np.zeros((grid.n_fiber + 1, nb))
    iters = np.zeros(nb, dtype=int)
    residual = 0.0
    vj, result = np.log(ref.vertical_fs[:, 0]), None
    work = np.zeros((grid.n_fiber + 2, grid.n_fiber + 2))
    for j in range(nb):
        # a warm start at a fixed point reproduces it: reuse the solution
        if result is None or result.iterations:
            vj, result = _ske_single_fiber(L, wk, lam, vj, tol, 40, work)
            residual = max(residual, result.trace[-1])
        v[:, j] = vj
        iters[j] = result.iterations

    u = np.exp(v)
    # the discrete Einstein solve preserves the class volume only to
    # truncation; enforce it exactly and let the forward audit carry the
    # O(h^2) discrepancy
    u *= (c / simpson_columns(grid, u))[None, :]
    rho = _recover_potential(ref, u)
    return FiberFamilySolution(kind=SKE, rho=rho, vertical_fs=u,
                               residual_sup=residual,
                               volume_defect=_volume_defect(ref, u),
                               newton_iterations=iters)


@dataclass(eq=False)
class FiberVerifyReport:
    """Independent audit of a fiber family.

    The solver residual and the volume defect are the family's own
    ``residual_sup`` and ``volume_defect``; the audit adds what the
    solver does not measure.
    """

    kind: str
    forward_residual_sup: float   # independent higher-order audit
    positivity_margin: float
    weight_forward_sup: float | None = None   # fiberwise curvature of the
                                              # Einstein Hermitian weight
    exp_l2_diagnostic: float | None = None


def verify_fiber_family(ref: ReferenceGeometry,
                        sol: FiberFamilySolution) -> FiberVerifyReport:
    """Residual audit of a fiber family against its defining equation.

    The forward residual is measured with an independent higher-order
    discretization, so it reflects the distance to the continuum solution
    rather than the solver's own fixed point.
    """
    grid = ref.grid
    lam = float(ref.consts.lam)
    u = sol.vertical_fs
    weight_forward = exp_l2 = None
    if sol.kind == SPR:
        target = lam * ref.vertical_fs
    else:
        target = lam * u
        # weight of the Einstein Hermitian metric: phi_L + rho, fiberwise
        # curvature must reproduce the fiber metric
        curv = ref.vertical_fs + audit_lap(grid, sol.rho, FIBER)
        weight_forward = float(np.abs(curv - u).max())
        exp_l2 = float(np.sqrt(integrate_total(
            grid, np.exp(-2.0 * lam * sol.rho) * ref.Omega)))
    ric_fs = 2.0 - audit_lap(grid, np.log(u), FIBER)
    forward = float(np.abs(ric_fs - target).max())

    return FiberVerifyReport(kind=sol.kind, forward_residual_sup=forward,
                             positivity_margin=float(u.min()),
                             weight_forward_sup=weight_forward,
                             exp_l2_diagnostic=exp_l2)

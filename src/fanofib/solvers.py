"""Elliptic solvers on a single P^1 factor.

The linear problem (x(1-x) d_x)^2 u = r is degenerate at the endpoints;
in divided form L u = r/g it carries natural Robin rows u'(0) = r_fs(0),
-u'(1) = r_fs(1) and a one-dimensional kernel of constants.  Both the
Poisson solve and the semilinear Newton steps therefore go through dense
factorizations of small bordered systems, which keeps every run
bit-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import TWO_PI, fs_ratio, lap_matrix
from .errors import ContractViolation, NonConvergence, SolvabilityError
from .grids import Grid, values_of


def poisson_system(grid: Grid, axis_name: str) -> np.ndarray:
    """Bordered matrix [[L, 1], [w, 0]] enforcing the mean-zero gauge.

    The border column absorbs the (one-dimensional) solvability defect,
    the Simpson-weight row pins int u dx = 0.
    """
    n = grid.n(axis_name)
    A = np.zeros((n + 2, n + 2))
    A[:n + 1, :n + 1] = lap_matrix(grid, axis_name)
    A[:n + 1, n + 1] = 1.0
    A[n + 1, :n + 1] = grid.simpson(axis_name) / (3.0 * n)
    return A


def solve_poisson_1d(grid: Grid, axis_name: str, rhs, rhs_fs=None,
                     tol_factor: float = 1e-8):
    """Solve (x(1-x) d_x)^2 u = rhs with mean-zero gauge, int u dx = 0.

    ``rhs`` holds the log-frame coefficient of the source form; columns of
    a 2D argument are independent problems.  ``rhs_fs`` may supply the
    FS-relative density of the source directly; otherwise it is recovered
    by a removable-singularity fill.  The compatibility integral of every
    column must vanish to ``tol_factor * sup|rhs|``.
    """
    r = values_of(rhs)
    squeeze = r.ndim == 1
    if squeeze:
        r = r[:, None]
    if rhs_fs is None:
        rfs = fs_ratio(grid, r, axes=(axis_name,))
    else:
        rfs = values_of(rhs_fs)
        if rfs.ndim == 1:
            rfs = rfs[:, None]
    if not np.all(np.isfinite(r)):
        raise ValueError("solve_poisson_1d: non-finite right-hand side")

    n = grid.n(axis_name)
    weights = grid.simpson(axis_name) / (3.0 * n)
    defects = TWO_PI * np.einsum("i,ij->j", weights, rfs)
    scale = np.abs(r).max(axis=0)
    bad = np.abs(defects) > tol_factor * np.maximum(scale, 1e-30)
    if np.any(bad):
        j = int(np.argmax(np.abs(defects)))
        raise SolvabilityError(
            f"incompatible source: defect integral {defects[j]:.3e} "
            f"exceeds {tol_factor:.1e} * ||rhs||", float(defects[j]))

    A = poisson_system(grid, axis_name)
    B = np.zeros((n + 2, rfs.shape[1]))
    B[:n + 1] = rfs
    sol = np.linalg.solve(A, B)
    u = sol[:n + 1]
    return u[:, 0] if squeeze else u


@dataclass(eq=False)
class NewtonResult:
    x: np.ndarray
    trace: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


def _probe_direction(n: int) -> np.ndarray:
    # smooth, deterministic, non-symmetric
    t = (np.arange(n) + 0.5) / n
    return np.sin(np.pi * t) + 0.25 * np.cos(3.0 * np.pi * t)


def probe_jacobian(residual_fn, jacobian_fn, x0: np.ndarray,
                   rel_tol: float = 1e-4) -> None:
    """Directional finite-difference consistency check at the start point."""
    x0 = np.asarray(x0, dtype=float)
    d = _probe_direction(x0.size)
    eps = 1e-6 * (1.0 + float(np.abs(x0).max(initial=0.0)))
    fd = (residual_fn(x0 + eps * d) - residual_fn(x0 - eps * d)) / (2.0 * eps)
    jd = jacobian_fn(x0) @ d
    err = float(np.abs(fd - jd).max())
    scale = float(np.abs(jd).max() + np.abs(fd).max()) + 1e-12
    if err > rel_tol * scale:
        raise ContractViolation(
            f"Jacobian probe failed: |FD - J d| = {err:.3e} vs scale {scale:.3e}")


def newton_semilinear(residual_fn, jacobian_fn, init, tol: float = 1e-10,
                      max_iter: int = 40, probe: bool = True) -> NewtonResult:
    """Damped Newton iteration with an optional Jacobian consistency probe.

    Returns once the sup-norm of the residual drops below ``tol``; raises
    NonConvergence (with the trace attached) on stagnation or iteration
    exhaustion.
    """
    x = np.array(values_of(init), dtype=float)
    if probe:
        probe_jacobian(residual_fn, jacobian_fn, x)
    res = residual_fn(x)
    norm = float(np.abs(res).max())
    trace = [norm]
    for it in range(max_iter):
        if norm <= tol:
            return NewtonResult(x, trace, it, True)
        J = jacobian_fn(x)
        try:
            step = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"singular Jacobian at iteration {it}", trace) from exc
        t = 1.0
        for _ in range(30):
            x_try = x + t * step
            res_try = residual_fn(x_try)
            norm_try = float(np.abs(res_try).max())
            if norm_try <= (1.0 - 1e-4 * t) * norm:
                break
            t *= 0.5
        else:
            raise NonConvergence(f"line search stalled at iteration {it}", trace)
        x, res, norm = x_try, res_try, norm_try
        trace.append(norm)
    if norm <= tol:
        return NewtonResult(x, trace, max_iter, True)
    raise NonConvergence(f"no convergence in {max_iter} iterations "
                         f"(last residual {norm:.3e})", trace)

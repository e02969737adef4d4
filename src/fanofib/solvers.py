"""Elliptic solvers on a single P^1 factor.

The linear problem (x(1-x) d_x)^2 u = r is degenerate at the endpoints;
in divided form L u = r/g it carries natural Robin rows u'(0) = r_fs(0),
-u'(1) = r_fs(1) and a one-dimensional kernel of constants.  L has five
diagonals (``calculus.lap_bands``): its interior rows are tridiagonal and
its two endpoint rows reach two columns inward.  The Poisson solve and
the Newton steps with a ``BandedMatrix`` Jacobian go through one O(n)
elimination on those bands: the two outlying end-row entries are removed
against rows 1 and n-1, then a Thomas sweep runs down the remaining
tridiagonal system, vectorised over right-hand side columns.  Each
column sees the same IEEE operations in the same order whatever is
stacked beside it, so every run is bit-deterministic and a stacked solve
equals the single ones exactly.  Dense Jacobians are solved by LAPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import TWO_PI, _row_blocks, lap_bands
from .errors import ContractViolation, NonConvergence, SolvabilityError
from .grids import Grid


@dataclass(eq=False)
class BandedMatrix:
    """A square matrix stored by its five central diagonals.

    ``bands[2 + k, i]`` is the entry of row i in column i + k, as in
    ``calculus.lap_bands``.  The outer diagonals (k = +/-2) may be nonzero
    only in the first and the last row, the shape of L and of every
    matrix built from it by changing the main diagonal.
    """

    bands: np.ndarray

    def __post_init__(self):
        b = self.bands
        if b.ndim != 2 or b.shape[0] != 5 or b.shape[1] < 3:
            raise ValueError("BandedMatrix needs bands of shape (5, n) with n >= 3")
        if b[4, 1:].any() or b[0, :-1].any() or b[1, 0] or b[3, -1]:
            raise ValueError("BandedMatrix: entries outside the supported pattern")

    def __matmul__(self, v):
        v = np.asarray(v, dtype=float)
        b = self.bands
        out = b[2] * v
        out[1:] += b[1, 1:] * v[:-1]
        out[:-1] += b[3, :-1] * v[1:]
        out[0] += b[4, 0] * v[2]
        out[-1] += b[0, -1] * v[-3]
        return out

    def solve(self, rhs) -> np.ndarray:
        """Solve A x = rhs for a vector or for every column of a matrix.

        Raises ``np.linalg.LinAlgError`` on a zero or non-finite pivot.
        The elimination does not pivot; it is stable for the diagonally
        dominant systems built from L.
        """
        b = self.bands
        n = b.shape[1] - 1
        sub, diag, sup = (row.tolist() for row in b[1:4])
        # remove the +2 entry of row 0 against row 1 and the -2 entry of
        # row n against row n-1; rhs rows follow the same row operations
        if (b[4, 0] and not sup[1]) or (b[0, n] and not sub[n - 1]):
            raise np.linalg.LinAlgError("zero pivot for an end-row entry")
        f0 = float(b[4, 0]) / sup[1] if b[4, 0] else 0.0
        fn = float(b[0, n]) / sub[n - 1] if b[0, n] else 0.0
        diag[0] -= f0 * sub[1]
        sup[0] -= f0 * diag[1]
        sub[n] -= fn * diag[n - 1]
        diag[n] -= fn * sup[n - 1]
        r = np.asarray(rhs, dtype=float)
        # one right-hand side runs on Python floats, where numpy's per-call
        # cost would dominate; several run on the rows of a copy.  Both
        # evaluate the same IEEE operations in the same order.
        y = r.tolist() if r.ndim == 1 else r.copy()
        y[0] = y[0] - f0 * y[1]
        y[n] = y[n] - fn * y[n - 1]
        # Thomas sweep: forward elimination, then back substitution
        ratio = [0.0] * (n + 1)
        pivot = diag[0]
        for i in range(n + 1):
            if i:
                pivot = diag[i] - sub[i] * ratio[i - 1]
                y[i] = y[i] - sub[i] * y[i - 1]
            if pivot == 0.0 or not math.isfinite(pivot):
                raise np.linalg.LinAlgError(f"zero or non-finite pivot in row {i}")
            ratio[i] = sup[i] / pivot
            y[i] = y[i] / pivot
        for i in range(n - 1, -1, -1):
            y[i] = y[i] - ratio[i] * y[i + 1]
        return np.asarray(y)


def poisson_system(grid: Grid, axis_name: str) -> BandedMatrix:
    """Regular banded stand-in for the bordered matrix [[L, 1], [w, 0]].

    L 1 = 0, so A = L + delta e0 e0^T is regular and A 1 = delta e0; the
    shift delta = L[0, 0] keeps A diagonally dominant.  One solve
    A [a b] = [r 1] yields the border multiplier mu = a0 / b0 and the
    solution a - mu b up to a constant, which the Simpson-weight row
    w of the bordered system then fixes (int u dx = 0).
    """
    bands = lap_bands(grid, axis_name)
    bands[2, 0] *= 2.0
    return BandedMatrix(bands)


def solve_poisson_1d(grid: Grid, axis_name: str, rhs_fs,
                     tol_factor: float = 1e-8):
    """Solve (x(1-x) d_x)^2 u = x(1-x) rhs_fs with mean-zero gauge,
    int u dx = 0.

    ``rhs_fs`` holds the FS-relative density of the source form; columns
    of a 2D argument are independent problems.  The compatibility integral
    of every column must vanish to ``tol_factor * sup|rhs|``, with
    rhs = x(1-x) rhs_fs the log-frame coefficient of the source.  The
    result solves the bordered system [[L, 1], [w, 0]] [u, mu] =
    [rhs_fs, 0]: the border multiplier mu absorbs the O(h^2) discrete
    incompatibility.
    """
    rfs = np.asarray(rhs_fs, dtype=float)
    squeeze = rfs.ndim == 1
    if squeeze:
        rfs = rfs[:, None]
    r = rfs * grid.g(axis_name)[:, None]
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

    m = rfs.shape[1]
    ab = poisson_system(grid, axis_name).solve(
        np.column_stack([rfs, np.ones(n + 1)]))
    a, b = ab[:, :m], ab[:, m:]
    v = a - (a[0] / b[0]) * b          # border multiplier mu = a0 / b0
    # Simpson gauge: a running row sum in row blocks, so each column adds
    # its weighted rows in order and the block's products stay in cache
    total = None
    for lo, hi in _row_blocks(0, n + 1, m):
        part = weights[lo:hi, None] * v[lo:hi]
        if total is not None:
            part[0] += total
        np.add.accumulate(part, axis=0, out=part)
        total = part[-1]
    u = v - total
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


def probe_jacobian(residual_fn, jacobian_fn, x0: np.ndarray) -> None:
    """Directional finite-difference consistency check at the start point,
    to a relative tolerance of 1e-4."""
    x0 = np.asarray(x0, dtype=float)
    d = _probe_direction(x0.size)
    eps = 1e-6 * (1.0 + float(np.abs(x0).max(initial=0.0)))
    fd = (residual_fn(x0 + eps * d) - residual_fn(x0 - eps * d)) / (2.0 * eps)
    jd = jacobian_fn(x0) @ d
    err = float(np.abs(fd - jd).max())
    scale = float(np.abs(jd).max() + np.abs(fd).max()) + 1e-12
    if err > 1e-4 * scale:
        raise ContractViolation(
            f"Jacobian probe failed: |FD - J d| = {err:.3e} vs scale {scale:.3e}")


def newton_semilinear(residual_fn, jacobian_fn, init, tol: float = 1e-10,
                      max_iter: int = 40, probe: bool = True) -> NewtonResult:
    """Damped Newton iteration with an optional Jacobian consistency probe.

    ``jacobian_fn`` returns a ``BandedMatrix`` or a dense array-like.

    Returns once the sup-norm of the residual drops below ``tol``; raises
    NonConvergence (with the trace attached) on stagnation or iteration
    exhaustion.
    """
    x = np.array(init, dtype=float)
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
            step = (J.solve(-res) if isinstance(J, BandedMatrix)
                    else np.linalg.solve(J, -res))
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

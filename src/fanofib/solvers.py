"""Elliptic solvers on a single P^1 factor.

The linear problem (x(1-x) d_x)^2 u = r is degenerate at the endpoints;
in divided form L u = r/g it carries natural Robin rows u'(0) = r_fs(0),
-u'(1) = r_fs(1) and a one-dimensional kernel of constants.  L has five
diagonals (``calculus.lap_bands``): its interior rows are tridiagonal and
its two endpoint rows reach two columns inward.

The Poisson solve eliminates nothing.  g is quadratic, so every interior
row of L is a difference of two fluxes a_{i+1/2} (u_{i+1} - u_i) / h^2
(``poisson_system``), and the bordered system [[L, 1], [w, 0]] has a
closed form: one cumulative sum of the source gives the fluxes, a 2x2
system shared by all columns fixes the first flux and the border
multiplier, and a second cumulative sum gives the solution, written into
the source array: the solve holds one row block beside it.  The sums
run in a fixed order, so every run is bit-deterministic.

Newton takes a Jacobian that is either a dense array, solved by LAPACK,
or any operator with ``@`` and ``solve``.  The base Monge-Ampere
Jacobian is a ``BandedMatrix``, whose step is one O(n) elimination on
the bands.  The fiberwise Einstein solve takes no step (``max_iter=0``):
Newton probes its banded Jacobian against the residual, which applies L
by row slabs (``calculus.lap_slabs``), and tests the start's residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import TWO_PI, _col_max, _row_blocks, lap_bands
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
        """Solve A x = rhs for one right-hand side vector.

        The two outlying end-row entries are removed against rows 1 and
        n-1, then a Thomas sweep runs down the remaining tridiagonal
        system on Python floats, where numpy's per-call cost would
        dominate.  Raises ``np.linalg.LinAlgError`` on a zero or
        non-finite pivot.  The elimination does not pivot; it is stable
        for the diagonally dominant systems built from L.
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
        if r.shape != (n + 1,):
            raise ValueError(f"BandedMatrix.solve needs one rhs of length {n + 1}")
        y = r.tolist()
        y[0] = y[0] - f0 * y[1]
        y[n] = y[n] - fn * y[n - 1]
        # Thomas sweep: forward elimination, then back substitution.  Row 0
        # has no subdiagonal entry; a +0 there leaves its pivot and its
        # right side exactly as they are, whatever their sign
        sub[0] = 0.0
        ratios, zs = [], []
        ratio = z = 0.0
        inf = math.inf
        for a, d, c, f in zip(sub, diag, sup, y):
            pivot = d - a * ratio
            if not (-inf < pivot < inf and pivot != 0.0):      # NaN fails too
                raise np.linalg.LinAlgError(
                    f"zero or non-finite pivot in row {len(ratios)}")
            ratio = c / pivot
            z = (f - a * z) / pivot
            ratios.append(ratio)
            zs.append(z)
        x = zs.pop()
        out = [x]
        for ratio, z in zip(reversed(ratios[:-1]), reversed(zs)):
            x = z - ratio * x
            out.append(x)
        out.reverse()
        return np.asarray(out)


@dataclass(frozen=True, eq=False)
class PoissonSystem:
    """Per-grid constants of the flux-form solve (``poisson_system``).

    ``conductance[i]`` = a_{i+1/2} / h^2; a unit border multiplier adds
    ``mu_flux[i]`` = -i to the flux F_i; ``end_solve``, the inverse of the
    end rows' 2x2 system times their right-hand side weights, maps a
    column's (r_0, r_1, r_{n-1}, r_n, r_1 + ... + r_{n-1}) to (F_0, mu).
    """

    conductance: np.ndarray
    mu_flux: np.ndarray
    end_solve: np.ndarray


def poisson_system(grid: Grid, axis_name: str) -> PoissonSystem:
    """The constants of the bordered system [[L, 1], [w, 0]] on one axis.

    g = x(1-x) is quadratic, so every interior row of L = g d2 + g' d1 is
    in flux form, (a_{i+1/2} (u_{i+1} - u_i) - a_{i-1/2} (u_i - u_{i-1}))
    / h^2, with a_{i+1/2} = g_i + g'_i h/2 = g_{i+1} - g'_{i+1} h/2 =
    g(x_{i+1/2}) + h^2/4 > 0.  With the flux F_i = a_{i+1/2} (u_{i+1} -
    u_i) / h^2, row i of L u + mu = r reads F_i - F_{i-1} = r_i - mu, so
    F_i = F_0 + r_1 + ... + r_i - i mu.
    The two one-sided end rows of ``lap_bands`` touch only F_0, F_1 and
    F_{n-2}, F_{n-1}; they are one 2x2 system for (F_0, mu), the same for
    every column.
    """
    n = grid.n(axis_name)
    h = grid.h(axis_name)
    bands = lap_bands(grid, axis_name)
    mid = (np.arange(n) + 0.5) * h
    cond = (mid * (1.0 - mid) + 0.25 * h**2) / h**2
    # L 1 = 0, so each end row is a sum over the differences
    # d_i = u_{i+1} - u_i = F_i / cond_i: with c_k the entry of row 0 in
    # column k, row 0 = (c_1 + c_2) d_0 + c_2 d_1, and with e_k the entry of
    # row n in column k, row n = -(e_{n-2} + e_{n-1}) d_{n-1} - e_{n-2} d_{n-2}
    c2 = bands[4, 0]
    p0, p1 = (bands[3, 0] + c2) / cond[0], c2 / cond[1]
    e2 = bands[0, n]
    q1, q2 = -(bands[1, n] + e2) / cond[n - 1], -e2 / cond[n - 2]
    system = np.array([[p0 + p1, 1.0 - p1],
                       [q1 + q2, 1.0 - (n - 1) * q1 - (n - 2) * q2]])
    rhs_weights = np.array([[1.0, -p1, 0.0, 0.0, 0.0],
                            [0.0, 0.0, q2, 1.0, -(q1 + q2)]])
    return PoissonSystem(cond, -np.arange(n, dtype=float),
                         np.linalg.inv(system) @ rhs_weights)


# each column's compatibility integral must vanish to this much of its scale
_COMPATIBILITY_TOL = 1e-8


def _running_sum(part: np.ndarray) -> None:
    """``np.add.accumulate(part, axis=0, out=part)``, bit for bit.

    numpy accumulates along axis 0 of a C-ordered block one strided column
    at a time, so a block wider than tall is summed one row at a time
    instead: row i + row i-1 is the accumulate's row i-1 + row i, and IEEE
    addition commutes.  A block taller than wide keeps the accumulate,
    which is faster there.
    """
    rows, cols = part.shape
    if rows < cols:
        for i in range(1, rows):
            part[i] += part[i - 1]
    else:
        np.add.accumulate(part, axis=0, out=part)


def solve_poisson_1d(grid: Grid, axis_name: str, rhs_fs, *,
                     scale: np.ndarray | None = None):
    """Solve (x(1-x) d_x)^2 u = x(1-x) rhs_fs with mean-zero gauge,
    int u dx = 0.

    ``rhs_fs`` holds the FS-relative density of the source form, one
    independent problem per column of a 2D array of shape (n+1, columns);
    any other shape raises ValueError.  A single column, shape
    (n+1, 1), is solved correctly, but its Simpson gauge (one einsum) may
    add in another order than in a stack, so its last bits may differ.
    The compatibility integral of every column must vanish to
    ``_COMPATIBILITY_TOL * scale``.  The scale defaults to sup|rhs|, with
    rhs = x(1-x) rhs_fs the log-frame coefficient of the source; a caller
    whose source is a difference of larger terms passes their size per
    column instead, since the integral carries the roundoff of those
    terms; it must be non-finite in every column whose source is.  The
    result solves the bordered system [[L, 1], [w, 0]] [u, mu] =
    [rhs_fs, 0]: the border multiplier mu absorbs the O(h^2) discrete
    incompatibility.

    The solution is written into the source, as a float array, and that
    array is returned: the solve holds nothing beside it but a few rows
    and one row block.  A caller that needs its source again passes a copy.

    In flux form (``poisson_system``) the solve is closed: one running sum
    of the source gives the fluxes F_i - F_0 + i mu, the end rows give
    (F_0, mu), a second running sum of F_i / conductance_i gives u up to a
    constant, and the Simpson weights fix the constant.  Both sums run
    in row blocks, carried from block to block in row order; a block wider
    than tall is summed one row at a time (``_running_sum``), bit for bit
    the accumulate that a taller block takes.
    """
    # the source, then the solution, as (n+1, columns); the source is read
    # only before the first running sum overwrites it
    work = np.asarray(rhs_fs, dtype=float)
    n = grid.n(axis_name)
    if work.ndim != 2 or work.shape[0] != n + 1:
        raise ValueError(f"solve_poisson_1d: source of shape {work.shape}, "
                         f"expected ({n + 1}, columns)")
    width = work.shape[1]
    if scale is None:
        # sup|rhs| per column, one row block at a time; a non-finite rhs
        # makes its column's max non-finite
        g = grid.g(axis_name)
        for lo, hi in _row_blocks(0, n + 1, width):
            scale = _col_max(scale, np.abs(work[lo:hi] * g[lo:hi, None]))
    if not np.all(np.isfinite(scale)):
        raise ValueError("solve_poisson_1d: non-finite right-hand side")

    weights = grid.simpson(axis_name) / (3.0 * n)
    defects = TWO_PI * np.einsum("i,ij->j", weights, work)
    size = np.broadcast_to(np.maximum(scale, 1e-30), defects.shape)
    bad = np.abs(defects) > _COMPATIBILITY_TOL * size
    if np.any(bad):
        # the failing column whose defect is largest against its own scale
        j = int(np.argmax(np.where(bad, np.abs(defects) / size, -np.inf)))
        raise SolvabilityError(
            f"incompatible source: column {j} defect integral {defects[j]:.3e} "
            f"exceeds {_COMPATIBILITY_TOL:.1e} * scale {size[j]:.3e}",
            float(defects[j]))

    system = poisson_system(grid, axis_name)
    # the running sums r_1 + ... + r_i, in place in rows 1 .. n-1; the end
    # rows keep the source rows the end system reads, r_{n-1} aside
    r_last = work[n - 1].copy()
    total = None
    for lo, hi in _row_blocks(1, n, width):
        part = work[lo:hi]
        if total is not None:
            part[0] += total
        _running_sum(part)
        total = part[-1]
    ends = (work[0], work[1], r_last, work[n], work[n - 1])
    f0, mu = sum(k[:, None] * e for k, e in zip(system.end_solve.T, ends))
    # row i + 1 takes the running sum up to r_i, so that row i + 1 of the
    # solution forms where its flux F_i is; bottom block first, so that no
    # row is overwritten before it moves
    for lo, hi in reversed(list(_row_blocks(1, n, width))):
        work[lo + 1:hi + 1] = work[lo:hi]
    work[:2] = 0.0
    # in row blocks, from u_0 = 0: the fluxes, the differences u_{i+1} - u_i
    # and their running sum, carried from block to block in row order
    total = None
    for lo, hi in _row_blocks(0, n, width):
        part = work[lo + 1:hi + 1]
        part += f0
        part += np.multiply.outer(system.mu_flux[lo:hi], mu)
        part /= system.conductance[lo:hi, None]
        if total is not None:
            part[0] += total
        _running_sum(part)
        total = part[-1]
    work -= np.einsum("i,ij->j", weights, work)        # Simpson gauge
    return work


# the residual sup-norm at which the fiber and base Newton solves stop
NEWTON_TOL = 1e-11


@dataclass(eq=False)
class NewtonResult:
    x: np.ndarray
    trace: list
    iterations: int


def _probe_direction(n: int) -> np.ndarray:
    # smooth, deterministic, non-symmetric
    t = (np.arange(n) + 0.5) / n
    return np.sin(np.pi * t) + 0.25 * np.cos(3.0 * np.pi * t)


def probe_jacobian(residual_fn, jacobian_fn, x0: np.ndarray) -> None:
    """Directional finite-difference consistency check at the start point,
    to a relative tolerance of 1e-4; a NaN fails it."""
    x0 = np.asarray(x0, dtype=float)
    d = _probe_direction(x0.size)
    eps = 1e-6 * (1.0 + float(np.abs(x0).max(initial=0.0)))
    fd = (residual_fn(x0 + eps * d) - residual_fn(x0 - eps * d)) / (2.0 * eps)
    jd = jacobian_fn(x0) @ d
    err = float(np.abs(fd - jd).max())
    scale = float(np.abs(jd).max() + np.abs(fd).max()) + 1e-12
    if not err <= 1e-4 * scale:
        raise ContractViolation(
            f"Jacobian probe failed: |FD - J d| = {err:.3e} vs scale {scale:.3e}")


def newton_semilinear(residual_fn, jacobian_fn, init, max_iter: int = 40,
                      probe: bool = True) -> NewtonResult:
    """Newton iteration with an optional Jacobian consistency probe.

    ``jacobian_fn`` returns a dense array, which LAPACK solves, or any
    operator with ``@`` (read by the probe) and ``solve(rhs)`` (one step),
    such as a ``BandedMatrix``.

    Returns once the sup-norm of the residual is at most ``NEWTON_TOL``,
    the one tolerance of every Newton solve, tested before each of at most
    ``max_iter`` steps and after the last; raises NonConvergence (with the
    trace attached) on a singular Jacobian or iteration exhaustion.  Every
    step is a full one: the base Monge-Ampere solve, the one caller that
    steps, converges from every start its callers pass.
    """
    x = np.array(init, dtype=float)
    if probe:
        probe_jacobian(residual_fn, jacobian_fn, x)
    res = residual_fn(x)
    norm = float(np.abs(res).max())
    trace = [norm]
    for it in range(max_iter + 1):
        if norm <= NEWTON_TOL:
            return NewtonResult(x, trace, it)
        if it == max_iter:
            raise NonConvergence(f"no convergence in {max_iter} iterations "
                                 f"(last residual {norm:.3e})", trace)
        J = jacobian_fn(x)
        try:
            step = (J.solve(-res) if hasattr(J, "solve")
                    else np.linalg.solve(J, -res))
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"singular Jacobian at iteration {it}", trace) from exc
        x = x + step
        res = residual_fn(x)
        norm = float(np.abs(res).max())
        trace.append(norm)

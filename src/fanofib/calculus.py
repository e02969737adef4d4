"""Compactified-coordinate differential calculus and quadrature.

The invariant complex Hessian is computed through the degenerate
derivative D = x(1-x) d/dx per axis: for a torus-invariant potential
``psi`` the coefficient of i ddbar(psi) in the log frame is D_j D_k psi.
A (1,1)-form is the array of its log-frame coefficients [ff, bb, fb]:
form algebra is numpy arithmetic, and ``np.abs(M).max()`` keeps a NaN.
The divided form L(psi) = D^2(psi)/g = g psi'' + g' psi' stays regular
at the endpoints and is used whenever a Fubini-Study-relative density
is wanted without a removable-singularity fill.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ModelRegularityError
from .grids import BASE, FIBER, Grid

TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# finite differences, in row blocks
# ---------------------------------------------------------------------------
#
# Every stencil has one implementation, a private kernel that returns the
# rows [lo, hi) of its result along axis 0.  The public operators are loops
# of a kernel over row blocks; a stage that reduces its result without
# keeping it calls the kernel itself, block by block.  Along the base axis
# of a 2D field a kernel runs on the transposed view of a row block.  Each
# element sees the IEEE operations of the whole-field expression in the
# same order, so the blocking changes no bit; only the temporaries shrink
# to one block.  The interior rows multiply by 1/(2h) and 1/h^2 where the
# whole-field stencils divide by 2h and h^2: h = 1/n with n = 16 * 2^k
# (``grids._validate_resolution``), so both reciprocals are exact powers
# of two and each product has the quotient's bits.  The solvers'
# three-point L and the five-point audit share the halo rule (``_halo``),
# L's combination (``_l_rows``) and the blocking (``_along``).

# A row block holds _BLOCK_ELEMS // width rows, and at least one.  That one
# rule sizes every block, on every grid: one float64 temporary of 2^14
# elements is 128 KB, so the eight or so that a stage holds at once fit in
# a 2 MB L2.  A wide field gets few rows per block and a narrow one many.
_BLOCK_ELEMS = 1 << 14


def _row_blocks(start: int, stop: int, width: int):
    """Consecutive [lo, hi) row ranges covering [start, stop)."""
    step = max(1, _BLOCK_ELEMS // max(width, 1))
    return ((lo, min(lo + step, stop)) for lo in range(start, stop, step))


def _halo(lo: int, hi: int, n: int, reach: int) -> tuple[int, int]:
    """The rows [s, e) that rows [lo, hi) of a stencil family of ``reach``
    read along axis 0 of a field with rows 0..n: ``reach`` rows beyond the
    block, and at an end the reach + 3 rows of its one-sided stencils.  A
    stage that forms the field itself forms these rows for each block."""
    return (max(0, min(lo - reach, n - reach - 2)),
            min(n + 1, max(hi + reach, reach + 3)))


_LAP_REACH = 1      # the rows ``_d1_rows`` and ``_d2_rows`` read beyond a row


def _d1_rows(v: np.ndarray, lo: int, hi: int, h: float, start: int = 0,
             n: int | None = None) -> np.ndarray:
    """Rows [lo, hi) of the second-order first derivative along axis 0,
    one-sided at the two end rows, of a field with rows 0..n of which
    ``v`` holds rows ``start`` on (all of them by default)."""
    if n is None:
        n = v.shape[0] - 1
    out = np.empty_like(v[:hi - lo])
    i, j = max(lo, 1), min(hi, n)        # the interior rows of the block
    if i < j:
        mid = out[i - lo:j - lo]
        np.subtract(v[i + 1 - start:j + 1 - start], v[i - 1 - start:j - 1 - start],
                    out=mid)
        mid *= 1.0 / (2.0 * h)
    if lo == 0:
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    if hi == n + 1:
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out


def _d2_rows(v: np.ndarray, lo: int, hi: int, h: float, start: int = 0,
             n: int | None = None) -> np.ndarray:
    """Rows [lo, hi) of the second-order second derivative along axis 0,
    one-sided at the two end rows, of a field with rows 0..n of which
    ``v`` holds rows ``start`` on (all of them by default)."""
    if n is None:
        n = v.shape[0] - 1
    out = np.empty_like(v[:hi - lo])
    i, j = max(lo, 1), min(hi, n)        # the interior rows of the block
    if i < j:
        mid = out[i - lo:j - lo]
        i, j = i - start, j - start      # the same rows of v
        np.multiply(2.0, v[i:j], out=mid)
        np.subtract(v[i + 1:j + 1], mid, out=mid)
        mid += v[i - 1:j - 1]
        mid *= 1.0 / h**2
    if lo == 0:
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    if hi == n + 1:
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    return out


def _l_rows(d2: np.ndarray, d1: np.ndarray, g: np.ndarray, gp: np.ndarray,
            lo: int, hi: int) -> np.ndarray:
    """``g * d2 + gp * d1`` on rows [lo, hi), in place in ``d2`` and ``d1``:
    L = g d2 + g' d1 from the derivative rows of either stencil family."""
    shape = (-1,) + (1,) * (d2.ndim - 1)     # a profile entry scales a row
    d2 *= g[lo:hi].reshape(shape)
    d1 *= gp[lo:hi].reshape(shape)
    d2 += d1
    return d2


def _lap_rows(v: np.ndarray, lo: int, hi: int, g: np.ndarray, gp: np.ndarray,
              h: float, start: int = 0, n: int | None = None) -> np.ndarray:
    """Rows [lo, hi) of ``g * diff2 + gp * diff1`` along axis 0, of a field
    with rows 0..n of which ``v`` holds rows ``start`` on."""
    return _l_rows(_d2_rows(v, lo, hi, h, start, n), _d1_rows(v, lo, hi, h, start, n),
                   g, gp, lo, hi)


def _lap_fiber(grid: Grid, v: np.ndarray, lo: int, hi: int,
               start: int = 0) -> np.ndarray:
    """Rows [lo, hi) of the fiber-axis L of a 2D field of which ``v``
    holds rows ``start`` on."""
    return _lap_rows(v, lo, hi, grid.g_f, grid.gp_f, grid.h(FIBER), start,
                     grid.n_fiber)


def _lap_base(grid: Grid, v: np.ndarray, lo: int, hi: int,
              start: int = 0) -> np.ndarray:
    """Rows [lo, hi) of the base-axis L of a 2D field of which ``v`` holds
    rows ``start`` on."""
    t = v[lo - start:hi - start].T
    return _lap_rows(t, 0, t.shape[0], grid.g_b, grid.gp_b, grid.h(BASE)).T


def _dfdb(grid: Grid, v: np.ndarray, lo: int, hi: int,
          start: int = 0) -> np.ndarray:
    """Rows [lo, hi) of D_f D_b v, the mixed log-frame coefficient of
    i ddbar v, for a field of which ``v`` holds rows ``start`` on; D_b
    runs on the rows that D_f reads."""
    n = grid.n_fiber
    s, e = _halo(lo, hi, n, _LAP_REACH)
    t = v[s - start:e - start].T
    db = _d1_rows(t, 0, t.shape[0], grid.h(BASE))
    db *= grid.g_b[:, None]
    out = _d1_rows(db.T, lo, hi, grid.h(FIBER), s, n)
    out *= grid.g_f[lo:hi, None]
    return out


def _col_max(acc: np.ndarray | None, block: np.ndarray) -> np.ndarray:
    """Per-column maxima of ``block``, or ``acc`` raised to them; the
    reduction of a streamed stage.  ``ndarray.max`` and ``np.maximum``
    propagate a NaN, where Python's ``max`` could drop it."""
    top = block.max(axis=0)
    return top if acc is None else np.maximum(acc, top, out=acc)


def _col_range(lo: np.ndarray | None, hi: np.ndarray | None,
               block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``lo`` and ``hi`` widened to the per-column minima and maxima of
    ``block`` (None: those extremes)."""
    low = block.min(axis=0)
    lo = low if lo is None else np.minimum(lo, low, out=lo)
    return lo, _col_max(hi, block)


def _along(grid: Grid, rows, psi, axis_name: str) -> np.ndarray:
    """The whole result of the L-row kernel ``rows`` (``_lap_rows``,
    ``_audit_rows``) along one axis: a profile at once, a 2D field in row
    blocks, along the base axis on the transposed view of each block."""
    v = np.asarray(psi, dtype=float)
    g, gp, h = grid.g(axis_name), grid.gp(axis_name), grid.h(axis_name)
    if v.ndim == 1:
        return rows(v, 0, v.shape[0], g, gp, h)
    out = np.empty_like(v)
    for lo, hi in _row_blocks(0, v.shape[0], v.shape[1]):
        if axis_name == FIBER:
            out[lo:hi] = rows(v, lo, hi, g, gp, h)
        else:
            t = v[lo:hi].T
            out[lo:hi] = rows(t, 0, t.shape[0], g, gp, h).T
    return out


def diff1(a: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second-order first derivative; one-sided stencils at the ends."""
    v = np.moveaxis(np.asarray(a, dtype=float), axis, 0)
    return np.moveaxis(_d1_rows(v, 0, v.shape[0], h), 0, axis)


def diff2(a: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second-order second derivative; one-sided stencils at the ends."""
    v = np.moveaxis(np.asarray(a, dtype=float), axis, 0)
    return np.moveaxis(_d2_rows(v, 0, v.shape[0], h), 0, axis)


def lap(grid: Grid, psi, axis_name: str) -> np.ndarray:
    """FS-relative ddbar density along one axis: g psi'' + g' psi'."""
    return _along(grid, _lap_rows, psi, axis_name)


def ddbar_invariant(grid: Grid, psi) -> np.ndarray:
    """Log-frame coefficients of i ddbar(psi) for a torus-invariant
    potential, stacked as one (3, n_f+1, n_b+1) array [ff, bb, fb].

    Exactly linear; second-order accurate in the grid spacings.  The
    defining identity i ddbar log(1+|z|^2) = omega_FS holds with the
    log(1+s) potential evaluated as -log(1-x).
    """
    v = np.asarray(psi, dtype=float)
    if v.ndim != 2:
        raise ValueError("ddbar_invariant expects a 2D potential")
    if not np.all(np.isfinite(v)):
        raise ValueError("ddbar_invariant: non-finite potential")
    return np.stack((grid.g_f[:, None] * lap(grid, v, FIBER),
                     grid.g_b[None, :] * lap(grid, v, BASE),
                     np.concatenate([_dfdb(grid, v, lo, hi) for lo, hi in
                                     _row_blocks(0, v.shape[0], v.shape[1])])))


def lap_bands(grid: Grid, axis_name: str) -> np.ndarray:
    """The matrix of L = g d2 + g' d1 by its five central diagonals.

    ``bands[2 + k, i]`` is the entry of row i in column i + k; entries
    that would fall outside the matrix are zero.  Each entry is
    g * (d2 weight) + g' * (d1 weight) with the weights of ``diff2`` and
    ``diff1``.  Interior rows are tridiagonal.  The endpoint rows reach
    two columns inward: g vanishes at both poles, so the fourth weight
    of the one-sided d2 rows drops out and the rows degenerate to +/- the
    one-sided first derivative, the natural pole-regularity condition.
    """
    n = grid.n(axis_name)
    h = grid.h(axis_name)
    g, gp = grid.g(axis_name), grid.gp(axis_name)
    bands = np.zeros((5, n + 1))
    inner = slice(1, n)
    gi, gpi = g[inner], gp[inner]
    bands[1, inner] = gi * (1.0 / h**2) + gpi * (-1.0 / (2.0 * h))
    bands[2, inner] = gi * (-2.0 / h**2)
    bands[3, inner] = gi * (1.0 / h**2) + gpi * (1.0 / (2.0 * h))
    # one-sided end rows: (d2, d1) weights at the pole node and the next
    # two inward; the d1 weights change sign at the far end
    ends = ((2.0, -3.0), (-5.0, 4.0), (4.0, -1.0))
    for k, (w2, w1) in enumerate(ends):
        bands[2 + k, 0] = g[0] * (w2 / h**2) + gp[0] * (w1 / (2.0 * h))
        bands[2 - k, n] = g[n] * (w2 / h**2) + gp[n] * (-w1 / (2.0 * h))
    return bands


def _write_bands(out: np.ndarray, bands: np.ndarray, r0: int, c0: int) -> np.ndarray:
    """The rows and columns from (r0, c0) of the matrix with diagonals
    ``bands`` that ``out`` spans, written into its zeros."""
    rows, cols = out.shape
    for k in range(-2, 3):
        i = np.arange(max(r0, c0 - k, 0), min(r0 + rows, c0 + cols - k))
        out[i - r0, i + k - c0] = bands[2 + k, i]
    return out


def lap_matrix(grid: Grid, axis_name: str) -> np.ndarray:
    """Dense (n+1)^2 matrix of L, written from ``lap_bands``.  No run builds
    it: the Einstein residual applies ``lap_slabs``, its rows bit for bit.
    The tests' dense L is ``dense_lap`` of ``tests/reference.py``; this one
    stays while the benchmark's per-layer metrics name it."""
    n = grid.n(axis_name)
    return _write_bands(np.zeros((n + 1, n + 1)), lap_bands(grid, axis_name), 0, 0)


# Rows per slab of ``lap_slabs``, and the alignment of its column windows.
# OpenBLAS's dgemv takes each row of A @ v as its own dot product, whose lane
# grouping depends only on the column offset from the call's first column,
# modulo the kernel's period, and on the call's tail of columns.  A window
# that starts on an aligned column, with the last one ending at column n,
# so gives the rows of the dense product bit for bit up to n = 2048.  From
# n = 4096 on, the dense call sums each row in blocks of 2048 columns, and a
# row whose band crosses a block edge may differ in its last bit; a c != 1
# Einstein solve, the only one whose outcome reads that roundoff, already
# fails there (einstein_c_ne_1).
_SLAB_ROWS = 64
_SLAB_ALIGN = 64


def lap_slabs(grid: Grid, axis_name: str) -> list:
    """L by row slabs: (r0, c0, S), S the rows r0.. of L on the aligned
    column window from c0 that holds their bands, the window of the last
    rows running to column n.  3.1 MB at n = 2048, against 33.6 MB dense."""
    bands, n, a = lap_bands(grid, axis_name), grid.n(axis_name), _SLAB_ALIGN
    slabs = []
    for r0 in range(0, n + 1, _SLAB_ROWS):
        r1 = min(r0 + _SLAB_ROWS, n + 1)
        c0, c1 = max(0, (r0 - 2) // a * a), -(-(r1 + 2) // a) * a
        c1 = n + 1 if c1 > n + 1 - a else c1
        slabs.append((r0, c0, _write_bands(np.zeros((r1 - r0, c1 - c0)), bands, r0, c0)))
    return slabs


def slab_product(slabs: list, v: np.ndarray) -> np.ndarray:
    """L @ v from ``lap_slabs``, one BLAS dgemv per slab."""
    out = np.empty_like(v)
    for r0, c0, s in slabs:
        out[r0:r0 + s.shape[0]] = s @ v[c0:c0 + s.shape[1]]
    return out


# ---------------------------------------------------------------------------
# quadrature (Simpson; exact on constants by construction)
# ---------------------------------------------------------------------------

def simpson(grid: Grid, axis_name: str, values) -> float:
    """Composite Simpson over [0,1]; deterministic compensated summation."""
    v = np.asarray(values, dtype=float)
    k = grid.simpson(axis_name)
    return math.fsum((k * v).tolist()) / (3.0 * grid.n(axis_name))


def simpson2d(grid: Grid, values) -> float:
    """Tensor Simpson over the unit square, base axis contracted first.

    Each fiber row is reduced against the base weights by ``einsum``
    (a fixed summation order, no BLAS call, no n^2 temporary); the n_f+1
    fiber-weighted row sums are then added by compensated summation; a
    streamed stage takes the same row sums block by block.  A push-forward
    (``simpson_columns``, ``_carry_columns``) contracts the fiber axis
    first, and the adjoint check of G' (``basespace._adjoint_defect``)
    compares the two orders, so this one must not be written through
    ``simpson_columns``: the same order on both sides would make that
    comparison vacuous.
    """
    v = np.asarray(values, dtype=float)
    return _simpson_of_rows(grid, _simpson_rows(grid, v))


def _simpson_rows(grid: Grid, block: np.ndarray) -> np.ndarray:
    """The base-weighted sums of a block of fiber rows; a row's sum depends
    on that row alone, so a field's row sums may be taken block by block."""
    return np.einsum("ij,j->i", block, grid.simpson_b)


def _simpson_of_rows(grid: Grid, rows: np.ndarray) -> float:
    """``simpson2d`` from the base-weighted sums of all fiber rows."""
    return math.fsum((grid.simpson_f * rows).tolist()) / (9.0 * grid.n_fiber * grid.n_base)


def simpson_columns(grid: Grid, values2d: np.ndarray) -> np.ndarray:
    """Simpson along the fiber axis for every base column (fixed order)."""
    return _carry_columns(grid, None, values2d, 0) / (3.0 * grid.n_fiber)


def _carry_columns(grid: Grid, total: np.ndarray | None, block: np.ndarray,
                   lo: int) -> np.ndarray:
    """``total`` plus the fiber-weighted column sums of ``block``, the rows
    from ``lo`` on of a field (None: those sums alone).

    ``einsum`` adds a column's terms one row after the other, so the
    running total enters as a leading row of weight 1 and the sums carried
    through a field's row blocks, divided by 3 n_f, are ``simpson_columns``
    of the whole field bit for bit.
    """
    weights = grid.simpson_f[lo:lo + block.shape[0]]
    if total is None:
        return np.einsum("i,ij->j", weights, block)
    return np.einsum("i,ij->j", np.concatenate(([1.0], weights)),
                     np.vstack((total, block)))


# ---------------------------------------------------------------------------
# removable-singularity fills
# ---------------------------------------------------------------------------

def _fill_ends(v: np.ndarray, axis: int) -> np.ndarray:
    """Quadratic extrapolation of the two endpoint layers from the interior."""
    w = np.moveaxis(v, axis, 0)
    w[0] = 3.0 * w[1] - 3.0 * w[2] + w[3]
    w[-1] = 3.0 * w[-2] - 3.0 * w[-3] + w[-4]
    return np.moveaxis(w, 0, axis)


def fs_ratio(grid: Grid, coeff: np.ndarray) -> np.ndarray:
    """Divide a log-frame coefficient on the 2D grid by x(1-x) along both
    axes, filling the removable endpoint singularities by one-sided
    limits."""
    out = np.array(coeff, dtype=float)
    for ax, g in ((0, grid.g_f[:, None]), (1, grid.g_b[None, :])):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = out / g
        out = _fill_ends(out, ax)
    if not np.all(np.isfinite(out)):
        raise ModelRegularityError("boundary limit of FS-relative density is not finite")
    return out


# ---------------------------------------------------------------------------
# high-order audit stencils (independent forward-application oracle)
# ---------------------------------------------------------------------------

# Row k of block d - 1: the weights of d^d/dx^d at node k from the unit
# nodes 0..4, exact on quartics; integers over 12, each rounded once.
_FIVE_POINT = np.array([
    [[-25, 48, -36, 16, -3], [-3, -10, 18, -6, 1], [1, -8, 0, 8, -1],
     [-1, 6, -18, 10, 3], [3, -16, 36, -48, 25]],
    [[35, -104, 114, -56, 11], [11, -20, 6, 4, -1], [-1, 16, -30, 16, -1],
     [-1, 4, 6, -20, 11], [11, -56, 114, -104, 35]]]) / 12.0


_AUDIT_REACH = 2    # the rows ``_five_point_rows`` reads beyond a row


def _five_point_rows(v: np.ndarray, lo: int, hi: int, w: np.ndarray,
                     start: int, n: int) -> np.ndarray:
    """Rows [lo, hi) of the stencils ``w`` applied along axis 0 of a field
    with rows 0..n, of which ``v`` holds rows ``start`` on: the centred
    row 2 of ``w`` on the interior, the one-sided rows 0, 1 and 3, 4 on
    the two end nodes of each side.  Terms are summed in stencil order."""
    out = np.empty_like(v[:hi - lo])
    i, j = max(lo, 2), min(hi, n - 1)    # the interior rows of the block
    if i < j:
        acc, term = out[i - lo:j - lo], np.empty_like(out[i - lo:j - lo])
        first = i - 2 - start
        np.multiply(w[2, 0], v[first:first + j - i], out=acc)
        for k in range(1, 5):
            acc += np.multiply(w[2, k], v[first + k:first + k + j - i], out=term)
    ends = [(r, r, 0) for r in range(lo, min(hi, 2))]
    ends += [(r, r - n + 4, n - 4) for r in range(max(lo, n - 1), hi)]
    for r, row, first in ends:           # first: the stencil's first node
        nodes = v[first - start:first - start + 5]
        out[r - lo] = sum(w[row, k] * nodes[k] for k in range(5))
    return out


def _audit_rows(v: np.ndarray, lo: int, hi: int, g: np.ndarray, gp: np.ndarray,
                h: float, start: int = 0, n: int | None = None) -> np.ndarray:
    """Rows [lo, hi) of ``audit_lap`` along axis 0 of a field with rows
    0..n, of which ``v`` holds rows ``start`` on (all of them by default),
    with the weights of ``_FIVE_POINT`` scaled by 1/h and 1/h^2."""
    if n is None:
        n = v.shape[0] - 1
    return _l_rows(_five_point_rows(v, lo, hi, _FIVE_POINT[1] / h**2, start, n),
                   _five_point_rows(v, lo, hi, _FIVE_POINT[0] / h, start, n),
                   g, gp, lo, hi)


def audit_lap(grid: Grid, psi, axis_name: str) -> np.ndarray:
    """L(psi) through an independent higher-order discretization.

    Both derivatives use the exact five-point weights (``_FIVE_POINT``) on
    the uniform nodes: the centred stencil on every interior node, and at
    the two outermost nodes of each end the one-sided stencils over the
    first or last five nodes.  The weights are scaled by 1/h and 1/h^2
    before they are applied.  The audit shares no stencil with ``lap``,
    whose second-order three-point differences define the solvers' fixed
    points, so its residual measures the distance to the continuum
    solution and not to the solver's own discrete equation; it shares
    only the blocking (``_along``) and the combination ``_l_rows``.
    """
    return _along(grid, _audit_rows, psi, axis_name)

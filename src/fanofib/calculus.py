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

_AXIS_INDEX = {FIBER: 0, BASE: 1}


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def diff1(a: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second-order first derivative; one-sided stencils at the ends."""
    v = np.moveaxis(np.asarray(a, dtype=float), axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def diff2(a: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second-order second derivative; one-sided stencils at the ends."""
    v = np.moveaxis(np.asarray(a, dtype=float), axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    return np.moveaxis(out, 0, axis)


def _axis_arrays(grid: Grid, axis_name: str, ndim: int):
    """g, g' broadcast onto a field of the given dimensionality."""
    ax = _AXIS_INDEX[axis_name] if ndim == 2 else 0
    g, gp = grid.g(axis_name), grid.gp(axis_name)
    if ndim == 2 and axis_name == FIBER:
        g, gp = g[:, None], gp[:, None]
    elif ndim == 2:
        g, gp = g[None, :], gp[None, :]
    return g, gp, ax


# Row-blocked kernels take this many elements per block, so that a block
# and its temporaries stay in cache.  A wide field gets few rows per block
# and a narrow one many, so no shape is cut into thousands of tiny blocks.
_BLOCK_ELEMS = 1 << 14


def _row_blocks(start: int, stop: int, width: int):
    """Consecutive [lo, hi) row ranges covering [start, stop)."""
    step = max(1, _BLOCK_ELEMS // max(width, 1))
    return ((lo, min(lo + step, stop)) for lo in range(start, stop, step))


def _lap_rows(v: np.ndarray, g: np.ndarray, gp: np.ndarray,
              h: float) -> np.ndarray:
    """``g * diff2 + gp * diff1`` along axis 0 of a 2D field, in row blocks.

    Every element sees the IEEE operations of the unblocked expression in
    the same order, so the result is bit-identical; only the temporaries
    shrink to one block.
    """
    n = v.shape[0] - 1
    out = np.empty_like(v)
    h2, h2x = h**2, 2.0 * h
    for lo, hi in _row_blocks(1, n, v.shape[1]):
        below, mid, above = v[lo - 1:hi - 1], v[lo:hi], v[lo + 1:hi + 1]
        out[lo:hi] = (g[lo:hi, None] * ((above - 2.0 * mid + below) / h2)
                      + gp[lo:hi, None] * ((above - below) / h2x))
    # the one-sided end rows of diff2 and diff1
    d2 = 2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]
    out[0] = g[0] * (d2 / h2) + gp[0] * ((-3.0 * v[0] + 4.0 * v[1] - v[2]) / h2x)
    d2 = 2.0 * v[n] - 5.0 * v[n - 1] + 4.0 * v[n - 2] - v[n - 3]
    out[n] = g[n] * (d2 / h2) + gp[n] * ((3.0 * v[n] - 4.0 * v[n - 1] + v[n - 2]) / h2x)
    return out


def lap(grid: Grid, psi, axis_name: str) -> np.ndarray:
    """FS-relative ddbar density along one axis: g psi'' + g' psi'.

    Along the fiber axis of a 2D field the stencil runs in row blocks
    (``_lap_rows``), with the same bits as the whole-field expression.
    """
    v = np.asarray(psi, dtype=float)
    h = grid.h(axis_name)
    if v.ndim == 2 and axis_name == FIBER:
        return _lap_rows(v, grid.g_f, grid.gp_f, h)
    g, gp, ax = _axis_arrays(grid, axis_name, v.ndim)
    return g * diff2(v, h, ax) + gp * diff1(v, h, ax)


def dop(grid: Grid, psi, axis_name: str) -> np.ndarray:
    """The degenerate derivative D = x(1-x) d/dx along one axis."""
    v = np.asarray(psi, dtype=float)
    g, _, ax = _axis_arrays(grid, axis_name, v.ndim)
    return g * diff1(v, grid.h(axis_name), ax)


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
                     dop(grid, dop(grid, v, BASE), FIBER)))


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


def lap_matrix(grid: Grid, axis_name: str) -> np.ndarray:
    """Dense (n+1)^2 matrix of L, written in place from ``lap_bands``.

    The solvers work on the bands; the dense form serves only the
    per-fiber Newton of the fiberwise Einstein family and tests.
    """
    bands = lap_bands(grid, axis_name)
    n = grid.n(axis_name)
    A = np.zeros((n + 1, n + 1))
    for k in range(-2, 3):
        i = np.arange(max(0, -k), n + 1 - max(0, k))
        A[i, i + k] = bands[2 + k, i]
    return A


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
    fiber-weighted row sums are then added by compensated summation.
    ``fiber_integral`` contracts the fiber axis first, and
    ``basespace.pushforward_adjoint_defect`` compares the two orders, so
    this one must not be written through ``simpson_columns``: the same
    order on both sides would make that comparison vacuous.
    """
    v = np.asarray(values, dtype=float)
    rows = np.einsum("ij,j->i", v, grid.simpson_b)
    return math.fsum((grid.simpson_f * rows).tolist()) / (9.0 * grid.n_fiber * grid.n_base)


def simpson_columns(grid: Grid, values2d: np.ndarray) -> np.ndarray:
    """Simpson along the fiber axis for every base column (fixed order)."""
    return np.einsum("i,ij->j", grid.simpson_f, values2d) / (3.0 * grid.n_fiber)


def fiber_integral(grid: Grid, rho) -> np.ndarray:
    """Push a volume density to the base: 2*pi int rho(x_f, b) dx_f."""
    return TWO_PI * simpson_columns(grid, rho)


def integrate_total(grid: Grid, density) -> float:
    """Total integral of a volume density over P^1 x P^1."""
    return TWO_PI**2 * simpson2d(grid, density)


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
    for axis_name in (FIBER, BASE):
        g, _, ax = _axis_arrays(grid, axis_name, 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = out / g
        out = _fill_ends(out, ax)
    if not np.all(np.isfinite(out)):
        raise ModelRegularityError("boundary limit of FS-relative density is not finite")
    return out


# ---------------------------------------------------------------------------
# high-order audit stencils (independent forward-application oracle)
# ---------------------------------------------------------------------------

def fd_weights(z: float, x: np.ndarray, m: int) -> np.ndarray:
    """Fornberg weights for derivatives 0..m at z from nodes x."""
    n = len(x)
    c = np.zeros((n, m + 1))
    c1, c4 = 1.0, x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2, c5, c4 = 1.0, c4, x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def _stencil_weights(deriv: int) -> np.ndarray:
    """Row k: five-point weights of d^deriv at node k of the unit nodes 0..4."""
    nodes = np.arange(5.0)
    return np.array([fd_weights(float(k), nodes, deriv)[:, deriv]
                     for k in range(5)])


def _five_point(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Apply the rows of ``w`` along axis 0 of ``v``: the centred row 2 on
    the interior, the one-sided rows 0, 1 and 3, 4 on the two end nodes of
    each side.  Terms are summed in stencil order."""
    n = v.shape[0]
    out = np.empty_like(v)
    # interior rows in cache-sized blocks; the bits are those of one pass
    for lo, hi in _row_blocks(2, n - 2, v[0].size):
        out[lo:hi] = sum(w[2, k] * v[lo - 2 + k:hi - 2 + k] for k in range(5))
    head, tail = v[:5], v[n - 5:]
    for r in (0, 1):
        out[r] = sum(w[r, k] * head[k] for k in range(5))
        out[n - 2 + r] = sum(w[3 + r, k] * tail[k] for k in range(5))
    return out


def audit_lap(grid: Grid, psi, axis_name: str) -> np.ndarray:
    """L(psi) through an independent higher-order discretization.

    Both derivatives use five-point fourth-order Fornberg stencils on the
    uniform nodes: the centred stencil on every interior node, and at
    the two outermost nodes of each end the one-sided stencils over the
    first or last five nodes.  The weights are scaled by 1/h and 1/h^2
    before they are applied.  The audit shares no stencil with ``lap``,
    whose second-order three-point differences define the solvers' fixed
    points, so its residual measures the distance to the continuum
    solution and not to the solver's own discrete equation.
    """
    v = np.asarray(psi, dtype=float)
    h = grid.h(axis_name)
    g, gp, ax = _axis_arrays(grid, axis_name, v.ndim)
    along = np.moveaxis(np.asarray(v, dtype=float), ax, 0)
    d1 = np.moveaxis(_five_point(along, _stencil_weights(1) / h), 0, ax)
    d2 = np.moveaxis(_five_point(along, _stencil_weights(2) / h**2), 0, ax)
    return g * d2 + gp * d1

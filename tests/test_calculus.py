import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanofib.calculus import TWO_PI, lap, simpson, simpson2d, simpson_columns
from fanofib import basespace, calculus
from fanofib.grids import BASE, FIBER, Grid
from conftest import peak_fields
import reference
from reference import (BB, FB, FF, ddbar, ddbar_fine, exact_table, field_shape,
                       five_point_matrix, fs_form, omega0, ric_volume, wedge)


def grid64():
    return Grid(64, 64)


def log1s(x):
    # log(1 + s) = -log(1 - x) in the moment coordinate
    with np.errstate(divide="ignore"):
        return -np.log1p(-x)


# ---------------------------------------------------------------------------
# i ddbar: the reference stencils, which the run's kernels equal bit for bit
# ---------------------------------------------------------------------------

def test_ddbar_fs_potential_is_fs_form():
    # the chart potential log(1+s_f) has its log pole at x_f = 1; the grid
    # operators reproduce the defining identity to O(h^2) on the resolved
    # part of the chart (the pole itself is handled analytically by the
    # chart-weight split, exercised in the model tests)
    errs = []
    for n in (32, 64):
        g = Grid(n, n)
        column = log1s(g.nodes_f)
        column[-1] = 0.0  # value at the pole node is never used below
        psi = np.broadcast_to(column[:, None], field_shape(g)).copy()
        M = ddbar(g, psi)
        sel = g.nodes_f <= 0.75
        errs.append(np.abs(M[FF][sel, :] - g.g_f[sel, None]).max())
        assert np.abs(M[BB][sel, :]).max() == 0.0
        assert np.abs(M[FB][sel, :]).max() == 0.0
    assert errs[1] < 50.0 * (1.0 / 64)**2
    assert math.log2(errs[0] / errs[1]) > 1.7


def test_ddbar_constant_is_zero():
    g = grid64()
    M = ddbar(g, np.full(field_shape(g), 3.7))
    assert M.shape == (3,) + field_shape(g)
    assert np.abs(M).max() == 0.0


def test_ddbar_matches_independent_oracle():
    n = 64
    g = Grid(n, n)

    def psi_fn(xf, xb):
        return np.exp(xf * (1.0 - xb)) + np.sin(xf + 0.5 * xb)

    psi = psi_fn(g.nodes_f[:, None], g.nodes_b[None, :])
    M = ddbar(g, psi)
    off, obb, ofb = ddbar_fine(psi_fn, n)
    sel = slice(1, -1)
    h2 = (1.0 / n)**2
    assert np.abs(M[FF][sel, sel] - off).max() < 5.0 * h2
    assert np.abs(M[BB][sel, sel] - obb).max() < 5.0 * h2
    assert np.abs(M[FB][sel, sel] - ofb).max() < 5.0 * h2


def test_ddbar_bump_matches_oracle_second_order():
    errs = []
    for n in (32, 64):
        g = Grid(n, n)

        def psi_fn(xf, xb):
            return np.sin(np.pi * xf) * xb * (1.0 - xb)

        psi = psi_fn(g.nodes_f[:, None], g.nodes_b[None, :])
        M = ddbar(g, psi)
        off = ddbar_fine(psi_fn, n)[FF]
        errs.append(np.abs(M[FF][1:-1, 1:-1] - off).max())
    assert math.log2(errs[0] / errs[1]) > 1.7


@settings(max_examples=20, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10))
def test_ddbar_linearity(s, t):
    g = Grid(16, 16)
    xf, xb = g.nodes_f[:, None], g.nodes_b[None, :]
    phi = np.exp(xf) * xb
    psi = np.cos(xf + xb)
    lhs = ddbar(g, s * phi + t * psi)
    rhs = s * ddbar(g, phi) + t * ddbar(g, psi)
    assert np.abs(lhs - rhs).max() < 1e-9 * (1 + abs(s) + abs(t))


def test_exactness_integrates_to_zero():
    g = grid64()
    phi = np.exp(g.nodes_b) * np.sin(2.0 * g.nodes_b)
    density = lap(g, phi, BASE)
    assert abs(TWO_PI * simpson(g, BASE, density)) < 5e-4  # O(h^2) grade


# ---------------------------------------------------------------------------
# wedge and Ricci operations
# ---------------------------------------------------------------------------

def test_wedge_top_product_fs_is_one():
    g = grid64()
    M = fs_form(g, 1.0, 1.0)
    assert np.allclose(0.5 * wedge(g, M, M), 1.0, atol=1e-12)


def test_wedge_top_homogeneity():
    g = grid64()
    M = fs_form(g, 2.0, 2.0)
    assert np.allclose(0.5 * wedge(g, M, M), 4.0, atol=1e-12)


def test_mixed_wedge_model_a(ref_a):
    # 2 omega0 ^ pullback(eta) has constant density 4/3 for the (2,1) model
    g = ref_a.grid
    eta = fs_form(g, 0.0, np.full(g.n_base + 1, ref_a.eta_fs))
    density = 2.0 * wedge(g, omega0(ref_a), eta)
    assert np.allclose(density, 4.0 / 3.0, atol=1e-12)


def test_ric_volume_constant_density():
    g = grid64()
    for const in (1.0, 7.0):
        R = ric_volume(g, np.full(field_shape(g), const))
        expect = fs_form(g, 2.0, 2.0)
        assert np.abs(R - expect).max() == 0.0


def test_ric_of_wedge_fs_is_anticanonical():
    g = grid64()
    M = fs_form(g, 1.0, 1.0)
    R = ric_volume(g, 0.5 * wedge(g, M, M))
    assert np.abs(R - fs_form(g, 2.0, 2.0)).max() < 1e-12


def test_ric_volume_matches_ddbar_oracle():
    g = grid64()
    rho = np.exp(0.3 * np.sin(np.pi * g.nodes_f)[:, None]
                 * g.nodes_b[None, :]**2) + 0.5
    R = ric_volume(g, rho)
    # independent high-order check on the fiber channel, O(h^2) agreement
    audit = 2.0 * g.g_f[:, None] - g.g_f[:, None] * reference.five_point_lap(
        g, np.log(rho), FIBER)
    assert np.abs(R[FF] - audit).max() < 1.0 * (1.0 / 64)**2


def test_audit_weights_are_the_exact_weights_rounded_once():
    w1, w2 = calculus._FIVE_POINT
    assert np.array_equal(w1, exact_table(1))
    assert np.array_equal(w2, exact_table(2))
    # the centred stencils: d/dx antisymmetric, d^2/dx^2 symmetric, bit for bit
    assert np.array_equal(w1[2], -w1[2][::-1])
    assert np.array_equal(w2[2], w2[2][::-1])


def test_audit_lap_matches_dense_fornberg_matrix():
    g = Grid(64, 32)
    v = np.exp(np.sin(3.0 * g.nodes_f)[:, None] * np.cos(2.0 * g.nodes_b)[None, :])
    d1f, d2f = (five_point_matrix(65, k, g.h(FIBER)) for k in (1, 2))
    d1b, d2b = (five_point_matrix(33, k, g.h(BASE)) for k in (1, 2))
    gf, gpf = g.g_f[:, None], g.gp_f[:, None]
    # the run's audit rows on the fiber axis of a 2-D field, its only use:
    # the sum runs in stencil order as in the dense contraction, so the
    # bits agree
    fiber = (gf * np.einsum("ik,kj->ij", d2f, v) +
             gpf * np.einsum("ik,kj->ij", d1f, v))
    got = calculus._audit_rows(v, 0, 65, g.g_f, g.gp_f, g.h(FIBER))
    assert np.array_equal(got, fiber)
    # base axis and 1-D fields: the matrix products sum in another order,
    # so they agree to the roundoff of five-term sums of size |v| / h^2
    base = g.g_b * (v @ d2b.T) + g.gp_b * (v @ d1b.T)
    one_d = g.g_f * (d2f @ v[:, 0]) + g.gp_f * (d1f @ v[:, 0])
    for got, want, h in ((reference.five_point_lap(g, v, BASE), base, g.h(BASE)),
                         (reference.five_point_lap(g, v[:, 0], FIBER), one_d, g.h(FIBER))):
        assert np.abs(got - want).max() < 1e-14 * np.abs(v).max() / h**2


def test_audit_lap_fourth_order():
    errs = []
    for n in (32, 64, 128):
        g = Grid(n, n)
        x = g.nodes_b
        v = np.exp(np.sin(2.0 * x))
        dv = 2.0 * np.cos(2.0 * x) * v
        d2v = (4.0 * np.cos(2.0 * x)**2 - 4.0 * np.sin(2.0 * x)) * v
        exact = x * (1.0 - x) * d2v + (1.0 - 2.0 * x) * dv
        audit = calculus._audit_rows(v, 0, n + 1, g.g_b, g.gp_b, g.h(BASE))
        errs.append(np.abs(audit - exact).max())
    assert min(math.log2(a / b) for a, b in zip(errs, errs[1:])) > 3.8


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_simpson_columns_constant():
    g = grid64()
    out = TWO_PI * simpson_columns(g, np.full(field_shape(g), 2.5))
    assert np.allclose(out, 2.5 * TWO_PI, atol=0.0)


def test_simpson_columns_parabola_exact():
    g = grid64()
    rho = (6.0 * g.g_f)[:, None] * np.ones((1, g.n_base + 1))
    assert np.allclose(TWO_PI * simpson_columns(g, rho), TWO_PI, atol=1e-13)


def test_base_simpson_fs_normalization():
    g = grid64()
    ones = np.ones(g.n_base + 1)
    assert TWO_PI * simpson(g, BASE, ones) == pytest.approx(TWO_PI, abs=1e-13)


def test_base_simpson_eta_model_a(ref_a):
    g = ref_a.grid
    eta = np.full(g.n_base + 1, ref_a.eta_fs)
    assert TWO_PI * simpson(g, BASE, eta) == pytest.approx(4.0 * math.pi / 3.0,
                                                           rel=1e-14)


def test_simpson2d_unit_density():
    g = grid64()
    assert TWO_PI**2 * simpson2d(g, np.ones(field_shape(g))) == pytest.approx(
        4 * math.pi**2, rel=1e-15)


def _simpson2d_full_product(grid, v):
    """The tensor Simpson rule as one compensated sum over all n^2 terms."""
    w = grid.simpson_f[:, None] * grid.simpson_b[None, :]
    return math.fsum((w * v).ravel().tolist()) / (9.0 * grid.n_fiber * grid.n_base)


def test_simpson2d_matches_full_product_fsum():
    # the base-first row sums are plain floating-point sums of n_b+1 terms;
    # their error is bounded by (n_b+1) eps times the integral of |v|
    g = Grid(1024, 1024)
    v = np.random.default_rng(7).standard_normal(field_shape(g))
    bound = (g.n_base + 1) * np.finfo(float).eps * simpson2d(g, np.abs(v))
    assert abs(simpson2d(g, v) - _simpson2d_full_product(g, v)) <= bound


@pytest.mark.parametrize("shape", [(16, 16), (64, 32), (256, 1024)])
def test_simpson2d_exact_on_tensor_cubics(shape):
    g = Grid(*shape)
    for p in range(4):
        for q in range(4):
            v = g.nodes_f[:, None]**p * g.nodes_b[None, :]**q
            exact = 1.0 / ((p + 1) * (q + 1))
            assert simpson2d(g, v) == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_simpson2d_builds_no_full_size_temporary():
    g = Grid(1024, 1024)
    v = np.random.default_rng(3).standard_normal(field_shape(g))
    simpson2d(g, v)  # fill the grid's cached weights outside the trace
    # the field itself is 8.4 MB; the row sums and fiber weights are 16 kB
    assert peak_fields(simpson2d, g, v) < 1e6 / v.nbytes


def _carried(g, v):
    """simpson_columns of ``v`` from the column sums carried through its
    row blocks."""
    total = None
    for lo, hi in calculus._row_blocks(0, g.n_fiber + 1, g.n_base + 1):
        total = calculus._carry_columns(g, total, v[lo:hi], lo)
    return total / (3.0 * g.n_fiber)


@pytest.mark.parametrize("shape", [(1024, 1024), (2048, 64), (64, 2048)],
                         ids=lambda s: f"{s[0] + 1}x{s[1] + 1}")
def test_carried_column_sums_equal_simpson_columns_bit_for_bit(shape):
    g = Grid(*shape)
    rng = np.random.default_rng(sum(shape))
    # magnitudes over 24 decades, so that a change of summation order shows
    v = rng.standard_normal(field_shape(g)) * 10.0**rng.uniform(-12, 12, field_shape(g))
    whole = np.einsum("i,ij->j", g.simpson_f, v) / (3.0 * g.n_fiber)
    assert calculus.simpson_columns(g, v).tobytes() == whole.tobytes()
    assert _carried(g, v).tobytes() == whole.tobytes()
    # the blocks' own sums, added afterwards, round differently
    blocks = list(calculus._row_blocks(0, g.n_fiber + 1, g.n_base + 1))
    assert len(blocks) > 2
    regrouped = sum(np.einsum("i,ij->j", g.simpson_f[lo:hi], v[lo:hi])
                    for lo, hi in blocks) / (3.0 * g.n_fiber)
    assert not np.array_equal(regrouped, whole)


def test_carried_column_sums_propagate_a_nan(fine_blocks):
    g = Grid(64, 64)
    fine_blocks(g)
    v = np.ones(field_shape(g))
    last = list(calculus._row_blocks(0, g.n_fiber + 1, g.n_base + 1))[-2][0]
    v[last, 7] = np.nan
    out = _carried(g, v)
    assert math.isnan(out[7])
    assert np.array_equal(np.delete(out, 7), np.delete(calculus.simpson_columns(g, v), 7))


def test_pushforward_adjoint_defect_sees_a_perturbed_fiber_integral(ref_c, spr_c, ske_c,
                                                                    monkeypatch):
    # G' carries the fiber integrals of its volume through the row blocks
    # (fiber axis first) and takes the adjoint row sums base axis first;
    # the adjoint check compares the two and must detect a column whose
    # carried sums are off by 1e-3, for either family's volume
    for fiber in (spr_c, ske_c):
        assert basespace.compute_gprime(ref_c, fiber).adjoint_defect < 1e-14
    real = basespace._carry_columns

    def bumped(grid, total, block, lo):
        block = block.copy()
        block[:, grid.n_base // 2] *= 1.0 + 1e-3
        return real(grid, total, block, lo)

    monkeypatch.setattr(basespace, "_carry_columns", bumped)
    for fiber in (spr_c, ske_c):
        assert basespace.compute_gprime(ref_c, fiber).adjoint_defect > 1e-7


def test_boundary_vanishing_of_smooth_coefficients(ref_b):
    # log-frame coefficients of globally smooth forms vanish at the poles
    M = omega0(ref_b)
    assert np.abs(M[FF][0, :]).max() == 0.0
    assert np.abs(M[FF][-1, :]).max() == 0.0
    assert np.abs(M[BB][:, 0]).max() == 0.0
    assert np.abs(M[BB][:, -1]).max() == 0.0


# ---------------------------------------------------------------------------
# row-blocked kernels: the bits of the whole-field expressions
# ---------------------------------------------------------------------------

def assert_halo(s, e, lo, hi, n, reach):
    """[s, e) lies in the rows 0..n and holds ``reach`` rows beyond [lo, hi);
    a block that holds a one-sided end row holds that end's whole window
    of reach + 3 rows."""
    where = (lo, hi, n, reach)
    assert 0 <= s <= max(0, lo - reach) and min(n + 1, hi + reach) <= e <= n + 1, where
    if lo < reach:
        assert s == 0 and e >= reach + 3, where
    if hi > n + 1 - reach:
        assert e == n + 1 and s <= n + 1 - (reach + 3), where


@pytest.mark.parametrize("shape", [(128, 128), (256, 256), (512, 512), (1024, 1024),
                                   (64, 2048), (2048, 64), (4, 1 << 15)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_row_blocks_take_the_budget_in_rows(shape):
    # one rule on the workload grids and on a width above the budget: the
    # blocks tile the rows in order, each but the last budget // width
    # rows long, and at least one row
    rows, width = shape[0] + 1, shape[1] + 1
    step = max(1, calculus._BLOCK_ELEMS // width)
    for start, stop in ((0, rows), (1, rows - 1)):
        blocks = list(calculus._row_blocks(start, stop, width))
        assert [lo for lo, _ in blocks] == [start] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == stop
        assert all(hi - lo == step for lo, hi in blocks[:-1])
        assert 0 < blocks[-1][1] - blocks[-1][0] <= step


KERNEL_GRIDS = [(16, 1024), (1024, 16), (64, 64), (256, 256)]


@pytest.mark.parametrize("blocking", ["default", "one block", "333 elements"])
@pytest.mark.parametrize("shape", KERNEL_GRIDS, ids=lambda s: f"{s[0]}x{s[1]}")
def test_block_kernels_looped_equal_the_whole_field_expressions(shape, blocking,
                                                                monkeypatch):
    if blocking == "one block":
        monkeypatch.setattr(calculus, "_BLOCK_ELEMS", 1 << 30)
    elif blocking == "333 elements":
        monkeypatch.setattr(calculus, "_BLOCK_ELEMS", 333)
    g = Grid(*shape)
    n = g.n_fiber
    blocks = list(calculus._row_blocks(0, n + 1, g.n_base + 1))
    if blocking == "one block":
        assert blocks == [(0, n + 1)]
    elif blocking == "default" and shape != (64, 64):
        # full blocks, then a partial one; a 64^2 field is one block
        assert blocks[-1][1] - blocks[-1][0] < blocks[0][1] - blocks[0][0]
    v = np.random.default_rng(sum(shape)).standard_normal(field_shape(g))

    def looped(kernel):
        return np.concatenate([kernel(g, v, lo, hi) for lo, hi in blocks])

    def slabbed(kernel, reach):
        # each block from its halo slab v[s:e] alone, with start = s, as a
        # streamed stage reads a field that it forms block by block
        parts = []
        for lo, hi in blocks:
            s, e = calculus._halo(lo, hi, n, reach)
            assert_halo(s, e, lo, hi, n, reach)
            parts.append(kernel(g, v[s:e], lo, hi, s))
        return np.concatenate(parts)

    # the three-point kernels, also from reach-1 slabs, as wp_from_residual
    # reads log u and volume_family_from_sections reads smooth_log
    for kernel, whole in ((calculus._lap_fiber, reference.lap(g, v, FIBER)),
                          (calculus._lap_base, reference.lap(g, v, BASE)),
                          (calculus._dfdb, reference.dfdb(g, v))):
        assert np.array_equal(looped(kernel), whole), kernel.__name__
        assert np.array_equal(slabbed(kernel, calculus._LAP_REACH), whole), kernel.__name__

    # the audit, also from reach-2 slabs, as the fiber audit reads log u
    def audit_rows(grid, slab, lo, hi, start=0):
        return calculus._audit_rows(slab, lo, hi, grid.g_f, grid.gp_f, grid.h(FIBER),
                                    start, n)

    audit = reference.five_point_lap(g, v, FIBER)
    assert np.array_equal(looped(audit_rows), audit)
    assert np.array_equal(slabbed(audit_rows, calculus._AUDIT_REACH), audit)
    # simpson2d's base-weighted row sums, block by block
    rows = np.concatenate([calculus._simpson_rows(g, v[lo:hi]) for lo, hi in blocks])
    assert np.array_equal(rows, np.einsum("ij,j->i", v, g.simpson_b))
    assert calculus._simpson_of_rows(g, rows) == simpson2d(g, v)
    # lap and the audit through the one dispatch: a profile at once, a 2D
    # field in row blocks, the base axis on the transposed blocks
    for field, axis_name in ((v, FIBER), (v, BASE), (v[:, 3], FIBER), (v[5], BASE)):
        assert np.array_equal(lap(g, field, axis_name), reference.lap(g, field, axis_name))
        assert np.array_equal(calculus._along(g, calculus._audit_rows, field, axis_name),
                              reference.five_point_lap(g, field, axis_name))

"""Every streamed stage of one cell against the dense reference cell of
``reference.py``, at 64^2 on the three warp shapes and on a c != 1 class,
for both fiber families; and the whole-field grid operators that no run
calls against the reference stencils they stand for."""

import numpy as np
import pytest

from fanofib import calculus
from fanofib.basespace import check_g_descends, compute_gprime
from fanofib.fiberwise import solve_ske, solve_spr, verify_fiber_family
from fanofib.grids import BASE, FIBER, Grid
from fanofib.model import ModelSpec, build_reference
from fanofib.wpform import (SectionFamilySpec, volume_family_from_sections,
                            wp_from_residual, wp_from_sections)
import reference

# (a, c, warp shape): skew_bump is the one shape whose warp is not symmetric
# along the base; at c = 2 the Einstein column's log u is log 2, not 0, so
# the base-axis end rows of L_b log u carry its roundoff
CELLS = {"product_bump": (2, 1, "product_bump"), "fiber_cubic": (2, 1, "fiber_cubic"),
         "skew_bump": (2, 1, "skew_bump"), "class_3_2": (3, 2, "fiber_cubic")}


@pytest.fixture(scope="module", params=list(CELLS))
def ref(request):
    a, c, shape = CELLS[request.param]
    return build_reference(ModelSpec.make(a, c, 0.2, shape, 64, 64))


def same(got, want) -> bool:
    """Equal values with equal sign bits, so a -0.0 is no 0.0; None only
    where the reference has None."""
    if got is None or want is None:
        return got is want
    got, want = np.asarray(got), np.asarray(want)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("solve", [solve_spr, solve_ske], ids=["spr", "ske"])
def test_streamed_stages_are_the_reference_cell_bit_for_bit(ref, solve, fine_blocks):
    # each stage forms its fields in row blocks and reduces them as it
    # goes, with the bits of the whole field: under the default budget,
    # which holds a 64^2 field in one block, and then under the fine one
    with pytest.raises(ValueError):
        ref.Omega[0, 0] = 1.0
    for fine in (False, True):
        if fine:
            fine_blocks(ref.grid)
        fiber = solve(ref)
        for lo, hi in calculus._row_blocks(0, ref.grid.n_fiber + 1, ref.grid.n_base + 1):
            assert same(ref.vertical_rows(lo, hi), reference.vertical_fs(ref)[lo:hi])
            assert same(ref.base_rows(lo, hi), reference.base_fs(ref)[lo:hi])
        # the reference's Newton takes no step from log c either
        u, rho, residual, defect, *steps = getattr(reference, fiber.kind)(ref)
        assert steps in ([], [0])
        assert same(reference.full_metric(ref.grid, fiber), u)
        assert same(fiber.rho, rho)
        assert same((fiber.residual_sup, fiber.volume_defect), (residual, defect))
        audit = verify_fiber_family(ref, fiber)
        assert all(map(same, (audit.forward_residual_sup, audit.positivity_margin,
                              audit.weight_forward_sup), reference.audit(ref, fiber)))
        # both routes
        fam = volume_family_from_sections(ref, SectionFamilySpec.canonical(ref.consts), fiber)
        ric_defect, log_norm, wp_fs = reference.sections(ref, fiber)
        assert same(fam.ric_defect, ric_defect)
        assert same(fam.smooth_log_norm, log_norm)
        assert same(wp_from_sections(ref, fam).wp_fs, wp_fs)
        wp = wp_from_residual(ref, fiber)
        assert all(map(same, (wp.verticality_defect, wp.residual.ff_sup, wp.residual.fb_sup,
                              wp.residual.bb_lo, wp.residual.bb_hi, wp.wp_fs),
                       reference.pullback_residual(ref, fiber)))
        # G', its adjoint sums and the descent of G from its extremes
        gp = compute_gprime(ref, fiber)
        rep = check_g_descends(ref, fiber, gp)
        assert all(map(same, (gp.gprime, gp.adjoint_defect, rep.vertical_oscillation,
                              rep.pullback_defect), reference.gprime(ref, fiber)))
    if fiber.kind == "ske" and ref.spec.c != 1:
        # log c leaves L @ v a nonzero roundoff residual, below the Newton
        # tolerance, which the one column carries
        assert 0.0 < fiber.residual_sup <= 1e-11


@pytest.mark.parametrize("shape", [(16, 16), (64, 256), (1024, 32)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_unrun_operators_are_the_reference_stencils(shape):
    # the one comparison of each whole-field operator that the run does not
    # call: a change that deletes the operator deletes its line here.  The
    # dense L (test_solvers) and the slab product have their own
    g = Grid(*shape)
    v = np.random.default_rng(sum(shape)).standard_normal(reference.field_shape(g))
    for axis, axis_name in ((0, FIBER), (1, BASE)):
        h = g.h(axis_name)
        assert np.array_equal(calculus.diff1(v, h, axis), reference.d1(v, h, axis))
        assert np.array_equal(calculus.diff2(v, h, axis), reference.d2(v, h, axis))
        assert np.array_equal(calculus.audit_lap(g, v, axis_name),
                              reference.five_point_lap(g, v, axis_name))
    assert np.array_equal(calculus.ddbar_invariant(g, v), reference.ddbar(g, v))
    assert np.array_equal(calculus.fs_ratio(g, v), reference.fs_density(g, v))
    v[3, 3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        calculus.ddbar_invariant(g, v)

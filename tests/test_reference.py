"""Every streamed stage of one cell against the dense reference cell of
``reference.py``, at 64^2 on the three warp shapes and for both fiber
families; and the whole-field grid operators that no run calls against
the reference stencils they stand for."""

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


@pytest.fixture(scope="module", params=["product_bump", "fiber_cubic", "skew_bump"])
def ref(request):
    # skew_bump is the one shape whose warp is not symmetric along the base
    return build_reference(ModelSpec.make(2, 1, 0.2, request.param, 64, 64))


@pytest.mark.parametrize("solve", [solve_spr, solve_ske], ids=["spr", "ske"])
def test_streamed_stages_are_the_reference_cell_bit_for_bit(ref, solve, fine_blocks):
    # each stage forms its fields in row blocks and reduces them as it
    # goes, with the bits of the whole field: under the default budget,
    # which holds a 64^2 field in one block, and then under the fine one
    for fine in (False, True):
        if fine:
            fine_blocks(ref.grid)
        fiber = solve(ref)
        rows = ref.grid.n_fiber + 1
        assert np.array_equal(ref.vertical_rows(0, rows), reference.vertical_fs(ref))
        assert np.array_equal(ref.base_rows(0, rows), reference.base_fs(ref))
        u, rho, residual, defect = getattr(reference, fiber.kind)(ref)[:4]
        assert np.array_equal(reference.full_metric(ref.grid, fiber), u)
        assert np.array_equal(fiber.rho, rho)
        assert (fiber.residual_sup, fiber.volume_defect) == (residual, defect)
        audit = verify_fiber_family(ref, fiber)
        assert (audit.forward_residual_sup, audit.positivity_margin,
                audit.weight_forward_sup) == reference.audit(ref, fiber)
        # both routes
        fam = volume_family_from_sections(ref, SectionFamilySpec.canonical(ref.consts), fiber)
        ric_defect, log_norm, wp_fs = reference.sections(ref, fiber)
        assert fam.ric_defect == ric_defect
        assert np.array_equal(fam.smooth_log_norm, log_norm)
        assert np.array_equal(wp_from_sections(ref, fam).wp_fs, wp_fs)
        wp = wp_from_residual(ref, fiber)
        defect, ff_sup, fb_sup, bb_lo, bb_hi, wp_fs = reference.pullback_residual(ref, fiber)
        assert (wp.verticality_defect, wp.residual.ff_sup, wp.residual.fb_sup) == (
            defect, ff_sup, fb_sup)
        for got, want in ((wp.residual.bb_lo, bb_lo), (wp.residual.bb_hi, bb_hi),
                          (wp.wp_fs, wp_fs)):
            assert np.array_equal(got, want)
        # G', its adjoint sums and the descent of G from its extremes
        gp = compute_gprime(ref, fiber)
        rep = check_g_descends(ref, fiber, gp)
        gprime, adjoint, oscillation, pullback = reference.gprime(ref, fiber)
        assert np.array_equal(gp.gprime, gprime)
        assert (gp.adjoint_defect, rep.vertical_oscillation, rep.pullback_defect) == (
            adjoint, oscillation, pullback)


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

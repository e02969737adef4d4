"""The stages that stream a fiber family over row blocks: what each holds
at its peak, and that a NaN anywhere in its input reaches its result or
its gate."""

import dataclasses
import math

import numpy as np
import pytest

from fanofib import calculus, fiberwise
from fanofib.basespace import check_g_descends, compute_gprime
from fanofib.errors import FanofibError
from fanofib.fiberwise import (SKE, SPR, solve_ske, solve_spr,
                               verify_fiber_family)
from fanofib.pipeline import PipelineConfig, run_pipeline
from fanofib.wpform import (SectionFamilySpec, volume_family_from_sections,
                            wp_from_residual)
from conftest import peak_fields

# ---------------------------------------------------------------------------
# memory: peaks above the live set, in nodal fields, at 256^2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("solve", [solve_spr, solve_ske], ids=["spr", "ske"])
def test_fiber_solve_holds_its_outputs_and_three_fields(ref_256, solve):
    # u and rho, the source and the solution of the Poisson recovery, and
    # for the Einstein family first the dense Newton matrices, freed before
    # the recovery: 3.14 fields either way
    assert peak_fields(solve, ref_256) <= 4.5


@pytest.mark.parametrize("kind", [SPR, SKE])
def test_fiber_audit_holds_row_blocks(ref_256, families_256, kind):
    # log u on halo slices only: 0.41 (spr) and 0.47 (ske) fields
    assert peak_fields(verify_fiber_family, ref_256, families_256[kind]) <= 1.5


@pytest.mark.parametrize("kind", [SPR, SKE])
def test_wp_residual_holds_log_u_and_r_bb(ref_256, families_256, kind):
    # log u plus a few row blocks: 1.44 fields; r_bb is reduced, its fiber
    # average included, as it is formed.  r_bb held whole made it 2.43, and
    # every channel formed in full about 10
    assert peak_fields(wp_from_residual, ref_256, families_256[kind]) <= 1.5


@pytest.mark.parametrize("kind", [SPR, SKE])
def test_sections_route_holds_its_log_density(ref_256, families_256, kind):
    # smooth_log, which it forms, plus a few row blocks: 1.26 (ske) and
    # 1.32 (spr) fields; exp(smooth_log) formed in full for the fiber
    # integrals made it 2.02
    sfs = SectionFamilySpec.canonical(ref_256.consts)
    assert peak_fields(volume_family_from_sections, ref_256, sfs,
                       families_256[kind]) <= 1.5


@pytest.mark.parametrize("kind", [SPR, SKE])
def test_g_descent_holds_row_blocks(ref_256, families_256, kind):
    fiber = families_256[kind]
    gprime = compute_gprime(ref_256, fiber)
    assert peak_fields(check_g_descends, ref_256, fiber, gprime) <= 0.5


def test_run_peak_is_at_most_six_fields():
    # the reference's two fields (Omega and the warp potential) and the
    # family's two are live through a cell; the largest stage adds about
    # 1.4 (5.4 in all; 8.5 with omega0's densities and r_bb held whole,
    # 17.1 with every residual channel formed in full)
    cfg = PipelineConfig(warp_amplitude=0.2, warp_shape="fiber_cubic",
                         grids=((512, 512),), pipeline="both")
    assert peak_fields(run_pipeline, cfg) <= 6.0


# ---------------------------------------------------------------------------
# NaN reaches every streamed gate
# ---------------------------------------------------------------------------

GRID = 64   # 65 rows: sixteen blocks of four rows and a last one of one


def _rows():
    """A row in the first block, the first row of the second block (a
    halo row of the first), and the last row."""
    blocks = list(calculus._row_blocks(0, GRID + 1, GRID + 1))
    assert len(blocks) > 2
    return [0, blocks[1][0], GRID]


def _nan_or_gate(call, read) -> bool:
    """True if ``call()`` raises a FanofibError or ``read`` of its result
    is NaN."""
    try:
        result = call()
    except FanofibError:
        return True
    return math.isnan(read(result))


@pytest.mark.parametrize("row", _rows(), ids=["first block", "halo row", "last block"])
@pytest.mark.parametrize("kind, field", [(SPR, "vertical_fs"), (SKE, "vertical_fs"),
                                         (SKE, "rho")])
def test_one_nan_reaches_every_streamed_stage(ref_c, spr_c, ske_c, kind, field, row):
    good = spr_c if kind == SPR else ske_c
    values = getattr(good, field).copy()
    values[row, 7] = np.nan
    bad = dataclasses.replace(good, **{field: values})
    stages = {
        "verify_fiber_family": (lambda: verify_fiber_family(ref_c, bad),
                                lambda rep: rep.forward_residual_sup),
        "wp_from_residual": (lambda: wp_from_residual(ref_c, bad),
                             lambda wp: wp.verticality_defect),
    }
    if kind == SKE:
        stages["volume_family_from_sections"] = (
            lambda: volume_family_from_sections(
                ref_c, SectionFamilySpec.canonical(ref_c.consts), bad),
            lambda fam: fam.ric_defect)
    if field == "vertical_fs":
        gprime = compute_gprime(ref_c, good)
        stages["check_g_descends"] = (
            lambda: check_g_descends(ref_c, bad, gprime),
            lambda rep: float(np.max([rep.vertical_oscillation,
                                      rep.pullback_defect])))
    missed = [name for name, (call, read) in stages.items()
              if not _nan_or_gate(call, read)]
    assert not missed


@pytest.mark.parametrize("row", _rows(), ids=["first block", "halo row", "last block"])
def test_one_nan_in_the_poisson_solution_fails_the_spr_solve(ref_c, monkeypatch, row):
    # the streamed residual check reads the NaN, and the metric's
    # positivity gate raises on it
    real = fiberwise.solve_poisson_1d

    def with_nan(grid, axis_name, rhs_fs):
        v = real(grid, axis_name, rhs_fs)
        v[row, 7] = np.nan
        return v

    monkeypatch.setattr(fiberwise, "solve_poisson_1d", with_nan)
    with pytest.raises(FanofibError, match="not finite"):
        solve_spr(ref_c)


def test_a_nan_in_the_einstein_newton_solution_fails_the_ske_solve(ref_c, monkeypatch):
    # without the gate, the Poisson recovery would raise a ValueError and
    # end the run in a traceback instead of exit 2
    real = fiberwise._ske_single_fiber

    def with_nan(*args):
        v, result = real(*args)
        v = v.copy()
        v[3] = np.nan
        return v, result

    monkeypatch.setattr(fiberwise, "_ske_single_fiber", with_nan)
    with pytest.raises(FanofibError, match="not finite"):
        solve_ske(ref_c)

"""The stages that stream a fiber family over row blocks: what each holds
at its peak, and that a NaN anywhere in their input reaches their result
or their gate."""

import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from fanofib import calculus, fiberwise, pipeline
from fanofib.basespace import check_g_descends, compute_gprime
from fanofib.errors import FanofibError, PositivityError
from fanofib.fiberwise import (SKE, SPR, solve_ske, solve_spr,
                               verify_fiber_family)
from fanofib.model import ModelSpec, build_reference
from fanofib.pipeline import PipelineConfig, run_pipeline
from fanofib.wpform import (SectionFamilySpec, volume_family_from_sections,
                            wp_from_residual)
from conftest import _field_bytes, peak_fields
from reference import full_metric

# ---------------------------------------------------------------------------
# memory: peaks above the live set, in nodal fields, at 256^2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("solve", [solve_spr, solve_ske], ids=["spr", "ske"])
def test_fiber_solve_holds_its_outputs_and_three_fields(ref_256, solve, fine_blocks):
    # u and rho, the Poisson recovery's source, which the solve overwrites
    # with rho, and row blocks: 2.27 (spr) and 1.29 (ske) fields, set by
    # the recovery; the Einstein metric is one column.
    # A recovery that kept its source beside the solution read 3.14
    fine_blocks(ref_256.grid)
    assert peak_fields(solve, ref_256) <= 4.5


@pytest.mark.parametrize("shape", [(256, 256), (64, 2048)], ids=["256x256", "64x2048"])
def test_einstein_solve_holds_no_metric_field(ref_256, shape, fine_blocks):
    # rho, whose source varies along the base, is the one field; the metric
    # is one column: 1.29 fields at both shapes, against 2.30 and 2.31 with
    # the column repeated along the base.  On 2048x64 the slabs of L set
    # the peak either way (3.18), so that shape is not bounded here
    ref = ref_256 if shape == (256, 256) else build_reference(
        ModelSpec.make(2, 1, 0.2, "fiber_cubic", *shape))
    fine_blocks(ref.grid)
    assert peak_fields(solve_ske, ref) <= 1.5


@pytest.mark.parametrize("kind", [SPR, SKE])
def test_fiber_audit_holds_row_blocks(ref_256, families_256, kind, fine_blocks):
    # log u on halo slices only: 0.28 (spr) and 0.26 (ske) fields
    fine_blocks(ref_256.grid)
    assert peak_fields(verify_fiber_family, ref_256, families_256[kind]) <= 1.5


@pytest.mark.parametrize("kind", [SPR, SKE])
def test_wp_residual_holds_log_u_and_r_bb(ref_256, families_256, kind, fine_blocks):
    # row blocks, log u on the rows each block reads: 0.52 (spr) and 0.44
    # (ske) fields, a third of it numpy's fixed-size buffers for the
    # transposed base-axis stencils.  log u held whole made it 1.44, r_bb
    # held whole too 2.43, and every channel formed in full about 10
    fine_blocks(ref_256.grid)
    assert peak_fields(wp_from_residual, ref_256, families_256[kind]) <= 1.5


@pytest.mark.parametrize("kind", [SPR, SKE])
def test_sections_route_holds_its_log_density(ref_256, families_256, kind, fine_blocks):
    # row blocks, smooth_log formed on the rows each block reads: 0.39
    # (spr) and 0.33 (ske) fields.  smooth_log held whole made it 1.32 and
    # 1.26, and exp(smooth_log) formed in full for the fiber integrals 2.02
    fine_blocks(ref_256.grid)
    sfs = SectionFamilySpec.canonical(ref_256.consts)
    assert peak_fields(volume_family_from_sections, ref_256, sfs,
                       families_256[kind]) <= 1.5


@pytest.mark.parametrize("kind", [SPR, SKE])
def test_g_descent_holds_row_blocks(ref_256, families_256, kind):
    # G's extremes come from the pass of G', so the descent holds base
    # profiles only: 0.01 fields for both families, against 0.20 (spr) and
    # 0.27 (ske) when it re-formed the volume's row blocks
    fiber = families_256[kind]
    gprime = compute_gprime(ref_256, fiber)
    assert peak_fields(check_g_descends, ref_256, fiber, gprime) <= 0.05


RUN_512 = PipelineConfig(warp_amplitude=0.2, warp_shape="fiber_cubic",
                         grids=((512, 512),), pipeline="both")


def test_run_peak_is_at_most_four_and_a_half_fields():
    # the reference's two fields (Omega and the warp potential) and the
    # family's two are live through a cell; the largest stage adds about
    # 0.4 of row blocks (4.42 in all; 5.36 with the Poisson recovery's
    # source, log u, smooth_log and Omega' held whole, 8.5 with omega0's
    # densities and r_bb held whole too, 17.1 with every residual channel
    # formed in full)
    assert peak_fields(run_pipeline, RUN_512) <= 4.5


def _stage_peaks(monkeypatch, config) -> dict:
    """Run ``config`` with every function that ``pipeline`` imports from
    the package wrapped and rebound, as the benchmark's span tracer
    rebinds them.  Returns, per stage, the memory live when it was entered
    (above the memory live before the run) and its tracemalloc peak above
    that, in nodal fields, for the call with the highest sum."""
    peaks, frames = {}, []

    def fold():
        # the peak since the last reset counts for every open stage
        top = tracemalloc.get_traced_memory()[1]
        for frame in frames:
            frame[1] = max(frame[1], top)
        tracemalloc.reset_peak()

    def wrap(name, fn):
        def stage(*args, **kwargs):
            fold()
            live = tracemalloc.get_traced_memory()[0]
            frames.append([live, live])
            try:
                return fn(*args, **kwargs)
            finally:
                fold()
                live, top = frames.pop()
                if top > sum(peaks.get(name, (0, 0))) + start:
                    peaks[name] = (live - start, top - live)
        return stage

    for name, value in list(vars(pipeline).items()):
        if inspect.isfunction(value) and value.__module__ != pipeline.__name__:
            monkeypatch.setattr(pipeline, name, wrap(name, value))
        elif inspect.ismodule(value) and value.__name__.startswith("fanofib."):
            for attr, fn in list(vars(value).items()):
                if inspect.isfunction(fn) and fn.__module__ == value.__name__:
                    monkeypatch.setattr(value, attr, wrap(attr, fn))
    field = _field_bytes([config])
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    try:
        run_pipeline(config)
    finally:
        tracemalloc.stop()
    return {name: (live / field, above / field)
            for name, (live, above) in peaks.items()}


def test_no_stage_holds_more_than_half_a_field_beyond_reference_and_family(
        monkeypatch):
    # measured at 512^2, live set + peak above it, in fields: the reference
    # and the family are the 4.03-4.08 live through a family's later
    # stages; wp_from_residual 4.05 + 0.36, volume_family_from_sections
    # 4.03 + 0.34, verify_fiber_family 4.04 + 0.25, compute_gprime 4.05 +
    # 0.20 (it takes G's extremes for check_g_descends, 4.06 + 0.01), the
    # rest of a cell less than 0.1 above its live set; solve_spr and
    # solve_ske 2.03 + 2.19 and 2.06 + 1.20 with their output fields,
    # build_reference 0.00 + 2.57 with its two.  Before the Poisson
    # recovery's source, log u, smooth_log and Omega' were streamed, ten
    # stages reached 5.10-5.36
    peaks = _stage_peaks(monkeypatch, RUN_512)
    assert {"build_reference", "solve_spr", "solve_ske", "wp_from_residual",
            "check_base_identity"} <= set(peaks)
    over = {name: (round(live, 2), round(above, 2))
            for name, (live, above) in peaks.items() if live + above > 4.5}
    assert not over, f"stages (live set, peak above it) above 4.5 fields: {over}"


# ---------------------------------------------------------------------------
# NaN reaches every streamed gate
# ---------------------------------------------------------------------------

GRID = 64   # 65 rows: with fine_blocks, sixteen blocks of four rows and a last one
ROWS = [0, 4, GRID, 3]   # rows 4 and 3 are halo rows of blocks one and two
ROW_IDS = ["first block", "halo row", "last block", "last row of block one"]


def _nan_or_gate(call, read) -> bool:
    """True if ``call()`` raises a FanofibError or ``read`` of its result
    is NaN."""
    try:
        result = call()
    except FanofibError:
        return True
    return math.isnan(read(result))


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
@pytest.mark.parametrize("kind, field", [(SPR, "vertical_fs"), (SKE, "vertical_fs"),
                                         (SKE, "rho"), (SKE, "vertical_fs column")])
def test_one_nan_reaches_every_streamed_stage(ref_c, spr_c, ske_c, kind, field, row,
                                              fine_blocks):
    fine_blocks(ref_c.grid)
    assert next(calculus._row_blocks(0, GRID + 1, GRID + 1)) == (0, ROWS[1])
    good = spr_c if kind == SPR else ske_c
    if field == "vertical_fs column":
        # the NaN in the one column of solve_ske's metric
        field, values = "vertical_fs", good.vertical_fs.copy()
        values[row] = np.nan
    else:
        # a NaN at one node of the field, the Einstein metric materialized
        values = (full_metric(ref_c.grid, good) if field == "vertical_fs"
                  else getattr(good, field).copy())
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
    # the descent is read from the pass of G', formed from the bad family
    stages["check_g_descends"] = (
        lambda: check_g_descends(ref_c, bad, compute_gprime(ref_c, bad)),
        lambda rep: float(np.max([rep.vertical_oscillation,
                                  rep.pullback_defect])))
    missed = [name for name, (call, read) in stages.items()
              if not _nan_or_gate(call, read)]
    assert not missed
    if field == "rho":
        # the streamed twisted volume Omega' is NaN there
        with pytest.raises(PositivityError, match="twisted volume form"):
            compute_gprime(ref_c, bad)


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_one_nan_in_the_poisson_solution_fails_the_spr_solve(ref_c, monkeypatch, row,
                                                              fine_blocks):
    # the streamed residual check reads the NaN, and the metric's
    # positivity gate raises on it
    fine_blocks(ref_c.grid)
    real = fiberwise.solve_poisson_1d

    def with_nan(grid, axis_name, rhs_fs, **kwargs):
        v = real(grid, axis_name, rhs_fs, **kwargs)
        v[row, 7] = np.nan
        return v

    monkeypatch.setattr(fiberwise, "solve_poisson_1d", with_nan)
    with pytest.raises(FanofibError, match="not finite"):
        solve_spr(ref_c)


def test_a_nan_in_the_einstein_newton_solution_fails_the_ske_solve(ref_c, monkeypatch):
    # without the gate, the Poisson recovery would raise a ValueError and
    # end the run in a traceback instead of exit 2
    real = fiberwise.newton_semilinear

    def with_nan(*args, **kwargs):
        result = real(*args, **kwargs)
        result.x[3] = np.nan
        return result

    monkeypatch.setattr(fiberwise, "newton_semilinear", with_nan)
    with pytest.raises(FanofibError, match="not finite"):
        solve_ske(ref_c)

"""The stages that stream a fiber family over row blocks: what each holds
at its peak, and that a NaN anywhere in their input reaches their result
or their gate."""

import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from fanofib import calculus, fiberwise, model, pipeline
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
# memory: peaks above the live set, in nodal fields
# ---------------------------------------------------------------------------


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
def test_g_descent_holds_row_blocks(ref_256, families_256, kind):
    # G's extremes come from the pass of G', so the descent holds base
    # profiles only: 0.01 fields for both families, against 0.20 (spr) and
    # 0.27 (ske) when it re-formed the volume's row blocks
    fiber = families_256[kind]
    gprime = compute_gprime(ref_256, fiber)
    assert peak_fields(check_g_descends, ref_256, fiber, gprime) <= 0.05


RUN_512 = PipelineConfig(warp_amplitude=0.2, warp_shape="fiber_cubic",
                         grids=((512, 512),), pipeline="both")


def _stage_peaks(monkeypatch, config) -> tuple:
    """Run ``config`` once under tracemalloc, with every function that
    ``pipeline`` imports from the package wrapped and rebound, as the
    benchmark's span tracer rebinds them.  Returns, in nodal fields, the
    run's peak above the memory live before it and, per stage, the memory
    live when it was entered (above that start) and its peak above that,
    for the call with the highest sum, and its largest peak above its live
    set over all of its calls."""
    peaks, most, frames = {}, {}, []

    def fold():
        # the peak since the last reset counts for every open stage and the run
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
                most[name] = max(most.get(name, 0), top - live)
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
    frames.append([start, start])   # the run's own frame
    try:
        run_pipeline(config)
        fold()
    finally:
        tracemalloc.stop()
    return (frames.pop()[1] - start) / field, {
        name: (live / field, above / field, most[name] / field)
        for name, (live, above) in peaks.items()}


def test_one_traced_run_bounds_the_run_and_every_stage(monkeypatch):
    # measured at 512^2, in fields: the run peaks at 2.41, the family's two
    # fields live through a cell.  Live set + peak above it: wp_from_residual
    # 2.05 + 0.36, volume_family_from_sections 2.04 + 0.34, compute_gprime
    # 2.06 + 0.26 (0.32 on its largest call), verify_fiber_family 2.04 +
    # 0.25, build_reference 0.00 + 0.57, the rest under 0.1 above the live
    # set.  The fiber solves, 0.03 + 2.20 (spr) and 0.06 + 1.20 (ske), hold
    # the family they return, so only the sum bounds them
    run, peaks = _stage_peaks(monkeypatch, RUN_512)
    assert run <= 2.5
    assert {"build_reference", "solve_spr", "solve_ske", "verify_fiber_family",
            "wp_from_residual", "volume_family_from_sections", "compute_gprime",
            "check_base_identity"} <= set(peaks)
    over = {name: (round(live, 2), round(above, 2))
            for name, (live, above, _) in peaks.items() if live + above > 2.5}
    assert not over, f"stages (live set, peak above it) above 2.5 fields: {over}"
    held = {name: round(above, 2) for name, (_, _, above) in peaks.items()
            if above > 1.5 and name not in ("solve_spr", "solve_ske")}
    assert not held, f"stages with a peak above their live set over 1.5 fields: {held}"


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
    with pytest.raises(PositivityError, match="^prescribed-Ricci fiber metric: density "
                       "not finite") as err:
        solve_spr(ref_c)
    assert math.isnan(err.value.worst)


def test_one_nan_in_the_warp_fails_the_reference_volume(monkeypatch, fine_blocks):
    # a NaN at one node of P reaches the volume density's rows there, in a
    # block after the first.  Of omega0's entries only the base one reads P,
    # so it is formed without the NaN, which would fail omega0's positivity
    # first, and the normalization's row sums skip the NaN, so that
    # C stays finite and the NaN stays in its block: the streamed extremes
    # must keep it, where Python's min and max would drop it
    row = GRID // 2
    spec = ModelSpec.make(2, 1, 0.2, "fiber_cubic", GRID, GRID)
    fine_blocks(spec)
    assert next(calculus._row_blocks(0, GRID + 1, GRID + 1))[1] <= row
    real_warp, real_rows = model._warp_data, model._simpson_rows
    real_base = model.ReferenceGeometry.base_rows

    def planted(grid, spec):
        w = real_warp(grid, spec)
        w.P[row] = np.nan
        return w

    monkeypatch.setattr(model, "_warp_data", planted)
    monkeypatch.setattr(model.ReferenceGeometry, "base_rows", lambda self, lo, hi: (
        np.nan_to_num(real_base(self, lo, hi), nan=float(self.spec.a))))
    monkeypatch.setattr(model, "_simpson_rows", lambda grid, block: real_rows(
        grid, np.nan_to_num(block, nan=0.0)))
    with pytest.raises(PositivityError, match="reference volume form") as err:
        build_reference(spec)
    assert math.isnan(err.value.worst)


def test_a_nan_in_the_einstein_newton_solution_fails_the_ske_solve(ref_c, monkeypatch):
    # without the gate, the Poisson recovery would raise a ValueError and
    # end the run in a traceback instead of exit 2
    real = fiberwise.newton_semilinear

    def with_nan(*args, **kwargs):
        result = real(*args, **kwargs)
        result.x[3] = np.nan
        return result

    monkeypatch.setattr(fiberwise, "newton_semilinear", with_nan)
    with pytest.raises(PositivityError, match="^Einstein fiber metric: density "
                       "not finite") as err:
        solve_ske(ref_c)
    assert math.isnan(err.value.worst)

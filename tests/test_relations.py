"""Relations between runs: the base mirror x_b -> 1 - x_b.

The warps ``fiber_cubic`` and ``product_bump`` have the symmetric base
factor Q(x) = x - x^2, so the base mirror maps their models to
themselves, and every base profile a run emits is its own reverse, x_b
its own mirror about 1/2.  A base factor that is not symmetric, such as
Q(x) = x^2 - x^3, is mapped to Q(1 - x), so the run of one emits the
profiles of the other reversed.  The relation needs no oracle: a fault at
one end of the base axis, in one end row or in the last row block breaks
it while each of the run's own checks may still pass.
"""

import numpy as np
import pytest

from fanofib import model
from fanofib.grids import Grid
from fanofib.pipeline import PipelineConfig, run_pipeline

MIRROR_TOL = 1e-13      # relative to the profile's maximum; 2.1e-14 measured
                        # worst, on rho_Bprime
# roundoff fields with no mirror to keep
ROUNDOFF_PROFILES = {"tke_B_residual", "tke_Bprime_residual"}


def _mirror_gaps(report, mirror=None, scale_by=None) -> dict:
    """Each emitted profile's gap from its base mirror, the reverse of the
    same profile of the ``mirror`` run (by default the run itself):
    |x + reverse(x) - 1| for x_b, for any other profile its largest
    difference from the reverse over its largest magnitude, or over that
    of the profile ``scale_by`` names for it; by (family, grid, profile)."""
    mirror = report if mirror is None else mirror
    scale_by = scale_by or {}
    gaps = {}
    for (kind, grid), columns in report.profiles.items():
        for name, v in columns.items():
            if name in ROUNDOFF_PROFILES:
                continue
            v = np.asarray(v)
            w = np.asarray(mirror.profiles[kind, grid][name])[::-1]
            if name == "x_b":
                gap = np.abs(v + w - 1.0).max()
            else:
                scale = np.asarray(columns[scale_by.get(name, name)])
                gap = np.abs(v - w).max() / np.abs(scale).max()
            gaps[(kind, grid, name)] = float(gap)
    return gaps


def _run(shape, a, c, grids):
    return run_pipeline(PipelineConfig(a=a, c=c, warp_amplitude=0.2,
                                       warp_shape=shape, grids=grids,
                                       pipeline="both"))


@pytest.mark.parametrize("a, c", [(2, 1), (3, 2)])
@pytest.mark.parametrize("shape", ["fiber_cubic", "product_bump"])
def test_symmetric_warp_emits_palindromic_profiles(shape, a, c):
    report = _run(shape, a, c, ((64, 64), (128, 128)))
    assert report.passed
    gaps = _mirror_gaps(report)
    # both families on both grids, every profile but the roundoff fields
    assert len(gaps) == 2 * 2 * 7
    broken = {key: gap for key, gap in gaps.items() if not gap <= MIRROR_TOL}
    assert not broken


@pytest.mark.parametrize("a, c", [(2, 1), (3, 2)])
def test_skew_warp_and_its_mirror_emit_reversed_profiles(monkeypatch, a, c):
    # fiber_cubic's P with Q = x^2 - x^3, and with its mirror Q(1 - x) =
    # x - 2x^2 + x^3.  The two runs sum along the base in opposite orders,
    # so the Einstein family's G' may differ in its last bits (1.6e-15
    # measured, the worst gap).  The base potentials solve L_b rho = khat
    # (G' e^rho - 1) and are 1e-4 of G', so those bits move them by
    # 2.8e-16, 1.1e-12 of their own maximum: their gaps are taken against
    # the maximum of G'
    P = model.WARP_SHAPES["fiber_cubic"][0]
    monkeypatch.setitem(model.WARP_SHAPES, "skew_q", (P, np.array([-1.0, 1.0, 0.0, 0.0])))
    monkeypatch.setitem(model.WARP_SHAPES, "skew_q_mirror",
                        (P, np.array([1.0, -2.0, 1.0, 0.0])))
    grids = ((64, 64), (128, 128))
    report, mirror = (_run(shape, a, c, grids) for shape in ("skew_q", "skew_q_mirror"))
    assert report.passed and mirror.passed
    gaps = _mirror_gaps(report, mirror, dict.fromkeys(("rho_B", "rho_Bprime"), "gprime"))
    assert len(gaps) == 2 * 2 * 7
    broken = {key: gap for key, gap in gaps.items() if not gap <= MIRROR_TOL}
    assert not broken
    # the pair is no symmetric warp: each run's profiles are not their own reverse
    assert max(_mirror_gaps(report).values()) > 1e-3


def test_base_mirror_sees_a_fault_every_record_passes(monkeypatch):
    # g' = 1.001 - 2x is odd about no node: the run's own records all pass
    # at 64^2, while rho_B leaves its mirror by 4.5e-3
    monkeypatch.setattr(Grid, "gp_b", property(lambda g: 1.001 - 2.0 * g.nodes_b))
    report = _run("fiber_cubic", 2, 1, ((64, 64),))
    assert report.passed
    gaps = _mirror_gaps(report)
    assert gaps[("spr", (64, 64), "rho_B")] > 1e-3
    assert not all(gap <= MIRROR_TOL for gap in gaps.values())

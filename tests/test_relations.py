"""Relations between runs: the base mirror x_b -> 1 - x_b.

The warps ``fiber_cubic`` and ``product_bump`` have the symmetric base
factor Q(x) = x - x^2, so the base mirror maps their models to
themselves, and every base profile a run emits is its own reverse, x_b
its own mirror about 1/2.  The relation needs no oracle: a fault at one
end of the base axis, in one end row or in the last row block breaks it
while each of the run's own checks may still pass.
"""

import numpy as np
import pytest

from fanofib.grids import Grid
from fanofib.pipeline import PipelineConfig, run_pipeline

MIRROR_TOL = 1e-13      # relative to the profile's maximum; 2.1e-14 measured
                        # worst, on rho_Bprime
# roundoff fields with no mirror to keep
ROUNDOFF_PROFILES = {"tke_B_residual", "tke_Bprime_residual"}


def _mirror_gaps(report) -> dict:
    """Each emitted profile's gap from its base mirror: |x + reverse(x) - 1|
    for x_b, for any other profile its largest difference from its
    reverse over its largest magnitude; by (family, grid, profile)."""
    gaps = {}
    for (kind, grid), columns in report.profiles.items():
        for name, v in columns.items():
            if name in ROUNDOFF_PROFILES:
                continue
            v = np.asarray(v)
            if name == "x_b":
                gap = np.abs(v + v[::-1] - 1.0).max()
            else:
                gap = np.abs(v - v[::-1]).max() / np.abs(v).max()
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


def test_base_mirror_sees_a_fault_every_record_passes(monkeypatch):
    # g' = 1.001 - 2x is odd about no node: the run's own records all pass
    # at 64^2, while rho_B leaves its mirror by 4.5e-3
    monkeypatch.setattr(Grid, "gp_b", property(lambda g: 1.001 - 2.0 * g.nodes_b))
    report = _run("fiber_cubic", 2, 1, ((64, 64),))
    assert report.passed
    gaps = _mirror_gaps(report)
    assert gaps[("spr", (64, 64), "rho_B")] > 1e-3
    assert not all(gap <= MIRROR_TOL for gap in gaps.values())

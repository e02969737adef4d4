import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanofib import calculus, fiberwise, solvers
from fanofib.calculus import TWO_PI, lap, lap_bands, simpson_columns
from fanofib.errors import ContractViolation, NonConvergence, SolvabilityError
from fanofib.fiberwise import solve_ske, solve_spr, verify_fiber_family
from fanofib.grids import FIBER
from fanofib.model import ModelSpec, build_reference
from fanofib.solvers import BandedMatrix, NewtonResult, probe_jacobian
from conftest import peak_fields
from reference import BB, dense_lap, fs_density, fs_form, vertical_fs


def test_spr_model_a_is_reference(ref_a, spr_a):
    # KE fibers: the linear solve has zero source, everything stays put
    assert np.abs(spr_a.rho).max() == 0.0
    assert np.abs(spr_a.vertical_fs - 1.0).max() == 0.0
    assert spr_a.residual_sup == 0.0
    assert spr_a.volume_defect == 0.0


def test_recovery_gate_sees_a_real_incompatibility(ref_c, spr_c):
    # u off its class volume by 1e-6: u - m0 integrates to 2 pi 1e-6 c per
    # column, 2.5e-5 of the gate's scale sup|g u| + sup|g m0| = c/2
    u = spr_c.vertical_fs * (1.0 + 1e-6)
    with pytest.raises(SolvabilityError):
        fiberwise._recover_potential(ref_c, u)


def test_spr_model_b_forward_residual(ref_b, spr_b):
    audit = verify_fiber_family(ref_b, spr_b)
    h2 = (1.0 / 64)**2
    assert audit.forward_residual_sup < 50.0 * h2
    assert spr_b.residual_sup < 1e-12
    assert audit.positivity_margin > 0.0


def test_spr_volume_enforced_and_remeasured(ref_b, spr_b):
    c = float(ref_b.spec.c)
    vols = TWO_PI * simpson_columns(ref_b.grid, spr_b.vertical_fs)
    assert np.abs(vols - TWO_PI * c).max() / (TWO_PI * c) < 1e-10


def test_spr_uniqueness_under_regauged_reference(ref_b, spr_b):
    # shifting the metric weight by a constant must not move the family
    ref2 = build_reference(ref_b.spec)
    weight_rows = ref2.weight_rows
    ref2.weight_rows = lambda lo, hi: weight_rows(lo, hi) + 0.73
    spr2 = solve_spr(ref2)
    assert np.array_equal(spr_b.vertical_fs, spr2.vertical_fs)


def test_spr_class_restriction_is_poisson_compatible(ref_b):
    # the source of the linear fiber problem integrates to zero exactly
    lam = float(ref_b.consts.lam)
    rhs_fs = 2.0 - lam * vertical_fs(ref_b)
    defects = simpson_columns(ref_b.grid, rhs_fs)
    assert np.abs(defects).max() < 1e-14


def test_ske_model_a_is_reference(ref_a, ske_a):
    assert np.abs(ske_a.rho).max() == 0.0
    assert np.abs(ske_a.vertical_fs - 1.0).max() == 0.0
    # at c = 1 the start v = 0 makes L @ v exact: a residual of 0.0, so
    # Newton returns its start without a step
    assert ske_a.residual_sup == 0.0


def test_ske_model_b(ref_b, ske_b):
    audit = verify_fiber_family(ref_b, ske_b)
    # the Einstein metrics on curve fibers are exactly representable, so
    # the forward residual sits at roundoff; the weight check carries the
    # genuine truncation
    assert audit.forward_residual_sup < 1e-10
    assert ske_b.volume_defect < 1e-10
    assert np.abs(ske_b.rho).max() > 1e-4          # nontrivial potential
    assert audit.weight_forward_sup is not None


def test_ske_family_smooth_along_base(ref_b, ske_b):
    # discrete base derivative of the potential stays bounded under refinement
    bounds = []
    for n in (32, 64):
        ref = build_reference(ModelSpec.make(2, 1, warp_amplitude=0.2,
                                             n_fiber=n, n_base=n))
        sol = solve_ske(ref)
        diff = np.abs(np.diff(sol.rho, axis=1)).max() * n
        bounds.append(diff)
    assert bounds[1] < 2.0 * bounds[0] + 1e-6


def test_ske_newton_runs_once_per_fixed_point(ref_c, monkeypatch):
    calls = []
    real = fiberwise.newton_semilinear

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fiberwise, "newton_semilinear", counting)
    solve_ske(ref_c)
    assert len(calls) == 1


def test_ske_takes_no_newton_step(ref_c, monkeypatch):
    # a start moved off the solution is not iterated back: the solve
    # raises at iteration 0, after one residual evaluation at the start
    real = fiberwise.newton_semilinear

    def off_start(residual, jacobian, init, **kwargs):
        init = init + 1e-3 * np.cos(np.pi * np.linspace(0.0, 1.0, init.size))
        return real(residual, jacobian, init, **kwargs)

    monkeypatch.setattr(fiberwise, "newton_semilinear", off_start)
    with pytest.raises(NonConvergence, match="no convergence in 0 iterations") as exc:
        solve_ske(ref_c)
    assert len(exc.value.trace) == 1 and exc.value.trace[0] > solvers.NEWTON_TOL


def _with_einstein_newton_inputs(n_fiber, monkeypatch, check):
    """Call ``check`` with the residual and Jacobian that the Einstein
    Newton receives, while the solve holds them (it frees the slabs when
    Newton returns), a point to take them at (a nontrivial fiber plus
    1e-3 cos(pi x)), lambda and the grid."""
    ref = build_reference(ModelSpec.make(2, 1, 0.2, "fiber_cubic", n_fiber, 16))
    grid = ref.grid
    v = np.log(vertical_fs(ref)[:, 5]) + 1e-3 * np.cos(np.pi * grid.nodes_f)
    checked = []

    def capture(residual, jacobian, init, **kwargs):
        check(residual, jacobian, v, float(ref.consts.lam), grid)
        checked.append(1)
        return NewtonResult(np.array(init), [0.0], 0)

    monkeypatch.setattr(fiberwise, "newton_semilinear", capture)
    solve_ske(ref)
    assert checked == [1]


@pytest.mark.parametrize("n_fiber", [64, 1024])
def test_ske_jacobian_is_the_banded_linearization(n_fiber, monkeypatch):
    def check(residual, jacobian, v, lam, grid):
        J = jacobian(v)
        expected = -lap_bands(grid, FIBER)
        expected[2] -= lam * np.exp(v)
        assert isinstance(J, BandedMatrix) and np.array_equal(J.bands, expected)
        dense = -dense_lap(grid, FIBER) - np.diag(lam * np.exp(v))
        y = np.random.default_rng(13).standard_normal(v.size)
        # relative to |J| |y|, the scale of each entry's rounding: L's
        # entries reach n^2/4
        err = np.abs(J @ y - dense @ y).max()
        assert err <= 1e-12 * (np.abs(dense) @ np.abs(y)).max()
        # the probe accepts it and catches a dropped lam e^v diagonal
        probe_jacobian(residual, jacobian, v)
        dropped = BandedMatrix(-lap_bands(grid, FIBER))
        with pytest.raises(ContractViolation):
            probe_jacobian(residual, lambda _: dropped, v)

    _with_einstein_newton_inputs(n_fiber, monkeypatch, check)


def test_ske_probe_catches_a_corrupted_slab(monkeypatch):
    # at c = 1 the start v = 0 gives L @ v = 0 whatever the slabs hold, so
    # the probe is the run's one check of the slabs against the bands: one
    # diagonal entry of the bands that calculus writes the slabs from, off
    # by 1e-6 of itself, fails the solve.  The Jacobian reads fiberwise's
    # own binding of lap_bands, which stays intact
    real = calculus.lap_bands

    def corrupted(grid, axis_name):
        bands = real(grid, axis_name)
        bands[2, grid.n(axis_name) // 2 + 5] *= 1.0 + 1e-6
        return bands

    ref = build_reference(ModelSpec.make(2, 1, 0.2, "fiber_cubic", 1024, 16))
    assert solve_ske(ref).residual_sup == 0.0
    monkeypatch.setattr(calculus, "lap_bands", corrupted)
    with pytest.raises(ContractViolation, match="Jacobian probe failed"):
        solve_ske(ref)


@pytest.mark.parametrize("n_fiber", [64, 1024])
def test_ske_residual_is_the_dense_formula_bit_for_bit(n_fiber, monkeypatch):
    # the Newton residual applies L by slabs; off the start point it is the
    # dense formula bit for bit, so the exit test stays that of the dense L
    def check(residual, jacobian, v, lam, grid):
        y = v + 1e-4 * np.sin(7.0 * np.arange(v.size))
        dense = 2.0 - dense_lap(grid, FIBER) @ y - lam * np.exp(y)
        got = residual(y)
        assert np.any(got != 0.0)
        assert np.array_equal(got, dense)
        assert np.array_equal(np.signbit(got), np.signbit(dense))

    _with_einstein_newton_inputs(n_fiber, monkeypatch, check)


def _dense_fields(grid):
    """One dense (n_f+1)^2 array, such as the matrix of L, in nodal fields
    of ``grid``."""
    return (grid.n_fiber + 1) / (grid.n_base + 1)


def test_ske_solves_without_the_dense_laplacian():
    # the solve holds 11.8 fields of 1025 x 17 nodes, one dense L 60.3
    ref = build_reference(ModelSpec.make(2, 1, 0.2, "fiber_cubic", 1024, 16))
    assert solve_ske(ref).residual_sup <= 1e-11
    assert peak_fields(solve_ske, ref) < _dense_fields(ref.grid)


def test_ske_defect_raises_at_iteration_0_without_the_dense_laplacian():
    # the known defect einstein_c_ne_1: at a = 3, c = 2 on 512x64 the
    # start's roundoff residual is above the Newton tolerance, and the
    # solve, which takes no step, raises there.  It holds 3.0 fields of
    # 513 x 65 nodes on the way, one dense L 7.9
    ref = build_reference(ModelSpec.make(3, 2, 0.0, n_fiber=512, n_base=64))
    raised = []

    def solve(ref):
        with pytest.raises(NonConvergence, match="no convergence in 0 iterations") as exc:
            solve_ske(ref)
        raised.append(exc.value)

    assert peak_fields(solve, ref) < _dense_fields(ref.grid)
    [err] = raised
    assert len(err.trace) == 1 and err.trace[0] > solvers.NEWTON_TOL


def test_spr_two_gauges_same_metric(ref_b):
    # uniqueness: re-solving from scratch reproduces the vertical metric
    s1, s2 = solve_spr(ref_b), solve_spr(ref_b)
    assert np.array_equal(s1.vertical_fs, s2.vertical_fs)
    assert np.array_equal(s1.rho, s2.rho)


@settings(max_examples=10, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_gauge_shift_never_moves_vertical_data(ref_b, spr_b, s0, s1):
    grid = ref_b.grid
    beta = s0 + s1 * grid.nodes_b**2
    shifted = dataclasses.replace(spr_b, rho=spr_b.rho + beta[None, :])
    assert np.array_equal(shifted.vertical_fs, spr_b.vertical_fs)
    # the log-frame vertical coefficients of the family metrics
    m_shifted, m_ff = (sol.vertical_fs * grid.g_f[:, None] for sol in (shifted, spr_b))
    assert np.array_equal(m_shifted, m_ff)
    # wedges against pulled-back forms only see the vertical channel: the
    # density of M ^ theta is M_ff theta_bb / (g_f g_b)
    theta = fs_form(grid, 0.0, np.full(grid.n_base + 1, ref_b.eta_fs))
    assert np.array_equal(fs_density(grid, m_shifted * theta[BB]),
                          fs_density(grid, m_ff * theta[BB]))


def test_fiber_ricci_identity_on_vertical_metric(ref_b, spr_b):
    # solver-level identity: FS-relative fiber Ricci equals the prescription
    lam = float(ref_b.consts.lam)
    ric_fs = 2.0 - lap(ref_b.grid, np.log(spr_b.vertical_fs), FIBER)
    assert np.abs(ric_fs - lam * vertical_fs(ref_b)).max() < 1e-11

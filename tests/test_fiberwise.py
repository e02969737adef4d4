import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanofib import fiberwise
from fanofib.calculus import TWO_PI, fs_ratio, lap, lap_bands, lap_matrix, simpson_columns
from fanofib.errors import ContractViolation, SolvabilityError
from fanofib.fiberwise import solve_ske, solve_spr, verify_fiber_family
from fanofib.grids import FIBER
from fanofib.model import ModelSpec, build_reference
from fanofib.solvers import BandedMatrix, NewtonResult, probe_jacobian
from forms import BB, fs_form, vertical_fs


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


def test_spr_forward_residual_order():
    errs = []
    for n in (32, 64, 128):
        ref = build_reference(ModelSpec.make(2, 1, warp_amplitude=0.2,
                                             warp_shape="fiber_cubic",
                                             n_fiber=n, n_base=n))
        audit = verify_fiber_family(ref, solve_spr(ref))
        errs.append(audit.forward_residual_sup)
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) > 1.8


def test_spr_uniqueness_under_regauged_reference(ref_b, spr_b):
    # shifting the metric weight by a constant must not move the family
    ref2 = build_reference(ref_b.spec)
    ref2.phi_L.smooth += 0.73
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
    assert audit.exp_l2_diagnostic > 0.0


def test_ske_weight_forward_order():
    errs = []
    for n in (32, 64, 128):
        ref = build_reference(ModelSpec.make(2, 1, warp_amplitude=0.2,
                                             warp_shape="fiber_cubic",
                                             n_fiber=n, n_base=n))
        audit = verify_fiber_family(ref, solve_ske(ref))
        errs.append(audit.weight_forward_sup)
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) > 1.8


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


def _ske_every_fiber(ref, single):
    """The warm-started Einstein family with a Newton solve on every fiber:
    fiber j > 0 starts at, and pins its orbit gauge to, fiber j - 1's
    solution."""
    grid = ref.grid
    lam = float(ref.consts.lam)
    L = lap_matrix(grid, FIBER)
    band = BandedMatrix(lap_bands(grid, FIBER))
    wk = (grid.simpson_f / (3.0 * grid.n_fiber)) * (1.0 - 2.0 * grid.nodes_f)
    v = np.log(vertical_fs(ref))
    residual = 0.0
    for j in range(grid.n_base + 1):
        v0 = v[:, j - 1] if j else v[:, 0]
        v[:, j], result = single(L, band, wk, lam, v0)
        residual = max(residual, result.trace[-1])
    u = np.exp(v)
    u *= (float(ref.spec.c) / simpson_columns(grid, u))[None, :]
    return u, fiberwise._recover_potential(ref, u), residual


def _assert_same_family(sol, oracle):
    u, rho, residual = oracle
    assert np.array_equal(sol.vertical_fs, u)
    assert np.array_equal(sol.rho, rho)
    assert sol.residual_sup == residual


def _perturb_first_start(single):
    """``single`` with the first fiber's start point moved off the solution,
    and the Newton result of every call it makes."""
    results = []

    def wrapped(L, band, wk, lam, v0, *rest):
        if not results:
            v0 = v0 + 1e-3 * np.cos(np.pi * np.linspace(0.0, 1.0, v0.size))
        v, result = single(L, band, wk, lam, v0, *rest)
        results.append(result)
        return v, result

    return wrapped, results


@pytest.mark.parametrize("ref_name", ["ref_b", "ref_c", "ref_a32"])
def test_ske_reuse_matches_a_solve_on_every_fiber(ref_name, request):
    # at c = 2 the start v = log 2 leaves L @ v a nonzero roundoff residual,
    # still below the Newton tolerance, which the broadcast must carry
    ref = request.getfixturevalue(ref_name)
    sol = solve_ske(ref)
    _assert_same_family(sol, _ske_every_fiber(ref, fiberwise._ske_single_fiber))
    if ref_name == "ref_a32":
        assert 0.0 < sol.residual_sup <= 1e-11


def test_ske_newton_runs_once_per_fixed_point(ref_c, monkeypatch):
    calls = []
    real = fiberwise.newton_semilinear

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fiberwise, "newton_semilinear", counting)
    solve_ske(ref_c)
    assert len(calls) == 1


def test_ske_iterating_first_fiber_is_broadcast(ref_c, monkeypatch):
    real, real_newton = fiberwise._ske_single_fiber, fiberwise.newton_semilinear
    wrapped, results = _perturb_first_start(real)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real_newton(*args, **kwargs)

    monkeypatch.setattr(fiberwise, "_ske_single_fiber", wrapped)
    monkeypatch.setattr(fiberwise, "newton_semilinear", counting)
    sol = solve_ske(ref_c)
    # the first fiber iterates, and its solution fills every column: a
    # solve on every fiber starts the second at that solution and
    # reproduces it (in 0 iterations), and so every later one
    assert len(calls) == 1
    assert len(results) == 1 and results[0].iterations > 0
    oracle, oracle_results = _perturb_first_start(real)
    u, rho, _ = _ske_every_fiber(ref_c, oracle)
    assert np.array_equal(sol.vertical_fs, u)
    assert np.array_equal(sol.rho, rho)
    assert oracle_results[0].iterations > 0
    assert not any(r.iterations for r in oracle_results[1:])
    # the residual is the solved fiber's own; the oracle's restarts reset
    # the border multiplier to 0 and read a different roundoff
    assert sol.residual_sup == results[0].trace[-1] <= 1e-11


def _einstein_newton_inputs(n_fiber, monkeypatch):
    """The residual and Jacobian that one fiber's Newton receives, the
    point they are taken at (a nontrivial fiber plus 1e-3 cos(pi x), with
    a nonzero border multiplier) and the dense bordered Jacobian there."""
    ref = build_reference(ModelSpec.make(2, 1, 0.2, "fiber_cubic", n_fiber, 16))
    grid = ref.grid
    lam = float(ref.consts.lam)
    L = lap_matrix(grid, FIBER)
    wk = (grid.simpson_f / (3.0 * grid.n_fiber)) * (1.0 - 2.0 * grid.nodes_f)
    v = np.log(vertical_fs(ref)[:, 5]) + 1e-3 * np.cos(np.pi * grid.nodes_f)
    captured = []

    def capture(residual, jacobian, init, **kwargs):
        captured.append((residual, jacobian))
        return NewtonResult(np.array(init), [], 0)

    monkeypatch.setattr(fiberwise, "newton_semilinear", capture)
    fiberwise._ske_single_fiber(L, BandedMatrix(lap_bands(grid, FIBER)), wk,
                                lam, v)
    (residual, jacobian), = captured
    n = v.size
    dense = np.zeros((n + 1, n + 1))
    dense[:n, :n] = -L - np.diag(lam * np.exp(v))
    dense[:n, n] = 1.0 - 2.0 * np.linspace(0.0, 1.0, n)
    dense[n, :n] = wk
    return residual, jacobian, np.concatenate([v, [0.37]]), dense


@pytest.mark.parametrize("n_fiber", [64, 1024])
def test_ske_jacobian_operator_is_the_dense_bordered_jacobian(n_fiber, monkeypatch):
    residual, jacobian, x, dense = _einstein_newton_inputs(n_fiber, monkeypatch)
    J = jacobian(x)
    rng = np.random.default_rng(13)
    for y in (x, rng.standard_normal(x.size)):
        # relative to |J| |y|, the scale of each entry's rounding: L's
        # entries reach n^2/4 while L v is O(1) on a smooth v
        err = np.abs(J @ y - dense @ y).max()
        assert err <= 1e-12 * (np.abs(dense) @ np.abs(y)).max()
    r = rng.standard_normal(x.size)
    assert np.array_equal(J.solve(r), np.linalg.solve(dense, r))
    # the probe accepts the operator and catches a dropped border column or
    # a dropped lam e^v diagonal
    probe_jacobian(residual, jacobian, x)
    for broken in (dataclasses.replace(J, kvec=np.zeros_like(J.kvec)),
                   dataclasses.replace(J, lam_ev=np.zeros_like(J.lam_ev))):
        with pytest.raises(ContractViolation):
            probe_jacobian(residual, lambda _: broken, x)


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
    assert np.array_equal(fs_ratio(grid, m_shifted * theta[BB]),
                          fs_ratio(grid, m_ff * theta[BB]))


def test_fiber_ricci_identity_on_vertical_metric(ref_b, spr_b):
    # solver-level identity: FS-relative fiber Ricci equals the prescription
    lam = float(ref_b.consts.lam)
    ric_fs = 2.0 - lap(ref_b.grid, np.log(spr_b.vertical_fs), FIBER)
    assert np.abs(ric_fs - lam * vertical_fs(ref_b)).max() < 1e-11

import math

import numpy as np
import pytest

from fanofib.calculus import lap_matrix, simpson
from fanofib.errors import ContractViolation, NonConvergence, SolvabilityError
from fanofib.grids import BASE, FIBER, Grid
from fanofib.solvers import newton_semilinear, probe_jacobian, solve_poisson_1d


def test_poisson_zero_rhs():
    g = Grid(64, 64)
    u = solve_poisson_1d(g, FIBER, np.zeros(65))
    assert np.array_equal(u, np.zeros(65))


def test_poisson_ke_fiber_rhs_is_zero(ref_a):
    # 2 FS - lambda * (fiber part of omega0) vanishes identically on the
    # product model: the fiber problem is trivial
    g = ref_a.grid
    lam = float(ref_a.consts.lam)
    rhs = 2.0 * g.g_f - lam * float(ref_a.spec.c) * g.g_f
    u = solve_poisson_1d(g, FIBER, rhs)
    assert np.abs(u).max() == 0.0


def test_poisson_recovers_bump():
    # forward-apply oracle: source is the invariant Hessian of x(1-x);
    # quadratic data is resolved exactly by the second-order stencils
    for n in (32, 64):
        g = Grid(n, n)
        x = g.nodes_f
        gx = g.g_f
        rhs_fs = (1.0 - 2.0 * x)**2 - 2.0 * gx     # (g p')' for p = x(1-x)
        u = solve_poisson_1d(g, FIBER, rhs_fs * gx, rhs_fs=rhs_fs)
        expect = gx - 1.0 / 6.0
        assert np.abs(u - expect).max() < 1e-13
        assert abs(simpson(g, FIBER, u)) < 1e-13


def test_poisson_second_order_on_transcendental_source():
    # u_true = cos(2 pi x); the source g u'' + g' u' is compatible exactly
    errs = []
    for n in (32, 64):
        g = Grid(n, n)
        x = g.nodes_f
        u_true = np.cos(np.pi * x)
        rhs_fs = (-g.g_f * np.pi**2 * np.cos(np.pi * x)
                  - g.gp_f * np.pi * np.sin(np.pi * x))
        # the exact integral vanishes but its Simpson value is only O(h^4)
        # with a pi^6-sized constant; loosen the compatibility gate
        u = solve_poisson_1d(g, FIBER, rhs_fs * g.g_f, rhs_fs=rhs_fs,
                             tol_factor=1e-4)
        expect = u_true - simpson(g, FIBER, u_true)
        errs.append(np.abs(u - expect).max())
    assert errs[1] < 5.0 * (1.0 / 64)**2
    assert math.log2(errs[0] / errs[1]) > 1.7


def test_poisson_forward_application_reproduces_rhs():
    # for generic smooth data the bordered multiplier absorbs the O(h^2)
    # discrete incompatibility, so forward application is C*h^2 accurate
    resids = []
    for n in (32, 64):
        g = Grid(n, n)
        x = g.nodes_b
        rhs_fs = np.cos(2.0 * np.pi * x) * 0.5
        rhs_fs -= simpson(g, BASE, rhs_fs)
        u = solve_poisson_1d(g, BASE, rhs_fs * g.g_b, rhs_fs=rhs_fs)
        L = lap_matrix(g, BASE)
        resids.append(np.abs(L @ u - rhs_fs).max())
    assert resids[1] < 5.0 * (1.0 / 64)**2
    assert math.log2(resids[0] / resids[1]) > 1.7


def test_poisson_compatibility_violation():
    g = Grid(32, 32)
    rhs_fs = np.ones(33)   # integral 2*pi, grossly incompatible
    with pytest.raises(SolvabilityError) as err:
        solve_poisson_1d(g, FIBER, rhs_fs * g.g_f, rhs_fs=rhs_fs)
    assert abs(err.value.defect) > 1.0


def test_poisson_stacked_columns_match_single():
    g = Grid(32, 32)
    x = g.nodes_f
    fs = np.column_stack([np.sin(2 * np.pi * x) * g.g_f,
                          2.0 * np.sin(2 * np.pi * x) * g.g_f])
    fs -= np.array([simpson(g, FIBER, fs[:, 0]), simpson(g, FIBER, fs[:, 1])])
    coeff = fs * g.g_f[:, None]
    U = solve_poisson_1d(g, FIBER, coeff, rhs_fs=fs)
    u0 = solve_poisson_1d(g, FIBER, coeff[:, 0], rhs_fs=fs[:, 0])
    # column-stacked and single solves agree (LAPACK blocking may differ
    # at the last ulp); repeated identical calls are bit-identical
    assert np.abs(U[:, 0] - u0).max() < 1e-13
    assert np.abs(U[:, 1] - 2.0 * u0).max() < 1e-12
    assert np.array_equal(U, solve_poisson_1d(g, FIBER, coeff, rhs_fs=fs))


# ---------------------------------------------------------------------------
# Newton engine
# ---------------------------------------------------------------------------

def _liouville_like(g, w):
    L = lap_matrix(g, FIBER)

    def residual(v):
        return L @ v - (np.exp(v) - 1.0) * w

    def jacobian(v):
        return L - np.diag(np.exp(v) * w)

    return residual, jacobian


def test_newton_exact_root_at_init():
    g = Grid(32, 32)
    w = 1.0 + g.nodes_f
    residual, jacobian = _liouville_like(g, w)
    result = newton_semilinear(residual, jacobian, np.zeros(33))
    assert result.iterations == 0
    assert np.array_equal(result.x, np.zeros(33))
    assert result.trace == [0.0]


def test_newton_converges_quadratically():
    g = Grid(64, 64)
    w = 2.0 + np.sin(np.pi * g.nodes_f)
    residual, jacobian = _liouville_like(g, w)
    result = newton_semilinear(residual, jacobian, 0.3 * np.ones(65), tol=1e-12)
    assert result.converged
    assert np.abs(residual(result.x)).max() < 1e-12
    # quadratic tail: once below 1e-3 the next step lands below ~square
    tail = [r for r in result.trace if 0 < r < 1e-3]
    assert any(b < 10.0 * a**2 for a, b in zip(tail, tail[1:]))


def test_newton_probe_rejects_wrong_jacobian():
    g = Grid(32, 32)
    w = 1.0 + g.nodes_f
    residual, jacobian = _liouville_like(g, w)

    def bad_jacobian(v):
        return 1.5 * jacobian(v)

    with pytest.raises(ContractViolation):
        newton_semilinear(residual, bad_jacobian, 0.1 * np.ones(33))


def test_newton_nonconvergence_carries_trace():
    def residual(v):
        return np.array([v[0]**2 + 1.0])    # no real root

    def jacobian(v):
        return np.array([[2.0 * v[0] + 1e-3]])

    with pytest.raises(NonConvergence) as err:
        newton_semilinear(residual, jacobian, np.array([1.0]), max_iter=8,
                          probe=False)
    assert len(err.value.trace) >= 1


def test_probe_accepts_consistent_pair():
    g = Grid(32, 32)
    w = 1.0 + g.nodes_f
    residual, jacobian = _liouville_like(g, w)
    probe_jacobian(residual, jacobian, 0.2 * np.ones(33))

import math

import numpy as np
import pytest

from fanofib import calculus
from fanofib.basespace import VARIANT_B, compute_gprime, solve_base_ma
from fanofib.calculus import (TWO_PI, lap, lap_bands, lap_matrix, lap_slabs, simpson,
                              slab_product)
from fanofib.errors import ContractViolation, NonConvergence, SolvabilityError
from fanofib.fiberwise import solve_ske, solve_spr
from fanofib.grids import BASE, FIBER, Grid
from fanofib.model import ModelSpec, build_reference
from fanofib.solvers import (BandedMatrix, newton_semilinear, poisson_system,
                             probe_jacobian, solve_poisson_1d)
from conftest import peak_fields
from reference import bordered, dense_lap, poisson


def test_poisson_zero_rhs():
    g = Grid(64, 64)
    u = solve_poisson_1d(g, FIBER, np.zeros((65, 65)))
    assert np.array_equal(u, np.zeros((65, 65)))


def test_poisson_ke_fiber_rhs_is_zero(ref_a):
    # 2 FS - lambda * (fiber part of omega0) vanishes identically on the
    # product model: the fiber problem is trivial
    g = ref_a.grid
    lam = float(ref_a.consts.lam)
    rhs_fs = np.full((g.n_fiber + 1, g.n_base + 1), 2.0 - lam * float(ref_a.spec.c))
    u = solve_poisson_1d(g, FIBER, rhs_fs)
    assert np.abs(u).max() == 0.0


def test_poisson_recovers_bump():
    # forward-apply oracle: source is the invariant Hessian of x(1-x);
    # quadratic data is resolved exactly by the second-order stencils
    for n in (32, 64):
        g = Grid(n, n)
        x = g.nodes_f
        gx = g.g_f
        rhs_fs = (1.0 - 2.0 * x)**2 - 2.0 * gx     # (g p')' for p = x(1-x)
        u = solve_poisson_1d(g, FIBER, rhs_fs[:, None])[:, 0]
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
        # with a pi^6-sized constant; loosen the compatibility gate to
        # 1e-4 sup|rhs|
        u = solve_poisson_1d(g, FIBER, rhs_fs[:, None],
                             scale=1e4 * np.abs(g.g_f * rhs_fs).max())[:, 0]
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
        u = solve_poisson_1d(g, BASE, rhs_fs[:, None].copy())[:, 0]
        resids.append(np.abs(dense_lap(g, BASE) @ u - rhs_fs).max())
    assert resids[1] < 5.0 * (1.0 / 64)**2
    assert math.log2(resids[0] / resids[1]) > 1.7


def test_poisson_compatibility_violation():
    g = Grid(32, 32)
    rhs_fs = np.ones((33, 1))   # integral 2*pi, grossly incompatible
    with pytest.raises(SolvabilityError) as err:
        solve_poisson_1d(g, FIBER, rhs_fs)
    assert abs(err.value.defect) > 1.0


@pytest.mark.parametrize("row, value", [(5, np.nan), (5, np.inf), (0, np.inf),
                                        (32, -np.inf)])
def test_poisson_rejects_a_non_finite_source(row, value):
    # an infinity at a pole row meets g = 0 there; it must not pass as 0
    g = Grid(32, 32)
    fs = np.zeros((33, 3))
    fs[row, 1] = value
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            solve_poisson_1d(g, FIBER, fs)
        with pytest.raises(ValueError, match="non-finite"):
            solve_poisson_1d(g, FIBER, fs[:, 1:2])


@pytest.mark.parametrize("shape", [(33,), (32, 1), (33, 1, 1)])
def test_poisson_rejects_a_source_not_of_shape_n_plus_1_by_columns(shape):
    with pytest.raises(ValueError, match=r"expected \(33, columns\)"):
        solve_poisson_1d(Grid(32, 32), FIBER, np.zeros(shape))


def test_poisson_stacked_columns_match_single():
    g = Grid(32, 32)
    x = g.nodes_f
    fs = np.column_stack([np.sin(2 * np.pi * x) * g.g_f,
                          2.0 * np.sin(2 * np.pi * x) * g.g_f])
    fs -= np.array([simpson(g, FIBER, fs[:, 0]), simpson(g, FIBER, fs[:, 1])])
    U = solve_poisson_1d(g, FIBER, fs.copy())
    u0 = solve_poisson_1d(g, FIBER, fs[:, :1].copy())[:, 0]
    # a single column's gauge may round differently from a stacked one's
    assert np.abs(U[:, 0] - u0).max() < 1e-15
    assert np.abs(U[:, 1] - 2.0 * u0).max() < 1e-12
    assert np.array_equal(U, solve_poisson_1d(g, FIBER, fs))


def test_poisson_solve_that_hands_over_its_source_holds_row_blocks():
    # a saved row and a few row blocks beside the source: 0.04 fields; a
    # solve that kept its source would hold its result beside it (1.04),
    # and an elimination that keeps the right-hand side and a multiplier
    # column beside the result reads 4.02
    g = Grid(1024, 1024)
    w = g.simpson_f / (3.0 * g.n_fiber)
    fs = np.cos(2.0 * np.pi * g.nodes_f)[:, None] * (1.0 + g.nodes_b)[None, :]
    fs -= np.einsum("i,ij->j", w, fs)[None, :]
    assert peak_fields(solve_poisson_1d, g, FIBER, fs) <= 0.1


def test_poisson_solve_holds_one_field_and_row_blocks():
    # a caller that keeps its source solves a copy in place: the copy and
    # row blocks read 1.04 fields; an elimination that keeps the right-hand
    # side and a multiplier column beside the result reads 4.02
    g = Grid(1024, 1024)
    w = g.simpson_f / (3.0 * g.n_fiber)
    fs = np.cos(2.0 * np.pi * g.nodes_f)[:, None] * (1.0 + g.nodes_b)[None, :]
    fs -= np.einsum("i,ij->j", w, fs)[None, :]

    def keeping_source(grid, axis_name, source):
        return solve_poisson_1d(grid, axis_name, source.copy())

    assert 1.0 <= peak_fields(keeping_source, g, FIBER, fs) <= 2.0


def _difference_of_unit_fields(grid, delta):
    """Columns a - b of two O(1) fields a = 1 + delta cos(2 pi x + k) and
    b = 1, and the size sup|g a| + sup|g b| of the terms that cancel."""
    x, g = grid.nodes_f, grid.g_f[:, None]
    a = np.column_stack([1.0 + delta * np.cos(2.0 * np.pi * x + k) for k in range(4)])
    b = np.ones_like(a)
    return a - b, np.abs(g * a).max(axis=0) + np.abs(g * b).max(axis=0)


def test_poisson_gate_scaled_by_cancelling_terms_passes_a_small_difference():
    # the roundoff of 1 + delta cos(...) is 1e-16 of the unit terms; against
    # sup|rhs| = 2.5e-10 it reads as a defect of 1e-7 relative, which the
    # unscaled gate rejects: the skew_bump recovery next to the poles
    g = Grid(256, 16)
    rhs, size = _difference_of_unit_fields(g, 1e-9)
    with pytest.raises(SolvabilityError):
        solve_poisson_1d(g, FIBER, rhs)
    u = solve_poisson_1d(g, FIBER, rhs.copy(), scale=size)
    assert np.array_equal(u, poisson(g, FIBER, rhs))


@pytest.mark.parametrize("delta", [1e-9, 1e-2])
def test_poisson_gate_scaled_by_cancelling_terms_sees_a_real_incompatibility(delta):
    # a constant of 1e-6 of the cancelling terms' size integrates to
    # 2 pi 1e-6 of it, far above the gate's 1e-8
    g = Grid(256, 16)
    rhs, size = _difference_of_unit_fields(g, delta)
    rhs[:, 1] += 1e-6 * size[1]
    with pytest.raises(SolvabilityError, match=r"1.0e-08 \* scale"):
        solve_poisson_1d(g, FIBER, rhs, scale=size)
    # a term that is not finite makes its column's scale not finite
    size[2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve_poisson_1d(g, FIBER, rhs, scale=size)


def test_poisson_gate_names_the_failing_column():
    # column 0 passes (1e-10 against 1e-8 * 1), column 1 fails (1e-12
    # against 1e-8 * 1e-6) although its defect is the smaller one
    g = Grid(32, 32)
    rhs = np.tile([1e-10, 1e-12], (33, 1)) / TWO_PI   # defect integrals 1e-10, 1e-12
    with pytest.raises(SolvabilityError,
                       match=r"column 1 defect integral 1\.000e-12 exceeds "
                             r"1\.0e-08 \* scale 1\.000e-06") as err:
        solve_poisson_1d(g, FIBER, rhs, scale=np.array([1.0, 1e-6]))
    assert err.value.defect == pytest.approx(1e-12, rel=1e-12)


# ---------------------------------------------------------------------------
# banded solves against dense oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(16, 16), (64, 256), (1024, 32)])
def test_lap_matrix_matches_difference_assembly(shape):
    g = Grid(*shape)
    for axis_name in (FIBER, BASE):
        L = lap_matrix(g, axis_name)
        # equal entry for entry; only the sign of the zero at (n, n-3),
        # 0 * weight in the reference's sum, may differ
        assert np.array_equal(L, dense_lap(g, axis_name))
        bands = lap_bands(g, axis_name)
        assert np.count_nonzero(L) == np.count_nonzero(bands)
        v = np.cos(3.0 * np.linspace(0.0, 1.0, g.n(axis_name) + 1))
        assert np.allclose(BandedMatrix(bands) @ v, L @ v, rtol=0.0,
                           atol=1e-13 * np.abs(L).max())


@pytest.mark.parametrize("n", [16 << k for k in range(8)])
def test_slab_product_is_bitwise_the_dense_product(n):
    # the Einstein residual's L @ v decides the start's convergence and
    # with it the einstein_c_ne_1 outcome, so the slabs must give the BLAS
    # product of the dense matrix bit for bit, signs of zero included: on
    # the constant starts log c of c = 3/2, 2, 5/2, on a smooth profile
    # and on noise
    g = Grid(n, 16)
    L = dense_lap(g, FIBER)
    slabs = lap_slabs(g, FIBER)
    assert sum(s.shape[0] for _, _, s in slabs) == n + 1
    rng = np.random.default_rng(n)
    profile = np.log(2.0 + np.sin(3.0 * g.nodes_f) * g.nodes_f)
    for v in (*(np.full(n + 1, math.log(c)) for c in (1.5, 2.0, 2.5)), profile,
              rng.standard_normal(n + 1)):
        dense, got = L @ v, slab_product(slabs, v)
        assert np.array_equal(got, dense)
        assert np.array_equal(np.signbit(got), np.signbit(dense))


@pytest.mark.parametrize("n", [32, 64, 128, 256, 512, 1024])
@pytest.mark.parametrize("axis_name", [FIBER, BASE])
def test_poisson_matches_dense_bordered_solve(n, axis_name):
    g = Grid(n, 16) if axis_name == FIBER else Grid(16, n)
    x = np.linspace(0.0, 1.0, g.n(axis_name) + 1)
    gx, gpx = g.g(axis_name), g.gp(axis_name)
    cols = [0.5 * np.cos(2.0 * np.pi * x), np.exp(np.sin(3.0 * x)),
            (1.0 - 2.0 * x)**3 + x**2]
    cols = [c - simpson(g, axis_name, c) for c in cols]
    # the continuum image of cos(2 pi x): its exact integral vanishes, its
    # discrete compatibility defect is O(h^2), so the border carries mu != 0
    w = 2.0 * np.pi
    cols.append(-gx * w**2 * np.cos(w * x) - gpx * w * np.sin(w * x))
    rfs = np.column_stack(cols)
    # a gate of 1e-3 sup|rhs| per column
    u = solve_poisson_1d(g, axis_name, rfs.copy(),
                         scale=1e5 * np.abs(gx[:, None] * rfs).max(axis=0))
    expect, mu = bordered(g, axis_name, rfs)
    assert abs(mu[-1]) > 1.0 / n**2
    rel = np.abs(u - expect).max(axis=0) / np.abs(expect).max(axis=0)
    # the flux form reads <= 7e-15 up to n = 2048; an elimination over the
    # n+1 rows, such as a Thomas sweep, reads 1.5e-13 at 512 and 2.7e-13
    # at 1024
    assert rel.max() <= 5e-14


@pytest.mark.parametrize("n", [16, 256, 2048])
@pytest.mark.parametrize("axis_name", [FIBER, BASE])
def test_lap_interior_rows_are_in_flux_form(n, axis_name):
    # row i of L is (a_{i+1/2} (u_{i+1} - u_i) - a_{i-1/2} (u_i - u_{i-1}))
    # / h^2: the solver's conductances a / h^2 are L's off-diagonal entries
    # and their sum is minus its diagonal, up to the rounding of g and g'
    # (on these power-of-two grids they agree to the last bit)
    g = Grid(n, 16) if axis_name == FIBER else Grid(16, n)
    bands = lap_bands(g, axis_name)
    cond = poisson_system(g, axis_name).conductance
    assert np.all(cond > 0.0)
    ulp = 4.0 * np.finfo(float).eps
    below, above = cond[:-1], cond[1:]
    assert np.all(np.abs(bands[1, 1:n] - below) <= ulp * below)
    assert np.all(np.abs(bands[3, 1:n] - above) <= ulp * above)
    assert np.all(np.abs(bands[2, 1:n] + below + above) <= ulp * (below + above))


def _base_ma_data(n_base):
    ref = build_reference(ModelSpec.make(2, 1, 0.2, "fiber_cubic", 16, n_base))
    gp = compute_gprime(ref, solve_spr(ref))
    return ref, gp, float(ref.eta_fs)


@pytest.mark.parametrize("n_base", [64, 1024])
def test_base_ma_newton_step_matches_dense(n_base):
    ref, gp, khat = _base_ma_data(n_base)
    grid = ref.grid
    rho = 0.1 * np.sin(np.pi * grid.nodes_b)
    coeff = khat * gp.gprime * np.exp(rho)
    res = khat + lap(grid, rho, BASE) - coeff
    bands = lap_bands(grid, BASE)
    bands[2] -= coeff
    step = BandedMatrix(bands).solve(-res)
    dense = np.linalg.solve(dense_lap(grid, BASE) - np.diag(coeff), -res)
    assert np.abs(step - dense).max() <= 1e-12 * np.abs(dense).max()


def test_solves_on_2048_intervals_build_no_dense_matrix():
    # one dense 2049^2 float64 array takes 33.6 MB
    limit = 4 * 2**20
    g = Grid(2048, 16)
    fs = np.cos(2.0 * np.pi * g.nodes_f)[:, None] * (1.0 + g.nodes_b)[None, :]
    field = 2049 * 17 * 8       # both grids have 2049 x 17 nodes
    assert peak_fields(solve_poisson_1d, g, FIBER, fs) < limit / field
    ref, gp, _ = _base_ma_data(2048)
    assert peak_fields(solve_base_ma, ref, gp, VARIANT_B) < limit / field


def test_einstein_solve_on_2048_intervals_holds_no_dense_matrix():
    # the residual applies L by row slabs (3.1 MB) and the Jacobian probe
    # by bands; with the family's fields the solve peaks at 12.2 fields of
    # 2049 x 17 nodes (3.2 MB).  One dense 2049^2 array, 33.6 MB, is 120.5
    # such fields
    ref = build_reference(ModelSpec.make(2, 1, 0.2, "fiber_cubic", 2048, 16))
    assert peak_fields(solve_ske, ref) < 16.0


def test_banded_matrix_rejects_entries_outside_its_pattern():
    bands = lap_bands(Grid(16, 16), FIBER)
    bands[4, 3] = 1.0
    with pytest.raises(ValueError):
        BandedMatrix(bands)


def test_banded_solve_takes_one_right_hand_side():
    bands = lap_bands(Grid(16, 16), BASE)
    bands[2] -= 1.0
    with pytest.raises(ValueError, match="one rhs"):
        BandedMatrix(bands).solve(np.ones((17, 2)))


def _indexed_banded_solve(bands, rhs):
    """``BandedMatrix.solve`` with the Thomas sweep written by row index,
    the reference that the sweep over the zipped bands must match."""
    b = bands
    n = b.shape[1] - 1
    sub, diag, sup = (row.tolist() for row in b[1:4])
    f0 = float(b[4, 0]) / sup[1] if b[4, 0] else 0.0
    fn = float(b[0, n]) / sub[n - 1] if b[0, n] else 0.0
    diag[0] -= f0 * sub[1]
    sup[0] -= f0 * diag[1]
    sub[n] -= fn * diag[n - 1]
    diag[n] -= fn * sup[n - 1]
    y = np.asarray(rhs, dtype=float).tolist()
    y[0] = y[0] - f0 * y[1]
    y[n] = y[n] - fn * y[n - 1]
    ratio = [0.0] * (n + 1)
    pivot = diag[0]
    for i in range(n + 1):
        if i:
            pivot = diag[i] - sub[i] * ratio[i - 1]
            y[i] = y[i] - sub[i] * y[i - 1]
        ratio[i] = sup[i] / pivot
        y[i] = y[i] / pivot
    for i in range(n - 1, -1, -1):
        y[i] = y[i] - ratio[i] * y[i + 1]
    return np.asarray(y)


@pytest.mark.parametrize("n", [16, 64, 2048])
@pytest.mark.parametrize("axis_name", [FIBER, BASE])
def test_banded_sweep_is_the_indexed_sweep_bit_for_bit(n, axis_name):
    # the base Monge-Ampere Jacobian's shape: L less a positive diagonal,
    # and its negation, whose empty corner entries are -0; the right-hand
    # sides include signed zeros at both ends
    g = Grid(n, n)
    rng = np.random.default_rng(n)
    bands = lap_bands(g, axis_name)
    bands[2] -= 1.0 + rng.random(n + 1)
    rhs = rng.standard_normal(n + 1)
    for b in (bands, -bands):
        for r in (rhs, np.concatenate(([-0.0, 0.0], rhs[2:-2], [0.0, -0.0])),
                  np.concatenate(([0.0, -0.0], rhs[2:-2], [-0.0, 0.0])),
                  np.zeros(n + 1), -np.zeros(n + 1)):
            got, want = BandedMatrix(b).solve(r), _indexed_banded_solve(b, r)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_banded_singular_system_is_nonconvergence():
    # L itself is singular (L 1 = 0): the sweep meets a zero pivot or a
    # non-finite one, and Newton reports it like a singular dense Jacobian
    bands = lap_bands(Grid(16, 16), FIBER)
    bands[:, :] = 0.0
    with pytest.raises(NonConvergence):
        newton_semilinear(lambda v: v + 1.0, lambda v: BandedMatrix(bands),
                          np.zeros(17), probe=False)


# ---------------------------------------------------------------------------
# Newton engine
# ---------------------------------------------------------------------------

def _liouville_like(g, w):
    L = dense_lap(g, FIBER)

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


@pytest.mark.parametrize("start, steps", [(2e-11, 1), (5e-12, 0)])
def test_newton_stops_at_the_one_tolerance(start, steps):
    # every Newton solve stops at NEWTON_TOL = 1e-11: a start residual of
    # 2e-11 takes a step (to the exact root), one of 5e-12 is converged
    result = newton_semilinear(lambda x: x, lambda x: np.eye(1), np.array([start]))
    assert result.iterations == steps
    assert result.trace == [start, 0.0][:steps + 1]


def test_newton_converges_quadratically():
    g = Grid(64, 64)
    w = 2.0 + np.sin(np.pi * g.nodes_f)
    residual, jacobian = _liouville_like(g, w)
    result = newton_semilinear(residual, jacobian, 0.3 * np.ones(65))
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


class _SolvingOperator:
    """A dense matrix behind ``@`` and ``solve``, counting its solves."""

    def __init__(self, matrix, solves):
        self.matrix, self.solves = matrix, solves

    def __matmul__(self, x):
        return self.matrix @ x

    def solve(self, rhs):
        self.solves.append(1)
        return np.linalg.solve(self.matrix, rhs)


def test_newton_sends_a_dense_jacobian_to_lapack_and_an_operator_to_its_solve(
        monkeypatch):
    g = Grid(64, 64)
    w = 2.0 + np.sin(np.pi * g.nodes_f)
    residual, jacobian = _liouville_like(g, w)
    lapack, real = [], np.linalg.solve

    def counting(a, b):
        lapack.append(type(a))
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    dense = newton_semilinear(residual, jacobian, 0.3 * np.ones(65))
    assert dense.iterations > 0
    assert lapack == [np.ndarray] * dense.iterations
    # the same matrices behind an operator: every step is its own solve
    solves = []
    op = newton_semilinear(residual, lambda v: _SolvingOperator(jacobian(v), solves),
                           0.3 * np.ones(65))
    assert len(solves) == dense.iterations
    assert len(lapack) == 2 * dense.iterations
    assert np.array_equal(op.x, dense.x)


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


@pytest.mark.parametrize("block", [None, 1, 333])
@pytest.mark.parametrize("shape", [(16, 16), (32, 256), (256, 32), (2048, 64),
                                   (64, 2048), (1024, 1024)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_blocked_poisson_gauge_is_bit_identical(shape, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(calculus, "_BLOCK_ELEMS", block)
    g = Grid(*shape)
    rng = np.random.default_rng(sum(shape))
    for axis_name, other in ((FIBER, g.n_base), (BASE, g.n_fiber)):
        w = g.simpson(axis_name) / (3.0 * g.n(axis_name))
        fs = rng.standard_normal((g.n(axis_name) + 1, other + 1))
        fs -= np.einsum("i,ij->j", w, fs)[None, :]      # compatible columns
        # the solve overwrites its source with the whole-field expressions'
        # bits, down to signed zeros
        plain = poisson(g, axis_name, fs)
        assert solve_poisson_1d(g, axis_name, fs) is fs
        assert np.array_equal(fs, plain), axis_name
        assert np.array_equal(np.signbit(fs), np.signbit(plain)), axis_name

import dataclasses
import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import Polynomial
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanofib import calculus, model
from fanofib.calculus import TWO_PI, simpson2d
from fanofib.errors import ConfigError, ModelOrientationError, PositivityError
from fanofib.grids import Grid
from fanofib.model import ModelSpec, build_reference, derive_constants
from conftest import peak_fields
from reference import (chi, ddbar, fs_form, min_eigenvalue, omega0, ric_volume,
                       ric_weight_residual, warp_profiles)

F = Fraction


# ---------------------------------------------------------------------------
# derive_constants
# ---------------------------------------------------------------------------

def test_constants_two_one():
    dc = derive_constants(ModelSpec.make(2, 1))
    assert dc.eT == F(2, 3)
    assert dc.T == pytest.approx(math.log(1.5), rel=1e-15)
    assert dc.lam == F(2)
    assert dc.kappa == F(2, 3)
    named = dc.by_name()
    assert (named["D_base"], named["D_fiber"]) == (F(2, 3), F(0))
    assert (dc.k, dc.kprime, dc.alpha, dc.beta) == (3, 1, 2, 1)
    assert (named["p"], named["q"], named["r"]) == (3, 2, 1)


def test_constants_three_two():
    dc = derive_constants(ModelSpec.make(3, 2))
    assert dc.eT == F(1, 2)
    assert dc.T == pytest.approx(math.log(2.0), rel=1e-15)
    assert dc.lam == F(1)
    assert dc.kappa == F(1, 2)
    assert (dc.k, dc.kprime, dc.alpha, dc.beta) == (2, 1, 1, 1)


def test_constants_rational_input():
    dc = derive_constants(ModelSpec.make("5/2", "3/2"))
    assert dc.eT == F(2) / (F(3, 2) + 2)
    assert dc.lam == F(4, 3)
    assert dc.lam * F(3, 2) == 2          # fiber degeneration identity
    assert F(dc.alpha, dc.beta) == dc.lam


def test_constants_reject_wrong_orientation():
    with pytest.raises(ModelOrientationError, match="a > c"):
        derive_constants(ModelSpec.make(1, 1))
    with pytest.raises(ModelOrientationError):
        derive_constants(ModelSpec.make(1, 2))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(1, 40), st.integers(1, 8), st.integers(1, 8))
def test_constants_invariants_random(pa, pc, qa, qc):
    a, c = F(pa, qa), F(pc, qc)
    if a <= c:
        return
    dc = derive_constants(ModelSpec.make(a, c))
    assert dc.lam * c == 2
    assert dc.eT * (c + 2) == 2
    assert F(1) / (1 - dc.eT) == dc.lam + 1
    assert dc.k * dc.eT == dc.alpha
    assert dc.kprime == dc.k - dc.alpha
    named = dc.by_name()
    assert named["D_fiber"] == 0
    assert named["D_base"] == dc.kappa
    # the class decomposition of the semi-ample direction
    assert dc.eT * a - 2 * (1 - dc.eT) == dc.kappa


# ---------------------------------------------------------------------------
# warp profiles
# ---------------------------------------------------------------------------

# oracle: the warp library as numpy.polynomial.Polynomial objects (lowest
# degree first), with the profiles formed by Polynomial arithmetic
_ORACLE_SHAPES = {
    "product_bump": ([0.0, 1.0, -1.0], [0.0, 1.0, -1.0]),
    "skew_bump": ([0.0, 1.0, -1.0], [0.0, 0.0, 1.0, -1.0]),
    "fiber_cubic": ([0.0, 0.0, 1.0, -1.0], [0.0, 1.0, -1.0]),
}


@pytest.mark.parametrize("shape", sorted(model.WARP_SHAPES))
def test_warp_profiles_match_the_polynomial_oracle_bit_for_bit(shape):
    P, Q = (Polynomial(c) for c in _ORACLE_SHAPES[shape])
    differ = []
    for n in (16 * 2**k for k in range(9)):    # 16 ... 4096
        grid = Grid(n, n)
        w = model._warp_data(grid, ModelSpec.make(2, 1, 0.2, shape, n, n))
        for name, poly, x in (("P", P, grid.nodes_f), ("Q", Q, grid.nodes_b)):
            for template, want in warp_profiles(poly, x).items():
                field = template.format(name)
                got = getattr(w, field)
                if not (np.array_equal(got, want)
                        and np.array_equal(np.signbit(got), np.signbit(want))):
                    differ.append(f"{field}@{n}")
    assert not differ, f"profiles differ from the oracle: {differ}"


# ---------------------------------------------------------------------------
# reference geometry
# ---------------------------------------------------------------------------

def test_reference_model_a(ref_a):
    assert np.allclose(ref_a.volume_rows(0, ref_a.grid.n_fiber + 1), 4.0 / 3.0, atol=1e-14)
    assert ref_a.V == pytest.approx(4.0 * math.pi, rel=1e-15)
    # chi = -2 (FS_f + FS_b) on the product model
    expect = fs_form(ref_a.grid, -2.0, -2.0)
    assert np.abs(chi(ref_a) - expect).max() < 1e-13
    assert ric_weight_residual(ref_a) < 1e-13


@pytest.mark.parametrize("case", ["negative", "nan"])
def test_positivity_error_names_the_first_worst_node_of_the_whole_field(ref_b, case,
                                                                       fine_blocks,
                                                                       monkeypatch):
    # the build checks omega0 in row blocks, yet the node it names is the
    # whole field's first minimum in row-major order, or its first NaN, here
    # past the first block (and in the NaN case ahead of a more negative row
    # and of a later NaN)
    grid = ref_b.grid
    fine_blocks(grid)
    w = ref_b.warp
    if case == "negative":
        # c - eps/8 < 0 at the centre of the product bump
        warp = dataclasses.replace(w, eps=10.0)
    else:
        d2p = w.D2P_fs.copy()
        d2p[40] = d2p[60] = math.nan
        d2p[50] = -1e3
        warp = dataclasses.replace(w, D2P_fs=d2p)
    bad = dataclasses.replace(ref_b, warp=warp)
    lam_min = min_eigenvalue(bad)
    i, j = np.unravel_index(int(np.argmin(lam_min)), lam_min.shape)
    first_block = next(calculus._row_blocks(0, grid.n_fiber + 1, grid.n_base + 1))
    assert i >= first_block[1]
    monkeypatch.setattr(model, "_warp_data", lambda grid, spec: warp)
    with pytest.raises(PositivityError) as err:
        build_reference(ref_b.spec)
    if case == "nan":
        assert math.isnan(err.value.worst) and (i, j) == (40, 0)
    else:
        assert err.value.worst == lam_min[i, j] < 0.0
    assert err.value.location == (float(grid.nodes_f[i]), float(grid.nodes_b[j]))


def test_the_reference_build_forms_the_fiber_entry_once_per_row_block(monkeypatch,
                                                                      fine_blocks):
    # omega0's positivity and the mass that fixes C read the same entry
    spec = ModelSpec.make(2, 1, warp_amplitude=0.2, n_fiber=64, n_base=64)
    fine_blocks(spec)
    calls, real = [], model.ReferenceGeometry.vertical_rows

    def counted(self, lo, hi):
        calls.append((lo, hi))
        return real(self, lo, hi)

    monkeypatch.setattr(model.ReferenceGeometry, "vertical_rows", counted)
    build_reference(spec)
    assert calls == list(calculus._row_blocks(0, 65, 65))


def test_reference_build_holds_only_the_profiles_it_needs(fine_blocks):
    # the reference retains profiles only (0.05 fields: the warp's, the
    # grid's and f_* Omega); the build adds the row blocks of the positivity
    # check and of the two passes over the volume density (0.68 in all).
    # With the volume density and the warp potential held whole the
    # reference retained 2.05 fields and the build peaked at 2.68
    n = 256
    spec = ModelSpec.make(2, 1, warp_amplitude=0.2, warp_shape="fiber_cubic",
                          n_fiber=n, n_base=n)
    fine_blocks(spec)
    assert peak_fields(build_reference, spec) <= 0.7
    assert _held_bytes(build_reference(spec)) / (n + 1)**2 / 8 <= 0.1


def _held_bytes(obj, seen=None) -> int:
    """Bytes of the distinct arrays an object holds, followed through the
    attributes of the objects it holds."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    return sum(_held_bytes(v, seen) for v in getattr(obj, "__dict__", {}).values())


def test_reference_build_takes_no_ddbar(monkeypatch):
    # every i ddbar of the package runs through L's rows or D_f D_b
    calls = []
    for name in ("_lap_rows", "_dfdb"):
        monkeypatch.setattr(calculus, name, lambda *args: calls.append(args))
    build_reference(ModelSpec.make(2, 1, n_fiber=64, n_base=64))
    assert calls == []


def test_reference_twist_identity(ref_b):
    eT = float(ref_b.consts.eT)
    lhs = fs_form(ref_b.grid, 0.0, ref_b.eta_fs)
    rhs = eT * omega0(ref_b) + (1.0 - eT) * chi(ref_b)
    assert np.abs(lhs - rhs).max() < 1e-14


def test_reference_volume_normalization(ref_b):
    grid = ref_b.grid
    w = ref_b.warp
    mixed = 2.0 * ref_b.eta_fs * (float(ref_b.spec.c) +
                                  w.eps * w.D2P_fs[:, None] * w.Q[None, :])
    target = TWO_PI**2 * simpson2d(grid, mixed)
    volume = ref_b.volume_rows(0, grid.n_fiber + 1)
    assert TWO_PI**2 * simpson2d(grid, volume) == pytest.approx(target, rel=1e-13)


def test_reference_ric_weight_forward(ref_b):
    # pole parts handled analytically, smooth part by grid operators: the
    # residual is pure truncation of the warp Hessian
    assert ric_weight_residual(ref_b) < 50.0 * (1.0 / 64)**2


def test_reference_ric_weight_forward_order():
    errs = []
    for n in (32, 64):
        ref = build_reference(ModelSpec.make(2, 1, warp_amplitude=0.2,
                                             warp_shape="fiber_cubic",
                                             n_fiber=n, n_base=n))
        errs.append(ric_weight_residual(ref))
    assert math.log2(errs[0] / errs[1]) > 1.7


def test_reference_positivity_guard():
    with pytest.raises(PositivityError) as err:
        build_reference(ModelSpec.make(2, 1, warp_amplitude=30.0))
    assert err.value.worst is not None and err.value.worst <= 0.0
    assert err.value.location is not None


@pytest.mark.parametrize("amplitude", [math.inf, -math.inf, math.nan])
def test_spec_rejects_non_finite_warp_amplitude(amplitude):
    with pytest.raises(ConfigError, match="finite"):
        ModelSpec.make(2, 1, warp_amplitude=amplitude)


def test_reference_positivity_guard_rejects_nan():
    # a NaN eigenvalue is not positive; the spec bypasses make()
    with pytest.raises(PositivityError) as err:
        build_reference(ModelSpec(F(2), F(1), math.nan, "product_bump", 64, 64))
    assert math.isnan(err.value.worst)


def test_weight_constant_shift_leaves_forms(ref_a):
    # adding a constant to the metric weight must not move any form data
    n = ref_a.grid.n_fiber + 1
    shifted = dataclasses.replace(ref_a)
    shifted.weight_rows = lambda lo, hi: ref_a.weight_rows(lo, hi) + 1.37
    M0 = ddbar(ref_a.grid, ref_a.weight_rows(0, n))
    M1 = ddbar(ref_a.grid, shifted.weight_rows(0, n))
    assert np.abs(M0 - M1).max() == 0.0


def test_omega_ricci_is_minus_chi(ref_b):
    R = ric_volume(ref_b.grid, ref_b.volume_rows(0, ref_b.grid.n_fiber + 1))
    # -chi has an analytic grid representation; FD enters only through the
    # warp part of log-density, identical on both sides up to truncation
    diff = np.abs(R - (-1.0 * chi(ref_b))).max()
    assert diff < 50.0 * (1.0 / 64)**2


def test_grid_resolution_validation():
    with pytest.raises(ValueError, match="16"):
        ModelSpec.make(2, 1, n_fiber=48, n_base=64)
        build_reference(ModelSpec.make(2, 1, n_fiber=48, n_base=64))

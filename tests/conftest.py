import tracemalloc

import pytest

from fanofib import calculus
from fanofib.fiberwise import solve_ske, solve_spr
from fanofib.model import ModelSpec, build_reference


def _field_bytes(args) -> int:
    """Bytes of one float64 nodal field on the grid of the first argument
    that names one: a Grid or ModelSpec, anything with a ``grid``, or a
    PipelineConfig, whose largest grid counts."""
    for arg in args:
        arg = getattr(arg, "grid", arg)
        if hasattr(arg, "n_fiber"):
            return (arg.n_fiber + 1) * (arg.n_base + 1) * 8
        if hasattr(arg, "grids"):
            return max((nf + 1) * (nb + 1) for nf, nb in arg.grids) * 8
    raise TypeError("no argument names a grid")


def peak_fields(fn, *args) -> float:
    """The tracemalloc peak of ``fn(*args)`` above the memory live before
    the call, in nodal fields of the arguments' grid (``_field_bytes``).
    What the call returns counts while it is alive, so a stage's outputs
    are part of its peak."""
    field = _field_bytes(args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / field
    finally:
        tracemalloc.stop()


@pytest.fixture
def fine_blocks(monkeypatch):
    """Called with a Grid or ModelSpec, sets this test's row-block budget so
    that its fields split into sixteen full blocks and a last one, the
    geometry that block-edge tests and memory bounds assert about."""
    def fine(grid):
        rows = (grid.n_fiber + 1) // 16
        monkeypatch.setattr(calculus, "_BLOCK_ELEMS", rows * (grid.n_base + 1))
    return fine


@pytest.fixture(scope="session")
def ref_a():
    return build_reference(ModelSpec.make(2, 1, n_fiber=64, n_base=64))


@pytest.fixture(scope="session")
def ref_a32():
    return build_reference(ModelSpec.make(3, 2, n_fiber=64, n_base=64))


@pytest.fixture(scope="session")
def ref_b():
    return build_reference(ModelSpec.make(2, 1, warp_amplitude=0.2,
                                          n_fiber=64, n_base=64))


@pytest.fixture(scope="session")
def ref_c():
    return build_reference(ModelSpec.make(2, 1, warp_amplitude=0.2,
                                          warp_shape="fiber_cubic",
                                          n_fiber=64, n_base=64))


@pytest.fixture(scope="session")
def spr_a(ref_a):
    return solve_spr(ref_a)


@pytest.fixture(scope="session")
def spr_b(ref_b):
    return solve_spr(ref_b)


@pytest.fixture(scope="session")
def spr_c(ref_c):
    return solve_spr(ref_c)


@pytest.fixture(scope="session")
def ske_a(ref_a):
    return solve_ske(ref_a)


@pytest.fixture(scope="session")
def ske_b(ref_b):
    return solve_ske(ref_b)


@pytest.fixture(scope="session")
def ske_c(ref_c):
    return solve_ske(ref_c)


@pytest.fixture(scope="session")
def ref_256():
    """The ``fiber_cubic`` reference at 256^2, the grid of the memory budgets."""
    return build_reference(ModelSpec.make(2, 1, warp_amplitude=0.2,
                                          warp_shape="fiber_cubic",
                                          n_fiber=256, n_base=256))


@pytest.fixture(scope="session")
def families_256(ref_256):
    return {"spr": solve_spr(ref_256), "ske": solve_ske(ref_256)}

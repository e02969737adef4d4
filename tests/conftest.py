import numpy as np
import pytest

from fanofib.fiberwise import solve_ske, solve_spr
from fanofib.model import ModelSpec, build_reference


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
def section_density():
    """The nodal density exp(smooth_log) x_b^pole_zero (1 - x_b)^pole_one
    of a ``wpform.SectionVolumeFamily`` on its grid."""
    def density(fam, grid):
        xb = grid.nodes_b[None, :]
        out = np.exp(fam.smooth_log)
        if fam.pole_zero != 0.0:
            out = out * np.power(xb, fam.pole_zero)
        if fam.pole_one != 0.0:
            out = out * np.power(1.0 - xb, fam.pole_one)
        return out
    return density

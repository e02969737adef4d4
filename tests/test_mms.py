"""Manufactured solutions for the solvers.

Each test solves for a closed-form solution on the 64 -> 256 ladder (the
Einstein family from 32) and asserts the second-order error constant and
the convergence order: the flux-form Poisson solve on both axes, the base
Monge-Ampere Newton solve for both reference forms, and the fiberwise
Einstein family through its potential recovery.  Unlike the run's residual checks, they
measure the distance to the exact solution, so an error in a weight that
the solver's own discrete equation shares (g', the gauge) shows.
"""

import math

import numpy as np
import pytest

from fanofib.basespace import VARIANT_B, VARIANT_BPRIME, GprimeReport, solve_base_ma
from fanofib.fiberwise import solve_ske
from fanofib.grids import BASE, FIBER, Grid
from fanofib.model import ModelSpec, build_reference
from fanofib.solvers import solve_poisson_1d

LADDER = (64, 128, 256)


def _orders(errs):
    return [math.log2(a / b) for a, b in zip(errs, errs[1:])]


@pytest.mark.parametrize("axis_name", [FIBER, BASE])
def test_poisson_solve_converges_to_a_manufactured_solution(axis_name):
    # u* = x^3 - 1/4 has mean zero, the solve's gauge, and L u* = 9x^2 -
    # 12x^3; eight columns, scaled 1..8, are solved as one stack.  Measured:
    # errors 8.05e-4, 2.20e-4, 5.76e-5 (3.30, 3.60, 3.78 h^2), orders 1.87
    # and 1.93.
    scale = np.arange(1.0, 9.0)
    errs = []
    for n in LADDER:
        grid = Grid(n, 16) if axis_name == FIBER else Grid(16, n)
        x = grid.nodes_f if axis_name == FIBER else grid.nodes_b
        u = solve_poisson_1d(grid, axis_name, np.outer(9.0 * x**2 - 12.0 * x**3, scale))
        errs.append(float(np.abs(u - np.outer(x**3 - 0.25, scale)).max()))
        assert errs[-1] <= 4.0 / n**2, (n, errs)
    assert min(_orders(errs)) >= 1.85, errs


@pytest.mark.parametrize("variant, bound", [(VARIANT_B, 0.06), (VARIANT_BPRIME, 0.04)])
def test_base_monge_ampere_converges_to_a_manufactured_solution(variant, bound):
    # rho* = 0.05 cos(pi x) + 0.02 x^3 solves khat + L rho = khat G' e^rho
    # for G' = (khat + L rho*) / (khat e^rho*), L rho* in closed form; G'
    # enters through a hand-built report.  Measured on a = 2, c = 1: errors
    # 1.30e-5, 3.29e-6, 8.26e-7 for B (0.053-0.054 h^2) and 8.00e-6,
    # 2.02e-6, 5.06e-7 for B' (0.033 h^2), orders 1.98-1.99.
    errs = []
    for n in LADDER:
        ref = build_reference(ModelSpec.make(2, 1, n_fiber=16, n_base=n))
        x = ref.grid.nodes_b
        khat = float(ref.eta_fs)
        if variant == VARIANT_BPRIME:
            khat *= float(ref.consts.lam + 1)
        rho = 0.05 * np.cos(np.pi * x) + 0.02 * x**3
        d1 = -0.05 * np.pi * np.sin(np.pi * x) + 0.06 * x**2
        d2 = -0.05 * np.pi**2 * np.cos(np.pi * x) + 0.12 * x
        gprime = (khat + x * (1.0 - x) * d2 + (1.0 - 2.0 * x) * d1) / (khat * np.exp(rho))
        report = GprimeReport(family=None, gprime=gprime,
                              delta_lower=float(gprime.min()), normalization_defect=0.0,
                              adjoint_defect=0.0, g_lo=gprime, g_hi=gprime)
        sol = solve_base_ma(ref, report, variant)
        errs.append(float(np.abs(sol.rho - rho).max()))
        assert errs[-1] <= bound / n**2, (n, errs)
    assert min(_orders(errs)) >= 1.95, errs


@pytest.mark.parametrize("a, c", [(2, 1), ("5/2", "3/2"), (3, 2)])
def test_einstein_fiber_metric_is_the_round_one(a, c):
    # on each P^1 fiber the Einstein metric of class volume c is c FS
    ref = build_reference(ModelSpec.make(a, c, 0.2, "fiber_cubic", 64, 32))
    assert np.all(solve_ske(ref).vertical_fs == float(ref.spec.c))


def test_einstein_potential_converges_to_its_closed_form():
    # u = c and omega0's fiber density c + eps (L P)(x_f) Q(x_b) give
    # L rho = u - m0 = -eps Q L P, so rho* = -eps Q(x_b) (P(x_f) - int P)
    # in the mean-zero gauge; fiber_cubic has P = x^2 - x^3 (int P = 1/12)
    # and Q = x - x^2.  Measured on a = 2, c = 1, eps = 0.2: errors 1.70e-5,
    # 5.03e-6, 1.37e-6, 3.60e-7 (0.017-0.024 h^2), orders 1.76, 1.87, 1.93
    errs = []
    for n in (32, *LADDER):
        ref = build_reference(ModelSpec.make(2, 1, 0.2, "fiber_cubic", n, n))
        xf, xb = ref.grid.nodes_f, ref.grid.nodes_b
        exact = -0.2 * np.outer(xf**2 - xf**3 - 1.0 / 12.0, xb - xb**2)
        errs.append(float(np.abs(solve_ske(ref).rho - exact).max()))
        assert errs[-1] <= 0.03 / n**2, (n, errs)
    assert min(_orders(errs)[1:]) >= 1.85, errs

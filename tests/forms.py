"""Test oracles for the (1,1)-forms of the paper, which the run holds only
as FS-relative profiles.  A form is a (3, n_f+1, n_b+1) array of log-frame
coefficients [ff, bb, fb], as ``calculus.ddbar_invariant`` returns it; a
volume form is its density relative to the product FS volume.
"""

import numpy as np

from fanofib.calculus import (TWO_PI, ddbar_invariant, fiber_integral, integrate_total,
                              simpson, simpson2d)
from fanofib.grids import BASE
from fanofib.model import checked_volume

FF, BB, FB = 0, 1, 2


def fs_form(grid, fiber_coeff, base_coeff):
    """fiber_coeff * FS_f + base_coeff * FS_b; a base profile as
    ``base_coeff`` gives the pullback of that base form."""
    return np.stack(np.broadcast_arrays(fiber_coeff * grid.g_f[:, None],
                                        base_coeff * grid.g_b[None, :], 0.0))


def field_shape(grid):
    """The shape of a nodal field on ``grid``."""
    return (grid.n_fiber + 1, grid.n_base + 1)


def full_metric(grid, fiber_sol):
    """A fiber family's vertical metric on every node of ``grid``, as a
    new writable array: the Einstein family's one column repeated along
    the base."""
    u = fiber_sol.vertical_fs
    return np.repeat(u, grid.n_base + 1, axis=1) if u.shape[1] == 1 else u.copy()


def vertical_fs(ref):
    """omega0's FS-relative density on the fibers in full, from the row
    accessor the run reads it through."""
    return ref.vertical_rows(0, ref.grid.n_fiber + 1)


def base_fs(ref):
    """The FS-relative density of omega0's base-base entry in full."""
    return ref.base_rows(0, ref.grid.n_fiber + 1)


def mixed_fb(ref):
    """The log-frame mixed entry of omega0, eps DP(x_f) DQ(x_b), in full."""
    w = ref.warp
    return w.eps * w.DP[:, None] * w.DQ[None, :]


def omega0(ref):
    """omega0 in the log frame, from the reference's FS-relative profiles."""
    grid = ref.grid
    return np.stack((vertical_fs(ref) * grid.g_f[:, None],
                     base_fs(ref) * grid.g_b[None, :], mixed_fb(ref)))


def chi(ref):
    """Twist form, pullback(eta) = e^{-T} omega0 + (1-e^{-T}) chi."""
    lam = float(ref.consts.lam)
    return (lam + 1.0) * fs_form(ref.grid, 0.0, ref.eta_fs) - lam * omega0(ref)


def ric_weight_residual(ref) -> float:
    """sup |Ric(h_L) - omega0|: the pole parts c log(1+s_f) + a log(1+s_b)
    of h_L's weight are exact, its smooth part is differentiated by the
    grid operators."""
    ric = fs_form(ref.grid, float(ref.spec.c), float(ref.spec.a)) + ddbar_invariant(
        ref.grid, ref.phi_L.smooth)
    return np.abs(ric - omega0(ref)).max()


def ric_volume(grid, rho):
    """Ricci form of a volume form: 2(FS_f + FS_b) - i ddbar log(density)."""
    return fs_form(grid, 2.0, 2.0) - ddbar_invariant(grid, np.log(rho))


def make_omega_prime(ref, ske):
    """The density of the twisted volume form e^{-lambda rho} Omega of the
    Einstein family in full, rescaled so its push-forward carries unit mean
    against eta: the whole-field expression that ``basespace.compute_gprime``
    forms row block by row block.  PositivityError unless it is finite and
    positive."""
    lam = float(ref.consts.lam)
    rho = -lam * ske.rho
    np.exp(rho, out=rho)
    np.multiply(ref.Omega, rho, out=rho)
    target_mass = ref.V * (TWO_PI * float(ref.eta_fs))   # V * int_B eta
    rho *= target_mass / integrate_total(ref.grid, rho)
    return checked_volume(rho, "twisted volume form")


def pushforward_adjoint_defect(ref, rho):
    """Worst relative defect of int_B psi f_*V = int_X (f^*psi) V, V of
    density ``rho``, over psi(x_b) = 1, x_b, x_b^2, from the whole field:
    ``fiber_integral`` contracts the fiber axis first and ``simpson2d``
    the base axis, the two orders that ``basespace.compute_gprime``
    compares row block by row block."""
    grid = ref.grid
    push = fiber_integral(grid, rho)
    worst = 0.0
    for p in (0, 1, 2):
        psi = grid.nodes_b**p
        lhs = simpson(grid, BASE, psi * push)
        rhs = TWO_PI * simpson2d(grid, rho * psi[None, :])
        worst = float(np.max([worst, abs(lhs - rhs) / max(abs(rhs), 1e-30)]))
    return worst

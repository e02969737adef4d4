"""Push-forward, the base Monge-Ampere solves, and residual checks of the
displayed base-space equations.

With a one-dimensional base the complex Monge-Ampere equation is
semilinear in the potential; Newton iterations on the FS-relative
densities stay regular through the poles because the divided operator
L = g d2 + g' d1 carries the natural Robin rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import (TWO_PI, ddbar_invariant, fiber_integral, integrate_total,
                       lap, lap_bands, pullback_base_form, ric_volume, simpson,
                       simpson2d)
from .errors import PositivityError
from .fiberwise import SKE, SPR, FiberFamilySolution
from .grids import BASE, Grid, VolumeDensity
from .model import ReferenceGeometry
from .solvers import BandedMatrix, newton_semilinear
from .wpform import WPResult

VARIANT_B = "B"
VARIANT_BPRIME = "Bprime"


# ---------------------------------------------------------------------------
# push-forward and the fiber-averaged density
# ---------------------------------------------------------------------------

def pushforward_adjoint_defect(ref: ReferenceGeometry, V) -> float:
    """Worst relative defect of int_B psi f_*V = int_X (f^*psi) V over the
    monomial test functions psi(x_b) = 1, x_b, x_b^2."""
    grid = ref.grid
    rho = V.rho if isinstance(V, VolumeDensity) else np.asarray(V, dtype=float)
    push = fiber_integral(grid, rho)
    worst = 0.0
    for p in (0, 1, 2):
        psi = grid.nodes_b**p
        lhs = simpson(grid, BASE, psi * push)
        rhs = TWO_PI * simpson2d(grid, rho * psi[None, :])
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    return worst


# ---------------------------------------------------------------------------
# G' and its descent from the total space
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class GprimeReport:
    variant: str
    gprime: np.ndarray
    delta_lower: float
    lp_norms: dict
    normalization_defect: float
    adjoint_defect: float
    volume: VolumeDensity    # the total-space volume pushed forward


def make_omega_prime(ref: ReferenceGeometry,
                     ske: FiberFamilySolution) -> VolumeDensity:
    """Twisted volume form e^{-lambda rho} * Omega for the Einstein family,
    rescaled so the push-forward carries unit mean against eta (the free
    multiplicative constant of the construction)."""
    if ske.kind != SKE:
        raise ValueError("omega-prime needs the fiberwise Einstein family")
    lam = float(ref.consts.lam)
    rho = ref.Omega.rho * np.exp(-lam * ske.rho)
    target_mass = ref.V * (TWO_PI * float(ref.eta_fs))   # V * int_B eta
    return VolumeDensity(rho * (target_mass / integrate_total(ref.grid, rho)))


def compute_gprime(ref: ReferenceGeometry, variant: str = SPR,
                   fiber_sol: FiberFamilySolution | None = None,
                   eps_lp: float = 0.1) -> GprimeReport:
    """G' = f_* Omega / (V eta) as a base profile with its L^p diagnostics."""
    if variant == SPR:
        vol = ref.Omega
    elif variant == SKE:
        if fiber_sol is None:
            raise ValueError("the Einstein variant needs its fiber family")
        vol = make_omega_prime(ref, fiber_sol)
    else:
        raise ValueError(f"unknown variant {variant!r}")

    grid = ref.grid
    push = fiber_integral(grid, vol)
    gprime = push / (ref.V * ref.eta_fs)
    if np.any(gprime <= 0.0):
        raise PositivityError("push-forward density lost positivity; "
                              "upstream data corrupted")
    lp = {}
    for p in (1.0, 1.0 + eps_lp, 2.0):
        lp[p] = float((TWO_PI * ref.eta_fs *
                       simpson(grid, BASE, gprime**p))**(1.0 / p))
    defect = abs(simpson(grid, BASE, gprime) - 1.0)
    return GprimeReport(variant=variant, gprime=gprime,
                        delta_lower=float(gprime.min()), lp_norms=lp,
                        normalization_defect=float(defect),
                        adjoint_defect=pushforward_adjoint_defect(ref, vol),
                        volume=vol)


@dataclass(eq=False)
class GDescendsReport:
    variant: str
    vertical_oscillation: float
    pullback_defect: float


def check_g_descends(ref: ReferenceGeometry, fiber_sol: FiberFamilySolution,
                     gprime: GprimeReport) -> GDescendsReport:
    """Fiber constancy of G = Omega / (2 omega_family ^ pullback(eta)) and
    agreement with the pulled-back base profile; Omega is the volume that
    ``gprime`` pushed forward."""
    if gprime.variant != fiber_sol.kind:
        raise ValueError(f"G' of the {gprime.variant} family cannot audit "
                         f"the {fiber_sol.kind} family")
    G = gprime.volume.rho / (2.0 * ref.eta_fs * fiber_sol.vertical_fs)
    osc = float((G.max(axis=0) - G.min(axis=0)).max())
    pullback = float(np.abs(G - gprime.gprime[None, :]).max())
    return GDescendsReport(variant=fiber_sol.kind, vertical_oscillation=osc,
                           pullback_defect=pullback)


# ---------------------------------------------------------------------------
# the base Monge-Ampere solves
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class BaseMetricSolution:
    variant: str             # "B" | "Bprime"
    kind: str                # which fiber pipeline fed G'
    rho: np.ndarray
    dens_fs: np.ndarray      # FS-relative density of the solved base metric
    khat: float              # density of the reference form in the equation
    forward_residual: float
    positivity_margin: float
    zeroth_order_min: float  # monotonicity witness of the Newton linearization
    iterations: int
    trace: list


def solve_base_ma(ref: ReferenceGeometry, gprime: GprimeReport,
                  variant: str = VARIANT_B, init: np.ndarray | float = 0.0,
                  tol: float = 1e-11, max_iter: int = 60) -> BaseMetricSolution:
    """Damped Newton for (ref_form + i ddbar rho) = G' e^rho ref_form.

    ``variant`` selects the reference form eta or eta/(1-e^{-T}); the
    linearization L - khat G' e^rho has a strictly negative-definite
    zeroth-order part, so every step is a regular solve.  The residual
    applies L by its stencil (``lap``) and the Jacobian is banded, so a
    step costs O(n) time and memory.
    """
    grid = ref.grid
    kappa = float(ref.eta_fs)
    lam_plus = float(ref.consts.lam + 1)
    if variant == VARIANT_B:
        khat = kappa
    elif variant == VARIANT_BPRIME:
        khat = kappa * lam_plus
    else:
        raise ValueError(f"unknown variant {variant!r}")

    bands = lap_bands(grid, BASE)
    G = gprime.gprime
    zeroth_min = [np.inf]

    def residual(rho):
        return khat + lap(grid, rho, BASE) - khat * G * np.exp(rho)

    def jacobian(rho):
        coeff = khat * G * np.exp(rho)
        zeroth_min[0] = min(zeroth_min[0], float(coeff.min()))
        J = bands.copy()
        J[2] -= coeff
        return BandedMatrix(J)

    x0 = np.broadcast_to(np.asarray(init, dtype=float),
                         (grid.n_base + 1,)).astype(float)
    result = newton_semilinear(residual, jacobian, x0, tol=tol,
                               max_iter=max_iter)
    rho = result.x
    dens = khat + lap(grid, rho, BASE)
    margin = float(dens.min())
    if margin <= 0.0:
        raise PositivityError(f"base metric lost positivity (margin {margin:.3e})",
                              worst=margin)
    return BaseMetricSolution(variant=variant, kind=gprime.variant, rho=rho,
                              dens_fs=dens, khat=khat,
                              forward_residual=float(np.abs(residual(rho)).max()),
                              positivity_margin=margin,
                              zeroth_order_min=float(zeroth_min[0]),
                              iterations=result.iterations,
                              trace=result.trace)


def integrated_ma_defect(ref: ReferenceGeometry, gprime: GprimeReport,
                         sol: BaseMetricSolution) -> float:
    """Relative gap between int_B of the solved metric and of G' e^rho times
    the reference form; equals the integrated equation residual."""
    grid = ref.grid
    lhs = simpson(grid, BASE, sol.dens_fs)
    rhs = simpson(grid, BASE, sol.khat * gprime.gprime * np.exp(sol.rho))
    return abs(lhs - rhs) / abs(rhs)


# ---------------------------------------------------------------------------
# residuals of the displayed equations
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ResidualReport:
    name: str
    residual_sup: float
    scale: float
    relative: float
    extra: dict
    field: np.ndarray | None = None   # the residual on the base grid


def twisted_ke_residual(ref: ReferenceGeometry, sol: BaseMetricSolution,
                        wp: WPResult) -> ResidualReport:
    """Sup-norm of Ric(omega) + omega [+ lambda eta] - wp over the base."""
    grid = ref.grid
    g = grid.g_b
    lam = float(ref.consts.lam)
    kappa = float(ref.eta_fs)
    ric_fs = 2.0 - lap(grid, np.log(sol.dens_fs), BASE)
    res_fs = ric_fs + sol.dens_fs - wp.wp_fs
    if sol.variant == VARIANT_B:
        res_fs = res_fs + lam * kappa
    res = g * res_fs
    scale = float(np.abs(g * sol.dens_fs).max())
    sup = float(np.abs(res).max())
    return ResidualReport(name=f"twisted_ke[{sol.variant}]", residual_sup=sup,
                          scale=scale, relative=sup / scale,
                          extra={"wp_route": wp.route}, field=res)


def wpl_fs_residual(ref: ReferenceGeometry, wp: WPResult) -> ResidualReport:
    """Residual of -Ric(f_* Omega) + wp = (lambda + 1) eta on the base."""
    grid = ref.grid
    g = grid.g_b
    lam_plus = float(ref.consts.lam + 1)
    push = fiber_integral(grid, ref.Omega)
    ric_fs = 2.0 - lap(grid, np.log(push), BASE)
    res = g * (-ric_fs + wp.wp_fs - lam_plus * ref.eta_fs)
    scale = float(np.abs(g * lam_plus * ref.eta_fs).max())
    sup = float(np.abs(res).max())
    return ResidualReport(name="wpl_fs", residual_sup=sup, scale=scale,
                          relative=sup / scale, extra={"wp_route": wp.route})


def _deviation_from_constant(grid: Grid, field: np.ndarray) -> float:
    mean = simpson2d(grid, field)
    return float(np.abs(field - mean).max())


# the displayed volume identity of each (fiber family, base variant) pair
_VOLUME_IDENTITY = {(SPR, VARIANT_B): 1, (SPR, VARIANT_BPRIME): 2,
                    (SKE, VARIANT_B): 3, (SKE, VARIANT_BPRIME): 4}


def volume_identity_residual(ref: ReferenceGeometry,
                             fiber_sol: FiberFamilySolution,
                             base_sol: BaseMetricSolution) -> ResidualReport:
    """Coefficient-wise residual of the displayed volume-form equation of
    the fiber family and base variant, reported as volume_identity[k]:

    1 (spr, B):   pullback(omega_B)  = eT w - (1-eT) Ric(e^{lam(f* rho_B - rho)} Vol)
    2 (spr, B'):  (1-eT) pullback(omega_B') = eT w - (1-eT) Ric(e^{-lam rho} Vol)
    3 (ske, B):   pullback(omega_B)  = eT w - (1-eT) Ric(e^{lam f* rho_B} Vol)
    4 (ske, B'):  (1-eT) pullback(omega_B') = eT w - (1-eT) Ric(Vol)

    with w the family form and Vol = 2 w_vertical ^ pullback(base metric).
    The deviation gaps of the fiber potential and the pulled-back base
    potential are reported; the exponential factor disappears exactly
    when the matching gap vanishes.
    """
    grid = ref.grid
    eT = float(ref.consts.eT)
    one_minus = float(1 - ref.consts.eT)
    lam = float(ref.consts.lam)
    which = _VOLUME_IDENTITY[fiber_sol.kind, base_sol.variant]

    family_form = ref.omega0 + ddbar_invariant(grid, fiber_sol.rho)
    rho_b_pull = np.broadcast_to(base_sol.rho[None, :], grid.shape)

    if which == 1:
        exponent = lam * (rho_b_pull - fiber_sol.rho)
    elif which == 2:
        exponent = -lam * fiber_sol.rho
    elif which == 3:
        exponent = lam * rho_b_pull
    else:
        exponent = np.zeros(grid.shape)

    vol = VolumeDensity(np.exp(exponent) * 2.0 * fiber_sol.vertical_fs *
                        base_sol.dens_fs[None, :])
    rhs = eT * family_form - one_minus * ric_volume(grid, vol)

    lhs = pullback_base_form(grid, base_sol.dens_fs)
    if which in (2, 4):
        lhs = one_minus * lhs

    diff = lhs - rhs
    sup = diff.sup()
    scale = max(rhs.sup(), 1e-30)
    gaps = {
        "gap_fiber_potential": _deviation_from_constant(grid, fiber_sol.rho),
        "gap_base_potential": _deviation_from_constant(grid, np.array(rho_b_pull)),
        "gap_difference": _deviation_from_constant(
            grid, fiber_sol.rho - rho_b_pull),
    }
    return ResidualReport(name=f"volume_identity[{which}]", residual_sup=sup,
                          scale=scale, relative=sup / scale, extra=gaps)

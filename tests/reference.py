"""The dense, unstreamed reference of one cell: the tests' one whole-field
oracle.

The run holds the paper's forms only as FS-relative profiles and row
blocks.  Here each is formed on the whole grid at once, in numpy, from
this module's own stencils: it calls none of the package's grid
operators.  A form is a (3, n_f+1, n_b+1) array of log-frame coefficients
[ff, bb, fb]; a volume form is its density against the product FS volume.
Where a stage claims the bits of a whole-field expression, the expression
here takes the same IEEE operations in the same order.  Three oracles
share no stencil with the run: the exact-rational five-point weights, the
double-resolution i ddbar and the dense bordered LU with long-double
refinement.
"""

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import Polynomial

from fanofib.grids import BASE, FIBER
from fanofib.solvers import NEWTON_TOL, poisson_system

FF, BB, FB = 0, 1, 2
TWO_PI = 2.0 * math.pi


def d1(a, h, axis=0):
    """Second-order first derivative along ``axis``, one-sided at the ends."""
    v = np.moveaxis(np.asarray(a, dtype=float), axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def d2(a, h, axis=0):
    """Second-order second derivative along ``axis``, one-sided at the ends."""
    v = np.moveaxis(np.asarray(a, dtype=float), axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    return np.moveaxis(out, 0, axis)


def _axis(grid, v, axis_name):
    """The array axis of ``axis_name`` in a profile or 2D field ``v``, and
    g, g' shaped to scale it."""
    ax = int(np.ndim(v) == 2 and axis_name == BASE)
    shape = (-1,) + (1,) * (np.ndim(v) - 1 - ax)
    return ax, grid.g(axis_name).reshape(shape), grid.gp(axis_name).reshape(shape)


def lap(grid, v, axis_name):
    """L = g d2 + g' d1 along one axis."""
    ax, g, gp = _axis(grid, v, axis_name)
    h = grid.h(axis_name)
    return g * d2(v, h, ax) + gp * d1(v, h, ax)


def dfdb(grid, v):
    """D_f D_b v, the mixed log-frame coefficient of i ddbar v."""
    inner = grid.g_b[None, :] * d1(v, grid.h(BASE), 1)
    return grid.g_f[:, None] * d1(inner, grid.h(FIBER), 0)


def ddbar(grid, psi):
    """The log-frame coefficients [ff, bb, fb] of i ddbar psi."""
    return np.stack((grid.g_f[:, None] * lap(grid, psi, FIBER),
                     grid.g_b[None, :] * lap(grid, psi, BASE), dfdb(grid, psi)))


def dense_lap(grid, axis_name):
    """The dense (n+1)^2 matrix of L: ``d1`` and ``d2`` of the identity."""
    eye, h = np.eye(grid.n(axis_name) + 1), grid.h(axis_name)
    return (grid.g(axis_name)[:, None] * d2(eye, h)
            + grid.gp(axis_name)[:, None] * d1(eye, h))


def ddbar_fine(psi_fn, n):
    """[ff, bb, fb] of i ddbar psi_fn on the interior nodes of an n^2 grid,
    by centred differences at twice the resolution."""
    x, h = np.linspace(0.0, 1.0, 2 * n + 1), 0.5 / n
    P = psi_fn(x[:, None], x[None, :])
    g, gp = x * (1.0 - x), 1.0 - 2.0 * x

    def c1(a, ax):
        return (np.roll(a, -1, ax) - np.roll(a, 1, ax)) / (2 * h)

    def c2(a, ax):
        return (np.roll(a, -1, ax) - 2 * a + np.roll(a, 1, ax)) / h**2

    sel = slice(2, -2, 2)
    return np.stack((g[:, None]**2 * c2(P, 0) + (g * gp)[:, None] * c1(P, 0),
                     g[None, :]**2 * c2(P, 1) + (g * gp)[None, :] * c1(P, 1),
                     g[:, None] * g[None, :] * c1(c1(P, 1), 0)))[:, sel, sel]


def exact_five_point(k, deriv):
    """The weights w_j of d^deriv/dx^deriv at node k from the nodes
    j = 0..4, exact: the 5x5 system sum_j w_j (j - k)^p = p! [p == deriv],
    p = 0..4, by Gauss-Jordan elimination in Fractions."""
    rows = [[Fraction(j - k) ** p for j in range(5)]
            + [Fraction(math.factorial(p) if p == deriv else 0)] for p in range(5)]
    for c in range(5):
        pivot = next(r for r in range(c, 5) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [a / rows[c][c] for a in rows[c]]
        for r in range(5):
            if r != c:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[c])]
    return [row[5] for row in rows]


def exact_table(deriv):
    """Row k: ``exact_five_point(k, deriv)``, each weight rounded once."""
    return np.array([[float(w) for w in exact_five_point(k, deriv)] for k in range(5)])


def five_point(v, w):
    """The stencils ``w`` along axis 0: the centred row 2 inside, the
    one-sided rows at the two end nodes of each side."""
    n = v.shape[0]
    out = np.empty_like(v)
    out[2:n - 2] = sum(w[2, k] * v[k:n - 4 + k] for k in range(5))
    for r in (0, 1):
        out[r] = sum(w[r, k] * v[k] for k in range(5))
        out[n - 2 + r] = sum(w[3 + r, k] * v[n - 5 + k] for k in range(5))
    return out


def five_point_lap(grid, v, axis_name):
    """L from the exact five-point weights, scaled by 1/h and 1/h^2."""
    ax, g, gp = _axis(grid, v, axis_name)
    h, along = grid.h(axis_name), np.moveaxis(v, ax, 0)
    return (g * np.moveaxis(five_point(along, exact_table(2) / h**2), 0, ax)
            + gp * np.moveaxis(five_point(along, exact_table(1) / h), 0, ax))


def five_point_matrix(n_nodes, deriv, h):
    """The dense matrix of ``exact_table(deriv)`` on the window nearest
    each node."""
    M, table = np.zeros((n_nodes, n_nodes)), exact_table(deriv)
    for i in range(n_nodes):
        j0 = min(max(i - 2, 0), n_nodes - 5)
        M[i, j0:j0 + 5] = table[i - j0]
    return M / h**deriv


def simpson(grid, axis_name, v):
    """Composite Simpson over [0, 1], one compensated sum."""
    return math.fsum((grid.simpson(axis_name) * v).tolist()) / (3.0 * grid.n(axis_name))


def simpson2d(grid, v):
    """Tensor Simpson, the base axis contracted first."""
    rows = np.einsum("ij,j->i", v, grid.simpson_b)
    return math.fsum((grid.simpson_f * rows).tolist()) / (9.0 * grid.n_fiber * grid.n_base)


def simpson_columns(grid, v):
    """Simpson along the fiber axis of every base column."""
    return np.einsum("i,ij->j", grid.simpson_f, v) / (3.0 * grid.n_fiber)


def field_shape(grid):
    return (grid.n_fiber + 1, grid.n_base + 1)


def fs_form(grid, fiber_coeff, base_coeff):
    """fiber_coeff FS_f + base_coeff FS_b; a base profile as ``base_coeff``
    gives the pullback of that base form."""
    return np.stack(np.broadcast_arrays(fiber_coeff * grid.g_f[:, None],
                                        base_coeff * grid.g_b[None, :], 0.0))


def fs_density(grid, coeff):
    """A log-frame coefficient over g_f g_b, the removable singularities
    at the poles filled by quadratic extrapolation, one axis at a time."""
    out = np.asarray(coeff, dtype=float)
    for axis, g in ((0, grid.g_f[:, None]), (1, grid.g_b[None, :])):
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.moveaxis(out / g, axis, 0)
        w[0] = 3.0 * w[1] - 3.0 * w[2] + w[3]
        w[-1] = 3.0 * w[-2] - 3.0 * w[-3] + w[-4]
        out = np.moveaxis(w, 0, axis)
    return out


def wedge(grid, M, P):
    """The density of M ^ P against the product FS volume."""
    return fs_density(grid, M[FF] * P[BB] + M[BB] * P[FF] - 2.0 * M[FB] * P[FB])


def full_metric(grid, fiber_sol):
    """A family's vertical metric on every node, in a new array: the
    Einstein family's one column repeated along the base."""
    u = fiber_sol.vertical_fs
    return np.repeat(u, grid.n_base + 1, axis=1) if u.shape[1] == 1 else u.copy()


def vertical_fs(ref):
    """omega0's FS-relative density on the fibers, c + eps D2P Q."""
    w = ref.warp
    return float(ref.spec.c) + w.eps * w.D2P_fs[:, None] * w.Q[None, :]


def base_fs(ref):
    """omega0's FS-relative base-base density, a + eps P D2Q."""
    w = ref.warp
    return float(ref.spec.a) + w.eps * w.P[:, None] * w.D2Q_fs[None, :]


def mixed_fb(ref):
    """omega0's log-frame mixed entry, eps DP DQ."""
    w = ref.warp
    return w.eps * w.DP[:, None] * w.DQ[None, :]


def weight(ref):
    """psi_w = eps P Q, the smooth part of h_L's weight."""
    w = ref.warp
    return w.eps * w.P[:, None] * w.Q[None, :]


def volume(ref):
    """The reference volume density C exp(-lambda psi_w), C fixed here
    against the mass of 2 omega0 ^ pullback(eta)."""
    rho = np.exp(-float(ref.consts.lam) * weight(ref))
    target = TWO_PI**2 * simpson2d(ref.grid, 2.0 * ref.eta_fs * vertical_fs(ref))
    return rho * (target / (TWO_PI**2 * simpson2d(ref.grid, rho)))


def omega0(ref):
    grid = ref.grid
    return np.stack((vertical_fs(ref) * grid.g_f[:, None],
                     base_fs(ref) * grid.g_b[None, :], mixed_fb(ref)))


def min_eigenvalue(ref):
    """omega0's minimum eigenvalue on every node."""
    w = ref.warp
    a11, a22 = vertical_fs(ref), base_fs(ref)
    a12 = w.eps * w.DP_half[:, None] * w.DQ_half[None, :]
    return 0.5 * (a11 + a22) - np.sqrt((0.5 * (a11 - a22))**2 + a12**2)


def warp_profiles(poly, x):
    """WarpData field name, {} standing for the factor's letter -> the
    profile of the warp factor ``poly``, a ``Polynomial``, at ``x``."""
    g = Polynomial([0.0, 1.0, -1.0])
    D = g * poly.deriv()
    return {"{}": poly(x), "D{}": D(x), "D2{}_fs": D.deriv()(x),
            "D{}_half": np.sqrt(g(x)) * poly.deriv()(x)}


def chi(ref):
    """The twist form: pullback(eta) = e^{-T} omega0 + (1-e^{-T}) chi."""
    lam = float(ref.consts.lam)
    return (lam + 1.0) * fs_form(ref.grid, 0.0, ref.eta_fs) - lam * omega0(ref)


def ric_weight_residual(ref) -> float:
    """sup |Ric(h_L) - omega0|: the pole parts c log(1+s_f) + a log(1+s_b)
    of h_L's weight exact, its smooth part differentiated."""
    ric = fs_form(ref.grid, float(ref.spec.c), float(ref.spec.a)) + ddbar(
        ref.grid, weight(ref))
    return np.abs(ric - omega0(ref)).max()


def ric_volume(grid, rho):
    """The Ricci form 2(FS_f + FS_b) - i ddbar log rho of a volume form."""
    return fs_form(grid, 2.0, 2.0) - ddbar(grid, np.log(rho))


def poisson(grid, axis_name, rhs_fs):
    """``solve_poisson_1d``'s flux solve in whole fields: the Simpson gauge
    as one accumulate, the compatibility gate left out."""
    rfs = np.asarray(rhs_fs, dtype=float)
    n = grid.n(axis_name)
    system = poisson_system(grid, axis_name)
    sums = np.cumsum(rfs[1:n], axis=0)
    ends = (rfs[0], rfs[1], rfs[n - 1], rfs[n], sums[-1])
    f0, mu = sum(k[:, None] * e for k, e in zip(system.end_solve.T, ends))
    flux = (np.vstack([np.zeros_like(f0), sums]) + f0
            + np.multiply.outer(system.mu_flux, mu))
    v = np.vstack([np.zeros_like(f0),
                   np.cumsum(flux / system.conductance[:, None], axis=0)])
    weights = grid.simpson(axis_name) / (3.0 * n)
    return v - np.add.accumulate(weights[:, None] * v, axis=0)[-1]


def bordered(grid, axis_name, rfs):
    """[u, mu] of [[L, 1], [w, 0]] [u, mu] = [rfs, 0] by dense LU.  One
    refinement step with a long-double residual removes the LU's own
    roundoff, about cond * eps (5e-12 relative at n = 1024, a thousand
    times the flux solve's error), so a comparison measures the flux solve
    alone."""
    n = grid.n(axis_name)
    A = np.zeros((n + 2, n + 2))
    A[:n + 1, :n + 1] = dense_lap(grid, axis_name)
    A[:n + 1, n + 1] = 1.0
    A[n + 1, :n + 1] = grid.simpson(axis_name) / (3.0 * n)
    B = np.zeros((n + 2, rfs.shape[1]))
    B[:n + 1] = rfs
    x = np.linalg.solve(A, B)
    ld = np.longdouble
    resid = B.astype(ld) - A.astype(ld) @ x.astype(ld)
    x = (x.astype(ld) + np.linalg.solve(A, resid.astype(float))).astype(float)
    return x[:n + 1], x[n + 1]


def _family(ref, u):
    """u scaled per fiber to the class volume c, its mean-zero potential
    and its relative volume defect."""
    c = float(ref.spec.c)
    u = u * (c / simpson_columns(ref.grid, u))[None, :]
    rho = poisson(ref.grid, FIBER, u - vertical_fs(ref))
    return u, rho, float(np.abs(simpson_columns(ref.grid, u) - c).max() / c)


def spr(ref):
    """The prescribed-Ricci family (u, rho, solver residual, volume
    defect): L_f v = -lambda eps D2P Q, u = C e^v."""
    grid, w = ref.grid, ref.warp
    source = -float(ref.consts.lam) * w.eps * w.D2P_fs[:, None] * w.Q[None, :]
    v = poisson(grid, FIBER, source)
    residual = float(np.abs(lap(grid, v, FIBER) - source).max())
    u, rho, defect = _family(ref, np.exp(v))
    return u, rho, residual, defect


def ske(ref):
    """The Einstein family (u, rho, solver residual, volume defect, Newton
    steps) by a dense Newton on every fiber for 2 - L v - lambda e^v = 0,
    bordered by the orbit gauge <wk, v - v0> = 0 and a column along the
    Moebius direction; fiber j > 0 starts at fiber j - 1's solution, fiber
    0 at omega0's fiber metric."""
    grid, n, lam = ref.grid, ref.grid.n_fiber + 1, float(ref.consts.lam)
    L = dense_lap(grid, FIBER)
    kvec = 1.0 - 2.0 * grid.nodes_f
    wk = (grid.simpson_f / (3.0 * grid.n_fiber)) * kvec
    v = np.log(vertical_fs(ref))
    residual, steps = 0.0, 0
    for j in range(grid.n_base + 1):
        v0 = v[:, max(j - 1, 0)]
        x = np.concatenate([v0, [0.0]])
        while True:
            r = np.concatenate([2.0 - L @ x[:n] - lam * np.exp(x[:n]) + x[n] * kvec,
                                [float(wk @ (x[:n] - v0))]])
            if np.abs(r).max() <= NEWTON_TOL:
                break
            J = np.zeros((n + 1, n + 1))
            J[:n, :n] = -L - np.diag(lam * np.exp(x[:n]))
            J[:n, n], J[n, :n] = kvec, wk
            x, steps = x - np.linalg.solve(J, r), steps + 1
        v[:, j] = x[:n]
        residual = max(residual, float(np.abs(r).max()))
    u, rho, defect = _family(ref, np.exp(v))
    return u, rho, residual, defect, steps


def audit(ref, fiber_sol):
    """The fiber audit by the five-point L: (forward residual, positivity
    margin, the Einstein weight's residual or None)."""
    grid, lam, einstein = ref.grid, float(ref.consts.lam), fiber_sol.kind == "ske"
    u, m0 = fiber_sol.vertical_fs, vertical_fs(ref)
    ric = 2.0 - five_point_lap(grid, np.log(u), FIBER)
    weight = (float(np.abs(five_point_lap(grid, fiber_sol.rho, FIBER) + m0 - u).max())
              if einstein else None)
    return float(np.abs(ric - lam * (u if einstein else m0)).max()), float(u.min()), weight


def sections(ref, fiber_sol):
    """The canonical section family of a fiber family and its route: (the
    fiber Ricci defect, the log fiber integrals less the pole part, wp_fs)."""
    grid, lam = ref.grid, float(ref.consts.lam)
    smooth_log, target = 0.0 - lam * weight(ref), vertical_fs(ref)
    if fiber_sol.kind == "ske":
        smooth_log = 0.0 - (weight(ref) + fiber_sol.rho) * lam
        target = fiber_sol.vertical_fs
    ric_defect = float(np.abs(2.0 - lap(grid, smooth_log, FIBER) - lam * target).max())
    log_norm = np.log(TWO_PI * simpson_columns(grid, np.exp(smooth_log)))
    return ric_defect, log_norm, float(ref.consts.lam * ref.spec.a) - lap(grid, log_norm, BASE)


def section_density(ref, fam):
    """The nodal density e^{-lambda psi_w} (1 - x_b)^pole_one of the section
    family ``fam`` of the weight h_L."""
    return (np.exp(-float(ref.consts.lam) * weight(ref))
            * (1.0 - ref.grid.nodes_b[None, :])**fam.pole_one)


def pullback_residual(ref, fiber_sol):
    """r of the residual route: (the route's defect, sup |r_ff|, sup |r_fb|,
    the per-column extremes of r_bb, the fiber average of r_bb / g_b)."""
    grid, lam = ref.grid, float(ref.consts.lam)
    log_u = np.log(full_metric(grid, fiber_sol))
    twist_ff_fs, twist_fb = lam * vertical_fs(ref), lam * mixed_fb(ref)
    twist_bb_fs = lam * base_fs(ref)
    if fiber_sol.kind == "ske":
        rho = fiber_sol.rho
        twist_ff_fs = lam * (vertical_fs(ref) + lap(grid, rho, FIBER))
        twist_fb = lam * (mixed_fb(ref) + dfdb(grid, rho))
        twist_bb_fs = twist_bb_fs + lam * lap(grid, rho, BASE)
    abs_ff = np.abs((twist_ff_fs - (2.0 - lap(grid, log_u, FIBER))) * grid.g_f[:, None])
    abs_fb = np.abs(twist_fb + dfdb(grid, log_u))
    r_bb_fs = twist_bb_fs + lap(grid, log_u, BASE)
    r_bb = r_bb_fs * grid.g_b[None, :]
    bb_lo, bb_hi = r_bb.min(axis=0), r_bb.max(axis=0)
    defect = float((abs_ff + abs_fb + (bb_hi - bb_lo)[None, :]).max())
    return (defect, float(abs_ff.max()), float(abs_fb.max()), bb_lo, bb_hi,
            simpson_columns(grid, r_bb_fs))


def omega_prime(ref, ske_sol):
    """The twisted volume e^{-lambda rho} Omega of the Einstein family,
    scaled so that its push-forward has unit mean against eta."""
    rho = np.exp(-float(ref.consts.lam) * ske_sol.rho)
    np.multiply(volume(ref), rho, out=rho)
    target_mass = ref.V * (TWO_PI * float(ref.eta_fs))   # V * int_B eta
    rho *= target_mass / (TWO_PI**2 * simpson2d(ref.grid, rho))
    return rho


def pushforward_adjoint_defect(ref, rho):
    """The worst relative defect of int_B psi f_*V = int_X (f^*psi) V over
    psi = 1, x_b, x_b^2, V of density ``rho``: the fiber axis contracted
    first on the left, the base axis first on the right."""
    grid = ref.grid
    push = TWO_PI * simpson_columns(grid, rho)
    worst = 0.0
    for p in (0, 1, 2):
        psi = grid.nodes_b**p
        lhs = simpson(grid, BASE, psi * push)
        rhs = TWO_PI * simpson2d(grid, rho * psi[None, :])
        worst = float(np.max([worst, abs(lhs - rhs) / max(abs(rhs), 1e-30)]))
    return worst


def gprime(ref, fiber_sol):
    """(G', its adjoint defect, the fiber oscillation of G, sup |G - G'|)
    for G = vol / (2 u eta), vol the volume the family pushes forward."""
    vol = omega_prime(ref, fiber_sol) if fiber_sol.kind == "ske" else volume(ref)
    G = vol / (2.0 * ref.eta_fs * fiber_sol.vertical_fs)
    profile = TWO_PI * simpson_columns(ref.grid, vol) / (ref.V * ref.eta_fs)
    return (profile, pushforward_adjoint_defect(ref, vol),
            float((G.max(axis=0) - G.min(axis=0)).max()),
            float(np.abs(G - profile[None, :]).max()))


def volume_identity(ref, fiber_sol, base_sol):
    """(sup, scale) of one volume identity in full: lhs - [eT (omega0 +
    i ddbar rho) - (1-eT) Ric(Vol)], Vol the twisted volume density."""
    grid, lam = ref.grid, float(ref.consts.lam)
    eT, one_minus = float(ref.consts.eT), float(1 - ref.consts.eT)
    exponent = np.zeros(field_shape(grid))
    if fiber_sol.kind == "spr":
        exponent = exponent - lam * fiber_sol.rho
    if base_sol.variant == "B":
        exponent = exponent + lam * base_sol.rho[None, :]
    vol = np.exp(exponent) * 2.0 * fiber_sol.vertical_fs * base_sol.dens_fs[None, :]
    rhs = eT * (omega0(ref) + ddbar(grid, fiber_sol.rho)) - one_minus * ric_volume(grid, vol)
    lhs = fs_form(grid, 0.0, base_sol.dens_fs)
    if base_sol.variant == "Bprime":
        lhs = one_minus * lhs
    return np.abs(lhs - rhs).max(), np.abs(rhs).max()

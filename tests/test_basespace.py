import dataclasses
import math

import numpy as np
import pytest

from fanofib import basespace, calculus
from fanofib.basespace import (VARIANT_B, VARIANT_BPRIME, check_g_descends,
                               compute_gprime, integrated_ma_defect,
                               solve_base_ma, twisted_ke_residual,
                               volume_identity_residual, wpl_fs_residual)
from fanofib.calculus import TWO_PI, lap, simpson_columns
from fanofib.errors import PositivityError, PullbackStructureError
from fanofib.fiberwise import solve_ske, solve_spr
from fanofib.grids import BASE
from fanofib.model import ModelSpec, build_reference
from fanofib.pipeline import config_from_mapping, run_pipeline
from fanofib.wpform import (SectionFamilySpec, volume_family_from_sections,
                            wp_from_residual, wp_from_sections)
from conftest import peak_fields
import reference
from reference import (ddbar, fs_form, full_metric, omega0, omega_prime,
                       pushforward_adjoint_defect, ric_volume, section_density)


def wp_of(ref):
    fam = volume_family_from_sections(ref, SectionFamilySpec.canonical(ref.consts))
    return wp_from_sections(ref, fam)


# ---------------------------------------------------------------------------
# push-forward and G'
# ---------------------------------------------------------------------------

def test_pushforward_model_a(ref_a):
    push = ref_a.Omega_push
    assert np.allclose(push, 8.0 * math.pi / 3.0, rtol=1e-14)


def test_pushforward_adjoint_identity(ref_b, spr_b, ske_b):
    # product_bump's volumes are symmetric along the base, so psi = x_b^p and
    # (1 - x_b)^p give both sides the same sums there; skew_bump's are not
    skew = build_reference(ModelSpec.make(2, 1, 0.2, "skew_bump", 64, 64))
    for ref, fibers in ((ref_b, (spr_b, ske_b)), (skew, (solve_spr(skew), solve_ske(skew)))):
        volume = ref.volume_rows(0, ref.grid.n_fiber + 1)
        assert pushforward_adjoint_defect(ref, volume) < 1e-12
        for fiber in fibers:
            assert compute_gprime(ref, fiber).adjoint_defect < 1e-12


def test_pushforward_of_section_family(ref_a):
    fam = volume_family_from_sections(
        ref_a, SectionFamilySpec.canonical(ref_a.consts))
    push = TWO_PI * simpson_columns(ref_a.grid, section_density(ref_a, fam))
    expect = TWO_PI * (1.0 - ref_a.grid.nodes_b)**4
    assert np.abs(push - expect).max() < 1e-12


def test_gprime_model_a(ref_a, spr_a):
    gp = compute_gprime(ref_a, spr_a)
    assert np.allclose(gp.gprime, 1.0, atol=1e-14)
    assert gp.normalization_defect < 1e-14
    assert gp.delta_lower == pytest.approx(1.0, abs=1e-14)


def test_gprime_model_a_ske_matches_spr(ref_a, ske_a):
    gp = compute_gprime(ref_a, ske_a)
    assert np.allclose(gp.gprime, 1.0, atol=1e-13)


def test_gprime_model_b_normalized(ref_b, spr_b, ske_b):
    for sol in (spr_b, ske_b):
        gp = compute_gprime(ref_b, sol)
        # the mass against eta is the eta mass itself
        assert gp.normalization_defect < 1e-12
        assert gp.delta_lower > 0.5
        assert np.abs(gp.gprime - 1.0).max() > 1e-4   # genuinely nonconstant


def test_omega_prime_defining_relation(ref_b, ske_b):
    # pullback(eta) = eT * family_form - (1 - eT) * Ric(Omega'), pointwise
    grid = ref_b.grid
    eT = float(ref_b.consts.eT)
    family_form = omega0(ref_b) + ddbar(grid, ske_b.rho)
    lhs = fs_form(grid, 0.0, ref_b.eta_fs)
    rhs = eT * family_form - (1.0 - eT) * ric_volume(grid, omega_prime(ref_b, ske_b))
    assert np.abs(lhs - rhs).max() < 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_omega_prime_rejects_a_bad_family_column(ref_c, ske_c, bad):
    # a NaN or infinite column of the Einstein potential makes the twisted
    # volume NaN or zero there: a positivity failure where it is formed
    rho = ske_c.rho.copy()
    rho[:, ref_c.grid.n_base // 2] = bad
    with pytest.raises(PositivityError, match="twisted volume form"):
        compute_gprime(ref_c, dataclasses.replace(ske_c, rho=rho))


def test_g_descends_model_a(ref_a, spr_a):
    gp = compute_gprime(ref_a, spr_a)
    rep = check_g_descends(ref_a, spr_a, gp)
    assert rep.vertical_oscillation < 1e-12
    assert rep.pullback_defect < 1e-12


def test_g_descends_gauge_shift_invariance(ref_b, spr_b):
    # the descent comes from the pass of G', so each family gets its own G'
    gp = compute_gprime(ref_b, spr_b)
    r1 = check_g_descends(ref_b, spr_b, gp)
    beta = 0.4 * np.cos(np.pi * ref_b.grid.nodes_b)
    shifted = dataclasses.replace(spr_b, rho=spr_b.rho + beta[None, :])
    r2 = check_g_descends(ref_b, shifted, compute_gprime(ref_b, shifted))
    assert r1.vertical_oscillation == r2.vertical_oscillation
    assert r1.pullback_defect == r2.pullback_defect


def test_g_descends_rejects_mismatched_family(ref_b, spr_b, ske_b):
    # another kind, and a family of the same kind that G' was not formed
    # from, even with the same fields
    gp = compute_gprime(ref_b, ske_b)
    assert check_g_descends(ref_b, ske_b, gp).vertical_oscillation < 1e-2
    for other in (spr_b, dataclasses.replace(ske_b)):
        with pytest.raises(ValueError, match="another family"):
            check_g_descends(ref_b, other, gp)


def test_g_descent_forms_no_volume_row(ref_c, ske_c, monkeypatch, fine_blocks):
    # one Einstein cell at 64^2: the scale pass and the volume pass form
    # each row block of e^{-lambda rho} Omega once; the descent forms none
    fine_blocks(ref_c.grid)
    calls, real = [], basespace._twisted_rows
    monkeypatch.setattr(basespace, "_twisted_rows", lambda ref, rho, lo, hi:
                        calls.append((lo, hi)) or real(ref, rho, lo, hi))
    check_g_descends(ref_c, ske_c, compute_gprime(ref_c, ske_c))
    blocks = list(calculus._row_blocks(0, 65, 65))
    assert len(blocks) > 1
    assert len(calls) == 2 * len(blocks)


# ---------------------------------------------------------------------------
# base Monge-Ampere
# ---------------------------------------------------------------------------

def test_base_ma_model_a_trivial(ref_a, spr_a):
    gp = compute_gprime(ref_a, spr_a)
    sol = solve_base_ma(ref_a, gp, VARIANT_B)
    assert np.abs(sol.rho).max() == 0.0
    assert np.allclose(sol.dens_fs, float(ref_a.eta_fs), atol=1e-14)
    solp = solve_base_ma(ref_a, gp, VARIANT_BPRIME)
    assert np.abs(solp.rho).max() == 0.0
    # omega_B' = (lam + 1) eta = 2 FS for the (2,1) model
    assert np.allclose(solp.dens_fs, 2.0, atol=1e-14)


def test_base_ma_model_b(ref_b, spr_b, monkeypatch):
    real, results = basespace.newton_semilinear, []

    def recorded(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(basespace, "newton_semilinear", recorded)
    gp = compute_gprime(ref_b, spr_b)
    sol = solve_base_ma(ref_b, gp, VARIANT_B)
    assert sol.forward_residual < 1e-11
    assert sol.positivity_margin > 0.0
    assert sol.zeroth_order_min > 0.0
    assert integrated_ma_defect(ref_b, sol) < 1e-10
    # quadratic tail of the Newton iteration
    [result] = results
    tail = [r for r in result.trace if 0.0 < r < 1e-2]
    assert any(b < 10.0 * a**2 for a, b in zip(tail, tail[1:]))


@pytest.mark.parametrize("variant", [VARIANT_B, VARIANT_BPRIME])
def test_base_ma_reports_newtons_last_residual(ref_b, spr_b, variant, monkeypatch):
    # the reported residual is Newton's last trace entry, which is the
    # residual closure at the returned potential: a fresh evaluation of the
    # equation there has the same bits
    real, results = basespace.newton_semilinear, []

    def recorded(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(basespace, "newton_semilinear", recorded)
    gp = compute_gprime(ref_b, spr_b)
    sol = solve_base_ma(ref_b, gp, variant)
    [result] = results
    assert sol.forward_residual == result.trace[-1]
    lam_plus = float(ref_b.consts.lam + 1)
    khat = float(ref_b.eta_fs) * (lam_plus if variant == VARIANT_BPRIME else 1.0)
    fresh = khat + lap(ref_b.grid, sol.rho, BASE) - khat * gp.gprime * np.exp(sol.rho)
    assert sol.forward_residual == float(np.abs(fresh).max())
    assert 0.0 < sol.forward_residual < 1e-11


def test_base_ma_uniqueness_probe(ref_b, spr_b):
    gp = compute_gprime(ref_b, spr_b)
    sols = [solve_base_ma(ref_b, gp, VARIANT_B, init=i)
            for i in (0.0, 0.5, -0.5)]
    for other in sols[1:]:
        assert np.abs(other.rho - sols[0].rho).max() < 1e-9


def test_base_ma_rejects_unknown_variant(ref_a, spr_a):
    gp = compute_gprime(ref_a, spr_a)
    with pytest.raises(ValueError):
        solve_base_ma(ref_a, gp, "C")


# ---------------------------------------------------------------------------
# the displayed equations
# ---------------------------------------------------------------------------

def test_twisted_ke_model_a(ref_a, spr_a):
    gp = compute_gprime(ref_a, spr_a)
    wp = wp_of(ref_a)
    for variant in (VARIANT_B, VARIANT_BPRIME):
        sol = solve_base_ma(ref_a, gp, variant)
        rep = twisted_ke_residual(ref_a, sol, wp)
        assert rep.residual_sup < 1e-10
        assert np.abs(rep.field).max() == rep.residual_sup


def test_twisted_ke_model_b_both_routes(ref_b, spr_b):
    gp = compute_gprime(ref_b, spr_b)
    wp_s = wp_of(ref_b)
    wp_r = wp_from_residual(ref_b, spr_b)
    for variant in (VARIANT_B, VARIANT_BPRIME):
        sol = solve_base_ma(ref_b, gp, variant)
        rep_s = twisted_ke_residual(ref_b, sol, wp_s)
        rep_r = twisted_ke_residual(ref_b, sol, wp_r)
        assert rep_s.residual_sup < 1e-9      # discrete chain closes exactly
        assert rep_r.residual_sup < 50.0 * (1.0 / 64)**2
        assert abs(rep_s.residual_sup - rep_r.residual_sup) < 50.0 * (1.0 / 64)**2


@pytest.mark.parametrize("family", ["spr_c", "ske_c"])
def test_residual_route_adds_only_the_routes_difference(request, ref_c, family):
    # Ric + omega [+ lambda eta] comes from the same arrays on both routes,
    # so the fields g (S - wp_r.wp_fs) and g (S - wp_s.wp_fs) differ by
    # g (wp_s.wp_fs - wp_r.wp_fs) = wp_s.wp_base - wp_r.wp_base, which
    # wp_routes gates; the run evaluates the sections route alone.  Each
    # side rounds a few terms of size at most M = sup |wp_base| (g <= 1/4);
    # the bound carries 4 eps M (measured <= 1.1e-16 at M ~ 1, eps M / 2).
    fiber = request.getfixturevalue(family)
    fam = volume_family_from_sections(
        ref_c, SectionFamilySpec.canonical(ref_c.consts), fiber)
    wp_s, wp_r = wp_from_sections(ref_c, fam), wp_from_residual(ref_c, fiber)
    bound = 4.0 * np.finfo(float).eps * max(np.abs(wp_s.wp_base).max(),
                                             np.abs(wp_r.wp_base).max())
    gp = compute_gprime(ref_c, fiber)
    for variant in (VARIANT_B, VARIANT_BPRIME):
        sol = solve_base_ma(ref_c, gp, variant)
        gap = (twisted_ke_residual(ref_c, sol, wp_r).field
               - twisted_ke_residual(ref_c, sol, wp_s).field
               - (wp_s.wp_base - wp_r.wp_base))
        assert np.abs(gap).max() <= bound, (variant, np.abs(gap).max(), bound)


@pytest.mark.parametrize("shape", ["fiber_cubic", "skew_bump"])
@pytest.mark.parametrize("n", [64, 128])
def test_volume_identities_measure_the_spread_about_the_sections_value(shape, n):
    # Each record is max(shared vertical sup, spread of R_bb about the
    # centre), and the centre equals t - c g F up to roundoff, with
    # t = (1-eT) g (wp_sections - 2), F = dens_B - khat G' e^rho_B the base
    # solution's defect and c = 1 for B, 1-eT for B': both variants give
    # centre + c g F - t = (1-eT) g (lam a - pole_one - L log G'
    # + L smooth_log_norm), and lam a = pole_one.  log G' and
    # smooth_log_norm are logs of fiber integrals that differ by a
    # constant, so this is one second difference
    # of their nodal rounding.  Each value rounds a sum of n + 1 positive
    # terms, at most (n + 1) eps relative (Higham 2002, section 4.2), and a
    # few operations of size M: delta <= (n + 8) eps M for each profile.
    # g L maps a nodal error to at most 1 / (2 h^2) times itself (g <= 1/4,
    # |g'| <= 1), and each of the two stencils rounds about 8 terms of size
    # M / (2 h^2), 4 eps M / h^2.  The spread and the max move by no more
    # than the centre does.  Measured: at most 0.19 eps / h^2, against a
    # bound of 76 (64^2) and 136 (128^2) eps / h^2.
    ref = build_reference(ModelSpec.make(2, 1, warp_amplitude=0.2,
                                         warp_shape=shape, n_fiber=n, n_base=n))
    grid, eps = ref.grid, np.finfo(float).eps
    one_minus = float(1 - ref.consts.eT)
    for fiber in (solve_spr(ref), solve_ske(ref)):
        gp = compute_gprime(ref, fiber)
        fam = volume_family_from_sections(
            ref, SectionFamilySpec.canonical(ref.consts), fiber)
        wp_s, wp_r = wp_from_sections(ref, fam), wp_from_residual(ref, fiber)
        summary = wp_r.residual
        shared = one_minus * max(summary.ff_sup, summary.fb_sup)
        t = one_minus * grid.g_b * (wp_s.wp_fs - 2.0)
        r_lo = one_minus * (summary.bb_lo - 2.0 * grid.g_b)
        r_hi = one_minus * (summary.bb_hi - 2.0 * grid.g_b)
        M = 1.0 + max(np.abs(np.log(gp.gprime)).max(),
                      np.abs(fam.smooth_log_norm).max())
        delta = (n + 8) * eps * M
        bound = one_minus * (delta + 8.0 * eps * M) * n**2
        for variant in (VARIANT_B, VARIANT_BPRIME):
            sol = solve_base_ma(ref, gp, variant)
            c = 1.0 if variant == VARIANT_B else one_minus
            defect = sol.dens_fs - sol.khat * gp.gprime * np.exp(sol.rho)
            spread = basespace._sup_about(r_lo, r_hi, t - c * grid.g_b * defect)
            rep, = volume_identity_residual(ref, fiber, wp_r, [sol])
            gap = abs(rep.residual_sup - max(shared, spread))
            assert gap <= bound, (fiber.kind, rep.name, gap, bound)


def test_wpl_fs_model_a(ref_a):
    rep = wpl_fs_residual(ref_a, wp_of(ref_a))
    assert rep.residual_sup < 1e-12


def test_wpl_fs_scaling_invariance(ref_b):
    # scaling the volume form leaves the push-forward Ricci untouched
    import dataclasses
    wp = wp_of(ref_b)
    rep1 = wpl_fs_residual(ref_b, wp)
    scaled = dataclasses.replace(ref_b)         # shallow copy of fields
    scaled.C, scaled.Omega_push = 2.0 * ref_b.C, 2.0 * ref_b.Omega_push
    rep2 = wpl_fs_residual(scaled, wp)
    assert abs(rep1.residual_sup - rep2.residual_sup) < 1e-12


def test_omega_rescale_leaves_base_metric(ref_b, spr_b):
    import dataclasses
    scaled = dataclasses.replace(ref_b)
    scaled.C, scaled.Omega_push = 2.0 * ref_b.C, 2.0 * ref_b.Omega_push
    gp1 = compute_gprime(ref_b, spr_b)
    gp2 = compute_gprime(scaled, spr_b)
    assert np.abs(gp2.gprime - 2.0 * gp1.gprime).max() < 1e-12
    sol1 = solve_base_ma(ref_b, gp1, VARIANT_B)
    sol2 = solve_base_ma(scaled, gp2, VARIANT_B)
    # potentials differ by log 2, the metric itself is unchanged
    assert np.abs((sol1.rho - sol2.rho) - math.log(2.0)).max() < 1e-9
    assert np.abs(sol1.dens_fs - sol2.dens_fs).max() < 1e-9


@pytest.mark.parametrize("which", [1, 2])
def test_volume_identities_model_a_spr(ref_a, spr_a, which):
    gp = compute_gprime(ref_a, spr_a)
    variant = VARIANT_B if which == 1 else VARIANT_BPRIME
    sol = solve_base_ma(ref_a, gp, variant)
    rep, = volume_identity_residual(ref_a, spr_a, wp_from_residual(ref_a, spr_a),
                                    [sol])
    assert rep.residual_sup < 1e-10
    assert rep.extra["gap_fiber_potential"] == 0.0
    assert rep.extra["gap_base_potential"] == 0.0
    assert rep.extra["gap_difference"] == 0.0


@pytest.mark.parametrize("which", [3, 4])
def test_volume_identities_model_a_ske(ref_a, ske_a, which):
    gp = compute_gprime(ref_a, ske_a)
    variant = VARIANT_B if which == 3 else VARIANT_BPRIME
    sol = solve_base_ma(ref_a, gp, variant)
    rep, = volume_identity_residual(ref_a, ske_a, wp_from_residual(ref_a, ske_a),
                                    [sol])
    assert rep.residual_sup < 1e-10


def test_volume_identities_model_b_gaps_positive(ref_b, spr_b):
    gp = compute_gprime(ref_b, spr_b)
    sol = solve_base_ma(ref_b, gp, VARIANT_B)
    rep, = volume_identity_residual(ref_b, spr_b, wp_from_residual(ref_b, spr_b),
                                    [sol])
    assert rep.relative < 50.0 * (1.0 / 64)**2
    assert rep.extra["gap_fiber_potential"] > 1e-4
    assert rep.extra["gap_base_potential"] > 1e-5
    assert rep.extra["gap_difference"] > 1e-4


@pytest.mark.parametrize("kind, variant, which", [
    ("spr", VARIANT_B, 1), ("spr", VARIANT_BPRIME, 2),
    ("ske", VARIANT_B, 3), ("ske", VARIANT_BPRIME, 4)])
def test_volume_identity_gate_fails_on_a_perturbed_fiber_column(
        ref_c, spr_c, ske_c, kind, variant, which):
    fiber = spr_c if kind == "spr" else ske_c
    sol = solve_base_ma(ref_c, compute_gprime(ref_c, fiber), variant)
    tol = ref_c.grid.truncation_tol(1.0)
    rep, = volume_identity_residual(ref_c, fiber, wp_from_residual(ref_c, fiber),
                                    [sol])
    assert rep.name == f"volume_identity[{which}]"
    assert rep.relative <= tol          # 1.0e-5 against 2.4e-2 at 64^2
    u = full_metric(ref_c.grid, fiber)
    u[:, ref_c.grid.n_base // 2] *= 1.0 + 1e-3
    perturbed = dataclasses.replace(fiber, vertical_fs=u)
    bad, = volume_identity_residual(
        ref_c, perturbed, wp_from_residual(ref_c, perturbed), [sol])
    assert bad.name == rep.name
    assert bad.relative > tol           # 0.68 for each identity


@pytest.mark.parametrize("field", ["dens_fs", "rho"])
@pytest.mark.parametrize("kind, variant", [
    ("spr", VARIANT_B), ("spr", VARIANT_BPRIME),
    ("ske", VARIANT_B), ("ske", VARIANT_BPRIME)])
def test_volume_identity_reads_the_base_solution(ref_c, spr_c, ske_c, kind,
                                                 variant, field):
    # the record reads omega_B through its defect in the base equation, so
    # bending one node of dens_B by 1 + delta, or shifting rho_B there by
    # delta, moves it by about c g_b delta.  Measured: 1.0e-5 unbent,
    # 1.0e-3 at delta = 1e-3, and 0.083 (dens_fs) or 0.105 (rho) at
    # delta = 0.1, which the truncation gate fails
    fiber = spr_c if kind == "spr" else ske_c
    sol = solve_base_ma(ref_c, compute_gprime(ref_c, fiber), variant)
    wp = wp_from_residual(ref_c, fiber)
    tol = ref_c.grid.truncation_tol(1.0)
    rep, = volume_identity_residual(ref_c, fiber, wp, [sol])
    mid = ref_c.grid.n_base // 2
    for delta in (1e-3, 1e-1):
        x = getattr(sol, field).copy()
        x[mid] = x[mid] * (1.0 + delta) if field == "dens_fs" else x[mid] + delta
        bent = dataclasses.replace(sol, **{field: x})
        bad, = volume_identity_residual(ref_c, fiber, wp, [bent])
        assert bad.relative > 50.0 * rep.relative, (delta, bad.relative)
    assert bad.relative > tol
    # at delta = 0.1 the bent node sets the record, which grows by c g_b
    # times the change of the defect dens_B - khat G' e^rho_B there, with
    # c = 1 for B and 1 - eT = 1/3 for B'.  The rest is the unbent record,
    # 1.0e-4 of the growth; a centre that took the defect without c moved
    # the B' record three times as far
    c = 1.0 if variant == VARIANT_B else float(1 - ref_c.consts.eT)

    def defect(s):
        return s.dens_fs[mid] - s.khat * s.gprime[mid] * math.exp(s.rho[mid])

    moved = c * ref_c.grid.g_b[mid] * abs(defect(bent) - defect(sol))
    assert bad.residual_sup == pytest.approx(moved, rel=1e-3)


@pytest.mark.parametrize("model", [
    dict(warp_amplitude=0.2),
    dict(warp_amplitude=0.2, warp_shape="fiber_cubic")])
@pytest.mark.parametrize("n", [64, 256])
def test_shared_volume_identity_path_matches_full_assembly(model, n):
    # Both assemblies apply the same linear stencils and agree in exact
    # arithmetic; they differ in where the linear combination is formed.
    # The oracle forms the potential eT rho + (1-eT) log Vol with at most
    # 8 roundings of terms bounded by M and differentiates it once.  The
    # shared path (wp_from_residual, then R = (1-eT)(r - 2 FS_b))
    # differentiates log u, rho and the base profile b one by one and
    # combines the coefficients.  A log-frame coefficient g (g d2 + g' d1)
    # maps a nodal error delta to at most delta / (2 h^2) (g <= 1/4,
    # |g'| <= 1, stencil weights 4/h^2 and 1/h), and each stencil
    # evaluation rounds about 8 terms of size <= M / (2 h^2), 4 eps M / h^2.
    # Oracle: 4 + 4, shared path: 3 * 4, sum 20 eps M / h^2 (with the
    # roundings of the final combinations); the bound carries 32.
    ref = build_reference(ModelSpec.make(2, 1, n_fiber=n, n_base=n, **model))
    lam = float(ref.consts.lam)
    eps, h = np.finfo(float).eps, 1.0 / n
    for fiber in (solve_spr(ref), solve_ske(ref)):
        gp = compute_gprime(ref, fiber)
        sols = [solve_base_ma(ref, gp, v) for v in (VARIANT_B, VARIANT_BPRIME)]
        reps = volume_identity_residual(ref, fiber, wp_from_residual(ref, fiber),
                                        sols)
        for rep, sol in zip(reps, sols):
            M = (1.0 + np.abs(np.log(2.0 * fiber.vertical_fs)).max()
                 + np.abs(np.log(sol.dens_fs)).max()
                 + (1.0 + lam) * (np.abs(fiber.rho).max()
                                  + np.abs(sol.rho).max()))
            bound = 32.0 * eps * M / h**2
            sup, scale = reference.volume_identity(ref, fiber, sol)
            assert abs(rep.residual_sup - sup) <= bound, (rep.name, sup, bound)
            assert abs(rep.residual_sup / rep.relative - scale) <= bound, (
                rep.name, scale, bound)


def test_volume_identities_take_no_full_field_pass(monkeypatch):
    # the family field comes from the residual route's summary of r, so a
    # call costs O(n_base) beyond the gap diagnostics of the fiber potential
    n = 256
    ref = build_reference(ModelSpec.make(2, 1, warp_amplitude=0.2,
                                         warp_shape="fiber_cubic",
                                         n_fiber=n, n_base=n))
    passes = []
    real_lap = basespace.lap

    def lap(grid, psi, axis_name):
        if np.ndim(psi) != 1:
            passes.append("lap 2D")
        return real_lap(grid, psi, axis_name)

    monkeypatch.setattr(basespace, "lap", lap)
    for fiber in (solve_spr(ref), solve_ske(ref)):
        gp = compute_gprime(ref, fiber)
        sols = [solve_base_ma(ref, gp, v) for v in (VARIANT_B, VARIANT_BPRIME)]
        wp = wp_from_residual(ref, fiber)
        passes.clear()
        peak = peak_fields(volume_identity_residual, ref, fiber, wp, sols)
        reps = volume_identity_residual(ref, fiber, wp, sols)
        assert [r.name for r in reps] == (
            ["volume_identity[1]", "volume_identity[2]"] if fiber.kind == "spr"
            else ["volume_identity[3]", "volume_identity[4]"])
        assert passes == []
        assert peak < 1.0, (fiber.kind, peak)


def test_volume_identities_reject_a_foreign_form(ref_c, spr_c, ske_c):
    sol = solve_base_ma(ref_c, compute_gprime(ref_c, spr_c), VARIANT_B)
    with pytest.raises(ValueError, match="residual route"):
        volume_identity_residual(ref_c, spr_c, wp_of(ref_c), [sol])
    with pytest.raises(ValueError, match="ske family"):
        volume_identity_residual(ref_c, spr_c, wp_from_residual(ref_c, ske_c),
                                 [sol])


@pytest.mark.parametrize("field", ["vertical_fs", "dens_fs"])
def test_volume_identity_never_passes_a_nan(ref_c, spr_c, ske_c, field):
    tol = ref_c.grid.truncation_tol(1.0)
    j = ref_c.grid.n_base // 2
    for fiber in (spr_c, ske_c):
        gp = compute_gprime(ref_c, fiber)
        sols = [solve_base_ma(ref_c, gp, v) for v in (VARIANT_B, VARIANT_BPRIME)]
        if field == "vertical_fs":
            u = full_metric(ref_c.grid, fiber)
            u[:, j] = np.nan
            fiber = dataclasses.replace(fiber, vertical_fs=u)
        else:
            bad = []
            for sol in sols:
                dens = sol.dens_fs.copy()
                dens[j] = np.nan
                bad.append(dataclasses.replace(sol, dens_fs=dens))
            sols = bad
        try:
            reps = volume_identity_residual(
                ref_c, fiber, wp_from_residual(ref_c, fiber), sols)
        except (ValueError, PullbackStructureError):
            continue                    # raising is a failed check too
        assert len(reps) == 2
        for rep in reps:
            assert not rep.relative <= tol, rep.name


def test_volume_identities_keep_their_order_on_the_last_rung():
    # the benchmark's last rung.  Taking L_b b as L_b log dens_B differences
    # dens_B = khat + L_b rho_B a second time; that roundoff grows about 16x
    # per doubling and cut these orders to 1.61-1.74 at 512^2 -> 1024^2.
    # 1.8 is the benchmark's floor for them (ORDER_LOSS_FLOOR).
    cfg = config_from_mapping({"a": "2", "c": "1", "warp_amplitude": "0.2",
                               "warp_shape": "fiber_cubic",
                               "grids": "512x512,1024x1024"})
    orders = {k: v for k, v in run_pipeline(cfg).orders.items()
              if k.startswith("volume_identity")}
    assert len(orders) == 4
    assert all(v[-1] >= 1.8 for v in orders.values()), orders


def test_gprime_positivity_guard(ref_a, spr_a):
    broken = dataclasses.replace(ref_a, C=-1.0 * ref_a.C)
    with pytest.raises(PositivityError):
        compute_gprime(broken, spr_a)

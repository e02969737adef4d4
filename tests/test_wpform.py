import dataclasses
import math

import numpy as np
import pytest

from fanofib.calculus import TWO_PI, simpson_columns
from fanofib.errors import FanofibError, PullbackStructureError
from fanofib.model import build_reference
from fanofib.wpform import (SectionFamilySpec, volume_family_from_sections,
                            wp_from_residual, wp_from_sections)
from reference import section_density, weight


def canonical(ref):
    return SectionFamilySpec.canonical(ref.consts)


# ---------------------------------------------------------------------------
# the section volume family
# ---------------------------------------------------------------------------

def test_family_density_model_a(ref_a):
    fam = volume_family_from_sections(ref_a, canonical(ref_a))
    dens = section_density(ref_a, fam)
    expect = (1.0 - ref_a.grid.nodes_b[None, :])**4
    assert np.abs(dens - expect).max() < 1e-14
    assert fam.ric_defect < 1e-13


def test_family_ric_forward_check(ref_b):
    fam = volume_family_from_sections(ref_b, canonical(ref_b))
    assert fam.ric_defect < 50.0 * (1.0 / 64)**2


def test_family_rejects_inconsistent_exponents(ref_a):
    # lambda = 2 here: a ratio of 3, no ratio at all (beta = 0), the
    # ratio of two negative exponents and an exponent that is no integer
    for alpha, beta in ((3, 1), (2, 0), (-2, -1), (2.0, 1)):
        with pytest.raises(FanofibError, match="inconsistent"):
            volume_family_from_sections(ref_a, SectionFamilySpec(alpha, beta))
    # NaN compares False with 0.0, so the check is written to fail it
    for f_scale in (math.nan, math.inf, 0.0):
        bad = dataclasses.replace(canonical(ref_a), f_scale=f_scale)
        with pytest.raises(ValueError, match="f_scale"):
            volume_family_from_sections(ref_a, bad)


def test_family_weight_follows_the_fiber_family(ref_b, spr_b, ske_b):
    # h_L for no family and for the prescribed-Ricci one; h_L e^{-rho}
    # with the Ricci target lambda u for the Einstein family
    plain = volume_family_from_sections(ref_b, canonical(ref_b))
    spr = volume_family_from_sections(ref_b, canonical(ref_b), spr_b)
    ske = volume_family_from_sections(ref_b, canonical(ref_b), ske_b)
    assert np.array_equal(spr.smooth_log_norm, plain.smooth_log_norm)
    assert spr.ric_defect == plain.ric_defect
    lam = float(ref_b.consts.lam)
    for fam, rho in ((plain, 0.0), (ske, ske_b.rho)):
        smooth = np.exp(-lam * (weight(ref_b) + rho))     # exp(smooth_log)
        expect = np.log(TWO_PI * simpson_columns(ref_b.grid, smooth))
        assert np.allclose(fam.smooth_log_norm, expect, rtol=0.0, atol=1e-12)
    assert np.abs(ske.smooth_log_norm - plain.smooth_log_norm).max() > 1e-6
    assert ske.ric_defect < 50.0 * (1.0 / 64)**2


# ---------------------------------------------------------------------------
# sections route
# ---------------------------------------------------------------------------

def test_wp_sections_closed_form_two_one(ref_a):
    wp = wp_from_sections(ref_a, volume_family_from_sections(ref_a, canonical(ref_a)))
    assert np.abs(wp.wp_fs - 4.0).max() < 1e-12
    assert np.abs(wp.wp_base - 4.0 * ref_a.grid.g_b).max() < 1e-12


def test_wp_sections_closed_form_three_two(ref_a32):
    wp = wp_from_sections(ref_a32,
                          volume_family_from_sections(ref_a32, canonical(ref_a32)))
    assert np.abs(wp.wp_fs - 3.0).max() < 1e-12


def test_wp_sections_lognorm_pole_structure(ref_a):
    # log_norm = smooth_log_norm + pole_one log(1 - x_b): the canonical
    # frame dies at x_b = 1 only, to the order lambda a of the weight's pole
    fam = volume_family_from_sections(ref_a, canonical(ref_a))
    assert fam.pole_one == float(ref_a.consts.lam * ref_a.spec.a) > 0.0
    assert np.isfinite(fam.smooth_log_norm).all()
    wp = wp_from_sections(ref_a, fam)
    assert np.isfinite(wp.wp_fs).all()         # the form itself is regular


def test_wp_constant_family_rescale_invariance(ref_b):
    fam = volume_family_from_sections(ref_b, canonical(ref_b))
    spec5 = SectionFamilySpec(alpha=ref_b.consts.alpha, beta=ref_b.consts.beta,
                              f_scale=5.0)
    fam5 = volume_family_from_sections(ref_b, spec5)
    wp1 = wp_from_sections(ref_b, fam)
    wp5 = wp_from_sections(ref_b, fam5)
    # the log integrals shift by the constant 2 log(5) / beta; the pole
    # exponent does not move
    assert fam5.pole_one == fam.pole_one
    shift = fam5.smooth_log_norm - fam.smooth_log_norm
    expect = 2.0 * math.log(5.0) / float(ref_b.consts.beta)
    assert np.abs(shift - expect).max() < 1e-12
    assert np.abs(wp5.wp_base - wp1.wp_base).max() < 1e-12


def test_wp_weight_constant_shift(ref_b):
    ref2 = build_reference(ref_b.spec)
    weight_rows = ref2.weight_rows
    ref2.weight_rows = lambda lo, hi: weight_rows(lo, hi) + 0.37
    # a constant shift of the metric weight scales the whole family and
    # moves log_norm by an additive constant only
    lam = float(ref_b.consts.lam)
    fam1 = volume_family_from_sections(ref_b, canonical(ref_b))
    fam2 = volume_family_from_sections(ref2, canonical(ref2))
    wp1, wp2 = wp_from_sections(ref_b, fam1), wp_from_sections(ref2, fam2)
    shift = fam2.smooth_log_norm - fam1.smooth_log_norm
    assert np.abs(shift + lam * 0.37).max() < 1e-12
    assert np.abs(wp2.wp_base - wp1.wp_base).max() < 1e-12


# ---------------------------------------------------------------------------
# residual route
# ---------------------------------------------------------------------------

def test_wp_residual_model_a(ref_a, spr_a):
    fam = volume_family_from_sections(ref_a, canonical(ref_a))
    wp = wp_from_residual(ref_a, spr_a)
    assert np.abs(wp.wp_fs - 4.0).max() < 1e-10
    assert wp.verticality_defect < 1e-10
    # fiber ratio of the two normalizations of the same fiber Ricci data
    g = ref_a.grid
    mu = (TWO_PI * simpson_columns(g, section_density(ref_a, fam))
          / (TWO_PI * simpson_columns(g, spr_a.vertical_fs)))
    assert mu[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.isfinite(mu))


def test_wp_residual_rejects_bad_theta(ref_b, spr_b):
    # NaN compares False with 0.0, so the check is written to fail it
    for theta in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="theta"):
            wp_from_residual(ref_b, spr_b, theta_fs=theta)


def test_wp_residual_flags_inconsistent_fiber_data(ref_b, spr_b):
    corrupted = dataclasses.replace(spr_b, vertical_fs=spr_b.vertical_fs * (
        1.0 + 0.3 * ref_b.grid.nodes_f[:, None]))
    with pytest.raises(PullbackStructureError):
        wp_from_residual(ref_b, corrupted)


def test_wp_residual_gate_never_passes_a_nan(ref_b, spr_b):
    # NaN compares False with everything, so the gate is written to fail it
    u = spr_b.vertical_fs.copy()
    u[:, ref_b.grid.n_base // 2] = np.nan
    with pytest.raises(PullbackStructureError):
        wp_from_residual(ref_b, dataclasses.replace(spr_b, vertical_fs=u))


def test_wp_residual_gauge_bit_identical(ref_b, spr_b):
    beta = 0.3 * np.sin(2.0 * np.pi * ref_b.grid.nodes_b)
    wp1 = wp_from_residual(ref_b, spr_b)
    wp2 = wp_from_residual(
        ref_b, dataclasses.replace(spr_b, rho=spr_b.rho + beta[None, :]))
    assert np.array_equal(wp1.wp_base, wp2.wp_base)
    assert wp1.verticality_defect == wp2.verticality_defect


# ---------------------------------------------------------------------------
# route equivalence
# ---------------------------------------------------------------------------

def test_routes_agree_model_a(ref_a, spr_a):
    fam = volume_family_from_sections(ref_a, canonical(ref_a))
    wps = wp_from_sections(ref_a, fam)
    wpr = wp_from_residual(ref_a, spr_a)
    assert np.abs(wps.wp_base - wpr.wp_base).max() < 1e-10

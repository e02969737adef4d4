import math
from fractions import Fraction

import pytest

from fanofib.cohomology import (CohomClass, anticanonical_class,
                                check_base_identity, check_total_identity,
                                integrate_wp, reference_class)
from fanofib.model import ModelSpec, derive_constants
from fanofib.wpform import (SectionFamilySpec, volume_family_from_sections,
                            wp_from_residual, wp_from_sections)

F = Fraction


def wp_of(ref):
    fam = volume_family_from_sections(ref,
                                      SectionFamilySpec.canonical(ref.consts))
    return wp_from_sections(ref, fam)


def test_limit_class_is_semiample_direction():
    dc = derive_constants(ModelSpec.make(2, 1))
    assert dc.D_class == (dc.kappa, 0)


def test_base_identity_model_a(ref_a):
    rep = check_base_identity(ref_a, wp_of(ref_a))
    assert rep.expected == pytest.approx(8.0 * math.pi, rel=1e-15)
    assert rep.measured == pytest.approx(8.0 * math.pi, rel=1e-12)
    assert rep.defect < 1e-8


def test_base_identity_model_a32(ref_a32):
    rep = check_base_identity(ref_a32, wp_of(ref_a32))
    assert rep.expected == pytest.approx(6.0 * math.pi, rel=1e-15)
    assert rep.defect < 1e-8


def test_total_identity_model_a(ref_a):
    fiber, base = check_total_identity(ref_a, wp_of(ref_a))
    assert fiber.exact_defect == 0          # lambda * c = 2, exact rationals
    assert base.measured == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert base.defect < 1e-8


def test_identities_model_b(ref_b):
    rep = check_base_identity(ref_b, wp_of(ref_b))
    assert rep.relative < 1e-3
    fiber, base = check_total_identity(ref_b, wp_of(ref_b))
    assert fiber.exact_defect == 0
    assert base.relative < 1e-3


def test_wp_class_route_independent(ref_b, spr_b):
    a = integrate_wp(ref_b, wp_of(ref_b))
    b = integrate_wp(ref_b, wp_from_residual(ref_b, spr_b))
    assert abs(a - b) / abs(a) < 1e-6


def test_anticanonical_pairings():
    k = anticanonical_class()
    assert k.pair_fiber() == 2 and k.pair_base() == 2
    assert reference_class(ModelSpec.make(2, 1)) == CohomClass(F(2), F(1))

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanofib.calculus import TWO_PI
from fanofib.cohomology import (check_base_identity, check_total_identity,
                                integrate_wp)
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
    named = dc.by_name()
    assert (named["D_base"], named["D_fiber"]) == (dc.kappa, 0)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12),
       st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12))
def test_base_and_total_identities_expect_the_same_pairing(c, gap):
    # with lambda = 2/c and kappa = 2(a - c)/(c + 2), the base identity's
    # 2 + (lambda + 1) kappa is the total identity's lambda a, exactly
    a = c + gap
    dc = derive_constants(ModelSpec.make(a, c))
    assert 2 + (dc.lam + 1) * dc.kappa == dc.lam * a


@pytest.mark.parametrize("name", ["ref_a", "ref_a32"])
def test_total_identity_base_pairing_reads_the_base_integral(name, request):
    # the base pairing takes the base form's integral from the base identity
    ref = request.getfixturevalue(name)
    wp = wp_of(ref)
    _, base = check_total_identity(ref, wp)
    lam_a = float(ref.consts.lam * ref.spec.a)
    wp_int = check_base_identity(ref, wp).measured
    assert base.measured == TWO_PI * lam_a + TWO_PI * 2.0 - wp_int
    assert wp_int == integrate_wp(ref, wp)


def test_base_identity_model_a(ref_a):
    rep = check_base_identity(ref_a, wp_of(ref_a))
    assert rep.measured == pytest.approx(8.0 * math.pi, rel=1e-12)
    assert rep.defect < 1e-8


def test_base_identity_model_a32(ref_a32):
    rep = check_base_identity(ref_a32, wp_of(ref_a32))
    assert rep.measured == pytest.approx(6.0 * math.pi, rel=1e-12)
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


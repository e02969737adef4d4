"""Exact class pairings and the numerical class-decomposition checks.

Classes live in the basis ([FS_base], [FS_fiber]) with rational
coefficients; pairing against the fiber cycle reads off 2*pi times the
fiber coefficient, against a base section 2*pi times the base one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .calculus import TWO_PI, simpson
from .grids import BASE
from .model import ModelSpec, ReferenceGeometry
from .wpform import WPResult


@dataclass(frozen=True)
class CohomClass:
    """base * [FS_base] + fiber * [FS_fiber], exact rational coefficients."""

    base: Fraction
    fiber: Fraction = Fraction(0)

    def pair_fiber(self) -> Fraction:
        """Pairing with a fiber of the projection, in units of 2*pi."""
        return self.fiber

    def pair_base(self) -> Fraction:
        """Pairing with a base section, in units of 2*pi."""
        return self.base


def anticanonical_class() -> CohomClass:
    return CohomClass(Fraction(2), Fraction(2))


def base_anticanonical() -> Fraction:
    """2*pi c1 of the base in units of 2*pi (the projective line)."""
    return Fraction(2)


def reference_class(spec: ModelSpec) -> CohomClass:
    return CohomClass(spec.a, spec.c)


@dataclass(eq=False)
class CohomReport:
    measured: float
    expected: float
    defect: float
    relative: float
    exact_defect: Fraction | None = None


def integrate_wp(ref: ReferenceGeometry, wp: WPResult) -> float:
    """Numerical integral of the Weil-Petersson-type form over the base."""
    return TWO_PI * simpson(ref.grid, BASE, wp.wp_fs)


def check_base_identity(ref: ReferenceGeometry, wp: WPResult) -> CohomReport:
    """Base-class decomposition: the integral of the base form must equal
    2*pi*c1(base) + (lambda + 1) * integral of eta."""
    consts = ref.consts
    expected = TWO_PI * float(base_anticanonical() +
                              (consts.lam + 1) * consts.kappa)
    measured = integrate_wp(ref, wp)
    defect = abs(measured - expected)
    return CohomReport(measured=measured, expected=expected, defect=defect,
                       relative=defect / abs(expected))


def check_total_identity(ref: ReferenceGeometry, wp: WPResult
                         ) -> tuple[CohomReport, CohomReport]:
    """Total-space decomposition paired with the fiber and the base cycle.

    The fiber pairing is exact rational arithmetic (the degeneration
    identity lambda*c = 2); the base pairing compares against the
    numerically integrated base form.
    """
    spec, consts = ref.spec, ref.consts
    lhs = anticanonical_class()

    fiber_defect = lhs.pair_fiber() - consts.lam * reference_class(spec).pair_fiber()
    fiber = CohomReport(measured=float(TWO_PI * consts.lam * spec.c),
                        expected=float(TWO_PI * lhs.pair_fiber()),
                        defect=float(abs(fiber_defect)) * TWO_PI,
                        relative=float(abs(fiber_defect)) / 2.0,
                        exact_defect=fiber_defect)

    wp_int = integrate_wp(ref, wp)
    expected = TWO_PI * float(lhs.pair_base())
    measured = (TWO_PI * float(consts.lam * spec.a) +
                TWO_PI * float(base_anticanonical()) - wp_int)
    defect = abs(measured - expected)
    base = CohomReport(measured=measured, expected=expected, defect=defect,
                       relative=defect / abs(expected))
    return fiber, base

"""The class-decomposition checks of the Weil-Petersson-type form.

c1(X) = 2 [FS_base] + 2 [FS_fiber] and the reference class a [FS_base] +
c [FS_fiber] pair with a fiber of the projection to 2*pi times their fiber
coefficient, with a base section to 2*pi times their base one; c1 of the
base, the projective line, is 2.  a and c come from the model's spec,
lambda and kappa from its derived constants, all exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .calculus import TWO_PI, simpson
from .grids import BASE
from .model import ReferenceGeometry
from .wpform import WPResult

# c1 of the projective line, and so both coefficients of c1(X)
_C1_P1 = Fraction(2)


@dataclass(eq=False)
class CohomReport:
    measured: float
    defect: float
    relative: float
    exact_defect: Fraction | None = None


def _compare(measured: float, expected: float) -> CohomReport:
    defect = abs(measured - expected)
    return CohomReport(measured=measured, defect=defect,
                       relative=defect / abs(expected))


def integrate_wp(ref: ReferenceGeometry, wp: WPResult) -> float:
    """Numerical integral of the Weil-Petersson-type form over the base."""
    return TWO_PI * simpson(ref.grid, BASE, wp.wp_fs)


def check_base_identity(ref: ReferenceGeometry, wp: WPResult) -> CohomReport:
    """Base-class decomposition: the integral of the base form must equal
    2*pi*c1(base) + (lambda + 1) * integral of eta."""
    consts = ref.consts
    return _compare(integrate_wp(ref, wp),
                    TWO_PI * float(_C1_P1 + (consts.lam + 1) * consts.kappa))


def check_total_identity(ref: ReferenceGeometry, wp: WPResult
                         ) -> tuple[CohomReport, CohomReport]:
    """Total-space decomposition paired with the fiber and the base cycle.

    The fiber pairing is exact rational arithmetic (the degeneration
    identity lambda*c = 2); the base pairing takes the integral of the
    base form from ``check_base_identity``.
    """
    spec, consts = ref.spec, ref.consts
    fiber_defect = _C1_P1 - consts.lam * spec.c
    fiber = CohomReport(measured=float(TWO_PI * consts.lam * spec.c),
                        defect=float(abs(fiber_defect)) * TWO_PI,
                        relative=float(abs(fiber_defect)) / 2.0,
                        exact_defect=fiber_defect)

    wp_int = check_base_identity(ref, wp).measured
    base = _compare(TWO_PI * float(consts.lam * spec.a) +
                    TWO_PI * float(_C1_P1) - wp_int,
                    TWO_PI * float(_C1_P1))
    return fiber, base

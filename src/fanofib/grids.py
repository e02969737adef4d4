"""Moment-coordinate grids on P^1 x P^1 and nodal field containers.

Each P^1 factor is charted by the moment coordinate x = |z|^2/(1+|z|^2),
so the Fubini-Study measure is uniform on [0,1] (total mass 2*pi) and
torus-invariant tensors reduce to nodal fields on the unit square.  The
first axis of every 2D array is the fiber factor, the second the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

FIBER = "fiber"
BASE = "base"

_BASE_RES = 16


def _validate_resolution(n: int, name: str) -> None:
    q, r = divmod(int(n), _BASE_RES)
    if n < _BASE_RES or r != 0 or (q & (q - 1)) != 0:
        raise ValueError(f"{name}={n}: interval counts must be 16*2^k")


def _simpson_pattern(n: int) -> np.ndarray:
    k = np.ones(n + 1)
    k[1:-1:2] = 4.0
    k[2:-1:2] = 2.0
    return k


@dataclass(eq=False)
class Grid:
    """Uniform tensor grid over [0,1]^2; ``n_*`` counts intervals per axis."""

    n_fiber: int
    n_base: int

    def __post_init__(self):
        _validate_resolution(self.n_fiber, "n_fiber")
        _validate_resolution(self.n_base, "n_base")

    # -- per-axis accessors -------------------------------------------------

    def n(self, axis: str) -> int:
        return self.n_fiber if axis == FIBER else self.n_base

    def h(self, axis: str) -> float:
        return 1.0 / self.n(axis)

    def nodes(self, axis: str) -> np.ndarray:
        return self.nodes_f if axis == FIBER else self.nodes_b

    def g(self, axis: str) -> np.ndarray:
        """Degeneracy weight x(1-x) of the compactified derivative."""
        return self.g_f if axis == FIBER else self.g_b

    def gp(self, axis: str) -> np.ndarray:
        """Derivative 1-2x of the degeneracy weight."""
        return self.gp_f if axis == FIBER else self.gp_b

    def simpson(self, axis: str) -> np.ndarray:
        return self.simpson_f if axis == FIBER else self.simpson_b

    @cached_property
    def nodes_f(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_fiber + 1)

    @cached_property
    def nodes_b(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_base + 1)

    @cached_property
    def g_f(self) -> np.ndarray:
        return self.nodes_f * (1.0 - self.nodes_f)

    @cached_property
    def g_b(self) -> np.ndarray:
        return self.nodes_b * (1.0 - self.nodes_b)

    @cached_property
    def gp_f(self) -> np.ndarray:
        return 1.0 - 2.0 * self.nodes_f

    @cached_property
    def gp_b(self) -> np.ndarray:
        return 1.0 - 2.0 * self.nodes_b

    @cached_property
    def simpson_f(self) -> np.ndarray:
        return _simpson_pattern(self.n_fiber)

    @cached_property
    def simpson_b(self) -> np.ndarray:
        return _simpson_pattern(self.n_base)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_fiber + 1, self.n_base + 1)


def _as_finite(values, what: str) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what}: non-finite values")
    return a


@dataclass(eq=False)
class Form11Field:
    """Real (1,1)-form in the log-coordinate frame {i dw_j ^ dwbar_k}.

    Torus invariance makes the coefficients real functions of (x_f, x_b);
    only the single mixed entry is stored (the matrix is symmetric).
    """

    m_ff: np.ndarray
    m_bb: np.ndarray
    m_fb: np.ndarray

    def __post_init__(self):
        self.m_ff = _as_finite(self.m_ff, "Form11Field.m_ff")
        self.m_bb = _as_finite(self.m_bb, "Form11Field.m_bb")
        self.m_fb = _as_finite(self.m_fb, "Form11Field.m_fb")
        if not (self.m_ff.shape == self.m_bb.shape == self.m_fb.shape):
            raise ValueError("coefficient fields must share one shape")

    @classmethod
    def derived(cls, m_ff, m_bb, m_fb) -> "Form11Field":
        """Wrap coefficients computed from checked data, without the checks
        of ``__post_init__``; they may be read-only broadcast views."""
        form = object.__new__(cls)
        form.m_ff, form.m_bb, form.m_fb = m_ff, m_bb, m_fb
        return form

    def __add__(self, other: "Form11Field") -> "Form11Field":
        return self.derived(self.m_ff + other.m_ff, self.m_bb + other.m_bb,
                            self.m_fb + other.m_fb)

    def __sub__(self, other: "Form11Field") -> "Form11Field":
        return self.derived(self.m_ff - other.m_ff, self.m_bb - other.m_bb,
                            self.m_fb - other.m_fb)

    def __rmul__(self, s: float) -> "Form11Field":
        return self.derived(s * self.m_ff, s * self.m_bb, s * self.m_fb)

    def sup(self) -> float:
        """Largest coefficient magnitude; NaN if any coefficient is NaN."""
        return float(np.max([np.abs(self.m_ff).max(), np.abs(self.m_bb).max(),
                             np.abs(self.m_fb).max()]))


@dataclass(eq=False)
class VolumeDensity:
    """Top-form density relative to the product Fubini-Study volume."""

    rho: np.ndarray

    def __post_init__(self):
        self.rho = _as_finite(self.rho, "VolumeDensity")
        if np.any(self.rho <= 0.0):
            i = int(np.argmin(self.rho))
            raise ValueError(
                f"VolumeDensity: non-positive density (min {self.rho.ravel()[i]:.3e})")


"""Moment-coordinate grids on P^1 x P^1.

Each P^1 factor is charted by the moment coordinate x = |z|^2/(1+|z|^2),
so the Fubini-Study measure is uniform on [0,1] (total mass 2*pi) and
torus-invariant tensors reduce to nodal arrays on the unit square.  The
first axis of every 2D array is the fiber factor, the second the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

FIBER = "fiber"
BASE = "base"

_BASE_RES = 16
TRUNCATION_FLOOR = 1e-8
TRUNCATION_CONSTANT = 50.0


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

    def truncation_tol(self, scale: float) -> float:
        """max(1e-8, 50 (h_f^2 + h_b^2) scale): the tolerance of a
        truncation-grade residual whose terms are of size ``scale``."""
        h2 = self.h(FIBER)**2 + self.h(BASE)**2
        return max(TRUNCATION_FLOOR, TRUNCATION_CONSTANT * h2 * scale)

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

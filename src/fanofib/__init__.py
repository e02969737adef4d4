"""Numerical laboratory for twisted Kahler-Einstein structures on model
Fano fibrations P^1 x P^1 -> P^1 with torus symmetry."""

__version__ = "0.1.0"

from .grids import BASE, FIBER, Grid
from .model import DerivedConstants, ModelSpec, ReferenceGeometry, build_reference, derive_constants

__all__ = [
    "BASE", "FIBER", "Grid",
    "DerivedConstants", "ModelSpec", "ReferenceGeometry", "build_reference",
    "derive_constants", "__version__",
]

"""Numerical laboratory for twisted Kahler-Einstein structures on model
Fano fibrations P^1 x P^1 -> P^1 with torus symmetry."""

__version__ = "0.1.0"

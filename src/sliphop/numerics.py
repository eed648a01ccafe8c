"""Shared numerical helpers: quadratic roots, 2x2 solve and eigenvalues."""

from __future__ import annotations

import math

from .errors import DegenerateQuadratic, NegativeDiscriminant


def quadratic_roots(a: float, b: float, c: float) -> tuple[float, float]:
    """Roots of a*x^2 + b*x + c as (Q+, Q-) = ((-b +- sqrt(b^2-4ac)) / 2a).

    a == 0 falls back to the linear root -c/b (returned in both slots);
    raises DegenerateQuadratic when b == 0 too, NegativeDiscriminant when
    the discriminant is negative.
    """
    if a == 0.0:
        if b == 0.0:
            raise DegenerateQuadratic("a = b = 0: no root")
        x = -c / b
        return x, x
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise NegativeDiscriminant(f"discriminant {disc:.3e} < 0")
    s = math.sqrt(disc)
    return (-b + s) / (2.0 * a), (-b - s) / (2.0 * a)


def spectral_radius_2x2(j11: float, j12: float, j21: float, j22: float) -> float:
    """Largest eigenvalue magnitude of a real 2x2 matrix, closed form."""
    tr = j11 + j22
    det = j11 * j22 - j12 * j21
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        s = math.sqrt(disc)
        return max(abs(0.5 * (tr + s)), abs(0.5 * (tr - s)))
    # complex pair: |lambda| = sqrt(det)
    return math.sqrt(det)


def solve_2x2(a: float, b: float, c: float, d: float, e: float,
              f: float) -> tuple[float, float]:
    """(x, y) solving [[a, b], [c, d]] (x, y) = (e, f), by elimination with
    partial pivoting; ZeroDivisionError when the matrix is singular."""
    if abs(c) > abs(a):  # pivot on the larger first-column entry
        a, b, c, d, e, f = c, d, a, b, f, e
    lower = c / a
    y = (f - lower * e) / (d - lower * b)
    return (e - b * y) / a, y

"""Dual-number backend selection and scalar math that works on floats or duals.

Prefers the compiled kernel (``geored._dual_cy``) and falls back to the pure
Python twin.  Everything downstream imports ``Dual`` and the math helpers from
here, so the choice is invisible to the rest of the package.

A tangent slot holds a float, a ``Dual`` (one more nesting layer) or, in
the innermost layer only, a float ndarray with one entry per seed direction:
``calc`` seeds such vector tangents at points whose coordinates are all
plain numbers, and scalar tangents at points that hold duals.  So an ndarray
tangent never meets a ``Dual`` operand, and tangent arrays of two different
seedings never meet, which would broadcast them against each other.  The
helpers below act on tangents only through ``+ - * /`` with real parts,
which numpy applies entry by entry with the same IEEE operations as on
floats.
"""

from __future__ import annotations

import math

try:  # pragma: no cover - exercised indirectly via the backend parity tests
    from geored._dual_cy import Dual, _real

    DUAL_BACKEND = "compiled"
except ImportError:  # pragma: no cover
    from geored._dual_py import Dual, _real

    DUAL_BACKEND = "python"

__all__ = [
    "Dual",
    "DUAL_BACKEND",
    "real_part",
    "is_dual",
    "tangent_part",
    "sqrt",
    "exp",
    "log",
    "sin",
    "cos",
    "tan",
    "sinh",
    "cosh",
    "atan2",
]


def real_part(x) -> float:
    """Strip every derivative layer and return the underlying float."""
    return _real(x)


def is_dual(x) -> bool:
    return isinstance(x, Dual)


def tangent_part(x):
    """Derivative slot of the outermost layer; zero for plain numbers."""
    return x.b if isinstance(x, Dual) else 0.0


def sqrt(x):
    if isinstance(x, Dual):
        r = sqrt(x.a)
        return Dual(r, x.b / (2.0 * r))
    return math.sqrt(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.a)
        return Dual(e, e * x.b)
    return math.exp(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.a), x.b / x.a)
    return math.log(x)


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.a), cos(x.a) * x.b)
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.a), -(sin(x.a) * x.b))
    return math.cos(x)


def tan(x):
    if isinstance(x, Dual):
        t = tan(x.a)
        return Dual(t, (1.0 + t * t) * x.b)
    return math.tan(x)


def sinh(x):
    if isinstance(x, Dual):
        return Dual(sinh(x.a), cosh(x.a) * x.b)
    return math.sinh(x)


def cosh(x):
    if isinstance(x, Dual):
        return Dual(cosh(x.a), sinh(x.a) * x.b)
    return math.cosh(x)


def atan2(y, x):
    if isinstance(y, Dual) or isinstance(x, Dual):
        ya, yb = (y.a, y.b) if isinstance(y, Dual) else (y, 0.0)
        xa, xb = (x.a, x.b) if isinstance(x, Dual) else (x, 0.0)
        denom = xa * xa + ya * ya
        return Dual(atan2(ya, xa), (xa * yb - ya * xb) / denom)
    return math.atan2(y, x)

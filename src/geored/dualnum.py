"""The dual scalar and scalar math that works on floats or duals.

``Dual`` is ``geored._dual_py.Dual``, the one dual scalar of the package.
Everything downstream imports ``Dual`` and the math helpers from here.

A tangent slot holds a float, a ``Dual`` (one more nesting layer) or a
float ndarray with one entry per seed direction along its own axis: ``calc``
seeds vector tangents, and each seeding owns one axis.  At a point that
already carries tangent arrays, the new seed rows sit on a fresh leading
axis in front of broadcast axes, so arrays of two seedings meet only as
outer products; and they are wrapped in layers whose tangent is an exact
zero (``calc._Zero``) up to the nesting depth of the point's duals, so an
ndarray never meets a ``Dual`` from the numpy side.  The
helpers below act on tangents only through ``+ - * /`` with real parts,
which numpy applies entry by entry with the same IEEE operations as on
floats.  ``sqrt`` takes float arrays too, for ``reduce.QuotientMap.columns``.
"""

from __future__ import annotations

import math

import numpy as np

from geored._dual_py import Dual, _real

# perfbench/worker.py records this name and counts dualnum.ops only under it;
# it goes with _dual_cy.c and _dual_cy.pyx, which the benchmark compiles on
# its own for the dualnum.*.compiled microbenchmarks.
DUAL_BACKEND = "python"

__all__ = [
    "Dual",
    "real_part",
    "is_dual",
    "tangent_part",
    "sqrt",
    "exp",
    "sin",
    "cos",
    "tan",
    "sinh",
    "cosh",
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
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.a)
        return Dual(e, e * x.b)
    return math.exp(x)


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

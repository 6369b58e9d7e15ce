"""Differentiation kernel: exact forward-mode derivatives plus a central
finite-difference oracle.

Every bracket, Lie derivative and two-form in the package routes through the
operations here.  Fields are plain closures over coordinate sequences; they
must be written generically (indexing, arithmetic, and the ``dualnum`` math
helpers), because the dual scheme threads ``Dual`` scalars through them.
Point components may themselves be duals, so gradients of gradients (and
brackets of brackets) nest without special cases.

``gradient`` and ``jacobian`` share one forward-mode kernel, ``_dual_rows``.
At a point whose coordinates are all plain numbers it seeds
``Dual(x[j], e_j)`` with ``e_j`` a row of a float identity array and
evaluates each field once: the tangent of every output is its whole
gradient row (the vector mode of Griewank and Walther, *Evaluating
Derivatives*, 2nd ed., 2008, ch. 3).  At a point that holds duals it seeds
one scalar direction per evaluation, as every nested layer does.  Tangent
arrays are therefore always the innermost layer: an ndarray tangent never
meets a ``Dual`` operand, and tangent arrays from two different seedings
never meet, so they cannot broadcast against each other.  ``hessian`` at a
float point keeps that order: the unit rows fill the innermost layer and
one scalar direction per evaluation the outer one, so each evaluation gives
a whole Hessian row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from geored.dualnum import Dual, is_dual, real_part, tangent_part
from geored.errors import EvaluationError


@dataclass(frozen=True)
class ScalarField:
    """A real-valued function of an n-vector."""

    arity: int
    fn: Callable
    label: str = "f"

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be a positive integer")

    def __call__(self, x):
        return self.fn(x)


class DiffScheme(Enum):
    """Exact forward-mode duals, or the central-difference oracle."""

    DUAL = "dual"
    CENTRAL = "central"


DUAL = DiffScheme.DUAL
CENTRAL = DiffScheme.CENTRAL
# CENTRAL's step, scaled per component by 1 + |x_i|
_CENTRAL_STEP = 1e-6


def _check_finite(value, index):
    if not math.isfinite(real_part(value)):
        raise EvaluationError(
            f"non-finite derivative component at index {index}", index=index
        )
    return value


def _eval(f, xs, index):
    """Evaluate a field, mapping arithmetic blowups to EvaluationError so
    both dual backends (C arithmetic yields inf, Python raises) agree."""
    try:
        return f(xs)
    except ZeroDivisionError as err:
        raise EvaluationError(
            f"division by zero during evaluation (seed index {index})", index=index
        ) from err


def _plain(value):
    """Coerce numpy scalars to builtin floats so leaf duals stay on the
    compiled fast path; duals pass through untouched."""
    return value if isinstance(value, Dual) else float(value)


def _seed(x, i: int):
    return [Dual(_plain(x[j]), 1.0 if j == i else 0.0) for j in range(len(x))]


@functools.cache
def _unit_rows(n: int) -> tuple:
    """Rows of the n x n identity: the vector seed tangents.

    Every float-point derivative of arity n shares them, so they are
    read-only: a field that writes into a tangent raises instead of
    corrupting later gradients."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return tuple(eye)


def _tangent_row(y, n: int):
    """Tangent of one output of a vector-seeded evaluation, as an n-row."""
    b = tangent_part(y)
    return b if isinstance(b, np.ndarray) else np.full(n, b)


def _vector_rows(outputs, coords: list, n: int):
    """One evaluation at the point seeded with the unit rows; the m x n
    float array of output tangents, or None if the evaluation hit a
    floating-point trap or an entry is non-finite.

    Numpy signals a zero division inside a tangent array with a warning,
    where a scalar tangent raises; the traps turn that (and overflow or an
    invalid operation) into an exception, so no warning escapes.
    """
    xs = list(map(Dual, coords, _unit_rows(n)))
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            rows = np.array([_tangent_row(y, n) for y in outputs(xs)])
            # a sum is finite iff every entry is (inf - inf traps as invalid)
            if math.isfinite(rows.sum()):
                return rows
    except ArithmeticError:
        pass
    return None


def _hessian_rows(f, coords: list, n: int):
    """n x n float array R with R[j, i] = d_i d_j f, or None (see
    ``_vector_rows``).

    Output j wraps the unit-row seeds ``Dual(x_k, e_k)`` under one outer
    scalar direction, ``Dual(Dual(x_k, e_k), Dual(delta_kj, 0.0))``: the
    outer tangent of f there is a dual whose tangent is row j.
    """
    return _vector_rows(
        lambda xs: [
            tangent_part(f([Dual(x, Dual(1.0 if k == j else 0.0, 0.0)) for k, x in enumerate(xs)]))
            for j in range(n)
        ],
        coords,
        n,
    )


def _dual_rows(outputs, x: Sequence, n: int):
    """Tangent rows of ``outputs`` (point -> sequence of m values) at ``x``:
    row r holds the partials of value r, one column per coordinate.

    A float point takes one vector-seeded evaluation.  A point holding
    duals takes one scalar-seeded evaluation per direction; so does a float
    point whose vector evaluation failed, which makes every failure raise
    exactly as the scalar loop raises it (the first bad seed index).  The
    entries are bit-identical either way: each tangent slot sees the same
    IEEE operations in the same order.  Float array at a float point,
    nested lists when duals are involved.
    """
    if Dual not in map(type, x):
        rows = _vector_rows(outputs, [float(c) for c in x], n)
        if rows is not None:
            return rows
    cols = []
    for i in range(n):
        ys = _eval(outputs, _seed(x, i), i)
        cols.append([_check_finite(tangent_part(y), i) for y in ys])
    return _pack_rows([list(row) for row in zip(*cols)], x)


def _jvp(outputs, x: Sequence, v: Sequence) -> list:
    """Tangents of every value of ``outputs`` (point -> sequence) at ``x``
    along the direction ``v``: one evaluation at the point seeded
    ``Dual(x_j, v_j)`` (the scalar tangent mode).  A zero division raises
    ``EvaluationError``; so does a non-finite tangent, with the index of its
    output."""
    xs = [Dual(_plain(x[j]), _plain(v[j])) for j in range(len(x))]
    ys = _eval(outputs, xs, None)
    return [_check_finite(tangent_part(y), r) for r, y in enumerate(ys)]


def _pack(values, x):
    """Float arrays for float points, plain lists when duals are involved."""
    if any(is_dual(v) for v in values) or any(is_dual(c) for c in x):
        return list(values)
    return np.asarray([float(v) for v in values])


def _pack_rows(rows, x):
    """``_pack`` for a matrix given as a list of rows."""
    if any(is_dual(v) for row in rows for v in row) or any(is_dual(c) for c in x):
        return rows
    return np.asarray(rows, dtype=float)


def gradient(f: ScalarField, x: Sequence, scheme: DiffScheme = DUAL):
    """Row of partial derivatives of ``f`` at ``x``.

    DUAL mode is exact on smooth closed-form fields; CENTRAL is the
    second-order finite-difference oracle with per-component step scaling.
    """
    n = f.arity
    if scheme is DUAL:
        return _dual_rows(lambda xs: (f(xs),), x, n)[0]
    h = _CENTRAL_STEP
    out = []
    for i in range(n):
        hi = h * (1.0 + abs(real_part(x[i])))
        xp = [x[j] + (hi if j == i else 0.0) for j in range(n)]
        xm = [x[j] - (hi if j == i else 0.0) for j in range(n)]
        out.append(_check_finite((_eval(f, xp, i) - _eval(f, xm, i)) / (2.0 * hi), i))
    return _pack(out, x)


def jacobian(fields: Sequence[ScalarField] | Callable, x: Sequence, scheme: DiffScheme = DUAL):
    """Stacked gradients; row i is the gradient of ``fields[i]``.  ``fields``
    may instead be one map from the point to the sequence of its outputs,
    whose subexpressions the outputs then share; row i is the gradient of
    output i, and the map's arity is ``len(x)`` (DUAL mode only).

    In DUAL mode each seeded evaluation covers every field at once.
    """
    if callable(fields):
        if scheme is not DUAL:
            raise ValueError("a map of outputs is differentiated in DUAL mode only")
        return _dual_rows(fields, x, len(x))
    arities = {f.arity for f in fields}
    if len(arities) != 1:
        raise ValueError("all fields must share one arity")
    n = arities.pop()
    if scheme is DUAL:
        return _dual_rows(lambda xs: [f(xs) for f in fields], x, n)
    return _pack_rows([list(gradient(f, x, scheme)) for f in fields], x)


def hessian(f: ScalarField, x: Sequence, scheme: DiffScheme = DUAL):
    """Symmetric matrix of second partials.

    DUAL mode nests two derivative layers.  At a float point one evaluation
    per row j seeds the unit rows innermost under one outer scalar
    direction j (``_hessian_rows``), so a Hessian takes n evaluations; entry
    (i, j), i <= j, is read from row j and mirrored.  A point holding duals
    seeds one scalar pair per (i, j), i <= j, and so does a float point
    whose row evaluation failed, which makes every failure raise as that
    loop raises it (the first bad index i).  Each entry sees the same IEEE
    operations either way, so both give bit-identical results.  CENTRAL
    uses the four-point stencil and is symmetrized on return.
    """
    n = f.arity
    if scheme is DUAL:
        if Dual not in map(type, x):
            R = _hessian_rows(f, [float(c) for c in x], n)
            if R is not None:
                # entry (i, j), i <= j, is slot i of row j: R's lower triangle
                return np.where(np.tri(n, dtype=bool), R, R.T)
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                xs = [
                    Dual(
                        Dual(_plain(x[k]), 1.0 if k == i else 0.0),
                        Dual(1.0 if k == j else 0.0, 0.0),
                    )
                    for k in range(n)
                ]
                v = _eval(f, xs, i)
                entry = _check_finite(tangent_part(tangent_part(v)), i)
                rows[i][j] = entry
                rows[j][i] = entry
        return _pack_rows(rows, x)
    # second differences lose eps/h^2 to roundoff; sqrt(step) balances that
    # against the O(h^2) truncation term
    h = math.sqrt(_CENTRAL_STEP)
    H = np.empty((n, n))
    steps = [h * (1.0 + abs(real_part(x[i]))) for i in range(n)]
    centre = _eval(f, list(x), 0)

    def ev(di, dj, i, j):
        xs = list(x)
        xs[i] = xs[i] + di
        xs[j] = xs[j] + dj
        return _eval(f, xs, i)

    for i in range(n):
        for j in range(i, n):
            hi, hj = steps[i], steps[j]
            if i == j:
                val = (ev(hi, 0.0, i, j) - 2.0 * centre + ev(-hi, 0.0, i, j)) / (hi * hi)
            else:
                val = (
                    ev(hi, hj, i, j)
                    - ev(hi, -hj, i, j)
                    - ev(-hi, hj, i, j)
                    + ev(-hi, -hj, i, j)
                ) / (4.0 * hi * hj)
            H[i, j] = H[j, i] = _check_finite(val, i)
    return 0.5 * (H + H.T)

"""Differentiation kernel: exact forward-mode derivatives plus a central
finite-difference oracle, which ``gradient`` and ``hessian`` offer as
``CENTRAL``.

Every bracket, Lie derivative and two-form in the package routes through the
operations here.  Fields are plain closures over coordinate sequences; they
must be written generically (indexing, arithmetic, and the ``dualnum`` math
helpers), because the dual scheme threads ``Dual`` scalars through them.
Point components may themselves be duals, so gradients of gradients (and
brackets of brackets) nest without special cases.

``gradient`` and ``jacobian`` share one forward-mode kernel, ``_dual_rows``.
It seeds ``Dual(x[j], u_j)`` with ``u_j`` row j of a float identity array
and evaluates each field once: the tangent of every output holds its whole
gradient row (the vector mode of Griewank and Walther, *Evaluating
Derivatives*, 2nd ed., 2008, ch. 3).  Each seeding owns one array axis: at a
point that already holds duals, whose tangent arrays have d axes, ``u_j``
sits on a fresh leading axis in front of d broadcast axes, so arrays of two
seedings meet only as outer products, and every nested layer also takes one
evaluation.  Its tangents are then split back along that axis into the
entries that one scalar seeding per direction gives.  ``hessian`` is the
kernel applied twice: ``_dual_rows`` of the gradient that ``_dual_rows``
takes at the seeded point, so it too takes one evaluation at a float point.
A field must reach duals only through its point: the seed rows are placed
against the arrays the point carries, not against those of a dual the field
closes over.
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
    """Evaluate a field, mapping a zero division to EvaluationError.

    Builtin float division by zero raises ``ZeroDivisionError``, and so does
    the dual scalar, whose leaves ``_plain`` keeps builtin floats."""
    try:
        return f(xs)
    except ZeroDivisionError as err:
        raise EvaluationError(
            f"division by zero during evaluation (seed index {index})", index=index
        ) from err


def _plain(value):
    """Coerce numpy scalars to builtin floats; duals pass through untouched.

    A numpy scalar divided by zero warns and returns inf, where a builtin
    float raises ``ZeroDivisionError``, which ``_eval`` turns into
    ``EvaluationError``."""
    return value if isinstance(value, Dual) else float(value)


def _seed(x, i: int):
    return [Dual(_plain(x[j]), 1.0 if j == i else 0.0) for j in range(len(x))]


@functools.cache
def _axis_rows(n: int, d: int) -> tuple:
    """Rows of the n x n identity, each on its own leading axis ahead of d
    broadcast axes: row j has shape ``(n,) + (1,) * d``.  These are the seed
    tangents of a vector seeding at a point whose tangent arrays have d axes,
    so arrays of two seedings meet only as outer products.

    Every derivative of arity n over such a point shares them, so they are
    read-only: a field that writes into a tangent raises instead of
    corrupting later derivatives."""
    eye = np.eye(n).reshape((n, n) + (1,) * d)
    eye.setflags(write=False)
    return tuple(eye)


class _Zero:
    """Exact zero tangent of the layers that wrap a seed row up to the
    nesting depth of the duals it meets (see ``_vector_rows``).

    It adds as the identity and multiplies to itself, so ``Dual(u, zero)``
    takes exactly the IEEE operations of the bare row ``u``; a float 0.0
    would add ``0.0 * x`` terms that can flip the sign of a zero.  Numpy
    defers to it (``__array_ufunc__ = None``), so an array operand never
    makes an object array of it.
    """

    __slots__ = ()
    __array_ufunc__ = None

    def __add__(self, other):
        return other

    __radd__ = __add__

    def __sub__(self, other):
        return -other

    def __rsub__(self, other):
        return other

    def __mul__(self, other):
        return self

    __rmul__ = __truediv__ = __mul__

    def __neg__(self):
        return self


# numpy floating-point errors that a vector evaluation raises (and retries
# as scalar seedings) instead of warning
_TRAPS = dict(divide="raise", over="raise", invalid="raise")


def _layout(x):
    """Nesting depth of the deepest dual among the coordinates of ``x`` and
    the ndim of the deepest tangent array they carry; None if an array has a
    leading axis of length 1, whose entries ``_split`` could not tell from a
    seed row's broadcast axes."""
    depth = ndim = 0
    stack = [(c, 1) for c in x if isinstance(c, Dual)]
    while stack:
        v, k = stack.pop()
        depth = max(depth, k)
        for slot in (v.a, v.b):
            if isinstance(slot, Dual):
                stack.append((slot, k + 1))
            elif isinstance(slot, np.ndarray):
                if slot.shape[:1] == (1,):
                    return None
                ndim = max(ndim, slot.ndim)
    return depth, ndim


def _finite(t) -> bool:
    """Whether every slot of the tangent ``t`` is finite."""
    if isinstance(t, Dual):
        return _finite(t.a) and _finite(t.b)
    if isinstance(t, np.ndarray):
        return bool(np.isfinite(t).all())
    return isinstance(t, _Zero) or math.isfinite(t)


def _split(t, n: int, d: int, zero: _Zero) -> list:
    """The n per-direction tangents ``_seed(x, i)`` gives, i < n, from the
    tangent ``t`` of a vector seeding at a point holding duals.

    An array that carries the seed axis (ndim > d) splits along it, less the
    broadcast axes in front of the loop's array; with no point array
    involved nothing is left, and the loop holds floats.  A layer whose
    tangent is this seeding's ``zero`` wraps the seed row and is dropped.
    """
    if isinstance(t, Dual):
        a, b = _split(t.a, n, d, zero), _split(t.b, n, d, zero)
        return a if b[0] is zero else list(map(Dual, a, b))
    if isinstance(t, np.ndarray) and t.ndim > d:
        k = 1
        while k < t.ndim and t.shape[k] == 1:
            k += 1
        rest = t.shape[k:]
        return list(t.reshape((n,) + rest)) if rest else t.reshape(n).tolist()
    return [t] * n


def _vector_rows(outputs, x: Sequence, n: int):
    """Tangent rows of ``outputs`` at ``x`` from one evaluation, every
    coordinate seeded on its own axis; None if the evaluation hit a
    floating-point trap, an entry is non-finite, or ``_layout`` refuses the
    point.

    Coordinate j becomes ``Dual(x_j, u_j)`` with ``u_j = _axis_rows(n, d)[j]``,
    d the ndim of the tangent arrays ``x`` carries.  At a point holding
    duals of depth D, ``u_j`` is wrapped in D layers ``Dual(., zero)``, so
    that it meets floats and arrays at the leaves of those duals and never
    a ``Dual`` from the numpy side.  A float point gives an m x n float
    array, a point holding duals nested lists split per direction.

    Numpy signals a zero division inside a tangent array with a warning,
    where a scalar tangent raises; the traps turn that (and overflow or an
    invalid operation) into an exception, so no warning escapes.
    """
    if Dual not in map(type, x):
        depth = d = 0
        xs = list(map(Dual, map(float, x), _axis_rows(n, 0)))
    else:
        layout = _layout(x)
        if layout is None:
            return None
        depth, d = layout
        # one zero per seeding: a seeding nested inside this evaluation
        # drops its own wrapper layers, not these
        zero = _Zero()
        xs = []
        for c, w in zip(x, _axis_rows(n, d)):
            for _ in range(depth):
                w = Dual(w, zero)
            xs.append(Dual(_plain(c), w))
    try:
        with np.errstate(**_TRAPS):
            ts = [tangent_part(y) for y in outputs(xs)]
            if depth == 0:
                rows = np.array([t if isinstance(t, np.ndarray) else np.full(n, t) for t in ts])
                # a sum is finite iff every entry is (inf - inf traps as invalid)
                return rows if math.isfinite(rows.sum()) else None
            if all(map(_finite, ts)):
                return [_split(t, n, d, zero) for t in ts]
    except ArithmeticError:
        pass
    return None


def _dual_rows(outputs, x: Sequence, n: int):
    """Tangent rows of ``outputs`` (point -> sequence of m values) at ``x``:
    row r holds the partials of value r, one column per coordinate.

    One vector-seeded evaluation (``_vector_rows``), or, where that fails,
    one scalar-seeded evaluation per direction, which makes every failure
    raise exactly as the scalar loop raises it (the first bad seed index).
    The entries are bit-identical either way: each tangent slot sees the
    same IEEE operations in the same order.  Float array at a float point,
    nested lists when duals are involved.
    """
    rows = _vector_rows(outputs, x, n)
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


def jacobian(fn: Callable, x: Sequence):
    """Rows of partials of ``fn``, one map from the point to the sequence of
    its outputs, whose subexpressions the outputs then share: row i is the
    gradient of output i, one column per coordinate of ``x``.

    One seeded evaluation covers every output at once.
    """
    return _dual_rows(fn, x, len(x))


def hessian(f: ScalarField, x: Sequence, scheme: DiffScheme = DUAL):
    """Symmetric matrix of second partials.

    DUAL mode applies the kernel twice: ``_dual_rows`` of the gradient that
    ``_dual_rows`` takes at the seeded point.  Row j of the result R holds
    the partials of gradient entry j, so the outer seeding sits on the inner
    dual layer and R[j, i] = d_i d_j f; entry (i, j), i <= j, is read from
    R's lower triangle and mirrored.  Failures raise through the kernel's
    scalar fallback: a zero division under the first seed index, a
    non-finite gradient entry under its own index, and a non-finite second
    partial under the first i that meets one.  CENTRAL uses the four-point
    stencil and is symmetrized on return.
    """
    n = f.arity
    if scheme is DUAL:
        R = _dual_rows(lambda xs: gradient(f, xs), x, n)
        if isinstance(R, np.ndarray):
            return np.where(np.tri(n, dtype=bool), R, R.T)
        return [[R[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
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

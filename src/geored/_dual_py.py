"""Pure-Python dual-number scalar.

A dual number ``a + eps*b`` carries a value and a directional derivative
through arbitrary closed-form arithmetic (eps**2 == 0).  Components may
themselves be duals, so derivatives of any order come from nesting; each
differentiation layer wraps the leaves once more and peels exactly its own
tangent slot on the way out, which keeps forward-on-forward sound.  In any
layer ``b`` may hold float ndarrays, one entry per seed direction along the
axis of its seeding (vector mode); every operation below then acts on all
directions at once.
``a`` and ``b`` are untyped, so no operation needs to know which it holds.

This is the one dual scalar of the package; ``geored.dualnum`` exports it.
With builtin float leaves, division by an exact zero raises
``ZeroDivisionError`` as float division does; ``calc`` seeds builtin floats
and maps that error to ``EvaluationError``.
"""

from __future__ import annotations


def _real(x):
    while isinstance(x, Dual):
        x = x.a
    return float(x)


class Dual:
    __slots__ = ("a", "b")

    def __init__(self, a, b=0.0):
        self.a = a
        self.b = b

    def __repr__(self):
        return f"Dual({self.a!r}, {self.b!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a + other.a, self.b + other.b)
        return Dual(self.a + other, self.b)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a - other.a, self.b - other.b)
        return Dual(self.a - other, self.b)

    def __rsub__(self, other):
        return Dual(other - self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a * other.a, self.a * other.b + self.b * other.a)
        return Dual(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            q = self.a / other.a
            return Dual(q, (self.b - q * other.b) / other.a)
        return Dual(self.a / other, self.b / other)

    def __rtruediv__(self, other):
        q = other / self.a
        return Dual(q, -(q * self.b) / self.a)

    def __pow__(self, n):
        if isinstance(n, Dual):
            raise TypeError("dual exponent not supported; use exp/log explicitly")
        if n == 2:
            return Dual(self.a * self.a, 2.0 * (self.a * self.b))
        return Dual(self.a**n, (n * self.a ** (n - 1)) * self.b)

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __pos__(self):
        return self

    def __abs__(self):
        return self if _real(self.a) >= 0.0 else -self

    # -- comparisons act on the real part ----------------------------------

    def __lt__(self, other):
        return _real(self) < _real(other)

    def __le__(self, other):
        return _real(self) <= _real(other)

    def __gt__(self, other):
        return _real(self) > _real(other)

    def __ge__(self, other):
        return _real(self) >= _real(other)

    def __float__(self):
        raise TypeError("refusing to silently drop the derivative part of a Dual")

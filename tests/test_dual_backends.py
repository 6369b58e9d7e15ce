"""The compiled and pure-Python dual kernels must agree bit-for-bit on a
representative workload, including nested (second/third derivative) use."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geored import _dual_py

try:
    from geored import _dual_cy

    BACKENDS = [_dual_py.Dual, _dual_cy.Dual]
    HAVE_COMPILED = True
except ImportError:  # pragma: no cover
    BACKENDS = [_dual_py.Dual]
    HAVE_COMPILED = False


def _mix(u, v):
    # mixes every operator: + - * / ** neg abs comparisons
    return (u * v - 3.0) / (v * v + 1.0) + u**3 - 2.0 / u + abs(-u)


def _poly(D, x, y):
    return _mix(D(x, 1.0), D(y, 0.0))


@pytest.mark.parametrize("Dual", BACKENDS)
def test_first_derivative_matches_hand_value(Dual):
    # d/dx [ xy - 3)/(y^2+1) + x^3 - 2/x + x ] at (2, 1) = 1/2 + 12 + 1/2 + 1
    w = _poly(Dual, 2.0, 1.0)
    assert w.b == pytest.approx(14.0, abs=1e-14)


@pytest.mark.parametrize("Dual", BACKENDS)
def test_nested_second_derivative(Dual):
    # f(x) = x**3: f''(2) = 12 via two nesting layers
    x = Dual(Dual(2.0, 1.0), Dual(1.0, 0.0))
    w = x * x * x
    assert w.b.b == pytest.approx(12.0, abs=1e-13)


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
@settings(max_examples=200, deadline=None)
@given(
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
)
def test_backend_parity(x, y):
    if abs(x) < 1e-3:
        x = 1.0 + x
    wp = _poly(_dual_py.Dual, x, y)
    wc = _poly(_dual_cy.Dual, x, y)
    assert wp.a == wc.a
    assert wp.b == wc.b


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
def test_backend_parity_nested():
    xp = _dual_py.Dual(_dual_py.Dual(1.7, 1.0), _dual_py.Dual(1.0, 0.0))
    xc = _dual_cy.Dual(_dual_cy.Dual(1.7, 1.0), _dual_cy.Dual(1.0, 0.0))
    wp = (xp * xp - 2.0) / (xp + 3.0)
    wc = (xc * xc - 2.0) / (xc + 3.0)
    assert wp.b.b == wc.b.b


@pytest.mark.parametrize("Dual", BACKENDS)
def test_array_tangent_matches_scalar_tangents(Dual):
    # vector mode: a float-array tangent carries both seed directions at once,
    # entry by entry bit-identical to one scalar-tangent pass per direction
    x, y = 1.7, -0.6
    eye = np.eye(2)
    w = _mix(Dual(x, eye[0]), Dual(y, eye[1]))
    assert isinstance(w.b, np.ndarray) and w.b.shape == (2,)
    for i in range(2):
        ws = _mix(Dual(x, eye[0][i].item()), Dual(y, eye[1][i].item()))
        assert w.a == ws.a
        assert w.b[i] == ws.b
    # an outer scalar layer over the vector layer (gradient of a gradient)
    u = Dual(Dual(x, eye[0]), 1.0)
    v = Dual(Dual(y, eye[1]), 0.0)
    ww = _mix(u, v)
    for i in range(2):
        us = Dual(Dual(x, eye[0][i].item()), 1.0)
        vs = Dual(Dual(y, eye[1][i].item()), 0.0)
        assert ww.b.b[i] == _mix(us, vs).b.b


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
def test_backend_parity_array_tangent():
    eye = np.eye(2)
    wp = _mix(_dual_py.Dual(1.7, eye[0]), _dual_py.Dual(-0.6, eye[1]))
    wc = _mix(_dual_cy.Dual(1.7, eye[0]), _dual_cy.Dual(-0.6, eye[1]))
    assert wp.a == wc.a
    assert wp.b.tobytes() == wc.b.tobytes()


@pytest.mark.parametrize("Dual", BACKENDS)
def test_float_refuses_to_drop_derivative(Dual):
    with pytest.raises(TypeError):
        float(Dual(1.0, 2.0))


@pytest.mark.parametrize("Dual", BACKENDS)
def test_reflected_and_scalar_ops(Dual):
    u = Dual(3.0, 1.0)
    assert (2.0 - u).a == -1.0 and (2.0 - u).b == -1.0
    assert (2.0 / u).b == pytest.approx(-2.0 / 9.0)
    assert (2.0 * u).b == 2.0
    assert (2.0 + u).a == 5.0
    assert (u > 2.0) and (u < 4.0) and (u >= 3.0) and (u <= 3.0)


def test_dualnum_math_chain_rules():
    from geored import dualnum as dn

    u = dn.Dual(0.7, 1.0)
    assert dn.sin(u).b == pytest.approx(math.cos(0.7), abs=1e-15)
    assert dn.cos(u).b == pytest.approx(-math.sin(0.7), abs=1e-15)
    assert dn.sqrt(u).b == pytest.approx(0.5 / math.sqrt(0.7), abs=1e-15)
    assert dn.exp(u).b == pytest.approx(math.exp(0.7), abs=1e-15)
    assert dn.tan(u).b == pytest.approx(1 / math.cos(0.7) ** 2, abs=1e-12)
    assert dn.sinh(u).b == pytest.approx(math.cosh(0.7), abs=1e-15)
    assert dn.cosh(u).b == pytest.approx(math.sinh(0.7), abs=1e-15)

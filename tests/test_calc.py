import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geored import calc
from geored import dualnum as dn
from geored.calc import CENTRAL, DUAL, ScalarField, gradient, hessian, jacobian
from geored.errors import EvaluationError
from geored.flow import VectorFieldSystem
from geored.reduce import GRID_POINTS, SAMPLE_COUNT, QuotientMap


def dot(u, v):
    return sum(ui * vi for ui, vi in zip(u, v))


def cross_sq(x):
    # squared norm of r x v for a 6-dim (r, v) state
    r, v = x[:3], x[3:]
    c = [
        r[1] * v[2] - r[2] * v[1],
        r[2] * v[0] - r[0] * v[2],
        r[0] * v[1] - r[1] * v[0],
    ]
    return dot(c, c)


def joint(fields):
    """One map from the point to the values of ``fields``, as ``jacobian``
    takes it."""
    return lambda z: [f(z) for f in fields]


def test_gradient_constant_field():
    f = ScalarField(3, lambda x: 7.0, "const")
    assert np.allclose(gradient(f, [0.3, -1.0, 4.0]), 0.0)


def test_gradient_quadratic():
    f = ScalarField(3, lambda x: dot(x, x))
    assert np.allclose(gradient(f, [1.0, 2.0, 3.0]), [2.0, 4.0, 6.0])


def test_gradient_dual_vs_central_oracle():
    rng = np.random.default_rng(7)

    def smooth(x):
        return dn.sin(x[0] * x[1]) + dn.exp(0.3 * x[2]) / (1.0 + x[0] * x[0])

    f = ScalarField(3, smooth)
    for _ in range(5):
        x = rng.uniform(-2, 2, size=3)
        gd = np.asarray(gradient(f, x, DUAL))
        gc = np.asarray(gradient(f, x, CENTRAL))
        assert np.max(np.abs(gd - gc)) < 1e-6 * (1.0 + np.linalg.norm(gd))


def test_jacobian_identity_map():
    fields = [ScalarField(2, (lambda i: lambda x: x[i])(i)) for i in range(2)]
    assert np.allclose(jacobian(joint(fields), [0.2, -0.7]), np.eye(2))


def test_jacobian_component_squares():
    fields = [
        ScalarField(2, lambda x: x[0] * x[0]),
        ScalarField(2, lambda x: x[1] * x[1]),
    ]
    assert np.allclose(jacobian(joint(fields), [1.0, 2.0]), np.diag([2.0, 4.0]))


def test_jacobian_dual_central_agreement_random_polynomial():
    rng = np.random.default_rng(11)
    coeffs = rng.uniform(-1, 1, size=(3, 3, 3))

    def make(k):
        def fn(x):
            total = 0.0
            for i in range(3):
                for j in range(3):
                    total = total + coeffs[k][i][j] * x[i] * x[j] * x[k]
            return total

        return fn

    fields = [ScalarField(3, make(k)) for k in range(3)]
    x = rng.uniform(-1, 1, size=3)
    jd = jacobian(joint(fields), x)
    jc = np.array([gradient(f, x, CENTRAL) for f in fields])
    assert np.max(np.abs(jd - jc)) < 1e-6


def test_hessian_kinetic_energy():
    f = ScalarField(3, lambda x: 0.5 * dot(x, x))
    assert np.allclose(hessian(f, [0.1, 0.2, 0.3]), np.eye(3))


def test_hessian_bilinear():
    f = ScalarField(2, lambda x: x[0] * x[1])
    assert np.allclose(hessian(f, [5.0, -2.0]), [[0.0, 1.0], [1.0, 0.0]])


def test_hessian_matches_jacobian_of_gradient_and_central():
    def fn(x):
        return dn.sqrt(1.0 + x[0] * x[0] + 0.5 * x[1] * x[1]) * dn.cos(x[1])

    f = ScalarField(2, fn)
    x = [0.4, -0.9]
    Hd = np.asarray(hessian(f, x, DUAL))
    Hc = np.asarray(hessian(f, x, CENTRAL))
    assert np.allclose(Hd, Hd.T)
    assert np.max(np.abs(Hd - Hc)) < 1e-6
    grads = [
        ScalarField(2, (lambda i: lambda z: gradient(f, z, DUAL)[i])(i))
        for i in range(2)
    ]
    assert np.max(np.abs(jacobian(joint(grads), x) - Hd)) < 1e-8


def test_every_derivative_is_a_list_of_floats_or_duals():
    """One format under both schemes: a gradient is a list, a Jacobian or a
    Hessian a list of rows; builtin floats at a float point (also one given
    as an array), duals at a dual point."""
    f = ScalarField(3, lambda x: dn.exp(x[0] * x[1] * x[2]))
    fields = joint([f, ScalarField(3, lambda x: x[0] * x[1] * x[2])])

    def derivatives(x):
        yield gradient(f, x, DUAL)
        yield gradient(f, x, CENTRAL)
        yield from jacobian(fields, x)
        yield from hessian(f, x, DUAL)
        if not any(map(dn.is_dual, x)):
            # the four-point stencil fills a float array, so floats only
            yield from hessian(f, x, CENTRAL)

    for x, kind in [
        ([0.3, -0.5, 0.8], float),
        (np.array([0.3, -0.5, 0.8]), float),
        ([dn.Dual(0.3, 1.0), -0.5, dn.Dual(0.8, 0.25)], dn.Dual),
        # a length-1 tangent array takes the scalar-seeded fallback
        ([dn.Dual(0.3, np.ones(1)), -0.5, 0.8], dn.Dual),
    ]:
        rows = list(derivatives(x))
        assert len(rows) == 2 + 2 + 3 + (3 if kind is float else 0)
        for row in rows:
            assert type(row) is list and len(row) == 3
            assert all(type(v) is kind for v in row), (kind, row)
    # a float point whose tangent row sums past the float range takes the
    # scalar-seeded fallback, whose entries are builtin floats too
    huge = ScalarField(2, lambda x: 1e308 * x[0] + 1e308 * x[1])
    assert gradient(huge, [0.1, 0.2]) == [1e308, 1e308]
    assert all(type(v) is float for v in gradient(huge, [0.1, 0.2]))


def _lie(rhs, f, x):
    """Derivative of ``f`` along the autonomous field ``rhs`` at ``x``, by
    the quotient pushforward that the diagram checks use."""
    sys = VectorFieldSystem(f.arity, rhs, tuple(f"x{i}" for i in range(f.arity)))
    return QuotientMap(lambda z: [f(z)], ("f",)).pushforward(sys, x)[0]


def test_lie_derivative_free_flow_conserves_angular_momentum():
    free = lambda x: [x[3], x[4], x[5], 0.0, 0.0, 0.0]
    val = _lie(free, ScalarField(6, cross_sq), [1.0, 0.5, -0.2, 0.3, 1.0, 0.4])
    assert abs(val) < 1e-12


def test_lie_derivative_euler_field_kills_degree_zero():
    ratio = ScalarField(2, lambda x: x[0] / x[1])
    assert _lie(lambda x: [x[0], x[1]], ratio, [2.0, 1.0]) == pytest.approx(0.0, abs=1e-15)


def test_lie_derivative_linear_flow_gives_riccati_rhs():
    a = b = c = 1.0
    gamma = lambda x: [b * x[0] + c * x[1], a * x[0] - b * x[1]]
    ratio = ScalarField(2, lambda x: x[0] / x[1])
    # c + 2b*xi - a*xi^2 at xi = 1
    assert _lie(gamma, ratio, [1.0, 1.0]) == pytest.approx(2.0, abs=1e-13)


def test_evaluation_error_carries_index():
    f = ScalarField(2, lambda x: x[0] / x[1])
    with pytest.raises(EvaluationError) as err:
        gradient(f, [1.0, 0.0])
    assert err.value.index is not None


def test_scalar_field_rejects_zero_arity():
    with pytest.raises(ValueError):
        ScalarField(0, lambda x: 1.0)


@pytest.mark.parametrize("scheme", [DUAL, CENTRAL])
@pytest.mark.parametrize(
    "arity, fn, point",
    [
        # a shorter field would be evaluated on a truncated point
        (2, lambda x: x[0] * x[1], [1.0, 2.0, 3.0]),
        # a longer one would pad the gradient with zeros
        (4, lambda x: x[0] * x[1], [1.0, 2.0]),
    ],
    ids=["field-shorter-than-point", "field-longer-than-point"],
)
def test_field_of_another_arity_than_its_point_raises(scheme, arity, fn, point):
    f = ScalarField(arity, fn)
    with pytest.raises(ValueError, match="arity"):
        f(point)
    with pytest.raises(ValueError, match="arity"):
        gradient(f, point, scheme)
    with pytest.raises(ValueError, match="arity"):
        hessian(f, point, scheme)


def _random_field_corpus(n_fields=20, seed=123):
    """Random polynomial/rational fields on R^3 for the cross-check corpus."""
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(n_fields):
        c = rng.uniform(-1, 1, size=(3, 3))
        lin = rng.uniform(-1, 1, size=3)

        def fn(x, c=c, lin=lin):
            quad = 0.0
            for i in range(3):
                for j in range(3):
                    quad = quad + c[i][j] * x[i] * x[j]
            num = quad + dot(lin, x)
            return num / (1.0 + dot(x, x))

        fields.append(ScalarField(3, fn))
    return fields


def test_dual_vs_central_on_corpus():
    """20 random polynomial/rational fields, 10 random points each."""
    rng = np.random.default_rng(99)
    for f in _random_field_corpus():
        for _ in range(10):
            x = rng.uniform(-2, 2, size=3)
            gd = np.asarray(gradient(f, x, DUAL))
            gc = np.asarray(gradient(f, x, CENTRAL))
            rel = np.max(np.abs(gd - gc)) / (1.0 + np.max(np.abs(gd)))
            assert rel < 1e-5


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=3, max_size=3))
def test_gradient_linearity_property(pt):
    f = ScalarField(3, lambda x: x[0] * x[1] - 2.0 * x[2] * x[0])
    g = ScalarField(3, lambda x: x[2] * x[2] + x[1])
    fg = ScalarField(3, lambda x: f(x) + 3.0 * g(x))
    lhs = gradient(fg, pt)
    rhs = np.asarray(gradient(f, pt)) + 3.0 * np.asarray(gradient(g, pt))
    assert np.allclose(lhs, rhs, atol=1e-12)


# -- vector tangents at float points against per-direction scalar seeding ----

_UNARY = (lambda u: u, dn.sin, dn.exp, lambda u: dn.sqrt(1.0 + u * u))


@st.composite
def _closed_form(draw, n):
    """A random field of arity n: sum of c * op(x[i] * x[j] + x[k]), op one
    of identity, sin, exp, sqrt(1 + u^2)."""
    terms = draw(
        st.lists(
            st.tuples(
                st.floats(-2, 2, allow_nan=False),
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(0, len(_UNARY) - 1),
            ),
            min_size=1,
            max_size=6,
        )
    )

    def fn(x):
        total = 0.0
        for c, i, j, k, op in terms:
            total = total + c * _UNARY[op](x[i] * x[j] + x[k])
        return total

    return fn


def _point(n):
    return st.lists(st.floats(-2, 2, allow_nan=False), min_size=n, max_size=n)


def _scalar_rows(outputs, x):
    """Reference: one evaluation per direction, seeded with calc._seed."""
    cols = [[dn.tangent_part(y) for y in outputs(calc._seed(x, i))] for i in range(len(x))]
    return np.array(cols, dtype=float).T


def _same_bits(got, ref):
    got = np.asarray(got)
    return got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_vector_mode_rows_bit_identical_to_scalar_seeding(data):
    n = data.draw(st.integers(1, 16))
    # a constant output has a plain-float tangent, broadcast to a zero row
    fns = data.draw(st.lists(_closed_form(n), min_size=1, max_size=3)) + [lambda z: 2.5]
    comps = data.draw(st.lists(_closed_form(n), min_size=n, max_size=n))
    x = data.draw(_point(n))
    fields = [ScalarField(n, fn) for fn in fns]
    rows = _scalar_rows(lambda z: [fn(z) for fn in fns], x)
    assert _same_bits(gradient(fields[0], x), rows[0])
    assert _same_bits(jacobian(joint(fields), x), rows)
    assert _same_bits(jacobian(joint(fields), np.asarray(x)), rows)
    # a square Jacobian: the components of a vector field
    field_rows = _scalar_rows(lambda z: [c(z) for c in comps], x)
    assert _same_bits(jacobian(joint([ScalarField(n, c) for c in comps]), x), field_rows)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_injected_nan_or_inf_names_first_bad_component(data):
    n = data.draw(st.integers(1, 16))
    base = data.draw(_closed_form(n))
    bad = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
    kind = data.draw(st.sampled_from(["inf", "nan"]))
    x = data.draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))

    def poisoned(z):
        # (s z_k)^2 overflows only in the tangent slot of direction k;
        # subtracting it again turns that slot into inf - inf = NaN
        total = base(z)
        for k in sorted(bad):
            t = 1e200 * z[k]
            total = total + (t * t if kind == "inf" else t * t - t * t)
        return total

    other = ScalarField(n, base)
    for call in (
        lambda: gradient(ScalarField(n, poisoned), x),
        lambda: jacobian(joint([other, ScalarField(n, poisoned)]), x),
        lambda: jacobian(joint([ScalarField(n, poisoned)] * n), x),
    ):
        with pytest.raises(EvaluationError) as err:
            call()
        assert err.value.index == min(bad)
        assert "non-finite" in str(err.value)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_non_finite_coordinate_raises_like_scalar_loop(data):
    n = data.draw(st.integers(1, 16))
    fn = data.draw(_closed_form(n))
    x = data.draw(_point(n))
    for k in data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)):
        x[k] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    f = ScalarField(n, fn)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            ref = _scalar_rows(lambda z: [fn(z)], x)[0]
        except (ArithmeticError, ValueError) as err:  # math domain errors
            with pytest.raises(type(err)):
                gradient(f, x)
            return
    bad = np.flatnonzero(~np.isfinite(ref))
    if bad.size == 0:
        assert _same_bits(gradient(f, x), ref)
        return
    with pytest.raises(EvaluationError) as err:
        gradient(f, x)
    assert err.value.index == bad[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_sqrt_at_zero_raises_evaluation_error_without_warning(data):
    n = data.draw(st.integers(1, 16))
    base = data.draw(_closed_form(n))
    k = data.draw(st.integers(0, n - 1))
    x = data.draw(_point(n))
    x[k] = 0.0
    f = ScalarField(n, lambda z: base(z) + dn.sqrt(z[k]))
    with pytest.raises(EvaluationError) as err:
        gradient(f, x)
    # the scalar loop raises on its first seed direction
    assert err.value.index == 0


def test_gradient_of_gradient_at_float_point_matches_hessian():
    def fn(x):
        return dn.exp(0.3 * x[0] * x[2]) * dn.sin(x[1]) + dn.sqrt(1.0 + x[0] * x[0] * x[1] * x[1])

    n = 3
    f = ScalarField(n, fn)
    grads = [ScalarField(n, (lambda i: lambda z: gradient(f, z)[i])(i)) for i in range(n)]
    x = [0.7, -0.4, 1.3]
    nested = jacobian(joint(grads), x)
    # outer and inner vector layers: bit-identical to scalar outer seeding
    assert _same_bits(nested, _scalar_rows(lambda z: [g(z) for g in grads], x))
    # the Hessian is the kernel applied twice, read from its lower triangle
    assert _same_bits(np.tril(nested), np.tril(hessian(f, x)))


def test_three_nested_vector_layers_bit_identical_to_scalar_loops():
    def fn(x):
        return dn.exp(0.3 * x[0] * x[2]) * dn.sin(x[1]) + dn.sqrt(1.0 + x[0] * x[0] * x[1] * x[1])

    n, x = 3, [0.7, -0.4, 1.3]

    def third(rows):
        """d_k d_j d_i f at x, every layer differentiated by ``rows``."""

        def grad(g, z):
            return rows(lambda w: [g(w)], z)[0]

        return rows(
            lambda z: [grad(lambda w: grad(fn, w)[i], z)[j] for i in range(n) for j in range(n)], x
        )

    # three seedings on three axes: (3,), (3, 1) and (3, 1, 1)
    vector = third(jacobian)
    loop = third(_scalar_tangents)
    assert _same_bits(vector, np.array(loop, dtype=float))


def test_unit_rows_are_shared_and_read_only():
    assert calc._axis_rows(4, 0) is calc._axis_rows(4, 0)
    assert calc._axis_rows(4, 2) is calc._axis_rows(4, 2)
    assert [u.shape for u in calc._axis_rows(3, 2)] == [(3, 1, 1)] * 3

    def writes_into_tangent(z):
        z[0].b[1] = 5.0
        return z[0]

    with pytest.raises(ValueError):
        gradient(ScalarField(2, writes_into_tangent), [1.0, 2.0])

    def writes_into_nested_tangent(z):
        # the nested seed row, wrapped to the depth of the point's duals
        z[0].b.a[1] = 5.0
        return z[0]

    with pytest.raises(ValueError):
        gradient(ScalarField(2, writes_into_nested_tangent), [dn.Dual(1.0, 0.5), dn.Dual(2.0, 0.5)])
    for u in calc._axis_rows(2, 1):
        assert not u.flags.writeable
    # the returned row is a fresh writable array, not the cached seed
    identity = ScalarField(2, lambda z: z[0])
    g = gradient(identity, [1.0, 2.0])
    g[0] = 7.0
    assert list(gradient(identity, [1.0, 2.0])) == [1.0, 0.0]


# -- vector tangents at points holding duals against per-direction seeding --


def _tree(v):
    """Every slot of a (possibly nested) dual down to its bits, with the
    type of each leaf: a float and a one-entry array differ."""
    if isinstance(v, list):
        return [_tree(e) for e in v]
    if isinstance(v, dn.Dual):
        return (_tree(v.a), _tree(v.b))
    if isinstance(v, np.ndarray):
        return (v.dtype.str, v.shape, v.tobytes())
    return (type(v), np.float64(v).tobytes())


def _scalar_tangents(outputs, x):
    """Reference at any point: the ``calc._seed`` loop, as rows of tangents."""
    cols = [[dn.tangent_part(y) for y in outputs(calc._seed(x, i))] for i in range(len(x))]
    return [list(row) for row in zip(*cols)]


@st.composite
def _dual_point(draw, n, coords=_point):
    """A point of n coordinates, the first a dual of one of three kinds:
    scalar tangents ``Dual(x, t)``, unit-row seeds ``Dual(x, e_j)`` of an
    outer vector seeding of arity m, or nested ``Dual(Dual(x, t),
    Dual(s, 0.0))``; with the number of evaluations ``_dual_rows`` takes
    there."""
    x, t, s = draw(coords(n)), draw(_point(n)), draw(_point(n))
    # coordinates after the first may stay plain numbers
    plain = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
    kind = draw(st.sampled_from(["scalar", "unit", "nested"]))
    evaluations = 1
    if kind == "scalar":
        z = [dn.Dual(a, b) for a, b in zip(x, t)]
    elif kind == "nested":
        z = [dn.Dual(dn.Dual(a, b), dn.Dual(c, 0.0)) for a, b, c in zip(x, t, s)]
    else:
        m = draw(st.integers(1, 5))
        z = [dn.Dual(a, np.eye(m)[draw(st.integers(0, m - 1))]) for a in x]
        # one-entry tangent arrays would broadcast like a seed row's own
        # axes, so that point takes the scalar loop
        evaluations = 1 if m > 1 else n
    return [x[j] if j in plain else v for j, v in enumerate(z)], evaluations


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dual_point_rows_bit_identical_to_scalar_seeding_in_one_evaluation(data):
    n = data.draw(st.integers(1, 8))
    x, evaluations = data.draw(_dual_point(n))
    fns = data.draw(st.lists(_closed_form(n), min_size=1, max_size=3)) + [lambda z: 2.5]
    counted = [_counted(fn) for fn in fns]
    ref = _scalar_tangents(lambda z: [fn(z) for fn in fns], x)
    assert _tree(gradient(ScalarField(n, counted[0]), x)) == _tree(ref[0])
    assert counted[0].calls == evaluations
    assert _tree(jacobian(joint([ScalarField(n, c) for c in counted]), x)) == _tree(ref)
    assert _tree(jacobian(lambda z: [c(z) for c in counted], x)) == _tree(ref)
    assert all(c.calls == evaluations * (3 if i == 0 else 2) for i, c in enumerate(counted))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dual_point_injected_nan_or_inf_raises_the_scalar_loop_index(data):
    n = data.draw(st.integers(1, 8))
    x, _ = data.draw(_dual_point(n, lambda n: st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    base = data.draw(_closed_form(n))
    k = data.draw(st.integers(0, n - 1))
    kind = data.draw(st.sampled_from(["inf", "nan"]))

    def poisoned(z):
        # direction k of (s z_k)^2 overflows; subtracting it again gives NaN
        t = 1e200 * z[k]
        return base(z) + (t * t if kind == "inf" else t * t - t * t)

    with warnings.catch_warnings():
        # the loop's tangent arrays overflow with a warning, as they always have
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = _scalar_tangents(lambda z: [poisoned(z)], x)[0]
        bad = [i for i, v in enumerate(ref) if not np.isfinite(dn.real_part(v))]
        assert bad
        for call in (
            lambda: gradient(ScalarField(n, poisoned), x),
            lambda: jacobian(joint([ScalarField(n, base), ScalarField(n, poisoned)]), x),
            lambda: jacobian(lambda z: [poisoned(z)] * 2, x),
        ):
            with pytest.raises(EvaluationError) as err:
                call()
            assert err.value.index == bad[0]
            assert "non-finite" in str(err.value)


# -- Hessian rows at float points against per-pair nested seeding ------------


def _pair_hessian(f, x):
    """Reference: one nested evaluation per pair i <= j, inner direction i,
    outer direction j, mirrored."""
    n = len(x)
    H = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            xs = [
                dn.Dual(dn.Dual(x[k], 1.0 if k == i else 0.0), dn.Dual(1.0 if k == j else 0.0, 0.0))
                for k in range(n)
            ]
            H[i][j] = H[j][i] = dn.tangent_part(dn.tangent_part(f(xs)))
    return H


def _counted(fn):
    def wrapped(z):
        wrapped.calls += 1
        return fn(z)

    wrapped.calls = 0
    return wrapped


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hessian_rows_bit_identical_to_pair_seeding(data):
    n = data.draw(st.integers(1, 16))
    a, b = data.draw(_closed_form(n)), data.draw(_closed_form(n))
    k = data.draw(st.integers(0, n - 1))
    x = data.draw(_point(n))
    # a constant and a linear field have plain-float second tangents
    for fn in (a, lambda z: a(z) * b(z), lambda z: 2.5, lambda z: 3.0 * z[k] - 1.0):
        counted = _counted(fn)
        H = hessian(ScalarField(n, counted), x)
        assert counted.calls == 1
        assert _same_bits(H, np.array(_pair_hessian(fn, [float(c) for c in x]), dtype=float))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hessian_injected_nan_or_inf_names_first_bad_index(data):
    n = data.draw(st.integers(1, 16))
    base = data.draw(_closed_form(n))
    pairs = data.draw(
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=3)
    )
    kind = data.draw(st.sampled_from(["inf", "nan"]))
    x = data.draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))

    def poisoned(z):
        # d_k d_l of (s z_k)(s z_l) is s^2 = inf, and inf - inf = NaN; the
        # other second partials of the term stay finite
        total = base(z)
        for k, l in sorted(pairs):
            t = (1e200 * z[k]) * (1e200 * z[l])
            total = total + (t if kind == "inf" else t - t)
        return total

    with pytest.raises(EvaluationError) as err:
        hessian(ScalarField(n, poisoned), x)
    # the pair loop checks entry (i, j), i <= j, under index i
    assert err.value.index == min(min(p) for p in pairs)
    assert "non-finite" in str(err.value)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hessian_non_finite_coordinate_raises_like_pair_loop(data):
    n = data.draw(st.integers(1, 16))
    fn = data.draw(_closed_form(n))
    x = data.draw(_point(n))
    for k in data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)):
        x[k] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    f = ScalarField(n, fn)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            ref = np.array(_pair_hessian(fn, x), dtype=float)
        except (ArithmeticError, ValueError) as err:  # math domain errors
            with pytest.raises(type(err)):
                hessian(f, x)
            return
    bad = np.argwhere(~np.isfinite(np.triu(ref)))
    if bad.size == 0:
        assert _same_bits(hessian(f, x), ref)
        return
    with pytest.raises(EvaluationError) as err:
        hessian(f, x)
    assert err.value.index == bad[0][0]


def test_hessian_zero_division_raises_evaluation_error_with_first_index():
    # the row evaluation raises, and the replayed pair loop maps the zero
    # division under its first index
    f = ScalarField(3, lambda z: z[0] * z[1] + 1.0 / (z[2] - 0.5))
    with pytest.raises(EvaluationError) as err:
        hessian(f, [0.3, -0.2, 0.5])
    assert err.value.index == 0


def test_hessian_at_dual_point_returns_nested_lists():
    def fn(z):
        return dn.sin(z[0] * z[1]) + z[2] * z[2] * z[0]

    f = ScalarField(3, fn)
    x = [dn.Dual(0.4, 1.0), 0.7, dn.Dual(-1.1, 0.5)]
    H = hessian(f, x)
    assert isinstance(H, list) and all(isinstance(row, list) for row in H)
    ref = _pair_hessian(fn, x)
    for i in range(3):
        for j in range(3):
            assert H[i][j].a == ref[i][j].a and H[i][j].b == ref[i][j].b
    assert np.array_equal(
        [[dn.real_part(v) for v in row] for row in H], hessian(f, [0.4, 0.7, -1.1])
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dual_point_hessian_bit_identical_to_nested_scalar_seeding(data):
    n = data.draw(st.integers(1, 6))
    x, _ = data.draw(_dual_point(n))
    a, b = data.draw(_closed_form(n)), data.draw(_closed_form(n))
    for fn in (a, lambda z: a(z) * b(z), lambda z: 2.5, lambda z: 3.0 * z[0] - 1.0):
        # d_j of the gradient entry i, each layer one calc._seed per direction
        R = _scalar_tangents(lambda z: _scalar_tangents(lambda w: [fn(w)], z)[0], x)
        ref = [[R[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
        assert _tree(hessian(ScalarField(n, fn), x)) == _tree(ref)


def _name(node):
    """The name a ``Name`` or ``Attribute`` node reads; None for others."""
    return getattr(node, "id", getattr(node, "attr", None))


def _package_calls(allowed, matches) -> list:
    """``module:line`` of every call that ``matches`` flags in the package
    modules whose file names are not in ``allowed``."""
    import ast
    from pathlib import Path

    import geored

    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(geored.__file__).parent.glob("*.py"))
        if path.name not in allowed
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and matches(node)
    ]


def test_only_the_kernel_constructs_duals():
    """Every production derivative goes through calc: no other module of the
    package builds a ``Dual`` of its own."""
    offenders = _package_calls(
        {"calc.py", "dualnum.py", "_dual_py.py"}, lambda call: _name(call.func) == "Dual"
    )
    assert not offenders, offenders


def test_only_the_kernel_tests_for_arrays():
    """A derivative has one format, so no module but calc asks whether a
    value is an ``np.ndarray``."""
    import ast

    offenders = _package_calls(
        {"calc.py"},
        lambda call: _name(call.func) == "isinstance"
        and any(_name(sub) == "ndarray" for arg in call.args[1:] for sub in ast.walk(arg)),
    )
    assert not offenders, offenders


def test_central_hessian_evaluates_centre_once_through_eval():
    f = ScalarField(3, lambda z: 1.0 / (z[0] - 0.5) + z[1] * z[2])
    with pytest.raises(EvaluationError) as err:
        hessian(f, [0.5, 1.0, 2.0], CENTRAL)
    assert err.value.index == 0
    counted = _counted(lambda z: dn.exp(z[0] * z[1]) + z[2] ** 3)
    H = np.asarray(hessian(ScalarField(3, counted), [0.2, 0.4, -0.6], CENTRAL))
    # centre once, two points per diagonal entry, four per off-diagonal pair
    assert counted.calls == 1 + 2 * 3 + 4 * 3
    assert np.max(np.abs(H - hessian(ScalarField(3, counted), [0.2, 0.4, -0.6]))) < 1e-6


# -- directional derivatives (calc._jvp) --------------------------------------


def _hand_lie(rhs, f, x):
    """Reference: the hand seeding of a Lie derivative before calc._jvp."""
    vx = rhs(list(x))
    return dn.tangent_part(f([dn.Dual(float(x[j]), float(vx[j])) for j in range(len(x))]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lie_derivative_bit_identical_to_hand_seeding(data):
    n = data.draw(st.integers(1, 8))
    f = ScalarField(n, data.draw(_closed_form(n)))
    xc = data.draw(st.lists(_closed_form(n), min_size=n, max_size=n))
    rhs = lambda z: [c(z) for c in xc]
    x = data.draw(_point(n))
    for point in (x, np.asarray(x)):
        assert _same_bits(np.float64(_lie(rhs, f, point)), np.float64(_hand_lie(rhs, f, x)))


def test_pushforward_matches_gradient_dot_velocity_at_catalog_samples():
    from geored import catalog
    from geored.flow import integrate

    for build in catalog.ENTRY_BUILDERS.values():
        sc = build()
        t0, t1 = sc.t_span
        states = integrate(sc.system, sc.x0, t0, t1).resample(
            np.linspace(t0, t1, GRID_POINTS)
        )
        idx = np.linspace(0, len(states) - 1, SAMPLE_COUNT).astype(int)
        rng = np.random.default_rng(0)
        points = [states[i] for i in idx]
        points += [sc.orbit_map(x, rng) for x in points]
        for x in points:
            v = sc.system.eval_rhs(list(x))
            got = sc.quotient.pushforward(sc.system, x)
            rows = jacobian(sc.quotient.fn, x)
            for name, row, value in zip(sc.quotient.names, rows, got, strict=True):
                terms = row * np.asarray(v, dtype=float)
                # the two sum the same products in another order, so they
                # agree to roundoff in the size of the terms
                scale = float(np.sum(np.abs(terms)))
                assert abs(value - float(np.sum(terms))) <= 1e-14 * scale, (sc.name, name)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_jvp_zero_division_and_non_finite_tangents_raise():
    with pytest.raises(EvaluationError):
        calc._jvp(lambda z: [z[0] / z[1]], [1.0, 0.0], [1.0, 1.0])
    with pytest.raises(EvaluationError):
        calc._jvp(lambda z: [dn.sqrt(z[0])], [0.0], [1.0])
    # numpy scalars too: divided by zero they would warn and give inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError) as err:
            calc._jvp(
                lambda z: [z[0] / z[1]],
                [np.float64(1.0), np.float64(0.0)],
                [np.float64(1.0)] * 2,
            )
    assert err.value.index is None
    # a finite value whose tangent overflows to inf, and one whose tangent is NaN
    with pytest.raises(EvaluationError) as err:
        calc._jvp(lambda z: [z[0], z[0] * 1e308], [1.0], [10.0])
    assert err.value.index == 1
    with pytest.raises(EvaluationError) as err:
        calc._jvp(lambda z: [z[0] * 1e308 - z[0] * 1e308], [1.0], [10.0])
    assert err.value.index == 0
    # the public callers go through the same checks
    with pytest.raises(EvaluationError):
        _lie(lambda z: [10.0], ScalarField(1, lambda z: z[0] * 1e308), [1.0])

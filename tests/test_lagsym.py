import json
import math

import numpy as np
import pytest

from geored import lagsym
from geored.calc import CENTRAL, DUAL, ScalarField, gradient
from geored.errors import (
    ConnectionInvalid,
    DegenerateLagrangian,
    DomainError,
)
from geored.dualnum import is_dual
from geored.lagsym import (
    ETA,
    ConnectionField,
    ConnectionFrame,
    TwoFormAtPoint,
    bracket_table,
    cartan_one_form,
    coordinate_fields,
    el_field,
    energy,
    is_regular,
    jacobi_residual,
    kernel_basis,
    lagrangian_two_form,
    lower,
    measured_position_brackets,
    mechanical_lagrangian,
    minkowski_dot,
    newton_wigner_fields,
    pb_regular,
    poisson_compatibility,
    relativistic_connection,
    relativistic_lagrangian,
)

REL = relativistic_lagrangian()
CONN = relativistic_connection()


def timelike_points(count, seed=0, dim=4):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        x = rng.uniform(-2, 2, size=dim)
        v = rng.uniform(-1, 1, size=dim)
        v[0] = rng.uniform(1.2, 2.5) * (1.0 + np.linalg.norm(v[1:]))
        pts.append(np.concatenate([x, v]))
    return pts


def test_cartan_one_form_mechanical():
    model = mechanical_lagrangian(1)
    theta = cartan_one_form(model, [3.0, 2.0])
    assert np.allclose(theta, [2.0, 0.0])


def test_cartan_one_form_relativistic_rest():
    theta = cartan_one_form(REL, [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    assert np.allclose(theta[:4], [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(theta[4:], 0.0)


def test_cartan_contraction_with_dynamics_gives_energy():
    model = mechanical_lagrangian(2, potential=lambda q: q[0] ** 2 + 0.5 * q[1] ** 2)
    rng = np.random.default_rng(1)
    for _ in range(5):
        z = rng.uniform(-1, 1, size=4)
        theta = cartan_one_form(model, z)
        gamma = el_field(model, z)
        contraction = float(theta @ gamma)
        assert contraction - float(model.L(z)) == pytest.approx(
            float(energy(model, z)), abs=1e-10
        )


def test_two_form_mechanical_block_structure():
    model = mechanical_lagrangian(2, potential=lambda q: q[0] * q[1])
    W = lagrangian_two_form(model, [0.3, -0.2, 0.8, 0.1]).matrix
    expected = np.block(
        [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
    )
    assert np.allclose(W, expected, atol=1e-12)


def test_two_form_relativistic_matches_closed_form():
    z = [0.1, 0.2, -0.3, 0.4, 1.5, 0.2, -0.1, 0.3]
    W = lagrangian_two_form(REL, z).matrix
    v = np.asarray(z[4:])
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    v_low = eta @ v
    lag = math.sqrt(float(v_low @ v))
    coeff = (eta * lag**2 - np.outer(v_low, v_low)) / lag**3
    assert np.allclose(W[:4, 4:], coeff, atol=1e-9)
    assert np.allclose(W[:4, :4], 0.0, atol=1e-12)
    assert np.max(np.abs(W + W.T)) < 1e-12


def test_two_form_equals_exterior_derivative_of_cartan_form():
    # finite-difference exterior derivative cross-check: the block matrix
    # equals -d(theta) componentwise, for regular and degenerate models
    mech = mechanical_lagrangian(2, potential=lambda q: q[0] ** 3 + q[1] * q[0])
    cases = [
        (mech, [0.4, -0.2, 0.7, 0.3]),
        (mech, [1.0, 0.5, -0.4, 0.9]),
        (REL, [0.1, 0.2, -0.3, 0.4, 1.6, 0.2, -0.1, 0.3]),
    ]
    for model, z in cases:
        n = model.n
        W = lagrangian_two_form(model, z).matrix
        theta_fields = [
            ScalarField(
                2 * n, (lambda k: lambda w: gradient(model.L, w, DUAL)[n + k])(i)
            )
            for i in range(n)
        ]
        # J[i, A] = d theta_{q_i} / d z^A
        J = np.array([gradient(f, z, CENTRAL) for f in theta_fields])
        full = np.zeros((2 * n, 2 * n))  # full[A, B] = d_A theta_B
        for a in range(2 * n):
            for b in range(n):
                full[a, b] = J[b][a]
        anti = -(full - full.T)  # -(d theta)
        assert np.max(np.abs(anti - W)) < 1e-6


def test_energy_values():
    model = mechanical_lagrangian(1, potential=lambda q: 2.0 * q[0])
    assert float(energy(model, [1.5, 2.0])) == pytest.approx(0.5 * 4.0 + 3.0)
    quad = mechanical_lagrangian(3)
    z = [0.0, 0.0, 0.0, 0.3, -0.4, 0.5]
    assert float(energy(quad, z)) == pytest.approx(float(quad.L(z)), abs=1e-14)


def test_energy_vanishes_identically_relativistic():
    for z in timelike_points(100, seed=3):
        assert abs(float(energy(REL, z))) < 1e-12


def test_is_regular():
    assert is_regular(mechanical_lagrangian(3), [0, 0, 0, 1, 2, 3]).regular
    assert is_regular(mechanical_lagrangian(3), [0, 0, 0, 1, 2, 3]).det == pytest.approx(1.0)
    rep = is_regular(REL, timelike_points(1, seed=5)[0])
    assert not rep.regular
    assert rep.rank == 3
    assert abs(rep.det) < 1e-8
    half = ScalarField(4, lambda z: 0.5 * z[2] * z[2])
    from geored.lagsym import LagrangianModel

    rep2 = is_regular(LagrangianModel(2, half), [0.0, 0.0, 1.0, 1.0])
    assert rep2.rank == 1 and not rep2.regular


def test_el_field_mechanical_and_free():
    model = mechanical_lagrangian(1, potential=lambda q: 0.5 * q[0] ** 2)
    gamma = el_field(model, [0.7, 0.4])
    assert np.allclose(gamma, [0.4, -0.7], atol=1e-10)
    free = mechanical_lagrangian(3)
    z = [0.1, 0.2, 0.3, -0.4, 0.5, 0.6]
    assert np.allclose(el_field(free, z), [-0.4, 0.5, 0.6, 0.0, 0.0, 0.0], atol=1e-10)


def test_el_field_rejects_degenerate_model():
    with pytest.raises(DegenerateLagrangian):
        el_field(REL, timelike_points(1, seed=6)[0])


def _momentum_fields(model):
    n = model.n

    def make(j):
        return ScalarField(
            2 * n, lambda z: gradient(model.L, z, DUAL)[n + j], f"p{j}"
        )

    return [make(j) for j in range(n)]


def test_pb_regular_canonical_relations():
    # anisotropic regular model with a velocity-position cross term
    def L_fn(z):
        q, v = z[:2], z[2:]
        return 0.5 * (v[0] ** 2 + 2.0 * v[1] ** 2) + q[0] * v[1] - q[0] * q[1]

    from geored.lagsym import LagrangianModel

    models = [
        LagrangianModel(2, ScalarField(4, L_fn)),
        mechanical_lagrangian(2, potential=lambda q: q[0] ** 2 * q[1] - q[1]),
    ]
    coords = coordinate_fields(4, ["q0", "q1", "v0", "v1"])
    rng = np.random.default_rng(8)
    for model in models:
        ps = _momentum_fields(model)
        for _ in range(10):
            z = rng.uniform(-1, 1, size=4)
            for j in range(2):
                for k in range(2):
                    val = pb_regular(model, ps[j], coords[k], z)
                    assert float(val) == pytest.approx(
                        1.0 if j == k else 0.0, abs=1e-10
                    )
            assert float(pb_regular(model, coords[0], coords[1], z)) == pytest.approx(
                0.0, abs=1e-12
            )
            assert float(pb_regular(model, ps[0], ps[1], z)) == pytest.approx(
                0.0, abs=1e-10
            )


def test_pb_regular_antisymmetry_random_pairs():
    model = mechanical_lagrangian(2, potential=lambda q: q[0] ** 2 * q[1])
    f = ScalarField(4, lambda z: z[0] * z[3] + z[1] * z[1])
    g = ScalarField(4, lambda z: z[2] * z[2] - z[0])
    rng = np.random.default_rng(10)
    for _ in range(5):
        z = rng.uniform(-1, 1, size=4)
        assert float(pb_regular(model, f, g, z)) == pytest.approx(
            -float(pb_regular(model, g, f, z)), abs=1e-11
        )


class RegularFrame:
    """A bracket frame over ``pb_regular``, which rebuilds the two-form for
    every bracket."""

    def __init__(self, model, point):
        self.model, self.z = model, list(point)

    def at(self, point):
        return RegularFrame(self.model, point)

    def bracket(self, f, g):
        return pb_regular(self.model, f, g, self.z)


def test_jacobi_residual_regular_model():
    model = mechanical_lagrangian(1, potential=lambda q: q[0] ** 4)
    coords = coordinate_fields(2, ["q", "v"])
    f = ScalarField(2, lambda z: z[0] * z[1])
    res = jacobi_residual(RegularFrame(model, [0.6, -0.3]), coords[0], coords[1], f)
    assert res < 1e-8


def test_kernel_basis_regular_empty():
    model = mechanical_lagrangian(2)
    W = lagrangian_two_form(model, [0, 0, 1.0, 2.0])
    assert kernel_basis(W) == []


def test_kernel_basis_relativistic_contains_dynamics_and_dilation():
    z = timelike_points(1, seed=11)[0]
    W = lagrangian_two_form(REL, z)
    basis = kernel_basis(W)
    assert len(basis) == 2
    for vec in basis:
        assert np.max(np.abs(W.matrix @ vec)) < 1e-8
    v = z[4:]
    gamma = np.concatenate([v, np.zeros(4)])
    delta = np.concatenate([np.zeros(4), v])
    P = np.stack(basis)
    for probe in (gamma, delta):
        proj = P.T @ (P @ probe)
        assert np.max(np.abs(proj - probe)) < 1e-8 * (1 + np.linalg.norm(probe))


def _newton_wigner(z):
    Q, P = newton_wigner_fields()
    return np.asarray([q(list(z)) for q in Q]), np.asarray([p(list(z)) for p in P])


def test_newton_wigner_values():
    Q, P = _newton_wigner([5.0, 1.0, 2.0, 3.0, 1.0, 0.0, 0.0, 0.0])
    assert np.allclose(Q, [-1.0, -2.0, -3.0])
    assert np.allclose(P, 0.0)
    Q0, _ = _newton_wigner([0.0, 0.0, 0.0, 0.0, 2.0, 0.3, -0.2, 0.5])
    assert np.allclose(Q0, 0.0)


def test_newton_wigner_scale_invariance():
    z = timelike_points(1, seed=12)[0]
    Q1, P1 = _newton_wigner(z)
    for lam in (2.0, 0.31):
        scaled = np.concatenate([z[:4], lam * z[4:]])
        Q2, P2 = _newton_wigner(scaled)
        assert np.allclose(Q1, Q2, atol=1e-10)
        assert np.allclose(P1, P2, atol=1e-10)


def test_relativistic_lagrangian_rejects_spacelike_velocity():
    with pytest.raises(DomainError):
        REL.L([0, 0, 0, 0, 0.1, 1.0, 0.0, 0.0])


def test_connection_is_projector_with_matching_kernel():
    for z in timelike_points(20, seed=13):
        A = np.asarray(CONN.at(list(z)), dtype=float)
        assert np.max(np.abs(A @ A - A)) < 1e-9
        assert np.linalg.matrix_rank(A, tol=1e-8) == 6
        v = z[4:]
        for probe in (np.concatenate([v, np.zeros(4)]), np.concatenate([np.zeros(4), v])):
            assert np.max(np.abs(A @ probe)) < 1e-9 * (1 + np.linalg.norm(probe))
    CONN.validate(REL, timelike_points(1, seed=14)[0])


def test_connection_validation_rejects_non_projector():
    bad = ConnectionField(lambda z: np.eye(8) * 0.5)
    with pytest.raises(ConnectionInvalid):
        bad.validate(REL, timelike_points(1, seed=15)[0])


def test_darboux_relations_under_connection_bracket():
    Qs, Ps = newton_wigner_fields()
    for z in timelike_points(4, seed=16):
        frame = ConnectionFrame(REL, CONN, z)
        for i in range(3):
            for j in range(3):
                qp = float(frame.bracket(Qs[i], Ps[j]))
                assert qp == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)
                qq = float(frame.bracket(Qs[i], Qs[j]))
                pp = float(frame.bracket(Ps[i], Ps[j]))
                assert abs(qq) < 1e-8 and abs(pp) < 1e-8


def test_velocity_brackets_vanish():
    coords = coordinate_fields(8, [f"x{i}" for i in range(4)] + [f"v{i}" for i in range(4)])
    vs = coords[4:]
    for z in timelike_points(3, seed=17):
        frame = ConnectionFrame(REL, CONN, z)
        for r in range(4):
            for s in range(4):
                val = float(frame.bracket(vs[r], vs[s]))
                assert abs(val) < 1e-10


def test_position_brackets_proportional_to_boost_combination():
    z = timelike_points(1, seed=18)[0]
    for m, c in ((1.0, 1.0), (1.7, 0.6)):
        report = measured_position_brackets(z, m=m, c=c)
        assert report["vv_max_abs"] < 1e-10
        # one scalar prefactor across all index pairs
        assert report["xx_prefactor_spread"] < 1e-8 * (1 + abs(report["xx_prefactor_measured"]))
        # in this orientation the prefactor is -m^2 c^2 / L (README,
        # "Conventions"); the published closed form has the opposite sign
        L = m * c * math.sqrt(minkowski_dot(z[4:], z[4:]))
        derived = -m * m * c * c / L
        assert report["xx_prefactor_measured"] == pytest.approx(derived, rel=1e-10)
        assert report["xx_prefactor_published_form"] == pytest.approx(-derived, rel=1e-10)


def test_lagrangian_is_casimir():
    coords = coordinate_fields(8, [f"x{i}" for i in range(4)] + [f"v{i}" for i in range(4)])
    for z in timelike_points(3, seed=19):
        frame = ConnectionFrame(REL, CONN, z)
        for f in coords:
            val = float(frame.bracket(REL.L, f))
            assert abs(val) < 1e-8


def test_presymplectic_bracket_scale_invariance_on_degree_zero():
    Qs, Ps = newton_wigner_fields()
    z = timelike_points(1, seed=20)[0]
    base = float(ConnectionFrame(REL, CONN, z).bracket(Qs[0], Ps[0]))
    scaled = np.concatenate([z[:4], 1.7 * z[4:]])
    again = float(ConnectionFrame(REL, CONN, scaled).bracket(Qs[0], Ps[0]))
    assert again == pytest.approx(base, abs=1e-8)


def test_presymplectic_jacobi_on_coordinate_triples():
    coords = coordinate_fields(8, [f"x{i}" for i in range(4)] + [f"v{i}" for i in range(4)])
    frame = ConnectionFrame(REL, CONN, timelike_points(1, seed=21)[0])
    triples = [
        (coords[0], coords[1], coords[5]),
        (coords[2], coords[4], coords[7]),
        (coords[1], coords[6], coords[3]),
    ]
    for f, g, h in triples:
        assert jacobi_residual(frame, f, g, h) < 1e-6


# -- the connection frame ------------------------------------------------------


def ref_presymplectic_bracket(model, A, f, g, point):
    """The per-call bracket the frame replaced: the connection, the weight
    and both gradients rebuilt for every bracket."""
    n = model.n
    z = list(point)
    rows = A.at(z)
    weight = model.L(z)
    df = list(gradient(f, z))
    dg = list(gradient(g, z))
    total = 0.0
    for mu in range(n):
        u_col = [rows[r][n + mu] for r in range(2 * n)]
        w_col = [rows[r][mu] for r in range(2 * n)]
        total = total + ETA[mu] * (
            lagsym._dot(df, w_col) * lagsym._dot(dg, u_col)
            - lagsym._dot(df, u_col) * lagsym._dot(dg, w_col)
        )
    return weight * total


def bits(v):
    """Real part and every tangent slot of a float or (nested) dual."""
    if is_dual(v):
        return (bits(v.a), bits(v.b))
    return np.asarray(v, dtype=float).tobytes()


def _frame_fields():
    Qs, Ps = newton_wigner_fields()
    coords = coordinate_fields(8, [f"x{i}" for i in range(4)] + [f"v{i}" for i in range(4)])
    return Qs + Ps + coords + [REL.L]


def test_connection_frame_equals_per_call_bracket_at_float_points():
    fields = _frame_fields()
    for z in timelike_points(3, seed=24):
        frame = ConnectionFrame(REL, CONN, z)
        for f in fields:
            for g in fields:
                got = frame.bracket(f, g)
                want = ref_presymplectic_bracket(REL, CONN, f, g, z)
                assert got == want and bits(got) == bits(want), (f.label, g.label)


def test_connection_frame_equals_per_call_bracket_at_nested_dual_points():
    coords = coordinate_fields(8, [f"x{i}" for i in range(4)] + [f"v{i}" for i in range(4)])
    z = timelike_points(1, seed=25)[0]
    points = []

    class RefFrame:
        def __init__(self, point):
            self.z = list(point)

        def at(self, point):
            return type(self)(point)

        def bracket(self, a, b):
            return ref_presymplectic_bracket(REL, CONN, a, b, self.z)

    class CheckedFrame(RefFrame):
        def bracket(self, a, b):
            got = ConnectionFrame(REL, CONN, self.z).bracket(a, b)
            assert bits(got) == bits(super().bracket(a, b))
            points.append(is_dual(self.z[0]))
            return got

    for f, g, h in [(coords[0], coords[1], coords[5]), (coords[2], coords[4], coords[7])]:
        got = jacobi_residual(CheckedFrame(z), f, g, h)
        assert bits(got) == bits(jacobi_residual(RefFrame(z), f, g, h))
    # the inner brackets ran at the dual points of the outer gradients, once
    # for the frame and once for the reference
    assert points.count(False) == 6 and points.count(True) == 12


def test_connection_frame_takes_one_gradient_per_field(monkeypatch):
    grad_list, calls = lagsym._grad_list, []
    monkeypatch.setattr(lagsym, "_grad_list", lambda f, z: calls.append(f) or grad_list(f, z))
    fields = _frame_fields()
    frame = ConnectionFrame(REL, CONN, timelike_points(1, seed=26)[0])
    for f in fields:
        for g in fields:
            frame.bracket(f, g)
    assert len(calls) == len(fields)
    assert [id(f) for f in calls] == [id(f) for f in fields]


def test_connection_frame_at_keeps_model_and_connection():
    z, z2 = timelike_points(2, seed=27)
    other = ConnectionFrame(REL, CONN, z).at(z2)
    fresh = ConnectionFrame(REL, CONN, z2)
    assert other.z == fresh.z
    Qs, Ps = newton_wigner_fields()
    for f, g in ((Qs[0], Ps[1]), (Qs[1], Ps[1]), (REL.L, Qs[2])):
        assert other.bracket(f, g) == fresh.bracket(f, g)


def test_jacobi_residual_leaves_no_reference_cycle():
    # the frame caches the pair fields built over ``frame.at``; were they to
    # hold the frame, every Jacobi check would leave garbage for the cyclic
    # collector
    import gc
    import weakref

    coords = coordinate_fields(8)
    frame = ConnectionFrame(REL, CONN, timelike_points(1, seed=28)[0])
    jacobi_residual(frame, coords[0], coords[1], coords[5])
    alive = weakref.ref(frame)
    gc.disable()
    try:
        del frame
        assert alive() is None
    finally:
        gc.enable()


def test_poisson_compatibility_conditions():
    for z in timelike_points(3, seed=22):
        report = poisson_compatibility(REL, CONN, z)
        assert report["lambda_omega_lambda"] <= 1e-8, report
        assert report["kernel_image_min_singular_value"] > 1e-8, report


def test_bracket_table_json_schema():
    coords = coordinate_fields(8, [f"x{i}" for i in range(4)] + [f"v{i}" for i in range(4)])
    z = timelike_points(1, seed=23)[0]
    payload = json.loads(json.dumps(bracket_table(ConnectionFrame(REL, CONN, z), coords[:3])))
    assert set(payload) == {"point", "pairs", "residuals"}
    assert payload["point"] == z.tolist()
    assert len(payload["pairs"]) == 3
    assert payload["residuals"]["antisymmetry"] < 1e-10


def test_bracket_table_keeps_a_nan_antisymmetry_residual():
    # the second pair's reversed bracket is NaN; the built-in max would keep
    # the first pair's finite residual instead
    class StubFrame:
        z = [0.0, 0.0, 0.0]

        def bracket(self, f, g):
            return math.nan if (f.label, g.label) == ("z2", "z0") else 0.0

    table = bracket_table(StubFrame(), coordinate_fields(3))
    assert [pair["value"] for pair in table["pairs"]] == [0.0, 0.0, 0.0]
    assert math.isnan(table["residuals"]["antisymmetry"])


def test_minkowski_product_and_lowering():
    from geored import frames

    assert ETA == (1.0, -1.0, -1.0, -1.0)
    assert np.array_equal(frames.ETA, np.diag(ETA))
    assert minkowski_dot([1, 0, 0, 0], [1, 0, 0, 0]) == 1.0
    assert minkowski_dot([0, 1, 0, 0], [0, 1, 0, 0]) == -1.0
    u, v = [2.0, 0.5, -1.0, 3.0], [1.5, 2.0, 0.25, -0.5]
    assert minkowski_dot(u, v) == 3.75
    assert minkowski_dot(lower(u), v) == 3.0 + 1.0 - 0.25 - 1.5
    assert lower(u) == [2.0, -0.5, 1.0, -3.0]


def test_two_form_at_point_rejects_asymmetric():
    with pytest.raises(ValueError):
        TwoFormAtPoint(np.eye(2), (0.0, 0.0))


# -- guards fail closed on NaN --------------------------------------------------


def _nan_two_form(monkeypatch):
    TwoFormAtPoint(np.array([[0.0, math.nan], [-1.0, 0.0]]), (0.0, 0.0))


def _nan_el_field(monkeypatch):
    import geored.lagsym as lagsym

    # a regular model whose energy gradient is NaN: the solve returns NaN
    monkeypatch.setattr(lagsym, "_grad_list", lambda f, z: [math.nan] * len(z))
    el_field(mechanical_lagrangian(1, potential=lambda q: 0.5 * q[0] ** 2), [0.7, 0.4])


def _nan_connection(monkeypatch):
    ConnectionField(lambda z: np.full((8, 8), math.nan)).validate(REL, timelike_points(1, seed=15)[0])


def _nan_kernel_vector(monkeypatch):
    import geored.lagsym as lagsym

    # a valid projector against a NaN kernel vector
    monkeypatch.setattr(lagsym, "kernel_basis", lambda form: [np.full(8, math.nan)])
    CONN.validate(REL, timelike_points(1, seed=14)[0])


@pytest.mark.parametrize(
    "inject, error, match",
    [
        (_nan_two_form, ValueError, "antisymmetric"),
        (_nan_el_field, DegenerateLagrangian, "second-order"),
        (_nan_connection, ConnectionInvalid, "idempotent"),
        (_nan_kernel_vector, ConnectionInvalid, "not killed"),
    ],
    ids=["two-form", "el-field", "connection", "kernel"],
)
def test_lagsym_guards_reject_nan(monkeypatch, inject, error, match):
    with pytest.raises(error, match=match):
        inject(monkeypatch)

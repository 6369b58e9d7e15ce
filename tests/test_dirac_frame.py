"""The Dirac frame in plain floats, bit for bit.

``DiracFrame`` takes its constraint rows from one ``calc.jacobian`` seeding,
holds every gradient as Python floats at a float point, sums brackets over
the cached canonical pair table and eliminates its constraint matrix once.
The reference code below is the per-bracket form it replaced: one gradient
per constraint, a bracket loop over ``ix``/``ip`` on float arrays, a fresh
Gauss-Jordan solve per bracket and a numpy-scalar ``flow_rhs``.  Every
comparison is by ``tobytes``, so the sign of zero counts too.
"""

import math

import numpy as np
import pytest

from geored import calc, dirac
from geored.calc import ScalarField, _jvp, gradient
from geored.dirac import (
    ConstraintRole,
    ConstraintSet,
    DiracFrame,
    PhaseSpace,
    constrained_flow,
    coordinate_fn,
    linear_potential,
    poincare_generators,
    sample_on_shell,
    two_particle_model,
    wlc_residual,
)
from geored.dualnum import Dual, is_dual, real_part, tangent_part
from geored.errors import ConstraintDrift, DegenerateLagrangian, OffSurface
from geored.lagsym import ETA, _apply_plan, _dot, _eliminate, _solve_generic, minkowski_dot
from geored.qriccati import unitarity_surface

# -- reference: the per-bracket frame -----------------------------------------


def ref_pb_from_grads(space, df, dg):
    total = 0.0
    diag = ETA
    for alpha in range(space.particles):
        for mu in range(4):
            i, j = space.ix(alpha, mu), space.ip(alpha, mu)
            total = total + diag[mu] * (df[i] * dg[j] - df[j] * dg[i])
    return total


def ref_solve_generic(A, b):
    n = len(b)
    M = [list(row) + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(real_part(M[r][col])))
        if abs(real_part(M[pivot][col])) == 0.0:
            raise DegenerateLagrangian("singular linear system in bracket solve")
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1.0 / M[col][col]
        for r in range(n):
            if r == col:
                continue
            factor = M[r][col] * inv
            if real_part(factor) == 0.0 and not is_dual(factor):
                continue
            for c in range(col, n + 1):
                M[r][c] = M[r][c] - factor * M[col][c]
    return [M[i][n] / M[i][i] for i in range(n)]


def ref_grad(fn, z, tau):
    return gradient(ScalarField(len(z), lambda xs: fn(xs, tau)), z)


class RefFrame:
    def __init__(self, cset, point, tau=0.0):
        self.cset, self.z, self.tau = cset, list(point), tau
        self.grads = [ref_grad(c.fn, self.z, tau) for c in cset.constraints]
        k = len(self.grads)
        self.matrix = [[0.0] * k for _ in range(k)]
        for a in range(k):
            for b in range(a + 1, k):
                val = ref_pb_from_grads(cset.space, self.grads[a], self.grads[b])
                self.matrix[a][b] = val
                self.matrix[b][a] = -val
        roles = [c.role for c in cset.constraints]
        self.gauge_ix = [a for a, r in enumerate(roles) if r is ConstraintRole.GAUGE]
        self.shell_ix = [a for a, r in enumerate(roles) if r is ConstraintRole.MASS_SHELL]

    def bracket(self, f, g):
        space = self.cset.space
        df, dg = ref_grad(f, self.z, self.tau), ref_grad(g, self.z, self.tau)
        plain = ref_pb_from_grads(space, df, dg)
        fv = [ref_pb_from_grads(space, df, gr) for gr in self.grads]
        vg = [ref_pb_from_grads(space, gr, dg) for gr in self.grads]
        y = ref_solve_generic(self.matrix, vg)
        return plain - _dot(fv, y)

    def flow_rhs(self):
        space = self.cset.space
        A = np.array(
            [[float(self.matrix[a][b]) for b in self.shell_ix] for a in self.gauge_ix],
            dtype=float,
        ).reshape(len(self.gauge_ix), len(self.shell_ix))
        gauges = [self.cset.constraints[a] for a in self.gauge_ix]
        tau_rates = _jvp(lambda ts: [g(self.z, ts[0]) for g in gauges], [self.tau], [1.0])
        v = np.linalg.solve(A, np.asarray([-rate for rate in tau_rates]))
        diag = ETA
        out = np.zeros(space.dim)
        for i, s in enumerate(self.shell_ix):
            grad = self.grads[s]
            for alpha in range(space.particles):
                for mu in range(4):
                    xi_idx, pi_idx = space.ix(alpha, mu), space.ip(alpha, mu)
                    out[xi_idx] += v[i] * diag[mu] * float(grad[pi_idx])
                    out[pi_idx] -= v[i] * diag[mu] * float(grad[xi_idx])
        return out, v


def ref_project_to_surface(cset, z, tau, tol=1e-12, max_iter=6):
    out = np.array(z, dtype=float)
    for step in range(max_iter + 1):
        vals = cset.values(out, tau)
        if float(np.max(np.abs(vals))) <= tol:
            return out
        if step == max_iter:
            raise ConstraintDrift(tau, float(np.max(np.abs(vals))))
        J = np.asarray(RefFrame(cset, out, tau).grads)
        out = out - J.T @ np.linalg.solve(J @ J.T, vals)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def dual_bits(d):
    """Real part and every tangent slot of a (possibly nested) dual."""
    if not is_dual(d):
        return bits(d)
    return (dual_bits(d.a), dual_bits(d.b))


def model():
    return two_particle_model(1.0, 2.0, linear_potential(0.1))


# -- the frame ------------------------------------------------------------------


def test_frame_matrix_and_brackets_bit_identical_at_sampled_points():
    cset, space = model()
    rng = np.random.default_rng(31)
    xs = [coordinate_fn(space, "x", alpha, mu) for alpha in (0, 1) for mu in range(4)]
    gens = poincare_generators(space)
    matrices = set()
    for _ in range(5):
        z = sample_on_shell(cset, rng, (1.0, 2.0))
        frame, ref = DiracFrame(cset, z), RefFrame(cset, z)
        assert bits(frame.grads) == bits(ref.grads)
        assert bits(frame.matrix) == bits(ref.matrix)
        matrices.add(bits(frame.matrix))
        for c in cset.constraints:
            for f in xs:  # 32 brackets {x^mu_a, phi}*
                got = frame.bracket(f, c.fn)
                assert type(got) is float
                assert bits(got) == bits(ref.bracket(f, c.fn))
        for i, j in ((0, 1), (0, 6), (3, 8), (2, 5)):
            got = frame.bracket(gens[i].fn, gens[j].fn)
            assert bits(got) == bits(ref.bracket(gens[i].fn, gens[j].fn))
    assert len(matrices) == 5  # every point has its own elimination


def test_frame_gradients_are_float_lists_and_constraint_rows_are_cached():
    cset, space = model()
    z = sample_on_shell(cset, np.random.default_rng(32), (1.0, 2.0))
    frame = DiracFrame(cset, z)
    assert all(type(row) is list and all(type(v) is float for v in row) for row in frame.grads)
    for c, row in zip(cset.constraints, frame.grads):
        assert frame.grad(c.fn) is row
    fresh = DiracFrame(cset, z)
    assert fresh.matrix == frame.matrix and fresh.grads == frame.grads
    assert type(fresh.canonical(cset.constraints[0], cset.constraints[2])) is float


def test_flow_rhs_bit_identical():
    cset, _ = model()
    rng = np.random.default_rng(33)
    for tau in (0.0, 0.4, -1.3, 0.7, 2.0):
        z = sample_on_shell(cset, rng, (1.0, 2.0), tau=tau)
        out, v = DiracFrame(cset, z, tau).flow_rhs()
        ref_out, ref_v = RefFrame(cset, z, tau).flow_rhs()
        assert out.dtype == ref_out.dtype and bits(out) == bits(ref_out)
        assert bits(v) == bits(ref_v)


@pytest.mark.parametrize("drift_limit", [1e-9, 1e-15])
def test_constrained_flow_bit_identical(monkeypatch, drift_limit):
    # a drift limit of 1e-15 projects after every step
    cset, _ = model()
    z0 = sample_on_shell(cset, np.random.default_rng(34), (1.0, 2.0))
    project, calls = dirac._project_to_surface, []
    monkeypatch.setattr(dirac, "_project_to_surface", lambda *a: calls.append(a) or project(*a))
    got = constrained_flow(cset, z0, (0.0, 2.0), drift_limit=drift_limit)
    assert (len(calls) > 0) == (drift_limit == 1e-15)
    monkeypatch.setattr(dirac, "hamiltonian_flow_rhs", lambda c, z, t: RefFrame(c, z, t).flow_rhs())
    monkeypatch.setattr(dirac, "_project_to_surface", ref_project_to_surface)
    want = constrained_flow(cset, z0, (0.0, 2.0), drift_limit=drift_limit)
    for name in ("times", "states", "h", "coeffs"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    assert got.coord_names == want.coord_names


def test_nested_dual_jacobi_bracket_bit_identical():
    cset, space = model()
    rng = np.random.default_rng(35)
    z = sample_on_shell(cset, rng, (1.0, 2.0))
    f = coordinate_fn(space, "x", 0, 1)
    g = coordinate_fn(space, "x", 0, 2)
    h = coordinate_fn(space, "p", 0, 1)
    # the inner frame sits at the dual point the outer gradient seeds
    got = DiracFrame(cset, z).bracket(f, lambda zz, tau: DiracFrame(cset, zz, tau).bracket(g, h))
    want = RefFrame(cset, z).bracket(f, lambda zz, tau: RefFrame(cset, zz, tau).bracket(g, h))
    assert bits(got) == bits(want)
    zd = [Dual(float(v), float(t)) for v, t in zip(z, rng.uniform(-1, 1, 16))]
    frame, ref = DiracFrame(cset, zd), RefFrame(cset, zd)
    for a, b in ((f, g), (g, h), (h, cset.constraints[2].fn)):
        assert dual_bits(frame.bracket(a, b)) == dual_bits(ref.bracket(a, b))


# -- the joint constraint map ----------------------------------------------------


# the two time covectors of the two-particle model
GAUGE_MODELS = {"dynamical": dirac.dynamical_gauge, "laboratory": dirac.laboratory_gauge}


def model_point(name, seed):
    cset, _ = two_particle_model(1.0, 2.0, linear_potential(0.1), GAUGE_MODELS[name])
    return cset, sample_on_shell(cset, np.random.default_rng(seed), (1.0, 2.0))


def ref_constraint_fns(gauge, masses=(1.0, 2.0), V=linear_potential(0.1)):
    """The model's constraints one by one as the paper writes them, with
    r = (x1 - x2)/2, P = p1 + p2, X = (x1 + x2)/2 and n = gauge(P):
    chi1 = n.r, chi2 = n.X - tau and K_a = p_a^2 - m_a^2 + V(xi) with
    xi = r^2 - (P.r)^2 / P^2."""
    space = PhaseSpace(2)

    def relative(z):
        r = [(a - b) / 2.0 for a, b in zip(space.x(z, 0), space.x(z, 1))]
        P = [a + b for a, b in zip(space.p(z, 0), space.p(z, 1))]
        return r, P

    def chi1(z, tau):
        r, P = relative(z)
        return _dot(gauge(P), r)

    def chi2(z, tau):
        _, P = relative(z)
        X = [(a + b) / 2.0 for a, b in zip(space.x(z, 0), space.x(z, 1))]
        return _dot(gauge(P), X) - tau

    def shell(alpha):
        def K(z, tau):
            r, P = relative(z)
            Pr = minkowski_dot(P, r)
            xi = minkowski_dot(r, r) - Pr * Pr / minkowski_dot(P, P)
            p = space.p(z, alpha)
            return minkowski_dot(p, p) - masses[alpha] * masses[alpha] + V(xi)

        return K

    return [chi1, chi2, shell(0), shell(1)]


@pytest.mark.parametrize("name", GAUGE_MODELS)
def test_phi_bit_identical_to_constraint_fns(name):
    # every constraint is a view of phi; phi must equal the constraints as
    # written one by one, bit for bit, at float and dual points
    cset, z = model_point(name, 41)
    refs = ref_constraint_fns(GAUGE_MODELS[name])
    rng = np.random.default_rng(41)
    off = (z + rng.uniform(-0.1, 0.1, 16)).tolist()
    scalar = [Dual(v, float(t)) for v, t in zip(z, rng.uniform(-1, 1, 16))]
    vector = [Dual(v, row) for v, row in zip(off, np.eye(16))]
    nested = [Dual(d, Dual(float(t), 0.0)) for d, t in zip(scalar, rng.uniform(-1, 1, 16))]
    for point in (z.tolist(), off, scalar, vector, nested):
        for tau in (0.0, 0.3):
            got = cset.phi(point, tau)
            want = [ref(point, tau) for ref in refs]
            assert [dual_bits(v) for v in got] == [dual_bits(v) for v in want]
            views = [c.fn(point, tau) for c in cset.constraints]
            assert [dual_bits(v) for v in views] == [dual_bits(v) for v in want]
    assert bits(cset.values(off, 0.3)) == bits([float(ref(off, 0.3)) for ref in refs])


@pytest.mark.parametrize("name", GAUGE_MODELS)
def test_constraint_rows_evaluate_xi_once_per_seeding(monkeypatch, name):
    cset, z = model_point(name, 42)
    separation, calls = dirac._separation, []
    monkeypatch.setattr(dirac, "_separation", lambda r, P: calls.append(1) or separation(r, P))
    rows = dirac._constraint_rows(cset, z, 0.0)
    assert len(calls) == 1  # one vector-mode seeding at a float point
    want = [ref_grad(c.fn, list(z), 0.0) for c in cset.constraints]
    assert bits(rows) == bits(want)
    del calls[:]
    zd = [Dual(float(v), 0.5) for v in z]
    rows = dirac._constraint_rows(cset, zd, 0.0)
    assert len(calls) == 1  # one vector seeding at a dual point too
    # the reference seeds one scalar direction per evaluation
    want = [
        [tangent_part(c.fn(calc._seed(zd, i), 0.0)) for i in range(len(zd))]
        for c in cset.constraints
    ]
    assert [[dual_bits(v) for v in row] for row in rows] == [
        [dual_bits(v) for v in row] for row in want
    ]


# -- elimination plans ----------------------------------------------------------


def _systems(rng):
    for n in (1, 2, 4, 5):
        A = rng.normal(size=(n, n))
        A[0, 0] = 1e-3  # partial pivoting must swap rows
        yield A.tolist(), rng.normal(size=n).tolist()
    A = rng.normal(size=(4, 4))
    A = (A - A.T).tolist()  # zero diagonal, as every constraint matrix has
    yield A, rng.normal(size=4).tolist()


def test_solve_generic_is_eliminate_then_apply_on_floats():
    rng = np.random.default_rng(36)
    for A, b in _systems(rng):
        want = ref_solve_generic(A, b)
        assert bits(_solve_generic(A, b)) == bits(want)
        plan = _eliminate(A)
        assert bits(_apply_plan(plan, b)) == bits(want)
        # one plan serves every right-hand side
        b2 = rng.normal(size=len(b)).tolist()
        assert bits(_apply_plan(plan, b2)) == bits(ref_solve_generic(A, b2))


def test_solve_generic_is_eliminate_then_apply_on_duals():
    rng = np.random.default_rng(37)
    for A, b in _systems(rng):
        n = len(b)
        dA = [[Dual(v, float(t)) for v, t in zip(row, rng.normal(size=n))] for row in A]
        db = [Dual(v, float(t)) for v, t in zip(b, rng.normal(size=n))]
        want = [dual_bits(v) for v in ref_solve_generic(dA, db)]
        assert [dual_bits(v) for v in _solve_generic(dA, db)] == want
        assert [dual_bits(v) for v in _apply_plan(_eliminate(dA), db)] == want


def test_singular_system_raises_in_elimination():
    A, b = [[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]
    for solve in (ref_solve_generic, _solve_generic, lambda A, b: _eliminate(A)):
        with pytest.raises(DegenerateLagrangian):
            solve(A, b)


def test_singular_frame_raises_on_every_bracket():
    # two commuting constraints: the matrix is exactly zero; at a dual point
    # the condition check is skipped, so the elimination itself must raise
    space = PhaseSpace(1)
    cset = ConstraintSet(
        space,
        lambda z, tau: [z[0], z[1]],
        (("a", ConstraintRole.GAUGE), ("b", ConstraintRole.MASS_SHELL)),
    )
    zd = [Dual(0.1 * k, 1.0) for k in range(8)]
    frame = DiracFrame(cset, zd)
    f = coordinate_fn(space, "p", 0, 2)
    for _ in range(2):
        with pytest.raises(DegenerateLagrangian):
            frame.bracket(f, f)


# -- guards fail closed on NaN --------------------------------------------------


def test_require_on_surface_rejects_nan_coordinate():
    cset, _ = model()
    z = sample_on_shell(cset, np.random.default_rng(38), (1.0, 2.0))
    z[1] = math.nan
    with pytest.raises(OffSurface):
        cset.require_on_surface(z, 0.0)


def test_constrained_flow_rejects_nan_drift():
    # a shell whose value turns NaN after tau = 0.1 while its gradient and
    # the flow stay finite: the drift check must stop the run
    cset, _ = model()

    def poisoned(z, tau):
        chi1, chi2, k1, k2 = cset.phi(z, tau)
        return [chi1, chi2, k1 + (math.nan if tau > 0.1 else 0.0), k2]

    bad = ConstraintSet(cset.space, poisoned, cset.spec)
    z0 = sample_on_shell(cset, np.random.default_rng(39), (1.0, 2.0))
    with pytest.raises(ConstraintDrift) as err:
        constrained_flow(bad, z0, (0.0, 1.0))
    assert math.isnan(err.value.drift)


def test_wlc_residual_rejects_nan_omega():
    cset, _ = model()
    z = sample_on_shell(cset, np.random.default_rng(40), (1.0, 2.0))
    omega = np.zeros((4, 4))
    omega[0, 1] = math.nan
    omega[1, 0] = -math.nan
    with pytest.raises(ValueError, match="antisymmetric"):
        wlc_residual(DiracFrame(cset, z), omega, np.zeros(4))


def test_unitary_state_rejects_nan_matrix():
    # the coset diagram's membership check of U^dagger U = 1
    with pytest.raises(OffSurface) as err:
        unitarity_surface(2).require_on_surface(np.full(8, np.nan))
    assert math.isnan(err.value.residual)

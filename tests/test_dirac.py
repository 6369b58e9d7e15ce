import dataclasses
import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from geored import dirac
from geored.dirac import (
    ConstraintRole,
    ConstraintSet,
    DeformedPoincare,
    DiracFrame,
    PhaseSpace,
    _newton_energies,
    _project_to_surface,
    constrained_flow,
    coordinate_fn,
    dirac_bracket,
    hamiltonian_flow_rhs,
    jacobi_residual,
    laboratory_gauge,
    linear_potential,
    poincare_generators,
    position_noncommutativity,
    published_constraint_matrix,
    sample_on_shell,
    two_particle_model,
    wlc_residual,
)
from geored.dualnum import Dual
from geored.errors import (
    ConstraintDrift,
    EvaluationError,
    GeoredError,
    OffSurface,
    SingularConstraintMatrix,
)
from geored.lagsym import ETA, minkowski_dot


def model():
    return two_particle_model(1.0, 2.0, linear_potential(0.1))


def single_particle_set():
    space = PhaseSpace(1)

    def K(z, tau):
        p = space.p(z, 0)
        return minkowski_dot(p, p) - 1.0

    def chi(z, tau):
        return z[space.ix(0, 0)] - tau

    cset = ConstraintSet(
        space,
        lambda z, tau: [chi(z, tau), K(z, tau)],
        (("chi", ConstraintRole.GAUGE), ("K", ConstraintRole.MASS_SHELL)),
    )
    return cset, space


def on_shell_single(space, rng, tau=0.0):
    z = np.zeros(8)
    z[1:4] = rng.uniform(-1, 1, 3)
    z[0] = tau
    z[5:8] = rng.uniform(-0.5, 0.5, 3)
    z[4] = math.sqrt(1.0 + float(np.sum(z[5:8] ** 2)))
    return z


def plain_pb(space, f, g, z):
    """The canonical bracket {f, g} at tau = 0 from the two gradients, for
    checks that build no constraint set."""
    z = list(z)
    return dirac._pb_from_grads(space, dirac._grad_z(f, z, 0.0), dirac._grad_z(g, z, 0.0))


def test_canonical_bracket_signature_convention():
    space = PhaseSpace(1)
    z = np.random.default_rng(0).uniform(-1, 1, 8)
    x0 = coordinate_fn(space, "x", 0, 0)
    p0 = coordinate_fn(space, "p", 0, 0)
    x1 = coordinate_fn(space, "x", 0, 1)
    p1 = coordinate_fn(space, "p", 0, 1)
    assert float(plain_pb(space, x0, p0, z)) == pytest.approx(1.0, abs=1e-14)
    assert float(plain_pb(space, x1, p1, z)) == pytest.approx(-1.0, abs=1e-14)
    assert float(plain_pb(space, x0, x1, z)) == pytest.approx(0.0, abs=1e-15)


def test_lorentz_algebra_structure_constants():
    # {J_01, J_12} must close on J_02 with the published sign pattern
    space = PhaseSpace(1)
    gens = {g.label: g for g in poincare_generators(space)}
    z = np.random.default_rng(1).uniform(-1, 1, 8)
    lhs = float(plain_pb(space, gens["J01"].fn, gens["J12"].fn, z))
    assert lhs == pytest.approx(float(gens["J02"].fn(z, 0.0)), abs=1e-12)
    lhs2 = float(plain_pb(space, gens["J12"].fn, gens["J13"].fn, z))
    # {l_12, l_13} = eta_11 l_23 = -l_23
    assert lhs2 == pytest.approx(-float(gens["J23"].fn(z, 0.0)), abs=1e-12)


def test_single_particle_generator_form():
    space = PhaseSpace(1)
    gens = {g.label: g for g in poincare_generators(space)}
    z = np.random.default_rng(2).uniform(-1, 1, 8)
    x, p = space.x(z, 0), space.p(z, 0)
    eta = ETA
    for mu in range(4):
        for nu in range(mu + 1, 4):
            expected = eta[mu] * x[mu] * eta[nu] * p[nu] - eta[nu] * x[nu] * eta[mu] * p[mu]
            assert float(gens[f"J{mu}{nu}"].fn(z, 0.0)) == pytest.approx(expected, abs=1e-14)
    for mu in range(4):
        assert float(gens[f"P{mu}"].fn(z, 0.0)) == pytest.approx(eta[mu] * p[mu], abs=1e-14)


def test_mass_shell_is_poincare_invariant():
    cset, space = single_particle_set()
    rng = np.random.default_rng(3)
    z = on_shell_single(space, rng)
    K = cset.shells[0]
    frame = DiracFrame(cset, z)
    for gen in poincare_generators(space):
        assert abs(float(frame.canonical(K.fn, gen.fn))) < 1e-12


def test_invariant_separation_is_poincare_scalar():
    cset, space = model()
    # with no masses and V(xi) = xi, the first shell minus p1^2 is xi itself
    K1 = two_particle_model(0.0, 0.0, lambda xi: xi)[0].shells[0]

    def xi(z, tau):
        p = space.p(z, 0)
        return K1(z, tau) - minkowski_dot(p, p)

    rng = np.random.default_rng(4)
    z = sample_on_shell(cset, rng, (1.0, 2.0))
    frame = DiracFrame(cset, z)
    for gen in poincare_generators(space):
        assert abs(float(frame.canonical(xi, gen.fn))) < 1e-9


def test_sample_on_shell_lands_exactly():
    cset, _ = model()
    rng = np.random.default_rng(5)
    for tau in (0.0, 0.7):
        z = sample_on_shell(cset, rng, (1.0, 2.0), tau=tau)
        assert np.max(np.abs(cset.values(z, tau))) < 1e-9


def test_sample_on_shell_lands_exactly_in_the_laboratory_gauge():
    # the shift along P that fixes the gauges leaves xi and both shells
    # untouched, so the gauges land at roundoff and the shells stay put
    cset, space = two_particle_model(1.0, 2.0, linear_potential(0.1), laboratory_gauge)
    rng = np.random.default_rng(44)
    for tau in (0.0, 0.3, -1.2):
        z = sample_on_shell(cset, rng, (1.0, 2.0), tau=tau)
        vals = cset.values(z, tau)
        assert np.max(np.abs(vals[:2])) <= 1e-12
        assert np.max(np.abs(vals[2:])) <= dirac.SURFACE_TOL
        assert vals[0] == pytest.approx((z[space.ix(0, 0)] - z[space.ix(1, 0)]) / 2.0, abs=1e-15)
        assert (z[space.ix(0, 0)] + z[space.ix(1, 0)]) / 2.0 == pytest.approx(tau, abs=1e-12)


def test_constraint_matrix_single_particle():
    cset, space = single_particle_set()
    rng = np.random.default_rng(6)
    z = on_shell_single(space, rng)
    A = DiracFrame(cset, z, 0.0).gauge_shell_block()
    # {x^0 - tau, p^2} = 2 p^0; with chi = P.x - tau it is 2 p^2 = 2 m^2
    assert A.shape == (1, 1)
    assert A[0, 0] == pytest.approx(2.0 * z[4], abs=1e-12)

    def chi_px(zz, tau):
        p = space.p(zz, 0)
        x = space.x(zz, 0)
        return minkowski_dot(p, x) - tau

    cset2 = ConstraintSet(
        space,
        lambda zz, tau: [chi_px(zz, tau), cset.shells[0](zz, tau)],
        (("chi", ConstraintRole.GAUGE), ("K", ConstraintRole.MASS_SHELL)),
    )
    z2 = np.array(z)
    # move x so that p.x = 0 (on chi surface at tau=0): shift along p
    p = z2[4:8]
    eta = np.array([1.0, -1.0, -1.0, -1.0])
    z2[:4] -= (p * eta) @ z2[:4] / ((p * eta) @ p) * p
    A2 = DiracFrame(cset2, z2, 0.0).gauge_shell_block()
    assert A2[0, 0] == pytest.approx(2.0, abs=1e-10)  # 2 m^2 with m = 1


def test_constraint_matrix_two_particle_first_principles():
    # the gauge-shell block is [[P.p1, -P.p2], [P.p1, P.p2]] exactly; the
    # interaction drops out identically for these gauges
    for lam in (0.0, 0.1, 0.35):
        cset, space = two_particle_model(1.0, 2.0, linear_potential(lam))
        rng = np.random.default_rng(7)
        z = sample_on_shell(cset, rng, (1.0, 2.0))
        p1 = np.asarray(space.p(z, 0))
        p2 = np.asarray(space.p(z, 1))
        eta = np.array([1.0, -1.0, -1.0, -1.0])
        P = p1 + p2
        Pp1 = float(P @ (eta * p1))
        Pp2 = float(P @ (eta * p2))
        frame = DiracFrame(cset, z)
        A = frame.gauge_shell_block()
        assert np.allclose(A, [[Pp1, -Pp2], [Pp1, Pp2]], atol=1e-9)
        report = published_constraint_matrix(frame)
        assert report["measured"] == A.tolist()
        assert report["measured_det"] == pytest.approx(2.0 * Pp1 * Pp2, rel=1e-9)
        assert report["derived_det"] == pytest.approx(2.0 * Pp1 * Pp2, rel=1e-14)
        if lam == 0.0:
            # with V' = 0 the printed closed form vanishes on the surface,
            # yet the full constraint matrix is well conditioned there: the
            # printed form cannot be the determinant of this second-class set
            M = frame.matrix
            assert np.linalg.cond(np.asarray(M, dtype=float)) < 1e2
            assert abs(report["published_det"]) < 1e-12 * abs(report["measured_det"])


def test_published_block_is_of_the_dynamical_gauge():
    # in the laboratory gauge the block keeps V' terms, and its determinant
    # (4.83 at this point) is not the derived 2 (P.p1)(P.p2) = 46.97
    cset, _ = two_particle_model(1.0, 2.0, linear_potential(0.2), gauge=laboratory_gauge)
    z = sample_on_shell(cset, np.random.default_rng(3), (1.0, 2.0))
    with pytest.raises(ValueError, match="dynamical gauge"):
        published_constraint_matrix(DiracFrame(cset, z))


def test_dirac_bracket_kills_constraints():
    cset, space = model()
    rng = np.random.default_rng(8)
    for k in range(3):
        z = sample_on_shell(cset, rng, (1.0, 2.0))
        for c in cset.constraints:
            for alpha in (0, 1):
                for mu in range(4):
                    f = coordinate_fn(space, "x", alpha, mu)
                    val = float(dirac_bracket(cset, f, c.fn, z))
                    assert abs(val) < 1e-9
                    g = coordinate_fn(space, "p", alpha, mu)
                    assert abs(float(dirac_bracket(cset, g, c.fn, z))) < 1e-9


def test_dirac_bracket_antisymmetry():
    cset, space = model()
    rng = np.random.default_rng(9)
    z = sample_on_shell(cset, rng, (1.0, 2.0))
    f = coordinate_fn(space, "x", 0, 1)
    g = coordinate_fn(space, "p", 1, 2)
    assert float(dirac_bracket(cset, f, g, z)) == pytest.approx(
        -float(dirac_bracket(cset, g, f, z)), abs=1e-12
    )


def test_dirac_bracket_single_particle_spatial_pair_unchanged():
    cset, space = single_particle_set()
    rng = np.random.default_rng(10)
    z = on_shell_single(space, rng)
    x1 = coordinate_fn(space, "x", 0, 1)
    p1 = coordinate_fn(space, "p", 0, 1)
    assert float(dirac_bracket(cset, x1, p1, z)) == pytest.approx(-1.0, abs=1e-12)


def test_shells_are_first_class_mutually():
    cset, space = two_particle_model(1.0, 2.0, linear_potential(0.0))
    rng = np.random.default_rng(11)
    z = rng.uniform(-1, 1, 16)
    K1, K2 = cset.shells
    # V = 0: functions of momenta only, brackets vanish identically
    assert abs(float(DiracFrame(cset, z).canonical(K1.fn, K2.fn))) < 1e-14
    cset2, _ = model()
    K1, K2 = cset2.shells
    for _ in range(5):
        z = sample_on_shell(cset2, rng, (1.0, 2.0))
        assert abs(float(DiracFrame(cset2, z).canonical(K1.fn, K2.fn))) < 1e-9


def test_constrained_flow_single_particle_slope():
    cset, space = single_particle_set()
    rng = np.random.default_rng(12)
    z0 = on_shell_single(space, rng, tau=0.0)
    traj = constrained_flow(cset, z0, (0.0, 2.0))
    p = z0[4:8]
    for i in (1, 2, 3):
        expected = z0[i] + 2.0 * p[i] / p[0]
        assert traj.states[-1][i] == pytest.approx(expected, abs=1e-9)
    assert traj.states[-1][0] == pytest.approx(2.0, abs=1e-10)


def test_constrained_flow_two_particle_free_is_affine():
    cset, space = two_particle_model(1.0, 2.0, linear_potential(0.0))
    rng = np.random.default_rng(13)
    z0 = sample_on_shell(cset, rng, (1.0, 2.0))
    traj = constrained_flow(cset, z0, (0.0, 3.0))
    # momenta constant
    for alpha in (0, 1):
        for mu in range(4):
            col = traj.states[:, space.ip(alpha, mu)]
            assert np.max(np.abs(col - col[0])) < 1e-10
    # positions affine in tau: check midpoint interpolation
    mid, end = traj.resample([1.5, 3.0])
    assert np.allclose(mid[:4], 0.5 * (traj.states[0][:4] + end[:4]), atol=1e-8)


def test_constrained_flow_preserves_constraints_and_momentum():
    cset, space = model()
    rng = np.random.default_rng(14)
    z0 = sample_on_shell(cset, rng, (1.0, 2.0))
    traj = constrained_flow(cset, z0, (0.0, 5.0))
    worst = max(
        float(np.max(np.abs(cset.values(s, t))))
        for t, s in zip(traj.times, traj.states)
    )
    assert worst < 1e-7
    # total momentum conserved within 1e-9
    for mu in range(4):
        total = traj.states[:, space.ip(0, mu)] + traj.states[:, space.ip(1, mu)]
        assert np.max(np.abs(total - total[0])) < 1e-9
    # interacting model: individual momenta are not constant
    moved = np.max(np.abs(traj.states[:, space.ip(0, 1)] - traj.states[0, space.ip(0, 1)]))
    assert moved > 1e-6


def test_gauge_preservation_along_flow_rhs():
    cset, _ = model()
    rng = np.random.default_rng(15)
    z = sample_on_shell(cset, rng, (1.0, 2.0), tau=0.4)
    rhs, v = hamiltonian_flow_rhs(cset, z, 0.4)
    # directional derivative of each gauge along the flow cancels its
    # explicit tau rate
    h = 1e-6
    for a in cset.gauge_ix:
        g = cset.constraints[a]
        forward = float(g(list(np.asarray(z) + h * rhs), 0.4 + h))
        backward = float(g(list(np.asarray(z) - h * rhs), 0.4 - h))
        assert abs(forward - backward) / (2 * h) < 1e-6


def test_position_noncommutativity_tables():
    cset, space = model()
    rng = np.random.default_rng(16)
    z = sample_on_shell(cset, rng, (1.0, 2.0))
    report = position_noncommutativity(DiracFrame(cset, z))
    assert report["canonical_max_abs"] < 1e-14
    assert report["dirac_max_abs"] > 1e-6
    for T in report["dirac_tables"] + report["canonical_tables"]:
        assert np.max(np.abs(T + T.T)) < 1e-12


def _nan_on_call(monkeypatch, owner, name, nth):
    original, count = getattr(owner, name), itertools.count(1)

    def wrapped(*args, **kwargs):
        out = original(*args, **kwargs)
        return math.nan if next(count) == nth else out

    monkeypatch.setattr(owner, name, wrapped)


def test_noncommutativity_keeps_a_nan_after_a_finite_bracket(monkeypatch):
    cset, _ = model()
    z = sample_on_shell(cset, np.random.default_rng(16), (1.0, 2.0))
    frame = DiracFrame(cset, z)
    _nan_on_call(monkeypatch, DiracFrame, "canonical", 2)
    assert math.isnan(position_noncommutativity(frame)["canonical_max_abs"])


def test_wlc_residual_keeps_a_nan_of_the_second_particle(monkeypatch):
    cset, _ = model()
    z = sample_on_shell(cset, np.random.default_rng(17), (1.0, 2.0))
    # four brackets per particle: the fifth is the second particle's first
    _nan_on_call(monkeypatch, DiracFrame, "bracket", 5)
    report = wlc_residual(DiracFrame(cset, z), np.zeros((4, 4)), 1e-4 * np.ones(4))
    assert math.isfinite(report["per_particle"][0]["residual"])
    assert math.isnan(report["residual"])


def test_off_surface_rejected():
    cset, _ = model()
    frame = DiracFrame(cset, np.ones(16))
    with pytest.raises(OffSurface):
        published_constraint_matrix(frame)
    with pytest.raises(OffSurface):
        wlc_residual(frame, np.zeros((4, 4)), np.zeros(4))


def test_wlc_translations_exact():
    cset, _ = model()
    rng = np.random.default_rng(17)
    z = sample_on_shell(cset, rng, (1.0, 2.0))
    a = 1e-4 * rng.uniform(-1, 1, 4)
    report = wlc_residual(DiracFrame(cset, z), np.zeros((4, 4)), a)
    assert report["residual"] < 1e-10


def test_wlc_dynamical_gauge_boosts():
    cset, _ = model()
    rng = np.random.default_rng(18)
    frame = DiracFrame(cset, sample_on_shell(cset, rng, (1.0, 2.0)))
    for _ in range(5):
        omega = np.zeros((4, 4))
        omega[0, 1] = rng.uniform(-1, 1) * 1e-4
        omega[1, 0] = -omega[0, 1]
        omega[0, 2] = rng.uniform(-1, 1) * 1e-4
        omega[2, 0] = -omega[0, 2]
        scale = np.max(np.abs(omega))
        report = wlc_residual(frame, omega, np.zeros(4))
        assert report["residual"] < 1e-6 * scale


def test_wlc_kinematical_gauge_fails_materially():
    # with the state-independent gauge the same boost leaves a residual two
    # orders above the tolerance the dynamical gauge meets, scaling linearly
    # with the transformation: the no-go behaviour reappears; the magnitude
    # itself is an empirical output, not asserted
    cset, _ = two_particle_model(1.0, 2.0, linear_potential(0.1), laboratory_gauge)
    rng = np.random.default_rng(19)
    frame = DiracFrame(cset, sample_on_shell(cset, rng, (1.0, 2.0)))
    omega = np.zeros((4, 4))
    omega[0, 1], omega[1, 0] = 1e-4, -1e-4
    report = wlc_residual(frame, omega, np.zeros(4))
    assert report["residual"] > 100.0 * (1e-6 * 1e-4)
    double = wlc_residual(frame, 2.0 * omega, np.zeros(4))
    assert double["residual"] == pytest.approx(2.0 * report["residual"], rel=0.2)


def test_dirac_jacobi_identity():
    cset, space = model()
    rng = np.random.default_rng(20)
    z = sample_on_shell(cset, rng, (1.0, 2.0))
    bracket = lambda f, g, zz: dirac_bracket(cset, f, g, zz)
    from geored.calc import ScalarField

    triples = [
        ("x", 0, 1, "x", 0, 2, "p", 0, 1),
        ("x", 0, 0, "p", 1, 2, "x", 1, 3),
    ]
    for f_kind, fa, fm, g_kind, ga, gm, h_kind, ha, hm in triples:
        f = coordinate_fn(space, f_kind, fa, fm)
        g = coordinate_fn(space, g_kind, ga, gm)
        h = coordinate_fn(space, h_kind, ha, hm)

        def pairfn(a, b):
            return lambda zz, tau: dirac_bracket(cset, a, b, zz, tau)

        total = (
            dirac_bracket(cset, f, pairfn(g, h), z)
            + dirac_bracket(cset, g, pairfn(h, f), z)
            + dirac_bracket(cset, h, pairfn(f, g), z)
        )
        assert abs(float(total)) < 1e-6


def test_poincare_brackets_match_between_pb_and_db():
    cset, space = model()
    rng = np.random.default_rng(21)
    z = sample_on_shell(cset, rng, (1.0, 2.0))
    gens = poincare_generators(space)
    pairs = [(0, 1), (0, 6), (3, 8), (2, 5), (6, 9)]
    frame = DiracFrame(cset, z)
    for i, j in pairs:
        pb = float(frame.canonical(gens[i].fn, gens[j].fn))
        db = float(dirac_bracket(cset, gens[i].fn, gens[j].fn, z))
        assert db == pytest.approx(pb, abs=1e-8)


def test_singular_constraint_matrix_detected():
    space = PhaseSpace(1)

    def K(z, tau):
        p = space.p(z, 0)
        return minkowski_dot(p, p) - 1.0

    # a gauge that commutes with K: {chi, K} = 0 identically
    def chi(z, tau):
        p = space.p(z, 0)
        return minkowski_dot(p, p) - tau

    cset = ConstraintSet(
        space,
        lambda z, tau: [chi(z, tau), K(z, tau)],
        (("chi", ConstraintRole.GAUGE), ("K", ConstraintRole.MASS_SHELL)),
    )
    rng = np.random.default_rng(22)
    z = on_shell_single(space, rng, tau=0.0)
    f = coordinate_fn(space, "x", 0, 1)
    g = coordinate_fn(space, "p", 0, 1)
    with pytest.raises(SingularConstraintMatrix):
        dirac_bracket(cset, f, g, z, tau=1.0)


def test_published_det_takes_the_potential_derivative_from_the_dual_kernel():
    # on the surface the printed determinant reduces to -2 V'(xi)(m1^2 - m2^2)/P^4;
    # with V = 0.2 xi^2 the derivative V' = 0.4 xi varies from point to point
    cset, space = two_particle_model(1.0, 2.0, lambda xi: 0.2 * xi * xi)
    for seed in range(5):
        z = sample_on_shell(cset, np.random.default_rng(seed), (1.0, 2.0))
        P = np.asarray(space.p(z, 0)) + np.asarray(space.p(z, 1))
        PP = minkowski_dot(P, P)
        r = (np.asarray(space.x(z, 0)) - np.asarray(space.x(z, 1))) / 2.0
        xi = minkowski_dot(r, r) - minkowski_dot(P, r) ** 2 / PP
        want = -2.0 * 0.4 * xi * (1.0 - 4.0) / PP**2
        got = published_constraint_matrix(DiracFrame(cset, z))["published_det"]
        assert got == pytest.approx(want, rel=1e-12)


def test_deformed_poincare_jacobi_and_scaling():
    for K in (0.1, 1.0, 100.0):
        assert jacobi_residual(DeformedPoincare(K).C) < 1e-12
    a, b = DeformedPoincare(1.0), DeformedPoincare(10.0)
    # {x, x} entries scale exactly as 1/K
    assert np.allclose(a.position_block(), 10.0 * b.position_block())


def test_deformed_poincare_specific_entries():
    alg = DeformedPoincare(2.0)
    # {x_0, x_1} = l_01 / K
    vec = alg.C[0, 1]
    assert vec[4] == pytest.approx(0.5)
    # {l_01, x_0} = eta_00 x_1 = x_1
    out = alg.C[4, 0]
    assert out[1] == pytest.approx(1.0)
    assert np.sum(np.abs(out)) == pytest.approx(1.0)
    # {l_01, l_12} = -eta_11 l_02 = l_02
    out = alg.C[4, 7]
    assert out[5] == 1.0 and np.sum(np.abs(out)) == 1.0
    with pytest.raises(ValueError):
        DeformedPoincare(0.0)


@pytest.mark.parametrize("K", [0.1, 1.0, 100.0])
def test_perturbed_structure_constant_breaks_jacobi(K):
    # negative control: the residual check can fail.  Scaling one bracket
    # coefficient (and its antisymmetric partner) by 1.001 must push the
    # residual over the scenario's gate.
    from geored.cli import REGISTRY

    gate = REGISTRY["deformed-poincare-jacobi"].tolerances["jacobi_max"]
    C = DeformedPoincare(K).C.copy()
    assert jacobi_residual(C) <= gate
    assert C[0, 1, 4] != 0.0
    C[0, 1, 4] *= 1.001
    C[1, 0, 4] *= 1.001
    assert jacobi_residual(C) > gate


def test_structure_tensor_exact_and_read_only():
    alg = DeformedPoincare(2.0)
    C = alg.C
    assert C.shape == (10, 10, 10)
    assert not C.flags.writeable
    with pytest.raises(ValueError):
        C[0, 1, 4] = 1.0
    # the scale cannot change under a tensor built from it
    with pytest.raises(dataclasses.FrozenInstanceError):
        alg.K = 3.0
    assert np.array_equal(C, -C.transpose(1, 0, 2))


def test_frame_brackets_equal_fresh_dirac_brackets_exactly():
    # one frame serves every bracket at its point; the cached gradients must
    # not change a single bit against a fresh bracket per call
    cset, space = model()
    rng = np.random.default_rng(24)
    z = sample_on_shell(cset, rng, (1.0, 2.0))
    frame = DiracFrame(cset, z)
    coords = [coordinate_fn(space, kind, alpha, mu)
              for kind in ("x", "p") for alpha in (0, 1) for mu in range(4)]
    gens = [g.fn for g in poincare_generators(space)]
    for f in coords[:8] + gens[:3]:
        for g in [c.fn for c in cset.constraints] + coords[8:] + gens[3:]:
            assert frame.bracket(f, g) == dirac_bracket(cset, f, g, z)
    assert DiracFrame(cset, z).matrix == frame.matrix


def test_frame_brackets_equal_fresh_inside_dual_jacobi_nesting():
    cset, space = model()
    rng = np.random.default_rng(25)
    z = sample_on_shell(cset, rng, (1.0, 2.0))
    f = coordinate_fn(space, "x", 0, 1)
    g = coordinate_fn(space, "x", 0, 2)
    h = coordinate_fn(space, "p", 0, 1)

    def fresh(a, b):
        return lambda zz, tau: dirac_bracket(cset, a, b, zz, tau)

    def shared(a, b):
        return lambda zz, tau: DiracFrame(cset, zz, tau).bracket(a, b)

    outer = DiracFrame(cset, z)
    for pair in (fresh, shared):
        assert outer.bracket(f, pair(g, h)) == dirac_bracket(cset, f, fresh(g, h), z)
        assert outer.bracket(h, pair(f, g)) == dirac_bracket(cset, h, fresh(f, g), z)
    # a frame at a dual point: every bracket matches a fresh one in both slots
    zd = [Dual(float(v), float(t)) for v, t in zip(z, rng.uniform(-1, 1, 16))]
    frame = DiracFrame(cset, zd)
    for a, b in ((f, g), (g, h), (h, f), (f, cset.constraints[0].fn)):
        got, want = frame.bracket(a, b), dirac_bracket(cset, a, b, zd)
        assert (got.a, got.b) == (want.a, want.b)


def test_frame_at_keeps_constraints_and_tau():
    cset, _ = model()
    rng = np.random.default_rng(28)
    z, z2 = (sample_on_shell(cset, rng, (1.0, 2.0), tau=0.3) for _ in range(2))
    other = DiracFrame(cset, z, 0.3).at(z2)
    assert other.cset is cset and other.tau == 0.3 and other.z == list(z2)
    assert other.matrix == DiracFrame(cset, z2, 0.3).matrix


def test_jacobi_residual_on_one_frame_equals_fresh_brackets_exactly():
    # the outer brackets share one frame and the inner ones run on
    # ``frame.at``: the residual is that of a fresh bracket per call
    from geored import lagsym
    from geored.calc import ScalarField

    cset, space = model()
    z = sample_on_shell(cset, np.random.default_rng(29), (1.0, 2.0))
    coords = lagsym.coordinate_fields(space.dim)
    f, g, h = coords[space.ix(0, 1)], coords[space.ix(0, 2)], coords[space.ip(0, 1)]

    def pair(a, b):
        return ScalarField(space.dim, lambda zz: dirac_bracket(cset, a, b, zz))

    fresh = (
        dirac_bracket(cset, f, pair(g, h), z)
        + dirac_bracket(cset, g, pair(h, f), z)
        + dirac_bracket(cset, h, pair(f, g), z)
    )
    frame = DiracFrame(cset, z)
    got = lagsym.jacobi_residual(frame, f, g, h)
    assert got == abs(float(fresh)) and got < 1e-6
    # the pair fields cached in the frame do not hold it: no reference cycle
    alive = weakref.ref(frame)
    gc.disable()
    try:
        del frame
        assert alive() is None
    finally:
        gc.enable()


def test_infinite_tangent_raises_evaluation_error():
    cset, space = model()
    z = sample_on_shell(cset, np.random.default_rng(26), (1.0, 2.0))
    steep = lambda zz, tau: zz[1] * 1e200 * 1e200
    g = coordinate_fn(space, "p", 0, 1)
    with pytest.raises(EvaluationError) as err:
        dirac_bracket(cset, steep, g, z)
    assert err.value.index == 1
    with pytest.raises(EvaluationError):
        DiracFrame(cset, z).canonical(steep, g)


def test_newton_zero_energy_slope_raises():
    space = PhaseSpace(1)

    def K(z, tau):  # no dependence on the energy component p^0
        return z[space.ip(0, 1)] ** 2 - 4.0

    cset = ConstraintSet(space, lambda z, tau: [K(z, tau)], (("K", ConstraintRole.MASS_SHELL),))
    z = np.zeros(8)
    z[space.ip(0, 1)] = 1.0
    with pytest.raises(GeoredError, match="zero energy slope"):
        _newton_energies(cset, z, 0.0)


def test_projection_that_does_not_converge_raises():
    cset, space = model()
    z = sample_on_shell(cset, np.random.default_rng(27), (1.0, 2.0))
    off = np.array(z)
    off[space.ip(0, 1)] += 0.05
    off[space.ix(1, 2)] -= 0.05
    with pytest.raises(ConstraintDrift) as err:
        _project_to_surface(cset, off, 0.0, max_iter=1)
    assert err.value.drift > 1e-12
    back = _project_to_surface(cset, off, 0.0)
    assert np.max(np.abs(cset.values(back, 0.0))) <= 1e-12

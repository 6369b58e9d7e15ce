"""Acceptance suite: each test implements one exit criterion at its stated
tolerance and prints a PASS/FAIL line.

Criterion 5 includes one clause on the determinant of the gauge-shell block
{chi_i, K_j}.  It is checked against the closed form 2 (P.p1)(P.p2) derived
by hand from the gauges and shells, computed with numpy from the momenta.
The printed form (p1^2 - p2^2)((P.r)^2 - 2 V')/P^4 is not the reference: on
the surface it reduces to -2 V'(m1^2 - m2^2)/P^4, which vanishes for equal
masses or V' = 0 although the constraint matrix is well conditioned there,
and it is not the determinant of the printed matrix either.  It is still
printed next to the measured value.
"""

import math

import numpy as np
import pytest

from geored import catalog, cli, dirac, dualnum, frames, lagsym, qriccati
from geored.calc import CENTRAL, DUAL, ScalarField, gradient
from geored.flow import Dopri45Stepper, IntegratorConfig, integrate
from geored.reduce import verify_commuting_diagram

ACC_CFG = IntegratorConfig(abs_tol=1e-10, rel_tol=1e-10)


def _report(criterion: str, value, limit, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {value:.3e} (limit {limit:.0e})")


# -- criterion 1: the five reduction diagrams commute -------------------------


@pytest.mark.parametrize(
    "name", ["radial-l", "radial-E", "calogero-from-matrix", "so3-quotient", "riccati-classical"]
)
def test_criterion_1_reduction_diagrams(name):
    report = verify_commuting_diagram(catalog.ENTRY_BUILDERS[name](), ACC_CFG)
    ok = report.max_dev < 1e-6
    _report(f"criterion 1 ({name}) diagram deviation", report.max_dev, 1e-6, ok)
    assert ok


# -- criterion 2: eigenvalue flow matches the pair dynamics -------------------


def test_criterion_2_calogero_equivalence():
    x0 = np.array([0.4, 0.5, -0.6, -0.35, 0.25, 0.3])
    g = float(catalog.angular_constant(x0))
    traj = integrate(catalog.matrix_free_symmetric(), x0, 0.0, 6.0, ACC_CFG)
    q1, q2, _ = catalog.eigen_decompose_tracked(traj)
    quotient = catalog._eigen_quotient()
    y0 = quotient(x0)
    pair = integrate(catalog.calogero_two_body(g), y0, 0.0, 6.0, ACC_CFG)
    worst = 0.0
    for idx, t in enumerate(traj.times):
        gap = abs(q2[idx] - q1[idx])
        if gap < 0.05:
            break
        ref = pair.resample([t])[0]
        worst = max(worst, abs(ref[0] - q1[idx]), abs(ref[1] - q2[idx]))
    ok = worst < 1e-6
    _report("criterion 2 eigenvalue-pair deviation", worst, 1e-6, ok)
    assert ok


# -- criterion 3: quantum coset reduction -------------------------------------


def test_criterion_3_quantum_coset():
    rng = np.random.default_rng(42)

    def herm(n):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return (A + A.conj().T) / 2.0

    H1, H2 = herm(1), herm(2)
    V = (rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2))) / 2.0
    H = qriccati.BlockHamiltonian(1, 2, H1, H2, V)
    scale = np.linalg.norm(H.assembled, ord=2)
    if scale > 2.0:
        f = 2.0 / scale
        H = qriccati.BlockHamiltonian(1, 2, H1 * f, H2 * f, V * f)
    report = qriccati.verify_coset_reduction(
        H, qriccati.UnitaryState(np.eye(3)), 1.0, ACC_CFG
    )
    ok_dev = report.max_dev < 1e-6
    ok_unitary = report.unitarity_drift < 1e-9
    _report("criterion 3 coset deviation", report.max_dev, 1e-6, ok_dev)
    _report("criterion 3 unitarity drift", report.unitarity_drift, 1e-9, ok_unitary)
    assert ok_dev and ok_unitary


# -- criterion 4: relativistic free particle ----------------------------------


def _timelike_points(count, seed):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        x = rng.uniform(-2, 2, 4)
        v = rng.uniform(-1, 1, 4)
        v[0] = rng.uniform(1.2, 2.5) * (1.0 + np.linalg.norm(v[1:]))
        pts.append(np.concatenate([x, v]))
    return pts


def test_criterion_4_relativistic_free_particle():
    model = lagsym.relativistic_lagrangian()
    conn = lagsym.relativistic_connection()
    pts = _timelike_points(100, seed=4)
    energy_max = max(abs(float(lagsym.energy(model, z))) for z in pts)
    ok_energy = energy_max < 1e-12
    _report("criterion 4 energy identity", energy_max, 1e-12, ok_energy)

    z0 = pts[0]
    basis = lagsym.kernel_basis(lagsym.lagrangian_two_form(model, z0))
    ok_dim = len(basis) == 2
    v = z0[4:]
    P = np.stack(basis)
    contain = 0.0
    for probe in (np.concatenate([v, np.zeros(4)]), np.concatenate([np.zeros(4), v])):
        proj = P.T @ (P @ probe)
        contain = max(contain, float(np.max(np.abs(proj - probe))) / (1 + np.linalg.norm(probe)))
    ok_kernel = ok_dim and contain < 1e-8
    _report("criterion 4 kernel containment", contain, 1e-8, ok_kernel)

    Qs, Ps = lagsym.newton_wigner_fields()
    frames = [lagsym.ConnectionFrame(model, conn, z) for z in pts[:5]]
    darboux = 0.0
    for frame in frames:
        for i in range(3):
            for j in range(3):
                qp = float(frame.bracket(Qs[i], Ps[j]))
                darboux = max(darboux, abs(qp - (1.0 if i == j else 0.0)))
                darboux = max(
                    darboux,
                    abs(float(frame.bracket(Qs[i], Qs[j]))),
                    abs(float(frame.bracket(Ps[i], Ps[j]))),
                )
    ok_darboux = darboux < 1e-8
    _report("criterion 4 canonical chart relations", darboux, 1e-8, ok_darboux)

    coords = lagsym.coordinate_fields(8, [f"x{i}" for i in range(4)] + [f"v{i}" for i in range(4)])
    jacobi = 0.0
    for f, g, h in [
        (coords[0], coords[1], coords[5]),
        (coords[2], coords[4], coords[7]),
        (coords[3], coords[6], coords[0]),
    ]:
        jacobi = max(jacobi, lagsym.jacobi_residual(frames[0], f, g, h))
    ok_jacobi = jacobi < 1e-6
    _report("criterion 4 bracket Jacobi residual", jacobi, 1e-6, ok_jacobi)

    casimir = 0.0
    for frame in frames[:3]:
        for f in coords:
            casimir = max(casimir, abs(float(frame.bracket(model.L, f))))
    ok_casimir = casimir < 1e-8
    _report("criterion 4 Casimir property", casimir, 1e-8, ok_casimir)
    assert ok_energy and ok_kernel and ok_darboux and ok_jacobi and ok_casimir


# -- criterion 5: Dirac-bracket consistency -----------------------------------


@pytest.fixture(scope="module")
def two_particle_points():
    cset, space = dirac.two_particle_model(1.0, 2.0, dirac.linear_potential(0.1))
    rng = np.random.default_rng(5)
    points = [dirac.sample_on_shell(cset, rng, (1.0, 2.0)) for _ in range(20)]
    return cset, space, points


def test_criterion_5_constraints_are_casimirs(two_particle_points):
    cset, space, points = two_particle_points
    worst = 0.0
    for z in points:
        for c in cset.constraints:
            for alpha in (0, 1):
                for mu in range(4):
                    f = dirac.coordinate_fn(space, "x", alpha, mu)
                    worst = max(worst, abs(float(dirac.dirac_bracket(cset, f, c.fn, z))))
                    g = dirac.coordinate_fn(space, "p", alpha, mu)
                    worst = max(worst, abs(float(dirac.dirac_bracket(cset, g, c.fn, z))))
    ok = worst < 1e-9
    _report("criterion 5 constraint-killing", worst, 1e-9, ok)
    assert ok


def test_criterion_5_jacobi(two_particle_points):
    cset, space, points = two_particle_points
    triples = [
        (("x", 0, 1), ("x", 0, 2), ("p", 0, 1)),
        (("x", 0, 0), ("p", 1, 2), ("x", 1, 3)),
    ]
    worst = 0.0
    for z in points[:2]:
        for spec_f, spec_g, spec_h in triples:
            f = dirac.coordinate_fn(space, *spec_f)
            g = dirac.coordinate_fn(space, *spec_g)
            h = dirac.coordinate_fn(space, *spec_h)

            def pairfn(a, b):
                return lambda zz, tau: dirac.dirac_bracket(cset, a, b, zz, tau)

            total = (
                dirac.dirac_bracket(cset, f, pairfn(g, h), z)
                + dirac.dirac_bracket(cset, g, pairfn(h, f), z)
                + dirac.dirac_bracket(cset, h, pairfn(f, g), z)
            )
            worst = max(worst, abs(float(total)))
    ok = worst < 1e-6
    _report("criterion 5 Dirac-bracket Jacobi", worst, 1e-6, ok)
    assert ok


def test_criterion_5_generator_brackets_agree(two_particle_points):
    cset, space, points = two_particle_points
    gens = dirac.poincare_generators(space)
    worst = 0.0
    for z in points[:3]:
        frame = dirac.DiracFrame(cset, z)
        for i, j in ((0, 1), (0, 6), (3, 8), (2, 5), (6, 9), (1, 4)):
            pb = float(frame.canonical(gens[i].fn, gens[j].fn))
            db = float(dirac.dirac_bracket(cset, gens[i].fn, gens[j].fn, z))
            worst = max(worst, abs(pb - db))
    ok = worst < 1e-8
    _report("criterion 5 generator bracket agreement", worst, 1e-8, ok)
    assert ok


def test_criterion_5_determinant_matches_published_form(two_particle_points):
    # On the surface {chi1, xi} = 0 and {chi2, xi} is proportional to P.r = 0,
    # so V' drops out and the block is [[P.p1, -P.p2], [P.p1, P.p2]] (the minus
    # sign because r = (x1 - x2)/2), with determinant 2 (P.p1)(P.p2).  The
    # printed closed form (p1^2 - p2^2)((P.r)^2 - 2 V')/P^4 reduces on the
    # surface to -2 V'(m1^2 - m2^2)/P^4: it vanishes for equal masses or
    # V' = 0, where the model is still second class, and it does not equal the
    # determinant of the printed matrix.  It is printed, not asserted.
    cset, space, points = two_particle_points
    eta = np.array([1.0, -1.0, -1.0, -1.0])
    worst = published_dev = 0.0
    smallest = math.inf
    for z in points[:5]:
        p1 = np.asarray(space.p(z, 0), dtype=float)
        p2 = np.asarray(space.p(z, 1), dtype=float)
        P = p1 + p2
        Pp1, Pp2, PP = float(P @ (eta * p1)), float(P @ (eta * p2)), float(P @ (eta * P))
        expected = 2.0 * Pp1 * Pp2
        report = dirac.published_constraint_matrix(dirac.DiracFrame(cset, z))
        measured = report["measured_det"]
        worst = max(worst, abs(measured - expected) / abs(expected))
        published_dev = max(published_dev, abs(measured - report["published_det"]) / abs(measured))
        # det / P^4 lies in (0, 1/2] for timelike future-pointing momenta
        smallest = min(smallest, measured / PP**2)
    ok_form = worst < 1e-8
    _report(
        "criterion 5 determinant vs derived 2(P.p1)(P.p2) "
        f"(printed form, not asserted, deviates by {published_dev:.3e})",
        worst,
        1e-8,
        ok_form,
    )
    ok_admissible = smallest > 1e-3
    _report("criterion 5 gauge admissibility det/P^4", smallest, 1e-3, ok_admissible)
    assert ok_form and ok_admissible


# -- criterion 6: non-interaction evasion witness ------------------------------


def test_criterion_6_noncommuting_positions(two_particle_points):
    cset, space, points = two_particle_points
    report = dirac.position_noncommutativity(dirac.DiracFrame(cset, points[0]))
    ok = report["dirac_max_abs"] > 1e-6 and report["canonical_max_abs"] < 1e-14
    _report("criterion 6 position bracket witness", report["dirac_max_abs"], 1e-6, ok)
    assert ok


# -- criterion 7: world line condition ------------------------------------------


def test_criterion_7_world_line_condition(two_particle_points):
    cset, space, points = two_particle_points
    rng = np.random.default_rng(7)
    frame = dirac.DiracFrame(cset, points[1])
    worst_ratio = 0.0
    for _ in range(10):
        omega = np.zeros((4, 4))
        for mu in range(4):
            for nu in range(mu + 1, 4):
                omega[mu, nu] = rng.uniform(-1, 1) * 1e-4
                omega[nu, mu] = -omega[mu, nu]
        norm = float(np.max(np.abs(omega)))
        report = dirac.wlc_residual(frame, omega, np.zeros(4))
        worst_ratio = max(worst_ratio, report["residual"] / norm)
    ok = worst_ratio < 1e-6
    _report("criterion 7 WLC residual / |omega|", worst_ratio, 1e-6, ok)
    assert ok


# -- criterion 8: deformed algebra ----------------------------------------------


def test_criterion_8_deformed_algebra():
    worst = 0.0
    for K in (0.1, 1.0, 100.0):
        worst = max(worst, dirac.jacobi_residual(dirac.DeformedPoincare(K).C))
    ok_jacobi = worst < 1e-12
    _report("criterion 8 Jacobi residual", worst, 1e-12, ok_jacobi)
    a, b = dirac.DeformedPoincare(1.0), dirac.DeformedPoincare(10.0)
    gap = float(np.max(np.abs(a.position_block() - 10.0 * b.position_block())))
    ok_scale = gap == 0.0
    _report("criterion 8 exact 1/K scaling", gap, 1e-15, ok_scale)
    assert ok_jacobi and ok_scale


# -- criterion 9: differentiation kernel cross-check ----------------------------


def test_criterion_9_kernel_crosscheck():
    rng = np.random.default_rng(9)

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    worst = 0.0
    for _ in range(20):
        c = rng.uniform(-1, 1, size=(3, 3))
        lin = rng.uniform(-1, 1, size=3)

        def fn(x, c=c, lin=lin):
            quad = 0.0
            for i in range(3):
                for j in range(3):
                    quad = quad + c[i][j] * x[i] * x[j]
            return (quad + dot(lin, x)) / (1.0 + dot(x, x))

        f = ScalarField(3, fn)
        for _ in range(10):
            x = rng.uniform(-2, 2, 3)
            gd = gradient(f, x, DUAL)
            gc = gradient(f, x, CENTRAL)
            worst = max(worst, float(np.max(np.abs(gd - gc)) / (1 + np.max(np.abs(gd)))))
    ok_corpus = worst < 1e-5
    _report("criterion 9 dual vs central on corpus", worst, 1e-5, ok_corpus)

    # the local error of one Dormand-Prince step of exactly h is O(h^6);
    # tolerances of 1e6 accept the step, and h = 1 set before it clips it to h
    errs = []
    for h in (0.1, 0.05):
        stepper = Dopri45Stepper(
            lambda y, t: [y[1], -y[0]], 0.0, [1.0, 0.0], IntegratorConfig(abs_tol=1e6, rel_tol=1e6)
        )
        stepper.h = 1.0
        t, y, _ = stepper.step(h)
        assert t == h
        errs.append(float(np.max(np.abs(y - [math.cos(h), -math.sin(h)]))))
    order = math.log2(errs[0] / errs[1])
    limit = cli.REGISTRY["kernel-crosscheck"].tolerances["dp5_order_gap"]
    ok_order = abs(order - 6.0) < limit
    _report(f"criterion 9 DP5 local order {order:.4f}, gap to 6", abs(order - 6.0), limit, ok_order)
    assert ok_corpus and ok_order


# -- criterion 10: frames ---------------------------------------------------------


def test_criterion_10_frames():
    rng = np.random.default_rng(10)
    proj = 0.0
    for _ in range(10):
        L = frames.boost_matrix(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1, 3))
        R = frames.frame_tensor(frames.transform_frame(frames.lab_frame(), L), [0, 0, 0, 0])
        proj = max(proj, float(np.max(np.abs(R.R @ R.R - R.R))), abs(np.trace(R.R) - 1.0))
    ok_proj = proj < 1e-10
    _report("criterion 10 projector identities", proj, 1e-10, ok_proj)

    pts = [rng.uniform(-1, 1, 4) for _ in range(6)]
    frob = frames.frobenius_residual(lambda pt: [dualnum.exp(-pt[1]), 0, 0, 0], pts)
    ok_frob = frob < 1e-7
    _report("criterion 10 integrability residual", frob, 1e-7, ok_frob)

    metric = frames.metric_from_frame_family(
        [(0.7, (1, 0, 0)), (1.3, (0, 1, 0)), (-0.4, (0.2, -0.5, 0.8))]
    )
    ok_metric = metric["residual"] < 1e-12 and metric["inverse_residual"] < 1e-12
    _report("criterion 10 derived metric residual", metric["residual"], 1e-12, ok_metric)

    boosted = frames.transform_frame(frames.lab_frame(), frames.boost_matrix(1.0))
    trace = frames.compatible(
        frames.frame_tensor(frames.lab_frame(), [0, 0, 0, 0]),
        frames.frame_tensor(boosted, [0, 0, 0, 0]),
    )["trace"]
    ok_compat = abs(trace - math.cosh(1.0) ** 2) < 1e-12
    _report("criterion 10 compatibility trace", trace, 1, ok_compat)
    assert ok_proj and ok_frob and ok_metric and ok_compat

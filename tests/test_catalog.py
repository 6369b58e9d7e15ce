import math
from types import SimpleNamespace

import numpy as np
import pytest

from geored import catalog
from geored.calc import ScalarField
from geored.errors import DegenerateSpectrum, OriginExcluded, SingularTime
from geored.flow import IntegratorConfig, conserved_drift, integrate
from geored.reduce import verify_commuting_diagram


def test_free_particle_rhs():
    sys = catalog.free_particle_3d()
    out = sys.eval_rhs([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    assert np.allclose(out, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0])


def test_free_particle_conserved_quantities():
    sys = catalog.free_particle_3d()
    traj = integrate(sys, [1.0, -0.3, 0.2, 0.4, 1.0, -0.5], 0.0, 10.0)
    energy = ScalarField(6, lambda x: x[3] ** 2 + x[4] ** 2 + x[5] ** 2)
    assert conserved_drift(sys, energy, traj) < 1e-12
    lx = ScalarField(6, lambda x: x[1] * x[5] - x[2] * x[4])
    assert conserved_drift(sys, lx, traj) < 1e-10


def test_radial_fixed_l_values():
    assert np.allclose(catalog.radial_fixed_l(0.0).eval_rhs([2.0, 0.3]), [0.3, 0.0])
    assert np.allclose(catalog.radial_fixed_l(1.0).eval_rhs([1.0, 0.0]), [0.0, 1.0])


def test_radial_fixed_l_closed_form():
    traj = integrate(catalog.radial_fixed_l(1.0), [1.0, 0.0], 0.0, 2.0)
    assert abs(traj.states[-1][0] - math.sqrt(5.0)) < 1e-8


def test_radial_fixed_E_values():
    assert np.allclose(catalog.radial_fixed_E(0.0).eval_rhs([1.0, 0.0]), [0.0, 0.0])
    assert np.allclose(catalog.radial_fixed_E(1.0).eval_rhs([1.0, 0.0]), [0.0, 2.0])


def test_radial_fixed_E_consistency_with_full_flow():
    # radial coordinate of a full free flow with v.v = 2E follows the reduced law
    x0 = np.array([1.0, 0.0, 0.0, 0.3, 1.1, 0.0])
    E = 0.5 * float(x0[3:] @ x0[3:])
    full = integrate(catalog.free_particle_3d(), x0, 0.0, 5.0)
    r0 = float(np.linalg.norm(x0[:3]))
    rdot0 = float(x0[:3] @ x0[3:]) / r0
    red = integrate(catalog.radial_fixed_E(E), [r0, rdot0], 0.0, 5.0)
    ts = np.linspace(0.0, 5.0, 100)
    r_full = np.linalg.norm(full.resample(ts)[:, :3], axis=1)
    r_red = red.resample(ts)[:, 0]
    assert np.max(np.abs(r_full - r_red)) < 1e-7


def test_radial_convex_limits():
    assert np.allclose(
        catalog.radial_convex(1.0, 1.0, 5.0).eval_rhs([1.0, 0.0]),
        catalog.radial_fixed_l(1.0).eval_rhs([1.0, 0.0]),
    )
    x = [1.3, 0.4]
    assert np.allclose(
        catalog.radial_convex(0.0, 9.9, 1.0).eval_rhs(x),
        catalog.radial_fixed_E(1.0).eval_rhs(x),
    )
    with pytest.raises(ValueError):
        catalog.radial_convex(1.5, 1.0, 1.0)


def test_radial_time_dependent_substitutions():
    sys = catalog.radial_time_dependent(1.0)
    assert np.allclose(sys.eval_rhs([1.0, 0.0], 1.0), [0.0, 0.0])
    sys2 = catalog.radial_time_dependent(2.0)
    assert np.allclose(sys2.eval_rhs([1.0, 0.0], 1.0), [0.0, 3.0])
    with pytest.raises(SingularTime):
        sys.eval_rhs([1.0, 0.0], 0.0)


def test_radial_time_dependent_consistency_on_static_stratum():
    # the only data matching k=1, r=1, rdot=0 at t=1 is the rest state,
    # where the published equation and the ambient oracle agree exactly
    dev = catalog.radial_time_dependent_consistency(
        1.0, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    )
    assert dev < 1e-9


def test_radial_time_dependent_discrepancy_reported_off_stratum():
    # generic matching data exposes the dimensionally suspect term; the
    # deviation is reported (and is material), not patched
    x0 = [1.0, 0.0, 0.0, 0.0, math.sqrt(3.0), 0.0]  # |r - v t|=2 at t=1
    dev = catalog.radial_time_dependent_consistency(2.0, x0)
    assert dev > 1e-2


def test_matrix_motion_commutator_is_constant():
    sys = catalog.matrix_free_symmetric()
    x0 = [1.0, 0.3, -0.8, 0.2, 0.5, -0.1]
    traj = integrate(sys, x0, 0.0, 10.0)
    # [X, Xdot] is antisymmetric 2x2, so (1/2) Tr([X, Xdot] alpha) is all of it
    f = ScalarField(6, catalog.angular_constant)
    assert conserved_drift(sys, f, traj) < 1e-10


def test_commutator_matrix_is_antisymmetric_multiple_of_alpha():
    x = np.array([0.9, -0.4, 0.2, 0.3, 0.8, -0.6])
    X, Xd = catalog.state_to_matrices(x)
    M = X @ Xd - Xd @ X
    assert M[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert M[1, 1] == pytest.approx(0.0, abs=1e-15)
    assert M[0, 1] == pytest.approx(-M[1, 0], abs=1e-15)
    # (1/2) Tr(M alpha) recovers the opposite corner entry
    assert catalog.angular_constant(x) == pytest.approx(-M[0, 1], abs=1e-14)


def test_zero_velocity_matrix_state_is_fixed():
    sys = catalog.matrix_free_symmetric()
    traj = integrate(sys, [0.7, -0.1, 0.4, 0.0, 0.0, 0.0], 0.0, 3.0)
    assert np.max(np.abs(traj.states[-1][:3] - [0.7, -0.1, 0.4])) < 1e-14


def test_eigen_tracking_diagonal_case():
    sys = catalog.matrix_free_symmetric()
    traj = integrate(sys, [0.0, 0.0, 1.0, 0.3, 0.0, 0.2], 0.0, 2.0)
    q1, q2, phi = catalog.eigen_decompose_tracked(traj)
    assert np.max(np.abs(phi - phi[0])) < 1e-12
    # diagonal data: eigenvalues are the diagonal entries, linear in t
    assert np.allclose(q1, np.minimum(traj.states[:, 0], traj.states[:, 2]), atol=1e-10)
    assert np.allclose(q2, np.maximum(traj.states[:, 0], traj.states[:, 2]), atol=1e-10)


def test_eigen_tracking_trace_and_constants():
    sys = catalog.matrix_free_symmetric()
    x0 = [1.0, 0.3, -0.8, 0.2, 0.5, -0.1]
    traj = integrate(sys, x0, 0.0, 5.0)
    q1, q2, phi = catalog.eigen_decompose_tracked(traj)
    assert np.max(np.abs((q1 + q2) - (traj.states[:, 0] + traj.states[:, 2]))) < 1e-12
    # phidot (q2-q1)^2 stays at the angular constant; phidot is the tracked
    # angle differenced on a fine grid (second order, h = 2.5e-3)
    ts = np.linspace(0.0, 5.0, 2001)
    q1, q2, phi = catalog.eigen_decompose_tracked(SimpleNamespace(times=ts, states=traj.resample(ts)))
    g_series = np.gradient(phi, ts, edge_order=2) * (q2 - q1) ** 2
    assert np.max(np.abs(g_series - catalog.angular_constant(x0))) < 1e-6


def test_eigen_tracking_degenerate_spectrum_raises():
    sys = catalog.matrix_free_symmetric()
    traj = integrate(sys, [1.0, 0.0, 1.0, 0.1, 0.0, -0.1], 0.0, 1.0)
    with pytest.raises(DegenerateSpectrum):
        catalog.eigen_decompose_tracked(traj)


def test_calogero_rhs_values():
    assert np.allclose(
        catalog.calogero_two_body(0.0).eval_rhs([0.0, 1.0, 0.3, -0.2]),
        [0.3, -0.2, 0.0, 0.0],
    )
    out = catalog.calogero_two_body(1.0).eval_rhs([0.0, 1.0, 0.0, 0.0])
    assert np.allclose(out, [0.0, 0.0, -2.0, 2.0])


def test_calogero_center_of_mass_free():
    sys = catalog.calogero_two_body(0.7)
    traj = integrate(sys, [-0.5, 0.8, 0.2, -0.1], 0.0, 4.0)
    com_v = ScalarField(4, lambda x: x[2] + x[3])
    assert conserved_drift(sys, com_v, traj) < 1e-10


def test_calogero_matches_eigenvalue_flow():
    # acceptance-level equivalence: matrix eigenvalues against the pair
    # dynamics with the coupling measured from initial data
    cfg = IntegratorConfig(abs_tol=1e-10, rel_tol=1e-10)
    report = verify_commuting_diagram(catalog.ENTRY_BUILDERS["calogero-from-matrix"](), cfg)
    assert report.max_dev < 1e-6


def test_calogero_polynomial_trace_oracle():
    # Tr X and Tr X^2 evolve polynomially for free matrix motion; the
    # eigenvalues recovered from those polynomials must match the branches
    x0 = np.array([1.0, 0.3, -0.8, 0.2, 0.5, -0.1])
    X0, Xd0 = catalog.state_to_matrices(x0)
    traj = integrate(catalog.matrix_free_symmetric(), x0, 0.0, 5.0)
    q1, q2, _ = catalog.eigen_decompose_tracked(traj)
    for idx in (0, len(traj.times) // 2, -1):
        t = traj.times[idx]
        tr1 = np.trace(X0) + t * np.trace(Xd0)
        X_t = X0 + t * Xd0
        tr2 = np.trace(X_t @ X_t)
        disc = math.sqrt(max(2.0 * tr2 - tr1 * tr1, 0.0))
        lo, hi = (tr1 - disc) / 2.0, (tr1 + disc) / 2.0
        assert min(abs(lo - q1[idx]), abs(lo - q2[idx])) < 1e-9
        assert min(abs(hi - q1[idx]), abs(hi - q2[idx])) < 1e-9


def test_so3_reduced_forms():
    free = catalog.so3_reduced()
    assert np.allclose(free.eval_rhs([2.0, 3.0, 0.5]), [1.0, 0.0, 3.0])
    # constant-force chart from freezing xi2
    chart = catalog.so3_fixed_energy(4.0)
    assert np.allclose(chart.eval_rhs([1.0, 0.25]), [0.5, 4.0])


def test_so3_fixed_l_matches_radial_inverse_cube():
    # eta = sqrt(xi1) obeys the inverse-cube radial law
    l = 1.0
    xi_sys = catalog.so3_fixed_l(l)
    eta0, etadot0 = 1.2, 0.1
    xi_traj = integrate(xi_sys, [eta0**2, eta0 * etadot0], 0.0, 4.0)
    r_traj = integrate(catalog.radial_fixed_l(l), [eta0, etadot0], 0.0, 4.0)
    ts = np.linspace(0, 4.0, 80)
    eta = np.sqrt(xi_traj.resample(ts)[:, 0])
    r = r_traj.resample(ts)[:, 0]
    assert np.max(np.abs(eta - r)) < 1e-8


def test_riccati_scalar_values_and_closed_form():
    sys = catalog.riccati_scalar(0.0, 0.0, 0.0)
    assert np.allclose(sys.eval_rhs([3.2]), [0.0])
    sys = catalog.riccati_scalar(1.0, 1.0, 1.0)
    assert np.allclose(sys.eval_rhs([1.0]), [2.0])
    # a=1, b=c=0: xi(t) = 1/(1+t), separable-equation oracle
    traj = integrate(catalog.riccati_scalar(1.0, 0.0, 0.0), [1.0], 0.0, 3.0)
    assert abs(traj.states[-1][0] - 0.25) < 1e-10


def test_zeta_chart_obeys_swapped_riccati():
    a, b, c = 1.0, 0.4, 0.9
    sys = catalog.linear_2d(a, b, c)
    x0 = np.array([1.3, 0.2])  # x-dominant so the zeta chart applies
    traj = integrate(sys, x0, 0.0, 2.0)
    ts = np.linspace(0.0, 2.0, 60)
    zeta_ambient = traj.resample(ts)[:, 1] / traj.resample(ts)[:, 0]
    az, bz, cz = catalog.riccati_zeta_coefficients(a, b, c)
    zeta_traj = integrate(
        catalog.riccati_scalar(az, bz, cz), [x0[1] / x0[0]], 0.0, 2.0
    )
    assert np.max(np.abs(zeta_ambient - zeta_traj.resample(ts)[:, 0])) < 1e-8


def test_projective_chart_switching_with_hysteresis():
    # quarter-turn rotation flow crosses the diagonal once
    theta = np.linspace(0.0, np.pi / 2, 200)
    states = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    points, switches = catalog.project_projective(states[::-1])
    assert len(switches) == 1
    charts = {p.chart for p in points}
    assert charts == {"xi", "zeta"}
    with pytest.raises(OriginExcluded):
        catalog.project_projective(np.array([[0.0, 0.0]]))


def test_cross_ratio_of_four_riccati_solutions():
    # solutions sharing one linear ambient system have a constant
    # anharmonic ratio: the projective signature of the reduction
    a, b, c = 1.0, 1.0, 1.0
    sys = catalog.linear_2d(a, b, c)
    seeds = [0.3, 1.0, 1.7, 2.9]
    trajs = [integrate(sys, [s, 1.0], 0.0, 2.5) for s in seeds]
    ts = np.linspace(0.0, 2.5, 50)
    xis = [t.resample(ts)[:, 0] / t.resample(ts)[:, 1] for t in trajs]
    ratios = catalog.cross_ratio(xis[0], xis[1], xis[2], xis[3])
    assert np.max(np.abs(ratios - ratios[0])) < 1e-8


def test_all_catalog_entries_verify():
    cfg = IntegratorConfig(abs_tol=1e-10, rel_tol=1e-10)
    for build in catalog.ENTRY_BUILDERS.values():
        scenario = build()
        report = verify_commuting_diagram(scenario, cfg)
        assert report.max_dev < 1e-6, f"{scenario.name}: max_dev={report.max_dev:.3e}"


def _one_closure_per_invariant():
    """Each catalog quotient written as one closure per invariant, every
    closure computing the subexpressions it needs for itself."""
    dot3, dn, s2 = catalog._dot3, catalog.dn, catalog.SQRT2

    def gap(x):
        w, u = x[2] - x[0], s2 * x[1]
        return dn.sqrt(w * w + u * u)

    def gap_rate(x):
        w, u = x[2] - x[0], s2 * x[1]
        wd, ud = x[5] - x[3], s2 * x[4]
        return (w * wd + u * ud) / dn.sqrt(w * w + u * u)

    radial = (
        lambda x: dn.sqrt(dot3(x[:3], x[:3])),
        lambda x: dot3(x[:3], x[3:6]) / dn.sqrt(dot3(x[:3], x[:3])),
    )
    return {
        "radial-l": radial,
        "radial-E": radial,
        "calogero-from-matrix": (
            lambda x: ((x[0] + x[2]) - gap(x)) / 2.0,
            lambda x: ((x[0] + x[2]) + gap(x)) / 2.0,
            lambda x: ((x[3] + x[5]) - gap_rate(x)) / 2.0,
            lambda x: ((x[3] + x[5]) + gap_rate(x)) / 2.0,
        ),
        "so3-quotient": (
            lambda x: dot3(x[:3], x[:3]),
            lambda x: dot3(x[3:6], x[3:6]),
            lambda x: dot3(x[:3], x[3:6]),
        ),
        "riccati-classical": (lambda z: z[0] / z[1],),
    }


def test_joint_quotients_bit_identical_to_one_closure_per_invariant():
    # sharing a subexpression runs the same IEEE operations, so the values
    # and velocities of the joint map keep every bit
    from geored.calc import _jvp
    from geored.reduce import GRID_POINTS

    closures = _one_closure_per_invariant()
    for name, build in catalog.ENTRY_BUILDERS.items():
        sc = build()
        fns = closures[name]
        t0, t1 = sc.t_span
        states = integrate(sc.system, sc.x0, t0, t1).resample(np.linspace(t0, t1, GRID_POINTS))
        for x in states.tolist():
            want = np.asarray([float(f(x)) for f in fns])
            assert sc.quotient(x).tobytes() == want.tobytes(), name
            v = sc.system.eval_rhs(x)
            rates = np.asarray([_jvp(lambda z: [f(z)], x, v)[0] for f in fns])
            assert sc.quotient.pushforward(sc.system, x).tobytes() == rates.tobytes(), name


def test_calogero_comparison_truncates_at_small_gap():
    # near-degenerate data: the eigenvalue gap dips below the threshold and
    # the pair-dynamics comparison must hold right up to that moment
    x0 = np.array([0.5, 0.03 / np.sqrt(2.0), -0.5, -0.5, 0.0, 0.5])
    g = float(catalog.angular_constant(x0))
    cfg = IntegratorConfig(abs_tol=1e-10, rel_tol=1e-10)
    traj = integrate(catalog.matrix_free_symmetric(), x0, 0.0, 2.0, cfg)
    # a 1e-3 grid of the dense output resolves the gap minimum
    ts = np.linspace(0.0, 2.0, 2001)
    q1, q2, _ = catalog.eigen_decompose_tracked(SimpleNamespace(times=ts, states=traj.resample(ts)))
    gaps = q2 - q1
    assert np.min(gaps) < 0.05  # the threshold is actually reached
    pair = integrate(
        catalog.calogero_two_body(g), catalog._eigen_quotient()(x0), 0.0, 2.0, cfg
    )
    cut = int(np.argmax(gaps < 0.05))  # the first grid time under the threshold
    ref = pair.resample(ts[:cut])[:, :2]  # the pair positions
    assert cut > 0 and np.max(np.abs(ref - np.stack([q1[:cut], q2[:cut]], axis=1))) < 1e-6


# -- guards fail closed on NaN --------------------------------------------------


@pytest.mark.parametrize("k, index", [(2.0, 0), (2.0, 4), (math.nan, None)])
def test_radial_time_dependent_consistency_rejects_nan_data(k, index):
    x0 = [1.0, 0.0, 0.0, 0.0, math.sqrt(3.0), 0.0]  # |r - v t|=2 at t=1
    if index is not None:
        x0[index] = math.nan
    with pytest.raises(ValueError, match="moving level set"):
        catalog.radial_time_dependent_consistency(k, x0)

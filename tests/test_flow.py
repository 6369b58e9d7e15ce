import math

import numpy as np
import pytest

from geored.calc import ScalarField
from geored.errors import BlowUp
from geored.flow import (
    IntegratorConfig,
    VectorFieldSystem,
    conserved_drift,
    integrate,
    second_order_lift,
)

FREE_NAMES = ("rx", "ry", "rz", "vx", "vy", "vz")


def free_3d():
    return VectorFieldSystem(
        6,
        lambda x: [x[3], x[4], x[5], 0.0, 0.0, 0.0],
        FREE_NAMES,
        label="free particle",
    )


def harmonic():
    return VectorFieldSystem(2, lambda x: [x[1], -x[0]], ("x", "v"))


def test_linear_flow_is_exact():
    sys = free_3d()
    x0 = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    traj = integrate(sys, x0, 0.0, 3.0)
    expected = np.array([1.0, 3.0, 0.0, 0.0, 1.0, 0.0])
    assert np.max(np.abs(traj.states[-1] - expected)) < 1e-12


def test_radial_reduced_closed_form():
    # r'' = l^2 / r^3 with l=1, r(0)=1, r'(0)=0 integrates to r(t)=sqrt(1+t^2);
    # frozen from the energy integral r'^2 + 1/r^2 = 1.
    sys = VectorFieldSystem(2, lambda x: [x[1], 1.0 / x[0] ** 3], ("r", "rdot"))
    traj = integrate(sys, [1.0, 0.0], 0.0, 2.0)
    assert abs(traj.states[-1][0] - math.sqrt(5.0)) < 1e-8


def test_harmonic_period_return():
    traj = integrate(harmonic(), [1.0, 0.0], 0.0, 2.0 * math.pi)
    assert np.max(np.abs(traj.states[-1] - [1.0, 0.0])) < 1e-8


def test_rk4_order_four_convergence():
    sys = harmonic()
    t1 = 1.0
    exact = np.array([math.cos(t1), -math.sin(t1)])
    errs = []
    for dt in (0.05, 0.025):
        cfg = IntegratorConfig(method="rk4", dt=dt)
        traj = integrate(sys, [1.0, 0.0], 0.0, t1, cfg)
        errs.append(np.max(np.abs(traj.states[-1] - exact)))
    order = math.log2(errs[0] / errs[1])
    assert 3.7 < order < 4.3


def test_time_reversal_property():
    # forward-then-backward integration returns to the start within 10x the
    # integrator tolerance on the catalog systems
    from geored import catalog

    cases = [
        (free_3d(), np.array([0.2, -0.4, 1.0, 0.5, 0.3, -0.7]), 5.0),
        (catalog.radial_fixed_l(1.0), np.array([1.0, 0.0]), 3.0),
        (catalog.calogero_two_body(0.8), np.array([-0.6, 0.9, 0.1, -0.2]), 3.0),
        (catalog.linear_2d(1.0, 1.0, 1.0), np.array([1.0, 1.0]), 2.0),
        (catalog.so3_reduced(None), np.array([1.2, 0.8, 0.1]), 3.0),
    ]
    for sys, x0, horizon in cases:
        fwd = integrate(sys, x0, 0.0, horizon)
        rev_sys = VectorFieldSystem(
            sys.dim, lambda x, s=sys: [-v for v in s.rhs(x)], sys.coord_names
        )
        back = integrate(rev_sys, fwd.states[-1], 0.0, horizon)
        assert np.max(np.abs(back.states[-1] - x0)) < 10 * 1e-9, sys.label


def test_conserved_drift_free_system():
    sys = free_3d()
    traj = integrate(sys, [1.0, 0.0, 0.0, 0.0, 1.0, 0.5], 0.0, 10.0)
    speed2 = ScalarField(6, lambda x: x[3] ** 2 + x[4] ** 2 + x[5] ** 2)
    assert conserved_drift(sys, speed2, traj) < 1e-12
    for i, j, k, l in ((1, 5, 2, 4), (2, 3, 0, 5), (0, 4, 1, 3)):
        comp = ScalarField(6, lambda x, i=i, j=j, k=k, l=l: x[i] * x[j] - x[k] * x[l])
        assert conserved_drift(sys, comp, traj) < 1e-10


def test_blowup_reports_last_good_time():
    sys = VectorFieldSystem(1, lambda x: [x[0] * x[0]], ("y",))
    with pytest.raises(BlowUp) as err:
        integrate(sys, [1.0], 0.0, 2.0)
    assert 0.0 < err.value.t_last < 1.1


def test_second_order_lift_free_and_constant_force():
    free = second_order_lift(3, lambda q, v, t: [0.0, 0.0, 0.0])
    assert free.dim == 6
    out = free.eval_rhs([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    assert np.allclose(out, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    k = 0.8
    const = second_order_lift(1, lambda q, v, t: [2.0 * k])
    assert np.allclose(const.eval_rhs([3.0, 1.0]), [1.0, 1.6])
    radial = second_order_lift(1, lambda q, v, t: [1.0 / q[0] ** 3])
    assert np.allclose(radial.eval_rhs([2.0, 0.5]), [0.5, 0.125])


def test_dense_output_matches_closed_form():
    traj = integrate(harmonic(), [1.0, 0.0], 0.0, 6.0)
    ts = np.linspace(0.0, 6.0, 113)
    samples = traj.resample(ts)
    assert np.max(np.abs(samples[:, 0] - np.cos(ts))) < 1e-8


def test_rk4_dense_output():
    cfg = IntegratorConfig(method="rk4", dt=1e-3)
    traj = integrate(harmonic(), [1.0, 0.0], 0.0, 1.0, cfg)
    ts = np.linspace(0.0, 1.0, 37)
    samples = traj.resample(ts)
    assert np.max(np.abs(samples[:, 0] - np.cos(ts))) < 1e-10


def test_nonautonomous_rhs_receives_time():
    seen = []

    def rhs(x, t):
        seen.append(t)
        return [t]

    sys = VectorFieldSystem(1, rhs, ("y",), autonomous=False)
    traj = integrate(sys, [0.0], 0.0, 2.0)
    assert abs(traj.states[-1][0] - 2.0) < 1e-10
    assert max(seen) > 1.0


def test_csv_export_roundtrip(tmp_path):
    traj = integrate(harmonic(), [1.0, 0.0], 0.0, 1.0)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,v"
    cells = lines[-1].split(",")
    assert float(cells[0]) == pytest.approx(1.0)
    assert float(cells[1]) == pytest.approx(math.cos(1.0), abs=1e-9)
    # 17 significant digits survive the round trip
    reparsed = [float(c) for c in cells]
    assert reparsed[2] == traj.states[-1][1]


def test_tolerance_tightening_improves_accuracy():
    sys = harmonic()
    errs = []
    for tol in (1e-6, 1e-10):
        cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol)
        traj = integrate(sys, [1.0, 0.0], 0.0, 10.0, cfg)
        errs.append(abs(traj.states[-1][0] - math.cos(10.0)))
    assert errs[1] < errs[0] / 10.0


def test_step_limit_exceeded():
    from geored.errors import StepLimitExceeded

    sys = harmonic()
    cfg = IntegratorConfig(max_steps=5)
    with pytest.raises(StepLimitExceeded):
        integrate(sys, [1.0, 0.0], 0.0, 100.0, cfg)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        integrate(harmonic(), [1.0, 0.0], 1.0, 1.0)


# -- batched dense output against the per-point interpolant -------------------


def _point_sample(traj, t):
    """Reference: the per-point dense output, one step's data at a time,
    with scalar arithmetic (how ``sample`` worked before ``resample`` was
    batched)."""
    k = int(np.searchsorted(traj.times, t, side="right")) - 1
    k = min(max(k, 0), len(traj.h) - 1)
    t_lo, h = traj.times[k], traj.h[k]
    theta = (t - t_lo) / h
    if traj.method == "rk45":
        powers = np.array([theta, theta**2, theta**3, theta**4])
        return traj.states[k] + h * (traj.coeffs[k] @ powers)
    y0, y1, f0, f1 = traj.states[k], traj.states[k + 1], traj.slopes[k], traj.slopes[k + 1]
    h00 = (1 + 2 * theta) * (1 - theta) ** 2
    h10 = theta * (1 - theta) ** 2
    h01 = theta**2 * (3 - 2 * theta)
    h11 = theta**2 * (theta - 1)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def _assert_resample_matches_points(traj, ts):
    got = traj.resample(ts)
    ref = np.asarray([_point_sample(traj, float(t)) for t in ts])
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
    assert traj.sample(float(ts[len(ts) // 2])).tobytes() == ref[len(ts) // 2].tobytes()


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_resample_bit_identical_to_point_samples_on_catalog(tol):
    from geored import catalog

    cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol)
    for entry in catalog.entries():
        sc = entry.scenario
        t0, t1 = entry.t_span
        grid = np.linspace(t0, t1, sc.grid_points)
        _assert_resample_matches_points(integrate(sc.system, entry.default_x0, t0, t1, cfg), grid)
        x0 = sc.quotient(entry.default_x0)
        _assert_resample_matches_points(integrate(sc.reduced, x0, t0, t1, cfg), grid)


def test_resample_bit_identical_to_point_samples_rk4_hermite():
    cfg = IntegratorConfig(method="rk4", dt=0.013)
    traj = integrate(harmonic(), [1.0, 0.3], 0.0, 2.0, cfg)
    assert traj.slopes.shape == (len(traj.times), 2)
    _assert_resample_matches_points(traj, np.linspace(0.0, 2.0, 301))


def test_resample_bit_identical_to_point_samples_constrained_flow():
    from geored.dirac import constrained_flow, linear_potential, sample_on_shell, two_particle_model

    cset, _ = two_particle_model(1.0, 2.0, linear_potential(0.1))
    z0 = sample_on_shell(cset, np.random.default_rng(14), (1.0, 2.0))
    traj = constrained_flow(cset, z0, (0.0, 2.0))
    _assert_resample_matches_points(traj, np.linspace(0.0, 2.0, 97))


def test_resample_accepts_both_endpoints_and_rejects_outside_points():
    traj = integrate(harmonic(), [1.0, 0.0], 0.0, 2.0)
    ends = traj.resample([0.0, 2.0])
    assert ends[0].tobytes() == traj.states[0].tobytes()
    assert np.max(np.abs(ends[1] - traj.states[-1])) < 1e-12
    inside = list(np.linspace(0.0, 2.0, 9))
    for bad in (-1e-9, 2.0 + 1e-9, float("nan")):
        for pos in (0, 4, 9):
            with pytest.raises(ValueError, match="outside"):
                traj.resample(inside[:pos] + [bad] + inside[pos:])
        with pytest.raises(ValueError, match="outside"):
            traj.sample(bad)

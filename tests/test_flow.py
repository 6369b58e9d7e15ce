import math
import time

import numpy as np
import pytest

from geored import flow
from geored.calc import ScalarField
from geored.errors import BlowUp, StepLimitExceeded
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


def test_time_reversal_property():
    # forward-then-backward integration returns to the start within 10x the
    # integrator tolerance on the catalog systems
    from geored import catalog

    cases = [
        (free_3d(), np.array([0.2, -0.4, 1.0, 0.5, 0.3, -0.7]), 5.0),
        (catalog.radial_fixed_l(1.0), np.array([1.0, 0.0]), 3.0),
        (catalog.calogero_two_body(0.8), np.array([-0.6, 0.9, 0.1, -0.2]), 3.0),
        (catalog.linear_2d(1.0, 1.0, 1.0), np.array([1.0, 1.0]), 2.0),
        (catalog.so3_reduced(), np.array([1.2, 0.8, 0.1]), 3.0),
    ]
    for sys, x0, horizon in cases:
        fwd = integrate(sys, x0, 0.0, horizon)
        rev_sys = VectorFieldSystem(
            sys.dim, lambda x, s=sys: [-v for v in s.rhs(x)], sys.coord_names
        )
        back = integrate(rev_sys, fwd.states[-1], 0.0, horizon)
        assert np.max(np.abs(back.states[-1] - x0)) < 10 * 1e-9, sys.coord_names


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
    free = second_order_lift(3, lambda q, v, t: [0.0, 0.0, 0.0], FREE_NAMES)
    assert free.dim == 6
    out = free.eval_rhs([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    assert np.allclose(out, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    k = 0.8
    const = second_order_lift(1, lambda q, v, t: [2.0 * k], ("q", "v"))
    assert np.allclose(const.eval_rhs([3.0, 1.0]), [1.0, 1.6])
    radial = second_order_lift(1, lambda q, v, t: [1.0 / q[0] ** 3], ("r", "rdot"))
    assert np.allclose(radial.eval_rhs([2.0, 0.5]), [0.5, 0.125])


def test_dense_output_matches_closed_form():
    traj = integrate(harmonic(), [1.0, 0.0], 0.0, 6.0)
    ts = np.linspace(0.0, 6.0, 113)
    samples = traj.resample(ts)
    assert np.max(np.abs(samples[:, 0] - np.cos(ts))) < 1e-8


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
    from geored import cli

    traj = integrate(harmonic(), [1.0, 0.0], 0.0, 1.0)
    path = tmp_path / "traj.csv"
    cli._write_csv(path, cli._trajectory_table(traj, "t"))
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
        IntegratorConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        integrate(harmonic(), [1.0, 0.0], 1.0, 1.0)


@pytest.mark.parametrize("bad", [0.0, -1e-9, math.nan, math.inf])
@pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
def test_integrator_config_rejects_non_positive_or_non_finite(field, bad):
    with pytest.raises(ValueError, match="positive and finite"):
        IntegratorConfig(**{field: bad})


# -- batched dense output against the per-point interpolant -------------------


def _point_sample(traj, t):
    """Reference: the per-point dense output, one step's data at a time,
    with scalar arithmetic (how a single point was sampled before
    ``resample`` was batched)."""
    k = int(np.searchsorted(traj.times, t, side="right")) - 1
    k = min(max(k, 0), len(traj.h) - 1)
    t_lo, h = traj.times[k], traj.h[k]
    theta = (t - t_lo) / h
    powers = np.array([theta, theta**2, theta**3, theta**4])
    return traj.states[k] + h * (traj.coeffs[k] @ powers)


def _assert_resample_matches_points(traj, ts):
    got = traj.resample(ts)
    ref = np.asarray([_point_sample(traj, float(t)) for t in ts])
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
    assert traj.resample([ts[len(ts) // 2]])[0].tobytes() == ref[len(ts) // 2].tobytes()


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_resample_bit_identical_to_point_samples_on_catalog(tol):
    from geored import catalog
    from geored.reduce import GRID_POINTS

    cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol)
    for build in catalog.ENTRY_BUILDERS.values():
        sc = build()
        t0, t1 = sc.t_span
        grid = np.linspace(t0, t1, GRID_POINTS)
        _assert_resample_matches_points(integrate(sc.system, sc.x0, t0, t1, cfg), grid)
        x0 = sc.quotient(sc.x0)
        _assert_resample_matches_points(integrate(sc.reduced, x0, t0, t1, cfg), grid)


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
            traj.resample([bad])


# -- the lean Dormand-Prince step against the previous implementation ---------


class _ReferenceStepper:
    """The Dormand-Prince step as it was before the lean rewrite: stage times
    from the ``np.float64`` tableau, every right-hand-side output through
    ``np.asarray``, NumPy error norm and state check, and the dense-output
    coefficients ``K.T @ P`` formed per step (kept in ``self.coeffs``)."""

    made: list = []

    def __init__(self, rhs, t0, y0, cfg, autonomous=False):
        def rhs_t(t, y):
            return np.asarray(rhs(y) if autonomous else rhs(y, t), dtype=float)

        self.rhs = rhs_t
        self.t = float(t0)
        self.y = np.array(y0, dtype=float)
        self.cfg = cfg
        self.k1 = np.asarray(rhs_t(self.t, self.y), dtype=float)
        self.h = self._initial_step()
        self.steps = 0
        self.coeffs = []
        _ReferenceStepper.made.append(self)

    def _initial_step(self):
        scale = self.cfg.abs_tol + self.cfg.rel_tol * np.abs(self.y)
        d0 = np.sqrt(np.mean((self.y / scale) ** 2))
        d1 = np.sqrt(np.mean((self.k1 / scale) ** 2))
        h0 = 1e-6 if d1 < 1e-12 else 0.01 * d0 / d1
        return max(min(h0, 1.0), 1e-10)

    def reset_derivative(self):
        self.k1 = np.asarray(self.rhs(self.t, self.y), dtype=float)

    def step(self, t_limit):
        c = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
        cfg = self.cfg
        while True:
            self.steps += 1
            if self.steps > cfg.max_steps:
                raise StepLimitExceeded(self.t, cfg.max_steps)
            h = min(self.h, t_limit - self.t)
            K = np.empty((7, len(self.y)))
            K[0] = self.k1
            for s in range(1, 7):
                ys = self.y + h * (flow._DP_A[s] @ K[:s])
                K[s] = self.rhs(self.t + c[s] * h, ys)
            y_new = self.y + h * (flow._DP_B @ K)
            err = h * (flow._DP_E @ K)
            scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(self.y), np.abs(y_new))
            err_norm = np.sqrt(np.mean((err / scale) ** 2))
            if err_norm <= 1.0:
                if not np.all(np.isfinite(y_new)) or np.max(np.abs(y_new)) > flow.BLOWUP_LIMIT:
                    raise BlowUp(self.t, y_new)
                self.coeffs.append(K.T @ flow._DP_P)
                self.t = self.t + h
                self.y = y_new
                self.k1 = K[6]
                factor = 5.0 if err_norm == 0.0 else min(5.0, 0.9 * err_norm**-0.2)
                self.h = abs(h) * factor
                return self.t, self.y, (h, K)
            self.h = h * max(0.2, 0.9 * err_norm**-0.2)
            if self.h < 1e-14 * max(1.0, abs(self.t)):
                raise StepLimitExceeded(self.t, cfg.max_steps)


def _with_both_steppers(monkeypatch, run):
    """``run()`` once with the lean stepper and once with the reference one
    bound as ``flow.Dopri45Stepper`` (``integrate`` drives every RK45 flow,
    constrained and unitary ones included); each result with the steppers it
    made."""
    made = []

    class Recording(flow.Dopri45Stepper):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    out = []
    for cls, seen in ((Recording, made), (_ReferenceStepper, _ReferenceStepper.made)):
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(flow, "Dopri45Stepper", cls)
            out.append((run(), list(seen)))
    return out


def _assert_same_trajectory(lean, ref):
    (traj, (stepper,)), (ref_traj, (ref_stepper,)) = lean, ref
    for name in ("times", "states", "h"):
        got, want = getattr(traj, name), getattr(ref_traj, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    want = np.asarray(ref_stepper.coeffs)
    assert traj.coeffs.shape == want.shape
    assert traj.coeffs.tobytes() == want.tobytes()
    assert stepper.steps == ref_stepper.steps


def _catalog_systems():
    from geored import catalog

    for build in catalog.ENTRY_BUILDERS.values():
        sc = build()
        yield sc.name + ":ambient", sc.system, sc.x0, sc.t_span
        yield sc.name + ":reduced", sc.reduced, sc.quotient(sc.x0), sc.t_span


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_lean_step_bit_identical_to_reference_on_catalog(monkeypatch, tol):
    cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol)
    systems = list(_catalog_systems())
    assert len(systems) == 10
    for label, sys, x0, (t0, t1) in systems:
        lean, ref = _with_both_steppers(monkeypatch, lambda: integrate(sys, x0, t0, t1, cfg))
        _assert_same_trajectory(lean, ref)


def test_lean_step_bit_identical_to_reference_non_autonomous(monkeypatch):
    from geored import catalog

    # the published time-dependent radial flow, from the generic data of the
    # radial-time-dependent scenario (k = 2, r = 1 at rest at t = 1) and
    # from a moving start
    for k, x0 in ((2.0, [1.0, 0.0]), (0.5, [1.3, 0.4])):
        sys = catalog.radial_time_dependent(k)
        assert not sys.autonomous
        for tol in (1e-10, 1e-12):
            cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol)
            lean, ref = _with_both_steppers(monkeypatch, lambda: integrate(sys, x0, 1.0, 3.0, cfg))
            _assert_same_trajectory(lean, ref)


def test_lean_step_bit_identical_to_reference_constrained_flow(monkeypatch):
    from geored import dirac

    cset, _ = dirac.two_particle_model(1.0, 2.0, dirac.linear_potential(0.1))
    z0 = dirac.sample_on_shell(cset, np.random.default_rng(14), (1.0, 2.0))
    # a drift limit this low projects after every step, so the external state
    # change and reset_derivative run at every step as well
    for drift_limit in (1e-9, 1e-15):
        lean, ref = _with_both_steppers(
            monkeypatch,
            lambda: dirac.constrained_flow(cset, z0, (0.0, 2.0), drift_limit=drift_limit),
        )
        _assert_same_trajectory(lean, ref)


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12])
def test_lean_step_bit_identical_to_reference_evolve_unitary(monkeypatch, tol):
    from geored import qriccati

    cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol)
    H = qriccati.BlockHamiltonian(
        1, 2, np.array([[0.2]]), np.diag([0.3, -0.2]), np.array([[0.5, 0.25j]])
    )
    lean, ref = _with_both_steppers(
        monkeypatch, lambda: _evolve_unitary(H, np.eye(3), 0.0, 1.0, cfg)
    )
    (trail, (stepper,)), (ref_trail, (ref_stepper,)) = lean, ref
    assert len(trail) == len(ref_trail) > 2
    for (t, U), (ref_t, ref_U) in zip(trail, ref_trail):
        assert t == ref_t and U.tobytes() == ref_U.tobytes()
    assert stepper.steps == ref_stepper.steps


def test_rejected_attempts_counted_and_bit_identical(monkeypatch):
    # x' = -200 (x - cos t): the first step is far too long for this
    # stiffness ratio, so the controller rejects and retries
    sys = VectorFieldSystem(1, lambda x, t: [-200.0 * (x[0] - math.cos(t))], ("x",), autonomous=False)
    cfg = IntegratorConfig(abs_tol=1e-8, rel_tol=1e-8)
    lean, ref = _with_both_steppers(monkeypatch, lambda: integrate(sys, [2.0], 0.0, 1.0, cfg))
    _assert_same_trajectory(lean, ref)
    traj, (stepper,) = lean
    assert stepper.steps > len(traj.h)


def _blowup_of(run):
    with pytest.raises(BlowUp) as err:
        run()
    return err.value


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_blowup_on_large_inf_and_nan_at_reference_time(monkeypatch):
    # past 1e12 within the tolerance: y' = y^2 from y(0) = 1 reaches it near t = 1
    square = VectorFieldSystem(1, lambda x: [x[0] * x[0]], ("y",))
    # inf: a constant slope near the largest double overflows the state sum
    # while the error sum stays finite, so the step is accepted
    huge = VectorFieldSystem(1, lambda x: [1.7e308], ("y",))
    for sys in (square, huge):
        lean, ref = _with_both_steppers(
            monkeypatch, lambda: _blowup_of(lambda: integrate(sys, [1.0], 0.0, 2.0))
        )
        (err, _), (ref_err, _) = lean, ref
        assert err.t_last == ref_err.t_last
        assert err.state.tobytes() == ref_err.state.tobytes()
    assert not np.isfinite(err.state).all()
    # NaN: every stage past t = 0.5 is NaN.  RK45 rejects each NaN attempt
    # and shortens the step, as before; where the step can shrink no further
    # it raises BlowUp at the time the previous step gave up with
    # StepLimitExceeded
    nan_after = VectorFieldSystem(
        1, lambda x, t: [math.nan if t > 0.5 else 1.0], ("y",), autonomous=False
    )

    def gives_up():
        with pytest.raises((BlowUp, StepLimitExceeded)) as err:
            integrate(nan_after, [0.0], 0.0, 1.0)
        return err.value

    (err, (stepper,)), (ref_err, (ref_stepper,)) = _with_both_steppers(monkeypatch, gives_up)
    assert isinstance(err, BlowUp) and isinstance(ref_err, StepLimitExceeded)
    assert err.t_last == ref_err.t and 0.4 < err.t_last <= 0.5
    assert np.isnan(err.state).all()
    assert stepper.steps == ref_stepper.steps


def test_nan_first_derivative_raises_blowup_at_start():
    # a NaN first output makes the initial step NaN; every attempt was then
    # rejected until max_steps (10 million by default) ran out
    calls = []

    def rhs(x):
        calls.append(x)
        return [math.nan]

    start = time.perf_counter()
    err = _blowup_of(lambda: integrate(VectorFieldSystem(1, rhs, ("y",)), [1.0], 0.0, 1.0))
    assert time.perf_counter() - start < 0.5
    assert err.t_last == 0.0 and np.isnan(err.state).all()
    assert len(calls) == 7  # the first derivative and one attempt's six stages


def test_rhs_of_wrong_shape_raises():
    # negative control: -x[0] is a scalar, which broadcast over both rows
    # and integrated silently to [0.368, 4.368]
    scalar = VectorFieldSystem(2, lambda x: -x[0], ("x", "y"))
    short = VectorFieldSystem(2, lambda x: [-x[0]], ("x", "y"))
    for sys in (scalar, short):
        with pytest.raises(ValueError, match="shape"):
            integrate(sys, [1.0, 5.0], 0.0, 1.0)
    good = VectorFieldSystem(2, lambda x: [-x[0], -x[0]], ("x", "y"))
    assert np.allclose(integrate(good, [1.0, 5.0], 0.0, 1.0).states[-1], [math.exp(-1), 4 + math.exp(-1)])


def test_reset_derivative_checks_shape():
    stepper = flow.Dopri45Stepper(lambda y, t: -y, 0.0, np.array([1.0, 2.0]), IntegratorConfig())
    stepper.step(1.0)
    stepper.rhs = lambda y, t: -y[0]
    with pytest.raises(ValueError, match="shape"):
        stepper.reset_derivative()


# -- constrained and unitary flows against the stepping loops they replaced ---


def _loop_constrained_flow(cset, point0, tau_span, cfg=None, drift_limit=1e-9, hard_limit=1e-7):
    """``dirac.constrained_flow`` as it was with its own stepping loop."""
    from geored import dirac

    cfg = cfg or IntegratorConfig()
    t0, t1 = tau_span
    z0 = np.asarray(point0, dtype=float)
    cset.require_on_surface(z0, t0)

    def rhs(z, tau):
        return dirac.hamiltonian_flow_rhs(cset, z, tau)[0]

    stepper = flow.Dopri45Stepper(rhs, t0, z0, cfg)
    times = [t0]
    states = [z0.copy()]
    records = []
    while stepper.t < t1 - 1e-14 * max(1.0, abs(t1)):
        tau, z, record = stepper.step(t1)
        drift = float(np.max(np.abs(cset.values(z, tau))))
        if drift > hard_limit:
            raise dirac.ConstraintDrift(tau, drift)
        if drift > drift_limit:
            z = dirac._project_to_surface(cset, z, tau)
            stepper.y = z
            stepper.reset_derivative()
        times.append(tau)
        states.append(np.array(stepper.y))
        records.append(record)
    names = []
    for alpha in range(cset.space.particles):
        names += [f"x{mu}@{alpha}" for mu in range(4)]
        names += [f"p{mu}@{alpha}" for mu in range(4)]
    return flow.Trajectory.from_rk45(times, states, records, tuple(names))


def _polar_project(U):
    """Nearest unitary by Newton-Schulz iteration, quadratic for small
    drift: at most 8 iterations, stopping once |U^dagger U - 1| <= 1e-15."""
    Y = np.array(U, dtype=complex)
    n = len(Y)
    for _ in range(8):
        gram = Y.conj().T @ Y
        if np.linalg.norm(gram - np.eye(n)) <= 1e-15:
            break
        Y = Y @ (1.5 * np.eye(n) - 0.5 * gram)
    return Y


def _evolve_unitary(H, U0, t0, t1, cfg=None):
    """The unitary flow of ``H`` from U0 at t0 to t1, polar-projected back
    onto the group by the projection hook of ``integrate`` after every step
    that drifts past 1e-12; the trail [(t, U), ...] of its states."""
    from geored import qriccati as q

    shape = (H.dim, H.dim)

    def onto_group(t, y):
        U = q._state_to_mat(y, shape)
        return q._mat_to_state(_polar_project(U)) if q.unitarity_drift(U) > 1e-12 else y

    system = q.coset_scenario("unitary", H).system
    traj = integrate(system, q._mat_to_state(U0), t0, t1, cfg, project=onto_group)
    return [(t, q._state_to_mat(y, shape)) for t, y in zip(traj.times.tolist(), traj.states)]


def _loop_evolve_unitary(H, U0, t0, t1, cfg=None):
    """``_evolve_unitary`` with its own stepping loop."""
    from geored import qriccati as q

    cfg = cfg or IntegratorConfig()
    shape = (H.dim, H.dim)

    def rhs(y, t):
        U = q._state_to_mat(y, shape)
        return q._mat_to_state(-1j * (H.assembled @ U))

    stepper = flow.Dopri45Stepper(rhs, t0, q._mat_to_state(U0), cfg)
    trail = [(t0, np.array(U0, dtype=complex))]
    while stepper.t < t1 - 1e-14 * max(1.0, abs(t1)):
        t, y, _ = stepper.step(t1)
        U = q._state_to_mat(y, shape)
        if q.unitarity_drift(U) > 1e-12:
            U = _polar_project(U)
            stepper.y = q._mat_to_state(U)
            stepper.reset_derivative()
        trail.append((t, U.copy()))
    return trail


def _assert_same_arrays(traj, want):
    for name in ("times", "states", "h", "coeffs"):
        got, ref = getattr(traj, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name
    assert traj.coord_names == want.coord_names


def test_constrained_flow_bit_identical_to_its_stepping_loop():
    from geored import dirac

    cset, _ = dirac.two_particle_model(1.0, 2.0, dirac.linear_potential(0.1))
    z0 = dirac.sample_on_shell(cset, np.random.default_rng(14), (1.0, 2.0))
    cfg = IntegratorConfig(abs_tol=1e-11, rel_tol=1e-11)
    # a drift limit of 1e-15 projects after every step
    for drift_limit in (1e-9, 1e-15):
        for config in (None, cfg):
            args = (cset, z0, (0.0, 2.0), config, drift_limit)
            _assert_same_arrays(dirac.constrained_flow(*args), _loop_constrained_flow(*args))


def _unitary_cases(from_identity):
    from geored import cli, qriccati as q

    if not from_identity:
        # a unitary start that is not the identity
        H = q.BlockHamiltonian(1, 2, np.array([[0.4]]), np.diag([0.3, -0.2]), np.array([[0.5, 0.25j]]))
        yield H, _polar_project(np.eye(3) + 0.1j * np.arange(9).reshape(3, 3) / 9)
        return
    yield q.BlockHamiltonian(1, 1, np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1))), np.eye(2)
    for seed in (0, 7):
        H = cli._seeded_hamiltonian_n3(np.random.default_rng(seed))
        yield H, np.eye(3)


@pytest.mark.parametrize("from_identity", [False, True])
@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12])
def test_evolve_unitary_bit_identical_to_its_stepping_loop(tol, from_identity):
    # the projection hook against the stepping loop it stands for, with a
    # hook that replaces the state whenever a step drifts past 1e-12
    cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol)
    for H, U in _unitary_cases(from_identity):
        assert np.array_equal(U, np.eye(H.dim)) == from_identity
        trail = _evolve_unitary(H, U, 0.25, 1.25, cfg)
        ref_trail = _loop_evolve_unitary(H, U, 0.25, 1.25, cfg)
        assert len(trail) == len(ref_trail)
        for (t, U), (ref_t, ref_U) in zip(trail, ref_trail):
            assert t == ref_t and U.tobytes() == ref_U.tobytes()


# -- the projection hook of integrate ------------------------------------------


def _decay(calls=None):
    def rhs(x):
        if calls is not None:
            calls.append(x)
        return [-x[0]]

    return VectorFieldSystem(1, rhs, ("y",))


def test_projection_replacement_restarts_the_derivative():
    seen = []

    def double_once(t, y):
        seen.append(t)
        return 2.0 * y if len(seen) == 1 else y

    plain_calls = []
    traj = integrate(_decay(), [1.0], 0.0, 1.0, project=double_once)
    plain = integrate(_decay(plain_calls), [1.0], 0.0, 1.0)
    assert seen == list(traj.times[1:])
    # the replaced state is the one recorded ...
    assert traj.states[1][0] == 2.0 * plain.states[1][0]
    # ... and the next step starts from its own derivative, not the FSAL
    # stage of the state it replaced: dy/dt = -y at the start of step 1
    assert traj.coeffs[1][:, 0].tobytes() == (-traj.states[1]).tobytes()
    assert abs(traj.states[-1][0] - 2.0 * math.exp(-1.0)) < 1e-6
    # keeping every step changes nothing and evaluates nothing more
    kept_calls = []
    kept = integrate(_decay(kept_calls), [1.0], 0.0, 1.0, project=lambda t, y: y)
    assert kept.states.tobytes() == plain.states.tobytes()
    assert len(kept_calls) == len(plain_calls)


def test_projection_of_wrong_shape_raises():
    for bad in (lambda t, y: 1.0, lambda t, y: np.append(y, 0.0)):
        with pytest.raises(ValueError, match="projection returned shape"):
            integrate(_decay(), [1.0], 0.0, 1.0, project=bad)

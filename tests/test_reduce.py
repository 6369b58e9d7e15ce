import dataclasses
import json
import math

import numpy as np
import pytest

from geored import catalog
from geored.catalog import ENTRY_BUILDERS
from geored.errors import OffSurface, PairNotEquivalent, PreflightFailed
from geored.flow import IntegratorConfig, VectorFieldSystem, integrate
from geored.reduce import (
    GRID_POINTS,
    InvariantSurface,
    QuotientMap,
    ReductionScenario,
    check_invariant_surface,
    check_projectable,
    verify_commuting_diagram,
)


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross_sq(x):
    r, v = x[:3], x[3:6]
    c = [
        r[1] * v[2] - r[2] * v[1],
        r[2] * v[0] - r[0] * v[2],
        r[0] * v[1] - r[1] * v[0],
    ]
    return _dot3(c, c)


FREE = catalog.free_particle_3d()
RNG = np.random.default_rng(5)


def _on_l2_sample():
    # random rotation of the reference state keeps |r x v|^2 = 1
    return catalog._rotate_state([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], RNG)


def test_surface_tangency_angular_momentum():
    surface = InvariantSurface(lambda z: [_cross_sq(z)], (1.0,), tol=1e-8)
    samples = [_on_l2_sample() for _ in range(6)]
    rep = check_invariant_surface(FREE, surface, samples, [0.0] * len(samples))
    assert rep.ok and rep.worst < 1e-10


def test_surface_rejects_nonconserved_level():
    x = np.array([1.0, 0.0, 0.0, 0.5, 1.0, 0.0])
    surface = InvariantSurface(lambda z: [_dot3(z[:3], z[:3])], (1.0,), tol=1e-8)
    rep = check_invariant_surface(FREE, surface, [x], [0.0])
    assert not rep.ok
    # residual is |d(r.r)/dt| = |2 r.v|
    assert rep.worst == pytest.approx(1.0, abs=1e-12)


def test_surface_off_surface_sample_rejected():
    surface = InvariantSurface(lambda z: [_cross_sq(z)], (1.0,), tol=1e-10)
    bad = np.array([2.0, 0.0, 0.0, 0.0, 3.0, 0.0])
    with pytest.raises(OffSurface):
        check_invariant_surface(FREE, surface, [bad], [0.0])


def test_projectable_rotation_orbits():
    quotient = catalog.so3_invariants()
    pairs = []
    for _ in range(8):
        x = RNG.uniform(-1, 1, size=6)
        pairs.append((x, catalog._rotate_state(x, RNG)))
    rep = check_projectable(FREE, quotient, pairs, [0.0] * len(pairs))
    assert rep.ok and rep.worst < 1e-10


def test_projectable_scaling_orbits_linear_system():
    sys = catalog.linear_2d(1.0, 1.0, 1.0)
    xi = QuotientMap(lambda z: [z[0] / z[1]], ("xi",))
    pairs = []
    for _ in range(8):
        z = RNG.uniform(0.5, 2.0, size=2)
        pairs.append((z, catalog._scale_state(z, RNG)))
    rep = check_projectable(sys, xi, pairs, [0.0] * len(pairs))
    assert rep.ok and rep.worst <= 1e-12


def test_projectable_fails_for_insufficient_invariants():
    quotient = QuotientMap(lambda x: [_dot3(x[:3], x[:3])], ("r2",))
    # same r.r but unrelated velocities: the pushforward 2 r.v differs
    m = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    m2 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    rep = check_projectable(FREE, quotient, [(m, m2)], [0.0])
    assert not rep.ok


def test_reduced_field_free_quotient_values():
    quotient = catalog.so3_invariants()
    x = np.array([0.4, -0.7, 0.1, 0.5, 0.2, -0.9])
    out = quotient.pushforward(FREE, x)
    xi2 = _dot3(x[3:], x[3:])
    xi3 = _dot3(x[:3], x[3:])
    assert out[0] == pytest.approx(2.0 * xi3, abs=1e-12)
    assert out[1] == pytest.approx(0.0, abs=1e-12)
    assert out[2] == pytest.approx(xi2, abs=1e-12)


def test_reduced_field_riccati_value():
    sys = catalog.linear_2d(1.0, 1.0, 1.0)
    xi = QuotientMap(lambda z: [z[0] / z[1]], ("xi",))
    assert xi.pushforward(sys, [1.0, 1.0])[0] == pytest.approx(2.0, abs=1e-12)


def test_commuting_diagram_so3_against_closed_form():
    scenario = ENTRY_BUILDERS["so3-quotient"]()
    report = verify_commuting_diagram(scenario)
    assert report.max_dev < 1e-7
    # closed form of the projected flow for the free ambient system
    x0 = scenario.x0
    xi1, xi2, xi3 = (
        _dot3(x0[:3], x0[:3]),
        _dot3(x0[3:], x0[3:]),
        _dot3(x0[:3], x0[3:]),
    )
    t = scenario.t_span[1]
    from geored.flow import integrate

    traj = integrate(scenario.reduced, [xi1, xi2, xi3], 0.0, t)
    expected = [xi1 + 2 * xi3 * t + xi2 * t * t, xi2, xi3 + xi2 * t]
    assert np.max(np.abs(traj.states[-1] - expected)) < 1e-8


def test_commuting_diagram_riccati():
    report = verify_commuting_diagram(ENTRY_BUILDERS["riccati-classical"]())
    assert report.max_dev < 1e-8


def test_diagram_refuses_without_preflight():
    # claim a non-conserved surface: preflight must refuse
    so3 = ENTRY_BUILDERS["so3-quotient"]()
    bad = ReductionScenario(
        name="bogus",
        system=so3.system,
        reduced=so3.reduced,
        quotient=so3.quotient,
        orbit_map=so3.orbit_map,
        x0=so3.x0,
        t_span=(0.0, 1.0),
        surface=InvariantSurface(
            lambda x: [_dot3(x[:3], x[:3])],
            (float(_dot3(so3.x0[:3], so3.x0[:3])),),
            tol=1e6,  # membership passes; tangency cannot
        ),
    )
    with pytest.raises(PreflightFailed):
        verify_commuting_diagram(bad)


def test_diagram_deviation_scales_with_tolerance():
    # tightening the integrator tolerance 100x must win at least 10x in
    # diagram deviation on every catalog scenario, unless the loose run is
    # already at the rounding floor (the free quotient flow is polynomial
    # and lands at ~1e-14 regardless of tolerance)
    for build in ENTRY_BUILDERS.values():
        scenario = build()
        devs = []
        for tol in (1e-6, 1e-8):
            cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol)
            devs.append(verify_commuting_diagram(scenario, cfg).max_dev)
        if devs[0] < 1e-12:
            continue
        assert devs[1] < devs[0] / 10.0, scenario.name


def test_restriction_and_reduction_commute():
    # fixing xi2 = k before or after projecting gives the same flow
    from geored.flow import integrate

    x0 = np.array([0.7, -0.2, 0.4, 0.1, 0.5, -0.3])
    xi1 = _dot3(x0[:3], x0[:3])
    xi2 = _dot3(x0[3:], x0[3:])
    xi3 = _dot3(x0[:3], x0[3:])
    full = integrate(catalog.so3_reduced(), [xi1, xi2, xi3], 0.0, 4.0)
    restricted = integrate(catalog.so3_fixed_energy(xi2), [xi1, xi3], 0.0, 4.0)
    ts = np.linspace(0, 4.0, 101)
    a = full.resample(ts)[:, [0, 2]]
    b = restricted.resample(ts)
    assert np.max(np.abs(a - b)) < 1e-8


def _riccati_to_one():
    return dataclasses.replace(ENTRY_BUILDERS["riccati-classical"](), t_span=(0.0, 1.0))


def test_report_json_schema():
    report = verify_commuting_diagram(_riccati_to_one())
    payload = json.loads(json.dumps(report.body()))
    # the deviation is reported, not judged: the scenario's gate is the verdict
    assert set(payload) == {"scenario", "max_dev", "samples", "events"}
    assert payload["max_dev"] < 1e-6


def test_report_carries_ambient_trajectory_outside_json_and_equality():
    scenario = _riccati_to_one()
    report = verify_commuting_diagram(scenario)
    assert report.ambient.times[0] == 0.0 and report.ambient.times[-1] == 1.0
    assert np.array_equal(report.ambient.states[0], scenario.x0)
    bare = dataclasses.replace(report, ambient=None)
    assert report == bare
    assert repr(report) == repr(bare)
    assert report.body() == bare.body()


def test_projectability_rejects_unrelated_pair():
    from geored.errors import PairNotEquivalent

    quotient = catalog.so3_invariants()
    m = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    m2 = np.array([5.0, 0.0, 0.0, 0.0, 1.0, 0.0])  # different invariants
    with pytest.raises(PairNotEquivalent):
        check_projectable(FREE, quotient, [(m, m2)], [0.0])


# -- one joint map per quotient and per level set ------------------------------


class _Counted:
    """A joint map that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def test_quotient_and_surface_call_their_map_once_per_point():
    so3 = catalog.so3_invariants()
    xi = _Counted(so3.fn)
    quotient = QuotientMap(xi, so3.names)
    x = [0.4, -0.7, 0.1, 0.5, 0.2, -0.9]
    assert quotient(x).tobytes() == so3(x).tobytes() and xi.calls == 1
    assert quotient.pushforward(FREE, x).tobytes() == so3.pushforward(FREE, x).tobytes()
    assert xi.calls == 2
    pairs = [(x, catalog._rotate_state(x, RNG)) for _ in range(3)]
    check_projectable(FREE, quotient, pairs, [0.0] * 3)
    # each point of a pair: its class label and its velocity
    assert xi.calls == 2 + 4 * 3

    l2 = _Counted(lambda z: [_cross_sq(z)])
    surface = InvariantSurface(l2, (1.0,), tol=1e-8)
    sample = _on_l2_sample()
    assert abs(surface.residuals(sample)[0]) < 1e-12 and l2.calls == 1
    samples = [_on_l2_sample() for _ in range(4)]
    assert check_invariant_surface(FREE, surface, samples, [0.0] * 4).ok
    # each sample: its membership, then every rate from one tangent evaluation
    assert l2.calls == 1 + 2 * 4


@pytest.mark.parametrize("count", [1, 3])
def test_quotient_map_of_the_wrong_length_raises(count):
    # two names: one value would broadcast against two reduced coordinates,
    # three would be cut short
    quotient = QuotientMap(lambda z: [z[0] / z[1]] * count, ("a", "b"))
    with pytest.raises(ValueError):
        quotient([1.0, 2.0])
    scenario = ReductionScenario(
        name="wrong-length",
        system=catalog.linear_2d(1.0, 1.0, 1.0),
        reduced=VectorFieldSystem(2, lambda y: [y[0], y[1]], ("a", "b")),
        quotient=quotient,
        orbit_map=catalog._scale_state,
        x0=np.array([1.0, 1.0]),
        t_span=(0.0, 0.1),
    )
    with pytest.raises(ValueError):
        verify_commuting_diagram(scenario)


@pytest.mark.parametrize("count", [0, 2])
def test_surface_map_of_the_wrong_length_raises(count):
    surface = InvariantSurface(lambda z: [_cross_sq(z)] * count, (1.0,))
    x = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        surface.residuals(x)
    with pytest.raises(ValueError):
        surface.require_on_surface(x)
    with pytest.raises(ValueError):
        check_invariant_surface(FREE, surface, [x], [0.0])


# -- non-autonomous fields in the preflight -----------------------------------


def _spiral_out():
    """(-y + t x, x + t y): tangent to the unit circle at t = 0 only."""
    return VectorFieldSystem(
        2, lambda z, t: [-z[1] + t * z[0], z[0] + t * z[1]], ("x", "y"), autonomous=False
    )


def _circle(tol):
    return InvariantSurface(lambda z: [z[0] * z[0] + z[1] * z[1]], (1.0,), tol)


def test_surface_check_evaluates_field_at_sample_time():
    sys = _spiral_out()
    x = np.array([1.0, 0.0])
    assert check_invariant_surface(sys, _circle(1e-8), [x], [0.0]).worst == 0.0
    rep = check_invariant_surface(sys, _circle(1e-8), [x], [0.5])
    assert not rep.ok
    # d(x^2 + y^2)/dt = 2 t (x^2 + y^2)
    assert rep.worst == pytest.approx(1.0, abs=1e-15)


def test_projectability_evaluates_field_at_pair_time():
    # x' = t y, y' = 0: the pushforward of x is t y, different on (1, 0) and (1, 1)
    sys = VectorFieldSystem(2, lambda z, t: [t * z[1], 0.0], ("x", "y"), autonomous=False)
    quotient = QuotientMap(lambda z: [z[0]], ("x",))
    pair = (np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    assert check_projectable(sys, quotient, [pair], [0.0]).ok
    rep = check_projectable(sys, quotient, [pair], [0.5])
    assert not rep.ok and rep.worst == 0.5


def test_non_autonomous_field_leaving_the_surface_fails_preflight():
    def rotate(z, rng):
        a = rng.uniform(0.3, 2.8)
        return np.array([np.cos(a) * z[0] - np.sin(a) * z[1], np.sin(a) * z[0] + np.cos(a) * z[1]])

    scenario = ReductionScenario(
        name="spiral-out",
        system=_spiral_out(),
        # r^2 = exp(t^2) stays within 3e-3 of the circle up to t = 0.05
        reduced=VectorFieldSystem(1, lambda y, t: [2.0 * t * y[0]], ("r2",), autonomous=False),
        quotient=QuotientMap(_circle(1e-2).fn, ("r2",)),
        orbit_map=rotate,
        x0=np.array([1.0, 0.0]),
        t_span=(0.0, 0.05),
        surface=_circle(1e-2),
    )
    with pytest.raises(PreflightFailed, match="surface tangency"):
        verify_commuting_diagram(scenario)


def _diagram_scenarios():
    """Every reduction scenario of the registry, built as its runner builds
    it at seed 0."""
    from geored import cli, qriccati

    yield from (build() for build in ENTRY_BUILDERS.values())
    yield catalog.entry_cross_ratio()
    yield qriccati.coset_scenario("qriccati-pauli", cli._PAULI_X)
    n3 = cli._seeded_hamiltonian_n3(cli._rng_for("qriccati-n3", 0))
    yield qriccati.coset_scenario("qriccati-n3", n3)


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_diagram_projection_bit_identical_to_array_rows(tol):
    # the grid states are projected in one pass on their columns; each
    # invariant must give the bits it gives on each row, as a numpy row and
    # as Python floats
    cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol)
    for sc in _diagram_scenarios():
        t0, t1 = sc.t_span
        report = verify_commuting_diagram(sc, cfg)
        grid = np.linspace(t0, t1, GRID_POINTS)
        rows = report.ambient.resample(grid)
        projected = sc.quotient.columns(rows)
        per_row = np.asarray([sc.quotient(row) for row in rows])
        as_floats = np.asarray([sc.quotient(row) for row in rows.tolist()])
        assert projected.tobytes() == per_row.tobytes() == as_floats.tobytes(), sc.name
        reduced = integrate(sc.reduced, sc.quotient(sc.x0), t0, t1, cfg)
        assert report.max_dev == float(np.max(np.abs(projected - reduced.resample(grid))))


def test_column_pass_broadcasts_constants_and_checks_the_length():
    rows = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 8.0]])
    quotient = QuotientMap(lambda z: [z[0] / z[1], 0.5], ("xi", "half"))
    assert quotient.columns(rows).tolist() == [[0.5, 0.5], [0.75, 0.5], [0.625, 0.5]]
    for count in (1, 3):
        short_or_long = QuotientMap(lambda z: [z[0] / z[1]] * count, ("a", "b"))
        with pytest.raises(ValueError, match="values for 2 names"):
            short_or_long.columns(rows)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_quotient_dividing_by_zero_at_one_grid_state_does_not_pass():
    # x/y written as x (y - c) / (y (y - c)), with c the y of one grid state
    # that preflight does not sample: 0/0 there, x/y everywhere else
    sc = ENTRY_BUILDERS["riccati-classical"]()
    t0, t1 = sc.t_span
    grid = np.linspace(t0, t1, GRID_POINTS)
    c = integrate(sc.system, sc.x0, t0, t1).resample(grid)[1][1]
    xi = QuotientMap(lambda z: [z[0] * (z[1] - c) / (z[1] * (z[1] - c))], ("xi",))
    report = verify_commuting_diagram(dataclasses.replace(sc, quotient=xi))
    assert not report.max_dev <= 1e-6
    assert math.isnan(report.max_dev)


# -- guards fail closed on NaN --------------------------------------------------


@pytest.mark.parametrize("index", [0, 4])
def test_require_on_surface_rejects_nan_coordinate(index):
    surface = InvariantSurface(lambda z: [_cross_sq(z)], (1.0,))
    x = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    surface.require_on_surface(x)
    x[index] = math.nan
    with pytest.raises(OffSurface) as err:
        surface.require_on_surface(x)
    assert math.isnan(err.value.residual)


@pytest.mark.parametrize("index", [0, 2])
def test_surface_tangency_rejects_nan_velocity(index):
    # |v|^2 reads no position velocity, so its rate stays finite (0) while
    # the speed that scales the tolerance is NaN
    def rhs(x):
        out = list(x[3:]) + [0.0, 0.0, 0.0]
        out[index] = math.nan
        return out

    sys = VectorFieldSystem(6, rhs, tuple("abcdef"))
    surface = InvariantSurface(lambda z: [_dot3(z[3:], z[3:])], (1.0,))
    rep = check_invariant_surface(sys, surface, [[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]], [0.0])
    assert not rep.ok and math.isnan(rep.worst)


@pytest.mark.parametrize("which", [0, 1])
def test_projectable_rejects_nan_pair_point(which):
    pair = [np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0, -1.0, 0.0, 0.0])]
    pair[which][3] = math.nan
    with pytest.raises(PairNotEquivalent):
        check_projectable(FREE, catalog.so3_invariants(), [tuple(pair)], [0.0])


class _NaNVelocityQuotient(QuotientMap):
    """``pushforward`` checks its tangents and never returns NaN; this one
    puts a NaN velocity behind that check, at points with x[0] < 0."""

    def pushforward(self, sys, x, t=0.0):
        out = super().pushforward(sys, x, t)
        return out * math.nan if x[0] < 0.0 else out


@pytest.mark.parametrize("which", [0, 1])
def test_projectable_rejects_nan_velocity(which):
    so3 = catalog.so3_invariants()
    quotient = _NaNVelocityQuotient(so3.fn, so3.names)
    m = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    pair = (m, -m) if which else (-m, m)
    rep = check_projectable(FREE, quotient, [pair], [0.0])
    assert not rep.ok and math.isnan(rep.worst)

"""Constructors for the classical reduction examples: radial reductions of
free motion, the two-body Calogero system from free symmetric-matrix motion,
the rotation-invariant quotient, and scalar Riccati flow from a linear
system, each packaged as a ready-to-verify ReductionScenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from geored import dualnum as dn
from geored.errors import DegenerateSpectrum, OriginExcluded, SingularTime
from geored.flow import Trajectory, VectorFieldSystem, second_order_lift
from geored.reduce import InvariantSurface, QuotientMap, ReductionScenario

SQRT2 = np.sqrt(2.0)


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross_sq(x):
    r, v = x[:3], x[3:6]
    c1 = r[1] * v[2] - r[2] * v[1]
    c2 = r[2] * v[0] - r[0] * v[2]
    c3 = r[0] * v[1] - r[1] * v[0]
    return c1 * c1 + c2 * c2 + c3 * c3


# -- ambient systems ---------------------------------------------------------


def free_particle_3d() -> VectorFieldSystem:
    """Free unit-mass particle on R^3 in (r, v) coordinates."""
    return VectorFieldSystem(
        6,
        lambda x: [x[3], x[4], x[5], 0.0, 0.0, 0.0],
        ("rx", "ry", "rz", "vx", "vy", "vz"),
    )


def radial_fixed_l(l: float) -> VectorFieldSystem:
    """Radial motion at fixed angular momentum: r'' = l^2 / r^3."""
    return second_order_lift(
        1,
        lambda q, v, t: [l * l / q[0] ** 3],
        coord_names=("r", "rdot"),
    )


def radial_fixed_E(E: float) -> VectorFieldSystem:
    """Radial motion at fixed energy: r'' = 2E/r - rdot^2/r."""
    return second_order_lift(
        1,
        lambda q, v, t: [2.0 * E / q[0] - v[0] * v[0] / q[0]],
        coord_names=("r", "rdot"),
    )


def radial_convex(alpha: float, k: float, E: float) -> VectorFieldSystem:
    """Radial force from a convex combination of the two invariant levels,
    implemented exactly as published:
    r'' = (alpha k^2 + (1 - alpha)(2E - rdot^2) r^2) / r^3."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")

    def force(q, v, t):
        r = q[0]
        return [(alpha * k * k + (1.0 - alpha) * (2.0 * E - v[0] * v[0]) * r * r) / r**3]

    return second_order_lift(1, force, coord_names=("r", "rdot"))


def radial_time_dependent(k: float) -> VectorFieldSystem:
    """Time-dependent radial reduction, implemented verbatim from the
    published display:

        r'' = k^2/(r t^2) + 2 rdot/t - 1/(r t^2) - rdot^2/r

    The third term is dimensionally suspect (re-deriving from the moving
    level set gives -r/t^2, which agrees only on the r = 1 stratum); see
    ``radial_time_dependent_consistency`` for the flow-level comparison,
    which is reported rather than patched.
    """

    def force(q, v, t):
        if t == 0.0:
            raise SingularTime("time-dependent radial force undefined at t = 0")
        r, rd = q[0], v[0]
        return [k * k / (r * t * t) + 2.0 * rd / t - 1.0 / (r * t * t) - rd * rd / r]

    return second_order_lift(
        1, force, coord_names=("r", "rdot"), autonomous=False
    )


def radial_time_dependent_consistency(
    k: float,
    x0_3d: Sequence[float],
    t0: float = 1.0,
    t1: float = 3.0,
    cfg=None,
) -> float:
    """Max deviation between the published time-dependent reduced flow and
    the radial part of the matching ambient free flow.

    The ambient data must satisfy |r - v t0| = k at t0 (the moving level
    set).  A zero return certifies the printed equation on that data; a
    large value quantifies the suspect term.
    """
    from geored.flow import IntegratorConfig, integrate

    cfg = cfg or IntegratorConfig()
    r0 = np.asarray(x0_3d[:3], dtype=float)
    v0 = np.asarray(x0_3d[3:], dtype=float)
    anchor = r0 - v0 * t0
    if not abs(np.linalg.norm(anchor) - abs(k)) <= 1e-9:
        raise ValueError("ambient data not on the moving level set for this k")

    def radial_state(t):
        r_vec = anchor + v0 * t
        r = float(np.linalg.norm(r_vec))
        return r, float(r_vec @ v0) / r

    reduced = radial_time_dependent(k)
    x0 = radial_state(t0)
    traj = integrate(reduced, x0, t0, t1, cfg)
    ts = np.linspace(t0, t1, 200)
    reduced_r = traj.resample(ts)[:, 0]
    ambient_r = np.asarray([radial_state(t)[0] for t in ts])
    return float(np.max(np.abs(reduced_r - ambient_r)))


def matrix_free_symmetric() -> VectorFieldSystem:
    """Free motion of a symmetric 2x2 matrix in the (x1, x2, x3) chart."""
    return VectorFieldSystem(
        6,
        lambda x: [x[3], x[4], x[5], 0.0, 0.0, 0.0],
        ("x1", "x2", "x3", "x1dot", "x2dot", "x3dot"),
    )


def state_to_matrices(x) -> tuple[np.ndarray, np.ndarray]:
    X = np.array([[x[0], x[1] / SQRT2], [x[1] / SQRT2, x[2]]])
    Xd = np.array([[x[3], x[4] / SQRT2], [x[4] / SQRT2, x[5]]])
    return X, Xd


def angular_constant(x):
    """(1/2) Tr(M alpha) with alpha the unit antisymmetric matrix; equals
    phidot (q2 - q1)^2 in eigen-coordinates.  Written generically so the
    dual scheme can differentiate it."""
    # closed form of (1/2)Tr([X, Xd] @ alpha) for the symmetric chart
    return (x[4] * (x[2] - x[0]) - x[1] * (x[5] - x[3])) / SQRT2


def eigen_decompose_tracked(traj: Trajectory):
    """Continuous eigen-branches (q1, q2) and unwrapped mixing angle phi
    along a matrix-system trajectory; a spectral gap below 1e-10 raises
    DegenerateSpectrum.

    Branches start ordered q1 <= q2 and continue by nearest-neighbor
    matching, never re-sorting; phi comes from atan2 on the off-diagonal
    data and is unwrapped to a continuous representative.
    """
    states = traj.states
    u = SQRT2 * states[:, 1]  # sin-like component
    w = states[:, 2] - states[:, 0]  # cos-like component
    mean = 0.5 * (states[:, 0] + states[:, 2])
    gap = np.sqrt(w * w + u * u)
    for t, g in zip(traj.times, gap):
        if g < 1e-10:
            raise DegenerateSpectrum(float(t), float(g))

    q1 = np.empty(len(states))
    q2 = np.empty(len(states))
    q1[0], q2[0] = mean[0] - gap[0] / 2.0, mean[0] + gap[0] / 2.0
    for i in range(1, len(states)):
        lo, hi = mean[i] - gap[i] / 2.0, mean[i] + gap[i] / 2.0
        keep = abs(lo - q1[i - 1]) + abs(hi - q2[i - 1])
        swap = abs(hi - q1[i - 1]) + abs(lo - q2[i - 1])
        q1[i], q2[i] = (lo, hi) if keep <= swap else (hi, lo)

    two_phi = np.unwrap(np.arctan2(u / (q2 - q1), w / (q2 - q1)))
    return q1, q2, two_phi / 2.0


def calogero_two_body(g: float) -> VectorFieldSystem:
    """Two-body Calogero dynamics: repulsive inverse-cube pair force."""

    def force(q, v, t):
        d = q[1] - q[0]
        f = 2.0 * g * g / d**3
        return [-f, f]

    return second_order_lift(
        2,
        force,
        coord_names=("q1", "q2", "q1dot", "q2dot"),
    )


def so3_invariants() -> QuotientMap:
    """The rotation-invariant chart (|r|^2, |v|^2, r.v) on (r, v) space."""

    def xi(x):
        r, v = x[:3], x[3:6]
        return [_dot3(r, r), _dot3(v, v), _dot3(r, v)]

    return QuotientMap(xi, ("xi1", "xi2", "xi3"))


def so3_reduced() -> VectorFieldSystem:
    """Free motion projected to the invariant chart (|r|^2, |v|^2, r.v)."""
    return VectorFieldSystem(3, lambda xi: [2.0 * xi[2], 0.0, xi[1]], ("xi1", "xi2", "xi3"))


def so3_fixed_energy(k: float) -> VectorFieldSystem:
    """Free quotient flow restricted to the xi2 = k level: a constant-force
    particle in the (xi1, xi3) chart."""
    return VectorFieldSystem(2, lambda y: [2.0 * y[1], k], ("xi1", "xi3"))


def so3_fixed_l(l: float) -> VectorFieldSystem:
    """Free quotient flow on the fixed angular-momentum relation
    xi2 = (xi3^2 + l^2)/xi1; substituting xi1 = eta^2 recovers the radial
    inverse-cube system."""
    return VectorFieldSystem(
        2,
        lambda y: [2.0 * y[1], (y[1] * y[1] + l * l) / y[0]],
        ("xi1", "xi3"),
    )


def riccati_scalar(a: float, b: float, c: float) -> VectorFieldSystem:
    """Scalar Riccati flow xi' = c + 2b xi - a xi^2 with constant
    coefficients."""

    def rhs(x):
        xi = x[0]
        return [c + 2.0 * b * xi - a * xi * xi]

    return VectorFieldSystem(1, rhs, ("xi",))


def linear_2d(a: float, b: float, c: float) -> VectorFieldSystem:
    """Linear flow (x, y)' = (b x + c y, a x - b y) whose projective
    reduction is the scalar Riccati equation."""
    return VectorFieldSystem(
        2,
        lambda z: [b * z[0] + c * z[1], a * z[0] - b * z[1]],
        ("x", "y"),
    )


def riccati_zeta_coefficients(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Coefficients of the Riccati equation obeyed by the complementary
    chart zeta = y/x: differentiate zeta along the linear flow to get
    zeta' = a - 2b zeta - c zeta^2, i.e. (a', b', c') = (c, -b, a)."""
    return c, -b, a


@dataclass
class ChartPoint:
    chart: str  # "xi" (x/y) or "zeta" (y/x)
    value: float


def project_projective(states: np.ndarray) -> tuple[list[ChartPoint], list[int]]:
    """Chart-aware projection of a planar trajectory to the projective line.

    Uses xi = x/y while |y| >= |x| and zeta = y/x otherwise, with a 5 %
    hysteresis band to avoid chatter at |x| = |y|; returns the per-sample
    chart values and the indices where the chart switched.
    """
    points: list[ChartPoint] = []
    switches: list[int] = []
    chart = None
    for i, (x, y) in enumerate(states):
        if x == 0.0 and y == 0.0:
            raise OriginExcluded("projective charts exclude the origin")
        if chart is None:
            chart = "xi" if abs(y) >= abs(x) else "zeta"
        elif chart == "xi" and abs(y) < 0.95 * abs(x):
            chart = "zeta"
            switches.append(i)
        elif chart == "zeta" and abs(x) < 0.95 * abs(y):
            chart = "xi"
            switches.append(i)
        points.append(
            ChartPoint(chart, x / y if chart == "xi" else y / x)
        )
    return points, switches


def cross_ratio(w1, w2, w3, w4):
    return ((w1 - w3) * (w2 - w4)) / ((w1 - w4) * (w2 - w3))


# -- scenario registry -------------------------------------------------------


def _rotation_matrix(rng) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.3, 2.8)
    K = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def _rotate_state(x, rng) -> np.ndarray:
    R = _rotation_matrix(rng)
    out = np.empty(6)
    out[:3] = R @ np.asarray(x[:3], dtype=float)
    out[3:] = R @ np.asarray(x[3:6], dtype=float)
    return out


def _conjugate_matrix_state(x, rng) -> np.ndarray:
    psi = rng.uniform(0.3, 2.8)
    G = np.array([[np.cos(psi), np.sin(psi)], [-np.sin(psi), np.cos(psi)]])
    X, Xd = state_to_matrices(x)
    Xr, Xdr = G @ X @ G.T, G @ Xd @ G.T
    return np.array(
        [Xr[0, 0], SQRT2 * Xr[0, 1], Xr[1, 1], Xdr[0, 0], SQRT2 * Xdr[0, 1], Xdr[1, 1]]
    )


def _scale_state(x, rng) -> np.ndarray:
    lam = rng.uniform(0.5, 2.0)
    return lam * np.asarray(x, dtype=float)


def _radial_quotient() -> QuotientMap:
    def radial(x):
        r = dn.sqrt(_dot3(x[:3], x[:3]))
        return [r, _dot3(x[:3], x[3:6]) / r]

    return QuotientMap(radial, ("r", "rdot"))


def entry_radial_l() -> ReductionScenario:
    x0 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    l2 = float(_cross_sq(x0))
    return ReductionScenario(
        name="radial-l",
        system=free_particle_3d(),
        reduced=radial_fixed_l(np.sqrt(l2)),
        quotient=_radial_quotient(),
        orbit_map=_rotate_state,
        x0=x0,
        t_span=(0.0, 5.0),
        surface=InvariantSurface(lambda x: [_cross_sq(x)], (l2,), tol=1e-8),
        notes="free flow restricted to a fixed angular-momentum level",
    )


def entry_radial_E() -> ReductionScenario:
    x0 = np.array([1.0, 0.0, 0.0, 0.3, 1.1, 0.0])
    two_E = float(_dot3(x0[3:], x0[3:]))
    return ReductionScenario(
        name="radial-E",
        system=free_particle_3d(),
        reduced=radial_fixed_E(two_E / 2.0),
        quotient=_radial_quotient(),
        orbit_map=_rotate_state,
        x0=x0,
        t_span=(0.0, 5.0),
        surface=InvariantSurface(
            lambda x: [_dot3(x[3:6], x[3:6])], (two_E,), tol=1e-8
        ),
        notes="free flow restricted to a fixed kinetic-energy level",
    )


def _eigen_quotient() -> QuotientMap:
    def eigen(x):
        w, u = x[2] - x[0], SQRT2 * x[1]
        wd, ud = x[5] - x[3], SQRT2 * x[4]
        gap = dn.sqrt(w * w + u * u)
        rate = (w * wd + u * ud) / gap
        mean, mean_rate = x[0] + x[2], x[3] + x[5]
        return [
            (mean - gap) / 2.0,
            (mean + gap) / 2.0,
            (mean_rate - rate) / 2.0,
            (mean_rate + rate) / 2.0,
        ]

    return QuotientMap(eigen, ("q1", "q2", "q1dot", "q2dot"))


def entry_calogero() -> ReductionScenario:
    x0 = np.array([1.0, 0.3, -0.8, 0.2, 0.5, -0.1])
    g = float(angular_constant(x0))
    return ReductionScenario(
        name="calogero-from-matrix",
        system=matrix_free_symmetric(),
        reduced=calogero_two_body(g),
        quotient=_eigen_quotient(),
        orbit_map=_conjugate_matrix_state,
        x0=x0,
        t_span=(0.0, 5.0),
        surface=InvariantSurface(lambda x: [angular_constant(x)], (g,), tol=1e-8),
        notes="eigenvalues of free symmetric-matrix motion obey the pair dynamics",
    )


def entry_so3() -> ReductionScenario:
    return ReductionScenario(
        name="so3-quotient",
        system=free_particle_3d(),
        reduced=so3_reduced(),
        quotient=so3_invariants(),
        orbit_map=_rotate_state,
        x0=np.array([0.7, -0.2, 0.4, 0.1, 0.5, -0.3]),
        t_span=(0.0, 5.0),
        notes="free flow projected to the rotation-invariant chart",
    )


def entry_riccati() -> ReductionScenario:
    a = b = c = 1.0
    return ReductionScenario(
        name="riccati-classical",
        system=linear_2d(a, b, c),
        reduced=riccati_scalar(a, b, c),
        quotient=QuotientMap(lambda z: [z[0] / z[1]], ("xi",)),
        orbit_map=_scale_state,
        x0=np.array([1.0, 1.0]),
        t_span=(0.0, 3.0),
        notes="linear planar flow projected to the x/y chart",
    )


ENTRY_BUILDERS: dict[str, Callable[[], ReductionScenario]] = {
    "radial-l": entry_radial_l,
    "radial-E": entry_radial_E,
    "calogero-from-matrix": entry_calogero,
    "so3-quotient": entry_so3,
    "riccati-classical": entry_riccati,
}

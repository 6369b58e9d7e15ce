"""Canonical brackets on multi-particle relativistic phase space, constraint
sets, Dirac brackets, constrained evolution, the two-particle interacting
model in the gauge of a time covector, the world-line-condition residual,
and the deformed position-Lorentz bracket algebra.

Phase functions are callables ``f(z, tau)`` on the 8N-dimensional chart
(x_1^0..3, p_1^0..3, x_2^0..3, ...); the evolution parameter rides along as
an explicit argument, never as a coordinate.  All brackets thread the dual
scheme, so brackets of brackets (Jacobi checks) nest transparently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from geored.calc import ScalarField, _jvp, gradient, jacobian
from geored.dualnum import is_dual, real_part
from geored.errors import (
    ConstraintDrift,
    GeoredError,
    SingularConstraintMatrix,
    nan_max,
    require_on_surface,
)
from geored.flow import IntegratorConfig, Trajectory, VectorFieldSystem, integrate
from geored.lagsym import ETA, _apply_plan, _dot, _eliminate, lower, minkowski_dot

# a point is on the constraint surface when every |constraint| is within this
SURFACE_TOL = 1e-9
# the constraint residual at which the energy Newton solve and the
# Gauss-Newton projection onto the surface stop
NEWTON_TOL = 1e-12
# constrained_flow aborts once the constraints drift past this
HARD_DRIFT_LIMIT = 1e-7
# a constraint matrix whose condition number reaches this is singular
COND_LIMIT = 1e10


@dataclass(frozen=True)
class PhaseSpace:
    particles: int

    @property
    def dim(self) -> int:
        return 8 * self.particles

    def ix(self, alpha: int, mu: int) -> int:
        return 8 * alpha + mu

    def ip(self, alpha: int, mu: int) -> int:
        return 8 * alpha + 4 + mu

    def x(self, z, alpha: int):
        return [z[self.ix(alpha, mu)] for mu in range(4)]

    def p(self, z, alpha: int):
        return [z[self.ip(alpha, mu)] for mu in range(4)]

    @functools.cached_property
    def canonical_pairs(self) -> tuple:
        """(x index, p index, metric sign) of every canonical pair, particle
        by particle: the terms of every bracket and Hamiltonian field."""
        return tuple(
            (self.ix(alpha, mu), self.ip(alpha, mu), ETA[mu])
            for alpha in range(self.particles)
            for mu in range(4)
        )


def as_phase_fn(f) -> Callable:
    """Accept ScalarField or raw callable; normalize to f(z, tau)."""
    if isinstance(f, ScalarField):
        return lambda z, tau: f(z)
    return f


@functools.cache  # one object per coordinate, so frames share its gradient
def coordinate_fn(space: PhaseSpace, kind: str, alpha: int, mu: int) -> Callable:
    idx = space.ix(alpha, mu) if kind == "x" else space.ip(alpha, mu)
    return lambda z, tau: z[idx]


def _grad_z(fn: Callable, z, tau):
    """Gradient of a phase function in the coordinates, tau held fixed."""
    return gradient(ScalarField(len(z), lambda xs: fn(xs, tau)), z)


def _constraint_rows(cset: "ConstraintSet", z, tau) -> list:
    """Gradients of every constraint, one row each, from one seeding of the
    set's joint map ``phi``."""
    return jacobian(lambda xs: cset.phi(xs, tau), z)


def _pb_from_grads(space: PhaseSpace, df, dg):
    total = 0.0
    for i, j, d in space.canonical_pairs:
        total = total + d * (df[i] * dg[j] - df[j] * dg[i])
    return total


@dataclass(frozen=True)
class PoincareGenerator:
    label: str
    fn: Callable


def poincare_generators(space: PhaseSpace) -> list[PoincareGenerator]:
    """The six rotation-boost generators J_{mu nu} (mu < nu) and the four
    translation generators P_mu, summed over particles, lowered indices."""
    gens = []

    def make_j(mu, nu):
        def fn(z, tau):
            total = 0.0
            for alpha in range(space.particles):
                x = space.x(z, alpha)
                p = space.p(z, alpha)
                total = total + (
                    ETA[mu] * x[mu] * ETA[nu] * p[nu]
                    - ETA[nu] * x[nu] * ETA[mu] * p[mu]
                )
            return total

        return PoincareGenerator(f"J{mu}{nu}", fn)

    def make_p(mu):
        def fn(z, tau):
            total = 0.0
            for alpha in range(space.particles):
                total = total + ETA[mu] * space.p(z, alpha)[mu]
            return total

        return PoincareGenerator(f"P{mu}", fn)

    for mu in range(4):
        for nu in range(mu + 1, 4):
            gens.append(make_j(mu, nu))
    for mu in range(4):
        gens.append(make_p(mu))
    return gens


class ConstraintRole(Enum):
    MASS_SHELL = "mass-shell"
    GAUGE = "gauge"


@dataclass(frozen=True)
class Constraint:
    label: str
    fn: Callable  # (z, tau) -> value
    role: ConstraintRole

    def __call__(self, z, tau=0.0):
        return self.fn(z, tau)


@dataclass
class ConstraintSet:
    """A model's constraints as one map ``phi(z, tau)`` to all their values,
    with a ``(label, role)`` pair for each value in ``spec``.  Constraint k
    is a view of ``phi``: its ``fn(z, tau)`` is ``phi(z, tau)[k]``, so its
    value, gradient and brackets are those of the set."""

    space: PhaseSpace
    phi: Callable
    spec: tuple
    potential: Callable | None = None  # V(xi) of a two-particle model
    gauge: Callable | None = None  # its time covector n = gauge(P)

    def __post_init__(self):
        def view(k):
            return lambda z, tau: self.phi(z, tau)[k]

        self.constraints = [
            Constraint(label, view(k), role) for k, (label, role) in enumerate(self.spec)
        ]
        roles = [c.role for c in self.constraints]
        self.gauge_ix = [k for k, r in enumerate(roles) if r is ConstraintRole.GAUGE]
        self.shell_ix = [k for k, r in enumerate(roles) if r is ConstraintRole.MASS_SHELL]

    @property
    def shells(self) -> list[Constraint]:
        return [self.constraints[k] for k in self.shell_ix]

    def values(self, z, tau) -> np.ndarray:
        return np.asarray([float(v) for v in self.phi(list(z), tau)])

    def require_on_surface(self, z, tau):
        require_on_surface(z, self.values(z, tau), SURFACE_TOL)


def _require_conditioned(M) -> None:
    """``SingularConstraintMatrix`` unless ``M``'s condition is below ``COND_LIMIT``."""
    cond = float(np.linalg.cond(M))
    if not np.isfinite(cond) or cond >= COND_LIMIT:
        raise SingularConstraintMatrix(cond)


class DiracFrame:
    """Constraint data at one phase-space point, built once: the constraint
    gradients (one ``calc.jacobian`` seeding) and their pairwise
    canonical-bracket matrix.  Gradients of the phase functions bracketed
    here are cached per function object, the constraints' own included, so
    brackets at the same point share them.  At a float point they are
    Python float lists, at a dual point lists of duals.  The first bracket
    checks the conditioning of the matrix, except at dual points (Jacobi
    checks nest brackets there), and eliminates it once for every later
    bracket.  ``at(point)`` builds the frame of the same set and tau at
    another point; it holds no reference to this frame, so a field built
    over it and cached here forms no cycle."""

    def __init__(self, cset: ConstraintSet, point, tau: float = 0.0):
        self.cset, self.z, self.tau = cset, list(point), tau
        self.at = functools.partial(DiracFrame, cset, tau=tau)
        self.grads = _constraint_rows(cset, self.z, tau)
        self._grads = {id(c.fn): (c.fn, row) for c, row in zip(cset.constraints, self.grads)}
        k = len(self.grads)
        self.matrix = [[0.0] * k for _ in range(k)]
        for a in range(k):
            for b in range(a + 1, k):
                val = _pb_from_grads(cset.space, self.grads[a], self.grads[b])
                self.matrix[a][b] = val
                self.matrix[b][a] = -val
        self._plan = None
        self._flow = None

    def grad(self, f):
        # keyed by id with the function held alive, so the id cannot be reused
        hit = self._grads.get(id(f))
        if hit is None:
            hit = self._grads[id(f)] = (f, _grad_z(as_phase_fn(f), self.z, self.tau))
        return hit[1]

    def canonical(self, f, g):
        """The plain canonical bracket {f,g} from the cached gradients."""
        return _pb_from_grads(self.cset.space, self.grad(f), self.grad(g))

    def bracket(self, f, g):
        """{f,g} minus the correction through the inverse of the pairwise
        constraint matrix (computed by linear solves, never inversion)."""
        if self._plan is None:
            if not any(is_dual(u) for u in self.z):
                _require_conditioned([[real_part(v) for v in row] for row in self.matrix])
            self._plan = _eliminate(self.matrix)
        space = self.cset.space
        df, dg = self.grad(f), self.grad(g)
        plain = self.canonical(f, g)
        fv = [_pb_from_grads(space, df, gr) for gr in self.grads]  # {f, v_a}
        vg = [_pb_from_grads(space, gr, dg) for gr in self.grads]  # {v_b, g}
        y = _apply_plan(self._plan, vg)
        return plain - _dot(fv, y)

    def gauge_shell_block(self) -> np.ndarray:
        """{chi_i, K_j} as floats: one row per gauge, one column per shell."""
        gauge_ix, shell_ix = self.cset.gauge_ix, self.cset.shell_ix
        return np.array(
            [[float(self.matrix[a][b]) for b in shell_ix] for a in gauge_ix],
            dtype=float,
        ).reshape(len(gauge_ix), len(shell_ix))

    def flow_rhs(self):
        """dz/dtau = sum_i v_i X_{K_i} with the multipliers fixed by exact
        preservation of the gauge constraints.  Computed at the first call;
        every call returns the same pair of arrays, which callers only read."""
        if self._flow is not None:
            return self._flow
        space, A = self.cset.space, self.gauge_shell_block()
        tau_rates = _jvp(lambda ts: self.cset.phi(self.z, ts[0]), [self.tau], [1.0])
        rhs_tau = np.asarray([-tau_rates[a] for a in self.cset.gauge_ix])
        _require_conditioned(A)
        v = np.linalg.solve(A, rhs_tau)
        out = [0.0] * space.dim
        for vi, s in zip(v.tolist(), self.cset.shell_ix):
            grad = self.grads[s]
            for i, j, d in space.canonical_pairs:
                c = vi * d
                out[i] += c * grad[j]
                out[j] -= c * grad[i]
        self._flow = np.array(out), v
        return self._flow


def dirac_bracket(cset: ConstraintSet, f, g, point, tau: float = 0.0):
    """The Dirac bracket {f,g}* at one point; see ``DiracFrame.bracket``."""
    return DiracFrame(cset, point, tau).bracket(f, g)


def linear_potential(lam: float) -> Callable:
    """The interaction V(xi) = lam xi of the invariant separation."""
    return lambda xi: lam * xi


def dynamical_gauge(P):
    """The system's own time: n = P lowered, so the gauges read P.r = 0 and
    P.X = tau."""
    return lower(P)


def laboratory_gauge(P):
    """The laboratory's time: n = e^0, so the gauges read
    (x1^0 - x2^0)/2 = 0 and (x1^0 + x2^0)/2 = tau."""
    return (1.0, 0.0, 0.0, 0.0)


def _relative(space: PhaseSpace, z):
    """r = (x1 - x2)/2 and P = p1 + p2."""
    r = [(a - b) / 2.0 for a, b in zip(space.x(z, 0), space.x(z, 1))]
    P = [a + b for a, b in zip(space.p(z, 0), space.p(z, 1))]
    return r, P


def _separation(r, P):
    """xi = r^2 - (P.r)^2 / P^2."""
    Pr = minkowski_dot(P, r)
    return minkowski_dot(r, r) - Pr * Pr / minkowski_dot(P, P)


def _mean_position(space: PhaseSpace, z):
    """X = (x1 + x2)/2."""
    return [(a + b) / 2.0 for a, b in zip(space.x(z, 0), space.x(z, 1))]


def _shell(space: PhaseSpace, z, alpha: int, mass: float, v):
    """K_alpha = p_alpha^2 - m_alpha^2 + v, with v the interaction V(xi)."""
    p = space.p(z, alpha)
    return minkowski_dot(p, p) - mass * mass + v


def two_particle_model(
    m1: float, m2: float, V: Callable, gauge: Callable = dynamical_gauge
) -> tuple[ConstraintSet, PhaseSpace]:
    """Two mass-shell constraints sharing one invariant interaction V(xi),
    and the two gauges of the time covector n = gauge(P): the relative time
    chi1 = n.r = 0 and the evolution parameter chi2 = n.X - tau = 0, with
    X = (x1 + x2)/2.  ``dynamical_gauge`` takes the time from the system's
    own momentum, ``laboratory_gauge`` from the laboratory's; only the
    first keeps the world lines (see ``wlc_residual``).  Its ``phi``
    computes r, P, n and xi once."""
    space = PhaseSpace(2)

    def phi(z, tau):
        r, P = _relative(space, z)
        n, v = gauge(P), V(_separation(r, P))
        return [
            _dot(n, r),
            _dot(n, _mean_position(space, z)) - tau,
            _shell(space, z, 0, m1, v),
            _shell(space, z, 1, m2, v),
        ]

    spec = (
        ("chi1", ConstraintRole.GAUGE),
        ("chi2", ConstraintRole.GAUGE),
        ("K1", ConstraintRole.MASS_SHELL),
        ("K2", ConstraintRole.MASS_SHELL),
    )
    return ConstraintSet(space, phi, spec, potential=V, gauge=gauge), space


def sample_on_shell(
    cset: ConstraintSet,
    rng: np.random.Generator,
    masses: tuple[float, float],
    tau: float = 0.0,
):
    """Random point on the full constraint surface of a two-particle model,
    in the gauge of its covector n.

    Spatial momenta and positions are sampled, and the energy components
    are fixed by Newton iteration on the two mass-shell conditions.  A shift
    along P changes neither xi nor either shell, so x1 moves by 2sP with
    s = -n.r / n.P, which zeroes n.r, and both positions by uP with
    u = (tau - n.X) / n.P, which sets n.X = tau.
    """
    space = cset.space
    z = np.zeros(space.dim)
    for alpha in range(2):
        z[space.ix(alpha, 0) : space.ix(alpha, 0) + 4] = rng.uniform(-1, 1, 4)
        z[space.ip(alpha, 1) : space.ip(alpha, 1) + 3] = rng.uniform(-0.6, 0.6, 3)
        z[space.ip(alpha, 0)] = math.sqrt(
            masses[alpha] ** 2 + float(np.sum(z[space.ip(alpha, 1) : space.ip(alpha, 1) + 3] ** 2))
        )
    _newton_energies(cset, z, tau)
    P = np.asarray(space.p(z, 0)) + np.asarray(space.p(z, 1))
    n = np.asarray(cset.gauge(P))
    nP = float(n @ P)
    x1 = np.asarray(space.x(z, 0))
    x2 = np.asarray(space.x(z, 1))
    s = -float(n @ ((x1 - x2) / 2.0)) / nP
    x1 = x1 + 2.0 * s * P
    u = (tau - float(n @ ((x1 + x2) / 2.0))) / nP
    z[space.ix(0, 0) : space.ix(0, 0) + 4] = x1 + u * P
    z[space.ix(1, 0) : space.ix(1, 0) + 4] = x2 + u * P
    cset.require_on_surface(z, tau)
    return z


def _newton_energies(cset: ConstraintSet, z, tau):
    """Fix each particle's energy component in place by Newton iteration on
    its mass shell, the other coordinates frozen.  One evaluation of
    ``phi`` gives every shell value at a stage of the sweep."""
    space, shell_ix = cset.space, cset.shell_ix

    def shell_values():
        values = cset.phi(z, tau)
        return [float(values[k]) for k in shell_ix]

    for _ in range(60):
        vals = shell_values()
        if max(abs(v) for v in vals) < NEWTON_TOL:
            return
        for alpha, k in enumerate(shell_ix):
            if alpha > 0:  # the energies before this one have moved
                vals = shell_values()
            i0 = space.ip(alpha, 0)
            (slope,) = _jvp(lambda e: [cset.phi([*z[:i0], e[0], *z[i0 + 1 :]], tau)[k]], [z[i0]], [1.0])
            if slope == 0.0:
                raise GeoredError(f"mass shell {cset.constraints[k].label} has zero energy slope")
            z[i0] -= vals[alpha] / slope
    raise ConstraintDrift(tau, max(abs(v) for v in shell_values()))


def hamiltonian_flow_rhs(cset: ConstraintSet, z, tau):
    """dz/dtau and the multipliers; see ``DiracFrame.flow_rhs``."""
    return DiracFrame(cset, z, tau).flow_rhs()


def _project_to_surface(cset: ConstraintSet, z, tau, max_iter=6):
    """Gauss-Newton projection onto the constraint surface; raises
    ConstraintDrift when ``max_iter`` steps do not reach ``NEWTON_TOL``."""
    out = np.array(z, dtype=float)
    for step in range(max_iter + 1):
        vals = cset.values(out, tau)
        if float(np.max(np.abs(vals))) <= NEWTON_TOL:
            return out
        if step == max_iter:
            raise ConstraintDrift(tau, float(np.max(np.abs(vals))))
        J = np.asarray(_constraint_rows(cset, out, tau))
        out = out - J.T @ np.linalg.solve(J @ J.T, vals)


def constrained_flow(
    cset: ConstraintSet,
    point0,
    tau_span: tuple[float, float],
    cfg: IntegratorConfig | None = None,
    drift_limit: float = 1e-9,
) -> Trajectory:
    """Integrate the multiplier-fixed flow on the constraint surface.

    The four constraint values are monitored at every accepted step; drift
    past ``drift_limit`` triggers a Newton projection back to the surface,
    and exceeding ``HARD_DRIFT_LIMIT`` aborts with ConstraintDrift.
    """
    t0, t1 = tau_span
    z0 = np.asarray(point0, dtype=float)
    cset.require_on_surface(z0, t0)

    def rhs(z, tau):
        return hamiltonian_flow_rhs(cset, z, tau)[0]

    def onto_surface(tau, z):
        drift = float(np.max(np.abs(cset.values(z, tau))))
        if not drift <= HARD_DRIFT_LIMIT:  # a NaN drift fails too
            raise ConstraintDrift(tau, drift)
        return z if drift <= drift_limit else _project_to_surface(cset, z, tau)

    space = cset.space
    names = tuple(
        f"{kind}{mu}@{alpha}" for alpha in range(space.particles) for kind in "xp" for mu in "0123"
    )
    system = VectorFieldSystem(space.dim, rhs, names, autonomous=False)
    return integrate(system, z0, t0, t1, cfg, project=onto_surface)


def position_noncommutativity(frame: DiracFrame) -> dict:
    """Per-particle tables of {x^mu, x^nu} at ``frame.z`` under the Dirac
    bracket and under the plain canonical bracket, and the largest |entry|
    of each."""
    space = frame.cset.space
    out = {}
    for kind, bracket in (("canonical", frame.canonical), ("dirac", frame.bracket)):
        tables = []
        worst = 0.0
        for alpha in range(space.particles):
            T = np.zeros((4, 4))
            xs = [coordinate_fn(space, "x", alpha, mu) for mu in range(4)]
            for mu in range(4):
                for nu in range(mu + 1, 4):
                    val = float(bracket(xs[mu], xs[nu]))
                    T[mu, nu] = val
                    T[nu, mu] = -val
                    worst = nan_max(worst, abs(val))
            tables.append(T)
        out[f"{kind}_tables"], out[f"{kind}_max_abs"] = tables, worst
    return out


def poincare_transformation_fn(space: PhaseSpace, omega: np.ndarray, a: np.ndarray) -> Callable:
    """Generator G = (1/2) omega^{mu nu} J_{mu nu} - a^mu P_mu."""

    def fn(z, tau):
        total = 0.0
        for alpha in range(space.particles):
            x_low = lower(space.x(z, alpha))
            p_low = lower(space.p(z, alpha))
            for mu in range(4):
                for nu in range(4):
                    total = total + 0.5 * omega[mu][nu] * (
                        x_low[mu] * p_low[nu] - x_low[nu] * p_low[mu]
                    )
            for mu in range(4):
                total = total - a[mu] * p_low[mu]
        return total

    return fn


def wlc_residual(frame: DiracFrame, omega: np.ndarray, a: np.ndarray) -> dict:
    """World-line condition residual at ``frame.z`` for an infinitesimal
    transformation.

    Compares the Dirac-bracket action of the generator on each position
    with the geometric action plus a per-particle reparametrization found
    by scalar least squares along the flow direction; the residual is the
    post-fit maximum component mismatch.
    """
    space, z = frame.cset.space, frame.z
    omega = np.asarray(omega, dtype=float)
    a = np.asarray(a, dtype=float)
    if not np.max(np.abs(omega + omega.T)) <= 1e-15:
        raise ValueError("omega must be antisymmetric")
    frame.cset.require_on_surface(z, frame.tau)
    G = poincare_transformation_fn(space, omega, a)
    flow, _ = frame.flow_rhs()
    per_particle = []
    for alpha in range(space.particles):
        lhs = np.empty(4)
        geo = np.empty(4)
        u = np.empty(4)
        for mu in range(4):
            xf = coordinate_fn(space, "x", alpha, mu)
            lhs[mu] = float(frame.bracket(G, xf))
            x = [float(v) for v in space.x(z, alpha)]
            geo[mu] = sum(omega[mu][nu] * ETA[nu] * x[nu] for nu in range(4)) + a[mu]
            u[mu] = flow[space.ix(alpha, mu)]
        denom = float(u @ u)
        delta_tau = float(u @ (lhs - geo)) / denom if denom > 0 else 0.0
        residual = float(np.max(np.abs(lhs - geo - u * delta_tau)))
        per_particle.append({"residual": residual, "delta_tau": delta_tau})
    worst = 0.0
    for p in per_particle:
        worst = nan_max(worst, p["residual"])
    return {"residual": worst, "per_particle": per_particle}


# -- published two-particle matrix, for side-by-side reporting ---------------


def published_constraint_matrix(frame: DiracFrame) -> dict:
    """The gauge-shell bracket block as published, next to the one computed
    from first principles at ``frame.z``, which must be on the surface of a
    dynamical-gauge set.

    The published entries and determinant (with the stray factors they
    carry) are reproduced verbatim for comparison; the first-principles
    block is the ground truth.  In the dynamical gauge, on the surface it is
    [[P.p1, -P.p2], [P.p1, P.p2]]: {chi1, xi} vanishes and {chi2, xi} is
    proportional to P.r = 0, so V' drops out, and the determinant is
    ``derived_det`` = 2 (P.p1)(P.p2), formed from the momenta alone.

    ``published_det`` is not ground truth.  On the surface P.r = 0 and
    p1^2 - p2^2 = m1^2 - m2^2, so it reduces to -2 V'(m1^2 - m2^2)/P^4,
    which vanishes for equal masses or V' = 0 although the pairwise
    constraint matrix stays well conditioned there.  Nor is it the
    determinant of ``published``.  The printed entries give the derived
    block once the terms that vanish on the surface (Pr^2/P^4) or drop out
    of the brackets (V') are removed and the sign of {chi1, K2} is flipped.
    """
    cset = frame.cset
    if cset.gauge is not dynamical_gauge:
        raise ValueError("the published block is that of the dynamical gauge")
    cset.require_on_surface(frame.z, frame.tau)
    space, z = cset.space, [float(v) for v in frame.z]
    p1, p2 = space.p(z, 0), space.p(z, 1)
    r, P = _relative(space, z)
    (vprime,) = _jvp(lambda s: [cset.potential(s[0])], [_separation(r, P)], [1.0])
    dot = minkowski_dot
    p1p1, p2p2, p1p2 = dot(p1, p1), dot(p2, p2), dot(p1, p2)
    PP, Pr = dot(P, P), dot(P, r)
    printed = np.array(
        [
            [p1p1 + p1p2 + vprime, p1p2 + p2p2 + 2.0 * vprime / PP**2],
            [p1p1 + p1p2 + Pr**2 / PP**2, p1p2 + p2p2 + Pr**2 / PP**2],
        ]
    )
    printed_det = (p1p1 - p2p2) * (Pr**2 / PP**2 - 2.0 * vprime / PP**2)
    measured = frame.gauge_shell_block()
    return {
        "measured": measured.tolist(),
        "measured_det": float(np.linalg.det(measured)),
        "published": printed.tolist(),
        "published_det": float(printed_det),
        "derived_det": 2.0 * (p1p1 + p1p2) * (p1p2 + p2p2),
    }


# -- deformed position-Lorentz algebra ----------------------------------------


@dataclass(frozen=True)
class DeformedPoincare:
    """Bracket structure on the ten-dimensional basis (x_0..x_3, l_{mu nu})
    where positions close on the Lorentz block divided by the scale K."""

    K: float

    def __post_init__(self):
        if self.K <= 0:
            raise ValueError("the deformation scale must be positive")
        pairs = [(m, n) for m in range(4) for n in range(m + 1, 4)]
        labels = [f"x{m}" for m in range(4)] + [f"l{m}{n}" for m, n in pairs]
        object.__setattr__(self, "labels", labels)
        # l_{mu nu} = sign e_k, so l_{nu mu} = -l_{mu nu}; l_{mu mu} = 0
        lorentz = {}
        for k, (m, n) in enumerate(pairs, 4):
            lorentz[m, n], lorentz[n, m] = (1.0, k), (-1.0, k)
        # structure constants, C[i, j, :] = [e_i, e_j]; the instance is
        # frozen, so K cannot drift from the tensor
        C = np.zeros((10, 10, 10))

        def put(i, j, coef, mu, nu):  # [e_i, e_j] = coef l_{mu nu}
            if (mu, nu) in lorentz:
                sign, k = lorentz[mu, nu]
                C[i, j, k] = coef * sign

        for mu, nu in lorentz:  # [x_mu, x_nu] = l_{mu nu} / K
            put(mu, nu, 1.0 / self.K, mu, nu)
        for a, (mu, nu) in enumerate(pairs, 4):
            # [l_{mu nu}, x_rho] = eta_{mu rho} x_nu - eta_{nu rho} x_mu
            C[a, mu, nu], C[a, nu, mu] = ETA[mu], -ETA[nu]
            # [l_{mu nu}, l_{rho sig}] = eta_{mu rho} l_{nu sig} - eta_{mu sig} l_{nu rho}
            #                            - eta_{nu rho} l_{mu sig} + eta_{nu sig} l_{mu rho}
            for b, (rho, sig) in enumerate(pairs, 4):
                if mu == rho:
                    put(a, b, ETA[mu], nu, sig)
                if mu == sig:
                    put(a, b, -ETA[mu], nu, rho)
                if nu == rho:
                    put(a, b, -ETA[nu], mu, sig)
                if nu == sig:
                    put(a, b, ETA[nu], mu, rho)
        # [x_rho, l_{mu nu}] = -[l_{mu nu}, x_rho]
        C[:4, 4:] = -C[4:, :4].transpose(1, 0, 2)
        C.setflags(write=False)
        object.__setattr__(self, "C", C)

    def position_block(self) -> np.ndarray:
        """Coefficients of {x_rho, x_sigma} on the Lorentz basis; scales as
        1/K exactly."""
        return np.abs(self.C[:4, :4]).max(axis=2)


def jacobi_residual(C: np.ndarray) -> float:
    """Largest |[e_i, [e_j, e_k]] + cyclic| over all basis triples, for the
    structure constants C[i, j, :] = [e_i, e_j] of an n-dim algebra.

    With T[i, j, k, :] = [e_i, [e_j, e_k]] = C_jk^m C_im^n, the Jacobi
    identity says that T summed over the cyclic shifts of (i, j, k)
    vanishes."""
    T = np.einsum("jkm,imn->ijkn", C, C)
    total = T + T.transpose(1, 2, 0, 3)
    total += T.transpose(2, 0, 1, 3)
    return float(np.abs(total, out=total).max())

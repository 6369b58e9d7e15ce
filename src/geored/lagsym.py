"""Tangent-bundle canonical formalism: Cartan one-form, Lagrangian two-form,
energy, regularity, the Euler-Lagrange field, brackets for regular models,
kernel analysis and connection-based brackets for the degenerate
(relativistic) case, and the canonical chart on its manifold of motions.

Sign conventions.  The published derivations carry a few mutually
inconsistent orientation choices; here the two-form matrix follows the
block form with +d^2L/dv dv on the dq^dv slots, and brackets are oriented
so that momentum-coordinate pairs give {p_j, q^k} = +delta and the
canonical chart of the degenerate model gives {Q^i, P^j} = +delta.  All
tested identities (antisymmetry, Jacobi, Casimir, kernel) are orientation
independent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from geored import dualnum as dn
from geored.calc import DUAL, ScalarField, gradient, hessian
from geored.dualnum import is_dual, real_part
from geored.errors import (
    ConnectionInvalid,
    DegenerateLagrangian,
    DomainError,
    nan_max,
)

KERNEL_RTOL = 1e-8


# The Minkowski metric, signature (+, -, -, -): a timelike vector has
# positive square.  Every relativistic model of the package uses it.
ETA = (1.0, -1.0, -1.0, -1.0)


def minkowski_dot(u, v):
    return sum(d * ui * vi for d, ui, vi in zip(ETA, u, v))


def lower(u):
    return [d * ui for d, ui in zip(ETA, u)]


@dataclass(frozen=True)
class LagrangianModel:
    """Scalar function on a (q, v) chart of dimension 2n."""

    n: int
    L: ScalarField

    def __post_init__(self):
        if self.L.arity != 2 * self.n:
            raise ValueError("Lagrangian arity must be 2n")


def mechanical_lagrangian(n: int, potential: Callable | None = None) -> LagrangianModel:
    """L = |v|^2 / 2 - U(q), the regular benchmark model."""

    def fn(z):
        kinetic = sum(z[n + i] * z[n + i] for i in range(n)) * 0.5
        return kinetic - (potential(z[:n]) if potential is not None else 0.0)

    return LagrangianModel(n, ScalarField(2 * n, fn, "mechanical"))


def relativistic_lagrangian(m: float = 1.0, c: float = 1.0) -> LagrangianModel:
    """Reparametrization-invariant square-root Lagrangian on TR^4; defined
    only for timelike velocities."""
    n = len(ETA)

    def fn(z):
        v = z[n:]
        s2 = minkowski_dot(v, v)
        if real_part(s2) <= 0.0:
            raise DomainError("velocity is not timelike")
        return (m * c) * dn.sqrt(s2)

    return LagrangianModel(n, ScalarField(2 * n, fn, "sqrt"))


# -- generic helpers (work on float or dual points) --------------------------


def _grad_list(f: ScalarField, z) -> list:
    g = gradient(f, z, DUAL)
    return list(g)


def _dot(u, v):
    total = 0.0
    for ui, vi in zip(u, v):
        total = total + ui * vi
    return total


def _eliminate(A: list):
    """Gaussian elimination with partial pivoting of ``A`` over floats or
    duals: each column's pivot row and row factors, and the final diagonal.
    None of them reads a right-hand side, so one plan serves every system
    with this matrix (``_apply_plan``)."""
    n = len(A)
    M = [list(row) for row in A]
    steps = []
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(real_part(M[r][col])))
        if abs(real_part(M[pivot][col])) == 0.0:
            raise DegenerateLagrangian("singular linear system in bracket solve")
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1.0 / M[col][col]
        factors = []
        for r in range(n):
            if r == col:
                continue
            factor = M[r][col] * inv
            if real_part(factor) == 0.0 and not is_dual(factor):
                continue
            factors.append((r, factor))
            for c in range(col, n):
                M[r][c] = M[r][c] - factor * M[col][c]
        steps.append((pivot, factors))
    return steps, [M[i][i] for i in range(n)]


def _apply_plan(plan, b: list) -> list:
    """Solve ``A x = b`` by replaying ``_eliminate(A)`` on ``b``: the same
    swaps and row updates, in the same order, as on an augmented matrix."""
    steps, diag = plan
    y = list(b)
    for col, (pivot, factors) in enumerate(steps):
        y[col], y[pivot] = y[pivot], y[col]
        for r, factor in factors:
            y[r] = y[r] - factor * y[col]
    return [yi / d for yi, d in zip(y, diag)]


def _solve_generic(A: list, b: list) -> list:
    """Gaussian elimination with partial pivoting over floats or duals."""
    return _apply_plan(_eliminate(A), b)


def _two_form_rows(model: LagrangianModel, z) -> list:
    """2n x 2n matrix of the Lagrangian two-form at z, generic scalars.

    Blocks: [q,v] = d2L/dv dv, [q,q] = antisymmetrized d2L/dv dq, [v,v] = 0.
    """
    n = model.n
    H = hessian(model.L, z, DUAL)
    rows = [[0.0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            a_ij = H[n + i][n + j]
            b_ij = H[n + i][j]  # d2L / dv_i dq_j
            b_ji = H[n + j][i]
            rows[i][j] = b_ij - b_ji
            rows[i][n + j] = a_ij
            rows[n + i][j] = -a_ij
    return rows


# -- spec operations ---------------------------------------------------------


def cartan_one_form(model: LagrangianModel, point) -> np.ndarray:
    """(dL/dv) on the dq slots, zero on the dv slots."""
    n = model.n
    g = gradient(model.L, list(point), DUAL)
    out = np.zeros(2 * n)
    out[:n] = [float(g[n + i]) for i in range(n)]
    return out


@dataclass(frozen=True)
class TwoFormAtPoint:
    matrix: np.ndarray
    point: tuple

    def __post_init__(self):
        if not np.max(np.abs(self.matrix + self.matrix.T)) <= 1e-12:
            raise ValueError("two-form matrix must be antisymmetric")


def lagrangian_two_form(model: LagrangianModel, point) -> TwoFormAtPoint:
    rows = _two_form_rows(model, list(point))
    M = np.asarray([[float(v) for v in row] for row in rows])
    M = 0.5 * (M - M.T)  # kill rounding asymmetry; blocks are exact already
    return TwoFormAtPoint(M, tuple(float(v) for v in point))


def energy(model: LagrangianModel, point):
    """v . dL/dv - L, evaluated exactly through the dual scheme."""
    n = model.n
    z = list(point)
    g = gradient(model.L, z, DUAL)
    return _dot(z[n:], g[n:]) - model.L(z)


@dataclass
class RegularityReport:
    regular: bool
    det: float
    rank: int


def is_regular(model: LagrangianModel, point) -> RegularityReport:
    """Rank and determinant of the velocity Hessian."""
    n = model.n
    z = list(point)
    q = z[: model.n]
    restricted = ScalarField(n, lambda v: model.L(list(q) + list(v)))
    H = hessian(restricted, z[n:], DUAL)
    H = np.asarray(H, dtype=float)
    svals = np.linalg.svd(H, compute_uv=False)
    rank = int(np.sum(svals > KERNEL_RTOL * max(svals[0], 1e-300)))
    return RegularityReport(
        regular=rank == n, det=float(np.linalg.det(H)), rank=rank
    )


def el_field(model: LagrangianModel, point) -> np.ndarray:
    """The dynamical field solving the intrinsic Euler-Lagrange equation;
    second-order structure (q-components equal v) is enforced."""
    rep = is_regular(model, point)
    if not rep.regular:
        raise DegenerateLagrangian(
            "two-form is degenerate; use kernel_basis / the connection bracket"
        )
    n = model.n
    z = [float(v) for v in point]
    W = lagrangian_two_form(model, z).matrix
    e_field = ScalarField(2 * n, lambda w: energy(model, w), "E")
    dE = np.asarray(_grad_list(e_field, z), dtype=float)
    gamma = np.linalg.solve(W, -dE)
    if not np.max(np.abs(gamma[:n] - z[n:])) <= 1e-7 * (1.0 + np.max(np.abs(z))):
        raise DegenerateLagrangian("solution lost second-order structure")
    return gamma


def pb_regular(model: LagrangianModel, f: ScalarField, g: ScalarField, point):
    """Bracket from the Lagrangian two-form of a regular model.

    Solves one small linear system per argument; oriented so that
    {dL/dv_j, q^k} = +delta_j^k.
    """
    z = list(point)
    W = _two_form_rows(model, z)
    df = _grad_list(f, z)
    dg = _grad_list(g, z)
    xg = _solve_generic(W, [-v for v in dg])
    return -_dot(df, xg)


def kernel_basis(omega) -> list[np.ndarray]:
    """Orthonormal basis of the two-form kernel (singular vectors below
    KERNEL_RTOL * sigma_max)."""
    M = omega.matrix if isinstance(omega, TwoFormAtPoint) else np.asarray(omega)
    _, svals, vh = np.linalg.svd(M)
    cutoff = KERNEL_RTOL * max(float(svals[0]), 1e-300)
    return [vh[i] for i in range(len(svals)) if svals[i] <= cutoff]


def newton_wigner_fields(
    m: float = 1.0, c: float = 1.0
) -> tuple[list[ScalarField], list[ScalarField]]:
    """The Newton-Wigner chart on the manifold of motions of the free
    relativistic particle, Q^j = -x^j + (v^j / v^0) x^0 and P^j = v^j / L,
    as differentiable fields on the (x, v) coordinates."""
    n = len(ETA)

    def make_q(j):
        def fn(z):
            return -z[j] + (z[n + j] / z[n]) * z[0]

        return ScalarField(2 * n, fn, f"Q{j}")

    def make_p(j):
        def fn(z):
            v = z[n:]
            return z[n + j] / ((m * c) * dn.sqrt(minkowski_dot(v, v)))

        return ScalarField(2 * n, fn, f"P{j}")

    return [make_q(j) for j in range(1, n)], [make_p(j) for j in range(1, n)]


@dataclass(frozen=True)
class ConnectionField:
    """Point-dependent projector complementing the two-form kernel."""

    at: Callable

    def validate(self, model: LagrangianModel, point) -> None:
        A = np.asarray(
            [[float(v) for v in row] for row in self.at(list(point))]
        )
        if not np.max(np.abs(A @ A - A)) <= 1e-9:
            raise ConnectionInvalid("A is not idempotent at the queried point")
        W = lagrangian_two_form(model, point).matrix
        null = kernel_basis(TwoFormAtPoint(W, tuple(point)))
        for vec in null:
            if not np.max(np.abs(A @ vec)) <= 1e-8 * (1.0 + np.linalg.norm(A)):
                raise ConnectionInvalid("kernel of the two-form is not killed by A")
        rank_a = np.linalg.matrix_rank(A, tol=1e-8)
        if rank_a != A.shape[0] - len(null):
            raise ConnectionInvalid("rank of A does not complement the kernel")


def relativistic_connection(m: float = 1.0, c: float = 1.0) -> ConnectionField:
    """Flat Lorentz-invariant connection for the square-root model: the
    identity minus the projector onto the span of the dynamical and dilation
    directions, built from degree-zero covectors."""
    n = len(ETA)

    def at(z):
        x, v = list(z[:n]), list(z[n:])
        s2 = minkowski_dot(v, v)
        if real_part(s2) <= 0.0:
            raise DomainError("connection defined over timelike velocities only")
        v_low = lower(v)
        x_dot_v = _dot(v_low, x)
        # theta1 = (m^2 c^2 / L) d((v.x)/L); theta2 = v_mu dv^mu / s2
        theta1 = [0.0] * (2 * n)
        theta2 = [0.0] * (2 * n)
        for nu in range(n):
            theta1[nu] = v_low[nu] / s2
            theta1[n + nu] = (x[nu] * ETA[nu] - x_dot_v * v_low[nu] / s2) / s2
            theta2[n + nu] = v_low[nu] / s2
        rows = [[0.0] * (2 * n) for _ in range(2 * n)]
        for i in range(2 * n):
            gamma_i = v[i] if i < n else 0.0
            delta_i = v[i - n] if i >= n else 0.0
            for j in range(2 * n):
                val = (1.0 if i == j else 0.0) - gamma_i * theta1[j] - delta_i * theta2[j]
                rows[i][j] = val
        return rows

    return ConnectionField(at)


class ConnectionFrame:
    """Connection-bracket data at one point, built once: the connection
    ``A.at(z)``, the weight ``L(z)``, and the horizontal lifts of the
    position and velocity frames (``w_mu`` and ``u_mu``, columns of A).
    For each field bracketed here the contractions of its gradient with
    both lifts are cached per function object, so brackets at the same
    point take one gradient per distinct field.  At a float point the
    entries are floats, at a dual point duals (Jacobi checks nest brackets
    there).  The connection is not validated here
    (``ConnectionField.validate``).  ``at(point)`` builds the frame of the
    same model and connection at another point; it holds no reference to
    this frame, so a field built over it and cached here forms no cycle."""

    def __init__(self, model: LagrangianModel, A: ConnectionField, point):
        n = model.n
        self.z = list(point)
        self.at = functools.partial(ConnectionFrame, model, A)
        rows = A.at(self.z)
        self.weight = model.L(self.z)
        self.w_cols = [[row[mu] for row in rows] for mu in range(n)]  # lifts of d/dx^mu
        self.u_cols = [[row[n + mu] for row in rows] for mu in range(n)]  # lifts of d/dv^mu
        self._lifts = {}

    def lifts(self, f: ScalarField):
        """The contractions ``[df . w_mu]`` and ``[df . u_mu]`` of ``f``."""
        # keyed by id with the field held alive, so the id cannot be reused
        hit = self._lifts.get(id(f))
        if hit is None:
            df = _grad_list(f, self.z)
            hit = self._lifts[id(f)] = (
                f,
                [_dot(df, w) for w in self.w_cols],
                [_dot(df, u) for u in self.u_cols],
            )
        return hit[1], hit[2]

    def bracket(self, f: ScalarField, g: ScalarField):
        """The bivector pairs the horizontal lifts of the position and
        velocity frames with the metric contraction (required for Lorentz
        invariance), weighted by the (Casimir) Lagrangian; oriented so the
        canonical chart of the motion manifold satisfies {Q^i, P^j} = +delta."""
        fw, fu = self.lifts(f)
        gw, gu = self.lifts(g)
        total = 0.0
        for d, fw_mu, fu_mu, gw_mu, gu_mu in zip(ETA, fw, fu, gw, gu):
            total = total + d * (fw_mu * gu_mu - fu_mu * gw_mu)
        return self.weight * total


def jacobi_residual(frame, f: ScalarField, g: ScalarField, h: ScalarField) -> float:
    """|{f,{g,h}} + {g,{h,f}} + {h,{f,g}}| at ``frame.z``.  The outer
    brackets share ``frame``; each inner bracket is a field whose value at
    a point ``zz`` is ``frame.at(zz).bracket``, differentiated by the nested
    dual scheme.  Any frame with ``z``, ``at`` and ``bracket`` serves
    (``ConnectionFrame``, ``dirac.DiracFrame``)."""
    arity, at = len(frame.z), frame.at

    def pairfield(a, b):
        return ScalarField(arity, lambda z: at(z).bracket(a, b), f"{{{a.label},{b.label}}}")

    total = (
        frame.bracket(f, pairfield(g, h))
        + frame.bracket(g, pairfield(h, f))
        + frame.bracket(h, pairfield(f, g))
    )
    return abs(float(total))


def poisson_compatibility(model: LagrangianModel, A: ConnectionField, point):
    """Matrix-level compatibility of the connection bivector with the
    two-form: Lambda omega Lambda = Lambda, and the kernel of Lambda meets
    the image of omega only at zero.

    The identity pairs the bivector with the exterior-derivative
    orientation of the two-form (omega = d theta), which is the negative of
    the block-form matrix from ``lagrangian_two_form``.
    """
    n = model.n
    tol = 1e-8  # the rank cut-off of both SVDs
    z = [float(u) for u in point]
    rows = np.asarray([[float(v) for v in row] for row in A.at(z)])
    weight = float(model.L(z))
    Av, Ax = rows[:, n:] * np.asarray(ETA), rows[:, :n]
    lam = weight * (Ax @ Av.T - Av @ Ax.T)
    W = -lagrangian_two_form(model, z).matrix
    residual = float(np.max(np.abs(lam @ W @ lam - lam)))
    # kernel of Lambda versus image of omega
    _, svals, vh = np.linalg.svd(lam)
    null_lam = vh[svals <= tol * max(svals[0], 1e-300)]
    u, sw, _ = np.linalg.svd(W)
    img_w = u[:, sw > tol * max(sw[0], 1e-300)]
    stacked = np.hstack([null_lam.T, img_w])
    min_sv = float(np.linalg.svd(stacked, compute_uv=False)[-1])
    return {"lambda_omega_lambda": residual, "kernel_image_min_singular_value": min_sv}


def bracket_table(frame, fields: Sequence[ScalarField]) -> dict:
    """All pairwise bracket values at ``frame.z`` plus antisymmetry
    residuals, in the JSON-exportable layout."""
    pairs = []
    worst_antisym = 0.0
    for i, f in enumerate(fields):
        for j, g in enumerate(fields):
            if j <= i:
                continue
            val = float(frame.bracket(f, g))
            rev = float(frame.bracket(g, f))
            worst_antisym = nan_max(worst_antisym, abs(val + rev))
            pairs.append({"f": f.label, "g": g.label, "value": val})
    return {
        "point": [float(v) for v in frame.z],
        "pairs": pairs,
        "residuals": {"antisymmetry": worst_antisym},
    }


def coordinate_fields(dim: int, names: Sequence[str] | None = None) -> list[ScalarField]:
    names = names or [f"z{i}" for i in range(dim)]
    return [
        ScalarField(dim, (lambda k: lambda z: z[k])(i), names[i]) for i in range(dim)
    ]


def measured_position_brackets(point, m: float = 1.0, c: float = 1.0) -> dict:
    """Bracket table of the physical coordinates for the degenerate model
    with the mass and light-speed constants restored.

    The {x, x} block is fitted to the antisymmetric combination
    (v^sigma x^rho - v^rho x^sigma); the measured prefactor is reported
    next to the published closed form m^2 c^2 / L, which is not asserted.
    """
    model = relativistic_lagrangian(m, c)
    A = relativistic_connection(m, c)
    n = len(ETA)
    z = [float(u) for u in point]
    coords = coordinate_fields(2 * n, [f"x{i}" for i in range(n)] + [f"v{i}" for i in range(n)])
    xs, vs = coords[:n], coords[n:]

    frame = ConnectionFrame(model, A, z)

    def br(f, g):
        return float(frame.bracket(f, g))

    vv = np.array([[br(vs[r], vs[s]) for s in range(n)] for r in range(n)])
    vx = np.array([[br(vs[r], xs[s]) for s in range(n)] for r in range(n)])
    xx = np.array([[br(xs[r], xs[s]) for s in range(n)] for r in range(n)])

    x, v = np.asarray(z[:n]), np.asarray(z[n:])
    pattern = np.empty((n, n))
    for r in range(n):
        for s in range(n):
            pattern[r, s] = v[s] * x[r] - v[r] * x[s]
    mask = np.abs(pattern) > 1e-9
    ratios = xx[mask] / pattern[mask]
    lag = float(model.L(z))
    return {
        "vv_max_abs": float(np.max(np.abs(vv))),
        "vx": vx.tolist(),
        "xx": xx.tolist(),
        "xx_prefactor_measured": float(np.mean(ratios)) if ratios.size else 0.0,
        "xx_prefactor_spread": float(np.ptp(ratios)) if ratios.size else 0.0,
        "xx_prefactor_published_form": m * m * c * c / lag,
        "lagrangian": lag,
    }

"""Unitary evolution on U(N), coset extraction Z = B D^-1, and the matrix
Riccati flow on the coset chart, with cross-verification of the reduction.

Complex matrices ride inside the real ODE state as interleaved (re, im)
pairs so the flow module is reused unchanged.  Unitarity is maintained by
polar re-projection (Newton-Schulz, no SVD) whenever the per-step drift
exceeds 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from geored.errors import SingularBlock, UnitarityLost
from geored.flow import Dopri45Stepper, IntegratorConfig, VectorFieldSystem

PROJECT_TRIGGER = 1e-12
UNITARITY_HARD_LIMIT = 1e-6


def _as_matrix_fn(H, shape) -> Callable[[float], np.ndarray]:
    if callable(H):
        return lambda t: np.asarray(H(t), dtype=complex).reshape(shape)
    fixed = np.asarray(H, dtype=complex).reshape(shape)
    return lambda t: fixed


@dataclass
class BlockHamiltonian:
    """Hermitian N x N generator split into (n1, n2) blocks:
    [[H1, V], [V^dagger, H2]].  H1, H2, V may be callables of t."""

    n1: int
    n2: int
    H1: object
    H2: object
    V: object

    def __post_init__(self):
        self._h1 = _as_matrix_fn(self.H1, (self.n1, self.n1))
        self._h2 = _as_matrix_fn(self.H2, (self.n2, self.n2))
        self._v = _as_matrix_fn(self.V, (self.n1, self.n2))

    @property
    def dim(self) -> int:
        return self.n1 + self.n2

    @property
    def time_dependent(self) -> bool:
        return any(callable(block) for block in (self.H1, self.H2, self.V))

    def assembled(self, t: float = 0.0) -> np.ndarray:
        h1, h2, v = self._h1(t), self._h2(t), self._v(t)
        for name, block in (("H1", h1), ("H2", h2)):
            if np.max(np.abs(block - block.conj().T)) > 1e-12:
                raise ValueError(f"{name} is not Hermitian at t={t}")
        top = np.hstack([h1, v])
        bottom = np.hstack([v.conj().T, h2])
        return np.vstack([top, bottom])

    def blocks(self, t: float = 0.0):
        return self._h1(t), self._h2(t), self._v(t)


def unitarity_drift(U: np.ndarray) -> float:
    n = U.shape[0]
    return float(np.linalg.norm(U.conj().T @ U - np.eye(n)))


@dataclass
class UnitaryState:
    U: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=complex)
        drift = unitarity_drift(self.U)
        if drift > 1e-9:
            raise ValueError(f"state is not unitary (drift {drift:.3e})")


@dataclass
class CosetPoint:
    Z: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.Z = np.asarray(self.Z, dtype=complex)
        if not np.all(np.isfinite(self.Z)):
            raise ValueError("coset point must be finite")


def polar_project(U: np.ndarray, tol: float = 1e-15, max_iter: int = 8) -> np.ndarray:
    """Nearest unitary via Newton-Schulz; quadratic for small drift."""
    Y = np.array(U, dtype=complex)
    n = Y.shape[0]
    for _ in range(max_iter):
        gram = Y.conj().T @ Y
        if np.linalg.norm(gram - np.eye(n)) <= tol:
            return Y
        Y = Y @ (1.5 * np.eye(n) - 0.5 * gram)
    return Y


def _mat_to_state(M: np.ndarray) -> np.ndarray:
    flat = M.ravel()
    out = np.empty(2 * flat.size)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out


def _state_to_mat(y: np.ndarray, shape) -> np.ndarray:
    return (y[0::2] + 1j * y[1::2]).reshape(shape)


def evolve_unitary(
    H: BlockHamiltonian,
    U0: UnitaryState,
    t1: float,
    cfg: IntegratorConfig | None = None,
    record: bool = False,
):
    """Integrate i dU/dt = H(t) U from U0.t to t1 with polar re-projection.

    Raises UnitarityLost if a single step drifts past 1e-6 before
    re-projection (a sign of too-coarse stepping).  With ``record`` the
    return value is (final_state, [(t, U), ...]) at accepted steps.  A
    generator without callable blocks is assembled (and checked Hermitian)
    once; callable blocks are assembled at every evaluation.
    """
    cfg = cfg or IntegratorConfig()
    n = H.dim
    shape = (n, n)
    fixed = None if H.time_dependent else H.assembled(U0.t)

    def rhs(y, t):
        U = _state_to_mat(y, shape)
        G = H.assembled(t) if fixed is None else fixed
        return _mat_to_state(-1j * (G @ U))

    stepper = Dopri45Stepper(rhs, U0.t, _mat_to_state(U0.U), cfg)
    trail = [(U0.t, U0.U.copy())]
    while stepper.t < t1 - 1e-14 * max(1.0, abs(t1)):
        t, y, _ = stepper.step(t1)
        U = _state_to_mat(y, shape)
        drift = unitarity_drift(U)
        if drift > UNITARITY_HARD_LIMIT:
            raise UnitarityLost(t, drift)
        if drift > PROJECT_TRIGGER:
            U = polar_project(U)
            stepper.y = _mat_to_state(U)
            stepper.reset_derivative()
        if record:
            trail.append((t, U.copy()))
    final = UnitaryState(_state_to_mat(stepper.y, shape), t=stepper.t)
    if record:
        trail[-1] = (stepper.t, final.U.copy())
        return final, trail
    return final


def extract_Z(U: UnitaryState | np.ndarray, n1: int, n2: int, t: float = 0.0) -> CosetPoint:
    """Coset coordinate Z = B D^-1 from the top-right and bottom-right
    blocks, via a linear solve (D is never inverted explicitly)."""
    mat = U.U if isinstance(U, UnitaryState) else np.asarray(U, dtype=complex)
    time = U.t if isinstance(U, UnitaryState) else t
    B = mat[:n1, n1:]
    D = mat[n1:, n1:]
    cond = float(np.linalg.cond(D))
    if not np.isfinite(cond) or cond >= 1e8:
        raise SingularBlock(cond)
    # Z D = B  =>  D^T Z^T = B^T
    Z = np.linalg.solve(D.T, B.T).T
    return CosetPoint(Z, t=time)


def riccati_matrix_system(H: BlockHamiltonian) -> VectorFieldSystem:
    """Real encoding of i dZ/dt = V + H1 Z - Z H2 - Z V^dagger Z on the
    (n1 x n2) coset chart."""
    n1, n2 = H.n1, H.n2
    shape = (n1, n2)
    names = []
    for i in range(n1):
        for j in range(n2):
            names += [f"ReZ{i}{j}", f"ImZ{i}{j}"]

    def rhs(y, t):
        Z = _state_to_mat(np.asarray(y, dtype=float), shape)
        h1, h2, v = H.blocks(t)
        dZ = -1j * (v + h1 @ Z - Z @ h2 - Z @ v.conj().T @ Z)
        return _mat_to_state(dZ)

    return VectorFieldSystem(
        2 * n1 * n2,
        rhs,
        tuple(names),
        autonomous=False,
        label="matrix Riccati coset flow",
    )


@dataclass
class CosetReport:
    max_dev: float
    ok: bool
    t_exit: float | None = None
    samples: int = 0
    unitarity_drift: float = 0.0
    events: list = field(default_factory=list)
    # the recorded unitary evolution, [(t, U), ...] as evolve_unitary returns it
    trail: list | None = field(default=None, repr=False, compare=False)
    # the coset point of each trail entry the comparison reached
    points: list | None = field(default=None, repr=False, compare=False)


def verify_coset_reduction(
    H: BlockHamiltonian,
    U0: UnitaryState,
    t_span: tuple[float, float],
    cfg: IntegratorConfig | None = None,
    tol: float = 1e-6,
) -> CosetReport:
    """Max Frobenius gap between the coset coordinate of the unitary flow
    and the direct matrix Riccati flow started at Z(U0).

    A singular D block mid-run ends the comparison early; the report then
    carries the exit time and the deviation up to it.  The report also
    carries the recorded unitary trail and the coset points extracted from
    it, so callers need neither integrate nor extract again.
    """
    cfg = cfg or IntegratorConfig()
    t0, t1 = t_span
    final, trail = evolve_unitary(H, U0, t1, cfg, record=True)

    from geored.flow import integrate

    z0 = extract_Z(U0, H.n1, H.n2)
    riccati = riccati_matrix_system(H)
    direct = integrate(riccati, _mat_to_state(z0.Z), t0, t1, cfg)

    direct_states = direct.resample(np.clip([t for t, _ in trail], t0, t1))
    max_dev = 0.0
    t_exit = None
    events: list = []
    points: list = []
    for (t, U), y in zip(trail, direct_states):
        try:
            z_unitary = extract_Z(U, H.n1, H.n2, t=t)
        except SingularBlock as err:
            t_exit = t
            events.append({"t": t, "event": "singular-block", "cond": err.cond})
            break
        z_direct = _state_to_mat(y, (H.n1, H.n2))
        max_dev = max(max_dev, float(np.linalg.norm(z_unitary.Z - z_direct)))
        points.append(z_unitary)
    return CosetReport(
        max_dev=max_dev,
        ok=max_dev <= tol and t_exit is None,
        t_exit=t_exit,
        samples=len(points),
        unitarity_drift=unitarity_drift(final.U),
        events=events,
        trail=trail,
        points=points,
    )


def trail_points(H: BlockHamiltonian, trail: Sequence[tuple], points: Sequence = ()):
    """Coset point of each trail entry, in order: the given ``points`` for
    the leading entries (as ``CosetReport.points`` carries them), then fresh
    extractions, which raise ``SingularBlock`` at a singular D block."""
    for k, (t, U) in enumerate(trail):
        yield points[k] if k < len(points) else extract_Z(U, H.n1, H.n2, t=t)


def coset_trajectory_csv(
    H: BlockHamiltonian, trail: Sequence[tuple], path, points: Sequence = ()
) -> None:
    """CSV of the coset coordinate along a recorded unitary evolution:
    t, then Re/Im of each Z entry in row-major order.  ``points`` may give
    the coset points of leading trail entries (see ``trail_points``)."""
    header = ["t"]
    for i in range(H.n1):
        for j in range(H.n2):
            header += [f"ReZ{i}{j}", f"ImZ{i}{j}"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for point in trail_points(H, trail, points):
            t, Z = point.t, point.Z
            cells = [f"{t:.17g}"]
            for i in range(H.n1):
                for j in range(H.n2):
                    cells += [f"{Z[i, j].real:.17g}", f"{Z[i, j].imag:.17g}"]
            fh.write(",".join(cells) + "\n")

"""Unitary evolution on U(N), coset extraction Z = B D^-1, and the matrix
Riccati flow on the coset chart, with cross-verification of the reduction.

Complex matrices ride inside the real ODE state as interleaved (re, im)
pairs so the flow module is reused unchanged.  Unitarity is maintained by
polar re-projection (Newton-Schulz, no SVD) whenever the per-step drift
exceeds 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from geored.errors import SingularBlock, UnitarityLost, nan_max
from geored.flow import IntegratorConfig, VectorFieldSystem, integrate

PROJECT_TRIGGER = 1e-12
UNITARITY_HARD_LIMIT = 1e-6


@dataclass(frozen=True)
class BlockHamiltonian:
    """Hermitian N x N generator split into constant (n1, n2) blocks:
    [[H1, V], [V^dagger, H2]].  The blocks are copied to read-only complex
    matrices and checked Hermitian once, at construction, which also
    assembles the full generator."""

    n1: int
    n2: int
    H1: np.ndarray
    H2: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        n1, n2 = self.n1, self.n2
        for name, shape in (("H1", (n1, n1)), ("H2", (n2, n2)), ("V", (n1, n2))):
            block = np.array(getattr(self, name), dtype=complex).reshape(shape)
            block.setflags(write=False)
            object.__setattr__(self, name, block)
        for name, block in (("H1", self.H1), ("H2", self.H2)):
            if not np.max(np.abs(block - block.conj().T)) <= 1e-12:
                raise ValueError(f"{name} is not Hermitian")
        full = np.block([[self.H1, self.V], [self.V.conj().T, self.H2]])
        full.setflags(write=False)
        object.__setattr__(self, "assembled", full)

    @property
    def dim(self) -> int:
        return self.n1 + self.n2


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
        if not drift <= 1e-9:
            raise ValueError(f"state is not unitary (drift {drift:.3e})")


@dataclass
class CosetPoint:
    Z: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.Z = np.asarray(self.Z, dtype=complex)
        if not np.all(np.isfinite(self.Z)):
            raise ValueError("coset point must be finite")

    def coords(self) -> np.ndarray:
        """Re and Im of each entry of Z, in the coordinate order of
        ``riccati_matrix_system``."""
        return _mat_to_state(self.Z)


def polar_project(U: np.ndarray) -> np.ndarray:
    """Nearest unitary via Newton-Schulz; quadratic for small drift, so at
    most 8 iterations, stopping once |U^dagger U - 1| <= 1e-15.  Raises
    ValueError if 8 iterations leave the drift above that bound (or NaN)."""
    Y = np.array(U, dtype=complex)
    n = Y.shape[0]
    for _ in range(8):
        gram = Y.conj().T @ Y
        if np.linalg.norm(gram - np.eye(n)) <= 1e-15:
            return Y
        Y = Y @ (1.5 * np.eye(n) - 0.5 * gram)
    drift = unitarity_drift(Y)
    if not drift <= 1e-15:
        raise ValueError(f"polar projection did not converge (drift {drift:.3e})")
    return Y


def _mat_to_state(M: np.ndarray) -> np.ndarray:
    flat = M.ravel()
    out = np.empty(2 * flat.size)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out


def _state_to_mat(y: np.ndarray, shape) -> np.ndarray:
    return (y[0::2] + 1j * y[1::2]).reshape(shape)


def _complex_names(symbol: str, rows: int, cols: int) -> tuple[str, ...]:
    """Coordinate names of a rows x cols complex matrix in the real state
    (``_mat_to_state`` order): Re and Im of each entry, row-major."""
    return tuple(
        f"{part}{symbol}{i}{j}" for i in range(rows) for j in range(cols) for part in ("Re", "Im")
    )


def evolve_unitary(
    H: BlockHamiltonian,
    U0: UnitaryState,
    t1: float,
    cfg: IntegratorConfig | None = None,
):
    """Integrate i dU/dt = H U from U0.t to t1 with polar re-projection.

    Raises UnitarityLost if a single step drifts past 1e-6 before
    re-projection (a sign of too-coarse stepping).  Returns the final state
    and the trail [(t, U), ...] of the start and every accepted step.
    """
    n = H.dim
    shape = (n, n)
    G = H.assembled

    def rhs(y):
        return _mat_to_state(-1j * (G @ _state_to_mat(y, shape)))

    def onto_group(t, y):
        U = _state_to_mat(y, shape)
        drift = unitarity_drift(U)
        if not drift <= UNITARITY_HARD_LIMIT:
            raise UnitarityLost(t, drift)
        return _mat_to_state(polar_project(U)) if drift > PROJECT_TRIGGER else y

    names = _complex_names("U", n, n)
    system = VectorFieldSystem(2 * n * n, rhs, names)
    traj = integrate(system, _mat_to_state(U0.U), U0.t, t1, cfg, project=onto_group)
    final = UnitaryState(_state_to_mat(traj.states[-1], shape), t=traj.t1)
    trail = [(t, _state_to_mat(y, shape)) for t, y in zip(traj.times.tolist(), traj.states)]
    return final, trail


def extract_Z(U: np.ndarray, n1: int, *, t: float = 0.0) -> CosetPoint:
    """Coset coordinate Z = B D^-1 of the matrix U at time t, from its
    top-right and bottom-right blocks, via a linear solve (D is never
    inverted explicitly).  The first n1 rows and columns split the blocks;
    the rest of U fixes the other block size."""
    mat = np.asarray(U, dtype=complex)
    B = mat[:n1, n1:]
    D = mat[n1:, n1:]
    cond = float(np.linalg.cond(D))
    if not np.isfinite(cond) or cond >= 1e8:
        raise SingularBlock(cond)
    # Z D = B  =>  D^T Z^T = B^T
    Z = np.linalg.solve(D.T, B.T).T
    return CosetPoint(Z, t=t)


def riccati_matrix_system(H: BlockHamiltonian) -> VectorFieldSystem:
    """Real encoding of i dZ/dt = V + H1 Z - Z H2 - Z V^dagger Z on the
    (n1 x n2) coset chart."""
    n1, n2 = H.n1, H.n2
    shape = (n1, n2)
    h1, h2, v = H.H1, H.H2, H.V
    v_dagger = v.conj().T

    def rhs(y):
        Z = _state_to_mat(np.asarray(y, dtype=float), shape)
        dZ = -1j * (v + h1 @ Z - Z @ h2 - Z @ v_dagger @ Z)
        return _mat_to_state(dZ)

    return VectorFieldSystem(2 * n1 * n2, rhs, _complex_names("Z", n1, n2))


@dataclass
class CosetReport:
    max_dev: float
    unitarity_drift: float
    # the coset point of each entry of the recorded unitary trail
    points: list = field(repr=False, compare=False)


def verify_coset_reduction(
    H: BlockHamiltonian,
    U0: UnitaryState,
    t1: float,
    cfg: IntegratorConfig | None = None,
) -> CosetReport:
    """Max Frobenius gap between the coset coordinate of the unitary flow
    and the direct matrix Riccati flow started at Z(U0), both from U0.t to
    t1.

    A singular D block anywhere on the unitary trail raises
    ``SingularBlock``.  The report carries the coset point of each entry
    of the recorded unitary trail, so callers need neither integrate nor
    extract again.
    """
    cfg = cfg or IntegratorConfig()
    t0 = U0.t
    final, trail = evolve_unitary(H, U0, t1, cfg)
    z0 = extract_Z(U0.U, H.n1, t=U0.t)
    riccati = riccati_matrix_system(H)
    direct = integrate(riccati, _mat_to_state(z0.Z), t0, t1, cfg)

    direct_states = direct.resample(np.clip([t for t, _ in trail], t0, t1))
    max_dev = 0.0
    points: list = []
    for (t, U), y in zip(trail, direct_states):
        z_unitary = extract_Z(U, H.n1, t=t)
        z_direct = _state_to_mat(y, (H.n1, H.n2))
        max_dev = nan_max(max_dev, float(np.linalg.norm(z_unitary.Z - z_direct)))
        points.append(z_unitary)
    return CosetReport(
        max_dev=max_dev,
        unitarity_drift=unitarity_drift(final.U),
        points=points,
    )


"""The unitary coset reduction as a commuting diagram: the flow
i dU/dt = G U on U(N), the coset coordinate Z = B D^-1 and the matrix
Riccati flow on the coset chart, packaged by ``coset_scenario``.

Complex matrices ride inside the real ODE state as interleaved (re, im)
pairs, so the flow module is reused unchanged.  Nothing projects the
unitary flow back onto the group: its drift from U^dagger U = 1 follows the
RK45 tolerance (about 5e-10 at the default 1e-10 over [0, 1]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from geored.errors import SingularBlock
from geored.flow import VectorFieldSystem
from geored.reduce import InvariantSurface, QuotientMap, ReductionScenario


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


# a complex array and its real state share one memory layout: (re, im) pairs
def _mat_to_state(M: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(M, dtype=complex).view(np.float64).ravel()


def _state_to_mat(y: np.ndarray, shape) -> np.ndarray:
    return np.ascontiguousarray(y, dtype=float).view(complex).reshape(shape)


def _complex_names(symbol: str, rows: int, cols: int) -> tuple[str, ...]:
    """Coordinate names of a rows x cols complex matrix in the real state
    (``_mat_to_state`` order): Re and Im of each entry, row-major."""
    return tuple(
        f"{part}{symbol}{i}{j}" for i in range(rows) for j in range(cols) for part in ("Re", "Im")
    )


def extract_Z(U: np.ndarray, n1: int) -> np.ndarray:
    """Coset coordinate Z = B D^-1 of the matrix U, from its top-right and
    bottom-right blocks, via a linear solve (D is never inverted
    explicitly).  The first n1 rows and columns split the blocks; the rest
    of U fixes the other block size.  Raises ``SingularBlock`` when the
    condition number of D reaches 1e8."""
    mat = np.asarray(U, dtype=complex)
    B = mat[:n1, n1:]
    D = mat[n1:, n1:]
    cond = float(np.linalg.cond(D))
    if not np.isfinite(cond) or cond >= 1e8:
        raise SingularBlock(cond)
    # Z D = B  =>  D^T Z^T = B^T
    return np.linalg.solve(D.T, B.T).T


def riccati_matrix_system(H: BlockHamiltonian) -> VectorFieldSystem:
    """Real encoding of i dZ/dt = V + H1 Z - Z H2 - Z V^dagger Z on the
    (n1 x n2) coset chart."""
    n1, n2 = H.n1, H.n2
    shape = (n1, n2)
    h1, h2, v = H.H1, H.H2, H.V
    v_dagger = v.conj().T

    def rhs(y):
        Z = _state_to_mat(y, shape)
        dZ = -1j * (v + h1 @ Z - Z @ h2 - Z @ v_dagger @ Z)
        return _mat_to_state(dZ)

    return VectorFieldSystem(2 * n1 * n2, rhs, _complex_names("Z", n1, n2))


# -- the coset reduction in real arithmetic -----------------------------------
#
# A complex number is an (re, im) pair of anything that supports + - * /:
# floats, duals (so ``calc`` differentiates the maps) or column arrays (so
# ``QuotientMap.columns`` projects a whole trajectory at once).


def _cmul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _csub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _cdiv(p, q):
    den = q[0] * q[0] + q[1] * q[1]
    return ((p[0] * q[0] + p[1] * q[1]) / den, (p[1] * q[0] - p[0] * q[1]) / den)


def _entry(x, n: int, i: int, j: int):
    """U_ij of an n x n matrix held in ``_mat_to_state`` order."""
    k = 2 * (i * n + j)
    return x[k], x[k + 1]


def coset_quotient(n1: int, n2: int) -> QuotientMap:
    """Z = B D^-1 on the state of an (n1 + n2)-square matrix, in the
    coordinate order of ``riccati_matrix_system``: one complex division per
    entry for n2 = 1, the adjugate of D over its determinant for n2 = 2."""
    if n2 not in (1, 2):
        raise ValueError(f"the coset quotient takes a lower block of size 1 or 2, not {n2}")
    n = n1 + n2

    def coset(x):
        B = [[_entry(x, n, i, n1 + j) for j in range(n2)] for i in range(n1)]
        if n2 == 1:
            Z = [[_cdiv(b, _entry(x, n, n1, n1))] for (b,) in B]
        else:
            (a, b), (c, d) = ([_entry(x, n, n1 + i, n1 + j) for j in (0, 1)] for i in (0, 1))
            det = _csub(_cmul(a, d), _cmul(b, c))
            # [p, q] adj(D) = [p d - q c, q a - p b]
            rows = [
                (_csub(_cmul(p, d), _cmul(q, c)), _csub(_cmul(q, a), _cmul(p, b))) for p, q in B
            ]
            Z = [[_cdiv(u, det), _cdiv(v, det)] for u, v in rows]
        return [part for row in Z for z in row for part in z]

    return QuotientMap(coset, _complex_names("Z", n1, n2))


def unitarity_surface(n: int) -> InvariantSurface:
    """U^dagger U = 1 as the level set 0 of the n^2 real entries of
    U^dagger U - 1: the diagonal, then Re and Im of each entry above it."""

    def gram(x):
        cols = [[_entry(x, n, i, j) for i in range(n)] for j in range(n)]
        out = [sum(a[0] * a[0] + a[1] * a[1] for a in col) - 1.0 for col in cols]
        for j in range(n):
            for k in range(j + 1, n):
                # the conjugate of column j dotted with column k
                out.append(sum(a[0] * b[0] + a[1] * b[1] for a, b in zip(cols[j], cols[k])))
                out.append(sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(cols[j], cols[k])))
        return out

    return InvariantSurface(gram, (0.0,) * (n * n))


def _haar_unitary(n: int, rng) -> np.ndarray:
    """A Haar-random element of U(1), a phase, or of U(2), a phase times a
    unit quaternion."""
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    if n == 1:
        return np.array([[phase]])
    q = rng.normal(size=4)
    a, b = complex(q[0], q[1]), complex(q[2], q[3])
    return phase / np.linalg.norm(q) * np.array([[a, -b.conjugate()], [b, a.conjugate()]])


def coset_scenario(name: str, H: BlockHamiltonian) -> ReductionScenario:
    """The coset reduction of dU/dt = -i G U from the identity over [0, 1]:
    Riccati flow of Z = B D^-1, surface U^dagger U = 1, and an orbit map that
    multiplies U on the right by a drawn element of U(n1) x U(n2)."""
    n1, n2, n = H.n1, H.n2, H.dim
    if n1 not in (1, 2):  # the sizes _haar_unitary draws; coset_quotient checks n2
        raise ValueError(f"the coset scenario takes an upper block of size 1 or 2, not {n1}")
    shape = (n, n)
    G = H.assembled

    def rhs(y):
        return _mat_to_state(-1j * (G @ _state_to_mat(y, shape)))

    def isotropy(x, rng):
        h = np.zeros(shape, dtype=complex)
        h[:n1, :n1] = _haar_unitary(n1, rng)
        h[n1:, n1:] = _haar_unitary(n2, rng)
        return _mat_to_state(_state_to_mat(x, shape) @ h)

    return ReductionScenario(
        name=name,
        system=VectorFieldSystem(2 * n * n, rhs, _complex_names("U", n, n)),
        reduced=riccati_matrix_system(H),
        quotient=coset_quotient(n1, n2),
        orbit_map=isotropy,
        x0=_mat_to_state(np.eye(n)),
        t_span=(0.0, 1.0),
        surface=unitarity_surface(n),
        notes="unitary flow projected to the coset chart Z = B D^-1",
    )

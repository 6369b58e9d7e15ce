import dataclasses
import math

import numpy as np
import pytest

from geored.errors import SingularBlock, UnitarityLost
from geored.flow import IntegratorConfig, integrate
from geored.qriccati import (
    BlockHamiltonian,
    UnitaryState,
    evolve_unitary,
    extract_Z,
    polar_project,
    riccati_matrix_system,
    unitarity_drift,
    verify_coset_reduction,
    _mat_to_state,
    _state_to_mat,
)

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def pauli_x_hamiltonian():
    return BlockHamiltonian(1, 1, np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1)))


def seeded_n3_hamiltonian(seed=42, norm_cap=2.0):
    rng = np.random.default_rng(seed)

    def herm(n):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return (A + A.conj().T) / 2.0

    H1 = herm(1)
    H2 = herm(2)
    V = (rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2))) / 2.0
    H = BlockHamiltonian(1, 2, H1, H2, V)
    scale = np.linalg.norm(H.assembled, ord=2)
    if scale > norm_cap:
        factor = norm_cap / scale
        H = BlockHamiltonian(1, 2, H1 * factor, H2 * factor, V * factor)
    return H


def test_block_hamiltonian_assembly_and_hermiticity():
    H = seeded_n3_hamiltonian()
    M = H.assembled
    assert M.shape == (3, 3)
    assert np.max(np.abs(M - M.conj().T)) < 1e-12
    # the blocks checked at construction cannot change under the generator
    with pytest.raises(dataclasses.FrozenInstanceError):
        H.H1 = np.array([[1j]])
    for block in (H.H1, H.V, H.assembled):
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 1j


def test_zero_hamiltonian_freezes_state():
    H = BlockHamiltonian(1, 1, np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    out, _ = evolve_unitary(H, UnitaryState(np.eye(2)), 2.0)
    assert np.max(np.abs(out.U - np.eye(2))) < 1e-12


def test_constant_diagonal_hamiltonian_phases():
    lam = np.array([0.7, -1.3])
    H = BlockHamiltonian(1, 1, lam[0] * np.ones((1, 1)), lam[1] * np.ones((1, 1)), np.zeros((1, 1)))
    t1 = 1.5
    out, _ = evolve_unitary(H, UnitaryState(np.eye(2)), t1)
    expected = np.diag(np.exp(-1j * lam * t1))
    assert np.max(np.abs(out.U - expected)) < 1e-9


def test_pauli_generator_closed_form():
    H = pauli_x_hamiltonian()
    t1 = 1.0
    out, _ = evolve_unitary(H, UnitaryState(np.eye(2)), t1)
    expected = math.cos(t1) * np.eye(2) - 1j * math.sin(t1) * SIGMA1
    assert np.max(np.abs(out.U - expected)) < 1e-9


def test_unitarity_maintained_over_long_span():
    # bounded generator (spectral norm up to 5) over ten time units
    H = seeded_n3_hamiltonian(seed=7, norm_cap=5.0)
    out, _ = evolve_unitary(H, UnitaryState(np.eye(3)), 10.0)
    assert unitarity_drift(out.U) < 1e-9


def test_polar_projection_restores_unitarity():
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    dirty = U + 1e-8 * rng.normal(size=(3, 3))
    clean = polar_project(dirty)
    assert unitarity_drift(clean) < 1e-14


@pytest.mark.parametrize(
    "U",
    [3.0 * np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])],
    ids=["diverges", "slow"],
)
@pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
def test_polar_projection_fails_closed_when_not_converged(U):
    # Newton-Schulz diverges from 3 I (to NaN) and converges only linearly
    # from a singular value of 0.618, leaving a drift near 7e-10 after 8
    # iterations; neither result may be returned as unitary
    with pytest.raises(ValueError, match="did not converge"):
        polar_project(U)


def test_extract_Z_identity_and_block_diagonal():
    assert np.allclose(extract_Z(np.eye(3), 1, 2).Z, 0.0)
    # an element of the isotropy subgroup: block-diagonal unitary
    phase = np.exp(0.3j)
    lower = np.linalg.qr(np.random.default_rng(1).normal(size=(2, 2)) + 0j)[0]
    blockdiag = np.zeros((3, 3), dtype=complex)
    blockdiag[0, 0] = phase
    blockdiag[1:, 1:] = lower
    assert np.max(np.abs(extract_Z(blockdiag, 1, 2).Z)) < 1e-14


def test_extract_Z_invariant_under_right_isotropy_action():
    rng = np.random.default_rng(3)
    U = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    z_ref = extract_Z(U, 1, 2).Z
    for _ in range(10):
        u1 = np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.ones((1, 1))
        u2 = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        h = np.zeros((3, 3), dtype=complex)
        h[:1, :1] = u1
        h[1:, 1:] = u2
        z = extract_Z(U @ h, 1, 2).Z
        assert np.max(np.abs(z - z_ref)) < 1e-12


def test_extract_Z_singular_block():
    U = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # D block is zero
    with pytest.raises(SingularBlock):
        extract_Z(U, 1, 1)


def test_riccati_rhs_values():
    H = BlockHamiltonian(1, 1, np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    sys = riccati_matrix_system(H)
    assert np.allclose(sys.eval_rhs([0.4, -0.2], 0.0), 0.0)
    # at Z = 0 the drive is i dZ/dt = V
    H = pauli_x_hamiltonian()
    sys = riccati_matrix_system(H)
    out = sys.eval_rhs([0.0, 0.0], 0.0)
    assert np.allclose(out, [0.0, -1.0])  # dZ/dt = -i V = -i


def test_scalar_riccati_cross_check():
    # for 1x1 blocks the coset flow is the scalar complex Riccati equation
    h1, h2, v = 0.6, -0.2, 0.8 + 0.3j
    H = BlockHamiltonian(
        1, 1, h1 * np.ones((1, 1)), h2 * np.ones((1, 1)), v * np.ones((1, 1))
    )
    sys = riccati_matrix_system(H)

    def scalar_rhs(y, t):
        z = y[0] + 1j * y[1]
        dz = -1j * (v + (h1 - h2) * z - np.conj(v) * z * z)
        return [dz.real, dz.imag]

    from geored.flow import VectorFieldSystem

    scalar = VectorFieldSystem(2, scalar_rhs, ("re", "im"), autonomous=False)
    z0 = [0.1, -0.05]
    a = integrate(sys, z0, 0.0, 1.2)
    b = integrate(scalar, z0, 0.0, 1.2)
    assert np.max(np.abs(a.states[-1] - b.states[-1])) < 1e-10


def test_coset_reduction_zero_hamiltonian():
    H = BlockHamiltonian(1, 1, np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    report = verify_coset_reduction(H, UnitaryState(np.eye(2)), 1.0)
    assert report.max_dev < 1e-14


def test_coset_reduction_pauli_tangent_closed_form():
    # B/D = -i tan(t) for the exchange generator
    H = pauli_x_hamiltonian()
    final, trail = evolve_unitary(H, UnitaryState(np.eye(2)), 1.0)
    for t, U in trail[1:]:
        z = extract_Z(U, 1, 1).Z[0, 0]
        assert abs(z - (-1j * math.tan(t))) < 1e-9
    report = verify_coset_reduction(H, UnitaryState(np.eye(2)), 1.0)
    assert report.max_dev < 1e-8


def test_coset_reduction_starts_at_the_unitary_state_time():
    # the same exchange flow started at t = 0.5 from the identity: the
    # Riccati flow starts there too, and Z = -i tan(t - 0.5)
    H = pauli_x_hamiltonian()
    report = verify_coset_reduction(H, UnitaryState(np.eye(2), t=0.5), 1.5)
    assert report.max_dev < 1e-8
    assert report.points[0].t == 0.5 and report.points[-1].t == 1.5
    for point in report.points:
        assert abs(point.Z[0, 0] - (-1j * math.tan(point.t - 0.5))) < 1e-8


def test_coset_reduction_n3_seeded():
    H = seeded_n3_hamiltonian(seed=42)
    report = verify_coset_reduction(H, UnitaryState(np.eye(3)), 1.0)
    assert report.max_dev < 1e-6
    assert report.unitarity_drift < 1e-9


def test_coset_reduction_tightening_tolerance_shrinks_deviation():
    H = seeded_n3_hamiltonian(seed=9)
    devs = []
    for tol in (1e-6, 1e-8):
        cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol)
        devs.append(
            verify_coset_reduction(H, UnitaryState(np.eye(3)), 1.0, cfg).max_dev
        )
    assert devs[1] < devs[0] / 10.0


def test_state_matrix_roundtrip():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    assert np.allclose(_state_to_mat(_mat_to_state(M), (2, 3)), M)


def test_coset_csv_export(tmp_path):
    from geored import cli

    H = pauli_x_hamiltonian()
    report = verify_coset_reduction(H, UnitaryState(np.eye(2)), 0.5)
    path = tmp_path / "z.csv"
    cli._write_csv(path, cli._coset_table(H, report))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,ReZ00,ImZ00"
    last = [float(c) for c in lines[-1].split(",")]
    assert last[2] == pytest.approx(-math.tan(0.5), abs=1e-9)


def test_unitarity_lost_on_coarse_stepping():
    from geored.errors import UnitarityLost

    H = BlockHamiltonian(
        1, 1, np.array([[30.0]]), np.array([[-40.0]]), np.array([[25.0]])
    )
    with pytest.raises(UnitarityLost):
        evolve_unitary(
            H,
            UnitaryState(np.eye(2)),
            2.0,
            IntegratorConfig(abs_tol=5e-2, rel_tol=5e-2),
        )


# -- one unitary evolution per coset check ------------------------------------


def _same_trail(a, b):
    return len(a) == len(b) and all(
        ta == tb and Ua.tobytes() == Ub.tobytes() for (ta, Ua), (tb, Ub) in zip(a, b)
    )


@pytest.mark.parametrize(
    "H",
    [pauli_x_hamiltonian(), seeded_n3_hamiltonian(seed=7)],
    ids=["pauli", "n3"],
)
def test_coset_report_carries_trail_outside_equality(H):
    U0 = UnitaryState(np.eye(H.dim))
    report = verify_coset_reduction(H, U0, 1.0)
    _, trail = evolve_unitary(H, U0, 1.0)
    assert _same_trail(report.trail, trail)
    bare = dataclasses.replace(report, trail=None)
    assert report == bare
    assert repr(report) == repr(bare)


@pytest.mark.parametrize("name", ["H1", "H2"])
def test_non_hermitian_block_raises_at_construction(name):
    blocks = {"H1": np.zeros((1, 1)), "H2": np.zeros((2, 2)), "V": np.ones((1, 2))}
    blocks[name] = blocks[name] + 1j * np.triu(np.ones_like(blocks[name]))
    with pytest.raises(ValueError, match=f"{name} is not Hermitian"):
        BlockHamiltonian(1, 2, **blocks)
    # a Hermitian perturbation of the same size passes
    blocks[name] = blocks[name].real + 0.5 * np.eye(len(blocks[name]))
    assert BlockHamiltonian(1, 2, **blocks).assembled.shape == (3, 3)


def _coset_csv_lines(H, trail):
    """The coset CSV of a recorded unitary evolution, written out here from
    one extraction per trail entry."""
    entries = [(i, j) for i in range(H.n1) for j in range(H.n2)]
    lines = [",".join(["t"] + [f"{part}Z{i}{j}" for i, j in entries for part in ("Re", "Im")])]
    for t, U in trail:
        Z = extract_Z(U, H.n1, H.n2, t=t).Z
        cells = [t] + [v for z in Z.ravel() for v in (z.real, z.imag)]
        lines.append(",".join(f"{v:.17g}" for v in cells))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("name", ["qriccati-pauli", "qriccati-n3"])
def test_coset_csv_equals_a_fresh_recorded_evolution(tmp_path, name):
    from geored import cli

    config = cli._make_config(name, seed=0, output_dir=str(tmp_path))
    cli.run(config)
    if name == "qriccati-pauli":
        H = pauli_x_hamiltonian()
    else:
        H = cli._seeded_hamiltonian_n3(cli._rng_for(name, 0))
    _, trail = evolve_unitary(H, UnitaryState(np.eye(H.dim)), 1.0, config.integrator)
    assert (tmp_path / name / "coset.csv").read_text() == _coset_csv_lines(H, trail)


# -- each coset coordinate extracted once -------------------------------------


def _count_extractions(monkeypatch):
    import geored.qriccati as q

    calls = []
    extract = q.extract_Z

    def counted(*args, **kwargs):
        calls.append(args[-1] if len(args) > 3 else kwargs.get("t"))
        return extract(*args, **kwargs)

    monkeypatch.setattr(q, "extract_Z", counted)
    return calls


@pytest.mark.parametrize("name", ["qriccati-pauli", "qriccati-n3"])
def test_coset_scenario_extracts_each_trail_point_once(tmp_path, monkeypatch, name):
    from geored import cli

    calls = _count_extractions(monkeypatch)
    config = cli._make_config(name, seed=0, output_dir=str(tmp_path))
    cli.run(config)
    rows = (tmp_path / name / "coset.csv").read_text().splitlines()
    # Z(U0) for the direct flow, then one extraction per trail point
    assert len(calls) == 1 + (len(rows) - 1)


def test_coset_report_points_reused_outside_equality():
    H = seeded_n3_hamiltonian(seed=7)
    report = verify_coset_reduction(H, UnitaryState(np.eye(3)), 1.0)
    assert len(report.points) == len(report.trail)
    for (t, U), point in zip(report.trail, report.points):
        assert point.t == t and point.Z.tobytes() == extract_Z(U, 1, 2, t=t).Z.tobytes()
        assert point.coords().tobytes() == _mat_to_state(point.Z).tobytes()
    bare = dataclasses.replace(report, points=None)
    assert report == bare and repr(report) == repr(bare)


def _trail_singular_at(k):
    """evolve_unitary whose recorded trail has a zero D block at entry k."""
    import geored.qriccati as q

    evolve = q.evolve_unitary

    def evolve_singular(*args, **kwargs):
        final, trail = evolve(*args, **kwargs)
        t, U = trail[k]
        U = U.copy()
        U[1:, 1:] = 0.0
        trail[k] = (t, U)
        return final, trail

    return evolve_singular


@pytest.mark.parametrize("name", ["qriccati-pauli", "qriccati-n3"])
def test_singular_block_still_raises_where_it_did(tmp_path, monkeypatch, name):
    import geored.qriccati as q
    from geored import cli

    monkeypatch.setattr(q, "evolve_unitary", _trail_singular_at(5))
    if name == "qriccati-pauli":
        H = pauli_x_hamiltonian()
    else:
        H = cli._seeded_hamiltonian_n3(cli._rng_for(name, 0))
    with pytest.raises(SingularBlock):
        verify_coset_reduction(H, UnitaryState(np.eye(H.dim)), 1.0)
    # the scenario is an ERROR that writes no coset CSV
    report = cli.run(cli._make_config(name, seed=0, output_dir=str(tmp_path)))
    assert report.status == "ERROR" and report.error["type"] == "SingularBlock"
    assert sorted(p.name for p in (tmp_path / name).iterdir()) == ["report.json", "traceback.txt"]


# -- guards fail closed on NaN --------------------------------------------------


def _nan_block(monkeypatch):
    BlockHamiltonian(1, 1, np.array([[math.nan]]), np.zeros((1, 1)), np.zeros((1, 1)))


def _nan_drift(monkeypatch):
    import geored.qriccati as q

    U0 = UnitaryState(np.eye(2))
    # the stepper raises BlowUp on a NaN state before the hook sees it, so
    # the drift itself is made NaN
    monkeypatch.setattr(q, "unitarity_drift", lambda U: math.nan)
    evolve_unitary(pauli_x_hamiltonian(), U0, 0.5)


@pytest.mark.parametrize(
    "inject, error, match",
    [
        (_nan_block, ValueError, "not Hermitian"),
        (_nan_drift, UnitarityLost, "nan"),
    ],
    ids=["hermitian", "unitarity"],
)
def test_qriccati_guards_reject_nan(monkeypatch, inject, error, match):
    with pytest.raises(error, match=match):
        inject(monkeypatch)

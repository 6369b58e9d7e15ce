import dataclasses
import math

import numpy as np
import pytest

from geored.errors import GeoredError, OffSurface, PreflightFailed, SingularBlock
from geored.flow import IntegratorConfig, integrate
from geored.qriccati import (
    BlockHamiltonian,
    coset_scenario,
    extract_Z,
    riccati_matrix_system,
    unitarity_drift,
    _mat_to_state,
    _state_to_mat,
)
from geored.reduce import check_invariant_surface, verify_commuting_diagram

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




def _evolve(H, t1, cfg=None):
    """The unitary flow of ``H`` from the identity at t = 0 to t1."""
    scenario = coset_scenario("unitary", H)
    return integrate(scenario.system, scenario.x0, 0.0, t1, cfg)


def _trail(traj, n):
    """(t, U) at each step state of a unitary trajectory."""
    return [(t, _state_to_mat(y, (n, n))) for t, y in zip(traj.times.tolist(), traj.states)]


def test_zero_hamiltonian_freezes_state():
    H = BlockHamiltonian(1, 1, np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    (_, U), = _trail(_evolve(H, 2.0), 2)[-1:]
    assert np.max(np.abs(U - np.eye(2))) < 1e-12


def test_constant_diagonal_hamiltonian_phases():
    lam = np.array([0.7, -1.3])
    H = BlockHamiltonian(1, 1, lam[0] * np.ones((1, 1)), lam[1] * np.ones((1, 1)), np.zeros((1, 1)))
    t1 = 1.5
    (_, U), = _trail(_evolve(H, t1), 2)[-1:]
    expected = np.diag(np.exp(-1j * lam * t1))
    assert np.max(np.abs(U - expected)) < 1e-9


def test_pauli_generator_closed_form():
    H = pauli_x_hamiltonian()
    t1 = 1.0
    (_, U), = _trail(_evolve(H, t1), 2)[-1:]
    expected = math.cos(t1) * np.eye(2) - 1j * math.sin(t1) * SIGMA1
    assert np.max(np.abs(U - expected)) < 1e-9


def test_unitarity_drift_scales_with_the_tolerance_over_a_long_span():
    # nothing projects the flow back onto the group: over ten time units of
    # a generator of spectral norm 5 the drift follows the RK45 tolerance
    # (4.3e-9 at 1e-10), and a hundredfold tighter tolerance shrinks it
    H = seeded_n3_hamiltonian(seed=7, norm_cap=5.0)
    drifts = []
    for tol in (1e-10, 1e-12):
        cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol)
        drifts.append(max(unitarity_drift(U) for _, U in _trail(_evolve(H, 10.0, cfg), 3)))
        assert drifts[-1] < 100.0 * tol
    assert drifts[1] < drifts[0] / 30.0


def test_extract_Z_identity_and_block_diagonal():
    assert np.allclose(extract_Z(np.eye(3), 1), 0.0)
    assert extract_Z(np.eye(3), 1).shape == (1, 2)
    # an element of the isotropy subgroup: block-diagonal unitary
    phase = np.exp(0.3j)
    lower = np.linalg.qr(np.random.default_rng(1).normal(size=(2, 2)) + 0j)[0]
    blockdiag = np.zeros((3, 3), dtype=complex)
    blockdiag[0, 0] = phase
    blockdiag[1:, 1:] = lower
    assert np.max(np.abs(extract_Z(blockdiag, 1))) < 1e-14


def test_extract_Z_invariant_under_right_isotropy_action():
    rng = np.random.default_rng(3)
    U = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    z_ref = extract_Z(U, 1)
    for _ in range(10):
        u1 = np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.ones((1, 1))
        u2 = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        h = np.zeros((3, 3), dtype=complex)
        h[:1, :1] = u1
        h[1:, 1:] = u2
        z = extract_Z(U @ h, 1)
        assert np.max(np.abs(z - z_ref)) < 1e-12


def _herm(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (A + A.conj().T) / 2.0


@pytest.mark.parametrize("n1, n2", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_extract_Z_matches_the_coset_quotient_at_drawn_unitaries(n1, n2):
    # the quotient in real arithmetic gives the linear solve's Z; evaluated
    # in dual arithmetic along the unitary field it gives the Riccati field
    # at Z; and the drawn subgroup elements of the orbit map move neither
    rng = np.random.default_rng(10 * n1 + n2)
    n = n1 + n2
    H = BlockHamiltonian(n1, n2, _herm(rng, n1), _herm(rng, n2), rng.normal(size=(n1, n2)) + 0j)
    scenario = coset_scenario("drawn", H)
    riccati = riccati_matrix_system(H)
    for _ in range(20):
        U = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        x = _mat_to_state(U)
        z = _mat_to_state(extract_Z(U, n1))
        scale = 1.0 + np.max(np.abs(z))
        assert np.max(np.abs(scenario.quotient(x) - z)) <= 1e-13 * scale**2
        rate = scenario.quotient.pushforward(scenario.system, x)
        assert np.max(np.abs(rate - riccati.eval_rhs(z))) <= 1e-12 * scale**3
        x2 = scenario.orbit_map(x, rng)
        assert unitarity_drift(_state_to_mat(x2, (n, n))) < 1e-14
        assert np.max(np.abs(scenario.quotient(x2) - z)) <= 1e-12 * scale**2


def test_extract_Z_singular_block():
    U = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # D block is zero
    with pytest.raises(SingularBlock):
        extract_Z(U, 1)


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
    report = verify_commuting_diagram(coset_scenario("zero", H))
    assert report.max_dev < 1e-14


def test_coset_reduction_pauli_tangent_closed_form():
    # B/D = -i tan(t) for the exchange generator
    H = pauli_x_hamiltonian()
    for t, U in _trail(_evolve(H, 1.0), 2)[1:]:
        z = extract_Z(U, 1)[0, 0]
        assert abs(z - (-1j * math.tan(t))) < 1e-9
    report = verify_commuting_diagram(coset_scenario("pauli", H))
    assert report.max_dev < 1e-8


def test_coset_reduction_starts_at_the_unitary_state_time():
    # the same exchange flow started at t = 0.5 from the identity: the
    # Riccati flow starts there too, and Z = -i tan(t - 0.5)
    H = pauli_x_hamiltonian()
    scenario = dataclasses.replace(coset_scenario("pauli", H), t_span=(0.5, 1.5))
    report = verify_commuting_diagram(scenario)
    assert report.max_dev < 1e-8
    assert report.ambient.times[0] == 0.5 and report.ambient.times[-1] == 1.5
    for t, U in _trail(report.ambient, 2):
        assert abs(extract_Z(U, 1)[0, 0] - (-1j * math.tan(t - 0.5))) < 1e-8


def test_coset_reduction_n3_seeded():
    H = seeded_n3_hamiltonian(seed=42)
    report = verify_commuting_diagram(coset_scenario("n3", H))
    assert report.max_dev < 1e-6
    assert max(unitarity_drift(U) for _, U in _trail(report.ambient, 3)) < 1e-9


def test_coset_reduction_tightening_tolerance_shrinks_deviation():
    H = seeded_n3_hamiltonian(seed=9)
    scenario = coset_scenario("n3", H)
    devs = []
    for tol in (1e-9, 1e-11):
        cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol)
        devs.append(verify_commuting_diagram(scenario, cfg).max_dev)
    assert devs[1] < devs[0] / 10.0
    # at 1e-6 the flow leaves U^dagger U = 1 by more than the surface
    # tolerance of 1e-8, and the preflight refuses its samples
    with pytest.raises(OffSurface):
        verify_commuting_diagram(scenario, IntegratorConfig(abs_tol=1e-6, rel_tol=1e-6))


def test_state_matrix_roundtrip():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    assert np.allclose(_state_to_mat(_mat_to_state(M), (2, 3)), M)


def test_coset_csv_export(tmp_path):
    from geored import cli

    cli.run(cli._make_config("qriccati-pauli", output_dir=str(tmp_path)))
    lines = (tmp_path / "qriccati-pauli" / "ambient.csv").read_text().splitlines()
    assert lines[0] == "t,ReU00,ImU00,ReU01,ImU01,ReU10,ImU10,ReU11,ImU11"
    last = [float(c) for c in lines[-1].split(",")]
    assert last[0] == 1.0
    z = extract_Z(_state_to_mat(np.array(last[1:]), (2, 2)), 1)[0, 0]
    assert z == pytest.approx(-1j * math.tan(1.0), abs=1e-9)


def test_unitarity_lost_on_coarse_stepping():
    # coarse steps leave U^dagger U = 1, and the surface check of the
    # preflight refuses the samples
    H = BlockHamiltonian(
        1, 1, np.array([[30.0]]), np.array([[-40.0]]), np.array([[25.0]])
    )
    with pytest.raises(OffSurface):
        verify_commuting_diagram(
            coset_scenario("coarse", H), IntegratorConfig(abs_tol=5e-2, rel_tol=5e-2)
        )


# -- one unitary evolution per coset check ------------------------------------


@pytest.mark.parametrize(
    "H",
    [pauli_x_hamiltonian(), seeded_n3_hamiltonian(seed=7)],
    ids=["pauli", "n3"],
)
def test_coset_report_carries_trail_outside_equality(H):
    # the diagram report keeps its one recorded unitary evolution, outside
    # its equality and its JSON body
    scenario = coset_scenario("trail", H)
    report = verify_commuting_diagram(scenario)
    fresh = integrate(scenario.system, scenario.x0, 0.0, 1.0)
    assert report.ambient.times.tobytes() == fresh.times.tobytes()
    assert report.ambient.states.tobytes() == fresh.states.tobytes()
    bare = dataclasses.replace(report, ambient=None)
    assert report == bare and repr(report) == repr(bare) and report.body() == bare.body()


@pytest.mark.parametrize("name", ["H1", "H2"])
def test_non_hermitian_block_raises_at_construction(name):
    blocks = {"H1": np.zeros((1, 1)), "H2": np.zeros((2, 2)), "V": np.ones((1, 2))}
    blocks[name] = blocks[name] + 1j * np.triu(np.ones_like(blocks[name]))
    with pytest.raises(ValueError, match=f"{name} is not Hermitian"):
        BlockHamiltonian(1, 2, **blocks)
    # a Hermitian perturbation of the same size passes
    blocks[name] = blocks[name].real + 0.5 * np.eye(len(blocks[name]))
    assert BlockHamiltonian(1, 2, **blocks).assembled.shape == (3, 3)


def _scenario_hamiltonian(name):
    from geored import cli

    if name == "qriccati-pauli":
        return pauli_x_hamiltonian()
    return cli._seeded_hamiltonian_n3(cli._rng_for(name, 0))


@pytest.mark.parametrize("name", ["qriccati-pauli", "qriccati-n3"])
def test_coset_csv_equals_a_fresh_recorded_evolution(tmp_path, name):
    from geored import cli

    config = cli._make_config(name, seed=0, output_dir=str(tmp_path))
    cli.run(config)
    H = _scenario_hamiltonian(name)
    traj = _evolve(H, 1.0, config.integrator)
    header = ["t"] + [f"{part}U{i}{j}" for i in range(H.dim) for j in range(H.dim) for part in ("Re", "Im")]
    rows = [[t, *y] for t, y in zip(traj.times, traj.states)]
    want = "".join(line + "\n" for line in [",".join(header)] + [",".join(f"{v:.17g}" for v in row) for row in rows])
    assert (tmp_path / name / "ambient.csv").read_text() == want


# -- each coset coordinate extracted once -------------------------------------


@pytest.mark.parametrize("name", ["qriccati-pauli", "qriccati-n3"])
def test_coset_scenario_extracts_each_trail_point_once(tmp_path, monkeypatch, name):
    import geored.qriccati as q
    from geored import cli

    calls = []
    extract = q.extract_Z
    monkeypatch.setattr(q, "extract_Z", lambda *args: calls.append(args) or extract(*args))
    config = cli._make_config(name, seed=0, output_dir=str(tmp_path))
    cli.run(config)
    rows = (tmp_path / name / "ambient.csv").read_text().splitlines()
    # one extraction per step state, the start included
    assert len(calls) == len(rows) - 1


def test_coset_report_points_reused_outside_equality(tmp_path, monkeypatch):
    # the run integrates the unitary flow once: its trail metrics read the
    # step states that the diagram report carries outside its equality
    from geored import cli, reduce

    dims, integrate_once = [], reduce.integrate
    monkeypatch.setattr(
        reduce, "integrate", lambda sys, *args: dims.append(sys.dim) or integrate_once(sys, *args)
    )
    report = cli.run(cli._make_config("qriccati-n3", output_dir=str(tmp_path)))
    assert dims == [18, 4]  # the unitary flow, then the Riccati flow
    rows = np.loadtxt(tmp_path / "qriccati-n3" / "ambient.csv", delimiter=",", skiprows=1)
    drifts = [unitarity_drift(_state_to_mat(row[1:], (3, 3))) for row in rows]
    assert report.metrics["unitarity_drift"] == max(drifts)


def _report_singular_at(k):
    """verify_commuting_diagram whose report's ambient trajectory has a zero
    D block at step state k, planted after the diagram is compared."""
    from geored import cli

    verify = cli.verify_commuting_diagram

    def verify_singular(scenario, *args, **kwargs):
        report = verify(scenario, *args, **kwargs)
        states = report.ambient.states
        n = math.isqrt(states.shape[1] // 2)
        U = _state_to_mat(states[k], (n, n))
        U[1:, 1:] = 0.0
        states[k] = _mat_to_state(U)
        return report

    return verify_singular


@pytest.mark.parametrize("name", ["qriccati-pauli", "qriccati-n3"])
def test_singular_block_still_raises_where_it_did(tmp_path, monkeypatch, name):
    from geored import cli

    monkeypatch.setattr(cli, "verify_commuting_diagram", _report_singular_at(5))
    # the scenario is an ERROR that writes no artifact
    report = cli.run(cli._make_config(name, seed=0, output_dir=str(tmp_path)))
    assert report.status == "ERROR" and report.error["type"] == "SingularBlock"
    assert sorted(p.name for p in (tmp_path / name).iterdir()) == ["report.json", "traceback.txt"]


# -- negative controls of the coset diagram ------------------------------------


def test_coset_flow_through_a_singular_block_never_passes():
    # exchange between the first two levels: D = diag(cos t, 1) is singular
    # at t = pi/2, where Z = (-i tan t, 0) and the Riccati flow have a pole
    V = np.array([[1.0, 0.0]])
    H = BlockHamiltonian(1, 2, np.zeros((1, 1)), np.zeros((2, 2)), V)
    scenario = dataclasses.replace(coset_scenario("through-pole", H), t_span=(0.0, 2.0))
    with pytest.raises(GeoredError):
        verify_commuting_diagram(scenario)


def test_orbit_map_leaving_the_subgroup_fails_preflight():
    # a full unitary on the right moves Z: the sampled pairs are not on one class
    scenario = coset_scenario("n3", seeded_n3_hamiltonian(seed=42))

    def full_unitary(x, rng):
        W = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        return _mat_to_state(_state_to_mat(np.asarray(x), (3, 3)) @ W)

    with pytest.raises(PreflightFailed):
        verify_commuting_diagram(dataclasses.replace(scenario, orbit_map=full_unitary))


def test_non_hermitian_generator_fails_the_surface_check():
    # BlockHamiltonian refuses such blocks, so the generator is built
    # without it; its flow leaves U^dagger U = 1 at a rate of order one
    from types import SimpleNamespace

    rng = np.random.default_rng(4)
    H1 = np.array([[0.5 + 0.3j]])
    H2, V = _herm(rng, 2), rng.normal(size=(1, 2)) + 0j
    G = np.block([[H1, V], [V.conj().T, H2]])
    H = SimpleNamespace(n1=1, n2=2, dim=3, H1=H1, H2=H2, V=V, assembled=G)
    scenario = coset_scenario("non-hermitian", H)
    # tangency fails at the start, and every later sample is off the surface
    rep = check_invariant_surface(scenario.system, scenario.surface, [scenario.x0], [0.0])
    assert not rep.ok and rep.worst > 0.1
    with pytest.raises(OffSurface):
        verify_commuting_diagram(scenario)


# -- guards fail closed on NaN --------------------------------------------------


def _nan_block(monkeypatch, tmp_path):
    with pytest.raises(ValueError, match="not Hermitian"):
        BlockHamiltonian(1, 1, np.array([[math.nan]]), np.zeros((1, 1)), np.zeros((1, 1)))


def _nan_drift(monkeypatch, tmp_path):
    # a NaN drift at the fourth step state reaches the unitarity gate
    import geored.qriccati as q
    from geored import cli

    drift, calls = q.unitarity_drift, []
    monkeypatch.setattr(
        q, "unitarity_drift", lambda U: calls.append(U) or (math.nan if len(calls) == 4 else drift(U))
    )
    report = cli.run(cli._make_config("qriccati-n3", output_dir=str(tmp_path)))
    assert report.status == "FAIL" and math.isnan(report.metrics["unitarity_drift"])


@pytest.mark.parametrize("inject", [_nan_block, _nan_drift], ids=["hermitian", "unitarity"])
def test_qriccati_guards_reject_nan(monkeypatch, tmp_path, inject):
    inject(monkeypatch, tmp_path)

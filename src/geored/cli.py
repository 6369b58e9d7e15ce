"""Scenario runner: named verification scenarios spanning every module,
executed with configured tolerances, emitting machine-readable reports and
plot-ready CSV data.

A scenario's runner writes no file: it returns its metrics and its
artifacts, and ``run`` alone writes the output tree.

Reports are deterministic for a fixed (config, seed): the JSON body carries
no timestamps, randomness derives from the global seed split per scenario
by name hashing, and wall time lives only on the in-memory report object.
A scenario that raises, or whose artifacts or metrics cannot be written, is
reported with status ERROR (exception type and message in the body,
traceback in ``traceback.txt``, and no other file) instead of stopping a
``run-all``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from geored import catalog, dirac, dualnum, frames, lagsym, qriccati
from geored.errors import ConfigError, UnknownScenario, nan_max
from geored.flow import Dopri45Stepper, IntegratorConfig
from geored.reduce import TOLERANCES, verify_commuting_diagram

PASS, FAIL, ERROR = "PASS", "FAIL", "ERROR"


@dataclass
class ScenarioConfig:
    name: str
    seed: int = 0
    params: dict = field(default_factory=dict)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    tolerances: dict = field(default_factory=dict)
    output_dir: str = "geored-out"


@dataclass
class RunReport:
    name: str
    status: str
    metrics: dict
    artifacts: list
    config_echo: dict
    wall_time: float = 0.0
    error: dict | None = None  # {"type", "message"} of an ERROR run

    def body(self) -> dict:
        body = {
            "name": self.name,
            "status": self.status,
            "metrics": self.metrics,
            "artifacts": self.artifacts,
            "config_echo": self.config_echo,
        }
        if self.error is not None:
            body["error"] = self.error
        return body


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    description: str
    refs: tuple[str, ...]
    tolerances: dict  # metric name -> max allowed value (gated)
    runner: object  # (config, rng) -> (metrics, {file name: payload})
    params: dict = field(default_factory=dict)  # the params it reads -> default


@dataclass(frozen=True)
class CsvTable:
    """A CSV artifact: the header, and rows of numbers drawn as they are
    written, so no file is held in memory whole."""

    header: Sequence[str]
    rows: Iterable[Sequence[float]]


def _write_json(path: Path, payload) -> None:
    """The one format of every JSON artifact and report."""
    path.write_text(json.dumps(payload, sort_keys=True, indent=2))


def _write_csv(path: Path, table: CsvTable) -> None:
    """The one format of every CSV artifact: comma-separated cells, numbers
    to 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(",".join(table.header) + "\n")
        for row in table.rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _trajectory_table(traj, time_label: str) -> CsvTable:
    """Time plus one column per coordinate of a trajectory's samples."""
    return CsvTable(
        (time_label, *traj.coord_names),
        ((t, *state) for t, state in zip(traj.times, traj.states)),
    )


def _rng_for(name: str, seed: int) -> np.random.Generator:
    digest = hashlib.sha256(name.encode()).digest()
    child = int.from_bytes(digest[:8], "big") ^ (seed & 0xFFFFFFFFFFFFFFFF)
    return np.random.default_rng(child)


# -- scenario runners ---------------------------------------------------------


def _diagram_spec(name, description, refs, build, gates, deviation="max_dev", trail=None):
    """The spec of a reduction: the diagram of the scenario ``build(rng)``,
    its deviation reported as the metric ``deviation``, and ``trail(ambient)``
    adding metrics read off the step states of the ambient trajectory."""

    def runner(config, rng):
        scenario = build(rng)
        report = verify_commuting_diagram(scenario, config.integrator, seed=config.seed)
        metrics = {deviation: report.max_dev, **(trail(report.ambient) if trail else {})}
        record = {"name": scenario.name, "x0": list(map(float, scenario.x0))}
        record.update(t_span=list(scenario.t_span), tolerances=TOLERANCES, notes=scenario.notes)
        return metrics, {
            "ambient.csv": _trajectory_table(report.ambient, "t"),
            "diagram.json": report.body(),
            "scenario.json": record,
        }

    return ScenarioSpec(name, description, refs, gates, runner)


def _catalog_spec(name: str, description: str, refs: tuple[str, ...]) -> ScenarioSpec:
    """The spec of a catalog reduction, gated on the diagram deviation."""
    build = catalog.ENTRY_BUILDERS[name]
    return _diagram_spec(name, description, refs, lambda rng: build(), {"max_dev": 1e-6})


def _run_radial_time_dependent(config, rng):
    static_dev = catalog.radial_time_dependent_consistency(
        1.0, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], cfg=config.integrator
    )
    generic_dev = catalog.radial_time_dependent_consistency(
        2.0, [1.0, 0.0, 0.0, 0.0, np.sqrt(3.0), 0.0], cfg=config.integrator
    )
    consistency = {
        "static_stratum_dev": static_dev,
        "generic_data_dev": generic_dev,
        "note": "generic deviation quantifies the published equation's "
        "suspect term; reported, not gated",
    }
    return (
        {"static_stratum_dev": static_dev, "generic_data_dev": generic_dev},
        {"consistency.json": consistency},
    )


# the two-level exchange generator, whose coset coordinate is -i tan(t)
_PAULI_X = qriccati.BlockHamiltonian(1, 1, np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1)))


def _seeded_hamiltonian_n3(rng):
    """A seeded Hermitian 1 + 2 block generator, scaled down to spectral
    norm 2 when larger."""
    def herm(n):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return (A + A.conj().T) / 2.0

    H1, H2 = herm(1), herm(2)
    V = (rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2))) / 2.0
    H = qriccati.BlockHamiltonian(1, 2, H1, H2, V)
    scale = np.linalg.norm(H.assembled, ord=2)
    if scale > 2.0:
        f = 2.0 / scale
        H = qriccati.BlockHamiltonian(1, 2, H1 * f, H2 * f, V * f)
    return H


def _coset_trail(n: int, closed_form=None):
    """The worst unitarity drift of a coset diagram's n x n unitary step states
    (upper block 1 x 1) and, with ``closed_form(t)``, the worst gap of Z to it.
    Z is extracted at every state, so a singular D block raises SingularBlock."""

    def metrics(ambient):
        drift = gap = 0.0
        for t, y in zip(ambient.times.tolist(), ambient.states):
            U = qriccati._state_to_mat(y, (n, n))
            Z = qriccati.extract_Z(U, 1)
            drift = nan_max(drift, qriccati.unitarity_drift(U))
            if closed_form is not None:
                gap = nan_max(gap, float(np.max(np.abs(Z - closed_form(t)))))
        return {"unitarity_drift": drift, **({"closed_form_dev": gap} if closed_form else {})}

    return metrics


def _run_relativistic_free_particle(config, rng):
    model = lagsym.relativistic_lagrangian()
    conn = lagsym.relativistic_connection()
    energy_max = 0.0
    pts = []
    while len(pts) < 100:
        x = rng.uniform(-2, 2, 4)
        v = rng.uniform(-1, 1, 4)
        v[0] = rng.uniform(1.2, 2.5) * (1.0 + np.linalg.norm(v[1:]))
        pts.append(np.concatenate([x, v]))
    for z in pts:
        energy_max = nan_max(energy_max, abs(float(lagsym.energy(model, z))))
    z0 = pts[0]
    conn.validate(model, z0)
    W = lagsym.lagrangian_two_form(model, z0)
    basis = lagsym.kernel_basis(W)
    kernel_dim_gap = abs(len(basis) - 2)
    v = z0[4:]
    contain_gap = 0.0
    P = np.stack(basis) if basis else np.zeros((0, 8))
    for probe in (np.concatenate([v, np.zeros(4)]), np.concatenate([np.zeros(4), v])):
        proj = P.T @ (P @ probe)
        contain_gap = nan_max(
            contain_gap,
            float(np.max(np.abs(proj - probe)) / (1 + np.linalg.norm(probe))),
        )
    Qs, Ps = lagsym.newton_wigner_fields()
    frames = [lagsym.ConnectionFrame(model, conn, z) for z in pts[:5]]
    darboux_gap = 0.0
    for frame in frames:
        for rows, cols, table in ((Qs, Ps, np.eye(3)), (Qs, Qs, 0.0), (Ps, Ps, 0.0)):
            M = lagsym.bracket_matrix(frame.bracket, rows, cols)
            darboux_gap = nan_max(darboux_gap, lagsym.table_gap(M, table))
    coords = lagsym.coordinate_fields(8, [f"x{i}" for i in range(4)] + [f"v{i}" for i in range(4)])
    frame0 = frames[0]  # at z0
    jacobi_max = 0.0
    for f, g, h in [(coords[0], coords[1], coords[5]), (coords[2], coords[4], coords[7])]:
        jacobi_max = nan_max(jacobi_max, lagsym.jacobi_residual(frame0, f, g, h))
    casimir_max = lagsym.table_gap(lagsym.bracket_matrix(frame0.bracket, [model.L], coords))
    # one table of the coordinates' brackets at z0 serves both artifacts
    C = lagsym.bracket_matrix(frame0.bracket, coords, coords)
    table = lagsym.bracket_table(z0, coords, C)
    position_report = lagsym.measured_position_brackets(frame0, C)
    return (
        {
            "energy_max": energy_max,
            "kernel_dim_gap": float(kernel_dim_gap),
            "kernel_contains_gap": contain_gap,
            "darboux_gap": darboux_gap,
            "jacobi_max": jacobi_max,
            "casimir_max": casimir_max,
            "xx_prefactor_measured": position_report["xx_prefactor_measured"],
            "xx_prefactor_published_form": position_report["xx_prefactor_published_form"],
        },
        {"bracket_table.json": table, "position_brackets.json": position_report},
    )


# the params of the two-particle scenarios, with their defaults
_TWO_PARTICLE = {"lambda": 0.1, "m1": 1.0, "m2": 2.0}


def _two_particle(config):
    params = {**REGISTRY[config.name].params, **config.params}
    lam, m1, m2 = (float(params[key]) for key in ("lambda", "m1", "m2"))
    return dirac.two_particle_model(m1, m2, dirac.linear_potential(lam)), (m1, m2)


def _run_dirac_two_particle(config, rng):
    (cset, space), masses = _two_particle(config)
    kill_max = 0.0
    gen_gap = 0.0
    points = [dirac.sample_on_shell(cset, rng, masses) for _ in range(20)]
    xs = [dirac.coordinate_fn(space, "x", alpha, mu) for alpha in (0, 1) for mu in range(4)]
    gens = dirac.poincare_generators(space)
    for k, z in enumerate(points):
        frame = dirac.DiracFrame(cset, z)
        if k == 0:
            frame0 = frame  # the Jacobi and determinant checks run on it too
        M = lagsym.bracket_matrix(frame.bracket, xs, [c.fn for c in cset.constraints])
        kill_max = nan_max(kill_max, lagsym.table_gap(M))
        if k >= 3:
            continue
        for i, j in ((0, 1), (0, 6), (3, 8), (2, 5)):
            pb = float(frame.canonical(gens[i].fn, gens[j].fn))
            db = float(frame.bracket(gens[i].fn, gens[j].fn))
            gen_gap = nan_max(gen_gap, abs(pb - db))
    triple = [dirac.coordinate_fn(space, k, 0, mu) for k, mu in (("x", 1), ("x", 2), ("p", 1))]
    jacobi_max = lagsym.jacobi_residual(frame0, *triple)
    det_report = dirac.published_constraint_matrix(frame0)
    derived = det_report["derived_det"]
    traj = dirac.constrained_flow(cset, points[0], (0.0, 3.0), config.integrator)
    flow_drift = 0.0
    for t, s in zip(traj.times, traj.states):
        flow_drift = nan_max(flow_drift, float(np.max(np.abs(cset.values(s, t)))))
    return (
        {
            "constraint_kill_max": kill_max,
            "generator_bracket_gap": gen_gap,
            "jacobi_max": jacobi_max,
            "flow_constraint_drift": flow_drift,
            "det_first_principles": det_report["measured_det"],
            "det_gap": abs(det_report["measured_det"] - derived) / abs(derived),
            "det_published_form": det_report["published_det"],
        },
        {
            "constraint_matrix.json": det_report,
            "constrained_flow.csv": _trajectory_table(traj, "tau"),
        },
    )


def _run_noncommuting_positions(config, rng):
    (cset, _), masses = _two_particle(config)
    report = dirac.position_noncommutativity(
        dirac.DiracFrame(cset, dirac.sample_on_shell(cset, rng, masses))
    )
    tables = {
        "constrained": [T.tolist() for T in report["dirac_tables"]],
        "canonical": [T.tolist() for T in report["canonical_tables"]],
    }
    # gate: canonical must vanish; the Dirac table must NOT (inverse metric)
    dirac_max = report["dirac_max_abs"]
    witness = 1.0 / dirac_max if dirac_max > 0 else np.inf
    return (
        {
            "canonical_max_abs": report["canonical_max_abs"],
            "dirac_max_abs": dirac_max,
            "dirac_witness_inverse": float(witness),
        },
        {"position_tables.json": tables},
    )


def _run_wlc(config, rng):
    (cset, space), masses = _two_particle(config)
    frame = dirac.DiracFrame(cset, dirac.sample_on_shell(cset, rng, masses))
    scale = 1e-4
    worst_ratio = 0.0
    rows = []
    for _ in range(10):
        omega = np.zeros((4, 4))
        for mu in range(4):
            for nu in range(mu + 1, 4):
                omega[mu, nu] = rng.uniform(-1, 1) * scale
                omega[nu, mu] = -omega[mu, nu]
        norm = float(np.max(np.abs(omega)))
        report = dirac.wlc_residual(frame, omega, np.zeros(4))
        worst_ratio = nan_max(worst_ratio, report["residual"] / norm)
        rows.append({"omega_norm": norm, "residual": report["residual"]})
    trans = dirac.wlc_residual(frame, np.zeros((4, 4)), rng.uniform(-1, 1, 4) * scale)
    return (
        {
            "boost_residual_over_omega": worst_ratio,
            "translation_residual": trans["residual"],
        },
        {"wlc.json": {"boosts": rows, "translation": trans}},
    )


def _run_deformed_poincare(config, rng):
    worst = 0.0
    for K in (0.1, 1.0, 100.0):
        worst = nan_max(worst, dirac.jacobi_residual(dirac.DeformedPoincare(K).C))
    a, b = dirac.DeformedPoincare(1.0), dirac.DeformedPoincare(10.0)
    scaling_gap = float(np.max(np.abs(a.position_block() - 10.0 * b.position_block())))
    structure = {"basis": a.labels, "jacobi_max": worst, "scaling_gap": scaling_gap}
    return {"jacobi_max": worst, "scaling_gap": scaling_gap}, {"structure.json": structure}


def _run_kernel_crosscheck(config, rng):
    from geored.calc import CENTRAL, DUAL, ScalarField, gradient

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    worst = 0.0
    for k in range(20):
        # the same draws as arrays, then Python floats: the fields run the
        # same IEEE operations without numpy scalar arithmetic
        c = rng.uniform(-1, 1, size=(3, 3)).tolist()
        lin = rng.uniform(-1, 1, size=3).tolist()

        def fn(x, c=c, lin=lin):
            quad = 0.0
            for i in range(3):
                for j in range(3):
                    quad = quad + c[i][j] * x[i] * x[j]
            return (quad + dot(lin, x)) / (1.0 + dot(x, x))

        f = ScalarField(3, fn)
        for _ in range(10):
            x = rng.uniform(-2, 2, 3).tolist()
            gd = np.asarray(gradient(f, x, DUAL))
            gc = np.asarray(gradient(f, x, CENTRAL))
            rel = float(np.max(np.abs(gd - gc)) / (1.0 + np.max(np.abs(gd))))
            worst = nan_max(worst, rel)

    # local order of the RK45 step every verdict takes: one step of exactly
    # h on the harmonic field from (1, 0) errs by O(h^6).  Tolerances of 1e6
    # accept every step, and h = 1 set before it clips the step to h.
    loose = IntegratorConfig(abs_tol=1e6, rel_tol=1e6)
    errs = []
    for h in (0.1, 0.05):
        stepper = Dopri45Stepper(lambda y, t: [y[1], -y[0]], 0.0, [1.0, 0.0], loose)
        stepper.h = 1.0
        _, y, _ = stepper.step(h)
        errs.append(float(np.max(np.abs(y - [math.cos(h), -math.sin(h)]))))
    order = math.log2(errs[0] / errs[1])
    return {"corpus_rel_dev": worst, "dp5_order_gap": abs(order - 6.0)}, {}


def _run_frames_suite(config, rng):
    proj_gap = 0.0
    for _ in range(10):
        L = frames.boost_matrix(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1, 3))
        fr = frames.transform_frame(frames.lab_frame(), L)
        R = frames.frame_tensor(fr, [0.0, 0.0, 0.0, 0.0])
        proj_gap = nan_max(proj_gap, float(np.max(np.abs(R.R @ R.R - R.R))))
        proj_gap = nan_max(proj_gap, abs(float(np.trace(R.R)) - 1.0))
    pts = [rng.uniform(-1, 1, 4) for _ in range(6)]
    frobenius_conformal = frames.frobenius_residual(
        lambda pt: [dualnum.exp(-pt[1]), 0.0, 0.0, 0.0], pts
    )
    contact = frames.frobenius_residual(lambda pt: [pt[1], 0.0, 1.0, 0.0], pts)
    metric_report = frames.metric_from_frame_family(
        [(0.7, (1, 0, 0)), (1.3, (0, 1, 0)), (-0.4, (0.2, -0.5, 0.8))]
    )
    boosted = frames.transform_frame(frames.lab_frame(), frames.boost_matrix(1.0))
    trace = frames.compatible(
        frames.frame_tensor(frames.lab_frame(), [0, 0, 0, 0]),
        frames.frame_tensor(boosted, [0, 0, 0, 0]),
    )["trace"]
    return (
        {
            "projector_gap": proj_gap,
            "frobenius_conformal": frobenius_conformal,
            "contact_inverse": 1.0 / contact,
            "metric_residual": metric_report["residual"],
            "compatibility_gap": abs(trace - np.cosh(1.0) ** 2),
        },
        {},
    )


def _build_registry() -> dict:
    specs = [
        _catalog_spec(
            "radial-l",
            "free flow restricted to a fixed angular-momentum level versus the "
            "inverse-cube radial system",
            ("radial reduction of free motion", "invariant level sets"),
        ),
        _catalog_spec(
            "radial-E",
            "free flow restricted to a fixed kinetic-energy level versus the "
            "energy-coupled radial system",
            ("radial reduction of free motion", "energy level sets"),
        ),
        _catalog_spec(
            "calogero-from-matrix",
            "eigenvalues of free symmetric-matrix motion versus the two-body "
            "inverse-cube pair dynamics",
            ("two-body integrable pair dynamics", "matrix-motion reduction"),
        ),
        _catalog_spec(
            "so3-quotient",
            "free flow projected to the rotation-invariant chart versus the "
            "reduced three-dimensional system",
            ("rotation-group quotient", "invariant-function reduction"),
        ),
        _catalog_spec(
            "riccati-classical",
            "planar linear flow projected to the projective chart versus the "
            "scalar Riccati equation",
            ("projective reduction of linear flow", "scalar Riccati equation"),
        ),
        _diagram_spec(
            "riccati-cross-ratio",
            "constancy of the anharmonic ratio of four Riccati solutions "
            "sharing one linear ambient system",
            ("nonlinear superposition of Riccati solutions",),
            lambda rng: catalog.entry_cross_ratio(),
            {"cross_ratio_drift": 1e-8},
            deviation="cross_ratio_drift",
        ),
        ScenarioSpec(
            "radial-time-dependent",
            "time-dependent radial reduction as published: exact on the static "
            "stratum, deviation of generic data reported",
            ("moving invariant level sets",),
            {"static_stratum_dev": 1e-6},
            _run_radial_time_dependent,
        ),
        _diagram_spec(
            "qriccati-pauli",
            "two-level exchange generator: coset coordinate against the "
            "closed-form tangent solution",
            ("unitary coset reduction", "two-level closed form"),
            lambda rng: qriccati.coset_scenario("qriccati-pauli", _PAULI_X),
            {"closed_form_dev": 1e-8, "coset_dev": 1e-8},
            deviation="coset_dev",
            trail=_coset_trail(2, lambda t: -1j * math.tan(t)),
        ),
        _diagram_spec(
            "qriccati-n3",
            "three-level seeded Hermitian generator: unitary flow versus the "
            "matrix Riccati coset flow",
            ("unitary coset reduction", "matrix Riccati flow"),
            lambda rng: qriccati.coset_scenario("qriccati-n3", _seeded_hamiltonian_n3(rng)),
            {"coset_dev": 1e-6, "unitarity_drift": 1e-9},
            deviation="coset_dev",
            trail=_coset_trail(3),
        ),
        ScenarioSpec(
            "relativistic-free-particle",
            "energy identity, two-form kernel, canonical chart relations, "
            "Jacobi and Casimir checks for the square-root model",
            ("degenerate Lagrangian kinematics", "manifold of motions chart"),
            {
                "energy_max": 1e-12,
                "kernel_dim_gap": 0.5,
                "kernel_contains_gap": 1e-8,
                "darboux_gap": 1e-8,
                "jacobi_max": 1e-6,
                "casimir_max": 1e-8,
            },
            _run_relativistic_free_particle,
        ),
        ScenarioSpec(
            "dirac-two-particle",
            "constraint-killing, Jacobi, and generator-equivalence checks for "
            "the interacting two-particle bracket, with the constraint-matrix "
            "determinant against its derived value 2 (P.p1)(P.p2) and reported "
            "next to the published closed form",
            ("second-class constraint brackets", "two-particle interaction"),
            {
                "constraint_kill_max": 1e-9,
                "generator_bracket_gap": 1e-8,
                "jacobi_max": 1e-6,
                "flow_constraint_drift": 1e-7,
                "det_gap": 1e-12,
            },
            _run_dirac_two_particle,
            _TWO_PARTICLE,
        ),
        ScenarioSpec(
            "dirac-two-particle-noncommuting-positions",
            "physical positions acquire nonzero mutual brackets on the reduced "
            "surface and commute without constraints",
            ("position noncommutativity witness",),
            {"canonical_max_abs": 1e-12, "dirac_witness_inverse": 1e6},
            _run_noncommuting_positions,
            _TWO_PARTICLE,
        ),
        ScenarioSpec(
            "wlc-dynamical-gauge",
            "world-line condition residual for random infinitesimal boosts "
            "under the state-dependent evolution gauge",
            ("world-line condition", "dynamical gauge"),
            {"boost_residual_over_omega": 1e-6, "translation_residual": 1e-10},
            _run_wlc,
            _TWO_PARTICLE,
        ),
        ScenarioSpec(
            "deformed-poincare-jacobi",
            "Jacobi identity and exact 1/K scaling of the position-Lorentz "
            "bracket algebra",
            ("deformed position-Lorentz algebra",),
            {"jacobi_max": 1e-12, "scaling_gap": 1e-15},
            _run_deformed_poincare,
        ),
        ScenarioSpec(
            "kernel-crosscheck",
            "forward-mode derivatives against the central-difference oracle on "
            "a random field corpus; sixth-order local error of the "
            "Dormand-Prince step that every flow takes",
            ("differentiation kernel cross-validation",),
            {"corpus_rel_dev": 1e-5, "dp5_order_gap": 0.01},
            _run_kernel_crosscheck,
        ),
        ScenarioSpec(
            "frames-suite",
            "projector, compatibility, integrability, and derived-metric checks "
            "for reference-frame tensors",
            ("reference-frame tensors", "frame compatibility metric"),
            {
                "projector_gap": 1e-10,
                "frobenius_conformal": 1e-7,
                "contact_inverse": 10.0,
                "metric_residual": 1e-12,
                "compatibility_gap": 1e-12,
            },
            _run_frames_suite,
        ),
    ]
    return {spec.name: spec for spec in specs}


REGISTRY = _build_registry()


def list_scenarios() -> list[dict]:
    out = []
    for name in sorted(REGISTRY):
        spec = REGISTRY[name]
        out.append(
            {"name": spec.name, "description": spec.description, "refs": list(spec.refs)}
        )
    return out


def _is_finite_number(value) -> bool:
    """A finite real number and no bool: a JSON true is an int to Python."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _check_config(config: ScenarioConfig) -> None:
    """Raise unless the scenario exists, every tolerance override names one
    of its gates with a finite number no looser than the gate, and every
    param is one the scenario reads, with a finite number."""
    if config.name not in REGISTRY:
        raise UnknownScenario(config.name)
    gates = REGISTRY[config.name].tolerances
    for key, value in config.tolerances.items():
        if key not in gates:
            raise ConfigError(
                f"unknown tolerance override {key!r} for {config.name}", fields=[key]
            )
        if not _is_finite_number(value) or value > gates[key]:
            raise ConfigError(
                f"tolerance override {key}={value!r} for {config.name} must be a "
                f"finite number no looser than the gate {gates[key]:g}",
                fields=[key],
            )
    readable = REGISTRY[config.name].params
    for key, value in config.params.items():
        if key not in readable:
            raise ConfigError(f"{config.name} reads no param {key!r}", fields=[key])
        if not _is_finite_number(value):
            raise ConfigError(f"param {key}={value!r} is not a finite number", fields=[key])


def run(config: ScenarioConfig) -> RunReport:
    _check_config(config)
    spec = REGISTRY[config.name]
    gates = {**spec.tolerances, **config.tolerances}
    outdir = Path(config.output_dir) / config.name
    outdir.mkdir(parents=True, exist_ok=True)
    rng = _rng_for(config.name, config.seed)
    started = time.perf_counter()
    error = None
    written = []
    try:
        metrics, artifacts = spec.runner(config, rng)
        for name, payload in artifacts.items():
            path = outdir / name
            written.append(path)
            if isinstance(payload, CsvTable):
                _write_csv(path, payload)
            else:
                _write_json(path, payload)
        metrics = {k: float(v) for k, v in metrics.items()}
    except Exception as err:  # a crashed scenario is reported, never lost
        for path in written:  # a partly written run leaves no artifact
            path.unlink(missing_ok=True)
        (outdir / "traceback.txt").write_text(traceback.format_exc())
        error = {"type": type(err).__name__, "message": str(err)}
        metrics, artifacts = {}, {}
    wall = time.perf_counter() - started
    # fail closed: a gated metric that is missing or not finite fails
    failed = any(
        not np.isfinite(metrics.get(key, np.nan)) or metrics[key] > limit
        for key, limit in gates.items()
    )
    status = ERROR if error else FAIL if failed else PASS
    report = RunReport(
        name=config.name,
        status=status,
        metrics=metrics,
        artifacts=["traceback.txt"] if error else sorted(artifacts),
        config_echo={
            "seed": config.seed,
            "params": config.params,
            "tolerances": gates,
            "rk45_abs_tol": config.integrator.abs_tol,
            "rk45_rel_tol": config.integrator.rel_tol,
        },
        wall_time=wall,
        error=error,
    )
    _write_json(outdir / "report.json", report.body())
    return report


def run_all(
    output_dir: str = "geored-out",
    seed: int = 0,
    rk45_tol: float | None = None,
    configs_dir: str | None = None,
) -> dict:
    """Aggregate every registered scenario; per-scenario JSON files in
    ``configs_dir`` override the defaults, and an empty or absent directory
    just means defaults.  Every configuration is built before the first
    scenario runs, so a ``ConfigError`` leaves no output.  Prints one status
    line as each scenario finishes."""
    configs = []
    for name in sorted(REGISTRY):
        file_cfg = {}
        if configs_dir:
            candidate = Path(configs_dir) / f"{name}.json"
            if candidate.exists():
                file_cfg = _load_config_file(str(candidate), _RUN_ALL_KEYS)
        configs.append(
            _make_config(
                name,
                seed=file_cfg.get("seed", seed),
                output_dir=output_dir,
                rk45_tol=file_cfg.get("rk45_tol", rk45_tol),
                params=file_cfg.get("params"),
                tolerances=file_cfg.get("tolerances"),
            )
        )
    counts = {"pass": 0, "fail": 0, "error": 0}
    reports = []
    for config in configs:
        report = run(config)
        reports.append(report)
        counts[report.status.lower()] += 1
        _print_status(report)
    summary = {
        "counts": counts,
        "reports": [r.body() for r in reports],
    }
    path = Path(output_dir) / "summary.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_json(path, summary)
    return summary


def _make_config(name, seed=0, output_dir="geored-out", rk45_tol=None, params=None, tolerances=None):
    """A checked configuration (``_check_config``); a config file may hold
    any JSON value."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed {seed!r} is not an integer", fields=["seed"])
    if rk45_tol is not None and not _is_finite_number(rk45_tol):
        raise ConfigError(f"rk45_tol {rk45_tol!r} is not a finite number", fields=["rk45_tol"])
    try:
        integrator = (
            IntegratorConfig()
            if rk45_tol is None
            else IntegratorConfig(abs_tol=rk45_tol, rel_tol=rk45_tol)
        )
    except ValueError as err:
        raise ConfigError(f"rk45_tol {rk45_tol!r}: {err}", fields=["rk45_tol"])
    for key, value in (("params", params), ("tolerances", tolerances)):
        if value is not None and not isinstance(value, dict):
            raise ConfigError(f"{key} {value!r} is not an object", fields=[key])
    config = ScenarioConfig(
        name=name,
        seed=seed,
        params=params or {},
        integrator=integrator,
        tolerances=tolerances or {},
        output_dir=output_dir,
    )
    _check_config(config)
    return config


# the keys of a config file: a run-all file is named after its scenario and
# writes under the run-all output directory
_RUN_ALL_KEYS = ("seed", "rk45_tol", "params", "tolerances")
_RUN_KEYS = ("scenario", "out_dir") + _RUN_ALL_KEYS


def _load_config_file(path: str, keys: tuple) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}", fields=["config"])
    except json.JSONDecodeError as err:
        raise ConfigError(f"malformed config file: {err}", fields=["config"])
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} does not hold an object", fields=["config"])
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ConfigError(
            f"unknown keys {unknown} in config file {path} (allowed: {', '.join(keys)})",
            fields=unknown,
        )
    return cfg


def _print_status(report: RunReport) -> None:
    print(f"{report.name}: {report.status} ({report.wall_time:.2f}s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="geored",
        description="run named verification scenarios and emit reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="enumerate registered scenarios")

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("--scenario", required=False)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out-dir", default=None)
    run_p.add_argument("--rk45-tol", type=float, default=None)
    run_p.add_argument("--config", default=None, help="JSON config file")

    all_p = sub.add_parser("run-all", help="run every scenario with defaults")
    all_p.add_argument("--seed", type=int, default=0)
    all_p.add_argument("--out-dir", default="geored-out")
    all_p.add_argument("--rk45-tol", type=float, default=None)
    all_p.add_argument("--configs-dir", default=None)

    args = parser.parse_args(argv)
    if args.command == "list":
        for item in list_scenarios():
            refs = "; ".join(item["refs"])
            print(f"{item['name']}: {item['description']} [{refs}]")
        return 0

    try:
        if args.command == "run":
            file_cfg = _load_config_file(args.config, _RUN_KEYS) if args.config else {}
            name = args.scenario or file_cfg.get("scenario")
            if not name:
                raise ConfigError(
                    "no scenario given (flag or config file)", ["scenario"]
                )
            seed = args.seed if args.seed is not None else file_cfg.get("seed", 0)
            out_dir = args.out_dir or file_cfg.get("out_dir", "geored-out")
            rk45 = args.rk45_tol if args.rk45_tol is not None else file_cfg.get("rk45_tol")
            config = _make_config(
                name,
                seed=seed,
                output_dir=out_dir,
                rk45_tol=rk45,
                params=file_cfg.get("params"),
                tolerances=file_cfg.get("tolerances"),
            )
            report = run(config)
            _print_status(report)
            if report.error is not None:
                print(f"  {report.error['type']}: {report.error['message']}")
            for key, value in sorted(report.metrics.items()):
                print(f"  {key} = {value:.6e}")
            return 0 if report.status == PASS else 1

        summary = run_all(args.out_dir, args.seed, args.rk45_tol, args.configs_dir)
        counts = summary["counts"]
        print(" ".join(f"{key}={value}" for key, value in counts.items()))
        return 0 if counts["pass"] == len(summary["reports"]) else 1
    except (UnknownScenario, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

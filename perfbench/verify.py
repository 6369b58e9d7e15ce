"""Execute one verification and judge it fail-closed.

``cli.run`` gates with ``metrics.get(key, 0.0) > limit``, so a NaN or a
missing gated metric reads as PASS there.  The benchmark recomputes every
gate from the registry instead: a raised exception, a non-PASS status, or a
gated metric that is missing, non-finite or over its limit is a failure.
Ungated metrics (the determinant fields, for one) go into the digest only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from geored import calc, cli, dirac
from geored.flow import IntegratorConfig

from workloads import DIRAC_JACOBI, SHELL_HESSIAN, Verification

JACOBI_GATE = 1e-6  # the dirac-two-particle scenario's jacobi_max gate
# relative gap allowed between the dual Hessian and the four-point stencil,
# whose truncation error is O(step) with the default 1e-6 step
CENTRAL_HESSIAN_RTOL = 1e-4


@dataclass
class Outcome:
    """What one verification produced: a JSON-able body for the digest, the
    reasons it failed (empty when it passed), and the scenario's own wall
    time for ``cli.run`` calls."""

    body: dict
    problems: list = field(default_factory=list)
    wall_time: float | None = None
    hessian: object = None  # kept for the central-difference cross-check


def gate_problems(status: str, metrics: dict, gates: dict) -> list[str]:
    """Reasons a report fails its gates; empty means PASS."""
    problems = [] if status == cli.PASS else [f"status {status}"]
    for key, limit in sorted(gates.items()):
        if key not in metrics:
            problems.append(f"gated metric {key} missing")
            continue
        value = metrics[key]
        if not math.isfinite(value):
            problems.append(f"gated metric {key} = {value} is not finite")
        elif value > limit:
            problems.append(f"gated metric {key} = {value:.3e} over {limit:.0e}")
    return problems


def _run_scenario(item: Verification, outdir: str) -> Outcome:
    integrator = (
        IntegratorConfig(abs_tol=item.rk45_tol, rel_tol=item.rk45_tol)
        if item.rk45_tol
        else IntegratorConfig()
    )
    config = cli.ScenarioConfig(
        name=item.scenario,
        seed=item.seed,
        params=dict(item.params),
        integrator=integrator,
        output_dir=outdir,
    )
    report = cli.run(config)
    gates = cli.REGISTRY[item.scenario].tolerances
    return Outcome(
        report.body(),
        gate_problems(report.status, report.metrics, gates),
        report.wall_time,
    )


def _model_point(params: dict, point_seed: int):
    m1, m2 = params["m1"], params["m2"]
    cset, space = dirac.two_particle_model(m1, m2, dirac.linear_potential(params["lambda"]))
    z = dirac.sample_on_shell(cset, np.random.default_rng(point_seed), (m1, m2))
    return cset, space, z


def _dirac_jacobi(item: Verification) -> Outcome:
    cset, space, z = _model_point(item.params, item.seed)
    f, g, h = (dirac.coordinate_fn(space, *coord) for coord in item.params["triple"])

    def pair(a, b):
        return lambda zz, tau: dirac.dirac_bracket(cset, a, b, zz, tau)

    residual = abs(
        float(
            dirac.dirac_bracket(cset, f, pair(g, h), z)
            + dirac.dirac_bracket(cset, g, pair(h, f), z)
            + dirac.dirac_bracket(cset, h, pair(f, g), z)
        )
    )
    problems = []
    if not residual <= JACOBI_GATE:  # also catches NaN
        problems.append(f"jacobi residual {residual:.3e} over {JACOBI_GATE:.0e}")
    return Outcome({"jacobi_residual": residual}, problems)


def shell_field(params: dict, point_seed: int):
    """The drawn mass-shell constraint as a 16-dim field, and the on-shell point."""
    cset, _, z = _model_point(params, point_seed)
    shell = cset.shells[params["shell"]]
    return calc.ScalarField(len(z), lambda x: shell.fn(x, 0.0)), z


def _shell_hessian(item: Verification) -> Outcome:
    field_, z = shell_field(item.params, item.seed)
    H = np.asarray(calc.hessian(field_, z), dtype=float)
    problems = []
    if not np.all(np.isfinite(H)):
        problems.append("hessian has non-finite entries")
    elif np.max(np.abs(H - H.T)) > 1e-12 * (1.0 + np.max(np.abs(H))):
        problems.append("hessian is not symmetric")
    return Outcome({"hessian": H.tolist()}, problems, hessian=H)


def central_problems(item: Verification, H) -> list[str]:
    """Compare a dual Hessian with the central-difference oracle; run outside
    the timed region."""
    field_, z = shell_field(item.params, item.seed)
    Hc = calc.hessian(field_, z, calc.CENTRAL)
    gap = float(np.max(np.abs(H - Hc)) / (1.0 + np.max(np.abs(H))))
    if not gap <= CENTRAL_HESSIAN_RTOL:
        return [f"hessian differs from the central oracle by {gap:.3e}"]
    return []


def execute(item: Verification, outdir: str) -> Outcome:
    """Run one verification; an exception is recorded as a failure."""
    try:
        if not item.library:
            return _run_scenario(item, outdir)
        if item.scenario == DIRAC_JACOBI:
            return _dirac_jacobi(item)
        if item.scenario == SHELL_HESSIAN:
            return _shell_hessian(item)
        raise ValueError(f"unknown library check {item.scenario!r}")
    except Exception as err:  # a crashed verification counts, the run goes on
        return Outcome(
            {"error": f"{type(err).__name__}: {err}"},
            [f"raised {type(err).__name__}: {err}"],
        )

"""Benchmark inputs: each workload's verification list as a pure function of
the workload seed.

Only the standard library is used here, so the inputs can be generated and
tested without importing numpy or geored.  Together the three workloads cover
every registered scenario exactly once:

- ``dirac-shell`` runs the two-particle Dirac scenarios with drawn model
  parameters.  Flat 16-dimensional dual gradients and the constraint algebra
  rebuilt on every bracket dominate; stepping is light.
- ``reduction-flow`` runs the reduction, Riccati, coset, kernel and frame
  scenarios at three RK45 tolerances.  Cheap right-hand sides, so adaptive
  stepping, dense output and low-dimensional gradients dominate; no Dirac
  code runs.
- ``nested-jacobi`` runs the bracket-algebra scenarios plus two library
  checks per unit, a Dirac-bracket Jacobi residual and a mass-shell Hessian.
  Both put duals inside duals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DIRAC_SHELL = (
    "dirac-two-particle",
    "dirac-two-particle-noncommuting-positions",
    "wlc-dynamical-gauge",
)
REDUCTION_FLOW = (
    "radial-l",
    "radial-E",
    "calogero-from-matrix",
    "so3-quotient",
    "riccati-classical",
    "riccati-cross-ratio",
    "radial-time-dependent",
    "qriccati-pauli",
    "qriccati-n3",
    "kernel-crosscheck",
    "frames-suite",
)
NESTED_JACOBI = ("relativistic-free-particle", "deformed-poincare-jacobi")
RK45_TOLS = (1e-10, 1e-11, 1e-12)

# library checks run by nested-jacobi next to its scenarios
DIRAC_JACOBI = "dirac-jacobi"
SHELL_HESSIAN = "shell-hessian"

# units per nested-jacobi list; a run repeats its list until its time is up
NESTED_UNITS = 2


@dataclass(frozen=True)
class Verification:
    """One closed-loop request: a ``cli.run`` of ``scenario``, or one library
    check (``DIRAC_JACOBI`` / ``SHELL_HESSIAN``) on the two-particle model."""

    scenario: str
    seed: int
    params: dict = field(default_factory=dict)
    rk45_tol: float | None = None
    library: bool = False

    def label(self) -> str:
        return self.scenario if not self.library else f"lib:{self.scenario}"


def _draw_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _two_particle_params(rng: random.Random) -> dict:
    return {
        "lambda": round(rng.uniform(0.05, 0.3), 4),
        "m1": round(rng.uniform(0.8, 1.2), 4),
        "m2": round(rng.uniform(1.5, 2.5), 4),
    }


def _dirac_shell(rng):
    return [
        Verification(name, _draw_seed(rng), _two_particle_params(rng))
        for name in DIRAC_SHELL
    ]


def _reduction_flow(rng):
    return [
        Verification(name, _draw_seed(rng), rk45_tol=tol)
        for tol in RK45_TOLS
        for name in REDUCTION_FLOW
    ]


def _nested_jacobi(rng):
    out = []
    for _ in range(NESTED_UNITS):
        out += [Verification(name, _draw_seed(rng)) for name in NESTED_JACOBI]
        params = _two_particle_params(rng)
        point_seed = _draw_seed(rng)
        # three distinct phase-space coordinates, each (kind, particle, component)
        triple = [
            ("x" if k % 8 < 4 else "p", k // 8, k % 4) for k in rng.sample(range(16), 3)
        ]
        out.append(
            Verification(
                DIRAC_JACOBI, point_seed, {**params, "triple": triple}, library=True
            )
        )
        out.append(
            Verification(
                SHELL_HESSIAN,
                point_seed,
                {**params, "shell": rng.randrange(2)},
                library=True,
            )
        )
    return out


WORKLOADS = {
    "dirac-shell": _dirac_shell,
    "reduction-flow": _reduction_flow,
    "nested-jacobi": _nested_jacobi,
}


def verifications(workload: str, seed: int) -> list[Verification]:
    """The workload's verification list for ``seed``; same seed, same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng)

"""Executable reduction procedure: invariant-surface checks, projectability
checks on sampled equivalent pairs, the candidate reduced field, and the
commuting-diagram verifier.

A reduction is verified in two steps: the ambient flow restricted to the
declared invariant level set must stay on it (the surface check is the
infinitesimal tangency residual), and the quotient-map velocities must agree
on sampled equivalence pairs (projectability).  Only then is the diagram
"project the ambient flow" versus "flow the reduced field" compared on a
shared uniform grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# ``gradient`` is not called here; perfbench's tracer test checks that this
# module-level binding of it is wrapped and restored
from geored.calc import ScalarField, _jvp, gradient  # noqa: F401
from geored.errors import OffSurface, PairNotEquivalent, PreflightFailed
from geored.flow import IntegratorConfig, Trajectory, VectorFieldSystem, integrate


@dataclass(frozen=True)
class InvariantSurface:
    """Joint level set of constants of motion: on-surface means
    max_j |K_j(x) - k_j| <= tol."""

    constraints: tuple[ScalarField, ...]
    values: tuple[float, ...]
    tol: float = 1e-8

    def __post_init__(self):
        if len(self.constraints) != len(self.values):
            raise ValueError("constraints and target values differ in length")

    def residuals(self, x) -> np.ndarray:
        return np.asarray(
            [float(K(x)) - k for K, k in zip(self.constraints, self.values)]
        )

    def require_on_surface(self, x):
        res = self.residuals(x)
        j = int(np.argmax(np.abs(res)))
        if abs(res[j]) > self.tol:
            raise OffSurface(x, j, float(res[j]))


@dataclass(frozen=True)
class QuotientMap:
    """Invariant functions whose values label equivalence classes."""

    invariants: tuple[ScalarField, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        arities = {f.arity for f in self.invariants}
        if len(arities) != 1:
            raise ValueError("quotient invariants must share the ambient arity")
        if len(self.names) != len(self.invariants):
            raise ValueError("one name per invariant")

    @property
    def size(self) -> int:
        return len(self.invariants)

    def __call__(self, x) -> np.ndarray:
        return np.asarray([float(f(x)) for f in self.invariants])

    def pushforward(self, sys: VectorFieldSystem, x, t: float = 0.0) -> np.ndarray:
        """D xi (x) . rhs(x, t): the candidate reduced velocity at xi(x),
        every invariant from one directional evaluation."""
        x = list(x)
        return np.asarray(
            _jvp(lambda xs: [f(xs) for f in self.invariants], x, sys.eval_rhs(x, t))
        )


@dataclass
class ReductionScenario:
    """One reduction to verify: ambient system, optional surface, quotient,
    the claimed reduced system, and sampling/tolerance knobs.

    ``orbit_map(point, rng)`` must return a distinct point on the same
    equivalence class (and the same surface); it drives projectability
    sampling.
    """

    name: str
    system: VectorFieldSystem
    reduced: VectorFieldSystem
    quotient: QuotientMap | None = None
    surface: InvariantSurface | None = None
    orbit_map: Callable | None = None
    sample_count: int = 64
    grid_points: int = 512
    tolerances: dict = field(
        default_factory=lambda: {
            "surface": 1e-8,
            "projectable": 1e-8,
            "diagram": 1e-6,
        }
    )

    def __post_init__(self):
        if self.surface is None and self.quotient is None:
            raise ValueError("a scenario needs a surface or a quotient (or both)")
        if self.quotient is not None and self.reduced.dim != self.quotient.size:
            raise ValueError("reduced dimension must equal the number of invariants")


@dataclass
class CheckReport:
    ok: bool
    worst: float
    detail: str = ""


@dataclass
class DiagramReport:
    scenario: str
    max_dev: float
    ok: bool
    samples: int
    tolerances: dict
    events: list = field(default_factory=list)
    ambient: Trajectory | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> str:
        return json.dumps(
            {
                "scenario": self.scenario,
                "max_dev": self.max_dev,
                "ok": self.ok,
                "samples": self.samples,
                "tolerances": self.tolerances,
                "events": self.events,
            },
            sort_keys=True,
            indent=2,
        )


def check_invariant_surface(
    sys: VectorFieldSystem,
    surface: InvariantSurface,
    samples: Sequence[Sequence[float]],
    tol: float = 1e-8,
    times: Sequence[float] | None = None,
) -> CheckReport:
    """Tangency of the flow to the level set at each sample.

    Samples must already lie on the surface (OffSurface otherwise); the
    residual |L_Gamma K_j| is compared against tol * (1 + |rhs|).  A
    non-autonomous field is evaluated at each sample's time (``times``,
    all 0 when absent).
    """
    worst = 0.0
    ok = True
    for x, t in zip(samples, _sample_times(times, len(samples))):
        surface.require_on_surface(x)
        x = list(x)
        vx = sys.eval_rhs(x, t)
        speed = float(np.linalg.norm(np.asarray(vx, dtype=float)))
        for rate in _jvp(lambda xs: [K(xs) for K in surface.constraints], x, vx):
            res = abs(rate)
            worst = max(worst, res)
            if res > tol * (1.0 + speed):
                ok = False
    return CheckReport(ok=ok, worst=worst)


def check_projectable(
    sys: VectorFieldSystem,
    quotient: QuotientMap,
    pair_samples: Sequence[tuple],
    tol: float = 1e-8,
    times: Sequence[float] | None = None,
) -> CheckReport:
    """Pushed-forward velocities must agree on equivalent point pairs, each
    pair at its time (``times``, all 0 when absent)."""
    worst = 0.0
    ok = True
    for (m, m2), t in zip(pair_samples, _sample_times(times, len(pair_samples))):
        gap = float(np.max(np.abs(quotient(m) - quotient(m2))))
        if gap > tol * 10.0:
            raise PairNotEquivalent(
                f"pair invariants differ by {gap:.3e}; not on one class"
            )
        dev = float(
            np.max(np.abs(quotient.pushforward(sys, m, t) - quotient.pushforward(sys, m2, t)))
        )
        worst = max(worst, dev)
        if dev > tol:
            ok = False
    return CheckReport(ok=ok, worst=worst)


def reduced_field(sys: VectorFieldSystem, quotient: QuotientMap, representative) -> np.ndarray:
    """Candidate reduced velocity at xi(representative)."""
    rep = np.asarray(representative, dtype=float)
    if not np.all(np.isfinite(rep)):
        raise ValueError("representative must be finite")
    return quotient.pushforward(sys, list(rep))


def _sample_times(times, count: int):
    if times is None:
        return [0.0] * count
    if len(times) != count:
        raise ValueError("one time per sample")
    return [float(t) for t in times]


def _preflight(scenario: ReductionScenario, samples, times, rng) -> None:
    if scenario.surface is not None:
        rep = check_invariant_surface(
            scenario.system,
            scenario.surface,
            samples,
            scenario.tolerances["surface"],
            times,
        )
        if not rep.ok:
            raise PreflightFailed(
                f"surface tangency residual {rep.worst:.3e} over tolerance"
            )
    if scenario.quotient is not None and scenario.orbit_map is not None:
        pairs = [(x, scenario.orbit_map(x, rng)) for x in samples]
        rep = check_projectable(
            scenario.system,
            scenario.quotient,
            pairs,
            scenario.tolerances["projectable"],
            times,
        )
        if not rep.ok:
            raise PreflightFailed(
                f"projectability deviation {rep.worst:.3e} over tolerance"
            )


def verify_commuting_diagram(
    scenario: ReductionScenario,
    x0,
    t0: float,
    t1: float,
    cfg: IntegratorConfig | None = None,
    seed: int = 0,
) -> DiagramReport:
    """Integrate ambient, project through the quotient, and compare with the
    reduced flow started from xi(x0) on a shared uniform grid.

    Refuses (PreflightFailed) unless the surface and projectability checks
    pass on points sampled along the ambient trajectory.
    """
    if scenario.quotient is None:
        raise ValueError("diagram verification needs a quotient map")
    cfg = cfg or IntegratorConfig()
    rng = np.random.default_rng(seed)
    if scenario.surface is not None:
        scenario.surface.require_on_surface(x0)

    ambient = integrate(scenario.system, x0, t0, t1, cfg)
    grid = np.linspace(t0, t1, scenario.grid_points)
    states = ambient.resample(grid)

    n_check = min(scenario.sample_count, len(states))
    idx = np.linspace(0, len(states) - 1, n_check).astype(int)
    _preflight(scenario, [states[i] for i in idx], grid[idx], rng)

    # Python-float states: the invariants run the same IEEE operations as on
    # numpy scalars, without numpy's per-scalar overhead
    projected = np.asarray([scenario.quotient(s) for s in states.tolist()])
    reduced_traj = integrate(scenario.reduced, scenario.quotient(x0), t0, t1, cfg)
    reduced_states = reduced_traj.resample(grid)

    max_dev = float(np.max(np.abs(projected - reduced_states)))
    return DiagramReport(
        scenario=scenario.name,
        max_dev=max_dev,
        ok=max_dev <= scenario.tolerances["diagram"],
        samples=len(grid),
        tolerances=dict(scenario.tolerances),
        ambient=ambient,
    )

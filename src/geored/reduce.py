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

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# ``gradient`` is not called here; perfbench's tracer test checks that this
# module-level binding of it is wrapped and restored
from geored.calc import _jvp, gradient  # noqa: F401
from geored.errors import PairNotEquivalent, PreflightFailed, nan_max, require_on_surface
from geored.flow import IntegratorConfig, Trajectory, VectorFieldSystem, integrate

# A diagram is compared on GRID_POINTS uniform times, of which preflight
# checks SAMPLE_COUNT; TOLERANCES bounds the surface and projectability
# residuals.  The diagram deviation is a metric, gated by its scenario.
SAMPLE_COUNT = 64
GRID_POINTS = 512
TOLERANCES = {"surface": 1e-8, "projectable": 1e-8}


@dataclass(frozen=True)
class InvariantSurface:
    """Joint level set of constants of motion: ``fn(x)`` returns every K_j(x)
    as one sequence, and on-surface means max_j |K_j(x) - k_j| <= tol."""

    fn: Callable
    values: tuple[float, ...]
    tol: float = 1e-8

    def residuals(self, x) -> np.ndarray:
        return np.asarray(
            [float(K) - k for K, k in zip(self.fn(x), self.values, strict=True)]
        )

    def require_on_surface(self, x):
        require_on_surface(x, self.residuals(x), self.tol)


@dataclass(frozen=True)
class QuotientMap:
    """Invariant functions whose values label equivalence classes: ``fn(x)``
    returns every invariant as one sequence, so the invariants share their
    subexpressions, and ``names`` names each output."""

    fn: Callable
    names: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.names)

    def _values(self, out) -> list:
        out = list(out)
        # a map of the wrong length would broadcast against the reduced states
        if len(out) != self.size:
            raise ValueError(f"quotient map gave {len(out)} values for {self.size} names")
        return out

    def __call__(self, x) -> np.ndarray:
        return np.asarray([float(v) for v in self._values(self.fn(x))])

    def columns(self, states: np.ndarray) -> np.ndarray:
        """The map at every row of ``states`` from one evaluation on its
        columns, each invariant a column array, or one number that is
        broadcast to every row; entry by entry, the bits of one row."""
        out = self._values(self.fn(states.T))
        rows = len(states)
        return np.column_stack([np.broadcast_to(np.asarray(v, dtype=float), rows) for v in out])

    def pushforward(self, sys: VectorFieldSystem, x, t: float = 0.0) -> np.ndarray:
        """D xi (x) . rhs(x, t): the candidate reduced velocity at xi(x),
        every invariant from one directional evaluation."""
        x = list(x)
        return np.asarray(_jvp(self.fn, x, sys.eval_rhs(x, t)))


@dataclass
class ReductionScenario:
    """One reduction to verify: ambient system, quotient, the claimed reduced
    system, optional surface, and the start point and time span of the
    diagram check.

    ``orbit_map(point, rng)`` must return a distinct point on the same
    equivalence class (and the same surface); it drives projectability
    sampling.
    """

    name: str
    system: VectorFieldSystem
    reduced: VectorFieldSystem
    quotient: QuotientMap
    orbit_map: Callable
    x0: np.ndarray
    t_span: tuple[float, float]
    surface: InvariantSurface | None = None
    notes: str = ""

    def __post_init__(self):
        if self.reduced.dim != self.quotient.size:
            raise ValueError("reduced dimension must equal the number of invariants")


@dataclass
class CheckReport:
    ok: bool
    worst: float


@dataclass
class DiagramReport:
    scenario: str
    max_dev: float
    samples: int
    events: list = field(default_factory=list)
    ambient: Trajectory | None = field(default=None, repr=False, compare=False)

    def body(self) -> dict:
        """The JSON-exportable fields (all but the trajectory)."""
        return {
            "scenario": self.scenario,
            "max_dev": self.max_dev,
            "samples": self.samples,
            "events": self.events,
        }


def check_invariant_surface(
    sys: VectorFieldSystem,
    surface: InvariantSurface,
    samples: Sequence[Sequence[float]],
    times: Sequence[float],
) -> CheckReport:
    """Tangency of the flow to the level set at each sample, the field
    evaluated at the sample's time.

    Samples must already lie on the surface (OffSurface otherwise); the
    residual |L_Gamma K_j| is compared against tol * (1 + |rhs|), with tol
    the surface tolerance of TOLERANCES.
    """
    tol = TOLERANCES["surface"]
    worst = 0.0
    ok = True
    for x, t in zip(samples, times, strict=True):
        surface.require_on_surface(x)
        x = list(x)
        vx = sys.eval_rhs(x, t)
        speed = float(np.linalg.norm(np.asarray(vx, dtype=float)))
        for rate in _jvp(surface.fn, x, vx):
            # the tangent is finite, but a velocity component the constraints
            # do not read can be NaN; 0.0 * speed carries it into the residual
            res = abs(rate) + 0.0 * speed
            worst = nan_max(worst, res)
            if not res <= tol * (1.0 + speed):
                ok = False
    return CheckReport(ok=ok, worst=worst)


def check_projectable(
    sys: VectorFieldSystem,
    quotient: QuotientMap,
    pair_samples: Sequence[tuple],
    times: Sequence[float],
) -> CheckReport:
    """Pushed-forward velocities must agree, within the projectability
    tolerance of TOLERANCES, on equivalent point pairs, each pair at its
    time."""
    tol = TOLERANCES["projectable"]
    worst = 0.0
    ok = True
    for (m, m2), t in zip(pair_samples, times, strict=True):
        gap = float(np.max(np.abs(quotient(m) - quotient(m2))))
        if not gap <= tol * 10.0:
            raise PairNotEquivalent(
                f"pair invariants differ by {gap:.3e}; not on one class"
            )
        dev = float(
            np.max(np.abs(quotient.pushforward(sys, m, t) - quotient.pushforward(sys, m2, t)))
        )
        worst = nan_max(worst, dev)
        if not dev <= tol:
            ok = False
    return CheckReport(ok=ok, worst=worst)


def _preflight(scenario: ReductionScenario, samples, times, rng) -> None:
    if scenario.surface is not None:
        rep = check_invariant_surface(scenario.system, scenario.surface, samples, times)
        if not rep.ok:
            raise PreflightFailed(
                f"surface tangency residual {rep.worst:.3e} over tolerance"
            )
    pairs = [(x, scenario.orbit_map(x, rng)) for x in samples]
    rep = check_projectable(scenario.system, scenario.quotient, pairs, times)
    if not rep.ok:
        raise PreflightFailed(
            f"projectability deviation {rep.worst:.3e} over tolerance"
        )


def verify_commuting_diagram(
    scenario: ReductionScenario,
    cfg: IntegratorConfig | None = None,
    seed: int = 0,
) -> DiagramReport:
    """Integrate ambient from the scenario's x0 over its time span, project
    through the quotient, and compare with the reduced flow started from
    xi(x0) on a shared uniform grid.

    Refuses (PreflightFailed) unless the surface and projectability checks
    pass on points sampled along the ambient trajectory.  The deviation is
    reported, not judged: the caller's gate decides.
    """
    cfg = cfg or IntegratorConfig()
    rng = np.random.default_rng(seed)
    x0 = scenario.x0
    t0, t1 = scenario.t_span
    if scenario.surface is not None:
        scenario.surface.require_on_surface(x0)

    ambient = integrate(scenario.system, x0, t0, t1, cfg)
    grid = np.linspace(t0, t1, GRID_POINTS)
    states = ambient.resample(grid)

    n_check = min(SAMPLE_COUNT, len(states))
    idx = np.linspace(0, len(states) - 1, n_check).astype(int)
    # Python-float samples: the maps run the same IEEE operations as on numpy
    # scalars, without numpy's per-scalar overhead
    _preflight(scenario, states[idx].tolist(), grid[idx].tolist(), rng)

    projected = scenario.quotient.columns(states)
    reduced_traj = integrate(scenario.reduced, scenario.quotient(x0), t0, t1, cfg)
    reduced_states = reduced_traj.resample(grid)

    max_dev = float(np.max(np.abs(projected - reduced_states)))
    return DiagramReport(
        scenario=scenario.name,
        max_dev=max_dev,
        samples=len(grid),
        ambient=ambient,
    )

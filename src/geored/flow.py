"""ODE integration: the adaptive Dormand-Prince 5(4) pair (RK45), with
dense output and trajectory resampling; conserved-quantity drift measurement,
and second-order lifts.

RK45 is the one integrator: every flow in geored steps with
``Dopri45Stepper``, and every trajectory carries its dense output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from geored.errors import BlowUp, StepLimitExceeded

BLOWUP_LIMIT = 1e12

# Dormand-Prince 5(4) tableau.  The stage times are Python floats, so a stage
# time costs no numpy scalar arithmetic (the product rounds the same).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Quartic dense-output weights (Shampine interpolant for the pair above).
_DP_P = np.array(
    [
        [
            1.0,
            -8048581381 / 2820520608,
            8663915743 / 2820520608,
            -12715105075 / 11282082432,
        ],
        [0.0, 0.0, 0.0, 0.0],
        [
            0.0,
            131558114200 / 32700410799,
            -68118460800 / 10900136933,
            87487479700 / 32700410799,
        ],
        [
            0.0,
            -1754552775 / 470086768,
            14199869525 / 1410260304,
            -10690763975 / 1880347072,
        ],
        [
            0.0,
            127303824393 / 49829197408,
            -318862633887 / 49829197408,
            701980252875 / 199316789632,
        ],
        [
            0.0,
            -282668133 / 205662961,
            2019193451 / 616988883,
            -1453857185 / 822651844,
        ],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)


@dataclass(frozen=True)
class IntegratorConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_steps: int = 10_000_000

    def __post_init__(self):
        for value in (self.abs_tol, self.rel_tol):
            if not (value > 0 and math.isfinite(value)):  # NaN fails too
                raise ValueError("tolerances must be positive and finite")


@dataclass(frozen=True)
class VectorFieldSystem:
    """Explicit first-order ODE on an n-dimensional chart.

    ``rhs`` is called as ``rhs(x)`` for autonomous systems and ``rhs(x, t)``
    otherwise; it may return any sequence of length ``dim``.
    """

    dim: int
    rhs: Callable
    coord_names: tuple[str, ...]
    autonomous: bool = True

    def __post_init__(self):
        if len(self.coord_names) != self.dim:
            raise ValueError("coord_names length must equal dim")

    def eval_rhs(self, x, t: float = 0.0):
        return self.rhs(x) if self.autonomous else self.rhs(x, t)


@dataclass
class Trajectory:
    """Samples of an RK45 flow, held as per-step arrays, with its dense
    output.

    Step k runs from ``times[k]`` to ``times[k + 1]`` and starts at
    ``states[k]``; ``h[k]`` is its step size as the integrator took it, and
    ``coeffs[k]`` (dim x 4) its Shampine quartic.  ``coord_names`` names the
    state's coordinates.
    """

    times: np.ndarray
    states: np.ndarray
    coord_names: tuple[str, ...]
    h: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states length mismatch")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @classmethod
    def from_rk45(cls, times, states, records, coord_names: tuple[str, ...]) -> Trajectory:
        """Trajectory of accepted RK45 steps and their ``Dopri45Stepper.step``
        records.  Every step's quartic comes from one stacked product, which
        runs the same BLAS kernel per step as ``K.T @ _DP_P`` would."""
        states = np.asarray(states)
        Ks = np.asarray([K for _, K in records]).reshape(-1, 7, states.shape[1])
        return cls(
            times=np.asarray(times),
            states=states,
            coord_names=coord_names,
            h=np.asarray([h for h, _ in records]),
            coeffs=np.matmul(Ks.transpose(0, 2, 1), _DP_P),
        )

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    def resample(self, ts: Sequence[float]) -> np.ndarray:
        """Dense-output values at every time of ``ts`` (one row each)."""
        ts = np.asarray(ts, dtype=float)
        inside = (self.t0 - 1e-12 <= ts) & (ts <= self.t1 + 1e-12)
        if not np.all(inside):
            t = float(ts[np.argmin(inside)])
            raise ValueError(f"t={t} outside [{self.t0}, {self.t1}]")
        idx = np.searchsorted(self.times, ts, side="right") - 1
        idx = np.clip(idx, 0, len(self.h) - 1)
        h = self.h[idx]
        theta = ((ts - self.times[idx]) / h).astype(object)
        # powers by Python's float power (the C library's pow) entry by entry,
        # as a one-point evaluation takes them: numpy's float64 array power
        # may run a SIMD kernel that rounds the last bit differently
        powers = np.array([theta, theta**2, theta**3, theta**4], dtype=float)
        poly = np.matmul(self.coeffs[idx], powers.T[:, :, None])[:, :, 0]
        return self.states[idx] + h[:, None] * poly


class Dopri45Stepper:
    """Single-step driver for the adaptive pair.  ``integrate`` drives it
    for every flow; kernel-crosscheck takes single steps of a set size with
    it (``h`` set before ``step``, tolerances that accept every step) to
    gate the pair's local order.

    ``rhs`` is called as ``rhs(y, t)``, or as ``rhs(y)`` when ``autonomous``,
    and may return any sequence of ``len(y)`` numbers; its first output (and
    the one after ``reset_derivative``) must have the state's shape.
    ``integrate`` replaces ``y`` after a projection and then calls
    ``reset_derivative``; the stepper never modifies ``y`` in place.
    """

    def __init__(
        self,
        rhs,
        t0: float,
        y0: np.ndarray,
        cfg: IntegratorConfig,
        autonomous: bool = False,
    ):
        self.rhs = rhs
        self.autonomous = autonomous
        self.t = float(t0)
        self.y = np.array(y0, dtype=float)
        self.cfg = cfg
        self.reset_derivative()
        self.h = self._initial_step()
        self.steps = 0
        # |y| of the last accepted state, and the state it belongs to
        self._abs_y, self._abs_of = None, None

    def _initial_step(self) -> float:
        scale = self.cfg.abs_tol + self.cfg.rel_tol * np.abs(self.y)
        d0 = np.sqrt(np.mean((self.y / scale) ** 2))
        d1 = np.sqrt(np.mean((self.k1 / scale) ** 2))
        h0 = 1e-6 if d1 < 1e-12 else 0.01 * d0 / d1
        return max(min(h0, 1.0), 1e-10)

    def reset_derivative(self):
        """Recompute the FSAL stage after an external state modification."""
        y = self.y
        k1 = self.rhs(y) if self.autonomous else self.rhs(y, self.t)
        self.k1 = np.asarray(k1, dtype=float)
        if self.k1.shape != y.shape:
            raise ValueError(
                f"right-hand side returned shape {self.k1.shape}, expected {y.shape}"
            )

    def step(self, t_limit: float):
        """Advance one accepted step, clipped to ``t_limit``.

        Returns (t_new, y_new, (h, K)): the step size taken and the 7 x dim
        stage matrix, from which ``Trajectory.from_rk45`` builds the step's
        dense output.
        """
        cfg = self.cfg
        rhs, autonomous = self.rhs, self.autonomous
        t, y = self.t, self.y
        n = len(y)
        abs_y = self._abs_y if self._abs_of is y else np.abs(y)
        while True:
            self.steps += 1
            if self.steps > cfg.max_steps:
                raise StepLimitExceeded(t, cfg.max_steps)
            h = min(self.h, t_limit - t)
            K = np.empty((7, n))
            K[0] = self.k1
            for s in range(1, 7):
                ys = y + h * (_DP_A[s] @ K[:s])
                K[s] = rhs(ys) if autonomous else rhs(ys, t + _DP_C[s] * h)
            y_new = y + h * (_DP_B @ K)
            err = h * (_DP_E @ K)
            abs_new = np.abs(y_new)
            r = err / (cfg.abs_tol + cfg.rel_tol * np.maximum(abs_y, abs_new))
            # bit-equal to np.sqrt(np.mean(r ** 2)): the same pairwise sum
            # and the same correctly rounded division and square root
            err_norm = math.sqrt(float(np.add.reduce(r * r)) / n)
            if err_norm <= 1.0:
                if not abs_new.max() <= BLOWUP_LIMIT:
                    raise BlowUp(t, y_new)
                self.t = t + h
                self.y = y_new
                self._abs_y, self._abs_of = abs_new, y_new
                self.k1 = K[6]  # FSAL
                factor = 5.0 if err_norm == 0.0 else min(5.0, 0.9 * err_norm**-0.2)
                self.h = abs(h) * factor
                return self.t, y_new, (h, K)
            self.h = h * max(0.2, 0.9 * err_norm**-0.2)
            # a NaN step fails this test too; a NaN error norm is a blow-up
            if not self.h >= 1e-14 * max(1.0, abs(t)):
                if not err_norm > 1.0:
                    raise BlowUp(t, y_new)
                raise StepLimitExceeded(t, cfg.max_steps)


def integrate(
    sys: VectorFieldSystem,
    x0: Sequence[float],
    t0: float,
    t1: float,
    cfg: IntegratorConfig | None = None,
    project: Callable | None = None,
) -> Trajectory:
    """Flow map sampler from ``t0`` to ``t1 > t0`` by RK45, with the local
    error controlled by the configured tolerances.  Any non-finite or > 1e12
    state component raises ``BlowUp`` carrying the last good time (never
    clamped).  A right-hand side whose first output does not have the
    state's shape raises ``ValueError``.

    ``project(t, y)``, if given, runs after every step (a projection method)
    and returns ``y`` to keep it, or a state of its shape that replaces it
    (recorded, and stepped on from with a fresh derivative), or raises.
    """
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    cfg = cfg or IntegratorConfig()
    y0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state must be finite")

    stepper = Dopri45Stepper(sys.rhs, t0, y0, cfg, autonomous=sys.autonomous)
    t_end = t1 - 1e-14 * max(1.0, abs(t1))
    times = [t0]
    # the stepper replaces its state at every step and never writes into it
    states = [stepper.y]
    records = []
    while stepper.t < t_end:
        t, y, record = stepper.step(t1)
        if project is not None:
            y_proj = np.asarray(project(t, y), dtype=float)  # y itself if kept
            if y_proj.shape != y.shape:
                raise ValueError(
                    f"projection returned shape {y_proj.shape}, expected {y.shape}"
                )
            if y_proj is not y:
                stepper.y = y = y_proj
                stepper.reset_derivative()
        times.append(t)
        states.append(y)
        records.append(record)
    return Trajectory.from_rk45(times, states, records, sys.coord_names)


def conserved_drift(sys: VectorFieldSystem, f, traj: Trajectory) -> float:
    """Max over samples of |f(x(t)) - f(x(0))|."""
    arity = getattr(f, "arity", sys.dim)
    if arity != sys.dim:
        raise ValueError("function arity must match system dimension")
    ref = float(f(traj.states[0]))
    return max(abs(float(f(state)) - ref) for state in traj.states)


def second_order_lift(
    n: int,
    force: Callable,
    coord_names: tuple[str, ...],
    autonomous: bool = True,
) -> VectorFieldSystem:
    """Lift a force law (q, v, t) -> n-vector to the 2n first-order system
    (q, v) -> (v, force)."""

    def rhs(x, t=0.0):
        acc = force(x[:n], x[n:], t)
        return [x[n + i] for i in range(n)] + [acc[i] for i in range(n)]

    return VectorFieldSystem(
        dim=2 * n, rhs=rhs, coord_names=coord_names, autonomous=autonomous
    )

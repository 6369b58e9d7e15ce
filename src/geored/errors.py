"""Exception types shared across the package, and the fail-closed maximum
that checks accumulate their worst value with."""

from __future__ import annotations

import math


def nan_max(worst: float, x: float) -> float:
    """The larger of ``worst`` and ``x``, or NaN once either is NaN: the
    built-in ``max(worst, nan)`` returns ``worst``, so a NaN check value
    would vanish before its gate."""
    return x if math.isnan(x) or x > worst else worst


class GeoredError(Exception):
    """Base class for all package errors."""


class EvaluationError(GeoredError):
    """A field evaluation produced a non-finite value.

    ``index`` is the component (or seed direction) that went bad, when known.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class StepLimitExceeded(GeoredError):
    def __init__(self, t: float, max_steps: int):
        super().__init__(f"integration exceeded {max_steps} steps at t={t!r}")
        self.t = t
        self.max_steps = max_steps


class BlowUp(GeoredError):
    """State left the finite region; carries the last good time and state."""

    def __init__(self, t_last: float, state):
        super().__init__(f"trajectory blew up after t={t_last!r}")
        self.t_last = t_last
        self.state = state


class SingularTime(GeoredError):
    """Non-autonomous right-hand side evaluated at a forbidden time."""


class OffSurface(GeoredError):
    def __init__(self, point, index: int, residual: float):
        super().__init__(
            f"point not on constraint surface (function {index}, residual {residual:.3e})"
        )
        self.point = point
        self.index = index
        self.residual = residual


class PairNotEquivalent(GeoredError):
    """A sampled point pair does not lie on the same equivalence class."""


class PreflightFailed(GeoredError):
    """Surface or projectability checks failed before diagram verification."""


class DegenerateSpectrum(GeoredError):
    def __init__(self, t: float, gap: float):
        super().__init__(f"eigenvalue gap {gap:.3e} below threshold at t={t!r}")
        self.t = t
        self.gap = gap


class OriginExcluded(GeoredError):
    """The projective charts do not cover the origin."""


class UnitarityLost(GeoredError):
    def __init__(self, t: float, drift: float):
        super().__init__(f"unitarity drift {drift:.3e} at t={t!r} exceeds limit")
        self.t = t
        self.drift = drift


class SingularBlock(GeoredError):
    def __init__(self, cond: float):
        super().__init__(f"coset block is numerically singular (cond={cond:.3e})")
        self.cond = cond


class DomainError(GeoredError):
    """Point outside the declared domain of a Lagrangian or field."""


class DegenerateLagrangian(GeoredError):
    """Velocity Hessian singular; regular-bracket machinery does not apply."""


class ConnectionInvalid(GeoredError):
    """Connection tensor violated A*A = A or the kernel-matching requirement."""


class SingularConstraintMatrix(GeoredError):
    def __init__(self, cond: float):
        super().__init__(f"constraint matrix ill-conditioned (cond={cond:.3e})")
        self.cond = cond


class ConstraintDrift(GeoredError):
    def __init__(self, tau: float, drift: float):
        super().__init__(f"constraint drift {drift:.3e} at tau={tau!r}")
        self.tau = tau
        self.drift = drift


class NotNormalized(GeoredError):
    """Frame pairing theta(Gamma) differs from 1 at the queried point."""


class UnknownScenario(GeoredError):
    def __init__(self, name: str):
        super().__init__(f"no scenario registered under {name!r}")
        self.name = name


class ConfigError(GeoredError):
    def __init__(self, message: str, fields=()):
        super().__init__(message)
        self.fields = tuple(fields)

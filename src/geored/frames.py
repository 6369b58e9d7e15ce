"""Reference frames as rank-(1,1) projector fields: splitting of tangent
vectors, the compatibility (mutual-visibility) pairing, the Frobenius
integrability residual of the time covector, and the metric derived from a
boost family of frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from geored import lagsym
from geored.calc import CENTRAL, ScalarField, jacobian
from geored.errors import NotNormalized, nan_max

NORMALIZATION_TOL = 1e-10
# bound on the entries of L^T eta L - eta for a Lorentz map, and on the
# residuals of metric_from_frame_family
LORENTZ_TOL = 1e-12
ETA = np.diag(lagsym.ETA)


@dataclass(frozen=True)
class ReferenceFrame:
    """A covector field theta and a vector field gamma with theta(gamma)=1
    at every point where the frame is used."""

    theta: Callable  # point -> 4-covector
    gamma: Callable  # point -> 4-vector

    def pairing(self, point) -> float:
        th = np.asarray(self.theta(point), dtype=float)
        ga = np.asarray(self.gamma(point), dtype=float)
        return float(th @ ga)


@dataclass(frozen=True)
class FrameTensorAtPoint:
    R: np.ndarray
    point: tuple

    def __post_init__(self):
        if not np.max(np.abs(self.R @ self.R - self.R)) <= NORMALIZATION_TOL:
            raise ValueError("frame tensor must be idempotent")
        if not abs(np.trace(self.R) - 1.0) <= NORMALIZATION_TOL:
            raise ValueError("frame tensor must have unit trace")


def lab_frame() -> ReferenceFrame:
    return ReferenceFrame(
        theta=lambda pt: np.array([1.0, 0.0, 0.0, 0.0]),
        gamma=lambda pt: np.array([1.0, 0.0, 0.0, 0.0]),
    )


def boost_matrix(rapidity: float, direction: Sequence[float] = (1.0, 0.0, 0.0)) -> np.ndarray:
    """Exact pure boost from the closed form of the generator exponential."""
    n = np.asarray(direction, dtype=float)
    n = n / np.linalg.norm(n)
    K = np.zeros((4, 4))
    K[0, 1:] = n
    K[1:, 0] = n
    return np.eye(4) + math.sinh(rapidity) * K + (math.cosh(rapidity) - 1.0) * (K @ K)


def is_lorentz(L: np.ndarray) -> bool:
    return bool(np.max(np.abs(L.T @ ETA @ L - ETA)) <= LORENTZ_TOL)


def transform_frame(frame: ReferenceFrame, L: np.ndarray) -> ReferenceFrame:
    """Push the frame through an invertible linear map: vectors by L,
    covectors by the inverse transpose."""
    L = np.asarray(L, dtype=float)
    L_inv = np.linalg.inv(L)
    return ReferenceFrame(
        theta=lambda pt: np.asarray(frame.theta(pt), dtype=float) @ L_inv,
        gamma=lambda pt: L @ np.asarray(frame.gamma(pt), dtype=float),
    )


def frame_tensor(frame: ReferenceFrame, point) -> FrameTensorAtPoint:
    """R = gamma (x) theta; rejects frames that are not normalized at the
    point rather than silently rescaling them."""
    pairing = frame.pairing(point)
    if not abs(pairing - 1.0) <= NORMALIZATION_TOL:
        raise NotNormalized(f"theta(gamma) = {pairing!r} at {point}")
    th = np.asarray(frame.theta(point), dtype=float)
    ga = np.asarray(frame.gamma(point), dtype=float)
    return FrameTensorAtPoint(np.outer(ga, th), tuple(point))


def split_tangent(R: FrameTensorAtPoint, v) -> tuple[np.ndarray, np.ndarray]:
    """Time part R v and space part (1 - R) v; the parts are eigenvectors
    of R and reassemble v exactly."""
    v = np.asarray(v, dtype=float)
    time_part = R.R @ v
    return time_part, v - time_part


def time_orientation(R: FrameTensorAtPoint, gamma_at_point, v) -> float:
    """The scalar lambda with R v = lambda gamma; positive means future
    oriented for the frame."""
    time_part, _ = split_tangent(R, v)
    ga = np.asarray(gamma_at_point, dtype=float)
    k = int(np.argmax(np.abs(ga)))
    return float(time_part[k] / ga[k])


def compatible(R: FrameTensorAtPoint, R2: FrameTensorAtPoint) -> dict:
    """Trace pairing of two frame tensors; a positive value is the mutual
    objective existence condition (negative values flag the antiparticle
    branch rather than erroring)."""
    trace = float(np.trace(R.R @ R2.R))
    return {
        "trace": trace,
        "compatible": trace > 0.0,
        "antiparticle_branch": trace < 0.0,
    }


def frobenius_residual(theta: Callable, points: Sequence) -> float:
    """Max norm of theta ^ d(theta) over the sampled points, with the
    exterior derivative taken by central finite differences."""
    worst = 0.0
    comp_fields = [
        ScalarField(4, (lambda k: lambda pt: float(np.asarray(theta(pt))[k]))(i))
        for i in range(4)
    ]
    for pt in points:
        pt = [float(c) for c in pt]
        th = np.asarray(theta(pt), dtype=float)
        J = np.asarray(jacobian(comp_fields, pt, CENTRAL))  # J[k, m] = d theta_k / d x^m
        d_theta = J.T - J  # (d theta)_{m k} = d_m theta_k - d_k theta_m
        total = 0.0
        for a in range(4):
            for b in range(a + 1, 4):
                for c in range(b + 1, 4):
                    comp = (
                        th[a] * d_theta[b, c]
                        + th[b] * d_theta[c, a]
                        + th[c] * d_theta[a, b]
                    )
                    total += comp * comp
        worst = nan_max(worst, math.sqrt(total))
    return worst


def metric_from_frame_family(boost_params: Sequence) -> dict:
    """Check that lowering the boosted time axes with the diagonal metric
    reproduces the boosted time covectors, across a family of exact boosts
    given as (rapidity, direction) pairs; also verifies the covariant and
    contravariant forms are mutually inverse."""
    alpha = np.array([1.0, 0.0, 0.0, 0.0])  # the covector of the fiducial frame
    gamma = np.array([1.0, 0.0, 0.0, 0.0])
    worst = 0.0
    for rapidity, direction in boost_params:
        L = boost_matrix(rapidity, direction)
        if not is_lorentz(L):
            raise ValueError("transformation is not a Lorentz map")
        moved_gamma = L @ gamma
        moved_alpha = np.linalg.inv(L).T @ alpha
        worst = nan_max(worst, float(np.max(np.abs(ETA @ moved_gamma - moved_alpha))))
    eta_inv = np.linalg.inv(ETA)
    inverse_residual = float(np.max(np.abs(eta_inv @ ETA - np.eye(4))))
    return {
        "residual": worst,
        "inverse_residual": inverse_residual,
        "ok": worst <= LORENTZ_TOL and inverse_residual <= LORENTZ_TOL,
    }

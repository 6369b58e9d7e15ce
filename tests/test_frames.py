import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geored import dualnum as dn
from geored.catalog import _rotation_matrix
from geored.errors import NotNormalized
from geored.frames import (
    LORENTZ_TOL,
    FrameTensorAtPoint,
    ReferenceFrame,
    boost_matrix,
    compatible,
    frame_tensor,
    frobenius_residual,
    is_lorentz,
    lab_frame,
    metric_from_frame_family,
    split_tangent,
    time_orientation,
    transform_frame,
)

ORIGIN = [0.0, 0.0, 0.0, 0.0]


def _rotation_4d(rng):
    """A random spatial rotation (axis and angle drawn from ``rng``) as a
    Lorentz map."""
    L = np.eye(4)
    L[1:, 1:] = _rotation_matrix(rng)
    return L


def test_lab_frame_tensor():
    R = frame_tensor(lab_frame(), ORIGIN)
    assert np.allclose(R.R, np.diag([1.0, 0.0, 0.0, 0.0]))


def test_boosted_frame_is_projector_with_unit_trace():
    L = boost_matrix(0.5)
    frame = transform_frame(lab_frame(), L)
    R = frame_tensor(frame, ORIGIN)
    assert np.max(np.abs(R.R @ R.R - R.R)) < 1e-10
    assert np.trace(R.R) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
def test_projector_property_for_random_frames(rapidity, seed):
    L = boost_matrix(rapidity, (0.3, -0.8, 0.5)) @ _rotation_4d(np.random.default_rng(seed))
    frame = transform_frame(lab_frame(), L)
    R = frame_tensor(frame, ORIGIN)
    assert np.max(np.abs(R.R @ R.R - R.R)) < 1e-10
    assert abs(np.trace(R.R) - 1.0) < 1e-10


def test_frame_tensor_rejects_unnormalized():
    bad = ReferenceFrame(
        theta=lambda pt: np.array([2.0, 0.0, 0.0, 0.0]),
        gamma=lambda pt: np.array([1.0, 0.0, 0.0, 0.0]),
    )
    with pytest.raises(NotNormalized):
        frame_tensor(bad, ORIGIN)


def test_split_tangent_reconstructs_and_is_eigen():
    L = boost_matrix(0.8, (0.0, 1.0, 0.0))
    frame = transform_frame(lab_frame(), L)
    R = frame_tensor(frame, ORIGIN)
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.uniform(-1, 1, 4)
        t, s = split_tangent(R, v)
        assert np.allclose(t + s, v, atol=1e-14)
        assert np.allclose(R.R @ t, t, atol=1e-12)
        assert np.allclose(R.R @ s, 0.0, atol=1e-12)


def test_split_tangent_frame_directions():
    frame = lab_frame()
    R = frame_tensor(frame, ORIGIN)
    gamma = frame.gamma(ORIGIN)
    t, s = split_tangent(R, gamma)
    assert np.allclose(t, gamma) and np.allclose(s, 0.0)
    spatial = np.array([0.0, 1.0, -2.0, 0.5])  # in the kernel of theta
    t2, _ = split_tangent(R, spatial)
    assert np.allclose(t2, 0.0)


def test_time_orientation_sign():
    frame = lab_frame()
    R = frame_tensor(frame, ORIGIN)
    future = np.array([2.0, 0.3, 0.0, 0.0])
    past = np.array([-1.0, 0.2, 0.1, 0.0])
    assert time_orientation(R, frame.gamma(ORIGIN), future) > 0
    assert time_orientation(R, frame.gamma(ORIGIN), past) < 0


def test_compatibility_same_frame():
    R = frame_tensor(lab_frame(), ORIGIN)
    out = compatible(R, R)
    assert out["compatible"] and out["trace"] == pytest.approx(1.0)


def test_compatibility_boosted_pair_cosh_squared():
    R = frame_tensor(lab_frame(), ORIGIN)
    boosted = transform_frame(lab_frame(), boost_matrix(1.0))
    R2 = frame_tensor(boosted, ORIGIN)
    out = compatible(R, R2)
    assert out["trace"] == pytest.approx(math.cosh(1.0) ** 2, abs=1e-12)
    assert out["compatible"]


def test_compatibility_fails_for_spatial_time_axis():
    # a "frame" whose time axis lies inside the other frame's space leaves
    degenerate = ReferenceFrame(
        theta=lambda pt: np.array([0.0, 1.0, 0.0, 0.0]),
        gamma=lambda pt: np.array([0.0, 1.0, 0.0, 0.0]),
    )
    R = frame_tensor(lab_frame(), ORIGIN)
    R2 = frame_tensor(degenerate, ORIGIN)
    out = compatible(R, R2)
    assert out["trace"] == pytest.approx(0.0, abs=1e-14)
    assert not out["compatible"]


def test_compatibility_trace_is_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(5):
        L1 = boost_matrix(rng.uniform(-1, 1), rng.uniform(-1, 1, 3))
        L2 = boost_matrix(rng.uniform(-1, 1), rng.uniform(-1, 1, 3))
        Ra = frame_tensor(transform_frame(lab_frame(), L1), ORIGIN)
        Rb = frame_tensor(transform_frame(lab_frame(), L2), ORIGIN)
        assert compatible(Ra, Rb)["trace"] == pytest.approx(
            compatible(Rb, Ra)["trace"], abs=1e-12
        )


def _sample_points(seed=2, count=6):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1, 1, 4) for _ in range(count)]


def test_frobenius_exact_time_function():
    residual = frobenius_residual(lambda pt: [1.0, 0.0, 0.0, 0.0], _sample_points())
    assert residual < 1e-12


def test_frobenius_conformal_factor_preserves_integrability():
    theta = lambda pt: [dn.exp(-pt[1]), 0.0, 0.0, 0.0]
    assert frobenius_residual(theta, _sample_points(seed=3)) < 1e-7


def test_frobenius_residual_keeps_a_nan_after_a_finite_point():
    # theta is NaN only at the plain second sample, so its derivative at the
    # seeded point stays finite and the wedge product carries the NaN
    points = _sample_points(seed=3, count=2)
    bad = [float(c) for c in points[1]]

    def theta(pt):
        if pt == bad:
            return [math.nan, 0.0, 0.0, 0.0]
        return [dn.exp(-pt[1]), 0.0, 0.0, 0.0]

    assert math.isnan(frobenius_residual(theta, points))


def test_frobenius_contact_form_fails():
    theta = lambda pt: [pt[1], 0.0, 1.0, 0.0]  # x^1 dx^0 + dx^2
    assert frobenius_residual(theta, _sample_points(seed=4)) > 0.1


def test_metric_family_identity_and_boosts():
    report = metric_from_frame_family([(0.0, (1, 0, 0))])
    assert report["residual"] < 1e-15 and report["inverse_residual"] <= LORENTZ_TOL
    report = metric_from_frame_family(
        [
            (0.7, (1.0, 0.0, 0.0)),
            (1.3, (0.0, 1.0, 0.0)),
            (-0.4, (0.2, -0.5, 0.8)),
        ]
    )
    assert report["residual"] < 1e-12
    assert report["inverse_residual"] < 1e-15


def test_is_lorentz_rejects_scaled_map():
    assert not is_lorentz(2.0 * np.eye(4))
    assert is_lorentz(np.eye(4))


def test_boost_matrices_are_exact_lorentz():
    rng = np.random.default_rng(5)
    for _ in range(10):
        L = boost_matrix(rng.uniform(-2, 2), rng.uniform(-1, 1, 3))
        assert is_lorentz(L)
        assert is_lorentz(_rotation_4d(rng))


def test_frame_tensor_at_point_validation():
    with pytest.raises(ValueError):
        FrameTensorAtPoint(np.eye(4), (0, 0, 0, 0))  # trace 4


# -- guards fail closed on NaN --------------------------------------------------


def _nan_projector(monkeypatch):
    R = np.diag([1.0, 0.0, 0.0, 0.0])
    R[0, 0] = math.nan
    FrameTensorAtPoint(R, tuple(ORIGIN))


def _nan_trace(monkeypatch):
    # a NaN on the diagonal also makes R R - R NaN, so the trace is made NaN
    # on its own
    monkeypatch.setattr(np, "trace", lambda R: math.nan)
    FrameTensorAtPoint(np.diag([1.0, 0.0, 0.0, 0.0]), tuple(ORIGIN))


def _nan_pairing(monkeypatch):
    frame = ReferenceFrame(
        theta=lambda pt: np.array([math.nan, 0.0, 0.0, 0.0]), gamma=lab_frame().gamma
    )
    frame_tensor(frame, ORIGIN)


@pytest.mark.parametrize(
    "inject, error, match",
    [
        (_nan_projector, ValueError, "idempotent"),
        (_nan_trace, ValueError, "unit trace"),
        (_nan_pairing, NotNormalized, "nan"),
    ],
    ids=["projector", "trace", "pairing"],
)
def test_frame_guards_reject_nan(monkeypatch, inject, error, match):
    with pytest.raises(error, match=match):
        inject(monkeypatch)

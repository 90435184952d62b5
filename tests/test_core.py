"""Geometry, value objects, and configuration validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drone_assoc.core import (
    BoundingBox,
    ConfigError,
    FrameDetections,
    TrackerConfig,
    ZeroNormError,
    box_centers,
    boxes_array,
    iou_matrix,
    normalize,
)

finite_coord = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
positive_extent = st.floats(0.5, 1e3, allow_nan=False, allow_infinity=False)
boxes = st.builds(BoundingBox, finite_coord, finite_coord,
                  positive_extent, positive_extent)


def reference_iou(a: BoundingBox, b: BoundingBox) -> float:
    """IoU of one pair in plain float arithmetic."""
    iw = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    ih = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return min(1.0, max(0.0, inter / (a.w * a.h + b.w * b.h - inter)))


class TestNormalize:
    def test_three_four_vector(self):
        out = normalize(np.array([3.0, 4.0, 0.0, 0.0]))
        assert np.array_equal(out, np.array([0.6, 0.8, 0.0, 0.0]))

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroNormError):
            normalize(np.zeros(8))

    def test_near_zero_vector_raises(self):
        with pytest.raises(ZeroNormError):
            normalize(np.full(4, 1e-14))

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=16)
           .filter(lambda v: math.hypot(*v[:2]) > 0.1 or any(abs(x) > 0.1 for x in v)))
    def test_unit_norm_and_idempotence(self, values):
        v = np.array(values)
        if np.linalg.norm(v) < 1e-6:
            return
        out = normalize(v)
        assert abs(float(np.linalg.norm(out)) - 1.0) < 1e-12
        again = normalize(out)
        assert np.max(np.abs(again - out)) < 1e-12


class TestBoundingBox:
    def test_fields_are_plain_floats(self):
        b = BoundingBox(np.float64(1.5), np.float32(2.0), np.int64(3), 4)
        for v in (b.x, b.y, b.w, b.h):
            assert type(v) is float

    def test_center_and_array(self):
        b = BoundingBox(2.0, 4.0, 10.0, 20.0)
        assert b.center() == (7.0, 14.0)
        assert np.array_equal(b.as_array(), np.array([2.0, 4.0, 10.0, 20.0]))

    @pytest.mark.parametrize("w,h", [(0.0, 10.0), (10.0, 0.0), (-1.0, 5.0)])
    def test_non_positive_extent_raises(self, w, h):
        with pytest.raises(ValueError):
            BoundingBox(0.0, 0.0, w, h)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_raises(self, bad):
        with pytest.raises(ValueError):
            BoundingBox(bad, 0.0, 1.0, 1.0)

    def test_non_finite_error_names_the_field(self):
        with pytest.raises(ValueError, match="field w must be finite"):
            BoundingBox(0.0, 0.0, float("-inf"), float("nan"))

    @given(st.lists(boxes, max_size=6))
    @settings(max_examples=50)
    def test_boxes_array_stacks_as_array_rows(self, bs):
        out = boxes_array(bs)
        assert out.shape == (len(bs), 4) and out.dtype == np.float64
        for row, b in zip(out, bs):
            assert np.array_equal(row, b.as_array())

    @given(st.lists(boxes, max_size=6))
    @settings(max_examples=50)
    def test_box_centers_equal_center_of_each_box(self, bs):
        out = box_centers(boxes_array(bs))
        assert out.shape == (len(bs), 2)
        assert [tuple(row) for row in out.tolist()] == [b.center() for b in bs]


def pair_iou(a: BoundingBox, b: BoundingBox) -> float:
    """The 1x1 iou_matrix of a pair, checked against reference_iou."""
    v = float(iou_matrix(a.as_array(), b.as_array())[0, 0])
    assert v == pytest.approx(reference_iou(a, b), abs=1e-12)
    return v


class TestIou:
    def test_half_offset_squares(self):
        a = BoundingBox(0.0, 0.0, 10.0, 10.0)
        b = BoundingBox(5.0, 0.0, 10.0, 10.0)
        # inter 50, union 150
        assert pair_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_disjoint_is_zero(self):
        a = BoundingBox(0.0, 0.0, 10.0, 10.0)
        b = BoundingBox(20.0, 20.0, 5.0, 5.0)
        assert pair_iou(a, b) == 0.0

    def test_touching_edges_is_zero(self):
        a = BoundingBox(0.0, 0.0, 10.0, 10.0)
        b = BoundingBox(10.0, 0.0, 10.0, 10.0)
        assert pair_iou(a, b) == 0.0

    def test_identical_is_one(self):
        a = BoundingBox(3.0, -2.0, 7.0, 4.0)
        assert pair_iou(a, a) == 1.0

    def test_containment(self):
        outer = BoundingBox(0.0, 0.0, 10.0, 10.0)
        inner = BoundingBox(2.5, 2.5, 5.0, 5.0)
        assert pair_iou(outer, inner) == pytest.approx(0.25, abs=1e-15)

    @given(st.lists(boxes, min_size=1, max_size=6),
           st.lists(boxes, min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_symmetric_and_bounded(self, lhs, rhs):
        a = boxes_array(lhs)
        b = boxes_array(rhs)
        mat = iou_matrix(a, b)
        assert np.all((0.0 <= mat) & (mat <= 1.0))
        assert np.array_equal(mat, iou_matrix(b, a).T)

    @given(st.lists(boxes, min_size=1, max_size=6),
           st.lists(boxes, min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_matrix_matches_scalar(self, lhs, rhs):
        mat = iou_matrix(np.stack([b.as_array() for b in lhs]),
                         np.stack([b.as_array() for b in rhs]))
        for i, a in enumerate(lhs):
            for j, b in enumerate(rhs):
                assert mat[i, j] == pytest.approx(reference_iou(a, b), abs=1e-12)

    def test_matrix_empty_inputs(self):
        assert iou_matrix(np.zeros((0, 4)), np.zeros((3, 4))).shape == (0, 3)
        assert iou_matrix(np.zeros((2, 4)), np.zeros((0, 4))).shape == (2, 0)


class TestDetectionAndFrame:
    def test_score_bounds(self):
        b = [(0.0, 0.0, 1.0, 1.0)]
        FrameDetections(1, b, [0.0], [1])
        FrameDetections(1, b, [1.0], [1])
        with pytest.raises(ValueError):
            FrameDetections(1, b, [1.5], [1])
        with pytest.raises(ValueError):
            FrameDetections(1, b, [-0.1], [1])

    def test_frames_are_one_based(self):
        FrameDetections(1, ())
        with pytest.raises(ValueError):
            FrameDetections(0, ())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_embedding_is_refused(self, bad):
        b = [(0.0, 0.0, 1.0, 1.0), (5.0, 0.0, 1.0, 1.0)]
        FrameDetections(1, b, [0.9, 0.9], [1, 1], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="embeddings must be finite"):
            FrameDetections(1, b, [0.9, 0.9], [1, 1], [[1.0, 0.0], [bad, 0.0]])


class TestTrackerConfig:
    def test_defaults_are_valid(self):
        cfg = TrackerConfig()
        assert cfg.theta_high == 0.6
        assert cfg.theta_low == 0.1
        assert cfg.alpha_f == 0.9
        assert cfg.w_a == 0.5
        assert cfg.w_r == 0.1
        assert cfg.radius_R == 100.0
        assert cfg.key_bank_capacity == 10
        assert cfg.novelty_threshold == 0.25
        assert cfg.iou_gate == 0.1
        assert cfg.confirm_hits == 3
        assert cfg.max_lost_age == 30

    @pytest.mark.parametrize("kwargs", [
        {"theta_low": 0.7},                    # low above high
        {"theta_high": 1.2},
        {"theta_low": -0.1},
        {"alpha_f": 0.0},
        {"alpha_f": 1.5},
        {"w_a": -0.1},
        {"w_r": -0.1},
        {"w_a": float("inf")},                 # inf * a neutral 0 is NaN
        {"w_r": float("inf")},
        {"radius_R": 0.0},
        {"key_bank_capacity": 0},
        {"iou_gate": 1.0},
        {"iou_gate": -0.2},
        {"confirm_hits": 0},
        {"max_lost_age": -1},
        {"novelty_threshold": -0.5},
    ])
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ConfigError):
            TrackerConfig(**kwargs)

    @pytest.mark.parametrize("name", ["w_a", "w_r", "radius_R", "novelty_threshold"])
    def test_nan_values_raise(self, name):
        with pytest.raises(ConfigError):
            TrackerConfig(**{name: float("nan")})

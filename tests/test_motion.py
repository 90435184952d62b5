"""Kalman filtering, affine warps and estimation, rotation descriptors."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    apply_affine,
    box_measurement,
    grid_error,
    reference_estimate_affine,
    reference_fit_minimal_models,
    reference_rotation_descriptor,
    textbook_init,
    textbook_predict,
    textbook_update,
    textbook_warp,
)
from drone_assoc.core import BoundingBox, boxes_array
from drone_assoc.motion import (
    BOX_BOUND,
    _COVERED_PREDICTIONS,
    AffineEstimationError,
    AffineTransform,
    DegenerateTransformError,
    MotionState,
    _draw_picks,
    _fit_affine_lstsq,
    _fit_minimal_models,
    _multi_warp,
    estimate_affine,
    frame_descriptors,
    kalman_init,
    kalman_predict,
    kalman_update,
    multi_init,
    multi_predict,
    multi_update,
    rotation_cost,
    rotation_descriptor,
    states_to_xywh,
)

coord = st.floats(-500, 500, allow_nan=False, allow_infinity=False)


def random_motion_state(rng) -> MotionState:
    box = BoundingBox(*rng.uniform(0, 200, 2), *rng.uniform(5, 50, 2))
    s = kalman_init(box)
    for _ in range(int(rng.integers(0, 4))):
        s = kalman_predict(s)
        s = kalman_update(s, BoundingBox(*rng.uniform(0, 200, 2),
                                         *rng.uniform(5, 50, 2)))
    return s


def rotation_affine(angle: float, tx: float = 0.0, ty: float = 0.0) -> AffineTransform:
    c, s = math.cos(angle), math.sin(angle)
    return AffineTransform(np.array([[c, -s, tx], [s, c, ty]]))


class TestKalmanBasics:
    def test_init_mean(self):
        s = kalman_init(BoundingBox(0.0, 0.0, 10.0, 10.0))
        assert np.array_equal(s.mean, np.array([5, 5, 1, 10, 0, 0, 0, 0], dtype=float))

    def test_init_covariance_diagonal(self):
        s = kalman_init(BoundingBox(0.0, 0.0, 10.0, 10.0))
        # position stds 2*(h/20)=1, aspect 1e-2, velocity stds 10*(h/160)=0.625
        expected = np.array([1.0, 1.0, 1e-4, 1.0,
                             0.390625, 0.390625, 1e-10, 0.390625])
        assert np.allclose(np.diag(s.covariance), expected, rtol=0, atol=1e-15)
        off_diag = s.covariance - np.diag(np.diag(s.covariance))
        assert np.all(off_diag == 0.0)

    def test_predict_moves_mean_by_velocity(self):
        s = kalman_init(BoundingBox(0.0, 0.0, 10.0, 10.0))
        s = MotionState(s.mean + np.array([0, 0, 0, 0, 2.0, -1.0, 0, 0]),
                        s.covariance)
        p = kalman_predict(s)
        assert p.mean[0] == pytest.approx(7.0)
        assert p.mean[1] == pytest.approx(4.0)
        assert p.mean[4:6] == pytest.approx([2.0, -1.0])

    def test_predict_inflates_covariance(self):
        s = kalman_init(BoundingBox(0.0, 0.0, 10.0, 10.0))
        p = kalman_predict(s)
        assert np.all(np.diag(p.covariance)[:2] > np.diag(s.covariance)[:2])

    def test_update_pulls_mean_toward_measurement(self):
        s = kalman_predict(kalman_init(BoundingBox(0.0, 0.0, 10.0, 10.0)))
        u = kalman_update(s, BoundingBox(8.0, 0.0, 10.0, 10.0))
        assert 5.0 < u.mean[0] < 13.0
        assert np.all(np.diag(u.covariance)[:4] < np.diag(s.covariance)[:4] + 1e-12)

    def test_update_matches_textbook_once(self):
        rng = np.random.default_rng(11)
        s = random_motion_state(rng)
        z_box = BoundingBox(40.0, 30.0, 12.0, 24.0)
        u = kalman_update(s, z_box)

        # independent correction with an explicit inverse
        h_mat = np.eye(4, 8)
        hh = float(s.mean[3])
        r = np.diag((np.array([hh / 20, hh / 20, 2.0, hh / 20]) *
                     np.array([1.0, 1.0, 0.05, 1.0])) ** 2)
        z = np.array([46.0, 42.0, 0.5, 24.0])
        innov = np.linalg.inv(h_mat @ s.covariance @ h_mat.T + r)
        gain = s.covariance @ h_mat.T @ innov
        mean = s.mean + gain @ (z - h_mat @ s.mean)
        assert np.allclose(u.mean, mean, atol=1e-9)

    def test_states_to_xywh_roundtrip(self):
        box = BoundingBox(3.0, 4.0, 12.0, 30.0)
        out = states_to_xywh(kalman_init(box).mean[None])
        assert out.tolist() == [[box.x, box.y, box.w, box.h]]

    def test_states_to_xywh_clamps_degenerate(self):
        out = states_to_xywh(np.array([[0, 0, 1.0, -5.0, 0, 0, 0, 0]], dtype=float))
        assert out[0, 2] == 1e-3 and out[0, 3] == 1e-3

    def test_states_to_xywh_clamps_each_row(self, rng):
        means = np.stack([random_motion_state(rng).mean for _ in range(9)])
        means[2, 3] = -5.0  # height clamps
        means[4, 2] = 1e-9  # width clamps
        boxes = states_to_xywh(means)
        assert boxes[2, 3] == 1e-3 and boxes[4, 2] == 1e-3
        for box, mean in zip(boxes, means):
            assert box[:2] + box[2:] / 2.0 == pytest.approx(mean[:2])
        assert boxes.tolist() == [states_to_xywh(m[None])[0].tolist() for m in means]
        assert states_to_xywh(np.zeros((0, 8))).shape == (0, 4)


class TestBatchedKalman:
    def test_multi_predict_matches_singles(self, rng):
        states = [random_motion_state(rng) for _ in range(7)]
        for m in (None, rotation_affine(0.3, 5.0, -2.0)):
            means, covs = multi_predict(
                np.stack([s.mean for s in states]),
                np.stack([s.covariance for s in states]), m)
            for k, s in enumerate(states):
                mean, cov = s.mean, s.covariance
                if m is not None:
                    mean, cov = textbook_warp(mean, cov, m)
                mean, cov = textbook_predict(mean, cov)
                assert np.allclose(means[k], mean, rtol=0, atol=1e-9)
                assert np.allclose(covs[k], cov, rtol=0, atol=1e-9)

    def test_multi_update_matches_singles(self, rng):
        states = [random_motion_state(rng) for _ in range(7)]
        boxes = [BoundingBox(*rng.uniform(0, 200, 2), *rng.uniform(5, 50, 2))
                 for _ in states]
        means, covs = multi_update(
            np.stack([s.mean for s in states]),
            np.stack([s.covariance for s in states]), boxes_array(boxes))
        for k, (s, b) in enumerate(zip(states, boxes)):
            mean, cov = textbook_update(s.mean, s.covariance, box_measurement(b))
            assert np.allclose(means[k], mean, rtol=0, atol=1e-9)
            assert np.allclose(covs[k], cov, rtol=0, atol=1e-9)

    def test_multi_init_matches_singles(self, rng):
        boxes = [BoundingBox(*rng.uniform(0, 200, 2), *rng.uniform(5, 50, 2))
                 for _ in range(7)]
        means, covs = multi_init(boxes_array(boxes))
        for k, b in enumerate(boxes):
            mean, cov = textbook_init(box_measurement(b))
            assert np.allclose(means[k], mean, rtol=0, atol=1e-9)
            assert np.allclose(covs[k], cov, rtol=0, atol=1e-9)
            s = kalman_init(b)
            assert np.array_equal(s.mean, means[k])
            assert np.array_equal(s.covariance, covs[k])

    def test_empty_batches(self):
        means, covs = multi_predict(np.zeros((0, 8)), np.zeros((0, 8, 8)), None)
        assert means.shape == (0, 8)
        means, covs = multi_update(np.zeros((0, 8)), np.zeros((0, 8, 8)), np.zeros((0, 4)))
        assert covs.shape == (0, 8, 8)
        means, covs = multi_init(np.zeros((0, 4)))
        assert means.shape == (0, 8) and covs.shape == (0, 8, 8)

    def test_boxes_at_the_bound_stay_finite_through_the_covered_predictions(self):
        """BOX_BOUND's derivation: filters started and updated at boxes on
        the bound, then predicted _COVERED_PREDICTIONS times without an
        update and updated once more, meet no floating-point error."""
        b = BOX_BOUND
        boxes = np.array([[-b, b, b, b], [b, -b, b, 1.0], [0.0, 0.0, 1.0 / b, 1.0 / b]])
        with np.errstate(all="raise"):
            means, covs = multi_update(*multi_predict(*multi_init(boxes), None), boxes)
            for _ in range(_COVERED_PREDICTIONS):
                means, covs = multi_predict(means, covs, None)
            means, covs = multi_update(means, covs, boxes)
            assert np.isfinite(states_to_xywh(means)).all() and np.isfinite(covs).all()


class TestAffineTransform:
    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError):
            AffineTransform(np.eye(3))

    def test_singular_raises(self):
        with pytest.raises(DegenerateTransformError):
            AffineTransform(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]))

    def test_non_finite_raises(self):
        with pytest.raises(DegenerateTransformError):
            AffineTransform(np.array([[np.nan, 0, 0], [0, 1, 0]]))


def random_states(rng, n: int = 6) -> tuple[np.ndarray, np.ndarray]:
    """n random filter states stacked as (n, 8) means and (n, 8, 8) covs."""
    states = [random_motion_state(rng) for _ in range(n)]
    return np.stack([s.mean for s in states]), np.stack([s.covariance for s in states])


def warp(means, covs, m: AffineTransform) -> tuple[np.ndarray, np.ndarray]:
    """_multi_warp of a stack of states, each row checked against
    textbook_warp."""
    out_means, out_covs = _multi_warp(means, covs, m)
    for k in range(means.shape[0]):
        mean, cov = textbook_warp(means[k], covs[k], m)
        assert np.allclose(out_means[k], mean, rtol=0, atol=1e-9)
        assert np.allclose(out_covs[k], cov, rtol=0, atol=1e-9)
    return out_means, out_covs


class TestWarp:
    def test_identity_warp_is_noop(self, rng):
        means, covs = random_states(rng)
        w_means, w_covs = warp(means, covs, AffineTransform(np.eye(2, 3)))
        assert np.allclose(w_means, means, atol=1e-12)
        assert np.allclose(w_covs, covs, atol=1e-12)

    def test_translation_moves_position_only(self, rng):
        means, covs = random_states(rng)
        m = AffineTransform(np.array([[1.0, 0.0, 30.0], [0.0, 1.0, -10.0]]))
        w_means, _ = warp(means, covs, m)
        assert np.allclose(w_means[:, :2], means[:, :2] + [30.0, -10.0], atol=1e-12)
        assert np.allclose(w_means[:, 2:], means[:, 2:], atol=1e-12)

    def test_quarter_turn_swaps_axes(self):
        s = kalman_init(BoundingBox(0.0, 0.0, 10.0, 10.0))
        means = np.array([[10.0, 0.0, 1.0, 10.0, 3.0, 0.0, 0.0, 0.0]])
        w_means, _ = warp(means, s.covariance[None], rotation_affine(math.pi / 2))
        # (x, y) -> (-y, x) for both position and velocity
        assert np.allclose(w_means[0, :2], [0.0, 10.0], atol=1e-12)
        assert np.allclose(w_means[0, 4:6], [0.0, 3.0], atol=1e-12)
        assert w_means[0, 3] == pytest.approx(10.0)

    def test_uniform_scale_rescales_height(self, rng):
        means, covs = random_states(rng)
        m = AffineTransform(np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))
        w_means, _ = warp(means, covs, m)
        assert np.allclose(w_means[:, 3], 2.0 * means[:, 3])
        assert np.allclose(w_means[:, 7], 2.0 * means[:, 7])
        assert np.allclose(w_means[:, 2], means[:, 2])  # aspect is scale-free

    def test_warp_then_inverse_restores_state(self, rng):
        for _ in range(5):
            means, covs = random_states(rng, 5)
            m = rotation_affine(rng.uniform(-3, 3), *rng.uniform(-100, 100, 2))
            inv = np.linalg.inv(m.linear)
            inverse = AffineTransform(np.column_stack([inv, -inv @ m.translation]))
            w_means, w_covs = warp(*warp(means, covs, m), inverse)
            assert np.allclose(w_means, means, atol=1e-6)
            assert np.allclose(w_covs, covs, atol=1e-6)

    def test_predict_state_compensates_before_predicting(self, rng):
        means, covs = random_states(rng)
        m = rotation_affine(0.4, 12.0, -7.0)
        got = multi_predict(means, covs, m)
        expected = multi_predict(*warp(means, covs, m), None)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])
        for k in range(means.shape[0]):
            mean, cov = textbook_predict(*textbook_warp(means[k], covs[k], m))
            assert np.allclose(got[0][k], mean, rtol=0, atol=1e-9)
            assert np.allclose(got[1][k], cov, rtol=0, atol=1e-9)


class TestEstimateAffine:
    def test_recovers_translation(self, rng):
        prev = rng.uniform(0, 500, (20, 2))
        cur = prev + np.array([7.0, -2.0])
        m = estimate_affine(prev, cur)
        assert np.allclose(m.m, [[1, 0, 7], [0, 1, -2]], atol=1e-6)

    def test_recovers_rotation_with_outliers(self, rng):
        truth = rotation_affine(0.3, 15.0, -4.0)
        prev = rng.uniform(0, 500, (30, 2))
        cur = apply_affine(truth, prev)
        cur[::7] += rng.uniform(80, 150, cur[::7].shape)  # wild outliers
        m = estimate_affine(prev, cur, rng=np.random.default_rng(5))
        assert np.allclose(m.m, truth.m, atol=1e-6)

    def test_too_few_pairs_raises(self):
        with pytest.raises(AffineEstimationError):
            estimate_affine(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_collinear_points_raise(self):
        prev = np.column_stack([np.arange(5.0), np.zeros(5)])
        with pytest.raises(AffineEstimationError):
            estimate_affine(prev, prev + 1.0)

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError):
            estimate_affine(np.zeros((4, 2)), np.zeros((5, 2)))


def _fit_or_none(fn, prev, cur, seed, **kwargs):
    """The fitted matrix, or None when the search raises."""
    try:
        return fn(prev, cur, rng=np.random.default_rng(seed), **kwargs).m
    except AffineEstimationError:
        return None


def _assert_matches_reference(prev, cur, seed, **kwargs):
    want = _fit_or_none(reference_estimate_affine, prev, cur, seed, **kwargs)
    got = _fit_or_none(estimate_affine, prev, cur, seed, **kwargs)
    if want is None:
        assert got is None
    else:
        assert got is not None and np.array_equal(got, want)
    return want


def _assert_usable(m):
    assert np.isfinite(m).all()
    assert abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) > 1e-9


class TestEstimateAffineLockstep:
    """The batched search against the sequential reference loop: the same
    matrix bit for bit where every model that can win has the same
    consensus set, a usable affine or AffineEstimationError on hard inputs,
    and the same error distribution on a point grid elsewhere."""

    TRUTH = np.array([[1.01, 0.03, 6.0], [-0.02, 0.98, -3.5]])

    def moved(self, prev):
        return prev @ self.TRUTH[:, :2].T + self.TRUTH[:, 2]

    def noisy_set(self, seed):
        """4-29 pairs, 1.5 px noise, about 20% moved 20-120 px off."""
        g = np.random.default_rng(seed)
        n = int(g.integers(4, 30))
        prev = g.uniform(0, 600, (n, 2))
        cur = self.moved(prev) + g.normal(0.0, 1.5, prev.shape)
        cur[g.random(n) < 0.2] += g.uniform(20, 120, 2)
        return prev, cur

    def test_error_distribution_matches_reference(self):
        """Median and p90 grid error over 200 noisy sets with outliers lie
        within 10% of the reference loop's on the same sets."""
        got, want = [], []
        for seed in range(200):
            prev, cur = self.noisy_set(seed)
            for fn, out in ((reference_estimate_affine, want), (estimate_affine, got)):
                m = fn(prev, cur, rng=np.random.default_rng(seed))
                out.append(grid_error(m.m, self.TRUTH))
        for q in (50, 90):
            ref = np.percentile(want, q)
            assert abs(np.percentile(got, q) - ref) <= 0.1 * ref, f"p{q}"

    @pytest.mark.parametrize("seed", range(40))
    def test_noisy_points_with_outliers(self, seed):
        prev, cur = self.noisy_set(seed)
        _assert_usable(estimate_affine(prev, cur, rng=np.random.default_rng(seed)).m)

    @pytest.mark.parametrize("seed", range(40))
    def test_collinear_and_coincident_picks(self, seed):
        g = np.random.default_rng(100 + seed)
        n = int(g.integers(4, 16))
        # a coarse lattice makes repeated points and collinear triples common
        prev = g.integers(0, 3, (n, 2)).astype(np.float64) * 50.0
        cur = self.moved(prev) + g.normal(0.0, 1.0, prev.shape)
        m = _fit_or_none(estimate_affine, prev, cur, seed)
        if m is not None:
            _assert_usable(m)

    @pytest.mark.parametrize("seed", range(20))
    def test_noise_free_points_stop_early(self, seed):
        g = np.random.default_rng(200 + seed)
        prev = g.uniform(0, 600, (int(g.integers(3, 25)), 2))
        m = _assert_matches_reference(prev, self.moved(prev), seed)
        assert np.allclose(m, self.TRUTH, atol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_three_pairs(self, seed):
        g = np.random.default_rng(300 + seed)
        prev = g.uniform(0, 600, (3, 2))
        _assert_matches_reference(prev, self.moved(prev) + g.normal(0.0, 2.0, (3, 2)), seed)

    def test_all_collinear_raises_in_both(self):
        prev = np.column_stack([np.arange(6.0) * 10.0, np.arange(6.0) * 5.0])
        assert _assert_matches_reference(prev, prev + 1.0, 4) is None

    def test_collapsed_current_points_raise_in_both(self):
        prev = np.random.default_rng(13).uniform(0, 600, (8, 2))
        # every model maps onto one point: finite but with det 0
        assert _assert_matches_reference(prev, np.tile([40.0, 70.0], (8, 1)), 2) is None

    def test_skip_rules_match_the_lstsq_fit(self):
        """Batched rank and det cuts agree with _fit_affine_lstsq returning
        None, for triples from clearly degenerate to clearly regular."""
        g = np.random.default_rng(14)
        cut = 6 * np.finfo(np.float64).eps
        basis, targets, want = [], [], []
        for offset in np.logspace(-14, -4, 400):
            x = g.uniform(0, 600, 3)
            prev = np.column_stack([x, 0.37 * x + 3.1])
            prev[g.integers(3), 1] += offset  # off the line by `offset` px
            cur = self.moved(prev) if g.random() < 0.8 else np.tile(prev[:1], (3, 1))
            sv = np.linalg.svd(np.column_stack([prev, np.ones(3)]), compute_uv=False)
            if abs(sv[-1] / sv[0] / cut - 1.0) < 0.01:
                continue  # rounding decides on the cut itself
            basis.append(np.column_stack([prev, np.ones(3)]))
            targets.append(cur)
            want.append(_fit_affine_lstsq(prev, cur) is not None)
        _, valid = _fit_minimal_models(np.array(basis), np.array(targets))
        assert 50 < sum(want) < len(want) - 50
        assert valid.tolist() == want

    @pytest.mark.parametrize("seed", range(30))
    def test_residuals_on_the_threshold(self, seed):
        """Four pairs moved exactly inlier_threshold off the true map, where
        rounding decides whether they count: the estimate moves by less
        than the threshold either way."""
        g = np.random.default_rng(400 + seed)
        prev = g.uniform(0, 600, (12, 2))
        cur = self.moved(prev)
        cur[:4] += 3.0 * np.array([[1, 0], [0, 1], [0.6, 0.8], [-0.8, 0.6]])
        cur[4:6] += g.normal(0.0, 0.5, (2, 2))
        m = estimate_affine(prev, cur, rng=np.random.default_rng(seed), inlier_threshold=3.0)
        assert grid_error(m.m, self.TRUTH) < 3.0

    @pytest.mark.parametrize("offset,seed", [(1e-11, 31), (3e-11, 176)])
    def test_near_collinear_points(self, offset, seed):
        """Points within 1e-11 px of a common line, condition numbers near
        1e14: a usable affine or AffineEstimationError, nothing else."""
        g = np.random.default_rng(seed)
        x = g.uniform(0, 600, 6)
        prev = np.column_stack([x, 0.37 * x + 3.1])
        prev[g.integers(6), 1] += offset
        cur = self.moved(prev) + g.normal(0.0, 1.0, prev.shape)
        m = _fit_or_none(estimate_affine, prev, cur, seed)
        if m is not None:
            _assert_usable(m)

    def test_no_iterations_raise(self):
        prev = np.random.default_rng(11).uniform(0, 600, (15, 2))
        with pytest.raises(AffineEstimationError):
            estimate_affine(prev, self.moved(prev), max_iterations=0)

    @pytest.mark.parametrize("iterations", [1, 7, 100])
    def test_draw_advances_generator_once(self, iterations):
        """A call consumes one (max_iterations, n) block of uniform keys."""
        prev = np.random.default_rng(11).uniform(0, 600, (15, 2))
        gen, twin = np.random.default_rng(5), np.random.default_rng(5)
        estimate_affine(prev, self.moved(prev), rng=gen, max_iterations=iterations)
        twin.random((iterations, 15))
        assert gen.bit_generator.state == twin.bit_generator.state

    def test_draw_gives_distinct_uniform_triples(self):
        n, count = 8, 40_000
        picks = _draw_picks(np.random.default_rng(3), n, count)
        assert picks.shape == (count, 3)
        assert ((picks >= 0) & (picks < n)).all()
        ordered = np.sort(picks, axis=1)
        assert (np.diff(ordered, axis=1) > 0).all()
        # each index is in 3/8 of the rows: about 15 000, sd about 97
        freq = np.bincount(picks.ravel(), minlength=n)
        assert np.abs(freq - 3 * count / n).max() < 600
        # and each of the 56 triples in about 1/56 of them
        triples = np.unique(ordered, axis=0, return_counts=True)[1]
        assert len(triples) == 56 and np.abs(triples - count / 56).max() < 150

    def test_tight_threshold_recovers_low_noise_affine(self):
        g = np.random.default_rng(11)
        prev = g.uniform(0, 600, (15, 2))
        cur = self.moved(prev) + g.normal(0.0, 0.2, prev.shape)
        m = estimate_affine(prev, cur, rng=np.random.default_rng(5), inlier_threshold=1.0)
        assert grid_error(m.m, self.TRUTH) < 0.5


def _minimal_outcome(fn, basis, targets):
    """(coef bytes, valid list) of a minimal-model fit, or the type of the
    exception it raised."""
    try:
        with np.errstate(all="ignore"):
            coef, valid = fn(basis, targets)
    except np.linalg.LinAlgError as e:
        return type(e)
    return coef.tobytes(), valid.tolist()


# one triple: log10 of its size and of its distance from the origin
# relative to the size (capped at 1e150), the direction of its line and of
# its offset from the origin, three positions along the line, which point
# leaves it, and log10 of how far, relative to the size
_triple = st.tuples(
    st.floats(-150, 150), st.floats(-10, 10),
    st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi),
    st.lists(st.floats(-1, 1), min_size=3, max_size=3),
    st.integers(0, 2), st.floats(-20, 0.5),
)


def _triple_points(size_e, shift_e, line, heading, along, moved, off_e) -> np.ndarray:
    u = np.array([math.cos(line), math.sin(line)])
    shift = 10.0**min(size_e + shift_e, 150.0)
    pts = shift * np.array([math.cos(heading), math.sin(heading)]) \
        + 10.0**size_e * np.outer(along, u)
    pts[moved] += 10.0**(size_e + off_e) * np.array([-u[1], u[0]])
    return pts


class TestRankCertificate:
    """The determinant bound in _fit_minimal_models decides only what the SVD
    rank rule would: the mask and models equal the rule applied to every
    triple, and a finite input the bound cannot decide reaches the SVD as
    before. A triple with a NaN coordinate, which the SVD cannot take, is
    invalid."""

    TRUTH = TestEstimateAffineLockstep.TRUTH

    def assert_matches_reference(self, prev_triples):
        prev = np.asarray(prev_triples, dtype=np.float64).reshape(-1, 3, 2)
        basis = np.concatenate([prev, np.ones((prev.shape[0], 3, 1))], axis=2)
        with np.errstate(all="ignore"):
            targets = prev @ self.TRUTH[:, :2].T + self.TRUTH[:, 2]
        want = _minimal_outcome(reference_fit_minimal_models, basis, targets)
        assert _minimal_outcome(_fit_minimal_models, basis, targets) == want

    def every_triple(self, pts):
        return pts[np.array(list(itertools.combinations(range(len(pts)), 3)))]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_triple, min_size=1, max_size=12))
    def test_mask_matches_the_svd_rule(self, triples):
        """Coordinates from 1e-150 to 1e150, off-line offsets from 1e-20 to 3
        times the triple's size."""
        self.assert_matches_reference([_triple_points(*t) for t in triples])

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e155, 1e200, 1.7e308])
    def test_extreme_scales_match_the_svd_rule(self, scale):
        prev = np.random.default_rng(11).uniform(0, 600, (15, 2))
        with np.errstate(over="ignore"):
            moved = (prev * scale, prev + scale)
        for pts in moved:
            self.assert_matches_reference(self.every_triple(pts))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_triples_match_the_svd_rule(self, bad):
        prev = np.random.default_rng(11).uniform(0, 600, (6, 2))
        prev[2, 0] = bad
        self.assert_matches_reference(self.every_triple(prev))

    @pytest.mark.parametrize("where,value,error", [
        ((slice(None), 1), np.nan, AffineEstimationError),
        ((slice(None), 1), np.inf, AffineEstimationError),
        ((slice(None), 1), -np.inf, AffineEstimationError),
        ((slice(None), slice(None)), 1e200, AffineEstimationError),  # overflow
        ((slice(None), slice(None)), 1.7e308, AffineEstimationError),
    ])
    def test_bad_coordinates_raise_as_the_svd_rule_does(self, where, value, error):
        prev = np.random.default_rng(11).uniform(0, 600, (15, 2))
        cur = prev @ self.TRUTH[:, :2].T + self.TRUTH[:, 2]
        with np.errstate(all="ignore"):
            prev[where] = prev[where] * value if math.isfinite(value) else value
        with np.errstate(all="ignore"), pytest.raises(error):
            estimate_affine(prev, cur, rng=np.random.default_rng(5))

    def test_one_nan_coordinate_is_outvoted(self):
        prev = np.random.default_rng(11).uniform(0, 600, (15, 2))
        cur = prev @ self.TRUTH[:, :2].T + self.TRUTH[:, 2]
        prev[3, 0] = np.nan
        with np.errstate(all="ignore"):
            m = estimate_affine(prev, cur, rng=np.random.default_rng(5))
        assert np.allclose(m.m, self.TRUTH, atol=1e-6)

    def test_one_infinite_coordinate_is_outvoted(self):
        prev = np.random.default_rng(11).uniform(0, 600, (15, 2))
        cur = prev @ self.TRUTH[:, :2].T + self.TRUTH[:, 2]
        prev[3, 0] = np.inf
        with np.errstate(all="ignore"):
            m = estimate_affine(prev, cur, rng=np.random.default_rng(5))
        assert np.allclose(m.m, self.TRUTH, atol=1e-6)


class TestRotationDescriptor:
    def test_three_four_five_triangle(self):
        d = rotation_descriptor((0.0, 0.0), [(30.0, 0.0), (0.0, 40.0)], 100.0)
        # right triangle: smallest angles asin(3/5), asin(4/5); hypotenuse 50
        assert d == pytest.approx(
            [math.asin(0.6), math.asin(0.8), 0.5], abs=1e-12)

    def test_needs_two_qualifying_neighbors(self):
        assert rotation_descriptor((0.0, 0.0), [(5.0, 5.0)], 100.0) is None
        # second neighbor out of radius
        assert rotation_descriptor((0.0, 0.0), [(5.0, 5.0), (500.0, 0.0)],
                                   100.0) is None
        # coincident neighbor does not count
        assert rotation_descriptor((0.0, 0.0), [(5.0, 5.0), (0.0, 0.0)],
                                   100.0) is None

    def test_collinear_neighbors_are_degenerate(self):
        assert rotation_descriptor((0.0, 0.0), [(10.0, 0.0), (20.0, 0.0)],
                                   100.0) is None

    def test_nearest_and_farthest_form_the_triangle(self):
        # middle-distance neighbor must be ignored
        d = rotation_descriptor((0.0, 0.0),
                                [(30.0, 0.0), (0.0, 35.0), (0.0, 40.0)], 100.0)
        expect = rotation_descriptor((0.0, 0.0), [(30.0, 0.0), (0.0, 40.0)], 100.0)
        assert d == pytest.approx(list(expect), abs=0)

    def test_radius_normalizes_third_component(self):
        d1 = rotation_descriptor((0.0, 0.0), [(30.0, 0.0), (0.0, 40.0)], 100.0)
        d2 = rotation_descriptor((0.0, 0.0), [(30.0, 0.0), (0.0, 40.0)], 50.0)
        assert d2[2] == pytest.approx(2.0 * d1[2])
        assert d1[:2] == pytest.approx(list(d2[:2]))

    def test_rigid_invariance_sample(self, rng):
        for _ in range(50):
            subject = rng.uniform(-200, 200, 2)
            neighbors = subject + rng.uniform(-60, 60, (5, 2))
            d1 = rotation_descriptor(tuple(subject),
                                     [tuple(p) for p in neighbors], 100.0)
            if d1 is None:
                continue
            m = rotation_affine(rng.uniform(0, 2 * math.pi),
                                *rng.uniform(-300, 300, 2))
            d2 = rotation_descriptor(
                tuple(apply_affine(m, subject[None, :])[0]),
                [tuple(p) for p in apply_affine(m, neighbors)], 100.0)
            assert d2 is not None
            assert np.max(np.abs(d1 - d2)) < 1e-9


class TestFrameDescriptors:
    @given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
                    min_size=0, max_size=10))
    @settings(max_examples=150)
    def test_matches_per_subject_function(self, points):
        pts = np.array(points, dtype=np.float64).reshape(-1, 2)
        batch = frame_descriptors(pts, 75.0)
        assert batch.shape == (pts.shape[0], 3)
        for i in range(pts.shape[0]):
            others = [tuple(p) for j, p in enumerate(pts) if j != i]
            single = reference_rotation_descriptor(tuple(pts[i]), others, 75.0)
            if single is None:
                assert not batch[i].any()  # a missing descriptor is a zero row
            else:
                assert batch[i].any()
                assert np.max(np.abs(single - batch[i])) < 1e-12

    def test_duplicate_points_excluded_like_single(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0], [0.0, 12.0]])
        batch = frame_descriptors(pts, 100.0)
        for i in range(4):
            others = [tuple(p) for j, p in enumerate(pts) if j != i]
            single = reference_rotation_descriptor(tuple(pts[i]), others, 100.0)
            if single is None:
                assert not batch[i].any()
            else:
                assert np.max(np.abs(single - batch[i])) < 1e-12

    def test_fewer_than_three_points(self):
        assert frame_descriptors(np.zeros((0, 2)), 100.0).shape == (0, 3)
        assert np.array_equal(
            frame_descriptors(np.array([[0.0, 0.0], [5.0, 5.0]]), 100.0), np.zeros((2, 3)))


class TestRotationCost:
    def test_missing_descriptor_is_neutral(self):
        d = np.array([0.5, 0.8, 0.3])
        assert rotation_cost(None, d) == 0.0
        assert rotation_cost(d, None) == 0.0
        assert rotation_cost(None, None) == 0.0

    def test_identical_descriptors_cost_zero(self):
        d = np.array([0.64, 0.93, 0.5])
        assert rotation_cost(d, d) == pytest.approx(0.0, abs=1e-15)

    def test_swapped_angle_pair(self):
        a = np.array([0.6435, 0.9273, 0.5])
        b = np.array([0.9273, 0.6435, 0.5])
        # 1 - cosine similarity of the two vectors
        expected = 1.0 - float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert rotation_cost(a, b) == pytest.approx(expected, abs=1e-15)
        assert rotation_cost(a, b) == pytest.approx(0.05285014895954432, abs=1e-12)

    def test_clamped_to_unit_interval(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([-1.0, 0.0, 0.0])
        assert rotation_cost(a, b) == 1.0

    def test_zero_norm_descriptor_is_neutral(self):
        d = np.array([0.5, 0.8, 0.3])
        assert rotation_cost(np.zeros(3), d) == 0.0
        assert rotation_cost(d, np.zeros(3)) == 0.0

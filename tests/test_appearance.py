"""Adaptive feature blending and the key-feature bank."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_track,
    reference_appearance_cost_matrix,
    reference_normalize,
    track_table,
    unit_vector,
)
from drone_assoc.appearance import (
    BankEntry,
    KeyFeatureBank,
    adaptive_alpha,
    appearance_cost_matrix,
    blend_rows,
    gallery_pair_costs,
    maybe_insert_key,
    update_local_feature,
)
from drone_assoc.association import fused_pair_costs, gated_pairs
from drone_assoc.core import BoundingBox, TrackerConfig


class TestAdaptiveAlpha:
    def test_borderline_score_freezes_feature(self):
        assert adaptive_alpha(0.6, 0.6, 0.9) == 1.0

    def test_full_confidence_value(self):
        expected = 0.9 + 0.1 * math.exp(-0.4)
        assert adaptive_alpha(1.0, 0.6, 0.9) == pytest.approx(expected, abs=1e-12)

    def test_monotone_non_increasing_in_score(self):
        grid = np.linspace(0.6, 1.0, 1000)
        vals = np.array([adaptive_alpha(float(s), 0.6, 0.9) for s in grid])
        assert np.all(np.diff(vals) <= 0.0)

    def test_clamped_below_threshold(self):
        # exp(theta - s) > 1 there, so the raw value would exceed 1
        assert adaptive_alpha(0.3, 0.6, 0.9) == 1.0

    @given(st.floats(0.0, 1.0), st.floats(0.01, 0.99), st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_stays_in_alpha_f_one_interval(self, s, theta, alpha_f):
        a = adaptive_alpha(s, theta, alpha_f)
        assert alpha_f <= a <= 1.0


def blend_one(prev, f, alpha):
    """blend_rows over a single row."""
    return blend_rows(prev[None], f[None], np.array([alpha]))[0]


class TestBlendRows:
    def test_matches_plain_trigonometry(self):
        # two unit vectors 60 degrees apart in a 2D plane, alpha = 0.75
        prev = np.array([1.0, 0.0])
        new = np.array([math.cos(math.pi / 3), math.sin(math.pi / 3)])
        mixed = 0.75 * prev + 0.25 * new
        expected = mixed / math.sqrt(float(mixed @ mixed))
        out = blend_one(prev, new, 0.75)
        assert np.allclose(out, expected, atol=1e-15)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_alpha_one_keeps_previous_direction(self, rng):
        prev = unit_vector(rng, 16)
        out = blend_one(prev, unit_vector(rng, 16), 1.0)
        assert np.allclose(out, prev, atol=1e-12)

    def test_alpha_zero_adopts_new_direction(self, rng):
        new = unit_vector(rng, 16)
        out = blend_one(unit_vector(rng, 16), new, 0.0)
        assert np.allclose(out, new, atol=1e-12)

    def test_a_cancelling_row_keeps_its_previous_feature(self, rng):
        prev = np.array([unit_vector(rng, 16) for _ in range(3)])
        feats = np.array([unit_vector(rng, 16), -prev[1], unit_vector(rng, 16)])
        alphas = np.array([0.9, 0.5, 0.5])
        out = blend_rows(prev, feats, alphas)
        assert out[1].tobytes() == prev[1].tobytes()
        for r in (0, 2):
            mixed = alphas[r] * prev[r] + (1.0 - alphas[r]) * feats[r]
            assert out[r].tobytes() == reference_normalize(mixed).tobytes()


class TestUpdateLocalFeature:
    def test_first_feature_is_adopted(self, rng):
        t = make_track()
        f = unit_vector(rng, 8)
        out = update_local_feature(t, f, 0.9, 0.6, 0.9)
        assert np.array_equal(out, f)
        assert t.local_feature is out

    def test_borderline_score_preserves_direction(self, rng):
        start = unit_vector(rng, 8)
        t = make_track(local_feature=start.copy())
        update_local_feature(t, unit_vector(rng, 8), 0.6, 0.6, 0.9)
        assert np.allclose(t.local_feature, start, atol=1e-12)

    def test_confident_score_moves_toward_detection(self, rng):
        start = unit_vector(rng, 8)
        f = unit_vector(rng, 8)
        t = make_track(local_feature=start.copy())
        update_local_feature(t, f, 1.0, 0.6, 0.9)
        assert float(t.local_feature @ f) > float(start @ f)


class TestKeyFeatureBank:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            KeyFeatureBank(capacity=0)

    def test_first_feature_always_inserted(self, rng):
        bank = KeyFeatureBank(capacity=3)
        f = unit_vector(rng, 8)
        maybe_insert_key(bank, f, 5, 0.25)
        assert len(bank.entries) == 1
        assert bank.entries[0].last_used == 5

    def test_similar_feature_refreshes_instead_of_inserting(self, rng):
        f = unit_vector(rng, 8)
        bank = KeyFeatureBank(capacity=3, entries=[BankEntry(f.copy(), 1)])
        maybe_insert_key(bank, f, 9, 0.25)
        assert len(bank.entries) == 1
        assert bank.entries[0].last_used == 9

    def test_novel_feature_inserted(self):
        e0 = np.zeros(8)
        e0[0] = 1.0
        e1 = np.zeros(8)
        e1[1] = 1.0  # orthogonal: cosine distance 1 > 0.25
        bank = KeyFeatureBank(capacity=3, entries=[BankEntry(e0, 1)])
        maybe_insert_key(bank, e1, 2, 0.25)
        assert len(bank.entries) == 2

    def test_full_bank_evicts_least_recently_used(self):
        basis = np.eye(8)
        bank = KeyFeatureBank(
            capacity=3,
            entries=[BankEntry(basis[0], 4), BankEntry(basis[1], 2),
                     BankEntry(basis[2], 7)],
        )
        maybe_insert_key(bank, basis[3], 9, 0.25)
        ages = [e.last_used for e in bank.entries]
        assert len(bank.entries) == 3
        assert 2 not in ages  # the stalest entry went away
        assert bank.entries[-1].last_used == 9

    def test_eviction_tie_removes_first_slot(self):
        basis = np.eye(8)
        bank = KeyFeatureBank(
            capacity=2, entries=[BankEntry(basis[0], 3), BankEntry(basis[1], 3)]
        )
        maybe_insert_key(bank, basis[2], 8, 0.25)
        assert np.array_equal(bank.entries[0].feature, basis[1])
        assert np.array_equal(bank.entries[1].feature, basis[2])

    def test_refresh_touches_the_closest_entry(self):
        e0 = np.array([1.0, 0.0, 0.0])
        e1 = np.array([0.0, 1.0, 0.0])
        bank = KeyFeatureBank(capacity=4, entries=[BankEntry(e0, 1), BankEntry(e1, 2)])
        probe = np.array([0.2, 0.9797958971132712, 0.0])  # unit, nearest e1
        maybe_insert_key(bank, probe, 11, 0.25)
        assert bank.entries[0].last_used == 1
        assert bank.entries[1].last_used == 11

    def test_matches_reference_implementation_over_random_stream(self, rng):
        """Replay a long insertion stream against a brute-force model."""

        def reference(events, capacity, threshold):
            entries: list[tuple[np.ndarray, int]] = []
            for f, frame in events:
                if not entries:
                    entries.append((f, frame))
                    continue
                sims = [float(e @ f) for e, _ in entries]
                best = max(range(len(sims)), key=lambda i: sims[i])
                if 1.0 - sims[best] > threshold:
                    if len(entries) >= capacity:
                        oldest = min(range(len(entries)),
                                     key=lambda i: entries[i][1])
                        entries.pop(oldest)
                    entries.append((f, frame))
                else:
                    entries[best] = (entries[best][0], frame)
            return entries

        for trial in range(20):
            events = [(unit_vector(rng, 6), frame) for frame in range(1, 61)]
            bank = KeyFeatureBank(capacity=5)
            for f, frame in events:
                maybe_insert_key(bank, f, frame, 0.25)
            expected = reference(events, 5, 0.25)
            assert len(bank.entries) == len(expected)
            assert len(bank.entries) <= 5
            for got, (feat, used) in zip(bank.entries, expected):
                assert np.array_equal(got.feature, feat)
                assert got.last_used == used


def gallery_costs(tracks, feats) -> np.ndarray:
    """gallery_pair_costs of every pair of the table rows of `tracks` and
    `feats`, checked against reference_appearance_cost_matrix."""
    feats = np.asarray(feats, dtype=np.float64)
    table = track_table(tracks)
    shape = (len(tracks), feats.shape[0])
    rows, cols = np.indices(shape).reshape(2, -1)
    block = gallery_pair_costs(table.gallery, table.gallery_mask(), rows,
                               feats[cols]).reshape(shape)
    assert np.array_equal(block, reference_appearance_cost_matrix(tracks, feats))
    return block


class TestAppearanceCost:
    def test_best_match_comes_from_bank_or_local(self, rng):
        local = np.zeros(4)
        local[0] = 1.0
        key = np.zeros(4)
        key[1] = 1.0
        t = make_track(local_feature=local, bank_features=(key,))
        probe = np.array([[0.0, 0.8, 0.6, 0.0]])  # closer to the key feature
        assert gallery_costs([t], probe)[0, 0] == pytest.approx(1.0 - 0.8, abs=1e-15)

    def test_missing_detection_feature_is_neutral(self):
        # a frame without embeddings adds no appearance term to the fused cost
        t = make_track(bbox=BoundingBox(0.0, 0.0, 10.0, 10.0),
                       local_feature=np.array([1.0, 0.0]))
        table = track_table([t])
        rows, cols, ious = gated_pairs(table.classes, np.array([[0.0, 0.0, 10.0, 10.0]]),
                                       np.array([[0.0, 0.0, 10.0, 5.0]]),
                                       np.array([t.class_id]), TrackerConfig().iou_gate)
        costs = fused_pair_costs(table, rows, ious, None, np.zeros((1, 3)), TrackerConfig())
        assert costs.tolist() == [1.0 - ious[0]]

    def test_featureless_track_is_neutral(self, rng):
        t = make_track()
        assert t.local_feature is None and not t.key_bank.entries
        assert gallery_costs([t], unit_vector(rng, 4)[None])[0, 0] == 0.0

    def test_clamped_for_opposed_features(self):
        t = make_track(local_feature=np.array([1.0, 0.0]))
        assert gallery_costs([t], np.array([[-1.0, 0.0]]))[0, 0] == 1.0

    def test_costs_vector_matches_scalar(self, rng):
        t = make_track(
            local_feature=unit_vector(rng, 8),
            bank_features=tuple(unit_vector(rng, 8) for _ in range(3)),
        )
        feats = np.stack([unit_vector(rng, 8) for _ in range(5)])
        expected = reference_appearance_cost_matrix([t], feats)[0]
        got = gallery_costs([t], feats)[0]
        for i in range(5):
            assert got[i] == pytest.approx(expected[i], abs=1e-12)

    def test_costs_featureless_track_all_zero(self, rng):
        t = make_track()
        feats = np.stack([unit_vector(rng, 8) for _ in range(4)])
        assert np.array_equal(appearance_cost_matrix([t], feats), np.zeros((1, 4)))
        assert np.array_equal(gallery_costs([t], feats), np.zeros((1, 4)))


class TestAppearanceCostMatrix:
    def test_rows_match_per_track_costs(self, rng):
        tracks = [
            make_track(track_id=1, local_feature=unit_vector(rng, 8)),
            make_track(track_id=2),  # no features at all
            make_track(
                track_id=3,
                local_feature=unit_vector(rng, 8),
                bank_features=tuple(unit_vector(rng, 8) for _ in range(4)),
            ),
            make_track(track_id=4, bank_features=(unit_vector(rng, 8),)),
        ]
        feats = np.stack([unit_vector(rng, 8) for _ in range(6)])
        block = appearance_cost_matrix(tracks, feats)
        assert block.shape == (4, 6)
        for j, t in enumerate(tracks):
            assert np.allclose(block[j], reference_appearance_cost_matrix([t], feats)[0],
                               atol=1e-12)
        assert np.array_equal(block[1], np.zeros(6))

    def test_equals_one_np_dot_per_gallery_row_and_feature(self, rng):
        # each similarity is a (1, D) @ (D, 1) product, so every cell equals
        # its one-vector np.dot bit for bit, whatever the block's shape
        tracks = [
            make_track(track_id=1, bank_features=tuple(
                unit_vector(rng, 16) for _ in range(3))),
            make_track(track_id=2),
            make_track(track_id=3, local_feature=unit_vector(rng, 16)),
            make_track(track_id=4, local_feature=unit_vector(rng, 16),
                       bank_features=tuple(unit_vector(rng, 16) for _ in range(5))),
        ]
        feats = np.stack([unit_vector(rng, 16) for _ in range(7)])
        expected = reference_appearance_cost_matrix(tracks, feats)
        assert np.array_equal(appearance_cost_matrix(tracks, feats), expected)
        for i in range(7):
            assert np.array_equal(appearance_cost_matrix(tracks, feats[i:i + 1]),
                                  expected[:, i:i + 1])

    def test_all_featureless_tracks_yield_zero_block(self, rng):
        tracks = [make_track(track_id=1), make_track(track_id=2)]
        feats = np.stack([unit_vector(rng, 8) for _ in range(3)])
        assert np.array_equal(appearance_cost_matrix(tracks, feats),
                              np.zeros((2, 3)))

    def test_empty_track_list(self, rng):
        feats = np.stack([unit_vector(rng, 8) for _ in range(3)])
        assert appearance_cost_matrix([], feats).shape == (0, 3)

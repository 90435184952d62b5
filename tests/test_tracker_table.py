"""The columnar Tracker against the per-track ReferenceTracker, frame by
frame and bit for bit; the table's batched pieces against their one-row
forms; and the per-frame counts the tracker reports."""

import math
import os
import sys

import numpy as np
import pytest

from conftest import (
    ReferenceTracker,
    reference_adaptive_alpha,
    reference_maybe_insert_key,
    track_table,
    unit_vector,
)
from drone_assoc import simulator as sim
from drone_assoc.appearance import (
    BankEntry,
    KeyFeatureBank,
    adaptive_alpha,
    adaptive_alphas,
    insert_keys,
    maybe_insert_key,
)
from drone_assoc.association import FrameStats, Tracker
from drone_assoc.core import FrameDetections, TrackerConfig
from drone_assoc.mot_io import RunConfig, parse_affines, parse_detections
from drone_assoc.motion import AffineTransform
from drone_assoc.pipeline import camera_source, track_frames

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# the TrackTable columns compared whole; the gallery is compared by slot
_WHOLE_COLUMNS = ("ids", "classes", "states", "hits", "lost_age", "last_frame",
                  "last_score", "means", "covs", "rotation", "has_local", "fill")


def assert_same_state(tracker: Tracker, ref: ReferenceTracker, frame: int) -> None:
    """The tracker's table against the reference tracks as a table, column
    by column and bit for bit. The local feature is compared only where
    has_local is set, and key-bank slots only below fill: slots past fill
    may hold stale rows, and a table has D = 0 until its first feature."""
    assert tracker.next_id == ref.next_id, frame
    got = tracker.tracks
    want = track_table(ref.tracks, tracker.config.key_bank_capacity)
    for name in _WHOLE_COLUMNS:
        assert same_bits(getattr(got, name), getattr(want, name)), (frame, name)
    for j in np.flatnonzero(want.has_local).tolist():
        assert same_bits(got.local[j], want.local[j]), (frame, want.ids[j])
    for j, n in enumerate(want.fill.tolist()):
        if n:
            assert same_bits(got.bank[j, :n], want.bank[j, :n]), (frame, want.ids[j])
            assert same_bits(got.last_used[j, :n], want.last_used[j, :n]), \
                (frame, want.ids[j])


def run_lockstep(config: TrackerConfig, stream) -> dict:
    """Feed both trackers the same frames; compare records, stage-1 IoUs
    and every track's state after each frame. Returns event counts seen
    along the way, so that callers can check what the stream exercised."""
    tracker, ref = Tracker(config), ReferenceTracker(config)
    events = {"spawned": 0, "removed": 0, "drop_and_append": 0, "empty": 0,
              "no_embeddings": 0}
    totals = {"gallery_rows": 0, "bank_inserts": 0, "bank_refreshes": 0}
    for fd, m in stream:
        # repr tells -0.0 from 0.0 and a numpy scalar from a plain value, as
        # the results writer does
        assert repr(tracker.associate_frame(fd, m)) == repr(ref.associate_frame(fd, m)), \
            fd.frame
        assert tracker.last_stats.stage1_ious == tuple(
            iou for frame, iou in ref.stage1_match_ious if frame == fd.frame), fd.frame
        assert_same_state(tracker, ref, fd.frame)
        stats = tracker.last_stats
        for key in totals:
            totals[key] += getattr(stats, key)
        events["spawned"] += stats.spawned
        events["removed"] += stats.removed
        # frames whose one table rebuild both drops and appends rows
        events["drop_and_append"] += stats.removed > 0 and stats.spawned > 0
        events["empty"] += len(fd) == 0
        events["no_embeddings"] += len(fd) > 0 and fd.embeddings is None
    assert totals == ref.stats
    events.update(ref.events)
    events["inserts"] = totals["bank_inserts"]
    events["refreshes"] = totals["bank_refreshes"]
    return events


def random_stream(seed: int, n_frames: int = 70, n_objects: int = 10, dim: int = 8,
                  drift: float = 0.6):
    """Frames of objects drifting across a 400 px field under a small random
    camera motion: misses, short disappearances, low and sub-threshold
    scores, false positives, shuffled rows, empty frames and frames without
    embeddings."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(30.0, 370.0, (n_objects, 2))
    vel = rng.normal(0.0, 1.5, (n_objects, 2))
    size = rng.uniform(15.0, 40.0, (n_objects, 2))
    cls = rng.integers(1, 3, n_objects)
    base = np.stack([unit_vector(rng, dim) for _ in range(n_objects)])
    hidden_until = np.zeros(n_objects, dtype=int)
    out = []
    for t in range(1, n_frames + 1):
        pos += vel
        if rng.random() < 0.3:
            m = AffineTransform(np.array([[1.0, -0.01, rng.normal(0, 2)],
                                          [0.01, 1.0, rng.normal(0, 2)]]))
        else:
            m = None
        if rng.random() < 0.06:
            out.append((FrameDetections(t), m))
            continue
        hidden_until[rng.random(n_objects) < 0.04] = t + int(rng.integers(2, 6))
        seen = (hidden_until < t) & (rng.random(n_objects) > 0.1)
        idx = np.flatnonzero(seen)
        boxes = np.column_stack([pos[idx] - size[idx] / 2 + rng.normal(0, 1.0, (idx.size, 2)),
                                 size[idx]])
        scores = np.where(rng.random(idx.size) < 0.8, rng.uniform(0.6, 1.0, idx.size),
                          rng.uniform(0.0, 0.6, idx.size))
        feats = base[idx] + drift * rng.normal(0.0, 1.0 / math.sqrt(dim), (idx.size, dim))
        n_fp = int(rng.integers(0, 3))
        boxes = np.vstack([boxes, np.column_stack([rng.uniform(0, 380, (n_fp, 2)),
                                                   rng.uniform(10, 30, (n_fp, 2))])])
        scores = np.concatenate([scores, rng.uniform(0.0, 0.9, n_fp)])
        classes = np.concatenate([cls[idx], rng.integers(1, 3, n_fp)])
        feats = np.vstack([feats, rng.normal(0.0, 1.0, (n_fp, dim))])
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        order = rng.permutation(scores.size)
        emb = None if rng.random() < 0.1 else feats[order]
        out.append((FrameDetections(t, boxes[order], scores[order], classes[order], emb), m))
    return out


CONFIGS = {
    "default": TrackerConfig(),
    "small-bank": TrackerConfig(key_bank_capacity=2, novelty_threshold=0.1),
    "one-slot": TrackerConfig(key_bank_capacity=1, novelty_threshold=0.05),
    "no-afs": TrackerConfig(use_afs=False),
    "no-appearance": TrackerConfig(w_a=0.0),
    "no-rotation": TrackerConfig(w_r=0.0),
    "no-dmp-short-memory": TrackerConfig(max_lost_age=2, confirm_hits=1),
    # every same-class pair is feasible: large contested blocks to solve
    "gate-zero": TrackerConfig(iou_gate=0.0),
}
# the configs run with DMP off, so the camera hands their trackers no motion
NO_DMP = {"no-dmp-short-memory"}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_lockstep_on_random_streams(name):
    config = CONFIGS[name]
    events = {}
    for seed in range(3):
        stream = random_stream(seed)
        if name in NO_DMP:
            stream = [(fd, None) for fd, _ in stream]
        for key, n in run_lockstep(config, stream).items():
            events[key] = events.get(key, 0) + n
    for key in ("reacquired", "spawned", "removed", "empty", "no_embeddings"):
        assert events[key] > 0, (key, events)
    if name == "default":
        assert events["drop_and_append"] > 0, events
    if config.use_afs:
        assert events["inserts"] > 0 and events["refreshes"] > 0, events
    if config.key_bank_capacity <= 2:
        assert events["evictions"] > 0, events


def test_lockstep_on_a_dense_simulated_scene(tmp_path):
    cfg = sim.ScenarioConfig(
        seed=5, n_objects=40, n_frames=60, world_extent=700.0,
        camera_script=(sim.hover(15), sim.translate(3.0, 1.0, 25), sim.rotate(0.02, 20)),
        detection_noise_sigma=1.5, miss_prob=0.1, false_positive_rate=3.0,
        embedding_dim=16,
        occlusion_events=(sim.OcclusionEvent(0, 10, 8), sim.OcclusionEvent(5, 20, 12)),
    )
    paths = sim.generate_scenario(cfg, str(tmp_path))
    frames = {fd.frame: fd for fd in parse_detections(
        paths.detections, embeddings_path=paths.embeddings, embedding_dim=16,
        min_score=0.1)}
    affines = parse_affines(paths.affines)
    stream = [(frames.get(t, FrameDetections(t)), affines.get(t))
              for t in range(1, cfg.n_frames + 1)]
    for config in (TrackerConfig(), TrackerConfig(key_bank_capacity=2, novelty_threshold=0.1)):
        events = run_lockstep(config, stream)
        assert events["reacquired"] > 0 and events["spawned"] > 0, events


def test_frames_of_other_embedding_width_are_refused_once_features_exist():
    tr = Tracker()
    tr.associate_frame(FrameDetections(1, [[0, 0, 10, 10]], [0.9], [1], np.eye(1, 4)), None)
    with pytest.raises(ValueError):
        tr.associate_frame(
            FrameDetections(2, [[0, 0, 10, 10]], [0.9], [1], np.eye(1, 8)), None)


def test_embedding_width_is_set_by_the_first_frame_that_has_embeddings():
    tr, ref = Tracker(), ReferenceTracker()
    first = FrameDetections(1, [[0, 0, 10, 10]], [0.9], [1])
    second = FrameDetections(2, [[1, 0, 10, 10], [200, 0, 10, 10]], [0.9, 0.9], [1, 1],
                             np.eye(2, 6))
    for fd in (first, second):
        assert tr.associate_frame(fd, None) == ref.associate_frame(fd, None)
        assert_same_state(tr, ref, fd.frame)


# -- batched pieces against their one-vector forms ------------------------------


def test_adaptive_alphas_use_math_exp(rng):
    scores = rng.uniform(0.6, 1.0, 20000).tolist()
    got = adaptive_alphas(scores, 0.6, 0.9)
    want = [reference_adaptive_alpha(s, 0.6, 0.9) for s in scores]
    assert got.tolist() == want
    assert [adaptive_alpha(s, 0.6, 0.9) for s in scores[:200]] == want[:200]


def close_pairs(rng, n, dim=128, k=4):
    """n banks of k entries and a probe close to one entry of each: cosine
    similarities in [0.5, 1), where 1 - s is exact, so a last-bit change in
    a similarity moves the novelty test at a threshold set from it."""
    banks = np.stack([[unit_vector(rng, dim) for _ in range(k)] for _ in range(n)])
    near = rng.integers(0, k, n)
    probes = banks[np.arange(n), near] + rng.normal(0.0, 0.5 / math.sqrt(dim), (n, dim))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    return banks, probes, near


def test_novelty_at_the_exact_threshold_refreshes(rng):
    """The threshold equals 1 - np.dot(closest entry, probe), so the probe is
    not novel and must refresh; a similarity rounded any other way flips
    some of these cases to an insert."""
    banks, probes, near = close_pairs(rng, 400)
    for bank_rows, probe, j in zip(banks, probes, near):
        threshold = 1.0 - float(np.dot(bank_rows[j], probe))
        bank = KeyFeatureBank(8, [BankEntry(f, 1) for f in bank_rows])
        maybe_insert_key(bank, probe, 2, threshold)
        assert len(bank.entries) == len(bank_rows)
        assert bank.entries[j].last_used == 2


def test_batched_novelty_test_matches_one_offer_at_a_time(rng):
    """insert_keys over many rows at once, at thresholds on the rounding
    edge, against the list-based bank one offer at a time."""
    n, k = 300, 4
    banks, probes, near = close_pairs(rng, n, k=k)
    thresholds = 1.0 - np.einsum("nd,nd->n", banks[np.arange(n), near], probes)
    for threshold in np.unique(np.round(thresholds[:40], 3)).tolist() + [0.25]:
        bank = np.zeros((n, 5, 128))
        bank[:, :k] = banks
        last_used = np.tile(np.arange(1, 6), (n, 1))
        fill = np.full(n, k)
        fill[::3] = 5  # full banks evict
        refs = []
        for r in range(n):
            ref = KeyFeatureBank(5, [BankEntry(bank[r, i].copy(), int(last_used[r, i]))
                                     for i in range(fill[r])])
            reference_maybe_insert_key(ref, probes[r], 9, threshold)
            refs.append(ref)
        insert_keys(bank, last_used, fill, np.arange(n), probes, 9, threshold)
        for r, ref in enumerate(refs):
            assert fill[r] == len(ref.entries)
            for i, e in enumerate(ref.entries):
                assert same_bits(bank[r, i], e.feature)
                assert last_used[r, i] == e.last_used


def test_refresh_tie_touches_the_first_of_equal_entries():
    e = np.array([1.0, 0.0, 0.0])
    bank = KeyFeatureBank(4, [BankEntry(np.array([0.0, 1.0, 0.0]), 1),
                              BankEntry(e.copy(), 2), BankEntry(e.copy(), 3)])
    maybe_insert_key(bank, e, 7, 0.25)
    assert [x.last_used for x in bank.entries] == [1, 7, 3]


# -- what the tracker reports ---------------------------------------------------


def test_last_stats_describe_the_frame():
    tr = Tracker()
    assert tr.last_stats is None
    emb = np.eye(3, 4)
    tr.associate_frame(FrameDetections(
        1, [[0, 0, 10, 10], [100, 0, 10, 10], [200, 0, 10, 10]], [0.9, 0.9, 0.9],
        [1, 1, 1], emb), None)
    assert tr.last_stats == FrameStats(1, 0, 0, 3, 0, 3, 0, 3, 0, ())
    # one stage-1 match (refresh), one stage-2 match, one miss
    tr.associate_frame(FrameDetections(
        2, [[0, 0, 10, 10], [100, 0, 10, 10]], [0.9, 0.3], [1, 1], emb[:2]), None)
    assert tr.last_stats == FrameStats(2, 1, 1, 0, 0, 3, 6, 0, 1, (1.0,))
    tr.associate_frame(FrameDetections(3), None)
    assert tr.last_stats == FrameStats(3, 0, 0, 0, 0, 3, 0, 0, 0, ())


@pytest.mark.parametrize("scene, counts", [
    ("crowd", {"gallery_rows": 168642, "bank_inserts": 279, "bank_refreshes": 60637}),
    ("standard", {"gallery_rows": 45749, "bank_inserts": 64, "bank_refreshes": 15139}),
])
def test_last_stats_totals_equal_the_traced_counts_of_one_benchmark_pass(
        tmp_path, scene, counts):
    """The benchmark's crowd-dense (sidecar) and standard-online (online
    RANSAC) sequences at seed 1901; the counts are what perfbench's trace
    counted around the per-track appearance functions."""
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    cfg = workloads.scenario(scene, "full", 1901)
    paths = sim.generate_scenario(cfg, str(tmp_path))
    frames = parse_detections(paths.detections, embeddings_path=paths.embeddings,
                              embedding_dim=cfg.embedding_dim, min_score=0.1)
    cfg = RunConfig(affines=paths.affines if scene == "crowd" else None)
    tracker = Tracker()
    totals = dict.fromkeys(counts, 0)
    for _ in track_frames(frames, camera_source(cfg), tracker):
        for key in totals:
            totals[key] += getattr(tracker.last_stats, key)
    assert totals == counts

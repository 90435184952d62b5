"""Assignment solver, gated pairs and their fused costs, lifecycle, and the
tracker."""

import gc
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import (
    STATE_CODES,
    TrackState,
    det,
    frame_detections,
    make_track,
    reference_appearance_cost_matrix,
    reference_fused_block,
    reference_gated_block,
    reference_lifecycle_step,
    track_table,
    unit_vector,
)
from drone_assoc import association
from drone_assoc.association import (
    CONFIRMED,
    LOST,
    REMOVED,
    TENTATIVE,
    AssignmentResult,
    FrameOrderError,
    Tracker,
    assign_pairs,
    fused_pair_costs,
    gated_pairs,
    lifecycle,
    linear_assignment,
)
from drone_assoc.core import BoundingBox, FrameDetections, TrackerConfig, iou_matrix
from drone_assoc.motion import BOX_BOUND, AffineTransform, rotation_cost


def brute_force_assignment(cost: np.ndarray) -> tuple[int, float]:
    """(match count, finite total) of the optimal one-to-one assignment.

    Optimality means fewest infeasible pairs first, then smallest finite sum,
    over all maximum-size injective row-column mappings.
    """
    n, m = cost.shape
    if n == 0 or m == 0:
        return 0, 0.0
    best = None
    if n <= m:
        for cols in itertools.permutations(range(m), n):
            pairs = [(r, cols[r]) for r in range(n)]
            bad = sum(1 for r, c in pairs if not np.isfinite(cost[r, c]))
            tot = sum(cost[r, c] for r, c in pairs if np.isfinite(cost[r, c]))
            if best is None or (bad, tot) < best:
                best = (bad, tot)
    else:
        for rows in itertools.permutations(range(n), m):
            pairs = [(rows[c], c) for c in range(m)]
            bad = sum(1 for r, c in pairs if not np.isfinite(cost[r, c]))
            tot = sum(cost[r, c] for r, c in pairs if np.isfinite(cost[r, c]))
            if best is None or (bad, tot) < best:
                best = (bad, tot)
    return min(n, m) - best[0], best[1]


def dense_assignment(cost: np.ndarray) -> np.ndarray:
    """(K, 2) matches of one solve of the whole block, infeasible cells
    lifted to 1e9 and the matches landing on them dropped."""
    rows, cols = linear_sum_assignment(np.where(np.isfinite(cost), cost, 1e9))
    ok = np.isfinite(cost[rows, cols])
    return np.column_stack([rows[ok], cols[ok]])


def feed(tracker, frame, detections, m=None):
    return tracker.associate_frame(frame_detections(frame, detections), m)


class TestLinearAssignment:
    def test_two_by_two(self):
        res = linear_assignment(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert sorted(res.matches.tolist()) == [[0, 0], [1, 1]]
        assert res.unmatched_rows.tolist() == [] and res.unmatched_cols.tolist() == []

    def test_rectangular_leaves_extra_columns(self):
        cost = np.array([[0.1, 0.9, 0.5], [0.9, 0.1, 0.5]])
        res = linear_assignment(cost)
        assert sorted(res.matches.tolist()) == [[0, 0], [1, 1]]
        assert res.unmatched_cols.tolist() == [2]

    def test_infeasible_entries_never_match(self):
        cost = np.array([[np.inf, 1.0], [np.inf, np.inf]])
        res = linear_assignment(cost)
        assert res.matches.tolist() == [[0, 1]]
        assert res.unmatched_rows.tolist() == [1]
        assert res.unmatched_cols.tolist() == [0]

    def test_result_holds_intp_arrays_in_solver_order(self):
        cost = np.array([[0.1, np.inf, 0.9], [0.9, 0.2, 0.1], [0.5, 0.5, np.inf]])
        res = linear_assignment(cost)
        assert res.matches.tolist() == [[0, 0], [1, 2], [2, 1]]
        assert res.unmatched_rows.tolist() == [] and res.unmatched_cols.tolist() == []
        for arr in (res.matches, res.unmatched_rows, res.unmatched_cols):
            assert arr.dtype == np.intp

    def test_all_infeasible(self):
        res = linear_assignment(np.full((3, 3), np.inf))
        assert res.matches.shape == (0, 2) and res.matches.dtype == np.intp
        assert res.unmatched_rows.tolist() == [0, 1, 2]
        assert res.unmatched_cols.tolist() == [0, 1, 2]

    def test_empty_shapes(self):
        res = linear_assignment(np.zeros((0, 4)))
        assert res.matches.shape == (0, 2) and res.unmatched_rows.tolist() == []
        assert res.unmatched_cols.tolist() == [0, 1, 2, 3]
        res = linear_assignment(np.zeros((2, 0)))
        assert res.matches.shape == (0, 2) and res.unmatched_cols.tolist() == []
        assert res.unmatched_rows.tolist() == [0, 1]
        for arr in (res.matches, res.unmatched_rows, res.unmatched_cols):
            assert arr.dtype == np.intp

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            linear_assignment(np.zeros(5))

    def test_matches_exhaustive_search(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            cost = rng.uniform(0.0, 1.0, (n, m))
            cost[rng.uniform(size=(n, m)) < 0.2] = np.inf
            res = linear_assignment(cost)
            count, total = brute_force_assignment(cost)
            matches = res.matches.tolist()
            assert len(matches) == count
            got = sum(cost[r, c] for r, c in matches)
            assert got == pytest.approx(total, abs=1e-9)
            assert len({r for r, _ in matches}) == len(matches)
            assert len({c for _, c in matches}) == len(matches)
            assert sorted([r for r, _ in matches] + res.unmatched_rows.tolist()) \
                == list(range(n))
            assert sorted([c for _, c in matches] + res.unmatched_cols.tolist()) \
                == list(range(m))

    def test_split_solve_equals_one_dense_solve(self, rng):
        # random gated blocks up to 40x40, 1% to 100% feasible, with
        # all-infeasible rows and columns; costs distinct on even trials,
        # drawn from three values on odd ones
        for trial in range(400):
            n, m = (int(k) for k in rng.integers(1, 41, 2))
            density = [0.01, 0.03, 0.1, 0.3, 0.6, 1.0][trial % 6]
            tied = trial % 2 == 1
            cost = (rng.choice([0.1, 0.4, 0.7], (n, m)) if tied
                    else rng.uniform(0.0, 1.0, (n, m)))
            cost[rng.uniform(size=(n, m)) >= density] = np.inf
            cost[rng.uniform(size=n) < 0.1] = np.inf
            cost[:, rng.uniform(size=m) < 0.1] = np.inf
            res = linear_assignment(cost)
            want = dense_assignment(cost)
            if tied:
                assert len(res.matches) == len(want)
                assert cost[tuple(res.matches.T)].sum() == \
                    pytest.approx(cost[tuple(want.T)].sum(), abs=1e-9)
            else:
                assert np.array_equal(res.matches, want)
            rows, cols = res.matches.T
            assert np.all(np.diff(rows) > 0) and np.unique(cols).size == cols.size
            assert np.isfinite(cost[rows, cols]).all()
            assert np.array_equal(np.sort(np.concatenate([rows, res.unmatched_rows])),
                                  np.arange(n))
            assert np.array_equal(np.sort(np.concatenate([cols, res.unmatched_cols])),
                                  np.arange(m))

    def test_isolated_pairs_are_matched_in_row_order_without_a_solve(self, monkeypatch):
        cost = np.full((5, 6), np.inf)
        pairs = [[0, 4], [1, 0], [3, 5], [4, 2]]
        for r, c in pairs:
            cost[r, c] = 0.25 * r

        def no_solve(_):
            raise AssertionError("isolated pairs need no solve")

        monkeypatch.setattr(association, "_shortest_augmenting_path", no_solve)
        res = linear_assignment(cost)
        assert res.matches.tolist() == pairs
        assert res.unmatched_rows.tolist() == [2]
        assert res.unmatched_cols.tolist() == [1, 3]


# small blocks, wide, tall, square and empty: distinct costs, ties among
# 0, 1 and 2, tenths (whose sums round, so only the same order of
# operations ties alike), constant blocks, and the 1e9 lift on some cells
_solver_block = st.tuples(
    st.integers(0, 8), st.integers(0, 8),
    st.sampled_from(["uniform", "tied", "tenths", "constant"]),
    st.floats(0.0, 0.5), st.integers(0, 2**32 - 1),
)


def _solver_cost(n, m, kind, lifted, seed) -> np.ndarray:
    g = np.random.default_rng(seed)
    if kind == "uniform":
        cost = g.uniform(0.0, 1.0, (n, m))
    elif kind == "tied":
        cost = g.integers(0, 3, (n, m)).astype(np.float64)
    elif kind == "tenths":
        cost = g.integers(0, 10, (n, m)) / 10
    else:
        cost = np.full((n, m), float(g.integers(0, 3)))
    cost[g.uniform(size=(n, m)) < lifted] = 1e9
    return cost


def _solver_outcome(solve, cost):
    """(rows, cols) as lists, or ValueError when the solver raised it."""
    try:
        rows, cols = solve(cost.copy())
    except ValueError:
        return ValueError
    return np.asarray(rows).tolist(), np.asarray(cols).tolist()


class TestSolverLockstep:
    """The in-package solver returns exactly what SciPy's
    linear_sum_assignment returns, ties included, and raises where it does."""

    @settings(max_examples=1000, deadline=None)
    @given(_solver_block)
    def test_matches_linear_sum_assignment(self, block):
        cost = _solver_cost(*block)
        want = _solver_outcome(linear_sum_assignment, cost)
        assert want is not ValueError
        assert _solver_outcome(association._shortest_augmenting_path, cost) == want

    @settings(max_examples=100, deadline=None)
    @given(_solver_block, st.sampled_from(["nan", "-inf", "infeasible"]))
    def test_raises_where_linear_sum_assignment_does(self, block, bad):
        n, m = max(block[0], 1), max(block[1], 1)
        cost = _solver_cost(n, m, *block[2:])
        if bad == "infeasible":
            # all +inf along the side that is matched in full: a row of a
            # wide or square block, a column of a tall one
            if n <= m:
                cost[n // 2] = np.inf
            else:
                cost[:, m // 2] = np.inf
        else:
            cost.flat[block[-1] % cost.size] = float(bad)
        assert _solver_outcome(linear_sum_assignment, cost) is ValueError
        assert _solver_outcome(association._shortest_augmenting_path, cost) is ValueError


def pair_block(shape, rows, cols, costs) -> np.ndarray:
    """The dense (N, M) block of pair costs, +inf where no pair is."""
    block = np.full(shape, np.inf)
    block[rows, cols] = costs
    return block


# boxes on a lattice: x = offset + unit * i and w = unit * j, so edges meet
# (x1 + w equals another x1) and left edges repeat; at a unit of 0.1 or 1/3,
# or near BOX_BOUND, x + w rounds. Some boxes move off the lattice by a
# fraction of a unit in x and in w, so edges also fall just inside or
# just outside another box.
_lattices = st.sampled_from([
    (0.0, 1.0), (0.0, 0.1), (0.0, 1 / 3), (0.0, BOX_BOUND / 64),
    (0.75 * BOX_BOUND, 3 * BOX_BOUND * 2.0 ** -53), (-0.75 * BOX_BOUND, BOX_BOUND * 2.0 ** -50),
])
_off_lattice = st.one_of(st.just(0.0), st.floats(0.0, 0.999))
_lattice_boxes = st.lists(st.tuples(st.integers(-20, 20), st.integers(-3, 3),
                                    st.integers(1, 12), st.integers(1, 4),
                                    st.integers(1, 2), _off_lattice, _off_lattice),
                          max_size=14)


def _lattice_block(offset, unit, cells):
    """(K, 4) boxes and (K,) classes of lattice cells (i, k, j, l, class,
    x shift, w shift)."""
    cells = np.array(cells, dtype=np.float64).reshape(-1, 7)
    boxes = np.column_stack([offset + unit * (cells[:, 0] + cells[:, 5]), unit * cells[:, 1],
                             unit * (cells[:, 2] + cells[:, 6]), unit * cells[:, 3]])
    return boxes, cells[:, 4].astype(np.int64)


# the smallest positive gate: every pair whose IoU is nonzero passes it
_TINIEST = float(np.nextafter(0.0, 1.0))


class TestGatedPairs:
    """gated_pairs lists exactly the finite cells of the dense gated block,
    in row-major order, each IoU bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(_lattices, _lattice_boxes, _lattice_boxes, st.booleans(),
           st.sampled_from([0.0, _TINIEST, 0.1, 0.5, 0.99]))
    def test_equals_the_dense_gated_block(self, lattice, tracks, dets, widest_left, gate):
        predicted, track_classes = _lattice_block(*lattice, tracks)
        boxes, det_classes = _lattice_block(*lattice, dets)
        if widest_left and len(boxes):
            # the widest detection is the leftmost one
            boxes[np.argmin(boxes[:, 0]), 2] = 3 * boxes[:, 2].max()
        rows, cols, ious = gated_pairs(track_classes, predicted, boxes, det_classes, gate)
        cost, dense = reference_gated_block(track_classes, predicted, boxes, det_classes, gate)
        want_rows, want_cols = np.nonzero(np.isfinite(cost))
        assert rows.tolist() == want_rows.tolist()
        assert cols.tolist() == want_cols.tolist()
        assert ious.tobytes() == dense[want_rows, want_cols].tobytes()
        assert rows.dtype == cols.dtype == np.intp and ious.dtype == np.float64

    @pytest.mark.parametrize("x, w", [
        (0.0, 10.0), (0.3, 0.7), (1 / 3, 0.1),
        (0.75 * BOX_BOUND, BOX_BOUND * 2.0 ** -40), (-0.5 * BOX_BOUND, 3 * BOX_BOUND * 2.0 ** -53),
    ])
    def test_overlaps_of_a_few_ulps_are_paired(self, x, w):
        # detections whose left edge lies a few ulps either side of the
        # track's right edge x + w, and the widest ones, whose right edge
        # left + W rounds to a few ulps either side of the track's left edge:
        # at the smallest positive gate every overlap, however thin, pairs
        def around(v):
            """v and the four floats on either side of it."""
            up, down = [v], [v]
            for _ in range(4):
                up.append(np.nextafter(up[-1], np.inf))
                down.append(np.nextafter(down[-1], -np.inf))
            return down[:0:-1] + up
        wide = 3 * w
        lefts = around(x + w) + around(x - wide)
        widths = [w / 2] * 9 + [wide] * 9
        boxes = np.array([[left, 0.0, width, 1.0] for left, width in zip(lefts, widths)])
        track = np.array([[x, 0.0, w, 1.0]])
        one, ones = np.ones(1, dtype=np.int64), np.ones(len(boxes), dtype=np.int64)
        rows, cols, ious = gated_pairs(one, track, boxes, ones, _TINIEST)
        cost, dense = reference_gated_block(one, track, boxes, ones, _TINIEST)
        want = np.flatnonzero(np.isfinite(cost[0]))
        assert cols.tolist() == want.tolist()
        assert ious.tobytes() == dense[0, want].tobytes()
        # both edges cut through the sweeps
        assert 0 < np.isin(want, range(9)).sum() < 9
        assert 0 < np.isin(want, range(9, 18)).sum() < 9

    def test_touching_boxes_are_not_paired(self):
        # x1 + w meets the other box's x1: zero overlap, so no pair above a
        # zero gate, and an IoU of 0 at a zero gate
        track = np.array([[0.0, 0.0, 10.0, 10.0]])
        boxes = np.array([[10.0, 0.0, 10.0, 10.0], [-5.0, 0.0, 5.0, 10.0],
                          [9.0, 0.0, 10.0, 10.0]])
        one, three = np.ones(1, dtype=np.int64), np.ones(3, dtype=np.int64)
        rows, cols, _ = gated_pairs(one, track, boxes, three, 1e-9)
        assert (rows.tolist(), cols.tolist()) == ([0], [2])
        rows, cols, ious = gated_pairs(one, track, boxes, three, 0.0)
        assert cols.tolist() == [0, 1, 2] and ious[:2].tolist() == [0.0, 0.0]

    def test_a_gate_of_zero_pairs_every_same_class_pair(self, rng):
        predicted = np.column_stack([rng.uniform(0, 1e4, (6, 2)), np.full((6, 2), 5.0)])
        boxes = np.column_stack([rng.uniform(0, 1e4, (7, 2)), np.full((7, 2), 5.0)])
        t_cls, d_cls = rng.integers(1, 3, 6), rng.integers(1, 3, 7)
        rows, cols, _ = gated_pairs(t_cls, predicted, boxes, d_cls, 0.0)
        assert list(zip(rows.tolist(), cols.tolist())) == [
            (j, i) for j in range(6) for i in range(7) if t_cls[j] == d_cls[i]]


# pairs of an (n, m) block: each cell present with a probability, with costs
# distinct, tied among 0, 1 and 2, or in tenths; some rows hold only +inf
# pairs, and some pairs are NaN or +inf
_pair_block = st.tuples(st.integers(0, 8), st.integers(0, 8), st.floats(0.0, 1.0),
                        st.sampled_from(["uniform", "tied", "tenths"]),
                        st.integers(0, 2**32 - 1))


class TestAssignPairs:
    @settings(max_examples=500, deadline=None)
    @given(_pair_block)
    def test_equals_linear_assignment_of_the_densified_block(self, block):
        n, m, density, kind, seed = block
        g = np.random.default_rng(seed)
        rows, cols = np.nonzero(g.uniform(size=(n, m)) < density)
        costs = {"uniform": lambda k: g.uniform(0.0, 1.0, k),
                 "tied": lambda k: g.integers(0, 3, k).astype(np.float64),
                 "tenths": lambda k: g.integers(0, 10, k) / 10}[kind](rows.size)
        costs[g.uniform(size=rows.size) < 0.1] = np.inf
        costs[g.uniform(size=rows.size) < 0.05] = np.nan
        dead = g.uniform(size=n) < 0.2  # rows whose every pair is infeasible
        costs[dead[rows]] = np.inf
        got = assign_pairs(n, m, rows, cols, costs)
        want = linear_assignment(pair_block((n, m), rows, cols, costs))
        for a, b in ((got.matches, want.matches), (got.unmatched_rows, want.unmatched_rows),
                     (got.unmatched_cols, want.unmatched_cols)):
            assert a.dtype == b.dtype == np.intp
            assert a.tolist() == b.tolist()
        assert not set(got.matches[:, 0].tolist()) & set(np.flatnonzero(dead).tolist())

    def test_no_pairs(self):
        empty = np.zeros(0, dtype=np.intp)
        res = assign_pairs(3, 2, empty, empty, np.zeros(0))
        assert res.matches.shape == (0, 2)
        assert res.unmatched_rows.tolist() == [0, 1, 2]
        assert res.unmatched_cols.tolist() == [0, 1]


def stage_one_cost(tracks, predicted, boxes, classes, emb, descriptors, cfg) -> np.ndarray:
    """The stage-1 costs of Track objects against detections whose
    descriptors are given as rows or None, from gated_pairs and
    fused_pair_costs, laid out as a dense block; it equals the dense
    reference block bit for bit."""
    desc = np.array([np.zeros(3) if d is None else d for d in descriptors]).reshape(-1, 3)
    table = track_table(tracks)
    rows, cols, ious = gated_pairs(table.classes, predicted, boxes, classes, cfg.iou_gate)
    costs = fused_pair_costs(table, rows, ious, None if emb is None else emb[cols],
                             desc[cols], cfg)
    block = pair_block((len(tracks), boxes.shape[0]), rows, cols, costs)
    gated, _ = reference_gated_block(table.classes, predicted, boxes, classes, cfg.iou_gate)
    want = reference_fused_block(table, gated, emb, desc, cfg)
    assert block.tobytes() == want.tobytes()
    return block


def columns(*dets):
    """The box, class and embedding blocks of a frame of detections."""
    fd = frame_detections(1, dets)
    return fd.boxes, fd.classes, fd.embeddings


class TestBuildCostMatrix:
    def make_inputs(self, emb_track, emb_det, desc_track, desc_det):
        track = make_track(bbox=BoundingBox(0.0, 0.0, 10.0, 10.0),
                           local_feature=emb_track, rotation=desc_track)
        d = det(0.0, 0.0, 10.0, 5.0, embedding=emb_det)
        predicted = np.array([[0.0, 0.0, 10.0, 10.0]])
        return [track], predicted, *columns(d), [desc_det]

    def test_fused_terms_add_up(self):
        e = np.array([1.0, 0.0, 0.0, 0.0])
        f = np.array([0.8, 0.6, 0.0, 0.0])
        desc = np.array([0.5, 0.8, 0.3])
        cost = stage_one_cost(
            *self.make_inputs(e, f, desc, desc.copy()), TrackerConfig()
        )
        # half-overlap box: IoU 0.5; appearance 1 - 0.8; identical descriptors
        assert cost[0, 0] == pytest.approx(0.5 + 0.5 * 0.2 + 0.1 * 0.0, abs=1e-12)

    def test_rotation_term_contributes(self):
        e = np.array([1.0, 0.0, 0.0, 0.0])
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        cost = stage_one_cost(
            *self.make_inputs(e, e.copy(), a, b), TrackerConfig()
        )
        assert cost[0, 0] == pytest.approx(0.5 + 0.0 + 0.1 * 1.0, abs=1e-12)

    def test_zero_norm_descriptor_is_neutral(self):
        e = np.array([1.0, 0.0, 0.0, 0.0])
        desc = np.array([0.5, 0.8, 0.3])
        for track_desc, det_desc in ((np.zeros(3), desc), (desc, np.zeros(3))):
            cost = stage_one_cost(
                *self.make_inputs(e, e.copy(), track_desc, det_desc),
                TrackerConfig(),
            )
            assert cost[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_missing_descriptor_is_neutral(self):
        e = np.array([1.0, 0.0, 0.0, 0.0])
        cost = stage_one_cost(
            *self.make_inputs(e, e.copy(), np.array([1.0, 0.0, 0.0]), None),
            TrackerConfig(),
        )
        assert cost[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_low_iou_is_infeasible(self):
        track = make_track(bbox=BoundingBox(0.0, 0.0, 10.0, 10.0))
        d = det(500.0, 500.0)
        cost = stage_one_cost(
            [track], np.array([[0.0, 0.0, 10.0, 10.0]]), *columns(d), [None],
            TrackerConfig(),
        )
        assert np.isinf(cost[0, 0])

    def test_class_mismatch_is_infeasible(self):
        track = make_track(bbox=BoundingBox(0.0, 0.0, 10.0, 10.0), class_id=1)
        d = det(0.0, 0.0, class_id=2)
        cost = stage_one_cost(
            [track], np.array([[0.0, 0.0, 10.0, 10.0]]), *columns(d), [None],
            TrackerConfig(),
        )
        assert np.isinf(cost[0, 0])

    def test_detection_without_embedding_skips_appearance(self, rng):
        track = make_track(bbox=BoundingBox(0.0, 0.0, 10.0, 10.0),
                           local_feature=np.array([1.0, 0.0]))
        # a frame's detections carry embeddings all or none
        with_emb = det(0.0, 0.0, 10.0, 5.0, embedding=np.array([0.0, 1.0]))
        without = det(0.0, 0.0, 10.0, 5.0)
        predicted = np.array([[0.0, 0.0, 10.0, 10.0]])
        cost = stage_one_cost([track], predicted, *columns(with_emb, with_emb),
                              [None, None], TrackerConfig())
        assert cost[0, 0] == pytest.approx(0.5 + 0.5 * 1.0, abs=1e-12)
        cost = stage_one_cost([track], predicted, *columns(without, without),
                              [None, None], TrackerConfig())
        assert cost[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_empty_inputs(self):
        cfg = TrackerConfig()
        assert stage_one_cost([], np.zeros((0, 4)), *columns(det(0, 0)), [None],
                              cfg).shape == (0, 1)
        t = make_track()
        assert stage_one_cost([t], np.zeros((1, 4)), *columns(), [], cfg).shape == (1, 0)

    @pytest.mark.parametrize("gate", [0.1, 0.0])
    def test_feasible_cells_equal_the_fused_cost_cell_by_cell(self, rng, gate):
        # at gate 0 every same-class pair is feasible: hundreds of cells, so
        # adding the terms in another order would round some differently
        cfg = TrackerConfig(iou_gate=gate)
        n, m = 24, 30
        predicted = np.column_stack([rng.uniform(0.0, 200.0, (n, 2)), np.full((n, 2), 20.0)])
        tracks = [make_track(
            track_id=j + 1, class_id=int(rng.integers(1, 3)),
            local_feature=None if j % 4 == 0 else unit_vector(rng, 8),
            bank_features=tuple(unit_vector(rng, 8) for _ in range(j % 3)),
            rotation=None if j % 5 == 0 else rng.uniform(0.1, 1.0, 3))
            for j in range(n)]
        boxes = predicted[rng.integers(0, n, m)]
        boxes[:, :2] += rng.normal(0.0, 4.0, (m, 2))
        classes = rng.integers(1, 3, m)
        emb = np.stack([unit_vector(rng, 8) for _ in range(m)])
        descriptors = rng.uniform(0.1, 1.0, (m, 3))
        descriptors[::4] = 0.0
        cost = stage_one_cost(tracks, predicted, boxes, classes, emb, list(descriptors), cfg)
        ious = iou_matrix(predicted, boxes)
        app = reference_appearance_cost_matrix(tracks, emb)
        feasible = 0
        for j, t in enumerate(tracks):
            for i in range(m):
                if ious[j, i] < cfg.iou_gate or t.class_id != classes[i]:
                    assert cost[j, i] == np.inf, (j, i)
                    continue
                want = ((1.0 - ious[j, i]) + cfg.w_a * app[j, i]
                        + cfg.w_r * rotation_cost(t.rotation, descriptors[i]))
                assert cost[j, i] == want, (j, i)
                feasible += 1
        assert 0 < feasible < cost.size

    def test_stage_two_ignores_features(self):
        track = make_track(bbox=BoundingBox(0.0, 0.0, 10.0, 10.0),
                           local_feature=np.array([1.0, 0.0]),
                           rotation=np.array([1.0, 0.0, 0.0]))
        d = det(0.0, 0.0, 10.0, 5.0, score=0.3, embedding=np.array([0.0, 1.0]))
        boxes, classes, _ = columns(d)
        rows, cols, ious = gated_pairs(np.array([track.class_id]),
                                       np.array([[0.0, 0.0, 10.0, 10.0]]),
                                       boxes, classes, TrackerConfig().iou_gate)
        assert (rows.tolist(), cols.tolist()) == ([0], [0])
        assert 1.0 - ious[0] == pytest.approx(0.5, abs=1e-12)


class TestLifecycleStep:
    cfg = TrackerConfig()

    def step(self, state, matched, hits=1, lost_age=0):
        """(state code, hits, lost age) of one track advanced by lifecycle
        as a one-row table, checked against reference_lifecycle_step."""
        t = make_track(state=state)
        t.consecutive_hits = hits
        t.lost_age = lost_age
        table = track_table([t])
        lifecycle(table.states, table.hits, table.lost_age, np.array([matched]), self.cfg)
        got = (int(table.states[0]), int(table.hits[0]), int(table.lost_age[0]))
        want = reference_lifecycle_step(t, matched, self.cfg)
        assert got == (STATE_CODES[want.state], want.consecutive_hits, want.lost_age)
        return got

    def test_tentative_needs_three_hits(self):
        state, hits, _ = self.step(TrackState.TENTATIVE, True, hits=1)
        assert (state, hits) == (TENTATIVE, 2)
        state, hits, _ = self.step(TrackState.TENTATIVE, True, hits=2)
        assert (state, hits) == (CONFIRMED, 3)

    def test_confirmed_stays_confirmed_on_match(self):
        state, hits, _ = self.step(TrackState.CONFIRMED, True, hits=5)
        assert (state, hits) == (CONFIRMED, 6)

    def test_lost_reconfirms_on_match(self):
        state, _, lost_age = self.step(TrackState.LOST, True, lost_age=7)
        assert (state, lost_age) == (CONFIRMED, 0)

    def test_tentative_dies_on_miss(self):
        state, hits, _ = self.step(TrackState.TENTATIVE, False, hits=2)
        assert (state, hits) == (REMOVED, 0)

    def test_confirmed_becomes_lost_on_miss(self):
        state, _, lost_age = self.step(TrackState.CONFIRMED, False, hits=9)
        assert (state, lost_age) == (LOST, 1)

    def test_lost_ages_until_removal(self):
        state, _, lost_age = self.step(TrackState.LOST, False,
                                       lost_age=self.cfg.max_lost_age - 1)
        assert (state, lost_age) == (LOST, self.cfg.max_lost_age)
        state, _, _ = self.step(TrackState.LOST, False, lost_age=self.cfg.max_lost_age)
        assert state == REMOVED

    def test_mixed_rows_advance_as_one_batch(self):
        tracks = []
        for state, matched, hits, lost_age in itertools.product(
                (TrackState.TENTATIVE, TrackState.CONFIRMED, TrackState.LOST),
                (True, False), (1, 2, 5), (0, 1, self.cfg.max_lost_age)):
            t = make_track(track_id=len(tracks) + 1, state=state)
            t.consecutive_hits, t.lost_age = hits, lost_age
            tracks.append((t, matched))
        table = track_table([t for t, _ in tracks])
        matched = np.array([m for _, m in tracks])
        lifecycle(table.states, table.hits, table.lost_age, matched, self.cfg)
        for j, (t, m) in enumerate(tracks):
            want = reference_lifecycle_step(t, m, self.cfg)
            assert (table.states[j], table.hits[j], table.lost_age[j]) == \
                (STATE_CODES[want.state], want.consecutive_hits, want.lost_age)


class BasisEmbeddings:
    """Deterministic orthonormal embeddings, one per call index."""

    def __init__(self, dim=16):
        self.eye = np.eye(dim)
        self.k = 0

    def __call__(self):
        f = self.eye[self.k % self.eye.shape[0]]
        self.k += 1
        return f


class TestTracker:
    def test_first_frame_spawns_confirmed_and_emits(self):
        tr = Tracker()
        recs = feed(tr, 1, [det(0, 0), det(100, 100)])
        assert len(recs) == 2
        assert all(type(r) is tuple and r[0] == 1 for r in recs)
        assert tr.tracks.states.tolist() == [CONFIRMED, CONFIRMED]

    def test_later_spawns_are_tentative_until_three_hits(self):
        tr = Tracker()
        feed(tr, 1, [det(0, 0)])
        recs2 = feed(tr, 2, [det(0, 0), det(200, 200)])
        assert [r[1] for r in recs2] == [1]  # newcomer not emitted yet
        recs3 = feed(tr, 3, [det(0, 0), det(200, 200)])
        assert [r[1] for r in recs3] == [1]
        recs4 = feed(tr, 4, [det(0, 0), det(200, 200)])
        assert sorted(r[1] for r in recs4) == [1, 2]

    def test_low_scores_never_spawn(self):
        tr = Tracker()
        recs = feed(tr, 1, [det(0, 0, score=0.3)])
        assert recs == [] and len(tr.tracks) == 0

    def test_below_theta_low_is_discarded(self):
        tr = Tracker()
        feed(tr, 1, [det(0, 0)])
        # an overlapping sub-threshold detection cannot even continue a track
        feed(tr, 2, [det(0, 0, score=0.05)])
        assert tr.tracks.states[0] == LOST

    def test_stage_two_continues_confirmed_track_on_low_score(self):
        tr = Tracker()
        feed(tr, 1, [det(0, 0)])
        recs = feed(tr, 2, [det(1, 0, score=0.3)])
        assert len(recs) == 1
        _, track_id, *_, score, _ = recs[0]
        assert track_id == 1
        assert score == pytest.approx(0.3)
        assert tr.tracks.states[0] == CONFIRMED

    def test_lost_tracks_sit_out_stage_two(self):
        tr = Tracker()
        feed(tr, 1, [det(0, 0)])
        feed(tr, 2, [])
        assert tr.tracks.states[0] == LOST
        recs = feed(tr, 3, [det(0, 0, score=0.3)])
        assert recs == []
        assert (tr.tracks.states[0], tr.tracks.lost_age[0]) == (LOST, 2)

    def test_lost_track_reacquired_in_stage_one_keeps_id(self):
        emb = BasisEmbeddings()
        tr = Tracker()
        feed(tr, 1, [det(0, 0, embedding=emb())])
        feed(tr, 2, [])
        assert tr.tracks.states[0] == LOST
        bank_before = tr.tracks.fill[0]
        feed(tr, 3, [det(0, 0, embedding=emb())])
        assert (tr.tracks.states[0], tr.tracks.ids[0]) == (CONFIRMED, 1)
        # novel feature, but the bank is frozen on the re-acquisition frame
        assert tr.tracks.fill[0] == bank_before
        feed(tr, 4, [det(0, 0, embedding=emb())])
        assert tr.tracks.fill[0] == bank_before + 1

    def test_class_mismatch_spawns_a_second_track(self):
        tr = Tracker()
        feed(tr, 1, [det(0, 0, class_id=1)])
        feed(tr, 2, [det(0, 0, class_id=2)])
        classes = dict(zip(tr.tracks.ids.tolist(), tr.tracks.classes.tolist()))
        assert classes == {1: 1, 2: 2}

    def test_track_ids_grow_monotonically(self):
        tr = Tracker()
        feed(tr, 1, [det(0, 0), det(300, 0), det(0, 300)])
        feed(tr, 2, [det(600, 600)])
        assert tr.tracks.ids.tolist() == [1, 2, 3, 4]

    def test_out_of_order_frames_rejected(self):
        tr = Tracker()
        feed(tr, 5, [det(0, 0)])
        with pytest.raises(FrameOrderError):
            feed(tr, 5, [det(0, 0)])
        with pytest.raises(FrameOrderError):
            feed(tr, 4, [det(0, 0)])

    def test_disabling_feature_sync_freezes_bank(self):
        emb = BasisEmbeddings()
        tr = Tracker(TrackerConfig(use_afs=False))
        for frame in range(1, 5):
            feed(tr, frame, [det(0, 0, embedding=emb())])
        assert tr.tracks.fill[0] == 0
        assert tr.tracks.has_local[0]

    def test_zero_rotation_weight_skips_descriptors(self):
        tr = Tracker(TrackerConfig(w_r=0.0))
        feed(tr, 1, [det(0, 0), det(30, 0), det(0, 40)])
        assert len(tr.tracks) == 3 and not tr.tracks.rotation.any()

    def test_descriptors_recorded_with_rotation_enabled(self):
        tr = Tracker()
        feed(tr, 1, [det(0, 0), det(30, 0), det(0, 40)])
        assert len(tr.tracks) == 3 and tr.tracks.rotation.any(axis=1).all()

    def test_camera_shift_compensation_recovers_match(self):
        """A jump that breaks the IoU gate is healed by the matching warp."""
        shift = AffineTransform(np.array([[1.0, 0.0, 30.0], [0.0, 1.0, 0.0]]))
        tr_warp = Tracker()
        tr_none = Tracker()
        for tr in (tr_warp, tr_none):
            feed(tr, 1, [det(0, 0)])
        feed(tr_warp, 2, [det(30, 0)], shift)
        feed(tr_none, 2, [det(30, 0)], None)
        assert (tr_warp.tracks.states[0], tr_warp.tracks.last_frame[0]) == (CONFIRMED, 2)
        assert len(tr_warp.tracks) == 1
        # without compensation the same detection founds a new track
        assert tr_none.tracks.states[0] == LOST
        assert len(tr_none.tracks) == 2

    def test_removed_tracks_leave_the_pool(self):
        tr = Tracker(TrackerConfig(max_lost_age=2))
        feed(tr, 1, [det(0, 0)])
        for frame in range(2, 6):
            feed(tr, frame, [])
        assert len(tr.tracks) == 0

    def test_records_report_posterior_boxes(self):
        tr = Tracker()
        feed(tr, 1, [det(0, 0)])
        recs = feed(tr, 2, [det(6, 0)])
        # the reported center sits between prediction (0 velocity) and the
        # measured box, pulled strongly toward the measurement
        _, _, x, _, w, *_ = recs[0]
        assert 5.0 < x + w / 2.0 <= 11.0

    def test_non_finite_posterior_box_raises(self):
        # a finite but huge box overflows the new filter's covariance, so the
        # frame that founds its track raises, and the track is never added
        tr = Tracker()
        fd = [FrameDetections(f, [[0.0, 0.0, 1.0, 1e160]], [0.9], [1]) for f in (1, 2)]
        with np.errstate(over="ignore", invalid="ignore"):
            for frame in fd:
                with pytest.raises(ValueError, match="track 1 must be finite"):
                    tr.associate_frame(frame, None)
        assert (len(tr.tracks), tr.last_frame, tr.next_id) == (0, 0, 1)

    def test_a_frame_that_raises_leaves_the_tracker_as_it_was(self):
        # frame 1 founds track 1; frames 2-5 also hold a box whose filter
        # overflows, so each raises before any write, and frame 6 matches
        # track 1 as if frames 2-5 had never arrived
        tr = Tracker()
        assert len(feed(tr, 1, [det(50, 50, 5, 5)])) == 1
        before = tracker_state(tr)
        with np.errstate(over="ignore", invalid="ignore"):
            for frame in range(2, 6):
                fd = FrameDetections(frame, [[0, 0, 1, 1e160], [50, 50, 5, 5]],
                                     [0.9, 0.9], [1, 1])
                with pytest.raises(ValueError, match="track 2 must be finite"):
                    tr.associate_frame(fd, None)
                assert_same_state(tracker_state(tr), before)
        (rec,) = feed(tr, 6, [det(50, 50, 5, 5)])
        assert rec[1] == 1
        assert (tr.last_frame, tr.next_id, tr.tracks.hits[0]) == (6, 2, 2)

    def test_a_blend_that_cancels_keeps_the_previous_feature(self):
        # at a fixed weight of 0.5, frame 2's embedding cancels track 1's
        # local feature: the blend has no direction, so the frame commits,
        # emits track 1 and leaves its feature at [1, 0], and frame 3's
        # blend starts from it
        tr = Tracker(TrackerConfig(alpha_f=0.5, use_afs=False))
        box = [[0.0, 0.0, 10.0, 10.0]]
        tr.associate_frame(FrameDetections(1, box, [0.9], [1], [[1.0, 0.0]]), None)
        (rec,) = tr.associate_frame(FrameDetections(2, box, [0.9], [1], [[-1.0, 0.0]]), None)
        assert rec[1] == 1
        assert (tr.last_frame, tr.next_id, tr.tracks.hits[0]) == (2, 2, 2)
        assert tr.tracks.has_local[0] and tr.tracks.local[0].tolist() == [1.0, 0.0]
        (rec,) = tr.associate_frame(FrameDetections(3, box, [0.9], [1], [[0.0, 1.0]]), None)
        assert rec[1] == 1
        assert (tr.last_frame, tr.next_id, tr.tracks.hits[0]) == (3, 2, 3)
        assert np.allclose(tr.tracks.local[0], [0.5 ** 0.5, 0.5 ** 0.5])

    def test_embeddings_are_normalized_as_the_tracker_reads_them(self):
        # rows of any length go in; the stored feature is the unit row, and
        # the caller's rows are not scaled
        tr = Tracker()
        rows = np.array([[3.0, 4.0], [0.0, 0.5]])
        fd = FrameDetections(1, [[0.0, 0.0, 10.0, 10.0], [50.0, 0.0, 10.0, 10.0]],
                             [0.9, 0.9], [1, 1], rows)
        tr.associate_frame(fd, None)
        assert tr.tracks.local.tolist() == [[0.6, 0.8], [0.0, 1.0]]
        assert tr.tracks.local.dtype == np.float64
        assert fd.embeddings.tolist() == [[3.0, 4.0], [0.0, 0.5]]

    def test_a_zero_length_embedding_refuses_its_frame(self):
        # frame 2's second row has no direction: the frame raises before any
        # write; below theta_low the same row is dropped unread, and the frame
        # commits
        tr = Tracker()
        boxes = [[0.0, 0.0, 10.0, 10.0], [50.0, 0.0, 10.0, 10.0]]
        tr.associate_frame(FrameDetections(1, boxes, [0.9, 0.9], [1, 1],
                                           [[1.0, 0.0], [0.0, 1.0]]), None)
        before = tracker_state(tr)
        zero = [[1.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ValueError, match="frame 2: detection 1: .*zero-length"):
            tr.associate_frame(FrameDetections(2, boxes, [0.9, 0.9], [1, 1], zero), None)
        assert_same_state(tracker_state(tr), before)
        records = tr.associate_frame(FrameDetections(2, boxes, [0.9, 0.05], [1, 1], zero), None)
        assert [r[1] for r in records] == [1]
        assert tr.last_frame == 2

    def test_a_zero_length_embedding_on_a_low_row_commits(self):
        # stage 2 matches on IoU alone, so a row scored 0.3 is never read
        # for its embedding: a zero row there gives the records and the
        # table of a unit row in its place
        boxes = [[0.0, 0.0, 10.0, 10.0], [50.0, 0.0, 10.0, 10.0]]
        first = FrameDetections(1, boxes, [0.9, 0.9], [1, 1], [[1.0, 0.0], [0.0, 1.0]])
        out = []
        for row in ([0.0, 0.0], [0.0, 1.0]):
            tr = Tracker()
            tr.associate_frame(first, None)
            fd = FrameDetections(2, [[1.0, 0.0, 10.0, 10.0], [51.0, 0.0, 10.0, 10.0]],
                                 [0.9, 0.3], [1, 1], [[1.0, 0.0], row])
            out.append((tr.associate_frame(fd, None), tracker_state(tr)))
        (zero, zero_state), (unit, unit_state) = out
        assert [r[1] for r in zero] == [1, 2]
        assert repr(zero) == repr(unit)
        assert_same_state(zero_state, unit_state)

    def test_a_zero_length_embedding_on_a_high_row_names_its_file_index(self):
        # a dropped row and a low row come first in the file: the error
        # names the zero row by its place in the file, and the frame writes
        # nothing
        tr = Tracker()
        boxes = [[0.0, 0.0, 10.0, 10.0], [50.0, 0.0, 10.0, 10.0], [90.0, 0.0, 10.0, 10.0]]
        tr.associate_frame(FrameDetections(1, boxes, [0.9] * 3, [1] * 3, np.eye(3)), None)
        before = tracker_state(tr)
        rows = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
        with pytest.raises(ValueError, match="frame 2: detection 2: .*zero-length"):
            tr.associate_frame(FrameDetections(2, boxes, [0.05, 0.3, 0.9], [1] * 3, rows),
                               None)
        assert_same_state(tracker_state(tr), before)

    def test_records_are_plain_tuples_the_collector_drops(self):
        # a tuple of ints and floats is untracked by the first collection
        # that sees it, so a pass's records add nothing to later collections
        tr = Tracker()
        records = []
        for frame in range(1, 41):
            fd = FrameDetections(frame, [[30.0 * k + frame, 20.0 * k, 10.0, 10.0]
                                         for k in range(12)], [0.9] * 12, [1] * 12)
            records += tr.associate_frame(fd, None)
        assert len(records) == 12 * 40
        assert all(type(r) is tuple for r in records)
        gc.collect()
        assert not any(gc.is_tracked(r) for r in records)
        held = len(gc.get_objects())
        del records
        gc.collect()
        assert held - len(gc.get_objects()) <= 1  # the list that held them

    def test_a_singular_filter_refuses_its_frame(self):
        # at iou_gate = 0 the 1e-200 box's track matches its next box, and
        # its innovation covariance rounds to singular: the frame raises,
        # naming the track, before any write
        tr = Tracker(TrackerConfig(iou_gate=0.0))
        fd = [FrameDetections(f, [[0.0, 0.0, 1e-200, 1e-200], [50.0, 50.0, 5.0, 5.0]],
                              [0.9, 0.9], [1, 1]) for f in (1, 2)]
        assert len(tr.associate_frame(fd[0], None)) == 2
        before = tracker_state(tr)
        with pytest.raises(ValueError, match="frame 2: the filter of track 1 is singular"):
            tr.associate_frame(fd[1], None)
        assert_same_state(tracker_state(tr), before)


def tracker_state(tr: Tracker) -> tuple:
    """Copies of every TrackTable column, last_frame and next_id."""
    columns = {name: getattr(tr.tracks, name).copy()
               for name in association.TrackTable._COLUMNS}
    return columns, tr.last_frame, tr.next_id


def assert_same_state(got: tuple, want: tuple) -> None:
    assert got[1:] == want[1:]
    for name, column in want[0].items():
        assert got[0][name].shape == column.shape, name
        assert got[0][name].tobytes() == column.tobytes(), name


# boxes up to 1e200 across: the largest overflow the filters
_magnitude = st.floats(1e-3, 1e200, allow_nan=False, allow_infinity=False)
_box = st.tuples(st.floats(-1e200, 1e200, allow_nan=False, allow_infinity=False),
                 st.floats(-1e200, 1e200, allow_nan=False, allow_infinity=False),
                 _magnitude, _magnitude)
_direction = st.lists(st.floats(-1, 1, allow_nan=False), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 0.1)
_detection = st.tuples(_box, st.floats(0, 1), _direction)
_affine = st.tuples(st.floats(-0.5, 0.5), st.floats(0.5, 2.0),
                    st.floats(-50, 50), st.floats(-50, 50))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.lists(_detection, max_size=4), st.none() | _affine),
                min_size=1, max_size=5),
       st.booleans())
def test_each_frame_returns_finite_rows_or_changes_nothing(stream, with_embeddings):
    tr = Tracker()
    for frame, (dets, affine) in enumerate(stream, start=1):
        emb = np.array([d[2] for d in dets]).reshape(-1, 3)
        fd = FrameDetections(frame, [d[0] for d in dets], [d[1] for d in dets],
                             [1] * len(dets),
                             emb / np.linalg.norm(emb, axis=1, keepdims=True)
                             if with_embeddings else None)
        m = None
        if affine is not None:
            angle, scale, tx, ty = affine
            c, s = scale * np.cos(angle), scale * np.sin(angle)
            m = AffineTransform(np.array([[c, -s, tx], [s, c, ty]]))
        before = tracker_state(tr)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                records = tr.associate_frame(fd, m)
            except ValueError as e:
                assert "must be finite" in str(e)
                assert_same_state(tracker_state(tr), before)
                continue
        assert np.isfinite(np.array([r[2:7] for r in records]).reshape(-1, 5)).all()
        assert tr.last_frame == frame

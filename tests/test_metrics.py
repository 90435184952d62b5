"""CLEAR and identity measures against hand-computed micro-sequences."""

import itertools

import numpy as np
import pytest

from conftest import by_frame, mot_table, reference_clear_mot, reference_id_measures
from drone_assoc import metrics
from drone_assoc.core import BoundingBox, iou_matrix
from drone_assoc.metrics import (
    EvaluationError,
    clear_mot,
    evaluate,
    id_measures,
    report_csv,
    report_table,
)
from drone_assoc.mot_io import MotLine, MotTable
from drone_assoc.motion import BOX_BOUND


def row(frame, obj_id, x, y=0.0, w=10.0, h=10.0):
    return MotLine(frame, obj_id, BoundingBox(x, y, w, h), 1.0, 1)


def straight_run(obj_id, x0, frames, step=2.0):
    return [row(f, obj_id, x0 + step * (f - 1)) for f in range(1, frames + 1)]


class TestClearMot:
    def test_perfect_self_evaluation(self):
        gt = straight_run(1, 0.0, 10) + straight_run(2, 100.0, 10)
        out = clear_mot(mot_table(gt), mot_table(gt))
        assert out["mota"] == 1.0
        assert out["motp"] == 1.0
        assert out["fp"] == 0 and out["fn"] == 0 and out["id_switches"] == 0
        assert out["mt"] == 2 and out["ml"] == 0

    def test_one_missed_frame_counts_one_fn(self):
        gt = straight_run(1, 0.0, 10)
        results = [ln for ln in gt if ln.frame != 5]
        out = clear_mot(mot_table(gt), mot_table(results))
        assert out["fn"] == 1 and out["fp"] == 0 and out["id_switches"] == 0
        assert out["mota"] == pytest.approx(1.0 - 1.0 / 10.0)

    def test_spurious_result_counts_one_fp(self):
        gt = straight_run(1, 0.0, 10)
        results = list(gt) + [row(4, 9, 500.0)]
        out = clear_mot(mot_table(gt), mot_table(results))
        assert out["fp"] == 1 and out["fn"] == 0
        assert out["mota"] == pytest.approx(0.9)

    def test_id_swap_costs_two_switches(self):
        gt = straight_run(1, 0.0, 10) + straight_run(2, 100.0, 10)
        results = []
        for ln in gt:
            if ln.frame >= 6:  # the two result ids trade places mid-run
                ln = MotLine(ln.frame, 3 - ln.obj_id, ln.bbox, ln.score, ln.class_id)
            results.append(ln)
        out = clear_mot(mot_table(gt), mot_table(results))
        assert out["id_switches"] == 2
        assert out["fp"] == 0 and out["fn"] == 0
        assert out["mota"] == pytest.approx(1.0 - 2.0 / 20.0)
        assert out["motp"] == 1.0

    def test_carryover_beats_fresh_better_overlap(self):
        """An existing pair above the threshold survives even when a new
        result box overlaps the ground truth more."""
        gt = [row(1, 1, 0.0), row(2, 1, 0.0)]
        results = [
            row(1, 7, 3.0),              # IoU 0.538 with gt, matches frame 1
            row(2, 7, 3.0),              # still above threshold: kept
            row(2, 8, 0.0),              # perfect overlap, but arrives second
        ]
        out = clear_mot(mot_table(gt), mot_table(results))
        assert out["id_switches"] == 0
        assert out["fp"] == 1  # the perfect newcomer ends up unmatched
        assert out["fn"] == 0

    def test_fresh_assignment_after_carryover_breaks(self):
        gt = [row(1, 1, 0.0), row(2, 1, 0.0)]
        results = [row(1, 7, 3.0), row(2, 7, 300.0), row(2, 8, 0.0)]
        out = clear_mot(mot_table(gt), mot_table(results))
        # id 7 walked away, id 8 takes over: one switch, one floating fp
        assert out["id_switches"] == 1
        assert out["fp"] == 1
        assert out["fn"] == 0

    def test_repeated_result_id_carries_over_its_first_row(self):
        """A result id given twice in a frame resolves to its first row, as
        a list lookup would: that row misses, so the carry-over breaks."""
        gt = [row(1, 1, 0.0), row(2, 1, 0.0)]
        results = [
            row(1, 7, 0.0),
            row(2, 7, 100.0),            # first row of id 7: no overlap
            row(2, 7, 3.0),              # second row would carry over
            row(2, 8, 0.0),
        ]
        out = clear_mot(mot_table(gt), mot_table(results))
        assert out["id_switches"] == 1
        assert out["fp"] == 2
        assert out["fn"] == 0

    def test_mostly_tracked_and_lost_thresholds(self):
        gt = straight_run(1, 0.0, 10) + straight_run(2, 100.0, 10) \
            + straight_run(3, 200.0, 10)
        results = [ln for ln in gt if not (ln.obj_id == 1 and ln.frame > 9)]
        results = [ln for ln in results if not (ln.obj_id == 2 and ln.frame > 2)]
        results = [ln for ln in results if not (ln.obj_id == 3 and ln.frame > 5)]
        out = clear_mot(mot_table(gt), mot_table(results))
        cov = out["coverage"]
        assert cov[1] == pytest.approx(0.9) and cov[2] == pytest.approx(0.2)
        assert cov[3] == pytest.approx(0.5)
        assert out["mt"] == 1  # only the 90% run
        assert out["ml"] == 1  # only the 20% run

    def test_empty_ground_truth_raises(self):
        with pytest.raises(EvaluationError):
            clear_mot(mot_table([]), mot_table([row(1, 1, 0.0)]))

    def test_empty_results_lose_everything(self):
        gt = straight_run(1, 0.0, 10)
        out = clear_mot(mot_table(gt), mot_table([]))
        assert out["fn"] == 10 and out["mota"] == 0.0 and out["ml"] == 1

    def test_below_threshold_overlap_never_matches(self):
        gt = [row(1, 1, 0.0)]
        out = clear_mot(mot_table(gt), mot_table([row(1, 9, 8.0)]), iou_threshold=0.5)
        # IoU 2/18 = 0.111: both sides go unmatched
        assert out["fp"] == 1 and out["fn"] == 1


def same_clear(got: dict, want: dict) -> bool:
    """Equal counts, equal coverage in the same key order, and rates equal
    bit for bit."""
    return (got == want and list(got["coverage"]) == list(want["coverage"])
            and repr(got["motp"]) == repr(want["motp"]))


def grid_sequence(rng, n_frames=40, n_gt=8):
    """Ground truth and results on a 5 px grid with 10x10 and 10x20 boxes, so
    many IoUs land exactly on 0.5 and other exact fractions. Results jitter,
    drop out and come back, swap and reuse ids, repeat an id within a frame
    and add strays."""
    pos = rng.integers(0, 40, (n_gt, 2)) * 5.0
    gt, res = [], []
    owner = np.arange(n_gt) + 100
    for f in range(1, n_frames + 1):
        pos += rng.integers(-1, 2, (n_gt, 2)) * 5.0
        if rng.random() < 0.15:
            i, j = rng.choice(n_gt, 2, replace=False)
            owner[[i, j]] = owner[[j, i]]
        for g in range(n_gt):
            if rng.random() < 0.1:
                continue  # the object leaves this frame
            x, y = pos[g]
            gt.append(MotLine(f, g + 1, BoundingBox(x, y, 10.0, 10.0), 1.0, 1))
            if rng.random() < 0.15:
                continue  # the tracker misses it
            dx, dy = rng.integers(-1, 2, 2) * 5.0
            w, h = (10.0, 20.0) if rng.random() < 0.3 else (10.0, 10.0)
            r = int(owner[g]) if rng.random() > 0.05 else int(rng.integers(100, 100 + n_gt))
            res.append(MotLine(f, r, BoundingBox(x + dx, y + dy, w, h), 1.0, 1))
            if rng.random() < 0.05:  # the same id again, elsewhere or on top
                res.append(MotLine(f, r, BoundingBox(x, y + dy, 10.0, 10.0), 1.0, 1))
        for _ in range(int(rng.integers(0, 2))):
            x, y = rng.integers(0, 40, 2) * 5.0
            res.append(MotLine(f, int(rng.integers(100, 120)),
                               BoundingBox(x, y, 10.0, 10.0), 1.0, 1))
    # ground truth with a frame of its own at the end, results past it
    gt.append(MotLine(n_frames + 1, 1, BoundingBox(0.0, 0.0, 10.0, 10.0), 1.0, 1))
    res.append(MotLine(n_frames + 2, 100, BoundingBox(0.0, 0.0, 10.0, 10.0), 1.0, 1))
    order = rng.permutation(len(res))
    return mot_table(gt), mot_table([res[i] for i in order])


def _with_rows(table, rows) -> MotTable:
    return MotTable(np.concatenate([table.rows, rows]))


def _near_box_bound(rng, gt, res):
    """The grid scaled and moved to 0.75 BOX_BOUND, where x + w rounds."""
    scale = BOX_BOUND * 2.0 ** -40
    out = []
    for table in (gt, res):
        rows = table.rows.copy()
        rows[:, 2:6] *= scale
        rows[:, 2:4] += 0.75 * BOX_BOUND
        out.append(MotTable(rows))
    return tuple(out)


def _widest_leftmost(rng, gt, res):
    """Each frame gains a result box three cells wide, leftmost in its
    frame, so the widest box sets every window; the grid itself makes edges
    touch at IoU 0."""
    frames = np.unique(res.frames)
    extra = np.zeros((frames.shape[0], 9))
    extra[:, 0] = frames
    extra[:, 1] = 150
    extra[:, 2] = [res.rows[res.frames == f, 2].min() - 5.0 for f in frames]
    extra[:, 3] = rng.integers(0, 40, frames.shape[0]) * 5.0
    extra[:, 4:6] = (30.0, 10.0)
    extra[:, 6:] = 1.0
    return gt, _with_rows(res, extra)


def _gaps_and_one_sided(rng, gt, res):
    """Frame numbers with gaps, the later ones past 2^53, and a frame of
    each side alone mid-sequence."""
    out = []
    for table, alone in ((gt, 7), (res, 12)):
        rows = table.rows[table.frames != alone].copy()
        f = rows[:, 0]
        rows[:, 0] = np.where(f < 20, 3 * f, 2.0 ** 60 + 256 * f)
        out.append(MotTable(rows))
    return tuple(out)


def _repeated_ids(rng, gt, res):
    """Ids repeated within a frame. Some rows come again a cell off, beside
    the contested frames of the grid. Some frames hold a copy of themselves
    about 1000 px to the right, results 1 px further than gt, whose pairs
    are as isolated as the originals: the copy repeats the gt ids and the
    result ids, or the gt ids alone while the original results take new
    ids, or the result ids alone."""
    g_extra, r_extra = [], []
    for table, extra in ((gt, g_extra), (res, r_extra)):
        rows = table.rows[rng.random(len(table)) < 0.1].copy()
        rows[:, 2] += 5.0
        extra.append(rows)
    r_base = res.rows.copy()
    for f in rng.choice(np.unique(gt.frames), 20):
        g_rows, r_rows = gt.rows[gt.frames == f].copy(), res.rows[res.frames == f].copy()
        g_rows[:, 2] += 1000.0
        r_rows[:, 2] += 1001.0
        side = rng.integers(3)
        g_rows[:, 1] += 500 * (side == 2)
        r_base[res.frames == f, 1] += 500 * (side == 1)
        g_extra.append(g_rows)
        r_extra.append(r_rows)
    rows = np.concatenate([r_base] + r_extra)
    return _with_rows(gt, np.concatenate(g_extra)), MotTable(rows[rng.permutation(len(rows))])


def _non_finite(rng, gt, res):
    """Boxes with a NaN or infinite field, which only a directly built
    MotTable holds."""
    out = []
    for table in (gt, res):
        rows = table.rows.copy()
        bad = rng.random((len(rows), 4)) < 0.03
        rows[:, 2:6][bad] = rng.choice([np.nan, np.inf, -np.inf], int(bad.sum()))
        out.append(MotTable(rows))
    return tuple(out)


_VARIANTS = [None, _near_box_bound, _widest_leftmost, _gaps_and_one_sided, _repeated_ids,
             _non_finite]


def _variant_id(variant):
    return "grid" if variant is None else variant.__name__.strip("_")


class TestClearMotLockstep:
    """clear_mot, id_measures and evaluate against the per-id sweeps they
    replaced, bit for bit."""

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_random_grid_sequences(self, rng):
        exact = 0
        for variant in _VARIANTS:
            for _ in range(30 if variant is None else 10):
                gt, res = grid_sequence(rng)
                if variant is not None:
                    gt, res = variant(rng, gt, res)
                for threshold in (0.5, 1.0 / 3.0, 0.25, 1.0):
                    got = clear_mot(gt, res, threshold)
                    want = reference_clear_mot(gt, res, threshold)
                    assert same_clear(got, want), (_variant_id(variant), got, want)
                    want_id = reference_id_measures(gt, res, threshold)
                    assert same_report(evaluate(gt, res, threshold), want, want_id)
                if variant is None:
                    exact += np.count_nonzero(
                        np.isclose(reference_ious(gt, res), 0.5, rtol=0, atol=0))
        assert exact > 0  # some pairs sat exactly on the 0.5 threshold

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_id_measures_on_random_grid_sequences(self, rng):
        for variant in _VARIANTS:
            for _ in range(20 if variant is None else 5):
                gt, res = grid_sequence(rng)
                if variant is not None:
                    gt, res = variant(rng, gt, res)
                for threshold in (0.5, 0.25, 1.0):
                    assert id_measures(gt, res, threshold) == \
                        reference_id_measures(gt, res, threshold), _variant_id(variant)

    @pytest.mark.parametrize("chunk_rows", [1, 7, 50])
    def test_chunks_of_frames(self, rng, monkeypatch, chunk_rows):
        """A sequence of many chunks counts as one: with one row a chunk,
        every contested frame opens a chunk, and the sweep reads the last
        chunk's matches."""
        monkeypatch.setattr(metrics, "PAIR_CHUNK_ROWS", chunk_rows)
        contested = 0
        for _ in range(10):
            gt, res = grid_sequence(rng)
            for threshold in (0.5, 0.25):
                want = reference_clear_mot(gt, res, threshold)
                assert same_clear(clear_mot(gt, res, threshold), want)
                want_id = reference_id_measures(gt, res, threshold)
                assert id_measures(gt, res, threshold) == want_id
                assert same_report(evaluate(gt, res, threshold), want, want_id)
            res_frames = by_frame(res)
            for frame, (_, g_boxes) in by_frame(gt).items():
                if frame in res_frames:
                    hit = iou_matrix(g_boxes, res_frames[frame][1]) >= 0.5
                    contested += int((hit.sum(axis=0) > 1).any() or (hit.sum(axis=1) > 1).any())
        assert contested > 0

    def test_threshold_is_inclusive_for_carried_over_pairs(self):
        gt = [row(1, 1, 0.0), row(2, 1, 0.0)]
        res = [row(1, 7, 0.0), MotLine(2, 7, BoundingBox(0.0, 0.0, 10.0, 20.0), 1.0, 1)]
        got = clear_mot(mot_table(gt), mot_table(res))
        assert same_clear(got, reference_clear_mot(mot_table(gt), mot_table(res)))
        assert got["fp"] == 0 and got["fn"] == 0 and got["motp"] == 0.75

    def test_gt_id_repeated_within_a_frame(self):
        gt = [row(1, 1, 0.0), row(1, 1, 50.0), row(2, 1, 0.0), row(2, 1, 50.0)]
        res = [row(1, 7, 0.0), row(1, 8, 50.0), row(2, 8, 0.0), row(2, 7, 50.0)]
        got = clear_mot(mot_table(gt), mot_table(res))
        assert same_clear(got, reference_clear_mot(mot_table(gt), mot_table(res)))


def same_report(report, clear: dict, identity: tuple) -> bool:
    """evaluate's report equals the one built from the reference counts."""
    idtp, idfp, idfn = identity
    return (report.mota, report.fp, report.fn, report.id_switches, report.mt, report.ml,
            report.gt_total, repr(report.motp)) == (
        clear["mota"], clear["fp"], clear["fn"], clear["id_switches"], clear["mt"],
        clear["ml"], clear["gt_total"], repr(clear["motp"])) and \
        report.idf1 == (2 * idtp / (2 * idtp + idfp + idfn) if idtp + idfp + idfn else 0.0)


def reference_ious(gt, res) -> np.ndarray:
    """Every gt x result IoU of frames both sides share."""
    out = []
    for f in np.intersect1d(gt.frames, res.frames):
        out.append(iou_matrix(gt.rows[gt.frames == f, 2:6],
                              res.rows[res.frames == f, 2:6]).ravel())
    return np.concatenate(out)


class TestIdMeasures:
    def brute_force(self, gt, results, iou_threshold=0.5):
        gt_frames = by_frame(mot_table(gt))
        res_frames = by_frame(mot_table(results))
        overlap = {}
        for frame, (g_ids, g_boxes) in gt_frames.items():
            if frame not in res_frames:
                continue
            r_ids, r_boxes = res_frames[frame]
            hits = iou_matrix(g_boxes, r_boxes) >= iou_threshold
            for gi, ri in zip(*np.nonzero(hits)):
                key = (g_ids[int(gi)], r_ids[int(ri)])
                overlap[key] = overlap.get(key, 0) + 1
        g_ids = sorted({ln.obj_id for ln in gt})
        r_ids = sorted({ln.obj_id for ln in results})
        best = 0
        if g_ids and r_ids:
            if len(g_ids) <= len(r_ids):
                candidates = (
                    zip(g_ids, perm)
                    for perm in itertools.permutations(r_ids, len(g_ids))
                )
            else:
                candidates = (
                    zip(perm, r_ids)
                    for perm in itertools.permutations(g_ids, len(r_ids))
                )
            for pairs in candidates:
                best = max(best, sum(overlap.get(p, 0) for p in pairs))
        total_gt = len(gt)
        total_res = len(results)
        return best, total_res - best, total_gt - best

    def test_perfect_identity(self):
        gt = straight_run(1, 0.0, 10)
        assert id_measures(mot_table(gt), mot_table(gt)) == (10, 0, 0)

    def test_swap_halves_identity_overlap(self):
        gt = straight_run(1, 0.0, 10) + straight_run(2, 100.0, 10)
        results = []
        for ln in gt:
            rid = ln.obj_id if ln.frame <= 5 else 3 - ln.obj_id
            results.append(MotLine(ln.frame, rid, ln.bbox, ln.score, ln.class_id))
        idtp, idfp, idfn = id_measures(mot_table(gt), mot_table(results))
        assert (idtp, idfp, idfn) == (10, 10, 10)

    def test_matches_exhaustive_mapping(self, rng):
        for _ in range(30):
            n_gt = int(rng.integers(1, 4))
            n_res = int(rng.integers(0, 4))
            frames = int(rng.integers(1, 6))
            gt, results = [], []
            for g in range(1, n_gt + 1):
                for f in range(1, frames + 1):
                    gt.append(row(f, g, 50.0 * g))
            for r in range(1, n_res + 1):
                for f in range(1, frames + 1):
                    if rng.uniform() < 0.7:
                        near = int(rng.integers(1, n_gt + 1))
                        jitter = float(rng.uniform(0, 6))
                        results.append(row(f, 100 + r, 50.0 * near + jitter))
            got = id_measures(mot_table(gt), mot_table(results))
            assert got == self.brute_force(gt, results)

    def test_threshold_gates_overlap(self):
        gt = [row(1, 1, 0.0)]
        results = [row(1, 5, 3.0)]  # IoU 7/13 = 0.538
        assert id_measures(mot_table(gt), mot_table(results), iou_threshold=0.5)[0] == 1
        assert id_measures(mot_table(gt), mot_table(results), iou_threshold=0.6)[0] == 0

    def test_empty_results(self):
        gt = straight_run(1, 0.0, 4)
        assert id_measures(mot_table(gt), mot_table([])) == (0, 0, 4)


class TestEvaluate:
    def test_swap_report_numbers(self):
        gt = straight_run(1, 0.0, 10) + straight_run(2, 100.0, 10)
        results = []
        for ln in gt:
            rid = ln.obj_id if ln.frame <= 5 else 3 - ln.obj_id
            results.append(MotLine(ln.frame, rid, ln.bbox, ln.score, ln.class_id))
        rep = evaluate(mot_table(gt), mot_table(results))
        assert rep.mota == pytest.approx(0.9)
        assert rep.motp == pytest.approx(1.0)
        assert rep.idf1 == pytest.approx(0.5)
        assert rep.idp == pytest.approx(0.5) and rep.idr == pytest.approx(0.5)
        assert rep.id_switches == 2
        assert rep.gt_total == 20

    def test_missing_tail_report(self):
        gt = straight_run(1, 0.0, 10)
        results = [ln for ln in gt if ln.frame != 10]
        rep = evaluate(mot_table(gt), mot_table(results))
        assert rep.fn == 1
        assert rep.idf1 == pytest.approx(2 * 9 / (2 * 9 + 0 + 1))

    def test_empty_gt_raises(self):
        with pytest.raises(EvaluationError):
            evaluate(mot_table([]), mot_table([]))

    @pytest.mark.parametrize("threshold", [float("nan"), 0.0, -1.0, 1.5])
    def test_threshold_outside_the_unit_interval_raises(self, threshold):
        # NaN would make every pair feasible for CLEAR and none for identity
        gt = mot_table(straight_run(1, 0.0, 3))
        for measure in (clear_mot, id_measures, evaluate):
            with pytest.raises(EvaluationError, match="iou_threshold"):
                measure(gt, gt, threshold)

    def test_threshold_of_one_is_accepted(self):
        gt = mot_table(straight_run(1, 0.0, 3))
        rep = evaluate(gt, gt, 1.0)
        assert rep.mota == 1.0 and rep.idf1 == 1.0


class TestReports:
    def sample_rows(self):
        gt = straight_run(1, 0.0, 10)
        return [("self", evaluate(mot_table(gt), mot_table(gt)))]

    def test_table_formats_percents(self):
        text = report_table(self.sample_rows())
        lines = text.splitlines()
        assert lines[0].split()[:4] == ["run", "MOTA", "MOTP", "IDF1"]
        assert "100.00%" in lines[1]
        assert "1.0000" in lines[1]

    def test_table_with_no_rows(self):
        text = report_table([])
        assert text.splitlines()[0].startswith("run")

    def test_csv_round_trips_fractions(self):
        text = report_csv(self.sample_rows())
        lines = text.strip().splitlines()
        assert lines[0] == ("label,mota,motp,idf1,idp,idr,fp,fn,"
                            "id_switches,mt,ml,gt_total")
        vals = lines[1].split(",")
        assert vals[0] == "self"
        assert float(vals[1]) == 1.0
        assert [int(v) for v in vals[6:]] == [0, 0, 0, 1, 0, 10]

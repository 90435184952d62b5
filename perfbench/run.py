"""Tracking benchmark: replays a generated drone scene through the package's
public API as a closed-loop frame stream and prints one JSON result line.

    python3 perfbench/run.py --workload standard-online --seed 1 \\
        --seconds 40 --trace 0 [--smoke]

A run generates its inputs in a separate process (untimed, cached under
.perfbench/inputs), loads them through drone_assoc.mot_io, tracks the
sequence in whole passes with set-up and evaluation repetitions between
them until about --seconds have passed, checks the results, and prints as
its last line
{"correct", "attempted", "failed", "metrics"}. A frame is one operation.
--trace 0 reports the end-to-end metrics; --trace 1 wraps the program's
layers in spans and reports the per-layer metrics instead, writing the spans
to .perfbench/traces/<workload>.csv. --smoke runs a tiny scene with every
check, for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench")
INPUT_CACHE = os.path.join(WORK, "inputs")
CACHE_ENTRIES = 12
GENERATE_TIMEOUT_S = 120

# a run tracks at least this many frames and at least two passes, so that
# every frame has two latency samples and every run replays its sequence and
# can compare the two results files
MIN_FRAMES = 1000
MIN_PASSES = 2
# an untimed pass over this share of the sequence precedes the timed ones:
# the first frames a process tracks grow its heap and run up to 2x slower
# at the tail than the same frames later on
WARMUP_SHARE = 0.25
# set-up and evaluation repetitions take this share of the frame loop's
# time, interleaved with the passes, and run at least MIN_REPS times each
REP_SHARE = 0.5
MIN_REPS = 3


class BenchError(RuntimeError):
    """The benchmark cannot run here (program missing, generator failed)."""


class Program:
    """The drone_assoc modules a run calls, imported from this checkout's
    src/ and never from an installed copy."""

    def __init__(self) -> None:
        sys.path.insert(0, SRC)
        try:
            import drone_assoc
            from drone_assoc import (appearance, association, core, metrics,
                                     mot_io, motion, pipeline)
        except ImportError as e:
            raise BenchError(f"cannot import drone_assoc from {SRC}: {e}") from e
        where = os.path.dirname(os.path.abspath(drone_assoc.__file__))
        if where != os.path.join(SRC, "drone_assoc"):
            raise BenchError(f"drone_assoc imported from {where}, not {SRC}")
        self.appearance, self.association, self.core = appearance, association, core
        self.metrics, self.mot_io, self.motion = metrics, mot_io, motion
        self.pipeline = pipeline


def _source_digest() -> str:
    h = hashlib.sha256()
    for d in (os.path.join(SRC, "drone_assoc"), HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def ensure_inputs(scene: str, size: str, seed: int) -> str:
    """Directory of the scene's generated inputs, generating them in a child
    process unless a finished copy for this source tree is cached."""
    out = os.path.join(INPUT_CACHE, f"{scene}-{size}-seed{seed}-{_source_digest()}")
    if os.path.exists(os.path.join(out, "truth.npz")):
        os.utime(out)
        return out
    os.makedirs(INPUT_CACHE, exist_ok=True)
    tmp = f"{out}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), scene, size, str(seed), tmp]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=GENERATE_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BenchError(f"input generation exceeded {GENERATE_TIMEOUT_S}s") from e
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BenchError(f"input generation failed:\n{proc.stderr}")
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    entries = sorted((os.path.join(INPUT_CACHE, d) for d in os.listdir(INPUT_CACHE)),
                     key=os.path.getmtime)
    for old in entries[:-CACHE_ENTRIES]:
        shutil.rmtree(old, ignore_errors=True)
    return out


def install_trace(tracer: Tracer, p: Program) -> None:
    """Wrap each layer's public functions under the names their callers use."""
    def calls(key):
        return lambda args: lambda r: {key: 1}

    def rows(args):
        return lambda r: {"mot_io.rows_read": len(r[0]) if isinstance(r, tuple) else len(r)}

    def affine_step(args):
        return lambda r: {"pipeline.affine_steps": 1, "pipeline.affine_fits": int(r is not None)}

    def associate(args):
        live = len(args[0].tracks)
        return lambda r: {"association.frames": 1, "association.live_tracks": live}

    def predicted(args):
        n = len(args[0])
        return lambda r: {"motion.states_predicted": n}

    def gallery(args):
        n = sum((t.local_feature is not None)
                + (len(t.key_bank.entries) if t.key_bank is not None else 0)
                for t in args[0])
        return lambda r: {"appearance.gallery_rows": n}

    def bank(args):
        entries = args[0].entries
        last = entries[-1] if entries else None

        def finish(r):
            # an insert appends a new entry; a refresh only touches one
            inserted = int(last is None or entries[-1] is not last)
            return {"appearance.bank_inserts": inserted,
                    "appearance.bank_refreshes": 1 - inserted}
        return finish

    def assignment(args):
        cells = int(args[0].size)
        return lambda r: {"association.linear_assignment_calls": 1,
                          "association.cost_cells": cells}

    w = tracer.wrap
    w(p.mot_io, "parse_detections", "mot_io.parse_detections")
    w(p.mot_io, "parse_mot_lines", "mot_io.parse_mot_lines", rows)
    w(p.mot_io, "parse_embeddings", "mot_io.parse_embeddings", rows)
    w(p.mot_io, "parse_affines", "mot_io.parse_affines")
    w(p.mot_io, "write_results", "mot_io.write_results")
    w(p.pipeline.OnlineAffineEstimator, "step", "pipeline.affine_step", affine_step)
    w(p.pipeline, "estimate_affine", "motion.estimate_affine",
      calls("motion.estimate_affine_calls"))
    w(p.association.Tracker, "associate_frame", "association.associate_frame", associate)
    w(p.association, "linear_assignment", "association.linear_assignment", assignment)
    w(p.association, "iou_matrix", "core.iou_matrix", calls("core.iou_matrix_calls"))
    w(p.motion, "multi_predict", "motion.multi_predict", predicted)
    w(p.motion, "multi_update", "motion.multi_update")
    w(p.motion, "frame_descriptors", "motion.frame_descriptors")
    w(p.appearance, "appearance_cost_matrix", "appearance.cost_matrix", gallery)
    w(p.appearance, "update_local_feature", "appearance.update_local_feature")
    w(p.appearance, "maybe_insert_key", "appearance.maybe_insert_key", bank)
    w(p.metrics, "evaluate", "metrics.evaluate")
    w(p.metrics, "clear_mot", "metrics.clear_mot")
    w(p.metrics, "id_measures", "metrics.id_measures")
    w(p.metrics, "iou_matrix", "core.iou_matrix", calls("core.iou_matrix_calls"))


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Run:
    """One workload run: set-up, the timed frame loop, evaluation, checks."""

    def __init__(self, p: Program, workload, inputs: str, tracer: Tracer,
                 smoke: bool) -> None:
        self.p, self.workload, self.inputs, self.tracer = p, workload, inputs, tracer
        self.min_frames = 0 if smoke else MIN_FRAMES
        self.truth = dict(np.load(os.path.join(inputs, "truth.npz")))
        self.n_frames = int(self.truth["n_frames"])
        self.cfg = p.mot_io.RunConfig(
            detections=os.path.join(inputs, "det.txt"),
            embeddings=os.path.join(inputs, "embeddings.bin"),
            affines=os.path.join(inputs, "affines.csv") if workload.sidecar else None,
            embedding_dim=int(self.truth["embedding_dim"]),
        )
        self.gt_path = os.path.join(inputs, "gt.txt")
        self.out_dir = os.path.join(WORK, "runs", workload.name)
        os.makedirs(self.out_dir, exist_ok=True)
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    # -- phases ----------------------------------------------------------------

    def measure(self, seconds: float) -> None:
        """Set-up, an untimed warm-up, then whole timed passes over the
        sequence. After each pass, set-up and evaluation repetitions run
        until they have taken REP_SHARE of the loop time or the run has
        filled `seconds`, so both sample the machine across the whole run:
        a shared host's speed drifts over seconds. The run stops once MIN_PASSES
        and min_frames are met and the passes and repetitions, with those
        still owed to MIN_REPS, come nearest to `seconds`.
        """
        self.setup_times = [self.setup()]
        self._pass(self._stream()[:max(1, int(self.n_frames * WARMUP_SHARE))])
        self.attempted = self.failed = 0
        self.eval_times: list[float] = []
        self.pass_latencies: list[list[float]] = []
        self.pass_walls: list[float] = []
        rep_s = 0.0
        while True:
            with self._phase("frame"):
                records, used, latencies, wall = self._pass(self._stream())
            self.pass_latencies.append(latencies)
            self.pass_walls.append(wall)
            self._compare_pass(len(self.pass_walls), records)
            if len(self.pass_walls) == 1:
                self.records, self.used_affines = records, used
                # one load-track-score round; later rounds only add allocator
                # fragmentation, and how many run depends on the machine's speed
                rep_s += self._repetition(setup=False)
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            del records, used
            loop_s = sum(self.pass_walls)
            while rep_s < loop_s * REP_SHARE and (
                    loop_s + rep_s < seconds or len(self.eval_times) < MIN_REPS):
                rep_s += self._repetition()
            # stop at the pass boundary nearest to `seconds`, counting the
            # repetitions still owed
            owed = max(0, MIN_REPS - len(self.eval_times)) * rep_s / len(self.eval_times)
            half_pass = loop_s / len(self.pass_walls) / 2
            if (len(self.pass_walls) >= MIN_PASSES
                    and len(self.pass_walls) * self.n_frames >= self.min_frames
                    and loop_s + rep_s + owed + half_pass >= seconds):
                break
        while len(self.eval_times) < MIN_REPS:
            self._repetition()
        while len(self.setup_times) < MIN_REPS:
            self._repetition(evaluate=False)

    def _repetition(self, setup: bool = True, evaluate: bool = True) -> float:
        """One set-up and one evaluation, each after a full collection;
        returns the wall seconds they took."""
        t0 = time.perf_counter()
        if setup:
            gc.collect()
            self.setup_times.append(self.setup())
        if evaluate:
            gc.collect()
            self.eval_times.append(self.evaluate())
        return time.perf_counter() - t0

    def setup(self) -> float:
        """Load the inputs through mot_io and construct the tracker."""
        mot_io, cfg = self.p.mot_io, self.cfg
        self.frames = self.affines = self.tracker = None  # free the last copy first
        with self._phase("setup"), self.tracer.span("bench.setup"):
            t0 = time.perf_counter()
            self.frames = mot_io.parse_detections(
                cfg.detections, embeddings_path=cfg.embeddings,
                embedding_dim=cfg.embedding_dim, min_score=cfg.theta_low)
            if cfg.affines is not None:
                self.affines = mot_io.parse_affines(cfg.affines)
            self.tracker = self.p.association.Tracker(cfg.tracker_config())
            return time.perf_counter() - t0

    def evaluate(self) -> float:
        """Write the first pass's results, parse them and the ground truth,
        and score them."""
        mot_io, tr = self.p.mot_io, self.tracer
        self.results_path = os.path.join(self.out_dir, "results.txt")
        with self._phase("eval"), tr.span("bench.eval"):
            t0 = time.perf_counter()
            mot_io.write_results(self.records, self.results_path)
            with tr.span("mot_io.parse_results"):
                res = mot_io.parse_mot_lines(self.results_path)[0]
            gt = mot_io.parse_mot_lines(self.gt_path)[0]
            self.report = self.p.metrics.evaluate(gt, res)
            return time.perf_counter() - t0

    def _stream(self) -> list:
        """Frames 1..n in order; frames without detections arrive empty."""
        FrameDetections = self.p.core.FrameDetections
        by_frame = {fd.frame: fd for fd in self.frames}
        return [by_frame.get(t, FrameDetections(t, ())) for t in range(1, self.n_frames + 1)]

    def _pass(self, stream):
        """Feed the stream to a fresh tracker, one frame at a time, waiting
        for each frame's records; returns records, the affine used per frame,
        each frame's latency and the pass's wall seconds. A full collection
        first gives every pass the same garbage-collection schedule, so a
        collection pause lands on the same frame in every pass."""
        affines = self.affines
        tracker = self.tracker or self.p.association.Tracker(self.cfg.tracker_config())
        self.tracker = None
        estimator = None if affines is not None else \
            self.p.pipeline.OnlineAffineEstimator(self.cfg.theta_high, self.cfg.seed)
        span = self.tracer.span if self.tracer.active else None
        records: list = []
        used: dict = {}
        latencies: list = []
        gc.collect()
        start = time.perf_counter()
        for fd in stream:
            t = fd.frame
            ctx = span("bench.frame") if span else contextlib.nullcontext()
            with ctx:
                t0 = time.perf_counter()
                try:
                    m = affines.get(t) if affines is not None else estimator.step(fd)
                    out = tracker.associate_frame(fd, m)
                except Exception as e:  # a failed frame is counted, not fatal
                    self.failed += 1
                    if len(self.errors) < 5:
                        self.errors.append(f"frame {t}: {type(e).__name__}: {e}")
                    m, out = None, []
                latencies.append(time.perf_counter() - t0)
            records.extend(out)
            used[t] = m
        wall = time.perf_counter() - start
        self.attempted += len(stream)
        return records, used, latencies, wall

    @contextlib.contextmanager
    def _phase(self, name: str):
        if self.tracer.active:
            self.tracer.phase = name
        try:
            yield
        finally:
            self.tracer.phase = None

    def _compare_pass(self, n: int, records: list) -> None:
        """Every pass replays the same inputs into a fresh tracker, so its
        results file must match the first pass byte for byte."""
        path = os.path.join(self.out_dir, f"pass{min(n, 2)}.txt")
        self.p.mot_io.write_results(records, path)
        if n == 1:
            self.first_pass = _file_bytes(path)
        elif _file_bytes(path) != self.first_pass:
            self.errors.append(f"pass {n} results differ from pass 1")

    # -- checks ------------------------------------------------------------------

    def check(self) -> None:
        truth, report = self.truth, self.report
        rows = checks.read_results(self.results_path)
        errors = checks.check_records(rows, self.n_frames)
        errors += checks.check_recount(rows, truth["gt_frame"], truth["gt_box"],
                                       report.fp, report.fn)
        errors += checks.check_accuracy(report.idf1, report.mota)
        if self.workload.sidecar:
            errors += checks.check_sidecar(self.affines, truth["affine_frame"],
                                           truth["affine_m"])
        else:
            errors += checks.check_online(checks.online_errors(
                self.used_affines, truth["affine_frame"], truth["affine_m"],
                self.n_frames, float(truth["world_extent"])))
        errors += self._check_rerun()
        self.errors += errors

    def _check_rerun(self) -> list[str]:
        """Runs of one seed, in any process, write the same results file."""
        digest = hashlib.sha256(_file_bytes(self.results_path)).hexdigest()
        path = os.path.join(self.inputs, f"results-{self.workload.name}.sha256")
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                if fh.read().strip() != digest:
                    return ["results differ from an earlier run of this seed"]
            return []
        tmp = f"{path}.tmp{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(digest + "\n")
        os.replace(tmp, path)
        return []


def end_to_end(run: Run) -> dict:
    """Every pass replays the same inputs into a fresh tracker, so frame t
    does the same work in every pass, and the latency percentiles run over
    the sequence's frames. The typical frame is its mean over the passes;
    the tail takes each frame's fastest pass, since a frame the program
    makes slow is slow in every pass while the machine's stalls and slow
    stretches hit one pass at a time. eval_s is the mean repetition and
    setup_s the median one. On a shared host whose speed drifts by up to 2x
    within seconds, a mean moves smoothly with the share of the run spent
    slow, where a percentile of pooled samples jumps as that share crosses
    its rank."""
    per_frame = list(zip(*run.pass_latencies))
    return {
        "setup_s": statistics.median(run.setup_times),
        "track_fps": len(run.pass_walls) * run.n_frames / sum(run.pass_walls),
        "frame_p50_ms": statistics.median(statistics.fmean(lat) for lat in per_frame) * 1e3,
        "frame_p99_ms": statistics.quantiles([min(lat) for lat in per_frame], n=100)[98] * 1e3,
        "eval_s": statistics.fmean(run.eval_times),
        "peak_rss_mb": run.peak_rss_mb,
        "idf1": run.report.idf1,
        "mota": run.report.mota,
    }


def per_layer(tracer: Tracer, reps: dict) -> dict:
    values = tracer.summary(reps)
    c = tracer.normalised_counts(reps)
    steps = c.get("pipeline.affine_steps", 0.0)
    frames = c.get("association.frames", 0.0)
    for key in ("mot_io.rows_read", "motion.estimate_affine_calls",
                "motion.states_predicted", "appearance.gallery_rows",
                "appearance.bank_inserts", "appearance.bank_refreshes",
                "association.linear_assignment_calls", "association.cost_cells",
                "core.iou_matrix_calls"):
        values[key] = c.get(key, 0.0)
    values["pipeline.affine_fit_ratio"] = c.get("pipeline.affine_fits", 0.0) / steps if steps else 0.0
    values["association.live_tracks_mean"] = (
        c.get("association.live_tracks", 0.0) / frames if frames else 0.0)
    return values


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def execute(p: Program, workload, inputs: str, args, spec: dict) -> dict:
    tracer = Tracer(active=bool(args.trace))
    if tracer.active:
        install_trace(tracer, p)
    run = Run(p, workload, inputs, tracer, args.smoke)
    try:
        run.measure(args.seconds)
    finally:
        tracer.restore()
    run.check()

    if tracer.active:
        total_ns, self_ns = tracer.frame_path_balance()
        if total_ns != self_ns:
            run.errors.append(f"frame-path self times sum to {self_ns} ns, "
                              f"traced frame time is {total_ns} ns")
        traces = os.path.join(WORK, "traces")
        os.makedirs(traces, exist_ok=True)
        tracer.write(os.path.join(traces, f"{workload.name}.csv"))
        values = per_layer(tracer, {"setup": len(run.setup_times),
                                    "frame": len(run.pass_walls),
                                    "eval": len(run.eval_times)})
        wanted = spec["per_layer"]
    else:
        values = end_to_end(run)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics this run does not measure: {missing}")
    for err in run.errors:
        print(f"check failed: {err}", file=sys.stderr)
    return {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny scene, no frame minimum: a seconds-long self-test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    try:
        spec = load_spec()
        program = Program()
        workload = WORKLOADS[args.workload]
        inputs = ensure_inputs(workload.scene, "smoke" if args.smoke else "full", args.seed)
        result = execute(program, workload, inputs, args, spec)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

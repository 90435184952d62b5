"""Self-test of the benchmark: every workload at smoke size, untraced and
traced, with all of its checks; the checks themselves on hand-made rows; and
the refusal to run without the program.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_every_check(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in wanted]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        layers = ("bench", "pipeline", "motion", "appearance", "association", "core")
        path = sum(values[f"frame.{layer}.self_s"] for layer in layers)
        assert path == pytest.approx(values["frame.total_s"], rel=1e-9)
    else:
        assert all(v > 0 for v in values.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _row(frame, tid, x, y, w=10.0, h=10.0):
    return [frame, tid, x, y, w, h, 0.9, 1, -1, -1]


def test_record_check_catches_unsorted_duplicate_and_out_of_range_rows():
    good = np.array([_row(1, 1, 0, 0), _row(1, 2, 50, 0), _row(2, 1, 1, 0)])
    assert checks.check_records(good, 2) == []
    assert checks.check_records(good[[1, 0, 2]], 2)
    assert checks.check_records(good[[0, 0, 2]], 2)
    assert checks.check_records(good, 1)
    bad_box = good.copy()
    bad_box[0, 4] = 0.0
    assert checks.check_records(bad_box, 2)


def test_recount_catches_under_reported_errors():
    rows = np.array([_row(1, 1, 0, 0), _row(1, 2, 200, 200), _row(2, 1, 0, 0)])
    gt_frame = np.array([1, 1, 2])
    gt_box = np.array([[0, 0, 10, 10], [100, 100, 10, 10], [1, 0, 10, 10]], float)
    assert checks.max_matches(rows, gt_frame, gt_box) == 2
    assert checks.check_recount(rows, gt_frame, gt_box, fp=1, fn=1) == []
    assert len(checks.check_recount(rows, gt_frame, gt_box, fp=0, fn=0)) == 2

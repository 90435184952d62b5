"""Command-line front end.

Subcommands: simulate, track, eval, ablate. Exit codes: 0 on success, 2 for
usage or configuration errors, 1 for runtime failures. The DRONE_ASSOC_LOG
environment variable (error, warn, info, debug) sets log verbosity. Each
track flag is stored under the RunConfig field it sets and overrides that
key of the --config file.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from typing import Optional

from .metrics import evaluate, report_csv, report_table
from .mot_io import (
    FormatError,
    RunConfig,
    parse_mot_lines,
    read_key_values,
    run_config_from_dict,
)
from .pipeline import ABLATION_CELLS, run_ablation, run_tracking
from .simulator import generate_scenario, load_scenario_config, standard_ablation_scenario

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging() -> None:
    raw = os.environ.get("DRONE_ASSOC_LOG", "warn").strip().lower()
    level = _LOG_LEVELS.get(raw)
    if level is None:
        print(f"DRONE_ASSOC_LOG={raw!r} not in {sorted(_LOG_LEVELS)}, using warn",
              file=sys.stderr)
        level = logging.WARNING
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    pkg = logging.getLogger("drone_assoc")
    pkg.handlers[:] = [handler]
    pkg.setLevel(level)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drone-assoc",
        description="Multi-object tracking association for drone footage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic scenario")
    p_sim.add_argument("--config", required=True, help="scenario config file")
    p_sim.add_argument("--out", required=True, help="output directory")

    p_track = sub.add_parser("track", help="associate detections into tracks")
    p_track.add_argument("--detections", help="MOT detections CSV")
    p_track.add_argument("--embeddings", help="embedding sidecar (binary or CSV)")
    p_track.add_argument("--affines", help="per-frame camera affine CSV")
    p_track.add_argument("--config", help="run config file (key = value)")
    p_track.add_argument("--output", help="results file to write")
    p_track.add_argument("--w-a", type=float, dest="w_a",
                         help="appearance cost weight")
    p_track.add_argument("--radius", type=float, dest="radius_R",
                         help="rotation descriptor neighborhood radius (px)")
    p_track.add_argument("--theta-high", type=float, dest="theta_high",
                         help="high-confidence score threshold")
    p_track.add_argument("--theta-low", type=float, dest="theta_low",
                         help="low-confidence score threshold")
    p_track.add_argument("--no-afs", action="store_false", dest="use_afs",
                         default=None,
                         help="fixed-weight feature averaging, no key bank")
    p_track.add_argument("--no-dmp", action="store_false", dest="use_dmp",
                         default=None,
                         help="no camera-motion compensation; the sidecar is not read")
    rotation = p_track.add_mutually_exclusive_group()
    rotation.add_argument("--w-r", type=float, dest="w_r",
                          help="rotation cost weight")
    rotation.add_argument("--no-rotation", action="store_const", const=0.0,
                          dest="w_r",
                          help="drop the rotation term from the fused cost (w_r = 0)")

    p_eval = sub.add_parser("eval", help="score results against ground truth")
    p_eval.add_argument("--gt", required=True, help="ground-truth MOT CSV")
    p_eval.add_argument("--results", required=True, help="tracker results CSV")
    p_eval.add_argument("--iou-threshold", type=float, default=0.5)
    p_eval.add_argument("--csv", help="write the CSV twin here instead of stdout")

    p_abl = sub.add_parser("ablate", help="run the feature-toggle ablation")
    p_abl.add_argument("--scenario", default="standard", choices=["standard"])
    p_abl.add_argument("--out", required=True, help="output directory")
    p_abl.add_argument("--seed", type=int, help="override the scenario seed")
    p_abl.add_argument("--cells", default=",".join(ABLATION_CELLS),
                       help="comma-separated subset of: " + ",".join(ABLATION_CELLS))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand. The package logger's handlers and level are put
    back on return, so in-process calls leave logging as they found it."""
    pkg = logging.getLogger("drone_assoc")
    saved = (pkg.handlers[:], pkg.level)
    try:
        _setup_logging()
        parser = _build_parser()
        args = parser.parse_args(argv)
        try:
            if args.command == "simulate":
                return _cmd_simulate(parser, args)
            if args.command == "track":
                return _cmd_track(parser, args)
            if args.command == "eval":
                return _cmd_eval(parser, args)
            return _cmd_ablate(parser, args)
        except (OSError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    finally:
        handlers, level = saved
        pkg.handlers[:] = handlers
        pkg.setLevel(level)


def _cmd_simulate(parser, args) -> int:
    try:
        cfg = load_scenario_config(args.config)
    except FormatError as e:
        parser.error(str(e))
    paths = generate_scenario(cfg, args.out)
    print(f"wrote {paths.gt}, {paths.detections}, {paths.embeddings}, "
          f"{paths.affines}")
    return 0


def _cmd_track(parser, args) -> int:
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    flags = {key: value for key, value in vars(args).items()
             if key in fields and value is not None}
    try:
        merged = read_key_values(args.config) if args.config else {}
        cfg = run_config_from_dict({**merged, **flags}, source=args.config or "flags")
    except ValueError as e:
        parser.error(str(e))
    for required in ("detections", "embeddings", "output"):
        if getattr(cfg, required) is None:
            parser.error(f"--{required} is required (flag or config file)")
    summary = run_tracking(cfg)
    print(f"frames={summary.frames} tracks={summary.tracks_created} "
          f"records={summary.records} wall={summary.wall_seconds:.3f}s "
          f"output={cfg.output}")
    return 0


def _cmd_eval(parser, args) -> int:
    if not 0.0 < args.iou_threshold <= 1.0:
        parser.error("--iou-threshold must lie in (0, 1]")
    gt = parse_mot_lines(args.gt)[0]
    results = parse_mot_lines(args.results)[0]
    report = evaluate(gt, results, args.iou_threshold)
    rows = [(os.path.basename(args.results), report)]
    print(report_table(rows))
    csv_text = report_csv(rows)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        print(csv_text, end="")
    return 0


def _cmd_ablate(parser, args) -> int:
    cells = [c.strip() for c in args.cells.split(",") if c.strip()]
    bad = [c for c in cells if c not in ABLATION_CELLS]
    if bad or not cells or len(set(cells)) < len(cells):
        parser.error(f"--cells must name distinct cells of {','.join(ABLATION_CELLS)}")
    scenario = standard_ablation_scenario()
    if args.seed is not None:
        try:
            scenario = dataclasses.replace(scenario, seed=args.seed)
        except ValueError as e:
            parser.error(f"--seed: {e}")
    rows = run_ablation(scenario, args.out, cells)
    print(report_table(rows))
    print(f"table and CSV written under {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

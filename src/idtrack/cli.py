"""Command line front end.

Subcommands:
    track     run the tracker over a detection file
    eval      score a result file against ground truth
    simulate  write a synthetic gt/dets/embeddings benchmark
    ablate    run the stock tracker variants across frame strides

Exit codes: 0 on success, 1 on bad data or config files, 2 on bad flags.
An explicit --seed flag overrides the simulation seed from a config file.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

from .affinity import AffinityWeights
from .metrics import DEFAULT_SWEEP_THRESHOLDS, evaluate, format_report, format_table, sweep_thresholds
from .mot_io import (
    load_detections,
    read_config,
    read_gt,
    write_detections,
    write_embeddings,
    write_gt,
    write_results,
)
from .sim import benchmark_config, config_from_mapping, generate, subsample
from .tracker import DEFAULT_NMS_IOU, TrackerConfig, track_stream

__all__ = ["main", "ABLATION_MODELS"]


# The three stock variants compared by `ablate`: association on overlap only,
# overlap plus motion coasting, and the full overlap+identity blend.
ABLATION_MODELS = {
    "iou-only": TrackerConfig(weights=AffinityWeights(1.0, 0.0), motion_propagate_frames=0),
    "iou-motion": TrackerConfig(weights=AffinityWeights(1.0, 0.0), motion_propagate_frames=5),
    "id-assoc": TrackerConfig(weights=AffinityWeights(0.5, 0.5), motion_propagate_frames=5),
}


# The flag that sets each config field, named in place of the field that a config refuses.
FIELD_FLAGS = {
    "overlap": "--w1",
    "identity": "--w2",
    "buffer_size": "--buffer-size",
    "min_affinity": "--min-affinity",
    "det_threshold": "--det-threshold",
    "motion_propagate_frames": "--propagate-frames",
    "embedding_momentum": "--embedding-momentum",
}


class UsageError(Exception):
    """A bad flag value or flag combination: exit 2, before any file is read."""


def _from_flags(build, *args, **kwargs):
    """``build(*args, **kwargs)``, a config of flag values. A field that the
    config refuses is a usage error that names the field's flag."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(re.sub(r"\w+", lambda word: FIELD_FLAGS.get(word[0], word[0]), str(exc))) from None


def _resolve_weights(args) -> AffinityWeights:
    w1, w2 = args.w1, args.w2  # one alone sets the other to make 1
    if w1 is None and w2 is None:
        return AffinityWeights()
    for flag, given in (("--w1", w1), ("--w2", w2)):
        if given is not None and not 0.0 <= given <= 1.0:  # written so that NaN fails
            raise UsageError(f"{flag} must lie in [0, 1], got {given}")
    return _from_flags(AffinityWeights, 1.0 - w2 if w1 is None else w1, 1.0 - w1 if w2 is None else w2)


def _csv(convert, check, what: str):
    """An argparse type: comma-separated ``convert`` values that all pass ``check``."""

    def parse(text: str) -> tuple:
        try:
            values = tuple(convert(p) for p in text.split(","))
            if all(map(check, values)):
                return values
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")

    return parse


def cmd_track(args) -> int:
    if args.frame_stride < 1:
        raise UsageError(f"--frame-stride must be >= 1, got {args.frame_stride}")
    weights = _resolve_weights(args)
    if weights.identity > 0.0 and not args.embeddings:
        raise UsageError(f"identity weight {weights.identity} needs --embeddings; use --w2 0")
    if args.predictions and args.frame_stride > 1:
        # Predictions are keyed by source frame and look one source frame ahead.
        raise UsageError("--predictions cannot be combined with --frame-stride > 1")
    config = _from_flags(
        TrackerConfig,
        weights=weights,
        buffer_size=args.buffer_size,
        min_affinity=args.min_affinity,
        det_threshold=args.det_threshold,
        motion_propagate_frames=args.propagate_frames,
        embedding_momentum=args.embedding_momentum,
    )
    if not 0.0 <= args.nms_iou <= 1.0:
        raise UsageError(f"--nms-iou must lie in [0, 1], got {args.nms_iou}")
    dets = load_detections(args.dets, args.embeddings, args.predictions)
    if args.frame_stride > 1:
        dets = subsample(dets, args.frame_stride)
    outputs = track_stream(dets, config, nms_iou=args.nms_iou)
    written = write_results(args.out, outputs if args.write_interpolated else outputs.take(~outputs.interpolated))
    print(f"tracked {dets.last} frames, wrote {written} boxes to {args.out}")
    return 0


def _check_iou_gate(gate: float) -> None:
    if not 0.0 < gate <= 1.0:  # written so that NaN fails
        raise UsageError(f"--iou-gate must lie in (0, 1], got {gate}")


def cmd_eval(args) -> int:
    _check_iou_gate(args.iou_gate)
    gt = read_gt(args.gt)
    if args.sweep:
        result = sweep_thresholds(gt, read_gt(args.hyp), args.thresholds, args.iou_gate)
        rows = [(f"thr={thr:.2f}", report) for thr, report in result.rows]
        print(format_table(rows))
        print()
        print("# per-metric best (threshold where it peaks)")
        for name, (thr, value) in result.best.items():
            if name in ("mota", "motp"):
                print(f"best_{name}={100.0 * value:.4f} threshold={thr:.2f}")
            else:
                print(f"best_{name}={value:g} threshold={thr:.2f}")
        print()
        best_thr = result.best["mota"][0]
        print(f"# best-MOTA operating point (threshold {best_thr:.2f})")
        print(format_report(dict(result.rows)[best_thr], prefix="best_mota_row_"))
    else:
        report = evaluate(gt, read_gt(args.hyp), args.iou_gate)
        print(format_table([("all", report)]))
        print()
        print(format_report(report))
    return 0


def _sim_config(args):
    if args.config is None:
        config = benchmark_config()
    else:
        values = read_config(args.config)
        try:
            config = config_from_mapping(values)
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    return config if args.seed is None else replace(config, seed=args.seed)


def cmd_simulate(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    config = _sim_config(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    gt, dets = generate(config)
    write_gt(out_dir / "gt.txt", gt)
    write_detections(out_dir / "dets.txt", dets)
    write_embeddings(out_dir / "embeddings.txt", dets)
    print(f"seed={config.seed} frames={dets.last} identities={config.num_identities} detections={len(dets.rows)}")
    print(f"wrote gt.txt, dets.txt, embeddings.txt to {out_dir}")
    return 0


def cmd_ablate(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    _check_iou_gate(args.iou_gate)
    models = {name: _from_flags(replace, model, det_threshold=args.det_threshold)
              for name, model in ABLATION_MODELS.items()}
    config = _sim_config(args)
    gt_full, dets_full = generate(config)

    rows = []
    lines = []
    for stride in args.strides:
        gt = subsample(gt_full, stride) if stride > 1 else gt_full
        dets = subsample(dets_full, stride) if stride > 1 else dets_full
        for name, model in models.items():
            outputs = track_stream(dets, model)
            report = evaluate(gt, outputs, args.iou_gate)
            label = f"{name}@s{stride}"
            rows.append((label, report))
            lines.append(format_report(report, prefix=f"{name.replace('-', '_')}_s{stride}_"))
            if args.out_dir:
                out_dir = Path(args.out_dir)
                out_dir.mkdir(parents=True, exist_ok=True)
                write_results(out_dir / f"{name}_s{stride}.txt", outputs.take(~outputs.interpolated))

    print(format_table(rows))
    print()
    for block in lines:
        print(block)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="idtrack", description="identity-aware multi-object tracking toolkit")
    defaults = TrackerConfig()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("track", help="run the tracker over a detection file")
    p.add_argument("--dets", required=True, help="MOT-format detection file")
    p.add_argument("--embeddings", help="embedding sidecar file (dim=D header)")
    p.add_argument("--predictions", help="predicted next-frame boxes keyed by frame,det_index")
    p.add_argument("--w1", type=float, help="overlap affinity weight")
    p.add_argument("--w2", type=float, help="identity affinity weight")
    p.add_argument("--buffer-size", type=int, default=defaults.buffer_size)
    p.add_argument("--min-affinity", type=float, default=defaults.min_affinity)
    p.add_argument("--det-threshold", type=float, default=defaults.det_threshold)
    p.add_argument("--nms-iou", type=float, default=DEFAULT_NMS_IOU)
    p.add_argument("--frame-stride", type=int, default=1)
    p.add_argument("--propagate-frames", type=int, default=defaults.motion_propagate_frames)
    p.add_argument("--embedding-momentum", type=float, default=defaults.embedding_momentum)
    p.add_argument("--write-interpolated", action="store_true", help="also write propagated boxes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="score a result file against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--iou-gate", type=float, default=0.5)
    p.add_argument("--sweep", action="store_true", help="sweep detection-score thresholds")
    p.add_argument(
        "--thresholds",
        type=_csv(float, math.isfinite, "finite numbers"),
        default=DEFAULT_SWEEP_THRESHOLDS,
        help="comma-separated sweep thresholds (default 0.1..0.9)",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="write a synthetic benchmark scene")
    p.add_argument("--config", help="key=value sim config file (default: stock benchmark)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, help="override the seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ablate", help="compare tracker variants across frame strides")
    p.add_argument("--config", help="key=value sim config file (default: stock benchmark)")
    p.add_argument("--strides", type=_csv(int, lambda s: s >= 1, "integers >= 1"), default="1,10")
    p.add_argument("--det-threshold", type=float, default=defaults.det_threshold)
    p.add_argument("--iou-gate", type=float, default=0.5)
    p.add_argument("--seed", type=int, help="override the seed")
    p.add_argument("--out-dir", help="also write each variant's result file here")
    p.set_defaults(func=cmd_ablate)

    return parser


def _joined_numbers(argv: list[str]) -> list[str]:
    """``argv`` with ``--flag value`` as ``--flag=value`` where the value starts
    as a negative number (``-1e-3``, ``-inf``): argparse took it for a flag."""
    out = []
    for arg in argv:
        if out and re.fullmatch(r"--\w[\w-]*", out[-1]) and re.match(r"-(\.?\d|inf|nan)", arg, re.IGNORECASE):
            out[-1] += f"={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_joined_numbers(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())

"""CLEAR-style multi-object tracking metrics.

Correspondence bookkeeping follows the usual protocol: a ground-truth object
keeps its previously associated hypothesis id as long as the pair still
overlaps at the gate; everything else is re-matched per frame with a
Hungarian solve maximizing IoU. An id switch is counted when an object's
associated hypothesis id changes, and the switch also ends the previous
correspondence.

Reported values:
    MOTA  1 - (FN + FP + IDS) / total gt boxes (can go negative)
    MOTP  mean IoU over matched pairs (0.0 when nothing ever matched)
    IDS   id switches
    MT/ML ground-truth tracks covered >= 80% / <= 20% of their lifespan
    Frag  resumptions: tracked -> untracked -> tracked, per gt track
    FP/FN unmatched hypothesis / ground-truth boxes
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .affinity import iou, iou_matrix
from .assignment import solve_max
from .geometry import BBox

__all__ = [
    "MotReport",
    "evaluate",
    "sweep_thresholds",
    "SweepResult",
    "DEFAULT_SWEEP_THRESHOLDS",
    "format_table",
    "format_report",
]

GtStream = Mapping[int, Sequence[tuple[int, BBox]]]
HypStream = Mapping[int, Sequence[tuple[int, BBox]]]
ScoredHypStream = Mapping[int, Sequence[tuple[int, BBox, float]]]

DEFAULT_SWEEP_THRESHOLDS = tuple(round(0.1 * k, 1) for k in range(1, 10))

MT_CUTOFF = 0.8
ML_CUTOFF = 0.2


@dataclass(frozen=True)
class MotReport:
    mota: float
    motp: float
    ids: int
    mt: int
    ml: int
    frag: int
    fp: int
    fn: int
    gt_total: int
    matches: int


def _frame_entries(stream, frame: int, kind: str):
    entries = sorted(stream.get(frame, ()), key=lambda e: e[0])
    seen = set()
    for entry in entries:
        if entry[0] in seen:
            raise ValueError(f"duplicate {kind} id {entry[0]} in frame {frame}")
        seen.add(entry[0])
    return entries


def evaluate(gt: GtStream, hyp: HypStream, iou_gate: float = 0.5) -> MotReport:
    """Score a hypothesis stream against ground truth.

    Both streams map frame -> [(id, box), ...]. Frames missing from a stream
    count as empty. Within a frame the entries are canonicalized by id so
    the result does not depend on input ordering.
    """
    if not 0.0 < iou_gate <= 1.0:
        raise ValueError(f"iou_gate must lie in (0, 1], got {iou_gate}")

    frames = sorted(set(gt) | set(hyp))
    corr: dict[int, int] = {}  # last known gt id -> hyp id association
    fp = fn = ids = matches = frag = 0
    iou_total = 0.0
    present: dict[int, int] = {}
    covered: dict[int, int] = {}
    ever_matched: set[int] = set()
    last_status: dict[int, bool] = {}

    for f in frames:
        g_entries = _frame_entries(gt, f, "gt")
        h_entries = _frame_entries(hyp, f, "hypothesis")
        h_index = {hid: k for k, (hid, _) in enumerate(h_entries)}

        matched: dict[int, float] = {}  # gt id -> iou of this frame's match
        used_h: set[int] = set()

        # Keep surviving correspondences first.
        for gid, gbox in g_entries:
            hid = corr.get(gid)
            if hid is None or hid in used_h or hid not in h_index:
                continue
            overlap = iou(gbox, h_entries[h_index[hid]][1])
            if overlap >= iou_gate:
                matched[gid] = overlap
                used_h.add(hid)

        # Hungarian over what is left. Sub-gate overlaps are zeroed before
        # solving so the optimum never trades a real match for garbage.
        rem_g = [(gid, box) for gid, box in g_entries if gid not in matched]
        rem_h = [(hid, box) for hid, box in h_entries if hid not in used_h]
        if rem_g and rem_h:
            m = iou_matrix([b for _, b in rem_g], [b for _, b in rem_h])
            m = np.where(m >= iou_gate, m, 0.0)
            for ri, rj in solve_max(m, min_affinity=iou_gate).pairs:
                gid, hid = rem_g[ri][0], rem_h[rj][0]
                prev = corr.get(gid)
                if prev is not None and prev != hid:
                    ids += 1
                corr[gid] = hid
                matched[gid] = float(m[ri, rj])
                used_h.add(hid)

        matches += len(matched)
        iou_total += sum(matched.values())
        fn += len(g_entries) - len(matched)
        fp += len(h_entries) - len(used_h)

        for gid, _ in g_entries:
            present[gid] = present.get(gid, 0) + 1
            hit = gid in matched
            if hit:
                covered[gid] = covered.get(gid, 0) + 1
                if gid in ever_matched and last_status.get(gid) is False:
                    frag += 1
                ever_matched.add(gid)
            last_status[gid] = hit

    gt_total = sum(present.values())
    mt = ml = 0
    for gid, n in present.items():
        ratio = covered.get(gid, 0) / n
        if ratio >= MT_CUTOFF:
            mt += 1
        elif ratio <= ML_CUTOFF:
            ml += 1

    return MotReport(
        mota=1.0 - (fn + fp + ids) / max(gt_total, 1),
        # The scalar iou of numpy-valued boxes is a numpy float.
        motp=float(iou_total / matches) if matches else 0.0,
        ids=ids,
        mt=mt,
        ml=ml,
        frag=frag,
        fp=fp,
        fn=fn,
        gt_total=gt_total,
        matches=matches,
    )


_HIGHER_BETTER = ("mota", "motp", "mt")
_LOWER_BETTER = ("ids", "ml", "frag", "fp", "fn")


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[tuple[float, MotReport], ...]
    best: dict[str, tuple[float, float]]  # metric -> (threshold, value)
    best_mota_threshold: float

    @property
    def best_mota_report(self) -> MotReport:
        for thr, report in self.rows:
            if thr == self.best_mota_threshold:
                return report
        raise RuntimeError("sweep rows lost their best threshold")


def sweep_thresholds(
    gt: GtStream,
    hyp: ScoredHypStream,
    thresholds: Sequence[float] = DEFAULT_SWEEP_THRESHOLDS,
    iou_gate: float = 0.5,
) -> SweepResult:
    """Evaluate at several detection-score cutoffs and pick per-metric bests.

    A hypothesis box survives a cutoff when its score is >= the threshold.
    Ties on a metric keep the lowest threshold.
    """
    if not thresholds:
        raise ValueError("need at least one threshold")
    rows = []
    for thr in thresholds:
        filtered = {
            f: [(hid, box) for hid, box, score in entries if score >= thr]
            for f, entries in hyp.items()
        }
        rows.append((float(thr), evaluate(gt, filtered, iou_gate)))

    best: dict[str, tuple[float, float]] = {}
    for name in _HIGHER_BETTER + _LOWER_BETTER:
        sign = 1.0 if name in _HIGHER_BETTER else -1.0
        pick = None
        for thr, report in rows:
            value = float(getattr(report, name))
            if pick is None or sign * value > sign * pick[1]:
                pick = (thr, value)
        best[name] = pick
    return SweepResult(tuple(rows), best, best["mota"][0])


_COLUMNS = ("MOTA", "MOTP", "IDS", "MT", "ML", "Frag", "FP", "FN")


def _row_values(report: MotReport) -> list[str]:
    return [
        f"{100.0 * report.mota:.2f}",
        f"{100.0 * report.motp:.2f}",
        str(report.ids),
        str(report.mt),
        str(report.ml),
        str(report.frag),
        str(report.fp),
        str(report.fn),
    ]


def format_table(rows: Sequence[tuple[str, MotReport]]) -> str:
    """Fixed-width table, one row per (label, report)."""
    label_w = max([len("run")] + [len(label) for label, _ in rows])
    header = "run".ljust(label_w) + "".join(c.rjust(9) for c in _COLUMNS)
    lines = [header]
    for label, report in rows:
        lines.append(label.ljust(label_w) + "".join(v.rjust(9) for v in _row_values(report)))
    return "\n".join(lines)


def format_report(report: MotReport, prefix: str = "") -> str:
    """Machine-readable key=value lines. MOTA/MOTP are percentages."""
    pairs = [
        ("mota", f"{100.0 * report.mota:.4f}"),
        ("motp", f"{100.0 * report.motp:.4f}"),
        ("ids", str(report.ids)),
        ("mt", str(report.mt)),
        ("ml", str(report.ml)),
        ("frag", str(report.frag)),
        ("fp", str(report.fp)),
        ("fn", str(report.fn)),
        ("gt_total", str(report.gt_total)),
        ("matches", str(report.matches)),
    ]
    return "\n".join(f"{prefix}{k}={v}" for k, v in pairs)

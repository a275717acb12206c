"""CLEAR-style multi-object tracking metrics.

Correspondence bookkeeping follows the usual protocol: a ground-truth object
keeps its previously associated hypothesis id as long as the pair still
overlaps at the gate; everything else is re-matched per frame with a
Hungarian solve maximizing IoU. An id switch is counted when an object's
associated hypothesis id changes, and the switch also ends the previous
correspondence.

Each stream is an ``IdStream``, as ``generate``, ``read_gt`` and
``hypotheses`` return, or maps frame -> list of ``(id, box)`` pairs, which
``IdStream.pack`` joins once. ``evaluate`` sorts each stream's columns by
frame and id, numbers the ids densely, computes the box corners once, and
scores a frame with array operations on its rows' corners: the surviving
correspondences' overlaps in one pass, with the float operations of the
scalar ``iou``, then one Hungarian solve over the rest. MOTP adds each
frame's overlaps in one ``sum``: survivors by gt id, then Hungarian pairs in
solve order; the tests hold every report to a per-box reference, bit for
bit. ``sweep_thresholds`` applies one confidence mask per threshold.

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

# ``iou`` is not called here; perfbench/spans.py still counts calls to this name.
from .affinity import _corner_cells, _corners, _iou_corners, _pick, iou  # noqa: F401
from .assignment import solve_max
from .geometry import BBox, IdStream

__all__ = [
    "MotReport",
    "evaluate",
    "sweep_thresholds",
    "SweepResult",
    "DEFAULT_SWEEP_THRESHOLDS",
    "format_table",
    "format_report",
]

Stream = IdStream | Mapping[int, Sequence[tuple[int, BBox]] | Sequence[tuple[int, BBox, float]]]

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


class _Rows:
    """A stream's rows as columns sorted by frame, then id: frame
    ``frames[i]`` holds rows ``starts[i]:starts[i + 1]``, and ``corners``
    are their boxes' ``_corners``. ``index`` numbers the stream's ``n_ids``
    distinct ids densely from 0, in id order. ``repeat`` is ``(frame, id)``
    of the first id that repeats within a frame, or None."""

    def __init__(self, stream: IdStream, frames: np.ndarray):
        order = np.lexsort((stream.ids, stream.frames))
        at, ids = stream.frames[order], stream.ids[order]
        self.starts = [*np.searchsorted(at, frames).tolist(), len(at)]
        self.corners = _corners(stream.boxes.take(order, axis=0))
        same = np.flatnonzero((ids[1:] == ids[:-1]) & (at[1:] == at[:-1]))
        self.repeat = (int(at[same[0]]), int(ids[same[0]])) if same.size else None
        distinct, self.index = np.unique(ids, return_inverse=True)
        self.n_ids = len(distinct)


def evaluate(gt: Stream, hyp: Stream, iou_gate: float = 0.5) -> MotReport:
    """Score a hypothesis stream against ground truth.

    Each stream is an ``IdStream`` or a mapping that ``IdStream.pack``
    joins, frame -> [(id, box), ...]. Frames missing from a
    stream count as empty. Within a frame the rows are canonicalized by id
    so the result does not depend on input ordering; an id may appear once
    per frame.
    """
    if not 0.0 < iou_gate <= 1.0:
        raise ValueError(f"iou_gate must lie in (0, 1], got {iou_gate}")

    gt, hyp = IdStream.pack(gt), IdStream.pack(hyp)
    frames = np.unique(np.concatenate((gt.frames, hyp.frames)), return_index=True)[0]  # bare, it imports numpy.ma
    g_rows, h_rows = _Rows(gt, frames), _Rows(hyp, frames)
    repeats = [(rows.repeat, kind) for rows, kind in ((g_rows, "gt"), (h_rows, "hypothesis")) if rows.repeat]
    if repeats:
        (frame, obj_id), kind = min(repeats, key=lambda r: r[0][0])  # the gt frame first on a tie
        raise ValueError(f"duplicate {kind} id {obj_id} in frame {frame}")

    n_gt = g_rows.n_ids
    corr = np.full(n_gt, -1)  # each gt id's last associated hypothesis (dense index), or -1
    slot = np.full(h_rows.n_ids + 1, -1)  # each hypothesis' row in the frame; the last entry stays -1
    positions = np.arange(max(np.diff(h_rows.starts), default=0))
    hit = np.zeros(len(g_rows.index), dtype=bool)  # each gt row: matched in its frame
    fp = fn = ids = matches = 0
    iou_total = 0.0

    for i in range(len(frames)):
        g0, g1, h0, h1 = g_rows.starts[i], g_rows.starts[i + 1], h_rows.starts[i], h_rows.starts[i + 1]
        g, g_hit, h = g_rows.index[g0:g1], hit[g0:g1], h_rows.index[h0:h1]

        # Keep surviving correspondences first; when two gt ids still claim
        # one hypothesis, the lower id keeps it.
        slot[h] = positions[: len(h)]
        row = slot[corr[g]]
        slot[h] = -1
        kept = (row >= 0).nonzero()[0]
        used = row[kept]
        overlap = _iou_corners(_pick(g_rows.corners, kept + g0), _pick(h_rows.corners, used + h0))
        survive = overlap >= iou_gate
        kept, used, overlap = kept[survive], used[survive], overlap[survive]
        if len(set(used.tolist())) < len(used):
            first = np.sort(np.unique(used, return_index=True)[1])
            kept, used, overlap = kept[first], used[first], overlap[first]
        g_hit[kept] = True
        matched = overlap.tolist()

        # Hungarian over what is left. Sub-gate overlaps are zeroed before
        # solving so the optimum never trades a real match for garbage.
        if len(kept) < len(g) and len(used) < len(h):
            free_h = np.ones(len(h), dtype=bool)
            free_h[used] = False
            rem_g, rem_h = (~g_hit).nonzero()[0], free_h.nonzero()[0]
            m = _corner_cells(_pick(g_rows.corners, rem_g + g0), _pick(h_rows.corners, rem_h + h0))
            m = np.where(m >= iou_gate, m, 0.0)
            found = solve_max(m, min_affinity=iou_gate)
            ri, rj = found.rows, found.cols
            if ri.size:
                gid, hid = g[rem_g[ri]], h[rem_h[rj]]
                prev = corr[gid]
                ids += int(np.count_nonzero((prev >= 0) & (prev != hid)))
                corr[gid] = hid
                g_hit[rem_g[ri]] = True
                matched += m[ri, rj].tolist()

        matches += len(matched)
        iou_total += sum(matched)
        fn += len(g) - len(matched)
        fp += len(h) - len(matched)

    # Each gt id's rows in frame order: a Frag is a run of matched rows after
    # the id's first such run.
    order = np.argsort(g_rows.index, kind="stable")
    by_id, matched_row = g_rows.index[order], hit[order]
    run_start = matched_row.copy()
    run_start[1:] &= ~matched_row[:-1] | (by_id[1:] != by_id[:-1])
    covered = np.bincount(g_rows.index[hit], minlength=n_gt)
    frag = int(np.count_nonzero(run_start)) - int(np.count_nonzero(covered))
    ratio = covered / np.bincount(g_rows.index, minlength=n_gt)  # every id is present in some frame
    mt = int(np.count_nonzero(ratio >= MT_CUTOFF))
    ml = int(np.count_nonzero(ratio <= ML_CUTOFF))
    gt_total = len(g_rows.index)

    return MotReport(
        mota=1.0 - (fn + fp + ids) / max(gt_total, 1),
        motp=iou_total / matches if matches else 0.0,
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


def sweep_thresholds(
    gt: Stream,
    hyp: Stream,
    thresholds: Sequence[float] = DEFAULT_SWEEP_THRESHOLDS,
    iou_gate: float = 0.5,
) -> SweepResult:
    """Evaluate at several detection-score cutoffs and pick per-metric bests.

    A hypothesis box survives a cutoff when its score is >= the threshold.
    Ties on a metric keep the lowest threshold.
    """
    if not thresholds:
        raise ValueError("need at least one threshold")
    gt, hyp = IdStream.pack(gt), IdStream.pack(hyp)
    rows = [(float(thr), evaluate(gt, hyp.take(hyp.confidence >= thr), iou_gate)) for thr in thresholds]

    best: dict[str, tuple[float, float]] = {}
    for name in _HIGHER_BETTER + _LOWER_BETTER:
        sign = 1.0 if name in _HIGHER_BETTER else -1.0
        pick = None
        for thr, report in rows:
            value = float(getattr(report, name))
            if pick is None or sign * value > sign * pick[1]:
                pick = (thr, value)
        best[name] = pick
    return SweepResult(tuple(rows), best)


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

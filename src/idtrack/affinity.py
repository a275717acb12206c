"""Affinities between trajectories and detections, plus greedy NMS.

The combined affinity is a convex blend of box overlap and embedding
similarity: ``overlap_weight * IoU + identity_weight * max(0, cosine)``.
Every entry lands in [0, 1].

Overlap is scored by sort and sweep. Two boxes whose x-extents do not meet
have an IoU of exactly 0, and in a scene of spread boxes almost every pair
is such a pair. So the left edges are sorted once, ``searchsorted`` finds
each box's candidates, and only those pairs are scored, with the float
operations of the scalar ``iou``: NMS, the overlap term of phase 1 and the
re-match in ``metrics.evaluate`` are bit for bit what the dense pairwise
matrix gave, at a cost that grows with the boxes and their overlapping
pairs. A pairwise matrix of at most ``_DENSE_CELLS`` cells is still scored
dense, which is as fast at that size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .geometry import BBox, Detection, Detections, _box_rows, to_corner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tracker import Trajectory

__all__ = [
    "AffinityWeights",
    "WEIGHT_PRESETS",
    "iou",
    "combined_affinity",
    "nms",
]

_WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class AffinityWeights:
    """Blend weights for overlap vs identity. Must sum to 1."""

    overlap: float = 0.5
    identity: float = 0.5

    def __post_init__(self):
        # Both checks are written so that NaN fails them.
        if not (self.overlap >= 0 and self.identity >= 0):
            raise ValueError(f"affinity weights must be non-negative, got {self.overlap} and {self.identity}")
        if not abs(self.overlap + self.identity - 1.0) <= _WEIGHT_SUM_TOL:
            raise ValueError(
                f"affinity weights must sum to 1, got {self.overlap} + {self.identity}"
            )


# "default" is the balanced blend; "mot16" leans on identity, which holds up
# better when the scene is crowded and boxes overlap heavily.
WEIGHT_PRESETS = {
    "default": AffinityWeights(0.5, 0.5),
    "mot16": AffinityWeights(0.2, 0.8),
    "id-only": AffinityWeights(0.0, 1.0),
    "iou-only": AffinityWeights(1.0, 0.0),
}


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes. 0 for disjoint interiors, 1 for identical.

    The ratio is capped at 1: the corners are rounded, so for identical boxes
    the intersection can come out an ulp larger than the area.
    """
    al, at, ar, ab = to_corner(a)
    bl, bt, br, bb = to_corner(b)
    iw = min(ar, br) - max(al, bl)
    ih = min(ab, bb) - max(at, bt)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    return min(inter / union, 1.0)


# The dense broadcast makes a fixed count of numpy calls on n * m cells; the
# sweep makes about twice as many, each on the pairs it finds. On spread
# boxes at the benchmark scenes' density they take the same time from 40 x 40
# to 48 x 48 boxes (0.049 ms each, best of 9 x 300 calls on one core), and
# the sweep is ahead from 64 x 64 (0.053 vs 0.072 ms). NMS always sweeps: it
# wins at every size, from 4 boxes (0.038 vs 0.046 ms) up.
_DENSE_CELLS = 48 * 48


def _iou_cells(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of two ``(n, 4)`` center-form box arrays, shape ``(len(a),
    len(b))``: cell ``[i, j]`` is ``iou`` of rows ``a[i]`` and ``b[j]``, bit
    for bit. Up to ``_DENSE_CELLS`` cells every cell is scored; past that,
    only the pairs that ``_overlap_pairs`` finds, and every other cell is 0.0,
    as ``iou`` has it for boxes whose x-extents do not meet."""
    if len(a) * len(b) <= _DENSE_CELLS:
        return _iou_columns(a.T[:, :, None], b.T[:, None, :])
    out = np.zeros((len(a), len(b)))
    i, j = _overlap_pairs(a, b)
    out[i, j] = _iou_rows(a.take(i, axis=0), b.take(j, axis=0))
    return out


def _x_extents(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left and right edges of ``(n, 4)`` center-form boxes, with the float
    operations of ``to_corner`` (and so of ``_iou_columns``)."""
    half = boxes[:, 2] / 2.0
    return boxes[:, 0] - half, boxes[:, 0] + half


def _spans(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(k, v)`` for every k and every integer v in ``[lo[k], hi[k])``, as
    two flat arrays."""
    counts = np.maximum(hi - lo, 0)
    ends = np.cumsum(counts)
    owners = np.repeat(np.arange(len(lo)), counts)
    return owners, np.arange(ends[-1] if len(ends) else 0) + (lo - ends + counts).take(owners)


def _overlap_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs ``(i, j)`` of two non-empty ``(n, 4)`` center-form box
    arrays, each at most once, among them every pair with a positive
    intersection width: the sort and sweep.

    Such a pair has ``b_left[j] < a_right[i]`` and ``a_left[i] < b_right[j]
    <= b_left[j] + reach``, where ``reach`` is the widest x-extent in ``b``.
    So on ``b``'s sorted left edges, two ``searchsorted`` calls give each
    row's candidates: from ``a_left - reach`` up to ``a_right``. ``reach`` is
    rounded one ulp up and the lower end one ulp down, so that rounding
    cannot drop a pair. The work grows with the candidates, not with
    ``len(a) * len(b)``."""
    b_left, b_right = _x_extents(b)
    order = np.argsort(b_left, kind="stable")
    starts = b_left.take(order)
    reach = np.nextafter((b_right - b_left).max(), np.inf)
    a_left, a_right = _x_extents(a)
    lo = np.searchsorted(starts, np.nextafter(a_left - reach, -np.inf), "left")
    i, k = _spans(lo, np.searchsorted(starts, a_right, "left"))
    return i, order.take(k)


def _self_pairs(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each unordered pair of rows of one ``(n, 4)`` center-form box array
    that can have a positive intersection width, once, as ``(p, q)`` row
    arrays. In left-edge order such a pair has the later row's left edge
    before the earlier row's right edge, so a row's partners are the rows
    after it up to the ``searchsorted`` position of its right edge."""
    left, right = _x_extents(boxes)
    order = np.argsort(left, kind="stable")
    p, q = _spans(np.arange(1, len(order) + 1), np.searchsorted(left.take(order), right.take(order), "left"))
    return order.take(p), order.take(q)


def _iou_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``iou(a[k], b[k])`` for each row k of two ``(n, 4)`` center-form box
    arrays, bit for bit."""
    return _iou_columns(a.T, b.T)


def _iou_columns(a, b) -> np.ndarray:
    """The IoU of boxes given as ``(cx, cy, w, h)`` columns that broadcast
    together, with the float operations of :func:`iou`."""
    cx_a, cy_a, w_a, h_a = a
    cx_b, cy_b, w_b, h_b = b
    half_wa, half_ha, half_wb, half_hb = w_a / 2.0, h_a / 2.0, w_b / 2.0, h_b / 2.0
    iw = np.minimum(cx_a + half_wa, cx_b + half_wb) - np.maximum(cx_a - half_wa, cx_b - half_wb)
    ih = np.minimum(cy_a + half_ha, cy_b + half_hb) - np.maximum(cy_a - half_ha, cy_b - half_hb)
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    return np.minimum(inter / (w_a * h_a + w_b * h_b - inter), 1.0)


def combined_affinity(
    trajectories: Sequence["Trajectory"],
    detections: Detections,
    weights: AffinityWeights,
) -> np.ndarray:
    """Affinity matrix between trajectories (rows) and detections (cols).

    Args:
        trajectories: objects exposing ``head_box`` and ``head_embedding``.
        detections: one ``Detections`` batch; it must hold embeddings
            whenever ``weights.identity > 0``.
        weights: blend of overlap vs identity affinity.

    Returns:
        float64 array of shape (len(trajectories), len(detections)) with
        entries in [0, 1].
    """
    n, m = len(trajectories), len(detections)
    if n == 0 or m == 0:
        return np.zeros((n, m))

    out = np.zeros((n, m))
    if weights.overlap > 0.0:
        out += weights.overlap * _iou_cells(_box_rows([t.head_box for t in trajectories]), detections.boxes)
    if weights.identity > 0.0:
        for k, t in enumerate(trajectories):
            if t.head_embedding is None:
                raise ValueError(
                    f"trajectory {getattr(t, 'track_id', k)} has no embedding but identity weight is {weights.identity}"
                )
        if missing := detections.missing_embedding():
            raise ValueError(f"{missing} but identity weight is {weights.identity}")
        emb_t = np.array([t.head_embedding for t in trajectories])
        # Negative cosine carries no evidence of identity; the cap at one
        # absorbs float drift.
        out += weights.identity * np.clip(emb_t @ detections.embeddings.T, 0.0, 1.0)
    return out


def nms(detections: Detections | Sequence[Detection], iou_threshold: float) -> Detections:
    """Greedy non-maximum suppression.

    Candidates are visited in descending confidence (ties: lower input index
    first); a candidate is dropped when it overlaps an already kept box with
    IoU strictly above the threshold. ``detections`` is a batch, or a list of
    ``Detection`` views of one batch, which ``Detections.pack`` turns into a
    batch first. The survivors come back as a new ``Detections`` batch in
    their original relative order. Only the pairs whose x-extents meet are
    scored (``_self_pairs``), so time and memory grow with the detections
    and those pairs, not with their square; the pairs above the threshold
    are then visited one by one in rank order.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in [0, 1], got {iou_threshold}")
    detections = Detections.pack(detections)
    return detections.take(_survivors(detections.boxes, detections.confidence, iou_threshold))


def _survivors(boxes: np.ndarray, confidence: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Sorted row indices that greedy NMS keeps."""
    order = np.argsort(-confidence, kind="stable")
    ranked = boxes.take(order, axis=0)
    p, q = _self_pairs(ranked)
    above = _iou_rows(ranked.take(p, axis=0), ranked.take(q, axis=0)) > iou_threshold
    alive = [True] * len(order)
    # In rank order, the first of each pair suppresses the second if it is kept.
    for k, j in sorted(zip(np.minimum(p, q)[above].tolist(), np.maximum(p, q)[above].tolist())):
        if alive[k]:
            alive[j] = False
    return np.sort(order[np.array(alive, dtype=bool)])

"""Affinities between trajectories and detections, plus greedy NMS.

The combined affinity is a convex blend of box overlap and embedding
similarity: ``overlap_weight * IoU + identity_weight * max(0, cosine)``.
Every entry lands in [0, 1].
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


def _iou_cells(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of two ``(n, 4)`` center-form box arrays, shape ``(len(a),
    len(b))``: cell ``[i, j]`` is ``iou`` of rows ``a[i]`` and ``b[j]``, bit
    for bit."""
    if not len(a) or not len(b):
        return np.zeros((len(a), len(b)))
    return _iou_columns(a.T[:, :, None], b.T[:, None, :])


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
    their original relative order. One pairwise IoU matrix serves the whole
    frame, so memory is O(n²) in the number of detections; only the
    candidates that overlap a later one above the threshold are visited one
    by one.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in [0, 1], got {iou_threshold}")
    detections = Detections.pack(detections)
    return detections.take(_survivors(detections.boxes, detections.confidence, iou_threshold))


def _survivors(boxes: np.ndarray, confidence: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Sorted row indices that greedy NMS keeps."""
    order = np.argsort(-confidence, kind="stable")
    ranked = boxes[order]
    suppresses = np.triu(_iou_cells(ranked, ranked) > iou_threshold, 1)
    alive = np.ones(len(order), dtype=bool)
    for k in np.flatnonzero(suppresses.any(axis=1)).tolist():
        if alive[k]:
            alive &= ~suppresses[k]
    return np.sort(order[alive])

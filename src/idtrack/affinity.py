"""Affinities between trajectories and detections, plus greedy NMS.

The combined affinity is a convex blend of box overlap and embedding
similarity: ``overlap_weight * IoU + identity_weight * max(0, cosine)``.
Every entry lands in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .geometry import BBox, Detection, to_corner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tracker import Trajectory

__all__ = [
    "AffinityWeights",
    "WEIGHT_PRESETS",
    "iou",
    "iou_matrix",
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


def iou_matrix(boxes_a: Sequence[BBox], boxes_b: Sequence[BBox]) -> np.ndarray:
    """Pairwise IoU, shape (len(a), len(b)).

    Every cell takes the same float operations as :func:`iou`, so
    ``iou_matrix(a, b)[i, j] == iou(a[i], b[j])`` holds bit for bit.
    """
    if not boxes_a or not boxes_b:
        return np.zeros((len(boxes_a), len(boxes_b)))
    cx_a, cy_a, w_a, h_a = np.array([(b.cx, b.cy, b.w, b.h) for b in boxes_a], dtype=np.float64).T[:, :, None]
    cx_b, cy_b, w_b, h_b = np.array([(b.cx, b.cy, b.w, b.h) for b in boxes_b], dtype=np.float64).T[:, None, :]
    iw = np.minimum(cx_a + w_a / 2.0, cx_b + w_b / 2.0) - np.maximum(cx_a - w_a / 2.0, cx_b - w_b / 2.0)
    ih = np.minimum(cy_a + h_a / 2.0, cy_b + h_b / 2.0) - np.maximum(cy_a - h_a / 2.0, cy_b - h_b / 2.0)
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    return np.minimum(inter / (w_a * h_a + w_b * h_b - inter), 1.0)


def combined_affinity(
    trajectories: Sequence["Trajectory"],
    detections: Sequence[Detection],
    weights: AffinityWeights,
) -> np.ndarray:
    """Affinity matrix between trajectories (rows) and detections (cols).

    Args:
        trajectories: objects exposing ``head_box`` and ``head_embedding``.
        detections: candidate detections; each must carry an embedding
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
        out += weights.overlap * iou_matrix([t.head_box for t in trajectories], [d.box for d in detections])
    if weights.identity > 0.0:
        for k, t in enumerate(trajectories):
            if t.head_embedding is None:
                raise ValueError(
                    f"trajectory {getattr(t, 'track_id', k)} has no embedding but identity weight is {weights.identity}"
                )
        for k, d in enumerate(detections):
            if d.embedding is None:
                raise ValueError(f"detection {k} has no embedding but identity weight is {weights.identity}")
        emb_t = np.array([t.head_embedding for t in trajectories])
        emb_d = np.array([d.embedding for d in detections])
        # Negative cosine carries no evidence of identity; the cap at one
        # absorbs float drift.
        out += weights.identity * np.clip(emb_t @ emb_d.T, 0.0, 1.0)
    return out


def nms(detections: Sequence[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy non-maximum suppression.

    Candidates are visited in descending confidence (ties: lower input index
    first); a candidate is dropped when it overlaps an already kept box with
    IoU strictly above the threshold. Survivors come back in their original
    relative order. One pairwise :func:`iou_matrix` serves the whole frame,
    so memory is O(n²) in the number of detections.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in [0, 1], got {iou_threshold}")
    order = np.argsort([-d.confidence for d in detections], kind="stable")
    boxes = [detections[i].box for i in order]
    suppresses = iou_matrix(boxes, boxes) > iou_threshold
    alive = np.ones(len(order), dtype=bool)
    for k in range(len(order)):
        if alive[k]:
            alive[k + 1 :] &= ~suppresses[k, k + 1 :]
    return [detections[i] for i in np.sort(order[alive])]

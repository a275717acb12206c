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
        if self.overlap < 0 or self.identity < 0:
            raise ValueError("affinity weights must be non-negative")
        if abs(self.overlap + self.identity - 1.0) > _WEIGHT_SUM_TOL:
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
    """Intersection-over-union of two boxes. 0 for disjoint interiors, 1 for identical."""
    al, at, ar, ab = to_corner(a)
    bl, bt, br, bb = to_corner(b)
    iw = min(ar, br) - max(al, bl)
    ih = min(ab, bb) - max(at, bt)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    return inter / union


def iou_matrix(boxes_a: Sequence[BBox], boxes_b: Sequence[BBox]) -> np.ndarray:
    """Pairwise IoU, shape (len(a), len(b)). Vectorized over corner arrays."""
    if not boxes_a or not boxes_b:
        return np.zeros((len(boxes_a), len(boxes_b)))
    ca = np.array([to_corner(b) for b in boxes_a])  # (n, 4)
    cb = np.array([to_corner(b) for b in boxes_b])  # (m, 4)
    iw = np.minimum(ca[:, None, 2], cb[None, :, 2]) - np.maximum(ca[:, None, 0], cb[None, :, 0])
    ih = np.minimum(ca[:, None, 3], cb[None, :, 3]) - np.maximum(ca[:, None, 1], cb[None, :, 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (ca[:, 2] - ca[:, 0]) * (ca[:, 3] - ca[:, 1])
    area_b = (cb[:, 2] - cb[:, 0]) * (cb[:, 3] - cb[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return np.where(inter > 0.0, inter / union, 0.0)


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
        emb_t = np.stack([t.head_embedding for t in trajectories])
        emb_d = np.stack([d.embedding for d in detections])
        # Negative cosine carries no evidence of identity; the cap at one
        # absorbs float drift.
        out += weights.identity * np.clip(emb_t @ emb_d.T, 0.0, 1.0)
    return out


def nms(detections: Sequence[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy non-maximum suppression.

    Candidates are visited in descending confidence (ties: lower input index
    first); a candidate is dropped when it overlaps an already kept box with
    IoU strictly above the threshold. Survivors come back in their original
    relative order.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in [0, 1], got {iou_threshold}")
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].confidence, i))
    keep = [False] * len(detections)
    kept_boxes: list[BBox] = []
    for i in order:
        box = detections[i].box
        if all(iou(box, kb) <= iou_threshold for kb in kept_boxes):
            keep[i] = True
            kept_boxes.append(box)
    return [d for i, d in enumerate(detections) if keep[i]]

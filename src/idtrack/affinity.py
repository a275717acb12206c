"""Affinities between trajectories and detections, plus greedy NMS.

The combined affinity is a convex blend of box overlap and embedding
similarity: ``overlap_weight * IoU + identity_weight * max(0, cosine)``.
Every entry lands in [0, 1].

Overlap is scored from each box array's corners and areas, worked out once
per array, with the float operations of the scalar ``iou``: NMS, the
overlap term of phase 1 and the re-match in ``metrics.evaluate`` are bit for
bit what ``iou`` gives. A matrix of at most ``_DENSE_CELLS`` cells, which
is the 32-identity frame's NMS and phase 1, is scored dense. Past that, the
sort and sweep scores only the pairs whose x-extents meet (every other pair
has an IoU of exactly 0): the left edges are sorted once and
``searchsorted`` finds each box's candidates, at a cost that grows with
the boxes and their overlapping pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .geometry import BBox, Detection, Detections, _view_rows, to_corner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tracker import Trajectories

__all__ = [
    "AffinityWeights",
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


# Dense scoring makes a fixed count of numpy calls on n * m cells, the sweep
# about twice as many on the pairs it finds. They cross between 40 x 40 and
# 48 x 48 spread boxes, and NMS's two paths near 45 boxes.
_DENSE_CELLS = 48 * 48


def _corners(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(low, high, area)`` of an ``(n, 4)`` centre-form box array: the left
    and top edges ``(2, n)``, the right and bottom ones, and the areas, with
    the float operations of ``to_corner`` and ``iou``."""
    columns = np.ascontiguousarray(boxes.T)
    half = columns[2:] / 2.0
    return columns[:2] - half, columns[:2] + half, columns[2] * columns[3]


def _outer(a, b) -> tuple[tuple, tuple]:
    """Corners ``a`` and ``b`` shaped to broadcast into ``(len(a), len(b))``."""
    (low_a, high_a, area_a), (low_b, high_b, area_b) = a, b
    return (low_a[:, :, None], high_a[:, :, None], area_a[:, None]), (low_b[:, None], high_b[:, None], area_b)


def _pick(corners, index: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The corners of the rows ``index``."""
    low, high, area = corners
    return low.take(index, axis=1), high.take(index, axis=1), area.take(index)


def _iou_corners(a, b) -> np.ndarray:
    """The IoU of boxes given as corners that broadcast together, with the
    float operations of :func:`iou`; a side clipped to +0.0 stands for its
    early return."""
    (low_a, high_a, area_a), (low_b, high_b, area_b) = a, b
    sides = np.minimum(high_a, high_b)
    sides -= np.maximum(low_a, low_b)
    np.maximum(sides, 0.0, out=sides)
    inter = sides[0] * sides[1]
    union = area_a + area_b
    union -= inter
    np.divide(inter, union, out=inter)
    return np.minimum(inter, 1.0, out=inter)


def _iou_cells(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of two ``(n, 4)`` center-form box arrays, shape ``(len(a),
    len(b))``: cell ``[i, j]`` is ``iou`` of rows ``a[i]`` and ``b[j]``, bit
    for bit. Up to ``_DENSE_CELLS`` cells every cell is scored; past that,
    only the pairs that ``_overlap_pairs`` finds, and every other cell is 0.0,
    as ``iou`` has it for boxes whose x-extents do not meet."""
    corners_a, corners_b = _corners(a), _corners(b)
    if len(a) * len(b) <= _DENSE_CELLS:
        return _iou_corners(*_outer(corners_a, corners_b))
    out = np.zeros((len(a), len(b)))
    i, j = _overlap_pairs(corners_a, corners_b)
    out[i, j] = _iou_corners(_pick(corners_a, i), _pick(corners_b, j))
    return out


def _spans(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(k, v)`` for every k and every integer v in ``[lo[k], hi[k])``, as
    two flat arrays."""
    counts = np.maximum(hi - lo, 0)
    ends = np.cumsum(counts)
    owners = np.repeat(np.arange(len(lo)), counts)
    return owners, np.arange(ends[-1] if len(ends) else 0) + (lo - ends + counts).take(owners)


def _overlap_pairs(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs ``(i, j)`` of two non-empty box arrays, given as corners,
    each at most once, among them every pair with a positive intersection
    width: the sort and sweep.

    Such a pair has ``b_left[j] < a_right[i]`` and ``a_left[i] < b_right[j]
    <= b_left[j] + reach``, where ``reach`` is the widest x-extent in ``b``.
    So on ``b``'s sorted left edges, two ``searchsorted`` calls give each
    row's candidates: from ``a_left - reach`` up to ``a_right``. ``reach`` is
    rounded one ulp up and the lower end one ulp down, so that rounding
    cannot drop a pair. The work grows with the candidates, not with
    ``len(a) * len(b)``."""
    b_left, b_right = b[0][0], b[1][0]
    order = np.argsort(b_left, kind="stable")
    starts = b_left.take(order)
    reach = np.nextafter((b_right - b_left).max(), np.inf)
    lo = np.searchsorted(starts, np.nextafter(a[0][0] - reach, -np.inf), "left")
    i, k = _spans(lo, np.searchsorted(starts, a[1][0], "left"))
    return i, order.take(k)


def _self_pairs(corners) -> tuple[np.ndarray, np.ndarray]:
    """Each unordered pair of rows of one box array, given as corners, that
    can have a positive intersection width, once, as ``(p, q)`` row arrays.
    In left-edge order such a pair has the later row's left edge before the
    earlier row's right edge, so a row's partners are the rows after it up
    to the ``searchsorted`` position of its right edge."""
    left, right = corners[0][0], corners[1][0]
    order = np.argsort(left, kind="stable")
    p, q = _spans(np.arange(1, len(order) + 1), np.searchsorted(left.take(order), right.take(order), "left"))
    return order.take(p), order.take(q)


def combined_affinity(trajectories: "Trajectories", detections: Detections, weights: AffinityWeights) -> np.ndarray:
    """Affinity matrix between trajectories (rows) and detections (cols).

    Args:
        trajectories: the rows to score, as ``tracker.Trajectories`` gives
            them: head boxes ``boxes`` ``(n, 4)``, head embeddings
            ``embeddings`` ``(n, D)`` and ``missing_embedding()``, each read
            once.
        detections: one ``Detections`` batch; it must hold embeddings
            whenever ``weights.identity > 0``, as must every trajectory.
        weights: blend of overlap vs identity affinity.

    Returns:
        float64 array of shape (len(trajectories), len(detections)) with
        entries in [0, 1].
    """
    n, m = len(trajectories), len(detections)
    if n == 0 or m == 0:
        return np.zeros((n, m))

    # 0.0 + overlap * IoU + identity * cosine, in that order, in one matrix.
    # The overlap term is never -0.0, so it stands for its own ``0.0 +``.
    out = _iou_cells(trajectories.boxes, detections.boxes) if weights.overlap > 0.0 else np.zeros((n, m))
    out *= weights.overlap
    if weights.identity > 0.0:
        for rows in (trajectories, detections):
            if missing := rows.missing_embedding():
                raise ValueError(f"{missing} but identity weight is {weights.identity}")
        # Negative cosine carries no evidence of identity; the cap at one
        # absorbs float drift.
        cosine = np.clip(trajectories.embeddings @ detections.embeddings.T, 0.0, 1.0)
        cosine *= weights.identity
        out += cosine
    return out


def nms(detections: Detections | Sequence[Detection], iou_threshold: float) -> Detections:
    """Greedy non-maximum suppression.

    Candidates are visited in descending confidence (ties: lower input index
    first); a candidate is dropped when it overlaps an already kept box with
    IoU strictly above the threshold. ``detections`` is a batch, or a list of
    ``Detection`` views of one batch. The survivors come back as one ``take``
    of that batch, in their original relative order. Up to ``_DENSE_CELLS``
    pairs a frame is scored dense; past that only the pairs whose x-extents
    meet are (``_self_pairs``), so time and memory grow with the detections
    and those pairs, not with their square. The pairs above the threshold
    are then visited one by one in rank order.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in [0, 1], got {iou_threshold}")
    if isinstance(detections, Detections):
        return detections.take(_survivors(detections.boxes, detections.confidence, iou_threshold))
    batch, rows = _view_rows(detections)
    kept = _survivors(batch.boxes.take(rows, axis=0), batch.confidence.take(rows), iou_threshold)
    return batch.take(rows.take(kept))


def _survivors(boxes: np.ndarray, confidence: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Sorted row indices that greedy NMS keeps."""
    n = len(confidence)
    order = (-confidence).argsort(kind="stable")
    corners = _corners(boxes.take(order, axis=0))
    if n * n <= _DENSE_CELLS:
        k, j = (_iou_corners(*_outer(corners, corners)) > iou_threshold).nonzero()
        upper = k < j
        pairs = zip(k[upper].tolist(), j[upper].tolist())  # row-major, so in rank order
    else:
        p, q = _self_pairs(corners)
        above = _iou_corners(_pick(corners, p), _pick(corners, q)) > iou_threshold
        pairs = sorted(zip(np.minimum(p, q)[above].tolist(), np.maximum(p, q)[above].tolist()))
    alive = [True] * n
    # In rank order, the first of each pair suppresses the second if it is kept.
    for k, j in pairs:
        if alive[k]:
            alive[j] = False
    return np.arange(n) if all(alive) else np.sort(order.compress(alive))

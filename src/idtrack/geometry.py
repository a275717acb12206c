"""Axis-aligned boxes and detections shared by the whole package.

Boxes live in center form (cx, cy, w, h); corner form (left, top, right,
bottom) only appears at file-format boundaries and inside IoU math. A
detection carries no frame number: streams are ``{frame: Detections}``
mappings, and the key is the one place a frame number lives.

``Detections`` is one frame's detections as columns: an ``(n, 4)`` box
array, confidences, optional unit embeddings and optional predicted boxes.
It is the one stored form of a frame's detections. Producers (the file
readers and the simulator) build one per frame and consumers (NMS,
affinity, the tracker, the writers) read its arrays. Iterating a batch
yields ``Detection`` views, each a batch, a row index and its confidence,
reading its other values from the arrays; none is kept.

``IdBoxes`` is one frame of ground truth or tracker hypotheses the same
way; iterating one yields ``(id, BBox)`` pairs. ``IdStream`` is a whole
stream as one column set (frames, ids, boxes, confidences), which
``read_gt`` and ``hypotheses`` return and ``evaluate``, ``sweep_thresholds``
and the writers read. ``_check_fields`` is the field rule of every config
dataclass.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields
from itertools import repeat
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "BBox",
    "Detection",
    "Detections",
    "IdBoxes",
    "IdStream",
    "to_corner",
]

UNIT_NORM_TOL = 1e-6


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned box, center form. Width and height must be positive."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if fault := _shape_fault(self.cx, self.cy, self.w, self.h):
            raise ValueError(fault)


# The numeric domain of every box that a reader or a batch accepts. Inside
# it every corner, area, union and affinity stays finite and no area
# underflows. The MOT writers' six decimals write a side of MIN_SIDE or more
# as at least 0.000001 (corner rounding moves it by 3e-8 at most), and such
# a side reads back as more than 0.97e-6, so a box that a writer writes is
# one its reader takes back. (At 1e-6 itself a side written as 0.000001 read
# back as 0.998e-6 beside a centre of 5e7.)
BOX_LIMIT = 1e8  # most that |cx|, |cy|, w and h may be
MIN_SIDE = 6e-7  # least that w and h may be: above half the writers' 1e-6 resolution


def _shape_fault(cx: float, cy: float, w: float, h: float) -> str | None:
    """Why ``BBox`` rejects a box: its first value that is not finite, or a
    size that is not positive; None for a good box, which passes one test."""
    if w > 0 and h > 0 and math.isfinite(cx + cy + w + h):
        return None
    for name, v in zip(("cx", "cy", "w", "h"), (cx, cy, w, h)):
        if not math.isfinite(v):
            return f"BBox.{name} must be finite, got {v!r}"
    if w <= 0 or h <= 0:
        return f"BBox needs positive size, got w={w}, h={h}"
    return None


def _box_fault(cx: float, cy: float, w: float, h: float) -> str | None:
    """Why a reader or a batch rejects a box: ``BBox``'s own reason, a value
    beyond ``BOX_LIMIT`` in magnitude or a side below ``MIN_SIDE``; None for a
    box that ``_good_boxes`` passes."""
    if fault := _shape_fault(cx, cy, w, h):
        return fault
    for name, v in zip(("cx", "cy", "w", "h"), (cx, cy, w, h)):
        if abs(v) > BOX_LIMIT:
            return f"box {name} must be at most {BOX_LIMIT:g} in magnitude, got {v!r}"
    if w < MIN_SIDE or h < MIN_SIDE:
        return f"box sides must be at least {MIN_SIDE:g}, got w={w}, h={h}"
    return None


def _check_fields(config) -> None:
    """Refuse a config dataclass whose field does not hold what its default
    holds: an int, a finite number (an int or a float), a pair of them, or
    an instance of the default's class. A bool is no number. The error
    names the field."""
    for f in fields(config):
        value = getattr(config, f.name)
        default = f.default_factory() if f.default is MISSING else f.default
        if not isinstance(default, (numbers.Real, tuple)):
            if not isinstance(value, type(default)):
                raise TypeError(f"{f.name} must be one {type(default).__name__}, got {value!r}")
            continue
        pair = isinstance(default, tuple)
        entries = value if isinstance(value, tuple) else (value,)
        kind = numbers.Integral if isinstance(default[0] if pair else default, int) else numbers.Real
        if (pair != isinstance(value, tuple) or len(entries) != (len(default) if pair else 1)
                or not all(isinstance(v, kind) and not isinstance(v, bool) for v in entries)):
            noun = "int" if kind is numbers.Integral else "number"
            raise TypeError(f"{f.name} must be {f'a pair of {noun}s' if pair else f'one {noun}'}, got {value!r}")
        if not all(math.isfinite(v) for v in entries if not isinstance(v, numbers.Integral)):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def to_corner(box: BBox) -> tuple[float, float, float, float]:
    """Center form -> (left, top, right, bottom)."""
    half_w = box.w / 2.0
    half_h = box.h / 2.0
    return (box.cx - half_w, box.cy - half_h, box.cx + half_w, box.cy + half_h)


def _row_norms(m: np.ndarray) -> np.ndarray:
    """L2 norm of each row of a 2-D float64 array, bit-equal to per-row
    ``np.linalg.norm`` (one BLAS dot per row)."""
    return np.sqrt((m[:, None, :] @ m[:, :, None])[:, 0, 0])


def _box_rows(boxes: Sequence[BBox]) -> np.ndarray:
    """``(n, 4)`` float64 array of BBox values."""
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


def _good_boxes(boxes: np.ndarray, margin: float = 0.0) -> np.ndarray:
    """Per row: whether the box lies in the domain that ``_box_fault``
    checks (a NaN fails every comparison), or at least ``margin`` inside
    each of its bounds. Column by column, which is several times faster
    than comparing the whole array and reducing each row."""
    cx, cy, w, h = boxes.T
    most, least = BOX_LIMIT - margin, MIN_SIDE + margin
    return ((np.abs(cx) <= most) & (np.abs(cy) <= most) & (w >= least) & (w <= most) & (h >= least) & (h <= most))


def _box_array(values, n: int, what: str) -> np.ndarray:
    boxes = np.asarray(values, dtype=np.float64)
    if boxes.size == 0:
        boxes = boxes.reshape(0, 4)
    if boxes.shape != (n, 4):
        raise ValueError(f"{what} must have shape ({n}, 4), got {boxes.shape}")
    return boxes


def _first_false(ok: np.ndarray) -> int | None:
    """The first position where the 1-D ``ok`` is False, or None. One count
    passes the common case; the position is looked for only when it fails."""
    if np.count_nonzero(ok) == len(ok):
        return None
    return int((~ok).nonzero()[0][0])


def _frame_rows(frames: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Each frame with the positions of its rows in order, frames in order
    of first appearance."""
    order = np.argsort(frames, kind="stable")
    keys, first, counts = np.unique(frames, return_index=True, return_counts=True)
    ends = np.cumsum(counts).tolist()
    for k in np.argsort(first).tolist():
        yield int(keys[k]), order[ends[k] - int(counts[k]) : ends[k]]


class Detections:
    """One frame's detections as columns.

    ``boxes`` is ``(n, 4)`` in center form, ``confidence`` ``(n,)``,
    ``embeddings`` ``(n, D)`` unit rows or None, and ``predictions``
    ``(n, 4)`` next-frame boxes where the ``(n,)`` mask ``predicted`` is
    True (both None when no row has one). Either every row has an embedding
    or none does. The constructor checks the whole batch at once: boxes
    and predictions in the box domain (see ``_box_fault``), confidences in
    [0, 1] and embedding norms within ``UNIT_NORM_TOL`` of 1; an error
    names the first bad row. A batch is not modified after it is built;
    ``take`` makes a new one.

    ``len()`` and iteration work as on a list; each row is a ``Detection``
    view that reads its values from the batch's arrays, made when it is
    asked for and not kept.
    """

    __slots__ = ("boxes", "confidence", "embeddings", "predictions", "predicted")

    def __init__(self, boxes, confidence, embeddings=None, predictions=None, predicted=None):
        confidence = np.asarray(confidence, dtype=np.float64).reshape(-1)
        n = confidence.shape[0]
        boxes = _box_array(boxes, n, "boxes")
        k = _first_false(_good_boxes(boxes))
        if k is not None:
            raise ValueError(f"detection {k}: {_box_fault(*boxes[k].tolist())}")
        k = _first_false((confidence >= 0.0) & (confidence <= 1.0))
        if k is not None:
            raise ValueError(f"detection {k}: confidence must lie in [0, 1], got {confidence[k]}")
        if embeddings is not None:
            embeddings = np.asarray(embeddings, dtype=np.float64)
            if embeddings.ndim != 2 or embeddings.shape[0] != n:
                raise ValueError(f"embeddings must have shape ({n}, D), got {embeddings.shape}")
            with np.errstate(over="ignore", invalid="ignore"):
                norms = _row_norms(embeddings)
            k = _first_false(np.abs(norms - 1.0) <= UNIT_NORM_TOL)  # a NaN norm fails too
            if k is not None:
                raise ValueError(
                    f"detection {k}: embedding must be L2-normalized (|norm-1| <= {UNIT_NORM_TOL}), got norm={norms[k]}"
                )
        if predictions is not None:
            predictions = _box_array(predictions, n, "predictions")
            predicted = np.ones(n, dtype=bool) if predicted is None else np.asarray(predicted, dtype=bool).reshape(n)
            k = _first_false(_good_boxes(predictions) | ~predicted)
            if k is not None:
                raise ValueError(f"detection {k}: prediction: {_box_fault(*predictions[k].tolist())}")
        elif predicted is not None:
            raise ValueError("a prediction mask needs predictions")
        self._set(boxes, confidence, embeddings, predictions, predicted)

    def _set(self, boxes, confidence, embeddings, predictions, predicted) -> None:
        self.boxes, self.confidence, self.embeddings = boxes, confidence, embeddings
        self.predictions, self.predicted = predictions, predicted

    @classmethod
    def _checked(cls, boxes, confidence, embeddings=None, predictions=None, predicted=None) -> "Detections":
        """A batch of arrays that are already float64, shaped and valid (read
        and checked in bulk, or taken from a batch)."""
        batch = cls.__new__(cls)
        batch._set(boxes, confidence, embeddings, predictions, predicted)
        return batch

    def missing_embedding(self) -> str | None:
        """Why a non-empty batch holds no embedding matrix (None when it holds
        one, or is empty)."""
        return None if self.embeddings is not None or not len(self) else "detection 0 has no embedding"

    def take(self, index) -> "Detections":
        """The rows that ``index`` (integers or a boolean mask) selects, as a
        new batch."""
        if isinstance(index, np.ndarray) and index.dtype == bool:
            index = np.arange(len(self))[index]  # a mask of another length fails here
        else:
            index = np.asarray(index, dtype=np.intp)
        return Detections._checked(  # ``take`` copies rows about twice as fast as fancy indexing
            self.boxes.take(index, axis=0),
            self.confidence.take(index),
            None if self.embeddings is None else self.embeddings.take(index, axis=0),
            None if self.predictions is None else self.predictions.take(index, axis=0),
            None if self.predicted is None else self.predicted.take(index),
        )

    def __len__(self) -> int:
        return self.confidence.shape[0]

    def __iter__(self) -> Iterator["Detection"]:
        return map(Detection, repeat(self, len(self)), range(len(self)), self.confidence.tolist())


def _view_rows(views: Sequence["Detection"]) -> tuple[Detections, np.ndarray]:
    """The batch that the ``Detection`` views ``views`` are rows of (empty for
    no views), and their row indices as one array; one batch only."""
    if not len(views):
        return Detections._checked(np.zeros((0, 4)), np.zeros(0)), np.zeros(0, dtype=np.intp)
    batch = views[0].batch
    index = [d.index for d in views if d.batch is batch]  # checked and collected in one pass
    if len(index) != len(views):
        raise ValueError("views must be rows of one batch")
    return batch, np.array(index, dtype=np.intp)


class Detection:
    """One row of a ``Detections`` batch, as iterating the batch yields it: a
    view that holds ``batch``, its row ``index`` and the row's ``confidence``
    (batches are never modified), and reads the row's other values from the
    batch's arrays on each access.

    ``box`` is a ``BBox``, ``confidence`` a float, ``embedding`` the row of
    the batch's unit embedding matrix or None, and ``prediction``, the box
    where the object is expected in the frame after this detection's, a
    ``BBox`` or None. A detection does not know its frame; a stream keys its
    batches by frame. Views compare by identity.
    """

    __slots__ = ("batch", "index", "confidence")

    def __init__(self, batch: Detections, index: int, confidence: float):
        self.batch, self.index, self.confidence = batch, index, confidence

    @property
    def box(self) -> BBox:
        return BBox(*self.batch.boxes[self.index].tolist())

    @property
    def embedding(self) -> np.ndarray | None:
        embeddings = self.batch.embeddings
        return None if embeddings is None else embeddings[self.index]

    @property
    def prediction(self) -> BBox | None:
        batch = self.batch
        if batch.predicted is None or not batch.predicted[self.index]:
            return None
        return BBox(*batch.predictions[self.index].tolist())


class IdBoxes:
    """One frame of ground truth or hypotheses as columns.

    ``ids`` is ``(n,)`` int64, ``boxes`` ``(n, 4)`` in center form and
    ``confidence`` ``(n,)``, 1 for every row unless given. The constructor
    checks the whole batch at once: integer ids, boxes in the box domain
    (see ``_box_fault``) and finite confidences; an error names the first
    bad row. What a repeated id means is up to whoever reads the frame. A
    batch is not modified after it is built.

    ``len()`` works as on a list, and iteration yields ``(id, BBox)`` pairs,
    the list form that ``evaluate`` also takes.
    """

    __slots__ = ("ids", "boxes", "confidence")

    def __init__(self, ids, boxes, confidence=None):
        ids = np.asarray(ids).reshape(-1)
        if ids.size and ids.dtype.kind not in "iu":
            raise ValueError(f"ids must be integers, got dtype {ids.dtype}")
        n = ids.shape[0]
        boxes = _box_array(boxes, n, "boxes")
        k = _first_false(_good_boxes(boxes))
        if k is not None:
            raise ValueError(f"row {k}: {_box_fault(*boxes[k].tolist())}")
        confidence = np.ones(n) if confidence is None else np.asarray(confidence, dtype=np.float64).reshape(-1)
        if confidence.shape != (n,):
            raise ValueError(f"confidence must have shape ({n},), got {confidence.shape}")
        k = _first_false(np.isfinite(confidence))
        if k is not None:
            raise ValueError(f"row {k}: confidence must be finite, got {confidence[k]}")
        self.ids, self.boxes, self.confidence = ids.astype(np.int64, copy=False), boxes, confidence

    @classmethod
    def _checked(cls, ids, boxes, confidence) -> "IdBoxes":
        """A batch of arrays that are already int64 and float64, shaped and
        valid (read and checked in bulk, or taken from a batch)."""
        batch = cls.__new__(cls)
        batch.ids, batch.boxes, batch.confidence = ids, boxes, confidence
        return batch

    @classmethod
    def pack(cls, rows: Sequence[tuple]) -> "IdBoxes":
        """One batch holding ``(id, box)`` or ``(id, box, confidence)`` rows,
        confidence 1 where a row has none, checked as the constructor checks
        a batch (a batch is returned as it is)."""
        if isinstance(rows, IdBoxes):
            return rows
        ids = np.array([row[0] for row in rows], dtype=np.int64)
        confidence = np.array([row[2] if len(row) > 2 else 1.0 for row in rows], dtype=np.float64)
        return cls(ids, _box_rows([row[1] for row in rows]), confidence)

    def __len__(self) -> int:
        return self.ids.shape[0]

    def __iter__(self) -> Iterator[tuple[int, BBox]]:
        return zip(self.ids.tolist(), [BBox(*box) for box in self.boxes.tolist()])


class IdStream:
    """Ground truth or hypotheses over many frames as columns: ``frames`` and
    ``ids`` ``(n,)`` int64, ``boxes`` ``(n, 4)`` in center form, ``confidence``
    ``(n,)``, rows checked as ``IdBoxes`` checks them. A stream is not
    modified after it is built; ``take`` makes a new one."""

    __slots__ = ("frames", "ids", "boxes", "confidence")

    def __init__(self, frames, ids, boxes, confidence=None):
        b, frames = IdBoxes(ids, boxes, confidence), np.asarray(frames).reshape(-1)
        if frames.shape != b.ids.shape or (frames.size and frames.dtype.kind not in "iu"):
            raise ValueError(f"frames must be {len(b)} integers, got shape {frames.shape} of dtype {frames.dtype}")
        self.frames, self.ids, self.boxes, self.confidence = frames.astype(np.int64), b.ids, b.boxes, b.confidence

    @classmethod
    def _checked(cls, frames, ids, boxes, confidence) -> "IdStream":
        """A stream of columns that are already typed, shaped and valid."""
        stream = cls.__new__(cls)
        stream.frames, stream.ids, stream.boxes, stream.confidence = frames, ids, boxes, confidence
        return stream

    @classmethod
    def pack(cls, stream: Mapping) -> "IdStream":
        """One stream of a mapping's frames, in its order, each an ``IdBoxes``
        batch or rows for ``IdBoxes.pack`` (a stream is returned as it is)."""
        if isinstance(stream, IdStream):
            return stream
        batches = [IdBoxes.pack(rows) for rows in stream.values()]
        frames = np.repeat(np.array(list(stream), dtype=np.int64), [len(b) for b in batches])
        batches.append(IdBoxes._checked(np.zeros(0, np.int64), np.zeros((0, 4)), np.zeros(0)))  # for no frames
        return cls._checked(frames, *map(np.concatenate, zip(*((b.ids, b.boxes, b.confidence) for b in batches))))

    def take(self, index) -> "IdStream":
        """The rows that ``index`` (integers or a boolean mask) selects."""
        return IdStream._checked(self.frames[index], self.ids[index], self.boxes[index], self.confidence[index])

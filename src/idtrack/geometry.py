"""Axis-aligned boxes and detections shared by the whole package.

Boxes live in center form (cx, cy, w, h); corner form (left, top, right,
bottom) only appears at file-format boundaries and inside IoU math.

``Detections`` is a batch of detections as columns: an ``(n, 4)`` box
array, confidences, optional unit embeddings and optional predicted boxes.
Iterating a batch yields ``Detection`` views, each a batch, a row index and
its confidence, reading its other values from the arrays; none is kept.
``DetectionStream`` is a whole stream's detections, one batch of every row
beside an ascending frame column, which ``generate`` and the readers return
and ``subsample``, ``track_stream`` (one frame's slice per step) and the
writers read. ``IdStream`` is ground truth or tracker hypotheses over a
whole stream as one column set (frames, ids, boxes, confidences), which
``generate``, ``read_gt`` and ``hypotheses`` return and ``subsample``,
``evaluate``, ``sweep_thresholds`` and the writers read. ``_check_fields``
is the field rule of every config dataclass.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import MISSING, dataclass, fields
from itertools import repeat

import numpy as np

__all__ = [
    "BBox",
    "Detection",
    "Detections",
    "DetectionStream",
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


def _int_column(values, n: int, name: str) -> np.ndarray:
    """``values`` as an int64 column, one integer per row of ``n`` that int64
    holds; an error names the first bad row."""
    column = np.asarray(values).reshape(-1)
    if len(column) != n:
        raise ValueError(f"row {min(len(column), n)}: {name}s has {len(column)} entries for {n} rows")
    if n and column.dtype.kind not in "iu":
        raise ValueError(f"row 0: {name}s must be integers, got dtype {column.dtype}")
    if column.dtype == np.uint64:  # the one integer type with values that int64 would wrap
        k = _first_false(column <= np.iinfo(np.int64).max)
        if k is not None:
            raise ValueError(f"row {k}: {name} must be at most 2**63 - 1, got {column[k]}")
    return column.astype(np.int64, copy=False)


class Detections:
    """Detections as columns, one frame's or a whole stream's.

    ``boxes`` is ``(n, 4)`` in center form, ``confidence`` ``(n,)``,
    ``embeddings`` ``(n, D)`` unit rows or None, and ``predictions``
    ``(n, 4)`` next-frame boxes where the ``(n,)`` mask ``predicted`` is
    True (both None when no row has one). Either every row has an embedding
    or none does. The constructor checks the whole batch at once: boxes
    and predictions in the box domain (see ``_box_fault``), confidences in
    [0, 1] and embedding norms within ``UNIT_NORM_TOL`` of 1; an error
    names the first bad row. A batch is not modified after it is built;
    ``take`` and ``span`` make a new one.

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

    def span(self, start: int, stop: int) -> "Detections":
        """Rows ``start`` to ``stop`` as a batch that views this one's arrays."""
        embeddings, predictions, predicted = self.embeddings, self.predictions, self.predicted
        return Detections._checked(self.boxes[start:stop], self.confidence[start:stop],
                                   None if embeddings is None else embeddings[start:stop],
                                   None if predictions is None else predictions[start:stop],
                                   None if predicted is None else predicted[start:stop])

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
    ``BBox`` or None. A detection does not know its frame; a stream's frame
    column holds it. Views compare by identity.
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


class IdStream:
    """Ground truth or hypotheses over many frames as columns: ``frames`` and
    ``ids`` ``(n,)`` int64, ``boxes`` ``(n, 4)`` in center form and
    ``confidence`` ``(n,)``, 1 for every row unless given. The constructor
    checks the whole stream at once: integer frames and ids that int64
    holds, boxes in the box domain (see ``_box_fault``) and finite
    confidences; an error names the first bad row. What a repeated
    ``(frame, id)`` means is up to whoever reads the stream. A stream is not
    modified after it is built; ``take`` makes a new one."""

    __slots__ = ("frames", "ids", "boxes", "confidence")

    def __init__(self, frames, ids, boxes, confidence=None):
        ids = _int_column(ids, np.size(ids), "id")
        frames, n = _int_column(frames, len(ids), "frame"), len(ids)
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
        self.frames, self.ids, self.boxes, self.confidence = frames, ids, boxes, confidence

    @classmethod
    def _checked(cls, frames, ids, boxes, confidence) -> "IdStream":
        """A stream of columns that are already typed, shaped and valid."""
        stream = cls.__new__(cls)
        stream.frames, stream.ids, stream.boxes, stream.confidence = frames, ids, boxes, confidence
        return stream

    @classmethod
    def pack(cls, stream: Mapping) -> "IdStream":
        """One stream of a mapping's frames, in its order, each a list of
        ``(id, box)`` or ``(id, box, confidence)`` rows with ``BBox`` boxes,
        confidence 1 where a row has none, checked as the constructor checks
        a stream (a stream is returned as it is)."""
        if isinstance(stream, IdStream):
            return stream
        rows = [(frame, *row) for frame, frame_rows in stream.items() for row in frame_rows]
        return cls([row[0] for row in rows], [row[1] for row in rows], _box_rows([row[2] for row in rows]),
                   [row[3] if len(row) > 3 else 1.0 for row in rows])

    def take(self, index) -> "IdStream":
        """The rows that ``index`` (integers or a boolean mask) selects."""
        return IdStream._checked(self.frames[index], self.ids[index], self.boxes[index], self.confidence[index])


class DetectionStream(Mapping):
    """Detections over many frames as columns: ``rows``, one ``Detections``
    batch of every detection, ``frames`` ``(n,)`` int64 in ascending order
    (each frame's rows contiguous, in the order of its raw detections), and
    ``last``, the final frame to step (by default the largest frame, 0 for
    no rows). The constructor checks the frames: integers of 1 or more, one
    per row, ascending, none past ``last``; an error names the first bad
    row. It is also a read-only mapping of the frames 1 to ``last`` to
    batches that view their rows (``Detections.span``)."""

    __slots__ = ("rows", "frames", "last")

    def __init__(self, rows: Detections, frames, last: int | None = None):
        frames, n = _int_column(frames, len(rows), "frame"), len(rows)
        if (k := _first_false(np.diff(frames, prepend=1) >= 0)) is not None:  # a first frame below 1, or a step back
            after = f"comes after frame {frames[k - 1]}" if k else "is below 1"
            raise ValueError(f"row {k}: frame {frames[k]} {after}")
        last = (int(frames[-1]) if n else 0) if last is None else operator.index(last)
        k = int(frames.searchsorted(last, "right"))
        if k < n or last < 0:
            raise ValueError(f"row {k}: frame {frames[k]} is past the last frame, {last}" if k < n
                             else f"the last frame must be 0 or more, got {last}")
        self.rows, self.frames, self.last = rows, frames, last

    def __getitem__(self, frame: int) -> Detections:
        if not (isinstance(frame, numbers.Integral) and 1 <= frame <= self.last):
            raise KeyError(frame)
        return self.rows.span(self.frames.searchsorted(frame), self.frames.searchsorted(frame, "right"))

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, self.last + 1))

    def __len__(self) -> int:
        return self.last

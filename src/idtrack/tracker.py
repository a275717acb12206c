"""Online tracking-by-detection with identity embeddings and a recovery buffer.

Per frame the tracker runs four phases:

1. Active trajectories vs detections: Hungarian assignment on the blended
   overlap/identity affinity. Matched trajectories take the detection as
   their new head.
2. Buffer recovery: still-unassigned detections are compared, identity-only
   (overlap weight 0, identity weight 1), against paused trajectories level
   by level, most recently seen first, each level with its own Hungarian
   solve. This is what survives full occlusions.
3. Leftover detections found nobody: they start new trajectories with fresh
   ids.
4. Unmatched trajectories get a head for the current frame anyway — the
   ``prediction`` of the detection they took in the previous frame,
   otherwise a linear-motion guess — and keep competing in
   phase 1 for up to ``motion_propagate_frames`` consecutive misses. After
   that they are paused into the buffer, where only phase 2 can bring them
   back. Once a trajectory has been unseen for more than ``buffer_size``
   frames its id is retired for good.

A frame's detections reach ``Tracker.step`` as one ``Detections`` batch,
and the trajectories live in one ``TrajectoryTable`` of columns that the
tracker owns, one slot per live trajectory. Affinities, updates, recovery
levels and coasting read and write those arrays, a few numpy calls per
Hungarian solve; a step builds no object per row, as its outputs are one
``IdStream`` gather of the table. ``track_stream`` takes a whole
``DetectionStream``, hands each step one slice and joins their outputs.

Identity-only recovery needs embeddings, so with ``weights.identity == 0``
phase 2 is skipped entirely and the tracker degrades to a plain IoU
Hungarian tracker. With ``weights.identity > 0`` every detection must carry
an embedding: ``Tracker.step`` raises ``ValueError`` naming the first one
without, before it changes any state.

``Tracker.active`` and ``Tracker.paused`` are ``Trajectories``: ordered
slots of the table, which yield one read-only ``Trajectory`` view per
trajectory. The tracker makes a trajectory's view at its birth and hands
out that same object for as long as it lives; the view reads the slot's
current values on each access. When the trajectory retires, its view keeps
the values of its last step, and its slot goes to a later birth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .affinity import AffinityWeights, combined_affinity, nms
from .assignment import solve_max
from .geometry import (BBox, DetectionStream, Detections, IdStream, _check_fields, _first_false, _integer,
                       _row_norms, _shape_fault)

__all__ = [
    "Trajectory",
    "Trajectories",
    "TrajectoryTable",
    "TrackerConfig",
    "Tracker",
    "propagate_linear",
    "update_trajectory",
    "track_stream",
    "DEFAULT_NMS_IOU",
]

DEFAULT_NMS_IOU = 0.3
_ID_ONLY = AffinityWeights(0.0, 1.0)  # phase 2 scores identity alone

# Every column of a ``TrajectoryTable``, indexed by slot.
_COLUMNS = ("ids", "boxes", "embeddings", "embedded", "velocity", "last_seen", "head_frame", "confidence",
            "predictions", "predicted")


class TrajectoryTable:
    """The state of a tracker's trajectories as columns, one slot each.

    ``ids`` ``(c,)`` holds the track ids, ``boxes`` ``(c, 4)`` the head
    boxes in centre form, ``embeddings`` ``(c, D)`` the unit head
    embeddings where ``embedded`` is True (None until the first embedding
    arrives; every one has the same D), ``velocity`` ``(c, 2)`` the average
    centre velocities, ``last_seen`` the frame of the last detection taken
    and ``head_frame`` the frame of the head box (ahead of ``last_seen``
    while coasting), ``confidence`` that detection's confidence, and
    ``predictions`` ``(c, 4)`` its box for frame ``last_seen + 1`` where
    ``predicted`` is True. ``views[s]`` is the ``Trajectory`` of slot
    ``s``, None while the slot is free. A retired trajectory's slot goes to
    a later birth, so the capacity ``c`` follows the most trajectories
    alive at once, not the number of births.
    """

    __slots__ = _COLUMNS + ("views", "free")

    def __init__(self):
        self.ids = np.zeros(0, dtype=np.int64)
        self.boxes = np.zeros((0, 4))
        self.embeddings = None
        self.embedded = np.zeros(0, dtype=bool)
        self.velocity = np.zeros((0, 2))
        self.last_seen = np.zeros(0, dtype=np.int64)
        self.head_frame = np.zeros(0, dtype=np.int64)
        self.confidence = np.zeros(0)
        self.predictions = np.zeros((0, 4))
        self.predicted = np.zeros(0, dtype=bool)
        self.views: list[Trajectory | None] = []
        self.free: list[int] = []  # free slots, the next one to use last

    def add(self, ids: np.ndarray, born: Detections, frame: int) -> np.ndarray:
        """Slots for new trajectories ``ids``, one per row of ``born``: each
        takes its row's box, confidence, embedding and prediction, seen at
        ``frame`` with no velocity, and gets its view."""
        n = len(born)
        if born.embeddings is not None:
            self.embedding_matrix(born.embeddings.shape[1])
        if len(self.free) < n:
            self._grow(n - len(self.free))
        slots = np.array(self.free[len(self.free) - n :][::-1], dtype=np.intp)
        del self.free[len(self.free) - n :]
        self.ids[slots] = ids
        self.velocity[slots] = 0.0
        self.embedded[slots] = born.embeddings is not None
        if born.embeddings is not None:
            self.embeddings[slots] = born.embeddings
        self.seen(slots, born, frame)
        for slot in slots.tolist():
            self.views[slot] = Trajectory(self, slot)
        return slots

    def seen(self, slots: np.ndarray, dets: Detections, frame: int) -> None:
        """Slot ``slots[k]`` took row k of ``dets`` at ``frame``: its box as
        the head, its confidence and its prediction."""
        self.boxes[slots] = dets.boxes
        self.last_seen[slots] = frame
        self.head_frame[slots] = frame
        self.confidence[slots] = dets.confidence
        if dets.predicted is None:
            self.predicted[slots] = False
        else:
            self.predicted[slots] = dets.predicted
            self.predictions[slots] = dets.predictions

    def embedding_matrix(self, dim: int) -> np.ndarray:
        """The embedding column, made for ``dim`` values when there is none
        yet; a ``dim`` other than its own is refused."""
        if self.embeddings is None:
            self.embeddings = np.zeros((len(self.ids), dim))
        elif self.embeddings.shape[1] != dim:
            raise ValueError(f"embeddings have {dim} values, the tracker's trajectories {self.embeddings.shape[1]}")
        return self.embeddings

    def release(self, slots: np.ndarray) -> None:
        """Free ``slots``. Each one's view is moved to a table of its own that
        holds the values of the slot's last step."""
        kept = object.__new__(TrajectoryTable)
        for name in _COLUMNS:
            column = getattr(self, name)
            setattr(kept, name, None if column is None else column.take(slots, axis=0))
        kept.views, kept.free = [], []
        for k, slot in enumerate(slots.tolist()):
            view = self.views[slot]
            view.table, view.slot = kept, k
            kept.views.append(view)
            self.views[slot] = None
            self.free.append(slot)

    def _grow(self, needed: int) -> None:
        """At least ``needed`` more free slots: the capacity at least doubles."""
        old = len(self.ids)
        new = max(2 * old, old + needed, 8)
        for name in _COLUMNS:
            column = getattr(self, name)
            if column is not None:
                grown = np.zeros((new,) + column.shape[1:], dtype=column.dtype)
                grown[:old] = column
                setattr(self, name, grown)
        self.views += [None] * (new - old)
        self.free[:0] = range(new - 1, old - 1, -1)  # the lowest new slot is used first, after any freed


class Trajectory:
    """One trajectory: a read-only view of its slot in a ``TrajectoryTable``.

    It holds only ``table`` and ``slot``, and reads the slot's current
    values on each access: ``track_id``, ``head_box`` (a ``BBox``: the most
    recent position estimate, from a detection after a match and from
    prediction or propagation otherwise, in which case ``head_frame`` runs
    ahead of ``last_seen``), ``head_embedding`` (a copy, or None),
    ``avg_velocity``, ``last_seen``, ``head_frame``, ``last_confidence``
    and ``predicted_box`` (the box that came with the last detection, for
    frame ``last_seen + 1``, or None). A tracker makes one view per
    trajectory at its birth; after the trajectory retires, the view reads
    the values of its last step. Views compare by identity.
    """

    __slots__ = ("table", "slot")

    def __init__(self, table: TrajectoryTable, slot: int):
        self.table = table
        self.slot = slot

    @property
    def track_id(self) -> int:
        return self.table.ids.item(self.slot)

    @property
    def head_box(self) -> BBox:
        return BBox(*self.table.boxes[self.slot].tolist())

    @property
    def head_embedding(self) -> np.ndarray | None:
        table = self.table
        if table.embeddings is None or not table.embedded[self.slot]:
            return None
        return table.embeddings[self.slot].copy()

    @property
    def avg_velocity(self) -> tuple[float, float]:
        vx, vy = self.table.velocity[self.slot].tolist()
        return vx, vy

    @property
    def last_seen(self) -> int:
        return self.table.last_seen.item(self.slot)

    @property
    def head_frame(self) -> int:
        return self.table.head_frame.item(self.slot)

    @property
    def last_confidence(self) -> float:
        return self.table.confidence.item(self.slot)

    @property
    def predicted_box(self) -> BBox | None:
        if not self.table.predicted[self.slot]:
            return None
        return BBox(*self.table.predictions[self.slot].tolist())


class Trajectories:
    """Some trajectories of one table, in order: the slots ``slots`` of
    ``table``.

    ``len()``, iteration and indexing by position yield the slots'
    ``Trajectory`` views, the same objects each time. ``boxes`` ``(n, 4)``
    and ``embeddings`` ``(n, D)`` gather the rows' head boxes and head
    embeddings (None when the table has none), which is what
    ``combined_affinity`` scores.
    """

    __slots__ = ("table", "slots")

    def __init__(self, table: TrajectoryTable, slots):
        self.table = table
        self.slots = np.asarray(slots, dtype=np.intp)

    @property
    def boxes(self) -> np.ndarray:
        return self.table.boxes.take(self.slots, axis=0)

    @property
    def embeddings(self) -> np.ndarray | None:
        matrix = self.table.embeddings
        return None if matrix is None else matrix.take(self.slots, axis=0)

    def missing_embedding(self) -> str | None:
        """Which row holds no embedding, the first one; None when every row
        holds one."""
        k = _first_false(self.table.embedded[self.slots])
        return None if k is None else f"trajectory {self.table.ids.item(self.slots[k])} has no embedding"

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self) -> Iterator[Trajectory]:
        views = self.table.views
        return iter([views[slot] for slot in self.slots.tolist()])

    def __getitem__(self, k: int) -> Trajectory:
        return self.table.views[self.slots[k]]


@dataclass(frozen=True)
class TrackerConfig:
    weights: AffinityWeights = field(default_factory=AffinityWeights)
    buffer_size: int = 10
    min_affinity: float = 0.2
    det_threshold: float = 0.5
    motion_propagate_frames: int = 5
    embedding_momentum: float = 0.5

    def __post_init__(self):
        _check_fields(self)
        if self.buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {self.buffer_size}")
        if self.motion_propagate_frames < 0:
            raise ValueError(f"motion_propagate_frames must be >= 0, got {self.motion_propagate_frames}")
        if self.motion_propagate_frames > self.buffer_size:
            # Retirement would silently cut coasting short.
            raise ValueError(
                f"motion_propagate_frames ({self.motion_propagate_frames}) must not exceed "
                f"buffer_size ({self.buffer_size})"
            )
        if not 0.0 <= self.embedding_momentum <= 1.0:
            raise ValueError(f"embedding_momentum must lie in [0, 1], got {self.embedding_momentum}")
        if not 0.0 <= self.det_threshold <= 1.0:
            raise ValueError(f"det_threshold must lie in [0, 1], got {self.det_threshold}")
        if not 0.0 <= self.min_affinity <= 1.0:
            raise ValueError(f"min_affinity must lie in [0, 1], got {self.min_affinity}")


def propagate_linear(boxes: np.ndarray, velocity: np.ndarray, steps) -> np.ndarray:
    """Head boxes ``(n, 4)`` moved by their average velocities ``(n, 2)``
    over ``steps`` frames (one count for all, or one per box); sizes kept."""
    moved = boxes.copy()
    moved[:, :2] += np.asarray(steps)[..., None] * velocity
    return moved


def update_trajectory(trajs: Trajectories, dets: Detections, momentum: float, frame: int) -> None:
    """Absorb detections of ``frame`` into their trajectories, in place.

    Row ``k`` of the ``Detections`` batch ``dets`` goes to ``trajs[k]``; the
    trajectories must be distinct. Each detection box becomes its
    trajectory's head, and its prediction the trajectory's predicted box.
    An embedding moves toward the detection's by ``1 - momentum`` and is
    re-normalized; the velocity is an exponential average (same momentum)
    of the per-frame center displacement since the current head. Every head
    frame is checked before any trajectory changes, so a rejected batch
    leaves all of them as they were.
    """
    table, slots = trajs.table, trajs.slots
    head_frame = table.head_frame[slots]
    behind = _first_false(head_frame <= frame)
    if behind is not None:
        raise ValueError(f"detection frame {frame} is behind trajectory head frame {head_frame[behind]}")

    fresh = dets.embeddings
    if fresh is not None:
        matrix = table.embedding_matrix(fresh.shape[1])
        had = table.embedded[slots]
        blend, mine = slots, fresh
        if np.count_nonzero(had) < len(slots):  # a trajectory without an embedding takes the fresh one
            matrix[slots[~had]] = fresh[~had]
            table.embedded[slots] = True
            blend, mine = slots[had], fresh[had]
        mixed = momentum * matrix.take(blend, axis=0) + (1.0 - momentum) * mine
        norms = _row_norms(mixed)
        # Opposite embeddings can cancel at momentum 0.5; trust the fresh one.
        cancelled = norms < 1e-12
        if np.count_nonzero(cancelled):
            mixed /= np.where(cancelled, 1.0, norms)[:, None]
            np.copyto(mixed, mine, where=cancelled[:, None])
        else:
            mixed /= norms[:, None]
        matrix[blend] = mixed

    gap = np.maximum(frame - head_frame, 1)[:, None]
    shift = (dets.boxes[:, :2] - table.boxes.take(slots, axis=0)[:, :2]) / gap
    table.velocity[slots] = momentum * table.velocity.take(slots, axis=0) + (1.0 - momentum) * shift
    table.seen(slots, dets, frame)


class Tracker:
    """Stateful per-sequence tracker. Not safe to share across sequences.

    ``table`` is its ``TrajectoryTable``; ``active`` and ``paused`` are the
    trajectories of each set, in the order the phases visit them.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.table = TrajectoryTable()
        self._active = self._paused = np.zeros(0, dtype=np.intp)
        self.next_id = 1
        self.current_frame = 0

    @property
    def active(self) -> Trajectories:
        return Trajectories(self.table, self._active)

    @property
    def paused(self) -> Trajectories:
        return Trajectories(self.table, self._paused)

    def step(self, detections: Detections, frame: int) -> IdStream:
        """Advance one frame.

        Args:
            detections: detections of the new frame, already confidence
                filtered and NMS'd, as one ``Detections`` batch. The
                trajectory that takes a detection coasts on its prediction if
                it misses the next frame; without one it falls back to linear
                propagation.
            frame: frame being processed, an integer past every frame stepped so far.

        Returns:
            One ``IdStream`` row per surviving trajectory that has a box
            this frame; rows from propagation are flagged ``interpolated``.
            Rows come in phase order, which is the new active set's: phase-1
            matches by active row, recoveries by level and then pair, births,
            coasting heads by active row.
        """
        cfg = self.config
        frame = _integer(frame, "frame")
        if not isinstance(detections, Detections):
            raise TypeError(f"detections must be one Detections batch, got {type(detections).__name__}")
        if frame <= self.current_frame:
            raise ValueError(f"frame {frame} does not advance past {self.current_frame}")
        if cfg.weights.identity > 0.0 and (missing := detections.missing_embedding()):
            raise ValueError(f"{missing} but identity weight is {cfg.weights.identity}")
        table = self.table
        if detections.embeddings is not None:  # another dimension is refused here, before any change
            table.embedding_matrix(detections.embeddings.shape[1])

        # Trajectories unseen longer than the buffer allows are gone for good.
        active, paused = self._active, self._paused
        gone_active = table.last_seen[active] < frame - cfg.buffer_size
        gone_paused = table.last_seen[paused] < frame - cfg.buffer_size
        if np.count_nonzero(gone_active) or np.count_nonzero(gone_paused):
            table.release(np.concatenate([active[gone_active], paused[gone_paused]]))
            active, paused = self._active, self._paused = active[~gone_active], paused[~gone_paused]

        taken = np.zeros(len(detections), dtype=bool)
        new_active = []  # slot arrays, in phase order

        def absorb(slots: np.ndarray, cols: np.ndarray) -> None:
            """One batched update for the pairs of one solve, in pair order."""
            update_trajectory(Trajectories(table, slots), detections.take(cols), cfg.embedding_momentum, frame)
            taken[cols] = True
            new_active.append(slots)

        # Phase 1: active set vs detections, blended affinity.
        matched = np.zeros(len(active), dtype=bool)
        if len(active) and len(detections):
            found = solve_max(combined_affinity(Trajectories(table, active), detections, cfg.weights), cfg.min_affinity)
            if found.rows.size:  # in active order, as solve_max gives its rows sorted
                matched[found.rows] = True
                absorb(active.take(found.rows), found.cols)

        # Phase 2: identity-only recovery from the paused buffer, one
        # Hungarian solve per level, most recent level first.
        recovered = np.zeros(len(paused), dtype=bool)
        if cfg.weights.identity > 0.0 and len(paused):
            levels = frame - table.last_seen[paused]
            for level in sorted(set(levels.tolist())):
                free = (~taken).nonzero()[0]
                if not free.size:
                    break
                at = (levels == level).nonzero()[0]
                matrix = combined_affinity(Trajectories(table, paused[at]), detections.take(free), _ID_ONLY)
                found = solve_max(matrix, cfg.min_affinity)
                if found.rows.size:
                    recovered[at[found.rows]] = True
                    absorb(paused[at[found.rows]], free[found.cols])

        # Phase 3: leftovers become new trajectories.
        leftovers = (~taken).nonzero()[0]
        if leftovers.size:
            born = detections.take(leftovers)
            ids = np.arange(self.next_id, self.next_id + len(born), dtype=np.int64)
            self.next_id += len(born)
            new_active.append(table.add(ids, born, frame))

        # Phase 4: unmatched trajectories either coast on a predicted/linear
        # head (and stay in the active set) or fall into the paused buffer.
        # A prediction is for the frame after last_seen only.
        unmatched = active[~matched]
        coasting = table.last_seen[unmatched] >= frame - cfg.motion_propagate_frames
        coast = unmatched[coasting]
        if coast.size:
            heads = propagate_linear(table.boxes.take(coast, axis=0), table.velocity.take(coast, axis=0),
                                     frame - table.head_frame[coast])
            ahead = table.predicted[coast]
            if np.count_nonzero(ahead):
                ahead &= table.last_seen[coast] == frame - 1
                heads[ahead] = table.predictions.take(coast[ahead], axis=0)
            bad = _first_false(np.isfinite(heads).reshape(-1))
            if bad is not None:
                raise ValueError(_shape_fault(*heads[bad // 4].tolist()))
            table.boxes[coast] = heads
            table.head_frame[coast] = frame
            new_active.append(coast)

        self._active = active = np.concatenate(new_active) if new_active else unmatched[:0]
        self._paused = np.concatenate([paused[~recovered], unmatched[~coasting]])
        self.current_frame = frame
        n = len(active)  # every head of the active set is now at this frame
        return IdStream._checked(table.head_frame.take(active), table.ids.take(active),
                                 table.boxes.take(active, axis=0), table.confidence.take(active),
                                 np.arange(n) >= n - coast.size)


def track_stream(dets: DetectionStream, config: TrackerConfig | None = None,
                 nms_iou: float = DEFAULT_NMS_IOU) -> IdStream:
    """Run a fresh tracker over a whole detection stream.

    Args:
        dets: the stream; frames 1 to ``dets.last`` are stepped, each on a
            slice of the stream's rows (empty for a frame without).
        config: tracker configuration (defaults apply when omitted).
        nms_iou: suppression threshold applied after confidence filtering.

    Detections below ``config.det_threshold`` are dropped, then NMS runs,
    then the tracker steps every frame in order. While it holds no active
    and no paused trajectory an empty frame changes nothing, so it goes
    straight to the next frame with detections: the time grows with the
    data, not with the largest frame number.
    """
    config = config or TrackerConfig()
    tracker = Tracker(config)
    outputs = [IdStream([], [], [])]
    none = Detections([], [])
    busy, starts = np.unique(dets.frames, return_index=True)
    busy, bounds = busy.tolist() + [dets.last + 1], starts.tolist() + [len(dets.frames)]
    frame, k = 1, 0  # busy[k]: the first frame with rows at or after frame
    while frame <= dets.last:
        if not (tracker.active or tracker.paused):
            frame = busy[k]
            if frame > dets.last:
                break
        batch = none
        if busy[k] == frame:
            batch, k = dets.rows.span(bounds[k], bounds[k + 1]), k + 1
            batch = batch.take(batch.confidence >= config.det_threshold)
        outputs.append(tracker.step(nms(batch, nms_iou), frame))
        frame += 1
    return IdStream._checked(*(np.concatenate([getattr(o, name) for o in outputs]) for name in IdStream.__slots__))

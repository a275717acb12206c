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

A frame's detections reach ``Tracker.step`` as one ``Detections`` batch:
affinities and updates read its arrays, and a ``BBox`` is built only for
the box a trajectory takes as its new head. ``track_stream`` takes a whole
stream, ``{frame: Detections}``.

Identity-only recovery needs embeddings, so with ``weights.identity == 0``
phase 2 is skipped entirely and the tracker degrades to a plain IoU
Hungarian tracker. With ``weights.identity > 0`` every detection must carry
an embedding: ``Tracker.step`` raises ``ValueError`` naming the first one
without, before it changes any state.

``Tracker.active`` and ``Tracker.paused`` hold tracker-owned ``Trajectory``
records that every step updates in place, one batched
``update_trajectory`` per Hungarian solve. A caller who wants a snapshot
must copy the fields, not keep the objects.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .affinity import AffinityWeights, combined_affinity, nms
from .assignment import solve_max
from .geometry import BBox, Detections, IdBoxes, _frame_rows, _row_norms

__all__ = [
    "Trajectory",
    "TrackerConfig",
    "TrackOutput",
    "Tracker",
    "propagate_linear",
    "update_trajectory",
    "track_stream",
    "hypotheses",
    "DEFAULT_NMS_IOU",
]

DEFAULT_NMS_IOU = 0.3


@dataclass(slots=True, eq=False)
class Trajectory:
    """State of one tracked object, owned and updated in place by its tracker.

    ``head_box`` is the most recent position estimate; it comes from a
    detection after a match and from propagation/prediction otherwise, in
    which case ``head_frame`` runs ahead of ``last_seen``.
    """

    track_id: int
    head_box: BBox
    head_embedding: np.ndarray | None
    avg_velocity: tuple[float, float]
    last_seen: int
    head_frame: int = -1  # frame of head_box; defaults to last_seen
    last_confidence: float = 1.0
    predicted_box: BBox | None = None  # came with the last detection; for frame last_seen + 1

    def __post_init__(self):
        if self.track_id < 1:
            raise ValueError(f"track ids are 1-based, got {self.track_id}")
        if self.head_frame < 0:
            self.head_frame = self.last_seen


@dataclass(frozen=True)
class TrackerConfig:
    weights: AffinityWeights = field(default_factory=AffinityWeights)
    buffer_size: int = 10
    min_affinity: float = 0.2
    det_threshold: float = 0.5
    motion_propagate_frames: int = 5
    embedding_momentum: float = 0.5

    def __post_init__(self):
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if self.motion_propagate_frames < 0:
            raise ValueError("motion_propagate_frames must be >= 0")
        if self.motion_propagate_frames > self.buffer_size:
            # Retirement would silently cut coasting short.
            raise ValueError(
                f"motion_propagate_frames ({self.motion_propagate_frames}) must not exceed "
                f"buffer_size ({self.buffer_size})"
            )
        if not 0.0 <= self.embedding_momentum <= 1.0:
            raise ValueError("embedding_momentum must lie in [0, 1]")
        if not 0.0 <= self.det_threshold <= 1.0:
            raise ValueError("det_threshold must lie in [0, 1]")
        if not 0.0 <= self.min_affinity <= 1.0:
            raise ValueError(f"min_affinity must lie in [0, 1], got {self.min_affinity}")


@dataclass(frozen=True, slots=True)
class TrackOutput:
    """One emitted box. ``interpolated`` marks propagation output, not a detection."""

    frame: int
    track_id: int
    box: BBox
    confidence: float
    interpolated: bool = False


def propagate_linear(traj: Trajectory, steps: int = 1) -> BBox:
    """Head box translated by the trajectory's average velocity; size kept."""
    vx, vy = traj.avg_velocity
    return BBox(traj.head_box.cx + steps * vx, traj.head_box.cy + steps * vy, traj.head_box.w, traj.head_box.h)


def update_trajectory(trajs: Sequence[Trajectory], dets: Detections, momentum: float, frame: int) -> None:
    """Absorb detections of ``frame`` into their trajectories, in place.

    Row ``k`` of the ``Detections`` batch ``dets`` goes to ``trajs[k]``; the
    trajectories must be distinct. Each detection box becomes its
    trajectory's head, and its prediction the trajectory's
    ``predicted_box``. An embedding moves toward the detection's by
    ``1 - momentum`` and is re-normalized; the velocity is an exponential
    average (same momentum) of the per-frame center displacement since the
    current head. Every head frame is checked before any trajectory
    changes, so a rejected batch leaves all of them as they were.
    """
    for traj in trajs:
        if frame < traj.head_frame:
            raise ValueError(f"detection frame {frame} is behind trajectory head frame {traj.head_frame}")

    fresh = dets.embeddings
    blend = []
    for k, traj in enumerate(trajs if fresh is not None else ()):
        if traj.head_embedding is None:
            traj.head_embedding = fresh[k]
        else:
            blend.append(k)
    if blend:
        mine = fresh[blend]
        mixed = momentum * np.array([trajs[k].head_embedding for k in blend]) + (1.0 - momentum) * mine
        norms = _row_norms(mixed)
        # Opposite embeddings can cancel at momentum 0.5; trust the fresh one.
        cancelled = norms < 1e-12
        mixed /= np.where(cancelled, 1.0, norms)[:, None]
        for row, k in enumerate(blend):
            trajs[k].head_embedding = mine[row] if cancelled[row] else mixed[row]

    for traj, box, conf, prediction in zip(trajs, dets.box_list(), dets.confidence.tolist(), dets.prediction_list()):
        gap = max(frame - traj.head_frame, 1)
        disp = ((box.cx - traj.head_box.cx) / gap, (box.cy - traj.head_box.cy) / gap)
        traj.avg_velocity = (
            momentum * traj.avg_velocity[0] + (1.0 - momentum) * disp[0],
            momentum * traj.avg_velocity[1] + (1.0 - momentum) * disp[1],
        )
        traj.head_box = box
        traj.last_seen = traj.head_frame = frame
        traj.last_confidence = conf
        traj.predicted_box = prediction


class Tracker:
    """Stateful per-sequence tracker. Not safe to share across sequences."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.active: list[Trajectory] = []
        self.paused: list[Trajectory] = []
        self.next_id = 1
        self.current_frame = 0

    def step(self, detections: Detections, frame: int) -> list[TrackOutput]:
        """Advance one frame.

        Args:
            detections: detections of the new frame, already confidence
                filtered and NMS'd, as one ``Detections`` batch. The
                trajectory that takes a detection coasts on its prediction if
                it misses the next frame; without one it falls back to linear
                propagation.
            frame: frame being processed, past every frame stepped so far.

        Returns:
            One output per surviving trajectory that has a box this frame;
            entries from propagation are flagged ``interpolated``.
        """
        cfg = self.config
        if frame <= self.current_frame:
            raise ValueError(f"frame {frame} does not advance past {self.current_frame}")
        if cfg.weights.identity > 0.0 and (missing := detections.missing_embedding()):
            raise ValueError(f"{missing} but identity weight is {cfg.weights.identity}")

        # Trajectories unseen longer than the buffer allows are gone for good.
        self.active = [t for t in self.active if frame - t.last_seen <= cfg.buffer_size]
        self.paused = [t for t in self.paused if frame - t.last_seen <= cfg.buffer_size]

        outputs: list[TrackOutput] = []
        det_taken = [False] * len(detections)
        new_active: list[Trajectory] = []

        def absorb(trajs: list[Trajectory], cols: list[int]) -> None:
            """One batched update for the pairs of one solve, in pair order."""
            update_trajectory(trajs, detections.take(cols), cfg.embedding_momentum, frame)
            for traj, j in zip(trajs, cols):
                det_taken[j] = True
                new_active.append(traj)
                outputs.append(TrackOutput(frame, traj.track_id, traj.head_box, traj.last_confidence))

        # Phase 1: active set vs detections, blended affinity.
        if self.active and detections:
            matrix = combined_affinity(self.active, detections, cfg.weights)
            matched = dict(solve_max(matrix, cfg.min_affinity).pairs)
        else:
            matched = {}
        rows = sorted(matched)
        absorb([self.active[i] for i in rows], [matched[i] for i in rows])
        unmatched_active = [t for i, t in enumerate(self.active) if i not in matched]

        # Phase 2: identity-only recovery from the paused buffer, one
        # Hungarian solve per level, most recent level first.
        still_paused = list(self.paused)
        if cfg.weights.identity > 0.0 and still_paused:
            id_only = AffinityWeights(0.0, 1.0)
            for level in range(2, cfg.buffer_size + 1):
                cand = [t for t in still_paused if frame - t.last_seen == level]
                free = [j for j, taken in enumerate(det_taken) if not taken]
                if not cand or not free:
                    continue
                matrix = combined_affinity(cand, detections.take(free), id_only)
                pairs = solve_max(matrix, cfg.min_affinity).pairs
                recovered = [cand[ci] for ci, _ in pairs]
                absorb(recovered, [free[fj] for _, fj in pairs])
                if recovered:
                    still_paused = [t for t in still_paused if t not in recovered]

        # Phase 3: leftovers become new trajectories.
        leftovers = [j for j, taken in enumerate(det_taken) if not taken]
        born = detections.take(leftovers)
        values = zip(born.box_list(), born.confidence.tolist(), born.embedding_list(), born.prediction_list())
        for box, confidence, embedding, prediction in values:
            traj = Trajectory(
                track_id=self.next_id,
                head_box=box,
                head_embedding=embedding,
                avg_velocity=(0.0, 0.0),
                last_seen=frame,
                last_confidence=confidence,
                predicted_box=prediction,
            )
            self.next_id += 1
            new_active.append(traj)
            outputs.append(TrackOutput(frame, traj.track_id, box, confidence))

        # Phase 4: unmatched trajectories either coast on a predicted/linear
        # head (and stay in the active set) or fall into the paused buffer.
        # A prediction is for the frame after last_seen only.
        new_paused: list[Trajectory] = still_paused
        for traj in unmatched_active:
            if frame - traj.last_seen <= cfg.motion_propagate_frames:
                head = traj.predicted_box if traj.last_seen == frame - 1 else None
                if head is None:
                    head = propagate_linear(traj, steps=frame - traj.head_frame)
                traj.head_box, traj.head_frame = head, frame
                new_active.append(traj)
                outputs.append(TrackOutput(frame, traj.track_id, head, traj.last_confidence, interpolated=True))
            else:
                new_paused.append(traj)

        self.active = new_active
        self.paused = new_paused
        self.current_frame = frame
        return outputs


def track_stream(dets, config: TrackerConfig | None = None, nms_iou: float = DEFAULT_NMS_IOU) -> list[TrackOutput]:
    """Run a fresh tracker over a whole detection stream.

    Args:
        dets: mapping frame -> ``Detections``; frames 1..max are stepped,
            missing or empty ones (or ``[]``) as empty.
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
    outputs: list[TrackOutput] = []
    if not dets:
        return outputs

    none = Detections([], [])
    busy = sorted(frame for frame, batch in dets.items() if len(batch))
    frame, last = 1, max(dets)
    while frame <= last:
        if not (tracker.active or tracker.paused):
            at = bisect.bisect_left(busy, frame)
            if at == len(busy):
                break
            frame = busy[at]
        batch = dets.get(frame) or none
        kept = nms(batch.take(batch.confidence >= config.det_threshold), nms_iou)
        outputs.extend(tracker.step(kept, frame))
        frame += 1
    return outputs


def hypotheses(outputs: Iterable[TrackOutput], interpolated: bool = False) -> dict[int, IdBoxes]:
    """Tracker outputs as the hypothesis stream that ``evaluate`` scores and
    ``write_results`` writes: frame -> one ``IdBoxes`` batch of track ids,
    boxes and confidences in output order, frames in order of first output.
    Interpolated outputs (propagation, not detections) only if asked for."""
    rows = [o for o in outputs if interpolated or not o.interpolated]
    frames = np.array([o.frame for o in rows], dtype=np.int64)
    ids = np.array([o.track_id for o in rows], dtype=np.int64)
    heads = [o.box for o in rows]  # a list per field, not a tuple per row: less memory and time
    boxes = np.array([[b.cx for b in heads], [b.cy for b in heads], [b.w for b in heads], [b.h for b in heads]],
                     dtype=np.float64).T
    confidence = np.array([o.confidence for o in rows], dtype=np.float64)
    return {frame: IdBoxes._checked(ids[at], boxes[at], confidence[at]) for frame, at in _frame_rows(frames)}

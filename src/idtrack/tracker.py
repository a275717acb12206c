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
   external prediction that came with the detection they took in the
   previous frame, otherwise a linear-motion guess — and keep competing in
   phase 1 for up to ``motion_propagate_frames`` consecutive misses. After
   that they are paused into the buffer, where only phase 2 can bring them
   back. Once a trajectory has been unseen for more than ``buffer_size``
   frames its id is retired for good.

Identity-only recovery needs embeddings, so with ``weights.identity == 0``
phase 2 is skipped entirely and the tracker degrades to a plain IoU
Hungarian tracker. With ``weights.identity > 0`` every detection must carry
an embedding: ``Tracker.step`` raises ``ValueError`` naming the first one
without, before it changes any state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .affinity import AffinityWeights, combined_affinity, nms
from .assignment import solve_max
from .geometry import BBox, Detection

__all__ = [
    "Trajectory",
    "TrackerConfig",
    "TrackOutput",
    "Tracker",
    "propagate_linear",
    "update_trajectory",
    "track_stream",
    "DEFAULT_NMS_IOU",
]

DEFAULT_NMS_IOU = 0.3


@dataclass(frozen=True)
class Trajectory:
    """State of one tracked object.

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
            object.__setattr__(self, "head_frame", self.last_seen)


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


@dataclass(frozen=True)
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


def update_trajectory(traj: Trajectory, det: Detection, momentum: float) -> Trajectory:
    """Absorb a matched detection into the trajectory.

    The detection box becomes the head. The embedding moves toward the
    detection's by ``1 - momentum`` and is re-normalized; the velocity is an
    exponential average (same momentum) of the per-frame center displacement
    since the current head.
    """
    if det.frame < traj.head_frame:
        raise ValueError(f"detection frame {det.frame} is behind trajectory head frame {traj.head_frame}")
    gap = max(det.frame - traj.head_frame, 1)
    disp = ((det.box.cx - traj.head_box.cx) / gap, (det.box.cy - traj.head_box.cy) / gap)
    velocity = (
        momentum * traj.avg_velocity[0] + (1.0 - momentum) * disp[0],
        momentum * traj.avg_velocity[1] + (1.0 - momentum) * disp[1],
    )

    embedding = traj.head_embedding
    if det.embedding is not None:
        if embedding is None:
            embedding = det.embedding
        else:
            mixed = momentum * embedding + (1.0 - momentum) * det.embedding
            norm = float(np.linalg.norm(mixed))
            # Opposite embeddings can cancel at momentum 0.5; trust the fresh one.
            embedding = det.embedding if norm < 1e-12 else mixed / norm

    return replace(
        traj,
        head_box=det.box,
        head_embedding=embedding,
        avg_velocity=velocity,
        last_seen=det.frame,
        head_frame=det.frame,
        last_confidence=det.confidence,
    )


class Tracker:
    """Stateful per-sequence tracker. Not safe to share across sequences."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.active: list[Trajectory] = []
        self.paused: list[Trajectory] = []
        self.next_id = 1
        self.current_frame = 0

    def step(
        self,
        detections: list[Detection],
        frame: int | None = None,
        predictions: list[BBox | None] | None = None,
    ) -> list[TrackOutput]:
        """Advance one frame.

        Args:
            detections: detections of the new frame, already confidence
                filtered and NMS'd. All must carry the same frame index.
            frame: frame being processed; defaults to the detections' frame,
                or to the frame after the last processed one when there are
                no detections.
            predictions: optional next-frame boxes, ``predictions[j]`` for
                ``detections[j]``; the trajectory that takes detection j
                coasts on it if it misses the next frame. ``None`` entries
                fall back to linear propagation.

        Returns:
            One output per surviving trajectory that has a box this frame;
            entries from propagation are flagged ``interpolated``.
        """
        cfg = self.config
        if frame is None:
            frame = detections[0].frame if detections else self.current_frame + 1
        if frame <= self.current_frame:
            raise ValueError(f"frame {frame} does not advance past {self.current_frame}")
        for d in detections:
            if d.frame != frame:
                raise ValueError(f"detection frame {d.frame} does not match step frame {frame}")
        missing = [j for j, d in enumerate(detections) if d.embedding is None]
        if cfg.weights.identity > 0.0 and missing:
            raise ValueError(f"detection {missing[0]} has no embedding but identity weight is {cfg.weights.identity}")
        if predictions is None:
            predictions = [None] * len(detections)
        elif len(predictions) != len(detections):
            raise ValueError(f"got {len(predictions)} predictions for {len(detections)} detections")

        # Trajectories unseen longer than the buffer allows are gone for good.
        self.active = [t for t in self.active if frame - t.last_seen <= cfg.buffer_size]
        self.paused = [t for t in self.paused if frame - t.last_seen <= cfg.buffer_size]

        outputs: list[TrackOutput] = []
        det_taken = [False] * len(detections)
        new_active: list[Trajectory] = []

        def absorb(traj: Trajectory, j: int) -> None:
            det_taken[j] = True
            updated = update_trajectory(traj, detections[j], cfg.embedding_momentum)
            updated = replace(updated, predicted_box=predictions[j])
            new_active.append(updated)
            outputs.append(TrackOutput(frame, updated.track_id, updated.head_box, updated.last_confidence))

        # Phase 1: active set vs detections, blended affinity.
        unmatched_active: list[Trajectory] = []
        if self.active and detections:
            matrix = combined_affinity(self.active, detections, cfg.weights)
            result = solve_max(matrix, cfg.min_affinity)
            matched = {i: j for i, j in result.pairs}
        else:
            matched = {}
        for i, traj in enumerate(self.active):
            j = matched.get(i)
            if j is None:
                unmatched_active.append(traj)
            else:
                absorb(traj, j)

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
                matrix = combined_affinity(cand, [detections[j] for j in free], id_only)
                result = solve_max(matrix, cfg.min_affinity)
                recovered_ids = set()
                for ci, fj in result.pairs:
                    absorb(cand[ci], free[fj])
                    recovered_ids.add(cand[ci].track_id)
                if recovered_ids:
                    still_paused = [t for t in still_paused if t.track_id not in recovered_ids]

        # Phase 3: leftovers become new trajectories.
        for j, det in enumerate(detections):
            if det_taken[j]:
                continue
            traj = Trajectory(
                track_id=self.next_id,
                head_box=det.box,
                head_embedding=det.embedding,
                avg_velocity=(0.0, 0.0),
                last_seen=frame,
                last_confidence=det.confidence,
                predicted_box=predictions[j],
            )
            self.next_id += 1
            new_active.append(traj)
            outputs.append(TrackOutput(frame, traj.track_id, traj.head_box, det.confidence))

        # Phase 4: unmatched trajectories either coast on a predicted/linear
        # head (and stay in the active set) or fall into the paused buffer.
        # A prediction is for the frame after last_seen only.
        new_paused: list[Trajectory] = still_paused
        for traj in unmatched_active:
            if frame - traj.last_seen <= cfg.motion_propagate_frames:
                head = traj.predicted_box if traj.last_seen == frame - 1 else None
                if head is None:
                    head = propagate_linear(traj, steps=frame - traj.head_frame)
                new_active.append(replace(traj, head_box=head, head_frame=frame))
                outputs.append(TrackOutput(frame, traj.track_id, head, traj.last_confidence, interpolated=True))
            else:
                new_paused.append(traj)

        self.active = new_active
        self.paused = new_paused
        self.current_frame = frame
        return outputs


def track_stream(
    dets,
    config: TrackerConfig | None = None,
    predictions=None,
    nms_iou: float = DEFAULT_NMS_IOU,
) -> list[TrackOutput]:
    """Run a fresh tracker over a whole detection stream.

    Args:
        dets: mapping frame -> list of Detection; frames 1..max are stepped,
            missing ones as empty.
        config: tracker configuration (defaults apply when omitted).
        predictions: optional mapping (frame, det_index) -> BBox giving the
            predicted next-frame box for a detection, indexed by the
            detection's position in the frame's raw list (before confidence
            filtering and NMS). An empty mapping is the same as none.
        nms_iou: suppression threshold applied after confidence filtering.

    Detections below ``config.det_threshold`` are dropped, then NMS runs,
    then the tracker steps every frame in order.
    """
    config = config or TrackerConfig()
    tracker = Tracker(config)
    outputs: list[TrackOutput] = []
    if not dets:
        return outputs

    for frame in range(1, max(dets) + 1):
        raw = dets.get(frame, [])
        kept = nms([d for d in raw if d.confidence >= config.det_threshold], nms_iou)
        preds = None
        if predictions:
            # nms keeps survivors in input order, so a forward walk finds their raw indices.
            rest = iter(enumerate(raw))
            preds = [predictions.get((frame, next(i for i, d in rest if d is k))) for k in kept]
        outputs.extend(tracker.step(kept, frame, preds))
    return outputs

"""Shared test helpers: one way to build a ``Detections`` batch, a
``TrackOutputs`` batch and a tracker's trajectories by hand, an
``IdStream`` split into frames, the pairwise
IoU oracle (the dense broadcast that the sort and sweep in
``idtrack.affinity`` replaced), the per-pair oracle of
``update_trajectory`` (the loop that the table's array update replaced),
and box arrays whose edges repeat, touch and nest, to hold the sweep to
the oracle."""

import numpy as np

from idtrack.geometry import BBox, Detections, _box_rows
from idtrack.tracker import TrackOutputs, Trajectories, TrajectoryTable


def detections(rows):
    """One ``Detections`` batch of ``rows``, each ``(box, confidence)``,
    ``(box, confidence, embedding)`` or ``(box, confidence, embedding,
    prediction)`` with ``BBox`` boxes. Every row has an embedding or none
    does; a prediction may be None in any row."""
    columns = list(zip(*[tuple(row) + (None,) * (4 - len(row)) for row in rows]))
    boxes, confidence, vectors, ahead = columns or [()] * 4
    embeddings = None
    if any(v is not None for v in vectors):
        if any(v is None for v in vectors):
            raise ValueError("every row has an embedding or none does")
        embeddings = np.array(vectors, dtype=np.float64)
    predictions = predicted = None
    if any(p is not None for p in ahead):
        predicted = [p is not None for p in ahead]
        predictions = _box_rows([p or box for p, box in zip(ahead, boxes)])
    return Detections(_box_rows(boxes), confidence, embeddings, predictions, predicted)


def by_frame(stream):
    """An ``IdStream``'s rows as ``{frame: [(id, BBox, confidence)]}``:
    frames in order of first appearance, each frame's rows in column order,
    the mapping that ``IdStream.pack`` joins back."""
    rows = zip(stream.frames.tolist(), stream.ids.tolist(), stream.boxes.tolist(), stream.confidence.tolist())
    frames = {}
    for f, i, box, confidence in rows:
        frames.setdefault(f, []).append((i, BBox(*box), confidence))
    return frames


def track_outputs(rows):
    """One ``TrackOutputs`` batch of ``TrackOutput`` rows, in their order."""
    rows = list(rows)
    return TrackOutputs([o.frame for o in rows], [o.track_id for o in rows], _box_rows([o.box for o in rows]),
                        [o.confidence for o in rows], [o.interpolated for o in rows])


def trajectories(rows):
    """The ``Trajectories`` of a fresh ``TrajectoryTable`` that holds
    ``rows``, one slot per row in row order. A row is ``(track_id,
    head_box, head_embedding)``, optionally followed by ``avg_velocity``
    ((0, 0)), ``last_seen`` (1) and ``head_frame`` (``last_seen``); the
    confidence is 1 and no row has a prediction. Embeddings may be None;
    the others share one dimension."""
    rows = [tuple(row) + ((0.0, 0.0), 1, None)[len(row) - 3 :] for row in rows]
    ids, boxes, vectors, velocity, last_seen, head_frame = (list(c) for c in zip(*rows)) if rows else [[]] * 6
    table = TrajectoryTable()
    slots = table.add(np.array(ids, dtype=np.int64), Detections(_box_rows(boxes), np.ones(len(rows))), 1)
    table.velocity[slots] = np.array(velocity, dtype=np.float64).reshape(-1, 2)
    table.last_seen[slots] = last_seen
    table.head_frame[slots] = [seen if head is None else head for seen, head in zip(last_seen, head_frame)]
    for slot, vector in zip(slots.tolist(), vectors):
        if vector is not None:
            table.embedding_matrix(len(vector))[slot] = vector
            table.embedded[slot] = True
    return Trajectories(table, slots)


# A trajectory's values, as ``Trajectory`` views read them.
FIELDS = ("track_id", "head_box", "head_embedding", "avg_velocity", "last_seen", "head_frame", "last_confidence",
          "predicted_box")


def state(values):
    """A trajectory's values (a view, or a dict of ``FIELDS``) as a tuple,
    the embedding as bytes, so that equality is bit for bit."""
    values = [values[f] if isinstance(values, dict) else getattr(values, f) for f in FIELDS]
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values)


def update_one(traj, d, momentum, frame):
    """Reference update of one pair: the values of trajectory ``traj`` (a
    view) after it takes detection ``d`` at ``frame``, as a dict of
    ``FIELDS``. It works one pair and one embedding at a time, with
    ``np.linalg.norm``, and changes nothing."""
    if frame < traj.head_frame:
        raise ValueError(f"detection frame {frame} is behind trajectory head frame {traj.head_frame}")
    gap = max(frame - traj.head_frame, 1)
    disp = ((d.box.cx - traj.head_box.cx) / gap, (d.box.cy - traj.head_box.cy) / gap)
    velocity = (
        momentum * traj.avg_velocity[0] + (1.0 - momentum) * disp[0],
        momentum * traj.avg_velocity[1] + (1.0 - momentum) * disp[1],
    )
    embedding = traj.head_embedding
    if d.embedding is not None:
        if embedding is None:
            embedding = d.embedding
        else:
            mixed = momentum * embedding + (1.0 - momentum) * d.embedding
            norm = float(np.linalg.norm(mixed))
            embedding = d.embedding if norm < 1e-12 else mixed / norm
    return dict(track_id=traj.track_id, head_box=d.box, head_embedding=embedding, avg_velocity=velocity,
                last_seen=frame, head_frame=frame, last_confidence=d.confidence, predicted_box=d.prediction)


def batch_bits(batch):
    """Every array of a ``Detections`` batch as (dtype, shape, bytes), None
    where the batch has none, so that equality is bit for bit."""
    columns = (batch.boxes, batch.confidence, batch.embeddings, batch.predictions, batch.predicted)
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in columns]


def iou_cells(a, b):
    """Pairwise IoU of two ``(n, 4)`` center-form box arrays by the dense
    broadcast: every cell of the ``(len(a), len(b))`` matrix scored with the
    float operations of the scalar ``idtrack.affinity.iou``."""
    if not len(a) or not len(b):
        return np.zeros((len(a), len(b)))
    cx_a, cy_a, w_a, h_a = np.asarray(a, dtype=np.float64).T[:, :, None]
    cx_b, cy_b, w_b, h_b = np.asarray(b, dtype=np.float64).T[:, None, :]
    iw = np.minimum(cx_a + w_a / 2.0, cx_b + w_b / 2.0) - np.maximum(cx_a - w_a / 2.0, cx_b - w_b / 2.0)
    ih = np.minimum(cy_a + h_a / 2.0, cy_b + h_b / 2.0) - np.maximum(cy_a - h_a / 2.0, cy_b - h_b / 2.0)
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    return np.minimum(inter / (w_a * h_a + w_b * h_b - inter), 1.0)


def iou_matrix(boxes_a, boxes_b):
    """``iou_cells`` of two ``BBox`` lists."""
    return iou_cells(_box_rows(boxes_a), _box_rows(boxes_b))


def grid_boxes(rng, n, span):
    """``n`` boxes with centres within ``span`` and sides up to 40, on a
    quarter grid, so that edges repeat and touch exactly."""
    return np.hstack([rng.integers(-4 * span, 4 * span, (n, 2)) / 4.0, rng.integers(1, 160, (n, 2)) / 4.0])


def relatives(rng, boxes):
    """One box for each of ``boxes``: the same box, one nested in it, one
    that shares its left edge, one whose left edge is its right edge (an
    intersection width of exactly 0), one moved an ulp less than that (a
    width of an ulp or so, or 0) or one a single ulp wider."""
    out = boxes.copy()
    cx, w = boxes[:, 0], boxes[:, 2]
    kind = rng.integers(0, 6, len(boxes))
    nested, left, touching, barely, wider = (kind == k for k in range(1, 6))
    out[nested, 2:] = boxes[nested, 2:] / 2.0
    out[left, 0], out[left, 2] = cx[left] - w[left] / 4.0, w[left] / 2.0
    out[touching, 0] = cx[touching] + w[touching]
    out[barely, 0] = np.nextafter(cx[barely] + w[barely], -np.inf)
    out[wider, 2] = np.nextafter(w[wider], np.inf)
    return out

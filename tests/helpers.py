"""Shared test helpers: one way to build a ``Detections`` batch by hand, the
pairwise IoU oracle (the dense broadcast that the sort and sweep in
``idtrack.affinity`` replaced), and box arrays whose edges repeat, touch and
nest, to hold the sweep to the oracle."""

import numpy as np

from idtrack.geometry import Detections, _box_rows


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

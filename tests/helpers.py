"""Shared test helpers: one way to build a ``Detections`` batch by hand, and
the pairwise IoU oracle."""

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


def iou_matrix(boxes_a, boxes_b):
    """Pairwise IoU of two ``BBox`` lists, shape ``(len(a), len(b))``, with
    the float operations of the scalar ``idtrack.affinity.iou``."""
    if not boxes_a or not boxes_b:
        return np.zeros((len(boxes_a), len(boxes_b)))
    cx_a, cy_a, w_a, h_a = np.array([(b.cx, b.cy, b.w, b.h) for b in boxes_a], dtype=np.float64).T[:, :, None]
    cx_b, cy_b, w_b, h_b = np.array([(b.cx, b.cy, b.w, b.h) for b in boxes_b], dtype=np.float64).T[:, None, :]
    iw = np.minimum(cx_a + w_a / 2.0, cx_b + w_b / 2.0) - np.maximum(cx_a - w_a / 2.0, cx_b - w_b / 2.0)
    ih = np.minimum(cy_a + h_a / 2.0, cy_b + h_b / 2.0) - np.maximum(cy_a - h_a / 2.0, cy_b - h_b / 2.0)
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    return np.minimum(inter / (w_a * h_a + w_b * h_b - inter), 1.0)

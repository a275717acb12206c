"""The batch consumers against the per-row code they replaced.

``nms``, ``combined_affinity``, ``write_detections`` and ``write_embeddings``
read one ``Detections`` batch per frame. The ``reference_*`` functions below
are their versions from before batches, which walked one ``Detection`` row
at a time; the batch code must keep the same NMS survivors, the same
affinity bits and the same written bytes. ``write_gt`` and ``write_results``
format rows across frames in chunks; their references write one row at a
time with one "%" format each.
"""

from dataclasses import replace
from itertools import islice
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from idtrack import mot_io
from idtrack.affinity import AffinityWeights, combined_affinity, nms
from idtrack.geometry import BBox, Detection, Detections, IdBoxes, to_corner
from idtrack.tracker import TrackOutput, Trajectory


def reference_iou_matrix(boxes_a, boxes_b):
    if not boxes_a or not boxes_b:
        return np.zeros((len(boxes_a), len(boxes_b)))
    cx_a, cy_a, w_a, h_a = np.array([(b.cx, b.cy, b.w, b.h) for b in boxes_a], dtype=np.float64).T[:, :, None]
    cx_b, cy_b, w_b, h_b = np.array([(b.cx, b.cy, b.w, b.h) for b in boxes_b], dtype=np.float64).T[:, None, :]
    iw = np.minimum(cx_a + w_a / 2.0, cx_b + w_b / 2.0) - np.maximum(cx_a - w_a / 2.0, cx_b - w_b / 2.0)
    ih = np.minimum(cy_a + h_a / 2.0, cy_b + h_b / 2.0) - np.maximum(cy_a - h_a / 2.0, cy_b - h_b / 2.0)
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    return np.minimum(inter / (w_a * h_a + w_b * h_b - inter), 1.0)


def reference_nms(detections, iou_threshold):
    order = np.argsort([-d.confidence for d in detections], kind="stable")
    boxes = [detections[i].box for i in order]
    suppresses = reference_iou_matrix(boxes, boxes) > iou_threshold
    alive = np.ones(len(order), dtype=bool)
    for k in range(len(order)):
        if alive[k]:
            alive[k + 1 :] &= ~suppresses[k, k + 1 :]
    return [detections[i] for i in np.sort(order[alive])]


def reference_combined_affinity(trajectories, detections, weights):
    n, m = len(trajectories), len(detections)
    if n == 0 or m == 0:
        return np.zeros((n, m))
    out = np.zeros((n, m))
    if weights.overlap > 0.0:
        out += weights.overlap * reference_iou_matrix([t.head_box for t in trajectories], [d.box for d in detections])
    if weights.identity > 0.0:
        emb_t = np.array([t.head_embedding for t in trajectories])
        emb_d = np.array([d.embedding for d in detections])
        out += weights.identity * np.clip(emb_t @ emb_d.T, 0.0, 1.0)
    return out


def reference_mot_line(frame, obj_id, box, conf):
    left, top, right, bottom = to_corner(box)
    return "%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,-1,-1,-1\n" % (frame, obj_id, left, top, right - left, bottom - top, conf)


def reference_write_detections(path, dets):
    with open(path, "w", encoding="ascii") as fh:
        for frame in sorted(dets):
            for det in dets[frame]:
                fh.write(reference_mot_line(frame, -1, det.box, det.confidence))


def reference_write_gt(path, gt):
    with open(path, "w", encoding="ascii") as fh:
        for frame in sorted(gt):
            for obj_id, box in gt[frame]:
                fh.write(reference_mot_line(frame, obj_id, box, 1.0))


def reference_write_results(path, outputs):
    rows = sorted((o for o in outputs if not o.interpolated), key=lambda o: (o.frame, o.track_id))
    with open(path, "w", encoding="ascii") as fh:
        for o in rows:
            fh.write(reference_mot_line(o.frame, o.track_id, o.box, o.confidence))
    return len(rows)


def reference_write_embeddings(path, dets):
    dim = None
    for frame in sorted(dets):
        for idx, det in enumerate(dets[frame]):
            if det.embedding is None:
                raise ValueError(f"frame {frame} detection {idx} has no embedding")
            if dim is None:
                dim = det.embedding.shape[0]
            elif det.embedding.shape[0] != dim:
                raise ValueError("mixed embedding dimensions in one stream")
    dim = dim or 0
    line = "%d,%d" + ",%.9f" * dim + "\n"
    rows = (((frame, idx), det.embedding) for frame in sorted(dets) for idx, det in enumerate(dets[frame]))
    chunk_rows = max(1, mot_io._CHUNK_VALUES // max(dim, 1))
    with open(path, "wb") as fh:
        fh.write(b"dim=%d\n" % dim)
        while chunk := list(islice(rows, chunk_rows)):
            keys, vectors = zip(*chunk)
            frames, indices = np.array(keys).T
            fh.write(mot_io._embedding_rows(frames, indices, np.array(vectors), line))


def as_batch(rows):
    """The rows' values as a new batch, built by the checking constructor
    (so it holds no rows of its own)."""
    boxes = [(d.box.cx, d.box.cy, d.box.w, d.box.h) for d in rows]
    embeddings = np.array([d.embedding for d in rows]) if rows and all(d.embedding is not None for d in rows) else None
    return Detections(boxes, [d.confidence for d in rows], embeddings)


def bits(array):
    return array.dtype.str, array.shape, array.tobytes()


# Boxes on a half-pixel grid repeat and touch; the free floats, the far
# centres and the tiny and huge sides exercise rounding at the corners.
half_steps = st.integers(0, 80).map(lambda v: v / 2.0)
sides = st.one_of(st.integers(1, 40).map(lambda v: v / 2.0), st.floats(0.1, 30.0), st.sampled_from([1e-6, 1e6]))
centres = st.one_of(half_steps, st.floats(-50.0, 50.0), st.floats(-1e12, 1e12))
boxes = st.builds(BBox, centres, half_steps, sides, sides)
confidences = st.one_of(st.sampled_from((0.0, 0.3, 0.5, 0.7, 1.0)), st.floats(0.0, 1.0))


@st.composite
def chains(draw):
    """Boxes in a row, each overlapping the next more than the one after:
    whether the third survives depends on whether the second did."""
    step = draw(st.sampled_from([2.0, 3.0, 4.5]))
    return [BBox(k * step, 0.0, 10.0, 10.0) for k in range(draw(st.integers(2, 6)))]


@st.composite
def unit_rows(draw, n, dim):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.normal(size=(n, dim))
    if n > 1 and draw(st.booleans()):
        m[1] = -m[0]  # opposite vectors: a cosine of -1, clipped to 0
    return m / np.linalg.norm(m, axis=1, keepdims=True)


@st.composite
def frames(draw, dim):
    pool = draw(st.lists(boxes, min_size=1, max_size=8)) + draw(st.one_of(st.just([]), chains()))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), confidences), max_size=25))
    vectors = draw(unit_rows(len(picks), dim))
    return [Detection(box, conf, vec) for (box, conf), vec in zip(picks, vectors)]


@settings(max_examples=200)
@given(
    st.integers(2, 16).flatmap(frames),
    st.one_of(st.sampled_from((0.0, 0.3, 1.0)), st.floats(0.0, 1.0)),
    st.booleans(),
)
def test_property_nms_keeps_the_reference_survivors(rows, threshold, mixed):
    if mixed:  # NMS reads no embedding, so rows with and without one may mix
        rows = [replace(d, embedding=None) if k % 2 else d for k, d in enumerate(rows)]
    want = reference_nms(rows, threshold)
    assert all(g is w for g, w in zip(nms(rows, threshold), want, strict=True))
    got = nms(as_batch(rows), threshold)
    kept = as_batch(want)
    assert bits(got.boxes) == bits(kept.boxes) and bits(got.confidence) == bits(kept.confidence)


@st.composite
def affinity_cases(draw):
    dim = draw(st.integers(2, 16))
    rows = draw(frames(dim))
    heads = draw(st.lists(boxes, max_size=8))
    vectors = draw(unit_rows(len(heads), dim))
    trajs = [Trajectory(k + 1, box, vec, (0.0, 0.0), last_seen=1) for k, (box, vec) in enumerate(zip(heads, vectors))]
    if rows and trajs and draw(st.booleans()):
        trajs[0].head_box = rows[0].box  # identical boxes: an IoU of exactly 1
    overlap = draw(st.one_of(st.sampled_from((0.0, 0.2, 0.5, 1.0)), st.floats(0.0, 1.0)))
    return trajs, rows, AffinityWeights(overlap, 1.0 - overlap)


@settings(max_examples=200)
@given(affinity_cases())
def test_property_affinity_has_the_reference_bits(case):
    trajs, rows, weights = case
    want = reference_combined_affinity(trajs, rows, weights)
    assert bits(combined_affinity(trajs, as_batch(rows), weights)) == bits(want)
    assert bits(combined_affinity(trajs, Detections.pack(rows), weights)) == bits(want)


@st.composite
def streams(draw):
    dim = draw(st.integers(1, 70))
    keys = draw(st.lists(st.one_of(st.integers(1, 10**7), st.integers(1, 2**63 - 1)), min_size=1, max_size=4,
                         unique=True))
    return {frame: draw(frames(dim)) for frame in keys}


@st.composite
def id_streams(draw):
    """A detection stream with ids for its rows: unique in each frame, from
    1 to 2**63 - 1, and a flag marking some rows interpolated."""
    dets = draw(streams())
    ids = {
        frame: draw(st.lists(st.one_of(st.integers(1, 50), st.integers(1, 2**63 - 1)), min_size=len(rows),
                             max_size=len(rows), unique=True))
        for frame, rows in dets.items()
    }
    n = sum(map(len, dets.values()))
    interpolated = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return dets, ids, interpolated


@settings(max_examples=100)
@given(id_streams(), st.sampled_from([1, 7, 40, 4096]), st.sampled_from([1, 7, 40, 4096]), st.randoms())
def test_property_writers_write_the_reference_bytes(tmp_path_factory, stream, chunk_values, chunk_rows, random):
    dets, ids, interpolated = stream
    tmp = tmp_path_factory.mktemp("writers")
    batches = {frame: as_batch(rows) for frame, rows in dets.items()}
    gt = {frame: [(i, d.box) for i, d in zip(ids[frame], rows)] for frame, rows in dets.items()}
    rows = [(frame, i, d) for frame, frame_rows in dets.items() for i, d in zip(ids[frame], frame_rows)]
    outputs = [TrackOutput(frame, i, d.box, d.confidence, flag) for (frame, i, d), flag in zip(rows, interpolated)]
    random.shuffle(outputs)
    with mock.patch.multiple(mot_io, _CHUNK_VALUES=chunk_values, _CHUNK_ROWS=chunk_rows):
        for writer, reference in (
            (mot_io.write_detections, reference_write_detections),
            (mot_io.write_embeddings, reference_write_embeddings),
        ):
            reference(tmp / "want.txt", dets)
            writer(tmp / "got.txt", batches)
            assert (tmp / "got.txt").read_bytes() == (tmp / "want.txt").read_bytes()
            writer(tmp / "rows.txt", {frame: Detections.pack(rows) for frame, rows in dets.items()})
            assert (tmp / "rows.txt").read_bytes() == (tmp / "want.txt").read_bytes()
        reference_write_gt(tmp / "want.txt", gt)
        mot_io.write_gt(tmp / "got.txt", gt)
        assert (tmp / "got.txt").read_bytes() == (tmp / "want.txt").read_bytes()
        mot_io.write_gt(tmp / "batches.txt", {frame: IdBoxes.pack(rows) for frame, rows in gt.items()})
        assert (tmp / "batches.txt").read_bytes() == (tmp / "want.txt").read_bytes()
        assert mot_io.write_results(tmp / "got.txt", outputs) == reference_write_results(tmp / "want.txt", outputs)
        assert (tmp / "got.txt").read_bytes() == (tmp / "want.txt").read_bytes()

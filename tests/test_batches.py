"""The batch consumers against the per-row code they replaced.

``nms`` and ``combined_affinity`` read one ``Detections`` batch per frame,
and ``write_detections`` and ``write_embeddings`` the columns of a
``DetectionStream`` of such batches. The ``reference_*`` functions below
are their versions from before batches, which walked one ``Detection`` at a
time (here the views that iterating a batch yields); the batch code must
keep the same NMS survivors, the same affinity bits and the same written
bytes. ``combined_affinity`` also reads the trajectories as the columns of
their tracker's table; its reference reads each ``Trajectory`` view. Views packed back into a batch must equal the batch's own ``take``.
``write_gt``, which is also ``write_results``, formats rows across frames in
chunks; its references sort the rows by (frame, id) and write one at a time
with one "%" format each.
"""

from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import batch_bits, detection_stream, detections, grid_boxes, iou_matrix, relatives, track_outputs, trajectories
from idtrack import mot_io
from idtrack.affinity import AffinityWeights, combined_affinity, nms
from idtrack.geometry import BBox, Detections, IdStream, TrackOutput, to_corner


def reference_nms(detections, iou_threshold):
    order = np.argsort([-d.confidence for d in detections], kind="stable")
    boxes = [detections[i].box for i in order]
    suppresses = iou_matrix(boxes, boxes) > iou_threshold
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
        out += weights.overlap * iou_matrix([t.head_box for t in trajectories], [d.box for d in detections])
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
            for obj_id, box, conf in sorted(gt[frame], key=lambda row: row[0]):
                fh.write(reference_mot_line(frame, obj_id, box, conf))


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


def written_as_reference(tmp, reference, read, *writes):
    """Each of ``writes`` (a writer with its stream, given a path) writes the
    bytes that ``reference`` writes, or refuses its stream where ``read``
    cannot read those bytes back: a box can round out of the domain at six
    decimals. Returns whether the streams were written."""
    want, got = tmp / "want.txt", tmp / "got.txt"
    reference(want)
    try:
        read(want)
    except ValueError:
        for write in writes:
            with pytest.raises(ValueError, match="as written to six decimals"):
                write(got)
        return False
    for write in writes:
        write(got)
        assert got.read_bytes() == want.read_bytes()
    return True


def bits(array):
    return array.dtype.str, array.shape, array.tobytes()


# Boxes on a half-pixel grid repeat and touch; the free floats, the far
# centres (out to the box domain's 1e8, where a written box can round out of
# it) and the tiny and huge sides exercise rounding at the corners.
half_steps = st.integers(0, 80).map(lambda v: v / 2.0)
sides = st.one_of(st.integers(1, 40).map(lambda v: v / 2.0), st.floats(0.1, 30.0), st.sampled_from([1e-6, 1e6]))
centres = st.one_of(half_steps, st.floats(-50.0, 50.0), st.floats(-1e8, 1e8), st.sampled_from([-1e8, 1e8]))
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
def frames(draw, dim, predicted=False):
    """One frame's batch, with unit embeddings of ``dim`` and, if
    ``predicted``, a prediction on some of its rows."""
    pool = draw(st.lists(boxes, min_size=1, max_size=8)) + draw(st.one_of(st.just([]), chains()))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), confidences), max_size=25))
    vectors = draw(unit_rows(len(picks), dim))
    ahead = [draw(st.one_of(st.none(), boxes)) if predicted else None for _ in picks]
    return detections([(box, conf, vec, p) for (box, conf), vec, p in zip(picks, vectors, ahead)])


@st.composite
def crowds(draw):
    """A frame of up to 300 boxes on a quarter grid, crowded or spread, half
    of them ``helpers.relatives`` of the others, so that NMS's sweep meets
    touching, tied and barely overlapping pairs among many."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    boxes = grid_boxes(rng, draw(st.integers(1, 150)), draw(st.sampled_from([10, 200, 5000])))
    boxes = rng.permutation(np.vstack([boxes, relatives(rng, boxes)]))
    confidence = rng.choice([0.2, 0.5, 0.9, 1.0], len(boxes))
    return Detections(boxes, confidence, draw(unit_rows(len(boxes), 4)))


thresholds = st.one_of(st.sampled_from((0.0, 0.3, 1.0)), st.floats(0.0, 1.0))


@settings(max_examples=200)
@given(st.one_of(st.integers(2, 16).flatmap(frames), crowds()), thresholds, st.booleans())
def test_property_nms_keeps_the_reference_survivors(batch, threshold, bare):
    if bare:  # NMS reads no embedding
        batch = Detections(batch.boxes, batch.confidence)
    want = batch.take([d.index for d in reference_nms(list(batch), threshold)])
    assert batch_bits(nms(batch, threshold)) == batch_bits(want)
    assert batch_bits(nms(list(batch), threshold)) == batch_bits(want)


@st.composite
def picked_views(draw):
    """A batch and a non-empty index list into it: any subset, in any order,
    with repeats. (No views leave no batch to take from.)"""
    batch = draw(frames(draw(st.integers(1, 8)), predicted=draw(st.booleans())))
    assume(len(batch) > 0)
    return batch, draw(st.lists(st.integers(0, len(batch) - 1), min_size=1, max_size=30))


@settings(max_examples=200)
@given(picked_views(), thresholds)
def test_property_nms_of_views_is_nms_of_their_batch_take(case, threshold):
    batch, index = case
    rows = list(batch)
    views = [rows[k] for k in index]
    assert batch_bits(nms(views, threshold)) == batch_bits(nms(batch.take(index), threshold))


@st.composite
def affinity_cases(draw):
    dim = draw(st.integers(2, 16))
    rows = draw(frames(dim))
    heads = draw(st.lists(boxes, max_size=8))
    vectors = draw(unit_rows(len(heads), dim))
    if rows and heads and draw(st.booleans()):
        heads[0] = next(iter(rows)).box  # identical boxes: an IoU of exactly 1
    trajs = trajectories([(k + 1, box, vec) for k, (box, vec) in enumerate(zip(heads, vectors))])
    overlap = draw(st.one_of(st.sampled_from((0.0, 0.2, 0.5, 1.0)), st.floats(0.0, 1.0)))
    return trajs, rows, AffinityWeights(overlap, 1.0 - overlap)


@settings(max_examples=200)
@given(affinity_cases())
def test_property_affinity_has_the_reference_bits(case):
    trajs, rows, weights = case
    want = reference_combined_affinity(trajs, rows, weights)
    assert bits(combined_affinity(trajs, rows, weights)) == bits(want)
    assert bits(combined_affinity(trajs, rows.take(np.arange(len(rows))), weights)) == bits(want)


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
    gt = {frame: [(i, d.box, d.confidence) for i, d in zip(ids[frame], rows)] for frame, rows in dets.items()}
    rows = [(frame, i, d) for frame, frame_rows in dets.items() for i, d in zip(ids[frame], frame_rows)]
    outputs = [TrackOutput(frame, i, d.box, d.confidence, flag) for (frame, i, d), flag in zip(rows, interpolated)]
    random.shuffle(outputs)
    joined = detection_stream(dets)
    taken = detection_stream({frame: rows.take(np.arange(len(rows))) for frame, rows in dets.items()})
    hyp = track_outputs(outputs)
    hyp = hyp.take(~hyp.interpolated)
    with mock.patch.multiple(mot_io, _CHUNK_VALUES=chunk_values, _CHUNK_ROWS=chunk_rows):
        written_as_reference(tmp, lambda p: reference_write_detections(p, dets), mot_io.read_detections,
                             lambda p: mot_io.write_detections(p, joined), lambda p: mot_io.write_detections(p, taken))
        assert written_as_reference(tmp, lambda p: reference_write_embeddings(p, dets), mot_io.read_embeddings,
                                    lambda p: mot_io.write_embeddings(p, joined),
                                    lambda p: mot_io.write_embeddings(p, taken))
        written_as_reference(tmp, lambda p: reference_write_gt(p, gt), mot_io.read_gt,
                             lambda p: mot_io.write_gt(p, IdStream.pack(gt)))
        if written_as_reference(tmp, lambda p: reference_write_results(p, outputs), mot_io.read_gt,
                                lambda p: mot_io.write_results(p, hyp)):
            assert mot_io.write_results(tmp / "got.txt", hyp) == interpolated.count(False)

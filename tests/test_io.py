import dataclasses
import math
import os
import re
import struct
import tracemalloc
import warnings
from collections.abc import Mapping
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idtrack import mot_io
from idtrack.affinity import AffinityWeights
from helpers import by_frame, detections, track_outputs
from idtrack.geometry import MIN_SIDE, BBox, Detections, IdStream, to_corner
from idtrack.mot_io import (
    load_detections,
    read_config,
    read_detections,
    read_embeddings,
    read_gt,
    read_predictions,
    write_detections,
    write_embeddings,
    write_gt,
    write_results,
)
from idtrack.sim import SimConfig, generate
from idtrack.tracker import TrackerConfig, TrackOutput, hypotheses, track_stream


def unit(vec):
    vec = np.asarray(vec, dtype=np.float64)
    return vec / np.linalg.norm(vec)


def test_parse_worked_example(tmp_path):
    p = tmp_path / "dets.txt"
    p.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n")
    dets = read_detections(p)
    assert list(dets) == [1]
    (d,) = dets[1]
    assert d.box == BBox(25.0, 40.0, 30.0, 40.0)
    assert d.confidence == 0.9
    assert d.embedding is None and d.prediction is None


def test_blank_lines_are_skipped(tmp_path):
    p = tmp_path / "dets.txt"
    p.write_text("\n1,-1,10,20,30,40,0.9,-1,-1,-1\n\n\n2,-1,10,20,30,40,0.8,-1,-1,-1\n")
    assert sorted(read_detections(p)) == [1, 2]


def test_malformed_lines_name_the_spot(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n1,-1,oops,20,30,40,0.9,-1,-1,-1\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2"):
        read_detections(p)
    p.write_text("1,-1,10,20\n")
    with pytest.raises(ValueError, match="7 comma-separated fields"):
        read_detections(p)
    p.write_text("0,-1,10,20,30,40,0.9,-1,-1,-1\n")
    with pytest.raises(ValueError, match="1-based"):
        read_detections(p)
    p.write_text("1,-1,10,20,-30,40,0.9,-1,-1,-1\n")
    with pytest.raises(ValueError, match=r"bad\.txt:1"):
        read_detections(p)


def test_gt_round_trip(tmp_path):
    gt, _ = generate(SimConfig(seed=3, num_identities=4, frames=12))
    p = tmp_path / "gt.txt"
    write_gt(p, gt)
    back, gt = by_frame(read_gt(p)), by_frame(gt)
    assert sorted(back) == sorted(gt)
    for f in gt:
        assert [i for i, _, _ in back[f]] == [i for i, _, _ in gt[f]]
        for (_, b1, _), (_, b2, _) in zip(back[f], gt[f]):
            assert b1.cx == pytest.approx(b2.cx, abs=1e-5)
            assert b1.w == pytest.approx(b2.w, abs=1e-5)


@pytest.mark.parametrize("stride", [1, 4])
def test_read_gt_of_a_generated_ground_truth_is_its_stream(tmp_path, stride):
    # Sorted by (frame, id), the file reads back as the stream that generate
    # returned, column for column and bit for bit: its frames, ids and
    # confidences as they are, and its boxes as their six-decimal "%" fields
    # rebuild them.
    gt, _ = generate(SimConfig(seed=3, num_identities=4, frames=30, frame_stride=stride))
    write_gt(tmp_path / "gt.txt", gt)
    order = np.lexsort((gt.ids, gt.frames))
    corners = [to_corner(BBox(*box)) for box in gt.boxes[order].tolist()]
    fields = np.array([[float("%.6f" % v) for v in (x0, y0, x1 - x0, y1 - y0)] for x0, y0, x1, y1 in corners])
    written = IdStream(gt.frames[order], gt.ids[order], mot_io._centred(*fields.T), gt.confidence[order])
    back = read_gt(tmp_path / "gt.txt")
    assert back.frames.tolist() == [f for f in range(1, (30 - 1) // stride + 2) for _ in range(4)]
    assert bits(back) == bits(written)


def test_written_files_are_parse_stable(tmp_path):
    # Parsing a written file and writing it again must reproduce the bytes:
    # the 6-decimal format is a fixed point of parse/format.
    gt, dets = generate(SimConfig(seed=5, num_identities=5, frames=15, fp_rate=0.5))
    gt_path, second = tmp_path / "a.txt", tmp_path / "b.txt"
    write_gt(gt_path, gt)
    write_gt(second, read_gt(gt_path))
    assert gt_path.read_bytes() == second.read_bytes()

    d1, d2 = tmp_path / "d1.txt", tmp_path / "d2.txt"
    write_detections(d1, dets)
    write_detections(d2, read_detections(d1))
    assert d1.read_bytes() == d2.read_bytes()


def test_gt_rejects_anonymous_ids(tmp_path):
    p = tmp_path / "gt.txt"
    p.write_text("1,-1,10,20,30,40,1,-1,-1,-1\n")
    with pytest.raises(ValueError, match="ids must be >= 1"):
        read_gt(p)


def test_read_gt_returns_columns_that_keep_confidence(tmp_path):
    p = tmp_path / "hyp.txt"
    p.write_text("1,3,10,20,30,40,0.625000,-1,-1,-1\n2,5,0,0,2,2,1,-1,-1,-1\n1,4,0,0,2,2,0.5,-1,-1,-1\n")
    stream = read_gt(p)
    assert isinstance(stream, IdStream) and stream.frames.tolist() == [1, 2, 1]  # file order
    assert stream.frames.dtype == stream.ids.dtype == np.int64 and stream.ids.tolist() == [3, 5, 4]
    assert stream.boxes.tolist() == [[25.0, 40.0, 30.0, 40.0], [1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 2.0, 2.0]]
    assert stream.confidence.tolist() == [0.625, 1.0, 0.5]


def test_embedding_sidecar_round_trip(tmp_path):
    _, dets = generate(SimConfig(seed=7, num_identities=3, frames=8, embedding_dim=16))
    p = tmp_path / "emb.txt"
    write_embeddings(p, dets)
    dim, keys, matrix = read_embeddings(p)
    vectors = dict(zip(keys, matrix))
    assert dim == 16
    for f in dets:
        for idx, d in enumerate(dets[f]):
            got = vectors[(f, idx)]
            assert abs(np.linalg.norm(got) - 1.0) < 1e-9
            assert np.allclose(got, d.embedding, atol=1e-8)


def test_load_detections_attaches_embeddings(tmp_path):
    _, dets = generate(SimConfig(seed=9, num_identities=3, frames=6, embedding_dim=8))
    dp, ep = tmp_path / "dets.txt", tmp_path / "emb.txt"
    write_detections(dp, dets)
    write_embeddings(ep, dets)
    loaded = load_detections(dp, ep)
    for f in loaded:
        assert all(d.embedding is not None for d in loaded[f])
        assert len(loaded[f]) == len(dets[f])
    bare = load_detections(dp)
    assert all(d.embedding is None for v in bare.values() for d in v)


def test_load_detections_attaches_predictions_to_the_raw_detections_they_name(tmp_path):
    dp, pp = tmp_path / "dets.txt", tmp_path / "preds.txt"
    dp.write_text(
        "1,-1,8,8,4,4,0.9,-1,-1,-1\n"  # A: kept, no prediction
        "1,-1,100,100,4,4,0.3,-1,-1,-1\n"  # B: below the confidence threshold
        "1,-1,8.5,8,4,4,0.8,-1,-1,-1\n"  # C: suppressed by A in NMS
        "1,-1,200,200,4,4,0.7,-1,-1,-1\n"  # D: kept
        "2,-1,500,500,4,4,0.9,-1,-1,-1\n"
    )
    pp.write_text("1,1,300,300,4,4,1,-1,-1,-1\n1,2,400,400,4,4,1,-1,-1,-1\n1,3,210,200,4,4,1,-1,-1,-1\n")
    dets = load_detections(dp, None, pp)
    assert [d.prediction for d in dets[1]] == [
        None, BBox(302.0, 302.0, 4.0, 4.0), BBox(402.0, 402.0, 4.0, 4.0), BBox(212.0, 202.0, 4.0, 4.0)
    ]
    assert next(iter(dets[2])).prediction is None
    # Through the filter and NMS, D's prediction goes with D: its trajectory
    # coasts on it in frame 2. B's and C's are dropped with their detections.
    config = TrackerConfig(weights=AffinityWeights(1.0, 0.0), motion_propagate_frames=1)
    frame2 = {(o.track_id, o.box, o.interpolated) for o in track_stream(dets, config) if o.frame == 2}
    assert frame2 == {
        (1, BBox(10.0, 10.0, 4.0, 4.0), True),
        (2, BBox(212.0, 202.0, 4.0, 4.0), True),
        (3, BBox(502.0, 502.0, 4.0, 4.0), False),
    }


def test_load_detections_requires_full_sidecar(tmp_path):
    dp, ep = tmp_path / "dets.txt", tmp_path / "emb.txt"
    dp.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n")
    ep.write_text("dim=2\n")
    with pytest.raises(ValueError, match="no embedding"):
        load_detections(dp, ep)


def test_embedding_header_and_field_count(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("1,0,1.0,0.0\n")
    with pytest.raises(ValueError, match="dim=D"):
        read_embeddings(p)
    p.write_text("dim=3\n1,0,1.0,0.0\n")
    with pytest.raises(ValueError, match="expected 5 fields"):
        read_embeddings(p)
    p.write_text("\ndim=abc\n1,0,1.0\n")
    with pytest.raises(ValueError, match=r"emb\.txt:2: malformed header \(invalid literal for int"):
        read_embeddings(p)
    p.write_text("")
    with pytest.raises(ValueError, match="empty embedding file"):
        read_embeddings(p)


def test_a_large_header_over_a_short_row_reserves_no_memory(tmp_path):
    # loadtxt would reserve the header's D values per row before it read one
    # (gigabytes here); the line loop names the short row instead, and reads
    # a file of the header alone.
    p = tmp_path / "emb.txt"
    tracemalloc.start()
    try:
        p.write_text("dim=100000000\n1,0,1.0\n")
        with pytest.raises(ValueError, match=r"emb\.txt:2: expected 100000002 fields, got 3$"):
            read_embeddings(p)
        p.write_text("dim=100000000\n")
        dim, keys, matrix = read_embeddings(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (dim, keys, matrix.shape) == (100000000, [], (0, 100000000))
    assert peak < 20e6


def test_embedding_zero_vector_rejected(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("dim=2\n1,0,0.0,0.0\n")
    with pytest.raises(ValueError, match="zero-norm"):
        read_embeddings(p)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_embedding_non_finite_rejected(tmp_path, bad):
    # A NaN norm would slip past both the zero-norm and the deviation check.
    p = tmp_path / "emb.txt"
    p.write_text(f"dim=2\n1,0,1.0,0.0\n1,1,{bad},0.0\n")
    with pytest.raises(ValueError, match=r"emb\.txt:3: .*non-finite"):
        read_embeddings(p)


def test_denormalized_embedding_warns_and_fixes(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("dim=2\n1,0,3.0,4.0\n")
    with pytest.warns(UserWarning, match="re-normalizing"):
        _, keys, matrix = read_embeddings(p)
    assert keys == [(1, 0)] and np.allclose(matrix[0], [0.6, 0.8], atol=1e-12)


def test_write_results_skips_interpolated_by_default(tmp_path):
    outputs = track_outputs([
        TrackOutput(2, 1, BBox(10.0, 10.0, 4.0, 4.0), 0.9),
        TrackOutput(1, 1, BBox(9.0, 10.0, 4.0, 4.0), 0.9),
        TrackOutput(3, 1, BBox(11.0, 10.0, 4.0, 4.0), 0.9, interpolated=True),
    ])
    p = tmp_path / "out.txt"
    assert write_results(p, hypotheses(outputs)) == 2
    lines = p.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("1,1,") and lines[1].startswith("2,1,")

    assert write_results(p, hypotheses(outputs, interpolated=True)) == 3
    assert len(p.read_text().splitlines()) == 3
    assert write_results(p, IdStream([], [], [])) == 0
    assert p.read_text() == ""


def test_write_results_rejects_bad_ids(tmp_path):
    with pytest.raises(ValueError):
        write_results(tmp_path / "x.txt", hypotheses(track_outputs([TrackOutput(1, 0, BBox(0, 0, 1, 1), 0.5)])))


def test_the_smallest_sides_at_the_edge_of_the_box_domain_are_read_back(tmp_path):
    # Sides of MIN_SIDE beside far centres are written as 0.000001 wide and
    # read back inside the domain; at a bound of 1e-6 the reader refused them.
    # On the bound itself, the rounded corners keep a centre of -1e8 inside
    # beside a side of MIN_SIDE and one of +1e8 beside a side of 1e-6 (beside
    # MIN_SIDE the writers refuse +1e8: see WRITER_CHECKS).
    centres = [-1e8, 1e8 - 1.0, 1.0 - 1e8, 5e7 + 0.123, 99e6 + 0.77, 123456.789]
    boxes = [[c, c, MIN_SIDE, MIN_SIDE] for c in centres]
    boxes += [[1e8, 1e8, 1e-6, 1e-6], [1e8, -1e8, 1e-6, MIN_SIDE], [0.5, -0.5, 1.4e-6, 9e7]]
    write_gt(tmp_path / "gt.txt", IdStream(np.ones(len(boxes), np.int64), np.arange(1, len(boxes) + 1), boxes))
    write_detections(tmp_path / "dets.txt", {1: Detections(boxes, np.full(len(boxes), 0.5))})
    for back in (read_gt(tmp_path / "gt.txt").boxes, read_detections(tmp_path / "dets.txt")[1].boxes):
        assert (back[:, 2:] > 0.97e-6).all() and (back[:, 2:] < 1.03e-6).sum() == 2 * len(centres) + 5
        assert (np.abs(back[[0, -3, -2], :2]) > 1e8 - 1e-6).all()  # the centres on the bound


def test_a_results_file_is_written_back_byte_for_byte(tmp_path):
    # read_gt keeps each row's confidence and the one writer, by either name,
    # writes it: a results file read back and written again has its bytes.
    assert write_gt is write_results
    p = tmp_path / "hyp.txt"
    p.write_text("1,2,10.000000,20.000000,30.000000,40.000000,0.625000,-1,-1,-1\n"
                 "1,5,0.500000,0.000000,2.000000,2.000000,0.031250,-1,-1,-1\n"
                 "3,1,1.000000,1.000000,2.000000,2.000000,1.000000,-1,-1,-1\n")
    for write in (write_results, write_gt):
        assert write(tmp_path / "back.txt", read_gt(p)) == 3
        assert (tmp_path / "back.txt").read_bytes() == p.read_bytes()


def test_a_gt_stream_is_written_sorted_by_frame_then_id(tmp_path):
    box = [[5.0, 5.0, 2.0, 2.0]] * 3
    stream = IdStream([4, 4, 4, 1], [9, 2, 5, 3], box + box[:1], [0.5, 0.25, 1.0, 1.0])
    p = tmp_path / "gt.txt"
    assert write_gt(p, stream) == 4
    rows = [line.split(",") for line in p.read_text().splitlines()]
    assert [(r[0], r[1], r[6]) for r in rows] == [("1", "3", "1.000000"), ("4", "2", "0.250000"),
                                                  ("4", "5", "1.000000"), ("4", "9", "0.500000")]


BOX = BBox(5.0, 5.0, 2.0, 2.0)
WRITER_CHECKS = [
    (write_gt, IdStream.pack({2: [(1, BOX)], 0: [(1, BOX)]}), "frame indices are 1-based, got 0"),
    (write_gt, IdStream.pack({1: [(1, BOX)], 3: [(2, BOX), (0, BOX)]}), "object ids must be >= 1, got 0"),
    (write_gt, IdStream.pack({1: [(4, BOX)], 2: [(4, BOX), (5, BOX), (4, BOX)]}), "repeated id 4 in frame 2"),
    (write_detections, {1: Detections([(5.0, 5.0, 2.0, 2.0)], [0.5]), -3: Detections([], [])},
     "frame indices are 1-based, got -3"),
    (write_results, IdStream.pack({2: [(1, BOX, 0.5)], 0: [(1, BOX, 0.5)]}), "frame indices are 1-based, got 0"),
    (write_embeddings, {0: Detections([(5.0, 5.0, 2.0, 2.0)], [0.5], [[0.6, 0.8]])},
     "frame indices are 1-based, got 0"),
    (write_embeddings, {1: Detections([(5.0, 5.0, 2.0, 2.0)], [0.5], [[0.6, 0.8]]), -3: Detections([], [])},
     "frame indices are 1-based, got -3"),
    (write_results, IdStream.pack({3: [(2, BOX, 0.5), (2, BOX, 0.4)]}), "repeated id 2 in frame 3"),
    # The constructor refuses a NaN confidence too; the writer's own rule is held to it past that check.
    (write_results, IdStream._checked(np.array([1, 2]), np.array([1, 1]), np.array([[5.0, 5.0, 2.0, 2.0]] * 2),
                                      np.array([0.5, math.nan])), "confidence must be finite, got nan"),
    # In the box domain, but its corners round to six decimals so that the
    # centre that the reader rebuilds lands past 1e8.
    (write_gt, IdStream([1], [1], [(1e8, 1e8, 6e-7, 6e-7)]),
     "as written to six decimals, box cx must be at most 1e+08 in magnitude, got 100000000.0000005"),
    (write_detections, {1: Detections([(1e8, 1e8, 6e-7, 6e-7)], [0.5])},
     "as written to six decimals, box cx must be at most 1e+08 in magnitude, got 100000000.0000005"),
]


@pytest.mark.parametrize(("write", "rows", "message"), WRITER_CHECKS)
def test_writers_reject_rows_their_readers_reject(tmp_path, write, rows, message):
    p = tmp_path / "out.txt"
    with pytest.raises(ValueError, match=re.escape(message)):
        write(p, rows)
    assert not p.exists()


def near(*values):
    """Floats within a few written decimals of one of ``values``."""
    return st.builds(lambda v, d: v + d, st.sampled_from(values), st.floats(-3e-6, 3e-6))


@settings(max_examples=300)
@given(st.tuples(near(1e8, -1e8, 5.0), near(1e8, -1e8, 5.0), near(MIN_SIDE, 1e8, 2.0), near(MIN_SIDE, 1e8, 2.0)))
def test_property_the_mot_writers_refuse_what_their_reader_refuses(tmp_path_factory, box):
    # Boxes at the edges of the box domain, in it and out of it, given to
    # the writers unchecked: each writes a box exactly when the line that
    # formats it reads back.
    path = tmp_path_factory.mktemp("edge") / "out.txt"
    one = np.array([box])
    path.write_bytes(mot_io._mot_lines(np.ones(1, np.int64), np.ones(1, np.int64), one, np.full(1, 0.5)))
    try:
        read_gt(path)
        readable = True
    except ValueError:
        readable = False
    for write, stream in ((write_gt, IdStream._checked(np.ones(1, np.int64), np.ones(1, np.int64), one, np.ones(1))),
                          (write_detections, {1: Detections._checked(one, np.full(1, 0.5))})):
        try:
            write(path, stream)
            written = True
        except ValueError:
            written = False
        assert written == readable


def test_a_failed_results_write_leaves_no_file(tmp_path):
    # id 0 sorts after id 1 on a later frame, so the bad row is not the first.
    p = tmp_path / "hyp.txt"
    outputs = track_outputs([TrackOutput(1, 1, BBox(5, 5, 2, 2), 0.5), TrackOutput(2, 0, BBox(5, 5, 2, 2), 0.5)])
    with pytest.raises(ValueError, match="object ids must be >= 1, got 0"):
        write_results(p, hypotheses(outputs))
    assert not p.exists()


@pytest.mark.parametrize(
    ("third", "message"),
    [
        (None, "frame 3 detection 0 has no embedding"),
        (unit([1.0, 1.0, 1.0]), "mixed embedding dimensions"),
    ],
)
def test_a_failed_sidecar_write_leaves_no_file(tmp_path, third, message):
    box = BBox(5.0, 5.0, 2.0, 2.0)
    dets = {f: detections([(box, 0.9, unit([1.0, float(f)]))]) for f in (1, 2)}
    dets[3] = detections([(box, 0.9, third)])
    p = tmp_path / "emb.txt"
    with pytest.raises(ValueError, match=message):
        write_embeddings(p, dets)
    assert not p.exists()


def test_predictions_round_trip(tmp_path):
    p = tmp_path / "pred.txt"
    p.write_text("1,1,50,60,30,40,1,-1,-1,-1\n1,0,10,20,30,40,1,-1,-1,-1\n")
    keys, boxes = read_predictions(p, {1: 2})
    assert keys == [(1, 1), (1, 0)]  # file order
    assert boxes.dtype == np.float64 and boxes.tolist() == [[65.0, 80.0, 30.0, 40.0], [25.0, 40.0, 30.0, 40.0]]


def test_predictions_reject_a_repeated_key(tmp_path):
    p = tmp_path / "pred.txt"
    p.write_text("1,0,10,20,30,40,1,-1,-1,-1\n2,0,10,20,30,40,1,-1,-1,-1\n1,0,50,60,30,40,1,-1,-1,-1\n")
    with pytest.raises(ValueError, match=r"pred\.txt:3: repeated prediction for frame 1 detection 0"):
        read_predictions(p, {1: 1, 2: 1})


@pytest.mark.parametrize(
    ("line", "counts"),
    [
        ("1,1,10,20,30,40,1,-1,-1,-1", {1: 1}),  # one past the last detection
        ("1,99,10,20,30,40,1,-1,-1,-1", {1: 1}),
        ("3,0,10,20,30,40,1,-1,-1,-1", {1: 1}),  # a frame with no detections
        ("1,-1,10,20,30,40,1,-1,-1,-1", {1: 1}),
    ],
)
def test_predictions_reject_an_index_with_no_detection(tmp_path, line, counts):
    p = tmp_path / "pred.txt"
    p.write_text("1,0,10,20,30,40,1,-1,-1,-1\n" + line + "\n")
    with pytest.raises(ValueError, match=r"pred\.txt:2: "):
        read_predictions(p, counts)


def test_read_config(tmp_path):
    p = tmp_path / "sim.cfg"
    p.write_text(
        "# benchmark overrides\n"
        "seed = 12\n"
        "arena=800,600  # keep it small\n"
        "\n"
        "miss_rate=0.02\n"
    )
    cfg = read_config(p)
    assert cfg == {"seed": "12", "arena": "800,600", "miss_rate": "0.02"}
    p.write_text("seed 12\n")
    with pytest.raises(ValueError, match="key=value"):
        read_config(p)


def test_read_config_rejects_a_repeated_key(tmp_path):
    p = tmp_path / "sim.cfg"
    p.write_text("seed=1\nframes=5\n seed = 2 # again\n")
    with pytest.raises(ValueError, match=r"sim\.cfg:3: repeated key 'seed'"):
        read_config(p)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize(
    ("reader", "body"),
    [
        (read_detections, "1,-1,10,20,30,40,0.9,-1,-1,-1"),
        (read_gt, "1,1,10,20,30,40,1,-1,-1,-1"),
        (lambda p: read_predictions(p, {1: 9}), "1,0,10,20,30,40,1,-1,-1,-1"),
        (read_embeddings, "dim=1"),
        (read_config, "seed=1"),
    ],
)
def test_a_non_ascii_byte_names_its_line(tmp_path, reader, body, newline):
    p = tmp_path / "in.txt"
    p.write_bytes(f"{body}{newline}{newline}".encode() + b"# caf\xe9" + newline.encode())
    with pytest.raises(ValueError, match=r"in\.txt:3: non-ASCII byte 0xe9"):
        reader(p)


@pytest.mark.parametrize(
    "line",
    [
        "1.0,0,1.0",  # a float in an integer column
        "1,0,1.0#x",  # '#' is no comment sign
        "1\x1c,0,1.0",  # loadtxt alone skips \x1c-\x1f as space
    ],
)
def test_fields_only_loadtxt_would_take_are_errors(tmp_path, line):
    p = tmp_path / "emb.txt"
    p.write_text("dim=1\n1,1,1.0\n" + line + "\n")
    with pytest.raises(ValueError, match=r"emb\.txt:3: malformed value"):
        read_embeddings(p)


def test_a_loadtxt_warning_sends_the_sidecar_to_the_line_loop(tmp_path, monkeypatch):
    # numpy 1.23-1.26 parse "1.0" in an integer column as 1 and only warn.
    # The stand-in parses the file as such a release would, from the path a
    # plain file is handed over by, then warns.
    real, sources = np.loadtxt, []

    def lenient(source, dtype, **kwargs):
        sources.append(source)
        if isinstance(source, (str, os.PathLike)):
            with open(source) as fh:
                source = fh.readlines()
        rows = real([line.replace("1.0,", "1,", 1) for line in source], dtype=dtype, **kwargs)
        warnings.warn("loadtxt: parsing an integer via a float is deprecated", DeprecationWarning)
        return rows

    monkeypatch.setattr(np, "loadtxt", lenient)
    p = tmp_path / "emb.txt"
    p.write_text("dim=1\n1,0,1.0\n1.0,1,1.0\n")
    with pytest.raises(ValueError, match=r"emb\.txt:3: malformed value"):
        read_embeddings(p)
    p.write_text("dim=2\n")  # no row holds the header's 2 values: the line loop reads it
    dim, keys, matrix = read_embeddings(p)
    assert (dim, keys, matrix.shape) == (2, [], (0, 2))
    assert sources == [p]


def test_embeddings_reject_a_repeated_key(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("dim=2\n1,0,1.0,0.0\n2,0,1.0,0.0\n1,0,0.0,1.0\n")
    with pytest.raises(ValueError, match=r"emb\.txt:4: repeated embedding for frame 1 detection 0"):
        read_embeddings(p)


@pytest.mark.parametrize(
    ("line", "counts"),
    [
        ("1,1,1.0,0.0", {1: 1}),  # one past the last detection
        ("1,5,1.0,0.0", {1: 1}),
        ("3,0,1.0,0.0", {1: 1}),  # a frame with no detections
        ("1,-1,1.0,0.0", {1: 1}),
    ],
)
def test_embeddings_reject_an_index_with_no_detection(tmp_path, line, counts):
    p = tmp_path / "emb.txt"
    p.write_text("dim=2\n1,0,1.0,0.0\n" + line + "\n")
    with pytest.raises(ValueError, match=r"emb\.txt:3: frame \d+ has 1 detections|emb\.txt:3: frame 3 has 0"):
        read_embeddings(p, counts)
    assert len(read_embeddings(p)[1]) == 2  # without counts only the key is checked


def test_embedding_norm_overflow_rejected(tmp_path):
    # Every component is finite, but the norm is not: normalizing would give 0.
    p = tmp_path / "emb.txt"
    p.write_text("dim=2\n1,0,1e200,1e200\n")
    with pytest.raises(ValueError, match=r"emb\.txt:2: embedding norm overflows"):
        read_embeddings(p)


def test_load_detections_attaches_to_the_detections_it_read(tmp_path, monkeypatch):
    # The sidecar's vectors join the box and confidence arrays that
    # read_detections returned: no row is rebuilt and no array copied.
    _, dets = generate(SimConfig(seed=9, num_identities=3, frames=6, embedding_dim=8))
    dp, ep = tmp_path / "dets.txt", tmp_path / "emb.txt"
    write_detections(dp, dets)
    write_embeddings(ep, dets)
    read = {}

    def counting_read(path):
        read.update(read_detections(path))
        return dict(read)

    monkeypatch.setattr(mot_io, "read_detections", counting_read)
    loaded = load_detections(dp, ep)
    assert list(loaded) == list(read)
    for f, batch in loaded.items():
        assert batch.boxes is read[f].boxes and batch.confidence is read[f].confidence
        assert batch.embeddings.dtype == np.float64 and batch.embeddings.shape == (len(dets[f]), 8)
        for got, want in zip(batch.embeddings, dets[f].embeddings):
            assert abs(np.linalg.norm(got) - 1.0) < 1e-9
            assert np.allclose(got, want, atol=1e-8)


@pytest.mark.parametrize("bulk", [True, False])
def test_load_detections_places_each_vector_by_its_key(tmp_path, monkeypatch, bulk):
    # Sidecar rows in any order reach the detection their key names; the
    # first detection without one, in frame and index order, is the error.
    if not bulk:
        monkeypatch.setattr(mot_io, "_plain", no_bulk_parse)
    dp, ep = tmp_path / "dets.txt", tmp_path / "emb.txt"
    dp.write_text("2,-1,0,0,2,2,0.9\n1,-1,0,0,2,2,0.9\n2,-1,5,5,2,2,0.9\n2,-1,9,9,2,2,0.9\n")
    vectors = {(2, 0): [1.0, 0.0], (1, 0): [0.0, 1.0], (2, 1): [0.6, 0.8], (2, 2): [-0.8, 0.6]}
    order = [(2, 2), (1, 0), (2, 0), (2, 1)]
    ep.write_text("dim=2\n" + "".join(f"{f},{i},{vectors[f, i][0]},{vectors[f, i][1]}\n" for f, i in order))
    loaded = load_detections(dp, ep)
    assert list(loaded) == [2, 1]
    assert loaded[2].embeddings.tolist() == [vectors[2, 0], vectors[2, 1], vectors[2, 2]]
    assert loaded[1].embeddings.tolist() == [vectors[1, 0]]
    ep.write_text("dim=2\n" + "".join(f"{f},{i},{vectors[f, i][0]},{vectors[f, i][1]}\n" for f, i in order[:2]))
    with pytest.raises(ValueError, match=r"emb\.txt: no embedding for frame 2 detection 0"):
        load_detections(dp, ep)
    ep.write_text("dim=2\n" + "".join(f"{f},{i},{vectors[f, i][0]},{vectors[f, i][1]}\n" for f, i in order[1:]))
    with pytest.raises(ValueError, match=r"emb\.txt: no embedding for frame 2 detection 2"):
        load_detections(dp, ep)


def test_read_embeddings_keeps_the_file_order(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("dim=2\n3,1,0.0,1.0\n1,0,0.6,0.8\n")
    dim, keys, matrix = read_embeddings(p)
    assert (dim, keys, matrix.tolist()) == (2, [(3, 1), (1, 0)], [[0.0, 1.0], [0.6, 0.8]])
    p.write_text("dim=2\n3,1,0.0,2.0\n")  # off unit norm: it warns and re-normalizes
    with pytest.warns(UserWarning, match="re-normalizing"):
        dim, keys, matrix = read_embeddings(p)
    assert (dim, keys, matrix.tolist()) == (2, [(3, 1)], [[0.0, 1.0]])


def test_a_clean_sidecar_takes_the_bulk_path(tmp_path, monkeypatch):
    _, dets = generate(SimConfig(seed=4, num_identities=4, frames=10, embedding_dim=8))
    write_embeddings(tmp_path / "emb.txt", dets)
    monkeypatch.setattr(mot_io, "_by_line", line_loop_must_not_run)
    _, keys, _ = read_embeddings(tmp_path / "emb.txt", {f: len(v) for f, v in dets.items()})
    assert len(keys) == sum(map(len, dets.values()))


def test_results_and_sidecar_are_parse_stable(tmp_path):
    # write -> read -> write reproduces the bytes for the two writers that
    # test_written_files_are_parse_stable does not cover.
    _, dets = generate(SimConfig(seed=6, num_identities=5, frames=15, fp_rate=0.5, embedding_dim=16))
    outputs = track_outputs(
        TrackOutput(f, k + 1, d.box, d.confidence, interpolated=k % 4 == 0)
        for f, frame_dets in dets.items()
        for k, d in enumerate(frame_dets)
    )
    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    write_results(r1, hypotheses(outputs, interpolated=True))
    write_results(r2, read_gt(r1))
    assert r1.read_bytes() == r2.read_bytes()

    d1, e1, e2 = tmp_path / "d1.txt", tmp_path / "e1.txt", tmp_path / "e2.txt"
    write_detections(d1, dets)
    write_embeddings(e1, dets)
    write_embeddings(e2, load_detections(d1, e1))
    assert e1.read_bytes() == e2.read_bytes()


# The writers' per-value formatting before they moved to one format per line,
# kept as the byte-level reference.
def reference_mot_line(frame, obj_id, box, conf):
    left, top, right, bottom = to_corner(box)
    return f"{frame},{obj_id},{left:.6f},{top:.6f},{right - left:.6f},{bottom - top:.6f},{conf:.6f},-1,-1,-1\n"


def reference_embedding_line(frame, idx, vec):
    values = ",".join(f"{v:.9f}" for v in vec)
    return f"{frame},{idx},{values}\n"


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300)
@given(
    st.integers(1, 10**6),
    st.integers(-1, 10**6),
    finite,
    finite,
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(),
)
def test_property_mot_line_matches_the_per_value_reference(frame, obj_id, cx, cy, w, h, conf):
    box = BBox(cx, cy, w, h)
    line = mot_io._mot_lines(np.array([frame]), np.array([obj_id]), np.array([[cx, cy, w, h]]), np.array([conf]))
    assert line.decode() == reference_mot_line(frame, obj_id, box, conf)


# MOT values the fixed-point writer must round exactly as "%.6f" does: exact
# ties at the sixth decimal ((2j + 1) / 128) and values within float error of
# one ((n + 0.5) / 1e6, such as 1.45e-05), signed zeros and -1e-12, values
# either side of 1e8 (at or past it a row is formatted by "%"), and NaN and
# +-inf, with frames and ids anywhere in int64. Centres on the tie grid keep
# their ties at the corners. Ordinary values are drawn most often, so that
# most lists mix rows of both paths.
LIMIT = 1e8 - 5e-7  # values that round below 1e8 at six decimals are below this
ties = st.one_of(
    st.integers(-10**6, 10**6).map(lambda j: (2 * j + 1) / 128),
    st.integers(-10**7, 10**7).map(lambda n: (n + 0.5) / 1e6),
)
edges = st.sampled_from([0.0, -0.0, -1e-12, 1e-12, math.nextafter(LIMIT, 0.0), LIMIT, 1e8, 123456789.0]).flatmap(
    lambda v: st.sampled_from([v, -v])
)
ordinary = st.floats(-1e4, 1e4)
mot_rows = st.tuples(
    st.one_of(st.integers(1, 10**4), st.integers(-(2**63), 2**63 - 1)),
    st.integers(-(2**63), 2**63 - 1),
    st.tuples(
        st.one_of(ordinary, ordinary, ties, edges),
        st.one_of(ordinary, ordinary, ties, edges),
        st.one_of(st.sampled_from([1.0, 2.0, 0.25]), st.sampled_from([0.5, 3e8])),
        st.sampled_from([1.0, 0.5, 7.0]),
    ),
    st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.0), ties, edges, st.sampled_from([math.nan, math.inf, -math.inf])),
)


@settings(max_examples=300)
@given(st.lists(mot_rows, min_size=1, max_size=12))
def test_property_mot_lines_splice_percent_rows_among_fixed_ones(rows):
    frames, ids, boxes, conf = zip(*rows)
    got = mot_io._mot_lines(np.array(frames), np.array(ids), np.array(boxes), np.array(conf))
    assert got.decode() == "".join(reference_mot_line(f, i, BBox(*b), c) for f, i, b, c in rows)


@settings(max_examples=100)
@given(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), min_size=1, max_size=6))
def test_property_sidecar_lines_match_the_per_value_reference(tmp_path_factory, raw):
    vecs = [np.asarray(v) for v in raw if np.linalg.norm(v) > 1e-3]
    dets = {1: detections([(BBox(5.0, 5.0, 2.0, 2.0), 0.5, v / np.linalg.norm(v)) for v in vecs])}
    p = tmp_path_factory.mktemp("sidecar") / "emb.txt"
    write_embeddings(p, dets)
    want = "dim=3\n" if vecs else "dim=0\n"
    want += "".join(reference_embedding_line(1, k, d.embedding) for k, d in enumerate(dets[1]))
    assert p.read_text() == want


# Sidecar values the fixed-point writer must round exactly as "%.9f" does:
# exact ties at the ninth decimal ((2j + 1) / 1024), values within an ulp of
# the tie 0.9999999995, signed zeros, and +-5e-10, half a unit of the last
# printed digit.
NEAR_TIES = [0.9999999995, math.nextafter(0.9999999995, 0.0), math.nextafter(0.9999999995, 2.0)]
sidecar_values = st.one_of(
    st.integers(-512, 511).map(lambda j: (2 * j + 1) / 1024),
    st.integers(-2047, 2047).map(lambda k: k / 2048),
    st.sampled_from([*NEAR_TIES, *(-v for v in NEAR_TIES), 0.0, -0.0, 5e-10, -5e-10]),
    st.floats(-1.0, 1.0),
)


@st.composite
def unit_vectors(draw, dim):
    """A unit vector made of ``sidecar_values``: components are kept while
    their squares sum to at most 1 (the rest become 0) and one component
    takes up the remainder."""
    head, total = [], 0.0
    for v in draw(st.lists(sidecar_values, min_size=dim - 1, max_size=dim - 1)):
        keep = total + v * v <= 1.0
        head.append(v if keep else 0.0)
        total += v * v if keep else 0.0
    head.insert(draw(st.integers(0, dim - 1)), draw(st.sampled_from([1.0, -1.0])) * math.sqrt(1.0 - total))
    return np.array(head)


@st.composite
def embedded_streams(draw):
    dim = draw(st.integers(1, 70))
    frames = draw(st.lists(st.integers(1, 10**7), min_size=1, max_size=4, unique=True))
    box = BBox(5.0, 5.0, 2.0, 2.0)
    return {
        f: detections([(box, 0.5, draw(unit_vectors(dim))) for _ in range(draw(st.integers(0, 4)))])
        for f in frames
    }


@settings(max_examples=150)
@given(embedded_streams(), st.sampled_from([1, 7, 40, 150, 4096]))
def test_property_chunked_sidecar_matches_the_per_value_reference(tmp_path_factory, dets, chunk_values):
    p = tmp_path_factory.mktemp("sidecar") / "emb.txt"
    with mock.patch.object(mot_io, "_CHUNK_VALUES", chunk_values):
        write_embeddings(p, dets)
    rows = [(f, k, d.embedding) for f in sorted(dets) for k, d in enumerate(dets[f])]
    dim = rows[0][2].shape[0] if rows else 0
    assert p.read_bytes() == (f"dim={dim}\n" + "".join(reference_embedding_line(*row) for row in rows)).encode()


class CountingLine(str):
    """A format string that counts the rows formatted with "%"."""

    calls = 0

    def __mod__(self, args):
        CountingLine.calls += 1
        return str.__mod__(self, args)


def test_rows_the_fixed_point_path_cannot_round_fall_back_to_percent_format():
    ordinary = [0.25, -0.5, -1e-12, -0.0]
    rows = {
        (1, 0): ordinary,
        (1, 1): [math.nan, 0.5, 0.5, 0.5],
        (2, 0): [0.5, math.inf, 0.5, 0.5],
        (2, 1): [0.5, 0.5, -math.inf, 0.5],
        (3, 0): [0.5, 0.5, 0.5, 10.0],
        (3, 1): [-12345.678, 0.5, 0.5, 0.5],
        (4, 0): [9.9999999996, 0.5, 0.5, 0.5],  # rounds up to 10
        (4, 1): [0.9999999995, 0.5, 0.5, 0.5],  # within an ulp of a tie
        (10**12, 0): ordinary,
        (10**15 + 7, 10**12): ordinary,
        (-(2**63), 2**63 - 1): ordinary,
    }
    keys = list(rows)
    frames, indices = np.array(keys).T
    m = np.array(list(rows.values()))
    CountingLine.calls = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mot_io._embedding_rows(frames, indices, m, CountingLine("%d,%d" + ",%.9f" * 4 + "\n"))
    assert got.decode() == "".join(reference_embedding_line(f, k, v) for (f, k), v in zip(keys, m))
    assert CountingLine.calls == 7
    assert b"-0.000000000,-0.000000000\n" in got  # -1e-12 and -0.0 keep their sign



def test_mot_rows_the_fixed_point_path_cannot_round_fall_back_to_percent_format():
    box = (10.0, 20.0, 4.0, 6.0)
    rows = [
        (1, 1, box, 0.5),
        (1, 2, box, math.nan),
        (1, 3, box, math.inf),
        (2, 1, box, -math.inf),
        (2, 2, box, 99999999.999999),
        (2, 3, box, 1e8),
        (3, 1, box, 99999999.9999996),  # rounds up to 1e8
        (3, 2, box, 7 / 128),  # a tie at the sixth decimal
        (3, 3, box, 1.45e-05),  # within float error of a tie
        (4, 1, box, -0.0),
        (4, 2, box, -1e-12),
        (2**63 - 1, -(2**63), box, 0.25),
        (5, -1, (1e9, 20.0, 4.0, 6.0), 0.5),
    ]
    frames, ids, boxes, conf = zip(*rows)
    CountingLine.calls = 0
    with mock.patch.object(mot_io, "_MOT_LINE", CountingLine(mot_io._MOT_LINE)), warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mot_io._mot_lines(np.array(frames), np.array(ids), np.array(boxes), np.array(conf))
    assert got.decode() == "".join(reference_mot_line(f, i, BBox(*b), c) for f, i, b, c in rows)
    assert CountingLine.calls == 8
    assert b"\n4,1,8.000000,17.000000,4.000000,6.000000,-0.000000,-1,-1,-1\n4,2,8.000000,17.000000," in got
    assert b"\n9223372036854775807,-9223372036854775808,8.000000," in got


def test_a_generated_scene_is_written_without_percent_format(tmp_path):
    gt, dets = generate(SimConfig(seed=2, num_identities=6, frames=40, fp_rate=0.5))
    outputs = track_stream(dets, TrackerConfig())
    CountingLine.calls = 0
    with mock.patch.object(mot_io, "_MOT_LINE", CountingLine(mot_io._MOT_LINE)):
        write_gt(tmp_path / "gt.txt", gt)
        write_detections(tmp_path / "dets.txt", dets)
        assert write_results(tmp_path / "hyp.txt", hypotheses(outputs)) > 0
    assert CountingLine.calls == 0
    assert len(gt.ids) == len((tmp_path / "gt.txt").read_text().splitlines())


# Parser property: every sidecar is read the same by the bulk path and by the
# line loop alone. Files are valid rows with up to two mutations (a field the
# two parsers could take differently, a missing or extra field, a blank line
# or a repeated row), plus now and then a non-ASCII byte.
# Key-column mutations; "{}" is the field's valid value.
KEY_FIELDS = ["{}.0", "{}.0", "{}.0", "{}_0", "0x{}", "+{}", " {} ", "{}e0", "{}\x1c", "{}\x0c", "{}#", "0", "-1", "-0",
              "", "99999999999999999999"]
VALUE_FIELDS = ["1.0", "nan", "-nan", "inf", "-inf", "1_0", "0x1p3", "1e999", "1e5", " 1 ", "+1", "-0", "-1", "",
                "1\x1c", "1 2", '"1"', "1#2"]
BLANK_LINES = ["", "   ", "\t", "\x0c", "\x1c"]


@st.composite
def mutated(draw, rows):
    rows = [list(r) for r in rows]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 1, 2])) if rows else 0):
        r = draw(st.integers(0, len(rows) - 1))
        rows[r] = rows[r] or [""]  # a row an earlier cut emptied
        how = draw(st.sampled_from(["key", "key", "key", "value", "cut", "extra", "blank", "repeat"]))
        if how == "key":  # frame or index column
            c = draw(st.integers(0, min(1, len(rows[r]) - 1)))
            rows[r][c] = draw(st.sampled_from(KEY_FIELDS)).format(rows[r][c])
        elif how == "value":
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(st.sampled_from(VALUE_FIELDS))
        elif how == "cut":
            rows[r] = rows[r][: draw(st.integers(0, len(rows[r]) - 1))]
        elif how == "extra":
            rows[r] += draw(st.sampled_from([["x"], ["1", "2"], ['"a'], [""]]))
        elif how == "blank":
            rows.insert(r, [draw(st.sampled_from(BLANK_LINES))])
        else:
            rows.insert(r, list(rows[r]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (newline.join(",".join(r) for r in rows) + draw(st.sampled_from([newline, ""]))).encode("ascii")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xe9" + data[at:]
    return data


SIDECAR_KEYS = [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]


@st.composite
def sidecar_files(draw):
    dim = draw(st.sampled_from([1, 2, 3, 64]))
    headers, kinds = [f"dim={dim}"], ["unit", "unit9", "near"]
    if draw(st.integers(0, 2)) == 0:  # one file in three may have a bad header or vector
        headers += [f"dim= {dim}", "dim=abc", "dim=0", "dim=-1", "dims=2", ""]
        kinds += ["warn", "zero", "huge"]
    rows = [[draw(st.sampled_from(headers))]]
    for frame, index in draw(st.permutations(SIDECAR_KEYS))[: draw(st.integers(0, 5))]:
        vec = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
        kind = draw(st.sampled_from(kinds))
        norm = np.linalg.norm(vec)
        scale = {"near": 1.0004, "warn": 3.0, "zero": 0.0, "huge": 1e200}.get(kind, 1.0)
        vec = vec * (scale / norm if norm > 1e-6 and kind not in ("zero", "huge") else scale)
        values = [f"{v:.9f}" if kind == "unit9" else repr(float(v)) for v in vec]
        rows.append([str(frame), str(index), *values])
    return draw(mutated(rows))


def bits(value):
    """A comparable form of a parse result that tells every float bit apart."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, BBox):
        return (type(value).__name__, *(bits(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, Detections):
        columns = ("boxes", "confidence", "embeddings", "predictions", "predicted")
        return ("Detections", *(bits(getattr(value, name)) for name in columns))
    if isinstance(value, IdStream):
        return ("IdStream", *(bits(getattr(value, name)) for name in ("frames", "ids", "boxes", "confidence")))
    if isinstance(value, Mapping):
        return tuple((bits(k), bits(v)) for k, v in value.items())
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, *(bits(v) for v in value))
    return (type(value).__name__, value)


def no_bulk_parse(path):
    """Stands in for ``mot_io._plain`` to send every file to the line loop."""
    return False


def line_loop_must_not_run(*args):
    raise AssertionError("the bulk parse should have taken this file")


def float_arrays(value) -> list[np.ndarray]:
    """Every float array in a parse result."""
    if isinstance(value, np.ndarray):
        return [value] if value.dtype.kind == "f" else []
    if isinstance(value, Detections):
        value = [value.boxes, value.confidence, value.embeddings, value.predictions]
    elif isinstance(value, IdStream):
        value = [value.boxes, value.confidence]
    elif isinstance(value, Mapping):
        value = list(value.values())
    elif not isinstance(value, (tuple, list)):
        return []
    return [array for v in value for array in float_arrays(v)]


def finite(read):
    """``read``, asserting that every float array a successful read returns
    is finite: no NaN or inf gets past a parser."""
    def checked(path):
        result = read(path)
        assert all(np.isfinite(array).all() for array in float_arrays(result))
        return result
    return checked


def outcome(read, path):
    """(result bits or error message, warning messages) of one read."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = bits(read(path))
        except ValueError as exc:
            result = f"error: {exc}"
    return result, [str(w.message) for w in caught]


@settings(max_examples=500)
@given(sidecar_files(), st.sampled_from([None, {1: 2, 2: 3}]))
def test_property_sidecar_reader_agrees_with_the_line_loop(tmp_path_factory, data, counts):
    path = tmp_path_factory.mktemp("sidecar") / "emb.txt"
    path.write_bytes(data)

    def read(p):
        return read_embeddings(p, counts)

    got = outcome(finite(read), path)
    with mock.patch.object(mot_io, "_plain", no_bulk_parse):
        assert got == outcome(finite(read), path)


# Parser property: every MOT file is read the same by every reader's bulk path
# and by the line loop alone, values and frame order bit for bit, or fails
# with the same message. Rows start valid, with now and then a size or
# confidence outside its range, frames out of order and ids (or detection
# indices) of 1 or 2, now and then -1 or 0, so that every reader's row rules
# break too (a repeated key, an id below 1, an index out of range), and take
# the mutations of ``mutated``: reformatted integers ("1.0", "+1", "1_0",
# "1\x1c"), "nan", "inf" and "1e999", missing and extra columns, blank lines,
# "\r\n" and "\r" line ends and a non-ASCII byte.
MOT_SIZES = ["30", "4.5", "0.000001", "0", "-0", "-2", "1e308"]
MOT_CONFIDENCES = ["0.9", "0", "1", "1.0000001", "-0.1", "0.5", "nan", "inf", "-inf", "7"]
DET_COUNTS = {1: 3, 2: 2, 4: 3}


def predictions(path):
    return read_predictions(path, DET_COUNTS)


def embeddings(path):
    return read_embeddings(path, DET_COUNTS)


MOT_READERS = [read_detections, read_gt, predictions]


@st.composite
def mot_files(draw):
    rows = []
    for frame in draw(st.lists(st.integers(1, 4), max_size=8)):
        w, h = (draw(st.sampled_from(MOT_SIZES)) if draw(st.integers(0, 4)) == 0 else "30" for _ in range(2))
        conf = draw(st.sampled_from(MOT_CONFIDENCES)) if draw(st.integers(0, 4)) == 0 else "0.9"
        left, top = (repr(draw(st.floats(-1e3, 1e3))) for _ in range(2))
        key = draw(st.sampled_from(["-1", "0"])) if draw(st.integers(0, 7)) == 0 else str(draw(st.integers(1, 2)))
        rows.append([str(frame), key, left, top, w, h, conf, "-1", "-1", "-1"])
    return draw(mutated(rows))


@settings(max_examples=800)
@given(mot_files(), st.sampled_from(MOT_READERS))
def test_property_mot_reader_agrees_with_the_line_loop(tmp_path_factory, data, read):
    path = tmp_path_factory.mktemp("mot") / "in.txt"
    path.write_bytes(data)
    got = outcome(finite(read), path)
    with mock.patch.object(mot_io, "_plain", no_bulk_parse):
        assert got == outcome(finite(read), path)


def test_a_clean_detection_file_takes_the_bulk_path(tmp_path, monkeypatch):
    gt, dets = generate(SimConfig(seed=4, num_identities=4, frames=10, fp_rate=0.5))
    write_detections(tmp_path / "dets.txt", dets)
    write_gt(tmp_path / "gt.txt", gt)
    loop = {name: outcome(read, tmp_path / name) for name, read in [("dets.txt", read_detections), ("gt.txt", read_gt)]}
    monkeypatch.setattr(mot_io, "_by_line", line_loop_must_not_run)
    assert list(read_detections(tmp_path / "dets.txt")) == sorted(dets)
    assert outcome(read_detections, tmp_path / "dets.txt") == loop["dets.txt"]
    assert outcome(read_gt, tmp_path / "gt.txt") == loop["gt.txt"]


@pytest.mark.parametrize("blank", ["  ", "\t", " \t ", "\x0c"])
def test_a_line_of_only_whitespace_is_blank_to_the_line_loop(tmp_path, blank):
    # Such a file is not plain, so the line loop reads it, as it reads the
    # file without that line.
    gt, dets = generate(SimConfig(seed=4, num_identities=4, frames=10, fp_rate=0.5, embedding_dim=8))
    counts = {f: len(v) for f, v in dets.items()}
    reads = {"gt.txt": read_gt, "emb.txt": lambda p: read_embeddings(p, counts)}
    write_gt(tmp_path / "gt.txt", gt)
    write_embeddings(tmp_path / "emb.txt", dets)
    clean = {name: outcome(read, tmp_path / name) for name, read in reads.items()}
    for name in reads:
        lines = (tmp_path / name).read_text().splitlines(keepends=True)
        (tmp_path / name).write_text("".join([*lines[:2], blank + "\n", *lines[2:]]))
    for name, read in reads.items():
        assert not mot_io._plain(tmp_path / name)
        assert outcome(read, tmp_path / name) == clean[name]


def writer_files(tmp_path) -> dict[str, tuple]:
    """A generated scene written by every writer: each file's name, its path
    and the reader that reads it. Predictions are the detections' boxes
    moved by (1.5, -0.5), keyed by frame and det_index, every other frame,
    as ``_mot_lines`` writes MOT rows."""
    gt, dets = generate(SimConfig(seed=4, num_identities=4, frames=10, fp_rate=0.5, embedding_dim=8))
    counts = {f: len(v) for f, v in dets.items()}
    write_gt(tmp_path / "gt.txt", gt)
    write_detections(tmp_path / "dets.txt", dets)
    write_embeddings(tmp_path / "emb.txt", dets)
    write_results(tmp_path / "hyp.txt", hypotheses(track_stream(dets, TrackerConfig()), interpolated=True))
    kept = [f for f in dets if f % 2]
    frames = np.repeat(kept, [counts[f] for f in kept])
    index = np.concatenate([np.arange(counts[f]) for f in kept])
    boxes = np.concatenate([dets[f].boxes for f in kept]) + [1.5, -0.5, 0.0, 0.0]
    (tmp_path / "preds.txt").write_bytes(mot_io._mot_lines(frames, index, boxes, np.ones(len(frames))))
    readers = {
        "gt.txt": read_gt,
        "dets.txt": read_detections,
        "emb.txt": lambda p: read_embeddings(p, counts),
        "hyp.txt": read_gt,
        "preds.txt": lambda p: read_predictions(p, counts),
    }
    return {name: (tmp_path / name, read) for name, read in readers.items()}


def test_writer_shaped_files_are_read_from_their_path(tmp_path, monkeypatch):
    # Every file a writer makes is plain: numpy reads it from its path, with
    # no line loop, bit for bit as the line loop alone reads it. So does a sidecar whose header follows blank lines.
    files = writer_files(tmp_path)
    late = tmp_path / "late_header_emb.txt"
    late.write_bytes(b"\n\n" + (tmp_path / "emb.txt").read_bytes())
    files["late_header_emb.txt"] = (late, files["emb.txt"][1])
    with mock.patch.object(mot_io, "_plain", no_bulk_parse):
        loop = {name: outcome(read, path) for name, (path, read) in files.items()}
    monkeypatch.setattr(mot_io, "_by_line", line_loop_must_not_run)
    for name, (path, read) in files.items():
        assert mot_io._plain(path)
        assert outcome(read, path) == loop[name], name
    assert loop["late_header_emb.txt"] == loop["emb.txt"]
    assert not any(warned or isinstance(result, str) for result, warned in loop.values())  # no error, no warning


def with_line(line: bytes):
    """A transform that puts ``line`` after a file's second line."""
    def insert(data: bytes) -> bytes:
        head, second, rest = data.split(b"\n", 2)
        return b"\n".join([head, second, line, rest])
    return insert


def in_second_line(byte: bytes):
    """A transform that puts ``byte`` after the first field of a file's
    second line."""
    def insert(data: bytes) -> bytes:
        at = data.index(b",", data.index(b"\n") + 1)
        return data[:at] + byte + data[at:]
    return insert


FLAGGED = {
    "a line of spaces": with_line(b"   "),
    "a tab-only line": with_line(b"\t"),
    "a VT-only line": with_line(b"\x0b"),
    "an FF-only line": with_line(b"\x0c"),
    "a \\x1c byte": in_second_line(b"\x1c"),
    "a NUL byte": in_second_line(b"\x00"),
    "a DEL byte": in_second_line(b"\x7f"),
    "a line of spaces among CR line ends": lambda data: with_line(b"   ")(data).replace(b"\n", b"\r"),
    "a line that starts with a space after a CR": lambda data: data.replace(b"\n", b"\r").replace(b"\r", b"\r ", 1),
    "a non-ASCII byte": in_second_line(b"\xe9"),
}


@pytest.mark.parametrize("case", FLAGGED)
def test_a_file_that_is_not_plain_reads_as_the_line_loop_reads_it(tmp_path, case):
    for name, (path, read) in writer_files(tmp_path).items():
        path.write_bytes(FLAGGED[case](path.read_bytes()))
        assert not mot_io._plain(path), name
        got = outcome(read, path)
        with mock.patch.object(mot_io, "_plain", no_bulk_parse):
            assert got == outcome(read, path), name


@pytest.mark.parametrize("end", [b"\r\n", b"\r"])
def test_cr_line_ends_are_read_from_the_path_as_the_line_loop_reads_them(tmp_path, monkeypatch, end):
    # CRLF and lone CR files are plain: numpy reads them from their path, with
    # no line loop, bit for bit as the line loop alone reads them and as both
    # read the LF file.
    files = writer_files(tmp_path)
    lf = {name: outcome(read, path) for name, (path, read) in files.items()}
    for path, _ in files.values():
        path.write_bytes(path.read_bytes().replace(b"\n", end))
    with mock.patch.object(mot_io, "_plain", no_bulk_parse):
        loop = {name: outcome(read, path) for name, (path, read) in files.items()}
    monkeypatch.setattr(mot_io, "_by_line", line_loop_must_not_run)
    for name, (path, read) in files.items():
        assert mot_io._plain(path), name
        assert outcome(read, path) == loop[name] == lf[name], name


@settings(max_examples=300)
@given(st.lists(st.sampled_from([b"1", b",", b"\n", b" ", b"\t", b"\r", b"\x0b", b"\x00", b"\x7f", b"\xe9"])),
       st.integers(1, 9))
def test_property_the_block_scan_finds_a_plain_file(tmp_path_factory, parts, block):
    # Whatever the block size, a byte outside printable ASCII, LF and CR, or
    # a line that starts with a space after either line end, is found: in a
    # block or across two.
    data = b"".join(parts)
    path = tmp_path_factory.mktemp("scan") / "in.txt"
    path.write_bytes(data)
    with mock.patch.object(mot_io, "_BLOCK", block):
        got = mot_io._plain(path)
    plain = all(0x20 <= c < 0x7F or c in b"\n\r" for c in data)
    assert got == (plain and b"\n " not in b"\n" + data and b"\r " not in data)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_text_under_a_compressed_name_is_read_as_text(tmp_path, suffix):
    # numpy would decompress a file by such a name, so it is not plain.
    for name, (path, read) in writer_files(tmp_path).items():
        named = path.with_name(path.name + suffix)
        named.write_bytes(path.read_bytes())
        assert not mot_io._plain(named)
        assert outcome(read, named) == outcome(read, path), name


# A row that breaks a reader's rule but parses cleanly in bulk, after two valid
# rows and blank lines (one of only whitespace): the error names the line it is on.
ROW = "1,{},10,20,30,40,{},-1,-1,-1"
RULE_BREAKS = [
    (read_detections, ROW.format(-1, 0.9), "0" + ROW.format(-1, 0.9)[1:], "frame indices are 1-based, got 0"),
    (read_gt, ROW.format(3, 1), "1,4,10,20,-30,40,1,-1,-1,-1", "BBox needs positive size, got w=-30.0, h=40.0"),
    (read_detections, ROW.format(-1, 0.9), "1,-1,1e308,20,1e308,40,0.9,-1,-1,-1", "BBox.cx must be finite, got inf"),
    (embeddings, "1,0,0.6,0.8", "1,1,nan,0.0", "embedding has non-finite components"),
    (embeddings, "1,0,0.6,0.8", "1,1,0.0,0.0", "zero-norm embedding cannot be normalized"),
    (embeddings, "1,0,0.6,0.8", "1,1,1e200,1e200", "embedding norm overflows"),
    (read_detections, ROW.format(-1, 0.9), ROW.format(-1, 1.5), "confidence must lie in [0, 1], got 1.5"),
    (read_detections, ROW.format(-1, 0.9), ROW.format(-1, -0.25), "confidence must lie in [0, 1], got -0.25"),
    (read_gt, ROW.format(3, 1), ROW.format(0, 1), "object ids must be >= 1, got 0"),
    (read_gt, ROW.format(3, 1), ROW.format(3, 1), "repeated id 3 in frame 1"),
    (read_gt, ROW.format(3, 0.5), ROW.format(4, "nan"), "confidence must be finite, got nan"),
    (read_gt, ROW.format(3, 0.5), ROW.format(4, "-inf"), "confidence must be finite, got -inf"),
    (read_gt, ROW.format(3, 0.5), ROW.format(3, 0.25), "repeated id 3 in frame 1"),
    (predictions, ROW.format(0, 1), ROW.format(3, 1), "frame 1 has 3 detections, no index 3"),
    (predictions, ROW.format(0, 1), ROW.format(0, 1), "repeated prediction for frame 1 detection 0"),
    (embeddings, "1,0,0.6,0.8", "1,0,1.0,0.0", "repeated embedding for frame 1 detection 0"),
    (embeddings, "1,0,0.6,0.8", "1,-1,1.0,0.0", "frame 1 has 3 detections, no index -1"),
    (embeddings, "1,0,0.6,0.8", "0,1,1.0,0.0", "frame indices are 1-based, got 0"),
    (embeddings, "1,0,0.6,0.8", "-3,0,1.0,0.0", "frame indices are 1-based, got -3"),
]


@pytest.mark.parametrize(("newline", "blank"), [("\n", ""), ("\r\n", " \t")])
@pytest.mark.parametrize(("reader", "row", "bad", "message"), RULE_BREAKS)
def test_a_rule_break_names_its_line(tmp_path, monkeypatch, newline, blank, reader, row, bad, message):
    # With empty blank lines the file is plain and the bulk parse takes it; a
    # line of whitespace sends it to the line loop.
    if newline == "\n":
        monkeypatch.setattr(mot_io, "_by_line", line_loop_must_not_run)
    other = "2" + row[1:]  # the same row in frame 2
    header = "dim=2" if row.count(",") == 3 else ""  # a sidecar row: frame, index and a 2-d vector
    lines = ["", header, row, blank, "", other, "", bad, ""]
    p = tmp_path / "in.txt"
    p.write_bytes(newline.join(lines).encode())
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{p}:8: {message}')}$"):
        reader(p)


def test_the_bulk_reader_keeps_frames_in_order_of_first_appearance(tmp_path, monkeypatch):
    p = tmp_path / "dets.txt"
    p.write_text("3,-1,0,0,2,2,0.5\n1,-1,10,0,2,2,0.6\n3,-1,20,0,2,2,0.7,x\n\n2,-1,30,0,2,2,0.8,-1,-1,-1\n")
    monkeypatch.setattr(mot_io, "_by_line", line_loop_must_not_run)
    dets = read_detections(p)
    assert list(dets) == [3, 1, 2]
    assert dets[3].confidence.tolist() == [0.5, 0.7]
    assert dets[3].boxes.tolist() == [[1.0, 1.0, 2.0, 2.0], [21.0, 1.0, 2.0, 2.0]]

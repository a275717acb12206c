import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import batch_bits, detections
from idtrack.affinity import nms
from idtrack.geometry import BBox, Detection, Detections, IdStream, _box_fault, _good_boxes, _row_norms, to_corner
from idtrack.mot_io import _centred


def test_corner_worked_example():
    box = BBox(25.0, 40.0, 30.0, 40.0)
    assert to_corner(box) == (10.0, 20.0, 40.0, 60.0)


def test_round_trip_exact_on_dyadic_lattice():
    # Centers and sizes that are multiples of 1/64 convert between center and
    # corner form without any rounding, so the round trip must be bit-exact.
    # The readers take a MOT row's (left, top, width, height) to centre form
    # with ``_centred``.
    def centred(left, top, right, bottom):
        return BBox(*_centred(*np.array([[left, top, right - left, bottom - top]]).T)[0].tolist())

    rng = np.random.default_rng(42)
    for _ in range(1000):
        cx, cy = (int(v) / 64.0 for v in rng.integers(-64000, 64000, size=2))
        w, h = (int(v) / 64.0 for v in rng.integers(1, 64000, size=2))
        box = BBox(cx, cy, w, h)
        assert centred(*to_corner(box)) == box

        left, top = (int(v) / 64.0 for v in rng.integers(-64000, 64000, size=2))
        right = left + int(rng.integers(1, 64000)) / 64.0
        bottom = top + int(rng.integers(1, 64000)) / 64.0
        assert to_corner(centred(left, top, right, bottom)) == (left, top, right, bottom)


def test_bbox_rejects_bad_sizes():
    with pytest.raises(ValueError):
        BBox(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        BBox(0.0, 0.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        BBox(float("nan"), 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BBox(0.0, float("inf"), 1.0, 1.0)


def test_bbox_takes_a_box_whose_values_sum_past_the_largest_float():
    # A good box passes in one test of its four values' sum; this sum
    # overflows to inf, so the box reaches the value-by-value check.
    assert BBox(1e308, 1e308, 1e308, 1e308).w == 1e308
    assert BBox(-1e308, -1e308, 1e308, 1e308).cx == -1e308


domain_values = st.one_of(
    st.floats(),
    st.sampled_from([1e8, -1e8, math.nextafter(1e8, math.inf), 6e-7, math.nextafter(6e-7, 0.0), 0.0, -0.0, 1e-170, 1e200]),
)


@given(st.tuples(domain_values, domain_values, domain_values, domain_values))
def test_property_the_box_domain_is_one_rule(values):
    # The array check that readers and batches run, and the reason that
    # their errors give, reject the same boxes.
    assert bool(_good_boxes(np.array([values]))[0]) == (_box_fault(*values) is None)


def test_a_bbox_is_not_bounded_but_a_batch_is():
    # A coasting head is a BBox, so BBox checks only finiteness and size.
    far = BBox(1e200, 0.0, 2.0, 1e-170)
    assert _box_fault(far.cx, far.cy, far.w, far.h) == "box cx must be at most 1e+08 in magnitude, got 1e+200"
    with pytest.raises(ValueError, match=r"row 1: box cx must be at most 1e\+08"):
        IdStream.pack({1: [(1, BBox(0.0, 0.0, 2.0, 2.0)), (2, far)]})
    edge = BBox(-1e8, 1e8, 1e8, 6e-7)
    assert IdStream.pack({1: [(1, edge)]}).boxes.tolist() == [[-1e8, 1e8, 1e8, 6e-7]]


def test_hand_built_rows_are_checked_by_the_batch():
    box = BBox(0.0, 0.0, 2.0, 2.0)
    for bad in (
        [(box, 1.5)],
        [(box, -0.1)],
        [(box, 0.5, np.array([1.0, 1.0]))],
        [(box, 0.5, np.eye(2))],
        [(box, 0.5, np.array([float("nan"), 0.0]))],
    ):
        with pytest.raises(ValueError):
            detections(bad)
    with pytest.raises(ValueError, match="every row has an embedding or none does"):
        detections([(box, 0.5, np.array([1.0, 0.0])), (box, 0.5)])


def test_batch_unit_check_rejects_nan_inf_and_off_norm_vectors():
    box = [[0.0, 0.0, 2.0, 2.0]]
    Detections(box, [0.5], [[0.6, 0.8]])
    Detections(box, [0.5], [[1.0 + 0.9e-6, 0.0]])
    for bad in ([float("nan"), 0.0], [float("inf"), 0.0], [1.0, float("-inf")], [1.0 + 2e-6, 0.0], [0.0, 0.0], [0.6, 0.6]):
        with pytest.raises(ValueError, match="must be L2-normalized"):
            Detections(box, [0.5], [bad])


def test_unit_norm_is_numpys_norm_bit_for_bit():
    # The simulator normalises its prototypes and embeddings with _row_norms,
    # one dot per row, which must give np.linalg.norm of each row, for one
    # row alone and for many at once.
    rng = np.random.default_rng(3)
    for dim in (2, 3, 17, 64, 513):
        for scale in (1e-3, 1.0, 1e3):
            rows = scale * rng.normal(size=(50, dim))
            want = [float(np.linalg.norm(row)) for row in rows]
            assert _row_norms(rows).tolist() == want
            assert [float(_row_norms(row[None, :])[0]) for row in rows] == want


def test_detection_embedding_coerced_to_float64():
    batch = detections([(BBox(0.0, 0.0, 2.0, 2.0), 0.5, np.array([1.0, 0.0], dtype=np.float32))])
    (row,) = batch
    assert batch.embeddings.dtype == np.float64 and row.embedding.dtype == np.float64
    assert np.array_equal(row.embedding, [1.0, 0.0])


def unit_rows(n, dim=3, seed=0):
    m = np.random.default_rng(seed).normal(size=(n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


@pytest.mark.parametrize(
    ("change", "message"),
    [
        ({"boxes": [[0, 0, 2, 2], [0, 0, 0, 2]]}, r"detection 1: BBox needs positive size, got w=0.0, h=2.0"),
        ({"boxes": [[0, 0, 2, 2], [0, float("nan"), 2, 2]]}, r"detection 1: BBox.cy must be finite, got nan"),
        ({"boxes": [[float("inf"), 0, 2, 2], [0, 0, 2, 2]]}, r"detection 0: BBox.cx must be finite, got inf"),
        ({"boxes": [[0, 0, 2, 2], [0, -1e200, 2, 2]]}, r"detection 1: box cy must be at most 1e\+08 in magnitude"),
        ({"boxes": [[0, 0, 2, 1.5e8], [0, 0, 2, 2]]}, r"detection 0: box h must be at most 1e\+08 in magnitude"),
        ({"boxes": [[0, 0, 2, 2], [0, 0, 2, 4e-7]]}, r"detection 1: box sides must be at least 6e-07, got w=2.0, h=4e-07"),
        ({"confidence": [0.5, 1.5]}, r"detection 1: confidence must lie in \[0, 1\], got 1.5"),
        ({"confidence": [float("nan"), 0.5]}, r"detection 0: confidence must lie in \[0, 1\], got nan"),
        ({"embeddings": [[1.0, 0.0], [1.0, 1.0]]}, r"detection 1: embedding must be L2-normalized"),
        ({"embeddings": [[float("nan"), 0.0], [1.0, 0.0]]}, r"detection 0: embedding must be L2-normalized"),
        ({"embeddings": [1.0, 0.0]}, r"embeddings must have shape \(2, D\)"),
        ({"predictions": [[0, 0, 2, 2], [0, 0, -1, 2]]}, r"detection 1: prediction: BBox needs positive size"),
        ({"predictions": [[1e200, 0, 2, 2], [0, 0, 2, 2]]}, r"detection 0: prediction: box cx must be at most 1e\+08"),
        ({"predicted": [True, False]}, "a prediction mask needs predictions"),
    ],
)
def test_detections_check_every_row_and_name_the_first_bad_one(change, message):
    values = {"boxes": [[0, 0, 2, 2], [5, 5, 2, 2]], "confidence": [0.5, 0.9], **change}
    with pytest.raises(ValueError, match=message):
        Detections(**values)


def test_a_prediction_mask_only_checks_the_rows_it_marks():
    boxes = [[0, 0, 2, 2], [5, 5, 2, 2]]
    batch = Detections(boxes, [0.5, 0.9], None, [[1, 1, 2, 2], [0, 0, 0, 0]], [True, False])
    assert [d.prediction for d in batch] == [BBox(1.0, 1.0, 2.0, 2.0), None]
    assert batch.predicted.tolist() == [True, False]
    assert len(Detections([], [])) == 0 and Detections([], []).boxes.shape == (0, 4)


def test_rows_of_a_batch_are_views_that_read_its_arrays():
    vectors = unit_rows(3)
    batch = Detections([[0, 0, 2, 2], [5, 5, 2, 2], [9, 9, 1, 3]], [0.5, 0.9, 0.1], vectors)
    rows = list(batch)
    assert all(type(d) is Detection and d.batch is batch for d in rows) and [d.index for d in rows] == [0, 1, 2]
    assert [d.box for d in rows] == [BBox(0, 0, 2, 2), BBox(5, 5, 2, 2), BBox(9, 9, 1, 3)]
    assert [d.confidence for d in rows] == [0.5, 0.9, 0.1] and all(type(d.confidence) is float for d in rows)
    assert all(np.array_equal(d.embedding, v) and d.prediction is None for d, v in zip(rows, vectors))
    assert next(iter(batch)) is not rows[0]  # made on demand, not kept
    taken = batch.take(np.array([False, True, True]))
    assert [d.box for d in taken] == [d.box for d in rows[1:]] and taken.confidence.tolist() == [0.9, 0.1]
    assert batch.take([2, 0]).boxes.tolist() == [[9, 9, 1, 3], [0, 0, 2, 2]]
    assert not hasattr(rows[0], "__dict__")  # a view holds its batch and index, nothing else


def test_take_copies_every_column_of_the_rows_it_selects():
    vectors = unit_rows(3)
    batch = detections([(BBox(1, 2, 3, 4), 0.5, vectors[0]), (BBox(5, 6, 7, 8), 0.7, vectors[1], BBox(6, 6, 7, 8)),
                        (BBox(9, 9, 1, 1), 0.2, vectors[2])])
    taken = batch.take([2, 1, 2])
    assert taken.boxes.tolist() == [[9, 9, 1, 1], [5, 6, 7, 8], [9, 9, 1, 1]] and taken.confidence.tolist() == [0.2, 0.7, 0.2]
    assert taken.embeddings.tobytes() == vectors[[2, 1, 2]].tobytes()
    assert taken.predicted.tolist() == [False, True, False] and taken.predictions[1].tolist() == [6, 6, 7, 8]
    assert batch_bits(batch.take(np.array([True, True, True]))) == batch_bits(batch)
    bare = detections([(BBox(1, 2, 3, 4), 0.5)])
    assert bare.embeddings is None and bare.predictions is None and bare.predicted is None
    empty = bare.take([])
    assert len(empty) == 0 and empty.boxes.shape == (0, 4) and empty.embeddings is None


def test_nms_rejects_views_of_two_batches():
    one = detections([(BBox(1, 2, 3, 4), 0.5)])
    other = detections([(BBox(1, 2, 3, 4), 0.5)])
    with pytest.raises(ValueError, match="views must be rows of one batch"):
        nms([*one, *other], 0.5)
    with pytest.raises(ValueError, match="views must be rows of one batch"):
        nms([*one, *one.take([0])], 0.5)  # a taken batch is another batch


def test_missing_embedding_names_the_first_row_of_a_batch_without_them():
    box = BBox(0.0, 0.0, 2.0, 2.0)
    assert detections([(box, 0.5), (box, 0.6)]).missing_embedding() == "detection 0 has no embedding"
    assert detections([(box, 0.5)]).embeddings is None
    assert Detections([], []).missing_embedding() is None
    assert Detections([[0, 0, 1, 1]], [0.5], unit_rows(1)).missing_embedding() is None


def test_an_id_stream_holds_columns_and_packs_a_mapping_of_frames():
    stream = IdStream([4, 2, 4, 9], [3, 1, 5, 3], [[0, 0, 2, 2], [5, 5, 2, 2], [9, 9, 2, 2], [1, 1, 4, 4]], [0.5, 1, 1, 0.25])
    assert stream.frames.dtype == stream.ids.dtype == np.int64 and stream.confidence.tolist() == [0.5, 1, 1, 0.25]
    assert stream.boxes.tolist()[1] == [5, 5, 2, 2] and not hasattr(stream, "__dict__")
    kept = stream.take(stream.confidence >= 0.5)
    assert kept.frames.tolist() == [4, 2, 4] and kept.ids.tolist() == [3, 1, 5] and kept.boxes.shape == (3, 4)
    assert stream.take([3, 0]).frames.tolist() == [9, 4] and stream.take([3, 0]).confidence.tolist() == [0.25, 0.5]
    assert IdStream.pack(stream) is stream
    packed = IdStream.pack({7: [(2, BBox(0, 0, 2, 2), 0.5)], 3: [], 1: [(6, BBox(0, 0, 1, 1)), (5, BBox(3, 3, 1, 1))]})
    assert packed.frames.dtype == packed.ids.dtype == np.int64
    assert packed.frames.tolist() == [7, 1, 1] and packed.ids.tolist() == [2, 6, 5]
    assert packed.confidence.tolist() == [0.5, 1.0, 1.0] and packed.boxes.shape == (3, 4)
    empty = IdStream.pack({})
    assert (empty.frames.shape, empty.ids.shape, empty.boxes.shape, empty.confidence.shape) == ((0,), (0,), (0, 4), (0,))
    # Unsigned columns up to the largest int64 are taken as they are.
    widest = IdStream(np.array([1], np.uint64), np.array([2**63 - 1], np.uint64), [[5, 5, 2, 2]])
    assert widest.ids.dtype == np.int64 and widest.ids.tolist() == [2**63 - 1]


@pytest.mark.parametrize(
    ("change", "message"),
    [
        ({"frames": [1.0, 2.0]}, r"frames must be 2 integers, got shape \(2,\) of dtype float64"),
        ({"frames": [1]}, r"frames must be 2 integers, got shape \(1,\) of dtype int64"),
        ({"ids": [1.0, 2.0]}, "ids must be integers"),
        # int64 would wrap these to -1 and to a negative id, and evaluate would score them.
        ({"frames": np.array([2**64 - 1, 1], np.uint64)},
         r"row 0: frame must be at most 2\*\*63 - 1, got 18446744073709551615"),
        ({"ids": np.array([3, 2**63 + 5], np.uint64)}, r"row 1: id must be at most 2\*\*63 - 1, got 9223372036854775813"),
        ({"boxes": [[0, 0, 2, 2], [0, 0, 0, 2]]}, r"row 1: BBox needs positive size, got w=0.0, h=2.0"),
        ({"boxes": [[float("inf"), 0, 2, 2], [0, 0, 2, 2]]}, r"row 0: BBox.cx must be finite, got inf"),
        ({"boxes": [[0, 0, 1e200, 1e200], [0, 0, 2, 2]]}, r"row 0: box w must be at most 1e\+08 in magnitude"),
        ({"boxes": [[0, 0, 2, 2], [0, 0, 1e-170, 1e-170]]}, r"row 1: box sides must be at least 6e-07"),
        ({"boxes": [[0, 0, 2, 2]]}, r"boxes must have shape \(2, 4\)"),
        ({"confidence": [0.5, float("nan")]}, r"row 1: confidence must be finite, got nan"),
        ({"confidence": [0.5]}, r"confidence must have shape \(2,\)"),
    ],
)
def test_an_id_stream_checks_every_row_and_names_the_first_bad_one(change, message):
    values = {"frames": [1, 1], "ids": [3, 1], "boxes": [[0, 0, 2, 2], [5, 5, 2, 2]], "confidence": [0.5, 0.9], **change}
    with pytest.raises(ValueError, match=message):
        IdStream(**values)

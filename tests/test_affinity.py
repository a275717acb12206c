import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idtrack.affinity
from idtrack.affinity import (
    WEIGHT_PRESETS,
    AffinityWeights,
    combined_affinity,
    iou,
    iou_matrix,
    nms,
)
from idtrack.geometry import BBox, Detection, to_center
from idtrack.tracker import Trajectory


def unit(vec):
    vec = np.asarray(vec, dtype=np.float64)
    return vec / np.linalg.norm(vec)


def make_traj(track_id, box, embedding=None):
    return Trajectory(track_id, box, embedding, (0.0, 0.0), last_seen=1)


def random_box(rng, span=100.0):
    return BBox(
        float(rng.uniform(-span, span)),
        float(rng.uniform(-span, span)),
        float(rng.uniform(0.5, span)),
        float(rng.uniform(0.5, span)),
    )


def test_iou_worked_example():
    # Corner boxes (0,0,2,2) and (1,1,3,3): intersection 1, union 7.
    a = to_center(0.0, 0.0, 2.0, 2.0)
    b = to_center(1.0, 1.0, 3.0, 3.0)
    assert iou(a, b) == 1.0 / 7.0


def test_iou_identical_and_disjoint():
    a = BBox(5.0, 5.0, 4.0, 4.0)
    assert iou(a, a) == 1.0
    assert iou(a, BBox(50.0, 50.0, 4.0, 4.0)) == 0.0
    # Boxes that merely touch have empty interiors in common.
    assert iou(a, BBox(9.0, 5.0, 4.0, 4.0)) == 0.0


def test_iou_of_identical_boxes_is_capped_at_one():
    # The corners round so that the intersection comes out an ulp above the
    # area: uncapped, this box scored 1.0000000000000002 against itself.
    box = BBox(0.0, 0.5, 0.5, 15.97600959420488)
    assert iou(box, box) == 1.0
    assert iou_matrix([box], [box])[0, 0] == 1.0
    d, dup = Detection(box, 0.9), Detection(box, 0.9)
    assert nms([d, dup], 1.0) == [d, dup]
    assert combined_affinity([make_traj(1, box)], [d], AffinityWeights(1.0, 0.0))[0, 0] <= 1.0


def test_iou_contained_box():
    outer = BBox(10.0, 10.0, 4.0, 4.0)
    inner = BBox(10.0, 10.0, 2.0, 2.0)
    assert iou(outer, inner) == 4.0 / 16.0


def test_iou_symmetry_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        a, b = random_box(rng), random_box(rng)
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0


def test_iou_matrix_matches_scalar():
    # Bit for bit: nms thresholds the matrix, so an ulp of drift could flip
    # a survivor at the boundary.
    rng = np.random.default_rng(11)
    boxes_a = [random_box(rng) for _ in range(40)]
    boxes_b = [random_box(rng) for _ in range(50)]
    m = iou_matrix(boxes_a, boxes_b)
    assert m.shape == (40, 50)
    for i, a in enumerate(boxes_a):
        for j, b in enumerate(boxes_b):
            assert m[i, j] == iou(a, b)


def test_iou_matrix_empty():
    assert iou_matrix([], [BBox(0, 0, 1, 1)]).shape == (0, 1)
    assert iou_matrix([BBox(0, 0, 1, 1)], []).shape == (1, 0)


def test_weights_validation_and_presets():
    with pytest.raises(ValueError):
        AffinityWeights(0.5, 0.6)
    with pytest.raises(ValueError):
        AffinityWeights(-0.2, 1.2)
    assert WEIGHT_PRESETS["mot16"] == AffinityWeights(0.2, 0.8)
    assert WEIGHT_PRESETS["default"] == AffinityWeights(0.5, 0.5)
    for weights in WEIGHT_PRESETS.values():
        assert weights.overlap + weights.identity == pytest.approx(1.0)


def test_combined_affinity_is_the_weighted_blend():
    rng = np.random.default_rng(3)
    trajs = [make_traj(i + 1, random_box(rng, 20.0), unit(rng.normal(size=8))) for i in range(4)]
    dets = [
        Detection(random_box(rng, 20.0), 0.9, unit(rng.normal(size=8)))
        for _ in range(6)
    ]
    for weights in (AffinityWeights(0.5, 0.5), AffinityWeights(0.2, 0.8)):
        got = combined_affinity(trajs, dets, weights)
        overlap = iou_matrix([t.head_box for t in trajs], [d.box for d in dets])
        gram = np.clip(
            np.stack([t.head_embedding for t in trajs]) @ np.stack([d.embedding for d in dets]).T,
            0.0,
            1.0,
        )
        expected = weights.overlap * overlap + weights.identity * gram
        assert np.allclose(got, expected, atol=1e-12)
        assert got.min() >= 0.0 and got.max() <= 1.0


def identity_only(track_embedding, det_embeddings):
    # Far-apart boxes: only the identity term can contribute.
    trajs = [make_traj(1, BBox(0.0, 0.0, 2.0, 2.0), track_embedding)]
    dets = [Detection(BBox(100.0, 100.0, 2.0, 2.0), 0.9, e) for e in det_embeddings]
    return combined_affinity(trajs, dets, AffinityWeights(0.0, 1.0))[0]


def test_id_similarity_clamps_negative():
    got = identity_only(unit([1.0, 0.0]), [unit([-1.0, 0.0]), unit([0.0, 1.0])])
    assert got[0] == 0.0
    assert got[1] == 0.0
    same = identity_only(unit([1.0, 1.0]), [unit([1.0, 1.0])])
    assert same[0] == pytest.approx(1.0, abs=1e-12)


def test_id_similarity_cosine_value():
    theta = 0.3
    got = identity_only(np.array([1.0, 0.0]), [np.array([np.cos(theta), np.sin(theta)])])
    assert got[0] == pytest.approx(np.cos(theta), abs=1e-12)


def test_combined_affinity_ignores_embeddings_at_zero_identity_weight():
    box = BBox(0.0, 0.0, 2.0, 2.0)
    trajs = [make_traj(1, box, embedding=None)]
    dets = [Detection(box, 0.9)]
    got = combined_affinity(trajs, dets, AffinityWeights(1.0, 0.0))
    assert got.shape == (1, 1)
    assert got[0, 0] == 1.0


def test_combined_affinity_requires_embeddings():
    box = BBox(0.0, 0.0, 2.0, 2.0)
    with_emb = Detection(box, 0.9, unit([1.0, 1.0]))
    without = Detection(box, 0.9)
    traj = make_traj(1, box, unit([1.0, 0.0]))
    bare_traj = make_traj(2, box, None)
    with pytest.raises(ValueError):
        combined_affinity([traj], [without], AffinityWeights(0.5, 0.5))
    with pytest.raises(ValueError):
        combined_affinity([bare_traj], [with_emb], AffinityWeights(0.5, 0.5))


def test_combined_affinity_empty_inputs():
    assert combined_affinity([], [], AffinityWeights()).shape == (0, 0)
    det = Detection(BBox(0, 0, 1, 1), 0.9, unit([1.0, 0.0]))
    assert combined_affinity([], [det], AffinityWeights()).shape == (0, 1)


def test_nms_drops_heavy_overlap():
    d0 = Detection(BBox(10.0, 10.0, 10.0, 10.0), 0.9)
    d1 = Detection(BBox(11.0, 10.0, 10.0, 10.0), 0.8)  # IoU 9/11 with d0
    d2 = Detection(BBox(50.0, 50.0, 10.0, 10.0), 0.7)
    kept = nms([d0, d1, d2], 0.5)
    assert kept == [d0, d2]


def test_nms_keeps_sub_threshold_overlap():
    d0 = Detection(BBox(10.0, 10.0, 10.0, 10.0), 0.9)
    d1 = Detection(BBox(18.0, 10.0, 10.0, 10.0), 0.8)  # IoU 2/18
    assert nms([d0, d1], 0.5) == [d0, d1]


def test_nms_tie_prefers_lower_index():
    a = Detection(BBox(10.0, 10.0, 10.0, 10.0), 0.9)
    b = Detection(BBox(10.5, 10.0, 10.0, 10.0), 0.9)
    assert nms([a, b], 0.5) == [a]
    assert nms([b, a], 0.5) == [b]


def test_nms_survivors_keep_original_order():
    low = Detection(BBox(10.0, 10.0, 4.0, 4.0), 0.3)
    high = Detection(BBox(50.0, 50.0, 4.0, 4.0), 0.9)
    assert nms([low, high], 0.5) == [low, high]


def test_nms_result_independent_of_input_order():
    rng = np.random.default_rng(19)
    dets = [
        Detection(random_box(rng, 30.0), float(rng.uniform(0.05, 0.99)))
        for _ in range(40)
    ]
    baseline = {(d.box, d.confidence) for d in nms(dets, 0.4)}
    for _ in range(5):
        perm = list(rng.permutation(len(dets)))
        shuffled = [dets[i] for i in perm]
        assert {(d.box, d.confidence) for d in nms(shuffled, 0.4)} == baseline


def test_nms_rejects_bad_threshold():
    with pytest.raises(ValueError):
        nms([], 1.5)


def greedy_nms(detections, iou_threshold):
    """Reference NMS: the scalar iou against every kept box, one pair at a time."""
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].confidence, i))
    keep = [False] * len(detections)
    kept_boxes = []
    for i in order:
        box = detections[i].box
        if all(iou(box, kb) <= iou_threshold for kb in kept_boxes):
            keep[i] = True
            kept_boxes.append(box)
    return [d for i, d in enumerate(detections) if keep[i]]


half_steps = st.integers(0, 80).map(lambda v: v / 2.0)
box_sides = st.one_of(st.integers(1, 40).map(lambda v: v / 2.0), st.floats(0.1, 30.0))
boxes = st.builds(BBox, st.one_of(half_steps, st.floats(0.0, 40.0)), half_steps, box_sides, box_sides)


@st.composite
def nms_frames(draw):
    """A frame with repeated confidences and duplicate boxes, and a threshold
    that is 0, 1, arbitrary, or one of the frame's own pairwise IoUs."""
    pool = draw(st.lists(boxes, min_size=1, max_size=10))
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(pool) - 1), st.sampled_from((0.0, 0.3, 0.5, 0.7, 1.0))),
            max_size=30,
        )
    )
    dets = [Detection(pool[p], conf) for p, conf in picks]
    pairwise = sorted({iou(a.box, b.box) for a in dets for b in dets if a is not b})
    threshold = draw(
        st.one_of(
            st.sampled_from((0.0, 1.0)),
            st.floats(0.0, 1.0),
            st.sampled_from(pairwise) if pairwise else st.just(0.5),
        )
    )
    return dets, threshold


@settings(max_examples=300)
@given(nms_frames())
def test_property_nms_matches_the_scalar_greedy_reference(frame):
    dets, threshold = frame
    got = nms(dets, threshold)
    want = greedy_nms(dets, threshold)
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))


def test_nms_never_calls_the_scalar_iou(monkeypatch):
    # A crowded frame goes through the one pairwise matrix, not per-pair Python.
    def scalar_iou(a, b):
        raise AssertionError("nms called the scalar iou")

    rng = np.random.default_rng(23)
    dets = [
        Detection(random_box(rng, 20.0), float(rng.uniform(0.05, 0.99)))
        for _ in range(60)
    ]
    want = greedy_nms(dets, 0.3)
    monkeypatch.setattr(idtrack.affinity, "iou", scalar_iou)
    got = nms(dets, 0.3)
    assert 0 < len(got) < len(dets)
    assert all(g is w for g, w in zip(got, want))

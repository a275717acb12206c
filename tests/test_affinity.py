from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idtrack.affinity
from helpers import batch_bits, detections, grid_boxes, iou_cells, iou_matrix, relatives, trajectories
from idtrack.affinity import AffinityWeights, _corners, _iou_cells, _self_pairs, combined_affinity, iou, nms
from idtrack.geometry import BBox, Detections, _box_rows, to_center
from idtrack.tracker import Trajectories


def unit(vec):
    vec = np.asarray(vec, dtype=np.float64)
    return vec / np.linalg.norm(vec)


def same_rows(got, want):
    """Whether batch ``got`` holds, bit for bit, the rows that the views
    ``want`` (of one batch) name."""
    return batch_bits(got) == batch_bits(Detections.pack(want))


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
    assert _iou_cells(_box_rows([box]), _box_rows([box]))[0, 0] == 1.0
    pair = detections([(box, 0.9), (box, 0.9)])
    assert same_rows(nms(pair, 1.0), list(pair)) and same_rows(nms(list(pair), 1.0), list(pair))
    assert combined_affinity(trajectories([(1, box, None)]), pair, AffinityWeights(1.0, 0.0))[0, 0] <= 1.0


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


def test_pairwise_iou_matches_scalar():
    # Bit for bit: nms thresholds the matrix, so an ulp of drift could flip
    # a survivor at the boundary. The test tree's oracle must agree too.
    rng = np.random.default_rng(11)
    boxes_a = [random_box(rng) for _ in range(40)]
    boxes_b = [random_box(rng) for _ in range(50)]
    m = _iou_cells(_box_rows(boxes_a), _box_rows(boxes_b))
    assert m.shape == (40, 50) and m.tobytes() == iou_matrix(boxes_a, boxes_b).tobytes()
    for i, a in enumerate(boxes_a):
        for j, b in enumerate(boxes_b):
            assert m[i, j] == iou(a, b)


def test_row_iou_matches_scalar():
    # evaluate scores its surviving correspondences with it, and MOTP must
    # not drift by an ulp from the scalar iou.
    rng = np.random.default_rng(13)
    boxes_a = [random_box(rng) for _ in range(400)]
    boxes_b = [random_box(rng) for _ in range(399)] + [boxes_a[-1]]  # and one identical pair
    rows = idtrack.affinity._iou_corners(_corners(_box_rows(boxes_a)), _corners(_box_rows(boxes_b)))
    assert rows.tolist() == [iou(a, b) for a, b in zip(boxes_a, boxes_b)]
    assert rows[-1] == 1.0 and (rows == 0.0).any() and ((rows > 0.0) & (rows < 1.0)).any()


def test_pairwise_iou_empty():
    assert _iou_cells(_box_rows([]), _box_rows([BBox(0, 0, 1, 1)])).shape == (0, 1)
    assert _iou_cells(_box_rows([BBox(0, 0, 1, 1)]), _box_rows([])).shape == (1, 0)


# The default blend, one that leans on identity, each term alone, and one more.
BLENDS = [AffinityWeights(0.5, 0.5), AffinityWeights(0.2, 0.8), AffinityWeights(0.0, 1.0), AffinityWeights(1.0, 0.0),
          AffinityWeights(0.3, 0.7)]


def test_weights_validation():
    with pytest.raises(ValueError):
        AffinityWeights(0.5, 0.6)
    with pytest.raises(ValueError):
        AffinityWeights(-0.2, 1.2)
    assert AffinityWeights() == AffinityWeights(0.5, 0.5)
    AffinityWeights(1.0 - 0.8, 0.8)  # what --w2 0.8 gives: within the sum tolerance


def blend_in_order(trajs, dets, weights):
    """The blend in the order that defines it: zeros, then the overlap term
    scored by the dense oracle, then the clipped identity term."""
    out = np.zeros((len(trajs), len(dets)))
    if weights.overlap > 0.0:
        out += weights.overlap * iou_cells(trajs.boxes, dets.boxes)
    if weights.identity > 0.0:
        out += weights.identity * np.clip(trajs.embeddings @ dets.embeddings.T, 0.0, 1.0)
    return out


def test_combined_affinity_is_the_weighted_blend():
    # Orthogonal and opposite embeddings with signed zeros, boxes that
    # overlap, touch and keep apart around a centre of -0.0: the matrix holds
    # zeros from both terms, and each must come out +0.0 as the blend in
    # order gives it.
    rng = np.random.default_rng(3)
    axes = [np.array(v) for v in ([1.0, 0.0, 0.0, 0.0], [-0.0, -1.0, 0.0, -0.0], [-0.0, -0.0, -0.0, 1.0])]
    vectors = axes + [unit(rng.normal(size=4)) for _ in range(5)]
    boxes = [BBox(-0.0, -0.0, 2.0, 2.0), BBox(2.0, -0.0, 2.0, 2.0), BBox(0.5, 0.25, 1.0, 3.0)]
    boxes += [random_box(rng, 4.0) for _ in range(5)]
    trajs = trajectories([(i + 1, boxes[i], vectors[(3 * i) % 8]) for i in range(7)])
    dets = detections([(boxes[(5 * k) % 8], 0.9, vectors[k]) for k in range(8)])
    for weights in BLENDS:
        want = blend_in_order(trajs, dets, weights)
        for cells in (0, 10**9):  # the overlap term swept, then dense
            with mock.patch.object(idtrack.affinity, "_DENSE_CELLS", cells):
                got = combined_affinity(trajs, dets, weights)
            assert got.tobytes() == want.tobytes() and not np.signbit(got).any()
            assert got.min() >= 0.0 and got.max() <= 1.0


class GramRows:
    """Rows that ``combined_affinity`` takes, with real boxes and an
    embedding matrix whose product with any matrix is ``cosine``."""

    def __init__(self, boxes, cosine):
        self.boxes, self.embeddings, self.cosine = _box_rows(boxes), self, cosine

    def __len__(self):
        return len(self.boxes)

    def __matmul__(self, other):
        return self.cosine.copy()

    def missing_embedding(self):
        return None


def test_combined_affinity_writes_no_negative_zero_from_a_chosen_cosine():
    # numpy's ``@`` sums from +0.0, so real embeddings never give a -0.0
    # cosine; stub rows do. The clip keeps -0.0, and only the blend's zeros
    # turn it into +0.0, also where the identity term stands alone.
    cosine = np.array([[-0.0, -0.5, 0.25, -0.0], [1.0, -0.0, -1e-300, 0.5], [-1.0, 0.75, -0.0, -0.0]])
    track_boxes = [BBox(0.0, 0.0, 2.0, 2.0), BBox(10.0, 0.0, 2.0, 2.0), BBox(50.0, 50.0, 4.0, 4.0)]
    det_boxes = [BBox(1.0, 0.0, 2.0, 2.0), BBox(0.0, 0.0, 2.0, 2.0), BBox(10.5, 0.5, 2.0, 2.0),
                 BBox(90.0, 90.0, 1.0, 1.0)]
    trajs = GramRows(track_boxes, cosine)
    dets = Detections._checked(_box_rows(det_boxes), np.full(4, 0.9), np.zeros((4, 1)))
    overlap = iou_cells(_box_rows(track_boxes), _box_rows(det_boxes))
    assert (overlap == 0.0).any() and (overlap > 0.0).any()
    for weights in BLENDS:
        want = weights.overlap * overlap + weights.identity * np.clip(cosine, 0.0, 1.0)
        for cells in (0, 10**9):
            with mock.patch.object(idtrack.affinity, "_DENSE_CELLS", cells):
                got = combined_affinity(trajs, dets, weights)
            assert got.tobytes() == want.tobytes() and not np.signbit(got).any(), weights


def identity_only(track_embedding, det_embeddings):
    # Far-apart boxes: only the identity term can contribute.
    trajs = trajectories([(1, BBox(0.0, 0.0, 2.0, 2.0), track_embedding)])
    dets = detections([(BBox(100.0, 100.0, 2.0, 2.0), 0.9, e) for e in det_embeddings])
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
    trajs = trajectories([(1, box, None)])
    dets = detections([(box, 0.9)])
    got = combined_affinity(trajs, dets, AffinityWeights(1.0, 0.0))
    assert got.shape == (1, 1)
    assert got[0, 0] == 1.0


def test_combined_affinity_requires_embeddings():
    box = BBox(0.0, 0.0, 2.0, 2.0)
    with_emb = detections([(box, 0.9, unit([1.0, 1.0]))])
    without = detections([(box, 0.9), (box, 0.8)])
    trajs = trajectories([(1, box, unit([1.0, 0.0])), (2, box, None)])
    with pytest.raises(ValueError, match="detection 0 has no embedding but identity weight is 0.5"):
        combined_affinity(Trajectories(trajs.table, trajs.slots[:1]), without, AffinityWeights(0.5, 0.5))
    with pytest.raises(ValueError, match="trajectory 2 has no embedding but identity weight is 0.5"):
        combined_affinity(trajs, with_emb, AffinityWeights(0.5, 0.5))
    with pytest.raises(ValueError, match="trajectory 3 has no embedding"):  # a table that has no embedding yet
        combined_affinity(trajectories([(3, box, None)]), with_emb, AffinityWeights(0.5, 0.5))


def test_combined_affinity_empty_inputs():
    assert combined_affinity(trajectories([]), Detections.pack([]), AffinityWeights()).shape == (0, 0)
    det = detections([(BBox(0, 0, 1, 1), 0.9, unit([1.0, 0.0]))])
    assert combined_affinity(trajectories([]), det, AffinityWeights()).shape == (0, 1)
    assert combined_affinity(trajectories([(1, BBox(0, 0, 1, 1), None)]), Detections.pack([]),
                             AffinityWeights()).shape == (1, 0)


def test_nms_drops_heavy_overlap():
    d0 = BBox(10.0, 10.0, 10.0, 10.0)
    d1 = BBox(11.0, 10.0, 10.0, 10.0)  # IoU 9/11 with d0
    d2 = BBox(50.0, 50.0, 10.0, 10.0)
    dets = detections([(d0, 0.9), (d1, 0.8), (d2, 0.7)])
    assert nms(dets, 0.5).boxes.tolist() == _box_rows([d0, d2]).tolist()
    assert same_rows(nms(list(dets), 0.5), [dets[0], dets[2]])


def test_nms_keeps_sub_threshold_overlap():
    d0 = BBox(10.0, 10.0, 10.0, 10.0)
    d1 = BBox(18.0, 10.0, 10.0, 10.0)  # IoU 2/18
    assert nms(detections([(d0, 0.9), (d1, 0.8)]), 0.5).boxes.tolist() == _box_rows([d0, d1]).tolist()


def test_nms_tie_prefers_lower_index():
    a = BBox(10.0, 10.0, 10.0, 10.0)
    b = BBox(10.5, 10.0, 10.0, 10.0)
    assert nms(detections([(a, 0.9), (b, 0.9)]), 0.5).boxes.tolist() == _box_rows([a]).tolist()
    assert nms(detections([(b, 0.9), (a, 0.9)]), 0.5).boxes.tolist() == _box_rows([b]).tolist()


def test_nms_survivors_keep_original_order():
    low = BBox(10.0, 10.0, 4.0, 4.0)
    high = BBox(50.0, 50.0, 4.0, 4.0)
    kept = nms(detections([(low, 0.3), (high, 0.9)]), 0.5)
    assert kept.boxes.tolist() == _box_rows([low, high]).tolist() and kept.confidence.tolist() == [0.3, 0.9]


def test_nms_result_independent_of_input_order():
    rng = np.random.default_rng(19)
    dets = detections([(random_box(rng, 30.0), float(rng.uniform(0.05, 0.99))) for _ in range(40)])
    baseline = {(d.box, d.confidence) for d in nms(dets, 0.4)}
    for _ in range(5):
        shuffled = dets.take(rng.permutation(len(dets)))
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
    dets = list(detections([(pool[p], conf) for p, conf in picks]))
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
    want = greedy_nms(dets, threshold)
    for cells in (0, 10**9):  # every frame swept, then every frame dense
        with mock.patch.object(idtrack.affinity, "_DENSE_CELLS", cells):
            assert same_rows(nms(dets, threshold), want)
            assert same_rows(nms(Detections.pack(dets), threshold), want)


def test_nms_never_calls_the_scalar_iou(monkeypatch):
    # A crowded frame is scored as arrays of pairs, not per-pair Python.
    def scalar_iou(a, b):
        raise AssertionError("nms called the scalar iou")

    rng = np.random.default_rng(23)
    dets = detections([(random_box(rng, 20.0), float(rng.uniform(0.05, 0.99))) for _ in range(60)])
    want = greedy_nms(list(dets), 0.3)
    monkeypatch.setattr(idtrack.affinity, "iou", scalar_iou)
    got = nms(dets, 0.3)
    assert 0 < len(got) < len(dets)
    assert same_rows(got, want)


@st.composite
def box_pairs(draw):
    """Two box arrays of up to a few hundred rows, crowded, spread or far out
    at the box domain's edge, each side holding relatives of the other's
    rows, in shuffled order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.sampled_from([10, 200, 5000, 10**8 - 40]))
    a = grid_boxes(rng, draw(st.integers(0, 200)), span)
    b = grid_boxes(rng, draw(st.integers(0, 200)), span)
    a, b = np.vstack([a, relatives(rng, b)]), np.vstack([b, relatives(rng, a)])
    return rng.permutation(a), rng.permutation(b)


@settings(max_examples=150)
@given(box_pairs())
def test_property_sweep_and_dense_kernel_score_the_oracle_bit_for_bit(case):
    a, b = case
    for cells in (0, 10**9):  # every matrix swept, then every matrix dense
        with mock.patch.object(idtrack.affinity, "_DENSE_CELLS", cells):
            assert _iou_cells(a, b).tobytes() == iou_cells(a, b).tobytes()
            assert _iou_cells(a, a).tobytes() == iou_cells(a, a).tobytes()
    # NMS's sweep over one frame finds every overlapping pair, once.
    p, q = _self_pairs(_corners(a))
    found = np.zeros((len(a), len(a)), dtype=int)
    np.add.at(found, (np.minimum(p, q), np.maximum(p, q)), 1)
    assert found.max(initial=0) <= 1 and (np.diag(found) == 0).all()
    assert not (np.triu(iou_cells(a, a) > 0.0, 1) & (found == 0)).any()


def test_a_spread_frame_is_scored_in_pairs_linear_in_its_boxes(monkeypatch):
    # 512 boxes on the 6400x3600 arena of a 512-identity scene at stock
    # density: each one's x-extent meets about eight others'. The dense
    # kernel scored all n * n = 512n cells; the sweep scores a few per box.
    rng = np.random.default_rng(29)
    n = 512
    boxes = np.column_stack([rng.uniform(0, 6400, n), rng.uniform(0, 3600, n), rng.uniform(36, 72, (n, 2))])
    confidence = rng.uniform(0.5, 1.0, n)
    scored = []
    score = idtrack.affinity._iou_corners

    def counted(a, b):
        cells = score(a, b)
        scored.append(cells.size)
        return cells

    monkeypatch.setattr(idtrack.affinity, "_iou_corners", counted)
    kept = nms(Detections(boxes, confidence), 0.3)
    assert 0 < sum(scored) < 8 * n and sum(scored) == len(_self_pairs(_corners(boxes))[0])
    scored.clear()
    shifted = boxes + rng.normal(0.0, 2.0, boxes.shape) * [1, 1, 0, 0]
    assert _iou_cells(boxes, shifted).tobytes() == iou_cells(boxes, shifted).tobytes()
    assert 0 < sum(scored) < 16 * n
    assert 0 < len(kept) < n

import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idtrack.affinity import AffinityWeights, nms
from helpers import detection_stream, detections, state, track_outputs, trajectories, update_one
from idtrack.geometry import BBox, Detections, DetectionStream, IdStream, TrackOutput, _box_rows
from idtrack.mot_io import load_detections, write_detections, write_embeddings, write_results
from idtrack.sim import SimConfig, generate
from idtrack.tracker import (
    DEFAULT_NMS_IOU,
    Tracker,
    TrackerConfig,
    propagate_linear,
    track_stream,
    update_trajectory,
)


def unit(vec):
    vec = np.asarray(vec, dtype=np.float64)
    return vec / np.linalg.norm(vec)


EA = unit([1.0, 0.0, 0.0, 0.0])
EB = unit([0.0, 1.0, 0.0, 0.0])
EMIX = unit([1.0, 1.0, 0.0, 0.0])
EC = unit([0.0, 0.0, 1.0, 0.0])


def det(cx, cy, emb=None, conf=0.9, size=4.0, prediction=None):
    """One row for ``detections``."""
    return BBox(float(cx), float(cy), size, size), conf, emb, prediction


def stream(frames):
    """A ``DetectionStream`` of ``{frame: row list or batch}``, its largest
    frame (empty or not) the last."""
    return detection_stream(frames)


def id_only_config(**kwargs):
    return TrackerConfig(weights=AffinityWeights(0.5, 0.5), **kwargs)


def iou_only_config(**kwargs):
    return TrackerConfig(weights=AffinityWeights(1.0, 0.0), **kwargs)


def test_first_detection_starts_a_trajectory():
    tracker = Tracker(iou_only_config())
    outputs = tracker.step(detections([det(10, 10)]), 1)
    assert len(outputs) == 1
    assert outputs[0].frame == 1
    assert outputs[0].track_id == 1
    assert outputs[0].box == BBox(10.0, 10.0, 4.0, 4.0)
    assert not outputs[0].interpolated
    assert len(tracker.active) == 1


def test_continuing_detection_keeps_its_id():
    tracker = Tracker(iou_only_config())
    tracker.step(detections([det(10, 10)]), 1)
    outputs = tracker.step(detections([det(11, 10)]), 2)
    assert [o.track_id for o in outputs if not o.interpolated] == [1]


def test_far_detection_gets_a_new_id():
    tracker = Tracker(iou_only_config(motion_propagate_frames=0))
    tracker.step(detections([det(10, 10)]), 1)
    outputs = tracker.step(detections([det(200, 200)]), 2)
    assert [o.track_id for o in outputs if not o.interpolated] == [2]


def test_buffer_recovery_restores_the_id():
    # The object vanishes for two frames and reappears somewhere IoU cannot
    # reach; only the identity-only buffer stage can reclaim it.
    tracker = Tracker(id_only_config(motion_propagate_frames=0))
    tracker.step(detections([det(10, 10, EA)]), 1)
    tracker.step(detections([]), frame=2)
    tracker.step(detections([]), frame=3)
    outputs = tracker.step(detections([det(400, 400, EA)]), 4)
    assert [o.track_id for o in outputs] == [1]
    assert len(tracker.active) == 1
    assert not tracker.paused


def test_no_recovery_without_identity_weight():
    tracker = Tracker(iou_only_config(motion_propagate_frames=0))
    tracker.step(detections([det(10, 10, EA)]), 1)
    tracker.step(detections([]), frame=2)
    tracker.step(detections([]), frame=3)
    outputs = tracker.step(detections([det(400, 400, EA)]), 4)
    assert [o.track_id for o in outputs] == [2]


def test_recent_buffer_level_wins():
    # Two paused trajectories could both take the detection; the one unseen
    # for fewer frames gets first pick.
    tracker = Tracker(id_only_config(motion_propagate_frames=0))
    tracker.step(detections([det(10, 10, EA)]), 1)
    tracker.step(detections([det(300, 300, EB)]), 2)  # cosine 0 to EA: becomes id 2
    tracker.step(detections([]), frame=3)
    outputs = tracker.step(detections([det(600, 600, EMIX)]), 4)
    assert [o.track_id for o in outputs] == [2]


def test_recovery_chooses_among_the_free_detections():
    # Two detections are left for the paused trajectory's level, both far
    # from the active head: it passes over the first, whose embedding is
    # orthogonal to its own, and takes the second, so only the first is born.
    tracker = Tracker(id_only_config(motion_propagate_frames=0))
    tracker.step(detections([det(10, 10, EA), det(600, 600, EC)]), 1)
    tracker.step(detections([det(600, 600, EC)]), 2)  # id 1 pauses
    outputs = tracker.step(detections([det(600, 600, EC), det(300, 300, EB), det(400, 400, EA)]), 3)
    assert [(o.track_id, o.box.cx) for o in outputs] == [(2, 600.0), (1, 400.0), (3, 300.0)]
    assert not tracker.paused and tracker.next_id == 4


def test_retirement_after_buffer_expires():
    tracker = Tracker(id_only_config(motion_propagate_frames=0, buffer_size=3))
    tracker.step(detections([det(10, 10, EA)]), 1)
    for f in (2, 3, 4):
        tracker.step(detections([]), frame=f)
    outputs = tracker.step(detections([det(10, 10, EA)]), 5)
    assert [o.track_id for o in outputs] == [2]
    assert not tracker.paused


def test_recovery_at_the_buffer_boundary():
    tracker = Tracker(id_only_config(motion_propagate_frames=0, buffer_size=3))
    tracker.step(detections([det(10, 10, EA)]), 1)
    tracker.step(detections([]), frame=2)
    tracker.step(detections([]), frame=3)
    outputs = tracker.step(detections([det(10, 10, EA)]), 4)  # unseen for exactly buffer_size
    assert [o.track_id for o in outputs] == [1]


def test_propagation_emits_interpolated_heads():
    tracker = Tracker(iou_only_config(motion_propagate_frames=2))
    tracker.step(detections([det(10, 10)]), 1)
    tracker.step(detections([det(12, 10)]), 2)  # velocity settles at (1, 0)
    out3 = tracker.step(detections([]), frame=3)
    assert len(out3) == 1 and out3[0].interpolated
    assert out3[0].box == BBox(13.0, 10.0, 4.0, 4.0)
    out4 = tracker.step(detections([]), frame=4)
    assert out4[0].box == BBox(14.0, 10.0, 4.0, 4.0)
    out5 = tracker.step(detections([]), frame=5)  # exceeded the propagation budget
    assert out5 == []
    assert len(tracker.paused) == 1


def test_a_head_may_coast_out_of_the_box_domain(tmp_path):
    # Only boxes that are read or batched are bounded: a head that coasts
    # past 1e8 keeps the stream going, and only the results writer refuses it.
    edge = 1e8 - 2.0
    scene = stream({1: [det(edge - 2.0, 0)], 2: [det(edge, 0)], 5: []})
    outputs = track_stream(scene, iou_only_config(motion_propagate_frames=3))
    assert [o.box.cx for o in outputs] == [edge - 2.0, edge, edge + 1.0, edge + 2.0, edge + 3.0]
    hyp = tmp_path / "hyp.txt"
    with pytest.raises(ValueError, match=r"box cx must be at most 1e\+08 in magnitude, got 100000001.0"):
        write_results(hyp, outputs)
    assert not hyp.exists()
    assert write_results(hyp, outputs.take(~outputs.interpolated)) == 2


def test_hypotheses_skip_interpolated_outputs_and_keep_order():
    a, b, c = BBox(10.0, 10.0, 4.0, 4.0), BBox(20.0, 10.0, 4.0, 4.0), BBox(30.0, 10.0, 4.0, 4.0)
    outputs = track_outputs([
        TrackOutput(2, 3, a, 0.9),
        TrackOutput(1, 2, b, 0.8),
        TrackOutput(2, 1, b, 0.7, interpolated=True),
        TrackOutput(2, 2, c, 0.6),
        TrackOutput(3, 1, c, 0.5, interpolated=True),
    ])
    hyp = outputs.take(~outputs.interpolated)
    assert hyp.frames.tolist() == [2, 1, 2] and hyp.ids.tolist() == [3, 2, 2]  # in output order
    assert hyp.frames.dtype == hyp.ids.dtype == np.int64 and hyp.boxes.tolist() == _box_rows([a, b, c]).tolist()
    assert hyp.confidence.tolist() == [0.9, 0.8, 0.6] and hyp.interpolated.tolist() == [False] * 3
    empty = track_outputs([])
    empty = empty.take(~empty.interpolated)
    assert ([c.shape for c in (empty.frames, empty.ids, empty.boxes, empty.confidence, empty.interpolated)]
            == [(0,), (0,), (0, 4), (0,), (0,)])


def test_an_empty_step_equals_no_rows():
    outputs = Tracker(iou_only_config()).step(detections([]), 1)
    assert isinstance(outputs, IdStream) and len(outputs) == 0
    assert outputs == [] and outputs == () and list(outputs) == []
    assert outputs == track_outputs([]) and len(outputs.take(~outputs.interpolated).frames) == 0


def test_a_batch_differs_from_rows_that_differ_in_any_one_field():
    tracker = Tracker(iou_only_config(motion_propagate_frames=2))
    tracker.step(detections([det(10, 10), det(50, 50, conf=0.8)]), 1)
    outputs = tracker.step(detections([det(11, 10)]), 2)  # id 2 coasts
    rows = list(outputs)
    assert rows == [TrackOutput(2, 1, BBox(11.0, 10.0, 4.0, 4.0), 0.9), TrackOutput(2, 2, BBox(50.0, 50.0, 4.0, 4.0),
                                                                                   0.8, interpolated=True)]
    assert [outputs[0], outputs[-1]] == rows == [outputs[-2], outputs[1]]
    assert outputs == rows and outputs == tuple(rows) and all(isinstance(row.box, BBox) for row in outputs)
    for k in (2, -3, 10):
        with pytest.raises(IndexError):
            outputs[k]
    assert track_outputs(rows) == outputs
    for k, row in enumerate(rows):
        for change in ({"frame": 3}, {"track_id": 7}, {"box": BBox(row.box.cx, row.box.cy, 4.0, 4.5)},
                       {"confidence": 0.5}, {"interpolated": not row.interpolated}):
            changed = rows[:k] + [replace(row, **change)] + rows[k + 1 :]
            assert outputs != changed and outputs != track_outputs(changed)
    assert outputs != rows[:1] and outputs != rows + rows[:1] and outputs != rows[::-1]


@pytest.mark.parametrize("box", [[0, 0, float("nan"), 1], [float("inf"), 0, 1, 1], [0, 0, 0, 1], [0, 0, 1, -2]])
def test_a_stream_refuses_a_bad_box_and_its_rows_are_checked_boxes(box):
    columns = [1, 1], [1, 2], [[5, 5, 2, 2], box], [0.9, 0.8], [False, True]
    with pytest.raises(ValueError, match="row 1: BBox"):
        IdStream(*columns)
    # The tracker gathers its outputs unchecked; a row is checked when it is built.
    outputs = IdStream._checked(*(np.array(column) for column in columns))
    assert outputs[0] == TrackOutput(1, 1, BBox(5.0, 5.0, 2.0, 2.0), 0.9)
    with pytest.raises(ValueError, match="BBox"):
        outputs[1]
    with pytest.raises(ValueError, match="BBox"):
        list(outputs)


def test_a_batch_is_not_hashable():
    for outputs in (track_stream(stream({}), iou_only_config()), IdStream([1], [1], [[5, 5, 2, 2]])):
        with pytest.raises(TypeError):
            hash(outputs)


def test_the_steps_of_a_stream_without_idle_frames_are_its_rows():
    _, dets = generate(SimConfig(seed=43, num_identities=8, frames=60, occlusion_events=3, fp_rate=0.4))
    config = id_only_config()
    assert all(len(dets.get(frame, [])) for frame in range(1, max(dets) + 1))
    tracker, rows = Tracker(config), []
    for frame in range(1, max(dets) + 1):
        batch = dets[frame]
        rows.extend(tracker.step(nms(batch.take(batch.confidence >= config.det_threshold), DEFAULT_NMS_IOU), frame))
    assert rows == list(track_stream(dets, config)) and len(rows) > 400


def test_the_tracker_builds_batches_the_constructor_would_take_as_they_are():
    # Tracker.step and track_stream skip the constructor's checks, so their
    # columns must already have its dtypes and shapes.
    _, dets = generate(SimConfig(seed=43, num_identities=8, frames=30, occlusion_events=3))
    tracker = Tracker(id_only_config())
    batches = [tracker.step(dets[1], 1), tracker.step(dets[2].take([]), 2),
               track_stream(dets, id_only_config()), track_stream(stream({5: []}))]
    for outputs in batches:
        rebuilt = IdStream(*(getattr(outputs, name) for name in IdStream.__slots__))
        for name in IdStream.__slots__:
            column, checked = getattr(outputs, name), getattr(rebuilt, name)
            assert (column.dtype, column.shape) == (checked.dtype, checked.shape), name
    assert [len(outputs) > 0 for outputs in batches] == [True, True, True, False]


def test_coasting_trajectory_still_matches_by_iou():
    tracker = Tracker(iou_only_config(motion_propagate_frames=3))
    tracker.step(detections([det(10, 10, size=10.0)]), 1)
    tracker.step(detections([det(14, 10, size=10.0)]), 2)
    tracker.step(detections([]), frame=3)  # coasts to (16, 10)
    outputs = tracker.step(detections([det(18, 10, size=10.0)]), 4)
    assert [o.track_id for o in outputs] == [1]
    assert not outputs[0].interpolated


def test_external_prediction_replaces_linear_coasting():
    # A detection's prediction is its box in the next frame; the trajectory
    # that takes detection 1 coasts on it when it misses frame 2.
    tracker = Tracker(iou_only_config(motion_propagate_frames=2))
    tracker.step(detections([det(100, 100), det(10, 10, prediction=BBox(50.0, 50.0, 4.0, 4.0))]), 1)
    outputs = tracker.step(detections([det(100, 100)]), 2)
    assert [(o.track_id, o.box, o.interpolated) for o in outputs] == [
        (1, BBox(100.0, 100.0, 4.0, 4.0), False),
        (2, BBox(50.0, 50.0, 4.0, 4.0), True),
    ]
    # The predicted head is what the next frame's IoU sees.
    outputs = tracker.step(detections([det(50, 50)]), 3)
    assert [(o.track_id, o.interpolated) for o in outputs] == [(2, False), (1, True)]


def test_prediction_is_only_for_the_next_frame():
    tracker = Tracker(iou_only_config(motion_propagate_frames=2))
    tracker.step(detections([det(10, 10, prediction=BBox(50.0, 50.0, 4.0, 4.0))]), 1)
    outputs = tracker.step(detections([]), frame=3)  # frame 2 was skipped: linear (still) head
    assert [(o.box, o.interpolated) for o in outputs] == [(BBox(10.0, 10.0, 4.0, 4.0), True)]


def test_missing_embedding_rejected_before_any_state_changes():
    tracker = Tracker(id_only_config(motion_propagate_frames=1))
    tracker.step(detections([det(10, 10, EA), det(300, 300, EB)]), 1)
    tracker.step(detections([det(10, 10, EA)]), 2)  # id 2 coasts
    tracker.step(detections([det(10, 10, EA)]), 3)  # id 2 pauses

    def snapshot():
        return (
            [(t, state(t)) for t in tracker.active],
            [(t, state(t)) for t in tracker.paused],
            tracker.next_id,
            tracker.current_frame,
        )

    before = snapshot()
    assert before[0] and before[1]
    # Frame 4 would update id 1 in place and recover nothing; frame 20 would
    # retire both trajectories, if the step got that far.
    for frame in (4, 20):
        with pytest.raises(ValueError, match="detection 0 has no embedding"):
            tracker.step(detections([det(10, 10), det(50, 50)]), frame)
        assert snapshot() == before


def test_an_embedding_of_another_dimension_is_refused_before_any_state_changes():
    # The table holds one embedding dimension, even where no affinity reads it.
    tracker = Tracker(iou_only_config())
    tracker.step(detections([det(10, 10, EA)]), 1)
    before = [state(t) for t in tracker.active]
    with pytest.raises(ValueError, match="embeddings have 3 values, the tracker's trajectories 4"):
        tracker.step(detections([det(10, 10, unit([1.0, 0.0, 0.0]))]), 2)
    assert [state(t) for t in tracker.active] == before and tracker.current_frame == 1


def test_an_iou_step_takes_batches_with_and_without_embeddings():
    # Identity weight 0 reads no embedding, so one frame's batch may hold
    # none and the next one's vectors; a trajectory keeps the vectors of the
    # detections it takes, and a batch without any leaves them as they are.
    tracker = Tracker(iou_only_config())
    tracker.step(detections([det(10, 10), det(50, 50), det(90, 90)]), 1)
    tracker.step(detections([det(50, 50, EA), det(10, 10, EB), det(90, 90, EA)]), 2)
    outputs = tracker.step(detections([det(50, 50), det(10, 10), det(90, 90)]), 3)
    assert [(o.track_id, o.box.cx) for o in outputs] == [(1, 10.0), (2, 50.0), (3, 90.0)]
    tracker.step(detections([det(10, 10, EB), det(50, 50, EB), det(90, 90, EA)]), 4)
    embeddings = {t.track_id: t.head_embedding for t in tracker.active}
    assert np.array_equal(embeddings[1], EB) and np.array_equal(embeddings[3], EA)
    assert np.allclose(embeddings[2], EMIX, atol=1e-12)


def test_frames_must_advance():
    tracker = Tracker(iou_only_config())
    tracker.step(detections([det(10, 10)]), 1)
    with pytest.raises(ValueError):
        tracker.step(detections([det(10, 10)]), 1)
    with pytest.raises(ValueError):
        tracker.step(detections([]), frame=0)


@pytest.mark.parametrize("frame", [1.5, 2.0, float("nan"), np.float64(2.0), "2"])
def test_a_frame_that_is_not_an_integer_is_refused_before_any_change(frame):
    # A float frame was taken as it came: 1.5 emitted rows at frame 1 and
    # stored last_seen 1, so 1.7 was then accepted and emitted frame 1 again.
    tracker = Tracker(iou_only_config())
    tracker.step(detections([det(10, 10)]), 1)
    with pytest.raises(TypeError, match=f"frame must be an integer, got {re.escape(repr(frame))}"):
        tracker.step(detections([det(12, 10)]), frame)
    assert tracker.current_frame == 1 and tracker.active[0].last_seen == 1 and tracker.next_id == 2
    outputs = tracker.step(detections([det(12, 10)]), np.int64(2))
    assert outputs.frames.tolist() == [2] and type(tracker.current_frame) is int


@pytest.mark.parametrize("identity", [0.0, 0.5])
def test_detections_that_are_not_a_batch_are_refused_before_any_change(identity):
    # A list of views, which nms takes, raised AttributeError halfway into
    # the step: on missing_embedding, or on embeddings at identity weight 0.
    tracker = Tracker(TrackerConfig(weights=AffinityWeights(1.0 - identity, identity)))
    tracker.step(detections([det(10, 10, EA)]), 1)
    before = [state(t) for t in tracker.active], tracker.current_frame, tracker.next_id
    batch = detections([det(12, 10, EA), det(90, 90, EB)])
    for wrong, name in ((list(batch), "list"), (tuple(batch), "tuple"), (None, "NoneType")):
        with pytest.raises(TypeError, match=f"detections must be one Detections batch, got {name}"):
            tracker.step(wrong, 2)
        assert ([state(t) for t in tracker.active], tracker.current_frame, tracker.next_id) == before
    assert tracker.step(batch, 2).ids.tolist() == [1, 2]


def start_traj(embedding=EA, last_seen=1):
    return trajectories([(1, BBox(10.0, 10.0, 4.0, 4.0), embedding, (0.0, 0.0), last_seen)])


def test_update_trajectory_momentum_extremes():
    fresh = det(14, 10, EB)
    snap = start_traj()
    update_trajectory(snap, detections([fresh]), 0.0, 2)
    assert np.array_equal(snap[0].head_embedding, EB)
    assert snap[0].avg_velocity == (4.0, 0.0)
    assert snap[0].last_seen == 2 and snap[0].head_frame == 2
    sticky = start_traj()
    update_trajectory(sticky, detections([fresh]), 1.0, 2)
    assert np.array_equal(sticky[0].head_embedding, EA)
    assert sticky[0].avg_velocity == (0.0, 0.0)
    assert sticky[0].head_box == fresh[0]  # the box always follows the detection


def test_update_trajectory_blends_and_renormalizes():
    traj = start_traj()
    update_trajectory(traj, detections([det(10, 10, EB)]), 0.5, 2)
    assert np.allclose(traj[0].head_embedding, EMIX, atol=1e-12)
    assert abs(np.linalg.norm(traj[0].head_embedding) - 1.0) < 1e-12


def test_update_trajectory_opposite_embeddings_take_the_fresh_one():
    # The cancelling pair sits between two that blend normally.
    trajs = trajectories([(k + 1, BBox(10.0, 10.0, 4.0, 4.0), e) for k, e in enumerate((EA, EA, EB))])
    dets = [det(10, 10, EB), det(10, 10, -EA), det(10, 10, EA)]
    update_trajectory(trajs, detections(dets), 0.5, 2)
    assert np.array_equal(trajs[1].head_embedding, -EA)
    assert np.allclose(trajs[0].head_embedding, EMIX, atol=1e-12)
    assert np.allclose(trajs[2].head_embedding, EMIX, atol=1e-12)


def test_update_trajectory_velocity_spreads_over_the_gap():
    traj = start_traj(None)
    update_trajectory(traj, detections([det(22, 10)]), 0.5, 4)
    # Displacement 12 over 3 frames -> 4 per frame, halved by momentum.
    assert traj[0].avg_velocity == (2.0, 0.0)


def test_update_trajectory_rejects_regression():
    traj = start_traj(None, last_seen=5)
    with pytest.raises(ValueError):
        update_trajectory(traj, detections([det(10, 10)]), 0.5, 3)


def test_update_trajectory_rejects_a_batch_without_changing_any_trajectory():
    box = BBox(10.0, 10.0, 4.0, 4.0)
    trajs = trajectories([(1, box, EA, (0.0, 0.0), 2), (2, box, EB, (0.0, 0.0), 2), (3, box, None, (0.0, 0.0), 5)])
    before = [state(t) for t in trajs]
    ahead = BBox(1.0, 1.0, 1.0, 1.0)
    dets = [det(12, 10, EB, prediction=ahead), det(8, 10, EA, prediction=ahead), det(10, 10, EA, prediction=ahead)]
    with pytest.raises(ValueError, match="detection frame 4 is behind trajectory head frame 5"):
        update_trajectory(trajs, detections(dets), 0.5, 4)  # frame 4 is behind the last trajectory's head
    assert [state(t) for t in trajs] == before


@st.composite
def update_batches(draw):
    """Distinct trajectories with matched detections of one frame: a batch
    without embeddings, or one with opposite, equal and random embeddings
    against trajectories with and without one, gaps of 0-9 frames, coasting
    heads and predictions."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from((3, 64)))  # 64 is the simulator's default
    momentum = draw(st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0)))
    bare = draw(st.integers(0, 4)) == 0
    heads, rows = [], []
    for k in range(draw(st.integers(0, 8))):
        last_seen = int(rng.integers(1, 6))
        head_frame = last_seen + int(rng.integers(0, 3))
        emb = None if rng.random() < 0.2 else unit(rng.normal(size=dim))
        box = BBox(*rng.uniform(0.0, 100.0, size=2), *rng.uniform(1.0, 30.0, size=2))
        heads.append((k + 1, box, emb, tuple(rng.normal(0.0, 3.0, size=2)), last_seen, head_frame))
        kind = draw(st.sampled_from(("opposite", "same", "random")))
        fresh = None
        if not bare:
            fresh = {"opposite": emb if emb is None else -emb, "same": emb}.get(kind)
            fresh = unit(rng.normal(size=dim)) if fresh is None else fresh
        dbox = BBox(*rng.uniform(0.0, 100.0, size=2), *rng.uniform(1.0, 30.0, size=2))
        prediction = None if rng.random() < 0.5 else BBox(*rng.uniform(1.0, 50.0, size=4))
        rows.append((dbox, float(rng.uniform(0.0, 1.0)), fresh, prediction))
    frame = max((head[-1] for head in heads), default=1) + int(rng.integers(0, 4))
    return trajectories(heads), detections(rows), momentum, frame


@settings(max_examples=300)
@given(update_batches())
def test_property_batched_update_equals_the_reference_bit_for_bit(batch):
    trajs, dets, momentum, frame = batch
    want = [update_one(t, d, momentum, frame) for t, d in zip(trajs, dets)]
    update_trajectory(trajs, dets, momentum, frame)
    assert [state(t) for t in trajs] == [state(t) for t in want]  # embeddings compared as bytes


def test_propagate_linear_is_additive():
    boxes, velocity = np.array([[10.0, 10.0, 4.0, 4.0], [0.0, 1.0, 2.0, 3.0]]), np.array([[1.5, -0.5], [0.25, 2.0]])
    assert propagate_linear(boxes, velocity, 2).tolist() == [[13.0, 9.0, 4.0, 4.0], [0.5, 5.0, 2.0, 3.0]]
    assert propagate_linear(boxes, velocity, np.array([0, 1])).tolist() == [[10.0, 10.0, 4.0, 4.0], [0.25, 3.0, 2.0, 3.0]]
    assert np.array_equal(propagate_linear(propagate_linear(boxes, velocity, 1), velocity, 1),
                          propagate_linear(boxes, velocity, 2))


def test_track_ids_are_one_based_and_fresh():
    tracker = Tracker(iou_only_config(motion_propagate_frames=0, buffer_size=1))
    tracker.step(detections([det(10, 10), det(100, 100)]), 1)
    assert sorted(t.track_id for t in tracker.active) == [1, 2]
    tracker.step(detections([det(400, 400)]), 2)
    assert tracker.next_id == 4


def test_stream_confidence_filter_and_nms():
    dets = {
        1: [
            det(10, 10, conf=0.9),
            det(10.5, 10, conf=0.8),  # suppressed: heavy overlap, lower score
            det(100, 100, conf=0.3),  # below det_threshold
            det(50, 50, conf=0.7),
        ]
    }
    outputs = track_stream(stream(dets), iou_only_config())
    boxes = sorted((o.box.cx, o.box.cy) for o in outputs)
    assert boxes == [(10.0, 10.0), (50.0, 50.0)]


def test_stream_is_deterministic():
    _, dets = generate(SimConfig(seed=31, num_identities=8, frames=50, occlusion_events=2))
    a = track_stream(dets, id_only_config())
    b = track_stream(dets, id_only_config())
    assert a == b


def test_stream_outputs_unique_per_frame_and_id():
    _, dets = generate(SimConfig(seed=37, num_identities=10, frames=60, occlusion_events=3, fp_rate=0.4))
    outputs = track_stream(dets, id_only_config())
    seen = [(o.frame, o.track_id) for o in outputs]
    assert len(seen) == len(set(seen))


def test_stream_handles_empty_input():
    assert track_stream(stream({}), iou_only_config()) == []


def test_stream_time_grows_with_the_data_not_the_largest_frame():
    # Stepping every frame up to 10**9 would take about a day.
    start = time.perf_counter()
    outputs = track_stream(stream({1: [det(10, 10)], 10**9: [det(10, 10)]}), iou_only_config())
    assert time.perf_counter() - start < 1.0
    assert [(o.frame, o.track_id, o.interpolated) for o in outputs] == [
        (1, 1, False), *((f, 1, True) for f in range(2, 7)), (10**9, 2, False)
    ]


def test_stream_predictions_take_over_when_detections_vanish():
    dets = {
        1: [det(10, 10, prediction=BBox(50.0, 50.0, 4.0, 4.0))],
        2: [],
        3: [det(50, 50)],
    }
    with_pred = track_stream(stream(dets), iou_only_config())
    ids = {o.frame: o.track_id for o in with_pred}
    assert ids[3] == ids[1], "prediction should carry the identity across the gap"
    coasted = [o for o in with_pred if o.interpolated]
    assert len(coasted) == 1 and coasted[0].box == BBox(50.0, 50.0, 4.0, 4.0)

    without = track_stream(stream({**dets, 1: [det(10, 10)]}), iou_only_config())
    ids = {o.frame: o.track_id for o in without if not o.interpolated}
    assert ids[3] != ids[1]


def test_stream_prediction_follows_a_buffer_recovery():
    # The trajectory coasts one frame, pauses, is recovered from the buffer
    # by identity at frame 4, and the next frame's coasting head is the
    # recovering detection's prediction.
    dets = {
        1: [det(10, 10, EA)],
        4: [det(300, 300, EB, conf=0.1), det(400, 400, EA, prediction=BBox(420.0, 400.0, 4.0, 4.0))],
        5: [],
    }
    outputs = track_stream(stream(dets), id_only_config(motion_propagate_frames=1))
    by_frame = {f: [(o.track_id, o.box, o.interpolated) for o in outputs if o.frame == f] for f in range(1, 6)}
    assert by_frame[2] == [(1, BBox(10.0, 10.0, 4.0, 4.0), True)]
    assert by_frame[3] == []
    assert by_frame[4] == [(1, BBox(400.0, 400.0, 4.0, 4.0), False)]
    assert by_frame[5] == [(1, BBox(420.0, 400.0, 4.0, 4.0), True)]


def test_identity_weight_zero_ignores_embeddings():
    _, dets = generate(SimConfig(seed=41, num_identities=6, frames=40, occlusion_events=2))
    stripped = DetectionStream(Detections(dets.rows.boxes, dets.rows.confidence), dets.frames, dets.last)
    with_emb = track_stream(dets, iou_only_config())
    without_emb = track_stream(stripped, iou_only_config())
    assert with_emb == without_emb


def test_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(buffer_size=0)
    with pytest.raises(ValueError):
        TrackerConfig(motion_propagate_frames=-1)
    with pytest.raises(ValueError):
        TrackerConfig(embedding_momentum=1.5)
    with pytest.raises(ValueError):
        TrackerConfig(buffer_size=3, motion_propagate_frames=4)
    TrackerConfig(buffer_size=3, motion_propagate_frames=3)  # coasts to the end of the buffer


@pytest.mark.parametrize("field, value, error, message", [
    # A NaN frame count compared False with everything: nothing retired, or nothing coasted.
    ("buffer_size", float("nan"), TypeError, "buffer_size must be one int, got nan"),
    ("motion_propagate_frames", float("nan"), TypeError, "motion_propagate_frames must be one int, got nan"),
    ("buffer_size", 10.0, TypeError, "buffer_size must be one int, got 10.0"),
    ("motion_propagate_frames", 2.5, TypeError, "motion_propagate_frames must be one int, got 2.5"),
    ("buffer_size", True, TypeError, "buffer_size must be one int, got True"),
    ("motion_propagate_frames", "5", TypeError, "motion_propagate_frames must be one int, got '5'"),
    ("min_affinity", False, TypeError, "min_affinity must be one number, got False"),
    ("det_threshold", "0.5", TypeError, "det_threshold must be one number, got '0.5'"),
    ("embedding_momentum", True, TypeError, "embedding_momentum must be one number, got True"),
    ("min_affinity", float("nan"), ValueError, "min_affinity must be finite, got nan"),
    ("det_threshold", float("inf"), ValueError, "det_threshold must be finite, got inf"),
    ("embedding_momentum", float("nan"), ValueError, "embedding_momentum must be finite, got nan"),
    ("weights", (0.5, 0.5), TypeError, "weights must be one AffinityWeights, got (0.5, 0.5)"),
    ("weights", None, TypeError, "weights must be one AffinityWeights, got None"),
])
def test_config_refuses_a_field_of_the_wrong_type_or_a_nan(field, value, error, message):
    with pytest.raises(error, match=re.escape(message)):
        TrackerConfig(**{field: value})


def test_config_takes_numpy_numbers_and_ints_for_numbers():
    config = TrackerConfig(buffer_size=np.int64(4), motion_propagate_frames=np.int32(2), min_affinity=0,
                           det_threshold=np.float64(0.25), embedding_momentum=1)
    assert (config.buffer_size, config.motion_propagate_frames, config.det_threshold) == (4, 2, 0.25)


@st.composite
def scenes_with_predictions(draw):
    """A small seeded scene whose detections carry predicted next-frame boxes
    (a random subset of them), and a tracker config that coasts and retires
    within it."""
    config = SimConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        num_identities=draw(st.integers(2, 6)),
        frames=draw(st.integers(10, 30)),
        arena=(400.0, 300.0),
        miss_rate=draw(st.sampled_from([0.05, 0.2])),
        fp_rate=0.5,
        occlusion_events=draw(st.integers(0, 3)),
        occlusion_duration=(1, 6),
        embedding_dim=8,
    )
    _, dets = generate(config)
    buffer_size = draw(st.integers(1, 4))
    tracker_config = id_only_config(
        buffer_size=buffer_size, motion_propagate_frames=draw(st.integers(1, buffer_size))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batches = {}
    for frame, batch in dets.items():
        rows = []
        for d in batch:
            prediction = None
            if rng.random() < 0.7:
                dx, dy = rng.normal(0.0, 8.0, size=2)
                prediction = BBox(d.box.cx + dx, d.box.cy + dy, d.box.w, d.box.h)
            rows.append((d.box, d.confidence, d.embedding, prediction))
        batches[frame] = detections(rows)
    return stream(batches), tracker_config


property_settings = settings(max_examples=40)


@property_settings
@given(scenes_with_predictions())
def test_property_frame_id_pairs_are_unique(scene):
    dets, config = scene
    seen = [(o.frame, o.track_id) for o in track_stream(dets, config)]
    assert len(seen) == len(set(seen))


@property_settings
@given(scenes_with_predictions())
def test_property_retired_ids_never_reappear(scene):
    # An id is retired once it has gone more than buffer_size frames without
    # a detection. Ids are handed out in birth order and every id starts
    # with a detection, so a retired id can only come back as a late output.
    dets, config = scene
    outputs = track_stream(dets, config)
    last_real: dict[int, int] = {}
    for o in sorted(outputs, key=lambda o: (o.frame, o.interpolated)):
        if o.track_id not in last_real:
            assert not o.interpolated
            assert o.track_id == len(last_real) + 1
        else:
            assert o.frame - last_real[o.track_id] <= config.buffer_size
        if not o.interpolated:
            last_real[o.track_id] = o.frame


@property_settings
@given(scenes_with_predictions())
def test_property_empty_predictions_are_no_predictions(tmp_path_factory, scene):
    # An empty predictions file attaches nothing: the tracks equal those of
    # the same detections loaded without one.
    dets, config = scene
    path = tmp_path_factory.mktemp("scene")
    write_detections(path / "dets.txt", dets)
    write_embeddings(path / "emb.txt", dets)
    (path / "preds.txt").write_text("")
    with_empty = load_detections(path / "dets.txt", path / "emb.txt", path / "preds.txt")
    assert all(d.prediction is None for v in with_empty.values() for d in v)
    without = load_detections(path / "dets.txt", path / "emb.txt")
    assert track_stream(with_empty, config) == track_stream(without, config)


@property_settings
@given(scenes_with_predictions())
def test_property_coasting_head_is_the_taken_detections_prediction(scene):
    dets, config = scene
    outputs = track_stream(dets, config)
    real = {(o.frame, o.track_id): o for o in outputs if not o.interpolated}
    for o in outputs:
        prev = real.get((o.frame - 1, o.track_id))
        if not o.interpolated or prev is None:
            continue
        taken = [d for d in dets[o.frame - 1] if d.box == prev.box]
        assert len(taken) == 1
        expected = taken[0].prediction
        if expected is not None:
            assert o.box == expected


@property_settings
@given(scenes_with_predictions())
def test_property_a_batch_gives_the_hypotheses_of_its_rows(scene):
    dets, config = scene
    outputs = track_stream(dets, config)
    for interpolated in (False, True):
        # The per-row reference: each kept output's values, in output order.
        want = [(o.frame, o.track_id, o.box, o.confidence, o.interpolated)
                for o in outputs if interpolated or not o.interpolated]
        got = outputs if interpolated else outputs.take(~outputs.interpolated)
        columns = got.frames, got.ids, got.boxes, got.confidence, got.interpolated
        assert [c.dtype for c in columns] == [np.int64, np.int64, np.float64, np.float64, bool]
        assert list(zip(got.frames.tolist(), got.ids.tolist(), [BBox(*b) for b in got.boxes.tolist()],
                        got.confidence.tolist(), got.interpolated.tolist())) == want


def step_every_frame(dets, config):
    """``track_stream`` as it was: the tracker steps every frame 1..max."""
    tracker, outputs = Tracker(config), []
    for frame in range(1, max(dets) + 1):
        batch = dets.get(frame) or Detections([], [])
        outputs.extend(tracker.step(nms(batch.take(batch.confidence >= config.det_threshold), DEFAULT_NMS_IOU), frame))
    return outputs


@property_settings
@given(scenes_with_predictions(), st.data())
def test_property_gaps_give_the_outputs_of_stepping_every_frame(scene, data):
    # The scene's frames spread out by gaps, some longer than the buffer, so
    # the tracker falls idle between them; some frames go empty, as
    # ``subsample`` leaves them, and the stream may start late.
    dets, config = scene
    gapped, frame = {}, data.draw(st.integers(0, 12))
    for batch in dets.values():
        frame += 1 + data.draw(st.sampled_from([0, 0, 1, 3, config.buffer_size + 1, 12]))
        gapped[frame] = [] if data.draw(st.integers(0, 5)) == 0 else batch
    gapped = stream(gapped)
    assert track_stream(gapped, config) == step_every_frame(gapped, config)


def tracks(outputs):
    """The tracks of ``outputs`` with their ids left out: each track as the
    sorted ``(frame, box, confidence, interpolated)`` of its outputs."""
    by_id: dict[int, list] = {}
    for o in outputs:
        by_id.setdefault(o.track_id, []).append((o.frame, o.box.cx, o.box.cy, o.box.w, o.box.h, o.confidence,
                                                 o.interpolated))
    return sorted(sorted(rows) for rows in by_id.values())


@property_settings
@given(scenes_with_predictions(), st.integers(0, 2**32 - 1))
def test_property_shuffled_frames_give_the_same_tracks(scene, seed):
    # The generated confidences and affinities have no exact ties (a pair
    # that scores 0 goes unmatched), so NMS and every Hungarian solve pick
    # the same pairs in any row order: only the ids of the births change.
    dets, config = scene
    rng = np.random.default_rng(seed)
    shuffled = stream({frame: batch.take(rng.permutation(len(batch))) for frame, batch in dets.items()})
    assert tracks(track_stream(shuffled, config)) == tracks(track_stream(dets, config))


def test_the_table_grows_with_the_live_trajectories_not_the_births():
    # 2,000 objects, 4 born per frame at fresh places, each seen in two
    # frames: with one frame of coasting and a buffer of one, at most 12
    # trajectories live at once, and each slot is used about 80 times.
    config = iou_only_config(buffer_size=1, motion_propagate_frames=1)
    tracker, peak, slot_ids, seen_ids = Tracker(config), 0, {}, set()
    for frame in range(1, 502):
        born = [k for k in range(4 * frame - 8, 4 * frame) if 0 <= k < 2000]
        tracker.step(detections([det(20 * (k % 50), 20 * (k // 50)) for k in born]), frame)
        peak = max(peak, len(tracker.active) + len(tracker.paused))
        for traj in [*tracker.active, *tracker.paused]:
            if slot_ids.get(traj.slot) != traj.track_id:  # a birth, maybe into a reused slot
                assert traj.track_id not in seen_ids
                slot_ids[traj.slot] = traj.track_id
                seen_ids.add(traj.track_id)
    assert tracker.next_id == 2001 and len(seen_ids) == 2000 and peak == 12
    assert len(slot_ids) == peak and len(tracker.table.ids) <= 2 * peak  # freed slots go first


def test_views_are_kept_while_their_trajectories_live_and_frozen_after():
    tracker = Tracker(id_only_config(buffer_size=2, motion_propagate_frames=1))
    tracker.step(detections([det(10, 10, EA), det(300, 300, EB)]), 1)
    first, second = tracker.active
    tracker.step(detections([det(12, 10, EA)]), 2)  # id 2 coasts
    assert list(tracker.active) == [first, second] and not tracker.paused
    tracker.step(detections([det(14, 10, EA)]), 3)  # id 2 pauses
    assert list(tracker.active) == [first] and list(tracker.paused) == [second]
    assert tracker.active[0] is first and tracker.paused[-1] is second
    assert (first.head_box, first.last_seen, first.avg_velocity) == (BBox(14.0, 10.0, 4.0, 4.0), 3, (1.5, 0.0))
    last = state(second)
    assert last[3:6] == ((0.0, 0.0), 1, 2)  # coasted once on a still head, then paused
    tracker.step(detections([det(500, 500, unit([0.0, 0.0, 1.0, 0.0]))]), 4)  # id 2 retires; id 3 takes its slot
    assert [t.track_id for t in tracker.active] == [3, 1]
    assert tracker.active[0].slot == 1 and tracker.active[0].table is tracker.table
    assert state(second) == last and second.table is not tracker.table

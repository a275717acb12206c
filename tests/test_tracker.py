import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idtrack.affinity import AffinityWeights
from idtrack.geometry import BBox, Detection
from idtrack.sim import SimConfig, generate
from idtrack.tracker import (
    Tracker,
    TrackerConfig,
    Trajectory,
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


def det(cx, cy, frame, emb=None, conf=0.9, size=4.0):
    return Detection(BBox(float(cx), float(cy), size, size), conf, frame, emb)


def id_only_config(**kwargs):
    return TrackerConfig(weights=AffinityWeights(0.5, 0.5), **kwargs)


def iou_only_config(**kwargs):
    return TrackerConfig(weights=AffinityWeights(1.0, 0.0), **kwargs)


def test_first_detection_starts_a_trajectory():
    tracker = Tracker(iou_only_config())
    outputs = tracker.step([det(10, 10, 1)])
    assert len(outputs) == 1
    assert outputs[0].frame == 1
    assert outputs[0].track_id == 1
    assert outputs[0].box == BBox(10.0, 10.0, 4.0, 4.0)
    assert not outputs[0].interpolated
    assert len(tracker.active) == 1


def test_continuing_detection_keeps_its_id():
    tracker = Tracker(iou_only_config())
    tracker.step([det(10, 10, 1)])
    outputs = tracker.step([det(11, 10, 2)])
    assert [o.track_id for o in outputs if not o.interpolated] == [1]


def test_far_detection_gets_a_new_id():
    tracker = Tracker(iou_only_config(motion_propagate_frames=0))
    tracker.step([det(10, 10, 1)])
    outputs = tracker.step([det(200, 200, 2)])
    assert [o.track_id for o in outputs if not o.interpolated] == [2]


def test_buffer_recovery_restores_the_id():
    # The object vanishes for two frames and reappears somewhere IoU cannot
    # reach; only the identity-only buffer stage can reclaim it.
    tracker = Tracker(id_only_config(motion_propagate_frames=0))
    tracker.step([det(10, 10, 1, EA)])
    tracker.step([], frame=2)
    tracker.step([], frame=3)
    outputs = tracker.step([det(400, 400, 4, EA)])
    assert [o.track_id for o in outputs] == [1]
    assert len(tracker.active) == 1
    assert not tracker.paused


def test_no_recovery_without_identity_weight():
    tracker = Tracker(iou_only_config(motion_propagate_frames=0))
    tracker.step([det(10, 10, 1, EA)])
    tracker.step([], frame=2)
    tracker.step([], frame=3)
    outputs = tracker.step([det(400, 400, 4, EA)])
    assert [o.track_id for o in outputs] == [2]


def test_recent_buffer_level_wins():
    # Two paused trajectories could both take the detection; the one unseen
    # for fewer frames gets first pick.
    tracker = Tracker(id_only_config(motion_propagate_frames=0))
    tracker.step([det(10, 10, 1, EA)])
    tracker.step([det(300, 300, 2, EB)])  # cosine 0 to EA: becomes id 2
    tracker.step([], frame=3)
    outputs = tracker.step([det(600, 600, 4, EMIX)])
    assert [o.track_id for o in outputs] == [2]


def test_retirement_after_buffer_expires():
    tracker = Tracker(id_only_config(motion_propagate_frames=0, buffer_size=3))
    tracker.step([det(10, 10, 1, EA)])
    for f in (2, 3, 4):
        tracker.step([], frame=f)
    outputs = tracker.step([det(10, 10, 5, EA)])
    assert [o.track_id for o in outputs] == [2]
    assert tracker.paused == []


def test_recovery_at_the_buffer_boundary():
    tracker = Tracker(id_only_config(motion_propagate_frames=0, buffer_size=3))
    tracker.step([det(10, 10, 1, EA)])
    tracker.step([], frame=2)
    tracker.step([], frame=3)
    outputs = tracker.step([det(10, 10, 4, EA)])  # unseen for exactly buffer_size
    assert [o.track_id for o in outputs] == [1]


def test_propagation_emits_interpolated_heads():
    tracker = Tracker(iou_only_config(motion_propagate_frames=2))
    tracker.step([det(10, 10, 1)])
    tracker.step([det(12, 10, 2)])  # velocity settles at (1, 0)
    out3 = tracker.step([], frame=3)
    assert len(out3) == 1 and out3[0].interpolated
    assert out3[0].box == BBox(13.0, 10.0, 4.0, 4.0)
    out4 = tracker.step([], frame=4)
    assert out4[0].box == BBox(14.0, 10.0, 4.0, 4.0)
    out5 = tracker.step([], frame=5)  # exceeded the propagation budget
    assert out5 == []
    assert len(tracker.paused) == 1


def test_coasting_trajectory_still_matches_by_iou():
    tracker = Tracker(iou_only_config(motion_propagate_frames=3))
    tracker.step([det(10, 10, 1, size=10.0)])
    tracker.step([det(14, 10, 2, size=10.0)])
    tracker.step([], frame=3)  # coasts to (16, 10)
    outputs = tracker.step([det(18, 10, 4, size=10.0)])
    assert [o.track_id for o in outputs] == [1]
    assert not outputs[0].interpolated


def test_external_prediction_replaces_linear_coasting():
    # predictions[j] is detection j's box in the next frame; the trajectory
    # that takes detection 1 coasts on it when it misses frame 2.
    tracker = Tracker(iou_only_config(motion_propagate_frames=2))
    tracker.step([det(100, 100, 1), det(10, 10, 1)], predictions=[None, BBox(50.0, 50.0, 4.0, 4.0)])
    outputs = tracker.step([det(100, 100, 2)])
    assert [(o.track_id, o.box, o.interpolated) for o in outputs] == [
        (1, BBox(100.0, 100.0, 4.0, 4.0), False),
        (2, BBox(50.0, 50.0, 4.0, 4.0), True),
    ]
    # The predicted head is what the next frame's IoU sees.
    outputs = tracker.step([det(50, 50, 3)])
    assert [(o.track_id, o.interpolated) for o in outputs] == [(2, False), (1, True)]


def test_prediction_is_only_for_the_next_frame():
    tracker = Tracker(iou_only_config(motion_propagate_frames=2))
    tracker.step([det(10, 10, 1)], predictions=[BBox(50.0, 50.0, 4.0, 4.0)])
    outputs = tracker.step([], frame=3)  # frame 2 was skipped: linear (still) head
    assert [(o.box, o.interpolated) for o in outputs] == [(BBox(10.0, 10.0, 4.0, 4.0), True)]


def test_prediction_length_mismatch_rejected():
    tracker = Tracker(iou_only_config())
    tracker.step([det(10, 10, 1)])
    with pytest.raises(ValueError, match="1 predictions for 2 detections"):
        tracker.step([det(10, 10, 2), det(50, 50, 2)], predictions=[None])
    with pytest.raises(ValueError, match="1 predictions for 0 detections"):
        tracker.step([], frame=2, predictions=[None])
    assert tracker.current_frame == 1


def test_missing_embedding_rejected_before_any_state_changes():
    tracker = Tracker(id_only_config(motion_propagate_frames=1))
    tracker.step([det(10, 10, 1, EA), det(300, 300, 1, EB)])
    tracker.step([det(10, 10, 2, EA)])  # id 2 coasts
    tracker.step([det(10, 10, 3, EA)])  # id 2 pauses
    before = (list(tracker.active), list(tracker.paused), tracker.next_id, tracker.current_frame)
    assert before[0] and before[1]
    # Frame 20 would retire both trajectories if the step got that far.
    with pytest.raises(ValueError, match="detection 1 has no embedding"):
        tracker.step([det(10, 10, 20, EA), det(50, 50, 20)])
    assert (tracker.active, tracker.paused, tracker.next_id, tracker.current_frame) == before


def test_frames_must_advance():
    tracker = Tracker(iou_only_config())
    tracker.step([det(10, 10, 1)])
    with pytest.raises(ValueError):
        tracker.step([det(10, 10, 1)])
    with pytest.raises(ValueError):
        tracker.step([], frame=0)


def test_empty_step_without_frame_advances_one_frame():
    tracker = Tracker(iou_only_config(motion_propagate_frames=2))
    tracker.step([det(10, 10, 1)])
    tracker.step([det(12, 10, 2)])
    outputs = tracker.step([])
    assert tracker.current_frame == 3
    assert [(o.frame, o.box) for o in outputs] == [(3, BBox(13.0, 10.0, 4.0, 4.0))]


def test_mixed_frame_detections_rejected():
    tracker = Tracker(iou_only_config())
    with pytest.raises(ValueError):
        tracker.step([det(10, 10, 1), det(20, 20, 2)], frame=1)


def test_update_trajectory_momentum_extremes():
    traj = Trajectory(1, BBox(10.0, 10.0, 4.0, 4.0), EA, (0.0, 0.0), last_seen=1)
    fresh = det(14, 10, 2, EB)
    snap = update_trajectory(traj, fresh, momentum=0.0)
    assert np.array_equal(snap.head_embedding, EB)
    assert snap.avg_velocity == (4.0, 0.0)
    assert snap.last_seen == 2 and snap.head_frame == 2
    sticky = update_trajectory(traj, fresh, momentum=1.0)
    assert np.array_equal(sticky.head_embedding, EA)
    assert sticky.avg_velocity == (0.0, 0.0)
    assert sticky.head_box == fresh.box  # the box always follows the detection


def test_update_trajectory_blends_and_renormalizes():
    traj = Trajectory(1, BBox(10.0, 10.0, 4.0, 4.0), EA, (0.0, 0.0), last_seen=1)
    updated = update_trajectory(traj, det(10, 10, 2, EB), momentum=0.5)
    assert np.allclose(updated.head_embedding, EMIX, atol=1e-12)
    assert abs(np.linalg.norm(updated.head_embedding) - 1.0) < 1e-12


def test_update_trajectory_opposite_embeddings_take_the_fresh_one():
    traj = Trajectory(1, BBox(10.0, 10.0, 4.0, 4.0), EA, (0.0, 0.0), last_seen=1)
    flipped = det(10, 10, 2, -EA)
    updated = update_trajectory(traj, flipped, momentum=0.5)
    assert np.array_equal(updated.head_embedding, -EA)


def test_update_trajectory_velocity_spreads_over_the_gap():
    traj = Trajectory(1, BBox(10.0, 10.0, 4.0, 4.0), None, (0.0, 0.0), last_seen=1)
    updated = update_trajectory(traj, det(22, 10, 4), momentum=0.5)
    # Displacement 12 over 3 frames -> 4 per frame, halved by momentum.
    assert updated.avg_velocity == (2.0, 0.0)


def test_update_trajectory_rejects_regression():
    traj = Trajectory(1, BBox(10.0, 10.0, 4.0, 4.0), None, (0.0, 0.0), last_seen=5)
    with pytest.raises(ValueError):
        update_trajectory(traj, det(10, 10, 3), momentum=0.5)


def test_propagate_linear_is_additive():
    traj = Trajectory(1, BBox(10.0, 10.0, 4.0, 4.0), None, (1.5, -0.5), last_seen=1)
    two = propagate_linear(traj, steps=2)
    assert two == BBox(13.0, 9.0, 4.0, 4.0)
    assert propagate_linear(traj, steps=0) == traj.head_box


def test_track_ids_are_one_based_and_fresh():
    tracker = Tracker(iou_only_config(motion_propagate_frames=0, buffer_size=1))
    tracker.step([det(10, 10, 1), det(100, 100, 1)])
    assert sorted(t.track_id for t in tracker.active) == [1, 2]
    tracker.step([det(400, 400, 2)])
    assert tracker.next_id == 4


def test_stream_confidence_filter_and_nms():
    dets = {
        1: [
            det(10, 10, 1, conf=0.9),
            det(10.5, 10, 1, conf=0.8),  # suppressed: heavy overlap, lower score
            det(100, 100, 1, conf=0.3),  # below det_threshold
            det(50, 50, 1, conf=0.7),
        ]
    }
    outputs = track_stream(dets, iou_only_config())
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
    assert track_stream({}, iou_only_config()) == []


def test_stream_predictions_take_over_when_detections_vanish():
    dets = {
        1: [det(10, 10, 1)],
        2: [],
        3: [det(50, 50, 3)],
    }
    predictions = {(1, 0): BBox(50.0, 50.0, 4.0, 4.0)}
    with_pred = track_stream(dets, iou_only_config(), predictions)
    ids = {o.frame: o.track_id for o in with_pred}
    assert ids[3] == ids[1], "prediction should carry the identity across the gap"
    coasted = [o for o in with_pred if o.interpolated]
    assert len(coasted) == 1 and coasted[0].box == BBox(50.0, 50.0, 4.0, 4.0)

    without = track_stream(dets, iou_only_config())
    ids = {o.frame: o.track_id for o in without if not o.interpolated}
    assert ids[3] != ids[1]


def test_stream_prediction_follows_a_buffer_recovery():
    # The trajectory coasts one frame, pauses, is recovered from the buffer
    # by identity at frame 4, and the next frame's coasting head is the
    # prediction keyed by the recovering detection's raw index.
    dets = {
        1: [det(10, 10, 1, EA)],
        4: [det(300, 300, 4, EB, conf=0.1), det(400, 400, 4, EA)],
        5: [],
    }
    predictions = {(4, 1): BBox(420.0, 400.0, 4.0, 4.0)}
    outputs = track_stream(dets, id_only_config(motion_propagate_frames=1), predictions)
    by_frame = {f: [(o.track_id, o.box, o.interpolated) for o in outputs if o.frame == f] for f in range(1, 6)}
    assert by_frame[2] == [(1, BBox(10.0, 10.0, 4.0, 4.0), True)]
    assert by_frame[3] == []
    assert by_frame[4] == [(1, BBox(400.0, 400.0, 4.0, 4.0), False)]
    assert by_frame[5] == [(1, BBox(420.0, 400.0, 4.0, 4.0), True)]


def test_identity_weight_zero_ignores_embeddings():
    _, dets = generate(SimConfig(seed=41, num_identities=6, frames=40, occlusion_events=2))
    stripped = {
        f: [Detection(d.box, d.confidence, d.frame) for d in v] for f, v in dets.items()
    }
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
    with pytest.raises(ValueError):
        Trajectory(0, BBox(0, 0, 1, 1), None, (0.0, 0.0), last_seen=1)


@st.composite
def scenes_with_predictions(draw):
    """A small seeded scene, a tracker config that coasts and retires within
    it, and predicted next-frame boxes for a random subset of detections."""
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
    predictions = {}
    for frame, frame_dets in dets.items():
        for i, d in enumerate(frame_dets):
            if rng.random() < 0.7:
                dx, dy = rng.normal(0.0, 8.0, size=2)
                predictions[(frame, i)] = BBox(d.box.cx + dx, d.box.cy + dy, d.box.w, d.box.h)
    return dets, tracker_config, predictions


property_settings = settings(max_examples=40, deadline=None, derandomize=True)


@property_settings
@given(scenes_with_predictions())
def test_property_frame_id_pairs_are_unique(scene):
    dets, config, predictions = scene
    seen = [(o.frame, o.track_id) for o in track_stream(dets, config, predictions)]
    assert len(seen) == len(set(seen))


@property_settings
@given(scenes_with_predictions())
def test_property_retired_ids_never_reappear(scene):
    # An id is retired once it has gone more than buffer_size frames without
    # a detection. Ids are handed out in birth order and every id starts
    # with a detection, so a retired id can only come back as a late output.
    dets, config, predictions = scene
    outputs = track_stream(dets, config, predictions)
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
def test_property_empty_predictions_are_no_predictions(scene):
    dets, config, _ = scene
    assert track_stream(dets, config, {}) == track_stream(dets, config)


@property_settings
@given(scenes_with_predictions())
def test_property_coasting_head_is_the_taken_detections_prediction(scene):
    dets, config, predictions = scene
    outputs = track_stream(dets, config, predictions)
    real = {(o.frame, o.track_id): o for o in outputs if not o.interpolated}
    for o in outputs:
        prev = real.get((o.frame - 1, o.track_id))
        if not o.interpolated or prev is None:
            continue
        taken = [i for i, d in enumerate(dets[o.frame - 1]) if d.box == prev.box]
        assert len(taken) == 1
        expected = predictions.get((o.frame - 1, taken[0]))
        if expected is not None:
            assert o.box == expected

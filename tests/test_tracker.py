from dataclasses import fields, replace

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
    TrackOutput,
    hypotheses,
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


def state(traj):
    """A trajectory's field values, embedding as bytes: trajectories are
    updated in place, so a snapshot has to copy the values."""
    values = (getattr(traj, f.name) for f in fields(traj))
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values)


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


def test_hypotheses_skip_interpolated_outputs_and_keep_order():
    a, b, c = BBox(10.0, 10.0, 4.0, 4.0), BBox(20.0, 10.0, 4.0, 4.0), BBox(30.0, 10.0, 4.0, 4.0)
    outputs = [
        TrackOutput(2, 3, a, 0.9),
        TrackOutput(1, 2, b, 0.8),
        TrackOutput(2, 1, b, 0.7, interpolated=True),
        TrackOutput(2, 2, c, 0.6),
        TrackOutput(3, 1, c, 0.5, interpolated=True),
    ]
    hyp = hypotheses(outputs)
    assert hyp == {2: [(3, a), (2, c)], 1: [(2, b)]}
    assert list(hyp) == [2, 1]  # frames in order of first output
    assert hypotheses([]) == {}


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
        with pytest.raises(ValueError, match="detection 1 has no embedding"):
            tracker.step([det(10, 10, frame, EA), det(50, 50, frame)])
        assert snapshot() == before


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


def update_one(traj, d, momentum, predicted_box=None):
    """Reference update of one pair: returns an updated copy, leaves ``traj``
    alone, and works one embedding at a time with ``np.linalg.norm``."""
    if d.frame < traj.head_frame:
        raise ValueError(f"detection frame {d.frame} is behind trajectory head frame {traj.head_frame}")
    gap = max(d.frame - traj.head_frame, 1)
    disp = ((d.box.cx - traj.head_box.cx) / gap, (d.box.cy - traj.head_box.cy) / gap)
    velocity = (
        momentum * traj.avg_velocity[0] + (1.0 - momentum) * disp[0],
        momentum * traj.avg_velocity[1] + (1.0 - momentum) * disp[1],
    )
    embedding = traj.head_embedding
    if d.embedding is not None:
        if embedding is None:
            embedding = d.embedding
        else:
            mixed = momentum * embedding + (1.0 - momentum) * d.embedding
            norm = float(np.linalg.norm(mixed))
            embedding = d.embedding if norm < 1e-12 else mixed / norm
    return replace(
        traj,
        head_box=d.box,
        head_embedding=embedding,
        avg_velocity=velocity,
        last_seen=d.frame,
        head_frame=d.frame,
        last_confidence=d.confidence,
        predicted_box=predicted_box,
    )


def start_traj(embedding=EA, last_seen=1):
    return Trajectory(1, BBox(10.0, 10.0, 4.0, 4.0), embedding, (0.0, 0.0), last_seen=last_seen)


def test_update_trajectory_momentum_extremes():
    fresh = det(14, 10, 2, EB)
    snap = start_traj()
    update_trajectory([snap], [fresh], 0.0, [None])
    assert np.array_equal(snap.head_embedding, EB)
    assert snap.avg_velocity == (4.0, 0.0)
    assert snap.last_seen == 2 and snap.head_frame == 2
    sticky = start_traj()
    update_trajectory([sticky], [fresh], 1.0, [None])
    assert np.array_equal(sticky.head_embedding, EA)
    assert sticky.avg_velocity == (0.0, 0.0)
    assert sticky.head_box == fresh.box  # the box always follows the detection


def test_update_trajectory_blends_and_renormalizes():
    traj = start_traj()
    update_trajectory([traj], [det(10, 10, 2, EB)], 0.5, [None])
    assert np.allclose(traj.head_embedding, EMIX, atol=1e-12)
    assert abs(np.linalg.norm(traj.head_embedding) - 1.0) < 1e-12


def test_update_trajectory_opposite_embeddings_take_the_fresh_one():
    # The cancelling pair sits between two that blend normally.
    trajs = [start_traj(EA), start_traj(EA), start_traj(EB)]
    dets = [det(10, 10, 2, EB), det(10, 10, 2, -EA), det(10, 10, 2, EA)]
    update_trajectory(trajs, dets, 0.5, [None] * 3)
    assert np.array_equal(trajs[1].head_embedding, -EA)
    assert np.allclose(trajs[0].head_embedding, EMIX, atol=1e-12)
    assert np.allclose(trajs[2].head_embedding, EMIX, atol=1e-12)


def test_update_trajectory_velocity_spreads_over_the_gap():
    traj = start_traj(None)
    update_trajectory([traj], [det(22, 10, 4)], 0.5, [None])
    # Displacement 12 over 3 frames -> 4 per frame, halved by momentum.
    assert traj.avg_velocity == (2.0, 0.0)


def test_update_trajectory_rejects_regression():
    traj = start_traj(None, last_seen=5)
    with pytest.raises(ValueError):
        update_trajectory([traj], [det(10, 10, 3)], 0.5, [None])


def test_update_trajectory_rejects_a_batch_without_changing_any_trajectory():
    trajs = [start_traj(EA, last_seen=2), start_traj(EB, last_seen=2), start_traj(None, last_seen=5)]
    before = [state(t) for t in trajs]
    dets = [det(12, 10, 4, EB), det(8, 10, 4, EA), det(10, 10, 4, EA)]  # the last one goes back in time
    with pytest.raises(ValueError, match="detection frame 4 is behind trajectory head frame 5"):
        update_trajectory(trajs, dets, 0.5, [BBox(1.0, 1.0, 1.0, 1.0)] * 3)
    assert [state(t) for t in trajs] == before


@st.composite
def update_batches(draw):
    """Distinct trajectories with matched detections: missing, opposite,
    equal and random embeddings, gaps of 0-3 frames and coasting heads."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from((3, 64)))  # 64 is the simulator's default
    momentum = draw(st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0)))
    trajs, dets, preds = [], [], []
    for k in range(draw(st.integers(0, 8))):
        last_seen = int(rng.integers(1, 6))
        head_frame = last_seen + int(rng.integers(0, 3))
        emb = None if rng.random() < 0.2 else unit(rng.normal(size=dim))
        box = BBox(*rng.uniform(0.0, 100.0, size=2), *rng.uniform(1.0, 30.0, size=2))
        trajs.append(Trajectory(k + 1, box, emb, tuple(rng.normal(0.0, 3.0, size=2)), last_seen, head_frame))
        kind = draw(st.sampled_from(("none", "opposite", "same", "random")))
        fresh = {
            "none": None,
            "opposite": None if emb is None else -emb,
            "same": emb,
            "random": unit(rng.normal(size=dim)),
        }[kind]
        frame = head_frame + int(rng.integers(0, 4))
        dbox = BBox(*rng.uniform(0.0, 100.0, size=2), *rng.uniform(1.0, 30.0, size=2))
        dets.append(Detection(dbox, float(rng.uniform(0.0, 1.0)), frame, fresh))
        preds.append(None if rng.random() < 0.5 else BBox(*rng.uniform(1.0, 50.0, size=4)))
    return trajs, dets, momentum, preds


@settings(max_examples=300, deadline=None, derandomize=True)
@given(update_batches())
def test_property_batched_update_equals_the_reference_bit_for_bit(batch):
    trajs, dets, momentum, preds = batch
    want = [update_one(t, d, momentum, p) for t, d, p in zip(trajs, dets, preds)]
    update_trajectory(trajs, dets, momentum, preds)
    assert [state(t) for t in trajs] == [state(t) for t in want]  # embeddings compared as bytes


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

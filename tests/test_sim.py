import itertools
import json
import math
import re
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import batch_bits, by_frame, detection_stream, detections
from idtrack import sim
from idtrack.affinity import AffinityWeights
from idtrack.geometry import BOX_LIMIT, MIN_SIDE, BBox, Detections, DetectionStream, IdStream, _good_boxes
from idtrack.sim import SimConfig, benchmark_config, config_from_mapping, generate, subsample
from idtrack.tracker import TrackerConfig, track_stream


def _reference_unit(vec):
    return vec / np.linalg.norm(vec)


def _reference_bounce(p, v, lo, hi):
    if hi <= lo:
        return lo, v
    while p < lo or p > hi:
        if p < lo:
            p, v = 2.0 * lo - p, -v
        else:
            p, v = 2.0 * hi - p, -v
    return p, v


def reference_generate(config):
    """The earlier ``generate``, kept as the oracle for the draw order.

    It builds every source frame's objects with numpy-scalar motion state,
    packs the ground truth's ``(id, BBox)`` lists into one stream and
    subsamples afterwards; ``generate`` must return the same scene bit for bit.
    """
    rng = np.random.Generator(np.random.Philox(config.seed))
    n = config.num_identities
    width, height = config.arena

    protos = np.empty((n, config.embedding_dim))
    sizes = np.empty((n, 2))
    pos = np.empty((n, 2))
    vel = np.empty((n, 2))
    for i in range(n):
        protos[i] = _reference_unit(rng.normal(size=config.embedding_dim))
        w = rng.uniform(*config.box_size_range)
        h = rng.uniform(*config.box_size_range)
        sizes[i] = (w, h)
        pos[i] = (rng.uniform(w / 2, width - w / 2), rng.uniform(h / 2, height - h / 2))
        speed = rng.uniform(*config.speed_range)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        vel[i] = (speed * math.cos(angle), speed * math.sin(angle))

    occluded = np.zeros((n, config.frames + 1), dtype=bool)
    for _ in range(config.occlusion_events):
        who = int(rng.integers(0, n))
        start = int(rng.integers(1, config.frames + 1))
        dur = int(rng.integers(config.occlusion_duration[0], config.occlusion_duration[1] + 1))
        occluded[who, start:min(start + dur, config.frames + 1)] = True

    gt = {}
    dets = {}
    for t in range(1, config.frames + 1):
        gt_frame = []
        det_frame = []
        for i in range(n):
            if rng.random() < config.turn_prob:
                speed = math.hypot(*vel[i])
                angle = rng.uniform(0.0, 2.0 * math.pi)
                vel[i] = (speed * math.cos(angle), speed * math.sin(angle))
            w, h = sizes[i]
            pos[i, 0] += vel[i, 0]
            pos[i, 1] += vel[i, 1]
            pos[i, 0], vel[i, 0] = _reference_bounce(pos[i, 0], vel[i, 0], w / 2, width - w / 2)
            pos[i, 1], vel[i, 1] = _reference_bounce(pos[i, 1], vel[i, 1], h / 2, height - h / 2)
            box = BBox(pos[i, 0], pos[i, 1], w, h)
            gt_frame.append((i + 1, box))

            if occluded[i, t]:
                continue
            if rng.random() < config.miss_rate:
                continue
            noisy = BBox(
                box.cx + config.center_noise * rng.normal(),
                box.cy + config.center_noise * rng.normal(),
                box.w * math.exp(config.size_noise * rng.normal()),
                box.h * math.exp(config.size_noise * rng.normal()),
            )
            conf = 0.55 + 0.44 * rng.random()
            emb = _reference_unit(protos[i] + config.embedding_noise * rng.normal(size=config.embedding_dim))
            det_frame.append((noisy, conf, emb))

        for _ in range(int(rng.poisson(config.fp_rate))):
            w = rng.uniform(*config.box_size_range)
            h = rng.uniform(*config.box_size_range)
            fp_box = BBox(
                rng.uniform(w / 2, width - w / 2),
                rng.uniform(h / 2, height - h / 2),
                w,
                h,
            )
            conf = 0.05 + 0.5 * rng.random()
            emb = _reference_unit(rng.normal(size=config.embedding_dim))
            det_frame.append((fp_box, conf, emb))

        gt[t] = gt_frame
        dets[t] = detections(det_frame)

    gt, dets = IdStream.pack(gt), detection_stream(dets)
    if config.frame_stride > 1:
        gt = subsample(gt, config.frame_stride)
        dets = subsample(dets, config.frame_stride)
    return gt, dets


def scene_bits(gt, dets):
    """A scene as raw bytes, so that equality is bit for bit (0.0 != -0.0):
    each column of both streams with its dtype and shape (a stream without
    detections holds no embeddings), and the detections' last frame."""
    rows = dets.rows
    columns = (gt.frames, gt.ids, gt.boxes, gt.confidence, dets.frames, rows.boxes, rows.confidence,
               rows.embeddings if len(rows) else None)
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in columns], dets.last


@st.composite
def sim_configs(draw):
    """Small scenes over the whole draw-order surface: strides 1-12, no or
    heavy misses, false positives and turns, occlusions, embedding dims 2-64."""
    width = draw(st.floats(120.0, 800.0))
    height = draw(st.floats(120.0, 600.0))
    size_lo = draw(st.floats(5.0, 60.0))
    size_hi = size_lo + draw(st.floats(0.0, 50.0))
    room = min(width, height) - size_hi  # SimConfig keeps speeds below it
    speed_lo = draw(st.floats(0.0, min(20.0, room), exclude_max=True))
    speed_hi = draw(st.floats(speed_lo, min(speed_lo + 30.0, room), exclude_max=True))
    occl_lo = draw(st.integers(1, 10))
    return SimConfig(
        seed=draw(st.integers(0, 2**63)),
        num_identities=draw(st.integers(1, 6)),
        frames=draw(st.integers(1, 60)),
        arena=(width, height),
        speed_range=(speed_lo, speed_hi),
        box_size_range=(size_lo, size_hi),
        center_noise=draw(st.sampled_from([0.0, 1.0, 8.0])),
        size_noise=draw(st.sampled_from([0.0, 0.03, 0.3])),
        miss_rate=draw(st.sampled_from([0.0, 0.05, 0.8, 1.0])),
        fp_rate=draw(st.sampled_from([0.0, 0.3, 4.0])),
        occlusion_events=draw(st.integers(0, 8)),
        occlusion_duration=(occl_lo, occl_lo + draw(st.integers(0, 20))),
        embedding_dim=draw(st.integers(2, 64)),
        embedding_noise=draw(st.sampled_from([0.0, 0.15, 3.0])),
        frame_stride=draw(st.integers(1, 12)),
        turn_prob=draw(st.sampled_from([0.0, 0.02, 0.5, 1.0])),
    )


def _dropped_frame_scene(stride):
    """A scene whose dropped frames turn, bounce, occlude, miss, draw
    detections and draw false positives, whatever hypothesis draws."""
    return SimConfig(seed=stride, num_identities=4, frames=60, arena=(300.0, 200.0), speed_range=(20.0, 40.0),
                     box_size_range=(20.0, 40.0), miss_rate=0.05, fp_rate=4.0, occlusion_events=4,
                     occlusion_duration=(5, 20), embedding_dim=8, frame_stride=stride, turn_prob=1.0)


@settings(max_examples=200)
@given(sim_configs())
@example(_dropped_frame_scene(10))
@example(_dropped_frame_scene(12))
def test_generate_matches_the_reference_bit_for_bit(cfg):
    assert scene_bits(*generate(cfg)) == scene_bits(*reference_generate(cfg))


def test_generate_matches_the_reference_on_the_stock_scene_at_stride_10():
    cfg = replace(benchmark_config(seed=7), frames=200, frame_stride=10)
    assert scene_bits(*generate(cfg)) == scene_bits(*reference_generate(cfg))


def test_same_seed_reproduces_bit_for_bit():
    cfg = SimConfig(seed=11, num_identities=5, frames=40, occlusion_events=2, fp_rate=0.5)
    assert scene_bits(*generate(cfg)) == scene_bits(*generate(cfg))


def test_different_seeds_differ():
    cfg = SimConfig(seed=1, num_identities=5, frames=10)
    other = SimConfig(seed=2, num_identities=5, frames=10)
    assert generate(cfg)[0].boxes.tobytes() != generate(other)[0].boxes.tobytes()


def test_zero_noise_detections_equal_ground_truth():
    cfg = SimConfig(
        seed=5,
        num_identities=4,
        frames=30,
        center_noise=0.0,
        size_noise=0.0,
        miss_rate=0.0,
        fp_rate=0.0,
        embedding_noise=0.0,
    )
    gt, dets = generate(cfg)
    for f, rows in by_frame(gt).items():
        assert len(dets[f]) == len(rows) == 4
        for (gid, gbox, _), det in zip(rows, dets[f]):
            assert det.box == gbox
            assert 0.55 <= det.confidence <= 0.99
            assert det.prediction is None


def test_boxes_stay_inside_the_arena():
    cfg = SimConfig(seed=9, num_identities=8, frames=200, arena=(300.0, 200.0), speed_range=(3.0, 8.0))
    gt, _ = generate(cfg)
    cx, cy, w, h = gt.boxes.T
    assert (cx - w / 2 >= -1e-9).all() and (cx + w / 2 <= 300.0 + 1e-9).all()
    assert (cy - h / 2 >= -1e-9).all() and (cy + h / 2 <= 200.0 + 1e-9).all()


def test_every_identity_present_every_frame():
    cfg = SimConfig(seed=13, num_identities=6, frames=25)
    gt, _ = generate(cfg)
    assert gt.frames.tolist() == [f for f in range(1, 26) for _ in range(6)]
    assert gt.ids.tolist() == [1, 2, 3, 4, 5, 6] * 25 and gt.confidence.tolist() == [1.0] * 150


def test_occlusions_suppress_detections():
    base = SimConfig(seed=21, num_identities=6, frames=80, miss_rate=0.0, fp_rate=0.0)
    occluded = SimConfig(
        seed=21, num_identities=6, frames=80, miss_rate=0.0, fp_rate=0.0,
        occlusion_events=6, occlusion_duration=(10, 20),
    )
    n_base = sum(len(v) for v in generate(base)[1].values())
    n_occl = sum(len(v) for v in generate(occluded)[1].values())
    assert n_occl < n_base


def test_stride_arithmetic():
    cfg = SimConfig(seed=3, num_identities=3, frames=250, frame_stride=10)
    gt, dets = generate(cfg)
    assert np.unique(gt.frames).tolist() == list(range(1, 26))
    assert sorted(dets) == list(range(1, 26))


@settings(max_examples=100)
@given(sim_configs(), st.integers(1, 12))
def test_stride_equals_subsampled_full_run(cfg, stride):
    gt_dense, dets_dense = generate(replace(cfg, frame_stride=1))
    strided = generate(replace(cfg, frame_stride=stride))
    assert scene_bits(*strided) == scene_bits(subsample(gt_dense, stride), subsample(dets_dense, stride))


class ZeroingGenerator(np.random.Generator):
    """Philox draws in which every ``standard_normal`` draw's even-numbered
    values are exactly ``zero``: a box's centre x and width noise, and every
    other value of an embedding's noise."""

    zero = 0.0

    def standard_normal(self, *args, **kwargs):
        draws = super().standard_normal(*args, **kwargs)
        draws[..., ::2] = self.zero
        return draws


@pytest.mark.parametrize("stride", [1, 3])
def test_a_negative_zero_draw_changes_no_bit(monkeypatch, stride):
    # generate draws box and identity embedding noise with standard_normal,
    # which keeps the sign of a zero that normal would turn into +0.0; a
    # -0.0 draw must give the bytes that a +0.0 draw gives.
    cfg = SimConfig(seed=3, num_identities=5, frames=30, center_noise=2.0, fp_rate=1.0, frame_stride=stride)
    scenes = []
    for zero in (0.0, -0.0):
        monkeypatch.setattr(np.random, "Generator", type("Zeroing", (ZeroingGenerator,), {"zero": zero}))
        gt, dets = generate(cfg)
        seen = 0
        for frame, batch in dets.items():  # the zeros reached the box noise: each x and w is a true one
            rows = batch.boxes[batch.confidence >= 0.55][:, [0, 2]]  # false positives score below 0.55
            assert set(map(tuple, rows.tolist())) <= set(map(tuple, gt.boxes[gt.frames == frame][:, [0, 2]].tolist()))
            seen += len(rows)
        assert seen > 0
        scenes.append(scene_bits(gt, dets))
    assert scenes[0] == scenes[1]


def test_subsample_drops_and_reindexes():
    cfg = SimConfig(seed=1, num_identities=2, frames=10)
    gt, dets = generate(cfg)
    thin = subsample(gt, 3)
    assert thin.frames.tolist() == [1, 1, 2, 2, 3, 3, 4, 4]  # original frames 1, 4, 7, 10
    assert thin.ids.tolist() == [1, 2] * 4 and thin.confidence.tolist() == [1.0] * 8
    assert thin.boxes[thin.frames == 2].tolist() == gt.boxes[gt.frames == 4].tolist()
    assert thin.boxes[thin.frames == 4].tolist() == gt.boxes[gt.frames == 10].tolist()
    # A stream keeps its kept rows in their order, frames below 1 dropped.
    box = [[5.0, 5.0, 2.0, 2.0]]
    mixed = subsample(IdStream([7, 1, 0, 4, -2, 10, 6], [1, 2, 3, 4, 5, 6, 7], box * 7, [1, 2, 3, 4, 5, 6, 7],
                               [True, False, True, False, True, True, False]), 3)
    assert mixed.frames.tolist() == [3, 1, 2, 4] and mixed.ids.tolist() == [1, 2, 4, 6]
    assert mixed.confidence.tolist() == [1.0, 2.0, 4.0, 6.0] and mixed.boxes.tolist() == box * 4
    assert mixed.interpolated.tolist() == [True, False, False, True]  # each kept row keeps its mask
    assert not thin.interpolated.any()
    # Of a detection stream the same mask keeps the kept frames' rows, in order.
    thin_dets = subsample(dets, 3)
    assert thin_dets.frames.tolist() == np.repeat([1, 2, 3, 4], [len(dets[f]) for f in (1, 4, 7, 10)]).tolist()
    assert thin_dets.last == 4 and batch_bits(thin_dets[3]) == batch_bits(dets[7])


def test_subsample_steps_the_last_kept_frame_even_without_rows():
    # Source frames 1 and 3 are kept at stride 2 and frame 3 holds no rows:
    # the stream still ends there, and the tracker coasts to it.
    box = BBox(10.0, 10.0, 4.0, 4.0)
    thin = subsample(detection_stream({1: [(box, 0.9)], 2: [(box, 0.8)], 4: [(box, 0.7)]}), 2)
    assert (thin.frames.tolist(), thin.last, len(thin[2])) == ([1], 2, 0)
    outputs = track_stream(thin, TrackerConfig(weights=AffinityWeights(1.0, 0.0)))
    assert [(o.frame, o.track_id, o.box, o.interpolated) for o in outputs] == [(1, 1, box, False), (2, 1, box, True)]
    assert subsample(outputs, 1) == outputs and subsample(outputs, 2) == [outputs[0]]  # an output stream keeps its mask


def test_subsample_grows_with_the_rows_it_is_given():
    # Frames far apart cost nothing per kept frame in between. A range over
    # the largest frame built 10**6 entries here, in about 0.7 s.
    box = BBox(10.0, 10.0, 4.0, 4.0)
    dets = detection_stream({1: [(box, 0.9)], 2 * 10**6 + 1: [(box, 0.8)]})
    start = time.perf_counter()
    thin = subsample(dets, 2)
    assert time.perf_counter() - start < 0.5
    assert (thin.frames.tolist(), thin.last, thin.rows.confidence.tolist()) == ([1, 10**6 + 1], 10**6 + 1, [0.9, 0.8])


def test_subsample_rejects_bad_stride():
    # 2.5 used to give ground truth float frames 1., 1., 3., 3., and a
    # detection stream an error that named no stride.
    box = BBox(10.0, 10.0, 4.0, 4.0)
    streams = IdStream([1, 2, 3, 4], [1] * 4, [[10.0, 10.0, 4.0, 4.0]] * 4), detection_stream({1: [(box, 0.9)]})
    for stream in streams:
        with pytest.raises(TypeError, match=r"^stride must be an integer, got 2\.5$"):
            subsample(stream, 2.5)
        for stride in (0, -1):
            with pytest.raises(ValueError, match=f"^stride must be >= 1, got {stride}$"):
                subsample(stream, stride)
    empty = subsample(detection_stream({}), 3)
    assert (len(empty.rows), empty.last, list(empty)) == (0, 0, [])


def test_embeddings_are_unit_norm_and_separated():
    # Noise level matches benchmark_config: the operating point the tracker
    # has to separate identities at.
    cfg = SimConfig(seed=23, num_identities=10, frames=40, embedding_noise=0.15, fp_rate=0.0, miss_rate=0.0)
    gt, dets = generate(cfg)
    by_id = {}
    for f in dets:
        ids = gt.ids[gt.frames == f].tolist()
        assert len(dets[f]) == len(ids)
        for gid, det in zip(ids, dets[f]):
            assert abs(np.linalg.norm(det.embedding) - 1.0) < 1e-9
            by_id.setdefault(gid, []).append(det.embedding)

    rng = np.random.default_rng(0)
    ids = sorted(by_id)
    same, cross = [], []
    for _ in range(10_000):
        i, j = rng.choice(ids, size=2, replace=False)
        e1, e2 = by_id[i][rng.integers(len(by_id[i]))], by_id[j][rng.integers(len(by_id[j]))]
        cross.append(float(e1 @ e2))
        k = int(rng.choice(ids))
        a, b = rng.integers(len(by_id[k]), size=2)
        same.append(float(by_id[k][a] @ by_id[k][b]))
    assert np.mean(same) > np.mean(cross) + 0.3


def test_benchmark_config_is_stable():
    cfg = benchmark_config()
    assert cfg.seed == 7
    assert cfg.num_identities == 32
    assert cfg.frames == 520
    assert cfg.occlusion_events > 0
    assert benchmark_config(seed=99).seed == 99


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(num_identities=0)
    with pytest.raises(ValueError):
        SimConfig(frame_stride=0)
    with pytest.raises(ValueError):
        SimConfig(box_size_range=(50.0, 20.0))
    with pytest.raises(ValueError):
        SimConfig(arena=(60.0, 60.0), box_size_range=(30.0, 70.0))
    with pytest.raises(ValueError):
        SimConfig(miss_rate=-0.1)
    with pytest.raises(ValueError):
        SimConfig(occlusion_duration=(0, 5))
    # Used to fail inside numpy's seeding with a message that named no key.
    with pytest.raises(ValueError, match=re.escape("seed must be >= 0, got -1")):
        SimConfig(seed=-1)


@pytest.mark.parametrize(
    "key, raw, message",
    [
        ("speed_range", "nan,nan", "speed_range must be finite"),
        ("arena", "inf,900", "arena must be finite"),
        ("box_size_range", "30,-inf", "box_size_range must be finite"),
        ("fp_rate", "inf", "fp_rate must be finite"),
        ("embedding_noise", "inf", "embedding_noise must be finite"),
        ("center_noise", "nan", "center_noise must be finite"),
        ("turn_prob", "nan", "turn_prob must be finite"),
        ("miss_rate", "nan", "miss_rate must be finite"),
        ("turn_prob", "5", "turn_prob must lie in [0, 1], got 5.0"),
        ("miss_rate", "1.5", "miss_rate must lie in [0, 1], got 1.5"),
        ("miss_rate", "-0.1", "miss_rate must lie in [0, 1], got -0.1"),
        ("num_identities", "0", "num_identities must be >= 1, got 0"),
        ("frames", "0", "frames must be >= 1, got 0"),
        ("frame_stride", "0", "frame_stride must be >= 1, got 0"),
        ("embedding_dim", "1", "embedding_dim must be >= 2, got 1"),
        ("speed_range", "3,2", "speed_range must satisfy 0 <= lo <= hi, got (3.0, 2.0)"),
        ("box_size_range", "50,20", "box_size_range must satisfy 0 <= lo <= hi, got (50.0, 20.0)"),
        ("arena", "60,60", "box_size_range must stay below min(arena) = 60, got (30.0, 70.0)"),
        ("occlusion_duration", "0,5", "occlusion_duration must satisfy 1 <= lo <= hi, got (0, 5)"),
        ("center_noise", "-1", "center_noise must be >= 0, got -1.0"),
        ("fp_rate", "-0.5", "fp_rate must be >= 0, got -0.5"),
        # Used to spin _bounce forever: two reflections move a position by
        # 2 * (hi - lo), which 1e300 absorbs.
        ("speed_range", "1e300,1e300", "speed_range must stay below min(arena) - box_size_range[1] = 650"),
        # Used to fail inside a draw with a message that named no key.
        ("fp_rate", "1e20", "fp_rate must be <= 1000, got 1e+20"),
        ("embedding_noise", "1e300", "embedding_noise must be <= 1e+06, got 1e+300"),
        ("size_noise", "1e300", "size_noise must be <= 0.3, got 1e+300"),
        ("center_noise", "1e308", "center_noise must be <= 1e+06, got 1e+308"),
        ("arena", "1e200,1e200", "arena must be <= 1e+06, got (1e+200, 1e+200)"),
        # Used to write boxes 0.000000 wide, which `track` then rejected.
        ("box_size_range", "1e-9,1e-8", "box_size_range must start at 1 or more, got (1e-09, 1e-08)"),
        ("box_size_range", "0.999,30", "box_size_range must start at 1 or more, got (0.999, 30.0)"),
        ("num_identities", "abc", "num_identities needs one int value, got 'abc'"),
        ("embedding_noise", "0.1.2", "embedding_noise needs one float value, got '0.1.2'"),
        ("arena", "800", "arena needs 2 comma-separated float values, got '800'"),
        ("occlusion_duration", "1.5,3", "occlusion_duration needs 2 comma-separated int values, got '1.5,3'"),
    ],
)
def test_config_rejects_non_finite_values_and_bad_probabilities(key, raw, message):
    values = {"seed": "0", "num_identities": "3", "frames": "20", key: raw}
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_mapping(values)


def test_config_keeps_speeds_below_the_free_width_of_the_arena():
    with pytest.raises(ValueError, match="speed_range"):
        SimConfig(arena=(1280.0, 720.0), box_size_range=(30.0, 70.0), speed_range=(1.0, 650.0))
    assert SimConfig(speed_range=(1.0, math.nextafter(650.0, 0.0))).speed_range[1] < 650.0


def _workload_config(name):
    workload = json.loads((Path(__file__).parents[1] / "perfbench" / "workloads.json").read_text())["workloads"][name]
    values = {k: ",".join(map(str, v)) if isinstance(v, list) else str(v) for k, v in workload["sim"].items()}
    return config_from_mapping(values)


def test_config_accepts_the_benchmark_workloads():
    workloads = json.loads((Path(__file__).parents[1] / "perfbench" / "workloads.json").read_text())["workloads"]
    assert set(workloads) == {"stock", "scale128", "lowfps"}
    for name, workload in workloads.items():
        assert _workload_config(name).num_identities == workload["sim"]["num_identities"], name


@pytest.mark.parametrize("workload, frames", [("stock", 200), ("lowfps", 1000)])
def test_generate_peaks_below_twice_the_arrays_it_returns(workload, frames):
    # Each kept frame fills its rows of the detection columns and the ground
    # truth fills one array; a generator that held the whole stream's draws
    # before building any batch peaks at 2.7 and 2.9 times. Each column of
    # either stream counts once.
    cfg = replace(_workload_config(workload), seed=7, frames=frames)
    tracemalloc.start()
    try:
        gt, dets = generate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in (gt.frames, gt.ids, gt.boxes, gt.confidence))
    returned += sum(a.nbytes for a in (dets.frames, dets.rows.boxes, dets.rows.confidence, dets.rows.embeddings))
    assert peak < 2 * returned


def test_generate_builds_batches_without_a_constructor_per_frame(monkeypatch):
    # The constructors' rules run once per block of kept frames, so the
    # number of constructor calls does not grow with the frames; a generator
    # that built each kept frame through them made two per frame.
    built = []
    for cls in (IdStream, Detections, DetectionStream):
        def counting_init(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    counts = []
    for frames in (4, 40):
        built.clear()
        cfg = SimConfig(seed=4, num_identities=3, frames=frames, fp_rate=0.5, miss_rate=0.5, occlusion_events=2)
        gt, dets = generate(cfg)
        counts.append(len(built))
        # The batches and the stream hold what the constructors would have
        # stored: float64 boxes (n, 4) and confidences (n,), int64 frames
        # and ids, in every frame, empty ones too.
        assert any(len(batch) == 0 for batch in dets.values())
        for frame, batch in dets.items():
            rebuilt = Detections(batch.boxes, batch.confidence, batch.embeddings)
            assert batch_bits(batch) == batch_bits(rebuilt), frame
        rebuilt = IdStream(gt.frames, gt.ids, gt.boxes, gt.confidence)
        assert [(a.dtype, a.shape, a.tobytes()) for a in (gt.frames, gt.ids, gt.boxes, gt.confidence)] == \
               [(a.dtype, a.shape, a.tobytes()) for a in (rebuilt.frames, rebuilt.ids, rebuilt.boxes, rebuilt.confidence)]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("stream, column, row, value, message", [
    ("gt", "boxes", (1, 2), 0.0, "frame 3: row 1: BBox needs positive size, got w=0.0"),
    ("dets", "boxes", (0, 0), math.nan, "frame 3: detection 0: BBox.cx must be finite, got nan"),
    ("dets", "boxes", (2, 3), 2e8, "frame 3: detection 2: box h must be at most 1e+08 in magnitude"),
    ("dets", "confidence", 1, 1.5, "frame 3: detection 1: confidence must lie in [0, 1], got 1.5"),
    ("dets", "embeddings", (2, 0), 9.0, "frame 3: detection 2: embedding must be L2-normalized"),
])
def test_a_block_check_applies_every_batch_rule_and_names_the_frame(stream, column, row, value, message):
    # generate builds its arrays unchecked and checks them a block of frames
    # at a time; a row that breaks a constructor's rule fails with the frame
    # and the row. The ground truth's true boxes are row frame - 1 of one
    # array, which the stream's boxes view.
    gt, dets = generate(SimConfig(seed=5, num_identities=4, frames=6, miss_rate=0.0))
    truth, frames = gt.boxes.reshape(6, 16), range(1, 7)
    bounds = dets.frames.searchsorted(range(1, 8)).tolist()  # frame f's rows: bounds[f - 1] to bounds[f]
    sim._check_frames(truth, dets.rows, bounds, frames)
    for frame in (3, 5):  # only the first bad frame is named
        array = truth.reshape(6, 4, 4)[frame - 1] if stream == "gt" else getattr(dets[frame], column)
        array[row] = value  # a frame's batch views the stream's columns
    with pytest.raises(ValueError, match=re.escape(message)):
        sim._check_frames(truth, dets.rows, bounds, frames)
    sim._check_frames(truth, dets.rows, bounds, range(1, 3))  # a block reads only its own frames


@pytest.mark.parametrize("stride, good_exp_calls, frame", [(1, 0, 1), (1, 8 * 40, 41), (1, 8 * 66, 67), (3, 8 * 66, 67)])
def test_generate_checks_every_block_of_frames(monkeypatch, stride, good_exp_calls, frame):
    # Each kept frame calls math.exp twice for each of its four detections;
    # after ``good_exp_calls`` calls every side comes out negative. Frames
    # 1-32 and 33-64 are full blocks, 65-70 the last, partial one, at stride 1
    # and at stride 3, where dropped frames never call math.exp.
    calls, exp = itertools.count(), math.exp
    monkeypatch.setattr(math, "exp", lambda x: exp(x) if next(calls) < good_exp_calls else -1.0)
    cfg = SimConfig(seed=5, num_identities=4, frames=70 * stride, miss_rate=0.0, frame_stride=stride)
    with pytest.raises(ValueError, match=re.escape(f"frame {frame}: detection 0: BBox needs positive size, got w=-")):
        generate(cfg)


def test_a_scene_at_every_cap_is_finite():
    cfg = SimConfig(num_identities=3, frames=3, arena=(1e6, 1e6), box_size_range=(1.0, 999_990.0), center_noise=1e6,
                    size_noise=0.3, embedding_noise=1e6, fp_rate=1e3, embedding_dim=3)
    gt, dets = generate(cfg)
    assert sum(map(len, dets.values())) > 1000
    for frame_dets in dets.values():
        assert _good_boxes(frame_dets.boxes).all() and np.isfinite(frame_dets.embeddings).all()


def test_the_caps_keep_every_box_in_the_box_domain():
    # Normal draws stay below 14 in magnitude: a side is its drawn size
    # (1 to below the arena cap) times e**(size_noise * draw), and a centre
    # lies in the arena up to 14 centre-noise deviations out.
    cap = sim._CAPS
    assert 1.0 * math.exp(-14 * cap["size_noise"]) >= MIN_SIDE
    assert cap["arena"] * math.exp(14 * cap["size_noise"]) <= BOX_LIMIT
    assert cap["arena"] + 14 * cap["center_noise"] <= BOX_LIMIT


@pytest.mark.parametrize("field, value, message", [
    ("seed", 1.5, "seed must be one int, got 1.5"),
    ("seed", True, "seed must be one int, got True"),
    ("seed", "7", "seed must be one int, got '7'"),
    ("num_identities", 2.5, "num_identities must be one int, got 2.5"),
    ("frames", 3.0, "frames must be one int, got 3.0"),
    ("embedding_dim", 4.0, "embedding_dim must be one int, got 4.0"),
    ("occlusion_events", False, "occlusion_events must be one int, got False"),
    ("frame_stride", (1, 2), "frame_stride must be one int, got (1, 2)"),
    ("occlusion_duration", (1.5, 3), "occlusion_duration must be a pair of ints, got (1.5, 3)"),
    ("occlusion_duration", (5, True), "occlusion_duration must be a pair of ints, got (5, True)"),
    ("occlusion_duration", (5, "14"), "occlusion_duration must be a pair of ints, got (5, '14')"),
    ("arena", ("1600", 900.0), "arena must be a pair of numbers, got ('1600', 900.0)"),
    ("arena", (1600.0,), "arena must be a pair of numbers, got (1600.0,)"),
    ("arena", [1600.0, 900.0], "arena must be a pair of numbers, got [1600.0, 900.0]"),
    ("speed_range", (1.0, True), "speed_range must be a pair of numbers, got (1.0, True)"),
    ("box_size_range", 30.0, "box_size_range must be a pair of numbers, got 30.0"),
    ("center_noise", True, "center_noise must be one number, got True"),
    ("miss_rate", "0.1", "miss_rate must be one number, got '0.1'"),
    ("turn_prob", None, "turn_prob must be one number, got None"),
])
def test_config_refuses_a_field_of_the_wrong_type(field, value, message):
    # Used to be accepted (then generate failed inside numpy), or to fail
    # with a message that named no field, such as "'>' not supported".
    with pytest.raises(TypeError, match=re.escape(message)):
        SimConfig(**{field: value})


def test_config_takes_ints_for_numbers():
    cfg = SimConfig(seed=np.int64(3), num_identities=3, frames=5, arena=(400, 300), speed_range=(1, 2),
                    box_size_range=(30, 40), center_noise=1, size_noise=0, miss_rate=0, fp_rate=1, embedding_noise=0,
                    turn_prob=np.float64(0.5))
    gt, dets = generate(cfg)
    assert np.unique(gt.frames).tolist() == sorted(dets) == [1, 2, 3, 4, 5]


def test_config_accepts_probabilities_at_the_bounds():
    for p in (0.0, 1.0):
        assert SimConfig(miss_rate=p, turn_prob=p).turn_prob == p


def test_config_from_mapping():
    cfg = config_from_mapping(
        {
            "seed": "12",
            "num_identities": "8",
            "frames": "100",
            "arena": "800,600",
            "speed_range": "1.5, 3.5",
            "occlusion_duration": "4,9",
            "miss_rate": "0.02",
        }
    )
    assert cfg.seed == 12
    assert cfg.arena == (800.0, 600.0)
    assert cfg.speed_range == (1.5, 3.5)
    assert cfg.occlusion_duration == (4, 9)
    assert cfg.miss_rate == 0.02
    with pytest.raises(ValueError):
        config_from_mapping({"bogus": "1"})
    with pytest.raises(ValueError):
        config_from_mapping({"arena": "800"})


def test_config_from_mapping_round_trips_every_field_and_type():
    cfg = benchmark_config(seed=5)
    text = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        text[f.name] = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    parsed = config_from_mapping(text)
    assert parsed == cfg

    def types(value):
        return [type(v) for v in value] if isinstance(value, tuple) else type(value)

    for f in fields(cfg):
        assert types(getattr(parsed, f.name)) == types(getattr(cfg, f.name)), f.name

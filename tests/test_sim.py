import json
import math
import re
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import detections
from idtrack import sim
from idtrack.geometry import BOX_LIMIT, MIN_SIDE, BBox, _good_boxes
from idtrack.sim import SimConfig, benchmark_config, config_from_mapping, generate, subsample


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

    It builds every source frame's objects with numpy-scalar motion state and
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

    if config.frame_stride > 1:
        gt = subsample(gt, config.frame_stride)
        dets = subsample(dets, config.frame_stride)
    return gt, dets


def scene_bits(gt, dets):
    """A scene as raw float64 bytes, so that equality is bit for bit (0.0 != -0.0)."""
    gt_rows = [(f, i, b.cx, b.cy, b.w, b.h) for f in gt for i, b in gt[f]]
    det_rows = [(f, d.confidence, d.box.cx, d.box.cy, d.box.w, d.box.h) for f in dets for d in dets[f]]
    embeddings = [d.embedding.tobytes() for f in dets for d in dets[f]]
    return list(gt), np.array(gt_rows).tobytes(), list(dets), np.array(det_rows).tobytes(), embeddings


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


@settings(max_examples=200)
@given(sim_configs())
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
    assert generate(cfg)[0] != generate(other)[0]


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
    for f in gt:
        assert len(dets[f]) == len(gt[f]) == 4
        for (gid, gbox), det in zip(gt[f], dets[f]):
            assert det.box == gbox
            assert 0.55 <= det.confidence <= 0.99
            assert det.prediction is None


def test_boxes_stay_inside_the_arena():
    cfg = SimConfig(seed=9, num_identities=8, frames=200, arena=(300.0, 200.0), speed_range=(3.0, 8.0))
    gt, _ = generate(cfg)
    for f, entries in gt.items():
        for _, b in entries:
            assert b.cx - b.w / 2 >= -1e-9 and b.cx + b.w / 2 <= 300.0 + 1e-9
            assert b.cy - b.h / 2 >= -1e-9 and b.cy + b.h / 2 <= 200.0 + 1e-9


def test_every_identity_present_every_frame():
    cfg = SimConfig(seed=13, num_identities=6, frames=25)
    gt, _ = generate(cfg)
    assert sorted(gt) == list(range(1, 26))
    for entries in gt.values():
        assert sorted(i for i, _ in entries) == [1, 2, 3, 4, 5, 6]


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
    assert sorted(gt) == list(range(1, 26))
    assert sorted(dets) == list(range(1, 26))


@settings(max_examples=100)
@given(sim_configs(), st.integers(1, 12))
def test_stride_equals_subsampled_full_run(cfg, stride):
    gt_dense, dets_dense = generate(replace(cfg, frame_stride=1))
    strided = generate(replace(cfg, frame_stride=stride))
    assert scene_bits(*strided) == scene_bits(subsample(gt_dense, stride), subsample(dets_dense, stride))


def test_subsample_drops_and_reindexes():
    cfg = SimConfig(seed=1, num_identities=2, frames=10)
    gt, dets = generate(cfg)
    thin = subsample(gt, 3)
    assert sorted(thin) == [1, 2, 3, 4]  # original frames 1, 4, 7, 10
    assert thin[2] == gt[4]
    assert thin[4] == gt[10]
    # Only the keys change: each kept frame's batch is the same object.
    thin_dets = subsample(dets, 3)
    assert thin_dets[3] is dets[7]
    # A kept frame the stream lacks stays out, except the last one.
    assert subsample({1: dets[1], 5: dets[5]}, 2) == {1: dets[1], 3: dets[5]}
    assert subsample({1: dets[1], 4: dets[4]}, 2) == {1: dets[1], 2: []}
    assert list(subsample({7: dets[7], 1: dets[1], 6: dets[6]}, 3)) == [1, 3]


def test_subsample_grows_with_the_frames_it_is_given():
    # Frames far apart cost no entry per kept frame in between. A range over
    # the largest frame built 10**6 entries here, in about 0.7 s.
    _, dets = generate(SimConfig(seed=1, num_identities=2, frames=2))
    start = time.perf_counter()
    thin = subsample({1: dets[1], 2 * 10**6 + 1: dets[2]}, 2)
    assert time.perf_counter() - start < 0.5
    assert thin == {1: dets[1], 10**6 + 1: dets[2]}


def test_subsample_rejects_bad_stride():
    with pytest.raises(ValueError):
        subsample({1: []}, 0)
    assert subsample({}, 3) == {}


def test_embeddings_are_unit_norm_and_separated():
    # Noise level matches benchmark_config: the operating point the tracker
    # has to separate identities at.
    cfg = SimConfig(seed=23, num_identities=10, frames=40, embedding_noise=0.15, fp_rate=0.0, miss_rate=0.0)
    gt, dets = generate(cfg)
    by_id = {}
    for f in dets:
        assert len(dets[f]) == len(gt[f])
        for (gid, _), det in zip(gt[f], dets[f]):
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
        ("turn_prob", "5", "turn_prob must lie in [0, 1]"),
        ("miss_rate", "1.5", "miss_rate must lie in [0, 1]"),
        ("miss_rate", "-0.1", "miss_rate must lie in [0, 1]"),
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


def test_config_accepts_the_benchmark_workloads():
    workloads = json.loads((Path(__file__).parents[1] / "perfbench" / "workloads.json").read_text())["workloads"]
    assert set(workloads) == {"stock", "scale128", "lowfps"}
    for name, workload in workloads.items():
        values = {k: ",".join(map(str, v)) if isinstance(v, list) else str(v) for k, v in workload["sim"].items()}
        assert config_from_mapping(values).num_identities == workload["sim"]["num_identities"], name


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

from dataclasses import fields

import numpy as np
import pytest

from idtrack.sim import SimConfig, benchmark_config, config_from_mapping, generate, subsample


def dets_equal(a, b):
    if a.frame != b.frame or a.confidence != b.confidence or a.box != b.box:
        return False
    if (a.embedding is None) != (b.embedding is None):
        return False
    return a.embedding is None or np.array_equal(a.embedding, b.embedding)


def streams_equal(dets_a, dets_b):
    if set(dets_a) != set(dets_b):
        return False
    for f in dets_a:
        if len(dets_a[f]) != len(dets_b[f]):
            return False
        if not all(dets_equal(x, y) for x, y in zip(dets_a[f], dets_b[f])):
            return False
    return True


def test_same_seed_reproduces_bit_for_bit():
    cfg = SimConfig(seed=11, num_identities=5, frames=40, occlusion_events=2, fp_rate=0.5)
    gt1, dets1 = generate(cfg)
    gt2, dets2 = generate(cfg)
    assert gt1 == gt2  # tuples of (id, BBox) compare exactly
    assert streams_equal(dets1, dets2)


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
            assert det.frame == f


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
    for f, entries in dets.items():
        for d in entries:
            assert d.frame == f


def test_stride_equals_subsampled_full_run():
    dense_cfg = SimConfig(seed=17, num_identities=5, frames=60, fp_rate=0.4, occlusion_events=3)
    strided_cfg = SimConfig(seed=17, num_identities=5, frames=60, fp_rate=0.4, occlusion_events=3, frame_stride=7)
    gt_dense, dets_dense = generate(dense_cfg)
    gt_strided, dets_strided = generate(strided_cfg)
    assert gt_strided == subsample(gt_dense, 7)
    assert streams_equal(dets_strided, subsample(dets_dense, 7))


def test_subsample_drops_and_reindexes():
    cfg = SimConfig(seed=1, num_identities=2, frames=10)
    gt, _ = generate(cfg)
    thin = subsample(gt, 3)
    assert sorted(thin) == [1, 2, 3, 4]  # original frames 1, 4, 7, 10
    assert thin[2] == gt[4]
    assert thin[4] == gt[10]


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

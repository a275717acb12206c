"""What ``perfbench/`` uses of the package, checked on a small scene.

The benchmark replays detections frame by frame through the public online
API, wraps ``idtrack.cli.track_stream`` to capture what ``track`` tracked,
and in its traced mode patches the module globals listed in
``perfbench/spans.py``. A refactor that breaks any of these fails here
rather than in a benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

import idtrack.cli
from idtrack import Tracker, TrackerConfig, TrackOutput, nms
from idtrack.affinity import AffinityWeights
from idtrack.cli import main
from idtrack.mot_io import load_detections
from idtrack.geometry import IdStream
from idtrack.tracker import track_stream

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    return spans


@pytest.fixture()
def scene(tmp_path):
    config = tmp_path / "sim.cfg"
    # Occlusions longer than the 5 frames a head coasts: paused trajectories
    # come back through phase-2 recovery solves.
    config.write_text("num_identities=6\nframes=40\narena=400,300\nembedding_dim=8\nfp_rate=0.6\nocclusion_events=3\n"
                      "occlusion_duration=7,9\n")
    out = tmp_path / "scene"
    assert main(["simulate", "--config", str(config), "--seed", "3", "--out-dir", str(out)]) == 0
    return config, out


def benchmark_tracker():
    t = json.loads((PERFBENCH / "workloads.json").read_text())["tracker"]
    config = TrackerConfig(
        weights=AffinityWeights(t["w1"], t["w2"]),
        buffer_size=t["buffer_size"],
        min_affinity=t["min_affinity"],
        det_threshold=t["det_threshold"],
        motion_propagate_frames=t["propagate_frames"],
        embedding_momentum=t["embedding_momentum"],
    )
    return config, t["nms_iou"]


def test_the_replay_steps_what_track_stream_tracks(scene):
    _, out = scene
    config, nms_iou = benchmark_tracker()
    dets = load_detections(out / "dets.txt", out / "embeddings.txt")
    expected: dict[int, list] = {}
    for o in track_stream(dets, config, nms_iou=nms_iou):
        expected.setdefault(o.frame, []).append(o)
    for _ in range(2):  # the benchmark replays the same loaded stream more than once
        tracker = Tracker(config)
        for frame in range(1, max(dets) + 1):
            raw = dets.get(frame, [])
            kept = nms([d for d in raw if d.confidence >= config.det_threshold], nms_iou)
            assert tracker.step(kept, frame) == expected.get(frame, [])


def test_track_calls_track_stream_through_the_cli_module(scene, monkeypatch, capsys):
    _, out = scene
    captured = []
    original = idtrack.cli.track_stream

    def capture(*args, **kwargs):
        outputs = original(*args, **kwargs)
        captured.append(outputs)
        return outputs

    monkeypatch.setattr(idtrack.cli, "track_stream", capture)
    hyp = out / "hyp.txt"
    assert main(["track", "--dets", str(out / "dets.txt"), "--embeddings", str(out / "embeddings.txt"),
                 "--out", str(hyp)]) == 0
    assert len(captured) == 1 and isinstance(captured[0], IdStream)
    assert captured[0] and all(isinstance(o, TrackOutput) for o in captured[0])


def test_every_patch_site_exists(spans):
    patched, problems = spans.install(spans.Tracer())
    try:
        assert problems == []
    finally:
        spans.uninstall(patched)


def test_a_traced_pipeline_passes_the_span_checks(scene, spans, capsys):
    config, out = scene
    tracer = spans.Tracer()
    patched, problems = spans.install(tracer)
    try:
        assert problems == []
        hyp = out / "hyp.txt"
        for argv in (
            ["simulate", "--config", str(config), "--seed", "3", "--out-dir", str(out)],
            ["track", "--dets", str(out / "dets.txt"), "--embeddings", str(out / "embeddings.txt"), "--out", str(hyp)],
            ["eval", "--gt", str(out / "gt.txt"), "--hyp", str(hyp)],
        ):
            with tracer.span("cli." + argv[0]):
                assert main(argv) == 0
    finally:
        spans.uninstall(patched)
    assert spans.check_spans(tracer.spans, spans.EXPECTED_SPANS) == []
    layer = spans.layer_metrics(tracer.spans, tracer.counts)
    assert layer["sim.detections"] > 0 and layer["affinity.nms_in"] > 0 and layer["tracker.births"] > 0
    # The counter reads generate's detections, not its ground truth: one per written detection row.
    assert layer["sim.detections"] == len((out / "dets.txt").read_text().splitlines())
    # spans.py counts a recovery solve when phase 2 hands combined_affinity
    # members of tracker.paused; a refactor that hands it copies reads 0 here.
    assert layer["assignment.solve_calls"] > 0 and layer["tracker.recovery_solves"] > 0
    assert sys.modules["idtrack.tracker"].nms is nms  # uninstall put every original back

import cProfile
import hashlib
import json
import platform
import pstats
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy

import idtrack.cli
from idtrack.affinity import AffinityWeights, nms
from idtrack.cli import ABLATION_MODELS, main
from idtrack.geometry import BBox, Detection
from idtrack.mot_io import load_detections, read_detections, read_embeddings, read_gt
from idtrack.tracker import DEFAULT_NMS_IOU, Tracker, TrackerConfig, TrackOutputs, track_stream


@pytest.fixture()
def tiny_config(tmp_path):
    p = tmp_path / "sim.cfg"
    p.write_text(
        "seed=3\n"
        "num_identities=4\n"
        "frames=30\n"
        "arena=400,300\n"
        "embedding_dim=16\n"
        "occlusion_events=1\n"
    )
    return p


def simulate(tmp_path, tiny_config, name="scene", extra=()):
    out_dir = tmp_path / name
    rc = main(["simulate", "--config", str(tiny_config), "--out-dir", str(out_dir), *extra])
    assert rc == 0
    return out_dir


def test_simulate_writes_the_three_files(tmp_path, tiny_config, capsys):
    out_dir = simulate(tmp_path, tiny_config)
    assert "seed=3" in capsys.readouterr().out
    gt = read_gt(out_dir / "gt.txt")
    dets = read_detections(out_dir / "dets.txt")
    frames, index, matrix = read_embeddings(out_dir / "embeddings.txt", dets)
    assert np.unique(gt.frames).tolist() == list(range(1, 31)) and dets.last == 30
    assert matrix.shape[1] == 16
    assert frames.tolist() == dets.frames.tolist() and len(index) == len(dets.rows)


def test_simulate_seed_flag_beats_config(tmp_path, tiny_config, capsys):
    simulate(tmp_path, tiny_config, "a")
    assert "seed=3" in capsys.readouterr().out

    simulate(tmp_path, tiny_config, "b", extra=("--seed", "9"))
    assert "seed=9" in capsys.readouterr().out


def test_simulate_rejects_a_repeated_config_key(tmp_path, tiny_config, capsys):
    tiny_config.write_text(tiny_config.read_text() + "seed=4\n")
    out_dir = tmp_path / "scene"
    rc = main(["simulate", "--config", str(tiny_config), "--out-dir", str(out_dir)])
    assert rc == 1
    assert "sim.cfg:7: repeated key 'seed'" in capsys.readouterr().err
    assert not (out_dir / "gt.txt").exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("speed_range=nan,nan", "speed_range must be finite"),
        ("arena=inf,900", "arena must be finite"),
        ("fp_rate=inf", "fp_rate must be finite"),
        ("embedding_noise=inf", "embedding_noise must be finite"),
        ("turn_prob=nan", "turn_prob must be finite"),
        ("miss_rate=nan", "miss_rate must be finite"),
        ("turn_prob=5", "turn_prob must lie in [0, 1], got 5.0"),
        ("frame_stride=0", "frame_stride must be >= 1, got 0"),
        ("occlusion_duration=0,5", "occlusion_duration must satisfy 1 <= lo <= hi, got (0, 5)"),
        ("speed_range=1e300,1e300", "speed_range must stay below min(arena) - box_size_range[1] = 650"),
        ("fp_rate=1e20", "fp_rate must be <= 1000"),
        ("embedding_noise=1e300", "embedding_noise must be <= 1e+06"),
        ("size_noise=1e300", "size_noise must be <= 0.3"),
        ("center_noise=1e308", "center_noise must be <= 1e+06"),
        ("box_size_range=1e-9,1e-8", "box_size_range must start at 1 or more"),
    ],
)
def test_simulate_rejects_non_finite_and_out_of_range_config(tmp_path, capsys, line, message):
    config = tmp_path / "sim.cfg"
    config.write_text(f"seed=0\nnum_identities=3\nframes=20\n{line}\n")
    out_dir = tmp_path / "scene"
    rc = main(["simulate", "--config", str(config), "--out-dir", str(out_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: {message}") and err.count("\n") == 1  # one line, no traceback
    assert not (out_dir / "gt.txt").exists()


@pytest.mark.parametrize("command", ["simulate", "ablate"])
def test_config_errors_name_the_file_and_the_key(tmp_path, capsys, command):
    config = tmp_path / "sim.cfg"
    config.write_text("seed=0\nframes=20\nnum_identities=abc\n")
    out_dir = tmp_path / "scene"
    rc = main([command, "--config", str(config), "--out-dir", str(out_dir)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {config}: num_identities needs one int value, got 'abc'\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["simulate", "ablate"])
def test_a_negative_seed_in_a_config_file_names_the_file(tmp_path, capsys, command):
    # Used to fail inside numpy with "expected non-negative integer".
    config = tmp_path / "sim.cfg"
    config.write_text("seed=-5\nnum_identities=3\nframes=20\n")
    out_dir = tmp_path / "scene"
    rc = main([command, "--config", str(config), "--out-dir", str(out_dir)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {config}: seed must be >= 0, got -5\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command, seed", [("simulate", "-1"), ("ablate", "-2")])
def test_a_negative_seed_is_a_usage_error(tmp_path, capsys, monkeypatch, command, seed):
    def generate(config):
        raise AssertionError("generate must not run for a negative --seed")

    monkeypatch.setattr("idtrack.cli.generate", generate)
    out_dir = tmp_path / "scene"
    rc = main([command, "--seed", seed, "--out-dir", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --seed must be >= 0, got {seed}\n"
    assert not out_dir.exists()


# The default scene (stock, seed 7) as the per-line "%" writers wrote it: a
# change to the scene or to any writer's bytes fails here.
PINNED_SHA256 = {
    "gt.txt": "2183b4f392e6454d6472f09acb993d50688debcd36fde12a17cdfac6a972f557",
    "dets.txt": "60b99a2b9131bbea607549df1613e450745d1ff5b79ec77c8ff90a53269dac4b",
    "embeddings.txt": "8da97be177e2bfcb14b35822600a28036310769b927ea4278bd9179012697cdc",
}


def test_simulate_default_scene_bytes_are_pinned(tmp_path, capsys):
    rc = main(["simulate", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "seed=7 frames=520 identities=32 detections=16011" in capsys.readouterr().out
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED_SHA256}
    assert digests == PINNED_SHA256


# The stock tracker's hyp.txt on the default scene: a change to what the
# tracker emits, or to how predictions reach it, fails here.
PINNED_HYP_SHA256 = {
    (): "aa6d24d0a21cbe8cbf1fa3e2c9d6d9fb15081dea6c73abde8c82e3a2786e1119",
    ("--frame-stride", "10"): "b1eed0fb53c938f9469b9e220aa893a76c62bf2646e965750c4221d687ed6d68",
    ("--predictions", "preds.txt", "--write-interpolated"):
        "290069341d1007ee32568c9d0b1a7b103913215326da491f317429d14a2b743e",
}
PINNED_PREDS_SHA256 = "7cbbac35fa3ee9c63f26dd8df68541a0f63ce83043bae2eca372d130120f8f1f"


def write_test_predictions(dets_path, out_path):
    """A prediction for every other detection (0-based index j within its
    frame, j even) of every frame not divisible by 3: the detection's box
    moved by (+1.5, -0.5), width and height copied as text."""
    lines = []
    seen: dict[int, int] = {}
    for line in dets_path.read_text().splitlines():
        frame, _, left, top, w, h = line.split(",")[:6]
        frame = int(frame)
        j = seen[frame] = seen.get(frame, -1) + 1
        if frame % 3 != 0 and j % 2 == 0:
            lines.append(f"{frame},{j},{float(left) + 1.5:.6f},{float(top) - 0.5:.6f},{w},{h},1,-1,-1,-1\n")
    out_path.write_text("".join(lines))


def test_track_default_scene_bytes_are_pinned(tmp_path):
    assert main(["simulate", "--out-dir", str(tmp_path)]) == 0
    write_test_predictions(tmp_path / "dets.txt", tmp_path / "preds.txt")
    assert hashlib.sha256((tmp_path / "preds.txt").read_bytes()).hexdigest() == PINNED_PREDS_SHA256
    scene = ["--dets", str(tmp_path / "dets.txt"), "--embeddings", str(tmp_path / "embeddings.txt")]
    for flags, expected in PINNED_HYP_SHA256.items():
        flags = [str(tmp_path / f) if f.endswith(".txt") else f for f in flags]
        hyp = tmp_path / "hyp.txt"
        assert main(["track", *scene, "--out", str(hyp), *flags]) == 0
        assert hashlib.sha256(hyp.read_bytes()).hexdigest() == expected, flags



# The other two benchmark workloads at seed 7: their configs come from
# perfbench/workloads.json, so a change to the scene, the tracker, any writer
# or any reader (eval reads gt.txt and hyp.txt back) on a bigger (scale128) or
# strided (lowfps) scene fails here, and so does one to a score that eval or
# eval --sweep prints.
PINNED_WORKLOAD_SHA256 = {
    "scale128": {
        "gt.txt": "5026a9d149371bd4db25e48bfd0f24336f96cfcc38359f50d31652463964e790",
        "dets.txt": "01dca2d1f2d35ce8f6cc2ca4554416173ff0293598754d51493034275c897c74",
        "embeddings.txt": "9b7cff4a8f89219417a55b5d599736a3cfba0c7d261ed5fcfcfb06174bece22d",
        "hyp.txt": "3ac4ecf53c5b5986c2ce767ea12c1bd4d6c33cc7f237a2667163b85944388252",
        "eval stdout": "e6b7d0679fc31d56fa7fcf4fd71c0bc35df4ceb9c7efcc9c80f463ef4b67438e",
        "eval --sweep stdout": "7babbef0129c8908a3f3cfee111a4e6540bfcd4f0e97b530b2d3d7b95e3033b4",
    },
    "lowfps": {
        "gt.txt": "988ce869edaf01ccf7fef8def0dc6141eb9aaf6b01dbde6ffa5230085c212045",
        "dets.txt": "3a0906d6c63d1f91644056e4b16ca3963c013c98fd830e1b5f87a23425024699",
        "embeddings.txt": "e6e99ad2a5771a27cda61bae9d00556ad1e346d230edf6684659cc3d2432130a",
        "hyp.txt": "b89e623e19dc929d421f4e08c021a7ba40cebddfbcef0a7befd1e6de9286f38a",
        "eval stdout": "d202ae691113e57325413d8524524c71568cad2b050803e39ed900713144d142",
        "eval --sweep stdout": "03e1dba074cc5a96befb4e1eb9e730eb8a3ba8cb70a48fc5975bacb0e8cde310",
    },
}


WORKLOADS = json.loads((Path(__file__).parents[1] / "perfbench" / "workloads.json").read_text())
TRACKER = WORKLOADS["tracker"]
WORKLOAD_TRACK_FLAGS = [str(flag) for flag in [
    "--w1", TRACKER["w1"], "--w2", TRACKER["w2"], "--buffer-size", TRACKER["buffer_size"],
    "--min-affinity", TRACKER["min_affinity"], "--det-threshold", TRACKER["det_threshold"],
    "--propagate-frames", TRACKER["propagate_frames"], "--embedding-momentum", TRACKER["embedding_momentum"],
    "--nms-iou", TRACKER["nms_iou"]]]


def workload_config(directory, workload):
    """The workload's sim config from perfbench/workloads.json, written to
    ``directory`` as the key=value file that ``--config`` reads."""
    values = {k: ",".join(map(str, v)) if isinstance(v, list) else str(v)
              for k, v in WORKLOADS["workloads"][workload]["sim"].items()}
    config = directory / "sim.cfg"
    config.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    return config


@pytest.fixture(scope="module")
def workload_scene(tmp_path_factory):
    """``scene(workload, seed)``: a directory where ``idtrack simulate`` wrote
    the workload's scene at ``seed`` and ``idtrack track``, with the
    workload's tracker flags, its hyp.txt; each made once per module."""
    scenes = {}

    def scene(workload, seed):
        if (workload, seed) not in scenes:
            out = tmp_path_factory.mktemp(f"{workload}-{seed}")
            config = workload_config(out, workload)
            assert main(["simulate", "--config", str(config), "--seed", str(seed), "--out-dir", str(out)]) == 0
            assert main(["track", "--dets", str(out / "dets.txt"), "--embeddings", str(out / "embeddings.txt"),
                         "--out", str(out / "hyp.txt"), *WORKLOAD_TRACK_FLAGS]) == 0
            scenes[workload, seed] = out
        return scenes[workload, seed]

    return scene


def digests(scene):
    return {name: hashlib.sha256((scene / name).read_bytes()).hexdigest()
            for name in ("gt.txt", "dets.txt", "embeddings.txt", "hyp.txt")}


@pytest.mark.parametrize("workload", PINNED_WORKLOAD_SHA256)
def test_workload_scene_bytes_are_pinned(workload_scene, capsys, workload):
    scene = workload_scene(workload, 7)
    got = digests(scene)
    for sweep in ([], ["--sweep"]):
        capsys.readouterr()
        assert main(["eval", "--gt", str(scene / "gt.txt"), "--hyp", str(scene / "hyp.txt"), *sweep]) == 0
        got[" ".join(["eval", *sweep, "stdout"])] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == PINNED_WORKLOAD_SHA256[workload]


# All three workloads at another seed, so that byte identity is not a
# property of seed 7 alone.
PINNED_SEED_11_SHA256 = {
    "stock": {
        "gt.txt": "b3d813700e8f2feb589d91ae089408454a569733588e7e121435cece903e746d",
        "dets.txt": "718affcc1b5bf0853f8fd8f227c6f793192b948443b730f0ca6297c37d606ff1",
        "embeddings.txt": "32f8e27de11e51d8852233552cd607ce7c2e0f7fcfceaaed1804dad832e29711",
        "hyp.txt": "81faa27b0f9d4f9568b7c8b68e83072ea72f933e16ad6d610f0eb24cdcd98d20",
    },
    "scale128": {
        "gt.txt": "f9cd179a4497d5d0cbcaf4eb867bf1db6e3deb4fe8f4635a947cb3e1ea554006",
        "dets.txt": "18b4696a6f3f1c316efeea3068112fc0e3a296a01a9d965df10ecb2bc0ce8752",
        "embeddings.txt": "817c2ef45f99de4f2bbabfc628990e8157305299fa78f94b3cfcf34c7add0892",
        "hyp.txt": "03193223f5d07fc7a93082b1ee299fe9f6d8292fc3b44321045f9cfad7923907",
    },
    "lowfps": {
        "gt.txt": "1839c7835a3ee2ffe38c6ebc57cc36da15ea17a3d16f8ee4401fcaa556a5a294",
        "dets.txt": "58997828b44bd101ff3d6b60f1001df3c37b168c12c610bbce18aa900c09fe22",
        "embeddings.txt": "eb67161ec020e99c8cdb1ed4a74c1678cac310c15c00b16584421dd3478805ec",
        "hyp.txt": "c8c66d745f31b71279ebaf2a20660c8680ba82bc9f9a9d432c197d6a4efbf4b1",
    },
}


@pytest.mark.parametrize("workload", PINNED_SEED_11_SHA256)
def test_workload_scene_bytes_at_seed_11_are_pinned(workload_scene, workload):
    assert digests(workload_scene(workload, 11)) == PINNED_SEED_11_SHA256[workload]


# ablate --strides 1,10 on the bigger and the strided workload at seed 7:
# every variant's scores at both strides.
PINNED_WORKLOAD_ABLATE_SHA256 = {
    "scale128": "6ac343659e2b2732cd696a65009ed64968ba741e0d80390bd4a0185ec2e60d89",
    "lowfps": "e7c1890b61113934af06b774d92b693294fde0094dda799c541d50e1c0ba5197",
}


@pytest.mark.parametrize("workload", PINNED_WORKLOAD_ABLATE_SHA256)
def test_workload_ablate_stdout_is_pinned(tmp_path, capsys, workload):
    config = workload_config(tmp_path, workload)
    capsys.readouterr()
    assert main(["ablate", "--config", str(config), "--seed", "7", "--strides", "1,10"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINNED_WORKLOAD_ABLATE_SHA256[workload]


# The stdout of eval, eval --sweep and ablate on the default scene (ablate
# builds its own): a change to any score, or to how it is printed, fails here.
PINNED_STDOUT_SHA256 = {
    ("eval",): "abb1f0aa4d20575d7164a3ef866cdbac0e2717d1af6e94feb2a0811c2db13fd5",
    ("eval", "--sweep"): "a7890740d1558f07dddcee27aba77a25351d8d3470229c5a673f228c3f47831d",
    ("ablate", "--strides", "1,10"): "104617fe0b564d3b873fac08fea33d2d14f11a7173e8bff1bc8a185f18d371c3",
}


@pytest.fixture(scope="module")
def default_scene(tmp_path_factory):
    out = tmp_path_factory.mktemp("default")
    assert main(["simulate", "--out-dir", str(out)]) == 0
    assert main(["track", "--dets", str(out / "dets.txt"), "--embeddings", str(out / "embeddings.txt"),
                 "--out", str(out / "hyp.txt")]) == 0
    return out


@pytest.mark.parametrize("argv", PINNED_STDOUT_SHA256)
def test_eval_and_ablate_stdout_is_pinned(default_scene, capsys, argv):
    files = ["--gt", str(default_scene / "gt.txt"), "--hyp", str(default_scene / "hyp.txt")]
    capsys.readouterr()
    assert main([*argv, *files] if argv[0] == "eval" else list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINNED_STDOUT_SHA256[argv]


# Profiled calls of `idtrack eval`, of one `load_detections` and one
# `track_stream` on the default (stock, seed 7) scene and of one
# `track_stream` on the scale128 workload's, after a warm-up run of each. Call
# counts do not drift with the host's speed, as wall time does, so a change
# that adds per-frame or per-row work fails here at once: a reader that built
# one batch per frame made 10,953 calls. A change that cuts calls may lower a
# budget; one that raises a budget says why. The counts hold for these
# versions only.
CALL_BUDGETS = {"eval": 18054, "load_detections": 3688, "track_stream": 93137, "scale128 track_stream": 34195}
CALL_MARGIN = 0.02
PINNED_VERSIONS = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}


def workload_tracker_config():
    return TrackerConfig(weights=AffinityWeights(TRACKER["w1"], TRACKER["w2"]), buffer_size=TRACKER["buffer_size"],
                         min_affinity=TRACKER["min_affinity"], det_threshold=TRACKER["det_threshold"],
                         motion_propagate_frames=TRACKER["propagate_frames"],
                         embedding_momentum=TRACKER["embedding_momentum"])


def test_profiled_call_counts_stay_within_their_budgets(default_scene, workload_scene, capsys):
    versions = {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}
    assert versions == PINNED_VERSIONS, f"the call budgets were measured on {PINNED_VERSIONS}, not on {versions}"
    dets = load_detections(default_scene / "dets.txt", default_scene / "embeddings.txt")
    scale128 = workload_scene("scale128", 7)
    wide = load_detections(scale128 / "dets.txt", scale128 / "embeddings.txt")
    files = ["--gt", str(default_scene / "gt.txt"), "--hyp", str(default_scene / "hyp.txt")]
    runs = {"eval": lambda: main(["eval", *files]),
            "load_detections": lambda: load_detections(default_scene / "dets.txt", default_scene / "embeddings.txt"),
            "track_stream": lambda: track_stream(dets, TrackerConfig()),
            "scale128 track_stream": lambda: track_stream(wide, workload_tracker_config(), nms_iou=TRACKER["nms_iou"])}
    over = []
    for name, run in runs.items():
        run()
        profile = cProfile.Profile()
        profile.runcall(run)
        stats = pstats.Stats(profile)
        print(f"{name}: {stats.total_calls} calls, budget {CALL_BUDGETS[name]}")
        if stats.total_calls > CALL_BUDGETS[name] * (1 + CALL_MARGIN):
            most = sorted(stats.stats.items(), key=lambda item: -item[1][1])[:10]
            over.append(f"{name}: {stats.total_calls} calls, budget {CALL_BUDGETS[name]} + {CALL_MARGIN:.0%}; most calls:\n"
                        + "\n".join(f"  {calls:>7} {pstats.func_std_string(func)}" for func, (_, calls, *_) in most))
    capsys.readouterr()
    assert not over, "\n".join(over)


def test_track_stream_peaks_below_a_third_of_its_input(default_scene):
    # One stock replay holds its outputs' columns and one frame's work at a
    # time, not a copy of the stream: its tracemalloc peak read 0.265 times
    # the bytes of its input stream's columns.
    dets = load_detections(default_scene / "dets.txt", default_scene / "embeddings.txt")
    config = TrackerConfig()
    track_stream(dets, config)
    tracemalloc.start()
    try:
        track_stream(dets, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    given = sum(a.nbytes for a in (dets.frames, dets.rows.boxes, dets.rows.confidence, dets.rows.embeddings))
    assert peak < given / 3, f"peak {peak} bytes for {given} bytes of input columns"


def test_simulate_same_seed_is_byte_identical(tmp_path, tiny_config):
    a = simulate(tmp_path, tiny_config, "a")
    b = simulate(tmp_path, tiny_config, "b")
    for name in ("gt.txt", "dets.txt", "embeddings.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_track_and_eval_round(tmp_path, tiny_config, capsys):
    scene = simulate(tmp_path, tiny_config)
    hyp = tmp_path / "hyp.txt"
    rc = main(
        [
            "track",
            "--dets", str(scene / "dets.txt"),
            "--embeddings", str(scene / "embeddings.txt"),
            "--out", str(hyp),
        ]
    )
    assert rc == 0
    assert hyp.exists()
    capsys.readouterr()

    rc = main(["eval", "--gt", str(scene / "gt.txt"), "--hyp", str(hyp)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "MOTA" in out
    assert "mota=" in out
    assert "gt_total=" in out


def test_track_accepts_weight_and_stride_flags(tmp_path, tiny_config, monkeypatch):
    # --w1 and --w2 set the blend; one of them alone sets the other to make 1.
    scene = simulate(tmp_path, tiny_config)
    blends, run = [], idtrack.cli.track_stream

    def recording(dets, config, **kwargs):
        blends.append(config.weights)
        return run(dets, config, **kwargs)

    monkeypatch.setattr(idtrack.cli, "track_stream", recording)
    for extra, weights in (
        ((), AffinityWeights(0.5, 0.5)),
        (("--w2", "0.8"), AffinityWeights(1.0 - 0.8, 0.8)),
        (("--w2", "1"), AffinityWeights(0.0, 1.0)),
        (("--w1", "0.3", "--w2", "0.7"), AffinityWeights(0.3, 0.7)),
        (("--w2", "0.0"), AffinityWeights(1.0, 0.0)),
        (("--w1", "0.25"), AffinityWeights(0.25, 0.75)),
        (("--frame-stride", "2"), AffinityWeights(0.5, 0.5)),
        (("--write-interpolated",), AffinityWeights(0.5, 0.5)),
    ):
        rc = main(
            [
                "track",
                "--dets", str(scene / "dets.txt"),
                "--embeddings", str(scene / "embeddings.txt"),
                "--out", str(tmp_path / "out.txt"),
                *extra,
            ]
        )
        assert rc == 0 and blends.pop() == weights, extra


def test_track_accepts_a_predictions_file(tmp_path, tiny_config):
    scene = simulate(tmp_path, tiny_config)
    first = (scene / "dets.txt").read_text().splitlines()[0].split(",")
    pred = tmp_path / "preds.txt"
    pred.write_text(f"1,0,{first[2]},{first[3]},{first[4]},{first[5]},1,-1,-1,-1\n")
    rc = main(
        [
            "track",
            "--dets", str(scene / "dets.txt"),
            "--embeddings", str(scene / "embeddings.txt"),
            "--predictions", str(pred),
            "--out", str(tmp_path / "out.txt"),
        ]
    )
    assert rc == 0


def test_track_without_embeddings_needs_zero_identity_weight(tmp_path, tiny_config, capsys):
    scene = simulate(tmp_path, tiny_config)
    out = tmp_path / "o.txt"
    args = ["track", "--dets", str(scene / "dets.txt"), "--out", str(out)]
    rc = main(args)  # default weights want embeddings
    assert rc == 2
    err = capsys.readouterr().err
    assert "--embeddings" in err and "--w2 0" in err
    assert not out.exists()
    assert main([*args, "--w2", "0"]) == 0
    assert main([*args, "--w1", "1"]) == 0


def test_track_rejects_predictions_with_a_frame_stride(tmp_path, capsys):
    # Usage is checked before any file is read, so missing inputs do not
    # turn this into a runtime error.
    out = tmp_path / "o.txt"
    rc = main(
        [
            "track",
            "--dets", str(tmp_path / "dets.txt"),
            "--embeddings", str(tmp_path / "embeddings.txt"),
            "--predictions", str(tmp_path / "preds.txt"),
            "--frame-stride", "2",
            "--out", str(out),
        ]
    )
    assert rc == 2
    assert "--frame-stride" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stride", ["0", "-3"])
def test_track_rejects_a_frame_stride_below_one(tmp_path, capsys, stride):
    # Checked before any file is read: the inputs do not exist.
    out = tmp_path / "o.txt"
    rc = main(
        [
            "track",
            "--dets", str(tmp_path / "dets.txt"),
            "--embeddings", str(tmp_path / "embeddings.txt"),
            "--frame-stride", stride,
            "--out", str(out),
        ]
    )
    assert rc == 2
    assert f"--frame-stride must be >= 1, got {stride}" in capsys.readouterr().err
    assert not out.exists()


def case(flags, message):
    return pytest.param(flags.split(), message, id=flags)


def non_finite(flag, message="{flag} must be finite, got {value}"):
    """The cases of a float flag given NaN and either infinity."""
    return [case(f"{flag}={value}", message.format(flag=flag, value=value)) for value in ("nan", "inf", "-inf")]


# Every float flag of track given NaN, either infinity and a value out of
# range, and the int flags' bad values. NaN used to pass every check and drop
# every pair (each detection a new id); --nms-iou used to fail only after the
# whole stream had loaded; the rest exited 1 naming the config field. A
# negative value after a space that argparse does not take for a number
# (-1e-3, -inf, -nan) used to fail as "expected one argument".
TRACK_FLAG_ERRORS = [
    case("--w1 -1e-3", "--w1 must lie in [0, 1], got -0.001"),
    case("--w2 -inf", "--w2 must lie in [0, 1], got -inf"),
    case("--nms-iou -1e-3", "--nms-iou must lie in [0, 1], got -0.001"),
    case("--min-affinity -nan", "--min-affinity must be finite, got nan"),
    *non_finite("--w1", "{flag} must lie in [0, 1], got {value}"),
    case("--w1=1.5", "--w1 must lie in [0, 1], got 1.5"),
    *non_finite("--w2", "{flag} must lie in [0, 1], got {value}"),
    case("--w2=-0.5", "--w2 must lie in [0, 1], got -0.5"),
    case("--w1=0.5 --w2=nan", "--w2 must lie in [0, 1], got nan"),
    case("--w1=-inf --w2=0.5", "--w1 must lie in [0, 1], got -inf"),
    case("--w1=0.3 --w2=0.3", "--w1 and --w2 must sum to 1, got 0.3 + 0.3"),
    case("--w1=1 --w2=1", "--w1 and --w2 must sum to 1, got 1.0 + 1.0"),
    *non_finite("--min-affinity"),
    case("--min-affinity=1.5", "--min-affinity must lie in [0, 1], got 1.5"),
    *non_finite("--det-threshold"),
    case("--det-threshold=2", "--det-threshold must lie in [0, 1], got 2.0"),
    *non_finite("--embedding-momentum"),
    case("--embedding-momentum=2", "--embedding-momentum must lie in [0, 1], got 2.0"),
    *non_finite("--nms-iou", "{flag} must lie in [0, 1], got {value}"),
    case("--nms-iou=1.5", "--nms-iou must lie in [0, 1], got 1.5"),
    case("--buffer-size=0", "--buffer-size must be >= 1, got 0"),
    case("--propagate-frames=-1", "--propagate-frames must be >= 0, got -1"),
    case("--propagate-frames=20", "--propagate-frames (20) must not exceed --buffer-size (10)"),
]


@pytest.mark.parametrize("flags, message", TRACK_FLAG_ERRORS)
def test_track_rejects_bad_tracker_flags_before_reading_files(tmp_path, capsys, flags, message):
    # A usage error that names every flag involved. The inputs do not exist:
    # the flags must fail first.
    out = tmp_path / "hyp.txt"
    rc = main(
        [
            "track",
            "--dets", str(tmp_path / "dets.txt"),
            "--embeddings", str(tmp_path / "embeddings.txt"),
            "--out", str(out),
            *flags,
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_the_smallest_boxes_a_config_allows_survive_simulate_and_track(tmp_path):
    config = tmp_path / "sim.cfg"
    config.write_text("seed=0\nnum_identities=3\nframes=20\nbox_size_range=1,1\nsize_noise=0.3\n")
    scene = simulate(tmp_path, config)
    out = tmp_path / "hyp.txt"
    rc = main(
        ["track", "--dets", str(scene / "dets.txt"), "--embeddings", str(scene / "embeddings.txt"), "--out", str(out)]
    )
    assert rc == 0
    assert out.read_text()


@pytest.mark.parametrize(
    "bad_line",
    [
        "1,0,10,20,30,40,1,-1,-1,-1",  # repeats line 1's key
        "1,99,10,20,30,40,1,-1,-1,-1",  # frame 1 has no detection 99
    ],
)
def test_track_rejects_bad_predictions_before_tracking(tmp_path, tiny_config, capsys, bad_line):
    scene = simulate(tmp_path, tiny_config)
    pred = tmp_path / "predictions.txt"
    pred.write_text("1,0,10,20,30,40,1,-1,-1,-1\n2,0,10,20,30,40,1,-1,-1,-1\n" + bad_line + "\n")
    out = tmp_path / "hyp.txt"
    rc = main(
        [
            "track",
            "--dets", str(scene / "dets.txt"),
            "--embeddings", str(scene / "embeddings.txt"),
            "--predictions", str(pred),
            "--out", str(out),
        ]
    )
    assert rc == 1
    assert "predictions.txt:3:" in capsys.readouterr().err
    assert not out.exists()


def test_track_rejects_non_finite_embedding_before_tracking(tmp_path, tiny_config, capsys):
    scene = simulate(tmp_path, tiny_config)
    emb = scene / "embeddings.txt"
    lines = emb.read_text().splitlines()
    frame, index, *values = lines[5].split(",")
    lines[5] = ",".join([frame, index] + ["nan"] * len(values))
    emb.write_text("\n".join(lines) + "\n")
    out = tmp_path / "hyp.txt"
    rc = main(["track", "--dets", str(scene / "dets.txt"), "--embeddings", str(emb), "--out", str(out)])
    assert rc == 1
    assert "embeddings.txt:6:" in capsys.readouterr().err
    assert not out.exists()




@pytest.mark.parametrize(
    ("column", "value", "message"),
    [
        (4, "-30", "BBox needs positive size"),
        (6, "1.5", "confidence must lie in [0, 1], got 1.5"),
        (0, "1.0", "malformed value"),
        (2, "nan", "BBox.cx must be finite"),
    ],
)
def test_track_rejects_a_bad_detection_row_before_tracking(tmp_path, tiny_config, capsys, monkeypatch, column, value,
                                                           message):
    # The reader names the line of the bad row; the tracker never starts.
    def track_stream(*args, **kwargs):
        raise AssertionError("track_stream must not run on a bad detection file")

    monkeypatch.setattr("idtrack.cli.track_stream", track_stream)
    scene = simulate(tmp_path, tiny_config)
    dets = scene / "dets.txt"
    lines = dets.read_text().splitlines()
    fields = lines[40].split(",")
    fields[column] = value
    dets.write_text("\n".join(with_line(lines, 40, ",".join(fields))) + "\n")
    out = tmp_path / "hyp.txt"
    rc = main(["track", "--dets", str(dets), "--embeddings", str(scene / "embeddings.txt"), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dets}:41: ") and message in err
    assert not out.exists()


# Boxes that every reader used to accept and that then broke the tracker or
# the scorer. Each now fails at its own line before any step, and nothing is
# written.
OUT_OF_DOMAIN = [
    # IoU inf / inf: frame 2 failed with "affinity matrix contains non-finite
    # entries", which named no line.
    ("track", ["1,-1,0,0,1e200,1e200,0.9,-1,-1,-1", "2,-1,0,0,1e200,1e200,0.9,-1,-1,-1"],
     "box cx must be at most 1e+08 in magnitude, got 5e+199"),
    # The areas underflowed to 0: NMS divided 0 by 0 with a RuntimeWarning,
    # kept both boxes, and tracking failed at frame 2.
    ("track", ["1,-1,0,0,1e-170,1e-170,0.9,-1,-1,-1", "1,-1,0,0,1e-170,1e-170,0.9,-1,-1,-1",
               "2,-1,0,0,1e-170,1e-170,0.9,-1,-1,-1"], "box sides must be at least 6e-07, got w=1e-170, h=1e-170"),
    # Tracked with exit 0 into a hyp.txt of width 0.000000, which read_gt rejects.
    ("track", ["1,-1,10,10,4e-7,4e-7,0.9,-1,-1,-1"], "box sides must be at least 6e-07"),
    # As both gt and hyp: MOTA -100.00, FP 1 and FN 1.
    ("eval", ["1,1,0,0,1e200,1e200,1,-1,-1,-1"], "box cx must be at most 1e+08 in magnitude"),
]


@pytest.mark.parametrize(("command", "lines", "message"), OUT_OF_DOMAIN)
def test_a_box_outside_the_domain_fails_at_its_line_before_any_step(tmp_path, capsys, monkeypatch, command, lines,
                                                                   message):
    # Each bad box is on line 1.
    def never(*args, **kwargs):
        raise AssertionError(f"{command} must not start on an out-of-domain box")

    monkeypatch.setattr("idtrack.cli.track_stream", never)
    monkeypatch.setattr("idtrack.cli.evaluate", never)
    data = tmp_path / "boxes.txt"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "hyp.txt"
    if command == "track":
        argv = ["track", "--dets", str(data), "--w2", "0", "--out", str(out)]
    else:
        argv = ["eval", "--gt", str(data), "--hyp", str(data)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {data}:1: {message}")
    assert captured.out == "" and not out.exists()


def test_simulate_and_track_build_no_detection_objects(tmp_path, tiny_config, monkeypatch):
    built = []
    original = Detection.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Detection, "__init__", counting_init)
    scene = simulate(tmp_path, tiny_config)
    out = tmp_path / "hyp.txt"
    assert main(["track", "--dets", str(scene / "dets.txt"), "--embeddings", str(scene / "embeddings.txt"),
                 "--out", str(out)]) == 0
    assert built == []
    rows = list(read_detections(scene / "dets.txt")[1])  # the counter sees views when someone asks for them
    assert len(built) == len(rows) > 0


def test_the_pipeline_and_an_online_replay_build_no_rows(tmp_path, monkeypatch):
    # Rows (``BBox``es and ``TrackOutput``s) are built only when a caller asks
    # for them. simulate, track, eval and ablate build none, nor does a
    # frame-by-frame replay that steps a tracker on what NMS keeps of the
    # views that pass the confidence filter.
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text("num_identities=6\nframes=40\narena=400,300\nembedding_dim=8\nfp_rate=0.6\nocclusion_events=3\n"
                      "occlusion_duration=7,9\n")
    built = {"boxes": 0, "rows": 0}
    check, rows = BBox.__post_init__, TrackOutputs._rows

    def counting_check(self):
        built["boxes"] += 1
        check(self)

    def counting_rows(self, at):
        built["rows"] += 1
        return rows(self, at)

    monkeypatch.setattr(BBox, "__post_init__", counting_check)
    monkeypatch.setattr(TrackOutputs, "_rows", counting_rows)
    scene, hyp = tmp_path / "scene", tmp_path / "hyp.txt"
    assert main(["simulate", "--config", str(sim_cfg), "--seed", "3", "--out-dir", str(scene)]) == 0
    assert main(["track", "--dets", str(scene / "dets.txt"), "--embeddings", str(scene / "embeddings.txt"),
                 "--out", str(hyp)]) == 0
    assert main(["eval", "--gt", str(scene / "gt.txt"), "--hyp", str(hyp)]) == 0
    assert main(["ablate", "--config", str(sim_cfg), "--seed", "3", "--strides", "1,10",
                 "--out-dir", str(tmp_path / "runs")]) == 0
    dets = load_detections(scene / "dets.txt", scene / "embeddings.txt")
    tracker, steps = Tracker(TrackerConfig()), []
    threshold = tracker.config.det_threshold
    for frame in range(1, max(dets) + 1):
        kept = nms([d for d in dets.get(frame, []) if d.confidence >= threshold], DEFAULT_NMS_IOU)
        steps.append(tracker.step(kept, frame))
    assert built == {"boxes": 0, "rows": 0}
    assert list(steps[-1]) and BBox(0.0, 0.0, 1.0, 1.0)
    assert built["rows"] == 1 and built["boxes"] >= 1  # the counters see what is asked for


def with_line(lines, k, line):
    return lines[:k] + [line] + lines[k + 1:]


@pytest.mark.parametrize(
    ("edit", "where"),
    [
        (lambda lines: with_line(lines, 0, "dim=abc"), "embeddings.txt:1:"),
        (lambda lines: with_line(lines, 4, lines[2]), "embeddings.txt:5:"),  # repeats line 3's key
        (lambda lines: lines + ["1,99," + lines[1].split(",", 2)[2]], None),  # frame 1 has no detection 99
        (lambda lines: with_line(lines, 3, lines[3] + "\u00e9"), "embeddings.txt:4:"),
    ],
)
def test_track_rejects_a_bad_sidecar_before_tracking(tmp_path, tiny_config, capsys, edit, where):
    scene = simulate(tmp_path, tiny_config)
    emb = scene / "embeddings.txt"
    lines = edit(emb.read_text().splitlines())
    emb.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    out = tmp_path / "hyp.txt"
    rc = main(["track", "--dets", str(scene / "dets.txt"), "--embeddings", str(emb), "--out", str(out)])
    assert rc == 1
    assert (where or f"embeddings.txt:{len(lines)}:") in capsys.readouterr().err
    assert not out.exists()


def test_eval_sweep(tmp_path, tiny_config, capsys):
    scene = simulate(tmp_path, tiny_config)
    hyp = tmp_path / "hyp.txt"
    main(
        [
            "track",
            "--dets", str(scene / "dets.txt"),
            "--embeddings", str(scene / "embeddings.txt"),
            "--out", str(hyp),
        ]
    )
    capsys.readouterr()
    rc = main(
        [
            "eval",
            "--gt", str(scene / "gt.txt"),
            "--hyp", str(hyp),
            "--sweep",
            "--thresholds", "0.3,0.6",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "thr=0.30" in out and "thr=0.60" in out
    assert "best_mota=" in out
    assert "best_mota_row_mota=" in out


def with_confidence(line, conf):
    fields = line.split(",")
    fields[6] = conf
    return ",".join(fields)


@pytest.mark.parametrize("sweep", [[], ["--sweep"]])
@pytest.mark.parametrize(
    ("tail", "message"),
    [
        (lambda last: [last, last], "repeated id {id} in frame {frame}"),
        (lambda last: [with_confidence(last, "nan")], "confidence must be finite, got nan"),
        (lambda last: ["", with_confidence(last, "-inf")], "confidence must be finite, got -inf"),
    ],
)
def test_eval_rejects_a_bad_result_row_at_read_time(tmp_path, tiny_config, capsys, monkeypatch, sweep, tail, message):
    # A repeated (frame, id) or a non-finite confidence in the last frame fails
    # as the file is read, naming its line, before any frame is scored.
    def score(*args, **kwargs):
        raise AssertionError("no frame may be scored")

    monkeypatch.setattr("idtrack.cli.evaluate", score)
    monkeypatch.setattr("idtrack.cli.sweep_thresholds", score)
    scene = simulate(tmp_path, tiny_config)
    hyp = tmp_path / "hyp.txt"
    assert main(["track", "--dets", str(scene / "dets.txt"), "--embeddings", str(scene / "embeddings.txt"),
                 "--out", str(hyp)]) == 0
    capsys.readouterr()
    lines = hyp.read_text().splitlines()
    frame, obj_id = lines[-1].split(",")[:2]
    assert frame == "30"  # the last frame
    lines = lines[:-1] + tail(lines[-1])
    hyp.write_text("\n".join(lines) + "\n")
    rc = main(["eval", "--gt", str(scene / "gt.txt"), "--hyp", str(hyp), *sweep])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {hyp}:{len(lines)}: {message.format(id=obj_id, frame=frame)}\n"


IOU_GATE_ERRORS = [
    *non_finite("--iou-gate", "{flag} must lie in (0, 1], got {value}"),
    case("--iou-gate -inf", "--iou-gate must lie in (0, 1], got -inf"),
    case("--iou-gate -1e-3", "--iou-gate must lie in (0, 1], got -0.001"),
    case("--iou-gate=0", "--iou-gate must lie in (0, 1], got 0.0"),
    case("--iou-gate=1.5", "--iou-gate must lie in (0, 1], got 1.5"),
    case("--iou-gate=-0.5", "--iou-gate must lie in (0, 1], got -0.5"),
]


@pytest.mark.parametrize("flags, message", IOU_GATE_ERRORS)
def test_eval_checks_the_iou_gate_before_reading_files(tmp_path, capsys, flags, message):
    rc = main(["eval", "--gt", str(tmp_path / "nope.txt"), "--hyp", str(tmp_path / "nope2.txt"), *flags])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def ablate_refuses(tmp_path, monkeypatch, capsys, flags, message):
    # A usage error before the config file is read or the scene is built.
    def generate(config):
        raise AssertionError(f"generate must not run for {flags}")

    monkeypatch.setattr("idtrack.cli.generate", generate)
    out_dir = tmp_path / "runs"
    rc = main(["ablate", "--config", str(tmp_path / "nope.cfg"), "--strides", "1", "--out-dir", str(out_dir), *flags])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("flags, message", IOU_GATE_ERRORS)
def test_ablate_checks_the_iou_gate_before_building_the_scene(tmp_path, monkeypatch, capsys, flags, message):
    ablate_refuses(tmp_path, monkeypatch, capsys, flags, message)


def test_eval_missing_file_returns_one(tmp_path, capsys):
    rc = main(["eval", "--gt", str(tmp_path / "nope.txt"), "--hyp", str(tmp_path / "nope.txt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_ablate_runs_all_variants(tmp_path, tiny_config, capsys):
    out_dir = tmp_path / "runs"
    rc = main(
        [
            "ablate",
            "--config", str(tiny_config),
            "--strides", "1,3",
            "--out-dir", str(out_dir),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    for name in ABLATION_MODELS:
        assert f"{name}@s1" in out
        assert f"{name}@s3" in out
        assert (out_dir / f"{name}_s1.txt").exists()
        assert (out_dir / f"{name}_s3.txt").exists()
    assert "id_assoc_s3_mota=" in out


@pytest.mark.parametrize(
    "flags, message",
    [*non_finite("--det-threshold"), case("--det-threshold=2", "--det-threshold must lie in [0, 1], got 2.0"),
     case("--det-threshold -nan", "--det-threshold must be finite, got nan"),
     case("--det-threshold -1e-3", "--det-threshold must lie in [0, 1], got -0.001")],
)
def test_ablate_checks_det_threshold_before_building_the_scene(tmp_path, monkeypatch, capsys, flags, message):
    ablate_refuses(tmp_path, monkeypatch, capsys, flags, message)


def test_ablate_rejects_bad_strides(tmp_path, tiny_config, capsys):
    # Usage errors: argparse exits 2 and names the flag before any scene is built.
    for strides in ("0,2", "1,x", "1.5", "", "1,,2"):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--config", str(tiny_config), "--strides", strides])
        assert exc.value.code == 2
        assert "argument --strides:" in capsys.readouterr().err


@pytest.mark.parametrize("thresholds", ["0.1,abc", "0.5,", "nan", "0.2,inf"])
def test_eval_rejects_bad_thresholds(tmp_path, capsys, thresholds):
    # Checked before any file is read: the inputs do not exist.
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "eval",
                "--gt", str(tmp_path / "gt.txt"),
                "--hyp", str(tmp_path / "hyp.txt"),
                "--sweep",
                "--thresholds", thresholds,
            ]
        )
    assert exc.value.code == 2
    assert "argument --thresholds:" in capsys.readouterr().err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["track"])  # missing required arguments
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_ablation_models_are_the_documented_three():
    assert list(ABLATION_MODELS) == ["iou-only", "iou-motion", "id-assoc"]
    assert ABLATION_MODELS["iou-only"].weights.identity == 0.0
    assert ABLATION_MODELS["iou-only"].motion_propagate_frames == 0
    assert ABLATION_MODELS["iou-motion"].motion_propagate_frames == 5
    assert ABLATION_MODELS["id-assoc"].weights.identity == 0.5

import pytest

from idtrack.cli import ABLATION_MODELS, main
from idtrack.mot_io import read_detections, read_embeddings, read_gt


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
    dim, vectors = read_embeddings(out_dir / "embeddings.txt")
    assert sorted(gt) == list(range(1, 31))
    assert dim == 16
    assert len(vectors) == sum(len(v) for v in dets.values())


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


def test_track_accepts_presets_and_overrides(tmp_path, tiny_config):
    scene = simulate(tmp_path, tiny_config)
    for extra in (
        ("--preset", "mot16"),
        ("--w1", "0.3", "--w2", "0.7"),
        ("--w2", "0.0"),
        ("--frame-stride", "2"),
        ("--write-interpolated",),
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
        assert rc == 0


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
    assert "--embeddings" in capsys.readouterr().err
    assert not out.exists()
    assert main([*args, "--preset", "iou-only"]) == 0


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

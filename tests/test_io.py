import numpy as np
import pytest

from idtrack.geometry import BBox, Detection
from idtrack.mot_io import (
    load_detections,
    read_config,
    read_detections,
    read_embeddings,
    read_gt,
    read_predictions,
    read_scored_hypotheses,
    write_detections,
    write_embeddings,
    write_gt,
    write_results,
)
from idtrack.sim import SimConfig, generate
from idtrack.tracker import TrackOutput


def unit(vec):
    vec = np.asarray(vec, dtype=np.float64)
    return vec / np.linalg.norm(vec)


def test_parse_worked_example(tmp_path):
    p = tmp_path / "dets.txt"
    p.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n")
    dets = read_detections(p)
    assert list(dets) == [1]
    d = dets[1][0]
    assert d.box == BBox(25.0, 40.0, 30.0, 40.0)
    assert d.confidence == 0.9
    assert d.frame == 1
    assert d.embedding is None


def test_blank_lines_are_skipped(tmp_path):
    p = tmp_path / "dets.txt"
    p.write_text("\n1,-1,10,20,30,40,0.9,-1,-1,-1\n\n\n2,-1,10,20,30,40,0.8,-1,-1,-1\n")
    assert sorted(read_detections(p)) == [1, 2]


def test_malformed_lines_name_the_spot(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n1,-1,oops,20,30,40,0.9,-1,-1,-1\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2"):
        read_detections(p)
    p.write_text("1,-1,10,20\n")
    with pytest.raises(ValueError, match="7 comma-separated fields"):
        read_detections(p)
    p.write_text("0,-1,10,20,30,40,0.9,-1,-1,-1\n")
    with pytest.raises(ValueError, match="1-based"):
        read_detections(p)
    p.write_text("1,-1,10,20,-30,40,0.9,-1,-1,-1\n")
    with pytest.raises(ValueError, match=r"bad\.txt:1"):
        read_detections(p)


def test_gt_round_trip(tmp_path):
    gt, _ = generate(SimConfig(seed=3, num_identities=4, frames=12))
    p = tmp_path / "gt.txt"
    write_gt(p, gt)
    back = read_gt(p)
    assert sorted(back) == sorted(gt)
    for f in gt:
        assert [i for i, _ in back[f]] == [i for i, _ in gt[f]]
        for (_, b1), (_, b2) in zip(back[f], gt[f]):
            assert b1.cx == pytest.approx(b2.cx, abs=1e-5)
            assert b1.w == pytest.approx(b2.w, abs=1e-5)


def test_written_files_are_parse_stable(tmp_path):
    # Parsing a written file and writing it again must reproduce the bytes:
    # the 6-decimal format is a fixed point of parse/format.
    gt, dets = generate(SimConfig(seed=5, num_identities=5, frames=15, fp_rate=0.5))
    gt_path, second = tmp_path / "a.txt", tmp_path / "b.txt"
    write_gt(gt_path, gt)
    write_gt(second, read_gt(gt_path))
    assert gt_path.read_bytes() == second.read_bytes()

    d1, d2 = tmp_path / "d1.txt", tmp_path / "d2.txt"
    write_detections(d1, dets)
    write_detections(d2, read_detections(d1))
    assert d1.read_bytes() == d2.read_bytes()


def test_gt_rejects_anonymous_ids(tmp_path):
    p = tmp_path / "gt.txt"
    p.write_text("1,-1,10,20,30,40,1,-1,-1,-1\n")
    with pytest.raises(ValueError, match="ids must be >= 1"):
        read_gt(p)


def test_scored_hypotheses_keep_confidence(tmp_path):
    p = tmp_path / "hyp.txt"
    p.write_text("1,3,10,20,30,40,0.625000,-1,-1,-1\n")
    stream = read_scored_hypotheses(p)
    hid, box, conf = stream[1][0]
    assert hid == 3
    assert conf == 0.625


def test_embedding_sidecar_round_trip(tmp_path):
    _, dets = generate(SimConfig(seed=7, num_identities=3, frames=8, embedding_dim=16))
    p = tmp_path / "emb.txt"
    write_embeddings(p, dets)
    dim, vectors = read_embeddings(p)
    assert dim == 16
    for f in dets:
        for idx, d in enumerate(dets[f]):
            got = vectors[(f, idx)]
            assert abs(np.linalg.norm(got) - 1.0) < 1e-9
            assert np.allclose(got, d.embedding, atol=1e-8)


def test_load_detections_attaches_embeddings(tmp_path):
    _, dets = generate(SimConfig(seed=9, num_identities=3, frames=6, embedding_dim=8))
    dp, ep = tmp_path / "dets.txt", tmp_path / "emb.txt"
    write_detections(dp, dets)
    write_embeddings(ep, dets)
    loaded = load_detections(dp, ep)
    for f in loaded:
        assert all(d.embedding is not None for d in loaded[f])
        assert len(loaded[f]) == len(dets[f])
    bare = load_detections(dp)
    assert all(d.embedding is None for v in bare.values() for d in v)


def test_load_detections_requires_full_sidecar(tmp_path):
    dp, ep = tmp_path / "dets.txt", tmp_path / "emb.txt"
    dp.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n")
    ep.write_text("dim=2\n")
    with pytest.raises(ValueError, match="no embedding"):
        load_detections(dp, ep)


def test_embedding_header_and_field_count(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("1,0,1.0,0.0\n")
    with pytest.raises(ValueError, match="dim=D"):
        read_embeddings(p)
    p.write_text("dim=3\n1,0,1.0,0.0\n")
    with pytest.raises(ValueError, match="expected 5 fields"):
        read_embeddings(p)
    p.write_text("")
    with pytest.raises(ValueError, match="empty embedding file"):
        read_embeddings(p)


def test_embedding_zero_vector_rejected(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("dim=2\n1,0,0.0,0.0\n")
    with pytest.raises(ValueError, match="zero-norm"):
        read_embeddings(p)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_embedding_non_finite_rejected(tmp_path, bad):
    # A NaN norm would slip past both the zero-norm and the deviation check.
    p = tmp_path / "emb.txt"
    p.write_text(f"dim=2\n1,0,1.0,0.0\n1,1,{bad},0.0\n")
    with pytest.raises(ValueError, match=r"emb\.txt:3: .*non-finite"):
        read_embeddings(p)


def test_denormalized_embedding_warns_and_fixes(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("dim=2\n1,0,3.0,4.0\n")
    with pytest.warns(UserWarning, match="re-normalizing"):
        _, vectors = read_embeddings(p)
    assert np.allclose(vectors[(1, 0)], [0.6, 0.8], atol=1e-12)


def test_write_results_skips_interpolated_by_default(tmp_path):
    outputs = [
        TrackOutput(2, 1, BBox(10.0, 10.0, 4.0, 4.0), 0.9),
        TrackOutput(1, 1, BBox(9.0, 10.0, 4.0, 4.0), 0.9),
        TrackOutput(3, 1, BBox(11.0, 10.0, 4.0, 4.0), 0.9, interpolated=True),
    ]
    p = tmp_path / "out.txt"
    write_results(p, outputs)
    lines = p.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("1,1,") and lines[1].startswith("2,1,")

    write_results(p, outputs, include_interpolated=True)
    assert len(p.read_text().splitlines()) == 3


def test_write_results_rejects_bad_ids(tmp_path):
    with pytest.raises(ValueError):
        write_results(tmp_path / "x.txt", [TrackOutput(1, 0, BBox(0, 0, 1, 1), 0.5)])


def test_predictions_round_trip(tmp_path):
    p = tmp_path / "pred.txt"
    p.write_text("1,0,10,20,30,40,1,-1,-1,-1\n1,1,50,60,30,40,1,-1,-1,-1\n")
    preds = read_predictions(p, {1: 2})
    assert set(preds) == {(1, 0), (1, 1)}
    assert preds[(1, 0)] == BBox(25.0, 40.0, 30.0, 40.0)


def test_predictions_reject_a_repeated_key(tmp_path):
    p = tmp_path / "pred.txt"
    p.write_text("1,0,10,20,30,40,1,-1,-1,-1\n2,0,10,20,30,40,1,-1,-1,-1\n1,0,50,60,30,40,1,-1,-1,-1\n")
    with pytest.raises(ValueError, match=r"pred\.txt:3: repeated prediction for frame 1 detection 0"):
        read_predictions(p, {1: 1, 2: 1})


@pytest.mark.parametrize(
    ("line", "counts"),
    [
        ("1,1,10,20,30,40,1,-1,-1,-1", {1: 1}),  # one past the last detection
        ("1,99,10,20,30,40,1,-1,-1,-1", {1: 1}),
        ("3,0,10,20,30,40,1,-1,-1,-1", {1: 1}),  # a frame with no detections
        ("1,-1,10,20,30,40,1,-1,-1,-1", {1: 1}),
    ],
)
def test_predictions_reject_an_index_with_no_detection(tmp_path, line, counts):
    p = tmp_path / "pred.txt"
    p.write_text("1,0,10,20,30,40,1,-1,-1,-1\n" + line + "\n")
    with pytest.raises(ValueError, match=r"pred\.txt:2: "):
        read_predictions(p, counts)


def test_read_config(tmp_path):
    p = tmp_path / "sim.cfg"
    p.write_text(
        "# benchmark overrides\n"
        "seed = 12\n"
        "arena=800,600  # keep it small\n"
        "\n"
        "miss_rate=0.02\n"
    )
    cfg = read_config(p)
    assert cfg == {"seed": "12", "arena": "800,600", "miss_rate": "0.02"}
    p.write_text("seed 12\n")
    with pytest.raises(ValueError, match="key=value"):
        read_config(p)

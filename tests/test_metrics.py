import numpy as np
import pytest

from idtrack.geometry import BBox
from idtrack.metrics import (
    DEFAULT_SWEEP_THRESHOLDS,
    evaluate,
    format_report,
    format_table,
    sweep_thresholds,
)
from idtrack.sim import SimConfig, generate


def box(cx, cy, size=10.0):
    return BBox(float(cx), float(cy), size, size)


A = box(10, 10)
B = box(50, 50)
C = box(90, 90)
FAR = box(500, 500)


def mota_identity(report):
    return 1.0 - (report.fn + report.fp + report.ids) / max(report.gt_total, 1)


def test_golden_perfect_tracking():
    gt = {f: [(1, A), (2, B)] for f in (1, 2, 3)}
    hyp = {f: [(7, A), (9, B)] for f in (1, 2, 3)}
    r = evaluate(gt, hyp)
    assert (r.fp, r.fn, r.ids, r.frag) == (0, 0, 0, 0)
    assert r.gt_total == 6 and r.matches == 6
    assert r.mota == 1.0
    assert r.motp == 1.0
    assert r.mt == 2 and r.ml == 0
    assert r.mota == mota_identity(r)


def test_golden_empty_hypothesis():
    gt = {f: [(1, A), (2, B)] for f in range(1, 6)}
    r = evaluate(gt, {})
    assert (r.fp, r.fn, r.ids) == (0, 10, 0)
    assert r.gt_total == 10
    assert r.mota == 0.0
    assert r.motp == 0.0  # no matches at all
    assert r.mt == 0 and r.ml == 2
    assert r.mota == mota_identity(r)


def test_golden_identity_swap():
    gt = {f: [(1, A)] for f in (1, 2, 3, 4)}
    hyp = {1: [(1, A)], 2: [(1, A)], 3: [(2, A)], 4: [(2, A)]}
    r = evaluate(gt, hyp)
    assert (r.fp, r.fn, r.ids, r.frag) == (0, 0, 1, 0)
    assert r.mota == 0.75
    assert r.mt == 1
    assert r.mota == mota_identity(r)


def test_golden_fragmentation():
    gt = {f: [(1, A)] for f in (1, 2, 3, 4, 5)}
    hyp = {f: [(1, A)] for f in (1, 2, 4, 5)}
    r = evaluate(gt, hyp)
    assert (r.fp, r.fn, r.ids, r.frag) == (0, 1, 0, 1)
    assert r.mota == pytest.approx(0.8)
    assert r.mt == 1  # covered 4 of 5 frames, exactly the cutoff
    assert r.matches == 4
    assert r.mota == mota_identity(r)


def test_golden_mixed_errors():
    gt = {f: [(1, A), (2, B)] for f in (1, 2, 3)}
    hyp = {
        1: [(1, A), (2, B)],
        2: [(1, A), (9, FAR)],
        3: [(1, A), (2, B)],
    }
    r = evaluate(gt, hyp)
    assert (r.fp, r.fn, r.ids, r.frag) == (1, 1, 0, 1)
    assert r.gt_total == 6 and r.matches == 5
    assert r.mota == 1.0 - 2.0 / 6.0
    assert r.motp == 1.0
    assert r.mt == 1 and r.ml == 0  # gt 2 covered 2/3: neither MT nor ML
    assert r.mota == mota_identity(r)


def test_recovery_after_gap_is_not_a_switch():
    # The correspondence memory survives frames where the hypothesis is gone.
    gt = {f: [(1, A)] for f in range(1, 8)}
    hyp = {f: [(4, A)] for f in (1, 2, 5, 6, 7)}
    r = evaluate(gt, hyp)
    assert r.ids == 0
    assert r.frag == 1
    assert r.fn == 2


def test_sub_gate_overlap_never_matches():
    shifted = BBox(18.0, 10.0, 10.0, 10.0)  # IoU 1/9 vs A
    gt = {1: [(1, A)]}
    hyp = {1: [(1, shifted)]}
    r = evaluate(gt, hyp, iou_gate=0.5)
    assert (r.fp, r.fn, r.matches) == (1, 1, 0)
    # The same overlap clears a looser gate.
    r = evaluate(gt, hyp, iou_gate=0.1)
    assert (r.fp, r.fn, r.matches) == (0, 0, 1)


def test_motp_averages_match_overlap():
    shifted = BBox(12.0, 10.0, 10.0, 10.0)  # IoU 8/12 vs A
    gt = {1: [(1, A)], 2: [(1, A)]}
    hyp = {1: [(1, A)], 2: [(1, shifted)]}
    r = evaluate(gt, hyp)
    assert r.motp == pytest.approx((1.0 + 8.0 / 12.0) / 2.0, abs=1e-12)


def test_report_rates_are_python_floats_on_a_generated_scene():
    # Simulated boxes hold numpy scalars, so the scalar iou returns numpy floats.
    gt, _ = generate(SimConfig(seed=5, num_identities=4, frames=10))
    r = evaluate(gt, gt)
    assert r.matches > 0
    assert type(r.mota) is float
    assert type(r.motp) is float


def test_entry_order_does_not_matter():
    rng = np.random.default_rng(67)
    gt = {f: [(i, box(20 * i, 30 + 3 * f)) for i in range(1, 6)] for f in range(1, 15)}
    hyp = {
        f: [(i + 40, box(20 * i + rng.uniform(-2, 2), 30 + 3 * f)) for i in range(1, 6)]
        for f in range(1, 15)
    }
    base = evaluate(gt, hyp)
    for _ in range(5):
        shuffled_gt = {f: list(rng.permutation(len(v))) for f, v in gt.items()}
        g2 = {f: [gt[f][i] for i in idx] for f, idx in shuffled_gt.items()}
        shuffled_h = {f: list(rng.permutation(len(v))) for f, v in hyp.items()}
        h2 = {f: [hyp[f][i] for i in idx] for f, idx in shuffled_h.items()}
        assert evaluate(g2, h2) == base


def test_hypothesis_relabeling_does_not_matter():
    rng = np.random.default_rng(71)
    gt = {f: [(i, box(25 * i, 3 * f)) for i in range(1, 7)] for f in range(1, 20)}
    hyp = {
        f: [(i, box(25 * i + rng.uniform(-1.5, 1.5), 3 * f + rng.uniform(-1.5, 1.5)))
            for i in range(1, 7)]
        for f in range(1, 20)
    }
    base = evaluate(gt, hyp)
    relabel = {i: 1000 - 13 * i for i in range(1, 7)}
    renamed = {f: [(relabel[i], b) for i, b in v] for f, v in hyp.items()}
    assert evaluate(gt, renamed) == base


def test_duplicate_ids_rejected():
    gt = {3: [(1, A), (1, B)]}
    with pytest.raises(ValueError, match="frame 3"):
        evaluate(gt, {})
    with pytest.raises(ValueError, match="hypothesis"):
        evaluate({1: [(1, A)]}, {1: [(2, B), (2, C)]})


def test_gate_validation():
    with pytest.raises(ValueError):
        evaluate({}, {}, iou_gate=0.0)
    with pytest.raises(ValueError):
        evaluate({}, {}, iou_gate=1.2)


def test_empty_everything():
    r = evaluate({}, {})
    assert r.mota == 1.0  # nothing to get wrong
    assert r.gt_total == 0
    assert r.motp == 0.0


def test_sweep_picks_the_cleanest_threshold():
    gt = {f: [(1, A)] for f in (1, 2, 3, 4)}
    hyp = {f: [(1, A, 0.9), (9, FAR, 0.3)] for f in (1, 2, 3, 4)}
    result = sweep_thresholds(gt, hyp)
    assert len(result.rows) == len(DEFAULT_SWEEP_THRESHOLDS)
    fp_by_thr = [r.fp for _, r in result.rows]
    assert fp_by_thr == sorted(fp_by_thr, reverse=True), "FP must not rise with the cutoff"
    best_thr, best_mota = result.best["mota"]
    assert best_thr == pytest.approx(0.4)  # lowest of the tied best
    assert best_mota == 1.0
    assert dict(result.rows)[best_thr].mota == 1.0
    assert result.best["fp"] == (pytest.approx(0.4), 0.0)
    assert result.best["mota"][1] == 1.0


def test_sweep_keeps_boxes_on_the_cutoff():
    gt = {1: [(1, A)]}
    hyp = {1: [(1, A, 0.5)]}
    result = sweep_thresholds(gt, hyp, thresholds=(0.5,))
    assert result.rows[0][1].matches == 1


def test_sweep_needs_thresholds():
    with pytest.raises(ValueError):
        sweep_thresholds({}, {}, thresholds=())


def test_format_table_shape():
    r = evaluate({1: [(1, A)]}, {1: [(1, A)]})
    text = format_table([("run-a", r), ("run-b", r)])
    lines = text.splitlines()
    assert len(lines) == 3
    assert "MOTA" in lines[0] and "Frag" in lines[0]
    assert lines[1].startswith("run-a")
    assert "100.00" in lines[1]


def test_format_report_key_values():
    r = evaluate({1: [(1, A)]}, {1: [(1, A)]})
    text = format_report(r)
    assert "mota=100.0000" in text
    assert "ids=0" in text
    assert "gt_total=1" in text
    prefixed = format_report(r, prefix="x_")
    assert "x_mota=100.0000" in prefixed

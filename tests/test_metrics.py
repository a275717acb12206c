import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import by_frame, iou_matrix
from idtrack import mot_io
from idtrack.affinity import iou
from idtrack.assignment import solve_max
from idtrack.geometry import BBox, IdStream, _box_rows
from idtrack.metrics import (
    DEFAULT_SWEEP_THRESHOLDS,
    ML_CUTOFF,
    MT_CUTOFF,
    MotReport,
    SweepResult,
    evaluate,
    format_report,
    format_table,
    sweep_thresholds,
)
from idtrack.sim import SimConfig, generate, subsample


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
    # The rates are Python floats, not numpy scalars, whatever form the boxes take.
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


def _reference_frame_entries(stream, frame, kind):
    entries = sorted(stream.get(frame, ()), key=lambda e: e[0])
    seen = set()
    for entry in entries:
        if entry[0] in seen:
            raise ValueError(f"duplicate {kind} id {entry[0]} in frame {frame}")
        seen.add(entry[0])
    return entries


def reference_evaluate(gt, hyp, iou_gate=0.5):
    """The earlier per-box ``evaluate`` over [(id, BBox)] lists, kept as the
    oracle: ``evaluate`` must return the same report, bit for bit, and
    raise the same errors."""
    if not 0.0 < iou_gate <= 1.0:
        raise ValueError(f"iou_gate must lie in (0, 1], got {iou_gate}")
    frames = sorted(set(gt) | set(hyp))
    corr = {}
    fp = fn = ids = matches = frag = 0
    iou_total = 0.0
    present, covered, ever_matched, last_status = {}, {}, set(), {}
    for f in frames:
        g_entries = _reference_frame_entries(gt, f, "gt")
        h_entries = _reference_frame_entries(hyp, f, "hypothesis")
        h_index = {hid: k for k, (hid, _) in enumerate(h_entries)}
        matched, used_h = {}, set()
        for gid, gbox in g_entries:
            hid = corr.get(gid)
            if hid is None or hid in used_h or hid not in h_index:
                continue
            overlap = iou(gbox, h_entries[h_index[hid]][1])
            if overlap >= iou_gate:
                matched[gid] = overlap
                used_h.add(hid)
        rem_g = [(gid, box) for gid, box in g_entries if gid not in matched]
        rem_h = [(hid, box) for hid, box in h_entries if hid not in used_h]
        if rem_g and rem_h:
            m = iou_matrix([b for _, b in rem_g], [b for _, b in rem_h])
            m = np.where(m >= iou_gate, m, 0.0)
            for ri, rj in solve_max(m, min_affinity=iou_gate).pairs:
                gid, hid = rem_g[ri][0], rem_h[rj][0]
                prev = corr.get(gid)
                if prev is not None and prev != hid:
                    ids += 1
                corr[gid] = hid
                matched[gid] = float(m[ri, rj])
                used_h.add(hid)
        matches += len(matched)
        iou_total += sum(matched.values())
        fn += len(g_entries) - len(matched)
        fp += len(h_entries) - len(used_h)
        for gid, _ in g_entries:
            present[gid] = present.get(gid, 0) + 1
            hit = gid in matched
            if hit:
                covered[gid] = covered.get(gid, 0) + 1
                if gid in ever_matched and last_status.get(gid) is False:
                    frag += 1
                ever_matched.add(gid)
            last_status[gid] = hit
    gt_total = sum(present.values())
    mt = ml = 0
    for gid, n in present.items():
        ratio = covered.get(gid, 0) / n
        if ratio >= MT_CUTOFF:
            mt += 1
        elif ratio <= ML_CUTOFF:
            ml += 1
    return MotReport(
        mota=1.0 - (fn + fp + ids) / max(gt_total, 1),
        motp=float(iou_total / matches) if matches else 0.0,
        ids=ids, mt=mt, ml=ml, frag=frag, fp=fp, fn=fn, gt_total=gt_total, matches=matches,
    )


def reference_sweep(gt, hyp, thresholds, iou_gate=0.5):
    """The earlier ``sweep_thresholds`` over [(id, BBox, score)] lists."""
    if not thresholds:
        raise ValueError("need at least one threshold")
    rows = []
    for thr in thresholds:
        filtered = {f: [(hid, box) for hid, box, score in entries if score >= thr] for f, entries in hyp.items()}
        rows.append((float(thr), reference_evaluate(gt, filtered, iou_gate)))
    best = {}
    for name in ("mota", "motp", "mt", "ids", "ml", "frag", "fp", "fn"):
        sign = 1.0 if name in ("mota", "motp", "mt") else -1.0
        pick = None
        for thr, report in rows:
            value = float(getattr(report, name))
            if pick is None or sign * value > sign * pick[1]:
                pick = (thr, value)
        best[name] = pick
    return SweepResult(tuple(rows), best)


COORDS = [10.0, 14.0, 20.0, 31.5, 40.0]
SIZES = [4.0, 8.0, 10.0]
SHIFTS = [0.0, 0.0, 0.5, -1.0, 2.0, -3.0, 6.0]
SCORES = [0.05, 0.3, 0.5, 0.7, 0.95]


@st.composite
def scored_streams(draw):
    """``(gt, hyp)`` list streams: 2-5 objects (ids from -3 to 40) moving
    over up to 10 frames, tracked under ids of their own with jittered
    boxes, dropped boxes, label swaps, false positives (ids from 41), one
    time in eight a repeated id, and frames missing from either stream.
    Each hypothesis row carries a score. One time in three the second
    object twins the first: one path, one track, so that both gt ids come
    to claim one hypothesis id."""
    objects = draw(st.lists(st.integers(-3, 40), min_size=2, max_size=5, unique=True))
    labels = draw(st.lists(st.integers(-3, 40), min_size=len(objects), max_size=len(objects), unique=True))
    label = dict(zip(objects, labels))
    path = {g: (draw(st.sampled_from(COORDS)), draw(st.sampled_from(COORDS)), draw(st.sampled_from(SIZES)),
                draw(st.integers(0, 2)), draw(st.integers(0, 1))) for g in objects}
    twins = draw(st.sampled_from([True, False, False]))
    if twins:
        path[objects[1]] = path[objects[0]]
    n_frames = draw(st.integers(1, 10))
    repeat_at = draw(st.integers(1, n_frames)) if draw(st.sampled_from([True] + [False] * 7)) else 0
    gt, hyp = {}, {}
    for f in range(1, n_frames + 1):
        g_rows, h_rows = [], []
        if draw(st.integers(0, 3)) == 0:  # two tracks swap labels from here on
            a, b = draw(st.permutations(objects))[:2]
            label[a], label[b] = label[b], label[a]
        for g in objects:
            x, y, size, vx, vy = path[g]
            box = BBox(x + vx * f, y + vy * f, size, size)
            if draw(st.integers(0, 6)):
                g_rows.append((g, box))
            if draw(st.integers(0, 5)) and not (twins and g == objects[1]):
                shifted = BBox(box.cx + draw(st.sampled_from(SHIFTS)), box.cy + draw(st.sampled_from(SHIFTS)), size, size)
                h_rows.append((label[g], shifted, draw(st.sampled_from(SCORES))))
        for j in range(draw(st.integers(0, 2))):  # false positives
            h_rows.append((41 + j, BBox(draw(st.sampled_from(COORDS)), 60.0, 8.0, 8.0), draw(st.sampled_from(SCORES))))
        if f == repeat_at:
            rows = draw(st.sampled_from([g_rows, h_rows]))
            if rows:
                rows.append(rows[draw(st.integers(0, len(rows) - 1))])
        if draw(st.integers(0, 7)):
            gt[f] = draw(st.permutations(g_rows))
        if draw(st.integers(0, 7)):
            hyp[f] = draw(st.permutations(h_rows))
    return gt, hyp


def outcome(score, *args):
    try:
        return score(*args)
    except ValueError as exc:
        return f"error: {exc}"


@settings(max_examples=400, deadline=None)
@given(scored_streams(), st.floats(0.3, 1.0), st.sampled_from([1, 1, 2, 3]))
def test_property_evaluate_and_sweep_match_the_reference(streams, gate, stride):
    gt, scored = streams
    packed = IdStream.pack(gt), IdStream.pack(scored)
    if stride > 1:  # the list streams' kept frames, renumbered as subsample renumbers a stream's
        gt, scored = ({(f - 1) // stride + 1: rows for f, rows in lists.items() if (f - 1) % stride == 0}
                      for lists in (gt, scored))
        packed = tuple(subsample(stream, stride) for stream in packed)
    hyp = {f: [(hid, box) for hid, box, _ in rows] for f, rows in scored.items()}
    expected = outcome(reference_evaluate, gt, hyp, gate)
    assert outcome(evaluate, gt, hyp, gate) == expected
    assert outcome(evaluate, *packed, gate) == expected
    assert outcome(evaluate, packed[0], hyp, gate) == expected

    thresholds = (0.2, 0.5, 0.8)
    expected = outcome(reference_sweep, gt, scored, thresholds, gate)
    assert outcome(sweep_thresholds, gt, scored, thresholds, gate) == expected
    assert outcome(sweep_thresholds, *packed, thresholds, gate) == expected


def id_stream(stream, order):
    """The rows of a list stream as one ``IdStream``, its rows of every frame
    taken in the order ``order``, so that frames interleave and come in any
    order; a frame without rows leaves none."""
    rows = [(f, *row) for f, entries in stream.items() for row in entries]
    rows = [rows[k] for k in order]
    return IdStream([r[0] for r in rows], [r[1] for r in rows], _box_rows([r[2] for r in rows]),
                    [r[3] if len(r) > 3 else 1.0 for r in rows])


def as_lists(stream):
    """An ``IdStream``'s frames as ``(id, box)`` lists (``by_frame`` keeps the scores)."""
    return {f: [(i, b) for i, b, _ in rows] for f, rows in by_frame(stream).items()}


def written(path, stream):
    try:
        mot_io.write_gt(path, stream)
    except ValueError as exc:
        return f"error: {exc}"
    return path.read_bytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scored_streams(), st.floats(0.3, 1.0), st.data())
def test_property_a_stream_scores_as_its_frames_its_lists_and_the_reference(tmp_path_factory, streams, gate, data):
    # The streams hold unsorted rows, frames out of order and interleaved,
    # repeated ids (one time in eight) and frames missing from either side;
    # the list streams they come from also hold empty frames.
    gt_lists, scored_lists = streams
    g, s = (id_stream(x, data.draw(st.permutations(range(sum(map(len, x.values()))))))
            for x in (gt_lists, scored_lists))
    for stream in (g, s):
        # Packing a stream's frames gives its rows grouped by frame, in order.
        frames = stream.frames.tolist()
        first = {f: frames.index(f) for f in frames}
        grouped = stream.take(np.array(sorted(range(len(frames)), key=lambda k: first[frames[k]]), dtype=np.intp))
        packed = IdStream.pack(by_frame(stream))
        assert [c.tobytes() for c in (packed.frames, packed.ids, packed.boxes, packed.confidence)] == \
            [c.tobytes() for c in (grouped.frames, grouped.ids, grouped.boxes, grouped.confidence)]
    hyp_lists = {f: [(i, b) for i, b, _ in rows] for f, rows in scored_lists.items()}
    expected = outcome(reference_evaluate, as_lists(g), as_lists(s), gate)
    assert outcome(reference_evaluate, gt_lists, hyp_lists, gate) == expected
    for gt in (g, by_frame(g), as_lists(g), gt_lists):
        for hyp in (s, by_frame(s), as_lists(s), hyp_lists):
            assert outcome(evaluate, gt, hyp, gate) == expected

    thresholds = (0.2, 0.5, 0.8)
    expected = outcome(reference_sweep, as_lists(g), by_frame(s), thresholds, gate)
    for gt, hyp in [(g, s), (by_frame(g), by_frame(s)), (g, by_frame(s)), (gt_lists, s), (g, scored_lists)]:
        assert outcome(sweep_thresholds, gt, hyp, thresholds, gate) == expected

    out = tmp_path_factory.mktemp("written")
    for stream in (g, s):
        assert written(out / "stream.txt", stream) == written(out / "frames.txt", IdStream.pack(by_frame(stream)))


@pytest.mark.parametrize(
    ("gt_frame", "hyp_frame"),
    [(1, 2), (2, 1), (2, 2)],  # the earlier frame's repeat is the error; on a tie, the gt's
)
def test_a_repeated_id_raises_what_the_reference_raises(gt_frame, hyp_frame):
    gt = {f: [(5, A), (2, B), (1, C)] for f in (1, 2, 3)}
    hyp = {f: [(8, A), (9, B)] for f in (1, 2, 3)}
    gt[gt_frame] = gt[gt_frame] + [(5, FAR), (2, C)]
    hyp[hyp_frame] = hyp[hyp_frame] + [(9, FAR)]
    with pytest.raises(ValueError) as expected:
        reference_evaluate(gt, hyp)
    for form in (lambda s: s, IdStream.pack):
        with pytest.raises(ValueError) as got:
            evaluate(form(gt), form(hyp))
        assert str(got.value) == str(expected.value)


def test_two_gt_ids_claiming_one_hypothesis_leave_it_to_the_lower_id():
    # gt 2 takes over hypothesis 7 while gt 1 is away; in frame 3 both still
    # claim it, gt 1 keeps it, and so gt 1 never loses track (no Frag).
    gt = {1: [(1, A)], 2: [(2, A)], 3: [(2, A), (1, A)], 4: [(1, A)]}
    hyp = {f: [(7, A)] for f in (1, 2, 3, 4)}
    expected = reference_evaluate(gt, hyp)
    assert (expected.frag, expected.fn, expected.ids) == (0, 1, 0)
    assert evaluate(gt, hyp) == expected
    assert evaluate(IdStream.pack(gt), IdStream.pack(hyp)) == expected

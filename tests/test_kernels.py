import math

import numpy as np
import pytest

from idtrack.geometry import BBox
from idtrack.kernels import MotionTargets, OimTable, correlate, decode_targets, encode_targets, oim_grad, oim_update


def naive_correlate(f_prev, f_curr, n):
    """Reference implementation: five explicit loops, no vectorization."""
    h, w, d = f_prev.shape
    k = 2 * n + 1
    out = np.zeros((h * k, w * k))
    for x in range(h):
        for y in range(w):
            for u in range(-n, n + 1):
                for v in range(-n, n + 1):
                    xx, yy = x + u, y + v
                    if 0 <= xx < h and 0 <= yy < w:
                        s = 0.0
                        for c in range(d):
                            s += f_prev[x, y, c] * f_curr[xx, yy, c]
                        out[x * k + u + n, y * k + v + n] = s
    return out


def unit(vec):
    vec = np.asarray(vec, dtype=np.float64)
    return vec / np.linalg.norm(vec)


def random_table(rng, dim, num_ids, momentum=0.5):
    cols = rng.normal(size=(dim, num_ids))
    cols /= np.linalg.norm(cols, axis=0)
    return OimTable(cols, momentum)


def oim_loss_reference(x, columns, true_id, scale):
    """Loss recomputed from scratch; works for non-unit x (finite differences)."""
    logits = scale * (columns.T @ x)
    m = logits.max()
    return m + math.log(np.sum(np.exp(logits - m))) - logits[true_id]


# ---------------------------------------------------------------- correlation


def test_correlate_matches_naive_loops():
    rng = np.random.default_rng(23)
    for _ in range(10):
        h, w, d = (int(v) for v in rng.integers(1, 7, size=3))
        f_prev = rng.normal(size=(h, w, d))
        f_curr = rng.normal(size=(h, w, d))
        got = correlate(f_prev, f_curr, n=2)
        want = naive_correlate(f_prev, f_curr, 2)
        assert got.shape == (h * 5, w * 5)
        assert np.max(np.abs(got - want)) < 1e-9


def test_correlate_zero_pads_outside():
    # A single spatial position: every shifted partner is out of bounds, so
    # only the center of the 3x3 block survives.
    f = np.ones((1, 1, 4))
    out = correlate(f, f, n=1)
    want = np.zeros((3, 3))
    want[1, 1] = 4.0
    assert np.array_equal(out, want)


def test_correlate_identical_maps_peak_at_center():
    rng = np.random.default_rng(29)
    f = rng.normal(size=(4, 4, 8))
    out = correlate(f, f, n=2)
    for x in range(4):
        for y in range(4):
            block = out[x * 5:(x + 1) * 5, y * 5:(y + 1) * 5]
            assert block[2, 2] == pytest.approx(np.dot(f[x, y], f[x, y]), abs=1e-12)


def test_correlate_shift_detection():
    # f_curr is f_prev shifted one column right; the (0, +1) offset of every
    # interior block must recover the self dot product.
    rng = np.random.default_rng(31)
    f_prev = rng.normal(size=(3, 5, 6))
    f_curr = np.zeros_like(f_prev)
    f_curr[:, 1:] = f_prev[:, :-1]
    out = correlate(f_prev, f_curr, n=1)
    for x in range(3):
        for y in range(4):  # last column shifts out of bounds
            block = out[x * 3:(x + 1) * 3, y * 3:(y + 1) * 3]
            assert block[1, 2] == pytest.approx(np.dot(f_prev[x, y], f_prev[x, y]), abs=1e-12)


def test_correlate_window_radius_zero():
    rng = np.random.default_rng(37)
    f_prev = rng.normal(size=(3, 3, 2))
    f_curr = rng.normal(size=(3, 3, 2))
    out = correlate(f_prev, f_curr, n=0)
    assert out.shape == (3, 3)
    assert np.allclose(out, np.einsum("xyd,xyd->xy", f_prev, f_curr), atol=1e-12)


def test_correlate_rejects_bad_shapes():
    with pytest.raises(ValueError):
        correlate(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        correlate(np.zeros((2, 2, 3)), np.zeros((2, 3, 3)))
    with pytest.raises(ValueError):
        correlate(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)), n=-1)


# ------------------------------------------------------------ motion targets


def test_encode_pure_translation():
    prev = BBox(0.0, 0.0, 2.0, 2.0)
    curr = BBox(3.0, -1.0, 2.0, 2.0)
    t = encode_targets(prev, curr)
    assert t.dx == pytest.approx(3.0, abs=1e-12)
    assert t.dy == pytest.approx(-1.0, abs=1e-12)
    assert t.dw == pytest.approx(0.0, abs=1e-12)
    assert t.dh == pytest.approx(0.0, abs=1e-12)


def test_encode_pure_scaling():
    prev = BBox(5.0, 5.0, 2.0, 4.0)
    curr = BBox(5.0, 5.0, 4.0, 2.0)
    t = encode_targets(prev, curr)
    assert t.dx == 0.0 and t.dy == 0.0
    assert t.dw == pytest.approx(math.log(2.0), abs=1e-12)
    assert t.dh == pytest.approx(-math.log(2.0), abs=1e-12)


def test_encode_normalized_form():
    prev = BBox(10.0, 10.0, 2.0, 4.0)
    curr = BBox(13.0, 8.0, 2.0, 4.0)
    t = encode_targets(prev, curr, normalized=True)
    assert t.dx == pytest.approx(1.5, abs=1e-12)
    assert t.dy == pytest.approx(-0.5, abs=1e-12)


def test_encode_decode_round_trip():
    rng = np.random.default_rng(41)
    for normalized in (False, True):
        for _ in range(500):
            prev = BBox(*rng.uniform(-50, 50, size=2), *rng.uniform(0.5, 40, size=2))
            curr = BBox(*rng.uniform(-50, 50, size=2), *rng.uniform(0.5, 40, size=2))
            back = decode_targets(prev, encode_targets(prev, curr, normalized), normalized)
            assert back.cx == pytest.approx(curr.cx, abs=1e-9)
            assert back.cy == pytest.approx(curr.cy, abs=1e-9)
            assert back.w == pytest.approx(curr.w, rel=1e-9)
            assert back.h == pytest.approx(curr.h, rel=1e-9)


def test_decode_worked_example():
    prev = BBox(0.0, 0.0, 2.0, 2.0)
    box = decode_targets(prev, MotionTargets(3.0, 0.0, math.log(2.0), 0.0))
    assert box.cx == pytest.approx(3.0, abs=1e-12)
    assert box.w == pytest.approx(4.0, abs=1e-12)
    assert box.h == pytest.approx(2.0, abs=1e-12)


# ----------------------------------------------------------------------- OIM


def test_oim_grad_worked_example():
    # Prototypes e0 and e1, x = e0, true id 0, scale 1: the softmax of (1, 0)
    # is (p, 1 - p) with p = 1 / (1 + e^-1), the loss is ln(1 + e^-1), and
    # the gradient is (p - 1) e0 + (1 - p) e1.
    table = OimTable(np.eye(2))
    x = np.array([1.0, 0.0])
    assert oim_loss_reference(x, table.columns, 0, 1.0) == pytest.approx(0.3132616875182228, abs=1e-12)
    assert oim_grad(x, table, true_id=0) == pytest.approx([-0.2689414213699951, 0.2689414213699951], abs=1e-12)


def test_oim_table_validation():
    with pytest.raises(ValueError):
        OimTable(np.ones((3, 2)))  # columns not unit norm
    with pytest.raises(ValueError):
        OimTable(np.zeros(3))
    with pytest.raises(ValueError):
        OimTable(np.eye(2), momentum=1.5)
    table = OimTable(np.eye(4), momentum=0.3)
    assert table.dim == 4 and table.num_ids == 4


@pytest.mark.parametrize("step", [oim_grad, oim_update])
@pytest.mark.parametrize(
    "x, true_id",
    [
        ([2.0, 0.0, 0.0], 0),  # not unit norm
        ([1.0, 0.0], 0),  # not the table's dim
        ([1.0, 0.0, 0.0], 3),  # no such identity
    ],
)
def test_oim_input_validation(step, x, true_id):
    with pytest.raises(ValueError):
        step(np.array(x), OimTable(np.eye(3)), true_id)


def test_oim_grad_vanishes_when_confident():
    # x sits exactly on its prototype and the scale is high: the softmax is
    # effectively one-hot and the gradient collapses.
    rng = np.random.default_rng(43)
    table = random_table(rng, 16, 6)
    x = table.columns[:, 2].copy()
    g = oim_grad(x, table, true_id=2, scale=50.0)
    assert np.linalg.norm(g) < 1e-6


def test_oim_grad_matches_finite_differences():
    rng = np.random.default_rng(47)
    h = 1e-6
    for scale in (1.0, 10.0):
        for _ in range(5):
            table = random_table(rng, 16, 8)
            x = unit(rng.normal(size=16))
            true_id = int(rng.integers(0, 8))
            g = oim_grad(x, table, true_id, scale)
            for i in range(16):
                step = np.zeros(16)
                step[i] = h
                fd = (
                    oim_loss_reference(x + step, table.columns, true_id, scale)
                    - oim_loss_reference(x - step, table.columns, true_id, scale)
                ) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_oim_update_renormalizes_and_keeps_others():
    rng = np.random.default_rng(53)
    table = random_table(rng, 8, 5, momentum=0.5)
    x = unit(rng.normal(size=8))
    before = table.columns.copy()
    updated = oim_update(x, table, true_id=3)
    assert np.array_equal(table.columns, before), "input table must not mutate"
    assert abs(np.linalg.norm(updated.columns[:, 3]) - 1.0) < 1e-12
    for j in (0, 1, 2, 4):
        assert np.array_equal(updated.columns[:, j], before[:, j])
    mixed = 0.5 * before[:, 3] + 0.5 * x
    assert np.allclose(updated.columns[:, 3], mixed / np.linalg.norm(mixed), atol=1e-12)


def test_oim_update_momentum_extremes():
    rng = np.random.default_rng(59)
    x = unit(rng.normal(size=6))
    frozen = random_table(rng, 6, 3, momentum=1.0)
    col = frozen.columns[:, 1].copy()
    assert np.allclose(oim_update(x, frozen, 1).columns[:, 1], col, atol=1e-12)
    overwrite = OimTable(frozen.columns, momentum=0.0)
    assert np.allclose(oim_update(x, overwrite, 1).columns[:, 1], x, atol=1e-12)


def test_oim_update_rejects_cancellation():
    table = OimTable(np.eye(2), momentum=0.5)
    with pytest.raises(ValueError):
        oim_update(np.array([-1.0, 0.0]), table, 0)


def test_oim_rotation_equivariance():
    # Rotating both the embedding and every prototype by the same orthogonal
    # map leaves the loss alone and rotates the gradient.
    rng = np.random.default_rng(61)
    table = random_table(rng, 12, 7)
    x = unit(rng.normal(size=12))
    q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    rotated = OimTable(q @ table.columns, table.momentum)
    loss = oim_loss_reference(x, table.columns, 4, 8.0)
    assert oim_loss_reference(q @ x, rotated.columns, 4, 8.0) == pytest.approx(loss, abs=1e-9)
    assert np.allclose(oim_grad(q @ x, rotated, 4, scale=8.0), q @ oim_grad(x, table, 4, scale=8.0), atol=1e-9)

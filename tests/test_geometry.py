import math

import numpy as np
import pytest

from idtrack.geometry import BBox, Detection, _check_unit, to_center, to_corner
from idtrack.kernels import LossWeights


def test_corner_worked_example():
    box = BBox(25.0, 40.0, 30.0, 40.0)
    assert to_corner(box) == (10.0, 20.0, 40.0, 60.0)


def test_center_worked_example():
    box = to_center(10.0, 20.0, 40.0, 60.0)
    assert box == BBox(25.0, 40.0, 30.0, 40.0)


def test_round_trip_exact_on_dyadic_lattice():
    # Centers and sizes that are multiples of 1/64 convert between center and
    # corner form without any rounding, so the round trip must be bit-exact.
    rng = np.random.default_rng(42)
    for _ in range(1000):
        cx, cy = (int(v) / 64.0 for v in rng.integers(-64000, 64000, size=2))
        w, h = (int(v) / 64.0 for v in rng.integers(1, 64000, size=2))
        box = BBox(cx, cy, w, h)
        assert to_center(*to_corner(box)) == box

        left, top = (int(v) / 64.0 for v in rng.integers(-64000, 64000, size=2))
        right = left + int(rng.integers(1, 64000)) / 64.0
        bottom = top + int(rng.integers(1, 64000)) / 64.0
        assert to_corner(to_center(left, top, right, bottom)) == (left, top, right, bottom)


def test_bbox_rejects_bad_sizes():
    with pytest.raises(ValueError):
        BBox(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        BBox(0.0, 0.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        BBox(float("nan"), 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BBox(0.0, float("inf"), 1.0, 1.0)


def test_to_center_rejects_degenerate_extent():
    with pytest.raises(ValueError):
        to_center(5.0, 0.0, 5.0, 10.0)


def test_detection_validation():
    box = BBox(0.0, 0.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        Detection(box, 1.5)
    with pytest.raises(ValueError):
        Detection(box, -0.1)
    with pytest.raises(ValueError):
        Detection(box, 0.5, embedding=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Detection(box, 0.5, embedding=np.eye(2))
    with pytest.raises(ValueError):
        Detection(box, 0.5, embedding=np.array([float("nan"), 0.0]))


def test_check_unit_rejects_nan_inf_and_off_norm_vectors():
    _check_unit(np.array([0.6, 0.8]), "v")
    _check_unit(np.array([1.0 + 0.9e-6, 0.0]), "v")
    for bad in ([float("nan"), 0.0], [float("inf"), 0.0], [1.0, float("-inf")], [1.0 + 2e-6, 0.0], [0.0, 0.0], [0.6, 0.6]):
        with pytest.raises(ValueError, match="must be L2-normalized"):
            _check_unit(np.array(bad), "v")


def test_check_unit_norm_is_numpys_norm_bit_for_bit():
    # The unit check (and the simulator's normalisation) take sqrt(v.dot(v)),
    # which is what np.linalg.norm computes for a 1-D float64 vector.
    rng = np.random.default_rng(3)
    for dim in (2, 3, 17, 64, 513):
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(50):
                vec = scale * rng.normal(size=dim)
                assert math.sqrt(vec.dot(vec)) == float(np.linalg.norm(vec))


def test_detection_embedding_coerced_to_float64():
    box = BBox(0.0, 0.0, 2.0, 2.0)
    det = Detection(box, 0.5, embedding=np.array([1.0, 0.0], dtype=np.float32))
    assert det.embedding.dtype == np.float64
    assert np.array_equal(det.embedding, [1.0, 0.0])


def test_loss_weights_validation():
    LossWeights()  # defaults are fine
    with pytest.raises(ValueError):
        LossWeights(classification=-0.5)
    with pytest.raises(ValueError):
        LossWeights(tracking=float("inf"))

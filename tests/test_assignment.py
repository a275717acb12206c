import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from idtrack.assignment import BRUTE_FORCE_CAP, brute_force_max, solve_max


def test_frozen_two_by_two():
    m = np.array([[0.9, 0.1], [0.2, 0.8]])
    result = solve_max(m)
    assert sorted(result.pairs) == [(0, 0), (1, 1)]
    assert result.total(m) == pytest.approx(1.7)


def test_cross_assignment_when_diagonal_is_weak():
    m = np.array([[0.1, 0.9], [0.8, 0.3]])
    result = solve_max(m)
    assert sorted(result.pairs) == [(0, 1), (1, 0)]


def test_min_affinity_floor_drops_weak_pairs():
    result = solve_max(np.array([[0.05]]))
    assert result.pairs == ()
    # The default floor keeps pairs sitting exactly on it.
    kept = solve_max(np.array([[0.2]]))
    assert kept.pairs == ((0, 0),)


def test_empty_matrix_is_fine():
    assert solve_max(np.zeros((0, 4))).pairs == ()
    assert solve_max(np.zeros((3, 0))).pairs == ()


def test_the_pairs_are_the_kept_index_arrays():
    # The optimum pairs row 1 with column 2, under the floor, so that pair is dropped.
    result = solve_max(np.array([[0.1, 0.9, 0.0], [0.05, 0.0, 0.1], [0.7, 0.2, 0.0]]))
    for empty in (solve_max(np.zeros((0, 4))), solve_max(np.array([[0.1]]))):
        assert empty.rows.dtype == empty.cols.dtype == np.intp and empty.rows.size == empty.cols.size == 0
    assert result.rows.dtype == result.cols.dtype == np.intp
    assert result.rows.tolist() == [0, 2] and result.cols.tolist() == [1, 0]
    assert result.pairs == ((0, 1), (2, 0))


def test_rectangular_gives_min_dim_pairs():
    rng = np.random.default_rng(5)
    for _ in range(50):
        r, c = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        m = rng.uniform(0.3, 1.0, size=(r, c))
        result = solve_max(m, min_affinity=0.0)
        assert len(result.pairs) == min(r, c)
        rows = [i for i, _ in result.pairs]
        cols = [j for _, j in result.pairs]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)


def test_total_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(200):
        r, c = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        m = rng.random((r, c))
        got = solve_max(m, min_affinity=0.0).total(m)
        assert got == pytest.approx(brute_force_max(m), abs=1e-9)


def test_constant_shift_keeps_the_argmax():
    rng = np.random.default_rng(17)
    for _ in range(50):
        r, c = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        m = rng.random((r, c))
        base = sorted(solve_max(m, min_affinity=-np.inf).pairs)
        shifted = sorted(solve_max(m + 3.5, min_affinity=-np.inf).pairs)
        assert base == shifted


def test_non_finite_entries_rejected():
    with pytest.raises(ValueError):
        solve_max(np.array([[0.5, np.nan]]))
    with pytest.raises(ValueError):
        solve_max(np.array([[np.inf]]))


def test_non_2d_rejected():
    with pytest.raises(ValueError):
        solve_max(np.zeros(3))
    with pytest.raises(ValueError):
        brute_force_max(np.zeros((2, 2, 2)))


def test_brute_force_worked_example():
    m = np.array([[1.0, 2.0, 3.0], [4.0, 6.0, 5.0]])
    # Best is 3 + 6 = 9: row 0 takes col 2, row 1 takes col 1.
    assert brute_force_max(m) == 9.0


def test_brute_force_empty_and_cap():
    assert brute_force_max(np.zeros((0, 5))) == 0.0
    with pytest.raises(ValueError):
        brute_force_max(np.zeros((BRUTE_FORCE_CAP + 1, BRUTE_FORCE_CAP + 1)))
    # Rectangular matrices only cap on the smaller dimension.
    assert brute_force_max(np.ones((2, BRUTE_FORCE_CAP + 3))) == 2.0


@st.composite
def tied_matrices(draw):
    """Wide, tall and square matrices drawn from a few levels, so that many
    cells tie, and a floor that drops some of the solver's pairs."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    levels = draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.5, 0.5, 0.9, 1.0]), min_size=rows * cols,
                           max_size=rows * cols))
    return np.array(levels).reshape(rows, cols), draw(st.sampled_from([0.0, 0.2, 0.5, 0.95]))


@given(tied_matrices())
def test_property_the_rows_come_back_strictly_increasing(case):
    # Tracker.step hands its phase-1 pairs over in active order without
    # sorting them, so the solver's row order is load-bearing.
    matrix, floor = case
    found = solve_max(matrix, min_affinity=floor)
    assert (np.diff(found.rows) > 0).all()
    assert (matrix[found.rows, found.cols] >= floor).all()

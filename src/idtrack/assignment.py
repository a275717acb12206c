"""Optimal one-to-one assignment over an affinity matrix.

``solve_max`` is the production path (scipy's Hungarian solver, maximizing).
It imports scipy's solver on its first call and keeps it, which keeps that
import out of ``import idtrack``.
``brute_force_max`` is not part of the API: it enumerates every possible
pairing as an independent cross-check, capped at small matrices, and lives
here only because the acceptance criteria import it from this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

__all__ = ["Assignment", "solve_max"]

BRUTE_FORCE_CAP = 9
_linear_sum_assignment = None  # scipy's solver, imported by the first solve


@dataclass(frozen=True, eq=False)
class Assignment:
    """Result of a rectangular assignment: the matched rows and columns as
    two ``intp`` arrays, pair k being ``(rows[k], cols[k])``. ``solve_max``
    gives the pairs with ``rows`` strictly increasing."""

    rows: np.ndarray
    cols: np.ndarray

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.rows.tolist(), self.cols.tolist()))

    def total(self, matrix: np.ndarray) -> float:
        return float(sum(matrix[i, j] for i, j in self.pairs))


def solve_max(matrix: np.ndarray, min_affinity: float = 0.2) -> Assignment:
    """Maximize total affinity over one-to-one row/col pairs.

    The solver always produces min(rows, cols) pairs; pairs whose affinity
    falls below ``min_affinity`` are then dropped. An empty matrix is fine
    and yields no pairs.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    rows, cols = matrix.shape
    if rows == 0 or cols == 0:
        return Assignment(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp))
    if np.count_nonzero(np.isfinite(matrix)) < matrix.size:
        raise ValueError("affinity matrix contains non-finite entries")

    global _linear_sum_assignment
    if _linear_sum_assignment is None:
        from scipy.optimize import linear_sum_assignment as _linear_sum_assignment

    row_idx, col_idx = _linear_sum_assignment(matrix, maximize=True)
    keep = matrix[row_idx, col_idx] >= min_affinity
    return Assignment(row_idx[keep].astype(np.intp, copy=False), col_idx[keep].astype(np.intp, copy=False))


def brute_force_max(matrix: np.ndarray) -> float:
    """Exact optimum of the full-cardinality assignment by enumeration.

    Walks every injection of the smaller dimension into the larger one and
    returns the best total. Refuses matrices with min(rows, cols) above
    ``BRUTE_FORCE_CAP`` — the search space is factorial.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    rows, cols = matrix.shape
    if rows == 0 or cols == 0:
        return 0.0
    if min(rows, cols) > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force capped at min dimension {BRUTE_FORCE_CAP}, got {min(rows, cols)}")

    work = matrix if rows <= cols else matrix.T
    n_small, n_large = work.shape
    best = -np.inf
    for chosen in permutations(range(n_large), n_small):
        total = 0.0
        for i, j in enumerate(chosen):
            total += work[i, j]
        if total > best:
            best = total
    return float(best)

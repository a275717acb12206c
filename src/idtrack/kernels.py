"""Numeric kernels behind the tracking network: dense correlation of feature
maps, inter-frame box regression targets, and the identity-lookup (OIM)
table with the gradient of its loss and its prototype update.

Everything here is plain numpy with explicit shapes; no autograd framework is
involved, so gradients that training would need are spelled out by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import UNIT_NORM_TOL, BBox

__all__ = [
    "correlate",
    "MotionTargets",
    "encode_targets",
    "decode_targets",
    "OimTable",
    "oim_grad",
    "oim_update",
]


def correlate(f_prev: np.ndarray, f_curr: np.ndarray, n: int = 2) -> np.ndarray:
    """Dense cross-correlation of two feature maps over a local window.

    For each spatial position (x, y) of ``f_prev`` the output holds a
    (2n+1) x (2n+1) block whose entry (u, v) is the channel dot product
    between ``f_prev[x, y, :]`` and ``f_curr[x+u, y+v, :]``, with u and v
    running over [-n, n]. Positions falling outside ``f_curr`` contribute
    zero (zero padding).

    Args:
        f_prev: feature map of shape (h, w, d).
        f_curr: feature map of the same shape.
        n: window radius; the default 2 gives a 5x5 window.

    Returns:
        Array of shape (h * (2n+1), w * (2n+1)); block (x, y) occupies
        rows x*(2n+1)..x*(2n+1)+2n and the analogous columns.
    """
    f_prev = np.asarray(f_prev, dtype=np.float64)
    f_curr = np.asarray(f_curr, dtype=np.float64)
    if f_prev.ndim != 3 or f_curr.ndim != 3:
        raise ValueError("feature maps must have shape (h, w, d)")
    if f_prev.shape != f_curr.shape:
        raise ValueError(f"feature map shapes differ: {f_prev.shape} vs {f_curr.shape}")
    if n < 0:
        raise ValueError(f"window radius must be >= 0, got {n}")

    h, w, _ = f_prev.shape
    k = 2 * n + 1
    out = np.zeros((h * k, w * k))
    for du in range(-n, n + 1):
        for dv in range(-n, n + 1):
            # Overlapping region of f_prev and f_curr shifted by (du, dv).
            x_lo, x_hi = max(0, -du), min(h, h - du)
            y_lo, y_hi = max(0, -dv), min(w, w - dv)
            if x_lo >= x_hi or y_lo >= y_hi:
                continue
            prod = np.einsum(
                "xyd,xyd->xy",
                f_prev[x_lo:x_hi, y_lo:y_hi],
                f_curr[x_lo + du:x_hi + du, y_lo + dv:y_hi + dv],
            )
            rows = slice(x_lo * k + du + n, x_hi * k, k)
            cols = slice(y_lo * k + dv + n, y_hi * k, k)
            out[rows, cols] = prod
    return out


@dataclass(frozen=True)
class MotionTargets:
    """Regression targets between a box and its position one step later."""

    dx: float
    dy: float
    dw: float
    dh: float


def encode_targets(prev: BBox, curr: BBox, normalized: bool = False) -> MotionTargets:
    """Encode the motion from ``prev`` to ``curr`` as regression targets.

    The default form keeps raw center offsets and log size ratios. With
    ``normalized=True`` the center offsets are divided by the previous box
    extent (the common detector parameterization).
    """
    dx = curr.cx - prev.cx
    dy = curr.cy - prev.cy
    if normalized:
        dx /= prev.w
        dy /= prev.h
    return MotionTargets(dx, dy, math.log(curr.w / prev.w), math.log(curr.h / prev.h))


def decode_targets(prev: BBox, targets: MotionTargets, normalized: bool = False) -> BBox:
    """Inverse of :func:`encode_targets` for the same ``normalized`` flag."""
    dx, dy = targets.dx, targets.dy
    if normalized:
        dx *= prev.w
        dy *= prev.h
    return BBox(prev.cx + dx, prev.cy + dy, prev.w * math.exp(targets.dw), prev.h * math.exp(targets.dh))


class OimTable:
    """Lookup table of identity prototypes, one unit-norm column per identity.

    Columns are the running appearance estimate for each labelled identity
    and get blended toward fresh embeddings with ``momentum`` (1.0 freezes
    the table, 0.0 overwrites it).
    """

    def __init__(self, columns: np.ndarray, momentum: float = 0.5):
        columns = np.asarray(columns, dtype=np.float64)
        if columns.ndim != 2:
            raise ValueError("table must have shape (dim, num_ids)")
        if not 0.0 <= momentum <= 1.0:
            raise ValueError(f"momentum must lie in [0, 1], got {momentum}")
        norms = np.linalg.norm(columns, axis=0)
        bad = np.where(np.abs(norms - 1.0) > UNIT_NORM_TOL)[0]
        if bad.size:
            raise ValueError(f"table columns must be unit-norm; offenders: {bad[:5].tolist()}")
        self.columns = columns
        self.momentum = momentum

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def num_ids(self) -> int:
        return self.columns.shape[1]


def _check_oim_input(x: np.ndarray, table: OimTable, true_id: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (table.dim,):
        raise ValueError(f"embedding shape {x.shape} does not match table dim {table.dim}")
    norm = float(np.linalg.norm(x))
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"embedding must be unit-norm, got norm={norm}")
    if not 0 <= true_id < table.num_ids:
        raise ValueError(f"identity {true_id} out of range for table with {table.num_ids} ids")
    return x


def oim_grad(x: np.ndarray, table: OimTable, true_id: int, scale: float = 1.0) -> np.ndarray:
    """Gradient of the identity-lookup loss with respect to the embedding.

    The loss is the negative log probability of the true identity under a
    softmax of ``scale`` times the cosine scores against every stored
    prototype.
    """
    x = _check_oim_input(x, table, true_id)
    logits = scale * (table.columns.T @ x)
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    probs[true_id] -= 1.0
    return scale * (table.columns @ probs)


def oim_update(x: np.ndarray, table: OimTable, true_id: int) -> OimTable:
    """Blend the true identity's prototype toward ``x`` and re-normalize.

    Returns a new table; the input table is left untouched.
    """
    x = _check_oim_input(x, table, true_id)
    columns = table.columns.copy()
    mixed = table.momentum * columns[:, true_id] + (1.0 - table.momentum) * x
    norm = np.linalg.norm(mixed)
    if norm < 1e-12:
        raise ValueError("momentum blend collapsed to the zero vector; cannot renormalize")
    columns[:, true_id] = mixed / norm
    return OimTable(columns, table.momentum)

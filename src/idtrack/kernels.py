"""Numeric kernels behind the tracking network: dense correlation of feature
maps, inter-frame box regression targets, the identity-lookup (OIM) loss and
the combined multi-task training loss.

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
    "smooth_l1",
    "softmax_cross_entropy",
    "OimTable",
    "oim_forward",
    "oim_grad",
    "oim_update",
    "LossWeights",
    "multitask_loss",
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


def smooth_l1(error: np.ndarray) -> float:
    """Smooth L1: quadratic inside |e| < 1, linear outside; summed over components."""
    e = np.abs(np.asarray(error, dtype=np.float64))
    return float(np.sum(np.where(e < 1.0, 0.5 * e * e, e - 0.5)))


def softmax_cross_entropy(logits: np.ndarray, true_index: int) -> float:
    """Cross entropy of a softmax over ``logits`` against a single true class.

    Uses max subtraction so large logits stay finite.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ValueError("logits must be a 1-D vector")
    if not 0 <= true_index < logits.shape[0]:
        raise ValueError(f"true_index {true_index} out of range for {logits.shape[0]} classes")
    shifted = logits - logits.max()
    return float(np.log(np.sum(np.exp(shifted))) - shifted[true_index])


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


def _oim_probs(x: np.ndarray, table: OimTable, scale: float) -> np.ndarray:
    logits = scale * (table.columns.T @ x)
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def oim_forward(x: np.ndarray, table: OimTable, true_id: int, scale: float = 1.0) -> tuple[float, np.ndarray]:
    """Identity-lookup loss for one embedding.

    Cosine scores against every stored prototype go through a softmax; the
    loss is the negative log probability of the true identity.

    Returns:
        (loss, probs) where probs has one entry per stored identity.
    """
    x = _check_oim_input(x, table, true_id)
    probs = _oim_probs(x, table, scale)
    return float(-np.log(probs[true_id])), probs


def oim_grad(x: np.ndarray, table: OimTable, true_id: int, scale: float = 1.0) -> np.ndarray:
    """Gradient of the identity-lookup loss with respect to the embedding."""
    x = _check_oim_input(x, table, true_id)
    probs = _oim_probs(x, table, scale)
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


@dataclass(frozen=True)
class LossWeights:
    """Non-negative weights of the four training loss terms."""

    classification: float = 1.0
    regression: float = 1.0
    tracking: float = 1.0
    identification: float = 1.0

    def __post_init__(self):
        for name in ("classification", "regression", "tracking", "identification"):
            v = getattr(self, name)
            if v < 0 or not math.isfinite(v):
                raise ValueError(f"LossWeights.{name} must be finite and >= 0, got {v}")


def multitask_loss(
    cls_losses: list[float],
    reg_losses: list[float],
    tra_losses: list[float],
    iden_losses: list[float],
    counts: tuple[int, int, int, int],
    weights: LossWeights,
) -> float:
    """Weighted sum of the four per-term means.

    Args:
        cls_losses: per-anchor classification losses (all anchors).
        reg_losses: per-anchor detection regression losses, foreground only.
        tra_losses: per-box inter-frame regression losses.
        iden_losses: per-box identity losses.
        counts: normalizers (anchors, foreground anchors, tracked boxes,
            identity-labelled boxes), matching the four lists in order.
        weights: term weights; defaults are all 1.

    An empty list contributes zero regardless of its count. A non-empty list
    with a zero count is a caller bug and raises.
    """
    total = 0.0
    terms = (
        (weights.classification, cls_losses, counts[0], "classification"),
        (weights.regression, reg_losses, counts[1], "regression"),
        (weights.tracking, tra_losses, counts[2], "tracking"),
        (weights.identification, iden_losses, counts[3], "identification"),
    )
    for weight, losses, denom, name in terms:
        if denom < 0:
            raise ValueError(f"{name} count must be >= 0, got {denom}")
        if not losses:
            continue
        if denom == 0:
            raise ValueError(f"{name} losses present but count is zero")
        total += weight * (float(np.sum(losses)) / denom)
    return total

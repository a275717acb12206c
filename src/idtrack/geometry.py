"""Axis-aligned boxes and detections shared by the whole package.

Boxes live in center form (cx, cy, w, h); corner form (left, top, right,
bottom) only appears at file-format boundaries and inside IoU math. A
detection carries no frame number: streams are ``{frame: [Detection]}``
mappings, and the key is the one place a frame number lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BBox",
    "Detection",
    "to_corner",
    "to_center",
]

UNIT_NORM_TOL = 1e-6


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box, center form. Width and height must be positive."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"BBox.{name} must be finite, got {v!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"BBox needs positive size, got w={self.w}, h={self.h}")


def to_corner(box: BBox) -> tuple[float, float, float, float]:
    """Center form -> (left, top, right, bottom)."""
    half_w = box.w / 2.0
    half_h = box.h / 2.0
    return (box.cx - half_w, box.cy - half_h, box.cx + half_w, box.cy + half_h)


def to_center(left: float, top: float, right: float, bottom: float) -> BBox:
    """Corner form -> center form. Degenerate extents are rejected by BBox."""
    return BBox((left + right) / 2.0, (top + bottom) / 2.0, right - left, bottom - top)


def _check_unit(vec: np.ndarray, what: str) -> None:
    norm = math.sqrt(vec.dot(vec))  # np.linalg.norm's own arithmetic for 1-D float64
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:  # written so a NaN norm fails too
        raise ValueError(f"{what} must be L2-normalized (|norm-1| <= {UNIT_NORM_TOL}), got norm={norm}")


@dataclass(frozen=True, eq=False)
class Detection:
    """A single detector output: the network's box, identity embedding and
    predicted box for the next frame.

    A detection does not know its frame; a stream keys its detections by
    frame, as ``{frame: [Detection, ...]}``. The identity embedding is
    optional; when present it must already be unit-norm (producers
    normalize, consumers rely on it). ``prediction``, also optional, is
    where the object is expected in the frame after this detection's.
    """

    box: BBox
    confidence: float
    embedding: np.ndarray | None = None
    prediction: BBox | None = None

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must lie in [0, 1], got {self.confidence}")
        if self.embedding is not None:
            emb = np.asarray(self.embedding, dtype=np.float64)
            if emb.ndim != 1:
                raise ValueError("embedding must be a 1-D vector")
            _check_unit(emb, "detection embedding")
            object.__setattr__(self, "embedding", emb)

"""File formats: MOT-style detection/result/gt text files, the embedding
sidecar, prediction files and key=value config files.

A MOT line is ``frame,id,left,top,width,height,conf,x,y,z`` with 1-based
frames, ``id`` = -1 for raw detections and -1 placeholders for x, y, z.
Floats are written with 6 decimals so reruns are byte-identical.

The embedding sidecar starts with a ``dim=D`` header, then one line per
vector: ``frame,det_index,v1,...,vD`` where det_index is the 0-based
position of the detection within its frame. Vectors are re-normalized at
read time; a deviation beyond 1e-3 triggers a warning, and a NaN or inf
component is an error.
"""

from __future__ import annotations

import warnings
from typing import Iterable, Mapping

import numpy as np

from .geometry import BBox, Detection, to_center, to_corner
from .tracker import TrackOutput

__all__ = [
    "read_detections",
    "read_embeddings",
    "load_detections",
    "read_gt",
    "read_scored_hypotheses",
    "read_predictions",
    "write_results",
    "write_gt",
    "write_detections",
    "write_embeddings",
    "read_config",
]

NORM_WARN_TOL = 1e-3


def _parse_mot_line(line: str, lineno: int, path) -> tuple[int, int, BBox, float]:
    parts = line.split(",")
    if len(parts) < 7:
        raise ValueError(f"{path}:{lineno}: expected at least 7 comma-separated fields, got {len(parts)}")
    try:
        frame = int(parts[0])
        obj_id = int(parts[1])
        left, top, w, h = (float(p) for p in parts[2:6])
        conf = float(parts[6])
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: malformed value ({exc})") from None
    if frame < 1:
        raise ValueError(f"{path}:{lineno}: frame indices are 1-based, got {frame}")
    try:
        box = to_center(left, top, left + w, top + h)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    return frame, obj_id, box, conf


def _iter_data_lines(path) -> Iterable[tuple[int, str]]:
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                yield lineno, line


def read_detections(path) -> dict[int, list[Detection]]:
    """Read a detection file (no embeddings attached)."""
    out: dict[int, list[Detection]] = {}
    for lineno, line in _iter_data_lines(path):
        frame, _, box, conf = _parse_mot_line(line, lineno, path)
        try:
            det = Detection(box, conf, frame)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        out.setdefault(frame, []).append(det)
    return out


def read_embeddings(path) -> tuple[int, dict[tuple[int, int], np.ndarray]]:
    """Read an embedding sidecar; returns (dim, {(frame, det_index): vector})."""
    vectors: dict[tuple[int, int], np.ndarray] = {}
    dim = None
    for lineno, line in _iter_data_lines(path):
        if dim is None:
            if not line.startswith("dim="):
                raise ValueError(f"{path}:{lineno}: expected 'dim=D' header, got {line!r}")
            dim = int(line[4:])
            if dim < 0:
                raise ValueError(f"{path}:{lineno}: embedding dim must be >= 0")
            continue
        parts = line.split(",")
        if len(parts) != dim + 2:
            raise ValueError(f"{path}:{lineno}: expected {dim + 2} fields, got {len(parts)}")
        try:
            frame = int(parts[0])
            index = int(parts[1])
            vec = np.array([float(p) for p in parts[2:]], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed value ({exc})") from None
        if not np.isfinite(vec).all():
            raise ValueError(f"{path}:{lineno}: embedding has non-finite components")
        norm = float(np.linalg.norm(vec))
        if norm < 1e-9:
            raise ValueError(f"{path}:{lineno}: zero-norm embedding cannot be normalized")
        if abs(norm - 1.0) > NORM_WARN_TOL:
            warnings.warn(f"{path}:{lineno}: embedding norm {norm:.6f} deviates from 1; re-normalizing")
        vectors[(frame, index)] = vec / norm
    if dim is None:
        raise ValueError(f"{path}: empty embedding file (missing 'dim=D' header)")
    return dim, vectors


def load_detections(dets_path, embeddings_path=None) -> dict[int, list[Detection]]:
    """Read detections and, when given, attach their sidecar embeddings.

    Every detection must have a vector when a sidecar is supplied.
    """
    dets = read_detections(dets_path)
    if embeddings_path is None:
        return dets
    _, vectors = read_embeddings(embeddings_path)
    out: dict[int, list[Detection]] = {}
    for frame, frame_dets in dets.items():
        attached = []
        for idx, det in enumerate(frame_dets):
            vec = vectors.get((frame, idx))
            if vec is None:
                raise ValueError(f"{embeddings_path}: no embedding for frame {frame} detection {idx}")
            attached.append(Detection(det.box, det.confidence, det.frame, vec))
        out[frame] = attached
    return out


def read_gt(path) -> dict[int, list[tuple[int, BBox]]]:
    """Read a ground-truth or result file into (id, box) per frame."""
    out: dict[int, list[tuple[int, BBox]]] = {}
    for lineno, line in _iter_data_lines(path):
        frame, obj_id, box, _ = _parse_mot_line(line, lineno, path)
        if obj_id < 1:
            raise ValueError(f"{path}:{lineno}: object ids must be >= 1, got {obj_id}")
        out.setdefault(frame, []).append((obj_id, box))
    return out


def read_scored_hypotheses(path) -> dict[int, list[tuple[int, BBox, float]]]:
    """Like :func:`read_gt` but keeps the confidence column (for sweeps)."""
    out: dict[int, list[tuple[int, BBox, float]]] = {}
    for lineno, line in _iter_data_lines(path):
        frame, obj_id, box, conf = _parse_mot_line(line, lineno, path)
        if obj_id < 1:
            raise ValueError(f"{path}:{lineno}: object ids must be >= 1, got {obj_id}")
        out.setdefault(frame, []).append((obj_id, box, conf))
    return out


def read_predictions(path, det_counts: Mapping[int, int]) -> dict[tuple[int, int], BBox]:
    """Read predicted next-frame boxes keyed by (source frame, det index).

    ``det_counts`` maps each frame to its number of raw detections; a line
    whose index names no detection, or whose key repeats, is rejected.
    """
    out: dict[tuple[int, int], BBox] = {}
    for lineno, line in _iter_data_lines(path):
        frame, det_index, box, _ = _parse_mot_line(line, lineno, path)
        if det_index < 0:
            raise ValueError(f"{path}:{lineno}: detection index must be >= 0, got {det_index}")
        count = det_counts.get(frame, 0)
        if det_index >= count:
            raise ValueError(f"{path}:{lineno}: frame {frame} has {count} detections, no index {det_index}")
        if (frame, det_index) in out:
            raise ValueError(f"{path}:{lineno}: repeated prediction for frame {frame} detection {det_index}")
        out[(frame, det_index)] = box
    return out


def _mot_line(frame: int, obj_id: int, box: BBox, conf: float) -> str:
    left, top, right, bottom = to_corner(box)
    return (
        f"{frame},{obj_id},{left:.6f},{top:.6f},{right - left:.6f},{bottom - top:.6f},{conf:.6f},-1,-1,-1"
    )


def write_results(path, outputs: Iterable[TrackOutput], include_interpolated: bool = False) -> None:
    """Write tracker output sorted by (frame, id). Interpolated boxes are
    skipped unless asked for."""
    rows = sorted(
        (o for o in outputs if include_interpolated or not o.interpolated),
        key=lambda o: (o.frame, o.track_id),
    )
    with open(path, "w", encoding="ascii") as fh:
        for o in rows:
            if o.track_id < 1:
                raise ValueError(f"track ids must be >= 1, got {o.track_id}")
            fh.write(_mot_line(o.frame, o.track_id, o.box, o.confidence) + "\n")


def write_gt(path, gt: Mapping[int, list[tuple[int, BBox]]]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for frame in sorted(gt):
            for obj_id, box in gt[frame]:
                fh.write(_mot_line(frame, obj_id, box, 1.0) + "\n")


def write_detections(path, dets: Mapping[int, list[Detection]]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for frame in sorted(dets):
            for det in dets[frame]:
                fh.write(_mot_line(frame, -1, det.box, det.confidence) + "\n")


def write_embeddings(path, dets: Mapping[int, list[Detection]]) -> None:
    """Write the embedding sidecar for a detection stream (all must have one)."""
    dim = None
    with open(path, "w", encoding="ascii") as fh:
        for frame in sorted(dets):
            for idx, det in enumerate(dets[frame]):
                if det.embedding is None:
                    raise ValueError(f"frame {frame} detection {idx} has no embedding")
                if dim is None:
                    dim = det.embedding.shape[0]
                    fh.write(f"dim={dim}\n")
                elif det.embedding.shape[0] != dim:
                    raise ValueError("mixed embedding dimensions in one stream")
                values = ",".join(f"{v:.9f}" for v in det.embedding)
                fh.write(f"{frame},{idx},{values}\n")
        if dim is None:
            fh.write("dim=0\n")


def read_config(path) -> dict[str, str]:
    """Line-oriented key=value file; '#' starts a comment, blanks are skipped."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out

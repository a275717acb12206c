"""File formats: MOT-style detection/result/gt text files, the embedding
sidecar, prediction files and key=value config files.

A MOT line is ``frame,id,left,top,width,height,conf,x,y,z`` with 1-based
frames, ``id`` = -1 for raw detections and -1 placeholders for x, y, z.
Floats are written with 6 decimals so reruns are byte-identical.

The embedding sidecar starts with a ``dim=D`` header, then one line per
vector: ``frame,det_index,v1,...,vD`` where det_index is the 0-based
position of the detection within its frame. Vectors are re-normalized at
read time; a deviation beyond 1e-3 triggers a warning, and a NaN or inf
component is an error. Given each frame's detection count, a vector that
names no detection is an error; a repeated ``(frame, det_index)`` always is.

MOT files are read line by line. The sidecar, which holds most of the
values, is parsed in one ``np.loadtxt`` call first. When that call fails or
warns, or its result breaks any rule above, ``read_embeddings`` runs its
line loop instead, which reports the first bad line as ``path:line`` and
issues the warnings. Both paths use the same float parser and arithmetic,
so they return the same values bit for bit. A non-ASCII byte is an error
naming its line in every file.
"""

from __future__ import annotations

import math
import re
import warnings
from typing import Callable, Iterable, Iterator, Mapping

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

_NON_ASCII = re.compile(rb"[\x80-\xff]")
# loadtxt skips these as whitespace inside a field; int() and float() do not.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _read_text(path) -> str:
    """The whole file with universal newlines, for the line loop."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        pos = _NON_ASCII.search(data).start()
        head = data[:pos]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(f"{path}:{lineno}: non-ASCII byte 0x{data[pos]:02x}") from None


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def _bulk_lines(fh) -> Iterator[str]:
    """The open file's lines, streamed so that no copy of the whole text is
    held. Raises ValueError at a character that loadtxt and ``int``/``float``
    read differently, and UnicodeDecodeError (a ValueError) at a non-ASCII
    byte."""
    for line in fh:
        if any(c in line for c in _LOADTXT_ONLY_SPACE):
            raise ValueError("a field only loadtxt would read")
        yield line


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


def _read_mot(path, add: Callable[..., None]) -> dict:
    """Fold ``add(out, frame, id, box, conf)`` over a MOT file's rows into a
    new dict. ``add`` raises ValueError on a row it rejects; the error then
    names the line."""
    out: dict = {}
    for lineno, line in _data_lines(_read_text(path)):
        row = _parse_mot_line(line, lineno, path)
        try:
            add(out, *row)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def read_detections(path) -> dict[int, list[Detection]]:
    """Read a detection file (no embeddings attached)."""

    def add(out, frame, _, box, conf):
        out.setdefault(frame, []).append(Detection(box, conf, frame))

    return _read_mot(path, add)


def _embeddings_in_bulk(path, det_counts) -> tuple[int, dict[tuple[int, int], np.ndarray]] | None:
    """``read_embeddings``'s result when every line is valid and in tolerance,
    else None. The key columns are parsed as integers, so loadtxt rejects
    ``1.0`` there as ``int`` does; numpy releases that still take it only
    warn, and any warning here sends the file to the line loop (as does an
    empty body, on which loadtxt warns)."""
    try:
        with open(path, "r", encoding="ascii") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            lines = _bulk_lines(fh)
            header = next((line.strip() for line in lines if line.strip()), "")
            dim = int(header[4:]) if header.startswith("dim=") else 0
            if dim < 1:
                return None
            row = np.dtype([("frame", np.int64), ("index", np.int64), ("v", np.float64, (dim,))])
            rows = np.loadtxt(lines, dtype=row, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    m = rows["v"]
    with np.errstate(over="ignore"):  # an overflowing norm is the line loop's error
        norms = np.sqrt((m[:, None, :] @ m[:, :, None])[:, 0, 0])  # bit-equal to per-row np.linalg.norm
    if not (np.abs(norms - 1.0) <= NORM_WARN_TOL).all():  # also fails NaN, inf and zero norms
        return None
    keys = list(zip(rows["frame"].tolist(), rows["index"].tolist()))
    if det_counts is not None and not all(0 <= i < det_counts.get(f, 0) for f, i in keys):
        return None
    m /= norms[:, None]
    vectors = dict(zip(keys, m))
    if len(vectors) != len(keys):
        return None
    return dim, vectors


def _embeddings_by_line(path, text: str, det_counts) -> tuple[int, dict[tuple[int, int], np.ndarray]]:
    vectors: dict[tuple[int, int], np.ndarray] = {}
    dim = None
    for lineno, line in _data_lines(text):
        if dim is None:
            if not line.startswith("dim="):
                raise ValueError(f"{path}:{lineno}: expected 'dim=D' header, got {line!r}")
            try:
                dim = int(line[4:])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed header ({exc})") from None
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
        if det_counts is not None:
            count = det_counts.get(frame, 0)
            if not 0 <= index < count:
                raise ValueError(f"{path}:{lineno}: frame {frame} has {count} detections, no index {index}")
        if (frame, index) in vectors:
            raise ValueError(f"{path}:{lineno}: repeated embedding for frame {frame} detection {index}")
        if not np.isfinite(vec).all():
            raise ValueError(f"{path}:{lineno}: embedding has non-finite components")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(vec))
        if norm < 1e-9:
            raise ValueError(f"{path}:{lineno}: zero-norm embedding cannot be normalized")
        if norm == math.inf:
            raise ValueError(f"{path}:{lineno}: embedding norm overflows")
        if abs(norm - 1.0) > NORM_WARN_TOL:
            warnings.warn(f"{path}:{lineno}: embedding norm {norm:.6f} deviates from 1; re-normalizing")
        vectors[(frame, index)] = vec / norm
    if dim is None:
        raise ValueError(f"{path}: empty embedding file (missing 'dim=D' header)")
    return dim, vectors


def read_embeddings(
    path, det_counts: Mapping[int, int] | None = None
) -> tuple[int, dict[tuple[int, int], np.ndarray]]:
    """Read an embedding sidecar; returns (dim, {(frame, det_index): vector}).

    Every vector is finite and unit-norm. ``det_counts``, when given, maps
    each frame to its number of raw detections; a line whose index names no
    detection is then rejected. A repeated key is always rejected.
    """
    found = _embeddings_in_bulk(path, det_counts)
    return found if found is not None else _embeddings_by_line(path, _read_text(path), det_counts)


def load_detections(dets_path, embeddings_path=None) -> dict[int, list[Detection]]:
    """Read detections and, when given, attach their sidecar embeddings.

    Every detection must have a vector when a sidecar is supplied.
    """
    dets = read_detections(dets_path)
    if embeddings_path is None:
        return dets
    _, vectors = read_embeddings(embeddings_path, {frame: len(v) for frame, v in dets.items()})
    for frame, frame_dets in dets.items():
        for idx, det in enumerate(frame_dets):
            vec = vectors.get((frame, idx))
            if vec is None:
                raise ValueError(f"{embeddings_path}: no embedding for frame {frame} detection {idx}")
            # In place: det is new and unshared, and read_embeddings has just
            # divided vec by its norm, so it is the finite unit float64 1-D
            # vector Detection's constructor would check; a rebuild would
            # only repeat that norm check for every detection.
            object.__setattr__(det, "embedding", vec)
    return dets


def read_gt(path) -> dict[int, list[tuple[int, BBox]]]:
    """Read a ground-truth or result file into (id, box) per frame."""

    def add(out, frame, obj_id, box, _):
        if obj_id < 1:
            raise ValueError(f"object ids must be >= 1, got {obj_id}")
        out.setdefault(frame, []).append((obj_id, box))

    return _read_mot(path, add)


def read_scored_hypotheses(path) -> dict[int, list[tuple[int, BBox, float]]]:
    """Like :func:`read_gt` but keeps the confidence column (for sweeps)."""

    def add(out, frame, obj_id, box, conf):
        if obj_id < 1:
            raise ValueError(f"object ids must be >= 1, got {obj_id}")
        out.setdefault(frame, []).append((obj_id, box, conf))

    return _read_mot(path, add)


def read_predictions(path, det_counts: Mapping[int, int]) -> dict[tuple[int, int], BBox]:
    """Read predicted next-frame boxes keyed by (source frame, det index).

    ``det_counts`` maps each frame to its number of raw detections; a line
    whose index names no detection, or whose key repeats, is rejected.
    """

    def add(out, frame, det_index, box, _):
        if det_index < 0:
            raise ValueError(f"detection index must be >= 0, got {det_index}")
        count = det_counts.get(frame, 0)
        if det_index >= count:
            raise ValueError(f"frame {frame} has {count} detections, no index {det_index}")
        if (frame, det_index) in out:
            raise ValueError(f"repeated prediction for frame {frame} detection {det_index}")
        out[(frame, det_index)] = box

    return _read_mot(path, add)


def _mot_line(frame: int, obj_id: int, box: BBox, conf: float) -> str:
    left, top, right, bottom = to_corner(box)
    return "%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,-1,-1,-1\n" % (frame, obj_id, left, top, right - left, bottom - top, conf)


def write_results(path, outputs: Iterable[TrackOutput], include_interpolated: bool = False) -> int:
    """Write tracker output sorted by (frame, id) and return the number of
    rows written. Interpolated boxes are skipped unless asked for. Every id
    is checked before the file is opened."""
    rows = sorted(
        (o for o in outputs if include_interpolated or not o.interpolated),
        key=lambda o: (o.frame, o.track_id),
    )
    for o in rows:
        if o.track_id < 1:
            raise ValueError(f"track ids must be >= 1, got {o.track_id}")
    with open(path, "w", encoding="ascii") as fh:
        for o in rows:
            fh.write(_mot_line(o.frame, o.track_id, o.box, o.confidence))
    return len(rows)


def write_gt(path, gt: Mapping[int, list[tuple[int, BBox]]]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for frame in sorted(gt):
            for obj_id, box in gt[frame]:
                fh.write(_mot_line(frame, obj_id, box, 1.0))


def write_detections(path, dets: Mapping[int, list[Detection]]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for frame in sorted(dets):
            for det in dets[frame]:
                fh.write(_mot_line(frame, -1, det.box, det.confidence))


def write_embeddings(path, dets: Mapping[int, list[Detection]]) -> None:
    """Write the embedding sidecar for a detection stream (all must have one,
    of one dimension; both are checked before the file is opened)."""
    dim = None
    for frame in sorted(dets):
        for idx, det in enumerate(dets[frame]):
            if det.embedding is None:
                raise ValueError(f"frame {frame} detection {idx} has no embedding")
            if dim is None:
                dim = det.embedding.shape[0]
            elif det.embedding.shape[0] != dim:
                raise ValueError("mixed embedding dimensions in one stream")
    dim = dim or 0
    line = "%d,%d" + ",%.9f" * dim + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"dim={dim}\n")
        for frame in sorted(dets):
            for idx, det in enumerate(dets[frame]):
                fh.write(line % (frame, idx, *det.embedding.tolist()))


def read_config(path) -> dict[str, str]:
    """Line-oriented key=value file; '#' starts a comment, blanks are skipped.
    A key may appear once."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
        out[key] = value
    return out

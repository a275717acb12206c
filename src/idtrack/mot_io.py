"""File formats: MOT-style detection/result/gt text files, the embedding
sidecar, prediction files and key=value config files.

Every data line is one keyed row, ``frame,key,v1..vn``: two integers, then
floats. A MOT line is ``frame,id,left,top,width,height,conf,x,y,z`` with
1-based frames, ``id`` = -1 for raw detections (a detection index in a
predictions file) and -1 placeholders for x, y, z: its five values are the
box and confidence, and fields past the seventh are not read. Floats are
written with 6 decimals so reruns are byte-identical. The embedding sidecar
starts with a ``dim=D`` header, then one row of exactly D values per vector:
``frame,det_index,v1,...,vD`` where det_index is the 0-based position of the
detection within its frame. Vectors are re-normalized at read time.

``_rows`` reads every data file into the columns of that row (frames, keys
and an ``(rows, n)`` value matrix), by one ``np.loadtxt`` call or one line
loop. Only a plain file, of printable ASCII and line ends (LF, CRLF or a
lone CR) with no line that starts with a space (every file the writers
make), is read in bulk: loadtxt takes it by its path, past the sidecar's
header (its first non-blank line) by ``skiprows``. Any other file (tabs,
control bytes), or a plain one whose header is bad or not followed by a row
of D values, or whose loadtxt call fails or warns, is read by the line
loop, which only tokenizes: it alone reports format errors (field counts,
number syntax, 64-bit ints, the ``dim=D`` header, which ``_dim`` reads on
both paths) as ``path:line``, so one anywhere in a file comes before any
rule break. Both paths read CR as a line end and parse floats alike, so
they return the same columns bit for bit. Each rule is one array check on
the columns that names the line of the first row to break it: frames of 1
or more and boxes in the domain of ``geometry._box_fault`` (finite, no
value beyond 1e8 in magnitude, no side below 6e-7); sidecar vectors finite,
of a norm neither zero nor overflowing (one off 1 by more than
``NORM_WARN_TOL`` warns); detections a confidence in [0, 1]; ground truth
and results an id of 1 or more, a finite confidence and no repeated
``(frame, id)``; predictions and the sidecar a ``(frame, det_index)`` that
names a detection, when the detection stream is given, and never
repeats. A non-ASCII byte is an error naming its line in every file.

``read_detections`` and ``load_detections`` return the file's rows as one
``DetectionStream``, sorted by frame, and build no per-frame or
per-detection object: the sidecar's vectors and the predicted boxes join
the stream's box and confidence columns as matrices, placed by their
``(frame, index)`` keys. The detection writers read such a stream's
columns. ``read_gt`` returns the file's columns as one ``IdStream``, for
ground truth and results alike, and one writer, ``write_gt`` or
``write_results``, writes such a stream sorted by (frame, id), confidences
kept. The format has no ``interpolated`` column: it reads back all False.

Every writer streams its rows in chunks across frames: ``_CHUNK_ROWS`` MOT
rows, or about ``_CHUNK_VALUES`` sidecar values, at a time. Each chunk is
formatted in numpy in fixed point, integers and values alike, rounding
exactly as "%.6f" (MOT) and "%.9f" (sidecar) do (to nearest, ties to even);
a row with a value within float error of a rounding tie, of magnitude 1e8
(MOT) or 10 (sidecar) or more, or not finite, is formatted by "%" instead
and spliced in place. The bytes are those of one "%" format per line. The
MOT writers check first, by their readers' own rules, that they write
nothing their readers reject; the box rule is checked on the boxes that
the reader will rebuild from the written decimals.
"""

from __future__ import annotations

import functools
import re
import warnings
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .geometry import DetectionStream, Detections, IdStream, _box_fault, _first_false, _good_boxes, _row_norms

__all__ = [
    "read_detections",
    "read_embeddings",
    "load_detections",
    "read_gt",
    "read_predictions",
    "write_results",
    "write_gt",
    "write_detections",
    "write_embeddings",
    "read_config",
]

NORM_WARN_TOL = 1e-3

_NON_ASCII = re.compile(rb"[\x80-\xff]")
_PLAIN = bytes(range(0x20, 0x7F)) + b"\n\r"  # the bytes of a plain file
_BLOCK = 1 << 16  # bytes per read of the plain-file scan


def _read_lines(path) -> list[str]:
    """The whole file's lines with universal newlines, for the line loop."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read().split("\n")
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        pos = _NON_ASCII.search(data).start()
        head = data[:pos]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(f"{path}:{lineno}: non-ASCII byte 0x{data[pos]:02x}") from None


def _data_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Each non-blank line, stripped, with its 1-based number."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def _plain(path) -> bool:
    """Whether the file holds only printable ASCII and line ends (LF, CRLF,
    CR) and no line starts with a space, scanned a block at a time. loadtxt
    reads such a file from its path as the line loop reads it, both with
    universal newlines: no byte there is one that only one of them takes as
    space, and every blank line is empty. numpy would decompress a file
    named ``*.gz``, ``*.bz2``, ``*.xz`` or ``*.lzma``, so none is plain."""
    if str(path).endswith((".gz", ".bz2", ".xz", ".lzma")):
        return False
    with open(path, "rb") as fh:
        last = b"\n"  # the first line starts like any other
        while block := fh.read(_BLOCK):
            # Files without a space, as written, skip the slower pair search.
            if block.translate(None, _PLAIN) or (b" " in block and (b"\n " in last + block or b"\r " in last + block)):
                return False
            last = block[-1:]
    return True


def _dim(path, lineno: int, line: str) -> int:
    """The D of a sidecar's ``dim=D`` header, its first data line ``line``
    (``lineno`` 0: the file has none)."""
    if not lineno:
        raise ValueError(f"{path}: empty embedding file (missing 'dim=D' header)")
    if not line.startswith("dim="):
        raise ValueError(f"{path}:{lineno}: expected 'dim=D' header, got {line!r}")
    try:
        dim = int(line[4:])
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: malformed header ({exc})") from None
    if dim < 0:
        raise ValueError(f"{path}:{lineno}: embedding dim must be >= 0")
    return dim


def _rows(path, n: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A data file's keyed rows ``frame,key,v1..vn`` as ``(frames, keys,
    values)``: int64, int64 and ``(rows, n)`` float64 columns, row k from
    the k-th data line. A MOT line has ``n`` values and may have more
    fields; with ``n`` None the file is a sidecar, whose lines have exactly
    the D values of its ``dim=D`` header. A plain file is read by one
    ``np.loadtxt`` call on its path, past the sidecar's header by
    ``skiprows``. Any other file, or a plain one whose header is bad, whose
    first row lacks the header's D values or whose call fails or warns (numpy
    releases that take ``1.0`` in an integer column only warn, and so does an
    empty body), is read by ``_by_line``."""
    try:
        if _plain(path):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                skip, dim, first = 0, n, ""
                if n is None:
                    with open(path, "r", encoding="ascii") as fh:
                        lines = _data_lines(fh)
                        skip, header = next(lines, (0, ""))
                        first = next(lines, (0, ""))[1]
                    dim = _dim(path, skip, header)
                if n is not None or first.count(",") == dim + 1:  # loadtxt reserves D values a row first
                    row = [("frame", np.int64), ("key", np.int64), ("v", np.float64, (dim,))]
                    rows = np.loadtxt(path, dtype=row, delimiter=",", comments=None, ndmin=1, skiprows=skip,
                                      usecols=None if n is None else range(n + 2))
                    return rows["frame"], rows["key"], rows["v"]
    except (ValueError, Warning):
        pass
    return _by_line(path, n)


def _by_line(path, n: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_rows`` by a walk over the data lines, which only tokenizes and
    alone names the line of a format error: a field count, number syntax,
    a 64-bit int or the ``dim=D`` header."""
    lines = _data_lines(_read_lines(path))
    dim = _dim(path, *next(lines, (0, ""))) if n is None else n
    pairs, values = [], []
    for lineno, line in lines:
        parts = line.split(",")
        if n is None and len(parts) != dim + 2:
            raise ValueError(f"{path}:{lineno}: expected {dim + 2} fields, got {len(parts)}")
        if len(parts) < dim + 2:
            raise ValueError(f"{path}:{lineno}: expected at least {dim + 2} comma-separated fields, got {len(parts)}")
        try:
            pairs.append((_int(parts[0]), _int(parts[1])))
            values.append([float(p) for p in parts[2 : dim + 2]])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed value ({exc})") from None
    frames, keys = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return frames, keys, np.array(values, dtype=np.float64).reshape(len(values), dim)


def _int(text: str) -> int:
    """``int(text)``, which must fit in an int64 column."""
    if (value := int(text)) not in range(-(2**63), 2**63):
        raise ValueError(f"{text!r} does not fit in 64 bits")
    return value


def _line_numbers(path, rows: Sequence[int], header: int = 0) -> list[int]:
    """The line numbers of ``rows``. Both parse paths take row k from data
    line ``k + header`` (blank lines skipped), whose number the line loop's
    walk finds."""
    if not len(rows):
        return []
    numbers = [lineno for lineno, _ in _data_lines(_read_lines(path))]
    return [numbers[k + header] for k in rows]


def _require(path, ok: np.ndarray, message: Callable[[int], str], header: int = 0) -> None:
    """Raise ``path:line: message(k)`` for the first row k where ``ok`` is False."""
    _check(ok, lambda k: f"{path}:{_line_numbers(path, [k], header)[0]}: {message(k)}")


def _check(ok: np.ndarray, message: Callable[[int], str]) -> None:
    """``_require`` for the writers, which have no line to name."""
    k = _first_false(ok)
    if k is not None:
        raise ValueError(message(k))


def _frame_rule(frames: np.ndarray, require: Callable) -> None:
    """Every MOT frame is 1 or more; ``require(ok, message)`` reports a break."""
    require(frames >= 1, lambda k: f"frame indices are 1-based, got {frames[k]}")


def _id_rules(frames: np.ndarray, ids: np.ndarray, confidence: np.ndarray, require: Callable) -> None:
    """``read_gt``'s rules, which its writer checks too: ids of 1 or more,
    finite confidences and no ``(frame, id)`` twice."""
    require(ids >= 1, lambda k: f"object ids must be >= 1, got {ids[k]}")
    require(np.isfinite(confidence), lambda k: f"confidence must be finite, got {confidence[k]}")
    require(_unrepeated(frames, ids), lambda k: f"repeated id {ids[k]} in frame {frames[k]}")


def _require_keys(path, frames, keys, dets: DetectionStream | None, repeated: str, header: int = 0) -> None:
    """Given the detection stream ``dets``, each row's key must index one of
    its frame's detections. No ``(frame, key)`` pair may repeat;
    ``repeated.format(frame, key)`` names the first row that repeats one."""
    if dets is not None:
        counts = dets.frames.searchsorted(frames, "right") - dets.frames.searchsorted(frames)
        _require(path, (keys >= 0) & (keys < counts),
                 lambda k: f"frame {frames[k]} has {counts[k]} detections, no index {keys[k]}", header)
    _require(path, _unrepeated(frames, keys), lambda k: repeated.format(frames[k], keys[k]), header)


def _unrepeated(frames: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Per row: False where an earlier row has the same ``(frame, key)``."""
    order = np.lexsort((keys, frames))  # stable: a pair's rows stay in order
    later = (frames[order[1:]] == frames[order[:-1]]) & (keys[order[1:]] == keys[order[:-1]])
    ok = np.ones(len(keys), dtype=bool)
    ok[order[1:][later]] = False
    return ok


def _mot_columns(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A MOT file's first seven columns as ``(frames, ids, boxes,
    confidence)``, row k from its k-th data line. Every frame is 1 or more
    and every box, in centre form by ``_centred``, in the box domain."""
    frames, ids, values = _rows(path, 5)  # left, top, width, height, confidence
    boxes = _centred(*values[:, :4].T)
    _frame_rule(frames, functools.partial(_require, path))
    _require(path, _good_boxes(boxes), lambda k: _box_fault(*boxes[k].tolist()))
    return frames, ids, boxes, values[:, 4]


def _centred(left: np.ndarray, top: np.ndarray, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``(n, 4)`` centre-form boxes of MOT box fields: ``right = left + w``
    and ``bottom = top + h``, then the centre ``((left + right) / 2, (top +
    bottom) / 2)`` and the sides ``right - left`` and ``bottom - top``."""
    with np.errstate(over="ignore", invalid="ignore"):  # a box that overflows is named by the box rule
        right, bottom = left + w, top + h
        return np.stack([(left + right) / 2.0, (top + bottom) / 2.0, right - left, bottom - top], axis=1)


def read_detections(path) -> DetectionStream:
    """Read a detection file (no embeddings attached) as one stream, its
    rows sorted by frame (stably, so a frame's rows keep their file order).
    Every confidence lies in [0, 1]."""
    frames, _, boxes, conf = _mot_columns(path)
    _require(path, (conf >= 0.0) & (conf <= 1.0), lambda k: f"confidence must lie in [0, 1], got {conf[k]}")
    order = np.argsort(frames, kind="stable")
    return DetectionStream(Detections._checked(boxes.take(order, axis=0), conf.take(order)), frames.take(order))


def read_gt(path) -> IdStream:
    """Read a ground-truth or result file as one ``IdStream`` of frames,
    ids, boxes and confidences, rows in file order (so its frames come in
    order of first appearance) and none interpolated. Every id is 1 or
    more, every confidence finite, and no ``(frame, id)`` repeats."""
    frames, ids, boxes, conf = _mot_columns(path)
    _id_rules(frames, ids, conf, functools.partial(_require, path))
    return IdStream._checked(frames, ids, boxes, conf)


def read_predictions(path, dets: DetectionStream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read predicted next-frame boxes as ``(frames, index, boxes)`` columns
    in file order: ``boxes[k]``, centre form, is for detection ``index[k]``
    of source frame ``frames[k]``, which must be one of the stream ``dets``.
    A repeated key is rejected."""
    frames, index, boxes, _ = _mot_columns(path)
    _require_keys(path, frames, index, dets, "repeated prediction for frame {} detection {}")
    return frames, index, boxes


def read_embeddings(path, dets: DetectionStream | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read an embedding sidecar as ``(frames, index, matrix)`` columns in
    file order: ``matrix[k]`` is the vector of detection ``index[k]`` of
    frame ``frames[k]``. Every frame is 1 or more and every vector finite,
    of a norm neither zero nor overflowing; it is re-normalized, and a norm
    off 1 by more than ``NORM_WARN_TOL`` warns. A repeated key is refused,
    and, given the stream ``dets``, one that names none of its detections.
    """
    frames, indices, matrix = _rows(path)
    _frame_rule(frames, functools.partial(_require, path, header=1))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing norm is named below
        norms = _row_norms(matrix)
    _require(path, np.isfinite(matrix).all(axis=1), lambda k: "embedding has non-finite components", 1)
    _require(path, norms >= 1e-9, lambda k: "zero-norm embedding cannot be normalized", 1)
    _require(path, np.isfinite(norms), lambda k: "embedding norm overflows", 1)
    _require_keys(path, frames, indices, dets, "repeated embedding for frame {} detection {}", 1)
    far = np.flatnonzero(np.abs(norms - 1.0) > NORM_WARN_TOL).tolist()
    for k, lineno in zip(far, _line_numbers(path, far, 1)):
        warnings.warn(f"{path}:{lineno}: embedding norm {norms[k]:.6f} deviates from 1; re-normalizing")
    matrix /= norms[:, None]
    return frames, indices, matrix


def _scatter(dets: DetectionStream, frames: np.ndarray, index: np.ndarray, values: np.ndarray) -> tuple:
    """``(block, have)``: ``values[k]``, the value of detection ``index[k]`` of
    frame ``frames[k]``, in the row of the stream it names (zeros where none
    does), and which rows have one. ``_require_keys`` checked the keys."""
    at = dets.frames.searchsorted(frames) + index
    have = np.zeros(len(dets.rows), dtype=bool)
    have[at] = True
    if np.array_equal(at, np.arange(len(have))):
        return values, have  # already one row per detection, in order
    block = np.zeros((len(have), values.shape[1]))
    block[at] = values
    return block, have


def load_detections(dets_path, embeddings_path=None, predictions_path=None) -> DetectionStream:
    """Read detections and, when given, attach their sidecar embeddings and
    predicted next-frame boxes.

    Every detection must have a vector when a sidecar is supplied; a
    predictions file may cover any subset of the detections. Both files
    are keyed by (frame, index in the frame's raw list), so each value
    reaches its detection whatever the confidence filter and NMS drop later.
    They join, as matrices, the columns that ``read_detections`` returned.
    """
    dets = read_detections(dets_path)
    embeddings = predictions = predicted = None
    if embeddings_path is not None:
        embeddings, have = _scatter(dets, *read_embeddings(embeddings_path, dets))
        if (k := _first_false(have)) is not None:
            where = f"frame {dets.frames[k]} detection {k - dets.frames.searchsorted(dets.frames[k])}"
            raise ValueError(f"{embeddings_path}: no embedding for {where}")
    if predictions_path is not None:
        predictions, predicted = _scatter(dets, *read_predictions(predictions_path, dets))
        if not predicted.any():
            predictions = predicted = None
    rows = Detections._checked(dets.rows.boxes, dets.rows.confidence, embeddings, predictions, predicted)
    return DetectionStream(rows, dets.frames)


_MOT_LINE = "%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,-1,-1,-1\n"
_CHUNK_ROWS = 1024  # MOT rows per numpy pass: its arrays stay small and in cache
_CHUNK_VALUES = 4096  # sidecar values per numpy pass, for the same reason


def _words(*byte_columns) -> np.ndarray:
    """``<u4`` words whose 4 bytes run through every combination of the
    given byte values, the first byte slowest."""
    grids = np.meshgrid(*(np.array(c, dtype=np.uint8) for c in byte_columns), indexing="ij")
    return np.stack(grids, axis=-1).view("<u4").reshape(-1)


# Every value is written as fixed-width bytes padded with NUL, and the NUL
# bytes of a whole chunk are deleted by one ``bytes.translate``.
_DIGIT = range(ord("0"), ord("9") + 1)
_DIGITS4 = _words(_DIGIT, _DIGIT, _DIGIT, _DIGIT)  # b"%04d" % n at index n
# At index 100 * negative + 10 * whole + tenth: the sign byte (0 when there is
# none), the whole digit, "." and the first decimal.
_HEADS = _words([0, ord("-")], _DIGIT, [ord(".")], _DIGIT)
_POINT2 = _words([0], [ord(".")], _DIGIT, _DIGIT)  # b"\0.%02d" % n at index n
# b"%4d" % n with NUL for space at index n: the top group of a number's
# digits; a 0 there is all NUL, except in a number's only group.
_TOP, _ONLY = (
    np.where(np.arange(10_000)[:, None] < lead, 0, _DIGITS4.view(np.uint8).reshape(-1, 4)).view("<u4").reshape(-1)
    for lead in ([1000, 100, 10, 1], [1000, 100, 10, 0])
)


def _digits(magnitude: np.ndarray) -> np.ndarray:
    """``(..., g)`` words of the decimal digits of the unsigned integers
    ``magnitude``, 4 to a word, leading zeros NUL; ``g`` fits the largest."""
    groups = (len(str(int(magnitude.max(initial=0)))) + 3) // 4
    words = np.empty(magnitude.shape + (groups,), "<u4")
    for g in range(groups - 1, 0, -1):
        magnitude, low = np.divmod(magnitude, 10_000)
        words[..., g] = np.where(magnitude > 0, _DIGITS4[low], (_ONLY if g == groups - 1 else _TOP)[low])
    words[..., 0] = (_ONLY if groups == 1 else _TOP)[magnitude]
    return words


# Values are rounded in fixed point. y = |v| * 10**d is within y * 2**-53 of
# the exact product, so rint(y) gives the correctly rounded, round-half-even
# digits of "%.{d}f" unless y lies within y * 2**-50 of a half-integer. A row
# with such a value, or with one that rounds to the writer's limit or more
# (NaN and inf included), is formatted by "%" instead.
def _fixed_point(v: np.ndarray, decimals: int, limit: float) -> tuple[np.ndarray, np.ndarray]:
    """``(k, fixed)``: ``k = rint(|v| * 10**decimals)`` as int64, and per row
    of ``v`` whether every ``k`` is exact and below ``limit`` (``k`` is 0 in
    the other rows)."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.abs(v) * 10.0**decimals
        k = np.rint(y)
        fixed = ((np.abs(y - np.floor(y) - 0.5) > y * 2.0**-50) & (k < limit)).all(axis=1)
    k[~fixed] = 0.0
    return k.astype(np.int64), fixed


def _number(digits: np.ndarray) -> list[tuple]:
    """The fields of a signed number: its sign byte (0 when it has none),
    then its ``digits`` words."""
    return [("sign", "u1"), ("digits", "<u4", digits.shape[-1:])]


def _keyed_rows(frames: np.ndarray, keys: np.ndarray, value: np.dtype, count: int, tail: bytes) -> np.ndarray:
    """Rows of ``frame,key`` (int64 columns), then ``count`` values of dtype
    ``value`` (left to fill), then ``tail``."""
    first = _digits(np.abs(frames).astype(np.uint64))  # abs(-2**63) wraps to 2**63 as uint64
    second = _digits(np.abs(keys).astype(np.uint64))
    rows = np.empty(len(frames), [("frame", _number(first)), ("comma", "S1"), ("key", _number(second)),
                                  ("values", value, (count,)), ("tail", f"S{len(tail)}")])
    rows["frame"]["sign"], rows["frame"]["digits"] = ord("-") * (frames < 0), first
    rows["key"]["sign"], rows["key"]["digits"] = ord("-") * (keys < 0), second
    rows["comma"], rows["tail"] = b",", tail
    return rows


def _lines(rows: np.ndarray, fixed: np.ndarray, fallback: Callable[[int], str]) -> bytes:
    """The bytes of ``rows`` with every NUL deleted, row ``r`` replaced by
    ``fallback(r)`` where ``fixed[r]`` is False."""
    flat = rows.view(np.uint8).reshape(len(rows), -1)
    redo = np.flatnonzero(~fixed).tolist()
    flat[redo] = 0
    body = flat.tobytes().translate(None, b"\0")
    if not redo:
        return body
    out, start = [], 0
    for r, end in zip(redo, np.cumsum(np.count_nonzero(flat, axis=1))[redo].tolist()):
        out += [body[start:end], fallback(r).encode("ascii")]
        start = end
    out.append(body[start:])
    return b"".join(out)


def _box_fields(boxes: np.ndarray) -> list[np.ndarray]:
    """The MOT fields ``left, top, width, height`` of ``(n, 4)`` centre-form
    boxes, with ``to_corner``'s float operations done in numpy for all the
    boxes at once."""
    cx, cy, w, h = boxes.T
    with np.errstate(over="ignore", invalid="ignore"):  # Python floats overflow silently too
        half_w, half_h = w / 2.0, h / 2.0
        left, top, right, bottom = cx - half_w, cy - half_h, cx + half_w, cy + half_h
        return [left, top, right - left, bottom - top]


# Six decimals move a box's rebuilt centre and sides by under 1e-6 (half a
# decimal per field, and float rounding), so a box this far inside every
# bound of the box domain reads back inside it.
_WRITTEN_MARGIN = 2e-6


def _written_box_rule(boxes: np.ndarray) -> None:
    """Refuse, before a MOT writer opens its file, a row whose box its reader
    would refuse: the box that the reader rebuilds from the six-decimal
    fields, not the box given, must lie in the box domain. It is rebuilt
    for the rows within ``_WRITTEN_MARGIN`` of a bound (or outside). Each
    field is written as the integer ``k = rint(|v| * 1e6)`` and its sign, so
    it reads back as ``k / 1e6``, the correctly rounded value of that
    decimal; a row that "%" formats instead reads back as what "%.6f"
    prints."""
    rows = np.flatnonzero(~_good_boxes(boxes, _WRITTEN_MARGIN))
    fields = np.stack(_box_fields(boxes[rows]), axis=1)
    k, fixed = _fixed_point(fields, 6, 1e14)
    written = np.copysign(k / 1e6, fields)
    for r in np.flatnonzero(~fixed).tolist():
        written[r] = [float("%.6f" % v) for v in fields[r].tolist()]
    back = _centred(*written.T)
    _check(_good_boxes(back), lambda r: f"as written to six decimals, {_box_fault(*back[r].tolist())}")


def _mot_lines(frames: np.ndarray, ids: np.ndarray, boxes: np.ndarray, confidence: np.ndarray) -> bytes:
    """The MOT lines of rows ``(frames[k], ids[k], boxes[k], confidence[k])``,
    byte for byte what ``_MOT_LINE`` gives, boxes in center form. Values that
    round to 1e8 or more are among those formatted by "%"."""
    values = np.stack([*_box_fields(boxes), confidence], axis=1)
    k, fixed = _fixed_point(values, 6, 1e14)
    whole, fraction = np.divmod(k, 1_000_000)
    whole = _digits(whole)
    high, low = np.divmod(fraction, 10_000)
    rows = _keyed_rows(frames, ids, np.dtype([("comma", "S1"), *_number(whole), ("point", "<u4"), ("low", "<u4")]),
                       5, b",-1,-1,-1\n")
    fields = rows["values"]
    fields["comma"], fields["sign"], fields["digits"] = b",", ord("-") * np.signbit(values), whole
    fields["point"], fields["low"] = _POINT2[high], _DIGITS4[low]
    return _lines(rows, fixed, lambda r: _MOT_LINE % (frames[r], ids[r], *values[r].tolist()))


# ",", then "-W.d" (the sign byte is 0 for a value without one), then two
# groups of 4 digits: 13 bytes, 12 once the 0 sign bytes are deleted. A
# sidecar value is below 10 on the fixed-point path, so one word holds its
# sign, whole part, point and first decimal.
_VALUE = np.dtype([("comma", "u1"), ("head", "<u4"), ("high", "<u4"), ("low", "<u4")])


def _embedding_rows(frames: np.ndarray, indices: np.ndarray, m: np.ndarray, line: str) -> bytes:
    """The sidecar lines of keys ``(frames[r], indices[r])`` and the rows of
    ``m``, byte for byte what ``line % (frame, det_index, *row)`` gives."""
    k, fixed = _fixed_point(m, 9, 1e10)
    head, low = np.divmod(k, 10_000)
    head, high = np.divmod(head, 10_000)
    head += 100 * np.signbit(m)
    rows = _keyed_rows(frames, indices, _VALUE, m.shape[1], b"\n")
    fields = rows["values"]
    fields["comma"] = ord(",")
    fields["head"] = _HEADS[head]
    fields["high"] = _DIGITS4[high]
    fields["low"] = _DIGITS4[low]
    return _lines(rows, fixed, lambda r: line % (frames[r], indices[r], *m[r].tolist()))


def write_gt(path, stream: IdStream) -> int:
    """Write a ground-truth or result stream, rows sorted by (frame, id)
    with their confidences, interpolated or not, and return the number of
    rows written. ``read_gt``'s rules are checked on every row before the
    file is opened, its box rule on the boxes it will rebuild: a coasted
    head that ran out of the box domain is refused here, and so is a box
    that its six decimals move out of it."""
    stream = stream.take(np.lexsort((stream.ids, stream.frames)))
    frames, ids, boxes, confidence = stream.frames, stream.ids, stream.boxes, stream.confidence
    _frame_rule(frames, _check)
    _written_box_rule(boxes)
    _id_rules(frames, ids, confidence, _check)
    with open(path, "wb") as fh:
        for start in range(0, len(ids), _CHUNK_ROWS):
            at = slice(start, start + _CHUNK_ROWS)
            fh.write(_mot_lines(frames[at], ids[at], boxes[at], confidence[at]))
    return len(ids)


write_results = write_gt  # results are the ``IdStream`` that ``track_stream`` returns


def write_detections(path, dets: DetectionStream) -> None:
    """Write the stream's detections in frame order, with id -1. Every box
    must read back inside the box domain (checked before the file is
    opened)."""
    rows, ids = dets.rows, np.full(len(dets.rows), -1, dtype=np.int64)
    _written_box_rule(rows.boxes)
    with open(path, "wb") as fh:
        for start in range(0, len(rows), _CHUNK_ROWS):
            at = slice(start, start + _CHUNK_ROWS)
            fh.write(_mot_lines(dets.frames[at], ids[at], rows.boxes[at], rows.confidence[at]))


def write_embeddings(path, dets: DetectionStream) -> None:
    """Write the embedding sidecar for a detection stream, whose every
    detection must have an embedding (checked before the file is opened).
    Rows are formatted and written a chunk of about ``_CHUNK_VALUES`` values
    at a time."""
    rows, frames = dets.rows, dets.frames
    if missing := rows.missing_embedding():
        raise ValueError(f"frame {frames[0]} {missing}")
    dim = rows.embeddings.shape[1] if len(rows) else 0
    index = np.arange(len(frames)) - frames.searchsorted(frames)  # each row's place in its frame
    line, size = "%d,%d" + ",%.9f" * dim + "\n", max(1, _CHUNK_VALUES // max(dim, 1))
    with open(path, "wb") as fh:
        fh.write(b"dim=%d\n" % dim)
        for start in range(0, len(rows), size):
            at = slice(start, start + size)
            fh.write(_embedding_rows(frames[at], index[at], rows.embeddings[at], line))


def read_config(path) -> dict[str, str]:
    """Line-oriented key=value file; '#' starts a comment, blanks are skipped.
    A key may appear once."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(_read_lines(path), start=1):
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

"""Deterministic synthetic scenes for benchmarking the tracker.

Identities move piecewise-linearly inside a rectangular arena, bouncing off
the walls, with occasional seeded direction kicks. Detections are the true
boxes plus Gaussian center/size noise, random misses, scheduled occlusion
windows (full suppression) and uniformly scattered false positives. Each
identity owns a unit-norm appearance prototype on the embedding sphere;
detection embeddings are the prototype plus isotropic noise, re-normalized.

All randomness comes from one numpy Philox (4x64 counter-based) generator
seeded from ``SimConfig.seed``, and draws happen in a fixed order, so the
same config reproduces the same scene bit for bit. ``frame_stride`` never
changes the underlying world: every source frame runs one draw sequence,
but boxes, detections and embeddings are built only for the frames that the
stride keeps, which emulates dropping the frame rate by that factor. A
dropped frame costs its draws and the motion update, not the building of a
frame. A kept frame fills its row of the ground truth's box array and its
rows of the detection stream's columns; the constructors' checks run once
per block of kept frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .geometry import (UNIT_NORM_TOL, DetectionStream, Detections, IdStream, _check_fields, _good_boxes, _integer,
                       _row_norms)

__all__ = ["SimConfig", "generate", "subsample", "benchmark_config", "config_from_mapping"]


# Upper bounds that keep every draw finite and every box in the box domain
# that readers and batches accept (``geometry.BOX_LIMIT`` and
# ``MIN_SIDE``). numpy's standard normal draws stay below 14 in magnitude, so
# a noisy side is between e**-4.2 and e**4.2 times its drawn size (from 1 to
# below 1e6, so between 0.014 and 6.7e7) and a centre moves at most 1.4e7
# beyond the arena; no embedding's squared norm comes near overflow; and a
# thousand false positives per frame is far below numpy's Poisson limit.
_CAPS = {"arena": 1e6, "center_noise": 1e6, "size_noise": 0.3, "embedding_noise": 1e6, "fp_rate": 1e3}

# How many kept frames ``generate`` checks at once. One check over the whole
# stock stream raised the peak RSS of ``generate`` by 1.8 MB, as its
# temporaries grow with the stream; a block's grow with the block, and the
# stock stream takes 17 checks.
_CHECK_BLOCK = 32


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    num_identities: int = 20
    frames: int = 200
    arena: tuple[float, float] = (1280.0, 720.0)
    speed_range: tuple[float, float] = (1.0, 4.0)
    box_size_range: tuple[float, float] = (30.0, 70.0)
    center_noise: float = 1.0
    size_noise: float = 0.03
    miss_rate: float = 0.05
    fp_rate: float = 0.2
    occlusion_events: int = 0
    occlusion_duration: tuple[int, int] = (5, 15)
    embedding_dim: int = 64
    embedding_noise: float = 0.2
    frame_stride: int = 1
    turn_prob: float = 0.02  # chance per identity per frame of a direction kick

    def __post_init__(self):
        _check_fields(self)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name, least in (("num_identities", 1), ("frames", 1), ("frame_stride", 1), ("embedding_dim", 2)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name in ("speed_range", "box_size_range"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi, got {getattr(self, name)!r}")
        if self.box_size_range[0] < 1:
            # With the size_noise cap every noisy side is then above e**-4.2,
            # inside the box domain.
            raise ValueError(f"box_size_range must start at 1 or more, got {self.box_size_range!r}")
        for name, cap in _CAPS.items():
            value = getattr(self, name)
            if max(value if isinstance(value, tuple) else (value,)) > cap:
                raise ValueError(f"{name} must be <= {cap:g}, got {value!r}")
        if self.box_size_range[1] >= min(self.arena):
            raise ValueError(f"box_size_range must stay below min(arena) = {min(self.arena):g}, "
                             f"got {self.box_size_range!r}")
        room = min(self.arena) - self.box_size_range[1]
        if self.speed_range[1] >= room:
            # Keeps a step within one reflection of the walls (see _bounce).
            raise ValueError(f"speed_range must stay below min(arena) - box_size_range[1] = {room:g}, "
                             f"got {self.speed_range!r}")
        lo, hi = self.occlusion_duration
        if lo < 1 or hi < lo:
            raise ValueError(f"occlusion_duration must satisfy 1 <= lo <= hi, got {self.occlusion_duration!r}")
        for name in ("center_noise", "size_noise", "embedding_noise", "fp_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("miss_rate", "turn_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")


def benchmark_config(seed: int = 7) -> SimConfig:
    """The stock ablation scene: 32 identities, 520 frames, occlusions on.

    Speeds and box sizes are chosen so that at a frame stride of 10 the
    per-frame displacement straddles the point where plain IoU association
    falls apart, while at stride 1 it stays trivially matchable.
    """
    return SimConfig(
        seed=seed,
        num_identities=32,
        frames=520,
        arena=(1600.0, 900.0),
        speed_range=(1.2, 4.2),
        box_size_range=(36.0, 72.0),
        center_noise=1.0,
        size_noise=0.02,
        miss_rate=0.04,
        fp_rate=0.3,
        occlusion_events=12,
        occlusion_duration=(5, 14),
        embedding_dim=64,
        embedding_noise=0.15,
        frame_stride=1,
        turn_prob=0.02,
    )


def _bounce(p: float, v: float, lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        return lo, v
    while p < lo or p > hi:
        if p < lo:
            p, v = 2.0 * lo - p, -v
        else:
            p, v = 2.0 * hi - p, -v
    return p, v


def generate(config: SimConfig) -> tuple[IdStream, DetectionStream]:
    """Build the (gt, dets) streams of a scene, frames numbered from 1.

    gt is one ``IdStream``: for each kept frame in order, every identity
    (ids from 1, in order) with its true box and confidence 1. dets is one
    ``DetectionStream`` of noisy boxes, confidences and unit embeddings,
    each kept frame's rows in identity order and then its false positives.
    Source frames 1, 1+stride, 1+2*stride, ... are kept and numbered
    densely. Every source frame runs one draw sequence, and whether it is
    kept decides only what is built from the draws, so the result equals
    ``subsample`` of the stride-1 scene. A kept frame's values, gathered as
    Python floats and noise vectors, fill in one step its row of one
    ``(kept frames, 4n)`` array of true boxes and its rows of the detection
    columns, which have room for ``n + ceil(fp_rate)`` rows a frame (doubled
    when a frame overflows it). Its embeddings are normalised together by
    ``_row_norms``, as the prototypes are, so every unit vector comes from
    one norm. The columns skip the constructors' checks; their rules run in
    ``_check_frames`` once per block of ``_CHECK_BLOCK`` kept frames, so
    they cost a few calls per stream and hold temporaries for one block.

    A detection's box noise is drawn into one scratch row, and its identity
    embedding noise into row ``len(seen)`` of one scratch matrix, with
    ``standard_normal(out=...)``, which takes the stream element for element
    as ``normal(size=...)`` does; a false positive's embedding noise comes
    from ``normal(size=dim)``. ``normal`` returns ``0.0 + x``, so it turns a
    ``-0.0`` draw into ``+0.0`` where ``standard_normal`` keeps it. That
    changes no bit: every centre is at least 0.5, ``exp(-0.0) == exp(0.0) ==
    1.0``, and no prototype holds ``-0.0`` (``normal`` never returns it), so
    ``proto + c * -0.0 == proto + c * 0.0``. An identity's wall bounds are
    worked out once, and ``_bounce`` runs only for a step that leaves them.
    """
    rng = np.random.Generator(np.random.Philox(config.seed))
    random, normal, uniform, standard_normal = rng.random, rng.normal, rng.uniform, rng.standard_normal
    exp = math.exp
    n = config.num_identities
    dim = config.embedding_dim
    stride = config.frame_stride
    width, height = config.arena
    miss_rate, turn_prob = config.miss_rate, config.turn_prob
    center_noise, size_noise = config.center_noise, config.size_noise

    protos = np.empty((n, dim))
    sizes: list[tuple[float, float]] = []
    pos: list[list[float]] = []  # [x, y] per identity
    vel: list[list[float]] = []  # [vx, vy] per identity
    for i in range(n):
        protos[i] = normal(size=dim)
        w = uniform(*config.box_size_range)
        h = uniform(*config.box_size_range)
        sizes.append((w, h))
        pos.append([uniform(w / 2, width - w / 2), uniform(h / 2, height - h / 2)])
        speed = uniform(*config.speed_range)
        angle = uniform(0.0, 2.0 * math.pi)
        vel.append([speed * math.cos(angle), speed * math.sin(angle)])
    protos /= _row_norms(protos)[:, None]
    walls = [(w / 2, width - w / 2, h / 2, height - h / 2) for w, h in sizes]

    occluded = np.zeros((n, config.frames + 1), dtype=bool)
    for _ in range(config.occlusion_events):
        who = int(rng.integers(0, n))
        start = int(rng.integers(1, config.frames + 1))
        dur = int(rng.integers(config.occlusion_duration[0], config.occlusion_duration[1] + 1))
        occluded[who, start:min(start + dur, config.frames + 1)] = True
    occluded_at = occluded.T.tolist()  # one row of identities per source frame

    box_noise = np.empty(4)  # one detection's centre and size noise
    seen_noise = np.empty((n, dim))  # identity embedding noise, row k for seen[k]
    kept = (config.frames - 1) // stride + 1
    truth = np.empty((kept, 4 * n))  # row frame - 1: that frame's true boxes, flat
    room = kept * (n + math.ceil(config.fp_rate))
    columns = np.empty((room, 4)), np.empty(room), np.empty((room, dim))  # detection boxes, confidences, embeddings
    bounds = [0]  # bounds[f - 1]: the first row of kept frame f; bounds[-1]: the rows filled
    for t in range(1, config.frames + 1):
        keep = (t - 1) % stride == 0
        frame = (t - 1) // stride + 1
        occluded_now = occluded_at[t]
        true_boxes: list[float] = []  # cx, cy, w, h of each row in turn: flat
        boxes: list[float] = []  # lists become arrays twice as fast as lists of tuples
        confidence: list[float] = []
        fp_noise: list[np.ndarray] = []  # false positives' embedding noise, one row each
        seen: list[int] = []  # identity of each non-false-positive row
        for i in range(n):
            p, v = pos[i], vel[i]
            if random() < turn_prob:
                speed = math.hypot(v[0], v[1])
                angle = uniform(0.0, 2.0 * math.pi)
                v[0], v[1] = speed * math.cos(angle), speed * math.sin(angle)
            x_lo, x_hi, y_lo, y_hi = walls[i]
            x, y = p[0] + v[0], p[1] + v[1]
            if not x_lo <= x <= x_hi:
                x, v[0] = _bounce(x, v[0], x_lo, x_hi)
            if not y_lo <= y <= y_hi:
                y, v[1] = _bounce(y, v[1], y_lo, y_hi)
            p[0] = x
            p[1] = y
            w, h = sizes[i]
            if keep:
                true_boxes += (x, y, w, h)
            if occluded_now[i] or random() < miss_rate:
                continue
            standard_normal(out=box_noise)
            conf_draw = random()
            standard_normal(out=seen_noise[len(seen)])
            if keep:
                dx, dy, dw, dh = box_noise.tolist()
                boxes += (
                    x + center_noise * dx,
                    y + center_noise * dy,
                    w * exp(size_noise * dw),
                    h * exp(size_noise * dh),
                )
                confidence.append(0.55 + 0.44 * conf_draw)
                seen.append(i)

        for _ in range(int(rng.poisson(config.fp_rate))):
            w = uniform(*config.box_size_range)
            h = uniform(*config.box_size_range)
            cx = uniform(w / 2, width - w / 2)
            cy = uniform(h / 2, height - h / 2)
            conf_draw = random()
            noise = normal(size=dim)
            if keep:
                boxes += (cx, cy, w, h)
                confidence.append(0.05 + 0.5 * conf_draw)
                fp_noise.append(noise)

        if keep:
            truth[frame - 1] = true_boxes
            k, count, end = len(seen), bounds[-1], bounds[-1] + len(confidence)
            if end > len(columns[0]):  # more false positives than the columns have room for
                columns = tuple(np.resize(column, (2 * end, *column.shape[1:])) for column in columns)
            box_rows, confidences, vectors = columns
            box_rows[count:end] = np.reshape(boxes, (-1, 4))
            confidences[count:end] = confidence
            np.add(protos.take(seen, axis=0), config.embedding_noise * seen_noise[:k], out=vectors[count : count + k])
            if fp_noise:
                vectors[count + k : end] = fp_noise
            vectors[count:end] /= _row_norms(vectors[count:end])[:, None]
            bounds.append(end)
            if frame % _CHECK_BLOCK == 0 or t + stride > config.frames:  # a full block, or the last frame
                rows = Detections._checked(box_rows[:end], confidences[:end], vectors[:end])
                _check_frames(truth, rows, bounds, range(frame - (frame - 1) % _CHECK_BLOCK, frame + 1))
    # The last frame's check saw every row.
    dets = DetectionStream(rows, np.repeat(np.arange(1, kept + 1), np.diff(bounds)), kept)
    frames, ids = np.repeat(np.arange(1, kept + 1), n), np.tile(np.arange(1, n + 1), kept)
    return IdStream._checked(frames, ids, truth.reshape(-1, 4), np.ones(kept * n)), dets


def _check_frames(truth: np.ndarray, rows: Detections, bounds: list[int], block: range) -> None:
    """Apply the rules of the ``IdStream`` and ``Detections`` constructors at
    once to the frames ``block`` of the true boxes (row ``frame - 1`` of
    ``truth``, flat) and of the detection ``rows`` (frame ``f``'s from row
    ``bounds[f - 1]`` to ``bounds[f]``) that ``generate`` built unchecked:
    boxes in the box domain, confidences in [0, 1], unit embeddings. The
    first frame with a row that breaks one goes through the constructors,
    whose error names the row, and the error names the frame too."""
    dets = rows.span(bounds[block.start - 1], bounds[block.stop - 1])
    boxes = np.concatenate([truth[block.start - 1 : block.stop - 1].reshape(-1, 4), dets.boxes])
    norms = _row_norms(dets.embeddings)
    if (_good_boxes(boxes).all() and ((dets.confidence >= 0.0) & (dets.confidence <= 1.0)).all()
            and (np.abs(norms - 1.0) <= UNIT_NORM_TOL).all()):  # a NaN fails each comparison
        return
    for frame in block:
        true_boxes, batch = truth[frame - 1].reshape(-1, 4), rows.span(bounds[frame - 1], bounds[frame])
        try:
            IdStream(np.full(len(true_boxes), frame), np.arange(1, len(true_boxes) + 1), true_boxes)
            Detections(batch.boxes, batch.confidence, batch.embeddings)
        except ValueError as error:
            raise ValueError(f"frame {frame}: {error}") from None


def subsample(stream: IdStream | DetectionStream, stride: int) -> IdStream | DetectionStream:
    """Keep frames 1, 1+stride, 1+2*stride, ... and number them densely.

    One mask keeps the kept frames' rows, every column, in their order; the
    stride is an integer of 1 or more. A detection stream's last frame
    becomes the kept frame at or before it, so that the tracker still steps
    (and coasts) to the end, rows there or not. A detection's prediction
    still points one source frame ahead, not one kept frame, so a strided
    stream should carry none (``idtrack track`` rejects ``--predictions``
    with a stride).
    """
    stride = _integer(stride, "stride")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    frames, offset = np.divmod(stream.frames - 1, stride)
    keep = (offset == 0) & (frames >= 0)
    if isinstance(stream, IdStream):
        return IdStream._checked(frames[keep] + 1, *(getattr(stream, name)[keep] for name in IdStream.__slots__[1:]))
    return DetectionStream(stream.rows.take(keep), frames[keep] + 1, (stream.last - 1) // stride + 1)


def config_from_mapping(values: Mapping[str, str]) -> SimConfig:
    """Build a SimConfig from string key=value pairs (e.g. a config file).

    Each value is parsed as the type of that field's default in
    ``SimConfig()``. Tuple-valued keys take comma-separated pairs, e.g.
    ``arena=1600,900``. Unknown keys raise, and so does a value that does
    not parse, naming its key and the raw text.
    """
    kwargs = {}
    defaults = SimConfig()
    valid = SimConfig.__dataclass_fields__
    for key, raw in values.items():
        if key not in valid:
            raise ValueError(f"unknown sim config key {key!r}")
        default = getattr(defaults, key)
        kind = type(default[0] if isinstance(default, tuple) else default)
        try:
            if isinstance(default, tuple):
                parts = raw.split(",")
                if len(parts) != len(default):
                    raise ValueError
                kwargs[key] = tuple(kind(part.strip()) for part in parts)
            else:
                kwargs[key] = kind(raw)
        except ValueError:
            if isinstance(default, tuple):
                what = f"{len(default)} comma-separated {kind.__name__} values"
            else:
                what = f"one {kind.__name__} value"
            raise ValueError(f"{key} needs {what}, got {raw!r}") from None
    return SimConfig(**kwargs)

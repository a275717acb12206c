"""idtrack benchmark: simulate -> track -> eval, plus a frame-by-frame replay.

Usage (from the repository root):

    python3 perfbench/run.py --workload stock --seed 3 --seconds 20 --trace 0

Each round runs the user's pipeline in-process through ``idtrack.cli.main``
on files under ``.perfbench_work/`` (``simulate``, then ``track``, then
``eval``) and then replays the same detections through the public online
API (confidence filter, ``nms``, ``Tracker.step``) one frame at a time,
timing each frame. Rounds repeat until ``--seconds`` have passed. Every
stage call and every replayed frame is checked; README.md lists the checks,
the metrics and the workloads.

Times are scaled to a nominal host speed (hostspeed.py); the raw times of
every round go to standard error.

With ``--trace 1`` the run reports per-layer metrics instead: it times
rounds untraced for half of ``--seconds``, then runs pipeline passes with
spans around the public functions of each module (spans.py).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs every
workload, each in its own process, and sums them up.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())

MIN_ROUNDS = 2  # the second pass is what proves hyp.txt byte-identical
EVAL_CALLS = 3  # eval is the shortest stage, so each round times it 3 times
REPLAYS = 2  # per round; the tail takes each frame's median over the run's replays
SETUP_PROBES = 5
TAIL_LADDER = (50, 90, 95, 98, 99, 99.5, 99.9)
TAIL_BEYOND = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "simulate_s": "s",
    "track_s": "s",
    "eval_s": "s",
    "track_fps": "frames/s",
    "frame_ms_p50": "ms",
    "frame_ms_tail": "ms",
    "mota": "%",
    "id_switches": "count",
    "peak_rss_mb": "MB",
}


def tail_percentile(n: int) -> float:
    """Highest percentile on TAIL_LADDER with at least TAIL_BEYOND of ``n``
    samples ranked above its nearest-rank value."""
    for p in reversed(TAIL_LADDER):
        if n - _rank(n, p) >= TAIL_BEYOND:
            return p
    raise ValueError(f"{n} samples leave fewer than {TAIL_BEYOND} beyond any percentile")


def _rank(n: int, p: float) -> int:
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def nearest_rank(values, p: float) -> float:
    """The ceil(p% * n)-th smallest value (an observed sample)."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def set_up_environment() -> None:
    """Pin BLAS to one thread and put this checkout's ``src`` first on the
    path. Exits 2 when the checkout holds no idtrack sources."""
    if not (SRC / "idtrack" / "__init__.py").is_file():
        print(f"perfbench: no idtrack sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("IDTRACK_SEED", None)  # an explicit --seed beats it anyway
    sys.path.insert(0, str(SRC))


class Workload:
    """One workload's configs and file layout, built from workloads.json."""

    def __init__(self, name: str, workdir: Path):
        from idtrack import AffinityWeights, SimConfig, TrackerConfig

        spec = WORKLOADS["workloads"][name]
        self.reference = spec["reference"]
        self.tail = spec["tail"]
        if tail_percentile(self.tail["frames"]) != self.tail["percentile"]:
            raise ValueError(f"{name}: recorded tail percentile disagrees with the rule")
        sim = {k: tuple(v) if isinstance(v, list) else v for k, v in spec["sim"].items()}
        SimConfig(seed=WORKLOADS["reference_seed"], **sim)  # validate before any stage runs
        t = WORKLOADS["tracker"]
        self.tracker_config = TrackerConfig(
            weights=AffinityWeights(t["w1"], t["w2"]),
            buffer_size=t["buffer_size"],
            min_affinity=t["min_affinity"],
            det_threshold=t["det_threshold"],
            motion_propagate_frames=t["propagate_frames"],
            embedding_momentum=t["embedding_momentum"],
        )
        self.nms_iou = t["nms_iou"]
        self.track_flags = [
            "--w1", str(t["w1"]), "--w2", str(t["w2"]),
            "--buffer-size", str(t["buffer_size"]),
            "--min-affinity", str(t["min_affinity"]),
            "--det-threshold", str(t["det_threshold"]),
            "--propagate-frames", str(t["propagate_frames"]),
            "--embedding-momentum", str(t["embedding_momentum"]),
            "--nms-iou", str(t["nms_iou"]),
        ]
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "sim.cfg"
        lines = [f"{k}={','.join(map(str, v)) if isinstance(v, tuple) else v}" for k, v in sim.items()]
        self.config_path.write_text("\n".join(lines) + "\n", encoding="ascii")

    def stages(self, scene: Path, seed: int, eval_calls: int):
        gt, dets, emb, hyp = (str(scene / f) for f in ("gt.txt", "dets.txt", "embeddings.txt", "hyp.txt"))
        return [
            ("simulate", ["simulate", "--config", str(self.config_path), "--seed", str(seed), "--out-dir", str(scene)]),
            ("track", ["track", "--dets", dets, "--embeddings", emb, "--out", hyp, *self.track_flags]),
        ] + [("eval", ["eval", "--gt", gt, "--hyp", hyp])] * eval_calls


class Run:
    """One benchmark run: executes and checks stages and replays, counting
    attempted and failed operations."""

    def __init__(self, workload: Workload, host: HostSpeed):
        import idtrack.cli

        self.w = workload
        self.host = host
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[tuple[str, str], str] = {}
        self.expected_eval: dict[str, list[str]] = {}
        # What `idtrack track` tracked on the first seeded pass, to check the
        # replay against. Later outputs are not kept: holding them would
        # make the program's own garbage collections slower.
        self.capture = False
        self.captured = None
        original = idtrack.cli.track_stream

        def capture(*args, **kwargs):
            outputs = original(*args, **kwargs)
            if self.capture:
                self.captured, self.capture = outputs, False
            return outputs

        idtrack.cli.track_stream = capture

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def _call_cli(self, argv, tracer):
        from idtrack.cli import main

        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                if tracer is None:
                    code = main(argv)
                else:
                    with tracer.span("cli." + argv[0]):
                        code = main(argv)
        except Exception:  # a crash in the program is a failed operation
            traceback.print_exc(file=sys.stderr)
            code = None
        return code, buf.getvalue()

    def pipeline(self, scene: Path, seed: int, tracer=None, eval_calls: int = 1) -> dict:
        """simulate -> track -> eval on one scene, checking every stage call.

        Returns lists of scaled and of raw seconds per stage, and the eval
        stage's output."""
        times, raw = {}, {}
        eval_out = ""
        for name, argv in self.w.stages(scene, seed, eval_calls):
            self.attempted += 1
            (code, out), elapsed, factor = self.host.timed(self._call_cli, argv, tracer)
            times.setdefault(name, []).append(elapsed * factor)
            raw.setdefault(name, []).append(elapsed)
            if code != 0:
                self.fail(f"{name} on {scene.name} exited {code}")
            elif name == "eval":
                eval_out = out
                self.check_eval(scene, out)
            else:
                self.check_bytes(scene, name)
        return {"times": times, "raw": raw, "eval": eval_out}

    def check_bytes(self, scene: Path, stage: str) -> None:
        """Every pass over a scene must write the same bytes as the first."""
        files = ("gt.txt", "dets.txt", "embeddings.txt") if stage == "simulate" else ("hyp.txt",)
        for f in files:
            digest = hashlib.sha256((scene / f).read_bytes()).hexdigest()
            first = self.digests.setdefault((scene.name, f), digest)
            if digest != first:
                self.fail(f"{scene.name}/{f} differs from the first pass")

    def check_eval(self, scene: Path, out: str) -> None:
        """The CLI's key=value lines must equal format_report(evaluate(...))."""
        from idtrack import evaluate, format_report
        from idtrack.mot_io import read_gt

        expected = self.expected_eval.get(scene.name)
        if expected is None:
            report = evaluate(read_gt(scene / "gt.txt"), read_gt(scene / "hyp.txt"))
            expected = self.expected_eval[scene.name] = format_report(report).splitlines()
        got = out.strip().splitlines()[-len(expected):]
        if got != expected:
            self.fail(f"eval on {scene.name} printed {got[:2]}..., expected {expected[:2]}...")

    def replay(self, dets, expected) -> tuple[dict[int, float], float]:
        """Closed-loop online replay, checked frame by frame against
        ``expected``. Returns ({frame: scaled seconds} of the timed frames,
        raw seconds of all frames).

        The timer is paused; the replay probes the host itself between
        frames every ``HostSpeed.INTERVAL`` seconds and scales each frame by
        the probes on either side of it. The frame right after a probe runs
        on caches the probe evicted, so it is checked but not timed."""
        from idtrack import Tracker, nms

        cfg = self.w.tracker_config
        threshold, nms_iou = cfg.det_threshold, self.w.nms_iou
        host = self.host
        tracker = Tracker(cfg)
        timed = []  # (frame, raw seconds, index of the probe group before it)
        raw_total = 0.0
        with host.paused():
            groups = [host.probe_mean(host.EDGE_PROBES)]
            last_probe = host.clock()
            after_probe = True
            for frame in range(1, max(dets) + 1):
                raw = dets.get(frame, [])
                start = host.clock()
                kept = nms([d for d in raw if d.confidence >= threshold], nms_iou)
                out = tracker.step(kept, frame)
                elapsed = host.clock() - start
                raw_total += elapsed
                self.attempted += 1
                if out != expected.get(frame, []):
                    self.fail(f"replayed frame {frame} differs from track_stream")
                if not after_probe:
                    timed.append((frame, elapsed, len(groups) - 1))
                after_probe = host.clock() - last_probe >= host.INTERVAL
                if after_probe:
                    groups.append(host.probe_mean(1))
                    last_probe = host.clock()
            groups.append(host.probe_mean(host.EDGE_PROBES))
        scaled = {f: t * 2 * host.nominal / (groups[g] + groups[g + 1]) for f, t, g in timed}
        return scaled, raw_total


def by_frame(outputs) -> dict[int, list]:
    grouped: dict[int, list] = {}
    for o in outputs:
        grouped.setdefault(o.frame, []).append(o)
    return grouped


def parse_report(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.strip().splitlines() if "=" in line)


def measure_setup(workload: str, workdir: Path, host: HostSpeed) -> float:
    """Median scaled seconds from spawning a fresh interpreter to a prepared
    workload, less the time the child spent probing the host."""
    samples = []
    with host.paused():  # the parent's probes would compete with the child
        for k in range(SETUP_PROBES):
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.run(
                [sys.executable, str(HERE / "ready.py"), workload, str(workdir / f"probe{k}")],
                capture_output=True, text=True, timeout=120, check=True,
            )
            ready, spent, probe_s = map(float, proc.stdout.split())
            samples.append((ready - start - spent) * host.nominal / probe_s)
    return statistics.median(samples)


def run_workload(args) -> dict:
    import idtrack

    if Path(idtrack.__file__).resolve().parent != SRC / "idtrack":
        sys.exit(f"perfbench: imported idtrack from {idtrack.__file__}, not from {SRC}")
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        with HostSpeed(WORKLOADS["host_probe_s"]) as host:
            return _measure(args, workdir, host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


def _measure(args, workdir: Path, host: HostSpeed) -> dict:
    from idtrack.mot_io import load_detections

    setup_s = None if args.trace else measure_setup(args.workload, workdir, host)
    w = Workload(args.workload, workdir)
    run = Run(w, host)

    # Warm-up pass over the reference scene. Its accuracy is what the run
    # reports, checked against the recorded reference values.
    ref = parse_report(run.pipeline(workdir / "reference", WORKLOADS["reference_seed"])["eval"])
    mota, ids = float(ref.get("mota", 0.0)), int(ref.get("ids", 0))
    if (mota, ids) != (w.reference["mota"], w.reference["id_switches"]):
        run.fail(f"reference scene gave mota={mota} ids={ids}, recorded {w.reference}")

    scene = workdir / "scene"
    dets = expected = None
    rounds = []
    budget = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    while len(rounds) < (1 if args.trace else MIN_ROUNDS) or time.perf_counter() - start < budget:
        run.capture = dets is None
        result = run.pipeline(scene, args.seed, eval_calls=EVAL_CALLS)
        if dets is None:
            dets = load_detections(scene / "dets.txt", scene / "embeddings.txt")
            expected = by_frame(run.captured or [])
            run.captured = None
            # Keep what the benchmark holds out of the program's GC passes.
            gc.collect()
            gc.freeze()
        replays = [run.replay(dets, expected) for _ in range(REPLAYS)]
        rounds.append({"times": result["times"], "replays": [frames for frames, _ in replays]})
        print(
            f"perfbench: round {len(rounds)} raw "
            + " ".join(f"{k}={'/'.join(f'{t:.3f}' for t in v)}s" for k, v in result["raw"].items())
            + " replay=" + "/".join(f"{raw:.3f}" for _, raw in replays) + "s"
            + " (" + "/".join(str(len(frames)) for frames, _ in replays) + " frames timed)",
            file=sys.stderr,
        )

    stage_s = {name: statistics.median(t for r in rounds for t in r["times"][name]) for name in rounds[0]["times"]}
    pipeline_s = sum(stage_s.values())
    if args.trace:
        metrics = _trace_metrics(run, scene, args, budget, pipeline_s)
    else:
        replays = [frames for r in rounds for frames in r["replays"]]
        all_frames = [t for frames in replays for t in frames.values()]
        # A host hiccup hits one frame of one replay; the frames that are slow
        # in most replays are the program's tail.
        per_frame = {}
        for frames in replays:
            for f, t in frames.items():
                per_frame.setdefault(f, []).append(t)
        typical = [statistics.median(ts) for ts in per_frame.values()]
        tail = w.tail["percentile"]
        if len(typical) - _rank(len(typical), tail) < TAIL_BEYOND:
            run.fail(f"{len(typical)} timed frames leave fewer than {TAIL_BEYOND} beyond p{tail}")
        values = {
            "setup_s": setup_s,
            "pipeline_s": pipeline_s,
            "simulate_s": stage_s["simulate"],
            "track_s": stage_s["track"],
            "eval_s": stage_s["eval"],
            "track_fps": len(all_frames) / sum(all_frames),
            "frame_ms_p50": 1000.0 * statistics.median(all_frames),
            "frame_ms_tail": 1000.0 * nearest_rank(typical, tail),
            "mota": mota,
            "id_switches": ids,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    for problem in run.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed={args.seed} rounds={len(rounds)} "
        f"python={sys.version.split()[0]} numpy={sys.modules['numpy'].__version__} "
        f"scipy={sys.modules['scipy'].__version__} nproc={os.cpu_count()} blas_threads=1",
        file=sys.stderr,
    )
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _trace_metrics(run: Run, scene: Path, args, budget: float, untraced_pipeline_s: float) -> dict:
    """Traced pipeline passes for ``budget`` seconds (at least one); the
    median of each per-layer metric over them, plus the tracing overhead."""
    from spans import EXPECTED_SPANS, LAYER_METRICS, Tracer, check_spans, install, layer_metrics, uninstall

    tracer = Tracer(run.host.clock)
    patched, problems = install(tracer)
    for problem in problems:
        run.fail(f"trace: {problem}")
    passes = []
    try:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < budget:
            tracer.reset()
            result = run.pipeline(scene, args.seed, tracer)
            for problem in check_spans(tracer.spans, EXPECTED_SPANS):
                run.fail(f"trace: {problem}")
            # One factor per pass: the stages' own factors, weighted by time.
            scaled = sum(t for v in result["times"].values() for t in v)
            factor = scaled / sum(t for v in result["raw"].values() for t in v)
            layer = layer_metrics(tracer.spans, tracer.counts)
            for name in layer:
                if name.endswith("_s"):
                    layer[name] *= factor
            layer["pipeline_s"] = scaled
            passes.append(layer)
    finally:
        uninstall(patched)
    print(f"perfbench: {len(passes)} traced passes", file=sys.stderr)
    metrics = {name: (statistics.median(p[name] for p in passes), unit) for name, unit in LAYER_METRICS.items()}
    overhead = statistics.median(p["pipeline_s"] for p in passes) - untraced_pipeline_s
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def run_all(args) -> dict:
    """Every workload in its own process, so peak RSS stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        print(f"# {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=WORKLOADS["reference_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    set_up_environment()
    result = run_all(args) if args.workload == "all" else run_workload(args)
    if args.workload != "all":
        for name, m in result["metrics"].items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

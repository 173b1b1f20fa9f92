#!/usr/bin/env python3
"""Segmentation benchmark for speakerseg.

    python3 segbench/run.py --workload pitch-long --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. It generates the workload's recordings
from --seed with the program's synthesizer, then segments them one after
another in this process through `speakerseg.cli.main(["segment", ...])`:
one closed-loop client, no threads or processes of its own. With
--trace 0 it prints the end-to-end metrics; with --trace 1 it wraps the
program's public functions and prints per-layer metrics. The last line
of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. See README.md in this directory for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from tracer import Tracer
from workloads import (
    WORKLOADS,
    build_corpus,
    canary_digest,
    check_pins,
    corpus_digest,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
TOLERANCE_S = 0.3
SETUP_REPEATS = 3

# name, unit, direction; the JSON line carries these with --trace 0.
END_TO_END = (
    ("realtime_x", "s/s", "higher"),
    ("peak_mem_mb", "MB", "lower"),
    ("f", "ratio", "higher"),
    ("precision", "ratio", "higher"),
    ("recall", "ratio", "higher"),
    ("setup_s", "s", "lower"),
)
# Printed beside them but kept out of the JSON line, because they are 0
# on a healthy run: precision = 1 - fd, recall = 1 - fr, and error_rate
# is failed / attempted.
PRINTED_ONLY = (
    ("fd", "ratio", "lower"),
    ("fr", "ratio", "lower"),
    ("error_rate", "ratio", "lower"),
)


class Session:
    """Calls the CLI on recordings and checks every output it writes."""

    def __init__(self, cli, method: str):
        self.cli = cli
        self.method = method
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str] = {}  # recording -> first output text
        self.errors: list[str] = []

    def segment(self, rec) -> float:
        """One `segment` call; returns its wall time in seconds."""
        rec.hyp.unlink(missing_ok=True)
        argv = ["segment", str(rec.wav), "--method", self.method, "--out", str(rec.hyp)]
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(captured):
                code = self.cli.main(argv)
        except Exception as exc:  # a raising call is a failed call; keep measuring
            code = f"raised {exc!r}"
        wall = time.perf_counter() - start
        self.attempted += 1
        problem = self._check(rec, code, captured.getvalue())
        if problem is not None:
            self.failed += 1
            self.errors.append(f"{rec.name}: {problem}")
        return wall

    def _check(self, rec, code, stderr: str):
        if code != 0:
            return f"exit {code}: {stderr.strip()[-300:]}"
        try:
            text = rec.hyp.read_text(encoding="utf-8")
            parse_points(text, rec.audio_s)
        except (OSError, ValueError) as exc:
            return f"bad output: {exc}"
        if self.first.setdefault(rec.name, text) != text:
            return "change points differ from the first repetition"
        return None

    def points(self, rec) -> list[float]:
        return parse_points(self.first.get(rec.name, ""), rec.audio_s)


def parse_points(text: str, duration_s: float) -> list[float]:
    """Change-point file: one time per line, strictly increasing, in range."""
    times = [float(line) for line in text.split()]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("change points not strictly increasing")
    if times and (times[0] < 0 or times[-1] > duration_s):
        raise ValueError("change point outside the recording")
    return times


def match_count(reference: list[float], hypothesis: list[float], tolerance_s: float) -> int:
    """One-to-one pairs within tolerance, taken greedily by distance.

    Written here rather than taken from speakerseg.evaluation, so a change
    to the program's metric code cannot move the benchmark's accuracy.
    The 1e-9 slack absorbs the 3-decimal rounding of both files.
    """
    pairs = sorted(
        (abs(r - h), i, j)
        for i, r in enumerate(reference)
        for j, h in enumerate(hypothesis)
        if abs(r - h) <= tolerance_s + 1e-9
    )
    used_ref, used_hyp = set(), set()
    for _, i, j in pairs:
        if i not in used_ref and j not in used_hyp:
            used_ref.add(i)
            used_hyp.add(j)
    return len(used_ref)


def accuracy(recordings, session) -> dict[str, float]:
    n_ref = n_hyp = matched = 0
    for rec in recordings:
        hyp = session.points(rec)
        n_ref += len(rec.truth)
        n_hyp += len(hyp)
        matched += match_count(rec.truth, hyp, TOLERANCE_S)
    fd = (n_hyp - matched) / n_hyp if n_hyp else 0.0
    fr = (n_ref - matched) / n_ref if n_ref else 0.0
    f = 2 * (1 - fd) * (1 - fr) / (2 - fd - fr) if fd + fr < 2 else 0.0
    return {"f": f, "precision": 1 - fd, "recall": 1 - fr, "fd": fd, "fr": fr}


def timed_pass(session, recordings, seconds: float, tracer=None):
    """Cycle through the corpus until `seconds` have passed and every
    recording ran once.

    Returns the realtime factor and the number of calls per recording.
    The factor is the corpus's audio seconds over its wall seconds, where
    each recording costs its audio length times the median wall seconds
    per audio second of every call on a recording of its shape (sample
    rate and length). The median keeps the bursts of a shared machine
    from moving the result.
    """
    costs: dict[tuple[int, int], list[float]] = {}
    calls = {rec.name: 0 for rec in recordings}
    start = time.perf_counter()
    while True:
        for rec in recordings:
            if tracer is not None:
                tracer.recording = rec.name
            wall = session.segment(rec)
            costs.setdefault((rec.rate_hz, rec.n_samples), []).append(wall / rec.audio_s)
            calls[rec.name] += 1
            if time.perf_counter() - start >= seconds and all(calls.values()):
                audio_s = sum(rec.audio_s for rec in recordings)
                wall_s = sum(rec.audio_s * statistics.median(costs[(rec.rate_hz, rec.n_samples)])
                             for rec in recordings)
                return audio_s / wall_s, calls


def memory_pass(session, rec, tracer=None) -> float:
    """tracemalloc peak in MB while segmenting one recording."""
    if tracer is not None:
        tracer.recording = rec.name
        tracer.install()
    tracemalloc.start()
    try:
        session.segment(rec)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
        if tracer is not None:
            tracer.uninstall()


# Per-layer metric -> (span name, field) with field 0 calls, 1 total
# seconds, 2 self seconds; each is a mean per `segment` call.
SPAN_METRICS = {
    "cli.segment_s": ("cli.main", 1),
    "cli.self_s": ("cli.main", 2),
    "audio_io.load_wav_s": ("audio_io.load_wav", 1),
    "pitch.pitch_track_s": ("pitch.pitch_track", 1),
    "pitch_seg.segment_s": ("pitch_seg.segment", 1),
    "pitch_seg.self_s": ("pitch_seg.segment", 2),
    "features.mfcc_s": ("features.mfcc", 1),
    "bic.detect_growing_s": ("bic.detect_growing", 1),
    "bic.detect_fixed_s": ("bic.detect_fixed", 1),
    "bic.verify_change_s": ("bic.verify_change", 1),
    "bic.verify_change_calls": ("bic.verify_change", 0),
    "bic.delta_bic_calls": ("bic.delta_bic", 0),
    "bic.fit_gaussian_calls": ("bic.fit_gaussian", 0),
    "bic.fit_gaussian_s": ("bic.fit_gaussian", 1),
}
# Per-layer metric -> (observed count, scale); a mean per `segment` call.
COUNT_METRICS = {
    "audio_io.mb_read": ("bytes_read", 1e-6),
    "pitch.frames": ("frames", 1.0),
    "pitch_seg.candidates": ("candidates", 1.0),
    "features.rows": ("rows", 1.0),
    "bic.points": ("points", 1.0),
}


def recording_layers(tracer, session, recordings, calls: dict[str, int]) -> dict[str, dict]:
    """Per recording: every per-call layer value, plus voiced frames and
    accepted candidates for the pooled ratios."""
    spans = tracer.totals()
    rows = {}
    for rec in recordings:
        n = calls[rec.name]
        totals = spans.get(rec.name, {})
        counts = tracer.counts.get(rec.name, {})
        row = {metric: totals[name][field] / n if name in totals else 0.0
               for metric, (name, field) in SPAN_METRICS.items()}
        row.update({metric: counts.get(key, 0.0) * scale / n
                    for metric, (key, scale) in COUNT_METRICS.items()})
        row["voiced"] = counts.get("voiced", 0.0) / n
        # Every accepted candidate becomes a written change point.
        row["accepted"] = len(session.points(rec)) if row["pitch_seg.candidates"] else 0
        rows[rec.name] = row
    return rows


def layer_metrics(rows, setup_tracer, mem_tracer, rtx) -> dict:
    """Workload values: the mean over recordings of each per-call value,
    with the two ratios pooled over recordings."""
    metrics = {name: (statistics.fmean(row[name] for row in rows.values()),
                      "count" if name.endswith("_calls") else "s")
               for name in SPAN_METRICS}
    metrics.update({name: (statistics.fmean(row[name] for row in rows.values()),
                           "MB" if name.endswith("_read") else "count")
                    for name in COUNT_METRICS})
    frames = sum(row["pitch.frames"] for row in rows.values())
    candidates = sum(row["pitch_seg.candidates"] for row in rows.values())
    synth_s = [by_name["synth.synth_speakers"][1]
               for by_name in setup_tracer.totals().values() if "synth.synth_speakers" in by_name]
    untraced, traced = rtx
    metrics.update({
        "pitch.voiced_ratio": (sum(r["voiced"] for r in rows.values()) / frames if frames else 0.0,
                               "ratio"),
        "pitch.peak_mb": (mem_tracer.peak_mb.get("pitch.pitch_track", 0.0), "MB"),
        "pitch_seg.accept_ratio": (sum(r["accepted"] for r in rows.values()) / candidates
                                   if candidates else 0.0, "ratio"),
        "synth.synth_speakers_s": (statistics.median(synth_s) if synth_s else 0.0, "s"),
        "trace.untraced_realtime_x": (untraced, "s/s"),
        "trace.traced_realtime_x": (traced, "s/s"),
        "trace.overhead_x": (untraced / traced, "ratio"),
    })
    return metrics


def per_recording_lines(rows, calls) -> list[str]:
    lines = []
    for name, row in rows.items():
        candidates = row["pitch_seg.candidates"]
        ratio = row["accepted"] / candidates if candidates else 0.0
        lines.append(
            f"  {name:<18} calls {calls[name]:>3}  segment {row['cli.segment_s']:8.4f} s"
            f"  candidates {candidates:5.1f}  accepted {row['accepted']:3d}  accept_ratio {ratio:.3f}"
        )
    return lines


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS this process has loaded."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    found = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return found
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                found[Path(path).name] = getter()
                break
    return found


def blas_version(module) -> str:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": blas_threads(),
        "commit": git_commit(),
    }


def metric_line(name, value, unit, better="") -> str:
    return f"{name:<26} {value:>14.6f} {unit:<6} {better}".rstrip()


def run(args, speakerseg, import_s: float, run_dir: Path) -> int:
    workload = WORKLOADS[args.workload]
    tracing = args.trace == 1
    setup_tracer = Tracer()
    if tracing:
        setup_tracer.install()
    corpora, build_s = [], []
    try:
        for k in range(SETUP_REPEATS):
            out_dir = run_dir / f"build{k}"
            out_dir.mkdir()
            setup_tracer.recording = f"build{k}"
            start = time.perf_counter()
            corpora.append(build_corpus(speakerseg, args.workload, args.seed, args.tiny, out_dir))
            build_s.append(time.perf_counter() - start)
    finally:
        setup_tracer.uninstall()
    setup_s = import_s + statistics.median(build_s)
    recordings = corpora[-1]
    digests = {corpus_digest(corpus) for corpus in corpora}
    if len(digests) != 1:
        print("segbench: the synthesizer wrote different files for one seed", file=sys.stderr)
        return 3
    try:
        pins = check_pins(args.workload, args.seed, args.tiny, digests.pop(),
                          canary_digest(speakerseg, run_dir))
    except ValueError as exc:
        print(f"segbench: INPUTS CHANGED: {exc}", file=sys.stderr)
        return 3

    env = environment(args)
    print(f"segbench {args.workload}: method {workload.method}, {len(recordings)} recordings, "
          f"{sum(r.audio_s for r in recordings):.0f} s of audio; one closed-loop client")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"pins: {pins}")
    for rec in recordings:
        print(f"input {rec.name} {rec.audio_s:.0f} s wav {rec.sha_wav} truth {rec.sha_truth}")

    session = Session(importlib.import_module("speakerseg.cli"), workload.method)
    largest = max(recordings, key=lambda r: r.n_samples)
    record = {"env": env, "pins": pins,
              "inputs": {r.name: [r.sha_wav, r.sha_truth] for r in recordings}}
    if not tracing:
        peak_mb = memory_pass(session, largest)
        realtime_x, _ = timed_pass(session, recordings, args.seconds)
        acc = accuracy(recordings, session)
        values = {"realtime_x": realtime_x, "peak_mem_mb": peak_mb, "setup_s": setup_s, **acc,
                  "error_rate": session.failed / session.attempted}
        metrics = {name: (values[name], unit) for name, unit, _ in END_TO_END}
        for name, unit, better in END_TO_END + PRINTED_ONLY:
            print(metric_line(name, values[name], unit, f"({better} is better)"))
    else:
        mem_tracer = Tracer(memory=True)
        memory_pass(session, largest, mem_tracer)
        untraced, _ = timed_pass(session, recordings, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, calls = timed_pass(session, recordings, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        rows = recording_layers(tracer, session, recordings, calls)
        metrics = layer_metrics(rows, setup_tracer, mem_tracer, (untraced, traced))
        segment_s = metrics["cli.segment_s"][0]
        for name, (value, unit) in metrics.items():
            share = ""
            if unit == "s" and segment_s and name.split(".")[0] not in ("cli", "synth"):
                share = f"{value / segment_s:7.1%} of cli.segment_s"
            print(metric_line(name, value, unit, share))
        print(f"traced pass: {sum(calls.values())} calls; per recording:")
        print("\n".join(per_recording_lines(rows, calls)))
        absent = sorted(set(tracer.absent + setup_tracer.absent + mem_tracer.absent))
        print("absent: " + (", ".join(absent) if absent else "none"))
        record["absent"] = absent
        spans_file = WORK / f"spans-{args.workload}.json"
        spans_file.write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "recording"],
            "setup": setup_tracer.spans,
            "traced": tracer.spans,
        }))
        print(f"spans: {len(tracer.spans)} traced, written to {spans_file.relative_to(ROOT)}")
    if session.errors:
        print(f"errors ({len(session.errors)}):", *session.errors[:10], sep="\n  ")

    correct = session.failed == 0
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(result, errors=session.errors)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="2 s per speaker, for the self-test only")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "speakerseg" / "__init__.py").is_file():
        print(f"segbench: no speakerseg package under {src}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    speakerseg = importlib.import_module("speakerseg")
    importlib.import_module("speakerseg.cli")
    import_s = time.perf_counter() - start
    if Path(speakerseg.__file__).resolve().parent != src / "speakerseg":
        print(f"segbench: imported speakerseg from {speakerseg.__file__}, not {src}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return run(args, speakerseg, import_s, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the program's public functions, installed from outside.

The tracer replaces each target function with a wrapper in every
speakerseg module that binds it, so calls made through an import site
(`from .bic import verify_change`) and calls inside the defining module
(`bic.fit_gaussian` from `_best_split`) are both seen. The program's
source is not touched. A target a refactor has removed is listed in
`absent` instead of raising.

Each span is [name, start, end, parent index, recording id], kept in
memory and written out by the caller at exit.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from collections import defaultdict

PACKAGE = "speakerseg"
# (module, function) pairs of the package, one layer each.
TARGETS = (
    ("cli", "main"),
    ("audio_io", "load_wav"),
    ("pitch", "pitch_track"),
    ("pitch_seg", "segment"),
    ("pitch_seg", "candidates"),
    ("features", "mfcc"),
    ("bic", "detect_growing"),
    ("bic", "detect_fixed"),
    ("bic", "verify_change"),
    ("bic", "delta_bic"),
    ("bic", "fit_gaussian"),
    ("synth", "synth_speakers"),
)


def _observe_load_wav(counts, args, result):
    counts["bytes_read"] += os.path.getsize(args[0])


def _observe_pitch_track(counts, args, result):
    counts["frames"] += len(result)
    counts["voiced"] += int((result.pitch_hz > 0).sum())


def _observe_mfcc(counts, args, result):
    counts["rows"] += len(result)


def _observe_candidates(counts, args, result):
    counts["candidates"] += len(result)


def _observe_points(counts, args, result):
    counts["points"] += len(result)


# Counts taken from a call's arguments or result, per recording id.
OBSERVERS = {
    "audio_io.load_wav": _observe_load_wav,
    "pitch.pitch_track": _observe_pitch_track,
    "features.mfcc": _observe_mfcc,
    "pitch_seg.candidates": _observe_candidates,
    "bic.detect_growing": _observe_points,
    "bic.detect_fixed": _observe_points,
}


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory  # record tracemalloc peaks of leaf spans
        self.recording = None
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.peak_mb: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        prefix = PACKAGE + "."
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(prefix))]
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            module = sys.modules.get(prefix + module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for owner in modules:
                for key in [k for k, v in vars(owner).items() if v is original]:
                    self._patches.append((owner, key, original))
                    setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal observe
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.recording]
            stack.append(len(spans))
            spans.append(span)
            if self.memory:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if self.memory:
                # Exact for spans with no traced children: reset_peak in a
                # child would hide the parent's earlier peak.
                peak = (tracemalloc.get_traced_memory()[1] - base) / 1e6
                self.peak_mb[name] = max(self.peak_mb[name], peak)
            if observe is not None:
                try:
                    observe(self.counts[self.recording], args, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    self.absent.append(f"{name} (counts)")
                    observe = None
            return result

        return wrapper

    def totals(self) -> dict[str, dict[str, list]]:
        """Per recording id and span name: [calls, total seconds, self seconds].

        Self time is a span's duration minus that of its direct children;
        one thread runs them, so children never overlap.
        """
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for i, (name, start, end, _, rec) in enumerate(self.spans):
            entry = out[rec][name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_s[i]
        return out

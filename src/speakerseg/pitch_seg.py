"""Rapid segmentation driven by jumps in the pitch track.

The pipeline: per-frame pitch estimates, absolute first differences of
the track, a threshold at threshold_coef ** (1 / gamma) times the
largest difference, then a statistical double-check of each surviving
candidate with a small centered BIC window. The threshold is the paper's
gamma correction folded in: a difference x normalized by the largest
has x**gamma > threshold_coef exactly when x > threshold_coef ** (1 /
gamma), and the power keeps the order that runs and thinning rank by.
Gamma < 1 lowers the threshold, trading missed changes for false alarms
that the BIC check then removes.

Differences touching an unvoiced frame are zeroed: a silence boundary is
not evidence of a speaker change.

Candidates closer than min_gap_s are thinned by `bic._thin_peaks`, the
rule `detect_fixed` thins its peaks by. MFCC rows are computed only
around each candidate: row k of the recording starts at k * hop / fs, so
`mfcc(..., rows)` computes a few rows more than the verify window holds,
and `verify_change` keeps the rows within the window, as it would of an
MFCC of the whole recording. A row has the same bits and time whatever
range computes it, so the check sees exactly what the whole recording's
MFCC would give it.

`build_method` turns a method name and the `RunConfig` tree into a
segmenter callable, for this pipeline and for the two BIC sweeps alike;
all three read the same MFCC and BIC settings from `cfg.seg`, and build
their `SegmentationResult` with `_result` from the change times and the
candidates examined (a BIC sweep examines only the points it finds); the
segments and the rejected count are derived from those.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .audio_io import AudioBuffer
from .bic import BicConfig, _thin_peaks, detect_fixed, detect_growing, verify_change
from .errors import FormatError, PreconditionError
from .evaluation import DEFAULT_TOLERANCE_S, ChangePointSet
from .features import MfccConfig, mfcc, mfcc_blocks
from .pitch import PitchConfig, PitchTrack, pitch_track


@dataclass(frozen=True)
class PitchSegConfig:
    threshold_coef: float = 0.7
    gamma: float = 0.3
    verify_window_s: float = 0.4
    min_gap_s: float = 0.5
    pitch: PitchConfig = field(default_factory=PitchConfig)
    mfcc: MfccConfig = field(default_factory=MfccConfig)
    bic: BicConfig = field(default_factory=BicConfig)  # the verify score's lam and reg_epsilon

    def __post_init__(self):
        if not 0.0 < self.threshold_coef <= 1.0:
            raise ValueError("threshold_coef must lie in (0, 1]")
        # Written so that NaN fails each check.
        if not 0 < self.gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        # segment thresholds at this fraction of the largest jump; where it
        # rounds to 0 or 1 the folded threshold differs from the paper's.
        if self.threshold_coef < 1 and not 0 < self.threshold_coef ** (1 / self.gamma) < 1:
            raise ValueError("threshold_coef ** (1 / gamma) must lie strictly between 0 and 1")
        if not self.verify_window_s > 0:
            raise ValueError("verify_window_s must be positive")
        if not self.min_gap_s >= 0:
            raise ValueError("min_gap_s must be >= 0")


@dataclass(frozen=True)
class SegmentationResult:
    change_points: ChangePointSet
    duration_s: float
    candidates_examined: int
    wall_time_s: float

    @property
    def segments(self) -> list[tuple[float, float]]:
        bounds = [0.0, *[float(t) for t in self.change_points.times], self.duration_s]
        return list(zip(bounds, bounds[1:]))

    @property
    def candidates_rejected(self) -> int:
        return self.candidates_examined - len(self.change_points)

    def to_dict(self) -> dict:
        return {
            "change_points_s": [round(float(t), 3) for t in self.change_points.times],
            "segments": [[round(a, 3), round(b, 3)] for a, b in self.segments],
            "candidates_examined": self.candidates_examined,
            "candidates_rejected": self.candidates_rejected,
            "wall_time_s": self.wall_time_s,
        }


def pitch_diff(track: PitchTrack) -> np.ndarray:
    """Absolute first difference of the track; entries touching an
    unvoiced frame are 0.0. Length is len(track) - 1."""
    if len(track) < 2:
        raise PreconditionError("need at least two pitch frames to difference")
    p = track.pitch_hz
    diffs = np.abs(np.diff(p))
    voiced_pair = (p[:-1] > 0) & (p[1:] > 0)
    return np.where(voiced_pair, diffs, 0.0)


def candidates(
    diff,
    times,
    fraction: float,
    min_gap_s: float,
) -> list[float]:
    """Candidate change times from the pitch difference sequence.

    The threshold is fraction times the sequence maximum: `segment`
    passes threshold_coef ** (1 / gamma), the gamma correction folded
    into the threshold, not the config leaf threshold_coef. Strictly
    super-threshold runs collapse to their maximum entry (earlier index
    on ties), each reported at the midpoint of the two frames that formed
    the difference. Candidates closer than min_gap_s are thinned keeping
    the higher-valued one (earlier on ties).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(
            "fraction (segment passes threshold_coef ** (1 / gamma)) must lie in (0, 1]"
        )
    diff = np.asarray(diff, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if len(diff) != len(times) - 1:
        raise ValueError("need one difference per consecutive frame pair")
    if diff.size == 0:
        return []
    above = diff > fraction * diff.max()
    # Each run of super-threshold entries starts at a rising edge of
    # above and stops at a falling one. The diff of bools is their XOR, one
    # byte a frame where int64 edges took eight.
    edges = np.flatnonzero(np.diff(np.r_[False, above, False])).reshape(-1, 2)
    peaks = np.array([a + int(np.argmax(diff[a:z])) for a, z in edges], dtype=int)
    midpoints = 0.5 * (times[peaks] + times[peaks + 1])
    return [t for t, _ in _thin_peaks(midpoints, diff[peaks], min_gap_s)]


def segment(buffer: AudioBuffer, cfg: PitchSegConfig | None = None) -> SegmentationResult:
    """Full pitch-jump segmentation of one recording."""
    cfg = cfg or PitchSegConfig()
    if buffer.duration_s <= cfg.verify_window_s:
        raise PreconditionError("audio shorter than the verification window")
    start = time.perf_counter()
    track = pitch_track(buffer, cfg.pitch)
    fraction = cfg.threshold_coef ** (1 / cfg.gamma)
    cand_times = candidates(pitch_diff(track), track.times, fraction, cfg.min_gap_s)

    row_s = cfg.mfcc.hop / buffer.sample_rate_hz
    half = cfg.verify_window_s / 2
    accepted: list[float] = []
    for t in cand_times:
        # A superset of the window's rows; verify_change keeps the exact ones.
        rows = slice(max(0, int((t - half) / row_s) - 1), int((t + half) / row_s) + 2)
        features = mfcc(buffer, cfg.mfcc, rows)
        ok, _score = verify_change(
            features, t, cfg.verify_window_s, cfg.bic.lam, cfg.bic.reg_epsilon
        )
        if ok:
            accepted.append(t)
    return _result(accepted, buffer, len(cand_times), start)


def _result(times, buffer: AudioBuffer, examined: int, start: float) -> SegmentationResult:
    """The record of a run that began at perf_counter() == start."""
    wall = time.perf_counter() - start
    return SegmentationResult(ChangePointSet(times), buffer.duration_s, examined, wall)


SEG_METHODS = ("pitch", "bic-grow", "bic-fixed")


@dataclass(frozen=True)
class RunConfig:
    """Root of the config tree: the method, the evaluation settings and every tunable."""

    method: str = "pitch"
    tolerance_s: float = DEFAULT_TOLERANCE_S
    seed: int = 0
    seg: PitchSegConfig = field(default_factory=PitchSegConfig)

    def __post_init__(self):
        if self.method not in SEG_METHODS:
            raise ValueError(f"unknown segmentation method {self.method!r}")
        if not self.tolerance_s >= 0:  # also rejects NaN
            raise ValueError("tolerance_s must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def build_method(name: str, cfg: RunConfig):
    """Segmenter callable (AudioBuffer -> SegmentationResult) for a method name.

    The detectors are this module's globals, read when the segmenter is
    built or run, so a wrapper installed on them afterwards is called.
    """
    if name == "pitch":
        return lambda buffer: segment(buffer, cfg.seg)
    if name in ("bic-grow", "bic-fixed"):
        # The growing sweep reads back rows before its window, so it takes the whole
        # feature matrix; the fixed sweep takes the MFCC blocks as they are computed.
        grow = name == "bic-grow"

        def run(buffer: AudioBuffer) -> SegmentationResult:
            start = time.perf_counter()
            if grow:
                points = detect_growing(mfcc(buffer, cfg.seg.mfcc), cfg.seg.bic)
            else:
                points = detect_fixed(mfcc_blocks(buffer, cfg.seg.mfcc), cfg.seg.bic)
            return _result([p.time_s for p in points], buffer, len(points), start)

        return run
    raise FormatError(f"unknown segmentation method {name!r}")

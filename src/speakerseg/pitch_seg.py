"""Rapid segmentation driven by jumps in the pitch track.

The pipeline: per-frame pitch estimates, absolute first differences of
the track, power-law (gamma) correction of the normalized differences,
thresholding against a fraction of the corrected maximum, then a
statistical double-check of each surviving candidate with a small
centered BIC window. Gamma < 1 lifts small differences toward the
threshold, trading missed changes for false alarms that the BIC check
then removes.

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
their `SegmentationResult` with `_result`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .audio_io import AudioBuffer
from .bic import BicConfig, _thin_peaks, detect_fixed, detect_growing, verify_change
from .errors import FormatError, PreconditionError
from .evaluation import ChangePointSet
from .features import MfccConfig, mfcc
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
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not self.verify_window_s > 0:
            raise ValueError("verify_window_s must be positive")
        if not self.min_gap_s >= 0:
            raise ValueError("min_gap_s must be >= 0")


@dataclass(frozen=True)
class SegmentationResult:
    change_points: ChangePointSet
    segments: list[tuple[float, float]]
    candidates_examined: int
    candidates_rejected: int
    wall_time_s: float

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


def gamma_correct(diff, gamma: float) -> np.ndarray:
    """Normalize by the sequence maximum, then map x to x**gamma.

    All-zero input stays all-zero. With gamma < 1 small normalized values
    are lifted while 1.0 stays fixed; a scale factor would cancel in candidates().
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    diff = np.asarray(diff, dtype=np.float64)
    peak = diff.max(initial=0.0)
    if peak <= 0.0:
        return np.zeros_like(diff)
    return (diff / peak) ** gamma


def candidates(
    corrected,
    times,
    threshold_coef: float,
    min_gap_s: float,
) -> list[float]:
    """Candidate change times from the corrected difference sequence.

    The threshold is threshold_coef times the sequence maximum; strictly
    super-threshold runs collapse to their maximum entry (earlier index
    on ties), each reported at the midpoint of the two frames that formed
    the difference. Candidates closer than min_gap_s are thinned keeping
    the higher-valued one (earlier on ties).
    """
    if not 0.0 < threshold_coef <= 1.0:
        raise ValueError("threshold_coef must lie in (0, 1]")
    corrected = np.asarray(corrected, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if len(corrected) != len(times) - 1:
        raise ValueError("need one corrected value per consecutive frame pair")
    if corrected.size == 0:
        return []
    above = corrected > threshold_coef * corrected.max()
    # Each run of super-threshold entries starts at a rising edge of
    # above and stops at a falling one.
    edges = np.flatnonzero(np.diff(np.r_[0, above, 0])).reshape(-1, 2)
    peaks = np.array([a + int(np.argmax(corrected[a:z])) for a, z in edges], dtype=int)
    midpoints = 0.5 * (times[peaks] + times[peaks + 1])
    return [t for t, _ in _thin_peaks(midpoints, corrected[peaks], min_gap_s)]


def segment(buffer: AudioBuffer, cfg: PitchSegConfig | None = None) -> SegmentationResult:
    """Full pitch-jump segmentation of one recording."""
    cfg = cfg or PitchSegConfig()
    if buffer.duration_s <= cfg.verify_window_s:
        raise PreconditionError("audio shorter than the verification window")
    start = time.perf_counter()
    track = pitch_track(buffer, cfg.pitch)
    corrected = gamma_correct(pitch_diff(track), cfg.gamma)
    cand_times = candidates(corrected, track.times, cfg.threshold_coef, cfg.min_gap_s)

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
    rejected = len(cand_times) - len(accepted)
    return _result(accepted, buffer, len(cand_times), rejected, start)


def _result(
    times, buffer: AudioBuffer, examined: int, rejected: int, start: float
) -> SegmentationResult:
    """Result of a run that began at perf_counter() == start and found these change times."""
    wall = time.perf_counter() - start
    points = ChangePointSet(np.asarray(times, dtype=np.float64))
    return SegmentationResult(
        change_points=points,
        segments=segments_between(points, buffer.duration_s),
        candidates_examined=examined,
        candidates_rejected=rejected,
        wall_time_s=wall,
    )


def segments_between(points: ChangePointSet, duration_s: float) -> list[tuple[float, float]]:
    bounds = [0.0, *[float(t) for t in points.times], duration_s]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


SEG_METHODS = ("pitch", "bic-grow", "bic-fixed")


@dataclass(frozen=True)
class RunConfig:
    """Root of the config tree: the method, the evaluation settings and every tunable."""

    method: str = "pitch"
    tolerance_s: float = 0.5
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
        detect = detect_growing if name == "bic-grow" else detect_fixed

        def run(buffer: AudioBuffer) -> SegmentationResult:
            start = time.perf_counter()
            points = detect(mfcc(buffer, cfg.seg.mfcc), cfg.seg.bic)
            return _result([p.time_s for p in points], buffer, len(points), 0, start)

        return run
    raise FormatError(f"unknown segmentation method {name!r}")

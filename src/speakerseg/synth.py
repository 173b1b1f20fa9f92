"""Deterministic multi-speaker test signal generation.

Each synthetic "speaker" is a harmonic complex: up to eight harmonics of
a per-speaker fundamental with seeded random amplitudes and phases, plus
white noise. Adjacent speakers get well-separated fundamentals and
independent spectral envelopes, so both the pitch-jump and the
statistical segmenters have something to detect. Identical seed and
parameters give byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer, write_wav
from .errors import PreconditionError
from .evaluation import ChangePointSet, write_change_points

# Alternating low/high fundamentals so every adjacent pair differs by a
# wide margin; cycled when more speakers are requested.
DEFAULT_F0_LADDER = (110.0, 220.0, 150.0, 280.0, 120.0, 250.0)

N_HARMONICS = 8
PEAK_AMPLITUDE = 0.35


@dataclass(frozen=True)
class SynthSpec:
    n_speakers: int = 2
    duration_s: float | tuple[float, ...] = 5.0  # per speaker; scalar applies to all
    f0_hz: tuple[float, ...] | None = None  # defaults to the ladder, cycled
    noise_level: float = 0.01
    sample_rate_hz: int = 8000
    seed: int = 0

    def __post_init__(self):
        if self.n_speakers < 1:
            raise ValueError("need at least one speaker")
        if not all(0 < d < math.inf for d in self.durations()):
            raise ValueError("durations must be positive and finite")
        if not 0 <= self.noise_level < math.inf:
            raise ValueError("noise_level must be >= 0 and finite")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.f0_hz is not None and len(self.f0_hz) == 0:
            raise ValueError("f0_hz must be empty only when omitted")
        if not all(math.isfinite(f) for f in self.fundamentals()):
            raise ValueError("f0_hz must be finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def fundamentals(self) -> list[float]:
        source = self.f0_hz if self.f0_hz is not None else DEFAULT_F0_LADDER
        return [float(source[i % len(source)]) for i in range(self.n_speakers)]

    def durations(self) -> list[float]:
        if isinstance(self.duration_s, (int, float)):
            return [float(self.duration_s)] * self.n_speakers
        if len(self.duration_s) != self.n_speakers:
            raise ValueError("need one duration per speaker or a single value")
        return [float(d) for d in self.duration_s]


def synth_speakers(spec: SynthSpec) -> tuple[AudioBuffer, ChangePointSet]:
    """Generate the concatenated recording and its true change times."""
    rng = np.random.default_rng(spec.seed)
    fs = spec.sample_rate_hz
    pieces = []
    for f0, duration in zip(spec.fundamentals(), spec.durations()):
        n_seg = int(round(duration * fs))
        if n_seg < 1:
            raise PreconditionError("per-speaker duration shorter than one sample")
        amps = rng.uniform(0.2, 1.0, N_HARMONICS)
        phases = rng.uniform(0.0, 2.0 * np.pi, N_HARMONICS)
        t = np.arange(n_seg) / fs
        sig = np.zeros(n_seg)
        for h in range(N_HARMONICS):
            freq = f0 * (h + 1)
            if freq >= 0.45 * fs:
                break
            sig += amps[h] * np.sin(2.0 * np.pi * freq * t + phases[h])
        peak = np.max(np.abs(sig))
        if peak > 0:
            sig *= PEAK_AMPLITUDE / peak
        if spec.noise_level > 0:
            sig = sig + rng.normal(0.0, spec.noise_level, n_seg)
        pieces.append(sig)
    samples = np.clip(np.concatenate(pieces), -1.0, 1.0)
    lengths = np.array([len(p) for p in pieces])
    boundaries = np.cumsum(lengths)[:-1] / fs
    return AudioBuffer(samples=samples, sample_rate_hz=fs), ChangePointSet(boundaries)


def synth_to_files(spec: SynthSpec, wav_path, ref_path) -> tuple[AudioBuffer, ChangePointSet]:
    """Write the WAV and its ground-truth change-point file."""
    buffer, truth = synth_speakers(spec)
    write_wav(wav_path, buffer.samples, buffer.sample_rate_hz)
    write_change_points(truth, ref_path)
    return buffer, truth

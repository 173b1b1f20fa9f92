"""Mel-frequency cepstral coefficients for the statistical segmenters.

Pipeline per frame: Hamming window, magnitude spectrum (FFT size = next
power of two at or above the window), triangular mel filter bank spanning
0 Hz to fs/2, floored log energies, orthonormal type-II DCT. Deterministic
for identical input and config.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dct

from .audio_io import AudioBuffer, _frame_signal
from .errors import PreconditionError
from .pitch import next_pow2

LOG_FLOOR = 1e-10

# Rows per block of mfcc. Larger blocks are no faster and hold more
# memory.
_BLOCK_ROWS = 512

# OpenBLAS computes a matrix product of 46 rows or fewer with another
# kernel, whose last bits differ, so the mel product of a shorter block (a
# short recording, or the last block of a long one) is zero-padded to this
# many rows. A row's energies then do not depend on the length of the
# recording or on where a block starts.
_MIN_PRODUCT_ROWS = 64


@dataclass(frozen=True)
class MfccConfig:
    window_len: int = 200
    overlap: int = 120
    n_coeffs: int = 13
    n_mel_filters: int = 26
    include_c0: bool = True

    def __post_init__(self):
        if not 0 <= self.overlap < self.window_len:
            raise ValueError("need 0 <= overlap < window_len")
        if not 1 <= self.n_coeffs <= self.n_mel_filters:
            raise ValueError("need 1 <= n_coeffs <= n_mel_filters")
        if not self.include_c0 and self.n_coeffs >= self.n_mel_filters:
            raise ValueError("dropping c0 needs n_coeffs < n_mel_filters")

    @property
    def hop(self) -> int:
        return self.window_len - self.overlap


@dataclass(frozen=True)
class FeatureMatrix:
    """n x d coefficient rows with parallel frame start times in seconds."""

    vectors: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float64)
        times = np.asarray(self.times, dtype=np.float64)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "times", times)
        if vectors.ndim != 2 or len(vectors) != len(times):
            raise ValueError("vectors must be 2-D with one time per row")
        if vectors.size and not np.all(np.isfinite(vectors)):
            raise ValueError("feature rows must be finite")

    def __len__(self):
        return len(self.vectors)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def hop_s(self) -> float:
        if len(self.times) < 2:
            raise PreconditionError("need at least two frames to infer the hop")
        return float(self.times[1] - self.times[0])


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=16)
def mel_filterbank(n_filters: int, nfft: int, sample_rate_hz: int) -> np.ndarray:
    """Triangular filters on the rfft bin grid, 0 Hz to Nyquist.

    Cached per argument tuple; the returned array is shared, so it is read-only.
    """
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate_hz / 2.0), n_filters + 2))
    bin_freqs = np.arange(nfft // 2 + 1) * (sample_rate_hz / nfft)
    bank = np.zeros((n_filters, len(bin_freqs)))
    for m in range(n_filters):
        left, center, right = edges[m], edges[m + 1], edges[m + 2]
        up = (bin_freqs - left) / (center - left)
        down = (right - bin_freqs) / (right - center)
        bank[m] = np.maximum(0.0, np.minimum(up, down))
    bank.setflags(write=False)
    return bank


@lru_cache(maxsize=16)
def _hamming(n: int) -> np.ndarray:
    """Read-only Hamming window of n samples, cached per length."""
    window = np.hamming(n)
    window.setflags(write=False)
    return window


def _mel_product(magnitude: np.ndarray, bank_t: np.ndarray) -> np.ndarray:
    """magnitude @ bank_t, with at least _MIN_PRODUCT_ROWS rows in the product."""
    k = len(magnitude)
    if k >= _MIN_PRODUCT_ROWS:
        return magnitude @ bank_t
    padded = np.zeros((_MIN_PRODUCT_ROWS, magnitude.shape[1]))
    padded[:k] = magnitude
    return (padded @ bank_t)[:k]


def mfcc(buffer: AudioBuffer, cfg: MfccConfig | None = None) -> FeatureMatrix:
    """Extract one coefficient row per complete analysis window."""
    cfg = cfg or MfccConfig()
    if len(buffer.samples) < cfg.window_len:
        raise PreconditionError("audio shorter than one analysis window")
    rows, times = _frame_signal(
        buffer.samples, buffer.sample_rate_hz, cfg.window_len, cfg.hop
    )
    nfft = next_pow2(cfg.window_len)
    window = _hamming(cfg.window_len)
    bank_t = mel_filterbank(cfg.n_mel_filters, nfft, buffer.sample_rate_hz).T
    first = 0 if cfg.include_c0 else 1
    vectors = np.empty((len(rows), cfg.n_coeffs))
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        magnitude = np.abs(np.fft.rfft(rows[block] * window, nfft, axis=1))
        log_energies = np.log(_mel_product(magnitude, bank_t) + LOG_FLOOR)
        coeffs = dct(log_energies, type=2, norm="ortho", axis=1)
        vectors[block] = coeffs[:, first : first + cfg.n_coeffs]
    return FeatureMatrix(vectors=vectors, times=times)


def write_features_tsv(features: FeatureMatrix, fp) -> None:
    """time_s column followed by the d coefficient columns."""
    d = features.dim
    fp.write("time_s\t" + "\t".join(f"c{i}" for i in range(d)) + "\n")
    for t, row in zip(features.times, features.vectors):
        fp.write(f"{t:.3f}\t" + "\t".join(f"{v:.6f}" for v in row) + "\n")

"""Mel-frequency cepstral coefficients for the statistical segmenters.

Pipeline per frame: Hamming window, magnitude spectrum (FFT size = next
power of two at or above the window), triangular mel filter bank spanning
0 Hz to fs/2, floored log energies, orthonormal type-II DCT. Deterministic
for identical input and config.

The window, the filter bank and the DCT are cached read-only tables. The
filter bank and the DCT are matrix products, both through `_product`, so
a row's bits depend neither on its block nor on the range of the frame
grid that `mfcc(..., rows)` computes. The pitch pipeline's verify step
computes only each candidate's window of rows this way.

Each block of rows converts only the samples it covers to float64
(`AudioBuffer.span`, into one array that the blocks reuse) and frames
them; the recording is never held whole as float64. On a PCM16 buffer
from load_wav the conversion of each block has the bits of the whole
recording's amplitudes (exact for one or two channels), so neither the
block nor the row range shows in a row.

The blocks of one call also share their windowed frames, in one
zero-tailed (rows, nfft) array that rfft reads whole, so numpy pads no
copy of its own, and their magnitude spectra. A block allocates only
rfft's complex output and its small products, and the working memory
of a call is set by _BLOCK_ROWS, not by the length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.fft  # load it now; numpy would load it lazily, in the first transform

from .audio_io import AudioBuffer, _frame_grid, _frame_signal
from .errors import PreconditionError
from .pitch import next_pow2

LOG_FLOOR = 1e-10

# Rows per block of mfcc. The working memory of a call doubles with the
# block, while time falls by only a few per cent from 256 rows to 512.
# Medians of 11 alternating calls on one CPU, on PCM16 noise (x86-64,
# numpy 2.4):
#
#   rows   180 s at 16 kHz / 180 s at 8 kHz / 30 s at 8 kHz   working memory (30 s)
#     64   110-114 / 55-56 / 9.5 ms                            0.46 MB
#    128    96-100 / 47-49 / 8.2-8.5 ms                        0.80 MB
#    256     92-94 / 47    / 8.0-8.5 ms                        1.59 MB
#    512     89-91 / 44-45 / 7.8 ms                            3.18 MB
#
# mfcc's working memory is the largest of a BIC method's stages, so the
# block sets their peak; at 256 rows it is near the growing sweep's 1.46 MB.
_BLOCK_ROWS = 256

# OpenBLAS computes a matrix product with other kernels, whose last bits
# differ, for some row counts: all counts of 46 or fewer, and for the DCT
# shape many larger ones such as 65-67. So every product is computed on a
# row count that is a multiple of this, zero-padding the rows of a block
# that is not (a short recording, or the last block of a long one).
# _BLOCK_ROWS must stay a multiple of it.
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
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")

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


@lru_cache(maxsize=16)
def _dct_matrix(n: int) -> np.ndarray:
    """Read-only orthonormal type-II DCT of rows of n values, cached per n.

    Column k is basis vector k, so x @ _dct_matrix(len(x)) is the DCT of x.
    """
    j = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    m = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * j + 1) / (2 * n))
    m[:, 0] /= np.sqrt(2.0)
    m.setflags(write=False)
    return m


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, computed on a multiple of _MIN_PRODUCT_ROWS rows."""
    k = len(a)
    rows = -(-k // _MIN_PRODUCT_ROWS) * _MIN_PRODUCT_ROWS
    if rows == k:
        return a @ b
    padded = np.zeros((rows, a.shape[1]))
    padded[:k] = a
    return (padded @ b)[:k]


def mfcc(
    buffer: AudioBuffer, cfg: MfccConfig | None = None, rows: slice = slice(None)
) -> FeatureMatrix:
    """Extract one coefficient row per complete analysis window.

    rows selects a range of the recording's frame grid, by default all of
    it; the result carries those frames' times, and each row has the same
    bits whatever range computes it.
    """
    cfg = cfg or MfccConfig()
    if len(buffer) < cfg.window_len:
        raise PreconditionError("audio shorter than one analysis window")
    frames, times = _frame_grid(
        len(buffer), buffer.sample_rate_hz, cfg.window_len, cfg.hop, rows
    )
    nfft = next_pow2(cfg.window_len)
    window = _hamming(cfg.window_len)
    bank_t = mel_filterbank(cfg.n_mel_filters, nfft, buffer.sample_rate_hz).T
    dct = _dct_matrix(cfg.n_mel_filters)
    first = 0 if cfg.include_c0 else 1
    vectors = np.empty((len(frames), cfg.n_coeffs))
    # Shared by the blocks: windowed frames ahead of the zero tail that rfft reads as its
    # padding, and their magnitude spectra.
    rows_held = min(_BLOCK_ROWS, len(frames))
    windowed = np.zeros((rows_held, nfft))
    magnitude = np.empty((rows_held, nfft // 2 + 1))
    span = None  # the first block's samples; later blocks convert into it, as in pitch_track
    for start in range(0, len(frames), _BLOCK_ROWS):
        block = frames[start : start + _BLOCK_ROWS]
        k = len(block)
        span = buffer.span(block[0] * cfg.hop, block[-1] * cfg.hop + cfg.window_len, span)
        framed = _frame_signal(span, cfg.window_len, block.step * cfg.hop)
        np.multiply(framed, window, out=windowed[:k, : cfg.window_len])
        np.abs(np.fft.rfft(windowed[:k], axis=1), out=magnitude[:k])
        log_energies = np.log(_product(magnitude[:k], bank_t) + LOG_FLOOR)
        coeffs = _product(log_energies, dct)
        vectors[start : start + k] = coeffs[:, first : first + cfg.n_coeffs]
    del windowed, magnitude, span  # freed before FeatureMatrix checks the rows
    return FeatureMatrix(vectors=vectors, times=times)


def write_features_tsv(features: FeatureMatrix, fp) -> None:
    """time_s column followed by the d coefficient columns."""
    d = features.dim
    fp.write("time_s\t" + "\t".join(f"c{i}" for i in range(d)) + "\n")
    for t, row in zip(features.times, features.vectors):
        fp.write(f"{t:.3f}\t" + "\t".join(f"{v:.6f}" for v in row) + "\n")

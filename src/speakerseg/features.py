"""Mel-frequency cepstral coefficients for the statistical segmenters.

Pipeline per frame: Hamming window, magnitude spectrum (FFT size = next
power of two at or above the window), triangular mel filter bank spanning
0 Hz to fs/2, floored log energies, orthonormal type-II DCT. Deterministic
for identical input and config.

`mfcc` computes the rows _BLOCK_ROWS at a time and writes each block
into its result, one FeatureMatrix, checked once per call. `rows`
selects a range of the frame grid, and a caller that needs only some
rows computes only those: the pitch pipeline's verify step reads each
candidate's window of rows, and the fixed-window BIC sweep reads each
batch of windows, so a `bic-fixed` run never holds the whole matrix.

The window, the filter bank and the DCT are cached read-only tables. The
filter bank and the DCT are matrix products, both through `_product`, so
a row's bits depend neither on its block nor on the range of the frame
grid that `mfcc(..., rows)` computes. `_product`
computes every product as a stack of _MIN_PRODUCT_ROWS-row products,
each small enough that OpenBLAS runs it on the calling thread.

Each block of rows converts only the samples it covers to float64
(`AudioBuffer.span`, into one array that the blocks reuse) and frames
them; the recording is never held whole as float64. On a PCM16 buffer
from load_wav the conversion of each block has the bits of the whole
recording's amplitudes (exact for one or two channels), so neither the
block nor the row range shows in a row.

The blocks of one call also share their windowed frames, in one
zero-tailed (rows, nfft) array that rfft reads whole, so numpy pads no
copy of its own; a block's magnitude spectra overwrite the head of its
frames once rfft has read them. rfft transforms each block in two halves
of _BLOCK_ROWS // 2 rows, so only half a block's complex spectra exist
at once; each row is transformed on its own, so the halves change no
bit. A block allocates only those spectra, its small products and its
rows, and the working memory of a call is set by _BLOCK_ROWS, not by
the length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.fft  # load it now; numpy would load it lazily, in the first transform

from .audio_io import AudioBuffer, _frame_range, _frame_signal, _frame_times
from .errors import PreconditionError
from .pitch import next_pow2

LOG_FLOOR = 1e-10

# Rows per block of mfcc. The working memory of a call doubles with
# the block, while time falls by only a few per cent from 256 rows to 512.
# Medians of 11 alternating calls on one CPU, on PCM16 noise (x86-64,
# numpy 2.4), measured with one product per block and the magnitude
# spectra in an array of their own:
#
#   rows   180 s at 16 kHz / 180 s at 8 kHz / 30 s at 8 kHz   working memory (30 s)
#     64   110-114 / 55-56 / 9.5 ms                            0.46 MB
#    128    96-100 / 47-49 / 8.2-8.5 ms                        0.80 MB
#    256     92-94 / 47    / 8.0-8.5 ms                        1.59 MB
#    512     89-91 / 44-45 / 7.8 ms                            3.18 MB
#
# At 256 rows the working memory is now 1.08 MB on 30 s at 8 kHz
# (tracemalloc's peak less the result; 1.34 MB with a whole block's
# complex spectra at once). The block no longer sets whether OpenBLAS
# starts threads: every product is cut to _MIN_PRODUCT_ROWS rows,
# whatever the block.
_BLOCK_ROWS = 256

# OpenBLAS computes a matrix product with other kernels, whose last bits
# differ, for some row counts: all counts of 46 or fewer, and for the DCT
# shape many larger ones such as 65-67. So every product is computed on a
# row count that is a multiple of this, zero-padding the rows of a block
# that is not (a short recording, or the last block of a long one).
# _BLOCK_ROWS must stay a multiple of it.
#
# It is also the rows of each product of the stack that _product computes.
# OpenBLAS (0.3.31, as numpy 2.4 bundles it) gives a product one thread per
# 65,536 x 4 multiply-adds, up to one per CPU, and a worker thread then
# spins on its CPU after the product. A 64-row mel product is
# 64 x 129 x 26 = 214,656 at the default window (nfft 256) and 427,648 at
# nfft 512, so it runs on the calling thread alone; a whole 256-row
# block's, 858,624, ran on two. From nfft 1024 on (windows over 512
# samples) a 64-row product is large enough for two threads again.
_MIN_PRODUCT_ROWS = 64

# Times per block of FeatureMatrix's check that they increase.
_CHECK_BLOCK = 4096


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
        # Neither check allocates an array as long as the rows: min and max are NaN if
        # any row holds a NaN, for which every comparison is false, and the times are
        # compared a block at a time. The array methods skip np.min's dispatch, which
        # cost as much as the check on one 256-row block of MFCC rows.
        if vectors.size and not (-np.inf < vectors.min() and vectors.max() < np.inf):
            raise ValueError("feature rows must be finite")
        for i in range(0, len(times) - 1, _CHECK_BLOCK):
            block = times[i : i + _CHECK_BLOCK + 1]
            if not (block[1:] > block[:-1]).all():
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
    """a @ b, as a stack of products of _MIN_PRODUCT_ROWS rows each, the last zero-padded."""
    k = len(a)
    rows = -(-k // _MIN_PRODUCT_ROWS) * _MIN_PRODUCT_ROWS
    if rows != k:
        padded = np.zeros((rows, a.shape[1]))
        padded[:k] = a
        a = padded
    stack = np.matmul(a.reshape(-1, _MIN_PRODUCT_ROWS, a.shape[1]), b)
    return stack.reshape(rows, b.shape[1])[:k]


def mfcc(
    buffer: AudioBuffer, cfg: MfccConfig | None = None, rows: slice = slice(None)
) -> FeatureMatrix:
    """Extract one coefficient row per complete analysis window.

    rows selects a range of the recording's frame grid, by default all of
    it; the result carries those frames' times, and each row has the same
    bits whatever range computes it. The rows are computed _BLOCK_ROWS at
    a time, each block written into the result.
    """
    cfg = cfg or MfccConfig()
    if not isinstance(cfg, MfccConfig):
        raise TypeError(
            f"cfg must be an MfccConfig, not {type(cfg).__name__}; pass a row range as rows="
        )
    if len(buffer) < cfg.window_len:
        raise PreconditionError("audio shorter than one analysis window")
    frames = _frame_range(len(buffer), cfg.window_len, cfg.hop, rows)
    nfft = next_pow2(cfg.window_len)
    window = _hamming(cfg.window_len)
    bank_t = mel_filterbank(cfg.n_mel_filters, nfft, buffer.sample_rate_hz).T
    dct = _dct_matrix(cfg.n_mel_filters)
    first = 0 if cfg.include_c0 else 1
    times = _frame_times(frames, cfg.hop, buffer.sample_rate_hz)
    # Shared by the blocks: windowed frames ahead of the zero tail that rfft reads as its
    # padding. rfft has read a block's frames when its magnitudes overwrite their head:
    # nfft // 2 + 1 <= window_len, so the tail stays zero.
    windowed = np.zeros((min(_BLOCK_ROWS, len(frames)), nfft))
    # glibc's malloc returns freed memory to the system only from the top of its heap.
    # Allocated after windowed, the rows lie above the call's scratch, whose pages so stay
    # mapped for the next call. A caller that reads many ranges, as the fixed sweep reads
    # one per batch of windows, would otherwise fault them in on every call: with the rows
    # allocated first, a bic-fixed run on 180 s at 16 kHz took 6,111 page faults, not 350,
    # and 5% more time (x86-64, glibc 2.36, numpy 2.4).
    vectors = np.empty((len(frames), cfg.n_coeffs))
    half = _BLOCK_ROWS // 2  # rows per transform: only half a block's spectra exist at once
    span = None  # the first block's samples; later blocks convert into it, as in pitch_track
    for start in range(0, len(frames), _BLOCK_ROWS):
        block = frames[start : start + _BLOCK_ROWS]
        k = len(block)
        span = buffer.span(block[0] * cfg.hop, block[-1] * cfg.hop + cfg.window_len, span)
        framed = _frame_signal(span, cfg.window_len, block.step * cfg.hop)
        np.multiply(framed, window, out=windowed[:k, : cfg.window_len])
        magnitude = windowed[:k, : nfft // 2 + 1]
        for h in range(0, k, half):
            np.abs(np.fft.rfft(windowed[h : min(h + half, k)], axis=1), out=magnitude[h : h + half])
        log_energies = _product(magnitude, bank_t)
        log_energies += LOG_FLOOR
        np.log(log_energies, out=log_energies)
        vectors[start : start + k] = _product(log_energies, dct)[:, first : first + cfg.n_coeffs]
    return FeatureMatrix(vectors, times)

"""Per-frame fundamental-frequency estimation.

Three interchangeable detectors over a shared lag grid:

* autocorrelation: lag of the largest correlation peak,
* average magnitude difference (AMDF): first pronounced dip,
* real cepstrum: largest quefrency peak.

All three search lags tau in [ceil(fs/max_hz), floor(fs/min_hz)] and
return fs/tau, or 0.0 for frames that fail the voicing gate.

The track over a recording is computed in blocks of frames spanning
about _BLOCK_SAMPLES samples. For each lag tau, a block forms the pair
values |x[t] - x[t+tau]| (AMDF) or x[t] * x[t+tau] (ACF) once over the
samples it covers and sums them in hop-sized chunks; each frame's sum is
its whole chunks plus one partial chunk. A lone frame (pitch_frame, acf,
amdf) is one chunk. The cepstrum transforms each frame of a block
separately. Working memory is a few block-sized buffers per block in
flight and does not grow with the length of the recording; only the
output does.

Exactness. On anything load_wav returns (16-bit PCM, mono or stereo)
every sample is a multiple of 2**-16 in [-1, 1]. Every AMDF pair value
is then a multiple of 2**-16 and every ACF pair value one of 2**-32, so
a partial sum over a frame of n samples needs at most 33 + log2(n) bits
(42 at n = 480), under float64's 53. Every summation order is thus
exact: the track is bit-identical to summing each frame's own pair
values with np.sum, for any block size and any number of threads. On
other float input the chunked sums differ from a per-frame sum by at
most about n * eps * sum(|pair values|).

The blocks are independent and each writes its own slice of the output,
so they run on a pool of min(CPUs available to the process, blocks)
threads; numpy releases the GIL inside the pair and sum loops. The pool
lives for one call (a pool made before a fork would hang in the child).
Each block computes the same sums whatever thread runs it.

AMDF selection and voicing operate on the per-overlap-sample mean of the
raw difference sum: the raw sum shrinks with lag simply because fewer
sample pairs overlap, which would bias the minimum toward long lags and
let white noise pass the voicing gate.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioBuffer, _frame_signal, plan_from_seconds
from .errors import PreconditionError

SPECTRAL_FLOOR = 1e-10

ACF = "acf"
AMDF = "amdf"
CEPSTRAL = "cepstral"
METHODS = (ACF, AMDF, CEPSTRAL)

# AMDF dips must reach below this fraction of the range maximum to count
# as a pitch-period candidate; shallower dips are noise.
AMDF_DIP_FRACTION = 0.5

# The cepstral gate is a robust prominence score: the quefrency peak must
# stand (3.5 + 5 t) median-absolute-deviations above the search-range
# median. White noise tops out near 4.8; harmonic combs reach 5.5-18.
CEPSTRAL_Z_BASE = 3.5
CEPSTRAL_Z_SPAN = 5.0

# Samples per block of the pitch track (about 320 KB of float64 per lag
# buffer, which keeps it in cache). The block size sets speed and
# working memory, never the output.
_BLOCK_SAMPLES = 40960


@dataclass(frozen=True)
class PitchConfig:
    method: str = AMDF
    min_hz: float = 60.0
    max_hz: float = 400.0
    frame_len_s: float = 0.030
    hop_s: float = 0.010
    voicing_threshold: float = 0.3

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown pitch method {self.method!r}")
        if not 0 < self.min_hz < self.max_hz:
            raise ValueError("need 0 < min_hz < max_hz")
        if self.frame_len_s <= 0 or self.hop_s <= 0:
            raise ValueError("frame_len_s and hop_s must be positive")
        if self.frame_len_s * self.min_hz <= 1.0:
            raise ValueError("frame_len_s too short to hold the longest search lag")
        if not 0.0 <= self.voicing_threshold <= 1.0:
            raise ValueError("voicing_threshold must lie in [0, 1]")


@dataclass(frozen=True)
class PitchTrack:
    """Frame start times and the parallel pitch estimates (0.0 = unvoiced)."""

    times: np.ndarray
    pitch_hz: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        pitch = np.asarray(self.pitch_hz, dtype=np.float64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "pitch_hz", pitch)
        if len(times) != len(pitch):
            raise ValueError("times and pitch_hz must be parallel")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self):
        return len(self.times)


def next_pow2(n: int) -> int:
    m = 1
    while m < n:
        m *= 2
    return m


def lag_bounds(sample_rate_hz: int, cfg: PitchConfig) -> tuple[int, int]:
    """Inclusive lag search range [ceil(fs/max_hz), floor(fs/min_hz)]."""
    lo = int(np.ceil(sample_rate_hz / cfg.max_hz))
    hi = int(np.floor(sample_rate_hz / cfg.min_hz))
    if lo < 1:
        lo = 1
    if lo > hi:
        raise PreconditionError("empty lag range; check min_hz/max_hz against the sample rate")
    return lo, hi


def acf(frame) -> np.ndarray:
    """Autocorrelation R(tau) for tau = 0..len(frame)-1, truncated sums."""
    frame = _as_frame(frame)
    return _lag_sums(frame, len(frame), 1, 1, np.arange(len(frame)), np.multiply)[0]


def amdf(frame) -> np.ndarray:
    """Raw magnitude-difference sum for tau = 0..len(frame)-1 (AMDF(0) = 0)."""
    frame = _as_frame(frame)
    return _lag_sums(frame, len(frame), 1, 1, np.arange(len(frame)), _abs_diff)[0]


def cepstrum(frame) -> np.ndarray:
    """Real cepstrum: inverse transform of the floored log magnitude spectrum.

    Transform length is the next power of two at or above the frame
    length; the floor keeps silent frames finite.
    """
    frame = _as_frame(frame)
    return _cepstrum_rows(frame[None, :], next_pow2(len(frame)))[0]


def _as_frame(frame) -> np.ndarray:
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 1 or frame.size == 0:
        raise PreconditionError("frame must be a non-empty 1-D sequence")
    return frame


def _frames_of(seg: np.ndarray, n: int, hop: int, m: int) -> np.ndarray:
    """Read-only (m, n) view of the frames of n samples, hop apart, in seg."""
    return sliding_window_view(seg, n)[::hop][:m]


def _abs_diff(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.subtract(a, b, out=out)
    return np.abs(out, out=out)


def _lag_sums(seg: np.ndarray, n: int, hop: int, m: int, lags, pair) -> np.ndarray:
    """(m, len(lags)) sums of pair(x[i], x[i + tau]) over i < n - tau per frame.

    seg holds m frames of n samples, hop apart, and every tau < n. Each
    lag's pair values are formed once over seg into one reused buffer and
    summed in hop-sized chunks by one matrix-vector product. Frame k's
    sum is then its c = (n - tau) // hop whole chunks k .. k + c - 1 plus
    the first (n - tau) % hop values of chunk k + c. A lone frame is one
    chunk of n samples.
    """
    if m == 1:
        hop = n
    n_chunks = m + n // hop  # covers seg, and the partial chunk of the last frame
    work = np.zeros(n_chunks * hop)
    chunks = work.reshape(n_chunks, hop)
    ones = np.ones(hop)
    out = np.zeros((len(lags), m))
    for j, tau in enumerate(lags):
        pair(seg[: len(seg) - tau], seg[tau:], out=work[: len(seg) - tau])
        whole, part = divmod(n - tau, hop)
        row = out[j]
        if whole:
            chunk_sums = chunks[: m + whole - 1] @ ones
            for q in range(whole):
                row += chunk_sums[q : q + m]
        if part:
            row += chunks[whole : whole + m, :part] @ ones[:part]
    return out.T


def _cepstrum_rows(rows: np.ndarray, nfft: int) -> np.ndarray:
    spectra = np.abs(np.fft.rfft(rows, nfft, axis=1))
    return np.fft.irfft(np.log(spectra + SPECTRAL_FLOOR), nfft, axis=1)


def _select_acf(values: np.ndarray, energy: np.ndarray, threshold: float):
    """Pitch lags and voicing for rows of R(tau) restricted to the search range."""
    idx = np.argmax(values, axis=1)
    peaks = np.take_along_axis(values, idx[:, None], axis=1)[:, 0]
    voiced = (energy > 0) & (peaks >= threshold * energy)
    return idx, voiced


def _select_amdf(padded: np.ndarray, threshold: float):
    """First-pronounced-dip rule on the per-sample AMDF.

    padded holds the search range plus one neighbor lag on each side
    (inf where the lag has no overlapping samples). A lag qualifies when
    it is a local minimum against both neighbors and at most
    AMDF_DIP_FRACTION of the range maximum; the first qualifying lag
    wins, otherwise the global minimum of the range.
    """
    norm = padded[:, 1:-1]
    is_dip = (norm <= padded[:, :-2]) & (norm <= padded[:, 2:])
    max_in_range = np.max(norm, axis=1)
    deep = norm <= AMDF_DIP_FRACTION * max_in_range[:, None]
    qualifying = is_dip & deep
    fallback = np.argmin(norm, axis=1)
    first = np.argmax(qualifying, axis=1)
    has_dip = qualifying.any(axis=1)
    idx = np.where(has_dip, first, fallback)
    chosen = np.take_along_axis(norm, idx[:, None], axis=1)[:, 0]
    mean = np.mean(norm, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        depth = 1.0 - chosen / mean
    voiced = (mean > 0) & (depth >= threshold)
    return idx, voiced


def _select_cepstral(values: np.ndarray, threshold: float):
    idx = np.argmax(values, axis=1)
    peaks = np.take_along_axis(values, idx[:, None], axis=1)[:, 0]
    median = np.median(values, axis=1)
    mad = np.median(np.abs(values - median[:, None]), axis=1) * 1.4826
    z_required = CEPSTRAL_Z_BASE + CEPSTRAL_Z_SPAN * threshold
    with np.errstate(invalid="ignore", divide="ignore"):
        z = (peaks - median) / mad
    voiced = (mad > 0) & (z >= z_required)
    return idx, voiced


def _frame_lags(n: int, sample_rate_hz: int, cfg: PitchConfig) -> tuple[int, int]:
    """lag_bounds, checked against a frame of n samples."""
    lo, hi = lag_bounds(sample_rate_hz, cfg)
    if n <= hi:
        raise PreconditionError(
            f"frame of {n} samples cannot cover the longest search lag {hi}"
        )
    return lo, hi


def _pitch_block(
    seg: np.ndarray, n: int, hop: int, m: int, sample_rate_hz: int, cfg: PitchConfig,
    lo: int, hi: int,
) -> np.ndarray:
    """Pitch of the m frames of n samples, hop apart, that seg holds.

    [lo, hi] is the lag range, checked against n by _frame_lags.
    """
    if cfg.method == ACF:
        sums = _lag_sums(seg, n, hop, m, np.r_[0, lo : hi + 1], np.multiply)
        idx, voiced = _select_acf(sums[:, 1:], sums[:, 0], cfg.voicing_threshold)
    elif cfg.method == AMDF:
        lags = np.arange(lo - 1, min(hi + 1, n - 1) + 1)
        padded = _lag_sums(seg, n, hop, m, lags, _abs_diff) / (n - lags).astype(np.float64)
        if hi + 1 == n:  # the right neighbor lag overlaps no samples
            padded = np.pad(padded, ((0, 0), (0, 1)), constant_values=np.inf)
        idx, voiced = _select_amdf(padded, cfg.voicing_threshold)
    else:
        ceps = _cepstrum_rows(_frames_of(seg, n, hop, m), next_pow2(n))
        idx, voiced = _select_cepstral(ceps[:, lo : hi + 1], cfg.voicing_threshold)
    return np.where(voiced, sample_rate_hz / (lo + idx), 0.0)


def pitch_frame(frame, sample_rate_hz: int, cfg: PitchConfig | None = None) -> float:
    """Estimate the fundamental of one frame in Hz; 0.0 when unvoiced."""
    cfg = cfg or PitchConfig()
    frame = _as_frame(frame)
    lo, hi = _frame_lags(len(frame), sample_rate_hz, cfg)
    return float(_pitch_block(frame, len(frame), 1, 1, sample_rate_hz, cfg, lo, hi)[0])


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pitch_track(buffer: AudioBuffer, cfg: PitchConfig | None = None) -> PitchTrack:
    """Run the configured detector over every frame of a recording."""
    cfg = cfg or PitchConfig()
    n, hop = plan_from_seconds(buffer, cfg.frame_len_s, cfg.hop_s)
    rows, times = _frame_signal(buffer.samples, buffer.sample_rate_hz, n, hop)
    if len(rows) == 0:
        raise PreconditionError("audio shorter than one frame")
    lo, hi = _frame_lags(n, buffer.sample_rate_hz, cfg)
    pitch = np.empty(len(rows))
    block = max(1, _BLOCK_SAMPLES // hop)
    starts = range(0, len(rows), block)

    def run(start: int) -> None:
        m = min(block, len(rows) - start)
        seg = buffer.samples[start * hop : (start + m - 1) * hop + n]
        pitch[start : start + m] = _pitch_block(
            seg, n, hop, m, buffer.sample_rate_hz, cfg, lo, hi
        )

    workers = min(_available_cpus(), len(starts))
    if workers == 1:
        for start in starts:
            run(start)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(run, starts))  # re-raises a worker's exception
    return PitchTrack(times=times, pitch_hz=pitch)


def write_track_tsv(track: PitchTrack, fp) -> None:
    """Two-column TSV (time_s, pitch_hz) for plotting."""
    fp.write("time_s\tpitch_hz\n")
    for t, p in zip(track.times, track.pitch_hz):
        fp.write(f"{t:.3f}\t{p:.3f}\n")

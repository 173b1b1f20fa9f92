"""Per-frame fundamental-frequency estimation.

Three interchangeable detectors over a shared lag grid:

* autocorrelation: lag of the largest correlation peak,
* average magnitude difference (AMDF): first pronounced dip,
* real cepstrum: largest quefrency peak.

All three search lags tau in [ceil(fs/max_hz), floor(fs/min_hz)] and
return fs/tau, or 0.0 for frames that fail the voicing gate.

The track over a recording is computed in blocks of frames spanning
about _BLOCK_SAMPLES samples. For each lag tau, a block forms the pair
values max(x[t], x[t+tau]) (AMDF) or x[t] * x[t+tau] (ACF) once over the
samples it covers and sums them in hop-sized chunks; one matrix product
gives each frame's whole chunks and its one partial chunk. AMDF takes
|a - b| = 2 max(a, b) - a - b, with each frame's sums of a and b read
off one running sum of the block. A lone frame (pitch_frame) is one
hop of n samples. The cepstrum transforms each frame of a block
separately, framed by `_frame_signal` as the MFCC rows are. Each block
converts only its own span of the recording (`AudioBuffer.span`) into
the head of one array that every block reuses, and forms its pair
values in the rest of it. The blocks run one after another on the
calling thread, so working memory is a few block-sized buffers and does
not grow with the length of the recording; only the output does.

Exactness. A buffer that load_wav returns holds 16-bit PCM integers, and
the span of each block is converted from them on its own, exactly for a
mono or stereo file: every sample of a converted block is then a
multiple of 2**-16 in [-1, 1], the value a float64 buffer of the whole
recording holds. Every AMDF pair value
and running sum is then a multiple of 2**-16 and every ACF pair value
one of 2**-32. A frame's ACF sum needs at most 33 + log2(n) bits (42 at
n = 480), and an AMDF or running sum over N samples at most 17 + log2(N)
(33 for one block), under float64's 53. Every summation order is thus exact:
each sum, and so the track, is bit-identical to summing each frame's own
a * b or |a - b| with np.sum, for any block size. On other float input
an ACF sum differs from the per-frame sum by at most about
n * eps * sum(|a * b|), and an AMDF sum by at most about
eps * (2n * S + 2N * X): S = sum(|a| + |b|) over the frame's pairs, N
the running sum's length and X = sum(|x|) over it.

The AMDF's samples, pair values and chunk sums need less. A mono PCM16
sample is k * 2**-15 with |k| <= 2**15, and so is the larger of two of
them; any sum of up to hop of them, and so every partial sum of a chunk
in any order, is an integer number of 2**-15 steps, at most
2**(15 + log2(hop)) of them. float32 holds every integer up to 2**24
exactly, so these sums are exact in float32 for hop <= 512. So where
`AudioBuffer.sum_dtype(hop)` allows it (mono PCM16 up to a 512-sample
hop, stereo up to 256), the AMDF converts its blocks to float32 and
forms and chunk-sums its pair values there (an sgemm); each frame's
adds of its chunk sums, the running sum and the normalisation stay in
float64, so the track keeps its bits. The ACF stays in float64: a
product of two samples alone can need 30 significant bits. So does the
cepstrum, whose transforms would run in single precision.

AMDF selection and voicing operate on the per-overlap-sample mean of the
raw difference sum: the raw sum shrinks with lag simply because fewer
sample pairs overlap, which would bias the minimum toward long lags and
let white noise pass the voicing gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.fft  # load it now; numpy would load it lazily, in the first transform
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioBuffer, _frame_grid, _frame_signal, plan_from_seconds
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

# Samples per block of the pitch track: 160 KB of float32 or 320 KB of
# float64 for each of a block's samples and its pair values, which keeps
# them in cache. The block size sets speed and working memory, never the
# output. On 180 s at 8 kHz (one CPU, quartiles of 11 alternating calls)
# the AMDF track took 115-135 ms, against 145-174 ms with half the size
# and 185-228 ms with twice it.
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
        if not 0 < self.min_hz < self.max_hz < np.inf:
            raise ValueError("need 0 < min_hz < max_hz < inf")
        if not (0 < self.frame_len_s < np.inf and 0 < self.hop_s < np.inf):
            raise ValueError("frame_len_s and hop_s must be positive and finite")
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
    if not 1 <= lo <= hi:
        raise PreconditionError("empty lag range; check min_hz/max_hz against the sample rate")
    return lo, hi


def _lag_sums(seg: np.ndarray, n: int, hop: int, m: int, lags, pair, work=None) -> np.ndarray:
    """(m, len(lags)) sums of pair(x[i], x[i + tau]) over i < n - tau per frame.

    seg holds m frames of n samples, hop apart, and every tau < n. Each
    lag's pair values are formed once over seg, at seg's dtype, into one
    reused buffer and summed in hop-sized chunks by one product of (2, hop)
    weights with the chunks: row 0 sums whole chunks, row 1 only the first
    (n - tau) % hop values of each. Frame k's sum, added in float64, is its
    c = (n - tau) // hop whole chunks k .. k + c - 1 plus the partial sum
    of chunk k + c. A lone frame (pitch_frame) is one hop of n samples.

    work is the pair buffer: at least (m + n // hop) * hop values of seg's
    dtype, zero or finite (a new zeroed one when None). The tail of the
    last partial chunk meets zero weights, and a zero weight does not
    cancel a NaN left there.
    """
    n_chunks = m + n // hop  # covers seg, and the partial chunk of the last frame
    if work is None:
        work = np.zeros(n_chunks * hop, seg.dtype)
    chunks = work[: n_chunks * hop].reshape(n_chunks, hop)
    # Each lag's weights are a free (2, hop) view of 2 hop ones then hop
    # zeros: starting hop - part in, row 1 holds part ones.
    ramp = np.zeros(3 * hop, seg.dtype)
    ramp[: 2 * hop] = 1
    out = np.zeros((len(lags), m))
    for j, tau in enumerate(lags):
        pair(seg[: len(seg) - tau], seg[tau:], out=work[: len(seg) - tau])
        whole, part = divmod(n - tau, hop)
        sums = ramp[hop - part : 3 * hop - part].reshape(2, hop) @ chunks[: m + whole].T
        row = out[j]
        for q in range(whole):
            row += sums[0, q : q + m]
        row += sums[1, whole:]
    return out.T


def _amdf_rows(
    seg: np.ndarray, n: int, hop: int, m: int, lags: np.ndarray, work=None
) -> np.ndarray:
    """(m, len(lags)) per-overlap-sample AMDF sum(|a - b|) / (n - tau) of consecutive lags.

    sum(|a - b|) = 2 sum(max(a, b)) - sum(a) - sum(b). With r the running
    sum of seg, frame k's sum(a) + sum(b) is r[k*hop + n - tau] - r[k*hop]
    + r[k*hop + n] - r[k*hop + tau], applied in place to the lag-major rows.
    r is float64 whatever seg's dtype; work is the pair buffer of _lag_sums.
    """
    rows = _lag_sums(seg, n, hop, m, lags, np.maximum, work).T  # lag-major, C-contiguous
    run = np.zeros(len(seg) + 1)
    run[1:] = seg  # then summed in place: cumsum would convert seg into a temporary
    np.add.accumulate(run, out=run)
    win = sliding_window_view(run, len(lags))
    rows *= 2.0
    rows -= win[n - lags[-1] :: hop][:m, ::-1].T  # r[k*hop + n - tau]
    rows += win[lags[0] :: hop][:m].T  # r[k*hop + tau]
    rows -= run[n::hop][:m] - run[::hop][:m]  # r[k*hop + n] - r[k*hop]
    rows /= (n - lags)[:, None]
    return rows.T


def _cepstrum_rows(rows: np.ndarray, nfft: int) -> np.ndarray:
    spectra = np.abs(np.fft.rfft(rows, nfft, axis=1))
    return np.fft.irfft(np.log(spectra + SPECTRAL_FLOOR), nfft, axis=1)


def _first_at(table: np.ndarray, extreme: np.ndarray) -> np.ndarray:
    """Per row, the first lag where table equals that row's extreme.

    argmax or argmin along a lag axis that is not contiguous, as in the
    lag-major sums or a column slice of the cepstra, would copy the
    table; this copies a bool one.
    """
    return np.argmax(table == extreme[:, None], axis=1)


def _select_acf(values: np.ndarray, energy: np.ndarray, threshold: float):
    """Pitch lags and voicing for rows of R(tau) restricted to the search range."""
    peaks = np.max(values, axis=1)
    idx = _first_at(values, peaks)
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
    fallback = _first_at(norm, np.min(norm, axis=1))
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
    peaks = np.max(values, axis=1)
    idx = _first_at(values, peaks)
    median = np.median(values, axis=1)
    dev = values - median[:, None]
    mad = np.median(np.abs(dev, out=dev), axis=1, overwrite_input=True) * 1.4826
    z_required = CEPSTRAL_Z_BASE + CEPSTRAL_Z_SPAN * threshold
    with np.errstate(invalid="ignore", divide="ignore"):
        z = (peaks - median) / mad
    voiced = (mad > 0) & (z >= z_required)
    return idx, voiced


def _pitch_block(
    seg: np.ndarray, n: int, hop: int, m: int, sample_rate_hz: int, cfg: PitchConfig, work=None
) -> np.ndarray:
    """Pitch of the m frames of n samples, hop apart, that seg holds.

    Each frame must hold the longest search lag. Both are known in
    samples only here, where the rate is, so PitchConfig does not check it.
    work is the pair buffer of _lag_sums, or None.
    """
    lo, hi = lag_bounds(sample_rate_hz, cfg)
    if n <= hi:
        raise PreconditionError(f"frame of {n} samples cannot cover the longest search lag {hi}")
    if cfg.method == ACF:
        sums = _lag_sums(seg, n, hop, m, np.r_[0, lo : hi + 1], np.multiply, work)
        idx, voiced = _select_acf(sums[:, 1:], sums[:, 0], cfg.voicing_threshold)
    elif cfg.method == AMDF:
        lags = np.arange(lo - 1, min(hi + 1, n - 1) + 1)
        padded = _amdf_rows(seg, n, hop, m, lags, work)
        if hi + 1 == n:  # the right neighbor lag overlaps no samples
            padded = np.pad(padded, ((0, 0), (0, 1)), constant_values=np.inf)
        idx, voiced = _select_amdf(padded, cfg.voicing_threshold)
    else:
        ceps = _cepstrum_rows(_frame_signal(seg, n, hop), next_pow2(n))
        idx, voiced = _select_cepstral(ceps[:, lo : hi + 1], cfg.voicing_threshold)
    return np.where(voiced, sample_rate_hz / (lo + idx), 0.0)


def pitch_frame(frame, sample_rate_hz: int, cfg: PitchConfig | None = None) -> float:
    """Estimate the fundamental of one frame in Hz; 0.0 when unvoiced."""
    cfg = cfg or PitchConfig()
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 1 or frame.size == 0:
        raise PreconditionError("frame must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(frame)):
        raise PreconditionError("frame samples must be finite")
    return float(_pitch_block(frame, len(frame), len(frame), 1, sample_rate_hz, cfg)[0])


def pitch_track(buffer: AudioBuffer, cfg: PitchConfig | None = None) -> PitchTrack:
    """Run the configured detector over every frame of a recording."""
    cfg = cfg or PitchConfig()
    n, hop = plan_from_seconds(buffer, cfg.frame_len_s, cfg.hop_s)
    frames, times = _frame_grid(len(buffer), buffer.sample_rate_hz, n, hop)
    if not frames:
        raise PreconditionError("audio shorter than one frame")
    pitch = np.empty(len(frames))
    block = max(1, _BLOCK_SAMPLES // hop)
    # Every block converts its samples into the head of one zeroed array
    # and forms its pair values in the rest: new arrays per block cost
    # 6,000-10,000 page faults and 10% of the time or more on 180 s at
    # 8 kHz. The AMDF's hop-sized chunk sums are exact in float32 where
    # the buffer's amplitude grid allows (AudioBuffer.sum_dtype).
    dtype = buffer.sum_dtype(hop) if cfg.method == AMDF else np.float64
    most = min(block, len(frames))
    span = (most - 1) * hop + n
    pairs = 0 if cfg.method == CEPSTRAL else (most + n // hop) * hop
    store = np.zeros(span + pairs, dtype)
    for start in range(0, len(frames), block):
        m = min(block, len(frames) - start)
        seg = buffer.span(start * hop, (start + m - 1) * hop + n, store)
        pitch[start : start + m] = _pitch_block(
            seg, n, hop, m, buffer.sample_rate_hz, cfg, store[span:]
        )
    return PitchTrack(times=times, pitch_hz=pitch)


def write_track_tsv(track: PitchTrack, fp) -> None:
    """Two-column TSV (time_s, pitch_hz) for plotting."""
    fp.write("time_s\tpitch_hz\n")
    for t, p in zip(track.times, track.pitch_hz):
        fp.write(f"{t:.3f}\t{p:.3f}\n")

"""WAV loading, sample normalization and frame slicing.

Only uncompressed 16-bit PCM RIFF/WAVE files are read, plain or as
WAVE_FORMAT_EXTENSIBLE with the PCM subformat. The samples stay integers:
mono as int16, a view of the file's bytes, and k channels as their int32
sum. They become float64 amplitudes only when a block of them is read
(`AudioBuffer.span`), divided by 32768 or k * 32768, so the amplitude
domain is exactly [-1, 1) and multi-channel audio is averaged to mono.
For one or two channels each quotient is a multiple of 2**-16 and exact;
for k channels it is fl(sum / k) * 2**-15, the bits of the float64 mean
of the channels over 32768. No resampling is performed anywhere: analysis
parameters given in seconds are converted to samples at the file rate.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PreconditionError, UnsupportedWavError, WavFormatError

PCM_SCALE = 32768.0
WAVE_FORMAT_PCM = 1
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# KSDATAFORMAT_SUBTYPE_PCM as stored at offset 24 of an extensible fmt chunk.
PCM_SUBFORMAT = bytes.fromhex("0100000000001000800000aa00389b71")
# data chunk size a streaming recorder leaves when it cannot know the length.
STREAMED_SIZE = 0xFFFFFFFF


@dataclass(frozen=True, init=False)
class AudioBuffer:
    """Mono audio as amplitudes in [-1, 1] plus its sample rate.

    The amplitudes are held as data / divisor. `load_wav` keeps a PCM16
    recording's integers, 2 bytes a sample for mono and 4 for the channel
    sum, with divisor 32768 times the channel count; other input is held
    as float64 with divisor 1. `span(start, stop, out)` converts one range
    to float64, exactly for PCM16 data, into a new array or into out (at
    out's dtype), and `samples` converts all of it. The pitch track and
    `mfcc` convert one block's span at a time, so a whole recording is
    never held as float64 unless a caller reads `samples`.
    """

    _data: np.ndarray
    _divisor: float
    sample_rate_hz: int

    def __init__(self, samples, sample_rate_hz: int, divisor: float = 1.0):
        data = np.asarray(samples)
        if data.dtype.kind not in "iu":
            data = data.astype(np.float64, copy=False)
        if not isinstance(sample_rate_hz, (int, np.integer)) or sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be a positive integer")
        if not 0 < divisor < np.inf:
            raise ValueError("divisor must be positive and finite")
        if data.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        # Written so that NaN, for which every comparison is false, fails.
        if data.size and not (np.min(data) >= -divisor and np.max(data) <= divisor):
            raise ValueError("samples must be finite and lie in [-1.0, 1.0]")
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "_divisor", divisor)
        object.__setattr__(self, "sample_rate_hz", sample_rate_hz)

    def __len__(self) -> int:
        return len(self._data)

    def span(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """Amplitudes start:stop: a new float64 array, or the head of out."""
        data = self._data[start:stop]
        if out is None:
            return np.divide(data, self._divisor)
        return np.divide(data, self._divisor, out=out[: len(data)], dtype=out.dtype)

    def sum_dtype(self, terms: int) -> type:
        """float32 where every sum of up to `terms` amplitudes is exact in it, else float64.

        Integer amplitudes k / divisor with a power-of-two divisor lie on a
        grid that float32 holds, and since |k| <= divisor a sum of `terms`
        of them, or of their pairwise maxima, is an integer number of grid
        steps of at most terms * divisor, which float32 holds exactly up
        to 2**24: at most 512 terms for mono PCM16 (divisor 2**15), 256
        for stereo. Float data, or a divisor such as 3 * 32768, gives
        float64.
        """
        on_grid = self._data.dtype.kind in "iu" and math.frexp(self._divisor)[0] == 0.5
        return np.float32 if on_grid and terms * self._divisor <= 2**24 else np.float64

    @property
    def samples(self) -> np.ndarray:
        """All amplitudes as a new float64 array."""
        return self.span(0, len(self))

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate_hz


def _read_chunks(data: bytes):
    """Yield (chunk id, payload view) pairs of a RIFF body, honoring pad bytes.

    A streamed data chunk runs to the end of the file.
    """
    view = memoryview(data)
    pos = 12
    while pos + 8 <= len(data):
        cid, size = struct.unpack_from("<4sI", data, pos)
        if cid == b"data" and size == STREAMED_SIZE:
            size = len(data) - pos - 8
        payload = view[pos + 8 : pos + 8 + size]
        if len(payload) < size:
            raise WavFormatError(f"truncated chunk {cid!r}")
        yield cid, payload
        pos += 8 + size + (size & 1)


def load_wav(path) -> AudioBuffer:
    """Read a 16-bit PCM RIFF/WAVE file into a normalized mono AudioBuffer.

    Raises FileNotFoundError for a missing path, WavFormatError for a
    damaged container and UnsupportedWavError for non-PCM encodings or
    bit depths other than 16.
    """
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    for cid, body in _read_chunks(data):
        if cid == b"fmt " and fmt is None:
            if len(body) < 16:
                raise WavFormatError(f"{path}: fmt chunk too short")
            fmt = body
        elif cid == b"data" and payload is None:
            payload = body
    if fmt is None or payload is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")

    audio_format, n_channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format == WAVE_FORMAT_EXTENSIBLE and fmt[24:40] == PCM_SUBFORMAT:
        audio_format = WAVE_FORMAT_PCM
    if audio_format != WAVE_FORMAT_PCM:
        raise UnsupportedWavError(f"{path}: only PCM supported, got format {audio_format}")
    if bits != 16:
        raise UnsupportedWavError(f"{path}: only 16-bit samples supported, got {bits}")
    if n_channels < 1 or sample_rate < 1:
        raise WavFormatError(f"{path}: {n_channels} channels at {sample_rate} Hz")

    frame_bytes = 2 * n_channels
    usable = len(payload) - len(payload) % frame_bytes
    ints = np.frombuffer(payload[:usable], dtype="<i2")
    if n_channels > 1:
        ints = ints.reshape(-1, n_channels).sum(axis=1, dtype=np.int32)  # |sum| < 65536 * 32768
    return AudioBuffer(ints, int(sample_rate), divisor=n_channels * PCM_SCALE)


def write_wav(path, samples, sample_rate_hz: int) -> None:
    """Write float amplitudes as mono 16-bit PCM, clipping into range.

    Raises ValueError, before anything is written, for a rate that is not
    an integer in [1, 2**31 - 1] (the header holds 2 * rate in 32 bits),
    samples that are not one-dimensional or not finite.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if not isinstance(sample_rate_hz, (int, np.integer)) or not 0 < sample_rate_hz < 2**31:
        raise ValueError("sample_rate_hz must be a positive integer below 2**31")
    if samples.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    ints = np.clip(np.rint(samples * PCM_SCALE), -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, 1, 1, sample_rate_hz, 2 * int(sample_rate_hz), 2, 16
    )
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)


def _frame_grid(
    n_samples: int, sample_rate_hz: int, window_len: int, hop: int,
    rows: slice = slice(None),
):
    """The complete analysis frames of n_samples samples that rows selects.

    Returns (frames, times): a range of frame indices, by default all n,
    frame k covering [k*hop, k*hop + window_len), and their start times in
    seconds. Only the selected times are built. Tail samples that do not
    fill a full window are discarded.
    """
    count = 0 if n_samples < window_len else (n_samples - window_len) // hop + 1
    selected = rows.indices(count)
    return range(*selected), np.arange(*selected) * (hop / sample_rate_hz)


def _frame_signal(samples: np.ndarray, window_len: int, hop: int) -> np.ndarray:
    """Slice float64 amplitudes into all their complete analysis frames.

    Returns a read-only view of the frames of _frame_grid. Input shorter
    than one window yields zero frames. Integer PCM is refused: it is
    framed only after `AudioBuffer.span` has scaled it.
    """
    if samples.dtype != np.float64:
        raise PreconditionError(f"frames are cut from float64 amplitudes, not {samples.dtype}")
    if len(samples) < window_len:
        return np.empty((0, window_len))
    return np.lib.stride_tricks.sliding_window_view(samples, window_len)[::hop]


def plan_from_seconds(buffer: AudioBuffer, frame_len_s: float, hop_s: float) -> tuple[int, int]:
    """Convert second-domain framing to (window_len, hop) in samples at the buffer's rate."""
    window_len = int(round(frame_len_s * buffer.sample_rate_hz))
    hop = int(round(hop_s * buffer.sample_rate_hz))
    if window_len < 1 or hop < 1:
        raise PreconditionError("frame and hop must span at least one sample")
    return window_len, hop

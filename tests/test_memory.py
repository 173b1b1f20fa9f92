"""Working memory of the front ends, of the pitch pipeline and of both
BIC sweeps does not grow with recording length, that of mfcc and of the
growing sweep stays under a fixed bound, loading a WAV reads only its
headers, and a whole `segment --method pitch` run holds no copy of its
recording.

Working memory is the tracemalloc peak of one call less the bytes of the
result it returns, whose size is proportional to the length by design.
The input buffer is allocated before tracing starts.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from speakerseg import cli
from speakerseg.audio_io import AudioBuffer, load_wav, write_wav
from speakerseg.bic import BicConfig, detect_fixed, detect_growing
from speakerseg.features import FeatureMatrix, mfcc
from speakerseg.pitch import pitch_track
from speakerseg.pitch_seg import segment

from conftest import harmonic_tone

FS = 8000
GROWTH_LIMIT_BYTES = 2_000_000
# Working memory of one mfcc or detect_growing call, whose buffers are allocated once
# per call and sized by a block. Measured on x86-64 with numpy 2.4: mfcc 1.63 MB on 30 s
# of 8 kHz PCM16 (2.99 MB when each block allocated its own), detect_growing 1.46 MB at
# the default sizes (2.49 MB when each start and refinement did). The bound leaves a
# margin of 0.37 MB, 23%, over the larger.
WORKING_LIMIT_BYTES = 2_000_000


def working_bytes(fn, buffer, result_bytes):
    tracemalloc.start()
    try:
        result = fn(buffer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - result_bytes(result)


def track_bytes(track):
    return track.times.nbytes + track.pitch_hz.nbytes


def feature_bytes(features):
    return features.times.nbytes + features.vectors.nbytes


def noise_buffer(seconds, pcm16):
    """Uniform noise in [-0.5, 0.5): float64, or PCM16 integers as load_wav keeps them."""
    rng = np.random.default_rng(0)
    if pcm16:
        return AudioBuffer(rng.integers(-16384, 16384, seconds * FS, dtype="<i2"), FS, 32768.0)
    return AudioBuffer(rng.uniform(-0.5, 0.5, seconds * FS), FS)


@pytest.mark.parametrize(
    "fn, result_bytes, pcm16",
    [
        pytest.param(pitch_track, track_bytes, False, id="pitch_track"),
        pytest.param(mfcc, feature_bytes, False, id="mfcc"),
        # On top of the above: each block's samples converted to float64.
        pytest.param(pitch_track, track_bytes, True, id="pitch_track-pcm16"),
        pytest.param(mfcc, feature_bytes, True, id="mfcc-pcm16"),
    ],
)
def test_working_memory_bounded(fn, result_bytes, pcm16):
    short, long = noise_buffer(60, pcm16), noise_buffer(600, pcm16)
    growth = working_bytes(fn, long, result_bytes) - working_bytes(fn, short, result_bytes)
    assert growth < GROWTH_LIMIT_BYTES


def test_mfcc_working_memory():
    assert working_bytes(mfcc, noise_buffer(30, True), feature_bytes) < WORKING_LIMIT_BYTES


def test_load_wav_reads_only_the_headers(tmp_path):
    """The samples stay in the file: loading 60 s allocates no array of them."""
    path = tmp_path / "a.wav"
    write_wav(path, np.random.default_rng(0).uniform(-0.5, 0.5, 60 * FS), FS)
    tracemalloc.start()
    try:
        buffer = load_wav(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(buffer) == 60 * FS
    assert peak < 64 * 1024


def test_pitch_cli_run_holds_no_copy_of_the_recording(tmp_path):
    """A 600 s, 8 kHz mono file is 9.6 MB; the run's peak is its working memory
    and its 60,000-frame pitch track (0.96 MB). Measured at 2.18 MB on x86-64 with
    numpy 2.4, against 12.07 MB while load_wav kept the file's bytes."""
    wav = tmp_path / "long.wav"
    turn = np.concatenate([harmonic_tone(130, FS, 5 * FS), harmonic_tone(200, FS, 5 * FS)])
    write_wav(wav, np.tile(turn, 60), FS)
    argv = ["segment", str(wav), "--method", "pitch", "--out", str(tmp_path / "cp.txt")]
    assert cli.main(argv) == cli.EXIT_OK  # warm: the first run builds cached tables
    tracemalloc.start()
    try:
        assert cli.main(argv) == cli.EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_500_000


def test_feature_matrix_checks_allocate_no_row_array():
    vectors = np.random.default_rng(0).normal(size=(60_000, 13))
    times = np.arange(60_000) * 0.01
    tracemalloc.start()
    try:
        FeatureMatrix(vectors, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_segment_working_memory_bounded():
    """The verify step computes MFCC rows only around each candidate."""

    def turns(seconds):
        rng = np.random.default_rng(2)
        turn = np.concatenate([harmonic_tone(130, FS, 5 * FS), harmonic_tone(200, FS, 5 * FS)])
        samples = np.tile(turn, seconds // 10)
        return AudioBuffer(samples + rng.normal(0.0, 0.01, len(samples)), FS)

    examined = []

    def result_bytes(result):  # a few hundred bytes, whatever the length
        examined.append(result.candidates_examined)
        return 0

    short_bytes = working_bytes(segment, turns(60), result_bytes)
    long_bytes = working_bytes(segment, turns(600), result_bytes)
    assert examined[1] > 100  # one candidate per turn, each verified
    assert long_bytes - short_bytes < GROWTH_LIMIT_BYTES


def speaker_features(seconds, hop_s=0.01, turn_s=5.0, d=13):
    """MFCC-like rows whose mean changes every turn_s seconds."""
    rng = np.random.default_rng(1)
    n = int(round(seconds / hop_s))
    turn = int(round(turn_s / hop_s))
    means = rng.uniform(-8.0, 8.0, (n // turn + 1, d))
    rows = rng.normal(0.0, 1.0, (n, d)) + np.repeat(means, turn, axis=0)[:n]
    return FeatureMatrix(rows, np.arange(n) * hop_s)


def change_point_bytes(points):
    return sys.getsizeof(points) + sum(
        sys.getsizeof(p) + sys.getsizeof(p.__dict__) for p in points
    )


def test_fixed_sweep_working_memory_bounded():
    short, long = speaker_features(60.0), speaker_features(600.0)
    short_bytes = working_bytes(detect_fixed, short, change_point_bytes)
    long_bytes = working_bytes(detect_fixed, long, change_point_bytes)
    assert long_bytes - short_bytes < GROWTH_LIMIT_BYTES


def test_growing_sweep_working_memory_bounded():
    """The window never exceeds n_max rows, whatever the length."""
    short, long = speaker_features(60.0), speaker_features(600.0)
    short_bytes = working_bytes(detect_growing, short, change_point_bytes)
    long_bytes = working_bytes(detect_growing, long, change_point_bytes)
    assert long_bytes - short_bytes < GROWTH_LIMIT_BYTES


def test_growing_sweep_working_memory():
    features = speaker_features(60.0)
    assert working_bytes(detect_growing, features, change_point_bytes) < WORKING_LIMIT_BYTES


def test_growing_sweep_working_memory_on_a_short_recording():
    """A recording shorter than n_max rows sizes the sweep's sums by its own rows.
    Measured on x86-64 with numpy 2.4 on 300 rows: 1.01 MB, against 1.44 MB when the
    sums held n_max + 1 = 601 slots whatever the length. The bound leaves a margin of
    0.19 MB, 19%."""
    features = speaker_features(3.0)
    assert len(features) == 300 < BicConfig().n_max
    assert working_bytes(detect_growing, features, change_point_bytes) < 1_200_000

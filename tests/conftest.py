import os

import numpy as np
import pytest

from speakerseg.audio_io import AudioBuffer, write_wav
from speakerseg.synth import SynthSpec, synth_speakers


def sine(freq_hz, fs, n, amplitude=0.4, phase=0.0):
    t = np.arange(n) / fs
    return amplitude * np.sin(2 * np.pi * freq_hz * t + phase)


def harmonic_tone(freq_hz, fs, n, n_harmonics=8, amplitude=0.3):
    """Equal-amplitude harmonic complex with staggered phases."""
    t = np.arange(n) / fs
    sig = np.zeros(n)
    for h in range(1, n_harmonics + 1):
        if freq_hz * h >= 0.45 * fs:
            break
        sig += np.sin(2 * np.pi * freq_hz * h * t + 0.37 * h)
    return amplitude * sig / np.max(np.abs(sig))


@pytest.fixture(scope="session")
def two_speaker_buffer():
    buffer, truth = synth_speakers(
        SynthSpec(n_speakers=2, duration_s=5.0, f0_hz=(110.0, 220.0), seed=11)
    )
    return buffer, truth


@pytest.fixture(scope="session")
def single_speaker_buffer():
    buffer, _ = synth_speakers(
        SynthSpec(n_speakers=1, duration_s=10.0, f0_hz=(140.0,), seed=4)
    )
    return buffer


def buffer_from(samples, fs=8000):
    return AudioBuffer(samples=np.asarray(samples, dtype=np.float64), sample_rate_hz=fs)


def change_file(path, how):
    """Change a loaded WAV file in one of the ways a later read must notice."""
    if how == "truncated":
        os.truncate(path, 50)  # 6 bytes into the data chunk
    elif how == "rewritten":
        stat = os.stat(path)
        with open(path, "r+b") as fp:
            fp.seek(44)
            fp.write(bytes(stat.st_size - 44))
        # File-system timestamps are coarse (a few ms on Linux), so the rewrite is dated
        # 1 s later, as a rewrite some time after the load would be.
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
    elif how == "replaced":  # same size and mtime, another file
        stat = os.stat(path)
        other = path.with_name("other.wav")
        write_wav(other, np.zeros(stat.st_size // 2 - 22), 8000)
        os.utime(other, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        os.replace(other, path)
    else:
        assert how == "deleted"
        os.remove(path)

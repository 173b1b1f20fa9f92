"""Working memory of the front ends does not grow with recording length.

Working memory is the tracemalloc peak of one call less the bytes of the
result it returns, whose size is proportional to the length by design.
The input buffer is allocated before tracing starts.
"""

import tracemalloc

import numpy as np
import pytest

from speakerseg.audio_io import AudioBuffer
from speakerseg.features import mfcc
from speakerseg.pitch import pitch_track

FS = 8000
GROWTH_LIMIT_BYTES = 2_000_000


def working_bytes(fn, buffer, result_bytes):
    tracemalloc.start()
    try:
        result = fn(buffer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - result_bytes(result)


@pytest.mark.parametrize(
    "fn, result_bytes",
    [
        (pitch_track, lambda r: r.times.nbytes + r.pitch_hz.nbytes),
        (mfcc, lambda r: r.times.nbytes + r.vectors.nbytes),
    ],
    ids=["pitch_track", "mfcc"],
)
def test_working_memory_bounded(fn, result_bytes):
    rng = np.random.default_rng(0)
    short = AudioBuffer(rng.uniform(-0.5, 0.5, 60 * FS), FS)
    long = AudioBuffer(rng.uniform(-0.5, 0.5, 600 * FS), FS)
    growth = working_bytes(fn, long, result_bytes) - working_bytes(fn, short, result_bytes)
    assert growth < GROWTH_LIMIT_BYTES

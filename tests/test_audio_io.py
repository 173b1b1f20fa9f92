import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speakerseg.audio_io import (
    AudioBuffer,
    _frame_grid,
    _frame_signal,
    load_wav,
    plan_from_seconds,
    write_wav,
)
from speakerseg.errors import PreconditionError, UnsupportedWavError, WavFormatError


PCM_GUID = bytes.fromhex("0100000000001000800000aa00389b71")
FLOAT_GUID = bytes.fromhex("0300000000001000800000aa00389b71")


def wav_bytes(ints, sample_rate=8000, channels=1, bits=16, audio_format=1, subformat=None):
    """A WAV file; with a subformat GUID, a 40-byte WAVE_FORMAT_EXTENSIBLE fmt chunk."""
    payload = b"".join(struct.pack("<h", v) for v in ints)
    fmt = struct.pack(
        "<HHIIHH",
        0xFFFE if subformat is not None else audio_format,
        channels,
        sample_rate,
        sample_rate * channels * bits // 8,
        channels * bits // 8,
        bits,
    )
    if subformat is not None:
        # cbSize, valid bits per sample, channel mask (front left/right), GUID.
        fmt += struct.pack("<HHI", 22, bits, (1 << channels) - 1) + subformat
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


class TestLoadWav:
    def test_sample_scaling(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes([16384, 0, -32768]))
        buf = load_wav(path)
        assert buf.samples.tolist() == [0.5, 0.0, -1.0]
        assert buf.sample_rate_hz == 8000

    def test_stereo_downmix_is_mean(self, tmp_path):
        left, right = round(0.2 * 32768), round(0.4 * 32768)
        path = tmp_path / "st.wav"
        path.write_bytes(wav_bytes([left, right], channels=2))
        buf = load_wav(path)
        assert buf.samples[0] == pytest.approx(0.3, abs=1e-4)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wav(tmp_path / "nope.wav")

    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"not a wav at all")
        with pytest.raises(WavFormatError):
            load_wav(path)

    def test_zero_sample_rate(self, tmp_path):
        path = tmp_path / "rate0.wav"
        path.write_bytes(wav_bytes([1, 2, 3, 4], sample_rate=0))
        with pytest.raises(WavFormatError, match="at 0 Hz"):
            load_wav(path)

    def test_truncated_chunk(self, tmp_path):
        data = wav_bytes([1, 2, 3, 4])
        path = tmp_path / "trunc.wav"
        path.write_bytes(data[:-3])
        with pytest.raises(WavFormatError):
            load_wav(path)

    def test_streamed_data_size_reads_to_end_of_file(self, tmp_path):
        # A streaming recorder leaves both sizes at 0xFFFFFFFF; the odd
        # trailing byte is half a sample and is dropped.
        ints = [16384, -16384, 8192, 0, -32768]
        whole = wav_bytes(ints)
        data_at = whole.index(b"data")
        streamed = (
            b"RIFF" + struct.pack("<I", 0xFFFFFFFF) + whole[8:data_at]
            + b"data" + struct.pack("<I", 0xFFFFFFFF) + whole[data_at + 8 :] + b"\x7f"
        )
        path = tmp_path / "streamed.wav"
        path.write_bytes(streamed)
        assert len(streamed) % 2 == 1
        assert load_wav(path).samples.tolist() == [v / 32768 for v in ints]

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "float.wav"
        path.write_bytes(wav_bytes([0, 0], audio_format=3))
        with pytest.raises(UnsupportedWavError):
            load_wav(path)

    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_extensible_pcm_loads_like_plain_pcm(self, tmp_path, channels):
        ints = [16384, -32768, 5, 0, -7, 32767]
        plain, ext = tmp_path / "plain.wav", tmp_path / "ext.wav"
        plain.write_bytes(wav_bytes(ints, channels=channels))
        ext.write_bytes(wav_bytes(ints, channels=channels, subformat=PCM_GUID))
        assert ext.read_bytes()[20:22] == b"\xfe\xff"
        want, got = load_wav(plain), load_wav(ext)
        assert len(got.samples) == len(ints) // channels
        assert np.array_equal(got.samples, want.samples)
        assert got.sample_rate_hz == want.sample_rate_hz
        # Bit for bit the float mean of the channels over 32768, also for 3
        # channels, whose divisor 3 * 32768 is no power of two.
        mean = np.array(ints).reshape(-1, channels).mean(axis=1) / 32768
        assert got.samples.tobytes() == mean.tobytes()

    def test_extensible_float_rejected(self, tmp_path):
        path = tmp_path / "ext_float.wav"
        path.write_bytes(wav_bytes([0, 0], subformat=FLOAT_GUID))
        with pytest.raises(UnsupportedWavError, match="65534"):
            load_wav(path)

    def test_extensible_without_subformat_rejected(self, tmp_path):
        path = tmp_path / "ext_short.wav"
        path.write_bytes(wav_bytes([0, 0], audio_format=0xFFFE))
        with pytest.raises(UnsupportedWavError):
            load_wav(path)

    def test_wrong_bit_depth_rejected(self, tmp_path):
        path = tmp_path / "b8.wav"
        path.write_bytes(wav_bytes([0, 0], bits=8))
        with pytest.raises(UnsupportedWavError):
            load_wav(path)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ints = rng.integers(-32768, 32768, size=500)
        path = tmp_path / "rt.wav"
        path.write_bytes(wav_bytes(ints.tolist(), sample_rate=16000))
        buf = load_wav(path)
        assert np.array_equal(buf.samples, ints / 32768.0)
        assert buf.sample_rate_hz == 16000

    def test_write_then_load(self, tmp_path):
        samples = np.linspace(-0.9, 0.9, 321)
        path = tmp_path / "w.wav"
        write_wav(path, samples, 8000)
        back = load_wav(path)
        assert np.max(np.abs(back.samples - samples)) <= 0.5 / 32768

    def test_write_clips_finite_out_of_range(self, tmp_path):
        path = tmp_path / "clip.wav"
        write_wav(path, np.array([-2.0, 2.0]), 8000)
        assert load_wav(path).samples.tolist() == [-1.0, 32767 / 32768]

    @pytest.mark.parametrize(
        "samples, rate, message",
        [
            ([0.0, np.nan, 0.5], 8000, "finite"),
            ([0.0, np.inf, 0.5], 8000, "finite"),
            ([0.0, -np.inf, 0.5], 8000, "finite"),
            (np.zeros((2, 3)), 8000, "one-dimensional"),
            (np.zeros(4), 0, "positive"),
            (np.zeros(4), -8000, "positive"),
        ],
    )
    def test_write_refuses_what_it_cannot_write(self, samples, rate, message, tmp_path):
        path = tmp_path / "bad.wav"
        with pytest.raises(ValueError, match=message):
            write_wav(path, samples, rate)
        assert not path.exists()


class TestAudioBuffer:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AudioBuffer(samples=np.array([0.0, 1.5]), sample_rate_hz=8000)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            AudioBuffer(samples=np.array([0.0, bad, 0.5]), sample_rate_hz=8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioBuffer(samples=np.zeros(4), sample_rate_hz=0)

    def test_duration(self):
        buf = AudioBuffer(samples=np.zeros(4000), sample_rate_hz=8000)
        assert buf.duration_s == 0.5

    def test_integers_over_divisor(self):
        buf = AudioBuffer(np.array([16384, -32768, 3], dtype="<i2"), 8000, divisor=32768.0)
        assert len(buf) == 3 and buf.duration_s == 3 / 8000
        assert buf.samples.tolist() == [0.5, -1.0, 3 / 32768]
        assert buf.span(1, 3).tolist() == [-1.0, 3 / 32768]
        with pytest.raises(ValueError, match=r"lie in \[-1.0, 1.0\]"):
            AudioBuffer(np.array([40000]), 8000, divisor=32768.0)


class TestFrames:
    def test_frame_count_examples(self):
        assert len(_frame_signal(np.zeros(1000), 200, 80)) == 11
        assert len(_frame_signal(np.zeros(100), 200, 80)) == 0
        assert len(_frame_signal(np.zeros(200), 200, 80)) == 1

    def test_exact_fit_starts_at_zero(self):
        assert _frame_signal(np.arange(200) / 1000.0, 200, 80).shape == (1, 200)
        frames, times = _frame_grid(200, 8000, 200, 80)
        assert frames == range(1)
        assert times.tolist() == [0.0]

    def test_frame_contents_match_slices(self):
        rng = np.random.default_rng(1)
        samples = rng.uniform(-1, 1, 1000)
        rows = _frame_signal(samples, 200, 80)
        assert rows.shape == (11, 200)
        for k in range(11):
            assert np.array_equal(rows[k], samples[k * 80 : k * 80 + 200])

    def test_refuses_integer_pcm(self):
        with pytest.raises(PreconditionError, match="float64"):
            _frame_signal(np.zeros(1000, dtype="<i2"), 200, 80)

    def test_frame_times(self):
        _, times = _frame_grid(1000, 8000, 200, 80)
        assert len(times) == 11
        steps = np.diff(times)
        assert np.allclose(steps, 80 / 8000)
        assert np.all(steps > 0)
        _, tail = _frame_grid(1000, 8000, 200, 80, slice(9, None))
        assert np.array_equal(tail, times[9:])

    @given(
        n=st.integers(min_value=0, max_value=400),
        window=st.integers(min_value=1, max_value=64),
        hop=st.integers(min_value=1, max_value=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_frame_count_formula(self, n, window, hop):
        rows = _frame_signal(np.zeros(n), window, hop)
        expected = 0 if n < window else (n - window) // hop + 1
        assert len(rows) == expected
        assert len(_frame_grid(n, 8000, window, hop)[0]) == expected

    def test_plan_validation(self):
        buf = AudioBuffer(samples=np.zeros(8000), sample_rate_hz=8000)
        with pytest.raises(ValueError):
            plan_from_seconds(buf, 0 / 8000, 1 / 8000)
        with pytest.raises(ValueError):
            plan_from_seconds(buf, 10 / 8000, 0 / 8000)

    def test_plan_from_seconds(self):
        buf = AudioBuffer(samples=np.zeros(8000), sample_rate_hz=8000)
        assert plan_from_seconds(buf, 0.030, 0.010) == (240, 80)

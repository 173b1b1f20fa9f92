import math
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from speakerseg import pitch
from speakerseg.audio_io import AudioBuffer, load_wav
from speakerseg.errors import PreconditionError
from speakerseg.features import mfcc
from speakerseg.pitch import (
    ACF,
    AMDF,
    CEPSTRAL,
    METHODS,
    PitchConfig,
    PitchTrack,
    lag_bounds,
    next_pow2,
    pitch_frame,
    pitch_track,
    write_track_tsv,
)
from speakerseg.pitch_seg import SEG_METHODS, RunConfig, build_method
from speakerseg.synth import SynthSpec, synth_speakers

from conftest import buffer_from, harmonic_tone, sine


def brute_acf(frame):
    n = len(frame)
    return [sum(frame[i] * frame[i + tau] for i in range(n - tau)) for tau in range(n)]


def brute_amdf(frame):
    n = len(frame)
    return [sum(abs(frame[i] - frame[i + tau]) for i in range(n - tau)) for tau in range(n)]


def abs_diff(a, b, out):
    """|a - b| into out: the AMDF pair values, formed directly."""
    np.subtract(a, b, out=out)
    return np.abs(out, out=out)


# The one-frame case of each detector's kernel: m = 1 frame of n samples.
def acf(frame):
    """Autocorrelation R(tau) for tau = 0..len(frame)-1, truncated sums."""
    frame = np.asarray(frame, dtype=np.float64)
    return pitch._lag_sums(frame, len(frame), 1, 1, np.arange(len(frame)), np.multiply)[0]


def amdf(frame):
    """Raw magnitude-difference sum for tau = 0..len(frame)-1."""
    frame = np.asarray(frame, dtype=np.float64)
    return pitch._lag_sums(frame, len(frame), 1, 1, np.arange(len(frame)), abs_diff)[0]


def cepstrum(frame):
    """Real cepstrum of one frame, transformed at the next power of two."""
    frame = np.asarray(frame, dtype=np.float64)
    return pitch._cepstrum_rows(frame[None, :], next_pow2(len(frame)))[0]


class TestAcf:
    def test_zero_signal(self):
        assert np.array_equal(acf(np.zeros(16)), np.zeros(16))

    def test_constant_ones(self):
        assert acf([1.0, 1.0, 1.0, 1.0]).tolist() == [4.0, 3.0, 2.0, 1.0]

    def test_matches_brute_force_and_peak_at_period(self):
        frame = sine(200, 8000, 400)
        values = acf(frame)
        brute = brute_acf(frame.tolist())
        assert np.allclose(values, brute, atol=1e-9)
        lo, hi = lag_bounds(8000, PitchConfig())
        search = np.array(brute[lo : hi + 1])
        peak = lo + int(np.argmax(search))
        assert abs(peak - 40) <= 1
        assert abs(int(np.argmax(values[lo : hi + 1])) + lo - peak) <= 1

    def test_lag_zero_is_energy(self):
        rng = np.random.default_rng(3)
        frame = rng.uniform(-1, 1, 64)
        assert acf(frame)[0] == pytest.approx(np.sum(frame**2), rel=1e-12)

    def test_lag_zero_dominates(self):
        rng = np.random.default_rng(6)
        frame = rng.uniform(-1, 1, 128)
        values = acf(frame)
        assert np.all(values[0] >= np.abs(values))

    def test_empty_frame_rejected(self):
        with pytest.raises(PreconditionError):
            pitch_frame([], 8000, PitchConfig(method=ACF))


def per_frame_lag_sums(seg, n, hop, m, lags, pair, work=None):
    """Reference kernel: one np.sum per frame over its own window of each lag's pair buffer.

    It takes _lag_sums's arguments, but forms the pair values in a float64
    buffer of its own whatever work and seg's dtype are.
    """
    seg = np.asarray(seg, dtype=np.float64)
    out = np.empty((m, len(lags)))
    work = np.empty(len(seg))
    frames = sliding_window_view(work, n)[::hop][:m]
    for j, tau in enumerate(lags):
        pair(seg[: len(seg) - tau], seg[tau:], out=work[: len(seg) - tau])
        out[:, j] = frames[:, : n - tau].sum(axis=1)
    return out


def pcm16(x):
    """x rounded to 16-bit PCM and scaled as load_wav scales it."""
    return np.clip(np.rint(x * 32768), -32768, 32767) / 32768


class TestLagSums:
    """The chunk-sum kernel against the sum of each frame's own pair values."""

    # (n, hop): the default 8 kHz geometry; a frame that is not a multiple
    # of the hop, so most lags end in a partial chunk; a 16 kHz frame; and
    # frames shorter than the hop, which share no samples.
    GEOMETRIES = [(240, 80), (134, 80), (400, 160), (50, 64)]

    @staticmethod
    def frame_terms(seg, n, hop, m, pair):
        """(k, tau, pair values of frame k at lag tau) for every frame and lag."""
        for k in range(m):
            frame = seg[k * hop : k * hop + n].copy()
            for tau in range(n):
                yield k, tau, pair(frame[: n - tau], frame[tau:], out=np.empty(n - tau))

    @pytest.mark.parametrize("n, hop", GEOMETRIES)
    def test_rows_equal_per_frame_sums(self, n, hop):
        # On PCM16 frames, exactly. Each sample is a stereo downmix, a
        # multiple of 2**-16, so every partial sum is exact in float64 and
        # the summation order cannot show.
        rng = np.random.default_rng(n + hop)
        # Lags whose frames hold no whole chunk, and lags whose frames end
        # on a chunk boundary (no partial chunk); a lone frame has both.
        chunking = {divmod(n - tau, hop) for tau in range(n)}
        assert any(whole == 0 for whole, _ in chunking)
        assert n < hop or any(whole and not part for whole, part in chunking)
        for m in (1, 9):
            length = (m - 1) * hop + n
            seg = (pcm16(rng.normal(0, 0.3, length)) + pcm16(rng.normal(0, 0.3, length))) / 2
            for pair in (np.multiply, np.maximum, abs_diff):
                got = pitch._lag_sums(seg, n, hop, m, np.arange(n), pair)
                for k, tau, terms in self.frame_terms(seg, n, hop, m, pair):
                    assert got[k, tau] == np.sum(terms) == math.fsum(terms)

    @pytest.mark.parametrize("n, hop", GEOMETRIES)
    def test_float_frames_within_summation_bound(self, n, hop):
        rng = np.random.default_rng(n * hop)
        eps = np.finfo(np.float64).eps
        for m in (1, 9):
            seg = rng.normal(0, 0.3, (m - 1) * hop + n)
            for pair in (np.multiply, np.maximum, abs_diff):
                got = pitch._lag_sums(seg, n, hop, m, np.arange(n), pair)
                for k, tau, terms in self.frame_terms(seg, n, hop, m, pair):
                    exact = math.fsum(terms)
                    assert abs(got[k, tau] - exact) <= n * eps * math.fsum(np.abs(terms))

    @pytest.mark.parametrize("n, hop", GEOMETRIES)
    def test_float_amdf_rows_within_identity_bound(self, n, hop):
        # 2 sum(max) - sum(a) - sum(b) on unquantised input: the bound the
        # module docstring states, with S = sum(|a| + |b|) of the frame's
        # pairs, N the running sum's length and X = sum(|x|) over it.
        rng = np.random.default_rng(n + 7 * hop)
        eps = np.finfo(np.float64).eps
        for m in (1, 9):
            seg = rng.uniform(-1, 1, (m - 1) * hop + n)
            got = pitch._amdf_rows(seg, n, hop, m, np.arange(n))
            big_n, x = len(seg), math.fsum(np.abs(seg))
            for k, tau, terms in self.frame_terms(seg, n, hop, m, abs_diff):
                frame = seg[k * hop : k * hop + n]
                s = math.fsum(np.abs(frame[: n - tau])) + math.fsum(np.abs(frame[tau:]))
                exact = math.fsum(terms)
                bound = eps * ((2 * n + 4) * s + (2 * big_n + 4) * x + exact)
                assert abs(got[k, tau] - exact / (n - tau)) <= bound / (n - tau)


class TestAmdf:
    def test_zero_lag_is_zero(self):
        rng = np.random.default_rng(9)
        assert amdf(rng.uniform(-1, 1, 50))[0] == 0.0

    def test_exact_periodicity(self):
        assert amdf([1.0, -1.0, 1.0, -1.0])[2] == 0.0

    def test_matches_brute_force_minimum(self):
        frame = sine(200, 8000, 400)
        values = amdf(frame)
        brute = brute_amdf(frame.tolist())
        assert np.allclose(values, brute, atol=1e-9)
        lo, hi = lag_bounds(8000, PitchConfig())
        search = np.array(brute[lo : hi + 1])
        # an exact period zeroes every multiple of itself in range; the
        # smallest lag among the tied minima is the pitch period
        near_min = np.flatnonzero(search <= search.min() + 1e-9 * search.max())
        assert abs(lo + near_min[0] - 40) <= 1

    def test_nonnegative(self):
        rng = np.random.default_rng(12)
        assert np.all(amdf(rng.uniform(-1, 1, 80)) >= 0)


class TestCepstrum:
    def test_zero_frame_finite(self):
        values = cepstrum(np.zeros(240))
        assert np.all(np.isfinite(values))
        assert len(values) == next_pow2(240)

    def test_sawtooth_peak_at_period(self):
        t = np.arange(400) / 8000
        saw = 2 * ((200 * t) % 1.0) - 1
        values = cepstrum(saw)
        lo, hi = lag_bounds(8000, PitchConfig())
        tau = lo + int(np.argmax(values[lo : hi + 1]))
        assert abs(tau - 40) <= 1

    def test_white_noise_fails_voicing(self):
        rng = np.random.default_rng(21)
        frame = rng.normal(0, 0.1, 240)
        assert pitch_frame(frame, 8000, PitchConfig(method=CEPSTRAL)) == 0.0


class TestPitchFrame:
    def test_sine_amdf(self):
        frame = sine(200, 8000, 400)
        got = pitch_frame(frame, 8000, PitchConfig(method=AMDF))
        assert 195.1 <= got <= 205.2

    def test_silent_frame_unvoiced(self):
        for method in METHODS:
            assert pitch_frame(np.zeros(400), 8000, PitchConfig(method=method)) == 0.0

    def test_pulse_train_cross_method_agreement(self):
        # impulses every 133 samples: the period is exactly 133
        frame = np.zeros(480)
        frame[::133] = 0.5
        lags = []
        for method in METHODS:
            hz = pitch_frame(frame, 16000, PitchConfig(method=method))
            assert hz > 0
            lags.append(round(16000 / hz))
        assert all(abs(lag - 133) <= 1 for lag in lags)
        assert max(lags) - min(lags) <= 1

    def test_short_frame_rejected(self):
        with pytest.raises(PreconditionError):
            pitch_frame(np.zeros(100), 8000, PitchConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("method", METHODS)
    def test_non_finite_frame_rejected(self, method, bad):
        frame = sine(200, 8000, 480)
        frame[100] = bad
        with pytest.raises(PreconditionError):
            pitch_frame(frame, 8000, PitchConfig(method=method))

    def test_scaling_leaves_lag_unchanged(self):
        frame = harmonic_tone(150, 8000, 240)
        for method in METHODS:
            cfg = PitchConfig(method=method)
            base = pitch_frame(frame, 8000, cfg)
            assert base > 0
            for c in (0.01, 0.5, 3.0):
                scaled = np.clip(c * frame, -1, 1) if c > 1 else c * frame
                assert pitch_frame(scaled, 8000, cfg) == base


class TestVoicing:
    @pytest.mark.parametrize("method", METHODS)
    def test_noise_is_unvoiced(self, method):
        rng = np.random.default_rng(hash(method) % 2**32)
        cfg = PitchConfig(method=method)
        unvoiced = sum(
            pitch_frame(rng.normal(0, 0.1, 240), 8000, cfg) == 0.0 for _ in range(100)
        )
        assert unvoiced >= 95


class TestShortFrames:
    """134-sample frames at 8 kHz: the longest lag, 133, leaves one pair."""

    @pytest.mark.parametrize(
        "method",
        [
            ACF,
            pytest.param(
                AMDF,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="AMDF voices none of these frames (CHANGES.md FOUND, ROADMAP item 6)",
                ),
            ),
        ],
    )
    def test_tone_voiced_in_every_frame(self, method):
        rng = np.random.default_rng(200)
        samples = harmonic_tone(200, 8000, 4000) + rng.normal(0, 0.01, 4000)
        track = pitch_track(buffer_from(samples), PitchConfig(method=method, frame_len_s=0.01675))
        assert len(track) == 49
        assert np.all(track.pitch_hz == 200.0)


class TestPitchTrack:
    def test_stationary_tone(self):
        buf = buffer_from(sine(150, 8000, 8000))
        track = pitch_track(buf, PitchConfig())
        assert len(track) == 98
        expected = 8000 / round(8000 / 150)
        assert np.all(np.abs(track.pitch_hz - expected) < 3.0)

    def test_silence_all_unvoiced(self):
        buf = buffer_from(np.zeros(8000))
        track = pitch_track(buf, PitchConfig())
        assert np.all(track.pitch_hz == 0.0)

    def test_two_tone_switch(self):
        samples = np.concatenate([sine(120, 8000, 4000), sine(240, 8000, 4000)])
        track = pitch_track(buffer_from(samples), PitchConfig())
        frame_len = 240
        pure_early = track.pitch_hz[track.times + frame_len / 8000 <= 0.5]
        pure_late = track.pitch_hz[track.times >= 0.5]
        assert np.all(np.abs(pure_early - 8000 / round(8000 / 120)) < 3.0)
        assert np.all(np.abs(pure_late - 8000 / round(8000 / 240)) < 4.0)

    # The next two tests round their input to 16-bit PCM as load_wav
    # returns it, so the track's chunked sums equal the per-frame sums
    # exactly; float input is covered by test_float_frames_within_summation_bound.
    def test_matches_per_frame_results(self):
        rng = np.random.default_rng(5)
        samples = pcm16(sine(140, 8000, 16000, amplitude=0.3) + rng.normal(0, 0.02, 16000))
        buf = buffer_from(samples)
        for method in METHODS:
            cfg = PitchConfig(method=method)
            track = pitch_track(buf, cfg)
            per_frame = np.array(
                [
                    pitch_frame(samples[k * 80 : k * 80 + 240], 8000, cfg)
                    for k in range(len(track))
                ]
            )
            assert np.array_equal(track.pitch_hz, per_frame)

    def test_last_block_of_one_frame_matches_per_frame(self):
        # Blocks of 512, 512 and 1 frames at the default 8 kHz geometry. The
        # last block sums its frame in hop-sized chunks, pitch_frame in one.
        block = pitch._BLOCK_SAMPLES // 80
        n_samples = 2 * block * 80 + 240
        rng = np.random.default_rng(12)
        samples = pcm16(harmonic_tone(150, 8000, n_samples) + rng.normal(0, 0.02, n_samples))
        for method in METHODS:
            cfg = PitchConfig(method=method)
            track = pitch_track(buffer_from(samples), cfg)
            assert len(track) == 2 * block + 1
            per_frame = [
                pitch_frame(samples[k * 80 : k * 80 + 240], 8000, cfg) for k in range(len(track))
            ]
            assert np.array_equal(track.pitch_hz, per_frame)
            assert track.pitch_hz[-1] > 0

    # (fs, frame_len_s): the default geometry; a frame of 134 samples, not
    # a multiple of the 80-sample hop, whose longest lag 133 leaves no
    # right AMDF neighbor (hi + 1 == n); and a 16 kHz frame of 400
    # samples against a 160-sample hop.
    @pytest.mark.parametrize("fs, frame_len_s", [(8000, 0.030), (8000, 0.01675), (16000, 0.025)])
    @pytest.mark.parametrize("method", METHODS)
    def test_blocks_match_per_frame_on_float_input(self, monkeypatch, fs, frame_len_s, method):
        cfg = PitchConfig(method=method, frame_len_s=frame_len_s)
        n, hop = round(frame_len_s * fs), round(cfg.hop_s * fs)
        if frame_len_s == 0.01675:
            assert lag_bounds(fs, cfg)[1] + 1 == n
        rng = np.random.default_rng(fs + n)
        tones = np.concatenate([harmonic_tone(130, fs, fs // 4), harmonic_tone(200, fs, fs // 4)])
        samples = pcm16(tones + rng.normal(0, 0.01, len(tones)))
        monkeypatch.setattr(pitch, "_BLOCK_SAMPLES", 7 * hop + 3)
        track = pitch_track(buffer_from(samples, fs), cfg)
        assert len(track) >= 3 * 7
        per_frame = [
            pitch_frame(samples[k * hop : k * hop + n], fs, cfg) for k in range(len(track))
        ]
        assert np.array_equal(track.pitch_hz, per_frame)
        assert np.count_nonzero(track.pitch_hz) > 0

    @pytest.mark.parametrize("fs", [8000, 16000])
    @pytest.mark.parametrize("method", METHODS)
    def test_block_size_does_not_change_track(self, monkeypatch, fs, method):
        rng = np.random.default_rng(9)
        n_samples = 3 * pitch._BLOCK_SAMPLES + 1234
        samples = 0.5 * harmonic_tone(170, fs, n_samples) + rng.normal(0, 0.05, n_samples)
        buf = buffer_from(samples, fs)
        cfg = PitchConfig(method=method)
        default = pitch_track(buf, cfg)
        assert len(default) > 3 * (pitch._BLOCK_SAMPLES // round(cfg.hop_s * fs))  # 4 blocks
        monkeypatch.setattr(pitch, "_BLOCK_SAMPLES", 1000)
        assert np.array_equal(pitch_track(buf, cfg).pitch_hz, default.pitch_hz)
        assert np.count_nonzero(default.pitch_hz) > 0

    def test_too_short_buffer(self):
        with pytest.raises(PreconditionError):
            pitch_track(buffer_from(np.zeros(100)), PitchConfig())

    def test_frame_shorter_than_longest_lag(self):
        # 0.01668 s rounds to 133 samples at 8 kHz; the longest lag at 60 Hz is 133.
        cfg = PitchConfig(frame_len_s=0.01668)
        with pytest.raises(PreconditionError, match="longest search lag"):
            pitch_track(buffer_from(sine(150, 8000, 8000)), cfg)

    def test_nonzero_pitch_in_band(self, two_speaker_buffer):
        buf, _ = two_speaker_buffer
        cfg = PitchConfig()
        track = pitch_track(buf, cfg)
        voiced = track.pitch_hz[track.pitch_hz > 0]
        assert len(voiced) > 0
        assert np.all((voiced >= cfg.min_hz) & (voiced <= cfg.max_hz))

    def test_tsv_export(self, tmp_path):
        buf = buffer_from(sine(150, 8000, 4000))
        track = pitch_track(buf, PitchConfig())
        out = tmp_path / "track.tsv"
        with open(out, "w") as fp:
            write_track_tsv(track, fp)
        lines = out.read_text().splitlines()
        assert lines[0] == "time_s\tpitch_hz"
        assert len(lines) == len(track) + 1


def write_pcm16_wav(path, channels, fs):
    """Write channels (equal-length float arrays) as an interleaved 16-bit PCM WAV."""
    ints = np.clip(np.rint(np.stack(channels, axis=1) * 32768), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fp:
        fp.setnchannels(len(channels))
        fp.setsampwidth(2)
        fp.setframerate(fs)
        fp.writeframes(ints.tobytes())


class TestPcm16BitIdentity:
    """On anything load_wav returns, the chunk-sum kernel reproduces the per-frame np.sum kernel bit for bit."""

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("fs", [8000, 16000])
    @pytest.mark.parametrize("method", [AMDF, ACF])
    def test_track_equals_per_frame_sum_kernel(self, tmp_path, monkeypatch, method, fs, channels):
        rng = np.random.default_rng(fs + channels)
        n = 7 * fs // 4
        tones = np.concatenate([harmonic_tone(130, fs, n), harmonic_tone(200, fs, n)])
        left = tones + rng.normal(0, 0.02, 2 * n)
        right = 0.6 * tones + rng.normal(0, 0.05, 2 * n)
        path = tmp_path / "x.wav"
        write_pcm16_wav(path, [left, right][:channels], fs)
        buf = load_wav(path)
        cfg = PitchConfig(method=method)
        monkeypatch.setattr(pitch, "_BLOCK_SAMPLES", 8000)
        assert len(buf.samples) >= 3 * 8000
        kernel, blocks = pitch._lag_sums, []

        def checked_lag_sums(*args):
            got = kernel(*args)
            assert np.array_equal(got, per_frame_lag_sums(*args))  # every sum, not only the pitch
            blocks.append(args[3])
            return got

        monkeypatch.setattr(pitch, "_lag_sums", checked_lag_sums)
        default = pitch_track(buf, cfg)
        assert len(blocks) >= 3 and sum(blocks) == len(default)
        monkeypatch.setattr(pitch, "_lag_sums", per_frame_lag_sums)
        reference = pitch_track(buf, cfg)
        assert np.array_equal(default.pitch_hz, reference.pitch_hz)
        assert np.count_nonzero(reference.pitch_hz) > 0


class TestAmdfExactAtFullScale:
    """Every normalised AMDF value, not only the chosen lag, equals the
    direct per-frame sum(|a - b|) / (n - tau) bit for bit on full-scale
    PCM16 input: square waves alternating -1 and 32767/32768, whose
    uneven duty cycles also drive the block's running sum far from zero."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Checks every _amdf_rows call against the direct sums; collects each call's m."""
        kernel, calls = pitch._amdf_rows, []

        def checked_amdf_rows(seg, n, hop, m, lags, work=None):
            got = kernel(seg, n, hop, m, lags, work)
            direct = per_frame_lag_sums(seg, n, hop, m, lags, abs_diff) / (n - lags)
            assert np.array_equal(got, direct)
            calls.append(m)
            return got

        monkeypatch.setattr(pitch, "_amdf_rows", checked_amdf_rows)
        return calls

    @staticmethod
    def squares(tmp_path, fs, channels, n_samples):
        t = np.arange(n_samples) / fs
        waves = [np.where(t * f0 % 1 < duty, 1.0, -1.0) for f0, duty in [(130, 0.7), (207, 0.4)]]
        path = tmp_path / "square.wav"
        write_pcm16_wav(path, waves[:channels], fs)
        buf = load_wav(path)
        assert buf.samples.max() == 32767 / 32768 and buf.samples.min() == -1.0
        return buf

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("fs", [8000, 16000])
    def test_multi_block_track(self, tmp_path, calls, fs, channels):
        buf = self.squares(tmp_path, fs, channels, 2 * pitch._BLOCK_SAMPLES + fs // 2)
        track = pitch_track(buf, PitchConfig(method=AMDF))
        assert len(calls) >= 3 and sum(calls) == len(track)
        assert np.count_nonzero(track.pitch_hz) > 0

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("fs", [8000, 16000])
    def test_pitch_frame(self, tmp_path, calls, fs, channels):
        buf = self.squares(tmp_path, fs, channels, fs // 4)
        n = round(PitchConfig().frame_len_s * fs)
        for start in range(0, len(buf.samples) - n, 97):
            pitch_frame(buf.samples[start : start + n], fs, PitchConfig(method=AMDF))
        assert calls and set(calls) == {1}

    @pytest.mark.parametrize("channels", [1, 2])
    def test_frame_whose_longest_lag_leaves_no_right_neighbor(self, tmp_path, calls, channels):
        cfg = PitchConfig(method=AMDF, frame_len_s=0.01675)
        assert lag_bounds(8000, cfg)[1] + 1 == 134  # hi + 1 == n
        buf = self.squares(tmp_path, 8000, channels, 2 * pitch._BLOCK_SAMPLES + 4000)
        track = pitch_track(buf, cfg)
        assert len(calls) >= 3 and sum(calls) == len(track)


class TestPcmBackedBuffer:
    """A buffer that load_wav keeps as PCM16 integers gives every output
    bit for bit the same as a float64 buffer of its samples."""

    @pytest.mark.parametrize("fs, channels", [(8000, 1), (16000, 1), (8000, 2)])
    def test_outputs_match_float_buffer(self, tmp_path, monkeypatch, fs, channels):
        spec = SynthSpec(
            n_speakers=3, duration_s=5.0, sample_rate_hz=fs, noise_level=0.02, seed=fs + channels
        )
        left = synth_speakers(spec)[0].samples
        right = np.clip(0.6 * left + np.random.default_rng(channels).normal(0, 0.05, len(left)), -1, 1)
        path = tmp_path / "x.wav"
        write_pcm16_wav(path, [left, right][:channels], fs)
        pcm = load_wav(path)
        assert pcm._data.dtype.kind == "i"  # held as integers, converted per block
        floats = AudioBuffer(pcm.samples, fs)
        # The detectors hardly depend on scale, so compare the samples each
        # block reads too, not only the track.
        kernel, spans = pitch._pitch_block, []

        def recorded_block(seg, *args):
            spans.append(seg.copy())  # seg is a view of a buffer the next block reuses
            return kernel(seg, *args)

        monkeypatch.setattr(pitch, "_pitch_block", recorded_block)
        tracks = [[pitch_track(buf, PitchConfig(method=m)).pitch_hz for m in METHODS]
                  for buf in (pcm, floats)]
        assert all(np.array_equal(got, want) for got, want in zip(*tracks))
        half = len(spans) // 2
        assert half > 3 and all(np.array_equal(a, b) for a, b in zip(spans[:half], spans[half:]))
        for rows in (slice(None), slice(37, 1290)):
            assert np.array_equal(mfcc(pcm, rows=rows).vectors, mfcc(floats, rows=rows).vectors)
        for name in SEG_METHODS:
            run = build_method(name, RunConfig())
            got, want = run(pcm).change_points.times, run(floats).change_points.times
            assert len(want) > 0 and np.array_equal(got, want), name


class TestFloat32Rule:
    """The AMDF runs in float32 exactly where every chunk sum is exact there:
    integer amplitudes on a power-of-two grid with hop * divisor <= 2**24."""

    @staticmethod
    def kernel_dtypes(monkeypatch, buf, cfg):
        """The dtypes of every block's samples and every _lag_sums call of the track."""
        block, lag_sums, seen = pitch._pitch_block, pitch._lag_sums, set()

        def recorded_block(seg, *args):
            seen.add(("block", seg.dtype))
            return block(seg, *args)

        def recorded_lag_sums(seg, n, hop, m, lags, pair, work=None):
            assert work is not None and work.dtype == seg.dtype and np.all(np.isfinite(work))
            seen.add(("lag_sums", seg.dtype))
            return lag_sums(seg, n, hop, m, lags, pair, work)

        monkeypatch.setattr(pitch, "_pitch_block", recorded_block)
        monkeypatch.setattr(pitch, "_lag_sums", recorded_lag_sums)
        pitch_track(buf, cfg)
        return seen

    # (channels, hop in samples at 8 kHz, float32?): each grid at its edge.
    @pytest.mark.parametrize(
        "channels, hop, single",
        [(1, 80, True), (1, 512, True), (1, 513, False), (2, 256, True), (2, 257, False),
         (3, 80, False)],
    )
    def test_pcm16_amdf_dtype(self, tmp_path, monkeypatch, channels, hop, single):
        buf = TestAmdfExactAtFullScale.squares(tmp_path, 8000, min(channels, 2), 3 * 8000)
        if channels == 3:  # divisor 3 * 32768 is not a power of two
            path = tmp_path / "three.wav"
            samples = buf.samples
            write_pcm16_wav(path, [samples, 0.5 * samples, -samples], 8000)
            buf = load_wav(path)
        cfg = PitchConfig(method=AMDF, hop_s=hop / 8000)
        seen = self.kernel_dtypes(monkeypatch, buf, cfg)
        want = np.dtype(np.float32 if single else np.float64)
        assert seen == {("block", want), ("lag_sums", want)}

    @pytest.mark.parametrize("method", [ACF, CEPSTRAL])
    def test_other_detectors_stay_float64(self, tmp_path, monkeypatch, method):
        buf = TestAmdfExactAtFullScale.squares(tmp_path, 8000, 1, 8000)
        seen = self.kernel_dtypes(monkeypatch, buf, PitchConfig(method=method))
        f64 = np.dtype(np.float64)
        assert seen == ({("block", f64), ("lag_sums", f64)} if method == ACF else {("block", f64)})

    def test_float_input_stays_float64(self, monkeypatch):
        samples = pcm16(harmonic_tone(150, 8000, 8000))  # on the PCM16 grid, but float
        seen = self.kernel_dtypes(monkeypatch, buffer_from(samples), PitchConfig(method=AMDF))
        assert seen == {("block", np.dtype(np.float64)), ("lag_sums", np.dtype(np.float64))}

    @pytest.mark.parametrize("channels", [1, 2])
    def test_full_scale_at_largest_hop_equals_float64_oracle(self, tmp_path, monkeypatch, channels):
        # 100 ms frames at the largest float32 hop: every whole chunk sums
        # 512 / channels full-scale maxima, up to 2**24 grid steps.
        buf = TestAmdfExactAtFullScale.squares(tmp_path, 8000, channels, 4 * pitch._BLOCK_SAMPLES)
        hop = 512 // channels
        cfg = PitchConfig(method=AMDF, frame_len_s=0.1, hop_s=hop / 8000)
        kernel, calls = pitch._amdf_rows, []

        def checked_amdf_rows(seg, n, hop, m, lags, work=None):
            assert (seg.dtype, hop * channels) == (np.float32, 512) and n > hop
            got = kernel(seg, n, hop, m, lags, work)
            direct = per_frame_lag_sums(seg, n, hop, m, lags, abs_diff)
            assert direct.dtype == np.float64
            assert np.array_equal(got, direct / (n - lags))
            calls.append(m)
            return got

        monkeypatch.setattr(pitch, "_amdf_rows", checked_amdf_rows)
        track = pitch_track(buf, cfg)
        assert len(calls) >= 2 and sum(calls) == len(track)
        assert np.count_nonzero(track.pitch_hz) > 0

    def test_one_more_sample_per_chunk_rounds_in_float32(self):
        # The rule's edge is tight: 513 maxima of 32767 / 32768 sum to
        # 513 * 32767 steps, an odd number above 2**24 that float32 rounds.
        top = 32767 / 32768
        for hop, exact in ((512, True), (513, False)):
            seg = np.full(hop, top, dtype=np.float32)
            got = pitch._lag_sums(seg, hop, hop, 1, np.arange(1), np.maximum)[0, 0]
            assert (got == hop * top) == exact


class TestSineAccuracy:
    """Pure-sine lag accuracy for the time-domain detectors.

    Uses 80 ms frames: the truncated-sum correlation biases the peak a
    few lags early at low fundamentals when the frame holds under ~5
    periods. The quefrency detector is excluded: a lone spectral line
    has no harmonic spacing for it to measure (see the harmonic-tone
    grid in the acceptance suite for the three-way comparison).
    """

    @pytest.mark.parametrize("fs", [8000, 16000])
    @pytest.mark.parametrize("freq", [80, 120, 150, 200, 300])
    def test_acf_amdf_on_sines(self, fs, freq):
        n = int(0.080 * fs)
        cfg_kwargs = {"frame_len_s": 0.080}
        expected = fs / round(fs / freq)
        for method in (ACF, AMDF):
            for phase in (0.0, 1.1, 2.3):
                frame = sine(freq, fs, n, phase=phase)
                hz = pitch_frame(frame, fs, PitchConfig(method=method, **cfg_kwargs))
                assert hz > 0
                assert abs(round(fs / hz) - round(fs / expected)) <= 1

    @given(freq=st.floats(min_value=80, max_value=350), phase=st.floats(0, 6.28))
    @settings(max_examples=25, deadline=None)
    def test_amdf_sine_property(self, freq, phase):
        fs = 8000
        frame = sine(freq, fs, int(0.080 * fs), phase=phase)
        hz = pitch_frame(frame, fs, PitchConfig(method=AMDF, frame_len_s=0.080))
        assert hz > 0
        assert abs(round(fs / hz) - round(fs / freq)) <= 1


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ValueError):
            PitchConfig(method="lpc")

    def test_band_ordering(self):
        with pytest.raises(ValueError):
            PitchConfig(min_hz=400, max_hz=60)

    def test_max_hz_must_be_finite(self):
        with pytest.raises(ValueError, match="max_hz"):
            PitchConfig(max_hz=math.inf)

    def test_zero_rate_has_no_lags(self):
        with pytest.raises(PreconditionError, match="empty lag range"):
            pitch_frame(sine(200.0, 8000, 240), 0)

    def test_frame_must_hold_longest_lag(self):
        # The config cannot check this without a rate; the detector checks it in samples.
        cfg = PitchConfig(frame_len_s=0.010, min_hz=60)
        with pytest.raises(PreconditionError, match="80 samples .* lag 133"):
            pitch_track(buffer_from(sine(150, 8000, 8000)), cfg)

    @pytest.mark.parametrize("fs, n, lag", [(8000, 107, 106), (16000, 213, 213)])
    def test_frame_lag_rule_is_per_rate(self, fs, n, lag):
        # 0.01332 s is 107 samples at 8 kHz and 213 at 16 kHz; the 75 Hz lag is 106 and 213.
        cfg = PitchConfig(frame_len_s=0.01332, min_hz=75)
        buf = buffer_from(sine(150, fs, fs), fs)
        if n > lag:
            assert np.count_nonzero(pitch_track(buf, cfg).pitch_hz) > 0
        else:
            with pytest.raises(PreconditionError, match=f"{n} samples .* lag {lag}"):
                pitch_track(buf, cfg)

    def test_voicing_threshold_range(self):
        with pytest.raises(ValueError, match="voicing_threshold"):
            PitchConfig(voicing_threshold=1.5)

    def test_track_validation(self):
        with pytest.raises(ValueError, match="parallel"):
            PitchTrack(times=[0.0, 0.01], pitch_hz=[100.0])
        with pytest.raises(ValueError, match="increasing"):
            PitchTrack(times=[0.0, 0.0], pitch_hz=[100.0, 100.0])

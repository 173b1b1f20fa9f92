import numpy as np
import pytest

from speakerseg.synth import DEFAULT_F0_LADDER, SynthSpec, synth_speakers, synth_to_files


class TestSpec:
    def test_defaults(self):
        spec = SynthSpec()
        assert spec.fundamentals() == [110.0, 220.0]
        assert spec.durations() == [5.0, 5.0]

    def test_ladder_cycles(self):
        spec = SynthSpec(n_speakers=8)
        assert spec.fundamentals()[:6] == list(DEFAULT_F0_LADDER)
        assert spec.fundamentals()[6] == DEFAULT_F0_LADDER[0]

    def test_per_speaker_durations(self):
        spec = SynthSpec(n_speakers=3, duration_s=(1.0, 2.0, 3.0))
        assert spec.durations() == [1.0, 2.0, 3.0]

    def test_duration_count_mismatch(self):
        with pytest.raises(ValueError):
            SynthSpec(n_speakers=3, duration_s=(1.0, 2.0)).durations()

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(n_speakers=0)
        with pytest.raises(ValueError):
            SynthSpec(noise_level=-0.1)

    @pytest.mark.parametrize("rate", [0, -8000, 8000.5, 8000.0])
    def test_rate_must_be_positive_integer(self, rate):
        with pytest.raises(ValueError, match="sample_rate_hz"):
            SynthSpec(sample_rate_hz=rate)

    def test_numpy_integer_rate_accepted(self):
        buffer, _ = synth_speakers(SynthSpec(duration_s=0.01, sample_rate_hz=np.int64(8000)))
        assert buffer.sample_rate_hz == 8000

    @pytest.mark.parametrize(
        "f0, rate",
        [
            (-3000.0, 8000),
            (0.0, 8000),
            (3600.0, 8000),
            (4000.0, 8000),
            (7200.0, 16000),
            (float("nan"), 8000),
            (float("inf"), 8000),
        ],
    )
    def test_fundamental_must_lie_below_the_band_edge(self, f0, rate):
        # 0.45 * 8000 = 3600 Hz: a first harmonic there or above is not
        # rendered, and a negative one aliases.
        with pytest.raises(ValueError, match="f0_hz"):
            SynthSpec(f0_hz=(f0, 220.0), sample_rate_hz=rate)

    def test_fundamental_just_below_the_band_edge_accepted(self):
        buffer, _ = synth_speakers(
            SynthSpec(n_speakers=1, duration_s=0.1, f0_hz=(3599.0,), noise_level=0.0)
        )
        assert np.sqrt(np.mean(buffer.samples**2)) > 0.1

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            SynthSpec(seed=-1)


class TestGeneration:
    def test_boundaries_at_concatenation(self):
        buffer, truth = synth_speakers(SynthSpec(n_speakers=3, duration_s=2.0, seed=1))
        assert truth.times.tolist() == [2.0, 4.0]
        assert buffer.duration_s == pytest.approx(6.0)

    def test_uneven_durations(self):
        _, truth = synth_speakers(
            SynthSpec(n_speakers=3, duration_s=(1.0, 2.5, 2.0), seed=1)
        )
        assert truth.times.tolist() == [1.0, 3.5]

    def test_samples_in_range(self):
        buffer, _ = synth_speakers(SynthSpec(n_speakers=4, duration_s=1.0, seed=2))
        assert np.max(np.abs(buffer.samples)) <= 1.0

    def test_deterministic_given_seed(self):
        a, _ = synth_speakers(SynthSpec(seed=42))
        b, _ = synth_speakers(SynthSpec(seed=42))
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_signal(self):
        a, _ = synth_speakers(SynthSpec(seed=1))
        b, _ = synth_speakers(SynthSpec(seed=2))
        assert not np.array_equal(a.samples, b.samples)

    def test_harmonics_stop_below_the_band_edge(self):
        # At 2 kHz only harmonics under 0.45 fs = 900 Hz are added: 280, 560 and 840 Hz.
        spec = SynthSpec(n_speakers=1, f0_hz=(280.0,), sample_rate_hz=2000, noise_level=0.0)
        buffer, _ = synth_speakers(spec)
        spectrum = np.abs(np.fft.rfft(buffer.samples))
        freqs = np.fft.rfftfreq(len(buffer), 1 / spec.sample_rate_hz)
        assert freqs[spectrum > 1e-6 * spectrum.max()].tolist() == [280.0, 560.0, 840.0]

    def test_distinct_adjacent_fundamentals(self):
        fundamentals = SynthSpec(n_speakers=6).fundamentals()
        for a, b in zip(fundamentals, fundamentals[1:]):
            assert abs(a - b) / min(a, b) > 0.25


class TestFiles:
    def test_write_wav_and_truth(self, tmp_path):
        wav = tmp_path / "s.wav"
        ref = tmp_path / "s.txt"
        buffer, truth = synth_to_files(SynthSpec(n_speakers=2, duration_s=5.0, seed=42), wav, ref)
        assert ref.read_text() == "5.000\n"
        assert wav.stat().st_size > 0

    def test_byte_identical_across_runs(self, tmp_path):
        spec = SynthSpec(n_speakers=2, duration_s=1.0, seed=7)
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        synth_to_files(spec, a, tmp_path / "a.txt")
        synth_to_files(spec, b, tmp_path / "b.txt")
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_through_loader(self, tmp_path):
        from speakerseg.audio_io import load_wav

        wav = tmp_path / "s.wav"
        buffer, _ = synth_to_files(SynthSpec(seed=3), wav, tmp_path / "s.txt")
        back = load_wav(wav)
        assert back.sample_rate_hz == buffer.sample_rate_hz
        assert np.max(np.abs(back.samples - buffer.samples)) <= 0.5 / 32768

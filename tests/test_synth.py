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

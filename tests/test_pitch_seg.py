import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speakerseg import pitch_seg
from speakerseg.audio_io import AudioBuffer
from speakerseg.bic import verify_change
from speakerseg.errors import PreconditionError
from speakerseg.features import mfcc
from speakerseg.pitch import PitchConfig, PitchTrack, pitch_track
from speakerseg.pitch_seg import (
    PitchSegConfig,
    candidates,
    gamma_correct,
    pitch_diff,
    segment,
    segments_between,
)
from speakerseg.synth import SynthSpec, synth_speakers

from conftest import buffer_from


def track_of(values, hop_s=0.01):
    times = np.arange(len(values)) * hop_s
    return PitchTrack(times=times, pitch_hz=np.asarray(values, dtype=np.float64))


def glide_buffer(f_a=150.0, f_b=156.0, fs=8000, dur=5.0, noise=0.01, seed=5):
    """Same spectral envelope on both sides, small fundamental step."""
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.2, 1.0, 8)
    pieces = []
    for f in (f_a, f_b):
        n = int(dur * fs)
        t = np.arange(n) / fs
        sig = np.zeros(n)
        for h, a in enumerate(amps):
            if f * (h + 1) < 0.45 * fs:
                sig += a * np.sin(2 * np.pi * f * (h + 1) * t)
        sig = 0.35 * sig / np.max(np.abs(sig))
        pieces.append(sig + rng.normal(0, noise, n))
    return AudioBuffer(np.clip(np.concatenate(pieces), -1, 1), fs)


def raw_candidates(buffer, cfg):
    """The candidate times segment() verifies, before any is rejected."""
    track = pitch_track(buffer, cfg.pitch)
    corrected = gamma_correct(pitch_diff(track), cfg.gamma)
    return candidates(corrected, track.times, cfg.threshold_coef, cfg.min_gap_s)


class TestPitchDiff:
    def test_basic(self):
        assert pitch_diff(track_of([100, 100, 150])).tolist() == [0.0, 50.0]

    def test_constant(self):
        assert np.all(pitch_diff(track_of([220] * 10)) == 0.0)

    def test_unvoiced_gating(self):
        assert pitch_diff(track_of([120, 0, 200])).tolist() == [0.0, 0.0]

    def test_too_short(self):
        with pytest.raises(PreconditionError):
            pitch_diff(track_of([100]))


class TestGammaCorrect:
    def test_all_zero_stays_zero(self):
        assert np.all(gamma_correct(np.zeros(5), 0.3) == 0.0)

    def test_maximum_is_fixed_point(self):
        out = gamma_correct([1.0, 2.0, 4.0], 0.3)
        assert out[-1] == 1.0
        out = gamma_correct([1.0, 2.0, 4.0], 0.9)
        assert out[-1] == 1.0

    def test_half_power_value(self):
        out = gamma_correct([0.5, 1.0], 0.3)
        assert out[0] == pytest.approx(0.8122523963562356, abs=1e-12)

    def test_identity_when_gamma_one(self):
        values = np.array([0.2, 0.8, 1.0, 0.0])
        assert np.allclose(gamma_correct(values, 1.0), values, atol=1e-12)

    @given(
        values=st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=30),
        gamma=st.floats(min_value=0.1, max_value=0.99),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_and_lifting_below_one(self, values, gamma):
        values = np.asarray(values)
        out = gamma_correct(values, gamma)
        order = np.argsort(values, kind="stable")
        assert np.all(np.diff(out[order]) >= -1e-12)
        if values.max() > 0:
            normalized = values / values.max()
            assert np.all(out >= normalized - 1e-12)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            gamma_correct([1.0], 0.0)
        with pytest.raises(ValueError):
            gamma_correct([1.0], -1.0)


def reference_candidates(corrected, times, threshold_coef, min_gap_s):
    """candidates() written out in plain Python: a loop over every entry
    finds the runs, and the thinning compares each pick with every kept one."""
    threshold = threshold_coef * max(corrected)
    picks = []  # (value, midpoint time) per run
    run_start = None
    for i, flag in enumerate([c > threshold for c in corrected] + [False]):
        if flag and run_start is None:
            run_start = i
        elif not flag and run_start is not None:
            run = corrected[run_start:i]
            j = run_start + run.index(max(run))
            picks.append((corrected[j], 0.5 * (times[j] + times[j + 1])))
            run_start = None
    kept = []
    for value, t in sorted(picks, key=lambda p: (-p[0], p[1])):
        if all(abs(t - t0) >= min_gap_s for _, t0 in kept):
            kept.append((value, t))
    return sorted(t for _, t in kept)


class TestCandidates:
    # Values come from a few levels, so runs and picks tie; frame steps
    # and gaps are multiples of 1/8 s, so midpoints and their distances
    # are exact and picks sit exactly min_gap_s apart.
    @given(
        corrected=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=40),
        steps=st.lists(st.sampled_from([0.125, 0.25]), min_size=41, max_size=41),
        threshold_coef=st.sampled_from([0.25, 0.5, 0.7, 1.0]),
        min_gap_s=st.sampled_from([0.0, 0.125, 0.25, 0.5]),
    )
    # Runs at the first and the last index, and picks exactly min_gap_s apart.
    @example([1.0, 0.0, 0.75, 0.0, 1.0], [0.125] * 41, 0.5, 0.5)
    @example([1.0, 1.0, 0.0, 1.0, 1.0], [0.125] * 41, 0.7, 0.375)
    @settings(max_examples=300, deadline=None)
    def test_matches_plain_python_reference(self, corrected, steps, threshold_coef, min_gap_s):
        times = np.cumsum([0.0] + steps[: len(corrected)])
        got = candidates(corrected, times, threshold_coef, min_gap_s)
        assert got == reference_candidates(corrected, times.tolist(), threshold_coef, min_gap_s)

    def test_constant_sequence_empty_at_max_threshold(self):
        # threshold equals the maximum, and the comparison is strict
        times = np.arange(6) * 0.01
        assert candidates(np.ones(5), times, 1.0, 0.5) == []

    def test_constant_sequence_collapses_to_one_run(self):
        times = np.arange(6) * 0.01
        got = candidates(np.ones(5), times, 0.7, 0.5)
        assert got == [pytest.approx(0.005)]

    def test_single_spike(self):
        times = np.arange(6) * 0.01
        got = candidates([0.0, 0.0, 1.0, 0.0, 0.0], times, 0.7, 0.5)
        assert got == [pytest.approx(0.025)]

    def test_min_gap_keeps_stronger(self):
        hop = 0.1
        times = np.arange(8) * hop
        corrected = np.zeros(7)
        corrected[1] = 0.9
        corrected[4] = 1.0  # 0.3 s later
        got = candidates(corrected, times, 0.7, min_gap_s=0.5)
        assert len(got) == 1
        assert got[0] == pytest.approx(0.45)

    def test_run_collapses_to_maximum(self):
        times = np.arange(8) * 0.01
        corrected = np.array([0.0, 0.8, 0.95, 0.9, 0.0, 0.0, 0.0])
        got = candidates(corrected, times, 0.7, 0.5)
        assert got == [pytest.approx(0.025)]

    def test_scaling_invariance_through_pipeline(self):
        rng = np.random.default_rng(10)
        diff = rng.uniform(0, 30, 200)
        times = np.arange(201) * 0.01
        base = candidates(gamma_correct(diff, 0.3), times, 0.7, 0.5)
        scaled = candidates(gamma_correct(7.5 * diff, 0.3), times, 0.7, 0.5)
        assert base == scaled


class TestSegment:
    def test_single_speaker_no_changes(self, single_speaker_buffer):
        result = segment(single_speaker_buffer, PitchSegConfig())
        assert len(result.change_points) == 0
        assert result.segments == [(0.0, single_speaker_buffer.duration_s)]

    def test_two_speakers_one_change(self, two_speaker_buffer):
        buffer, truth = two_speaker_buffer
        result = segment(buffer, PitchSegConfig())
        assert len(result.change_points) == 1
        assert abs(result.change_points.times[0] - truth.times[0]) <= 0.3
        assert result.candidates_examined >= 1
        assert result.candidates_rejected == result.candidates_examined - 1

    def test_same_envelope_glide_is_rejected(self):
        result = segment(glide_buffer(), PitchSegConfig())
        assert result.candidates_examined >= 1
        assert result.candidates_rejected == result.candidates_examined
        assert len(result.change_points) == 0

    def test_segments_tile_duration(self, two_speaker_buffer):
        buffer, _ = two_speaker_buffer
        result = segment(buffer, PitchSegConfig())
        segs = result.segments
        assert segs[0][0] == 0.0
        assert segs[-1][1] == buffer.duration_s
        for (a, b), (c, _) in zip(segs, segs[1:]):
            assert b == c

    def test_counters_consistent(self, two_speaker_buffer):
        buffer, _ = two_speaker_buffer
        result = segment(buffer, PitchSegConfig())
        assert result.candidates_rejected <= result.candidates_examined
        assert len(result.change_points) == (
            result.candidates_examined - result.candidates_rejected
        )
        assert result.wall_time_s > 0

    def test_unverified_is_superset(self, two_speaker_buffer):
        buffer, _ = two_speaker_buffer
        cfg = PitchSegConfig()
        verified = segment(buffer, cfg)
        assert set(verified.change_points.times) <= set(raw_candidates(buffer, cfg))

    def test_too_short_buffer(self):
        with pytest.raises(PreconditionError):
            segment(buffer_from(np.zeros(800)), PitchSegConfig())

    @pytest.mark.parametrize("method", ["amdf", "acf"])
    def test_verify_windows_match_full_recording_features(self, monkeypatch, method):
        buffer, _ = synth_speakers(
            SynthSpec(n_speakers=4, duration_s=4.0, noise_level=0.08, seed=3)
        )
        cfg = PitchSegConfig(pitch=PitchConfig(method=method))
        scores = []

        def recording_verify(features, t, *args):
            ok, score = verify_change(features, t, *args)
            scores.append(score)
            return ok, score

        monkeypatch.setattr(pitch_seg, "verify_change", recording_verify)
        result = segment(buffer, cfg)
        cand = raw_candidates(buffer, cfg)
        whole = mfcc(buffer, cfg.mfcc)
        expected = [
            verify_change(whole, t, cfg.verify_window_s, cfg.bic.lam, cfg.bic.reg_epsilon)
            for t in cand
        ]
        assert 0 < result.candidates_rejected < len(cand)
        assert scores == [score for _, score in expected]
        accepted = [t for t, (ok, _) in zip(cand, expected) if ok]
        assert result.change_points.times.tolist() == accepted
        assert result.candidates_rejected == len(cand) - len(accepted)

    def test_result_serializes(self, two_speaker_buffer):
        buffer, _ = two_speaker_buffer
        payload = segment(buffer, PitchSegConfig()).to_dict()
        assert set(payload) == {
            "change_points_s",
            "segments",
            "candidates_examined",
            "candidates_rejected",
            "wall_time_s",
        }


class TestSegmentsBetween:
    def test_empty_points(self):
        from speakerseg.evaluation import ChangePointSet

        assert segments_between(ChangePointSet(np.array([])), 4.0) == [(0.0, 4.0)]

    def test_two_points(self):
        from speakerseg.evaluation import ChangePointSet

        got = segments_between(ChangePointSet(np.array([1.0, 2.5])), 4.0)
        assert got == [(0.0, 1.0), (1.0, 2.5), (2.5, 4.0)]


class TestConfigValidation:
    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            PitchSegConfig(threshold_coef=0.0)
        with pytest.raises(ValueError):
            PitchSegConfig(threshold_coef=1.5)

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            PitchSegConfig(gamma=0.0)

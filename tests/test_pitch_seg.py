import numpy as np
import pytest
from hypothesis import event, example, given, reject, settings
from hypothesis import strategies as st

from speakerseg import pitch_seg
from speakerseg.audio_io import AudioBuffer, load_wav
from speakerseg.bic import verify_change
from speakerseg.errors import PreconditionError
from speakerseg.evaluation import ChangePointSet
from speakerseg.features import mfcc
from speakerseg.pitch import PitchConfig, PitchTrack, pitch_track
from speakerseg.pitch_seg import (
    PitchSegConfig,
    RunConfig,
    SegmentationResult,
    build_method,
    candidates,
    pitch_diff,
    segment,
)
from speakerseg.synth import SynthSpec, synth_speakers, synth_to_files

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
    return passed_on(pitch_track(buffer, cfg.pitch), cfg)


def passed_on(track, cfg):
    """The candidate list segment() builds when the pitch track is `track`.

    pitch_track and candidates are replaced for the call; the recorded
    list is not verified, so the audio is only a placeholder.
    """
    lists = []

    def recording_candidates(*args):
        lists.append(candidates(*args))
        return []

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pitch_seg, "pitch_track", lambda buffer, pitch_cfg: track)
        mp.setattr(pitch_seg, "candidates", recording_candidates)
        segment(buffer_from(np.zeros(8000)), cfg)
    assert len(lists) == 1
    return lists[0]


def gamma_correct(diff, gamma):
    """The paper's gamma correction: normalize by the maximum, then map x
    to x**gamma. Thresholding its output at threshold_coef is the
    reference for segment()'s one threshold on the raw jumps."""
    diff = np.asarray(diff, dtype=np.float64)
    peak = diff.max(initial=0.0)
    if peak <= 0.0:
        return np.zeros_like(diff)
    return (diff / peak) ** gamma


def spikes_track(heights, hop_s=0.01):
    """A pitch track whose jumps are `heights`, each between two zero jumps."""
    steps = np.column_stack([heights, np.zeros(len(heights))]).ravel()
    levels = 100.0 + np.cumsum(np.r_[0.0, steps])
    return track_of(levels, hop_s)


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
    """What the gamma key does to the candidates segment() passes on."""

    def test_all_zero_stays_zero(self):
        assert passed_on(track_of([220.0] * 10), PitchSegConfig()) == []
        assert passed_on(track_of([0.0, 220.0, 0.0, 180.0]), PitchSegConfig()) == []

    def test_maximum_is_fixed_point(self):
        track = track_of([100.0, 100.0, 200.0, 200.0, 190.0, 190.0])
        for gamma in (0.3, 0.9, 1.0, 3.0):
            got = passed_on(track, PitchSegConfig(gamma=gamma, min_gap_s=0.0))
            assert pytest.approx(0.015) in got

    def test_half_power_value(self):
        # 0.5 ** 0.3 = 0.81225...: a jump of half the maximum passes the
        # corrected threshold 0.81 and not 0.82.
        track = spikes_track([50.0, 100.0], hop_s=1.0)
        assert len(passed_on(track, PitchSegConfig(threshold_coef=0.81, gamma=0.3))) == 2
        assert len(passed_on(track, PitchSegConfig(threshold_coef=0.82, gamma=0.3))) == 1

    def test_identity_when_gamma_one(self):
        rng = np.random.default_rng(3)
        track = track_of(rng.uniform(80.0, 300.0, 200))
        cfg = PitchSegConfig(gamma=1.0)
        expected = candidates(pitch_diff(track), track.times, cfg.threshold_coef, cfg.min_gap_s)
        assert passed_on(track, cfg) == expected

    @given(
        heights=st.lists(st.floats(min_value=0.5, max_value=100), min_size=2, max_size=30),
        gamma=st.floats(min_value=0.1, max_value=0.99),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_and_lifting_below_one(self, heights, gamma):
        track = spikes_track(heights)
        times = passed_on(track, PitchSegConfig(gamma=gamma, min_gap_s=0.0))
        linear = passed_on(track, PitchSegConfig(gamma=1.0, min_gap_s=0.0))
        assert set(linear) <= set(times)
        # Spike k's jump sits between frames 2k and 2k + 1.
        jumps = pitch_diff(track)[::2]
        kept = {int(round(t / 0.01 - 0.5)) // 2 for t in times}
        lowest = min(jumps[k] for k in kept)
        assert kept == {k for k, h in enumerate(jumps) if h >= lowest}

    def test_rejects_bad_params(self):
        # 0.7 ** (1 / gamma) is 0.0 at the small values and 1.0 at the
        # large ones, where the one threshold no longer equals the paper's.
        for gamma in (1e-4, 4e-4, 1e16):
            with pytest.raises(ValueError):
                PitchSegConfig(threshold_coef=0.7, gamma=gamma)
        # At threshold_coef 1 the fraction is 1.0 for every gamma, as before.
        assert PitchSegConfig(threshold_coef=1.0, gamma=1e-4).gamma == 1e-4


def near_ties(diff, fraction):
    """Whether the paper's form and the folded one may round differently:
    a jump within 1e-12 relative of the threshold, or two unequal jumps
    within 1e-12 relative of each other, which the power may merge."""
    values = np.unique(diff[diff > 0])
    if values.size == 0:
        return False
    threshold = fraction * values[-1]
    return bool(
        np.any(np.abs(values - threshold) <= 1e-12 * threshold)
        or np.any(np.diff(values) <= 1e-12 * values[1:])
    )


@st.composite
def lag_tracks(draw):
    """Pitch tracks fs / lag over the default search range, lag 0 unvoiced."""
    fs = draw(st.sampled_from([8000, 16000]))
    cfg = PitchConfig()
    lag = st.integers(int(fs / cfg.max_hz), int(fs / cfg.min_hz))
    lags = draw(st.lists(st.one_of(lag, st.just(0)), min_size=2, max_size=300))
    pitch = [fs / k if k else 0.0 for k in lags]
    return track_of(pitch, cfg.hop_s)


class TestFoldedThreshold:
    @given(
        track=lag_tracks(),
        gamma=st.one_of(st.sampled_from([0.2, 0.3, 0.5, 1.0]), st.floats(0.05, 5.0)),
        threshold_coef=st.one_of(st.sampled_from([0.3, 0.5, 0.7, 0.9]), st.floats(0.05, 1.0)),
        min_gap_s=st.sampled_from([0.0, 0.05, 0.5]),
    )
    @settings(max_examples=300, deadline=None)
    def test_segment_matches_gamma_corrected_reference(
        self, track, gamma, threshold_coef, min_gap_s
    ):
        try:
            cfg = PitchSegConfig(threshold_coef=threshold_coef, gamma=gamma, min_gap_s=min_gap_s)
        except ValueError:  # the fraction rounds to 1.0; see TestGammaCorrect
            event("skipped: outside the accepted domain")
            reject()
        diff = pitch_diff(track)
        if near_ties(diff, threshold_coef ** (1 / gamma)):
            event("skipped: near-tie draw")
            reject()
        expected = candidates(gamma_correct(diff, gamma), track.times, threshold_coef, min_gap_s)
        assert passed_on(track, cfg) == expected


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

    def test_no_differences_no_candidates(self):
        assert candidates([], [0.0], 0.7, 0.5) == []

    def test_arguments_validated(self):
        times = np.arange(6) * 0.01
        with pytest.raises(ValueError, match="threshold_coef"):
            candidates(np.ones(5), times, 0.0, 0.5)
        with pytest.raises(ValueError, match="one difference"):
            candidates(np.ones(5), times[:5], 0.7, 0.5)

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
        pitch = rng.uniform(80.0, 300.0, 201)
        base = passed_on(track_of(pitch), PitchSegConfig())
        scaled = passed_on(track_of(7.5 * pitch), PitchSegConfig())
        assert base and base == scaled


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
        result = SegmentationResult(ChangePointSet(np.array([])), 4.0, 0, 0.0)
        assert result.segments == [(0.0, 4.0)]

    def test_two_points(self):
        result = SegmentationResult(ChangePointSet(np.array([1.0, 2.5])), 4.0, 2, 0.0)
        assert result.segments == [(0.0, 1.0), (1.0, 2.5), (2.5, 4.0)]


class TestConfigValidation:
    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            PitchSegConfig(threshold_coef=0.0)
        with pytest.raises(ValueError):
            PitchSegConfig(threshold_coef=1.5)

    def test_gamma_domain(self):
        for gamma in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                PitchSegConfig(gamma=gamma)

    def test_small_gamma_keeps_its_change_points(self):
        buffer, _ = synth_speakers(SynthSpec(n_speakers=6, duration_s=5.0, seed=42))
        # The fraction 0.7 ** 1000 = 1.3e-155 is inside the domain; these are
        # the change points the two-step correction found.
        result = segment(buffer, PitchSegConfig(gamma=1e-3))
        expected = [4.985, 9.985, 14.995000000000001, 19.985, 24.985]
        assert result.change_points.times.tolist() == expected


class TestGain:
    @pytest.mark.parametrize("method", ["pitch", "bic-grow", "bic-fixed"])
    def test_halving_the_gain_keeps_change_points(self, method, tmp_path):
        # load_wav samples are multiples of 2**-15, so halving them is exact.
        run = build_method(method, RunConfig())
        for seed, noise in ((0, 0.01), (1, 0.04)):
            spec = SynthSpec(n_speakers=6, duration_s=5.0, noise_level=noise, seed=seed)
            synth_to_files(spec, tmp_path / "r.wav", tmp_path / "r.txt")
            buffer = load_wav(tmp_path / "r.wav")
            quiet = AudioBuffer(buffer.samples / 2, buffer.sample_rate_hz)
            points = run(buffer).change_points.times
            assert len(points) > 0
            assert run(quiet).change_points.times.tolist() == points.tolist()


class TestPrependedSilence:
    # k = 4000 samples (0.5 s at 8 kHz) is a multiple of the pitch hop, the
    # MFCC hop and n_s MFCC hops, so every frame and every fixed window of the
    # recording is also one of the padded recording, k samples later.
    K = 4000

    @pytest.mark.parametrize(
        "method",
        [
            "pitch",
            pytest.param(
                "bic-grow",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="the join is found 2 rows early and a spurious point "
                    "follows n_ini rows later (CHANGES.md FOUND)",
                ),
            ),
            "bic-fixed",
        ],
    )
    def test_prepending_silence_shifts_change_points(self, method, tmp_path):
        cfg = RunConfig()
        run = build_method(method, cfg)
        for seed, noise in ((0, 0.01), (1, 0.04)):
            spec = SynthSpec(n_speakers=6, duration_s=5.0, noise_level=noise, seed=seed)
            synth_to_files(spec, tmp_path / "r.wav", tmp_path / "r.txt")
            buffer = load_wav(tmp_path / "r.wav")
            fs = buffer.sample_rate_hz
            padded = AudioBuffer(np.r_[np.zeros(self.K), buffer.samples], fs)
            shift = self.K / fs
            expected = run(buffer).change_points.times + shift
            points = run(padded).change_points.times
            if method != "pitch":
                # The join of silence and speech is itself a change.
                assert abs(points[0] - shift) <= cfg.seg.mfcc.hop / fs + 1e-9
                points = points[1:]
            assert len(expected) > 0 and len(points) == len(expected)
            np.testing.assert_allclose(points, expected, rtol=0, atol=1e-9)


@pytest.fixture(scope="module")
def appended_tail():
    """30 s of speakers alternating 75 and 390 Hz, appended to each recording."""
    buffer, _ = synth_speakers(
        SynthSpec(n_speakers=6, duration_s=5.0, f0_hz=(75.0, 390.0), seed=42)
    )
    return buffer.samples


class TestLocality:
    # The join of the two parts is itself a true change (bic-grow finds it
    # at 29.99 s), so only points a second or more before it are compared.
    @pytest.mark.parametrize(
        "method",
        [
            pytest.param(
                "pitch",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="ROADMAP item 3: the candidate threshold is a "
                    "fraction of the whole recording's largest jump",
                ),
            ),
            "bic-grow",
            "bic-fixed",
        ],
    )
    def test_appending_audio_keeps_earlier_change_points(self, method, appended_tail):
        run = build_method(method, RunConfig())
        for seed in (0, 1):
            head, _ = synth_speakers(SynthSpec(n_speakers=6, duration_s=5.0, seed=seed))
            joined = AudioBuffer(np.r_[head.samples, appended_tail], head.sample_rate_hz)
            alone = run(head).change_points.times
            within = run(joined).change_points.times
            assert within[within < 29.0].tolist() == alone[alone < 29.0].tolist()

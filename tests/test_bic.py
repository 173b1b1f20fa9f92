import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speakerseg.audio_io import load_wav
from speakerseg.bic import (
    BicConfig,
    GaussianStats,
    _best_split,
    delta_bic,
    detect_fixed,
    detect_growing,
    fit_gaussian,
    fixed_window_scores,
    penalty,
    verify_change,
)
from speakerseg.errors import PreconditionError
from speakerseg.features import FeatureMatrix, mfcc
from speakerseg.synth import SynthSpec, synth_to_files


def scalar_delta_bic(rows, b, lam, eps=1e-6):
    """Independent plain-Python evaluation for d = 1 or d = 2."""

    def stats(chunk):
        n = len(chunk)
        d = len(chunk[0])
        means = [sum(row[k] for row in chunk) / n for k in range(d)]
        cov = [[0.0] * d for _ in range(d)]
        for row in chunk:
            for i in range(d):
                for j in range(d):
                    cov[i][j] += (row[i] - means[i]) * (row[j] - means[j]) / n
        if d == 1:
            det = cov[0][0] + eps
        else:
            det = (cov[0][0] + eps) * (cov[1][1] + eps) - cov[0][1] * cov[1][0]
        return n, math.log(det)

    rows = [list(map(float, r)) for r in rows]
    n, log_z = stats(rows)
    bn, log_x = stats(rows[:b])
    yn, log_y = stats(rows[b:])
    d = len(rows[0])
    pen = 0.5 * lam * (d + 0.5 * d * (d + 1)) * math.log(n)
    return 0.5 * n * log_z - 0.5 * bn * log_x - 0.5 * yn * log_y - pen


def two_cluster_features(n_per_side=500, d=13, gap=5.0, seed=42, hop_s=0.01):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (n_per_side, d))
    b = rng.normal(gap, 1.0, (n_per_side, d))
    rows = np.vstack([a, b])
    times = np.arange(len(rows)) * hop_s
    return FeatureMatrix(rows, times)


def stationary_features(n=1000, d=13, seed=9, hop_s=0.01):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(rng.normal(0.0, 1.0, (n, d)), np.arange(n) * hop_s)


class TestFitGaussian:
    def test_degenerate_cloud(self):
        rows = np.tile([2.0, -1.0, 0.5], (7, 1))
        g = fit_gaussian(rows)
        assert np.allclose(g.mean, [2.0, -1.0, 0.5])
        assert np.allclose(g.cov, 0.0)
        assert g.log_det == pytest.approx(3 * math.log(1e-6), rel=1e-12)

    def test_two_point_cloud(self):
        g = fit_gaussian(np.array([[-1.0], [1.0]]))
        assert g.mean[0] == 0.0
        assert g.cov[0, 0] == pytest.approx(1.0)
        assert g.log_det == pytest.approx(math.log(1 + 1e-6), rel=1e-9)

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(123)
        rows = rng.standard_normal((500, 2))
        g = fit_gaussian(rows)
        assert np.max(np.abs(g.mean)) < 0.15
        assert np.max(np.abs(g.cov - np.eye(2))) < 0.15

    def test_too_few_rows(self):
        with pytest.raises(PreconditionError):
            fit_gaussian(np.zeros((3, 3)))

    def test_non_finite_rejected(self):
        rows = np.zeros((5, 2))
        rows[0, 0] = np.inf
        with pytest.raises(PreconditionError):
            fit_gaussian(rows)


class TestPenalty:
    def test_zero_lambda_disables(self):
        for d, n in ((1, 10), (13, 100), (5, 7)):
            assert penalty(d, n, 0.0) == 0.0

    def test_hand_arithmetic(self):
        assert penalty(1, 7, 1.0) == pytest.approx(math.log(7), rel=1e-12)

    def test_closed_form(self):
        assert penalty(13, 100, 1.2) == pytest.approx(0.6 * 104 * math.log(100), rel=1e-12)
        assert penalty(13, 100, 1.2) == pytest.approx(287.3626196, abs=1e-6)

    def test_domain(self):
        with pytest.raises(PreconditionError):
            penalty(0, 10, 1.0)
        with pytest.raises(PreconditionError):
            penalty(3, 1, 1.0)


class TestDeltaBic:
    def test_identical_halves_give_minus_penalty(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, (80, 13))
        z = np.vstack([x, x])
        got = delta_bic(z, 80, lam=1.0)
        assert got == pytest.approx(-penalty(13, 160, 1.0), abs=1e-9)

    def test_separated_clusters_positive(self):
        rng = np.random.default_rng(77)
        x = rng.normal(-10, 1, (100, 1))
        y = rng.normal(10, 1, (100, 1))
        score = delta_bic(np.vstack([x, y]), 100, lam=1.0)
        assert score > 100

    def test_zero_lambda_is_pure_likelihood_ratio(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(0, 1, (60, 2))
        glr = delta_bic(rows, 30, lam=0.0)
        with_pen = delta_bic(rows, 30, lam=1.0)
        assert glr == pytest.approx(with_pen + penalty(2, 60, 1.0), abs=1e-9)

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_scalar_reimplementation(self, d):
        rng = np.random.default_rng(2000 + d)
        for _ in range(20):
            n = int(rng.integers(3 * (d + 1), 60))
            b = int(rng.integers(d + 1, n - d - 1 + 1))
            shift = rng.uniform(-3, 3, d)
            rows = rng.normal(0, 1, (n, d))
            rows[b:] += shift
            lam = float(rng.uniform(0, 2))
            got = delta_bic(rows, b, lam)
            want = scalar_delta_bic(rows.tolist(), b, lam)
            assert got == pytest.approx(want, abs=1e-8)

    def test_scale_invariance_with_scaled_regularizer(self):
        rng = np.random.default_rng(31)
        rows = rng.normal(0, 1, (100, 4))
        base = delta_bic(rows, 50, lam=1.0, reg_epsilon=1e-6)
        scaled = delta_bic(3.0 * rows, 50, lam=1.0, reg_epsilon=9e-6)
        assert scaled == pytest.approx(base, abs=1e-6)

    def test_translation_invariance(self):
        rng = np.random.default_rng(32)
        rows = rng.normal(0, 1, (100, 4))
        base = delta_bic(rows, 40, lam=1.0)
        shifted = delta_bic(rows + np.array([5.0, -2.0, 0.25, 100.0]), 40, lam=1.0)
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_lambda_monotonicity_identity(self):
        rng = np.random.default_rng(33)
        rows = rng.normal(0, 1, (80, 3))
        d1 = delta_bic(rows, 40, lam=0.5)
        d2 = delta_bic(rows, 40, lam=1.5)
        assert d1 - d2 == pytest.approx(
            penalty(3, 80, 1.5) - penalty(3, 80, 0.5), abs=1e-9
        )

    def test_side_size_guard(self):
        rows = np.zeros((30, 5))
        with pytest.raises(PreconditionError):
            delta_bic(rows, 3, 1.0)


class TestDetectGrowing:
    def test_single_switch_found(self):
        features = two_cluster_features()
        points = detect_growing(features, BicConfig())
        assert len(points) == 1
        assert abs(points[0].time_s - 5.0) <= 0.3
        assert points[0].score > 0

    def test_stationary_empty(self):
        assert detect_growing(stationary_features(), BicConfig()) == []

    def test_empty_features_empty(self):
        empty = FeatureMatrix(np.empty((0, 13)), np.empty(0))
        assert detect_growing(empty, BicConfig()) == []

    def test_min_separation_invariant(self):
        rng = np.random.default_rng(55)
        blocks = [rng.normal(4.0 * k, 1.0, (300, 13)) for k in range(4)]
        rows = np.vstack(blocks)
        features = FeatureMatrix(rows, np.arange(len(rows)) * 0.01)
        cfg = BicConfig()
        points = detect_growing(features, cfg)
        assert len(points) >= 2
        gaps = np.diff([p.time_s for p in points])
        assert np.all(gaps >= cfg.n_ini * 0.01 - 1e-9)
        assert all(p.score > 0 for p in points)

    def test_n_ini_guard(self):
        with pytest.raises(PreconditionError):
            detect_growing(stationary_features(n=200), BicConfig(n_ini=20, n_max=100))


class TestDetectFixed:
    def test_single_switch_found(self):
        features = two_cluster_features()
        points = detect_fixed(features, BicConfig())
        assert len(points) == 1
        assert abs(points[0].time_s - 5.0) <= 0.5

    def test_stationary_empty(self):
        assert detect_fixed(stationary_features(), BicConfig()) == []

    def test_short_input_empty(self):
        assert detect_fixed(stationary_features(n=50), BicConfig()) == []

    def test_min_separation_invariant(self):
        rng = np.random.default_rng(56)
        blocks = [rng.normal(4.0 * k, 1.0, (300, 13)) for k in range(4)]
        rows = np.vstack(blocks)
        features = FeatureMatrix(rows, np.arange(len(rows)) * 0.01)
        cfg = BicConfig()
        points = detect_fixed(features, cfg)
        assert len(points) >= 2
        window_rows = int(round(1.0 / features.hop_s))
        gaps = np.diff([p.time_s for p in points])
        assert np.all(gaps >= window_rows * 0.01 - 1e-9)

    def test_score_curve_export(self):
        features = two_cluster_features(n_per_side=200)
        times, scores = fixed_window_scores(features, BicConfig())
        assert len(times) == len(scores) > 0
        assert np.all(np.diff(times) > 0)


class TestVerifyChange:
    def test_accepts_true_switch(self, two_speaker_buffer):
        buffer, truth = two_speaker_buffer
        features = mfcc(buffer)
        ok, score = verify_change(features, float(truth.times[0]), 0.4, lam=1.0)
        assert ok
        assert score > 0

    def test_rejects_stationary_point(self, single_speaker_buffer):
        features = mfcc(single_speaker_buffer)
        ok, score = verify_change(features, 5.0, 0.4, lam=1.0)
        assert not ok
        assert score <= 0

    def test_edge_insufficient_rows(self):
        features = stationary_features(n=200)
        ok, score = verify_change(features, 0.01, 0.4, lam=1.0)
        assert not ok
        assert score == -math.inf

    def test_window_must_be_positive(self):
        with pytest.raises(PreconditionError):
            verify_change(stationary_features(), 1.0, 0.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BicConfig(lam=-1)
        with pytest.raises(ValueError):
            BicConfig(n_max=50, n_ini=100)
        with pytest.raises(ValueError):
            BicConfig(reg_epsilon=0.0)

    def test_stats_type(self):
        g = fit_gaussian(np.array([[-1.0], [1.0]]))
        assert isinstance(g, GaussianStats)
        assert g.n == 2


def synth_features(tmp_path, spec):
    """MFCC rows of a synth recording after its 16-bit WAV round trip, as `synth` writes it."""
    wav = tmp_path / "golden.wav"
    synth_to_files(spec, wav, tmp_path / "golden.txt")
    return mfcc(load_wav(wav))


class TestGoldenScores:
    """Every change point and score, bit for bit.

    The values were recorded on x86-64 with numpy 2.4 and its bundled
    OpenBLAS; another BLAS or CPU may differ in the last bits.
    """

    def test_detect_growing(self, tmp_path):
        spec = SynthSpec(n_speakers=6, duration_s=5.0, noise_level=0.01, seed=42)
        points = detect_growing(synth_features(tmp_path, spec), BicConfig())
        # Scores from the prefix-sum kernel of _best_split.
        assert [(p.time_s, p.score.hex()) for p in points] == [
            (4.99, "0x1.caaee825eca2ap+8"),
            (9.99, "0x1.34f338cf58f02p+8"),
            (14.99, "0x1.202b0e644aff7p+9"),
            (19.990000000000002, "0x1.435ee0f3720edp+9"),
            (25.0, "0x1.ce0b6d3a7b21ap+8"),
        ]
        # The same points as the two-pass kernel (one _ml_cov per side of
        # every split) scored them.
        two_pass = [
            "0x1.caaee825ec75ap+8",
            "0x1.34f338cf58fcep+8",
            "0x1.202b0e644b13dp+9",
            "0x1.435ee0f37229dp+9",
            "0x1.ce0b6d3a7a7e2p+8",
        ]
        for p, want in zip(points, two_pass):
            assert p.score == pytest.approx(float.fromhex(want), rel=1e-9, abs=0)

    def test_detect_fixed(self, tmp_path):
        spec = SynthSpec(n_speakers=6, duration_s=10.0, noise_level=0.02, seed=42)
        points = detect_fixed(synth_features(tmp_path, spec), BicConfig())
        assert [(p.time_s, float(p.score).hex()) for p in points] == [
            (10.0, "0x1.5441ac303e296p+8"),
            (20.0, "0x1.c87423ab1076cp+7"),
            (30.0, "0x1.7feacf6f6753ap+8"),
            (40.0, "0x1.f29c73d39682ap+8"),
            (50.0, "0x1.917cb56becf56p+8"),
        ]


class TestBatchedKernel:
    """The batched sweeps against one delta_bic call per scored split.

    The fixed window's scores are equal exactly; the growing window's
    prefix-sum scores are equal within rounding.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 6),
        window=st.integers(4, 60),
        n_s=st.integers(1, 12),
        extra=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fixed_window_scores_equal_delta_bic(self, d, window, n_s, extra, seed):
        rng = np.random.default_rng(seed)
        n = window + extra
        rows = rng.normal(0.0, 1.0, (n, d)) * rng.uniform(0.1, 10.0, d)
        rows[n // 2 :] += rng.uniform(-2.0, 2.0, d)
        features = FeatureMatrix(rows, np.arange(n) * 0.01)
        cfg = BicConfig(n_s=n_s, fixed_window=window, lam=float(rng.uniform(0.0, 2.0)))
        times, scores = fixed_window_scores(features, cfg)
        starts = range(0, n - window + 1, n_s)
        half = window // 2
        assert times.tolist() == [features.times[s + half] for s in starts]
        if half < d + 1 or window - half < d + 1:
            assert np.all(scores == -math.inf)
            return
        want = [
            delta_bic(rows[s : s + window], half, cfg.lam, cfg.reg_epsilon) for s in starts
        ]
        assert scores.tolist() == want

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 6),
        n=st.integers(4, 120),
        min_b=st.integers(0, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_best_split_is_first_max_of_delta_bic(self, d, n, min_b, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(0.0, 1.0, (n, d))
        rows[n // 3 :] += rng.uniform(-2.0, 2.0, d)
        b, score = _best_split(rows, 1.0, 1e-6, min_b)
        splits = range(max(d + 1, min_b), n - d)
        if not splits:
            assert (b, score) == (None, -math.inf)
            return
        want = [delta_bic(rows, s, 1.0, 1e-6) for s in splits]
        # _best_split reads its covariances off prefix sums and delta_bic
        # forms each side in two passes, so the two round differently. A
        # score weighs d-dimensional log-determinants by n rows in all; the
        # largest gap over 2,900 draws of this domain was 1.2e-11 * n * d.
        tol = 1e-9 * n * d
        assert abs(score - max(want)) <= tol
        assert b in splits
        assert want[b - splits[0]] >= max(want) - tol

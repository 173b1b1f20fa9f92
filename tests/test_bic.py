import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from speakerseg import bic, pitch_seg
from speakerseg.audio_io import AudioBuffer, load_wav
from speakerseg.bic import (
    BicConfig,
    ChangePoint,
    GaussianStats,
    _GrowingWindow,
    _split_scores,
    delta_bic,
    detect_fixed,
    detect_growing,
    fit_gaussian,
    penalty,
    verify_change,
)
from speakerseg.errors import PreconditionError
from speakerseg.features import FeatureMatrix, MfccConfig, mfcc
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


def interleaved_split_scores(windows, lo, hi, lam, reg_epsilon):
    """The scoring kernel as it was before the left sides, the whole window
    and the right sides became three arrays: one (k, 2m + 1, d, d) stack
    [whole | left lo..hi | right lo..hi], summed on overlapping views."""
    k, n, d = windows.shape
    m = hi - lo + 1
    centred = windows.copy()
    centred -= centred.mean(axis=1, keepdims=True)
    head = np.empty((k, 2, d, d))
    np.matmul(np.swapaxes(centred[:, hi:], 1, 2), centred[:, hi:], out=head[:, 0])
    np.matmul(np.swapaxes(centred[:, :lo], 1, 2), centred[:, :lo], out=head[:, 1])
    s1 = np.empty((k, 2 * m + 1, d))
    s1[:, 0] = centred[:, hi:].sum(axis=1)
    s1[:, 1] = centred[:, :lo].sum(axis=1)
    s1[:, 2 : m + 1] = centred[:, lo:hi]
    covs = np.empty((k, 2 * m + 1, d, d))
    covs[:, :2] = head
    added = s1[:, 2 : m + 1]
    np.multiply(added[..., :, None], added[..., None, :], out=covs[:, 2 : m + 1])
    left, right = slice(1, m + 1), slice(m + 1, None)
    for sums in (s1, covs):
        np.cumsum(sums[:, left], axis=1, out=sums[:, left])
        sums[:, 0] += sums[:, m]
        np.subtract(sums[:, :1], sums[:, left], out=sums[:, right])
    b = np.arange(lo, hi + 1)
    count = np.concatenate([[n], b, n - b])
    mean = np.divide(s1, count[:, None], out=s1)
    covs /= count[:, None, None]
    covs -= mean[..., :, None] * mean[..., None, :]
    np.einsum("...ii->...i", covs)[...] += reg_epsilon
    chol = np.linalg.cholesky(covs)
    log_dets = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return (
        0.5 * n * log_dets[:, :1]
        - 0.5 * b * log_dets[:, left]
        - 0.5 * (n - b) * log_dets[:, right]
        - penalty(d, n, lam)
    )


def reference_detect_growing(features, cfg):
    """detect_growing as it was before its per-start state: a fresh _GrowingWindow scores
    each window afresh, centred at its own mean.

    Returns the points, the window size of each point that fell back to its coarse
    split (None for a refined point), and how often the sweep grew, slid and restarted.
    """
    points, fallbacks, steps = [], [], {"grow": 0, "slide": 0, "restart": 0}
    start, size, last = 0, cfg.n_ini, -cfg.n_ini
    while start + size <= len(features):
        window = features.vectors[start : start + size]
        grown = _GrowingWindow(size, features.dim)
        grown.restart(window, size, last + cfg.n_ini - start)
        b, score = grown.best_split(size, cfg.lam, cfg.reg_epsilon)
        if score > 0:
            row, refined = _GrowingWindow(cfg.n_ini, features.dim).refine(
                features.vectors, start + b, cfg.n_ini, cfg.lam, cfg.reg_epsilon
            )
            fallback = None
            if refined <= 0 or row - last < cfg.n_ini:
                row, refined, fallback = start + b, score, size
            points.append(ChangePoint(time_s=float(features.times[row]), score=refined))
            fallbacks.append(fallback)
            start, size, last = row, cfg.n_ini, row
            steps["restart"] += 1
        elif size < cfg.n_max:
            size = min(size + cfg.n_g, cfg.n_max)
            steps["grow"] += 1
        else:
            start += cfg.n_s
            steps["slide"] += 1
    return points, fallbacks, steps


def assert_same_sweep(features, cfg):
    """detect_growing against the reference: the same times, refined scores bit for
    bit, coarse scores within rounding. Returns the reference's step counts."""
    got = detect_growing(features, cfg)
    want, fallbacks, steps = reference_detect_growing(features, cfg)
    assert [p.time_s for p in got] == [p.time_s for p in want]
    for p, q, n in zip(got, want, fallbacks):
        if n is None:
            assert p.score.hex() == q.score.hex()
        else:
            # The reference centres each window at its own mean, the sweep at
            # the mean of its start's first window, so the two round differently:
            # by at most about 2.2e-9 * n * d (bic.py, README), the most at a
            # right side of d + 1 nearly collinear rows. Over 60,000 draws of
            # test_random_rows_with_mean_shifts the largest gap was
            # 2.16e-9 * n * d. The bound is twice the stated figure.
            assert abs(p.score - q.score) <= 2 * 2.2e-9 * n * features.dim
    return steps


def assert_first_max_of_delta_bic(rows, splits, b, score):
    """(b, score) is a maximum of delta_bic over these splits of rows, within rounding.

    A running sum adds the rows before a split one by one where delta_bic
    multiplies them out, so the two round differently. A score weighs
    d-dimensional log-determinants by n rows in all; over every split of
    12,890 windows of the growing-window test's domain and 8,000 of the
    refinement test's, the largest gap was 4.6e-11 * n * d.
    """
    n, d = rows.shape
    want = [delta_bic(rows, s, 1.0, 1e-6) for s in splits]
    tol = 1e-9 * n * d
    assert abs(score - max(want)) <= tol
    assert b in splits
    assert want[b - splits[0]] >= max(want) - tol


# The default sweep sizes and two small ones that slide and restart often.
SWEEP_SIZES = [
    BicConfig(),
    BicConfig(n_ini=40, n_g=20, n_max=200, n_s=20),
    BicConfig(n_ini=30, n_g=25, n_max=130, n_s=7),
]


def two_cluster_features(n_per_side=500, d=13, gap=5.0, seed=42, hop_s=0.01):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (n_per_side, d))
    b = rng.normal(gap, 1.0, (n_per_side, d))
    rows = np.vstack([a, b])
    times = np.arange(len(rows)) * hop_s
    return FeatureMatrix(rows, times)


def level_features(levels, hop_s=0.01):
    """One-dimensional rows: +1, -1, +1, ... added to the given levels, one per row."""
    levels = np.asarray(levels, dtype=np.float64)
    rows = levels + np.where(np.arange(len(levels)) % 2, -1.0, 1.0)
    return FeatureMatrix(rows[:, None], np.arange(len(rows)) * hop_s)


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

    def test_one_dimensional_rejected(self):
        with pytest.raises(PreconditionError, match="2-D"):
            fit_gaussian(np.zeros(5))


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

    def test_rows_validation(self):
        with pytest.raises(PreconditionError, match="2-D"):
            delta_bic(np.zeros(30), 15, 1.0)
        rows = np.zeros((30, 2))
        rows[0, 1] = np.nan
        with pytest.raises(PreconditionError, match="finite"):
            delta_bic(rows, 15, 1.0)


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

    def test_unsplittable_refinement_keeps_coarse_point(self):
        # A shift too small for the 20-row refinement window to score
        # positive, which the 600-row window still detects.
        features = level_features([0.0] * 300 + [0.4] * 300)
        cfg = BicConfig(n_ini=20, n_g=20, n_max=600, n_s=20)
        refine = _GrowingWindow(cfg.n_ini, features.dim).refine
        assert refine(features.vectors, 300, cfg.n_ini, cfg.lam, cfg.reg_epsilon)[1] <= 0
        points = detect_growing(features, cfg)
        assert [p.time_s for p in points] == [features.times[300]]
        assert points[0].score > 0

    def test_refinement_too_close_to_last_point_keeps_coarse_point(self):
        # Turns at rows 100 and 115. After the point at 100, splits before
        # row 120 are inadmissible; the refinement centred on 120 finds
        # 115, closer than n_ini to 100, so the coarse row 120 is kept.
        features = level_features([0.0] * 100 + [6.0] * 15 + [-6.0] * 285)
        cfg = BicConfig(n_ini=20, n_g=10, n_max=100, n_s=10)
        refine = _GrowingWindow(cfg.n_ini, features.dim).refine
        assert refine(features.vectors, 120, cfg.n_ini, cfg.lam, cfg.reg_epsilon)[0] == 115
        points = detect_growing(features, cfg)
        assert [p.time_s for p in points] == list(features.times[[100, 120]])


class TestGrowingSweepAgainstReference:
    """The per-start sweep finds the points that scoring each window afresh finds."""

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.sampled_from(SWEEP_SIZES),
        d=st.integers(1, 13),
        n=st.integers(30, 1500),
        seed=st.integers(0, 2**32 - 1),
    )
    # The three largest coarse-score gaps of 60,000 draws: 2.16e-9, 1.90e-9
    # and 1.58e-9 * n * d.
    @example(sizes=SWEEP_SIZES[1], d=4, n=341, seed=1017190313)
    @example(sizes=SWEEP_SIZES[1], d=3, n=580, seed=2068448201)
    @example(sizes=SWEEP_SIZES[0], d=2, n=1346, seed=2712966051)
    def test_random_rows_with_mean_shifts(self, sizes, d, n, seed):
        # d <= 13 keeps n_ini >= 2(d + 1) in every size.
        rng = np.random.default_rng(seed)
        rows = rng.normal(0.0, 1.0, (n, d)) * rng.uniform(0.1, 10.0, d)
        turn = 0
        while turn < n:
            rows[turn:] += rng.uniform(-3.0, 3.0, d)
            turn += int(rng.integers(20, 800))
        assert_same_sweep(FeatureMatrix(rows, np.arange(n) * 0.01), sizes)

    @pytest.mark.parametrize("cfg", SWEEP_SIZES, ids=["default", "40-20-200-20", "30-25-130-7"])
    @pytest.mark.parametrize(
        "seed, rate, noise, silence_s",
        [(0, 8000, 0.01, 0.0), (1, 16000, 0.04, 0.5), (2, 8000, 0.08, 0.5)],
    )
    def test_synth_mfcc(self, cfg, seed, rate, noise, silence_s, tmp_path):
        spec = SynthSpec(
            n_speakers=6, duration_s=5.0, noise_level=noise, sample_rate_hz=rate, seed=seed
        )
        synth_to_files(spec, tmp_path / "r.wav", tmp_path / "r.txt")
        buffer = load_wav(tmp_path / "r.wav")
        silence = np.zeros(int(silence_s * rate))
        features = mfcc(AudioBuffer(np.r_[silence, buffer.samples], rate))
        steps = assert_same_sweep(features, cfg)
        assert steps["grow"] > 0 and steps["restart"] > 0
        if cfg.n_max < 500:  # shorter than a turn of the fixture
            assert steps["slide"] > 0


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
        times, scores = bic._fixed_sweep(features, BicConfig())[:2]
        assert len(times) == len(scores) > 0
        assert np.all(np.diff(times) > 0)

    @pytest.mark.parametrize(
        "window, n_s", [(100, 50), (200, 50), (40, 70)], ids=["100-50", "200-50", "gaps"]
    )
    @pytest.mark.parametrize("n", [2, 99, 1650, 1700, 3280, 3350, 5037])
    def test_each_row_is_read_once(self, window, n_s, n):
        """The sweep reads each batch of _FIXED_BLOCK windows in one call and carries the
        rows that the next batch shares: its reads are disjoint and in order, none longer
        than a batch, and they cover every row that a window covers."""
        rng = np.random.default_rng(n)
        features = FeatureMatrix(rng.normal(0.0, 1.0, (n, 3)), np.arange(n) * 0.01)
        reads = []

        def read(rows):
            reads.append(range(*rows.indices(n)))
            return FeatureMatrix(features.vectors[rows], features.times[rows])

        cfg = BicConfig(n_s=n_s, fixed_window_s=window * 0.01)
        times, scores = bic._fixed_sweep(read, cfg)[:2]
        want_times, want_scores = bic._fixed_sweep(features, cfg)[:2]
        assert times.tobytes() == want_times.tobytes()
        assert scores.tobytes() == want_scores.tobytes()
        batch = (bic._FIXED_BLOCK - 1) * n_s + window
        assert all(len(r) <= batch for r in reads)
        assert all(a.stop <= b.start for a, b in zip(reads, reads[1:]))
        read_rows = [i for r in reads for i in r]
        starts = list(range(0, n - window + 1, n_s))
        if not starts:  # no window fits: the first batch's read finds the end
            assert read_rows == list(range(n))
            return
        # A batch's rows run from its first window's start to its last window's end, which
        # takes in the rows between its windows when n_s > window. The rows after the last
        # window, fewer than n_s, are read too: a short read is how the sweep finds the end.
        per = bic._FIXED_BLOCK
        batches = [starts[i : i + per] for i in range(0, len(starts), per)]
        want = {i for b in batches for i in range(b[0], b[-1] + window)}
        tail = set(range(starts[-1] + window, n))
        assert len(tail) < n_s
        assert set(read_rows) == want | tail
        covered = {i for j in starts for i in range(j, j + window)}
        assert covered <= want and (n_s > window or want == covered)

    def test_mfcc_blocks_give_the_golden_points(self, tmp_path):
        """The CLI's bic-fixed run reads its rows through partial(mfcc, buffer, cfg), a
        batch at a time: TestGoldenScores's points."""
        wav = tmp_path / "golden.wav"
        spec = SynthSpec(n_speakers=6, duration_s=10.0, noise_level=0.02, seed=42)
        synth_to_files(spec, wav, tmp_path / "golden.txt")
        buffer = load_wav(wav)
        streamed = detect_fixed(partial(mfcc, buffer, MfccConfig()), BicConfig())
        assert len(streamed) == 5
        assert streamed == detect_fixed(mfcc(buffer), BicConfig())
        result = pitch_seg.build_method("bic-fixed", pitch_seg.RunConfig())(buffer)
        assert result.change_points.times.tolist() == [p.time_s for p in streamed]

    def test_reader_without_mfcc_config_rejected(self, two_speaker_buffer):
        """partial(mfcc, buffer) would pass each row slice as mfcc's config."""
        buffer, _ = two_speaker_buffer
        with pytest.raises(TypeError, match="pass a row range as rows="):
            detect_fixed(partial(mfcc, buffer), BicConfig())

    def test_no_blocks_no_scores(self):
        """A reader with no rows gives no scores."""
        empty = FeatureMatrix(np.empty((0, 13)), np.empty(0))
        times, scores = bic._fixed_sweep(lambda rows: empty, BicConfig())[:2]
        assert len(times) == len(scores) == 0
        assert detect_fixed(lambda rows: empty, BicConfig()) == []


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

    def test_no_rows_in_window(self):
        # Rows 0.00 .. 1.99 s; the window around 5 s holds none of them.
        ok, score = verify_change(stationary_features(n=200), 5.0, 0.4)
        assert (ok, score) == (False, -math.inf)

    def test_window_must_be_positive(self):
        with pytest.raises(PreconditionError):
            verify_change(stationary_features(), 1.0, 0.0)

    @pytest.mark.parametrize("rate", [8000, 16000])
    def test_scores_do_not_depend_on_where_the_recording_starts(self, rate, tmp_path):
        # A pitch candidate is the midpoint of two pitch-frame starts: at 8 kHz
        # it lies halfway between two MFCC rows, at 16 kHz on a row start, as
        # do its window's edges. Dropping 0.1 s, whole pitch and MFCC hops,
        # shifts every candidate and must leave each score's bits alone.
        def verified(buffer):
            calls = []

            def recording_verify(features, t, *args):
                ok, score = verify_change(features, t, *args)
                calls.append((t, score))
                return ok, score

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pitch_seg, "verify_change", recording_verify)
                pitch_seg.segment(buffer)
            return calls

        for seed in (0, 1):
            spec = SynthSpec(
                n_speakers=6, duration_s=5.0, noise_level=0.04, sample_rate_hz=rate, seed=seed
            )
            synth_to_files(spec, tmp_path / "r.wav", tmp_path / "r.txt")
            buffer = load_wav(tmp_path / "r.wav")
            whole = verified(buffer)
            later = verified(AudioBuffer(buffer.samples[rate // 10 :], rate))
            assert [round(t - 0.1, 6) for t, _ in whole] == [round(t, 6) for t, _ in later]
            assert [s for _, s in whole] == [s for _, s in later]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BicConfig(lam=-1)
        with pytest.raises(ValueError):
            BicConfig(n_max=50, n_ini=100)
        with pytest.raises(ValueError):
            BicConfig(reg_epsilon=0.0)
        with pytest.raises(ValueError, match="n_g"):
            BicConfig(n_g=0)

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
        # Refined scores from the running sums of a fresh _GrowingWindow, on
        # MFCC rows whose DCT is a product with features._dct_matrix: the
        # bits the earlier prefix-sum kernel (cumulative sums over the whole
        # window) gave.
        assert [(p.time_s, p.score.hex()) for p in points] == [
            (4.99, "0x1.caaee825ec222p+8"),
            (9.99, "0x1.34f338cf592cap+8"),
            (14.99, "0x1.202b0e644b1ffp+9"),
            (19.990000000000002, "0x1.435ee0f371c0bp+9"),
            (25.0, "0x1.ce0b6d3a7b25ap+8"),
        ]
        # The same points as the earlier split-range kernel (one product for
        # the first left side, one more row for each later split) scored them
        # on these rows.
        split_range = [
            "0x1.caaee825ec05ap+8",
            "0x1.34f338cf5927ap+8",
            "0x1.202b0e644b159p+9",
            "0x1.435ee0f371c6dp+9",
            "0x1.ce0b6d3a7b24ap+8",
        ]
        # The same points as the prefix-sum kernel scored them on MFCC rows
        # from scipy.fft.dct, and as the two-pass kernel (one _ml_cov per
        # side of every split) scored them on those rows.
        scipy_dct = [
            "0x1.caaee825eca2ap+8",
            "0x1.34f338cf58f02p+8",
            "0x1.202b0e644aff7p+9",
            "0x1.435ee0f3720edp+9",
            "0x1.ce0b6d3a7b21ap+8",
        ]
        two_pass = [
            "0x1.caaee825ec75ap+8",
            "0x1.34f338cf58fcep+8",
            "0x1.202b0e644b13dp+9",
            "0x1.435ee0f37229dp+9",
            "0x1.ce0b6d3a7a7e2p+8",
        ]
        for want in (split_range, scipy_dct, two_pass):
            for p, score in zip(points, want, strict=True):
                assert p.score == pytest.approx(float.fromhex(score), rel=1e-9, abs=0)

    def test_detect_fixed(self, tmp_path):
        spec = SynthSpec(n_speakers=6, duration_s=10.0, noise_level=0.02, seed=42)
        points = detect_fixed(synth_features(tmp_path, spec), BicConfig())
        assert [(p.time_s, float(p.score).hex()) for p in points] == [
            (10.0, "0x1.5441ac303e21ep+8"),
            (20.0, "0x1.c87423ab106dcp+7"),
            (30.0, "0x1.7feacf6f6749ep+8"),
            (40.0, "0x1.f29c73d3969c6p+8"),
            (50.0, "0x1.917cb56beced2p+8"),
        ]
        # The same points as the two-pass kernel (one _ml_cov per side)
        # scored them on these rows, and as it scored them on MFCC rows from
        # scipy.fft.dct.
        two_pass = [
            "0x1.5441ac303e27ep+8",
            "0x1.c87423ab1076cp+7",
            "0x1.7feacf6f67506p+8",
            "0x1.f29c73d39684ap+8",
            "0x1.917cb56becf2ap+8",
        ]
        scipy_dct = [
            "0x1.5441ac303e296p+8",
            "0x1.c87423ab1076cp+7",
            "0x1.7feacf6f6753ap+8",
            "0x1.f29c73d39682ap+8",
            "0x1.917cb56becf56p+8",
        ]
        for want in (two_pass, scipy_dct):
            for p, score in zip(points, want, strict=True):
                assert p.score == pytest.approx(float.fromhex(score), rel=1e-9, abs=0)


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
        # At a 0.01 s hop, window * 0.01 s is exactly window rows.
        cfg = BicConfig(n_s=n_s, fixed_window_s=window * 0.01, lam=float(rng.uniform(0.0, 2.0)))
        times, scores = bic._fixed_sweep(features, cfg)[:2]
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

    @pytest.mark.parametrize("d", [1, 2])
    def test_every_split_matches_scalar_reimplementation(self, d):
        rng = np.random.default_rng(3000 + d)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(3 * (d + 1), 60))
            windows = rng.normal(0.0, 1.0, (k, n, d)) * rng.uniform(0.1, 10.0, d)
            windows[:, n // 2 :] += rng.uniform(-3.0, 3.0, (k, 1, d))
            lam = float(rng.uniform(0, 2))
            for b in range(d + 1, n - d):
                got = _split_scores(windows, b, lam, 1e-6)
                assert got.shape == (k,)
                for w, rows in enumerate(windows.tolist()):
                    want = scalar_delta_bic(rows, b, lam)
                    assert got[w] == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_same_bits_as_interleaved_kernel(self, seed):
        rng = np.random.default_rng(5000 + seed)
        for _ in range(40):
            k = int(rng.integers(1, 40))
            d = int(rng.integers(1, 14))
            n = int(rng.integers(2 * d + 2, 2 * d + 120))
            b = int(rng.integers(1, n))
            rows = rng.normal(0.0, 1.0, (n + 3 * k, d)) * rng.uniform(0.1, 10.0, d)
            rows[rng.integers(0, len(rows)) :] += rng.uniform(-3.0, 3.0, d)
            # Overlapping windows three rows apart, as the fixed sweep views them.
            windows = np.swapaxes(sliding_window_view(rows, n, axis=0)[::3][:k], 1, 2)
            lam = float(rng.uniform(0.0, 2.0))
            eps = float(10.0 ** rng.uniform(-8, -3))
            got = _split_scores(windows, b, lam, eps)
            assert np.array_equal(got, interleaved_split_scores(windows, b, b, lam, eps)[:, 0])

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 6),
        n=st.integers(4, 120),
        min_b=st.integers(0, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_growing_window_is_first_max_of_delta_bic(self, d, n, min_b, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(0.0, 1.0, (n, d))
        rows[n // 3 :] += rng.uniform(-2.0, 2.0, d)
        grown = _GrowingWindow(n, d)
        grown.restart(rows, n, min_b)
        b, score = grown.best_split(n, 1.0, 1e-6)
        splits = range(max(d + 1, min_b), n - d)
        if not splits:
            assert (b, score) == (None, -math.inf)
            return
        assert_first_max_of_delta_bic(rows, splits, b, score)

    def test_split_chunks_keep_every_bit(self, monkeypatch):
        # Turns longer than n_max: the sweep grows, slides, restarts and refines.
        rng = np.random.default_rng(5)
        means = np.repeat(rng.uniform(-2.0, 2.0, (4, 13)), 750, axis=0)
        features = FeatureMatrix(rng.normal(0.0, 1.0, (3000, 13)) + means, np.arange(3000) * 0.01)
        swept = []
        # 5 splits a batch, the default, and one batch for all of a window's sides.
        for chunk in (5, bic._SPLIT_CHUNK, BicConfig().n_max + 1):
            monkeypatch.setattr(bic, "_SPLIT_CHUNK", chunk)
            swept.append([(p.time_s, p.score.hex()) for p in detect_growing(features)])
        assert len(swept[0]) == 3
        assert swept[0] == swept[1] == swept[2]

    @pytest.mark.parametrize("seed", range(4))
    def test_refine_split_is_first_max_of_delta_bic(self, seed):
        # Rows are drawn over the whole recording, so the window is clamped
        # to its start, to its end, or neither.
        rng = np.random.default_rng(6000 + seed)
        clamped = set()
        for _ in range(30):
            d = int(rng.integers(1, 7))
            span = int(rng.integers(2 * d + 2, 60))
            n = span + int(rng.integers(0, 60))
            rows = rng.normal(0.0, 1.0, (n, d))
            rows[int(rng.integers(0, n)) :] += rng.uniform(-2.0, 2.0, d)
            row = int(rng.integers(0, n))
            lo = min(max(0, row - span // 2), n - span)
            clamped.add(("start" if lo == 0 else "") + ("end" if lo == n - span else ""))
            b, score = _GrowingWindow(span, d).refine(rows, row, span, 1.0, 1e-6)
            splits = range(d + 1, span - d)
            assert_first_max_of_delta_bic(rows[lo : lo + span], splits, b - lo, score)
        assert {"start", "end", ""} <= clamped

    def test_packed_sides_expand_to_full_running_sums(self, monkeypatch):
        """_GrowingWindow keeps the lower triangles of its outer-product sums, and every
        side that reaches _ml_log_dets has the bits of full (d, d) running sums: across
        _SPLIT_CHUNK boundaries of the new rows and of the sides, after a restart and in a
        refinement."""
        d = 13
        rng = np.random.default_rng(8)
        vectors = rng.normal(0.0, 1.0, (500, d)) * rng.uniform(0.1, 10.0, d)
        seen = []
        ml_log_dets = bic._ml_log_dets

        def record(sums, outer, count, reg_epsilon, products=None):
            seen.append((sums.copy(), outer.copy(), np.array(count)))
            return ml_log_dets(sums, outer, count, reg_epsilon, products)

        monkeypatch.setattr(bic, "_ml_log_dets", record)

        def check(rows, first, size):
            """Compare the sides of one best_split of rows[:size] with full sums centred at
            the mean of rows[:first]; return the number of sides in each batch."""
            centred = rows[:size] - rows[:first].mean(axis=0)
            sums, outer = np.zeros((size + 1, d)), np.zeros((size + 1, d, d))
            sums[1:] = centred
            np.multiply(centred[:, :, None], centred[:, None, :], out=outer[1:])
            np.cumsum(sums, axis=0, out=sums)
            np.cumsum(outer, axis=0, out=outer)
            # The left sides come first; the right sides begin with the whole window.
            right = next(i for i, (_, _, count) in enumerate(seen) if count[0] == size)
            for i, (got_sums, got_outer, count) in enumerate(seen):
                if i < right:
                    want_sums, want_outer = sums[count], outer[count]
                else:
                    b = size - count
                    want_sums, want_outer = sums[size] - sums[b], outer[size] - outer[b]
                assert got_sums.tobytes() == want_sums.tobytes()
                assert got_outer.tobytes() == want_outer.tobytes()
            batches = [len(count) for _, _, count in seen]
            seen.clear()
            return batches

        window = _GrowingWindow(400, d)
        window.restart(vectors[:400], 100, 0)
        window.best_split(100, 1.0, 1e-6)
        assert check(vectors, 100, 100) == [73, 74]
        # 250 new rows and 250 new left sides, 128 at a time, then 324 right sides.
        window.best_split(350, 1.0, 1e-6)
        assert check(vectors, 100, 350) == [128, 122, 128, 128, 68]
        window.restart(vectors[50:450], 200, 30)
        window.best_split(200, 1.0, 1e-6)
        check(vectors[50:450], 200, 200)
        window.refine(vectors, 300, 200, 1.0, 1e-6)
        check(vectors[200:400], 200, 200)

import math

import numpy as np
import pytest

from speakerseg import features
from speakerseg.errors import PreconditionError
from speakerseg.features import (
    FeatureMatrix,
    MfccConfig,
    hz_to_mel,
    mel_filterbank,
    mfcc,
)

from conftest import buffer_from, sine


# Block sizes at which mfcc's rows are checked bit for bit: below, at and above _BLOCK_ROWS.
BLOCK_SIZES = (64, 256, 512)


def three_block_samples():
    """Tone plus noise spanning exactly three blocks of mfcc rows at the default config."""
    rng = np.random.default_rng(12)
    n = 80 * (3 * features._BLOCK_ROWS) + 120
    return 0.3 * sine(210, 8000, n) + rng.normal(0, 0.05, n)


class TestGeometry:
    def test_row_count_and_dim(self):
        buf = buffer_from(np.zeros(1000))
        out = mfcc(buf, MfccConfig())
        assert out.vectors.shape == (11, 13)
        assert len(out.times) == 11

    def test_hop_from_overlap(self):
        assert MfccConfig(window_len=200, overlap=120).hop == 80

    @pytest.mark.parametrize("step", [-1, 0])
    def test_rows_that_step_backwards_rejected(self, step):
        with pytest.raises(ValueError, match="rows must have a positive step"):
            mfcc(buffer_from(np.zeros(1000)), MfccConfig(), slice(None, None, step))

    def test_row_slice_as_cfg_rejected(self):
        with pytest.raises(TypeError, match="pass a row range as rows="):
            mfcc(buffer_from(np.zeros(1000)), slice(0, 2))

    def test_too_short_buffer(self):
        with pytest.raises(PreconditionError):
            mfcc(buffer_from(np.zeros(100)), MfccConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MfccConfig(window_len=200, overlap=200)
        with pytest.raises(ValueError):
            MfccConfig(n_coeffs=30, n_mel_filters=26)
        with pytest.raises(ValueError, match="c0"):
            MfccConfig(n_coeffs=26, n_mel_filters=26, include_c0=False)


class TestValues:
    def test_zero_buffer_rows_identical(self):
        out = mfcc(buffer_from(np.zeros(1000)), MfccConfig())
        assert np.all(out.vectors == out.vectors[0])
        assert np.all(np.isfinite(out.vectors))

    def test_stationary_sine_rows_identical(self):
        # 1 kHz at 8 kHz: the 8-sample period divides the 80-sample hop,
        # so every frame sees identical samples
        out = mfcc(buffer_from(sine(1000, 8000, 2000)), MfccConfig())
        spread = np.max(np.abs(out.vectors - out.vectors[0]), axis=0)
        assert np.max(spread) < 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        samples = rng.uniform(-0.5, 0.5, 3000)
        a = mfcc(buffer_from(samples), MfccConfig())
        b = mfcc(buffer_from(samples), MfccConfig())
        assert np.array_equal(a.vectors, b.vectors)

    def test_scaling_shifts_only_c0(self):
        rng = np.random.default_rng(15)
        samples = 0.2 * sine(300, 8000, 3000) + rng.uniform(-0.05, 0.05, 3000)
        a = mfcc(buffer_from(samples), MfccConfig())
        b = mfcc(buffer_from(np.clip(2 * samples, -1, 1)), MfccConfig())
        diff = np.abs(a.vectors - b.vectors)
        assert np.max(diff[:, 1:]) < 1e-6
        assert np.min(diff[:, 0]) > 1e-3

    def test_prefix_rows_match_across_block_boundary(self, monkeypatch):
        for block in BLOCK_SIZES:
            monkeypatch.setattr(features, "_BLOCK_ROWS", block)
            samples = three_block_samples()
            # All 26 coefficients too: some row counts change the last bits of
            # only the last DCT columns.
            for cfg in (MfccConfig(), MfccConfig(n_coeffs=26)):
                whole = mfcc(buffer_from(samples), cfg).vectors
                assert len(whole) == 3 * block
                # The last prefix ends inside the third block.
                for rows in (1, 41, 46, 65, 67, 130, block - 3, block + 6, 2 * block + block // 2):
                    prefix = mfcc(buffer_from(samples[: 80 * rows + 120]), cfg).vectors
                    assert len(prefix) == rows
                    assert np.array_equal(prefix, whole[:rows]), (block, cfg.n_coeffs, rows)

    def test_row_ranges_match_whole_recording(self, monkeypatch):
        for block in BLOCK_SIZES:
            monkeypatch.setattr(features, "_BLOCK_ROWS", block)
            buf = buffer_from(three_block_samples())
            spans = (
                slice(10, 10), slice(7, 8), slice(100, 140), slice(200, 241),
                slice(block - 12, block + 18), slice(2 * block - 1, 3 * block), slice(None),
                slice(3 * block - 5, 10 * block), slice(-30, -7),
            )
            for cfg in (MfccConfig(), MfccConfig(n_coeffs=26)):
                whole = mfcc(buf, cfg)
                for span in spans:
                    part = mfcc(buf, cfg, span)
                    where = (block, cfg, span)
                    assert part.vectors.shape == whole.vectors[span].shape
                    assert part.vectors.tobytes() == whole.vectors[span].tobytes(), where
                    assert part.times.tobytes() == whole.times[span].tobytes(), where

    def test_no_product_starts_blas_threads(self, monkeypatch):
        """OpenBLAS runs a product of under 65,536 x 4 multiply-adds on the calling
        thread. Each of mfcc's products is a stack of products of _MIN_PRODUCT_ROWS rows:
        64 x 129 x 26 = 214,656 at nfft 256, where one 256-row block was 858,624."""
        shapes = []
        matmul = np.matmul

        def spy(a, b, *args, **kwargs):
            shapes.append(np.shape(a))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        out = mfcc(buffer_from(three_block_samples()), MfccConfig())
        assert len(out) == 3 * features._BLOCK_ROWS
        assert len(shapes) == 2 * 3  # the mel and the DCT product of each block
        assert max(shape[-2] for shape in shapes) == features._MIN_PRODUCT_ROWS

    def test_no_nan_for_noise(self):
        rng = np.random.default_rng(2)
        out = mfcc(buffer_from(rng.uniform(-1, 1, 5000)), MfccConfig())
        assert np.all(np.isfinite(out.vectors))

    def test_drop_c0(self):
        buf = buffer_from(sine(500, 8000, 1000))
        with_c0 = mfcc(buf, MfccConfig(include_c0=True))
        without = mfcc(buf, MfccConfig(include_c0=False))
        assert without.vectors.shape == (11, 13)
        # first column without c0 equals the second column with it
        assert np.array_equal(without.vectors[:, 0], with_c0.vectors[:, 1])


class TestFilterbank:
    def test_mel_formula(self):
        assert hz_to_mel(0) == 0.0
        assert hz_to_mel(700) == pytest.approx(2595.0 * np.log10(2.0))

    def test_bank_shape_and_coverage(self):
        bank = mel_filterbank(26, 256, 8000)
        assert bank.shape == (26, 129)
        assert np.all(bank >= 0)
        assert np.all(bank.sum(axis=1) > 0)

    def test_cached_tables_reject_writes(self):
        bank = mel_filterbank(26, 256, 8000)
        assert mel_filterbank(26, 256, 8000) is bank
        window = features._hamming(200)
        assert features._hamming(200) is window
        assert np.array_equal(window, np.hamming(200))
        dct = features._dct_matrix(26)
        assert features._dct_matrix(26) is dct
        for table in (bank, window, bank.T, dct):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0


class TestDct:
    @pytest.mark.parametrize("n", [2, 13, 26, 40])
    def test_matches_formula(self, n):
        def coefficient(j, k):
            scale = math.sqrt((1.0 if k == 0 else 2.0) / n)
            return scale * math.cos(math.pi * k * (2 * j + 1) / (2 * n))

        m = features._dct_matrix(n)
        want = np.array([[coefficient(j, k) for k in range(n)] for j in range(n)])
        assert np.max(np.abs(m - want)) <= 1e-15
        assert np.max(np.abs(m.T @ m - np.eye(n))) <= 1e-14


class TestProduct:
    @pytest.mark.parametrize("shape", ["mel", "dct"])
    def test_rows_match_one_large_product(self, shape):
        # Each row of a product must not depend on how many rows it was
        # computed with, whichever kernel the BLAS library picks for them.
        if shape == "mel":
            b = mel_filterbank(26, 256, 8000).T
        else:
            b = features._dct_matrix(26)
        a = np.random.default_rng(4).uniform(0.0, 3.0, (1024, b.shape[0]))
        whole = a @ b
        for offset in (0, 7, 100, 424):
            for k in range(1, 601):
                rows = features._product(a[offset : offset + k], b)
                assert np.array_equal(rows, whole[offset : offset + k]), (offset, k)


class TestFeatureMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.array([[np.nan, 1.0]]), np.array([0.0]))

    def test_rejects_one_time_per_row_mismatch(self):
        with pytest.raises(ValueError, match="one time per row"):
            FeatureMatrix(np.zeros((3, 2)), np.array([0.0, 0.01]))

    def test_one_row_has_no_hop(self):
        with pytest.raises(PreconditionError, match="two frames"):
            FeatureMatrix(np.zeros((1, 2)), np.array([0.0])).hop_s

    def test_rejects_times_out_of_order(self):
        # verify_change picks its window's rows by bisecting the times
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros((3, 2)), np.array([0.0, 0.02, 0.01]))

    def test_hop_seconds(self):
        out = mfcc(buffer_from(np.zeros(1000)), MfccConfig())
        assert out.hop_s == pytest.approx(0.01)

"""Gaussian window modeling and BIC-difference change detection.

A window of feature rows is scored under two hypotheses: one full-rank
Gaussian for the whole window versus one Gaussian per side of a split.
The score difference

    delta_bic = (n/2) ln|cov Z| - (b/2) ln|cov X| - ((n-b)/2) ln|cov Y|
                - (lam/2) (d + d(d+1)/2) ln(n)

is positive when describing the window as two sources fits better than
one, penalized for the extra parameters. Natural logarithms throughout;
covariances are maximum-likelihood (divide by n) and regularized with
reg_epsilon * I before taking the determinant so short windows stay
positive definite.

`_log_dets` factors all the covariances a caller needs in one batched
Cholesky call. Scores of one split per window (`delta_bic`,
`verify_change`, `fixed_window_scores`) take their covariances from
`_ml_cov`, the two-pass ML covariance of a row set or of a stack of
equal-sized sets. Batching changes no bit of these scores: each set is
centred and multiplied out on its own, and LAPACK factors each matrix of
a batch on its own.

The growing window scores every split of a window (`_best_split`, also
reached through `_refine_split`). It centres the window at its mean and
reads the covariances of the window and of both sides of every split
off prefix sums of the rows and of their outer products (Cettolo &
Vescovi, ICASSP 2003). These scores round differently from the two-pass
form. On random windows they differ from `delta_bic` at the same split by
at most about 1e-11 * n * d; the scores of the change points found on the
test fixture moved by at most 3.2e-13 relative. Only splits whose scores
tie within that margin could be ordered differently.

Two sweep strategies emit multiple change points: a growing window that
restarts at each accepted change, and a fixed-size window slid at a
constant rate whose center-split score curve is peak-picked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PreconditionError
from .features import FeatureMatrix

DEFAULT_REG_EPSILON = 1e-6

# Windows per block of fixed_window_scores: under 1 MB of working memory
# for one-second windows at a 5 ms hop. Larger blocks are no faster.
_FIXED_BLOCK = 32


@dataclass(frozen=True)
class GaussianStats:
    """ML mean/covariance of a row cloud plus the regularized log-determinant."""

    n: int
    mean: np.ndarray
    cov: np.ndarray
    log_det: float


@dataclass(frozen=True)
class BicConfig:
    lam: float = 1.0
    reg_epsilon: float = DEFAULT_REG_EPSILON
    n_ini: int = 100
    n_g: int = 50
    n_max: int = 600
    n_s: int = 50
    fixed_window: int | None = None  # None: rows spanning one second

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.reg_epsilon <= 0:
            raise ValueError("reg_epsilon must be positive")
        if self.n_g < 1 or self.n_s < 1:
            raise ValueError("n_g and n_s must be >= 1")
        if self.n_max <= self.n_ini:
            raise ValueError("n_max must exceed n_ini")
        if self.fixed_window is not None and self.fixed_window < 2:
            raise ValueError("fixed_window must hold at least two rows")


@dataclass(frozen=True)
class ChangePoint:
    time_s: float
    score: float


def fit_gaussian(rows, reg_epsilon: float = DEFAULT_REG_EPSILON) -> GaussianStats:
    """Fit the ML Gaussian of a contiguous row slice.

    Requires n >= d + 1 rows; the log-determinant is computed from the
    Cholesky factor of cov + reg_epsilon * I.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise PreconditionError("rows must be a 2-D slice")
    n, d = rows.shape
    if n < d + 1:
        raise PreconditionError(f"need at least d+1={d + 1} rows, got {n}")
    if not np.all(np.isfinite(rows)):
        raise PreconditionError("rows must be finite")
    cov = _ml_cov(rows)
    log_det = float(_log_dets(cov.copy(), reg_epsilon))
    return GaussianStats(n=n, mean=rows.mean(axis=0), cov=cov, log_det=log_det)


def _ml_cov(x: np.ndarray) -> np.ndarray:
    """Two-pass ML covariance of one (n, d) row set or of each set of a (k, n, d) stack."""
    centered = x - x.mean(axis=-2, keepdims=True)
    return np.swapaxes(centered, -1, -2) @ centered / x.shape[-2]


def _log_dets(covs: np.ndarray, reg_epsilon: float) -> np.ndarray:
    """ln|cov + reg_epsilon * I| of a (d, d) matrix or of each of a stack, in one Cholesky call.

    Adds reg_epsilon to the diagonal of covs in place, so the caller must own covs.
    """
    np.einsum("...ii->...i", covs)[...] += reg_epsilon
    chol = np.linalg.cholesky(covs)
    return 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)


def _cov_from_sums(s1: np.ndarray, count, out: np.ndarray) -> None:
    """Turn out from sums of row outer products into ML covariances, in place.

    s1 holds the row sums of each set and count its number of rows.
    """
    count = np.asarray(count, dtype=np.float64)
    mean = s1 / count[..., None]
    out /= count[..., None, None]
    out -= mean[..., :, None] * mean[..., None, :]


def _split_scores(n: int, b, whole, left, right, pen: float):
    """delta_bic from the three log-determinants; b, left and right may be arrays."""
    return 0.5 * n * whole - 0.5 * b * left - 0.5 * (n - b) * right - pen


def penalty(d: int, n: int, lam: float) -> float:
    """Model-complexity term: (lam/2) (d + d(d+1)/2) ln(n)."""
    if d < 1 or n < 2:
        raise PreconditionError("need d >= 1 and n >= 2")
    return 0.5 * lam * (d + 0.5 * d * (d + 1)) * math.log(n)


def delta_bic(
    rows,
    b: int,
    lam: float = 1.0,
    reg_epsilon: float = DEFAULT_REG_EPSILON,
) -> float:
    """Two-Gaussian-vs-one score of splitting rows at index b.

    Positive means the split explains the window better than a single
    Gaussian does, i.e. a change at b. Both sides must hold at least
    d + 1 rows.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise PreconditionError("rows must be a 2-D slice")
    n, d = rows.shape
    if b < d + 1 or n - b < d + 1:
        raise PreconditionError("split leaves a side with fewer than d+1 rows")
    if not np.all(np.isfinite(rows)):
        raise PreconditionError("rows must be finite")
    covs = np.stack([_ml_cov(rows), _ml_cov(rows[:b]), _ml_cov(rows[b:])])
    whole, left, right = _log_dets(covs, reg_epsilon)
    return float(_split_scores(n, b, whole, left, right, penalty(d, n, lam)))


def _best_split(rows: np.ndarray, lam: float, reg_epsilon: float, min_b: int = 0):
    """(split, score) of the first maximum over the admissible splits; (None, -inf) if none.

    The covariances of the window and of both sides of every split are
    read off prefix sums of the rows, centred at the window's mean, and of
    their outer products: side rows[:b] sums prefix b - 1, side rows[b:]
    the total less it.
    """
    n, d = rows.shape
    lo, hi = max(d + 1, min_b), n - d - 1
    if lo > hi:
        return None, -math.inf
    k = hi - lo + 1
    centred = rows - rows.mean(axis=0)
    s1 = np.cumsum(centred, axis=0)
    s2 = centred[:, :, None] * centred[:, None, :]
    np.cumsum(s2, axis=0, out=s2)
    b = np.arange(lo, hi + 1)
    covs = np.empty((2 * k + 1, d, d))
    covs[0] = s2[-1]
    _cov_from_sums(s1[-1], n, covs[0])
    covs[1 : k + 1] = s2[lo - 1 : hi]
    _cov_from_sums(s1[lo - 1 : hi], b, covs[1 : k + 1])
    np.subtract(s2[-1], s2[lo - 1 : hi], out=covs[k + 1 :])
    _cov_from_sums(s1[-1] - s1[lo - 1 : hi], n - b, covs[k + 1 :])
    del s2  # before the factorization, which allocates a stack as large as covs
    whole, left, right = np.split(_log_dets(covs, reg_epsilon), [1, k + 1])
    scores = _split_scores(n, b, whole, left, right, penalty(d, n, lam))
    best = int(np.argmax(scores))
    return lo + best, float(scores[best])


def _refine_split(
    vectors: np.ndarray, row: int, span: int, lam: float, reg_epsilon: float
) -> tuple[int, float]:
    """Re-localize a detected change in a span-row window centered on it.

    The coarse sweep can misplace a boundary by tens of rows when the
    transition sits at a window edge; the centered second pass pins it
    down. Falls back to the coarse location when the refinement window
    cannot be split.
    """
    lo = max(0, row - span // 2)
    hi = min(len(vectors), lo + span)
    lo = max(0, hi - span)
    b, score = _best_split(vectors[lo:hi], lam, reg_epsilon)
    if b is None or score <= 0:
        return row, -math.inf
    return lo + b, score


def detect_growing(features: FeatureMatrix, cfg: BicConfig | None = None) -> list[ChangePoint]:
    """Growing-window sweep: restart at each accepted change point.

    The window opens at n_ini rows and is scored at every admissible
    split. On a positive maximum the split is re-localized in an n_ini
    window centered on it, the refined row becomes a change point, and
    the sweep restarts there; otherwise the window grows by n_g rows up
    to n_max, after which it slides forward by n_s rows at constant size.
    Splits within n_ini rows of the last emitted point are inadmissible,
    which keeps consecutive detections at least n_ini rows apart.
    """
    cfg = cfg or BicConfig()
    n_rows = len(features)
    if n_rows == 0:
        return []
    d = features.dim
    if cfg.n_ini < 2 * (d + 1):
        raise PreconditionError("n_ini must hold at least 2(d+1) rows")
    points: list[ChangePoint] = []
    start = 0
    size = cfg.n_ini
    last_emit_row = None
    while start + size <= n_rows:
        window = features.vectors[start : start + size]
        min_b = 0 if last_emit_row is None else last_emit_row + cfg.n_ini - start
        b, score = _best_split(window, cfg.lam, cfg.reg_epsilon, min_b)
        if b is not None and score > 0:
            row, refined_score = _refine_split(
                features.vectors, start + b, cfg.n_ini, cfg.lam, cfg.reg_epsilon
            )
            if refined_score == -math.inf or (
                last_emit_row is not None and row - last_emit_row < cfg.n_ini
            ):
                row, refined_score = start + b, score
            points.append(ChangePoint(time_s=float(features.times[row]), score=refined_score))
            last_emit_row = row
            start = row
            size = cfg.n_ini
        elif size < cfg.n_max:
            grown = min(size + cfg.n_g, cfg.n_max)
            if start + grown > n_rows:
                break
            size = grown
        else:
            start += cfg.n_s
    return points


def _resolve_fixed_window(features: FeatureMatrix, cfg: BicConfig) -> int:
    if cfg.fixed_window is not None:
        return cfg.fixed_window
    return max(2, int(round(1.0 / features.hop_s)))


def fixed_window_scores(features: FeatureMatrix, cfg: BicConfig | None = None):
    """Center-split score curve of the sliding fixed window.

    Returns (times, scores) where each time is the center row's start
    time. Windows are scored _FIXED_BLOCK at a time, so working memory
    does not grow with the length of the recording.
    """
    cfg = cfg or BicConfig()
    n_rows = len(features)
    if n_rows < 2 or n_rows < (window := _resolve_fixed_window(features, cfg)):
        return np.empty(0), np.empty(0)
    half = window // 2
    d = features.dim
    starts = np.arange(0, n_rows - window + 1, cfg.n_s)
    times = features.times[starts + half]
    if half < d + 1 or window - half < d + 1:
        return times, np.full(len(starts), -math.inf)
    # (windows, window, d) view of the rows; nothing is copied here.
    windows = sliding_window_view(features.vectors, window, axis=0)[:: cfg.n_s]
    windows = np.swapaxes(windows, 1, 2)
    pen = penalty(d, window, cfg.lam)
    scores = np.empty(len(starts))
    for lo in range(0, len(starts), _FIXED_BLOCK):
        block = windows[lo : lo + _FIXED_BLOCK]
        covs = np.concatenate([_ml_cov(block), _ml_cov(block[:, :half]), _ml_cov(block[:, half:])])
        whole, left, right = np.split(_log_dets(covs, cfg.reg_epsilon), 3)
        scores[lo : lo + len(block)] = _split_scores(window, half, whole, left, right, pen)
    return times, scores


def detect_fixed(features: FeatureMatrix, cfg: BicConfig | None = None) -> list[ChangePoint]:
    """Fixed-window sweep: positive local maxima of the center-split curve.

    Non-maximum suppression keeps only the strongest peak within one
    window span; ties break toward the earlier time.
    """
    cfg = cfg or BicConfig()
    times, scores = fixed_window_scores(features, cfg)
    if len(scores) == 0:
        return []
    span_s = _resolve_fixed_window(features, cfg) * features.hop_s

    # Positive scores at least as high as both neighbours.
    peak = scores > 0
    peak[1:] &= scores[1:] >= scores[:-1]
    peak[:-1] &= scores[:-1] >= scores[1:]
    peaks = list(zip(times[peak], scores[peak]))

    accepted: list[tuple[float, float]] = []
    for t, s in sorted(peaks, key=lambda p: (-p[1], p[0])):
        if all(abs(t - t0) >= span_s for t0, _ in accepted):
            accepted.append((t, s))
    accepted.sort()
    return [ChangePoint(time_s=t, score=s) for t, s in accepted]


def verify_change(
    features: FeatureMatrix,
    t: float,
    window_s: float,
    lam: float = 1.0,
    reg_epsilon: float = DEFAULT_REG_EPSILON,
) -> tuple[bool, float]:
    """Score a hypothesized change at time t over a centered window.

    Takes the rows within [t - window_s/2, t + window_s/2], splits at the
    row nearest t and returns (accepted, score). Insufficient rows on
    either side verify negatively with a -inf sentinel rather than
    raising.
    """
    if window_s <= 0:
        raise PreconditionError("window_s must be positive")
    times = features.times
    mask = (times >= t - window_s / 2.0) & (times <= t + window_s / 2.0)
    idx = np.nonzero(mask)[0]
    if len(idx) == 0:
        return False, -math.inf
    rows = features.vectors[idx[0] : idx[-1] + 1]
    local_times = times[idx[0] : idx[-1] + 1]
    b = int(np.argmin(np.abs(local_times - t)))
    d = features.dim
    if b < d + 1 or len(rows) - b < d + 1:
        return False, -math.inf
    score = delta_bic(rows, b, lam, reg_epsilon)
    return score > 0, score


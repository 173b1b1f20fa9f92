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

Every score comes from one kernel (Cettolo & Vescovi, ICASSP 2003):
sums of centred rows and of their outer products give the left side of
a split and the whole window, a right side is the whole less its left
side, `_ml_log_dets` factors the left sides in one batched Cholesky call
and the whole window with the right sides in another (the whole window
is the right side of the split at 0), and `_scores` turns the
log-determinants into delta_bic. Batching changes no bit of a score:
each window is summed and each matrix factored on its own, so two calls
give the log-determinants that one would.

The kernel has two paths. `_split_scores` scores one split of each
window of a stack, centred at its window's mean, with one product per
side: `delta_bic` (and through it `verify_change`) splits a stack of
one, `fixed_window_scores` blocks of windows at their centre.
`_GrowingWindow` scores every admissible split of a window from running
sums that add its rows one by one: `detect_growing` keeps one for all
the windows that grow from one start, centred at the mean of the first
of them, extends its sums by the new rows only and factors each left
side once, when a window first admits its split; `_refine_split` scores
its one window with a fresh one, centred at that window's mean.

A running sum adds the rows before split b one by one where `delta_bic`
multiplies them out, so the two scores of split b differ in the last
bits: on random windows by at most about 5e-11 * n * d. Centring at the
first window's mean rather than each window's own moves the growing
sweep's scores further: on random windows by at most about
2.2e-9 * n * d, the most where the best split leaves d + 1 rows on the
right, a nearly singular side, whose score `delta_bic` rounds as badly.

Two sweep strategies emit multiple change points: a growing window that
restarts at each accepted change, and a fixed-size window slid at a
constant rate whose center-split score curve is peak-picked.

`_thin_peaks`, the greedy peak thinning of `detect_fixed`, also thins
the candidates of the pitch pipeline, which imports it.
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

# verify_change's tolerance on row start times, in seconds: far above the
# rounding of a frame time, far below any hop.
_TIME_TOL_S = 1e-9


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
    fixed_window_s: float = 1.0

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be >= 0 and finite")
        if not 0 < self.reg_epsilon < math.inf:
            raise ValueError("reg_epsilon must be positive and finite")
        if self.n_g < 1 or self.n_s < 1:
            raise ValueError("n_g and n_s must be >= 1")
        if self.n_max <= self.n_ini:
            raise ValueError("n_max must exceed n_ini")
        if not 0 < self.fixed_window_s < math.inf:
            raise ValueError("fixed_window_s must be positive and finite")


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
    centred = rows - rows.mean(axis=0)
    cov = centred.T @ centred / n
    log_det = float(_log_dets(cov.copy(), reg_epsilon))
    return GaussianStats(n=n, mean=rows.mean(axis=0), cov=cov, log_det=log_det)


def _log_dets(covs: np.ndarray, reg_epsilon: float) -> np.ndarray:
    """ln|cov + reg_epsilon * I| of a (d, d) matrix or of each of a stack, in one Cholesky call.

    Adds reg_epsilon to the diagonal of covs in place, so the caller must own covs.
    """
    np.einsum("...ii->...i", covs)[...] += reg_epsilon
    chol = np.linalg.cholesky(covs)
    return 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)


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
    return float(_split_scores(rows[None], b, lam, reg_epsilon)[0])


def _split_scores(windows: np.ndarray, b: int, lam: float, reg_epsilon: float) -> np.ndarray:
    """delta_bic of each window of a (k, n, d) stack split at b, as (k,).

    Rows are centred at their window's mean, and the centred copy is freed before any side
    is scored. Scoring a side overwrites its sums, so the right side, whole less left, goes
    first.
    """
    _, n, d = windows.shape
    centred = windows.copy()  # a copy, then in place: no ufunc buffers for strided windows
    centred -= centred.mean(axis=1, keepdims=True)
    first, last = centred[:, :b], centred[:, b:]
    s_left = first.sum(axis=1)[:, None]
    c_left = (np.swapaxes(first, 1, 2) @ first)[:, None]
    s_whole = last.sum(axis=1) + s_left[:, 0]
    c_whole = np.swapaxes(last, 1, 2) @ last
    c_whole += c_left[:, 0]
    del centred, first, last
    split = np.array([b])
    whole, right = _whole_and_right_log_dets(
        s_left, c_left, s_whole, c_whole, n, split, reg_epsilon
    )
    left = _ml_log_dets(s_left, c_left, split, reg_epsilon)
    return _scores(n, d, split, whole, left, right, lam)[:, 0]


def _scores(n: int, d: int, b: np.ndarray, whole, left, right, lam: float) -> np.ndarray:
    """delta_bic at splits b of an n-row window from the log-determinants of its sides."""
    return 0.5 * n * whole - 0.5 * b * left - 0.5 * (n - b) * right - penalty(d, n, lam)


def _whole_and_right_log_dets(s_left, c_left, s_whole, c_whole, n: int, b, reg_epsilon: float):
    """(whole, right): _ml_log_dets of the n-row whole window, shaped to broadcast against
    the splits, and of the right side of each split b, whole less left.

    Both come from one batch: the whole window is the right side of the split at 0.
    """
    slots = (*s_left.shape[:-2], len(b) + 1)
    sums = np.empty((*slots, *s_whole.shape[-1:]))
    outer = np.empty((*slots, *c_whole.shape[-2:]))
    sums[..., 0, :] = s_whole
    outer[..., 0, :, :] = c_whole
    np.subtract(s_whole[..., None, :], s_left, out=sums[..., 1:, :])
    np.subtract(c_whole[..., None, :, :], c_left, out=outer[..., 1:, :, :])
    log_dets = _ml_log_dets(sums, outer, np.concatenate([[n], n - b]), reg_epsilon)
    return log_dets[..., :1], log_dets[..., 1:]


def _ml_log_dets(sums: np.ndarray, outer: np.ndarray, count, reg_epsilon: float) -> np.ndarray:
    """_log_dets of the ML covariances of row sets of these counts; overwrites sums and outer."""
    count = np.asarray(count)[..., None]  # broadcasts against sums
    mean = np.divide(sums, count, out=sums)
    outer /= count[..., None]
    outer -= mean[..., :, None] * mean[..., None, :]
    return _log_dets(outer, reg_epsilon)


def _refine_split(
    vectors: np.ndarray, row: int, span: int, lam: float, reg_epsilon: float
) -> tuple[int, float]:
    """(split, score) of the first maximum of delta_bic over the admissible splits of a
    span-row window centered on a detected change, scored by a fresh _GrowingWindow.

    The coarse sweep can misplace a boundary by tens of rows when the
    transition sits at a window edge; the centered second pass pins it
    down. Near either end of the recording the window is clamped to it.
    The window must hold span >= 2(d + 1) rows, so it can be split.
    """
    lo = max(0, row - span // 2)
    hi = min(len(vectors), lo + span)
    lo = max(0, hi - span)
    window = vectors[lo:hi]
    b, score = _GrowingWindow(window, len(window), 0).best_split(len(window), lam, reg_epsilon)
    return lo + b, score


def detect_growing(features: FeatureMatrix, cfg: BicConfig | None = None) -> list[ChangePoint]:
    """Growing-window sweep: restart at each accepted change point.

    The window opens at n_ini rows and is scored at every admissible
    split. On a positive maximum the split is re-localized in an n_ini
    window centered on it, the refined row becomes a change point, and
    the sweep restarts there; otherwise the window grows by n_g rows up
    to n_max, after which it slides forward by n_s rows at constant size.
    A split, coarse or refined, is admissible only n_ini rows or more
    after the latest change point; a refined split that is not, or that
    does not score above 0, falls back to the coarse split.

    The windows that grow from one start share one _GrowingWindow: a
    grown window adds its new rows to the running sums and factors the
    left sides of its new splits only. A restart or a slide begins a new
    one, so the state never holds more than n_max + 1 slots of sums.
    """
    cfg = cfg or BicConfig()
    n_rows = len(features)
    if n_rows == 0:
        return []
    d = features.dim
    if cfg.n_ini < 2 * (d + 1):
        raise PreconditionError("n_ini must hold at least 2(d+1) rows")
    points: list[ChangePoint] = []
    # last is the row of the latest change point; -n_ini leaves every split admissible.
    start, size, last, window = 0, cfg.n_ini, -cfg.n_ini, None
    while start + size <= n_rows:
        if window is None:
            rows = features.vectors[start : start + cfg.n_max]
            window = _GrowingWindow(rows, size, last + cfg.n_ini - start)
        b, score = window.best_split(size, cfg.lam, cfg.reg_epsilon)
        if score > 0:
            row, refined = _refine_split(
                features.vectors, start + b, cfg.n_ini, cfg.lam, cfg.reg_epsilon
            )
            if refined <= 0 or row - last < cfg.n_ini:
                row, refined = start + b, score
            points.append(ChangePoint(time_s=float(features.times[row]), score=refined))
            start, size, last, window = row, cfg.n_ini, row, None
        elif size < cfg.n_max:
            size = min(size + cfg.n_g, cfg.n_max)
        else:
            start, window = start + cfg.n_s, None
    return points


class _GrowingWindow:
    """Every admissible split of the windows rows[:size] that grow from one start: their
    running sums and the log-determinants of the left sides scored so far.

    Slot j of the sums holds rows[:j], centred at the mean of the first window's rows, a
    point that stays fixed while the window grows; slot 0 is zero. A split's left side is
    its slot, its right side the window's slot less its own, and its left log-determinant
    is factored once, when a window first admits the split. detect_growing keeps one for
    all the windows from one start; _refine_split scores its one window with a fresh one.
    """

    def __init__(self, rows: np.ndarray, size: int, min_b: int):
        n, d = rows.shape
        self.rows = rows
        self.centre = rows[:size].mean(axis=0)
        self.lo = max(d + 1, min_b)
        self.sums = np.zeros((n + 1, d))
        self.outer = np.zeros((n + 1, d, d))
        self.left = np.empty(n + 1)
        self.summed = 0  # slots 0..summed hold sums; left holds splits lo..summed - d - 1

    def best_split(self, size: int, lam: float, reg_epsilon: float):
        """(split, score) of the first maximum of delta_bic over the splits of rows[:size]
        that leave min_b rows or more, and d + 1 or more, on the left and d + 1 or more on
        the right; (None, -inf) if there are none. size grows from call to call."""
        d = self.rows.shape[1]
        lo, hi = self.lo, size - d - 1
        if lo > hi:
            return None, -math.inf
        known = self.summed
        # Slot j + 1 adds row j to slot j, from the last slot summed on.
        sums, outer = self.sums[known : size + 1], self.outer[known : size + 1]
        np.subtract(self.rows[known:size], self.centre, out=sums[1:])
        np.multiply(sums[1:, :, None], sums[1:, None, :], out=outer[1:])
        np.cumsum(sums, axis=0, out=sums)
        np.cumsum(outer, axis=0, out=outer)
        new = np.arange(max(lo, known - d), hi + 1)
        self.left[new] = _ml_log_dets(self.sums[new], self.outer[new], new, reg_epsilon)
        self.summed = size
        b = np.arange(lo, hi + 1)
        whole, right = _whole_and_right_log_dets(
            self.sums[lo : hi + 1], self.outer[lo : hi + 1], self.sums[size], self.outer[size],
            size, b, reg_epsilon,
        )
        scores = _scores(size, d, b, whole, self.left[lo : hi + 1], right, lam)
        best = int(np.argmax(scores))
        return lo + best, float(scores[best])


def _resolve_fixed_window(features: FeatureMatrix, cfg: BicConfig) -> int:
    return max(2, int(round(cfg.fixed_window_s / features.hop_s)))


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
    scores = np.empty(len(starts))
    for lo in range(0, len(starts), _FIXED_BLOCK):
        block = windows[lo : lo + _FIXED_BLOCK]
        scores[lo : lo + len(block)] = _split_scores(block, half, cfg.lam, cfg.reg_epsilon)
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
    return [
        ChangePoint(time_s=t, score=s) for t, s in _thin_peaks(times[peak], scores[peak], span_s)
    ]


def _thin_peaks(times: np.ndarray, values: np.ndarray, min_gap_s: float) -> list[tuple]:
    """(time, value) of the peaks that greedy thinning keeps, in time order.

    Peaks are visited by decreasing value, the earlier time first on
    ties, and one is kept when it lies at least min_gap_s from every peak
    kept before it.
    """
    order = np.lexsort((times, -values))
    kept: list[tuple[float, float]] = []
    for t, v in zip(times[order].tolist(), values[order].tolist()):
        if all(abs(t - t0) >= min_gap_s for t0, _ in kept):
            kept.append((t, v))
    return sorted(kept)


def verify_change(
    features: FeatureMatrix,
    t: float,
    window_s: float,
    lam: float = 1.0,
    reg_epsilon: float = DEFAULT_REG_EPSILON,
) -> tuple[bool, float]:
    """Score a hypothesized change at time t over a centered window.

    Takes the rows starting within t ± (window_s/2 + tol), splits before
    the first that starts at or after t - tol (tol = _TIME_TOL_S) and
    returns (accepted, score). Too few rows on either side, or none,
    verify negatively with a -inf sentinel rather than raising.
    """
    if not window_s > 0:
        raise PreconditionError("window_s must be positive")
    times = features.times
    first = int(np.searchsorted(times, t - window_s / 2.0 - _TIME_TOL_S, side="left"))
    stop = int(np.searchsorted(times, t + window_s / 2.0 + _TIME_TOL_S, side="right"))
    rows = features.vectors[first:stop]
    b = int(np.searchsorted(times[first:stop], t - _TIME_TOL_S, side="left"))
    d = features.dim
    if b < d + 1 or len(rows) - b < d + 1:
        return False, -math.inf
    score = delta_bic(rows, b, lam, reg_epsilon)
    return score > 0, score


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
side, `_ml_log_dets` factors the sides in batched Cholesky calls, and
`_scores` turns their log-determinants into delta_bic. Batching changes
no bit of a score: each window is summed and each matrix factored on its
own, so a batch gives the log-determinants that one call per matrix
would.

The kernel has two paths. `_split_scores` scores one split of each
window of a stack, centred at its window's mean, with one product per
side, and factors the left side, the whole window and the right side of
every window in one call: `delta_bic` (and through it `verify_change`)
splits a stack of one, the fixed sweep blocks of windows at their
centre. `_GrowingWindow` scores every admissible split of a window from
running sums that add its rows one by one, and factors the whole window
with the right sides in one call, the whole being the right side of the
split at 0. `detect_growing` keeps its state for all the windows that
grow from one start, centred at the mean of the first of them, extends
its sums by the new rows only and factors each left side once, when a
window first admits its split. `_GrowingWindow.refine` scores the
window around a detected change, its sums centred at that window's mean.

One `_GrowingWindow` serves a whole `detect_growing` call. It holds
n + 1 slots of sums for the most rows a window can hold, n_max or the
whole recording if shorter, and every start, slide and refinement, the
first start included, restarts it in them. It factors its sides
_SPLIT_CHUNK splits at a time, through batch arrays allocated with it,
so a sweep's working memory is set by n_max and the chunk, not by the
length of the recording or the number of starts. Neither changes a bit
of a score: each matrix is summed and factored on its own.

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

The fixed sweep streams. It takes a FeatureMatrix or an iterable of
FeatureMatrix blocks of consecutive rows, as `mfcc_blocks` yields them,
and scores its windows _FIXED_BLOCK at a time as their rows arrive. It
holds only the rows from the next unscored window's start on: at most
(_FIXED_BLOCK - 1) * n_s + window rows, plus the last block. A
FeatureMatrix is one block, scored through views of its rows, and any
blocking gives every score and time the same bits. The growing sweep
takes the whole FeatureMatrix: its refinement reads up to n_ini / 2 rows
before the window's start, and every restart reads rows again, so
streaming it would need a look-back buffer.

`_thin_peaks`, the greedy peak thinning of `detect_fixed`, also thins
the candidates of the pitch pipeline, which imports it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PreconditionError
from .features import FeatureMatrix

DEFAULT_REG_EPSILON = 1e-6

# Windows per block of the fixed sweep: under 1 MB of working memory for
# one-second windows at a 5 ms hop. Larger blocks are no faster. The
# streamed sweep holds the rows of one such block.
_FIXED_BLOCK = 32

# Sides per batch of _GrowingWindow, factored through arrays allocated once per sweep.
# A sweep's working memory at the default sizes is 1.22 MB at 64, 1.46 MB at 128,
# 1.74 MB at 192 and 2.02 MB at 256: above 128 it passes mfcc's 1.6 MB and would raise
# the BIC methods' peak.
_SPLIT_CHUNK = 128

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
    is scored. Each window's sides are stacked [left, whole, right], the right the whole
    less the left, and factored in one _ml_log_dets call.
    """
    k, n, d = windows.shape
    centred = windows.copy()  # a copy, then in place: no ufunc buffers for strided windows
    centred -= centred.mean(axis=1, keepdims=True)
    first, last = centred[:, :b], centred[:, b:]
    sums, outer = np.empty((k, 3, d)), np.empty((k, 3, d, d))
    sums[:, 0], outer[:, 0] = first.sum(axis=1), np.swapaxes(first, 1, 2) @ first
    sums[:, 1], outer[:, 1] = last.sum(axis=1), np.swapaxes(last, 1, 2) @ last
    del centred, first, last
    for side in (sums, outer):
        side[:, 1] += side[:, 0]
        np.subtract(side[:, 1], side[:, 0], out=side[:, 2])
    left, whole, right = _ml_log_dets(sums, outer, [b, n, n - b], reg_epsilon).T
    return _scores(n, d, b, whole, left, right, lam)


def _scores(n: int, d: int, b: int | np.ndarray, whole, left, right, lam: float) -> np.ndarray:
    """delta_bic at splits b of an n-row window from the log-determinants of its sides."""
    return 0.5 * n * whole - 0.5 * b * left - 0.5 * (n - b) * right - penalty(d, n, lam)


def _ml_log_dets(
    sums: np.ndarray, outer: np.ndarray, count, reg_epsilon: float, products=None
) -> np.ndarray:
    """_log_dets of the ML covariances of row sets of these counts; overwrites sums and outer,
    and products, an array shaped like outer for the outer products of the means, if given."""
    count = np.asarray(count)[..., None]  # broadcasts against sums
    mean = np.divide(sums, count, out=sums)
    outer /= count[..., None]
    outer -= np.multiply(mean[..., :, None], mean[..., None, :], out=products)
    return _log_dets(outer, reg_epsilon)


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

    The windows that grow from one start share the state of a
    _GrowingWindow: a grown window adds its new rows to the running sums
    and factors the left sides of its new splits only. One _GrowingWindow
    serves the whole sweep: every start, slide and refinement restarts it.
    """
    cfg = cfg or BicConfig()
    n_rows = len(features)
    if n_rows == 0:
        return []
    d = features.dim
    if cfg.n_ini < 2 * (d + 1):
        raise PreconditionError("n_ini must hold at least 2(d+1) rows")
    points: list[ChangePoint] = []
    # No start or refinement holds more than n_max rows, nor more than the recording.
    window = _GrowingWindow(min(cfg.n_max, n_rows), d)
    # last is the row of the latest change point; -n_ini leaves every split admissible.
    start, size, last, fresh = 0, cfg.n_ini, -cfg.n_ini, True
    while start + size <= n_rows:
        if fresh:
            rows = features.vectors[start : start + cfg.n_max]
            window.restart(rows, size, last + cfg.n_ini - start)
        b, score = window.best_split(size, cfg.lam, cfg.reg_epsilon)
        fresh = score > 0 or size == cfg.n_max
        if score > 0:
            row, refined = window.refine(
                features.vectors, start + b, cfg.n_ini, cfg.lam, cfg.reg_epsilon
            )
            if refined <= 0 or row - last < cfg.n_ini:
                row, refined = start + b, score
            points.append(ChangePoint(time_s=float(features.times[row]), score=refined))
            start, size, last = row, cfg.n_ini, row
        elif size < cfg.n_max:
            size = min(size + cfg.n_g, cfg.n_max)
        else:
            start += cfg.n_s
    return points


class _GrowingWindow:
    """Every admissible split of the windows rows[:size] that grow from one start: their
    running sums and the log-determinants of the left sides scored so far.

    Slot j of the sums holds rows[:j], centred at the mean of the first window's rows, a
    point that stays fixed while the window grows; slot 0 is zero. A split's left side is
    its slot, its right side the window's slot less its own, and its left log-determinant
    is factored once, when a window first admits the split.

    Its arrays are allocated once, for windows of up to n rows of d features, and restart
    begins a new start in them: detect_growing keeps one for its whole sweep, and refine
    scores the window around a change in the sweep's. Sides are factored _SPLIT_CHUNK at
    a time in batch arrays of their own.
    """

    def __init__(self, n: int, d: int):
        self.sums = np.empty((n + 1, d))
        self.outer = np.empty((n + 1, d, d))
        self.left = np.empty(n + 1)
        # _ml_log_dets's sums, outer and products for one batch of sides.
        self.batch = (
            np.empty((_SPLIT_CHUNK, d)),
            np.empty((_SPLIT_CHUNK, d, d)),
            np.empty((_SPLIT_CHUNK, d, d)),
        )

    def restart(self, rows: np.ndarray, size: int, min_b: int):
        """Begin the windows rows[:size] that grow from a new start."""
        d = rows.shape[1]
        self.rows = rows
        self.centre = rows[:size].mean(axis=0)
        self.lo = max(d + 1, min_b)
        self.sums[0] = 0.0
        self.outer[0] = 0.0
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
        self.summed = size
        new = np.arange(max(lo, known - d), hi + 1)
        self.left[new] = self._side_log_dets(new, None, reg_epsilon)
        # The whole window is the right side of the split at 0, whose slot is zero.
        b = np.arange(lo, hi + 1)
        whole_and_right = self._side_log_dets(np.concatenate([[0], b]), size, reg_epsilon)
        whole, right = whole_and_right[:1], whole_and_right[1:]
        scores = _scores(size, d, b, whole, self.left[lo : hi + 1], right, lam)
        best = int(np.argmax(scores))
        return lo + best, float(scores[best])

    def refine(self, vectors: np.ndarray, row: int, span: int, lam: float, reg_epsilon: float):
        """(split, score) of the first maximum of delta_bic over the admissible splits of a
        span-row window of vectors centered on a detected change, scored in this window's
        arrays: a sweep that refines must restart it before it scores its next window.

        The coarse sweep can misplace a boundary by tens of rows when the
        transition sits at a window edge; the centered second pass pins it
        down. Near either end of the recording the window is clamped to it.
        The window must hold span >= 2(d + 1) rows, so it can be split.
        """
        lo = max(0, row - span // 2)
        hi = min(len(vectors), lo + span)
        lo = max(0, hi - span)
        self.restart(vectors[lo:hi], hi - lo, 0)
        b, score = self.best_split(hi - lo, lam, reg_epsilon)
        return lo + b, score

    def _side_log_dets(self, splits: np.ndarray, size: int | None, reg_epsilon: float):
        """_ml_log_dets of the left sides of these splits, or given size of their right sides
        in rows[:size], factored _SPLIT_CHUNK at a time in the batch arrays."""
        log_dets = np.empty(len(splits))
        batch_sums, batch_outer, products = self.batch
        for i in range(0, len(splits), _SPLIT_CHUNK):
            part = splits[i : i + _SPLIT_CHUNK]
            sums, outer = batch_sums[: len(part)], batch_outer[: len(part)]
            # mode="clip" takes into out directly, where the default would buffer a copy.
            np.take(self.sums, part, axis=0, out=sums, mode="clip")
            np.take(self.outer, part, axis=0, out=outer, mode="clip")
            count = part
            if size is not None:
                np.subtract(self.sums[size], sums, out=sums)
                np.subtract(self.outer[size], outer, out=outer)
                count = size - part
            log_dets[i : i + len(part)] = _ml_log_dets(
                sums, outer, count, reg_epsilon, products[: len(part)]
            )
        return log_dets


def fixed_window_scores(
    features: FeatureMatrix | Iterable[FeatureMatrix], cfg: BicConfig | None = None
):
    """Center-split score curve of the sliding fixed window.

    features is a FeatureMatrix, or an iterable of FeatureMatrix blocks
    that hold a recording's rows in order, such as `mfcc_blocks` yields.
    Returns (times, scores) where each time is the center row's start
    time.
    """
    times, scores, _ = _fixed_sweep(features, cfg or BicConfig())
    return times, scores


def detect_fixed(
    features: FeatureMatrix | Iterable[FeatureMatrix], cfg: BicConfig | None = None
) -> list[ChangePoint]:
    """Fixed-window sweep: positive local maxima of the center-split curve.

    features is a FeatureMatrix or an iterable of blocks, as for
    fixed_window_scores. Non-maximum suppression keeps only the strongest
    peak within one window span; ties break toward the earlier time.
    """
    times, scores, span_s = _fixed_sweep(features, cfg or BicConfig())
    if len(scores) == 0:
        return []
    # Positive scores at least as high as both neighbours.
    peak = scores > 0
    peak[1:] &= scores[1:] >= scores[:-1]
    peak[:-1] &= scores[:-1] >= scores[1:]
    return [
        ChangePoint(time_s=t, score=s) for t, s in _thin_peaks(times[peak], scores[peak], span_s)
    ]


def _fixed_sweep(features: FeatureMatrix | Iterable[FeatureMatrix], cfg: BicConfig):
    """(times, scores, window span in seconds) of the fixed windows, one every n_s rows.

    Windows are scored _FIXED_BLOCK at a time as their rows arrive. Only the rows from the
    next unscored window's start on are held, joined into one array when they cover the
    next _FIXED_BLOCK windows or the blocks end, so the working memory is set by the
    window, n_s and the size of a block, not by the length of the recording. A
    FeatureMatrix is one block, scored through views of its rows.
    """
    blocks = [features] if isinstance(features, FeatureMatrix) else features
    held: list[tuple[np.ndarray, np.ndarray]] = []  # (rows, times) from row `base` on
    count = base = scored = 0  # rows held, and windows scored
    last_time = -math.inf
    window = need = None  # rows per window, and per _FIXED_BLOCK windows
    hop_s = 0.0
    curve_times, curve_scores = [], []
    for block in itertools.chain(blocks, [None]):
        end = block is None
        if not end and len(block):
            if not block.times[0] > last_time:
                raise ValueError("times must be strictly increasing")
            last_time = block.times[-1]
            held.append((block.vectors, block.times))
            count += len(block)
        if window is None and count >= 2:
            first_two = np.concatenate([t[:2] for _, t in held[:2]])
            hop_s = float(first_two[1] - first_two[0])
            window = max(2, int(round(cfg.fixed_window_s / hop_s)))
            need = (_FIXED_BLOCK - 1) * cfg.n_s + window
        first = scored * cfg.n_s - base  # the next window's first row, in the held rows
        if window is None or (first + need > count and not end):
            continue
        if len(held) > 1:
            held = [(np.concatenate([r for r, _ in held]), np.concatenate([t for _, t in held]))]
        rows, times = held[0]
        fit = (count - first - window) // cfg.n_s + 1 if count >= first + window else 0
        fit = fit if end else fit - fit % _FIXED_BLOCK
        for lo in range(0, fit, _FIXED_BLOCK):
            k = min(_FIXED_BLOCK, fit - lo)
            start = first + lo * cfg.n_s
            stop = start + (k - 1) * cfg.n_s + window
            curve_scores.append(_fixed_block_scores(rows[start:stop], window, cfg))
            # A copy: a view would keep the joined rows' times alive.
            curve_times.append(times[start + window // 2 :: cfg.n_s][:k].copy())
        scored += fit
        drop = min(scored * cfg.n_s - base, count)
        held = [(rows[drop:], times[drop:])]
        base, count = base + drop, count - drop
    if not curve_scores:
        return np.empty(0), np.empty(0), 0.0
    return np.concatenate(curve_times), np.concatenate(curve_scores), window * hop_s


def _fixed_block_scores(rows: np.ndarray, window: int, cfg: BicConfig) -> np.ndarray:
    """Center-split scores of the windows of rows that start every n_s rows."""
    half = window // 2
    d = rows.shape[1]
    if half < d + 1 or window - half < d + 1:
        return np.full((len(rows) - window) // cfg.n_s + 1, -math.inf)
    # (windows, window, d) view of the rows; nothing is copied here.
    windows = np.swapaxes(sliding_window_view(rows, window, axis=0)[:: cfg.n_s], 1, 2)
    return _split_scores(windows, half, cfg.lam, cfg.reg_epsilon)


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


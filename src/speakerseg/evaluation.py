"""Scoring hypothesized change points against a reference, and the
change-point file format.

Detected and reference points are paired one-to-one within a time
tolerance, greedily by increasing pair distance. From the pairing:

    fd = false detections / total detections
    fr = missed reference points / total reference points
    f  = 2 (1-fd) (1-fr) / (2 - fd - fr)

Empty denominators score 0.0 by convention, and f is 0.0 at the
fd = fr = 1 limit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError

DEFAULT_TOLERANCE_S = 0.5


@dataclass(frozen=True)
class ChangePointSet:
    """Strictly increasing change times in seconds."""

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", times)
        if times.ndim != 1:
            raise FormatError("change points must form a 1-D sequence")
        if times.size and not np.all(np.isfinite(times)):
            raise FormatError("change points must be finite")
        if times.size and np.min(times) < 0:
            raise FormatError("change points must be >= 0 seconds")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise FormatError("change points must be strictly increasing")

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class EvalReport:
    fd: float
    fr: float
    f: float
    n_hyp: int
    n_ref: int
    n_matched: int
    tolerance_s: float

    def to_dict(self) -> dict:
        return asdict(self)


def match_points(
    reference: ChangePointSet, hypothesis: ChangePointSet, tolerance_s: float
) -> list[tuple[int, int]]:
    """One-to-one pairing within tolerance, greedy by pair distance.

    Ties in distance break toward the earlier reference, then earlier
    hypothesis time. Returns (reference index, hypothesis index) pairs.
    """
    if not tolerance_s >= 0:  # also rejects NaN
        raise ValueError("tolerance_s must be >= 0")
    ref, hyp = reference.times, hypothesis.times
    candidates = [
        (abs(ref[i] - hyp[j]), i, j)
        for i in range(len(ref))
        for j in range(len(hyp))
        if abs(ref[i] - hyp[j]) <= tolerance_s
    ]
    candidates.sort()
    used_ref: set[int] = set()
    used_hyp: set[int] = set()
    pairs = []
    for _, i, j in candidates:
        if i in used_ref or j in used_hyp:
            continue
        pairs.append((i, j))
        used_ref.add(i)
        used_hyp.add(j)
    return pairs


def fd_rate(n_hyp: int, n_matched: int) -> float:
    """False detections over total detections; 0.0 with no detections."""
    if n_hyp < 0 or n_matched < 0 or n_matched > n_hyp:
        raise ValueError("need 0 <= n_matched <= n_hyp")
    if n_hyp == 0:
        return 0.0
    return (n_hyp - n_matched) / n_hyp


def fr_rate(n_ref: int, n_matched: int) -> float:
    """Missed reference points over total reference points; 0.0 with none."""
    if n_ref < 0 or n_matched < 0 or n_matched > n_ref:
        raise ValueError("need 0 <= n_matched <= n_ref")
    if n_ref == 0:
        return 0.0
    return (n_ref - n_matched) / n_ref


def f_measure(fd: float, fr: float) -> float:
    """Combined accuracy score; 1.0 only at fd = fr = 0."""
    if not (0.0 <= fd <= 1.0 and 0.0 <= fr <= 1.0):
        raise ValueError("fd and fr must lie in [0, 1]")
    denom = 2.0 - fd - fr
    if denom == 0.0:
        return 0.0
    return 2.0 * (1.0 - fd) * (1.0 - fr) / denom


def evaluate(
    reference: ChangePointSet,
    hypothesis: ChangePointSet,
    tolerance_s: float = DEFAULT_TOLERANCE_S,
) -> EvalReport:
    pairs = match_points(reference, hypothesis, tolerance_s)
    n_matched = len(pairs)
    fd = fd_rate(len(hypothesis), n_matched)
    fr = fr_rate(len(reference), n_matched)
    return EvalReport(
        fd=fd,
        fr=fr,
        f=f_measure(fd, fr),
        n_hyp=len(hypothesis),
        n_ref=len(reference),
        n_matched=n_matched,
        tolerance_s=tolerance_s,
    )


def _text_lines(path) -> list[tuple[int, str]]:
    """(number, stripped text) of each non-blank line of a UTF-8 text file, numbered from 1.

    A leading byte-order mark is skipped; a file that is not UTF-8 raises FormatError.
    The change-point and config file readers share this.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text") from exc
    lines = enumerate(text.splitlines(), start=1)
    return [(lineno, stripped) for lineno, line in lines if (stripped := line.strip())]


def read_change_points(path) -> ChangePointSet:
    """One decimal timestamp (seconds) per line; blank lines ignored."""
    times = []
    for lineno, line in _text_lines(path):
        try:
            times.append(float(line))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: not a timestamp: {line!r}") from exc
    try:
        return ChangePointSet(np.asarray(times))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _change_point_lines(points: ChangePointSet) -> str:
    """The change-point file format: one timestamp per line, three decimals."""
    return "".join(f"{t:.3f}\n" for t in points.times)


def write_change_points(points: ChangePointSet, path) -> None:
    """Newline-terminated timestamps with three decimal places."""
    Path(path).write_text(_change_point_lines(points), encoding="utf-8")

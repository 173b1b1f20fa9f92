import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speakerseg.errors import FormatError
from speakerseg.evaluation import (
    ChangePointSet,
    evaluate,
    f_measure,
    match_points,
    read_change_points,
    write_change_points,
)


def points(*times):
    return ChangePointSet(np.asarray(times, dtype=np.float64))


def max_matching_size(ref, hyp, tol):
    """Exhaustive maximum bipartite matching via augmenting paths."""
    adjacency = [
        [j for j in range(len(hyp)) if abs(ref[i] - hyp[j]) <= tol]
        for i in range(len(ref))
    ]
    match_of_hyp = {}

    def try_assign(i, seen):
        for j in adjacency[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in match_of_hyp or try_assign(match_of_hyp[j], seen):
                match_of_hyp[j] = i
                return True
        return False

    return sum(try_assign(i, set()) for i in range(len(ref)))


def random_instance(rng, tol):
    """Reference turns spaced > 2*tol apart with jittered/cluttered hypotheses.

    Keeping reference points more than 2*tol apart mirrors real speaker
    turns and means no hypothesis can match two references.
    """
    n_ref = int(rng.integers(0, 9))
    gaps = rng.uniform(2.5 * tol, 10.0, n_ref)
    ref = np.cumsum(gaps) + 1.0
    hyp = []
    for t in ref:
        r = rng.uniform()
        if r < 0.6:
            hyp.append(t + rng.uniform(-1.2 * tol, 1.2 * tol))
        elif r < 0.8:
            hyp.append(t + rng.uniform(-1.2 * tol, 1.2 * tol))
            hyp.append(t + rng.uniform(-1.2 * tol, 1.2 * tol))
    for _ in range(int(rng.integers(0, 3))):
        hyp.append(rng.uniform(0.0, float(ref[-1]) + 5.0 if n_ref else 20.0))
    return ref.tolist(), sorted(set(hyp))[:8]


class TestMatchPoints:
    def test_example_one_match(self):
        pairs = match_points(points(1.0, 3.0), points(1.0, 5.0), 0.5)
        assert pairs == [(0, 0)]

    def test_identical_sets_fully_match(self):
        ref = points(1.0, 2.0, 3.5)
        assert len(match_points(ref, ref, 0.0)) == 3

    def test_each_point_used_once(self):
        pairs = match_points(points(1.0), points(0.8, 1.2), 0.5)
        assert len(pairs) == 1

    def test_greedy_equals_maximum_matching_on_turn_like_instances(self):
        rng = np.random.default_rng(20240817)
        tol = 0.5
        for _ in range(50):
            ref, hyp = random_instance(rng, tol)
            got = len(match_points(points(*ref), points(*hyp), tol))
            want = max_matching_size(ref, hyp, tol)
            assert got == want

    def test_tolerance_monotonicity(self):
        rng = np.random.default_rng(99)
        ref = sorted(rng.uniform(0, 30, 6))
        hyp = sorted(rng.uniform(0, 30, 7))
        sizes = [
            len(match_points(points(*ref), points(*hyp), tol))
            for tol in (0.1, 0.3, 0.5, 1.0, 3.0)
        ]
        assert sizes == sorted(sizes)

    @pytest.mark.parametrize("tol", [-0.1, float("nan")])
    def test_bad_tolerance_rejected(self, tol):
        ref = points(1.0, 2.0)
        with pytest.raises(ValueError):
            match_points(ref, ref, tol)
        with pytest.raises(ValueError):
            evaluate(ref, ref, tol)


class TestFMeasure:
    def test_perfect(self):
        assert f_measure(0.0, 0.0) == 1.0

    def test_published_operating_points(self):
        assert f_measure(0.4207, 0.0126) == pytest.approx(0.7302, abs=0.0005)
        assert f_measure(0.4287, 0.0063) == pytest.approx(0.7255, abs=0.0005)
        assert f_measure(0.3888, 0.0) == pytest.approx(0.7587, abs=0.0005)

    def test_degenerate_limit(self):
        assert f_measure(1.0, 1.0) == 0.0
        assert f_measure(1.0, 0.0) == 0.0
        assert f_measure(0.0, 1.0) == 0.0

    @given(
        fd=st.floats(min_value=0, max_value=0.99),
        fr=st.floats(min_value=0, max_value=0.99),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_monotonicity(self, fd, fr):
        assert f_measure(fd, fr) == pytest.approx(f_measure(fr, fd), rel=1e-12)
        assert f_measure(fd, fr) <= f_measure(max(fd - 0.01, 0.0), fr) + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            f_measure(-0.1, 0.0)


class TestEvaluate:
    def test_hand_case(self):
        report = evaluate(points(1.0, 3.0), points(1.0, 5.0), 0.5)
        assert report.fd == 0.5
        assert report.fr == 0.5
        assert report.f == pytest.approx(0.5)
        assert report.n_matched == 1

    def test_identical(self):
        ref = points(1.0, 2.0)
        report = evaluate(ref, ref, 0.1)
        assert (report.fd, report.fr, report.f) == (0.0, 0.0, 1.0)

    def test_empty_hypothesis(self):
        report = evaluate(points(1.0, 2.0), points(), 0.5)
        assert report.fd == 0.0
        assert report.fr == 1.0
        assert report.f == 0.0

    def test_empty_reference(self):
        report = evaluate(points(), points(1.0, 2.0), 0.5)
        assert (report.fd, report.fr, report.f) == (1.0, 0.0, 0.0)
        report = evaluate(points(), points(), 0.5)
        assert (report.fd, report.fr, report.f) == (0.0, 0.0, 1.0)

    def test_swap_exchanges_fd_fr(self):
        a = points(1.0, 4.0, 9.0)
        b = points(1.1, 6.0)
        fwd = evaluate(a, b, 0.5)
        rev = evaluate(b, a, 0.5)
        assert fwd.fd == rev.fr
        assert fwd.fr == rev.fd


class TestChangePointFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cp.txt"
        write_change_points(points(1.25, 3.5, 10.0), path)
        assert path.read_text() == "1.250\n3.500\n10.000\n"
        back = read_change_points(path)
        assert back.times.tolist() == [1.25, 3.5, 10.0]

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "cp.txt"
        path.write_text("1.0\n\n2.0\n")
        assert read_change_points(path).times.tolist() == [1.0, 2.0]

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "cp.txt"
        path.write_text("1.0\nbananas\n")
        with pytest.raises(FormatError):
            read_change_points(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1.0\n\xe9\n")
        with pytest.raises(FormatError, match="latin1.txt"):
            read_change_points(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Windows Notepad starts a UTF-8 file with U+FEFF; only a leading one is skipped.
        path = tmp_path / "cp.txt"
        path.write_bytes(b"\xef\xbb\xbf5.000\n")
        assert read_change_points(path).times.tolist() == [5.0]
        path.write_bytes(b"1.000\n\xef\xbb\xbf5.000\n")
        with pytest.raises(FormatError, match="not a timestamp"):
            read_change_points(path)

    def test_non_monotonic_rejected(self, tmp_path):
        path = tmp_path / "cp.txt"
        path.write_text("2.0\n1.0\n")
        with pytest.raises(FormatError):
            read_change_points(path)

    def test_set_validation(self):
        with pytest.raises(FormatError, match="1-D"):
            ChangePointSet(np.zeros((2, 2)))
        with pytest.raises(FormatError, match="finite"):
            points(1.0, np.nan)
        with pytest.raises(FormatError):
            points(1.0, 1.0)
        with pytest.raises(FormatError):
            points(-1.0)

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from speakerseg.audio_io import write_wav
from speakerseg.cli import (
    EXIT_FORMAT,
    EXIT_IO,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    RunConfig,
    build_method,
    main,
    parse_config_file,
    resolve_config,
)


@pytest.fixture(scope="module")
def synth_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthcli")
    wav, ref = root / "two.wav", root / "two.txt"
    code = main(
        [
            "synth",
            "--out",
            str(wav),
            "--ref-out",
            str(ref),
            "--speakers",
            "2",
            "--seconds",
            "5",
            "--seed",
            "11",
            "--f0",
            "110,220",
        ]
    )
    assert code == EXIT_OK
    return wav, ref


def test_import_loads_no_scipy():
    # numpy.fft is loaded at import, so its first use inside a segment
    # call does not load it.
    code = (
        "import sys, speakerseg.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
        "print('numpy.fft' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out.splitlines() == ["[]", "True"]


class TestExitCodes:
    def test_missing_audio_is_io_error(self, tmp_path, capsys):
        code = main(["pitch", str(tmp_path / "missing.wav")])
        assert code == EXIT_IO
        assert "missing.wav" in capsys.readouterr().err

    def test_unknown_method_is_usage_error(self, synth_files):
        wav, _ = synth_files
        assert main(["segment", str(wav), "--method", "hmm"]) == EXIT_USAGE

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_empty_audio_is_precondition_error(self, tmp_path, capsys):
        wav = tmp_path / "empty.wav"
        write_wav(wav, np.zeros(0), 8000)
        code = main(["pitch", str(wav)])
        assert code == EXIT_PRECONDITION
        assert "shorter than one frame" in capsys.readouterr().err

    def test_seed_on_segment_is_usage_error(self, synth_files):
        wav, _ = synth_files
        assert main(["segment", str(wav), "--seed", "1"]) == EXIT_USAGE

    def test_zero_sample_rate_is_format_error(self, synth_files, tmp_path):
        wav, _ = synth_files
        data = bytearray(wav.read_bytes())
        data[24:28] = bytes(4)  # the fmt chunk's sample rate
        bad = tmp_path / "rate0.wav"
        bad.write_bytes(data)
        assert main(["segment", str(bad)]) == EXIT_FORMAT
        assert main(["pitch", str(bad)]) == EXIT_FORMAT

    def test_non_utf8_text_is_format_error(self, synth_files, tmp_path, capsys):
        wav, _ = synth_files
        bad = tmp_path / "bin.txt"
        bad.write_bytes(b"\xff\xfe\x00\x81\n")
        assert main(["evaluate", str(bad), str(bad)]) == EXIT_FORMAT
        assert "bin.txt" in capsys.readouterr().err
        assert main(["segment", str(wav), "--config", str(bad)]) == EXIT_FORMAT
        assert "bin.txt" in capsys.readouterr().err

    def test_negative_tolerance_is_format_error(self, synth_files, tmp_path):
        _, ref = synth_files
        assert main(["evaluate", str(ref), str(ref), "--tolerance", "-1"]) == EXIT_FORMAT
        assert main(["evaluate", str(ref), str(ref), "--tolerance", "nan"]) == EXIT_FORMAT
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tolerance_s = -0.5\n")
        assert main(["evaluate", str(ref), str(ref), "--config", str(cfg)]) == EXIT_FORMAT

    @pytest.mark.parametrize(
        "setting",
        [
            "gamma = nan",
            "gamma = inf",
            "verify_window_s = nan",
            "lambda = nan",
            "lambda = inf",
            "reg_epsilon = nan",
            "reg_epsilon = inf",
            "min_gap_s = nan",
            "pitch_frame_s = nan",
            "pitch_frame_s = inf",
            "pitch_hop_s = nan",
            "pitch_hop_s = inf",
            "--seconds nan",
            "--seconds inf",
            "--f0 nan",
            "--noise nan",
        ],
    )
    def test_non_finite_value_is_format_error(self, setting, synth_files, tmp_path):
        wav, _ = synth_files
        if setting.startswith("--"):
            flag, value = setting.split()
            argv = ["synth", "--out", str(tmp_path / "s.wav"), "--ref-out", str(tmp_path / "s.txt")]
            assert main([*argv, flag, value]) == EXIT_FORMAT
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(setting + "\n")
            assert main(["segment", str(wav), "--config", str(cfg)]) == EXIT_FORMAT

    def test_threshold_rounding_to_zero_is_format_error(self, synth_files, tmp_path):
        # The candidate threshold 0.7 ** (1 / 0.0001) underflows to 0.0.
        wav, _ = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 0.0001\n")
        assert main(["segment", str(wav), "--config", str(cfg)]) == EXIT_FORMAT

    def test_malformed_ref_is_format_error(self, synth_files, tmp_path):
        wav, _ = synth_files
        bad = tmp_path / "bad.txt"
        bad.write_text("2.0\n1.0\n")
        assert main(["bench", str(wav), str(bad)]) == EXIT_FORMAT


    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_format_error(self, source, tmp_path, capsys):
        argv = ["synth", "--out", str(tmp_path / "s.wav"), "--ref-out", str(tmp_path / "s.txt")]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed = -3\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err
        assert not (tmp_path / "s.wav").exists()

    @pytest.mark.parametrize("methods", ["foo", "pitch,foo", "", " , ", "pitch,pitch"])
    def test_unknown_bench_method_is_usage_error(self, methods, synth_files, capsys):
        wav, ref = synth_files
        assert main(["bench", str(wav), str(ref), "--methods", methods]) == EXIT_USAGE
        assert "--methods" in capsys.readouterr().err

    def test_unknown_method_in_config_is_format_error(self, synth_files, tmp_path):
        wav, ref = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = foo\n")
        assert main(["bench", str(wav), str(ref), "--config", str(cfg)]) == EXIT_FORMAT
        assert main(["segment", str(wav), "--config", str(cfg)]) == EXIT_FORMAT


class TestPitchCommand:
    def test_tsv_header_and_rows(self, synth_files, capsys):
        wav, _ = synth_files
        assert main(["pitch", str(wav)]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "time_s\tpitch_hz"
        assert len(lines) > 900

    def test_out_file(self, synth_files, tmp_path):
        wav, _ = synth_files
        out = tmp_path / "track.tsv"
        assert main(["pitch", str(wav), "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith("time_s\tpitch_hz\n")


class TestFeaturesCommand:
    def test_tsv_holds_every_mfcc_row(self, synth_files, capsys):
        from speakerseg.audio_io import load_wav
        from speakerseg.features import mfcc

        wav, _ = synth_files
        assert main(["features", str(wav)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "time_s\t" + "\t".join(f"c{i}" for i in range(13))
        want = mfcc(load_wav(wav))
        assert len(lines) == len(want) + 1
        table = np.array([line.split("\t") for line in lines[1:]], dtype=np.float64)
        np.testing.assert_allclose(table[:, 0], want.times, rtol=0, atol=5.0001e-4)
        np.testing.assert_allclose(table[:, 1:], want.vectors, rtol=0, atol=5.0001e-7)


class TestSegmentCommand:
    def test_pitch_method_finds_boundary(self, synth_files, tmp_path):
        wav, _ = synth_files
        out = tmp_path / "cp.txt"
        js = tmp_path / "result.json"
        code = main(
            ["segment", str(wav), "--method", "pitch", "--out", str(out), "--json", str(js)]
        )
        assert code == EXIT_OK
        times = [float(line) for line in out.read_text().split()]
        assert len(times) == 1
        assert abs(times[0] - 5.0) <= 0.3
        payload = json.loads(js.read_text())
        assert payload["method"] == "pitch"
        assert payload["candidates_examined"] >= 1

    def test_bic_grow_method_finds_boundary(self, synth_files, tmp_path):
        wav, _ = synth_files
        out = tmp_path / "cp.txt"
        code = main(["segment", str(wav), "--method", "bic-grow", "--out", str(out)])
        assert code == EXIT_OK
        times = [float(line) for line in out.read_text().split()]
        assert len(times) == 1
        assert abs(times[0] - 5.0) <= 0.3

    def test_stdout_fallback(self, synth_files, capsys):
        wav, _ = synth_files
        assert main(["segment", str(wav), "--method", "pitch"]) == EXIT_OK
        out = capsys.readouterr().out
        assert abs(float(out.strip()) - 5.0) <= 0.3

    def test_out_dash_is_stdout(self, synth_files, tmp_path, monkeypatch, capsys):
        wav, _ = synth_files
        monkeypatch.chdir(tmp_path)
        assert main(["segment", str(wav), "--method", "pitch", "--out", "-"]) == EXIT_OK
        assert abs(float(capsys.readouterr().out.strip()) - 5.0) <= 0.3
        assert not (tmp_path / "-").exists()

    def test_json_on_stdout_is_only_json(self, synth_files, capsys):
        wav, _ = synth_files
        assert main(["segment", str(wav), "--method", "pitch", "--json", "-"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["change_points_s"]) == 1
        assert abs(payload["change_points_s"][0] - 5.0) <= 0.3

    def test_out_and_json_both_on_stdout_is_usage_error(
        self, synth_files, tmp_path, monkeypatch, capsys
    ):
        wav, _ = synth_files
        monkeypatch.chdir(tmp_path)
        assert main(["segment", str(wav), "--out", "-", "--json", "-"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "stdout" in captured.err
        assert list(tmp_path.iterdir()) == []


# `synth` arguments of two small fixtures; at noise 0.08 the pitch
# pipeline rejects candidates.
GOLDEN_FIXTURES = {
    "clean-16k": "--speakers 3 --seconds 4 --rate 16000 --noise 0.01 --seed 7",
    "noisy-8k": "--speakers 4 --seconds 4 --noise 0.08 --seed 3",
}

# (change points, candidates examined, candidates rejected) of each
# `segment --json` run; the segments follow from the change points.
GOLDEN_SEGMENTS = {
    ("clean-16k", "pitch"): ([3.985, 7.985], 2, 0),
    ("clean-16k", "bic-grow"): ([3.995, 7.995], 2, 0),
    ("clean-16k", "bic-fixed"): ([4.0, 8.0], 2, 0),
    ("noisy-8k", "pitch"): ([3.995], 6, 5),
    ("noisy-8k", "bic-grow"): ([3.99, 8.0, 11.99], 3, 0),
    ("noisy-8k", "bic-fixed"): ([4.0, 8.0, 12.0], 3, 0),
}


@pytest.fixture(scope="module")
def golden_wavs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    wavs = {}
    for name, args in GOLDEN_FIXTURES.items():
        wavs[name] = root / f"{name}.wav"
        synth = ["synth", "--out", str(wavs[name]), "--ref-out", str(root / f"{name}.txt")]
        assert main(synth + args.split()) == EXIT_OK
    return wavs


@pytest.mark.parametrize(
    "fixture, method", GOLDEN_SEGMENTS, ids=[f"{f}-{m}" for f, m in GOLDEN_SEGMENTS]
)
def test_segment_json_golden(fixture, method, golden_wavs, tmp_path):
    """Every field of `segment --json` but the wall time, as recorded."""
    wav = golden_wavs[fixture]
    js = tmp_path / "result.json"
    out = tmp_path / "cp.txt"
    args = ["segment", str(wav), "--method", method, "--out", str(out), "--json", str(js)]
    assert main(args) == EXIT_OK
    payload = json.loads(js.read_text())
    assert payload.pop("wall_time_s") > 0
    points, examined, rejected = GOLDEN_SEGMENTS[fixture, method]
    duration = {"clean-16k": 12.0, "noisy-8k": 16.0}[fixture]
    bounds = [0.0, *points, duration]
    assert payload == {
        "method": method,
        "audio": str(wav),
        "change_points_s": points,
        "segments": [[a, b] for a, b in zip(bounds, bounds[1:])],
        "candidates_examined": examined,
        "candidates_rejected": rejected,
    }
    assert [float(line) for line in out.read_text().split()] == points


class TestEvaluateCommand:
    def test_identical_files(self, synth_files, capsys):
        _, ref = synth_files
        assert main(["evaluate", str(ref), str(ref)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "f            1.0000" in out

    def test_disjoint_files(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1.0\n")
        b.write_text("50.0\n")
        assert main(["evaluate", str(a), str(b), "--json", "-"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["f"] == 0.0

    def test_hand_case_from_files(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        hyp = tmp_path / "hyp.txt"
        ref.write_text("1.0\n3.0\n")
        hyp.write_text("1.0\n5.0\n")
        code = main(["evaluate", str(ref), str(hyp), "--tolerance", "0.5", "--json", "-"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["fd"] == 0.5
        assert payload["fr"] == 0.5
        assert payload["f"] == pytest.approx(0.5)


class TestBenchCommand:
    def test_golden_output(self, synth_files, tmp_path, capsys):
        # Every byte except the timings: the wall_time_s and speedup cells
        # and the wall=/speedup= values are masked as "T".
        wav, ref = synth_files
        out = tmp_path / "bench.csv"
        methods = ["--methods", "pitch,bic-grow,bic-fixed", "--tolerance", "0.3"]
        assert main(["bench", str(wav), str(ref), *methods, "--out", str(out)]) == EXIT_OK
        csv = re.sub(rb"\d+\.\d{3},\d+\.\d{2}\n", b"T,T\n", out.read_bytes())
        csv = re.sub(rb"\d+\.\d{3},\n", b"T,\n", csv)
        assert csv == (
            b"method,fd,fr,f,wall_time_s,speedup\n"
            b"pitch,0.0000,0.0000,1.0000,T,T\n"
            b"bic-grow,0.0000,0.0000,1.0000,T,\n"
            b"bic-fixed,0.0000,0.0000,1.0000,T,\n"
        )
        err = re.sub(r"(wall=|speedup=)\d+\.\d+", r"\1T", capsys.readouterr().err)
        assert err.splitlines() == [
            "pitch: f=1.0000 wall=Ts",
            "bic-grow: f=1.0000 wall=Ts",
            "bic-fixed: f=1.0000 wall=Ts",
            "speedup=T",
        ]

    def test_two_methods_with_speedup(self, synth_files, tmp_path):
        wav, ref = synth_files
        out = tmp_path / "bench.csv"
        code = main(["bench", str(wav), str(ref), "--out", str(out), "--tolerance", "0.3"])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "method,fd,fr,f,wall_time_s,speedup"
        pitch_row = lines[1].split(",")
        assert pitch_row[0] == "pitch"
        assert float(pitch_row[-1]) > 0
        assert len(lines) == 3

    def test_single_method_no_speedup_column(self, synth_files, tmp_path):
        wav, ref = synth_files
        out = tmp_path / "bench.csv"
        code = main(["bench", str(wav), str(ref), "--methods", "pitch", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().splitlines()[0] == "method,fd,fr,f,wall_time_s"

    def test_failing_method_is_an_empty_row(self, synth_files, tmp_path, capsys):
        # n_ini below 2(d + 1) = 28 rows makes detect_growing raise, so
        # there is no speedup column, whether bic-grow runs first or last.
        wav, ref = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_ini = 20\n")
        out = tmp_path / "bench.csv"
        for order in ("pitch,bic-grow", "bic-grow,pitch"):
            args = ["bench", str(wav), str(ref), "--config", str(cfg), "--out", str(out)]
            assert main([*args, "--methods", order]) == EXIT_OK
            header, *rows = out.read_text().splitlines()
            assert header == "method,fd,fr,f,wall_time_s"
            cells = dict(row.split(",", 1) for row in rows)
            assert list(cells) == order.split(",")
            assert re.fullmatch(r"0\.0000,0\.0000,1\.0000,\d+\.\d{3}", cells["pitch"])
            assert re.fullmatch(r",,,\d+\.\d{3}", cells["bic-grow"])
            err = capsys.readouterr().err
            assert "bic-grow: failed: n_ini must hold" in err
            assert "pitch: f=1.0000 wall=" in err
            assert "speedup" not in err


class TestSynthCommand:
    def test_deterministic_given_seed(self, tmp_path):
        args = ["synth", "--speakers", "3", "--seconds", "1", "--seed", "5"]
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        assert main(args + ["--out", str(a), "--ref-out", str(tmp_path / "a.txt")]) == EXIT_OK
        assert main(args + ["--out", str(b), "--ref-out", str(tmp_path / "b.txt")]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_truth_file(self, tmp_path):
        code = main(
            [
                "synth",
                "--speakers",
                "2",
                "--seconds",
                "5",
                "--out",
                str(tmp_path / "x.wav"),
                "--ref-out",
                str(tmp_path / "x.txt"),
            ]
        )
        assert code == EXIT_OK
        assert (tmp_path / "x.txt").read_text() == "5.000\n"


class TestConfigResolution:
    def test_parse_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            "lambda = 1.2\n"
            "threshold_coef = 0.75\n"
            "n_ini = 120  # inline comment\n"
            "include_c0 = false\n"
            "fixed_window = none\n"
        )
        values = parse_config_file(cfg)
        assert values == {
            "lam": 1.2,
            "threshold_coef": 0.75,
            "n_ini": 120,
            "include_c0": False,
            "fixed_window": None,
        }

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        from speakerseg.errors import FormatError

        with pytest.raises(FormatError):
            parse_config_file(cfg)

    def test_non_utf8_file_rejected(self, tmp_path):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"method = pitch  # \xe9\n")
        from speakerseg.errors import FormatError

        with pytest.raises(FormatError, match="latin1.cfg"):
            parse_config_file(cfg)

    def test_gamma_c_is_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma_c = 1.5\n")
        assert main(["segment", "unread.wav", "--config", str(cfg), "--dry-run"]) == EXIT_FORMAT

    def test_readme_block_is_the_defaults(self, tmp_path, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1]
        block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(block)

        class Args:
            config = str(cfg)

        assert resolve_config(Args()) == RunConfig()
        keys = {line.split("=")[0].strip() for line in block.splitlines() if "=" in line}
        assert main(["segment", "unread.wav", "--dry-run"]) == EXIT_OK
        assert keys == set(json.loads(capsys.readouterr().out))

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tolerance_s = 0.9\nmethod = bic-grow\n")

        class Args:
            config = str(cfg)
            method = "pitch"
            tolerance = None
            seed = None

        resolved = resolve_config(Args())
        assert resolved.method == "pitch"  # flag wins
        assert resolved.tolerance_s == 0.9  # file wins over default

    def test_dry_run_prints_resolved_config(self, synth_files, tmp_path, capsys):
        wav, _ = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 0.5\n")
        code = main(["segment", str(wav), "--config", str(cfg), "--dry-run"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["gamma"] == 0.5
        assert payload["lambda"] == 1.0
        assert payload["method"] == "pitch"

    def test_reg_epsilon_reaches_pitch_verify(self, synth_files, tmp_path, monkeypatch):
        import speakerseg.pitch_seg as pitch_seg

        seen = []
        verify = pitch_seg.verify_change

        def recording_verify(features, t, window_s, lam, reg_epsilon):
            seen.append(reg_epsilon)
            return verify(features, t, window_s, lam, reg_epsilon)

        monkeypatch.setattr(pitch_seg, "verify_change", recording_verify)
        wav, _ = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = pitch\nreg_epsilon = 0.0025\n")
        assert main(["segment", str(wav), "--config", str(cfg)]) == EXIT_OK
        assert seen and set(seen) == {0.0025}

    def test_invalid_config_value_is_format_error(self, synth_files, tmp_path):
        wav, _ = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threshold_coef = 2.0\n")
        assert main(["segment", str(wav), "--config", str(cfg)]) == EXIT_FORMAT


class TestBuildMethod:
    def test_all_methods_run(self, synth_files):
        from speakerseg.audio_io import load_wav

        wav, _ = synth_files
        buffer = load_wav(wav)
        cfg = RunConfig()
        for name in ("pitch", "bic-grow", "bic-fixed"):
            result = build_method(name, cfg)(buffer)
            assert result.wall_time_s > 0
            assert len(result.change_points) >= 1


def config_leaves(node, path=()):
    """(path, value) of every leaf of a config tree, depth first."""
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if dataclasses.is_dataclass(value):
            yield from config_leaves(value, path + (field.name,))
        else:
            yield path + (field.name,), value


# Every config-file key with a valid non-default value, the leaf of the
# RunConfig tree it must set, and the value the leaf must then hold.
KEY_CASES = [
    ("method", "bic-grow", ("method",), "bic-grow"),
    ("tolerance_s", "0.25", ("tolerance_s",), 0.25),
    ("seed", "7", ("seed",), 7),
    ("pitch_method", "acf", ("seg", "pitch", "method"), "acf"),
    ("min_hz", "70", ("seg", "pitch", "min_hz"), 70.0),
    ("max_hz", "350.5", ("seg", "pitch", "max_hz"), 350.5),
    ("pitch_frame_s", "0.04", ("seg", "pitch", "frame_len_s"), 0.04),
    ("pitch_hop_s", "0.012", ("seg", "pitch", "hop_s"), 0.012),
    ("voicing_threshold", "0.4", ("seg", "pitch", "voicing_threshold"), 0.4),
    ("mfcc_window", "256", ("seg", "mfcc", "window_len"), 256),
    ("mfcc_overlap", "100", ("seg", "mfcc", "overlap"), 100),
    ("n_coeffs", "12", ("seg", "mfcc", "n_coeffs"), 12),
    ("n_mel_filters", "24", ("seg", "mfcc", "n_mel_filters"), 24),
    ("include_c0", "false", ("seg", "mfcc", "include_c0"), False),
    ("lambda", "1.3", ("seg", "bic", "lam"), 1.3),
    ("lam", "1.3", ("seg", "bic", "lam"), 1.3),
    ("reg_epsilon", "1e-5", ("seg", "bic", "reg_epsilon"), 1e-5),
    ("n_ini", "80", ("seg", "bic", "n_ini"), 80),
    ("n_g", "40", ("seg", "bic", "n_g"), 40),
    ("n_max", "500", ("seg", "bic", "n_max"), 500),
    ("n_s", "25", ("seg", "bic", "n_s"), 25),
    ("fixed_window", "150", ("seg", "bic", "fixed_window"), 150),
    ("threshold_coef", "0.6", ("seg", "threshold_coef"), 0.6),
    ("gamma", "0.4", ("seg", "gamma"), 0.4),
    ("verify_window_s", "0.5", ("seg", "verify_window_s"), 0.5),
    ("min_gap_s", "0.6", ("seg", "min_gap_s"), 0.6),
]


class TestConfigKeys:
    def test_every_leaf_has_one_key(self):
        paths = [path for path, _ in config_leaves(RunConfig())]
        keys = {key for key, *_ in KEY_CASES if key != "lam"}
        assert len(paths) == len(keys) == 25
        assert sorted(paths) == sorted({path for _, _, path, _ in KEY_CASES})

    def test_bad_fixed_window_is_format_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fixed_window = abc\n")
        assert main(["segment", "unread.wav", "--config", str(cfg), "--dry-run"]) == EXIT_FORMAT

    @pytest.mark.parametrize(
        "key, raw, path, value", KEY_CASES, ids=[case[0] for case in KEY_CASES]
    )
    def test_key_sets_only_its_leaf(self, key, raw, path, value, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {raw}\n")

        class Args:
            config = str(cfg)

        default = dict(config_leaves(RunConfig()))
        resolved = dict(config_leaves(resolve_config(Args())))
        changed = {p for p in default if resolved[p] != default[p]}
        assert changed == {path}
        assert resolved[path] == value

        assert main(["segment", "unread.wav", "--config", str(cfg), "--dry-run"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda" if key == "lam" else key] == value

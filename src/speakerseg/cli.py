"""Command-line front end.

Subcommands: pitch, features, segment, evaluate, synth. Tunables
resolve as defaults, then the --config file (flat "key = value" lines,
# comments), then explicit flags (--method, --tolerance, --seed, each only
where it is read); --dry-run prints the resolved configuration as JSON
and exits. Exit codes: 0 success, 1 usage, 2 missing/unreadable files,
3 malformed input, 4 input unsuitable for the requested analysis.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys

from .audio_io import load_wav
from .errors import FormatError, PreconditionError
from .evaluation import _change_point_lines, _text_lines, evaluate, read_change_points
from .features import mfcc
from .pitch import pitch_track
from .pitch_seg import SEG_METHODS, RunConfig, build_method
from .synth import SynthSpec, synth_to_files

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_FORMAT = 3
EXIT_PRECONDITION = 4

# A config key is the name of the RunConfig leaf it sets, except for these
# leaves, whose names alone would clash or not say which stage they tune.
_RENAMED = {
    ("seg", "pitch", "method"): "pitch_method",
    ("seg", "pitch", "frame_len_s"): "pitch_frame_s",
    ("seg", "pitch", "hop_s"): "pitch_hop_s",
    ("seg", "mfcc", "window_len"): "mfcc_window",
    ("seg", "mfcc", "overlap"): "mfcc_overlap",
    ("seg", "bic", "lam"): "lambda",
}


def _leaves(node, path=()):
    """(key, value) of every leaf of a config tree, depth first."""
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, path + (f.name,))
        else:
            yield _RENAMED.get(path + (f.name,), f.name), value


# Each leaf's default has the type of its values, so it names the parser of a raw value.
_DEFAULTS = dict(_leaves(RunConfig()))


def _with_values(node, values: dict, path=()):
    """Copy of a config tree with the leaves named by values' keys set.

    Built bottom-up, so each dataclass validates its own fields.
    """
    changes = {}
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        key = _RENAMED.get(path + (f.name,), f.name)
        if dataclasses.is_dataclass(value):
            changes[f.name] = _with_values(value, values, path + (f.name,))
        elif key in values:
            changes[f.name] = values[key]
    return dataclasses.replace(node, **changes)


def _coerce(default, raw: str, key: str):
    """raw parsed as the type of default: a str, int, float or bool leaf."""
    if isinstance(default, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise FormatError(f"config key {key}: not a boolean: {raw!r}")
    try:
        return type(default)(raw)
    except ValueError as exc:
        raise FormatError(f"config key {key}: {exc}") from exc


def parse_config_file(path) -> dict:
    """Flat key = value lines; # starts a comment, blank lines ignored."""
    values: dict = {}
    for lineno, line in _text_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue  # a comment line
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise FormatError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(_DEFAULTS[key], raw, key)
    return values


def resolve_config(args) -> RunConfig:
    """defaults <- config file <- command-line flags, rightmost wins."""
    values: dict = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for flag, name in (("method", "method"), ("tolerance", "tolerance_s"), ("seed", "seed")):
        if getattr(args, flag, None) is not None:
            values[name] = getattr(args, flag)
    try:
        return _with_values(RunConfig(), values)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


@contextlib.contextmanager
def _output(path):
    """A text stream writing to path, or to stdout for None or '-'."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fp:
            yield fp


def _write_tsv(path, times, columns, rows, value_format: str) -> None:
    """A time_s column, then the named ones: times to 3 decimals, values in value_format."""
    with _output(path) as fp:
        fp.write("\t".join(["time_s", *columns]) + "\n")
        for t, row in zip(times, rows):
            fp.write(f"{t:.3f}\t" + "\t".join(format(v, value_format) for v in row) + "\n")


def cmd_pitch(args, cfg: RunConfig) -> int:
    buffer = load_wav(args.audio)
    track = pitch_track(buffer, cfg.seg.pitch)
    _write_tsv(args.out, track.times, ["pitch_hz"], track.pitch_hz[:, None], ".3f")
    return EXIT_OK


def cmd_features(args, cfg: RunConfig) -> int:
    buffer = load_wav(args.audio)
    features = mfcc(buffer, cfg.seg.mfcc)
    columns = [f"c{i}" for i in range(features.dim)]
    _write_tsv(args.out, features.times, columns, features.vectors, ".6f")
    return EXIT_OK


def cmd_segment(args, cfg: RunConfig) -> int:
    if args.json == "-" and args.out == "-":
        print("error: --out - and --json - cannot both write to stdout", file=sys.stderr)
        return EXIT_USAGE
    buffer = load_wav(args.audio)
    run = build_method(cfg.method, cfg)
    result = run(buffer)
    # JSON on stdout is all that goes there; it holds the change points.
    if args.out is not None or args.json != "-":
        with _output(args.out) as fp:
            fp.write(_change_point_lines(result.change_points))
    if args.json:
        payload = {"method": cfg.method, "audio": str(args.audio), **result.to_dict()}
        with _output(args.json) as fp:
            fp.write(json.dumps(payload, indent=2) + "\n")
    print(f"wall_time_s={result.wall_time_s:.3f}", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args, cfg: RunConfig) -> int:
    reference = read_change_points(args.reference)
    hypothesis = read_change_points(args.hypothesis)
    report = dataclasses.asdict(evaluate(reference, hypothesis, cfg.tolerance_s))
    if args.json:
        with _output(args.json) as fp:
            fp.write(json.dumps(report, indent=2) + "\n")
        return EXIT_OK
    # Seconds to the millisecond, rates to 4 decimals, counts whole.
    width = max(map(len, report))
    for key, value in report.items():
        spec = ".3f" if key.endswith("_s") else ".4f" if isinstance(value, float) else ""
        print(f"{key:<{width}}  {value:{spec}}")
    return EXIT_OK


def _parse_float_list(raw: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise FormatError(f"{flag}: {exc}") from exc


def cmd_synth(args, cfg: RunConfig) -> int:
    durations = _parse_float_list(args.seconds, "--seconds")
    duration_s = durations[0] if len(durations) == 1 else durations
    f0 = _parse_float_list(args.f0, "--f0") if args.f0 else None
    try:
        spec = SynthSpec(
            n_speakers=args.speakers,
            duration_s=duration_s,
            f0_hz=f0,
            noise_level=args.noise,
            sample_rate_hz=args.rate,
            seed=cfg.seed,
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    buffer, truth = synth_to_files(spec, args.out, args.ref_out)
    print(
        f"wrote {args.out} ({buffer.duration_s:.1f}s at {buffer.sample_rate_hz} Hz) "
        f"and {args.ref_out} ({len(truth)} change points)",
        file=sys.stderr,
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="speakerseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--dry-run", action="store_true", help="print resolved config and exit")

    p = sub.add_parser("pitch", parents=[common], help="pitch track as TSV")
    p.add_argument("audio")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_pitch)

    p = sub.add_parser("features", parents=[common], help="MFCC matrix as TSV")
    p.add_argument("audio")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("segment", parents=[common], help="detect speaker changes")
    p.add_argument("audio")
    p.add_argument("--method", choices=SEG_METHODS, help="segmentation method")
    p.add_argument("--out", help="change-point file (default stdout, unless --json is '-')")
    p.add_argument("--json", help="write the full result as JSON ('-' for stdout)")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("evaluate", parents=[common], help="score a hypothesis against a reference")
    p.add_argument("reference")
    p.add_argument("hypothesis")
    p.add_argument("--json", help="write the report as JSON ('-' for stdout)")
    p.add_argument("--tolerance", type=float, help="match tolerance in seconds")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic multi-speaker WAV")
    p.add_argument("--out", required=True, help="WAV output path")
    p.add_argument("--ref-out", required=True, help="ground-truth change-point file")
    p.add_argument("--speakers", type=int, default=2)
    p.add_argument("--seconds", default="5.0", help="per-speaker duration, or comma list")
    p.add_argument("--f0", help="comma-separated fundamentals in Hz")
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--rate", type=int, default=8000)
    p.add_argument("--seed", type=int, help="seed for synthetic generation")
    p.set_defaults(func=cmd_synth)

    return parser


# Built once: parse_args keeps no state between calls.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        if args.dry_run:
            print(json.dumps(dict(_leaves(cfg)), indent=2, sort_keys=True))
            return EXIT_OK
        return args.func(args, cfg)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_IO
    except IsADirectoryError as exc:
        print(f"error: not a file: {exc.filename or exc}", file=sys.stderr)
        return EXIT_IO
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

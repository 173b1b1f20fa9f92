#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 segbench/selftest.py

Run from the root of a checkout; takes about a minute. It checks that
each run is correct with no failed call (error_rate 0), and that every
metric BENCHMARK.json names, plus the printed-only fd, fr and
error_rate, is emitted with its unit.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check(workload: str, trace: int) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--tiny"])
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if code != 0 or not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"exit {code}, correct {result['correct']}, "
                        f"failed {result['failed']} of {result['attempted']}")
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metrics {sorted(set(metrics) ^ set(expected))} differ from BENCHMARK.json")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name}: {got} has not unit {unit} and a number")
    if trace == 0:
        for name, unit, _ in run.PRINTED_ONLY:
            printed = [line.split() for line in lines if line.split()[:1] == [name]]
            if not printed or printed[0][2] != unit:
                problems.append(f"{name} not printed with unit {unit}")
            elif name == "error_rate" and float(printed[0][1]) != 0.0:
                problems.append(f"error_rate {printed[0][1]}")
    elif "absent: none" not in lines:
        problems.append("a traced function is absent: " + next(
            (line for line in lines if line.startswith("absent:")), "no absent line"))
    return [f"{workload} trace {trace}: {p}" for p in problems]


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check(workload, trace)
            print(f"{workload:<16} trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    if problems:
        print(*problems, sep="\n", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Regenerate pins.json: the canary digest and the corpus digest of every
workload for seeds 0 to 31.

    python3 segbench/pin.py

Run from the root of a checkout. Pins change only when the synthesizer's
output changes, and then every earlier result stops being comparable.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from workloads import PINS_FILE, WORKLOADS, build_corpus, canary_digest, corpus_digest

PINNED_SEEDS = range(32)


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import speakerseg

    pins = {"canary": "", "workloads": {}}
    work = Path(__file__).resolve().parent / "work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="pin-", dir=work) as tmp:
        pins["canary"] = canary_digest(speakerseg, Path(tmp))
        for name in WORKLOADS:
            pins["workloads"][name] = {
                str(seed): corpus_digest(build_corpus(speakerseg, name, seed, False, Path(tmp)))
                for seed in PINNED_SEEDS
            }
    PINS_FILE.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

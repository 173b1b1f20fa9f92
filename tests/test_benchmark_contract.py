"""The benchmark's tracer (segbench/tracer.py) wraps package functions by name.

A refactor that deletes or renames one of them makes the traced benchmark
pass report it as absent, so the tracer's targets are checked here too. A
function called only through a path that the wrappers miss reports no
span, so the tracer is also run on one segmenter here.
"""

import importlib
import importlib.util
from pathlib import Path

from speakerseg.audio_io import load_wav
from speakerseg.features import mfcc
from speakerseg.pitch_seg import RunConfig, build_method
from speakerseg.synth import SynthSpec, synth_to_files

TRACER = Path(__file__).parents[1] / "segbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("segbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_function_is_defined():
    tracer = load_tracer()
    assert tracer.TARGETS
    missing = [
        f"{module}.{name}"
        for module, name in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"{tracer.PACKAGE}.{module}"), name, None))
    ]
    assert missing == []


def test_tracer_sees_the_fixed_sweeps_mfcc(tmp_path):
    """bic-fixed reads its MFCC rows through features.mfcc, one range per batch of
    windows, so the traced run counts every row of the recording in mfcc spans."""
    spec = SynthSpec(n_speakers=2, duration_s=30.0, seed=1)
    synth_to_files(spec, tmp_path / "r.wav", tmp_path / "r.txt")
    buffer = load_wav(tmp_path / "r.wav")
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        build_method("bic-fixed", RunConfig())(buffer)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("features.mfcc") > 1
    assert tracer.counts[None]["rows"] == len(mfcc(buffer))
    assert tracer.absent == []

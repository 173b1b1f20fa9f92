"""The benchmark's tracer (segbench/tracer.py) wraps package functions by name.

A refactor that deletes or renames one of them makes the traced benchmark
pass report it as absent, so the tracer's targets are checked here too.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).parents[1] / "segbench" / "tracer.py"


def test_every_traced_function_is_defined():
    spec = importlib.util.spec_from_file_location("segbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        f"{module}.{name}"
        for module, name in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"{tracer.PACKAGE}.{module}"), name, None))
    ]
    assert missing == []

import ast
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import speakerseg
from speakerseg.cli import EXIT_OK, main

README = Path(__file__).parents[1] / "README.md"


def section(title):
    return README.read_text(encoding="utf-8").split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def test_library_use_names_are_exported():
    paragraph = next(p for p in section("Library use").split("\n\n") if "top-level package" in p)
    names = set(re.findall(r"`([A-Za-z_]\w*)`", paragraph))
    assert len(names) >= 10
    assert names <= set(speakerseg.__all__), names - set(speakerseg.__all__)


def test_quick_start_commands_run(tmp_path, monkeypatch, capsys):
    block = re.search(r"```sh\n(.*?)```", section("Quick start"), re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("speakerseg ")]
    assert [argv[1] for argv in commands] == ["synth", "segment", "evaluate"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == EXIT_OK, argv
        capsys.readouterr()
        for flag, name in zip(argv, argv[1:]):
            if flag in ("--out", "--ref-out", "--json"):
                assert (tmp_path / name).stat().st_size > 0, name


def test_private_names_in_the_docs_resolve():
    """Every backticked private name (`_x`, `module._x`, `Class._x`) in README and in
    the text of src/ is an attribute of the package, so no doc names deleted code."""
    modules = {
        info.name: importlib.import_module(f"speakerseg.{info.name}")
        for info in pkgutil.iter_modules(speakerseg.__path__)
    }

    def resolves(name):
        first, *rest = name.split(".")
        if first in modules:
            owners = [modules[first]]
        else:
            owners = [getattr(m, first) for m in modules.values() if hasattr(m, first)]
        for attr in rest:
            owners = [getattr(owner, attr) for owner in owners if hasattr(owner, attr)]
        return bool(owners)

    texts = [README, *sorted((README.parent / "src").rglob("*.py"))]
    names = {
        (path.name, name)
        for path in texts
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", path.read_text("utf-8"))
        if any(part.startswith("_") for part in name.split("."))
    }
    assert len(names) >= 5
    assert not {(path, name) for path, name in names if not resolves(name)}


def test_every_export_has_a_caller_in_src():
    """Each name in speakerseg.__all__ is loaded somewhere in src/ outside its own
    definition and __init__.py, so no public API's only caller is its own test."""
    exempt = {
        # Acceptance criterion 2a tests the one-frame estimator on its own.
        "pitch_frame",
        # The benchmark's tracer wraps it (segbench/tracer.py); ROADMAP item 2 drops it.
        "fit_gaussian",
    }
    loaded = set()
    for path in (README.parent / "src" / "speakerseg").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text("utf-8")).body:
            owner = getattr(statement, "name", None)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add((node.id, owner))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add((node.attr, owner))
    callers = {name for name, owner in loaded if name != owner}
    assert set(speakerseg.__all__) - callers == exempt

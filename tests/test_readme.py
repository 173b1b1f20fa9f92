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
    assert [argv[1] for argv in commands] == ["synth", "segment", "evaluate", "bench"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == EXIT_OK, argv
        capsys.readouterr()
        for flag, name in zip(argv, argv[1:]):
            if flag in ("--out", "--ref-out", "--json"):
                assert (tmp_path / name).stat().st_size > 0, name

import re
from pathlib import Path

import speakerseg


def test_library_use_names_are_exported():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    paragraph = next(p for p in section.split("\n\n") if "top-level package" in p)
    names = set(re.findall(r"`([A-Za-z_]\w*)`", paragraph))
    assert len(names) >= 10
    assert names <= set(speakerseg.__all__), names - set(speakerseg.__all__)

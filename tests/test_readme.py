import re
from pathlib import Path

import coalesce

README = Path(__file__).resolve().parent.parent / "README.md"


def _entry_point_names() -> list[str]:
    lines = README.read_text().splitlines()
    start = lines.index("The main entry points, by module:")
    names = []
    for line in lines[start + 1 :]:
        if names and not line.startswith("|"):
            break
        if line.startswith("|"):
            names += re.findall(r"`([A-Za-z_]\w*)`", line)
    return names


def test_readme_entry_points_are_exported():
    names = _entry_point_names()
    assert len(names) > 40
    missing = [name for name in names if name not in coalesce.__all__]
    assert missing == []

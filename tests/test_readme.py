"""Figures in README.md that the source tree can check."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_states_the_src_line_count():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"`src/mmlm` is ([\d,]+) lines", readme)
    assert match, "README no longer states the size of src/mmlm"
    lines = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src/mmlm").glob("*.py"))
    assert int(match.group(1).replace(",", "")) == lines

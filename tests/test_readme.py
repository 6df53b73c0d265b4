"""Figures in README.md that the source tree can check."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_states_the_src_line_count():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"`src/mmlm` is ([\d,]+) lines", readme)
    assert match, "README no longer states the size of src/mmlm"
    lines = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src/mmlm").glob("*.py"))
    assert int(match.group(1).replace(",", "")) == lines


def test_readme_states_the_test_count():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"# ([\d,]+) tests|runs ([\d,]+) tests", readme)
    assert len(stated) == 2, "README no longer states the test count in both places"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    collect = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                              "-p", "no:cacheprovider"],
                             cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    collected = re.search(r"^(\d+) tests collected", collect.stdout, re.MULTILINE)
    assert collected, collect.stdout[-2000:]
    for install, tests in stated:
        assert int((install or tests).replace(",", "")) == int(collected.group(1))

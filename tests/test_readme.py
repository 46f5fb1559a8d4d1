"""README's Python examples print what README says.

Each ```python block of README.md runs in a fresh interpreter. A print(...)
call's expected line is the "# ..." comment beside it or on the next line,
up to any " — " remark. The line printed must equal it, but for a dict shown
as "{'key': value, ..., ...}": each key shown must be printed, with the value
shown at the decimals shown.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)


def expected_lines(code: str) -> list[str]:
    lines = code.splitlines()
    expected = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            comment = line if "#" in line else lines[i + 1]
            expected.append(comment.split("#", 1)[1].split(" — ")[0].strip())
    return expected


def matches(printed: str, expected: str) -> bool:
    if not expected.endswith(", ...}"):
        return printed == expected
    values = dict(re.findall(r"'(\w+)': (-?[\d.]+)", printed))
    for key, shown in re.findall(r"'(\w+)': (-?[\d.]+)", expected):
        if key not in values:
            return False
        decimals = len(shown.partition(".")[2])
        if round(float(values[key]), decimals) != float(shown):
            return False
    return True


def test_readme_has_the_three_examples():
    assert len(BLOCKS) == 3
    assert [len(expected_lines(code)) for code in BLOCKS] == [1, 1, 2]


@pytest.mark.parametrize("code", BLOCKS, ids=[f"example{i + 1}" for i in range(len(BLOCKS))])
def test_readme_example_prints_what_readme_says(code):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    printed, expected = done.stdout.splitlines(), expected_lines(code)
    assert len(printed) == len(expected), done.stdout
    for got, want in zip(printed, expected):
        assert matches(got, want), f"printed {got!r}, README says {want!r}"

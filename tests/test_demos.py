"""Every demo script, and the README's library quickstart, runs to
completion against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# name -> source; the README's only python block is its quickstart
SCRIPTS = {path.stem: path.read_text() for path in DEMOS}
SCRIPTS["readme_quickstart"] = re.search(
    r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S
).group(1)
# the first line a script prints, where the text beside it promises one
FIRST_LINES = {"readme_quickstart": "all_off_unit_circle"}


def test_demos_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("name", SCRIPTS)
def test_demo_exits_0(name, tmp_path):
    script = tmp_path / f"{name}.py"
    script.write_text(SCRIPTS[name])
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    if name in FIRST_LINES:
        assert result.stdout.splitlines()[0] == FIRST_LINES[name]

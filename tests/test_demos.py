import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bayesmc.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_found():
    assert DEMOS, "no demos/*.py next to tests/"


def readme_quick_start():
    """The README's first python block, the library quick start."""
    return README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("demo", DEMOS + [README], ids=lambda p: p.stem)
def test_demo_runs(demo):
    argv = ["-c", readme_quick_start()] if demo == README else [str(demo)]
    out = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr


def readme_cli_lines():
    """The argv of each `bayesmc ...` line of README's sh blocks."""
    blocks = README.read_text(encoding="utf-8").split("```sh\n")[1:]
    lines = [line for block in blocks for line in block.split("```", 1)[0].splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("bayesmc ")]


def test_readme_cli_lines_found():
    assert len(readme_cli_lines()) >= 5


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=lambda argv: argv[0])
def test_readme_cli_line_runs(argv, tmp_path, monkeypatch):
    # relative --out paths land in tmp_path, and so does every other output
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BAYESMC_OUT", str(tmp_path / "out"))
    assert main(argv) == 0

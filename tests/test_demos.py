import subprocess
import sys
from pathlib import Path

import pytest

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

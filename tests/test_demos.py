"""Every demo script prints exactly what it printed when its golden output
in tests/demo_golden/ was recorded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "demo_golden"


def test_every_demo_has_a_golden():
    assert [d.stem for d in DEMOS] == sorted(g.stem for g in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT, timeout=60)
    assert run.returncode == 0, run.stderr.decode("utf-8", "replace")
    assert run.stdout.decode("utf-8") == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")

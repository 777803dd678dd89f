"""The narrative demos and the shipped example certificate run cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _run(args, **env_vars):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env_vars)
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    done = _run([str(demo)], TMPDIR=str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []  # no temporary file left behind


def test_example_certificate_passes():
    done = _run(["-m", "torellikit", "certify", "--file", "demos/example.cert"])
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("PASS")

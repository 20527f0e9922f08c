"""Every demo script runs to completion as a fresh process."""

import pathlib
import subprocess
import sys

import pytest

from conftest import cli_env

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    r = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                       capture_output=True, text=True, env=cli_env())
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout

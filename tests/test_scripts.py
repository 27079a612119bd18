"""The command-line scripts still run against the library."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], env=env,
        capture_output=True, text=True, timeout=120)


def test_throughput_trend_prints_one_row_per_size():
    proc = _script("throughput_trend.py", "--sizes", "16", "--rounds", "1")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["N", "K", "lambda_csm", "lambda_full"]
    assert len(rows) == 1 and rows[0].split()[0] == "16"

"""Smoke tests: each sweep script runs to completion on tiny arguments."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_bound_margins():
    proc = run_script("bound_margins.py", "--n-max", "2", "--count", "16")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # n = 1..2 for four families, n = 0..2 for mkz
    assert len(lines) == 11
    assert all("min margin" in line for line in lines)


def test_conjecture_scan(tmp_path):
    proc = run_script("conjecture_scan.py", "--n-max", "2", "--count", "16", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    reports = sorted(p.name for p in tmp_path.iterdir())
    assert reports == [
        f"logconvexity_{tag}_n{n:02d}.json" for tag in ("baskakov", "bernstein") for n in (1, 2)
    ]


def test_method_agreement():
    proc = run_script("method_agreement.py", "--points", "5")
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("overall worst:")
    assert float(last.split()[2]) < 1e-10

"""Smoke tests: each sweep script runs to completion on tiny arguments."""

import json
import os
import pathlib
import re
import subprocess
import sys

from sqsums.analysis import logconvexity_scan
from sqsums.bounds import bound_values, standard_grid
from sqsums.core import Params
from sqsums.families import FamilyId

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
    # n = 1..2 for four families, n = 0..2 for mkz, in the order of the family table
    assert len(lines) == 11
    # each line is the smallest margin of the points taken one at a time
    expect = []
    for name, n_lo in (("bernstein", 1), ("szasz", 1), ("baskakov", 1), ("bbh", 1), ("mkz", 0)):
        family = FamilyId(name)
        grid = standard_grid(family, count=16)
        for n in range(n_lo, 3):
            worst = min((bound_values(family, n, x) for x in grid), key=lambda r: r.min_margin)
            expect.append(
                f"{name:>9} n={n:2d}  min margin {worst.min_margin:+.3e} "
                f"at x={worst.x:.6g} (s={worst.s_value:.6g})"
            )
    assert lines == expect


def test_conjecture_scan(tmp_path):
    proc = run_script("conjecture_scan.py", "--n-max", "2", "--count", "16", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    reports = sorted(p.name for p in tmp_path.iterdir())
    assert reports == [
        f"logconvexity_{tag}_n{n:02d}.json" for tag in ("baskakov", "bernstein") for n in (1, 2)
    ]
    lines = proc.stdout.splitlines()
    assert len(lines) == 5 and all(re.search(r"  scan: \d+\.\d{3}s$", line) for line in lines[:4])
    # each file holds the bytes json.dumps(indent=2) writes for the report
    for c, tag in ((-1, "bernstein"), (1, "baskakov")):
        for n in (1, 2):
            doc = logconvexity_scan(Params(n, c), count=16).to_json()
            written = (tmp_path / f"logconvexity_{tag}_n{n:02d}.json").read_bytes()
            assert written == (json.dumps(doc, indent=2) + "\n").encode()


def test_method_agreement():
    proc = run_script("method_agreement.py", "--points", "5")
    assert proc.returncode == 0, proc.stderr
    *rows, last = proc.stdout.splitlines()
    assert last.startswith("overall worst:")
    assert float(last.split()[2]) < 1e-10
    # one row per battery pair and per far pair, each with its count of
    # closed-form rows delegated to quadrature (at c = 2 with odd n, a = n/2,
    # there are none) and each route's count of unfinished points: every
    # route finishes, the far rows up to x = 1e8 included
    pairs = {}
    for row in rows:
        m = re.fullmatch(
            r"(far )?c=\s*(\S+) n=\s*(\S+)  worst rel diff \S+ at x=\S+  delegated (\d+)  unfinished (\d+) (\d+) (\d+)",
            row,
        )
        assert m, row
        pairs[m[1] or "", m[2], m[3]] = int(m[4])
        assert m.group(5, 6, 7) == ("0", "0", "0"), row
    assert len(pairs) == 26 + 9 and ("", "3", "1") in pairs and ("far ", "1/2", "5") in pairs
    assert [pairs["", "2", n] for n in ("1", "5", "25")] == [0, 0, 0]

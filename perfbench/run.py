#!/usr/bin/env python3
"""Closed-loop benchmark of the sqsums CLI verbs, checked against oracles.

Run from the repository root:

    python3 perfbench/run.py --workload table_near --seed 1 --seconds 18 --trace 0

One client runs one operation at a time (a closed loop); each operation is
a real CLI invocation run in a child forked from a process that has
imported ``sqsums.cli`` and called nothing, so no cache carries over
between operations.  After the loop every operation's output is checked
against an oracle independent of the route that produced it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one round
twice per operation, untraced then traced, and prints the per-layer
metrics with the tracing overhead.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
run record (seed, versions, every operation's latency and verdict) goes to
``.bench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from baseline import classify  # noqa: E402
from workloads import WORKLOADS, make_round, rounds_for  # noqa: E402

# Per-operation latency limit.  Every baseline operation takes under 3.5 s,
# so a killed operation is a hang, never a slow machine, and the failure
# count repeats exactly for a given seed.
DEADLINE_S = 30.0
# No operation starts after this much loop time, so a run that hangs on
# every operation still ends within 180 s.  Operations not started are not
# attempted: a slow commit shows in the timings, not as failures.
LOOP_CUTOFF_S = 100.0
# Timed imports before the loop, and as many again after it.
SETUP_REPEATS = 6
OUT_DIR = ".bench_out"
# This host's speed for Python code moves by up to 1.4x between runs
# minutes apart (README.md, "Measurement noise").  A fixed loop, the gauge,
# is timed before every operation and after the last one, and every
# operation timing is scaled by PROBE_REF_S over the gauge's median in the
# run, so it reads as on the reference host and only the program's own
# changes move it.  setup_s is not scaled: import time does not follow it.
# PROBE_REF_S is the gauge's median on a 2-vCPU x86-64 virtual machine
# with Python 3.11.
PROBE_REF_S = 10.0e-3

E2E_UNITS = {
    "ok_ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _probe() -> float:
    """Seconds for a fixed big-integer loop: the host speed gauge.

    Of the loops tried (float, big-integer, Fraction), this one followed
    the speed of every workload's operations most closely.
    """
    a, b, acc = 3**400, 7**300, 0
    t0 = time.perf_counter()
    for i in range(3000):
        acc = (acc + a * (b + i)) % (a + i + 1)
    return time.perf_counter() - t0


def _time_imports(root: str, repeats: int) -> list[float]:
    """Wall times of fresh interpreters importing sqsums.cli."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-c", "import sqsums.cli"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=root, check=True)
        times.append(time.perf_counter() - t0)
    return times


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and its value."""
    xs = sorted(latencies)
    k = max(0, len(xs) - 11)
    return 100.0 * k / len(xs) if xs else 0.0, xs[k] if xs else 0.0


def _environment(root: str) -> dict:
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    pkg_dir = os.path.join(root, "src", "sqsums")
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "versions": versions,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class Outputs:
    """Distinct outputs of the run, kept on disk and keyed by their digest.

    Operations repeat across rounds, so each (argv, exit code, stdout)
    outcome is stored and checked once.
    """

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.paths: dict = {}

    def keep(self, op, r) -> tuple:
        with open(r.out_path, "rb") as fh:
            digest = hashlib.file_digest(fh, "sha256").hexdigest()
        last_err = ""
        if r.exit_code:
            lines = r.stderr().decode(errors="replace").strip().splitlines()
            last_err = lines[-1] if lines else ""
        key = (op.argv, r.exit_code, digest, last_err)
        if key not in self.paths:
            self.paths[key] = os.path.join(self.workdir, f"kept-{len(self.paths)}.out")
            os.replace(r.out_path, self.paths[key])
        return key

    def verdicts(self, ops, keys) -> list[tuple[bool, str]]:
        from oracles import Oracle, verdict

        oracle, qcache, seen = Oracle(), {}, {}
        out = []
        for op, key in zip(ops, keys):
            if key not in seen:
                with open(self.paths[key], "rb") as fh:
                    seen[key] = verdict(op, key[1], fh.read(), key[3], oracle, qcache)
            out.append(seen[key])
        return out


def _run_e2e(round_ops, rounds, workdir):
    """Run the round ``rounds`` times, one operation at a time."""
    from runner import run_op

    outputs = Outputs(workdir)
    ops, runs, keys, gauges = [], [], [], []
    start = time.perf_counter()
    for op in [op for _ in range(rounds) for op in round_ops]:
        if time.perf_counter() - start > LOOP_CUTOFF_S:
            break
        gauges.append(_probe())
        run = run_op(op.argv, workdir, DEADLINE_S)
        ops.append(op)
        runs.append(run)
        keys.append(outputs.keep(op, run))
    gauges.append(_probe())
    wall = time.perf_counter() - start - sum(gauges)
    verdicts = outputs.verdicts(ops, keys)
    ok = sum(1 for passed, _ in verdicts if passed)
    raw = [r.latency_s for r in runs]
    scale = PROBE_REF_S / statistics.median(gauges)
    latencies = [t * scale for t in raw]
    pct, tail = _tail(latencies)
    metrics = {
        "ok_ops_per_s": ok / (wall * scale),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail,
        "ok_frac": ok / len(ops),
        "peak_rss_mb": max(r.maxrss_kb for r in runs) / 1024.0,
    }
    notes = {
        "wall_s": wall,
        "tail_percentile": pct,
        "samples": len(latencies),
        "not_started": rounds * len(round_ops) - len(ops),
        "gauges_s": gauges,
        "scale": scale,
        "unscaled_ok_ops_per_s": ok / wall,
        "unscaled_op_p50_ms": 1e3 * statistics.median(raw),
        "unscaled_op_tail_ms": 1e3 * _tail(raw)[1],
    }
    return ops, runs, verdicts, metrics, notes


def _read_json(path: str):
    """Load and delete a child's result file; None if the child never wrote it."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        data = json.load(fh)
    os.remove(path)
    return data


def _run_traced(ops, workdir, spans_path):
    """Each operation untraced, then traced; the untraced output is checked."""
    from runner import run_op
    from tracing import per_layer_metrics, timed_hook, traced_hook

    outputs = Outputs(workdir)
    plain_res = os.path.join(workdir, "plain.json")
    traced_res = os.path.join(workdir, "traced.json")
    spans_tmp = os.path.join(workdir, "op.spans")
    runs, keys, summaries, untraced_cli_s, mismatches = [], [], [], 0.0, 0
    start = time.perf_counter()
    with open(spans_path, "w") as spans_out:
        for i, op in enumerate(ops):
            if time.perf_counter() - start > LOOP_CUTOFF_S:
                ops = ops[:i]
                break
            plain = run_op(op.argv, workdir, DEADLINE_S, timed_hook(plain_res), name="plain")
            traced = run_op(op.argv, workdir, DEADLINE_S, traced_hook(traced_res, spans_tmp, i), name="traced")
            if traced.exit_code != plain.exit_code or not filecmp.cmp(plain.out_path, traced.out_path, shallow=False):
                mismatches += 1
            runs.append(plain)
            keys.append(outputs.keep(op, plain))
            timing, summary = _read_json(plain_res), _read_json(traced_res)
            if timing is not None and summary is not None:
                untraced_cli_s += timing["cli_s"]
                summaries.append(summary)
                with open(spans_tmp) as fh:
                    shutil.copyfileobj(fh, spans_out)
            if os.path.exists(spans_tmp):
                os.remove(spans_tmp)
    verdicts = outputs.verdicts(ops, keys)
    metrics = per_layer_metrics(summaries, untraced_cli_s)
    notes = {
        "wall_s": time.perf_counter() - start,
        "traced_ops": len(summaries),
        "trace_mismatches": mismatches,
    }
    return ops, runs, verdicts, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sqsums", "cli.py")):
        print("error: run from the repository root; src/sqsums/cli.py not found", file=sys.stderr)
        return 2
    _time_imports(root, 1)  # writes the bytecode cache
    setup_times = _time_imports(root, SETUP_REPEATS)
    sys.path.insert(1, os.path.join(root, "src"))
    import sqsums.cli  # noqa: F401  -- the set-up every operation forks from

    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="ops-", dir=out_dir)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    round_ops = make_round(args.workload, args.seed)
    try:
        if args.trace:
            spans_path = os.path.join(out_dir, f"{tag}.spans.jsonl")
            ops, runs, verdicts, metrics, notes = _run_traced(round_ops, workdir, spans_path)
        else:
            rounds = rounds_for(args.workload, args.seconds)
            ops, runs, verdicts, metrics, notes = _run_e2e(round_ops, rounds, workdir)
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_times += _time_imports(root, SETUP_REPEATS)
    setup_s = min(setup_times)
    if not args.trace:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}

    # Every failure must be one of the workload's baseline failure classes;
    # on table_near, verify_exact and logconvex_scan there are none.
    classes = [None if passed else classify(args.workload, op, reason) for op, (passed, reason) in zip(ops, verdicts)]
    failed = sum(1 for passed, _ in verdicts if not passed)
    unexpected = sum(1 for (passed, _), cls in zip(verdicts, classes) if not passed and cls is None)
    correct = unexpected == 0 and notes.get("trace_mismatches", 0) == 0
    notes["unexpected_failures"] = unexpected
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "deadline_s": DEADLINE_S,
        "environment": _environment(root),
        "setup_times_s": setup_times,
        "notes": notes,
        "metrics": metrics,
        "operations": [
            {
                "argv": list(op.argv),
                "exit": r.exit_code,
                "latency_s": r.latency_s,
                "maxrss_kb": r.maxrss_kb,
                "passed": passed,
                "reason": reason,
                "baseline_class": cls,
            }
            for op, r, (passed, reason), cls in zip(ops, runs, verdicts, classes)
        ],
    }
    record_path = os.path.join(out_dir, f"{tag}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    reasons = sorted({cls or "UNEXPECTED " + reason.split(":")[0] for (passed, reason), cls in zip(verdicts, classes) if not passed})
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for key, val in notes.items():
        if not isinstance(val, list):
            print(f"# {key} = {val}")
    print(f"# failed {failed} of {len(ops)}{': ' + '; '.join(reasons) if reasons else ''}")
    print(f"# record: {os.path.relpath(record_path, root)}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

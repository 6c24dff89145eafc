"""Run one CLI operation in a child forked from the set-up process.

The set-up process has imported ``sqsums.cli`` and called nothing in it, so
every child starts with empty caches, as a new ``sqsums`` process would.
The child writes the CLI's stdout and stderr to files, as a shell
redirection would; the parent waits on a pidfd until the child exits or the
deadline passes, kills it in the latter case, and reaps it with ``wait4``
for its peak resident memory.
"""

from __future__ import annotations

import os
import select
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class OpRun:
    """Outcome of one operation; its stdout and stderr stay in files."""

    exit_code: Optional[int]  # None when the deadline killed the child
    latency_s: float
    maxrss_kb: int
    out_path: str
    err_path: str

    def stdout(self) -> bytes:
        with open(self.out_path, "rb") as fh:
            return fh.read()

    def stderr(self) -> bytes:
        with open(self.err_path, "rb") as fh:
            return fh.read()


def _child(argv: tuple, hook: Optional[Callable], out_fd: int, err_fd: int) -> int:
    os.dup2(out_fd, 1)
    os.dup2(err_fd, 2)
    sys.stdout = open(1, "w", closefd=False)
    sys.stderr = open(2, "w", closefd=False)
    from sqsums import cli

    code = 1
    try:
        if hook is None:
            code = cli.run(list(argv))
        else:
            code = hook(cli, list(argv))
    except BaseException:  # mirror the interpreter: traceback and exit 1
        traceback.print_exc()
        code = 1
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
    return code


def run_op(
    argv: tuple, workdir: str, deadline_s: float, hook: Optional[Callable] = None, name: str = "op"
) -> OpRun:
    """Fork, run ``cli.run(argv)`` in the child, and collect its outcome.

    ``hook(cli, argv)`` replaces the plain ``cli.run(argv)`` in the child;
    the tracer and the fault-injection self-tests use it.  Latency runs
    from the fork to the reaping of the child.  Output goes to
    ``<workdir>/<name>.out`` and ``.err``, which the next call with the same
    name overwrites; the parent never holds it in memory, so the memory of
    later children does not grow with earlier outputs.
    """
    out_path = os.path.join(workdir, f"{name}.out")
    err_path = os.path.join(workdir, f"{name}.err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd = os.open(out_path, flags, 0o644)
    err_fd = os.open(err_path, flags, 0o644)
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never returns
        code = 1
        try:
            code = _child(argv, hook, out_fd, err_fd)
        finally:
            os._exit(code if isinstance(code, int) and 0 <= code < 256 else 1)
    os.close(out_fd)
    os.close(err_fd)
    killed = False
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        if not poller.poll(deadline_s * 1000.0):
            os.kill(pid, signal.SIGKILL)
            killed = True
    finally:
        os.close(pidfd)
    _, status, usage = os.wait4(pid, 0)
    latency = time.perf_counter() - t0
    code = None if killed else os.waitstatus_to_exitcode(status)
    return OpRun(code, latency, usage.ru_maxrss, out_path, err_path)

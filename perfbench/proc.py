"""Run one child process with a deadline and collect its own resource usage.

``subprocess.run`` reaps the child with ``waitpid`` and drops its rusage, so
this helper drains the pipes itself and reaps with ``os.wait4``. A child that
passes its deadline is killed, and it is always reaped before returning.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import time
from dataclasses import dataclass


def child_env(root: str) -> dict[str, str]:
    """Environment for lrwkit child processes: the checkout's source, fixed
    string hashing, and the CLI's default box cap."""
    env = {k: v for k, v in os.environ.items() if k != "LRWKIT_MAX_BOXES"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Outcome:
    code: int | None  # None when the deadline killed the child
    stdout: bytes
    stderr: bytes
    seconds: float
    maxrss_kb: int


def run_child(
    argv: list[str],
    *,
    stdin: bytes = b"",
    env: dict[str, str] | None = None,
    cwd: str | None = None,
    timeout: float | None = None,
) -> Outcome:
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=cwd,
    )
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    out: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    sel.register(proc.stderr, selectors.EVENT_READ)
    pending = memoryview(stdin)
    if pending:
        sel.register(proc.stdin, selectors.EVENT_WRITE)
    else:
        proc.stdin.close()
    killed = False
    try:
        while sel.get_map():
            remaining = None
            if timeout is not None:
                remaining = start + timeout - time.perf_counter()
                if remaining <= 0:
                    proc.kill()
                    killed = True
                    break
            for key, _ in sel.select(remaining):
                if key.fileobj is proc.stdin:
                    try:
                        sent = os.write(key.fd, pending[:65536])
                    except BrokenPipeError:
                        sent = len(pending)
                    pending = pending[sent:]
                    if not pending:
                        sel.unregister(proc.stdin)
                        proc.stdin.close()
                    continue
                data = os.read(key.fd, 65536)
                if data:
                    out[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    finally:
        if not killed and sel.get_map():
            proc.kill()  # interrupted while reading: never leave the child running
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sel.close()
        for pipe in (proc.stdin, proc.stdout, proc.stderr):
            if not pipe.closed:
                pipe.close()
    return Outcome(
        None if killed else proc.returncode,
        b"".join(out[out_fd]),
        b"".join(out[err_fd]),
        seconds,
        usage.ru_maxrss,
    )

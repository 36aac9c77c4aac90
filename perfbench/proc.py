"""Child processes timed one at a time, and the order statistics the
benchmark reports.

Each child is reaped with os.wait4, which returns the resource usage of
that one child: CPU time and peak RSS belong to the operation, not to a
running maximum over every child so far as RUSAGE_CHILDREN would give.
"""

from __future__ import annotations

import math
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
PY = sys.executable
CLI = [PY, "-m", "chebotarev.cli"]
WORKER = [PY, str(HERE / "worker.py")]
TIMEOUT_S = 150.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Result:
    argv: list[str]
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    ready_s: float | None = None  # time until the child printed its first line


def run(argv: list[str], ready_line: bool = False) -> Result:
    """Run argv to completion.  With ready_line, also note when the
    child's first stdout line arrived (the worker prints one when its
    set-up is done)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=child_env())
    out, err = bytearray(), bytearray()
    ready = None
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ, out)
            sel.register(proc.stderr, selectors.EVENT_READ, err)
            while sel.get_map():
                left = TIMEOUT_S - (time.perf_counter() - start)
                if left <= 0:
                    raise TimeoutError(f"child ran over {TIMEOUT_S} s: {argv}")
                for key, _ in sel.select(left):
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(key.fileobj)
                        continue
                    key.data.extend(chunk)
                    if ready is None and ready_line and key.data is out and b"\n" in out:
                        ready = time.perf_counter() - start
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(argv, proc.returncode, bytes(out), bytes(err), wall,
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, ready)


def median(values):
    v = sorted(values)
    n = len(v)
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile with at least ten
    samples beyond it, but never below p90 (nearest rank).  Under 110
    samples the rule alone would fall below p90, and under 21 below the
    median, so p90 is reported there, with fewer than ten samples beyond."""
    v = sorted(values)
    n = len(v)
    k = max(n - 11, math.ceil(0.9 * n) - 1)
    return v[k], 100.0 * (k + 1) / n, n

"""Starts and times CLI processes on behalf of run.py, from a small process.

On Linux a child's `ru_maxrss` counts the resident set of the process
that started it, and the benchmark process holds numpy and every output;
so it starts this helper (standard library only) and lets it start each
invocation.  The helper copies the invocation's stdout to a file in
fixed-size chunks, so that its own resident set stays small, and reports
the invocation's wall time, the time to its first result line, its exit
status and its peak RSS.

Protocol over stdin/stdout: one JSON request per line,

    {"argv": [...], "header": "elements:" or null, "timeout": s,
     "stdout": path, "stderr": path}

answered by one JSON line,

    {"wall": s, "first": s or null, "status": code or null, "rss_kb": kb}

`status` is null when the invocation was killed at `timeout`.  Lines of
stdout that start with `header` do not count as the first result.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter

CHUNK = 1 << 16


def invoke(argv: list[str], header: bytes | None, timeout: float, stdout: str, stderr: str):
    killed = threading.Event()
    start = perf_counter()
    with open(stderr, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err)
    timer = threading.Timer(timeout, lambda: (killed.set(), proc.kill()))
    timer.start()
    try:
        first, pending = None, b""
        with open(stdout, "wb") as sink:
            while chunk := os.read(proc.stdout.fileno(), CHUNK):
                sink.write(chunk)
                if first is not None:
                    continue
                # Complete lines seen so far; the first that is not the
                # header is the first result.
                *lines, pending = (pending + chunk).split(b"\n")
                if any(not (header and line.startswith(header)) for line in lines):
                    first = perf_counter() - start
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "first": first,
        "status": None if killed.is_set() else proc.returncode,
        "rss_kb": usage.ru_maxrss,
    }


def main() -> int:
    for line in sys.stdin.buffer:
        req = json.loads(line)
        header = req["header"].encode() if req["header"] else None
        reply = invoke(req["argv"], header, req["timeout"], req["stdout"], req["stderr"])
        sys.stdout.buffer.write(json.dumps(reply).encode() + b"\n")
        sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

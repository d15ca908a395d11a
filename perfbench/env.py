"""Where the program under test lives, and the record of the machine a run used.

The benchmark measures the `geodual` sources of the checkout it sits in,
never an installed copy: `use_source_tree` puts `<checkout>/src` first on
the import path and refuses to go on when that tree is missing.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def use_source_tree() -> None:
    """Import `geodual` from the checkout's `src/`, or exit with code 2."""
    if not (SRC / "geodual" / "__init__.py").is_file():
        sys.exit(f"perfbench: no geodual sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import geodual

    if SRC not in Path(geodual.__file__).resolve().parents:
        sys.exit(f"perfbench: imported geodual from {geodual.__file__}, not {SRC}")


def child_env() -> dict[str, str]:
    """Environment for CLI processes: `geodual` from the same source tree."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def commit() -> str:
    """The checked-out commit, read from `.git` when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def record() -> dict:
    import numpy

    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }

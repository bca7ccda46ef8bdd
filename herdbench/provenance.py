"""Where a result came from, computed by the benchmark itself.

``BENCH_scaling.json`` records a commit three PRs older than the code
its numbers came from (ROADMAP item 1): the stamp was copied, not
measured.  Here every result carries what ``git`` says *now* about the
tree the benchmark is running from — ``commit`` and a ``dirty`` flag —
or ``null`` for both when the tree is not a git checkout (the
benchmark driver runs from an exported copy).
"""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Any, Dict, Optional

from herdbench import ROOT, SCHEMA


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(("git",) + args, cwd=ROOT, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def provenance() -> Dict[str, Any]:
    inside = _git("rev-parse", "--show-toplevel")
    # Only the repository rooted *here* counts: an exported copy that
    # sits inside some other checkout is not that checkout's commit.
    ours = inside is not None and \
        os.path.realpath(inside.strip()) == os.path.realpath(ROOT)
    commit = _git("rev-parse", "HEAD") if ours else None
    status = _git("status", "--porcelain") if ours else None
    return {
        "schema": SCHEMA,
        "commit": commit.strip() if commit else None,
        "dirty": bool(status.strip()) if status is not None else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }

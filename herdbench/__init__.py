"""herdbench: the full-stack real-time-factor benchmark of this repo.

Five named workloads drive the public protocol objects of ``repro``
(``LiveZone``, ``HerdTestbed``, ``create_wire_fabric``) end to end,
check every output, and report user-visible metrics from an untraced
pass and per-layer self times from a separately traced pass.  See
``herdbench/README.md``; ``python3 -m herdbench --help`` lists the
commands.
"""

import json
import os
import sys

#: The checkout root: the directory that holds ``herdbench/`` and
#: ``src/``.  The benchmark reads and writes nothing outside it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCHEMA = "herdbench/1"


def benchmark_spec() -> dict:
    """``BENCHMARK.json`` of this checkout, as loaded JSON."""
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def add_src_to_path() -> None:
    """Make ``repro`` importable from the checkout's own ``src/`` (the
    package is src-layout and not installed)."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)

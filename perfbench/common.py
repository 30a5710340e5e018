"""Shared helpers: checkout paths, provenance, quantiles, memory, counters.

Every module of the benchmark imports this first; it puts the checkout's
``src`` directory on ``sys.path`` so the package is used exactly as
committed (nothing is installed).
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = BENCH_DIR / "expected"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def nproc() -> int:
    """CPUs this process may run on (the bound on workers and threads)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def child_env() -> dict[str, str]:
    """Environment for a benchmark subprocess: the checkout's sources
    first, no inherited trace sink (telemetry would add file writes)."""
    env = dict(os.environ)
    parts = [str(SRC), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env.pop("REPRO_TRACE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def now() -> float:
    """The clock every phase boundary uses; system-wide on Linux, so a
    parent's launch stamp and a child's first-operation stamp compare."""
    return time.monotonic()


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set of this process, plus the largest reaped child.

    ``ru_maxrss`` is KiB on Linux.  ``RUSAGE_CHILDREN`` reports the
    largest single descendant that has been waited for, so a pool of
    identical workers is counted once per distinct peak, not summed.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if include_children
        else 0
    )
    return (own + kids) / 1024.0


def children_peak_rss_mb() -> float:
    """Peak resident set of the largest child this process has reaped."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def registry_snapshot() -> dict[str, float]:
    """Counters and gauges of the process-wide ``repro.obs`` registry."""
    from repro.obs.metrics import REGISTRY

    return dict(REGISTRY.snapshot())


def registry_delta(
    before: dict[str, float], after: dict[str, float]
) -> dict[str, float]:
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value - before.get(name, 0)
    }


def series_sum(snapshot: dict[str, float], name: str) -> float:
    """Sum of every labelled series of one metric name."""
    return sum(
        value
        for key, value in snapshot.items()
        if key == name or key.startswith(name + "{")
    )


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith(("model name", "cpu model")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance() -> dict[str, object]:
    """Where a result came from, stamped on every result record."""
    import numpy

    from repro import _backend

    return {
        "git_sha": _git_sha(),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": _backend.active_name(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def append_record(record: dict) -> Path:
    """Append one result record to the run ledger (never overwritten)."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "results.jsonl"
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())

"""Paths, statistics and run provenance shared by the workloads."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

#: The checkout root: the benchmark runs from it and writes only inside it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


def require_program() -> None:
    """Exit non-zero, printing no result, when the program is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC.relative_to(ROOT)}/repro", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports repro from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


#: The median of :func:`probe` on the reference host (2-core x86_64,
#: Python 3.11.7) when quiet.  Gated times are scaled to that speed.
PROBE_REFERENCE_S = 0.002


def probe() -> float:
    """Seconds for one fixed piece of stdlib-only Python work.

    It imports nothing from the program, so no change to the program can
    move it.  Its median over a run measures how fast the shared host
    ran during that run: dict and sort, big-int and set work, like the
    program's own.
    """
    start = time.perf_counter()
    table = {}
    for i in range(4000):
        table[(i * 7919) % 4001] = (i, str(i))
    sorted(table.items(), key=lambda item: item[1][1])
    x = 1
    for _ in range(300):
        x = (x * 6364136223846793005 + 1442695040888963407) & ((1 << 512) - 1)
    set().union(*(frozenset(range(i, i + 20)) for i in range(300)))
    return time.perf_counter() - start


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; values non-empty."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def commit() -> str:
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict[str, object]:
    """What every run records: resolved tier, commit, Python and core count."""
    from repro.backend import get_backend

    return {
        "tier": get_backend().name,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }

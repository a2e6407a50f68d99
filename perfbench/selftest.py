"""Self-test: two traced runs with the same seed give identical exact counts.

Usage (from the repository root)::

    python3 perfbench/selftest.py [--seed N]

Runs every workload twice with ``--trace 1`` and compares the counts the
benchmark reports as exact (cover search nodes, DFA states, matches,
per-primitive call counts, and the serve executed and coalesced counts).
Exits 1 on any difference or wrong answer.  Counts come from each run's
fixed window (see ``NOTES.md``), so run length does not affect them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"

#: (workload, seconds, exact-count metrics besides ``backend.*.calls``)
CASES = (
    ("certify", 1, ("comm.solve_cover_calls", "comm.nodes_expanded", "automata.dfa_states", "engine.run_calls")),
    ("extract", 2, ("extract.matches", "extract.chunks", "automata.dfa_states", "engine.run_calls")),
    ("serve", 4, ("serve.executed", "serve.coalesced")),
)


def counts(workload: str, seed: int, seconds: int, names: tuple[str, ...]) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed (rc={proc.returncode})\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} wrong answers")
    metrics = result["metrics"]
    wanted = set(names) | {name for name in metrics if name.startswith("backend.") and name.endswith(".calls")}
    return {name: metrics[name]["value"] for name in sorted(wanted)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    ok = True
    for workload, seconds, names in CASES:
        first = counts(workload, args.seed, seconds, names)
        second = counts(workload, args.seed, seconds, names)
        differ = {name: (first[name], second[name]) for name in first if first[name] != second[name]}
        nonzero = sum(1 for value in first.values() if value)
        print(f"{workload}: {len(first)} counts, {nonzero} non-zero, {'identical' if not differ else f'DIFFER {differ}'}")
        ok &= not differ
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

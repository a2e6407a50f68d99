"""The ``certify`` workload: one batch of paper-certification jobs per pass.

Each pass runs in a fresh interpreter (as ``python -m repro run`` does),
so no pass can be answered from an in-process memo left by an earlier
one.  The pass drives a serial :class:`~repro.engine.Engine` (``jobs=1``)
over a :class:`~repro.engine.NullCache` through four groups of jobs with
known answers:

* ``cover`` -- exact rectangle covers: ``intersection:8`` in both modes,
  ``disjointness:4`` in cover mode, and seed-drawn row/column
  permutations of ``intersection:5`` (disjoint, 31) and
  ``intersection:4`` (cover, 4), drawn afresh for every pass.  A permutation leaves the certified
  value unchanged, but the solver's search is not invariant to it.
* ``automata`` -- ``determinise n=13``; ``count`` once on each side of the
  power/sweep dispatch (``n=6 length=1024`` and ``n=7 length=512``);
  ``ambiguity n=12``.
* ``lowerbound`` -- ``rank p=6``, ``discrepancy m=2``, ``lemma18 m=4``,
  ``certificate n=4096``.
* ``grammar`` -- ``cover n=4`` (Prop. 7 on the Example 4 uCFG) and
  ``zoo.table max_n=4``.

Run as a script, this file is one pass (the child interpreter); the
parent side is :func:`run`.
"""

from __future__ import annotations

import importlib
import itertools
import json
import random
import resource
import subprocess
import sys
import time
from typing import Any, Callable

GROUPS = ("cover", "automata", "lowerbound", "grammar")

#: Permuted instances per pass: (family, mode, certified value, count).
#: Each pass draws fresh permutations from the seed and the pass index.
#: The solver's effort on a permuted ``intersection:5`` depends on how
#: close its greedy incumbent lands to 31 -- from 0 nodes in a few ms to
#: 32 nodes in over a second -- so a run averages over one per pass; more
#: per pass would let the seed decide the pass time.
PERMUTED = (("intersection:5", "disjoint", 31, 1), ("intersection:4", "cover", 4, 2))

_ZOO_ROWS = [
    {"cfg": 13, "count_ln": 7, "exact_nfa": 14, "min_dfa": 10, "n": 2, "nfa": 4, "ucfg": 23},
    {"cfg": 19, "count_ln": 37, "exact_nfa": 25, "min_dfa": 22, "n": 3, "nfa": 5, "ucfg": 69},
    {"cfg": 28, "count_ln": 175, "exact_nfa": 39, "min_dfa": 46, "n": 4, "nfa": 6, "ucfg": 163},
]


def family_grid(name: str) -> list[list[int]]:
    """The 0/1 entries of ``intersection:P`` or ``disjointness:P``.

    Rows and columns are the subsets of ``{1..P}`` by size, then
    lexicographically -- the order the named matrices use.
    """
    kind, _, arg = name.partition(":")
    p = int(arg)
    subsets = [set(c) for k in range(p + 1) for c in itertools.combinations(range(1, p + 1), k)]
    meet = 1 if kind == "intersection" else 0
    return [[meet if x & y else 1 - meet for y in subsets] for x in subsets]


def permuted(name: str, rng: random.Random) -> list[list[int]]:
    grid = family_grid(name)
    rows = list(range(len(grid)))
    cols = list(range(len(grid)))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[grid[r][c] for c in cols] for r in rows]


def cover_ok(grid: list[list[int]], mode: str, expected: int) -> Callable[[Any], bool]:
    """Check a certified cover of ``grid`` by re-verifying every rectangle."""

    def check(result: Any) -> bool:
        if not (result["size"] == result["lower_bound"] == expected and result["optimal"]):
            return False
        if len(result["cover"]) != expected:
            return False
        covered: dict[tuple[int, int], int] = {}
        for rows, cols in result["cover"]:
            for r in rows:
                for c in cols:
                    if not grid[r][c]:
                        return False
                    covered[(r, c)] = covered.get((r, c), 0) + 1
        if len(covered) != sum(map(sum, grid)):
            return False
        return mode == "cover" or all(count == 1 for count in covered.values())

    return check


def count_ok(n: int, length: int, checksum: str) -> Callable[[Any], bool]:
    return lambda r: (
        r["match_count_bits"] == length
        and r["match_count_checksum"] == checksum
        and r["unique_count"] == length - n
    )


def batch(seed: int, draw: int) -> list[tuple[str, str, dict[str, Any], Callable[[Any], bool]]]:
    """The pass's jobs as ``(group, job, params, check)``; inputs from ``seed``."""
    rng = random.Random(f"certify:{seed}:{draw}")
    jobs: list[tuple[str, str, dict[str, Any], Callable[[Any], bool]]] = []

    def cover(matrix: Any, grid: list[list[int]], mode: str, expected: int) -> None:
        jobs.append(("cover", "comm.cover.solve", {"matrix": matrix, "mode": mode}, cover_ok(grid, mode, expected)))

    cover("intersection:8", family_grid("intersection:8"), "disjoint", 255)
    cover("intersection:8", family_grid("intersection:8"), "cover", 8)
    cover("disjointness:4", family_grid("disjointness:4"), "cover", 16)
    for family, mode, value, count in PERMUTED:
        for _ in range(count):
            grid = permuted(family, rng)
            cover(grid, grid, mode, value)

    n = 13
    jobs.append(("automata", "automata.determinise", {"n": n}, lambda r: (
        r["nfa_states"] == n + 2 and r["dfa_states"] == 2 ** (n + 1) and r["min_dfa_states"] == 2**n + 1
    )))
    jobs.append(("automata", "automata.count", {"n": 6, "length": 1024}, count_ok(6, 1024, "0x763317823c0a9667")))
    jobs.append(("automata", "automata.count", {"n": 7, "length": 512}, count_ok(7, 512, "0x763d24224e393b40")))
    jobs.append(("automata", "automata.ambiguity", {"n": 12}, lambda r: r["n_states"] == 259 and r["unambiguous"] is False))

    jobs.append(("lowerbound", "rank", {"p": 6}, lambda r: (
        r["rank_q"] == 63 and r["fooling_bound"] == 6 and r["greedy_cover"] == 63
    )))
    jobs.append(("lowerbound", "discrepancy", {"m": 2}, lambda r: (
        r["lemma19_bound"] == 64
        and r["lemma23_bound"] == 128
        and len(r["partitions"]) == 3
        and all(p["exact"] and p["max_disc"] == 64 for p in r["partitions"])
    )))
    jobs.append(("lowerbound", "lemma18", {"m": 4}, lambda r: len(r["quantities"]) >= 6 and all(
        q["enumerated"] == q["formula"] for q in r["quantities"].values()
    )))
    jobs.append(("lowerbound", "certificate", {"n": 4096}, lambda r: (
        r["n"] == 4096 and r["m"] == 1024 and r["remainder"] == 0 and r["lemma18_threshold_holds"] is True
    )))

    jobs.append(("grammar", "cover", {"n": 4}, lambda r: (
        r["n_rectangles"] == 40 and r["proposition7_bound"] == 2736 and r["disjoint"] is True
    )))
    jobs.append(("grammar", "zoo.table", {"max_n": 4}, lambda r: r["rows"] == _ZOO_ROWS))
    return jobs


# ----------------------------------------------------------------------
# One pass (child interpreter)
# ----------------------------------------------------------------------


def child_main(config: dict[str, Any]) -> dict[str, Any]:
    # Everything up to ``ready_at`` is set-up: the engine, imports of the
    # modules each job declares, and the code fingerprints in its keys.
    from common import probe
    from repro.engine import Engine, NullCache

    tracer = None
    engine = Engine(cache=NullCache(), jobs=1)
    if config["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, engine)
    jobs = batch(config["seed"], config["draw"])
    for _group, name, params, _check in jobs:
        job = engine.registry.get(name)
        for module in job.source_modules:
            importlib.import_module(module)
        job.key(job.resolve_params(params))
    ready_at = time.monotonic()

    # Seconds per group, split into jobs with fixed inputs and the
    # seed-drawn permuted instances (``matrix`` given as a grid).
    fixed = {group: 0.0 for group in GROUPS}
    drawn = {group: 0.0 for group in GROUPS}
    results = []
    probes = []
    for group, name, params, _check in jobs:
        probes.append(probe())
        start = time.perf_counter()
        try:
            results.append(engine.run_one(name, params))
        except Exception as exc:  # a job that fails is a failed operation
            results.append(exc)
        split = drawn if isinstance(params.get("matrix"), list) else fixed
        split[group] += time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = []
    for (_group, name, params, check), result in zip(jobs, results):
        try:
            ok = not isinstance(result, Exception) and check(json.loads(json.dumps(result)))
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            failed.append(f"{name} {json.dumps(params)[:80]}")
    out: dict[str, Any] = {
        "ready_at": ready_at,
        "fixed": fixed,
        "drawn": drawn,
        "jobs": len(jobs),
        "failed": failed,
        "rss_mb": rss_mb,
        "probes": probes,
    }
    if tracer is not None:
        tracer.write(config["spans_path"])
        out["trace"] = tracer.snapshot()
    return out


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def run_pass(seed: int, draw: int, trace: bool, tag: str) -> dict[str, Any]:
    """One pass in a fresh interpreter; adds ``setup_s`` measured from spawn."""
    from common import OUT, child_env

    config = {
        "seed": seed,
        "draw": draw,
        "trace": trace,
        "spans_path": str(OUT / f"certify-{tag}.spans.jsonl"),
    }
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, __file__, json.dumps(config)],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"certify pass failed (rc={proc.returncode}):\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready_at"] - spawned_at
    out["pass_s"] = sum(out["fixed"].values()) + sum(out["drawn"].values())
    return out


def run(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Passes until ``seconds`` have gone by.

    Untraced: pass ``k`` draws permutation set ``k``.  Traced: passes come
    in pairs over the same draw, one traced and one not (alternating
    which goes first), so the pair's difference is the tracing overhead;
    exact counts come from the first traced pass.
    """
    deadline = time.monotonic() + seconds
    passes: list[dict[str, Any]] = []
    pairs: list[tuple[dict[str, Any], dict[str, Any]]] = []
    draw = 0
    while not passes or time.monotonic() < deadline:
        if not trace:
            passes.append(run_pass(seed, draw, False, f"s{seed}-d{draw}"))
        else:
            order = (True, False) if draw % 2 == 0 else (False, True)
            done = {flag: run_pass(seed, draw, flag, f"s{seed}-d{draw}") for flag in order}
            pairs.append((done[True], done[False]))
            passes.extend(done.values())
        draw += 1
    # Peak memory of the passes up to their answer checks.
    peak = max([p["rss_mb"] for p in passes] + [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])
    probes = [seconds for p in passes for seconds in p["probes"]]
    return {"passes": passes, "pairs": pairs, "peak_rss_mb": peak, "probes": probes}


if __name__ == "__main__":
    print(json.dumps(child_main(json.loads(sys.argv[1]))))

"""The ``extract`` workload: serial ``extract.scan`` over two seeded streams.

Both streams have ``c=8, w=2`` documents (32 characters): ``match`` on
columns ``[1,2,3,4]`` and ``leq`` on ``[1,2,3]``, whose minimal DFA is the
larger of the two.  A serial :class:`~repro.engine.Engine` over a
:class:`~repro.engine.NullCache` scans each stream shard by shard; one
*round* scans every shard of both streams once.  Round 0 is the first
run every later round must reproduce exactly (matches and checksum), and
after the timed rounds a prefix of each stream is checked against the
per-document ``semantic_scan`` oracle.

Set-up is a fresh interpreter that imports the extraction stack and
compiles both scanners; run as a script, this file is that interpreter.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from typing import Any

C, W = 8, 2
STREAMS = (("match", (1, 2, 3, 4)), ("leq", (1, 2, 3)))
N_DOCS = 20_000
SHARD = 2_000
PREFIX = 1_000
SETUPS = 3


def specs(seed: int) -> list[Any]:
    from repro.extract import StreamSpec

    return [
        StreamSpec(c=C, w=W, columns=columns, relation=relation, n_docs=N_DOCS, seed=2 * seed + i)
        for i, (relation, columns) in enumerate(STREAMS)
    ]


def shards(seed: int) -> list[dict[str, Any]]:
    """Every ``extract.scan`` request of one round."""
    return [
        {**spec.to_params(), "lo": lo, "hi": lo + SHARD}
        for spec in specs(seed)
        for lo in range(0, N_DOCS, SHARD)
    ]


def child_main(config: dict[str, Any]) -> dict[str, Any]:
    """Set-up in a fresh interpreter: imports, both scanners, the job key."""
    import repro.extract.compile as extract_compile
    from repro.engine import default_registry

    job = default_registry().get("extract.scan")
    for spec in specs(config["seed"]):
        extract_compile.scanner_for_spec(spec)
        job.key(job.resolve_params({**spec.to_params(), "lo": 0, "hi": SHARD}))
    return {"ready_at": time.monotonic()}


def setup_once(seed: int) -> float:
    from common import child_env

    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, __file__, json.dumps({"seed": seed})],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"extract set-up failed (rc={proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready_at"] - spawned_at


def run(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Set up ``SETUPS`` times, then scan rounds until ``seconds`` have gone by.

    Traced: rounds alternate traced/untraced, starting traced, and the
    tracer's window is the in-process compile plus round 0.
    """
    import repro.extract.compile as extract_compile
    from common import peak_rss_mb, probe
    from repro.engine import Engine, NullCache
    from repro.extract import semantic_scan

    setup_s = [setup_once(seed) for _ in range(SETUPS)]

    engine = Engine(cache=NullCache(), jobs=1)
    tracer = window = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, engine)
    for spec in specs(seed):
        extract_compile.scanner_for_spec(spec)

    requests = shards(seed)
    reference: list[dict[str, Any]] = []
    scans: list[tuple[bool, float]] = []  # (traced, seconds) per shard scan
    probes: list[float] = []
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    round_no = 0
    while round_no < 2 or time.monotonic() < deadline:
        traced = trace and round_no % 2 == 0
        if trace and not traced:
            tracer.uninstall()
        elif trace and round_no > 0:
            spans.install(tracer, engine)
        for i, params in enumerate(requests):
            probes.append(probe())
            start = time.perf_counter()
            try:
                result = engine.run_one("extract.scan", params)
            except Exception:  # a scan that fails is a failed operation
                result = {"docs": None, "matches": None, "checksum": None}
            scans.append((traced, time.perf_counter() - start))
            attempted += 1
            summary = {key: result[key] for key in ("docs", "matches", "checksum")}
            if round_no == 0:
                reference.append(summary)
            failed += summary["docs"] != SHARD or summary != reference[i]
        if trace and round_no == 0:
            window = tracer.snapshot()
        round_no += 1
    if tracer is not None:
        tracer.uninstall()
    peak = peak_rss_mb()

    for spec in specs(seed):
        attempted += 1
        expected = semantic_scan(spec, 0, PREFIX)
        got = engine.run_one("extract.scan", {**spec.to_params(), "lo": 0, "hi": PREFIX})
        if (got["matches"], got["checksum"]) != (expected["matches"], expected["checksum"]):
            failed += 1

    matches = sum(summary["matches"] for summary in reference)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "scans": scans,
        "probes": probes,
        "docs_per_round": len(requests) * SHARD,
        "matches_per_round": matches,
        "rounds": round_no,
        "attempted": attempted,
        "failed": failed,
        "window": window,
        "tracer": tracer,
    }


if __name__ == "__main__":
    print(json.dumps(child_main(json.loads(sys.argv[1]))))

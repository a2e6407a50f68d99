"""Per-tier traced pass: ``certify`` and ``extract`` under every available tier.

Usage (from the repository root)::

    python3 perfbench/tiers.py [--seed N]

For each backend tier that is available here (``reference``, ``words``,
``numpy``, and ``cext`` when built) it runs one traced ``certify`` pass
pair and a short traced ``extract`` run with ``REPRO_BACKEND`` set to
that tier, then prints each certify group's time, the extract
throughput and every primitive's total seconds per tier, beside the tier
``auto`` resolves to.  The table is written to ``perfbench/out/tiers.json``.
It feeds the "``auto`` within 10% of the fastest tier" check and is not
part of the gated runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, require_program  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"
ROWS = ("certify_s", "cover_s", "automata_s", "lowerbound_s", "grammar_s", "docs_per_s")


def traced(workload: str, seed: int, seconds: int, tier: str) -> dict:
    env = {**os.environ, "REPRO_BACKEND": tier}
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} under {tier} failed (rc={proc.returncode})\n{proc.stderr[-2000:]}")
    return json.loads((OUT / f"{workload}-s{seed}-t1.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    require_program()
    from repro.backend import available_backends, resolve_backend

    table: dict[str, dict[str, float]] = {}
    for tier in available_backends():
        row: dict[str, float] = {}
        for workload, seconds in (("certify", 1), ("extract", 2)):
            artifact = traced(workload, args.seed, seconds, tier)
            if artifact["provenance"]["tier"] != tier or not artifact["correct"]:
                raise SystemExit(f"{workload} under {tier}: ran {artifact['provenance']['tier']}, correct={artifact['correct']}")
            row.update({name: m["value"] for name, m in artifact["report"].items() if name in ROWS})
            for name, metric in artifact["metrics"].items():
                if name.startswith("backend.") and name.endswith(".s"):
                    row[name] = row.get(name, 0.0) + metric["value"]
        table[tier] = row

    auto = resolve_backend("auto")
    names = list(ROWS) + sorted({name for row in table.values() for name in row if name.startswith("backend.") and any(r[name] for r in table.values())})
    print(f"{'metric':32s}" + "".join(f"{tier + ('*' if tier == auto else ''):>12s}" for tier in table))
    for name in names:
        print(f"{name:32s}" + "".join(f"{table[tier].get(name, 0.0):12.4g}" for tier in table))
    print("* = the tier auto resolves to; times in s, docs_per_s in 1/s")
    (OUT / "tiers.json").write_text(json.dumps({"auto": auto, "tiers": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

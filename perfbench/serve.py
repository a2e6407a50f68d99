"""The ``serve`` workload: two keep-alive connections against an embedded server.

The server is a :class:`~repro.serve.ReproServer` with ``jobs=2`` (the
setting per-job timeouts need), a timeout, a fresh ``DiskCache``
directory per server and a hot LRU of ``HOT_ENTRIES`` entries, fewer than
the ``len(HOT_KEYS)`` repeated keys, so repeats are served partly from
memory and partly from disk.  Set-up starts the server and fills the
cache with every repeated key.

Traffic is a closed loop: each connection sends its next request when
the previous reply arrives.  It runs in blocks of ``BLOCK`` requests per
connection; a block boundary is the only point where the two wait for
each other, and about every other block opens with one cold key sent on
both connections at once, which the server must coalesce into one
execution.  That shared key is a permuted ``intersection:4`` cover.
Within a block a request is a unique cold key (``sizes.row``, a small
``automata.count``, a small ``comm.cover.solve``) with probability
``COLD``, else a repeated key drawn with a Zipf skew.
About a quarter of all requests are cold.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import time
from dataclasses import dataclass
from typing import Any

import certify
from common import OUT, peak_rss_mb, probe

JOBS = 2
TIMEOUT_S = 30.0
HOT_ENTRIES = 16
BLOCK = 8
COLD = 0.2
PAIR = 0.5
SETUPS = 3
#: Blocks in the traced run's count window.
WINDOW_BLOCKS = 8

HOT_KEYS: tuple[tuple[str, dict[str, Any]], ...] = (
    *(("sizes.row", {"n": 2**k}) for k in range(2, 13)),
    *(("certificate", {"n": 2**k}) for k in range(3, 11)),
    *(("grammar", {"n": n}) for n in range(2, 10)),
    *(("example3", {"k": k}) for k in range(1, 7)),
    *(("member", {"word": "ab" * k + "a", "n": 2}) for k in range(1, 8)),
)


@dataclass(frozen=True)
class Item:
    job: str
    params: dict[str, Any]
    shared: bool = False  # sent on both connections at once


#: Certified cover sizes of the permuted matrices cold keys use.
COVER_VALUES = {("intersection:3", "disjoint"): 7, ("intersection:4", "cover"): 4}


def cover_item(seed: int, index: int, family: str, mode: str, shared: bool = False) -> Item:
    grid = certify.permuted(family, random.Random(f"serve:{seed}:cover:{index}"))
    return Item("comm.cover.solve", {"matrix": grid, "mode": mode}, shared)


def cold_item(seed: int, index: int) -> Item:
    """The ``index``-th unique cold key of a run."""
    family = index % 3
    if family == 0:
        return Item("sizes.row", {"n": 64 + index})
    if family == 1:
        return Item("automata.count", {"n": 3 + index % 2, "length": 16 + index})
    return cover_item(seed, index, "intersection:3", "disjoint")


def block(seed: int, number: int) -> tuple[list[Item], list[Item]]:
    """Both connections' requests in block ``number``."""
    rng = random.Random(f"serve:{seed}:block:{number}")
    order = list(range(len(HOT_KEYS)))
    random.Random(f"serve:{seed}:hot").shuffle(order)
    weights = [1.0 / (rank + 1) for rank in range(len(order))]
    base = number * (2 * BLOCK + 1)
    pair = rng.random() < PAIR
    conns: tuple[list[Item], list[Item]] = ([], [])
    if pair:
        # Long enough (a 290-node search) that the second copy always
        # arrives while the first is still running.
        shared = cover_item(seed, base, "intersection:4", "cover", shared=True)
        conns[0].append(shared)
        conns[1].append(shared)
    for c, items in enumerate(conns):
        for j in range(BLOCK):
            if rng.random() < COLD:
                items.append(cold_item(seed, base + 1 + c * BLOCK + j))
            else:
                job, params = HOT_KEYS[rng.choices(order, weights)[0]]
                items.append(Item(job, params))
    return conns


@dataclass
class Reply:
    block: int
    conn: int
    item: Item
    status: int
    latency_ms: float
    data: Any


def expected(item: Item) -> Any:
    """The known answer: the job's own function, called directly in-process."""
    from repro.engine import default_registry

    result = default_registry().get(item.job).fn(dict(item.params), [])
    return json.loads(json.dumps(result, sort_keys=True))


def correct(item: Item, data: Any) -> bool:
    if not isinstance(data, dict) or "result" not in data:
        return False
    if item.job == "comm.cover.solve":
        grid, mode = item.params["matrix"], item.params["mode"]
        family = f"intersection:{len(grid).bit_length() - 1}"
        return certify.cover_ok(grid, mode, COVER_VALUES[(family, mode)])(data["result"])
    return data["result"] == expected(item)


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------


def start_server(tag: str) -> tuple[Any, Any]:
    from repro.serve import ReproServer, ServeConfig

    cache_dir = OUT / f"serve-cache-{tag}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    config = ServeConfig(cache_dir=cache_dir, jobs=JOBS, timeout=TIMEOUT_S, hot_entries=HOT_ENTRIES)
    return ReproServer(config).start(), cache_dir


def stop_server(server: Any, cache_dir: Any) -> None:
    server.stop()
    shutil.rmtree(cache_dir, ignore_errors=True)


async def prefill(port: int) -> list[Reply]:
    """Request every repeated key once, on two connections."""
    from repro.serve import AsyncServeClient

    async def connection(conn: int) -> list[Reply]:
        client = AsyncServeClient("127.0.0.1", port, client_id="prefill")
        replies = []
        try:
            for job, params in HOT_KEYS[conn::2]:
                reply = await client.run(job, params)
                item = Item(job, params)
                replies.append(Reply(-1, conn, item, reply.status, reply.latency_s * 1000.0, reply.data))
        finally:
            await client.close()
        return replies

    first, second = await asyncio.gather(connection(0), connection(1))
    return first + second


def setup(tag: str) -> tuple[Any, Any, float, list[Reply]]:
    """Start a server and fill its cache; returns it with the seconds taken."""
    started = time.monotonic()
    server, cache_dir = start_server(tag)
    replies = asyncio.run(prefill(server.port))
    return server, cache_dir, time.monotonic() - started, replies


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------


async def traffic(
    seed: int, port: int, seconds: float, probes: list[float], on_window: Any = None
) -> tuple[list[Reply], float]:
    """Both connections' closed loops until ``seconds`` have gone by.

    With ``on_window``, traffic runs at least ``WINDOW_BLOCKS`` blocks and
    ``on_window`` is called once they have all completed.  A
    :func:`~common.probe` runs at every block boundary, when no request
    is in flight, and its timing is appended to ``probes``.
    """
    from repro.serve import AsyncServeClient

    barrier = asyncio.Barrier(2)
    stop: dict[int, bool] = {}
    replies: list[Reply] = []
    started = time.monotonic()
    deadline = started + seconds
    min_blocks = WINDOW_BLOCKS if on_window is not None else 0

    async def connection(conn: int) -> None:
        client = AsyncServeClient("127.0.0.1", port, client_id=f"conn{conn}")
        try:
            number = 0
            while True:
                await barrier.wait()
                if number not in stop:  # the first to pass decides for both
                    probes.append(probe())
                    stop[number] = number >= min_blocks and time.monotonic() >= deadline
                    if number == WINDOW_BLOCKS and on_window is not None:
                        on_window()
                if stop[number]:
                    return
                for item in block(seed, number)[conn]:
                    reply = await client.run(item.job, item.params)
                    replies.append(Reply(number, conn, item, reply.status, reply.latency_s * 1000.0, reply.data))
                number += 1
        finally:
            await client.close()

    await asyncio.gather(connection(0), connection(1))
    return replies, time.monotonic() - started


def classify(reply: Reply) -> str:
    """``hot``, ``disk``, ``miss`` (computed) or ``coalesced``."""
    data = reply.data if isinstance(reply.data, dict) else {}
    if data.get("coalesced"):
        return "coalesced"
    return {"hot": "hot", "hit": "disk"}.get(data.get("cache"), "miss")


def check(replies: list[Reply]) -> int:
    """Wrong or failed replies, each checked against its known answer."""
    answers: dict[str, bool] = {}
    failed = 0
    for reply in replies:
        if reply.status != 200:
            failed += 1
            continue
        key = json.dumps([reply.item.job, reply.item.params, reply.data.get("result")], sort_keys=True)
        if key not in answers:
            answers[key] = correct(reply.item, reply.data)
        failed += not answers[key]
    return failed


def run(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Set up ``SETUPS`` times and drive traffic at the last server.

    Traced: the measured phase is split in two halves on two fresh
    servers, the first untraced and the second traced, so their latency
    difference is the tracing overhead; counts come from the traced
    half's first ``WINDOW_BLOCKS`` blocks.
    """
    setup_s: list[float] = []
    filled: list[Reply] = []
    for i in range(SETUPS):
        server, cache_dir, seconds_taken, replies = setup(f"{seed}-{i}")
        setup_s.append(seconds_taken)
        filled += replies
        if i < SETUPS - 1:
            stop_server(server, cache_dir)

    phase = seconds / 2 if trace else seconds
    probes: list[float] = []
    try:
        replies, wall_s = asyncio.run(traffic(seed, server.port, phase, probes))
    finally:
        stop_server(server, cache_dir)
    out: dict[str, Any] = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "probes": probes,
        "replies": replies,
        "wall_s": wall_s,
        "attempted": len(replies) + len(filled),
        "failed": check(replies + filled),
    }
    if not trace:
        return out

    import spans

    server, cache_dir, _seconds, filled = setup(f"{seed}-traced")
    tracer = spans.Tracer()
    spans.install(tracer, server.broker.engine)
    snapshot: dict[str, Any] = {}
    try:
        traced, traced_wall = asyncio.run(
            traffic(seed, server.port, phase, [], on_window=lambda: snapshot.update(tracer.snapshot()))
        )
    finally:
        tracer.uninstall()
        stop_server(server, cache_dir)
    out.update(
        traced=traced,
        traced_wall_s=traced_wall,
        tracer=tracer,
        window=snapshot or tracer.snapshot(),
    )
    out["attempted"] += len(traced) + len(filled)
    out["failed"] += check(traced + filled)
    return out

"""Differential micro-benchmark of the kernel backends.

Times the same seeded workload on every *available* backend — one row
per primitive family (rank, cover, determinise, count, discrepancy,
indices, transpose, rect) — and cross-checks that all backends
return bit-identical results before any timing is trusted.  ``python -m
repro bench backends`` drives this module and writes
``BENCH_backends.json``.

Honesty rules:

* every backend runs the *same* inputs, built once from the seed;
* timings are the minimum over ``repeats`` full runs (min-of-k is the
  standard way to suppress scheduler noise in CPython micro-timings);
* a backend that *inherits* a primitive rather than overriding it is
  reported with the ``kernel`` of the class that actually defines the
  method (:func:`repro.backend.delegates_to`), so a delegated row reads
  as "same kernel" instead of a fabricated speedup.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Any, Callable

from repro.backend import (
    Backend,
    available_backends,
    backend_info,
    delegates_to,
    get_backend,
)

__all__ = ["bench_backends"]


def _time_min(run: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """``(min seconds, value)`` over ``repeats`` runs of ``run``."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = perf_counter()
        value = run()
        best = min(best, perf_counter() - start)
    return best, value


def _random_masks(rng: random.Random, count: int, bits: int) -> list[int]:
    return [rng.getrandbits(bits) for _ in range(count)]


# ----------------------------------------------------------------------
# One workload per primitive family
# ----------------------------------------------------------------------


def _op_rank(rng: random.Random):
    """GF(2) rank of a dense random bit matrix (the ``rank_over_gf2`` path)."""
    side = 256
    bitrows = _random_masks(rng, side, side)

    def run(backend: Backend) -> int:
        return backend.gf2_rank(bitrows, side)

    return "gf2_rank", f"rank of a random {side}x{side} GF(2) matrix", run


def _op_cover(rng: random.Random):
    """Rectangle growing: superset scans + column AND-folds over one matrix."""
    n = 160
    # Biased-dense rows so supersets actually occur (as in cover growth).
    allow = [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(n)]
    seeds = [1 << rng.randrange(n) for _ in range(48)]

    def run(backend: Backend) -> int:
        acc = 0
        for cols in seeds:
            rows = backend.superset_rows(allow, cols)
            acc ^= rows ^ backend.and_reduce(allow, rows | 1)
        return acc

    return "superset_rows", f"{len(seeds)} rectangle growths over a {n}x{n} matrix", run


def _op_determinise(rng: random.Random):
    """Subset-construction stepping: build one step closure, apply it a lot."""
    n_states = 64
    table = _random_masks(rng, n_states, n_states)
    masks = _random_masks(rng, 2048, n_states)

    def run(backend: Backend) -> int:
        step = backend.make_step_fn(table, n_states)
        acc = 0
        for mask in masks:
            acc ^= step(mask)
        return acc

    return "make_step_fn", f"{len(masks)} subset steps over {n_states} states", run


def _op_count(rng: random.Random):
    """Transfer-matrix sweeps over a DFA-like adjacency (2-letter alphabet).

    Every row has two multiplicity-1 successors — the exact shape
    ``count_dfa_words_of_length`` sweeps — so the counts grow one bit per
    step and the multiply-free unit path gets a realistic workout.
    """
    n = 48
    steps = 1024
    adjacency: list[list[tuple[int, int]]] = [
        [(rng.randrange(n), 1), (rng.randrange(n), 1)] for _ in range(n)
    ]

    def run(backend: Backend) -> int:
        sweep = backend.make_sweep_fn(adjacency, n)
        vector = [1] * n
        for _ in range(steps):
            vector = sweep(vector)
        return sum(vector)

    return "make_sweep_fn", f"{steps} sweeps over {n} states", run


def _op_discrepancy(rng: random.Random):
    """Exact bilinear maximisation over a random sign matrix."""
    dim, width = 12, 128
    base = [[rng.choice((-1, 1)) for _ in range(width)] for _ in range(dim)]

    def run(backend: Backend) -> int:
        return backend.max_bilinear(base)

    return "max_bilinear", f"exact max |x^T M y| on a {dim}x{width} sign matrix", run


def _op_indices(rng: random.Random):
    """Set-bit enumeration on wide masks (extraction accept masks)."""
    bits = 5000
    masks = _random_masks(rng, 24, bits)

    def run(backend: Backend) -> int:
        acc = 0
        for mask in masks:
            acc += sum(backend.bit_indices(mask))
        return acc

    return "bit_indices", f"{len(masks)} set-bit expansions of {bits}-bit masks", run


def _op_transpose(rng: random.Random):
    """Row masks -> column masks of a dense rectangular 0/1 matrix."""
    n_rows, n_cols = 160, 200
    rows = _random_masks(rng, n_rows, n_cols)

    def run(backend: Backend) -> int:
        acc = 0
        for col in backend.transpose_masks(rows, n_cols):
            acc ^= col
        return acc

    return "transpose_masks", f"transpose of a {n_rows}x{n_cols} matrix", run


def _op_rect(rng: random.Random):
    """Rectangle cell masks (the cover-solver bounding primitive)."""
    n_rows, n_cols = 96, 64
    pairs = [
        (rng.getrandbits(n_rows), rng.getrandbits(n_cols)) for _ in range(96)
    ]

    def run(backend: Backend) -> int:
        acc = 0
        for rows_mask, cols_mask in pairs:
            acc ^= backend.cells_of_rect(rows_mask, cols_mask, n_cols)
        return acc

    return "cells_of_rect", f"{len(pairs)} cell masks on a {n_rows}x{n_cols} grid", run


_OPS = (
    ("rank", _op_rank),
    ("cover", _op_cover),
    ("determinise", _op_determinise),
    ("count", _op_count),
    ("discrepancy", _op_discrepancy),
    ("indices", _op_indices),
    ("transpose", _op_transpose),
    ("rect", _op_rect),
)


def bench_backends(repeats: int = 5, seed: int = 0) -> dict[str, Any]:
    """Time every available backend on every primitive-family workload.

    Returns rows shaped for ``BENCH_backends.json``: per op, the value
    (identical across backends or the bench raises), per-backend minimum
    seconds, speedup relative to the reference backend, and the name of
    the class whose kernel actually ran (``kernel``).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    names = available_backends()
    rows: list[dict[str, Any]] = []
    for op_name, build in _OPS:
        method, workload, run = build(random.Random(seed))
        timings: dict[str, dict[str, Any]] = {}
        reference_seconds = None
        reference_value = None
        for name in names:
            backend = get_backend(name)
            seconds, value = _time_min(lambda b=backend: run(b), repeats)
            if name == "reference":
                reference_seconds, reference_value = seconds, value
            elif value != reference_value:
                raise ValueError(
                    f"bench backends: {name}.{method} disagrees with reference "
                    f"on op {op_name!r} ({value!r} != {reference_value!r})"
                )
            timings[name] = {
                "seconds": round(seconds, 6),
                "kernel": delegates_to(backend, method),
            }
        for name, cell in timings.items():
            cell["speedup"] = (
                round(reference_seconds / timings[name]["seconds"], 2)
                if timings[name]["seconds"]
                else None
            )
        rows.append(
            {
                "op": op_name,
                "method": method,
                "workload": workload,
                "value_checksum": str(reference_value),
                "backends": timings,
            }
        )
    return {
        "seed": seed,
        "repeats": repeats,
        "backends": names,
        "active": backend_info(),
        "rows": rows,
    }

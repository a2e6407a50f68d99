"""Exact and greedy rectangle covers of the 1-entries of a matrix.

The *partition number* (minimum number of pairwise disjoint all-ones
rectangles covering all 1-entries) is the fixed-partition analogue of the
quantity Proposition 16 bounds for ``L_n``.  Exact computation is
NP-hard: :func:`minimum_disjoint_cover` delegates to the bound-certified
branch-and-price core of :mod:`repro.comm.cover`; the greedy variant
scales further and upper-bounds the truth.

All algorithms here run on the bit-parallel representation of
:mod:`repro.comm.packed`: the uncovered 1-entries are one row-major cell
bitmask, rectangle growth is an AND-chain over row masks, disjointness is
``cells & ~remaining``, and the branch-and-bound memoises visited
uncovered-states by their (hashable, O(1)) cell mask.  Public signatures
are unchanged from the list-of-lists era and accept :class:`CommMatrix`
and :class:`PackedMatrix` alike; the frozen pre-packed implementations
survive as test oracles in ``tests/legacy_comm.py``.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.backend import get_backend
from repro.comm.matrix import CommMatrix
from repro.comm.packed import PackedMatrix, as_packed, cells_of_rect, iter_bits, mask_of

__all__ = [
    "Rect",
    "rect_cells",
    "maximal_rectangles_at",
    "greedy_disjoint_cover",
    "minimum_disjoint_cover",
    "verify_disjoint_cover",
]

#: A rectangle as (row-index frozenset, column-index frozenset).
Rect = tuple[frozenset[int], frozenset[int]]

#: A rectangle as (row bitmask, column bitmask) — the internal currency.
MaskRect = tuple[int, int]


def rect_cells(rect: Rect) -> frozenset[tuple[int, int]]:
    """All cells of a rectangle."""
    rows, cols = rect
    return frozenset((i, j) for i in rows for j in cols)


def _rect_from_masks(rows_mask: int, cols_mask: int) -> Rect:
    return frozenset(iter_bits(rows_mask)), frozenset(iter_bits(cols_mask))


def _allow_rows(matrix: PackedMatrix, allowed: Iterable[tuple[int, int]]) -> list[int]:
    """Per-row masks of cells that are both 1-entries and in ``allowed``.

    Every ``allowed`` cell must lie inside the matrix: out-of-range
    indices raise a ``ValueError`` naming the offending cell instead of
    being silently dropped (rows) or corrupting the mask arithmetic
    (negative columns).
    """
    n_rows, n_cols = matrix.shape
    by_row = [0] * n_rows
    for i, j in allowed:
        if not (0 <= i < n_rows and 0 <= j < n_cols):
            raise ValueError(
                f"allowed cell ({i}, {j}) outside the {n_rows}x{n_cols} matrix"
            )
        by_row[i] |= 1 << j
    return [by_row[i] & matrix.row_masks[i] for i in range(n_rows)]


def _grow_masks(
    allow: list[int], i0: int, j0: int, column_first: bool
) -> MaskRect:
    """Grow a maximal all-ones rectangle around the seed within ``allow``.

    ``allow[i]`` must already be intersected with the 1-entries of row
    ``i``; growth is then pure mask arithmetic: a column joins when its
    bit survives the AND of every member row, a row joins when it
    contains every member column.
    """
    backend = get_backend()
    seed_row = 1 << i0
    seed_col = 1 << j0
    if column_first:
        cols = allow[i0] | seed_col
        rows = seed_row | backend.superset_rows(allow, cols)
    else:
        rows = seed_row | backend.superset_rows(allow, seed_col)
        cols = seed_col | backend.and_reduce(allow, rows)
    return rows, cols


def _grow_rectangle(
    matrix: CommMatrix | PackedMatrix,
    seed: tuple[int, int],
    allowed: frozenset[tuple[int, int]],
    column_first: bool,
) -> Rect:
    """Grow a maximal all-ones rectangle around ``seed`` within ``allowed``."""
    pm = as_packed(matrix)
    i0, j0 = seed
    rows, cols = _grow_masks(_allow_rows(pm, allowed), i0, j0, column_first)
    return _rect_from_masks(rows, cols)


def maximal_rectangles_at(
    matrix: CommMatrix | PackedMatrix,
    seed: tuple[int, int],
    allowed: frozenset[tuple[int, int]],
) -> list[Rect]:
    """All inclusion-maximal all-ones rectangles through ``seed``.

    Enumerated by Close-by-One over the seed row's allowed columns, in
    order of each rectangle's least generating column subset; the cost is
    the number of rectangles times the candidate columns.  The seed must
    be an allowed 1-entry: anything else raises a ``ValueError`` naming
    the seed cell.
    """
    from repro.comm.cover import _rects_through

    pm = as_packed(matrix)
    i0, j0 = seed
    allow = _allow_rows(pm, allowed)
    n_rows, n_cols = pm.shape
    if not (0 <= i0 < n_rows and 0 <= j0 < n_cols and allow[i0] >> j0 & 1):
        raise ValueError(
            f"seed cell ({i0}, {j0}) is not an allowed 1-entry of the "
            f"{n_rows}x{n_cols} matrix"
        )
    col_rows = get_backend().transpose_masks(allow, n_cols)
    return [
        _rect_from_masks(rows, cols)
        for rows, cols in _rects_through(allow, col_rows, i0, j0)
    ]


def _greedy_masks(pm: PackedMatrix) -> list[MaskRect]:
    """The greedy disjoint cover as mask rectangles (the packed hot loop)."""
    n_rows = pm.n_rows
    allow = list(pm.row_masks)
    cover: list[MaskRect] = []
    while True:
        i0 = next((i for i in range(n_rows) if allow[i]), None)
        if i0 is None:
            break
        j0 = (allow[i0] & -allow[i0]).bit_length() - 1
        best = _grow_masks(allow, i0, j0, False)
        other = _grow_masks(allow, i0, j0, True)
        if other[0].bit_count() * other[1].bit_count() > best[0].bit_count() * best[1].bit_count():
            best = other
        cover.append(best)
        not_cols = ~best[1]
        for i in iter_bits(best[0]):
            allow[i] &= not_cols
    return cover


def greedy_disjoint_cover(matrix: CommMatrix | PackedMatrix) -> list[Rect]:
    """A disjoint cover of the 1s by repeatedly growing maximal rectangles.

    Upper-bounds the partition number; exactness is not claimed.  Seeds
    are the smallest uncovered cell in row-major order, so the result is
    deterministic (and identical to the pre-packed implementation).
    """
    return [_rect_from_masks(r, c) for r, c in _greedy_masks(as_packed(matrix))]


def minimum_disjoint_cover(
    matrix: CommMatrix | PackedMatrix, node_budget: int = 2_000_000
) -> list[Rect]:
    """Exact minimum disjoint rectangle cover of the 1-entries.

    A thin facade over :func:`repro.comm.cover.solve_cover` in
    ``disjoint`` mode — the branch-and-price core that seeds with the
    greedy cover, certifies against exact fooling-set / rank /
    fractional-LP lower bounds (often at the root, with zero search
    nodes), and otherwise branches on the least-flexible uncovered cell.
    ``node_budget`` caps the search; on exhaustion
    :class:`~repro.errors.CoverBudgetExceeded` is raised carrying the
    best valid cover found so far (verified, with explicit partial-
    coverage accounting) instead of discarding the progress.  The
    pre-solver branch-and-bound survives as the frozen oracle in
    ``tests/legacy_comm.py``.

    >>> from repro.comm.matrix import intersection_matrix
    >>> len(minimum_disjoint_cover(intersection_matrix(2)))
    3
    """
    from repro.comm.cover import solve_cover

    result = solve_cover(matrix, mode="disjoint", node_budget=node_budget)
    return list(result.cover)


def verify_disjoint_cover(
    matrix: CommMatrix | PackedMatrix, cover: Iterable[Rect]
) -> bool:
    """Check a claimed disjoint cover: all-ones blocks, disjoint, exhaustive."""
    pm = as_packed(matrix)
    remaining = pm.cells_mask()
    for rows, cols in cover:
        rows_mask, cols_mask = mask_of(rows), mask_of(cols)
        if not pm.is_all_ones_rect(rows_mask, cols_mask):
            return False
        cells = cells_of_rect(rows_mask, cols_mask, pm.n_cols)
        if cells & ~remaining:
            return False  # overlap (every stray 0-cell already failed above)
        remaining &= ~cells
    return not remaining

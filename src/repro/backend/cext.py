"""The ``cext`` backend: compiled u64-limb kernels, build-time optional.

The fourth rung of the backend ladder.  A small CPython extension
(:mod:`repro._cext.kernels`, one ``.c`` file) implements the primitives
where flat ``uint64_t`` arrays beat both the big-int loops and the
``words`` restructurings; this class converts masks across the boundary
as ``int.to_bytes`` limb buffers (:mod:`repro.backend.limbs` is the
width negotiation) and inherits everything else from
:class:`~repro.backend.words.WordsBackend`.

Availability is a *build* question, not an install question: the class
probes the compiled artifact (``available()``), checks its limb ABI, and
simply does not register as available when the artifact is missing —
exactly like ``numpy`` when numpy is not importable.  No compiler, no
``cext``; nothing else changes.

What is overridden, and why:

* ``popcount_rows`` / ``bit_indices`` — loop hoisting and direct list
  construction over limb buffers (the 5000-bit accept masks of the
  extraction scanner are the target workload);
* ``transpose_masks`` — one pass over set bits into per-column limb
  buffers instead of nested Python loops;
* ``fold_rows`` / ``make_step_fn`` — the chunked 256-entry step tables
  built and folded entirely in C (the subset-construction hot call);
* ``gf2_rank`` — xor-basis elimination on flat limb arrays: no big-int
  allocation per reduction (the Theorem 17 rank bound path);
* ``cells_of_rect`` — per-bit accumulation into C buffers for
  rectangle-cover cell masks.

What is deliberately **not** here: every kernel whose exact-integer
semantics cannot live in fixed-width limbs.  ``bareiss_rank`` minors,
``mat_mul``/``vec_mat``/``make_sweep_fn`` transfer-matrix counts and the
``max_bilinear`` SWAR state all grow beyond 64 bits on real workloads,
so they stay delegated to the inherited reference/words kernels and
results remain bit-exact everywhere.  ``popcount`` on a single mask is
``int.bit_count`` — already a C primitive — so wrapping it would only
add a boundary crossing.  ``delegates_to`` reports all of this, and
``bench backends`` prints delegated rows as such.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro import _cext
from repro.backend.limbs import (
    limb_width_bytes,
    limbs_to_mask,
    mask_to_bytes,
    mask_to_limbs,
    masks_to_limbs,
)
from repro.backend.words import WordsBackend

__all__ = ["CextBackend"]

#: Below this many states the ``words`` unrolled step lambdas win (one
#: list index per byte, no boundary crossing); measured, not guessed.
_STEP_C_MIN_STATES = 25

#: Below this many bits the ``words`` byte-table ``bit_indices`` is
#: already within noise of the C kernel; skip the buffer export.
_INDICES_C_MIN_BITS = 64


class CextBackend(WordsBackend):
    """Compiled u64-limb kernels; words/reference for everything else."""

    name = "cext"

    def __init__(self) -> None:
        kernels = _cext.load()
        if kernels is None:  # pragma: no cover - registry never does this
            raise RuntimeError(f"cext backend unavailable: {_cext.unavailable_reason()}")
        self._kernels = kernels

    @staticmethod
    def available() -> bool:
        return _cext.load() is not None

    @staticmethod
    def describe() -> str:
        reason = _cext.unavailable_reason()
        if reason is not None:
            return "unavailable (compiled artifact not built)"
        return "compiled u64-limb kernels (repro._cext.kernels)"

    @staticmethod
    def unavailable_reason() -> str | None:
        return _cext.unavailable_reason()

    # -- mask primitives ----------------------------------------------

    def popcount_rows(self, masks: Sequence[int]) -> int:
        return self._kernels.popcount_rows(masks)

    def bit_indices(self, mask: int) -> list[int]:
        if mask.bit_length() < _INDICES_C_MIN_BITS:
            return super().bit_indices(mask)
        return self._kernels.bit_indices(mask_to_bytes(mask))

    def transpose_masks(self, row_masks: Sequence[int], n_cols: int) -> list[int]:
        if n_cols <= 0:
            return []
        n_rows = len(row_masks)
        joined = self._kernels.transpose(
            masks_to_limbs(row_masks, n_cols), n_rows, n_cols
        )
        stride = limb_width_bytes(n_rows)
        return [
            limbs_to_mask(joined[k * stride : (k + 1) * stride]) for k in range(n_cols)
        ]

    def fold_rows(self, table: Sequence[int], mask: int) -> int:
        return self._kernels.fold_rows(table, mask_to_bytes(mask))

    def make_step_fn(self, table: Sequence[int], n_states: int) -> Callable[[int], int]:
        if n_states < _STEP_C_MIN_STATES:
            return super().make_step_fn(table, n_states)
        step_table = self._kernels.StepTable(
            masks_to_limbs(table, n_states), n_states
        )
        width = limb_width_bytes(n_states)

        def step(mask: int, _table=step_table, _width=width) -> int:
            return _table(mask.to_bytes(_width, "little"))

        return step

    def cells_of_rect(self, rows_mask: int, cols_mask: int, n_cols: int) -> int:
        if not rows_mask or n_cols <= 0:
            return 0
        return self._kernels.cells_of_rect(
            mask_to_bytes(rows_mask), mask_to_limbs(cols_mask, n_cols), n_cols
        )

    # -- exact linear algebra -----------------------------------------

    def gf2_rank(self, bitrows: Sequence[int], n_cols: int) -> int:
        n_limbs = limb_width_bytes(n_cols) // 8
        return self._kernels.gf2_rank(
            masks_to_limbs(bitrows, n_cols), len(bitrows), n_limbs
        )

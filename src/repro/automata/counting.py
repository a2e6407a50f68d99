"""Counting accepted words with automata (transfer-matrix method).

A complete DFA counts its accepted words of each length by a linear
dynamic program over states — exactly the factorised-counting idea, one
level down: determinism plays the role unambiguity plays for grammars.
For NFAs the same recurrence counts accepting *runs*, which matches the
word count precisely when the NFA is unambiguous — the UFA story again.

The counting literally uses the transfer matrix: the kernels in
:mod:`repro.automata.packed` restrict the integer matrix ``M[i][j]`` =
#symbols taking state ``i`` to state ``j`` to its useful states and
either sweep it (``length`` vector steps) or raise it to the
``length``-th power by repeated squaring (``O(log length)`` exact
big-int products).  The adapters here pick the path with a cost model
over what the restricted problem shows (:func:`count_path`).  All
arithmetic is exact arbitrary-precision integers — no floats in any
count.
"""

from __future__ import annotations

import math

from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.automata.packed import (
    PackedDFA,
    PackedNFA,
    TransferProblem,
    count_by_power,
    count_by_sweep,
    count_words_table,
    dfa_transfer_problem,
    growth_profile,
    nfa_transfer_problem,
)
from repro.backend import use_backend
from repro.backend.limbs import LIMB_BITS

__all__ = [
    "count_dfa_words_of_length",
    "count_dfa_words_up_to",
    "count_nfa_runs_of_length",
    "count_path",
]


def count_path(problem: TransferProblem, length: int) -> str:
    """``"power"`` or ``"sweep"``: the cheaper path for this count.

    Both costs count elementary big-int steps — zero tests, additions,
    multiply-adds — weighted by operand width in machine words, from
    what the useful restriction shows: its state count ``q``, its
    non-zero transfer entries ``nnz``, the ``length`` and its
    :class:`~repro.automata.packed.GrowthProfile`.

    * The sweep does ``length`` steps; each allocates and scans a
      ``q``-vector and does ``nnz`` additions.
    * Repeated squaring builds a dense ``q × q`` matrix, does one vector
      product (``q²`` steps) per set bit of ``length``, and squares
      ``bit_length - 1`` times.  A squaring allocates and scans ``q``
      rows of ``q``, scans a row of ``q`` per non-zero entry
      (``long_pairs``) and does ``long_triples`` multiply-adds.

    Under polynomial growth entries stay at ``O(log length)`` bits, so
    every step costs one word.  Under exponential growth an entry gains
    up to ``log2`` (largest row sum) bits per step: the sweep adds
    entries of half the final width on average, and squaring ``j``
    multiplies entries of ``2^j`` steps' width at Karatsuba cost
    (``words^log2(3)``).  That width term sends long counts over dense
    automata beyond a handful of states to the sweep; the pair and
    triple counts keep chains, whose powers stay sparse, on squaring.
    """
    q = len(problem.vector)
    if not q or length <= 1:
        return "sweep"
    nnz = sum(len(row) for row in problem.adjacency)
    profile = growth_profile(problem)
    if profile.polynomial:
        bits = 0.0
    else:
        bits = math.log2(max(sum(count for _j, count in row) for row in problem.adjacency))
    sweep = length * (2 * q + nnz * (1 + bits * length / (2 * LIMB_BITS)))
    scans = 2 * q * q + profile.long_pairs * q
    power = q * q * (1 + length.bit_count()) + sum(
        scans + profile.long_triples * (1 + bits * (1 << j) / LIMB_BITS) ** math.log2(3)
        for j in range(1, length.bit_length())
    )
    return "power" if power < sweep else "sweep"


def _count(problem: TransferProblem, length: int) -> int:
    if count_path(problem, length) == "power":
        return count_by_power(problem, length)
    return count_by_sweep(problem, length)


def count_dfa_words_of_length(dfa: DFA, length: int, backend: str | None = None) -> int:
    """The exact number of accepted words of the given length.

    Sweeps the transfer matrix, or raises it to the ``length``-th power
    when :func:`count_path` says squaring is cheaper; works on partial
    DFAs (undefined transitions contribute nothing).  ``backend``
    optionally pins the kernel backend for this call (every backend
    returns the same exact count).

    >>> from repro.automata.ops import dfa_from_finite_language
    >>> from repro.words.alphabet import AB
    >>> d = dfa_from_finite_language({"ab", "ba", "b"}, AB)
    >>> count_dfa_words_of_length(d, 2), count_dfa_words_of_length(d, 1)
    (2, 1)
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    with use_backend(backend):
        return _count(dfa_transfer_problem(PackedDFA.from_dfa(dfa)), length)


def count_dfa_words_up_to(
    dfa: DFA, max_length: int, backend: str | None = None
) -> dict[int, int]:
    """``{length: #accepted words}`` for every length up to the bound.

    One incremental sweep: the length-``ℓ`` vector extends to ``ℓ+1``,
    so the whole table costs the same as the single longest length.
    """
    with use_backend(backend):
        packed = PackedDFA.from_dfa(dfa)
        return count_words_table(packed, max_length)


def count_nfa_runs_of_length(nfa: NFA, length: int, backend: str | None = None) -> int:
    """The number of accepting *runs* over all words of the given length.

    Equals the number of accepted words iff the NFA is unambiguous
    (checkable with :func:`repro.automata.ops.is_unambiguous_nfa`); in
    general it over-counts by run multiplicity — the automaton analogue
    of parse-tree counting for ambiguous CFGs.  Same dispatch as
    :func:`count_dfa_words_of_length`.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    with use_backend(backend):
        return _count(nfa_transfer_problem(PackedNFA.from_nfa(nfa)), length)

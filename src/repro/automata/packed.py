"""Bit-parallel packed automata: states as indices, state sets as big-int masks.

The automata substrate's hot algorithms — subset construction and the
self-product unambiguity test — reduce to operations on *sets of
states*.  (DFA minimisation and transfer-matrix counting are the
exceptions: Hopcroft refinement moves states one at a time through
predecessor lists, and counting works on sparse transfer rows.)  This
module stores those sets the same way :class:`repro.comm.packed.PackedMatrix`
stores matrix rows: one Python big integer per set, bit ``i`` set iff
state ``i`` is in the set.  A :class:`PackedNFA` renumbers the states of
an :class:`~repro.automata.nfa.NFA` to ``0..n-1`` (in canonical-encoding
order, so the numbering is process-stable) and keeps one successor-mask
table per alphabet symbol; one macro-step of the subset construction is
then an OR-fold over the set bits of the current mask instead of a
frozenset union, and the pair states ``(p, q)`` of the unambiguity
self-product are held row-wise — ``R[p]`` is the mask of all ``q`` with
``(p, q)`` reached — so even the ``O(n²)``-state product never handles
anything wider than an ``n``-bit integer.

Bit conventions, used consistently by every kernel:

* ``PackedNFA.tables[s][q]`` has bit ``r`` set iff ``r ∈ δ(q, σ_s)``
  (``σ_s`` is the ``s``-th symbol in alphabet order);
* ``PackedDFA.tables[s][q]`` is the successor *index* (or ``-1`` where
  the partial DFA is undefined);
* a list of ``n`` masks indexed by ``p`` encodes a relation on
  ``Q × Q`` (row ``p`` = the partners of ``p``), the layout of both
  passes of :func:`packed_is_unambiguous`.

Conversion to and from the label-carrying :class:`NFA`/:class:`DFA`
objects is lossless; ``to_key()`` gives a canonical serialization of the
renumbered structure for the :mod:`repro.engine` disk cache.  The public
entry points in :mod:`repro.automata.dfa`, :mod:`repro.automata.ops` and
:mod:`repro.automata.counting` are thin adapters over the kernels here
(the PR 2/3 pattern); the implementations they replaced are frozen in
``tests/legacy_automata.py`` (test oracles) and
:mod:`repro.automata.bench` (benchmark baselines).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from typing import NamedTuple

from repro.automata.dfa import DFA
from repro.automata.nfa import NFA, State
from repro.backend import get_backend
from repro.backend.reference import fold_rows
from repro.backend.words import chunked_step_fn, chunked_step_tables, fold_chunked
from repro.comm.packed import iter_bits, mask_of
from repro.errors import AutomatonError
from repro.words.alphabet import Alphabet

__all__ = [
    "PackedNFA",
    "PackedDFA",
    "as_packed_nfa",
    "as_packed_dfa",
    "fold_rows",
    "chunked_step_tables",
    "fold_chunked",
    "chunked_step_fn",
    "packed_determinise",
    "packed_minimise",
    "packed_is_unambiguous",
    "TransferProblem",
    "dfa_transfer_problem",
    "nfa_transfer_problem",
    "GrowthProfile",
    "growth_profile",
    "count_by_power",
    "count_by_sweep",
    "count_words_by_power",
    "count_words_by_sweep",
    "count_words_table",
    "count_runs_by_power",
    "count_runs_by_sweep",
]


def _canonical_state_order(states: Iterable[State]) -> list[State]:
    """States sorted by canonical encoding — stable across hash seeds."""
    from repro.util.canonical import canonical_encode

    return sorted(states, key=canonical_encode)


class PackedNFA:
    """An NFA with integer states and per-symbol big-int successor rows.

    ``tables[s][q]`` is the bitmask of ``δ(q, σ_s)``; ``initial_mask``
    and ``accepting_mask`` pack ``I`` and ``F``.  ``labels[i]`` recovers
    the original state object of index ``i`` (identity for automata born
    packed).

    >>> from repro.words import AB
    >>> nfa = NFA(AB, {0, 1}, {(0, "a"): {0, 1}}, {0}, {1})
    >>> pnfa = PackedNFA.from_nfa(nfa)
    >>> bin(pnfa.tables[0][0]), pnfa.accepts("a")
    ('0b11', True)
    """

    __slots__ = ("alphabet", "n_states", "tables", "initial_mask", "accepting_mask", "labels")

    def __init__(
        self,
        alphabet: Alphabet | Iterable[str],
        n_states: int,
        tables: Sequence[Sequence[int]],
        initial_mask: int,
        accepting_mask: int,
        labels: Sequence[State] | None = None,
    ) -> None:
        sigma = alphabet if isinstance(alphabet, Alphabet) else Alphabet(alphabet)
        if n_states < 1:
            raise AutomatonError("an automaton needs at least one state")
        rows = [list(table) for table in tables]
        if len(rows) != len(sigma):
            raise AutomatonError(f"{len(rows)} tables for {len(sigma)} symbols")
        limit = 1 << n_states
        for table in rows:
            if len(table) != n_states:
                raise AutomatonError(f"table of length {len(table)} for {n_states} states")
            for row in table:
                if not 0 <= row < limit:
                    raise AutomatonError(f"successor mask {row:#x} does not fit {n_states} states")
        if not 0 <= initial_mask < limit or not 0 <= accepting_mask < limit:
            raise AutomatonError("initial/accepting mask does not fit the state count")
        self.alphabet = sigma
        self.n_states = n_states
        self.tables = rows
        self.initial_mask = initial_mask
        self.accepting_mask = accepting_mask
        self.labels = list(labels) if labels is not None else list(range(n_states))
        if len(self.labels) != n_states:
            raise AutomatonError("label count does not match the state count")

    # -- conversions ---------------------------------------------------

    @classmethod
    def from_nfa(cls, nfa: NFA) -> "PackedNFA":
        """Pack an :class:`NFA`, numbering states in canonical order.

        The numbering sorts states by their canonical encoding, not by
        hash, so the packed form (and therefore :meth:`to_key`) is
        identical across processes and ``PYTHONHASHSEED`` values.
        """
        ordered = _canonical_state_order(nfa.states)
        index = {state: i for i, state in enumerate(ordered)}
        tables = [[0] * len(ordered) for _ in nfa.alphabet]
        for s, symbol in enumerate(nfa.alphabet):
            table = tables[s]
            for state in ordered:
                successors = nfa.successors(state, symbol)
                if successors:
                    table[index[state]] = mask_of(index[t] for t in successors)
        return cls(
            nfa.alphabet,
            len(ordered),
            tables,
            mask_of(index[q] for q in nfa.initial),
            mask_of(index[q] for q in nfa.accepting),
            ordered,
        )

    def to_nfa(self) -> NFA:
        """Unpack into an :class:`NFA` carrying the original labels."""
        labels = self.labels
        transitions: dict[tuple[State, str], frozenset[State]] = {}
        for s, symbol in enumerate(self.alphabet):
            table = self.tables[s]
            for q in range(self.n_states):
                if table[q]:
                    transitions[(labels[q], symbol)] = frozenset(
                        labels[r] for r in iter_bits(table[q])
                    )
        return NFA._from_validated(
            self.alphabet,
            frozenset(labels),
            transitions,
            frozenset(labels[q] for q in iter_bits(self.initial_mask)),
            frozenset(labels[q] for q in iter_bits(self.accepting_mask)),
        )

    # -- semantics -----------------------------------------------------

    def step(self, mask: int, symbol_index: int) -> int:
        """The successor macro-state (as a mask) on one symbol."""
        return fold_rows(self.tables[symbol_index], mask)

    def accepts(self, word: str) -> bool:
        """Whether some accepting run on ``word`` exists (mask sweep)."""
        current = self.initial_mask
        for symbol in word:
            if symbol not in self.alphabet:
                return False
            current = self.step(current, self.alphabet.index(symbol))
            if not current:
                return False
        return bool(current & self.accepting_mask)

    def predecessor_tables(self) -> list[list[int]]:
        """Per symbol, ``pre[s][q]`` = mask of states ``p`` with ``q ∈ δ(p, σ_s)``."""
        pre = [[0] * self.n_states for _ in self.tables]
        for s, table in enumerate(self.tables):
            rows = pre[s]
            for p in range(self.n_states):
                bit = 1 << p
                for q in iter_bits(table[p]):
                    rows[q] |= bit
        return pre

    def to_key(self) -> str:
        """A canonical serialization of the renumbered structure.

        Labels are deliberately excluded (mirroring
        :meth:`~repro.comm.packed.PackedMatrix.to_key`): every packed
        kernel answers identically on two automata with the same
        renumbered structure.  Because :meth:`from_nfa` numbers states
        canonically, the key is process-stable — fit for the
        :mod:`repro.engine` disk cache.
        """
        from repro.util.canonical import canonical_encode

        return canonical_encode(
            (
                "PackedNFA",
                self.alphabet.symbols,
                self.n_states,
                tuple(tuple(table) for table in self.tables),
                self.initial_mask,
                self.accepting_mask,
            )
        )

    def __repr__(self) -> str:
        n_transitions = sum(row.bit_count() for table in self.tables for row in table)
        return f"PackedNFA(|Q|={self.n_states}, |δ|={n_transitions})"


class PackedDFA:
    """A DFA with integer states and per-symbol successor-index tables.

    ``tables[s][q]`` is the successor index, or ``-1`` where the partial
    DFA is undefined.

    >>> from repro.words import AB
    >>> dfa = DFA(AB, {0, 1}, {(0, "a"): 1}, 0, {1})
    >>> pdfa = PackedDFA.from_dfa(dfa)
    >>> pdfa.tables, pdfa.is_complete()
    ([[1, -1], [-1, -1]], False)
    """

    __slots__ = ("alphabet", "n_states", "tables", "initial", "accepting_mask", "labels")

    def __init__(
        self,
        alphabet: Alphabet | Iterable[str],
        n_states: int,
        tables: Sequence[Sequence[int]],
        initial: int,
        accepting_mask: int,
        labels: Sequence[State] | None = None,
    ) -> None:
        sigma = alphabet if isinstance(alphabet, Alphabet) else Alphabet(alphabet)
        if n_states < 1:
            raise AutomatonError("an automaton needs at least one state")
        rows = [list(table) for table in tables]
        if len(rows) != len(sigma):
            raise AutomatonError(f"{len(rows)} tables for {len(sigma)} symbols")
        for table in rows:
            if len(table) != n_states:
                raise AutomatonError(f"table of length {len(table)} for {n_states} states")
            for succ in table:
                if not -1 <= succ < n_states:
                    raise AutomatonError(f"successor index {succ} outside 0..{n_states - 1}")
        if not 0 <= initial < n_states:
            raise AutomatonError(f"initial index {initial} outside 0..{n_states - 1}")
        if not 0 <= accepting_mask < (1 << n_states):
            raise AutomatonError("accepting mask does not fit the state count")
        self.alphabet = sigma
        self.n_states = n_states
        self.tables = rows
        self.initial = initial
        self.accepting_mask = accepting_mask
        self.labels = list(labels) if labels is not None else list(range(n_states))
        if len(self.labels) != n_states:
            raise AutomatonError("label count does not match the state count")

    # -- conversions ---------------------------------------------------

    @classmethod
    def from_dfa(cls, dfa: DFA) -> "PackedDFA":
        """Pack a :class:`DFA`, numbering states in canonical order."""
        ordered = _canonical_state_order(dfa.states)
        index = {state: i for i, state in enumerate(ordered)}
        tables = [[-1] * len(ordered) for _ in dfa.alphabet]
        for s, symbol in enumerate(dfa.alphabet):
            table = tables[s]
            for state in ordered:
                succ = dfa.successor(state, symbol)
                if succ is not None:
                    table[index[state]] = index[succ]
        return cls(
            dfa.alphabet,
            len(ordered),
            tables,
            index[dfa.initial],
            mask_of(index[q] for q in dfa.accepting),
            ordered,
        )

    def to_dfa(self) -> DFA:
        """Unpack into a :class:`DFA` carrying the original labels."""
        labels = self.labels
        transitions: dict[tuple[State, str], State] = {}
        for s, symbol in enumerate(self.alphabet):
            table = self.tables[s]
            for q in range(self.n_states):
                succ = table[q]
                if succ >= 0:
                    transitions[(labels[q], symbol)] = labels[succ]
        return DFA._from_validated(
            self.alphabet,
            frozenset(labels),
            transitions,
            labels[self.initial],
            frozenset(labels[q] for q in iter_bits(self.accepting_mask)),
        )

    # -- semantics -----------------------------------------------------

    def successor(self, state: int, symbol_index: int) -> int:
        """The successor index, or ``-1`` where undefined."""
        return self.tables[symbol_index][state]

    def accepts(self, word: str) -> bool:
        """Run the word; reject on any undefined transition."""
        current = self.initial
        for symbol in word:
            if symbol not in self.alphabet:
                return False
            current = self.tables[self.alphabet.index(symbol)][current]
            if current < 0:
                return False
        return bool(self.accepting_mask >> current & 1)

    def is_complete(self) -> bool:
        """Whether every (state, symbol) pair has a successor."""
        return all(succ >= 0 for table in self.tables for succ in table)

    def reachable_mask(self) -> int:
        """The mask of states reachable from the initial state."""
        reached = 1 << self.initial
        frontier = [self.initial]
        while frontier:
            q = frontier.pop()
            for table in self.tables:
                succ = table[q]
                if succ >= 0 and not reached >> succ & 1:
                    reached |= 1 << succ
                    frontier.append(succ)
        return reached

    def to_key(self) -> str:
        """A canonical serialization of the renumbered structure (label-blind)."""
        from repro.util.canonical import canonical_encode

        return canonical_encode(
            (
                "PackedDFA",
                self.alphabet.symbols,
                self.n_states,
                tuple(tuple(table) for table in self.tables),
                self.initial,
                self.accepting_mask,
            )
        )

    def __repr__(self) -> str:
        n_transitions = sum(1 for table in self.tables for succ in table if succ >= 0)
        return f"PackedDFA(|Q|={self.n_states}, |δ|={n_transitions})"


def as_packed_nfa(nfa: "NFA | PackedNFA") -> PackedNFA:
    """Coerce either NFA representation to packed form (cf. ``as_packed``)."""
    if isinstance(nfa, PackedNFA):
        return nfa
    return PackedNFA.from_nfa(nfa)


def as_packed_dfa(dfa: "DFA | PackedDFA") -> PackedDFA:
    """Coerce either DFA representation to packed form."""
    if isinstance(dfa, PackedDFA):
        return dfa
    return PackedDFA.from_dfa(dfa)


# ----------------------------------------------------------------------
# Kernel 1: subset construction over int masks
# ----------------------------------------------------------------------


def packed_determinise(pnfa: PackedNFA) -> PackedDFA:
    """Subset construction with macro-states as big-int masks.

    Macro-states are discovered in the same breadth-first order as the
    frozenset-based construction this replaces (FIFO over discovery,
    symbols in alphabet order), so the resulting integer-labelled DFA is
    *identical* to the legacy output — but one macro-step is the active
    backend's fold (under ``words``/``numpy``, a handful of byte-table
    lookups via :func:`chunked_step_tables`) plus one dict probe on an
    int key, instead of a frozenset union plus a frozenset hash.
    """
    backend = get_backend()
    n_symbols = len(pnfa.alphabet)
    tables: list[list[int]] = [[] for _ in range(n_symbols)]
    steps = [
        (backend.make_step_fn(pnfa.tables[s], pnfa.n_states), tables[s].append)
        for s in range(n_symbols)
    ]
    index_of: dict[int, int] = {pnfa.initial_mask: 0}
    index_get = index_of.get
    order: list[int] = [pnfa.initial_mask]
    append_macro = order.append
    position = 0
    if n_symbols == 2:
        # Unrolled two-symbol loop: the benchmark alphabet, and the hot
        # path — per macro-state this is just two fold/probe/emit rounds
        # with no per-symbol iteration overhead.
        (step0, emit0), (step1, emit1) = steps
        while position < len(order):
            current = order[position]
            nxt = step0(current)
            macro_id = index_get(nxt)
            if macro_id is None:
                macro_id = len(order)
                index_of[nxt] = macro_id
                append_macro(nxt)
            emit0(macro_id)
            nxt = step1(current)
            macro_id = index_get(nxt)
            if macro_id is None:
                macro_id = len(order)
                index_of[nxt] = macro_id
                append_macro(nxt)
            emit1(macro_id)
            position += 1
    else:
        while position < len(order):
            current = order[position]
            for step, emit in steps:
                nxt = step(current)
                macro_id = index_get(nxt)
                if macro_id is None:
                    macro_id = len(order)
                    index_of[nxt] = macro_id
                    append_macro(nxt)
                emit(macro_id)
            position += 1
    accepting = mask_of(
        macro_id for macro_id, macro in enumerate(order) if macro & pnfa.accepting_mask
    )
    return PackedDFA(pnfa.alphabet, len(order), tables, 0, accepting)


# ----------------------------------------------------------------------
# Kernel 2: Hopcroft partition refinement over predecessor lists
# ----------------------------------------------------------------------


def packed_minimise(pdfa: PackedDFA) -> PackedDFA:
    """The minimal complete DFA of the same language, Hopcroft-style.

    Completes and restricts to reachable states, refines the
    accepting/rejecting partition with Hopcroft's "process the smaller
    half" worklist over per-symbol predecessor lists, and relabels the
    quotient canonically by BFS from the initial block — the same
    canonical numbering as the Moore implementation this replaces, so
    outputs are byte-identical.  Every step touches states one at a
    time through plain lists, so a pass costs ``O(|Σ| · m log m)`` on
    ``m`` reachable states, with no ``m``-bit mask anywhere.
    """
    n_symbols = len(pdfa.alphabet)
    n = pdfa.n_states
    tables = [list(table) for table in pdfa.tables]
    # Completion: route undefined transitions to a fresh sink.
    if any(succ < 0 for table in tables for succ in table):
        sink = n
        n += 1
        for table in tables:
            for q in range(len(table)):
                if table[q] < 0:
                    table[q] = sink
            table.append(sink)
    # Restrict to reachable states, renumbered in increasing index order.
    reached = bytearray(n)
    reached[pdfa.initial] = 1
    frontier = [pdfa.initial]
    while frontier:
        q = frontier.pop()
        for table in tables:
            succ = table[q]
            if not reached[succ]:
                reached[succ] = 1
                frontier.append(succ)
    kept = [q for q in range(n) if reached[q]]
    m = len(kept)
    compress = [-1] * n
    for new, old in enumerate(kept):
        compress[old] = new
    ctables = [[compress[table[old]] for old in kept] for table in tables]
    initial = compress[pdfa.initial]
    # `bin` gives the accepting flags LSB-first in one C-level pass.
    accepting_bits = bin(pdfa.accepting_mask)[:1:-1].ljust(n, "0")
    is_accepting = [accepting_bits[old] == "1" for old in kept]

    # Hopcroft refinement.  `pre[s][q]` lists the states entering `q` on
    # symbol `s`; blocks are sets of states, indexed by id, and
    # `block_of[q]` tracks each state's block.  The worklist holds block
    # ids; a splitter's preimage is gathered state by state from the
    # predecessor lists and grouped by block, so only blocks it actually
    # meets are touched.
    pre: list[list[list[int]]] = []
    for table in ctables:
        rows: list[list[int]] = [[] for _ in range(m)]
        for p, q in enumerate(table):
            rows[q].append(p)
        pre.append(rows)
    accepting_states = [q for q in range(m) if is_accepting[q]]
    rejecting_states = [q for q in range(m) if not is_accepting[q]]
    blocks = [set(states) for states in (accepting_states, rejecting_states) if states]
    block_of = [0] * m
    for block_id, block in enumerate(blocks):
        for q in block:
            block_of[q] = block_id
    worklist: deque[int] = deque()
    pending: set[int] = set()
    seed = min(range(len(blocks)), key=lambda b: len(blocks[b]))
    worklist.append(seed)
    pending.add(seed)
    while worklist:
        splitter_id = worklist.popleft()
        pending.discard(splitter_id)
        splitter = list(blocks[splitter_id])
        for rows in pre:
            inside_of: dict[int, list[int]] = {}
            for q in splitter:
                for p in rows[q]:
                    block_id = block_of[p]
                    inside = inside_of.get(block_id)
                    if inside is None:
                        inside_of[block_id] = [p]
                    else:
                        inside.append(p)
            for block_id, inside in inside_of.items():
                block = blocks[block_id]
                if len(inside) == len(block):
                    continue
                block.difference_update(inside)
                new_id = len(blocks)
                blocks.append(set(inside))
                for q in inside:
                    block_of[q] = new_id
                if block_id in pending:
                    pending.add(new_id)
                    worklist.append(new_id)
                else:
                    smaller = new_id if len(inside) <= len(block) else block_id
                    pending.add(smaller)
                    worklist.append(smaller)

    # Quotient + canonical BFS relabelling (same as the legacy numbering).
    representative = [next(iter(block)) for block in blocks]
    block_succ = [
        [block_of[table[q]] for table in ctables] for q in representative
    ]
    relabel = {block_of[initial]: 0}
    order = [block_of[initial]]
    position = 0
    while position < len(order):
        for succ in block_succ[order[position]]:
            if succ not in relabel:
                relabel[succ] = len(order)
                order.append(succ)
        position += 1
    out_tables = [
        [relabel[block_succ[block_id][s]] for block_id in order] for s in range(n_symbols)
    ]
    out_accepting = int(
        "".join("1" if is_accepting[representative[b]] else "0" for b in reversed(order)), 2
    )
    return PackedDFA(pdfa.alphabet, len(order), out_tables, 0, out_accepting)


# ----------------------------------------------------------------------
# Kernel 3: the self-product unambiguity test over pair masks
# ----------------------------------------------------------------------


def _compress_mask(mask: int, compress: dict[int, int]) -> int:
    return mask_of(compress[bit] for bit in iter_bits(mask))


def packed_is_unambiguous(pnfa: PackedNFA) -> bool:
    """The classical self-product UFA criterion, entirely on masks.

    Trims the automaton with two mask fixpoints (accessible and
    co-accessible), then explores the self-product row-wise: the reached
    pair set is kept as ``m`` masks, ``R[p]`` = the states ``q`` with
    ``(p, q)`` reachable from ``I × I`` by a common word.  One forward
    step from row ``p`` under symbol ``σ`` adds ``δ(p, σ) ×
    fold(δ(·, σ), R[p])`` — two OR-folds on ``m``-bit integers per
    (row, symbol), never a tuple set and never an ``m²``-bit value.
    Co-reachability to ``F × F`` runs the dual fold over predecessor
    rows, restricted to reached pairs.  The NFA is unambiguous iff no
    off-diagonal pair survives both passes.
    """
    n_symbols = len(pnfa.alphabet)
    # Trim: accessible ∩ co-accessible states, as mask fixpoints.
    accessible = pnfa.initial_mask
    while True:
        grown = 0
        for s in range(n_symbols):
            grown |= pnfa.step(accessible, s)
        grown &= ~accessible
        if not grown:
            break
        accessible |= grown
    pre = pnfa.predecessor_tables()
    coaccessible = pnfa.accepting_mask
    while True:
        grown = 0
        for s in range(n_symbols):
            grown |= fold_rows(pre[s], coaccessible)
        grown &= ~coaccessible
        if not grown:
            break
        coaccessible |= grown
    keep = accessible & coaccessible
    if not keep:
        return True  # empty language: no word has two runs

    kept = list(iter_bits(keep))
    m = len(kept)
    compress = {old: new for new, old in enumerate(kept)}
    tables = [
        [_compress_mask(pnfa.tables[s][old] & keep, compress) for old in kept]
        for s in range(n_symbols)
    ]
    pre_tables = [
        [_compress_mask(pre[s][old] & keep, compress) for old in kept] for s in range(n_symbols)
    ]
    initial = _compress_mask(pnfa.initial_mask & keep, compress)
    accepting = _compress_mask(pnfa.accepting_mask & keep, compress)

    # Forward: R[p] = {q : (p, q) reachable from I × I by a common word}.
    # Successors of row p under σ: pairs δ(p, σ) × ⋃_{q ∈ R[p]} δ(q, σ).
    reached = [initial if initial >> p & 1 else 0 for p in range(m)]
    dirty = list(iter_bits(initial))
    queued = set(dirty)
    while dirty:
        p = dirty.pop()
        queued.discard(p)
        row = reached[p]
        for s in range(n_symbols):
            targets = tables[s][p]
            if not targets:
                continue
            q_successors = fold_rows(tables[s], row)
            if not q_successors:
                continue
            for p2 in iter_bits(targets):
                if q_successors & ~reached[p2]:
                    reached[p2] |= q_successors
                    if p2 not in queued:
                        queued.add(p2)
                        dirty.append(p2)

    # Backward: C[p] = {q : (p, q) reached and co-reachable to F × F}.
    # Predecessors of rows C under σ, row p: the pairs (p, q) with
    # δ(p, σ) ∩ rows ≠ ∅ and δ(q, σ) ∩ ⋃_{p' ∈ δ(p, σ)} C[p'] ≠ ∅ —
    # i.e. fold C over δ(p, σ), then fold the predecessor table over it.
    co = [
        (accepting & reached[p]) if accepting >> p & 1 else 0 for p in range(m)
    ]
    dirty = [p for p in range(m) if co[p]]
    queued = set(dirty)
    while dirty:
        p2 = dirty.pop()
        queued.discard(p2)
        for s in range(n_symbols):
            sources = pre_tables[s][p2]
            if not sources:
                continue
            for p in iter_bits(sources):
                forward = fold_rows(co, tables[s][p])
                if not forward:
                    continue
                q_predecessors = fold_rows(pre_tables[s], forward) & reached[p]
                if q_predecessors & ~co[p]:
                    co[p] |= q_predecessors
                    if p not in queued:
                        queued.add(p)
                        dirty.append(p)

    return all(not (co[p] & ~(1 << p)) for p in range(m))


# ----------------------------------------------------------------------
# Kernel 4: exact transfer-matrix counting, swept or by repeated squaring
# ----------------------------------------------------------------------


class TransferProblem(NamedTuple):
    """A counting problem restricted to its useful states.

    ``adjacency[i]`` lists the ``(j, count)`` pairs of useful state
    ``i``'s transfer-matrix row: ``count`` symbols (DFA) or transitions
    (NFA, counting runs) lead from ``i`` to ``j``; ascending ``j``,
    non-zero counts only.  ``vector`` is the length-0 count vector and
    ``accepting`` the useful accepting indices.  With no useful state,
    every field is empty.

    A state off every initial→accepting path contributes nothing to any
    count, but can dominate the *intermediate* entries of ``M^k`` — a
    completion sink's self-loops count all ``|Σ|^k`` dead paths, turning
    entries into ``Θ(k)``-bit integers even when the answer itself is
    small — so both counting paths and the dispatch cost model work on
    this restriction, built once per count.
    """

    adjacency: list[list[tuple[int, int]]]
    vector: list[int]
    accepting: list[int]


def dfa_transfer_problem(pdfa: PackedDFA) -> TransferProblem:
    """The useful restriction of ``pdfa``'s word-counting problem."""
    rows = []
    for q in range(pdfa.n_states):
        counts: dict[int, int] = {}
        for table in pdfa.tables:
            succ = table[q]
            if succ >= 0:
                counts[succ] = counts.get(succ, 0) + 1
        rows.append(sorted(counts.items()))
    vector = [0] * pdfa.n_states
    vector[pdfa.initial] = 1
    return _useful_restriction(rows, vector, pdfa.accepting_mask)


def nfa_transfer_problem(pnfa: PackedNFA) -> TransferProblem:
    """The useful restriction of ``pnfa``'s run-counting problem."""
    rows = []
    for q in range(pnfa.n_states):
        counts: dict[int, int] = {}
        for table in pnfa.tables:
            for succ in iter_bits(table[q]):
                counts[succ] = counts.get(succ, 0) + 1
        rows.append(sorted(counts.items()))
    vector = [1 if pnfa.initial_mask >> q & 1 else 0 for q in range(pnfa.n_states)]
    return _useful_restriction(rows, vector, pnfa.accepting_mask)


def _useful_restriction(
    adjacency: list[list[tuple[int, int]]], vector: list[int], accepting_mask: int
) -> TransferProblem:
    """Keep the states on some initial→accepting path, renumbered ascending."""
    n = len(vector)
    forward = bytearray(n)
    stack = [i for i, value in enumerate(vector) if value]
    for i in stack:
        forward[i] = 1
    while stack:
        for j, _count in adjacency[stack.pop()]:
            if not forward[j]:
                forward[j] = 1
                stack.append(j)
    # Co-reachability only through forward states: every state on a path
    # from a forward state is itself forward.
    reverse: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(adjacency):
        if forward[i]:
            for j, _count in row:
                reverse[j].append(i)
    accepting_bits = bin(accepting_mask)[:1:-1]
    useful = bytearray(n)
    stack = [j for j, bit in enumerate(accepting_bits) if bit == "1" and forward[j]]
    for j in stack:
        useful[j] = 1
    while stack:
        for i in reverse[stack.pop()]:
            if not useful[i]:
                useful[i] = 1
                stack.append(i)
    keep = [i for i in range(n) if useful[i]]
    compress = [-1] * n
    for new, old in enumerate(keep):
        compress[old] = new
    return TransferProblem(
        [[(compress[j], count) for j, count in adjacency[i] if useful[j]] for i in keep],
        [vector[i] for i in keep],
        [compress[j] for j, bit in enumerate(accepting_bits) if bit == "1" and useful[j]],
    )


class GrowthProfile(NamedTuple):
    """How the entries of ``M^k`` grow, read off the transfer graph.

    ``polynomial`` is True iff every strongly connected component is
    trivial or a single simple cycle with unit counts — its internal
    transfer weight is at most its size.  Then a length-``L`` count is a
    sum of ``poly(L)`` path products of ones and entries stay at
    ``O(log L)`` bits; otherwise some component carries two cycles (or a
    weighted one) through a common state, counts grow as ``2^Θ(L)`` and
    entries reach ``Θ(L)`` bits.

    ``long_pairs`` counts the pairs ``(i, j)`` joined by walks of
    unbounded length (through some cyclic component) — the non-zero
    pattern late powers ``M^K`` can fill — and ``long_triples`` the
    triples ``(i, k, j)`` with both ``(i, k)`` and ``(k, j)`` long
    pairs: the multiply-adds one late squaring can do.  Both are ``q²``
    and ``q³`` on a strongly connected graph, and far fewer on chains.
    """

    polynomial: bool
    long_pairs: int
    long_triples: int


def growth_profile(problem: TransferProblem) -> GrowthProfile:
    """The :class:`GrowthProfile` of ``problem``'s transfer graph."""
    adjacency = problem.adjacency
    component = _strong_components(adjacency)
    n_components = max(component, default=-1) + 1
    size = [0] * n_components
    weight = [0] * n_components
    members = [0] * n_components
    successors: list[set[int]] = [set() for _ in range(n_components)]
    predecessors: list[set[int]] = [set() for _ in range(n_components)]
    for i, row in enumerate(adjacency):
        c = component[i]
        size[c] += 1
        members[c] |= 1 << i
        for j, count in row:
            d = component[j]
            if d == c:
                weight[c] += count
            else:
                successors[c].add(d)
                predecessors[d].add(c)
    # Tarjan numbers a component after every component it reaches, so
    # ascending ids visit successors first and descending ids predecessors
    # first.  A component is cyclic iff it has an internal edge.
    reach = [0] * n_components
    long_reach = [0] * n_components
    for c in range(n_components):
        below = members[c]
        long_below = 0
        for d in successors[c]:
            below |= reach[d]
            long_below |= long_reach[d]
        reach[c] = below
        long_reach[c] = long_below | below if weight[c] else long_below
    reached_by = [0] * n_components
    long_reached_by = [0] * n_components
    for c in reversed(range(n_components)):
        above = members[c]
        long_above = 0
        for d in predecessors[c]:
            above |= reached_by[d]
            long_above |= long_reached_by[d]
        reached_by[c] = above
        long_reached_by[c] = long_above | above if weight[c] else long_above
    return GrowthProfile(
        all(w <= s for w, s in zip(weight, size)),
        sum(s * long_reach[c].bit_count() for c, s in enumerate(size)),
        sum(
            s * long_reached_by[c].bit_count() * long_reach[c].bit_count()
            for c, s in enumerate(size)
        ),
    )


def _strong_components(adjacency: list[list[tuple[int, int]]]) -> list[int]:
    """Tarjan's algorithm, iterative: the component id of every state."""
    n = len(adjacency)
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    component = [-1] * n
    counter = n_components = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        work = [(root, 0)]
        while work:
            v, k = work[-1]
            row = adjacency[v]
            if k < len(row):
                work[-1] = (v, k + 1)
                w = row[k][0]
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, 0))
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    component[w] = n_components
                    if w == v:
                        break
                n_components += 1
    return component


def count_by_power(problem: TransferProblem, length: int) -> int:
    """The length-``length`` count of ``problem`` by repeated squaring.

    ``O(log length)`` exact products of the dense ``|Q_u| × |Q_u|``
    transfer matrix (zero entries are skipped by the backend).
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    n = len(problem.vector)
    if not n:
        return 0
    matrix = [[0] * n for _ in range(n)]
    for i, row in enumerate(problem.adjacency):
        dense = matrix[i]
        for j, count in row:
            dense[j] = count
    backend = get_backend()
    vector = problem.vector
    remaining = length
    while remaining:
        if remaining & 1:
            vector = backend.vec_mat(vector, matrix)
        remaining >>= 1
        if remaining:
            matrix = backend.mat_mul(matrix, matrix)
    return sum(vector[j] for j in problem.accepting)


def count_by_sweep(problem: TransferProblem, length: int) -> int:
    """The length-``length`` count of ``problem`` by ``length`` vector sweeps."""
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    n = len(problem.vector)
    if not n:
        return 0
    sweep = get_backend().make_sweep_fn(problem.adjacency, n)
    vector = problem.vector
    for _ in range(length):
        vector = sweep(vector)
    return sum(vector[j] for j in problem.accepting)


def count_words_by_power(pdfa: PackedDFA, length: int) -> int:
    """Exact accepted-word count at one length via repeated squaring.

    ``O(|Q|³ log length)`` exact integer matrix products instead of
    ``length`` state sweeps — the win for long words over small automata
    whose counts grow slowly (``count_dfa_words_of_length(d, 2n)`` in
    ``O(log n)`` products).
    """
    return count_by_power(dfa_transfer_problem(pdfa), length)


def count_words_by_sweep(pdfa: PackedDFA, length: int) -> int:
    """Exact accepted-word count at one length via ``length`` vector sweeps.

    ``O(length · |δ|)`` — the better regime for short words or large
    automata; exactly the legacy recurrence on integer vectors instead of
    per-state dicts.
    """
    return count_by_sweep(dfa_transfer_problem(pdfa), length)


def count_words_table(pdfa: PackedDFA, max_length: int) -> dict[int, int]:
    """``{length: #accepted words}`` for every length up to the bound.

    One incremental sweep — each length extends the previous vector, so
    the whole table costs ``O(max_length · |δ|)``.
    """
    if max_length < 0:
        raise ValueError(f"max_length must be non-negative, got {max_length}")
    problem = dfa_transfer_problem(pdfa)
    if not problem.vector:
        return dict.fromkeys(range(max_length + 1), 0)
    sweep = get_backend().make_sweep_fn(problem.adjacency, len(problem.vector))
    vector = problem.vector
    table = {0: sum(vector[j] for j in problem.accepting)}
    for length in range(1, max_length + 1):
        vector = sweep(vector)
        table[length] = sum(vector[j] for j in problem.accepting)
    return table


def count_runs_by_power(pnfa: PackedNFA, length: int) -> int:
    """Exact accepting-run count at one length via repeated squaring."""
    return count_by_power(nfa_transfer_problem(pnfa), length)


def count_runs_by_sweep(pnfa: PackedNFA, length: int) -> int:
    """Exact accepting-run count at one length via vector sweeps."""
    return count_by_sweep(nfa_transfer_problem(pnfa), length)

"""Deterministic finite automata, determinisation and minimisation.

The DFA side of the automata substrate: subset construction from
:class:`~repro.automata.nfa.NFA`, Hopcroft minimisation, completion,
complement, and products.  :func:`determinise` and :func:`minimise` are
thin adapters over the bit-parallel kernels in
:mod:`repro.automata.packed` (macro-states and partition blocks as
big-int masks); their outputs are identical to the frozenset/Moore
implementations they replaced, which are frozen as test oracles in
``tests/legacy_automata.py``.  The minimal acyclic DFA of a finite
language doubles as the canonical small *unambiguous* representation
that the disambiguation pipeline (benchmark E12) converts into a
right-linear uCFG.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.automata.nfa import NFA, State
from repro.errors import AutomatonError
from repro.words.alphabet import Alphabet

__all__ = ["DFA", "determinise", "minimise"]

_SINK = "__sink__"


class DFA:
    """A complete or partial DFA: at most one successor per (state, symbol).

    >>> from repro.words import AB
    >>> dfa = DFA(AB, states={0, 1}, transitions={(0, "a"): 1},
    ...           initial=0, accepting={1})
    >>> dfa.accepts("a"), dfa.accepts("aa")
    (True, False)
    """

    __slots__ = ("_alphabet", "_states", "_delta", "_initial", "_accepting")

    def __init__(
        self,
        alphabet: Alphabet | Iterable[str],
        states: Iterable[State],
        transitions: Mapping[tuple[State, str], State],
        initial: State,
        accepting: Iterable[State],
    ) -> None:
        sigma = alphabet if isinstance(alphabet, Alphabet) else Alphabet(alphabet)
        state_set = frozenset(states)
        if initial not in state_set:
            raise AutomatonError(f"initial state {initial!r} undeclared")
        accepting_set = frozenset(accepting)
        if not accepting_set <= state_set:
            raise AutomatonError(f"accepting states {accepting_set - state_set!r} undeclared")
        delta: dict[tuple[State, str], State] = {}
        for (src, sym), dst in transitions.items():
            if src not in state_set or dst not in state_set:
                raise AutomatonError(f"transition ({src!r},{sym!r})->{dst!r} uses undeclared state")
            if sym not in sigma:
                raise AutomatonError(f"transition on undeclared symbol {sym!r}")
            delta[(src, sym)] = dst
        self._alphabet = sigma
        self._states = state_set
        self._delta = delta
        self._initial = initial
        self._accepting = accepting_set

    @classmethod
    def _from_validated(
        cls,
        alphabet: Alphabet,
        states: frozenset[State],
        transitions: dict[tuple[State, str], State],
        initial: State,
        accepting: frozenset[State],
    ) -> "DFA":
        """Trusted constructor: callers guarantee consistency.

        Skips the per-transition validation of ``__init__`` — for
        internal call sites (e.g. :meth:`PackedDFA.to_dfa`) whose output
        is consistent by construction.  Mirrors
        ``CommMatrix._from_validated``.
        """
        dfa = cls.__new__(cls)
        dfa._alphabet = alphabet
        dfa._states = states
        dfa._delta = transitions
        dfa._initial = initial
        dfa._accepting = accepting
        return dfa

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    @property
    def states(self) -> frozenset[State]:
        return self._states

    @property
    def initial(self) -> State:
        return self._initial

    @property
    def accepting(self) -> frozenset[State]:
        return self._accepting

    @property
    def n_states(self) -> int:
        return len(self._states)

    @property
    def n_transitions(self) -> int:
        return len(self._delta)

    def successor(self, state: State, symbol: str) -> State | None:
        """``δ(state, symbol)``, or ``None`` where undefined (partial DFA)."""
        return self._delta.get((state, symbol))

    def transitions(self) -> dict[tuple[State, str], State]:
        """A copy of the transition map."""
        return dict(self._delta)

    def accepts(self, word: str) -> bool:
        """Run the word; reject on any undefined transition."""
        current = self._initial
        for symbol in word:
            nxt = self._delta.get((current, symbol))
            if nxt is None:
                return False
            current = nxt
        return current in self._accepting

    def is_complete(self) -> bool:
        """Whether every (state, symbol) pair has a successor."""
        return all(
            (q, s) in self._delta for q in self._states for s in self._alphabet
        )

    def completed(self) -> "DFA":
        """Return an equivalent complete DFA (adds a sink if needed)."""
        if self.is_complete():
            return self
        states = set(self._states) | {_SINK}
        delta = dict(self._delta)
        for q in states:
            for s in self._alphabet:
                delta.setdefault((q, s), _SINK)
        return DFA(self._alphabet, states, delta, self._initial, self._accepting)

    def complement(self) -> "DFA":
        """Return a DFA for the complement language (over ``Σ*``)."""
        complete = self.completed()
        return DFA(
            complete._alphabet,
            complete._states,
            complete._delta,
            complete._initial,
            complete._states - complete._accepting,
        )

    def to_nfa(self) -> NFA:
        """View this DFA as an NFA."""
        transitions = {
            (src, sym): {dst} for (src, sym), dst in self._delta.items()
        }
        return NFA(self._alphabet, self._states, transitions, {self._initial}, self._accepting)

    def reachable(self) -> "DFA":
        """Restrict to the states reachable from the initial state."""
        seen: set[State] = {self._initial}
        frontier = [self._initial]
        while frontier:
            q = frontier.pop()
            for s in self._alphabet:
                nxt = self._delta.get((q, s))
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        delta = {k: v for k, v in self._delta.items() if k[0] in seen}
        return DFA(self._alphabet, seen, delta, self._initial, self._accepting & seen)

    def __repr__(self) -> str:
        return f"DFA(|Q|={self.n_states}, |δ|={self.n_transitions}, |F|={len(self._accepting)})"


def determinise(nfa: NFA) -> DFA:
    """Subset construction: an equivalent DFA over reachable macro-states.

    Macro-states are discovered breadth-first (symbols in alphabet order)
    and numbered ``0..k-1`` in discovery order with ``0`` initial; the
    result is complete.  Runs on the bit-parallel kernel
    :func:`repro.automata.packed.packed_determinise` — one OR-fold over
    big-int masks per symbol instead of frozenset unions and hashing.
    """
    # Imported lazily: packed.py builds on the DFA class defined above.
    from repro.automata.packed import PackedNFA, packed_determinise

    return packed_determinise(PackedNFA.from_nfa(nfa)).to_dfa()


def minimise(dfa: DFA) -> DFA:
    """Return the minimal complete DFA of the same language.

    Hopcroft partition refinement on the reachable, completed automaton
    (:func:`repro.automata.packed.packed_minimise`: per-symbol
    predecessor lists, set blocks, "process the smaller half" worklist).  States of
    the result are integers ``0..k-1``, numbered by BFS from the initial
    block with ``0`` initial — the same canonical numbering as the Moore
    refinement this replaced, so outputs are identical.
    """
    from repro.automata.packed import PackedDFA, packed_minimise

    return packed_minimise(PackedDFA.from_dfa(dfa)).to_dfa()

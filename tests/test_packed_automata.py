"""Property tests: packed automata kernels vs the frozen legacy oracles.

Exact agreement throughout — DFA structure for determinise/minimise,
booleans for the UFA test, arbitrary-precision integers for counting
(no floats anywhere) — on seeded random NFAs and on the paper's ``L_n``
family.  Plus round-trip/`to_key` invariants of the packed
representation, the UFA edge cases from ISSUE 5, and the
``trim_nfa``/`language_up_to` satellite regressions.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import time

import pytest

from tests.legacy_automata import (
    legacy_count_dfa_words_of_length,
    legacy_count_dfa_words_up_to,
    legacy_count_nfa_runs_of_length,
    legacy_determinise,
    legacy_is_unambiguous_nfa,
    legacy_language_up_to,
    legacy_minimise,
)
from repro.automata import (
    DFA,
    NFA,
    PackedDFA,
    PackedNFA,
    as_packed_dfa,
    as_packed_nfa,
    count_dfa_words_of_length,
    count_dfa_words_up_to,
    count_nfa_runs_of_length,
    determinise,
    is_unambiguous_nfa,
    minimise,
    packed_determinise,
    packed_is_unambiguous,
    packed_minimise,
    trim_nfa,
)
from repro.automata.counting import count_path
from repro.automata.packed import (
    TransferProblem,
    count_by_power,
    count_by_sweep,
    count_runs_by_power,
    count_words_by_power,
    count_words_by_sweep,
    dfa_transfer_problem,
    fold_rows,
    growth_profile,
    nfa_transfer_problem,
)
from repro.backend import available_backends, use_backend
from repro.errors import AutomatonError
from repro.languages.dfa_ln import ln_match_minimal_dfa, ln_minimal_dfa, ln_unique_match_dfa
from repro.languages.nfa_ln import ln_match_nfa, ln_nfa_exact
from repro.words.alphabet import AB, Alphabet


def _random_nfa(seed: int, max_states: int = 6) -> NFA:
    """A small seeded random NFA over {a, b} (superset of test_automata's)."""
    rng = random.Random(seed)
    n_states = rng.randint(1, max_states)
    states = list(range(n_states))
    transitions: dict[tuple[object, str], set[object]] = {}
    for q in states:
        for s in "ab":
            targets = {t for t in states if rng.random() < 0.4}
            if targets:
                transitions[(q, s)] = targets
    initial = {q for q in states if rng.random() < 0.5} or {0}
    accepting = {q for q in states if rng.random() < 0.4}
    return NFA(AB, states, transitions, initial, accepting)


def _assert_same_dfa(ours: DFA, oracle: DFA) -> None:
    """Structural equality — both pipelines emit canonically numbered DFAs."""
    assert ours.alphabet == oracle.alphabet
    assert ours.states == oracle.states
    assert ours.initial == oracle.initial
    assert ours.accepting == oracle.accepting
    assert ours.transitions() == oracle.transitions()


LN_RANGE = range(1, 7)


class TestPackedRepresentation:
    def test_nfa_round_trip_preserves_language_and_key(self):
        for seed in range(60):
            nfa = _random_nfa(seed)
            packed = PackedNFA.from_nfa(nfa)
            back = packed.to_nfa()
            assert back.to_key() == nfa.to_key(), seed
            assert PackedNFA.from_nfa(back).to_key() == packed.to_key(), seed

    def test_dfa_round_trip_is_lossless(self):
        for seed in range(40):
            dfa = legacy_determinise(_random_nfa(seed))
            packed = PackedDFA.from_dfa(dfa)
            back = packed.to_dfa()
            assert back.states == dfa.states, seed
            assert back.transitions() == dfa.transitions(), seed
            assert back.initial == dfa.initial, seed
            assert back.accepting == dfa.accepting, seed

    def test_packed_accepts_matches_nfa(self):
        for seed in range(30):
            nfa = _random_nfa(seed)
            packed = PackedNFA.from_nfa(nfa)
            for word in ("", "a", "b", "ab", "ba", "aabb", "abab", "bbbbb"):
                assert packed.accepts(word) == nfa.accepts(word), (seed, word)

    def test_to_key_is_label_blind(self):
        base = NFA(AB, {0, 1}, {(0, "a"): {1}}, {0}, {1})
        renamed = NFA(AB, {"x", "y"}, {("x", "a"): {"y"}}, {"x"}, {"y"})
        assert PackedNFA.from_nfa(base).to_key() == PackedNFA.from_nfa(renamed).to_key()

    def test_to_key_distinguishes_structure(self):
        one = NFA(AB, {0, 1}, {(0, "a"): {1}}, {0}, {1})
        other = NFA(AB, {0, 1}, {(0, "b"): {1}}, {0}, {1})
        assert PackedNFA.from_nfa(one).to_key() != PackedNFA.from_nfa(other).to_key()

    def test_as_packed_is_idempotent(self):
        packed = as_packed_nfa(_random_nfa(3))
        assert as_packed_nfa(packed) is packed
        pdfa = as_packed_dfa(legacy_determinise(_random_nfa(3)))
        assert as_packed_dfa(pdfa) is pdfa

    def test_validation_rejects_malformed(self):
        with pytest.raises(AutomatonError):
            PackedNFA(AB, 0, [[], []], 0, 0)
        with pytest.raises(AutomatonError):
            PackedNFA(AB, 1, [[0]], 0, 0)  # one table for two symbols
        with pytest.raises(AutomatonError):
            PackedNFA(AB, 1, [[2], [0]], 0, 0)  # mask overflows state count
        with pytest.raises(AutomatonError):
            PackedDFA(AB, 2, [[1, 0], [0, 2]], 0, 0)  # successor out of range
        with pytest.raises(AutomatonError):
            PackedDFA(AB, 2, [[1, 0], [0, 1]], 2, 0)  # initial out of range

    def test_fold_rows(self):
        assert fold_rows([0b01, 0b10, 0b100], 0b101) == 0b101
        assert fold_rows([0b01, 0b10], 0) == 0


class TestDeterminiseAgreement:
    def test_random_nfas_exact_structure(self):
        for seed in range(80):
            nfa = _random_nfa(seed)
            _assert_same_dfa(determinise(nfa), legacy_determinise(nfa))

    def test_ln_family_exact_structure(self):
        for n in LN_RANGE:
            nfa = ln_match_nfa(n)
            _assert_same_dfa(determinise(nfa), legacy_determinise(nfa))

    def test_ln_exact_family_exact_structure(self):
        for n in range(1, 5):
            nfa = ln_nfa_exact(n)
            _assert_same_dfa(determinise(nfa), legacy_determinise(nfa))


class TestMinimiseAgreement:
    def test_random_nfas_exact_structure(self):
        for seed in range(80):
            dfa = legacy_determinise(_random_nfa(seed))
            _assert_same_dfa(minimise(dfa), legacy_minimise(dfa))

    def test_partial_dfas(self):
        from repro.automata.ops import dfa_from_finite_language

        words = {"", "a", "ab", "ba", "abab", "bb"}
        dfa = dfa_from_finite_language(words, AB)
        _assert_same_dfa(minimise(dfa), legacy_minimise(dfa))

    def test_ln_family_exact_structure(self):
        for n in LN_RANGE:
            dfa = legacy_determinise(ln_match_nfa(n))
            _assert_same_dfa(minimise(dfa), legacy_minimise(dfa))

    def test_ln_minimal_dfa_unchanged(self):
        # End-to-end through the languages module (trie + minimise route).
        for n in range(1, 4):
            dfa = ln_minimal_dfa(n)
            assert dfa.n_states == legacy_minimise(legacy_determinise(ln_nfa_exact(n))).n_states

    def test_minimise_of_minimal_is_identity_sized(self):
        for n in LN_RANGE:
            dfa = ln_match_minimal_dfa(n)
            again = minimise(dfa)
            assert again.n_states == dfa.n_states


class TestUnambiguityAgreement:
    def test_random_nfas(self):
        verdicts = set()
        for seed in range(120):
            nfa = _random_nfa(seed)
            got = is_unambiguous_nfa(nfa)
            assert got == legacy_is_unambiguous_nfa(nfa), seed
            verdicts.add(got)
        assert verdicts == {True, False}  # the corpus exercises both branches

    def test_ln_match_nfa_is_ambiguous_both_paths(self):
        # The Θ(n) guess-and-verify NFA is ambiguous for every n ≥ 1
        # (e.g. a^{2n} has one matching pair per starting position).
        for n in LN_RANGE:
            nfa = ln_match_nfa(n)
            assert legacy_is_unambiguous_nfa(nfa) is False, n
            assert is_unambiguous_nfa(nfa) is False, n
            assert packed_is_unambiguous(PackedNFA.from_nfa(nfa)) is False, n

    def test_ln_exact_nfa_ambiguity_both_paths(self):
        # n = 1 is the degenerate unambiguous case (L_1 = {"aa"}, one run);
        # every n ≥ 2 is ambiguous (a^{2n} has ≥ 2 matching positions).
        for n in range(1, 5):
            nfa = ln_nfa_exact(n)
            expected = n == 1
            assert legacy_is_unambiguous_nfa(nfa) is expected, n
            assert is_unambiguous_nfa(nfa) is expected, n


class TestUnambiguityEdgeCases:
    """The ISSUE 5 edge cases, on both the legacy and packed paths."""

    def _both(self, nfa: NFA) -> tuple[bool, bool]:
        return legacy_is_unambiguous_nfa(nfa), is_unambiguous_nfa(nfa)

    def test_no_initial_states(self):
        nfa = NFA(AB, {0, 1}, {(0, "a"): {1}}, set(), {1})
        legacy, packed = self._both(nfa)
        assert legacy is True and packed is True  # empty language: no run at all

    def test_no_accepting_states(self):
        nfa = NFA(AB, {0, 1}, {(0, "a"): {1}}, {0}, set())
        legacy, packed = self._both(nfa)
        assert legacy is True and packed is True

    def test_initial_intersect_accepting_epsilon_acceptance(self):
        # Two distinct initial states that are both accepting: the empty
        # word has two accepting runs, so the NFA is ambiguous.
        nfa = NFA(
            AB,
            {0, 1},
            {(0, "a"): {0}, (1, "a"): {1}},
            {0, 1},
            {0, 1},
        )
        assert nfa.count_accepting_runs("") == 2
        legacy, packed = self._both(nfa)
        assert legacy is False and packed is False

    def test_single_initial_accepting_state_unambiguous(self):
        nfa = NFA(AB, {0}, {(0, "a"): {0}}, {0}, {0})
        legacy, packed = self._both(nfa)
        assert legacy is True and packed is True

    def test_multiple_initial_states_sharing_a_run(self):
        # Both initial states reach the accepting state on "a": "a" has two
        # accepting runs even though each state alone is deterministic.
        nfa = NFA(
            AB,
            {0, 1, 2},
            {(0, "a"): {2}, (1, "a"): {2}},
            {0, 1},
            {2},
        )
        assert nfa.count_accepting_runs("a") == 2
        legacy, packed = self._both(nfa)
        assert legacy is False and packed is False

    def test_multiple_initial_states_disjoint_languages(self):
        # Two initial states with disjoint future alphabets: unambiguous.
        nfa = NFA(
            AB,
            {0, 1, 2, 3},
            {(0, "a"): {2}, (1, "b"): {3}},
            {0, 1},
            {2, 3},
        )
        legacy, packed = self._both(nfa)
        assert legacy is True and packed is True


class TestCountingAgreement:
    def test_random_dfa_counts_exact(self):
        for seed in range(40):
            dfa = legacy_determinise(_random_nfa(seed))
            for length in range(7):
                assert count_dfa_words_of_length(dfa, length) == \
                    legacy_count_dfa_words_of_length(dfa, length), (seed, length)

    def test_random_dfa_count_tables_exact(self):
        for seed in range(25):
            dfa = legacy_determinise(_random_nfa(seed))
            assert count_dfa_words_up_to(dfa, 6) == legacy_count_dfa_words_up_to(dfa, 6), seed

    def test_random_nfa_run_counts_exact(self):
        for seed in range(40):
            nfa = _random_nfa(seed)
            for length in range(7):
                assert count_nfa_runs_of_length(nfa, length) == \
                    legacy_count_nfa_runs_of_length(nfa, length), (seed, length)

    def test_power_equals_sweep_on_long_lengths(self):
        # The repeated-squaring path must agree bit-for-bit with the sweep
        # on long lengths, where the dispatch can pick either.
        for n in range(1, 5):
            packed = as_packed_dfa(ln_match_minimal_dfa(n))
            for length in (4 * packed.n_states + 1, 64, 257):
                assert count_words_by_power(packed, length) == \
                    count_words_by_sweep(packed, length), (n, length)

    def test_power_run_counts_match_legacy_on_ln(self):
        for n in range(1, 4):
            nfa = ln_match_nfa(n)
            packed = as_packed_nfa(nfa)
            for length in (0, 1, 2 * n, 4 * packed.n_states + 3):
                assert count_runs_by_power(packed, length) == \
                    legacy_count_nfa_runs_of_length(nfa, length), (n, length)

    def test_counts_are_exact_big_ints(self):
        # 2^Θ(n) counts far beyond float precision: exactness is observable.
        dfa = ln_match_minimal_dfa(4)
        value = count_dfa_words_of_length(dfa, 400)
        assert isinstance(value, int)
        assert value > 2**300
        assert value != int(float(value))  # a float round-trip loses bits

    def test_counting_matches_language_enumeration(self):
        for n in (1, 2):
            nfa = ln_nfa_exact(n)
            dfa = minimise(determinise(nfa))
            words = [w for w in nfa.language_up_to(2 * n) if len(w) == 2 * n]
            assert count_dfa_words_of_length(dfa, 2 * n) == len(words)


class TestSatelliteRegressions:
    def test_language_up_to_matches_legacy_enumeration(self):
        for seed in range(40):
            nfa = _random_nfa(seed)
            assert nfa.language_up_to(5) == legacy_language_up_to(nfa, 5), seed

    def test_language_up_to_prunes_dead_prefixes(self):
        # A two-word finite language: the BFS must stay polynomial-small,
        # which we observe by it answering instantly on a length bound
        # whose naive enumeration would be 2^40 words.
        from repro.automata.ops import dfa_from_finite_language

        nfa = dfa_from_finite_language({"ab", "ba"}, AB).to_nfa()
        assert nfa.language_up_to(40) == frozenset({"ab", "ba"})

    def test_language_up_to_empty_and_negative_bounds(self):
        nfa = ln_match_nfa(1)
        assert nfa.language_up_to(-1) == frozenset()
        assert nfa.language_up_to(0) == frozenset()

    def test_trim_nfa_empty_language_is_hash_seed_stable(self):
        # Regression for the `next(iter(...))` fallback: the trimmed empty
        # automaton's to_key() must be identical across hash seeds.
        program = (
            "import sys; sys.path.insert(0, 'src'); sys.path.insert(0, 'tests');\n"
            "from repro.automata.ops import trim_nfa\n"
            "from repro.automata.nfa import NFA\n"
            "from repro.words.alphabet import AB\n"
            "states = ['alpha', 'beta', 'gamma', 'delta', 'omega']\n"
            "nfa = NFA(AB, states, {('alpha', 'a'): {'beta'}}, {'alpha'}, set())\n"
            "print(trim_nfa(nfa).to_key())"
        )
        keys = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                check=True,
            )
            keys.add(out.stdout.strip())
        assert len(keys) == 1, keys

    def test_trim_nfa_empty_language_picks_canonical_minimum(self):
        nfa = NFA(AB, {"zz", "aa", "mm"}, {}, {"zz"}, set())
        trimmed = trim_nfa(nfa)
        assert trimmed.states == frozenset({"aa"})
        assert trimmed.initial == frozenset({"aa"})
        assert trimmed.accepting == frozenset()

    def test_trim_nfa_nonempty_language_unchanged_semantics(self):
        for seed in range(30):
            nfa = _random_nfa(seed)
            trimmed = trim_nfa(nfa)
            for word in ("", "a", "b", "ab", "abab"):
                assert trimmed.accepts(word) == nfa.accepts(word), (seed, word)


class TestUnaryAndWideAlphabets:
    """The kernels must not be hardwired to |Σ| = 2."""

    def test_unary_alphabet(self):
        unary = Alphabet("a")
        nfa = NFA(unary, {0, 1, 2}, {(0, "a"): {1, 2}, (1, "a"): {0}}, {0}, {1})
        _assert_same_dfa(determinise(nfa), legacy_determinise(nfa))
        assert is_unambiguous_nfa(nfa) == legacy_is_unambiguous_nfa(nfa)

    def test_three_symbol_alphabet(self):
        abc = Alphabet("abc")
        rng = random.Random(7)
        states = list(range(5))
        transitions: dict[tuple[object, str], set[object]] = {}
        for q in states:
            for s in "abc":
                targets = {t for t in states if rng.random() < 0.3}
                if targets:
                    transitions[(q, s)] = targets
        nfa = NFA(abc, states, transitions, {0}, {4})
        _assert_same_dfa(determinise(nfa), legacy_determinise(nfa))
        dfa = legacy_determinise(nfa)
        _assert_same_dfa(minimise(dfa), legacy_minimise(dfa))
        for length in range(6):
            assert count_nfa_runs_of_length(nfa, length) == \
                legacy_count_nfa_runs_of_length(nfa, length), length


class TestBenchAndEngine:
    def test_bench_row_cross_checks_and_reports_speedups(self):
        from repro.automata.bench import bench_automata_row

        row = bench_automata_row(3)
        ops = row["ops"]
        for name in ("determinise", "minimise", "ambiguity"):
            op = ops[name]
            assert op["agree"]
            assert "seconds" in op["legacy"] and "seconds" in op["packed"]
        assert ops["ambiguity"]["legacy"]["value"] is False  # exact L_3 NFA

    def test_bench_count_row_matches_closed_form(self):
        from repro.automata.bench import bench_count_row

        row = bench_count_row(10, n=8)
        assert row["count"] == 2**10 - 8
        assert row["agree"] and "seconds" in row["legacy"]

    def test_bench_summary_frontiers(self):
        from repro.automata.bench import (
            bench_automata_row,
            bench_count_row,
            summarise_automata_rows,
        )

        rows = [bench_automata_row(n) for n in (2, 3)]
        count_rows = [bench_count_row(10)]
        summary = summarise_automata_rows(rows, count_rows, budget_s=60.0)
        det = summary["ops"]["determinise"]
        assert det["largest_common_n"] == 3
        assert det["largest_n_within_budget"] == {"legacy": 3, "packed": 3}
        assert summary["ops"]["counting"]["largest_common_exp"] == 10

    def test_automata_bench_job_runs_through_engine(self):
        from repro.engine import Engine

        engine = Engine(cache=None)
        result = engine.run_one(
            "automata.bench",
            {"max_n": 2, "max_count_exp": 10, "budget_s": 60.0},
        )
        assert [row["n"] for row in result["rows"]] == [1, 2]
        assert [row["exp"] for row in result["count_rows"]] == [10]
        assert "determinise" in result["summary"]["ops"]

    def test_automata_jobs(self):
        from repro.engine import Engine
        from repro.languages.ln import count_ln

        engine = Engine(cache=None)
        det = engine.run_one("automata.determinise", {"n": 3})
        assert det["dfa_states"] >= det["min_dfa_states"] == 9
        amb = engine.run_one("automata.ambiguity", {"n": 2, "exact": True})
        assert amb["unambiguous"] is False
        count = engine.run_one("automata.count", {"n": 2, "length": 4})
        from repro.languages.dfa_ln import ln_match_minimal_dfa

        expected = legacy_count_dfa_words_of_length(ln_match_minimal_dfa(2), 4)
        assert count["match_count_bits"] == expected.bit_length()
        assert int(count["match_count_checksum"], 16) == expected % (1 << 64)
        assert count["unique_count"] == 2  # slender closed form: length - n

    def test_cli_bench_automata_smoke(self, capsys, tmp_path):
        import json

        from repro.cli import main

        out_path = tmp_path / "BENCH_automata.json"
        assert (
            main(
                [
                    "bench",
                    "automata",
                    "--max-n",
                    "2",
                    "--max-count-exp",
                    "10",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "packed bit-parallel kernels" in printed
        artifact = json.loads(out_path.read_text())
        assert artifact["kind"] == "automata_bench"
        assert artifact["rows"][0]["n"] == 1


class TestUniqueMatchDfa:
    def test_membership_and_slender_counts(self):
        from repro.languages.dfa_ln import ln_unique_match_dfa

        for n in (1, 2, 4):
            dfa = ln_unique_match_dfa(n)
            assert dfa.n_states == n + 3 and dfa.is_complete()
            assert dfa.accepts("a" + "b" * (n - 1) + "a")
            assert dfa.accepts("b" + "a" + "b" * (n - 1) + "a" + "bb")
            assert not dfa.accepts("a" + "b" * n + "a")  # distance n+1
            assert not dfa.accepts("aa" * 2) or n == 1
            for length in range(n + 4):
                assert count_dfa_words_of_length(dfa, length) == max(0, length - n)

    def test_unique_match_is_within_the_match_language(self):
        from repro.languages.dfa_ln import ln_unique_match_dfa
        from repro.languages.nfa_ln import ln_match_nfa

        n = 3
        unique, match = ln_unique_match_dfa(n), ln_match_nfa(n)
        for word in unique.to_nfa().language_up_to(n + 4):
            assert match.accepts(word)

    def test_rejects_nonpositive_n(self):
        from repro.languages.dfa_ln import ln_unique_match_dfa

        with pytest.raises(ValueError):
            ln_unique_match_dfa(0)


class TestUsefulStateRestriction:
    """The power route must not let completion sinks inflate entries."""

    def test_power_agrees_on_automata_with_dead_states(self):
        from repro.automata.packed import count_words_by_power, count_words_by_sweep
        from repro.languages.dfa_ln import ln_unique_match_dfa

        pdfa = as_packed_dfa(ln_unique_match_dfa(3))
        for length in (0, 1, 5, 37, 200):
            assert count_words_by_power(pdfa, length) == \
                count_words_by_sweep(pdfa, length)

    def test_empty_language_counts_zero(self):
        from repro.automata.packed import count_words_by_power

        dfa = DFA(AB, {0, 1}, {(0, "a"): 0, (0, "b"): 0}, 0, {1})
        pdfa = as_packed_dfa(dfa)
        for length in (0, 1, 8, 1 << 20):
            assert count_words_by_power(pdfa, length) == 0

    def test_length_zero_with_accepting_initial(self):
        from repro.automata.packed import count_words_by_power

        dfa = DFA(AB, {0}, {}, 0, {0})
        assert count_words_by_power(as_packed_dfa(dfa), 0) == 1


def _random_partial_dfa(seed: int, n_states: int) -> DFA:
    """A seeded partial DFA whose high-numbered states are often unreachable."""
    rng = random.Random(seed)
    transitions = {}
    for q in range(n_states):
        for symbol in "ab":
            if rng.random() < 0.75:
                # Mostly backward edges, so later states tend to stay unreached.
                transitions[(q, symbol)] = rng.randrange(min(n_states, q + 2))
    accepting = {q for q in range(n_states) if rng.random() < 0.4}
    return DFA(AB, range(n_states), transitions, 0, accepting)


class TestMinimiseRegression:
    """Predecessor-list Hopcroft: outputs identical to the mask version."""

    def test_ln_match_13_fingerprint(self):
        # Recorded from the block-mask implementation this replaced: the
        # paper's 2^n + 1 minimal-DFA size for L_13, and a hash of the
        # canonically numbered tables.
        pdfa = packed_minimise(packed_determinise(as_packed_nfa(ln_match_nfa(13))))
        payload = repr((pdfa.n_states, pdfa.tables, pdfa.initial, hex(pdfa.accepting_mask)))
        assert pdfa.n_states == 8193 == 2**13 + 1
        assert hashlib.sha256(payload.encode()).hexdigest() == (
            "4b7cbb8068dbc3f32031e79ef89f1659307c1ec0cf8b3304a6e6d12069d9b63d"
        )

    @pytest.mark.parametrize("tier", available_backends())
    def test_random_partial_dfas_with_unreachable_states(self, tier):
        unreachable = 0
        with use_backend(tier):
            for seed in range(60):
                dfa = _random_partial_dfa(seed, 3 + seed % 10)
                unreachable += len(dfa.states) - len(dfa.reachable().states)
                _assert_same_dfa(minimise(dfa), legacy_minimise(dfa))
        assert unreachable > 0  # the family really exercises the restriction


def _recorded_paths(monkeypatch) -> list[str]:
    """Patch the counting entry points to record which path they take."""
    from repro.automata import counting

    paths: list[str] = []

    def recorder(name, kernel):
        def run(problem, length):
            paths.append(name)
            return kernel(problem, length)

        return run

    monkeypatch.setattr(counting, "count_by_power", recorder("power", counting.count_by_power))
    monkeypatch.setattr(counting, "count_by_sweep", recorder("sweep", counting.count_by_sweep))
    return paths


class TestCountRouting:
    """The growth-aware dispatch: deterministic routing pins and exactness."""

    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("length", [1024, 4096])
    def test_match_dfa_is_exponential_and_sweeps(self, n, length, monkeypatch):
        dfa = ln_match_minimal_dfa(n)
        for problem in (
            dfa_transfer_problem(as_packed_dfa(dfa)),
            nfa_transfer_problem(as_packed_nfa(dfa.to_nfa())),
        ):
            assert not growth_profile(problem).polynomial
            assert count_path(problem, length) == "sweep"
        paths = _recorded_paths(monkeypatch)
        count_dfa_words_of_length(dfa, length)
        count_nfa_runs_of_length(dfa.to_nfa(), length)
        assert paths == ["sweep", "sweep"]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unique_match_dfa_is_polynomial_and_squares(self, n, monkeypatch):
        dfa = ln_unique_match_dfa(n)
        for problem in (
            dfa_transfer_problem(as_packed_dfa(dfa)),
            nfa_transfer_problem(as_packed_nfa(dfa.to_nfa())),
        ):
            assert growth_profile(problem).polynomial
            assert count_path(problem, 4096) == "power"
        paths = _recorded_paths(monkeypatch)
        assert count_dfa_words_of_length(dfa, 4096) == 4096 - n
        assert count_nfa_runs_of_length(dfa.to_nfa(), 4096) == 4096 - n
        assert paths == ["power", "power"]

    def test_growth_profile_on_small_graphs(self):
        def profile(rows, n):
            return growth_profile(TransferProblem(rows, [1] + [0] * (n - 1), [n - 1]))

        # A 3-cycle with unit counts: polynomial, dense long pattern.
        cycle = profile([[(1, 1)], [(2, 1)], [(0, 1)]], 3)
        assert cycle == (True, 9, 27)
        # The same cycle with one doubled edge: exponential.
        assert not profile([[(1, 2)], [(2, 1)], [(0, 1)]], 3).polynomial
        # A loop-free chain: no long walks at all.
        assert profile([[(1, 1)], [(2, 1)], []], 3) == (True, 0, 0)
        # A chain between two unit self-loops stays polynomial and sparse.
        ends = profile([[(0, 1), (1, 1)], [(2, 1)], [(2, 1)]], 3)
        assert ends.polynomial and ends.long_pairs == 5

    @pytest.mark.parametrize("tier", available_backends())
    def test_both_paths_agree_on_a_grid(self, tier):
        automata = []
        for n in (1, 2, 3, 4):
            automata.append(as_packed_dfa(ln_match_minimal_dfa(n)))
            automata.append(as_packed_dfa(ln_unique_match_dfa(n)))
            automata.append(as_packed_nfa(ln_match_nfa(n)))
        automata.append(as_packed_dfa(DFA(AB, {0, 1}, {(0, "a"): 0, (0, "b"): 1}, 0, {1})))
        with use_backend(tier):
            for automaton in automata:
                if isinstance(automaton, PackedDFA):
                    problem = dfa_transfer_problem(automaton)
                else:
                    problem = nfa_transfer_problem(automaton)
                for length in (0, 1, 2, 7, 64, 200):
                    assert count_by_power(problem, length) == count_by_sweep(problem, length), (
                        automaton,
                        length,
                    )

    def test_negative_length_raises_before_routing(self, monkeypatch):
        from repro.automata import counting

        def forbidden(*_args, **_kwargs):
            raise AssertionError("routing work before the length check")

        for name in ("dfa_transfer_problem", "nfa_transfer_problem", "count_path"):
            monkeypatch.setattr(counting, name, forbidden)
        monkeypatch.setattr(PackedDFA, "from_dfa", forbidden)
        monkeypatch.setattr(PackedNFA, "from_nfa", forbidden)
        dfa = ln_unique_match_dfa(2)
        with pytest.raises(ValueError):
            count_dfa_words_of_length(dfa, -1)
        with pytest.raises(ValueError):
            count_nfa_runs_of_length(dfa.to_nfa(), -1)

    def test_no_useful_state_counts_zero(self):
        no_accepting = DFA(AB, {0, 1}, {(0, "a"): 1, (1, "b"): 0}, 0, set())
        unreachable_accepting = DFA(AB, {0, 1}, {(0, "a"): 0}, 0, {1})
        no_initial = NFA(AB, {0, 1}, {(0, "a"): {1}}, set(), {1})
        for length in (0, 1, 5, 4096):
            assert count_dfa_words_of_length(no_accepting, length) == 0
            assert count_dfa_words_of_length(unreachable_accepting, length) == 0
            assert count_nfa_runs_of_length(no_initial, length) == 0
            assert count_nfa_runs_of_length(no_accepting.to_nfa(), length) == 0
        assert dfa_transfer_problem(as_packed_dfa(no_accepting)) == ([], [], [])


def _best_ms(kernel, problem, length, runs: int, stop_above: float = float("inf")) -> float:
    """Best-of-``runs`` wall time in ms; stops early once the best exceeds ``stop_above``."""
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        kernel(problem, length)
        best = min(best, (time.perf_counter() - start) * 1000)
        if best > stop_above:
            break
    return best


def test_dispatch_is_never_twice_as_slow():
    """The routing gate: the chosen path is within 2x of the other path.

    A best-of-3 grid over the L_n families and two seeded random complete
    DFAs (|Q_u| <= 65, length <= 1024).
    Differences under 2 ms are below timing resolution and pass.  The
    path not chosen stops repeating once it is 4x slower than the chosen
    one: a repeat would have to run twice as fast as all before it to
    change the verdict, and the slowest cells then cost one run.
    """
    problems = []
    for n in (1, 3, 5, 6):
        problems.append((f"match{n}", dfa_transfer_problem(as_packed_dfa(ln_match_minimal_dfa(n)))))
    for n in (2, 8, 40, 62):
        problems.append((f"unique{n}", dfa_transfer_problem(as_packed_dfa(ln_unique_match_dfa(n)))))
    for n in (3, 9):
        problems.append((f"nfa{n}", nfa_transfer_problem(as_packed_nfa(ln_match_nfa(n)))))
    for seed, n_states in ((7, 24), (11, 60)):
        rng = random.Random(seed)
        transitions = {(q, s): rng.randrange(n_states) for q in range(n_states) for s in "ab"}
        dfa = DFA(AB, range(n_states), transitions, 0, set(rng.sample(range(n_states), 5)))
        problems.append((f"random{seed}", dfa_transfer_problem(as_packed_dfa(dfa))))
    kernels = {"power": count_by_power, "sweep": count_by_sweep}
    slow = []
    for name, problem in problems:
        assert len(problem.vector) <= 65, name
        for length in (16, 128, 1024):
            chosen = count_path(problem, length)
            other = "sweep" if chosen == "power" else "power"
            chosen_ms = _best_ms(kernels[chosen], problem, length, 3)
            other_ms = _best_ms(kernels[other], problem, length, 3, stop_above=4 * chosen_ms)
            if chosen_ms > 2 * other_ms and chosen_ms - other_ms >= 2.0:
                slow.append((name, length, chosen, round(chosen_ms, 2), round(other_ms, 2)))
    assert not slow, slow

import hashlib
import itertools
import logging
import os
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from conftest import random_series

from braidalg import (
    Alphabet,
    AlphabetMismatch,
    CapMismatch,
    Permutation,
    TruncatedSeries,
    build_graded_basis,
    free_preset,
    generator,
    hilbert_row,
    infinitesimal_artin,
    is_lie_element,
    one,
    oriented_artin,
    oriented_upper_triangular,
)
from braidalg import quotient
from braidalg.linalg import SparseEchelon
from braidalg.series import lowest_terms, word_key
from braidalg.quotient import (
    GradedQuotientBasis,
    RelationPreset,
    _cache_path,
    _load_rules,
    _relations_text,
    _save_rules,
)

RELATIONS_LINES = Path(__file__).parent / "fixtures" / "relations-lines.txt"


def words_of_degree(alphabet, k):
    return [w for w in itertools.product(range(alphabet.size), repeat=k)]


class TestRelationLists:
    @pytest.mark.parametrize(
        "preset,count",
        [
            (infinitesimal_artin(2), 0),
            (infinitesimal_artin(3), 3),
            (infinitesimal_artin(4), 15),
            (oriented_artin(2), 0),
            (oriented_artin(3), 9),
            (oriented_artin(4), 48),
            (oriented_upper_triangular(3), 2),
            (oriented_upper_triangular(4), 11),
        ],
    )
    def test_counts(self, preset, count):
        assert len(preset.relations()) == count

    def test_all_homogeneous_degree_two(self):
        for preset in (infinitesimal_artin(4), oriented_artin(4), oriented_upper_triangular(4)):
            for rel in preset.relations():
                assert rel.min_degree() == 2
                assert all(not rel.degree_slice(k) for k in (0, 1))

    @pytest.mark.parametrize(
        "preset,digest",
        [
            (infinitesimal_artin(3), "c17a902d34ccde21d3a289eb274fc84c02c3578030f542253863102286a1ac4e"),
            (infinitesimal_artin(4), "695eca88cdcecc56ec0280c9f2abc64e5ac1705c473d9aef125d91fd3a33afd8"),
            (oriented_artin(3), "cdb5944e4d9db71f30d9ebe427572ee12197e0a4a3f4f4a1af9d8838c30ee4d5"),
            (oriented_artin(4), "de94ffc100504300b9170eb60a06e6cda827232ab6ab8b98b49293852a1e3c6a"),
            (oriented_upper_triangular(3), "2cd85504a47c20c739061fd79ee375dfc83566885aa1155a87d70ba0ce92b910"),
            (oriented_upper_triangular(4), "262b713eef1ca1f93da62fd5bb1037a95fff6211327b7ff7fd50027a9704eb84"),
        ],
    )
    def test_relations_line_pinned(self, preset, digest):
        # Cache files name their relation set with this line.  It lists the
        # texts whose sha256 the v3 files carried, so the relation sets are
        # those of v3.
        pinned = dict(line.split(" ", 1) for line in RELATIONS_LINES.read_text().splitlines()[1:])
        assert f"#% relations {_relations_text(preset.relations())}" == pinned[preset.key()]
        assert _v3_digest(preset) == digest

    @pytest.mark.parametrize("make", [infinitesimal_artin, oriented_artin, oriented_upper_triangular])
    def test_a_preset_is_built_once_per_n_and_a_bad_n_raises_on_every_call(self, make):
        assert make(3) is make(3)
        # 3.0 equals the memoized 3, and must still fail as a float n always did.
        for bad, error in [(1, ValueError), (10, ValueError), (3.0, TypeError)]:
            for _ in range(3):
                with pytest.raises(error):
                    make(bad)

    def test_upper_triangular_is_sublist(self):
        full = {tuple(r.terms()) for r in oriented_artin(4).relations()}
        sub = {tuple(r.terms()) for r in oriented_upper_triangular(4).relations()}
        assert sub <= full

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("kind", quotient.PRESET_KINDS)
    def test_relations_equal_the_series_products(self, kind, n):
        # Written from their words, the relations are the products they stand for.
        preset = quotient.preset_by_name(kind, n)
        rels, reference = preset.relations(), oracles.reference_relations(preset)
        assert rels == reference  # the same order, caps and slices
        assert [list(r.degree_slice(2)) for r in rels] == [list(r.degree_slice(2)) for r in reference]
        assert [r.text() for r in rels] == [r.text() for r in reference]
        assert _relations_text(rels) == _relations_text(reference)
        assert all(type(c) is Fraction for r in rels for c in r.degree_slice(2).values())
        assert all(type(r.coefficient(w)) is Fraction for r in rels for w in r.degree_slice(2))

    def test_relations_and_cache_rows_take_no_series_arithmetic(self, tmp_path, monkeypatch):
        presets = (infinitesimal_artin(4), oriented_artin(4), oriented_upper_triangular(4))
        preset = oriented_artin(4)
        build_graded_basis(preset, 3)
        rules = quotient._STATE[preset.key()].rules
        calls = {"mul": 0, "from_terms": 0}
        mul, from_terms = TruncatedSeries.__mul__, TruncatedSeries.from_terms

        def counting_mul(self, other):
            calls["mul"] += 1
            return mul(self, other)

        def counting_from_terms(*args):
            calls["from_terms"] += 1
            return from_terms(*args)

        monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
        monkeypatch.setattr(TruncatedSeries, "from_terms", staticmethod(counting_from_terms))
        texts = {p: _relations_text(p.relations()) for p in presets}
        assert calls == {"mul": 0, "from_terms": 0}
        for k in range(4):
            _save_rules(tmp_path, preset, k, _degree(rules, k), texts[preset])
        assert calls == {"mul": 0, "from_terms": 0}
        assert len(os.listdir(tmp_path)) == 4
        # Both patches are live: the product the relations stand for goes through them.
        oracles.reference_relations(preset)
        assert calls["mul"] == 2 * 48 and calls["from_terms"] > 0


class TestDimensions:
    def test_oriented_two_strands_free(self):
        assert hilbert_row(oriented_artin(2), 5) == [1, 2, 4, 8, 16, 32]

    def test_chord_two_strands_single_generator(self):
        basis = build_graded_basis(infinitesimal_artin(2), 3)
        assert basis.dimension(3) == 1
        assert sorted(basis.table(3).pivots()) == []

    def test_free_preset_dims(self):
        row = hilbert_row(free_preset(Alphabet.abstract("A", "B", "C")), 3)
        assert row == [1, 3, 9, 27]

    def test_chord_three_strands_degree_two_by_local_echelon(self):
        # independent oracle: dense rank of the relation vectors over all 9 words
        preset = infinitesimal_artin(3)
        cols = words_of_degree(preset.alphabet, 2)
        vectors = [dict(r.degree_slice(2)) for r in preset.relations()]
        rank = oracles.dense_rank(vectors, cols)
        assert rank == 2  # the third relation is dependent
        basis = build_graded_basis(preset, 2)
        assert basis.dimension(2) == 9 - rank == 7

    def test_oriented_three_strands_degree_two_by_local_echelon(self):
        preset = oriented_artin(3)
        cols = words_of_degree(preset.alphabet, 2)
        vectors = [dict(r.degree_slice(2)) for r in preset.relations()]
        rank = oracles.dense_rank(vectors, cols)
        assert rank == 9
        basis = build_graded_basis(preset, 2)
        assert basis.dimension(2) == 36 - rank == 27

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chord_dims_match_product_formula(self, n):
        assert hilbert_row(infinitesimal_artin(n), 4) == oracles.product_formula_dims(n, 4)

    def test_upper_triangular_dominates_full(self):
        full = hilbert_row(oriented_artin(3), 4)
        upper = hilbert_row(oriented_upper_triangular(3), 4)
        assert all(u >= f for u, f in zip(upper, full))

    def test_dimension_is_words_minus_pivots(self):
        basis = build_graded_basis(oriented_artin(3), 3)
        for k in range(4):
            assert basis.dimension(k) == 6**k - len(basis.table(k).pivots())
            assert len(oracles.normal_words(basis, k)) == basis.dimension(k)

    @pytest.mark.parametrize(
        "preset,cap",
        [
            (infinitesimal_artin(3), 4),
            (oriented_artin(3), 3),
            (oriented_upper_triangular(4), 3),
            (free_preset(Alphabet.abstract("A", "B")), 3),
        ],
    )
    def test_normal_words_are_the_sorted_non_pivots(self, preset, cap):
        basis = build_graded_basis(preset, cap)
        for k in range(cap + 1):
            pivots = set(basis.table(k).pivots())
            words = sorted(words_of_degree(preset.alphabet, k))
            assert oracles.normal_words(basis, k) == [w for w in words if w not in pivots]


class TestCountedDimensions:
    """dimension and hilbert_row count on the leading words; oracles.normal_words lists the words."""

    @pytest.mark.parametrize(
        "preset,cap",
        [(quotient.preset_by_name(kind, 3), 6) for kind in quotient.PRESET_KINDS]
        + [(quotient.preset_by_name(kind, 4), 4) for kind in quotient.PRESET_KINDS]
        # no rules: the empty word is the only state
        + [(free_preset(Alphabet.abstract("P", "Q", "R", "S")), 5)],
        ids=repr,
    )
    def test_counts_equal_the_lists(self, preset, cap):
        basis = build_graded_basis(preset, cap)
        listed = [len(oracles.normal_words(basis, k)) for k in range(cap + 1)]
        assert hilbert_row(preset, cap) == listed
        assert [basis.dimension(k) for k in range(cap + 1)] == listed

    def test_degrees_below_longer_rules(self):
        preset = oriented_artin(3)
        build_graded_basis(preset, 6)
        basis = build_graded_basis(preset, 3)
        # Rules of degree 4 and up are known to the process but do not count in degree <= 3.
        assert max(len(w) for w in basis._rules) >= 6
        for k in range(4):
            assert basis.dimension(k) == len(oracles.normal_words(basis, k))
        assert hilbert_row(preset, 3) == [1, 6, 27, 108]

    def test_dimension_lists_no_word(self):
        basis = build_graded_basis(oriented_upper_triangular(4), 5)
        assert basis.dimension(5) == 179_616
        assert hilbert_row(oriented_upper_triangular(4), 5)[5] == 179_616


class TestChordRewriting:
    """Chord normal forms rewritten by the degree-2 rules against the exhaustive echelon."""

    @pytest.mark.parametrize("n,cap", [(2, 6), (3, 6), (4, 5), (5, 4)])
    def test_rewritten_tables_equal_echelon(self, monkeypatch, n, cap):
        # n = 2 has no relations, so no rewriting rule.
        preset = infinitesimal_artin(n)
        relations = preset.relations()
        monkeypatch.setattr(quotient, "_STATE", {})
        basis = build_graded_basis(preset, cap)
        for k in range(cap + 1):
            rewritten = basis.table(k)
            echelon = oracles.echelon_table(preset, k, relations)
            assert rewritten.rows == echelon.rows, k
            assert all(type(c) is int for row in rewritten.rows.values() for c in row.values())
            words = words_of_degree(preset.alphabet, k)
            assert oracles.normal_words(basis, k) == [w for w in words if w not in echelon.rows]

    def test_build_echelonizes_degree_two_only_and_stores_no_table(self, monkeypatch, rng):
        # The closure runs once per degree, and every pivot it finds lies in
        # degree 2: each chord ambiguity of degree 3 reduces to zero.
        preset = infinitesimal_artin(4)
        closures, pivots = [], []
        close = GradedQuotientBasis._close

        def recording_close(self, j, relations):
            closures.append(j)
            return close(self, j, relations)

        class RecordingEchelon(SparseEchelon):
            __slots__ = ()

            def add(self, vec):
                pivot = super().add(vec)
                if pivot is not None:
                    pivots.append(pivot)
                return pivot

        monkeypatch.setattr(quotient, "_STATE", {})
        monkeypatch.setattr(GradedQuotientBasis, "_close", recording_close)
        monkeypatch.setattr(quotient, "SparseEchelon", RecordingEchelon)
        for _ in range(2):  # the second build reuses the rules
            basis = build_graded_basis(preset, 5)
            basis.normal_form(random_series(rng, preset.alphabet, 5, nterms=20))
            assert [basis.dimension(k) for k in range(6)] == oracles.product_formula_dims(4, 5)
            assert basis.table(5).rank == 6**5 - basis.dimension(5)
        assert closures == list(range(6))
        assert sorted(pivots) == sorted(oracles.echelon_table(preset, 2, preset.relations()).pivots())
        state = quotient._STATE[preset.key()]
        assert list(quotient._STATE) == [preset.key()]
        assert state.rules.keys() == set(pivots)

    # The exhaustive echelon of chord(4) in degree 6 takes about 9 s, and of
    # chord(5) in degree 5 about 7 s, so n = 4 and 5 stop below degree 6.
    @pytest.mark.parametrize("n,cap", [(3, 6), (4, 5), (5, 4)])
    def test_normal_forms_equal_echelon_reduction(self, monkeypatch, rng, n, cap):
        preset = infinitesimal_artin(n)
        relations = preset.relations()
        m = preset.alphabet.size
        monkeypatch.setattr(quotient, "_STATE", {})
        basis = build_graded_basis(preset, cap)
        for k in range(cap + 1):
            echelon = oracles.echelon_table(preset, k, relations)
            for _ in range(10):
                vec = {tuple(rng.randrange(m) for _ in range(k)): rng.randint(-9, 9) for _ in range(8)}
                want = echelon.reduce(vec)
                got = basis.reduce(k, vec)
                assert got == want, k
                assert all(type(c) is int for c in got.values())
                assert basis.reduce_slice(k, (1, vec)) == (1, want)
                assert basis.reduce_slice(k, (6, vec)) == lowest_terms(6, want)
            for _ in range(5):
                s = random_series(rng, preset.alphabet, k, nterms=12, denom=12)
                nf = basis.normal_form(s)
                assert nf.degree_slice(k) == echelon.reduce(s.degree_slice(k)), k
                assert all(type(c) is Fraction for c in nf.degree_slice(k).values())
                assert all(type(nf.coefficient(w)) is Fraction for w in nf.degree_slice(k))

    @pytest.mark.parametrize("n,k", [(3, 8), (4, 6)])
    def test_word_order_does_not_change_normal_forms(self, monkeypatch, n, k):
        preset = infinitesimal_artin(n)
        words = words_of_degree(preset.alphabet, k)
        results = []
        for order in (words, words[::-1]):
            monkeypatch.setattr(quotient, "_STATE", {})
            basis = build_graded_basis(preset, k)
            results.append({w: basis.reduce(k, {w: 1}) for w in order})
        assert results[0] == results[1]

    def test_racing_threads_get_equal_normal_forms(self, monkeypatch):
        # The chord rules hold in degree 2; oriented_artin(3) gains rules in
        # degrees 3, 4 and 5, so its normal forms rewrite longer prefixes.
        for preset, k in ((infinitesimal_artin(3), 7), (oriented_artin(3), 5)):
            words = words_of_degree(preset.alphabet, k)
            echelon = oracles.echelon_table(preset, k, preset.relations())
            monkeypatch.setattr(quotient, "_STATE", {})
            basis = build_graded_basis(preset, k)
            barrier = threading.Barrier(4)
            results = [None] * 4

            def work(i):
                barrier.wait(timeout=30)
                order = words[i::4] + words[::-1]  # a quarter each, then all of them backwards
                results[i] = {w: basis.reduce(k, {w: 1}) for w in order}

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            want = {w: echelon.reduce({w: 1}) for w in words}
            assert all(result == want for result in results), preset

    @pytest.mark.parametrize("n,cap", [(3, 10), (4, 10), (5, 10), (6, 10), (7, 4), (8, 4), (9, 4)])
    def test_degree_two_pivots_are_a_groebner_basis(self, n, cap):
        # The words avoiding the degree-2 pivot pairs span the quotient, so
        # their count bounds each dimension from above; equality with Kohno's
        # product formula is the Groebner basis property that the rewriting
        # rests on.  Degree 3 already settles it (Bergman's diamond lemma), so
        # n = 7-9, the rest of the chord alphabets, are counted only to 4.
        preset = infinitesimal_artin(n)
        pairs = oracles.echelon_table(preset, 2, preset.relations()).pivots()
        counts = oracles.avoiding_word_counts(preset.alphabet.size, pairs, cap)
        assert counts == oracles.product_formula_dims(n, cap)


class TestGroebnerClosure:
    """Rules from the truncated Buchberger closure, against the exhaustive echelon and closed forms."""

    @pytest.mark.parametrize(
        "preset,counts",
        [
            (oriented_artin(3), [9, 5, 6, 9]),
            (oriented_artin(4), [48, 39, 81]),
            (oriented_upper_triangular(3), [2, 1, 1, 1]),
            (oriented_upper_triangular(4), [11, 8, 10]),
            (infinitesimal_artin(4), [11, 0, 0, 0, 0]),
        ],
        ids=lambda v: v.key() if isinstance(v, RelationPreset) else "through-" + str(1 + len(v)),
    )
    def test_groebner_elements_per_degree(self, monkeypatch, preset, counts):
        monkeypatch.setattr(quotient, "_STATE", {})
        cap = 1 + len(counts)
        build_graded_basis(preset, cap)
        rules = quotient._STATE[preset.key()].rules
        assert [sum(len(w) == k for w in rules) for k in range(2, cap + 1)] == counts
        # No leading word holds another: the basis is reduced.
        for w in rules:
            inner = [w[i:j] for i in range(len(w)) for j in range(i + 2, len(w) + 1) if j - i < len(w)]
            assert not any(u in rules for u in inner), w

    # chord(4) in degree 6 is the one slow echelon here, 5-8 s on a 2-core VM.
    @pytest.mark.parametrize(
        "preset,cap",
        [
            (oriented_artin(3), 5),
            (oriented_artin(4), 4),
            (oriented_upper_triangular(3), 5),
            (oriented_upper_triangular(4), 4),
            (infinitesimal_artin(4), 6),
            (free_preset(Alphabet.abstract("A", "B", "C")), 4),
        ],
        ids=lambda v: v.key() if isinstance(v, RelationPreset) else str(v),
    )
    def test_every_normal_form_equals_echelon(self, monkeypatch, preset, cap):
        # The rows pivot - NF(pivot) over every word that is not normal; a
        # word without a row is its own normal form.
        monkeypatch.setattr(quotient, "_STATE", {})
        basis = build_graded_basis(preset, cap)
        for k in range(cap + 1):
            echelon = oracles.echelon_table(preset, k, preset.relations())
            assert basis.table(k).rows == echelon.rows, k
            words = words_of_degree(preset.alphabet, k)
            assert oracles.normal_words(basis, k) == [w for w in words if w not in echelon.rows]

    def test_racing_builds_close_once(self, monkeypatch):
        # Extending a preset's state is check-then-act, so builds take the
        # preset's lock: one closure per degree, and every thread gets
        # complete rules.
        preset = oriented_artin(3)
        echelon = oracles.echelon_table(preset, 5, preset.relations())
        closures = []
        close = GradedQuotientBasis._close

        def recording_close(self, j, relations):
            closures.append(j)
            return close(self, j, relations)

        monkeypatch.setattr(quotient, "_STATE", {})
        monkeypatch.setattr(GradedQuotientBasis, "_close", recording_close)
        barrier = threading.Barrier(4)
        results = [None] * 4

        def work(i):
            barrier.wait(timeout=30)
            results[i] = build_graded_basis(preset, 5).table(5).rows

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert closures == list(range(6))
        assert all(rows == echelon.rows for rows in results)

    @pytest.mark.parametrize(
        "preset,cap,dims",
        [
            # (1 - n t)^-(n-1)
            pytest.param(oriented_artin(3), 7, oracles.oriented_formula_dims(3, 7), id="oriented_artin(3)"),
            pytest.param(oriented_artin(4), 5, oracles.oriented_formula_dims(4, 5), id="oriented_artin(4)"),
            # 1 / (1 - 6t + 2t^2)
            pytest.param(
                oriented_upper_triangular(3),
                7,
                oracles.rational_series_dims([1], [1, -6, 2], 7),
                id="oriented_upper_triangular(3)",
            ),
            # 1 / (1 - 12t + 11t^2 - 6t^3)
            pytest.param(
                oriented_upper_triangular(4),
                6,
                oracles.rational_series_dims([1], [1, -12, 11, -6], 6),
                id="oriented_upper_triangular(4)",
            ),
        ],
    )
    def test_dimensions_match_closed_forms(self, preset, cap, dims):
        assert hilbert_row(preset, cap) == dims

    def test_closed_forms_pin_known_rows(self):
        assert oracles.oriented_formula_dims(3, 7)[7] == 17_496
        assert oracles.oriented_formula_dims(4, 6)[6] == 114_688
        assert oracles.rational_series_dims([1], [1, -6, 2], 7)[6:] == [34_552, 195_072]
        assert oracles.rational_series_dims([1], [1, -12, 11, -6], 7) == [
            1, 12, 133, 1470, 16_249, 179_616, 1_985_473, 21_947_394
        ]


class TestUpperTriangularClosedForm:
    """The upper-triangular rows against 1/(prod_{k<n} (1 - k t) - C(n, 2) t), through these caps."""

    CASES = [(3, 8), (4, 6), (5, 5)]

    def test_the_closed_form_pins_known_rows(self):
        for n, denominator in ((3, [1, -6, 2]), (4, [1, -12, 11, -6]), (5, [1, -20, 35, -50, 24])):
            want = oracles.rational_series_dims([1], denominator, 7)
            assert oracles.upper_triangular_formula_dims(n, 7) == want

    @pytest.mark.parametrize("n,cap", CASES)
    def test_rows_equal_the_closed_form(self, n, cap):
        assert hilbert_row(oriented_upper_triangular(n), cap) == oracles.upper_triangular_formula_dims(n, cap)

    @pytest.mark.parametrize("n,cap", CASES)
    def test_no_rule_holds_a_letter_v_ij_with_i_below_j(self, n, cap):
        basis = build_graded_basis(oriented_upper_triangular(n), cap)
        alph = basis.alphabet
        free = {alph.gen(i, j) for i, j in alph.pairs if i < j}
        assert basis._rules
        for lead, nf in basis._rules.items():
            assert not free.intersection(lead), alph.word_name(lead)
            for w in nf:
                assert not free.intersection(w), alph.word_name(w)


class TestNormalForm:
    def test_chord_relation_reduces_to_zero(self):
        basis = build_graded_basis(infinitesimal_artin(3), 2)
        alph = basis.alphabet
        t12, t13, t23 = (generator(alph, 2, p) for p in ["t12", "t13", "t23"])
        s = t12 * t13 + t12 * t23 - t13 * t12 - t23 * t12
        assert basis.normal_form(s).is_zero()

    def test_oriented_relation_reduces_to_zero(self):
        basis = build_graded_basis(oriented_artin(3), 2)
        alph = basis.alphabet
        v13, v23 = generator(alph, 2, "v13"), generator(alph, 2, "v23")
        assert basis.normal_form(v13 * v23 - v23 * v13).is_zero()

    def test_free_series_unchanged(self, rng):
        basis = build_graded_basis(oriented_artin(2), 4)
        for _ in range(5):
            s = random_series(rng, basis.alphabet, 4)
            assert basis.normal_form(s) == s

    def test_idempotent(self, rng):
        basis = build_graded_basis(oriented_artin(3), 3)
        for _ in range(10):
            s = random_series(rng, basis.alphabet, 3)
            nf = basis.normal_form(s)
            assert basis.normal_form(nf) == nf
            # s - nf lies in the ideal
            assert basis.normal_form(s - nf).is_zero()

    def test_mismatches_raise(self):
        basis = build_graded_basis(oriented_artin(3), 3)
        with pytest.raises(AlphabetMismatch):
            basis.normal_form(one(Alphabet.chord(3), 3))
        with pytest.raises(CapMismatch):
            basis.normal_form(one(basis.alphabet, 5))


class TestIdealMembership:
    @pytest.mark.parametrize(
        "preset,cap",
        [
            (infinitesimal_artin(3), 5),
            (infinitesimal_artin(4), 4),
            (oriented_artin(3), 5),
            (oriented_artin(4), 3),
            (oriented_upper_triangular(3), 5),
            (oriented_upper_triangular(4), 3),
        ],
    )
    def test_relations_times_random_words_vanish(self, preset, cap, rng):
        basis = build_graded_basis(preset, cap)
        alph = preset.alphabet
        for rel in preset.relations():
            for _ in range(4):
                du = rng.randint(0, cap - 2)
                dw = rng.randint(0, cap - 2 - du)
                u = tuple(rng.randrange(alph.size) for _ in range(du))
                w = tuple(rng.randrange(alph.size) for _ in range(dw))
                left = TruncatedSeries.from_terms(alph, cap, {u: Fraction(1)})
                right = TruncatedSeries.from_terms(alph, cap, {w: Fraction(1)})
                assert basis.normal_form(left * rel.lifted(cap) * right).is_zero()

    def test_equal_mod_relations_examples(self):
        basis3 = build_graded_basis(infinitesimal_artin(3), 2)
        alph = basis3.alphabet
        t12, t23 = generator(alph, 2, "t12"), generator(alph, 2, "t23")
        # neither commutator is a relation consequence at degree 2: confirmed
        # by the independent rank computation in TestDimensions
        assert not basis3.equal_mod_relations(t12 * t23, t23 * t12)
        assert basis3.equal_mod_relations(t12, t12)

        basis4 = build_graded_basis(infinitesimal_artin(4), 4)
        a4 = basis4.alphabet
        e12 = generator(a4, 4, "t12").exp()
        e34 = generator(a4, 4, "t34").exp()
        assert basis4.equal_mod_relations(e12 * e34, e34 * e12)


class TestSymmetryStability:
    def test_ideal_is_symmetric_group_stable(self):
        for preset, cap in ((infinitesimal_artin(3), 4), (oriented_artin(3), 4)):
            basis = build_graded_basis(preset, cap)
            for images in itertools.permutations((1, 2, 3)):
                pi = Permutation(images)
                for rel in preset.relations():
                    assert basis.normal_form(rel.act(pi).lifted(cap)).is_zero()

    def test_normal_form_commutes_with_action_after_rereduction(self, rng):
        basis = build_graded_basis(oriented_artin(3), 3)
        pi = Permutation.from_one_line("231")
        for _ in range(10):
            s = random_series(rng, basis.alphabet, 3)
            lhs = basis.normal_form(s.act(pi))
            rhs = basis.normal_form(basis.normal_form(s).act(pi))
            assert lhs == rhs


class TestDiskCache:
    def _clear_store(self, preset, cap):
        quotient._STATE.pop(preset.key(), None)

    def test_roundtrip(self, tmp_path):
        preset = oriented_artin(3)
        self._clear_store(preset, 2)
        basis = build_graded_basis(preset, 2, cache_dir=tmp_path)
        dims = [basis.dimension(k) for k in range(3)]
        tables = {k: dict(basis.table(k).rows) for k in range(3)}
        assert os.path.exists(_cache_path(tmp_path, preset, 2))

        self._clear_store(preset, 2)
        reloaded = build_graded_basis(preset, 2, cache_dir=tmp_path)
        assert [reloaded.dimension(k) for k in range(3)] == dims
        for k in range(3):
            assert dict(reloaded.table(k).rows) == tables[k]

    def test_reloaded_table_reduces_identically(self, tmp_path, rng):
        preset = oriented_artin(3)
        self._clear_store(preset, 3)
        fresh = build_graded_basis(preset, 3)
        self._clear_store(preset, 3)  # a table in the store writes no file
        build_graded_basis(preset, 3, cache_dir=tmp_path)
        assert os.path.exists(_cache_path(tmp_path, preset, 3))
        self._clear_store(preset, 3)
        cached = build_graded_basis(preset, 3, cache_dir=tmp_path)
        for _ in range(5):
            s = random_series(rng, preset.alphabet, 3)
            assert fresh.normal_form(s) == cached.normal_form(s)

    def test_stale_header_rejected_and_rebuilt(self, tmp_path):
        preset = oriented_artin(3)
        self._clear_store(preset, 2)
        build_graded_basis(preset, 2, cache_dir=tmp_path)
        path = _cache_path(tmp_path, preset, 2)
        content = Path(path).read_text().replace("preset oriented_artin(3)", "preset other(9)")
        with open(path, "w") as handle:
            handle.write(content)
        self._clear_store(preset, 2)
        rebuilt = build_graded_basis(preset, 2, cache_dir=tmp_path)
        assert rebuilt.dimension(2) == 27
        # the stale file was overwritten with a valid one
        assert "preset oriented_artin(3)" in Path(path).read_text()

    def test_corrupt_body_rejected(self, tmp_path):
        preset = oriented_artin(3)
        self._clear_store(preset, 2)
        build_graded_basis(preset, 2, cache_dir=tmp_path)
        path = _cache_path(tmp_path, preset, 2)
        with open(path, "a") as handle:
            handle.write("garbage -> 1*nonsense\n")
        self._clear_store(preset, 2)
        rebuilt = build_graded_basis(preset, 2, cache_dir=tmp_path)
        assert rebuilt.dimension(2) == 27

    def test_structurally_invalid_rows_rejected(self, tmp_path):
        # a row whose normal form mentions a leading word would silently break
        # the one-pass rewriting; the loader must rebuild instead
        preset = oriented_artin(3)
        self._clear_store(preset, 2)
        basis = build_graded_basis(preset, 2, cache_dir=tmp_path)
        pivots = sorted(basis.table(2).pivots())
        path = _cache_path(tmp_path, preset, 2)
        lines = Path(path).read_text().splitlines()
        alph = preset.alphabet
        bad = f"{alph.word_name(pivots[1])} -> 1*{alph.word_name(pivots[0])}"
        body_start = next(i for i, line in enumerate(lines) if not line.startswith("#%"))
        # keep pivots[0]'s own row intact; make pivots[1]'s row mention it
        lines[body_start + 1] = bad
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        self._clear_store(preset, 2)
        rebuilt = build_graded_basis(preset, 2, cache_dir=tmp_path)
        assert rebuilt.dimension(2) == 27
        assert dict(rebuilt.table(2).rows) == dict(basis.table(2).rows)

    def test_duplicate_pivots_rejected(self, tmp_path):
        preset = oriented_artin(3)
        self._clear_store(preset, 2)
        basis = build_graded_basis(preset, 2, cache_dir=tmp_path)
        path = _cache_path(tmp_path, preset, 2)
        lines = Path(path).read_text().splitlines()
        body_start = next(i for i, line in enumerate(lines) if not line.startswith("#%"))
        lines[body_start] = lines[body_start + 1]
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        self._clear_store(preset, 2)
        rebuilt = build_graded_basis(preset, 2, cache_dir=tmp_path)
        assert rebuilt.dimension(2) == 27
        assert dict(rebuilt.table(2).rows) == dict(basis.table(2).rows)

    @pytest.mark.parametrize("cap", [3, 6])
    def test_warm_load_runs_no_closure_and_starts_with_empty_memos(self, tmp_path, rng, monkeypatch, cap):
        # Through degree 6 the cache holds rational rows: a warm rule holds an
        # int where a value is integral and a Fraction where it is not, as the
        # closure's rule does.
        preset = oriented_artin(3)
        series = [random_series(rng, preset.alphabet, cap, nterms=20) for _ in range(5)]
        self._clear_store(preset, cap)
        fresh = build_graded_basis(preset, cap, cache_dir=tmp_path)
        want = [fresh.normal_form(s) for s in series]
        rules = dict(quotient._STATE[preset.key()].rules)
        assert any(type(c) is Fraction for nf in rules.values() for c in nf.values()) == (cap == 6)
        self._clear_store(preset, cap)
        monkeypatch.setattr(GradedQuotientBasis, "_close", lambda *a: pytest.fail("closure on a warm load"))
        warm = build_graded_basis(preset, cap, cache_dir=tmp_path)
        # Loading leaves the state as the closure does: the rules, and an empty memo per degree.
        state = quotient._STATE[preset.key()]
        assert state.closed == cap
        assert state.rules == rules
        assert _types(state.rules) == _types(rules)
        assert state.memos == {k: {} for k in range(cap + 1)}
        assert [warm.normal_form(s) for s in series] == want

    @pytest.mark.parametrize("unreadable", [None, 2], ids=["extend-past-loaded", "lower-degree-missing"])
    def test_closure_past_loaded_degrees_equals_echelon(self, tmp_path, unreadable):
        # The closure continues from loaded rules: a cap raised after a warm
        # load, or a lower file missing and the degrees above it loaded.
        preset = oriented_artin(3)
        self._clear_store(preset, 4)
        build_graded_basis(preset, 4, cache_dir=tmp_path)
        if unreadable is not None:
            os.unlink(_cache_path(tmp_path, preset, unreadable))
        self._clear_store(preset, 4)
        build_graded_basis(preset, 4, cache_dir=tmp_path)
        basis = build_graded_basis(preset, 5)
        for k in range(6):
            assert basis.table(k).rows == oracles.echelon_table(preset, k, preset.relations()).rows, k
            assert basis.dimension(k) == oracles.oriented_formula_dims(3, 5)[k]
        rules = quotient._STATE[preset.key()].rules
        assert [sum(len(w) == k for w in rules) for k in range(2, 6)] == [9, 5, 6, 9]

    def test_missing_middle_degree_closed_alone(self, tmp_path, monkeypatch):
        preset = oriented_artin(3)
        self._clear_store(preset, 4)
        build_graded_basis(preset, 4, cache_dir=tmp_path)
        rules = dict(quotient._STATE[preset.key()].rules)
        top = Path(_cache_path(tmp_path, preset, 4)).read_bytes()
        os.unlink(_cache_path(tmp_path, preset, 3))
        self._clear_store(preset, 4)
        closures, loads = [], []
        close, load = GradedQuotientBasis._close, quotient._load_rules

        def recording_close(self, j, relations):
            closures.append(j)
            return close(self, j, relations)

        def recording_load(cache_dir, preset, k, relations_text, state):
            new = load(cache_dir, preset, k, relations_text, state)
            loads.append((k, new is not None))
            return new

        monkeypatch.setattr(GradedQuotientBasis, "_close", recording_close)
        monkeypatch.setattr(quotient, "_load_rules", recording_load)
        basis = build_graded_basis(preset, 4, cache_dir=tmp_path)
        assert closures == [3]
        assert loads == [(0, True), (1, True), (2, True), (3, False), (4, True)]
        assert quotient._STATE[preset.key()].rules == rules
        assert os.path.exists(_cache_path(tmp_path, preset, 3))
        assert Path(_cache_path(tmp_path, preset, 4)).read_bytes() == top
        assert [basis.dimension(k) for k in range(5)] == oracles.oriented_formula_dims(3, 4)

    @pytest.mark.parametrize(
        "preset,cap",
        [(oriented_artin(3), 5), (oriented_artin(4), 4), (oriented_upper_triangular(4), 4)],
        ids=["oriented_artin(3)", "oriented_artin(4)", "oriented_upper_triangular(4)"],
    )
    def test_warm_load_normal_forms_equal_echelon(self, tmp_path, monkeypatch, preset, cap):
        monkeypatch.setattr(quotient, "_STATE", {})
        build_graded_basis(preset, cap, cache_dir=tmp_path)
        monkeypatch.setattr(quotient, "_STATE", {})
        monkeypatch.setattr(GradedQuotientBasis, "_close", lambda *a: pytest.fail("closure on a warm load"))
        basis = build_graded_basis(preset, cap, cache_dir=tmp_path)
        for k in range(cap + 1):
            echelon = oracles.echelon_table(preset, k, preset.relations())
            assert basis.table(k).rows == echelon.rows, k
            words = words_of_degree(preset.alphabet, k)
            assert oracles.normal_words(basis, k) == [w for w in words if w not in echelon.rows]

    def test_no_temp_files_left(self, tmp_path):
        preset = oriented_artin(3)
        self._clear_store(preset, 2)
        build_graded_basis(preset, 2, cache_dir=tmp_path)
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def _clear_store(preset, cap):
    quotient._STATE.pop(preset.key(), None)


def _types(rules):
    return {(lead, word): type(c) for lead, nf in rules.items() for word, c in nf.items()}


def _load_degree_two(tmp_path, preset):
    # No rule lies below degree 2, so the reader is given a fresh state.
    return _load_rules(tmp_path, preset, 2, _relations_text(preset.relations()), quotient._PresetState())


def _v3_digest(preset):
    """The relations field of a v2 or v3 file: the sha256 of the sorted relation texts."""
    texts = sorted(r.text() for r in preset.relations())
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def _degree(rules, k):
    return {w: nf for w, nf in rules.items() if len(w) == k}


class TestCacheLoader:
    """The v4 cache format: strict row reader, relation set named verbatim, rebuild reasons."""

    # The first row of oriented_artin(3)'s degree-2 file.
    ROW = "v23.v12 -> 1*v12.v13 + 1*v12.v23 - 1*v13.v12"

    @pytest.fixture
    def preset(self):
        preset = oriented_artin(3)
        _clear_store(preset, 2)
        yield preset
        _clear_store(preset, 2)

    def _write_and_edit(self, tmp_path, preset, edit):
        build_graded_basis(preset, 2, cache_dir=tmp_path)
        path = _cache_path(tmp_path, preset, 2)
        with open(path) as handle:
            lines = handle.read().splitlines()
        edit(lines)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        _clear_store(preset, 2)
        return path

    @pytest.mark.parametrize("make", [infinitesimal_artin, oriented_artin, oriented_upper_triangular])
    @pytest.mark.parametrize("n,cap", [(3, 4), (4, 3)])
    def test_round_trip_equals_fresh_build(self, tmp_path, make, n, cap):
        # A degree's rules are the echelon's pivots whose maximal proper
        # subwords are normal, each with its replacement.
        preset = make(n)
        relations_text = _relations_text(preset.relations())
        state = quotient._PresetState()
        below = set()  # the pivots of the degree below
        for k in range(cap + 1):
            fresh = oracles.echelon_table(preset, k, preset.relations())
            rules = {
                p: fresh.replacement(p)
                for p in fresh.pivots()
                if p[1:] not in below and p[:-1] not in below
            }
            _save_rules(tmp_path, preset, k, rules, relations_text)
            loaded = _load_rules(tmp_path, preset, k, relations_text, state)
            assert loaded == rules
            assert _types(loaded) == _types(rules)
            state.extend(k, loaded)
            below = set(fresh.pivots())

    @pytest.mark.parametrize(
        "row",
        [
            pytest.param("v23.v12 -> 1*v12.x9 + 1*v12.v23 - 1*v13.v12", id="unknown-generator"),
            pytest.param("v23.v12 -> 1*v12 + 1*v12.v23 - 1*v13.v12", id="wrong-word-length"),
            pytest.param("v23.v12 -> 1*v23.v12 + 1*v12.v23 - 1*v13.v12", id="term-not-below-pivot"),
            pytest.param("v23.v12 -> 0*v12.v13 + 1*v12.v23 - 1*v13.v12", id="zero-coefficient"),
            pytest.param("v23.v12 -> 1*v12.v13 + 1*v12.v13 - 1*v13.v12", id="repeated-term"),
            pytest.param("v23.v12 -> 1*v12.v13 ~ 1*v12.v23 - 1*v13.v12", id="bad-sign-token"),
            pytest.param("v23.v12 -> 1*v12.v13 + 1*v12.v23 -", id="dangling-sign"),
            pytest.param("v23.v12 -> 1*v12.v13 + 1v12.v23 - 1*v13.v12", id="missing-star"),
            pytest.param("v23.v12 -> 1.0*v12.v13 + 1*v12.v23 - 1*v13.v12", id="non-canonical-coefficient"),
            pytest.param("v23.v12 = 1*v12.v13 + 1*v12.v23 - 1*v13.v12", id="missing-arrow"),
        ],
    )
    def test_malformed_row_rejected(self, tmp_path, preset, row):
        def edit(lines):
            body = lines.index(self.ROW)
            lines[body] = row

        self._write_and_edit(tmp_path, preset, edit)
        assert _load_degree_two(tmp_path, preset) is None
        rebuilt = build_graded_basis(preset, 2, cache_dir=tmp_path)
        assert rebuilt.dimension(2) == 27
        assert _load_degree_two(tmp_path, preset) is not None

    @pytest.mark.parametrize("named", ["all but the last", "the v3 digest"])
    def test_edited_relations_rebuilt(self, tmp_path, preset, named):
        line = f"#% relations {_relations_text(preset.relations())}"
        texts = line.removeprefix("#% relations ").split("; ")

        def edit(lines):
            index = lines.index(line)
            other = "; ".join(texts[:-1]) if named == "all but the last" else _v3_digest(preset)
            lines[index] = f"#% relations {other}"

        path = self._write_and_edit(tmp_path, preset, edit)
        assert _load_degree_two(tmp_path, preset) is None
        assert build_graded_basis(preset, 2, cache_dir=tmp_path).dimension(2) == 27
        assert line in Path(path).read_text().splitlines()

    def test_a_stale_relations_line_is_logged_by_count_and_first_difference(self, tmp_path, caplog):
        # The line names every relation: 48 of them for oriented_artin(4).
        preset = oriented_artin(4)
        _clear_store(preset, 2)
        line = f"#% relations {_relations_text(preset.relations())}"
        texts = line.removeprefix("#% relations ").split("; ")

        def edit(lines):
            lines[lines.index(line)] = f"#% relations {'; '.join(texts[:-1])}"

        path = self._write_and_edit(tmp_path, preset, edit)
        with caplog.at_level(logging.DEBUG, logger="braidalg.quotient"):
            assert build_graded_basis(preset, 2, cache_dir=tmp_path).dimension(2) == 96
        records = [r for r in caplog.records if r.name == "braidalg.quotient"]
        assert [r.getMessage() for r in records] == [
            f"rebuilding {path}: stale header: relations, 47 found, 48 expected; "
            f"relation 48 is None, expected {texts[-1]!r}"
        ]
        assert len(records[0].getMessage()) < 300
        assert line in Path(path).read_text().splitlines()
        _clear_store(preset, 2)

    def test_version_one_file_rebuilt_and_overwritten(self, tmp_path, preset):
        def edit(lines):
            lines[0] = "#% braidalg-basis v1"
            lines[:] = [line for line in lines if not line.startswith("#% relations")]

        path = self._write_and_edit(tmp_path, preset, edit)
        assert build_graded_basis(preset, 2, cache_dir=tmp_path).dimension(2) == 27
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "#% braidalg-rules v4"
        assert f"#% relations {_relations_text(preset.relations())}" in lines

    def test_version_two_file_rejected_as_stale_and_overwritten(self, tmp_path, preset, caplog):
        # A v2 file held every pivot of its degree under the same header fields.
        alph = preset.alphabet
        fresh = oracles.echelon_table(preset, 3, preset.relations())
        header = [
            "#% braidalg-basis v2",
            f"#% preset {preset.key()}",
            "#% degree 3",
            "#% alphabet oriented(3)",
            f"#% rows {fresh.rank}",
            f"#% relations {_v3_digest(preset)}",
        ]
        rows = [
            f"{alph.word_name(p)} -> " + TruncatedSeries.from_terms(alph, 3, fresh.replacement(p)).text()
            for p in sorted(fresh.pivots())
        ]
        path = _cache_path(tmp_path, preset, 3)
        Path(path).write_text("\n".join(header + rows) + "\n")
        with caplog.at_level(logging.DEBUG, logger="braidalg.quotient"):
            assert build_graded_basis(preset, 3, cache_dir=tmp_path).dimension(3) == 108
        messages = [r.getMessage() for r in caplog.records if r.name == "braidalg.quotient"]
        assert f"rebuilding {path}: stale header: format '#% braidalg-basis v2'" in messages
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "#% braidalg-rules v4"
        # 5 of the 108 pivots are leading words.
        assert (fresh.rank, len(lines) - len(header)) == (108, 5)
        assert "#% rows 5" in lines

    def test_version_three_file_rejected_as_stale_and_overwritten(self, tmp_path, preset, caplog):
        # A v3 file had the same rows under a sha256 of the relation texts.
        line = f"#% relations {_relations_text(preset.relations())}"

        def edit(lines):
            lines[0] = "#% braidalg-rules v3"
            lines[lines.index(line)] = f"#% relations {_v3_digest(preset)}"

        path = self._write_and_edit(tmp_path, preset, edit)
        v3_rows = [row for row in Path(path).read_text().splitlines() if not row.startswith("#% ")]
        with caplog.at_level(logging.DEBUG, logger="braidalg.quotient"):
            assert build_graded_basis(preset, 2, cache_dir=tmp_path).dimension(2) == 27
        messages = [r.getMessage() for r in caplog.records if r.name == "braidalg.quotient"]
        assert messages == [f"rebuilding {path}: stale header: format '#% braidalg-rules v3'"]
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "#% braidalg-rules v4" and line in lines
        assert [row for row in lines if not row.startswith("#% ")] == v3_rows

    @pytest.mark.parametrize("holder", ["term", "leading-word"])
    def test_unreduced_rules_rejected(self, tmp_path, preset, caplog, holder):
        # Rules that read back as written but hold a leading word below them
        # would break the one-pass rewriting: a term holding one is not
        # normal, and a word whose proper subword is one is no leading word.
        basis = build_graded_basis(preset, 3, cache_dir=tmp_path)
        rules = quotient._STATE[preset.key()].rules
        degree_three = _degree(rules, 3)
        u = min(_degree(rules, 2)) + (0,)  # a degree-2 leading word, then a letter
        if holder == "term":
            lead = max(degree_three)
            assert u < lead and u not in degree_three[lead]
            degree_three[lead] = {**degree_three[lead], u: 1}
            reason = "is not normal"
        else:
            degree_three[u] = basis.reduce(3, {u: 1})
            reason = "is not reduced"
        path = _cache_path(tmp_path, preset, 3)
        _save_rules(tmp_path, preset, 3, degree_three, _relations_text(preset.relations()))
        _clear_store(preset, 3)
        with caplog.at_level(logging.DEBUG, logger="braidalg.quotient"):
            assert build_graded_basis(preset, 3, cache_dir=tmp_path).dimension(3) == 108
        messages = [r.getMessage() for r in caplog.records if r.name == "braidalg.quotient"]
        assert len(messages) == 1
        assert messages[0].startswith(f"rebuilding {path}: failed body check")
        assert messages[0].endswith(reason)

    def test_changed_relations_not_served_old_table(self, tmp_path, preset, monkeypatch):
        build_graded_basis(preset, 2, cache_dir=tmp_path)
        _clear_store(preset, 2)
        original = RelationPreset.relations
        monkeypatch.setattr(RelationPreset, "relations", lambda self: original(self)[:-1])
        # same key(), one relation fewer: degree 2 gains one dimension
        assert build_graded_basis(preset, 2, cache_dir=tmp_path).dimension(2) == 28

    def test_relations_built_once_per_call(self, tmp_path, preset, monkeypatch):
        calls = []
        original = RelationPreset.relations
        monkeypatch.setattr(RelationPreset, "relations", lambda self: calls.append(self) or original(self))
        build_graded_basis(preset, 2, cache_dir=tmp_path)  # three tables built, one header for three files
        assert len(calls) == 1
        build_graded_basis(preset, 2, cache_dir=tmp_path)  # store hits, files present
        assert len(calls) == 1
        _clear_store(preset, 2)
        build_graded_basis(preset, 2)  # three tables built again, no files
        assert len(calls) == 2

    def test_relations_text_built_once_and_only_for_file_access(self, tmp_path, preset, monkeypatch):
        calls = []
        monkeypatch.setattr(quotient, "_relations_text", lambda p: calls.append(p) or _relations_text(p))
        build_graded_basis(preset, 2, cache_dir=tmp_path)  # three files written
        assert len(calls) == 1
        build_graded_basis(preset, 2, cache_dir=tmp_path)  # store hits, files present
        build_graded_basis(preset, 2)
        assert len(calls) == 1
        _clear_store(preset, 2)
        build_graded_basis(preset, 2, cache_dir=tmp_path)  # three files read
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "edit,reason",
        [
            pytest.param(None, "missing file", id="missing"),
            pytest.param(lambda lines: lines.__setitem__(2, "#% degree 7"), "stale header: degree", id="stale-header"),
            pytest.param(
                lambda lines: lines.__setitem__(-1, lines[-1].replace(" -> ", " => ")),
                "failed body check",
                id="failed-body-check",
            ),
        ],
    )
    def test_rebuild_reason_logged(self, tmp_path, preset, caplog, edit, reason):
        if edit is None:
            build_graded_basis(preset, 2, cache_dir=tmp_path)
            path = _cache_path(tmp_path, preset, 2)
            os.unlink(path)
            _clear_store(preset, 2)
        else:
            path = self._write_and_edit(tmp_path, preset, edit)
        with caplog.at_level(logging.DEBUG, logger="braidalg.quotient"):
            assert build_graded_basis(preset, 2, cache_dir=tmp_path).dimension(2) == 27
        messages = [r.getMessage() for r in caplog.records if r.name == "braidalg.quotient"]
        assert len(messages) == 1
        assert messages[0].startswith(f"rebuilding {path}: {reason}")


class TestCachePaths:
    """A store hit touches no file; only a table absent from the store reads or writes one."""

    @pytest.fixture
    def preset(self):
        preset = oriented_artin(3)
        _clear_store(preset, 2)
        yield preset
        _clear_store(preset, 2)

    def test_repeated_calls_touch_no_file(self, tmp_path, preset, monkeypatch):
        build_graded_basis(preset, 2, cache_dir=tmp_path)
        build_graded_basis(preset, 2, cache_dir=str(tmp_path))
        calls = []
        monkeypatch.setattr(quotient.os.path, "exists", lambda *a: calls.append(a))
        monkeypatch.setattr(quotient.os, "stat", lambda *a, **kw: calls.append(a))
        monkeypatch.setattr(quotient, "open", lambda *a, **kw: calls.append(a), raising=False)
        for _ in range(3):
            assert build_graded_basis(preset, 2, cache_dir=tmp_path).dimension(2) == 27
        # A directory the process has not seen before is no exception.
        assert build_graded_basis(preset, 2, cache_dir=tmp_path / "second").dimension(2) == 27
        assert calls == []
        assert "second" not in os.listdir(tmp_path)

    def test_current_file_in_new_dir_kept(self, tmp_path, preset, monkeypatch):
        build_graded_basis(preset, 2, cache_dir=tmp_path / "first")
        (tmp_path / "second").mkdir()
        for k in range(3):
            first = Path(_cache_path(tmp_path / "first", preset, k))
            Path(_cache_path(tmp_path / "second", preset, k)).write_text(first.read_text())
        saved = []
        monkeypatch.setattr(quotient, "_save_rules", lambda *a: saved.append(a))
        build_graded_basis(preset, 2, cache_dir=tmp_path / "second")
        assert saved == []


class TestChordTablesNotPersisted:
    """Chord tables are rewritten, never read from or written to the disk cache."""

    def test_chord_build_creates_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(quotient, "_STATE", {})
        basis = build_graded_basis(infinitesimal_artin(3), 4, cache_dir=tmp_path)
        assert [basis.dimension(k) for k in range(5)] == [1, 3, 7, 15, 31]
        assert list(tmp_path.iterdir()) == []

    def test_planted_chord_file_never_opened(self, tmp_path, monkeypatch):
        preset = infinitesimal_artin(3)
        relations_text = _relations_text(preset.relations())
        fresh = build_graded_basis(preset, 4)
        rules = quotient._STATE[preset.key()].rules
        for k in range(5):
            _save_rules(tmp_path, preset, k, _degree(rules, k), relations_text)
        planted = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        calls = []
        monkeypatch.setattr(quotient, "_STATE", {})
        monkeypatch.setattr(quotient, "_load_rules", lambda *a: calls.append(a))
        monkeypatch.setattr(quotient, "open", lambda *a, **kw: calls.append(a), raising=False)
        basis = build_graded_basis(preset, 4, cache_dir=tmp_path)
        assert calls == []
        for k in range(5):
            assert basis.table(k).rows == fresh.table(k).rows
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == planted


class TestCacheWriter:
    """Each written row is a leading word and its normal form as the Fraction text form renders it."""

    @staticmethod
    def _check_rows(tmp_path, preset, k, rules):
        alph = preset.alphabet
        _save_rules(tmp_path, preset, k, rules, _relations_text(preset.relations()))
        lines = Path(_cache_path(tmp_path, preset, k)).read_text().splitlines()
        body = [line for line in lines if not line.startswith("#% ")]
        expected = [
            f"{alph.word_name(w)} -> " + oracles.fraction_series_text(TruncatedSeries.from_terms(alph, k, rules[w]))
            for w in sorted(rules)
        ]
        assert body == expected, k
        assert f"#% rows {len(rules)}" in lines

    @pytest.mark.parametrize(
        "preset,cap",
        [(oriented_artin(3), 4), (oriented_artin(4), 3), (oriented_upper_triangular(4), 4)],
        ids=["oriented_artin(3)", "oriented_artin(4)", "oriented_upper_triangular(4)"],
    )
    def test_rows_written_as_series_text(self, tmp_path, preset, cap):
        build_graded_basis(preset, cap)
        rules = quotient._STATE[preset.key()].rules
        for k in range(cap + 1):
            self._check_rows(tmp_path, preset, k, _degree(rules, k))

    def test_fraction_and_empty_rows_written_as_series_text(self, tmp_path):
        # The preset rules hold integers and no zero form; hand-made rules
        # cover the writer's other branches, and read back as written.
        preset = oriented_artin(3)
        rules = {
            (5, 4): {(0, 1): Fraction(-1, 2), (2, 3): 3},
            (4, 4): {(0, 0): Fraction(3, 4), (1, 2): -2},
            (3, 3): {},
        }
        self._check_rows(tmp_path, preset, 2, rules)
        loaded = _load_degree_two(tmp_path, preset)
        assert loaded == rules
        assert _types(loaded) == _types(rules)

    @pytest.mark.parametrize("target", ["missing/rules.basis", "folder"], ids=["no-folder", "a-folder"])
    def test_failed_write_names_the_target(self, tmp_path, target):
        # Opening the new file fails in a missing folder; renaming it over a folder fails.
        (tmp_path / "folder").mkdir()
        path = tmp_path / target
        with pytest.raises(OSError) as info:
            quotient.atomic_write(path, "text\n")
        assert info.value.filename == str(path)
        assert str(path) in str(info.value) and ".tmp" not in str(info.value)
        assert sorted(os.listdir(tmp_path)) == ["folder"] and not os.listdir(tmp_path / "folder")


def _commutator(a, b):
    return a * b - b * a


def _random_lie_monomial(rng, alphabet, cap, k):
    """A bracket of k random generators, bracketed at random."""
    if k == 1:
        return generator(alphabet, cap, rng.randrange(alphabet.size))
    i = rng.randint(1, k - 1)
    left = _random_lie_monomial(rng, alphabet, cap, i)
    return _commutator(left, _random_lie_monomial(rng, alphabet, cap, k - i))


def _random_word(rng, alphabet, cap, k):
    word = tuple(rng.randrange(alphabet.size) for _ in range(k))
    return TruncatedSeries.from_terms(alphabet, cap, {word: 1})


def _random_coefficient(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))


class TestIsPrimitiveAgainstLyndonSpan:
    """is_primitive, one Dynkin test on normal forms, against the Lyndon span of each degree."""

    @pytest.mark.parametrize(
        "preset,cap",
        [
            (infinitesimal_artin(3), 4),
            (oriented_artin(3), 4),
            (oriented_upper_triangular(3), 4),
            (infinitesimal_artin(4), 3),
            (oriented_artin(4), 3),
            (oriented_upper_triangular(4), 3),
            (free_preset(Alphabet.abstract("A", "B", "C")), 4),
        ],
        ids=lambda p: p.key() if isinstance(p, RelationPreset) else str(p),
    )
    def test_agrees_with_the_lyndon_span(self, rng, preset, cap):
        basis = build_graded_basis(preset, cap)
        alph = preset.alphabet
        relations = [r.lifted(cap) for r in preset.relations()]

        def lie():
            out = TruncatedSeries.from_terms(alph, cap, {})
            for _ in range(3):
                k = rng.randint(1, cap)
                out = out + _random_lie_monomial(rng, alph, cap, k).scale(_random_coefficient(rng))
            return out

        def ideal():
            # u.r.w for a relation r: zero in the quotient, not Lie in the free algebra
            a = rng.randint(0, cap - 2)
            u = _random_word(rng, alph, cap, a)
            w = _random_word(rng, alph, cap, rng.randint(0, cap - 2 - a))
            return (u * rng.choice(relations) * w).scale(_random_coefficient(rng))

        elements = [one(alph, cap), TruncatedSeries.from_terms(alph, cap, {})]
        for _ in range(10):
            ell = lie()
            elements.append(ell)
            if relations:
                elements.append(ell + ideal())
                elements.append(ell + ideal() + ideal())
            word = _random_word(rng, alph, cap, rng.randint(2, cap))
            elements.append(ell + word.scale(_random_coefficient(rng)))
            elements.append(random_series(rng, alph, cap, zero_constant=True))
        verdicts = [basis.is_primitive(x) for x in elements]
        assert verdicts == [oracles.in_lyndon_span(basis, x) for x in elements]
        assert True in verdicts and False in verdicts
        quotient_only = [x for x, v in zip(elements, verdicts) if v and not is_lie_element(x)]
        assert len(quotient_only) >= (10 if relations else 0)

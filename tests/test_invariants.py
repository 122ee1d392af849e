import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import oracles
from conftest import random_series

from braidalg import (
    AB,
    GroupRingElement,
    Permutation,
    SemidirectSeries,
    build_graded_basis,
    check_splitting_identity,
    delta_kernel,
    delta_map,
    distinguish,
    eval_drinfeld,
    eval_group_ring,
    eval_welded,
    generator,
    hilbert_table,
    infinitesimal_artin,
    one,
    oriented_artin,
    parse_series,
    parse_word,
    pure_braid_generator,
    random_welded_word,
    vassiliev_degree,
    words_equal_in_bp,
)
from braidalg import invariants as invariants_mod
from braidalg.linalg import affine_solve
from braidalg.lyndon import bracket_image, lyndon_words
from braidalg.series import CapMismatch, TruncatedSeries
from braidalg.quotient import GradedQuotientBasis
from braidalg.words import WeldedWord, a, braid_relations, mccool_relations, s, word


def sd(basis, series, one_line):
    return SemidirectSeries.term(basis, series.cap, series, Permutation.from_one_line(one_line))


class TestVassilievDegree:
    def test_resolved_crossing_has_order_one(self):
        basis = build_graded_basis(oriented_artin(3), 4)
        xi = GroupRingElement.parse("1*[sig1] - 1*[s1]", 3)
        report = vassiliev_degree(xi, 4)
        assert report.order == 1
        expected = sd(
            basis,
            generator(basis.alphabet, 4, "v12").exp() - one(basis.alphabet, 4),
            "213",
        )
        assert report.image == expected

    def test_permutation_word_has_order_zero(self):
        xi = GroupRingElement.parse("1*[s1]", 3)
        assert vassiliev_degree(xi, 3).order == 0

    def test_product_of_two_resolutions(self):
        basis = build_graded_basis(oriented_artin(3), 4)
        xi = GroupRingElement.parse("1*[sig1] - 1*[s1]", 3) * GroupRingElement.parse(
            "1*[sig2] - 1*[s2]", 3
        )
        report = vassiliev_degree(xi, 4)
        assert report.order == 2
        # lowest term is v12 * (s1.v23) = v12 v13, nonzero in the quotient
        alph = basis.alphabet
        lowest = report.image.degree_slice(2)
        twist = Permutation.from_one_line("213").compose(Permutation.from_one_line("132"))
        expected = basis.normal_form(
            generator(alph, 4, "v12") * generator(alph, 4, "v13")
        ).degree_slice(2)
        assert lowest == {twist: expected}

    def test_conjugation_minus_one_powers(self):
        base = GroupRingElement.parse("1*[a12] - 1*[]", 3)
        for k in (1, 2, 3):
            assert vassiliev_degree(base**k, 4).order == k

    def test_above_cap_flagged(self):
        base = GroupRingElement.parse("1*[a12] - 1*[]", 3)
        report = vassiliev_degree(base**3, 2)
        assert report.order is None and report.above_cap

    def test_positive_minus_negative_crossing(self):
        # sigma - sigma^-1 generates the classical-braid filtration; its image
        # (exp(v12) - exp(-v21)) (x) s1 has order exactly 1
        basis = build_graded_basis(oriented_artin(3), 3)
        xi = GroupRingElement.parse("1*[sig1] - 1*[sig1^-1]", 3)
        report = vassiliev_degree(xi, 3)
        assert report.order == 1
        alph = basis.alphabet
        expected = sd(
            basis,
            generator(alph, 3, "v12").exp() - generator(alph, 3, "v21").scale(-1).exp(),
            "213",
        )
        assert report.image == expected

    def test_linear_extension_is_multiplicative(self, rng):
        for _ in range(10):
            xi = GroupRingElement.from_word(random_welded_word(rng, 3, rng.randint(0, 4)))
            xi = xi - GroupRingElement.from_word(random_welded_word(rng, 3, rng.randint(0, 4)))
            eta = GroupRingElement.from_word(random_welded_word(rng, 3, rng.randint(0, 4)))
            lhs = eval_group_ring(xi * eta, 3)
            rhs = eval_group_ring(xi, 3) * eval_group_ring(eta, 3)
            assert lhs == rhs

    def test_order_additivity_sample(self, rng):
        basis = build_graded_basis(oriented_artin(3), 4)
        unit = GroupRingElement.one(3)
        gens = [(1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2)]
        for _ in range(15):
            p, q = rng.randint(0, 2), rng.randint(0, 2)
            i1, j1 = rng.choice(gens)
            i2, j2 = rng.choice(gens)
            xi = (GroupRingElement.from_word(word(3, a(i1, j1))) - unit) ** p
            eta = (GroupRingElement.from_word(word(3, a(i2, j2))) - unit) ** q
            u, v = eval_group_ring(xi, 4), eval_group_ring(eta, 4)
            assert u.min_degree() == p and v.min_degree() == q
            order = (u * v).min_degree()
            assert order >= p + q
            lowest = {
                perm: oracles.reduce_fractions(basis, p + q, slice_)
                for perm, slice_ in _lowest_product(u, v, p, q).items()
            }
            if any(lowest.values()):
                assert order == p + q

    def test_strand_mismatch(self):
        with pytest.raises(Exception):
            GroupRingElement.parse("1*[s1]", 3) * GroupRingElement.parse("1*[s1]", 2)


def _lowest_product(u, v, p, q):
    """Product of the degree-p and degree-q slices, before reduction."""
    out = {}
    for x, su in u.terms.items():
        for y, sv in v.terms.items():
            key = x.compose(y)
            tgt = out.setdefault(key, {})
            for w1, c1 in su.degree_slice(p).items():
                for w2, c2 in sv.degree_slice(q).items():
                    w2t = tuple(sv.alphabet.permuted(g, x) for g in w2)
                    w = w1 + w2t
                    c = tgt.get(w, Fraction(0)) + c1 * c2
                    if c:
                        tgt[w] = c
                    else:
                        del tgt[w]
    return out


class TestDistinguish:
    def test_opposite_conjugations(self):
        report = distinguish(parse_word("a12", 3), parse_word("a21", 3), 4)
        assert report.first_difference_degree == 1
        assert not report.oracle_equal

    def test_braid_relation_words(self):
        report = distinguish(parse_word("sig1 sig2 sig1", 3), parse_word("sig2 sig1 sig2", 3), 4)
        assert report.images_equal_to_cap
        assert report.oracle_equal

    def test_commuting_conjugations(self):
        report = distinguish(parse_word("a13 a23", 3), parse_word("a23 a13", 3), 4)
        assert report.images_equal_to_cap
        assert report.oracle_equal

    def test_permutation_parts_differ_at_degree_zero(self):
        report = distinguish(parse_word("s1", 3), parse_word("", 3), 2)
        assert report.first_difference_degree == 0
        assert not report.oracle_equal

    @pytest.mark.parametrize(
        "n,cap,w1,w2,degree,oracle_equal",
        [
            (3, 4, "a12 a21", "a21 a12", 2, False),
            (3, 2, "a12 a21", "a21 a12", 2, False),
            (3, 4, "a12 a21 a12^-1 a21^-1 a13", "a13 a12 a21 a12^-1 a21^-1", 3, False),
            (
                4,
                4,
                "sig1 a31 sig2^-1 s3 a42 sig1 a24^-1",
                "sig1 a31 sig2^-1 a14 a24 a14^-1 a24^-1 s3 a42 sig1 a24^-1",
                None,
                True,
            ),
            (3, 4, "a12 s1 a31", "a12 s1", 1, False),
            (3, 4, "a12 s1 sig2", "a12 s1", 0, False),
            (3, 4, "a12 s1", "a12 s1 a13 a23 a13^-1 a23^-1", None, True),
            (3, 4, "sig1 a23^-1 s2", "sig1 a23^-1 s2", None, True),
            (3, 0, "s1", "s2", 0, False),
            (3, 0, "a12", "a21", None, False),
        ],
    )
    def test_pinned_pairs(self, n, cap, w1, w2, degree, oracle_equal):
        report = distinguish(parse_word(w1, n), parse_word(w2, n), cap)
        assert report.first_difference_degree == degree
        assert report.oracle_equal is oracle_equal


def _middle_pairs(rng, n):
    """Seeded pairs P m1 S, P m2 S: m2 is m1 times a relator, m1 reversed, m1, or unrelated."""
    relators = [relator for _, relator in mccool_relations(n) + braid_relations(n)]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for kind in ("relator", "reversed", "same", "independent"):
        for _ in range(10):
            if kind == "reversed":
                # Conjugations only: the degree-0 and degree-1 parts agree, so
                # the fold through the cap settles the pair.
                length = rng.randint(2, 5)
                m1 = word(n, *(a(*rng.choice(pairs), rng.choice((1, -1))) for _ in range(length)))
            else:
                m1 = random_welded_word(rng, n, rng.randint(0, 5))
            m2 = {
                "relator": m1 * rng.choice(relators),
                "reversed": WeldedWord(n, m1.letters[::-1]),
                "same": m1,
                "independent": random_welded_word(rng, n, rng.randint(0, 5)),
            }[kind]
            prefix = random_welded_word(rng, n, rng.randint(0, 4))
            suffix = random_welded_word(rng, n, rng.randint(0, 4))
            yield kind, prefix * m1 * suffix, prefix * m2 * suffix


class TestDistinguishMiddles:
    """Only the middles are folded, once and up to the answer; the full fold is the reference."""

    @pytest.mark.parametrize("n,cap", [(3, c) for c in range(1, 6)] + [(4, c) for c in range(1, 5)])
    def test_against_full_evaluation(self, n, cap):
        rng = random.Random(f"distinguish-middles:{n}:{cap}")
        for kind, w1, w2 in _middle_pairs(rng, n):
            xi = GroupRingElement.from_word(w1) - GroupRingElement.from_word(w2)
            full = eval_group_ring(xi, cap).min_degree()
            report = distinguish(w1, w2, cap)
            assert report.first_difference_degree == full, (w1, w2)
            assert report.oracle_equal == words_equal_in_bp(w1, w2)
            if kind in ("relator", "same"):
                assert full is None and report.oracle_equal
            if full is not None:
                assert not report.oracle_equal

    def test_folds_only_the_middles_once_and_no_degree_above_the_answer(self, monkeypatch):
        calls = []
        fold_all = invariants_mod.fold_welded

        def spy(n, cap, combination, cache_dir):
            combination = list(combination)
            folded = fold_all(n, cap, combination, cache_dir)
            calls.append((cap, sorted(w.text() for w, _ in combination), folded[2]))
            return folded

        def folded():
            """(cap, middles) per fold, and the degrees computed for each permutation."""
            made = [(cap, words) for cap, words, _ in calls]
            degrees = [len(part.sums) for _, _, raw in calls for part in raw.values()]
            calls.clear()
            return made, degrees

        monkeypatch.setattr(invariants_mod, "fold_welded", spy)
        report = distinguish(parse_word("s2 a12 a13 s1", 3), parse_word("s2 a21 a13 s1", 3), 4)
        assert report.first_difference_degree == 1
        assert folded() == ([(4, ["a12", "a21"])], [2])
        report = distinguish(parse_word("s1 a12 a21 sig2", 3), parse_word("s1 a21 a12 sig2", 3), 4)
        assert report.first_difference_degree == 2
        assert folded() == ([(4, ["a12 a21", "a21 a12"])], [3])
        # different permutations: the first one read settles degree 0
        report = distinguish(parse_word("a12 s1 a13", 3), parse_word("a12 s2 a31", 3), 4)
        assert report.first_difference_degree == 0
        assert folded() == ([(4, ["s1 a13", "s2 a31"])], [1, 0])
        report = distinguish(parse_word("a12 a21", 3), parse_word("a21 a12", 3), 1)
        assert report.first_difference_degree is None
        assert folded() == ([(1, ["a12 a21", "a21 a12"])], [2])


class TestGroupRingFold:
    """One fold of the whole element against one reduced image per word."""

    @pytest.mark.parametrize("n,cap", [(3, 4), (4, 3)])
    def test_against_per_word_images(self, rng, n, cap):
        basis = build_graded_basis(oriented_artin(n), cap)
        relators = [relator for _, relator in mccool_relations(n)]
        for _ in range(6):
            words = [random_welded_word(rng, n, rng.randint(0, 6)) for _ in range(3)]
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in words]
            xi = GroupRingElement(n, dict(zip(words, coeffs)))
            want = SemidirectSeries.zero(basis, cap)
            for w, c in xi.terms.items():
                want = want + eval_welded(w, cap).scale(c)
            assert eval_group_ring(xi, cap) == want

            w1, w2 = words[:2]
            diff = eval_welded(w1, cap) - eval_welded(w2, cap)
            assert distinguish(w1, w2, cap).first_difference_degree == diff.min_degree()
            assert distinguish(w1, w1, cap).first_difference_degree is None
            # different spellings of one element cancel only after reduction
            spelled = w1 * rng.choice(relators)
            assert distinguish(w1, spelled, cap).first_difference_degree is None
            assert eval_group_ring(
                GroupRingElement.from_word(w1) - GroupRingElement.from_word(spelled), cap
            ).is_zero()


def _upward_elements(rng, n):
    """The zero element, permutation words, Fraction combinations, and (c - 1)^k and (c - 1)^k [s]."""
    unit = GroupRingElement.one(n)

    def permutation_word():
        return GroupRingElement.from_word(WeldedWord(n, [s(rng.randint(1, n - 1)) for _ in range(rng.randint(0, 3))]))

    yield GroupRingElement(n, {})
    yield permutation_word()
    yield permutation_word() - permutation_word()
    for _ in range(3):
        words = [random_welded_word(rng, n, rng.randint(0, 5)) for _ in range(3)]
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in words]
        yield GroupRingElement(n, dict(zip(words, coeffs)))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for k in (1, 2, 3):
        c = WeldedWord(n, [a(*rng.choice(pairs), rng.choice((1, -1))) for _ in range(rng.randint(1, 3))])
        base = (GroupRingElement.from_word(c) - unit) ** k
        yield base
        yield base * permutation_word()


class TestUpwardOrder:
    """vassiliev_degree reduces upward to the order; the eager eval_group_ring is the reference."""

    @pytest.mark.parametrize("n,cap", [(n, cap) for n in (2, 3, 4) for cap in range(6)])
    def test_against_the_eager_image(self, n, cap):
        rng = random.Random(f"upward-order:{n}:{cap}")
        for xi in _upward_elements(rng, n):
            want = eval_group_ring(xi, cap)
            report = vassiliev_degree(xi, cap)
            assert report.order == want.min_degree(), xi.text()
            assert report.image == want and report.image.text() == want.text()

    def test_the_image_is_given_or_computed_once(self):
        image = eval_group_ring(GroupRingElement.parse("1*[s1]", 3), 2)
        given = invariants_mod.FiltrationReport(None, 2, image, 0)
        assert given.image is image and given.image is image
        calls = []
        report = invariants_mod.FiltrationReport(None, 2, lambda: calls.append(1) or image, 0)
        assert calls == []
        assert report.image is image and report.image is image and calls == [1]


@pytest.fixture
def reduced_degrees(monkeypatch):
    """The degrees passed to GradedQuotientBasis.reduce_slice, in call order."""
    degrees = []
    reduce_slice = GradedQuotientBasis.reduce_slice

    def spy(self, k, pair):
        degrees.append(k)
        return reduce_slice(self, k, pair)

    monkeypatch.setattr(GradedQuotientBasis, "reduce_slice", spy)
    return degrees


class TestUpwardOrderWork:
    """No degree above the order is reduced until the image is read, and then once."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_no_degree_above_the_order_until_the_image_is_read(self, reduced_degrees, k):
        build_graded_basis(oriented_artin(3), 5)
        xi = GroupRingElement.parse("1*[a12] - 1*[]", 3) ** k
        report = vassiliev_degree(xi, 5)
        assert report.order == k
        assert reduced_degrees == list(range(k + 1))
        reduced_degrees.clear()
        image = report.image
        assert image == eval_group_ring(xi, 5)
        reduced_degrees.clear()
        assert report.image is image and reduced_degrees == []

    def test_reading_the_image_normalizes_every_degree_once(self, reduced_degrees):
        report = vassiliev_degree(GroupRingElement.parse("1*[a12 a12 s2] - 2*[a12 s2] + 1*[s2]", 3), 3)
        reduced_degrees.clear()
        report.image
        report.image
        assert reduced_degrees == [0, 1, 2, 3]

    def test_distinguish_at_degree_zero_reduces_only_degree_zero(self, reduced_degrees):
        build_graded_basis(oriented_artin(3), 4)
        report = distinguish(parse_word("a12 s1", 3), parse_word("a12 s2", 3), 4)
        assert report.first_difference_degree == 0
        assert set(reduced_degrees) == {0}


class TestDeltaMap:
    def test_generator_images(self):
        oriented = build_graded_basis(oriented_artin(3), 2)
        chord = infinitesimal_artin(3).alphabet
        img = delta_map(generator(chord, 2, "t12"), oriented)
        assert img == generator(oriented.alphabet, 2, "v12") + generator(
            oriented.alphabet, 2, "v21"
        )

    def test_descends_to_quotients(self, rng):
        # delta of a normal form equals the normal form of delta word-wise:
        # that is, delta kills the chord relations
        chord = build_graded_basis(infinitesimal_artin(3), 3)
        oriented = build_graded_basis(oriented_artin(3), 3)
        for rel in infinitesimal_artin(3).relations():
            assert delta_map(rel.lifted(3), oriented).is_zero()
        for _ in range(10):
            x = random_series(rng, chord.alphabet, 3)
            assert delta_map(x, oriented) == delta_map(chord.normal_form(x), oriented)

    def test_is_algebra_map(self, rng):
        oriented = build_graded_basis(oriented_artin(3), 3)
        for _ in range(10):
            x = random_series(rng, infinitesimal_artin(3).alphabet, 3)
            y = random_series(rng, infinitesimal_artin(3).alphabet, 3)
            assert delta_map(x * y, oriented) == oriented.normal_form(
                delta_map(x, oriented) * delta_map(y, oriented)
            )

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_three_strand_kernel_trivial(self, k):
        report = delta_kernel(3, k)
        assert report.kernel_dimension == 0
        assert report.injective

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_two_strand_kernel_trivial(self, k):
        assert delta_kernel(2, k).kernel_dimension == 0

    def test_domain_dimension_matches_basis(self):
        report = delta_kernel(3, 3)
        assert report.domain_dimension == 15

    # Every (n, k) with d_k * 2^k <= 30,000 image terms, d_k = dim chord(n)_k:
    # the slices the reference's word-by-word expansion reaches cheaply.
    @pytest.mark.parametrize(
        "n, k",
        [(2, k) for k in range(15)]
        + [(3, k) for k in range(7)]
        + [(n, k) for n in (4, 5) for k in range(5)],
    )
    def test_matches_the_normal_word_reference(self, n, k):
        report = delta_kernel(n, k)
        expected = oracles.reference_delta_kernel(n, k)
        assert (report.domain_dimension, report.kernel_dimension) == expected

    @pytest.mark.parametrize("n, k", [(n, k) for n in (3, 4) for k in range(1, 5)])
    def test_kernel_columns_are_delta_images_of_lie_brackets(self, n, k, monkeypatch):
        seen = []

        def recording_solve(columns, rhs=None):
            seen.append(columns)
            return affine_solve(columns, rhs)

        monkeypatch.setattr(invariants_mod, "affine_solve", recording_solve)
        monkeypatch.setattr(invariants_mod, "_image_rank", invariants_mod._image_rank.__wrapped__)
        delta_kernel(n, k)
        chord = infinitesimal_artin(n).alphabet
        oriented = build_graded_basis(oriented_artin(n), k)
        expected = []
        for d in range(1, k + 1):
            columns = []
            for top in range(2, n + 1):
                letters = tuple(((chord.gen(i, top), 1),) for i in range(1, top))
                for w in lyndon_words(top - 1, d):
                    bracket = TruncatedSeries.from_terms(chord, d, bracket_image(w, letters)[1])
                    columns.append(delta_map(bracket, oriented).scaled[d])
            expected.append(columns)
        assert seen == expected

    @pytest.mark.parametrize("cap", range(7))
    def test_pbw_counts_the_closed_forms(self, cap):
        # Witt dimensions of the free Lie algebra on m letters give m^k ...
        for m in (1, 2, 3):
            witt = [len(lyndon_words(m, d)) for d in range(1, cap + 1)]
            assert [invariants_mod._pbw_dimension(witt[:k], k) for k in range(cap + 1)] == [
                m**k for k in range(cap + 1)
            ]
        # ... and the basis of t_n over top = 2..n gives Kohno's product formula
        for n in range(2, 7):
            ranks = [
                sum(len(lyndon_words(top - 1, d)) for top in range(2, n + 1))
                for d in range(1, cap + 1)
            ]
            assert [invariants_mod._pbw_dimension(ranks[:k], k) for k in range(cap + 1)] == (
                oracles.product_formula_dims(n, cap)
            )

    @pytest.mark.parametrize("n, cap", [(3, 4), (4, 3)])
    def test_matches_the_substitution_reference(self, n, cap, rng):
        oriented = build_graded_basis(oriented_artin(n), cap)
        chord = infinitesimal_artin(n).alphabet
        for _ in range(8):
            x = random_series(rng, chord, cap, nterms=10, denom=7)
            assert delta_map(x, oriented) == oracles.reference_delta_map(x, oriented)

    def test_cap_above_the_target_is_rejected(self):
        oriented = build_graded_basis(oriented_artin(3), 2)
        with pytest.raises(CapMismatch):
            delta_map(generator(infinitesimal_artin(3).alphabet, 3, "t12"), oriented)


PHI7_PATH = Path(__file__).parent.parent / "bench" / "fixtures" / "phi7.txt"


def left_normed(words):
    """The left-normed group commutator [... [w1, w2], ..., wk], [u, v] = u v u^-1 v^-1."""
    out = words[0]
    for w in words[1:]:
        out = out * w * out.inverse() * w.inverse()
    return out


def left_normed_bracket(alphabet, cap, gens):
    """The left-normed bracket [... [x1, x2], ..., xk] of generators, as a series."""
    out = generator(alphabet, cap, gens[0])
    for g in gens[1:]:
        x = generator(alphabet, cap, g)
        out = out * x - x * out
    return out


class TestUniversality:
    """A left-normed commutator of k generators minus 1 vanishes below degree k and leads with its bracket."""

    @pytest.mark.parametrize("n, cap", [(3, 5), (4, 4)])
    def test_welded_commutators_lead_with_their_brackets(self, n, cap):
        # Also the filtration order: at least k, and k exactly when the bracket is nonzero.
        rng = random.Random(5100 + n)
        basis = build_graded_basis(oriented_artin(n), cap)
        identity, unit = Permutation.identity(n), GroupRingElement.one(n)
        vanishing = 0
        for _ in range(200):
            k = rng.randint(2, cap)
            gens = [rng.choice(basis.alphabet.pairs) for _ in range(k)]
            w = left_normed([word(n, a(i, j)) for i, j in gens])
            image = eval_welded(w, cap).component(identity) - one(basis.alphabet, cap)
            bracket = basis.normal_form(left_normed_bracket(basis.alphabet, cap, gens)).scaled[k]
            assert all(not image.scaled[d][1] for d in range(k)), (gens, image)
            assert image.scaled[k] == bracket, gens
            order = vassiliev_degree(GroupRingElement.from_word(w) - unit, cap).order
            assert order is None or order >= k, (gens, order)
            assert (order == k) == bool(bracket[1]), (gens, order)
            vanishing += not bracket[1]
        assert 0 < vanishing < 200

    @pytest.mark.parametrize("n, samples", [(3, None), (4, 40)])
    def test_pure_braid_commutators_map_to_the_welded_ones_under_delta(self, n, samples):
        # At cap 4 every left-normed commutator of k <= 4 pure braid generators
        # A_ji whose first two differ, 81 at n = 3, or a seeded sample at n = 4.
        cap = 4
        phi = parse_series(PHI7_PATH.read_text().split("\n", 1)[1], AB)
        chord = infinitesimal_artin(n).alphabet
        oriented = build_graded_basis(oriented_artin(n), cap)
        gens = [(j, i) for i in range(2, n + 1) for j in range(1, i)]
        cases = [
            seq
            for k in range(1, cap + 1)
            for seq in product(gens, repeat=k)
            if k == 1 or seq[0] != seq[1]
        ]
        assert len(cases) == {3: 81, 4: 1296}[n]
        if samples is not None:
            cases = random.Random(5200 + n).sample(cases, samples)
        identity = Permutation.identity(n)
        for seq in cases:
            k = len(seq)
            w = left_normed([pure_braid_generator(j, i, n) for j, i in seq])
            welded = eval_welded(w, cap).component(identity) - one(oriented.alphabet, cap)
            drinfeld = eval_drinfeld(w, phi, cap).component(identity) - one(chord, cap)
            assert all(not welded.scaled[d][1] and not drinfeld.scaled[d][1] for d in range(k)), seq
            assert welded.scaled[k] == delta_map(drinfeld, oriented).scaled[k], seq


class TestHilbertTable:
    def test_rows(self):
        table = hilbert_table(3, 4)
        rows = dict(table.rows())
        assert rows["chord"] == [1, 3, 7, 15, 31]
        assert rows["oriented"][:3] == [1, 6, 27]
        assert rows["chord weight systems"] == [6 * d for d in rows["chord"]]
        assert rows["oriented weight systems"] == [6 * d for d in rows["oriented"]]
        assert table.weight_factor == 6

    def test_two_strands(self):
        table = hilbert_table(2, 5)
        rows = dict(table.rows())
        assert rows["oriented"] == [1, 2, 4, 8, 16, 32]
        assert rows["chord"] == [1] * 6
        assert table.weight_factor == 2

    def test_oriented_rows_frozen(self):
        # regression pins for the echelon output; no closed form is asserted
        table = hilbert_table(3, 4)
        assert dict(table.rows())["oriented"] == [1, 6, 27, 108, 405]
        table4 = hilbert_table(4, 3)
        assert dict(table4.rows())["oriented"] == [1, 12, 96, 640]


class TestSplittingIdentity:
    def test_conjugation_generators_have_order_one(self):
        report = check_splitting_identity(3, 3, samples=0)
        assert report.passed
        assert len(report.cases) == 6
        assert all(case.order_plain == 1 for case in report.cases)

    @pytest.mark.parametrize("n,cap,message", [(1, 2, "n = 1"), (0, 3, "n = 0"), (3, 0, "cap = 0")])
    def test_rejects_bad_sizes_before_any_work(self, n, cap, message):
        with pytest.raises(ValueError, match=message):
            check_splitting_identity(n, cap, samples=0)

    def test_rejects_negative_samples_before_any_work(self, monkeypatch):
        monkeypatch.setattr(invariants_mod, "vassiliev_degree", lambda *a: pytest.fail("work was done"))
        with pytest.raises(ValueError, match="samples = -1"):
            check_splitting_identity(3, 3, samples=-1)

    def test_sampled_cases_pass(self):
        report = check_splitting_identity(3, 4, samples=12, seed=11)
        assert report.passed
        for case in report.cases:
            assert case.order_plain == case.order_twisted

from fractions import Fraction
from math import gcd

import pytest

import oracles
from conftest import ab_commutator, make_rng, random_series

from braidalg import (
    AB,
    Alphabet,
    AlphabetMismatch,
    CapMismatch,
    ConstantTermError,
    GroupRingElement,
    Permutation,
    SemidirectSeries,
    SeriesError,
    TruncatedSeries,
    build_graded_basis,
    free_preset,
    generator,
    infinitesimal_artin,
    is_lie_element,
    lie_defect,
    one,
    oriented_artin,
    parse_series,
    parse_word,
    substitute,
    substitute_generators,
    zero,
)
from braidalg import associator
from braidalg.series import linear_forms, scale_slice, scaled_exp_linear
from braidalg.linalg import affine_solve
from braidalg.lyndon import (
    bracket_image,
    bracket_terms,
    lie_basis,
    lyndon_words,
    standard_factorization,
)


def A(cap):
    return generator(AB, cap, "A")


def B(cap):
    return generator(AB, cap, "B")


class TestAlphabet:
    def test_chord_size_and_canonicalization(self):
        alph = Alphabet.chord(4)
        assert alph.size == 6
        assert alph.gen(3, 1) == alph.gen(1, 3)
        assert alph.names[alph.gen(2, 4)] == "t24"

    def test_oriented_size(self):
        alph = Alphabet.oriented(4)
        assert alph.size == 12
        assert alph.gen(2, 1) != alph.gen(1, 2)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Alphabet.abstract("A", "A")


class TestMul:
    def test_direct_expansion(self):
        got = (one(AB, 2) + A(2)) * (one(AB, 2) + B(2))
        want = parse_series("1 + 1*A + 1*B + 1*A.B", AB, 2)
        assert got == want

    def test_unit_law(self, rng):
        for _ in range(20):
            x = random_series(rng, AB, 3)
            assert one(AB, 3) * x == x
            assert x * one(AB, 3) == x

    def test_noncommutative_expansion(self):
        got = (A(2) + B(2)) * (A(2) - B(2))
        want = parse_series("1*A.A - 1*A.B + 1*B.A - 1*B.B", AB, 2)
        assert got == want

    def test_mismatches_raise(self):
        with pytest.raises(CapMismatch):
            A(2) * A(3)
        with pytest.raises(AlphabetMismatch):
            A(2) * generator(Alphabet.chord(3), 2, "t12")

    def test_ring_laws_randomized(self, rng):
        for _ in range(25):
            x = random_series(rng, AB, 3)
            y = random_series(rng, AB, 3)
            z = random_series(rng, AB, 3)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z

    def test_truncation_coherent(self, rng):
        # truncate-then-multiply agrees with multiply-then-truncate
        for _ in range(10):
            x = random_series(rng, AB, 4)
            y = random_series(rng, AB, 4)
            assert (x * y).truncated(2) == x.truncated(2) * y.truncated(2)

    def test_truncation_rejects_a_negative_cap(self):
        x = one(AB, 2)
        assert x.truncated(0) == one(AB, 0)
        with pytest.raises(SeriesError, match="^cap must be >= 0$"):
            x.truncated(-1)

    def test_mul_against_mini_oracle(self, rng):
        # Also exp, log and inverse, which share the product's scaled-integer
        # kernel.  Coefficients have denominators up to 6 (up to 12 for
        # inverse's constant term); caps 0 and 1 are the power series' edges.
        def terms(s):
            return dict(s.terms())

        for cap in (0, 1, 2, 3, 4):
            for _ in range(10):
                x = random_series(rng, AB, cap)
                y = random_series(rng, AB, cap)
                h = random_series(rng, AB, cap, zero_constant=True) if cap else zero(AB, 0)
                c = Fraction(rng.choice([-7, -1, 1, 3, 5]), rng.choice([1, 4, 12]))
                g = one(AB, cap) + h
                u = one(AB, cap).scale(c) + h
                for got, want in [
                    (x * y, oracles.mini_mul(terms(x), terms(y), cap)),
                    (h.exp(), oracles.mini_exp(terms(h), cap)),
                    (g.log(), oracles.mini_log(terms(g), cap)),
                    (u.inverse(), oracles.mini_inverse(terms(u), cap)),
                ]:
                    assert terms(got) == want
                    assert all(type(v) is Fraction for v in terms(got).values())


class TestExpLog:
    def test_exp_generator(self):
        assert A(2).exp() == parse_series("1 + 1*A + 1/2*A.A", AB, 2)

    def test_exp_zero(self):
        assert zero(AB, 3).exp() == one(AB, 3)

    def test_log_one_plus_a(self):
        assert (one(AB, 2) + A(2)).log() == parse_series("1*A - 1/2*A.A", AB, 2)

    def test_log_one(self):
        assert one(AB, 3).log() == zero(AB, 3)

    def test_bch_degree_two(self):
        # independent oracle: mini arithmetic computes log(exp A exp B)
        got = (A(2).exp() * B(2).exp()).log()
        a = {(0,): Fraction(1)}
        b = {(1,): Fraction(1)}
        want = oracles.mini_log(
            oracles.mini_mul(oracles.mini_exp(a, 2), oracles.mini_exp(b, 2), 2), 2
        )
        assert {w: c for w, c in got.terms()} == want
        half = Fraction(1, 2)
        assert got == A(2) + B(2) + ab_commutator(2).scale(half)

    def test_roundtrips_randomized(self, rng):
        for cap in (2, 4, 6):
            for _ in range(15):
                x = random_series(rng, AB, cap, zero_constant=True)
                assert x.exp().log() == x
                g = one(AB, cap) + random_series(rng, AB, cap, zero_constant=True)
                assert g.log().exp() == g

    @pytest.mark.parametrize("alphabet", [Alphabet.chord(3), Alphabet.chord(4), AB])
    def test_closed_form_of_a_linear_exponent(self, rng, alphabet):
        # exp(s x) for linear x of 1-3 letters with rational coefficients, by
        # the closed form s^k x^k / k!, against the general exp and mini_exp.
        for cap in range(9):
            for s in (1, -1, Fraction(1, 2), Fraction(-1, 2)):
                for _ in range(2):
                    letters = rng.sample(range(alphabet.size), rng.randint(1, min(3, alphabet.size)))
                    x = {
                        (g,): Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))
                        for g in letters
                    }
                    den, (form,) = linear_forms([scale_slice(x)])
                    got = TruncatedSeries(alphabet, cap, scaled_exp_linear(form, den, s, cap))
                    linear = TruncatedSeries.from_terms(alphabet, cap, x if cap else {})
                    assert got == linear.scale(s).exp()
                    assert dict(got.terms()) == oracles.mini_exp(oracles.mini_scale(x, s), cap)

    def test_preconditions(self):
        with pytest.raises(ConstantTermError):
            one(AB, 2).exp()
        with pytest.raises(ConstantTermError):
            A(2).log()


class TestInverse:
    def test_geometric_series(self):
        assert (one(AB, 2) + A(2)).inverse() == parse_series("1 - 1*A + 1*A.A", AB, 2)

    def test_inverse_of_exp(self):
        for cap in (2, 3, 5):
            assert A(cap).exp().inverse() == A(cap).scale(-1).exp()

    def test_scalar(self):
        assert one(AB, 3).scale(2).inverse() == one(AB, 3).scale(Fraction(1, 2))

    def test_two_sided_randomized(self, rng):
        for cap in (2, 4, 6):
            for _ in range(15):
                g = one(AB, cap) + random_series(rng, AB, cap, zero_constant=True)
                assert g * g.inverse() == one(AB, cap)
                assert g.inverse() * g == one(AB, cap)

    def test_zero_constant_raises(self):
        with pytest.raises(ConstantTermError):
            A(2).inverse()


class TestSubstitute:
    def test_word_image(self):
        chord = Alphabet.chord(3)
        f = one(AB, 2) + A(2) * B(2)
        t12 = generator(chord, 2, "t12")
        t23 = generator(chord, 2, "t23")
        assert substitute(f, t12, t23) == one(chord, 2) + t12 * t23

    def test_single_variable(self):
        chord = Alphabet.chord(3)
        x = generator(chord, 2, "t13") + generator(chord, 2, "t23")
        assert substitute(A(2), x, generator(chord, 2, "t12")) == x

    def test_composition_with_exp(self):
        chord = Alphabet.chord(3)
        t12 = generator(chord, 2, "t12")
        got = substitute(A(2).exp(), t12, generator(chord, 2, "t23"))
        assert got == t12.exp()

    def test_morphism_property(self, rng):
        chord = Alphabet.chord(3)
        x = generator(chord, 3, "t12")
        y = generator(chord, 3, "t13") + generator(chord, 3, "t23")
        for _ in range(10):
            f = random_series(rng, AB, 3)
            g = random_series(rng, AB, 3)
            assert substitute(f * g, x, y) == substitute(f, x, y) * substitute(g, x, y)

    def test_constant_passthrough(self):
        chord = Alphabet.chord(3)
        f = one(AB, 2).scale(5)
        assert substitute(f, generator(chord, 2, "t12"), generator(chord, 2, "t23")) == one(
            chord, 2
        ).scale(5)

    def test_nonzero_constant_image_raises(self):
        chord = Alphabet.chord(3)
        with pytest.raises(ConstantTermError):
            substitute(A(2), one(chord, 2), generator(chord, 2, "t23"))

    def test_mismatched_images_raise(self):
        with pytest.raises(AlphabetMismatch):
            substitute(
                A(2),
                generator(Alphabet.chord(3), 2, "t12"),
                generator(Alphabet.oriented(3), 2, "v12"),
            )

    def test_underdetermined_cap_raises(self):
        chord = Alphabet.chord(3)
        with pytest.raises(CapMismatch):
            substitute(A(2), generator(chord, 3, "t12"), generator(chord, 3, "t23"))

    def test_nonlinear_image_is_named(self):
        chord = Alphabet.chord(3)
        t12, t23 = generator(chord, 3, "t12"), generator(chord, 3, "t23")
        with pytest.raises(SeriesError, match=r"image of B has a term of degree 2"):
            substitute(A(3), t12, t23 + t12 * t23)
        with pytest.raises(SeriesError, match=r"image of A has a term of degree 3"):
            substitute(A(3), t12 + t12 * t23 * t12, t23)

    @pytest.mark.parametrize("source", [AB, Alphabet.abstract("X", "Y", "Z")])
    def test_matches_product_reference(self, rng, source):
        # Images of 1-3 terms with rational coefficients, caps 0-5; the
        # reference multiplies the images letter by letter.
        target = Alphabet.chord(4)
        for cap in range(6):
            for _ in range(6):
                f = random_series(rng, source, cap, nterms=8)
                images = []
                for _ in range(source.size):
                    terms = {}
                    if cap:
                        for _ in range(rng.randint(1, 3)):
                            num = rng.choice([-1, 1]) * rng.randint(1, 6)
                            terms[(rng.randrange(target.size),)] = Fraction(num, rng.randint(1, 6))
                    images.append(TruncatedSeries.from_terms(target, cap, terms))
                got = substitute_generators(f, images)
                want = oracles.reference_substitute(
                    dict(f.terms()), [dict(im.terms()) for im in images], cap
                )
                assert dict(got.terms()) == want
                assert got.cap == cap and got.alphabet == target


class TestPermutationAction:
    def test_chord_symmetry(self):
        chord = Alphabet.chord(3)
        t12 = generator(chord, 2, "t12")
        assert t12.act(Permutation.from_one_line("213")) == t12

    def test_chord_relabel(self):
        chord = Alphabet.chord(3)
        t12 = generator(chord, 2, "t12")
        assert t12.act(Permutation.from_one_line("312")) == generator(chord, 2, "t13")

    def test_oriented_swap(self):
        alph = Alphabet.oriented(3)
        v12 = generator(alph, 2, "v12")
        assert v12.act(Permutation.transposition(3, 1)) == generator(alph, 2, "v21")

    def test_group_action(self, rng):
        import itertools

        perms = [Permutation(p) for p in itertools.permutations((1, 2, 3))]
        for alph in (Alphabet.chord(3), Alphabet.oriented(3)):
            for _ in range(5):
                x = random_series(rng, alph, 3)
                assert x.act(Permutation.identity(3)) == x
                for p in perms:
                    for q in perms:
                        assert x.act(q).act(p) == x.act(p.compose(q))

    def test_algebra_automorphism(self, rng):
        alph = Alphabet.oriented(3)
        p = Permutation.from_one_line("231")
        for _ in range(10):
            x = random_series(rng, alph, 3)
            y = random_series(rng, alph, 3)
            assert (x * y).act(p) == x.act(p) * y.act(p)

    def test_abstract_alphabet_rejected(self):
        with pytest.raises(AlphabetMismatch):
            A(2).act(Permutation.identity(2))


class TestLieDetection:
    def test_commutator_is_lie(self):
        assert is_lie_element(ab_commutator(2))

    def test_plain_word_is_not(self):
        assert not is_lie_element(A(2) * B(2))

    def test_bch_is_lie_and_matches_lyndon_span(self):
        # cross-check the Dynkin verdict degree by degree against membership
        # in the span of Lyndon bracketings, computed by plain linear algebra
        bch = (A(4).exp() * B(4).exp()).log()
        assert is_lie_element(bch)
        assert lie_defect(bch).is_zero()
        for k in range(1, 5):
            columns = [b.scaled[k] for _, b in lie_basis(AB, 4, k)]
            particular, _ = affine_solve(columns, bch.scaled[k])
            assert particular is not None

    def test_random_lie_logs(self, rng):
        for _ in range(10):
            coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(8)]
            ell = zero(AB, 4)
            idx = 0
            for k in range(1, 5):
                for _, bracket in lie_basis(AB, 4, k):
                    if idx < len(coords):
                        ell = ell + bracket.scale(coords[idx])
                        idx += 1
            assert is_lie_element(ell.exp().log())

    def test_constant_term_rejected(self):
        with pytest.raises(ConstantTermError):
            is_lie_element(one(AB, 2))


class TestTextGrammar:
    def test_documented_example(self):
        chord = Alphabet.chord(3)
        text = "1 + 1/24*t12.t23 - 1/24*t23.t12"
        s = parse_series(text, chord, 2)
        assert s.text() == text

    def test_zero(self):
        assert zero(AB, 3).text() == "0"
        assert parse_series("0", AB, 3) == zero(AB, 3)

    def test_leading_minus(self):
        s = parse_series("-1/2*A + 3", AB, 2)
        assert s.coefficient((0,)) == Fraction(-1, 2)
        assert s.constant_term == 3
        assert parse_series(s.text(), AB, 2) == s

    def test_roundtrip_randomized(self, rng):
        for alph in (AB, Alphabet.chord(4), Alphabet.oriented(3)):
            for _ in range(10):
                s = random_series(rng, alph, 3)
                assert parse_series(s.text(), alph, 3) == s

    def test_syntax_errors(self):
        with pytest.raises(SeriesError):
            parse_series("1 + + 2*A", AB, 2)
        with pytest.raises(SeriesError):
            parse_series("1*C", AB, 2)
        with pytest.raises(SeriesError):
            parse_series("1*A.A.A", AB, 2)
        with pytest.raises(SeriesError):
            parse_series("1 2*A", AB, 2)


class TestEquality:
    def test_distinct_caps_are_distinct(self):
        assert not (one(AB, 2) == one(AB, 3))

    def test_substitute_generators_embedding(self):
        small = Alphabet.chord(2)
        big = Alphabet.chord(3)
        s = generator(small, 3, "t12").exp()
        images = [generator(big, 3, pair) for pair in small.pairs]
        assert substitute_generators(s, images) == generator(big, 3, "t12").exp()


class TestStoredForm:
    """Every public operation stores each degree as one (den, {word: int}) pair in lowest terms."""

    ALPHABETS = {"chord3": Alphabet.chord(3), "oriented3": Alphabet.oriented(3), "AB": AB}

    @staticmethod
    def assert_lowest_terms(s):
        assert len(s.scaled) == s.cap + 1
        for k, (den, sl) in enumerate(s.scaled):
            assert type(den) is int and den > 0, (k, den)
            assert all(type(c) is int and c for c in sl.values()), (k, sl)
            assert all(len(w) == k for w in sl), (k, sl)
            assert gcd(den, *sl.values()) == 1, (k, den, sl)

    @staticmethod
    def basis(alphabet, cap):
        preset = {"chord": infinitesimal_artin, "oriented": oriented_artin}.get(alphabet.kind)
        return build_graded_basis(preset(alphabet.n) if preset else free_preset(alphabet), cap)

    def results(self, rng, alphabet, cap):
        """(name, series) for every public operation on random arguments."""
        a, b = random_series(rng, alphabet, cap), random_series(rng, alphabet, cap)
        x = random_series(rng, alphabet, cap, zero_constant=True) if cap else zero(alphabet, 0)
        g = one(alphabet, cap) + x
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 6))
        linear = [
            sum(
                (
                    generator(alphabet, cap, h).scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                    for h in rng.sample(range(alphabet.size), 2)
                ),
                zero(alphabet, cap),
            )
            if cap
            else zero(alphabet, 0)
            for _ in range(alphabet.size)
        ]
        if alphabet.kind == "abstract":
            acted = associator.swap_letters(a)
        else:
            acted = a.act(Permutation.from_one_line("".join(map(str, rng.sample(range(1, 4), 3)))))
        out = [
            ("+", a + b), ("-", a - b), ("neg", -a), ("scale", a.scale(c)), ("scale by 0", a.scale(0)),
            ("*", a * b), ("exp", x.exp()), ("log", g.log()), ("inverse", g.scale(c).inverse()),
            ("act", acted), ("substitute", substitute_generators(a, linear)),
            ("lie_defect", lie_defect(x)), ("normal_form", self.basis(alphabet, cap).normal_form(a)),
            ("truncated", a.truncated(cap // 2)), ("lifted", a.lifted(cap + 2)),
        ]
        return out, (a, b, x)

    def ideal_routes(self, rng, alphabet, cap):
        """NF(n + r/2) and NF(n) for an integral n and a relation r: the reduction cancels the 1/2."""
        basis = self.basis(alphabet, cap)
        n = random_series(rng, alphabet, cap, denom=1)
        relation = rng.choice(basis.preset.relations()).lifted(cap)
        return basis.normal_form(n + relation.scale(Fraction(1, 2))), basis.normal_form(n)

    @pytest.mark.parametrize("cap", range(7))
    @pytest.mark.parametrize("name", ALPHABETS)
    def test_every_operation_stores_lowest_terms(self, rng, name, cap):
        alphabet = self.ALPHABETS[name]
        for _ in range(3):
            results, (a, b, x) = self.results(rng, alphabet, cap)
            for op, s in results:
                try:
                    self.assert_lowest_terms(s)
                except AssertionError:
                    pytest.fail(f"{op} on {alphabet!r} at cap {cap} left {s.scaled}")
            # Equal series reached by different routes compare and hash equal.
            if alphabet.kind != "abstract" and cap >= 2:
                via_ideal, direct = self.ideal_routes(rng, alphabet, cap)
                self.assert_lowest_terms(via_ideal)
                assert via_ideal == direct and hash(via_ideal) == hash(direct)
            assert x.exp().log() == x and hash(x.exp().log()) == hash(x)
            terms = oracles.mini_mul(dict(a.terms()), dict(b.terms()), cap)
            product = TruncatedSeries.from_terms(alphabet, cap, terms)
            assert a * b == product and hash(a * b) == hash(product)


class TestFloatCoefficients:
    """A float is a binary fraction: every coefficient entry point refuses it, as * does."""

    @staticmethod
    def entry_points():
        w = parse_word("s1 a12", 3)
        unit = SemidirectSeries.unit(build_graded_basis(oriented_artin(3), 2), 2)
        return {
            "from_terms": lambda c: TruncatedSeries.from_terms(AB, 1, {(0,): c}),
            "TruncatedSeries.scale": lambda c: generator(AB, 2, 0).scale(c),
            "SemidirectSeries.scale": unit.scale,
            "GroupRingElement": lambda c: GroupRingElement(3, {w: c}),
            "from_word": lambda c: GroupRingElement.from_word(w, c),
            "GroupRingElement.scale": GroupRingElement.from_word(w).scale,
        }

    @pytest.mark.parametrize(
        "entry",
        ["from_terms", "TruncatedSeries.scale", "SemidirectSeries.scale", "GroupRingElement",
         "from_word", "GroupRingElement.scale"],
    )
    def test_refused_like_the_product(self, entry):
        with pytest.raises(TypeError, match="unsupported"):
            generator(AB, 2, 0) * 0.1
        take = self.entry_points()[entry]
        with pytest.raises(TypeError, match="unsupported coefficient type: 'float'"):
            take(0.1)
        assert "1/10" in take(Fraction(1, 10)).text()


class TestLyndonBrackets:
    @pytest.mark.parametrize("size", [2, 3])
    def test_word_dicts_equal_series_commutators(self, size):
        # Through degree 7: each bracket [b(u), b(v)] built as a series
        # commutator, one cap per degree, against its {word: int} dict.
        alphabet = Alphabet.abstract(*"XYZ"[:size])
        for degree in range(1, 8):
            memo = {}

            def commutator(w):
                if w not in memo:
                    if len(w) == 1:
                        memo[w] = generator(alphabet, degree, w[0])
                    else:
                        bu, bv = map(commutator, standard_factorization(w))
                        memo[w] = bu * bv - bv * bu
                return memo[w]

            words = lyndon_words(size, degree)
            assert words
            for w in words:
                terms = bracket_terms(w)
                assert all(type(c) is int for c in terms.values())
                assert terms == commutator(w).degree_slice(degree)
            assert [b for _, b in lie_basis(alphabet, degree, degree)] == [
                commutator(w) for w in words
            ]

    def test_images_equal_substituted_brackets(self):
        # The maps A, B -> (A, B), (B, A), (-A-B, A) and (-A-B, B) of the
        # extension's columns: the recursion's image of every Lyndon bracket
        # through degree 8 against the substituted bracket's top slice.
        minus_ab = ((0, -1), (1, -1))
        maps = [
            (((0, 1),), ((1, 1),)),
            (((1, 1),), ((0, 1),)),
            (minus_ab, ((0, 1),)),
            (minus_ab, ((1, 1),)),
        ]
        used = {
            associator._letters(x, y)
            for axiom in ("AS", "H3")
            for _, x, y, _, _ in associator._first_order_terms(axiom)[0]
        }
        assert used == set(maps)
        for degree in range(1, 9):

            def linear(form):
                return sum((generator(AB, degree, h).scale(c) for h, c in form), zero(AB, degree))

            for w, bracket in lie_basis(AB, degree, degree):
                for letters in maps:
                    den, image = bracket_image(w, letters)
                    assert den == 1
                    assert all(type(c) is int for c in image.values())
                    x, y = map(linear, letters)
                    assert image == substitute(bracket, x, y).degree_slice(degree), (w, letters)

    @pytest.mark.parametrize(
        "preset, cap",
        [(infinitesimal_artin(4), 5), (oriented_artin(3), 6), (oriented_artin(4), 5)],
        ids=["infinitesimal_artin(4)", "oriented_artin(3)", "oriented_artin(4)"],
    )
    def test_reduced_images_equal_the_reduced_unreduced_image(self, preset, cap):
        # Reducing after every commutator, against reducing the free image
        # once, under random integer forms: on 2 letters of 1 to 3 terms
        # through the cap, and on 3 letters of 1 to 2 terms below it.
        rng = make_rng(4700 + preset.n)
        size, reduced = preset.alphabet.size, 0
        for m, terms, top in ((2, 3, cap), (3, 2, cap - 1)):
            coefficients = (-3, -2, -1, 1, 2, 3)
            letters = tuple(
                tuple((h, rng.choice(coefficients)) for h in rng.sample(range(size), rng.randint(1, terms)))
                for _ in range(m)
            )
            for k in range(1, top + 1):
                basis = build_graded_basis(preset, k)
                for w in lyndon_words(m, k):
                    free = bracket_image(w, letters)
                    assert bracket_image(w, letters, preset) == basis.reduce_slice(k, free), (w, letters)
                    reduced += bracket_image(w, letters, preset) != free
        assert reduced

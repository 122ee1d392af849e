import copy
import itertools
import pickle
from fractions import Fraction

import pytest

from conftest import random_series

from braidalg import (
    ContextMismatch,
    Permutation,
    SemidirectSeries,
    build_graded_basis,
    generator,
    infinitesimal_artin,
    one,
    oriented_artin,
    perm_from_transposition_word,
)
from braidalg.sdseries import _normalized, lowest_degree
from braidalg.series import scaled_one

HALF = Fraction(1, 2)


class TestPermutations:
    def test_transposition_is_involution(self):
        s1 = Permutation.transposition(3, 1)
        assert s1.compose(s1).is_identity()

    def test_coxeter_relation(self):
        s1 = Permutation.transposition(3, 1)
        s2 = Permutation.transposition(3, 2)
        lhs = s1.compose(s2).compose(s1)
        rhs = s2.compose(s1).compose(s2)
        assert lhs == rhs == Permutation.from_one_line("321")

    def test_transposition_word_convention(self):
        # s_2 s_1 acts with the rightmost factor first: one-line 312
        assert perm_from_transposition_word(3, [2, 1]) == Permutation.from_one_line("312")

    def test_inverse(self):
        pi = Permutation.from_one_line("2431")
        assert pi.compose(pi.inverse()).is_identity()
        assert pi.inverse().compose(pi).is_identity()

    def test_extend_fixes_new_points(self):
        pi = Permutation.from_one_line("21")
        assert pi.extend(4) == Permutation.from_one_line("2134")

    def test_not_a_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            Permutation.identity(2).compose(Permutation.identity(3))

    def test_equal_values_hash_equal_and_never_equal_their_field_tuple(self):
        pi, rho = Permutation.from_one_line("2431"), Permutation((2, 4, 3, 1))
        assert pi is not rho and pi == rho and not pi != rho and hash(pi) == hash(rho)
        assert pi != Permutation.identity(4) and len({pi, rho, Permutation.identity(4)}) == 2
        assert pi != pi.images and pi != (pi.images,) and (pi.images,) != pi
        assert copy.copy(pi) == pi and pickle.loads(pickle.dumps(pi)) == pi

    def test_images_cannot_be_assigned_or_deleted(self):
        pi = Permutation.from_one_line("21")
        with pytest.raises(AttributeError):
            pi.images = (1, 2)
        with pytest.raises(AttributeError):
            del pi.images
        assert pi.images == (2, 1)

    def test_permutations_order_as_their_field_tuples(self):
        perms = [Permutation(p) for p in itertools.permutations((1, 2, 3))]
        perms += [Permutation((1, 2)), Permutation((2, 1)), Permutation.identity(4)]
        shuffled = perms[4:] + perms[:4]
        key = lambda p: (p.images,)  # noqa: E731
        assert sorted(shuffled) == sorted(shuffled, key=key)
        assert min(shuffled) == min(shuffled, key=key) and max(shuffled) == max(shuffled, key=key)
        for x, y in itertools.product(perms, repeat=2):
            assert (x < y, x <= y, x > y, x >= y) == (
                key(x) < key(y), key(x) <= key(y), key(x) > key(y), key(x) >= key(y)
            )
        with pytest.raises(TypeError):
            perms[0] < (perms[1].images,)


@pytest.fixture(scope="module")
def oriented3():
    return build_graded_basis(oriented_artin(3), 3)


@pytest.fixture(scope="module")
def chord3():
    return build_graded_basis(infinitesimal_artin(3), 3)


def sd(basis, series, one_line):
    return SemidirectSeries.term(basis, series.cap, series, Permutation.from_one_line(one_line))


class TestTwistedProduct:
    def test_twist_moves_labels(self, oriented3):
        # (1 (x) s1) (exp(v12) (x) id) = exp(v21) (x) s1
        cap = 3
        alph = oriented3.alphabet
        lhs = sd(oriented3, one(alph, cap), "213") * sd(
            oriented3, generator(alph, cap, "v12").exp(), "123"
        )
        assert lhs == sd(oriented3, generator(alph, cap, "v21").exp(), "213")

    def test_half_twist_squares_to_full_twist(self, chord3):
        cap = 3
        alph = chord3.alphabet
        half = sd(chord3, generator(alph, cap, "t12").scale(HALF).exp(), "213")
        assert half * half == sd(chord3, generator(alph, cap, "t12").exp(), "123")

    def test_unit(self, oriented3, rng):
        cap = 3
        unit = SemidirectSeries.unit(oriented3, cap)
        x = sd(oriented3, one(oriented3.alphabet, cap) + random_series(rng, oriented3.alphabet, cap), "231")
        assert unit * x == x
        assert x * unit == x

    def test_associativity_randomized(self, oriented3, rng):
        cap = 3
        alph = oriented3.alphabet
        perms = ["123", "213", "231", "321", "132", "312"]

        def random_elt():
            series = one(alph, cap) + random_series(rng, alph, cap, nterms=3)
            other = random_series(rng, alph, cap, nterms=2)
            u = sd(oriented3, series, rng.choice(perms))
            v = sd(oriented3, other, rng.choice(perms))
            return u + v

        for _ in range(8):
            x, y, z = random_elt(), random_elt(), random_elt()
            assert (x * y) * z == x * (y * z)

    def test_bilinearity(self, oriented3, rng):
        cap = 3
        alph = oriented3.alphabet
        x = sd(oriented3, one(alph, cap) + random_series(rng, alph, cap), "213")
        y = sd(oriented3, random_series(rng, alph, cap), "231")
        z = sd(oriented3, random_series(rng, alph, cap), "321")
        assert x * (y + z) == x * y + x * z

    def test_context_mismatch(self, oriented3, chord3):
        u = SemidirectSeries.unit(oriented3, 3)
        v = SemidirectSeries.unit(chord3, 3)
        with pytest.raises(ContextMismatch):
            u * v
        w = SemidirectSeries.unit(build_graded_basis(oriented_artin(3), 2), 2)
        with pytest.raises(ContextMismatch):
            u * w

    def test_components_stay_normalized(self, oriented3):
        cap = 3
        alph = oriented3.alphabet
        v13, v23 = generator(alph, cap, "v13"), generator(alph, cap, "v23")
        u = sd(oriented3, v13, "123") * sd(oriented3, v23, "123")
        expected = oriented3.normal_form(v13 * v23)
        assert u.component(Permutation.identity(3)) == expected


class TestInverse:
    def test_exponential_inverse(self, oriented3):
        cap = 3
        alph = oriented3.alphabet
        u = sd(oriented3, generator(alph, cap, "v12").exp(), "123")
        assert u.inverse() == sd(oriented3, generator(alph, cap, "v12").scale(-1).exp(), "123")

    def test_transposition_inverse(self, oriented3):
        u = sd(oriented3, one(oriented3.alphabet, 3), "213")
        assert u.inverse() == u

    def test_twisted_inverse(self, chord3):
        cap = 3
        alph = chord3.alphabet
        u = sd(chord3, generator(alph, cap, "t12").scale(HALF).exp(), "213")
        inv = u.inverse()
        assert inv == sd(chord3, generator(alph, cap, "t12").scale(-HALF).exp(), "213")
        assert u * inv == SemidirectSeries.unit(chord3, cap)
        assert inv * u == SemidirectSeries.unit(chord3, cap)

    def test_multi_term_rejected(self, oriented3):
        u = SemidirectSeries.unit(oriented3, 3) + sd(oriented3, one(oriented3.alphabet, 3), "213")
        with pytest.raises(ContextMismatch):
            u.inverse()


class TestProjectionAndOrder:
    def test_projection_is_multiplicative(self, oriented3, rng):
        cap = 3
        alph = oriented3.alphabet
        perms = ["123", "213", "231", "321"]
        for _ in range(8):
            u = sd(oriented3, one(alph, cap) + random_series(rng, alph, cap), rng.choice(perms))
            u = u + sd(oriented3, random_series(rng, alph, cap), rng.choice(perms))
            v = sd(oriented3, one(alph, cap) + random_series(rng, alph, cap), rng.choice(perms))
            lhs = (u * v).project_permutations()
            pu, pv = u.project_permutations(), v.project_permutations()
            rhs = {}
            for x, cx in pu.items():
                for y, cy in pv.items():
                    key = x.compose(y)
                    rhs[key] = rhs.get(key, Fraction(0)) + cx * cy
            rhs = {k: c for k, c in rhs.items() if c}
            assert lhs == rhs

    def test_min_degree(self, oriented3):
        cap = 3
        alph = oriented3.alphabet
        u = sd(oriented3, generator(alph, cap, "v12"), "123") + sd(oriented3, one(alph, cap), "213")
        assert u.min_degree() == 0
        v = sd(oriented3, generator(alph, cap, "v12"), "123")
        assert v.min_degree() == 1
        assert SemidirectSeries.zero(oriented3, cap).is_zero()
        assert SemidirectSeries.zero(oriented3, cap).min_degree() is None


class TestRawRefusals:
    """A fold's unreduced sum is refused before any degree is reduced over the basis."""

    @pytest.mark.parametrize("read", [_normalized, lowest_degree])
    def test_a_cap_above_the_basis_cap(self, oriented3, read):
        for raw in ({Permutation.identity(3): scaled_one(4)}, {}):
            with pytest.raises(ContextMismatch, match=r"^cap 4 exceeds basis cap 3$"):
                read(oriented3, 4, raw)

    @pytest.mark.parametrize("read", [_normalized, lowest_degree])
    def test_a_permutation_of_the_wrong_size(self, oriented3, read):
        raw = {Permutation.identity(3): scaled_one(3), Permutation.identity(4): scaled_one(3)}
        with pytest.raises(ContextMismatch, match=r"^permutation size 4 vs n=3$"):
            read(oriented3, 3, raw)

    def test_the_same_sum_in_context_is_read(self, oriented3):
        raw = {Permutation.identity(3): scaled_one(3)}
        assert _normalized(oriented3, 3, raw) == SemidirectSeries.unit(oriented3, 3)
        assert lowest_degree(oriented3, 3, raw) == 0


class TestStabilization:
    def test_embedding_commutes_with_product(self, rng):
        small = build_graded_basis(oriented_artin(3), 3)
        big = build_graded_basis(oriented_artin(4), 3)
        alph = small.alphabet
        perms = ["123", "213", "231"]
        for _ in range(6):
            u = sd(small, one(alph, 3) + random_series(rng, alph, 3, nterms=3), rng.choice(perms))
            v = sd(small, one(alph, 3) + random_series(rng, alph, 3, nterms=3), rng.choice(perms))
            assert u.stabilize(big) * v.stabilize(big) == (u * v).stabilize(big)

    def test_unit_maps_to_unit(self):
        small = build_graded_basis(oriented_artin(3), 2)
        big = build_graded_basis(oriented_artin(4), 2)
        assert SemidirectSeries.unit(small, 2).stabilize(big) == SemidirectSeries.unit(big, 2)

    def test_kind_mismatch_rejected(self):
        small = build_graded_basis(oriented_artin(3), 2)
        chord = build_graded_basis(infinitesimal_artin(4), 2)
        with pytest.raises(ContextMismatch):
            SemidirectSeries.unit(small, 2).stabilize(chord)


class TestTextForm:
    def test_roundtrip(self, oriented3, rng):
        cap = 3
        alph = oriented3.alphabet
        u = sd(oriented3, one(alph, cap) + random_series(rng, alph, cap, nterms=3), "213")
        u = u + sd(oriented3, one(alph, cap).scale(2), "321")
        assert SemidirectSeries.parse(u.text(), oriented3, cap) == u

    def test_zero(self, oriented3):
        z = SemidirectSeries.zero(oriented3, 3)
        assert z.text() == "0"
        assert SemidirectSeries.parse("0", oriented3, 3) == z

    def test_documented_shape(self, oriented3):
        u = sd(oriented3, one(oriented3.alphabet, 3), "213")
        assert u.text() == "(1) ⊗ 213"

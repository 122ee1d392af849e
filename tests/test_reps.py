from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import oracles
from conftest import ab_commutator, exp_lie_series, make_rng, psi24

from braidalg import (
    AB,
    ConstantTermError,
    Permutation,
    SemidirectSeries,
    SeriesError,
    WordError,
    bootstrap_semi_associator,
    build_graded_basis,
    central_element,
    check_family_axioms,
    eval_drinfeld,
    eval_rho3,
    eval_welded,
    generator,
    infinitesimal_artin,
    one,
    oriented_artin,
    parse_series,
    parse_word,
    pure_braid_generator,
    random_welded_word,
    rho3_delta,
    substitute,
    words_equal_in_bp,
)
from braidalg.lyndon import lie_basis
from braidalg.series import Alphabet, AlphabetMismatch, CapMismatch, TruncatedSeries, zero
from braidalg.words import a, s, sigma, word

HALF = Fraction(1, 2)


def sd(basis, series, one_line):
    return SemidirectSeries.term(basis, series.cap, series, Permutation.from_one_line(one_line))


class TestWeldedEvaluation:
    def test_conjugation_generator(self):
        basis = build_graded_basis(oriented_artin(3), 2)
        img = eval_welded(word(3, a(1, 2)), 2)
        assert img == sd(basis, generator(basis.alphabet, 2, "v12").exp(), "123")
        low = eval_welded(word(3, a(1, 2)), 1)
        assert low.component(Permutation.identity(3)) == one(
            low.basis.alphabet, 1
        ) + generator(low.basis.alphabet, 1, "v12")

    def test_permutation_generator(self):
        basis = build_graded_basis(oriented_artin(3), 2)
        assert eval_welded(word(3, s(1)), 2) == sd(basis, one(basis.alphabet, 2), "213")

    def test_identity_word(self):
        basis = build_graded_basis(oriented_artin(3), 3)
        img = eval_welded(word(3, sigma(1), sigma(1, -1)), 3)
        assert img == SemidirectSeries.unit(basis, 3)

    def test_degree_one_normalization_all_generators(self):
        # R_n (x) id sends a_ij to 1 + v_ij mod degree 2
        basis = build_graded_basis(oriented_artin(3), 3)
        alph = basis.alphabet
        for i in range(1, 4):
            for j in range(1, 4):
                if i == j:
                    continue
                img = eval_welded(word(3, a(i, j)), 3)
                low = img.component(Permutation.identity(3)).truncated(1)
                assert low == one(alph, 1) + generator(alph, 1, (i, j))

    def test_pure_braid_generators_match_comparison_map(self):
        # image of alpha_ji has degree-1 part v_ij + v_ji
        basis = build_graded_basis(oriented_artin(3), 2)
        alph = basis.alphabet
        for j, i in ((1, 2), (1, 3), (2, 3)):
            img = eval_welded(pure_braid_generator(j, i, 3), 2)
            ((perm, series),) = img.terms.items()
            assert perm.is_identity()
            low = series.truncated(1)
            assert low == one(alph, 1) + generator(alph, 1, (i, j)) + generator(alph, 1, (j, i))

    @pytest.mark.parametrize("n,cap", [(3, 3), (4, 2)])
    def test_relation_fidelity_sample(self, n, cap):
        from braidalg import braid_relations, mccool_relations

        basis = build_graded_basis(oriented_artin(n), cap)
        unit = SemidirectSeries.unit(basis, cap)
        for name, relator in mccool_relations(n) + braid_relations(n):
            assert eval_welded(relator, cap) == unit, name

    def test_oracle_consistency_sample(self):
        rng = make_rng(4242)
        for _ in range(30):
            w1 = random_welded_word(rng, 3, rng.randint(0, 6))
            w2 = random_welded_word(rng, 3, rng.randint(0, 6))
            equal_in_group = words_equal_in_bp(w1, w2)
            images_equal = eval_welded(w1, 3) == eval_welded(w2, 3)
            if equal_in_group:
                assert images_equal
            if not images_equal:
                assert not equal_in_group


class TestDrinfeldEvaluation:
    def test_first_generator_fixed_image(self):
        basis = build_graded_basis(infinitesimal_artin(3), 2)
        img = eval_drinfeld(word(3, sigma(1)), one(AB, 2), 2)
        assert img == sd(basis, generator(basis.alphabet, 2, "t12").scale(HALF).exp(), "213")

    def test_second_generator_trivial_associator(self):
        basis = build_graded_basis(infinitesimal_artin(3), 1)
        img = eval_drinfeld(word(3, sigma(2)), one(AB, 1), 1)
        assert img == sd(
            basis, one(basis.alphabet, 1) + generator(basis.alphabet, 1, "t23").scale(HALF), "132"
        )

    @pytest.mark.parametrize("n", [3, 4])
    def test_normalization_for_group_like_associators(self, n, rng):
        # u_i = 1 + t_{i,i+1}/2 mod degree 2 whenever Phi is group-like and
        # trivial in degree one; no hexagon needed
        cap = 3
        basis = build_graded_basis(infinitesimal_artin(n), cap)
        alph = basis.alphabet
        candidates = [one(AB, cap), psi24(cap)]
        for _ in range(3):
            ell = zero(AB, cap)
            for k in range(2, cap + 1):
                for _, bracket in lie_basis(AB, cap, k):
                    ell = ell + bracket.scale(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
            candidates.append(ell.exp())
        for phi in candidates:
            for i in range(1, n):
                img = eval_drinfeld(word(n, sigma(i)), phi, cap)
                ((perm, u),) = img.terms.items()
                assert perm == Permutation.transposition(n, i)
                assert u.truncated(1) == one(alph, 1) + generator(alph, 1, (i, i + 1)).scale(HALF)
                # exponential type: the image is group-like in the quotient
                assert basis.is_primitive(u.log())

    def test_inverse_words(self):
        basis = build_graded_basis(infinitesimal_artin(3), 3)
        img = eval_drinfeld(word(3, sigma(2), sigma(2, -1)), psi24(3), 3)
        assert img == SemidirectSeries.unit(basis, 3)

    def test_welded_tokens_rejected(self):
        with pytest.raises(WordError):
            eval_drinfeld(word(3, a(1, 2)), one(AB, 2), 2)

    def test_constant_term_checked(self):
        with pytest.raises(ConstantTermError):
            eval_drinfeld(word(3, sigma(1)), zero(AB, 2), 2)


class TestRho3Evaluation:
    def test_fundamental_element_trivial_parameter(self):
        basis = build_graded_basis(infinitesimal_artin(3), 2)
        img = eval_rho3(parse_word("sig1 sig2 sig1", 3), one(AB, 2), 2)
        assert img == sd(basis, central_element(2).exp(), "321")
        assert img == rho3_delta(one(AB, 2), 2)

    def test_first_generator(self):
        basis = build_graded_basis(infinitesimal_artin(3), 2)
        img = eval_rho3(word(3, sigma(1)), psi24(2), 2)
        assert img == sd(basis, generator(basis.alphabet, 2, "t12").scale(HALF).exp(), "213")

    def test_delta_squared_is_central_exponential(self):
        # for a hexagon-passing parameter the image of Delta^2 is exp(2T) (x) id
        cap = 3
        basis = build_graded_basis(infinitesimal_artin(3), cap)
        img = eval_rho3(parse_word("sig1 sig2 sig1 sig1 sig2 sig1", 3), psi24(cap), cap)
        assert img == sd(basis, central_element(cap).scale(2).exp(), "123")

    def test_braid_relation_encodes_yang_baxter(self):
        cap = 3
        lhs = eval_rho3(parse_word("sig2 sig1 sig2", 3), psi24(cap), cap)
        assert lhs == rho3_delta(psi24(cap), cap)

    @pytest.mark.parametrize("cap", [2, 4])
    def test_delta_is_exp_t_times_inverse_parameter(self, cap):
        # Delta -> exp(T) Psi(t12, t23)^-1 (x) 321, written out here from the formula
        basis = build_graded_basis(infinitesimal_artin(3), cap)
        t12 = generator(basis.alphabet, cap, "t12")
        t23 = generator(basis.alphabet, cap, "t23")
        brackets = [b for _, b in lie_basis(AB, cap, 3)] if cap >= 3 else []
        log_psi = ab_commutator(cap).scale(Fraction(-3, 7))
        for b, c in zip(brackets, (Fraction(5, 11), Fraction(1, 13))):
            log_psi = log_psi + b.scale(c)
        for psi in (psi24(cap), log_psi.exp()):
            expected = central_element(cap).exp() * substitute(psi, t12, t23).inverse()
            assert rho3_delta(psi, cap) == sd(basis, expected, "321")

    def test_sigma2_inverse_cancels_sigma2(self):
        cap = 4
        basis = build_graded_basis(infinitesimal_artin(3), cap)
        img = eval_rho3(parse_word("sig2 sig1 sig2^-1 sig2", 3), psi24(cap), cap)
        assert img == eval_rho3(parse_word("sig2 sig1", 3), psi24(cap), cap)
        assert eval_rho3(parse_word("sig2^-1 sig2", 3), psi24(cap), cap) == SemidirectSeries.unit(basis, cap)

    def test_wrong_strand_count(self):
        with pytest.raises(WordError):
            eval_rho3(word(4, sigma(1)), one(AB, 2), 2)

    def test_degree_one_part_rejected(self):
        bad = (generator(AB, 2, "A") + ab_commutator(2)).exp()
        with pytest.raises(ConstantTermError):
            eval_rho3(word(3, sigma(1)), bad, 2)

    def test_non_group_like_rejected(self):
        bad = one(AB, 2) + generator(AB, 2, "A") * generator(AB, 2, "B")
        with pytest.raises(ConstantTermError):
            eval_rho3(word(3, sigma(1)), bad, 2)


class TestCapZero:
    """At cap 0 no generator is held: every image is 1 (x) its permutation."""

    def test_drinfeld_images(self):
        basis = build_graded_basis(infinitesimal_artin(4), 0)
        img = eval_drinfeld(parse_word("sig1 sig3", 4), psi24(2), 0)
        assert img == sd(basis, one(basis.alphabet, 0), "2143")

    def test_rho3_images(self):
        basis = build_graded_basis(infinitesimal_artin(3), 0)
        assert eval_rho3(word(3, sigma(1)), psi24(2), 0) == sd(basis, one(basis.alphabet, 0), "213")
        assert rho3_delta(psi24(2), 0) == sd(basis, one(basis.alphabet, 0), "321")

    @pytest.mark.parametrize(
        "family, n", [("welded", 3), ("drinfeld", 3), ("rho3", 3), ("drinfeld", 4)]
    )
    def test_family_axioms(self, family, n):
        # (N) expects 1 at cap 0: the degree-1 term truncates away.
        report = check_family_axioms(family, n, 0, None if family == "welded" else psi24(2))
        assert report.passed, dict(report.checks)


class TestFamilyAxioms:
    def test_welded_family_passes(self):
        report = check_family_axioms("welded", 3, 3)
        assert report.passed, dict(report.checks)

    def test_drinfeld_trivial_associator_fails_only_relations(self):
        report = check_family_axioms("drinfeld", 3, 3, one(AB, 3))
        for name in ("E", "Sigma", "S", "N"):
            assert report.checks[name].passed, name
        assert not report.checks["relations"].passed
        assert "braid" in report.checks["relations"].details

    def test_rho3_hexagon_parameter_passes(self):
        report = check_family_axioms("rho3", 3, 3, psi24(3))
        assert report.passed, dict(report.checks)

    def test_rho3_with_an_altered_sigma1_fails_stabilization(self, monkeypatch):
        from braidalg import reps

        build = reps._rho3_images

        def altered(cap, psi):
            images = build(cap, psi)
            alph = infinitesimal_artin(3).alphabet
            twist = generator(alph, cap, (1, 2)).exp()
            return {**images, sigma(1): ({Permutation.transposition(3, 1): twist.scaled},)}

        monkeypatch.setattr(reps, "_rho3_images", altered)
        report = check_family_axioms("rho3", 3, 3, psi24(3))
        assert not report.checks["S"].passed
        assert report.checks["S"].details == "stabilization fails: sig1"

    @pytest.mark.parametrize("family", ["drinfeld", "rho3"])
    def test_missing_associator_is_named(self, family, monkeypatch):
        from braidalg import reps

        def no_work(*args):
            raise AssertionError("built a basis before checking the associator")

        monkeypatch.setattr(reps, "build_graded_basis", no_work)
        message = f"^the {family} family needs an associator series; none was given$"
        with pytest.raises(SeriesError, match=message):
            check_family_axioms(family, 3, 2)
        evaluate = eval_drinfeld if family == "drinfeld" else eval_rho3
        with pytest.raises(SeriesError, match=message):
            evaluate(word(3, sigma(1)), None, 2)
        if family == "rho3":
            with pytest.raises(SeriesError, match=message):
                rho3_delta(None, 2)

    def test_report_lines_format(self):
        report = check_family_axioms("welded", 2, 2)
        lines = list(report.lines())
        assert len(lines) == 5
        assert all(":" in line for line in lines)


class TestMemoization:
    def test_images_cached_per_family(self):
        from braidalg.reps import _drinfeld_images, welded_images

        welded_images.cache_clear()
        eval_welded(word(3, a(1, 2)), 2)
        first = eval_welded(word(3, a(1, 2), a(2, 1)), 2)
        second = eval_welded(word(3, a(1, 2), a(2, 1)), 2)
        assert first == second
        # One build for n = 3; the two later words reuse it.
        info = welded_images.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        # The letters do not depend on the cap: another cap reuses them too,
        # and only another strand count builds again.
        eval_welded(word(3, a(1, 2)), 3)
        info = welded_images.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
        eval_welded(word(4, a(1, 2)), 2)
        assert welded_images.cache_info().misses == 2
        # The Drinfeld family keeps its own images, one build per series.
        _drinfeld_images.cache_clear()
        for _ in range(2):
            eval_drinfeld(word(3, sigma(2)), psi24(2), 2)
        info = _drinfeld_images.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert welded_images.cache_info().misses == 2


class TestInverseLetterImages:
    """Inverse letters' images against u^-1 acted on by the letter's permutation."""

    @staticmethod
    def _inverted(factor, alph, cap):
        ((perm, u),) = factor.items()
        return perm, TruncatedSeries(alph, cap, u).inverse().act(perm)

    @staticmethod
    def _image(factor, alph, cap):
        ((perm, u),) = factor.items()
        return perm, TruncatedSeries(alph, cap, u)

    @pytest.mark.parametrize("n", [3, 4])
    def test_drinfeld(self, semi_associator_deg5, n):
        from braidalg import reps

        alph = infinitesimal_artin(n).alphabet
        for cap in range(6):
            images = reps._drinfeld_images(n, cap, semi_associator_deg5)
            for i in range(1, n):
                want = self._inverted(images[sigma(i)], alph, cap)
                assert self._image(images[sigma(i, -1)], alph, cap) == want

    def test_rho3(self):
        from braidalg import reps

        phi6 = bootstrap_semi_associator(6)
        alph = infinitesimal_artin(3).alphabet
        for cap, psi in product(range(7), (psi24(6), phi6)):
            images = reps._rho3_images(cap, psi)
            (s1,), (s1_inv,), (s2,) = images[sigma(1)], images[sigma(1, -1)], images[sigma(2)]
            assert self._image(s1_inv, alph, cap) == self._inverted(s1, alph, cap)
            # sigma_2^-1 is three factors, folded in place of the letter and
            # equal to the inverse in chord(3), not in the free algebra
            basis = build_graded_basis(infinitesimal_artin(3), cap)
            perm, u = self._inverted(s2, alph, cap)
            want = SemidirectSeries.term(basis, cap, u, perm)
            assert eval_rho3(word(3, sigma(2, -1)), psi, cap) == want


class TestLettersAgainstSeriesReference:
    """Each letter's factors {perm: scaled series} equal those built as series (oracles)."""

    PHI7 = Path(__file__).parent.parent / "bench" / "fixtures" / "phi7.txt"

    def _phi7(self):
        return parse_series(self.PHI7.read_text().split("\n", 1)[1], AB)

    def _parameters(self, cap, psi5):
        psi = [self._phi7(), psi24(max(cap, 2)), exp_lie_series(make_rng(4100 + cap), cap)]
        # Psi5 is known to degree 5 and meets the 3-strand precondition there
        return psi + [psi5] if cap <= psi5.cap else psi

    @pytest.mark.parametrize("cap", range(6))
    def test_drinfeld(self, psi5, cap):
        from braidalg import reps

        for n, assoc in product((2, 3, 4), self._parameters(cap, psi5)):
            assert reps._drinfeld_images(n, cap, assoc) == oracles.drinfeld_images(n, cap, assoc)

    @pytest.mark.parametrize("cap", range(6))
    def test_rho3(self, psi5, cap):
        from braidalg import reps

        for psi in self._parameters(cap, psi5):
            assert reps._rho3_images(cap, psi) == oracles.rho3_images(cap, psi)

    def test_the_builders_invert_the_parameter_once_and_multiply_no_series(self, monkeypatch, psi5):
        # Each letter is read off factor tuples in scaled integers: the one
        # inversion is the parameter's own, over {A, B}, shared by its Phi^-1
        # factors.
        from braidalg import reps

        def refuse(*args):
            raise AssertionError("series arithmetic in an image builder")

        phi7, inverted, inverse = self._phi7(), [], TruncatedSeries.inverse

        def counting(series):
            inverted.append(series.alphabet)
            return inverse(series)

        for name in ("exp", "act", "__mul__"):
            monkeypatch.setattr(TruncatedSeries, name, refuse)
        monkeypatch.setattr(TruncatedSeries, "inverse", counting)
        reps._drinfeld_images.cache_clear()
        reps._rho3_images.cache_clear()
        reps._inverse.cache_clear()
        reps._drinfeld_images(4, 5, phi7)
        reps._rho3_images(5, psi5)
        assert inverted == [AB, AB]

    @pytest.mark.parametrize(
        "n, assoc, cap, error",
        [
            (3, zero(AB, 2), 2, ConstantTermError),
            (3, psi24(2), 3, CapMismatch),
            # n = 2 substitutes no Phi, so any series with constant term 1 will do
            (2, one(Alphabet.abstract("X", "Y", "Z"), 2), 2, None),
            (3, one(Alphabet.abstract("X", "Y", "Z"), 2), 2, AlphabetMismatch),
            (3, one(Alphabet.chord(3), 2), 0, AlphabetMismatch),
        ],
    )
    def test_drinfeld_refusals(self, n, assoc, cap, error):
        from braidalg import reps

        outcomes = []
        for build in (reps._drinfeld_images, oracles.drinfeld_images):
            try:
                outcomes.append(build(n, cap, assoc))
            except SeriesError as refusal:
                outcomes.append((type(refusal), str(refusal)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is error if error else isinstance(outcomes[0], dict)

    @pytest.mark.parametrize(
        "psi, cap, error",
        [
            (psi24(2), 3, CapMismatch),
            (generator(AB, 2, "A").exp(), 2, ConstantTermError),
            (one(Alphabet.chord(3), 2), 2, AlphabetMismatch),
            (one(Alphabet.abstract("A", "B", "C"), 2), 0, AlphabetMismatch),
        ],
    )
    def test_rho3_refusals(self, psi, cap, error):
        from braidalg import reps

        refusals = []
        for build in (reps._rho3_images, oracles.rho3_images):
            with pytest.raises(error) as info:
                build(cap, psi)
            refusals.append((type(info.value), str(info.value)))
        assert refusals[0] == refusals[1]

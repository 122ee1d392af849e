from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from conftest import ab_commutator, exp_lie_series, psi24, random_series

from braidalg import (
    AB,
    AssociatorError,
    AxiomResult,
    TruncatedSeries,
    bootstrap_semi_associator,
    build_graded_basis,
    check_axiom,
    check_equivalences,
    check_yang_baxter,
    eval_rho3,
    extend_semi_associator,
    extension_steps,
    generator,
    infinitesimal_artin,
    is_semi_associator,
    one,
    pure_braid_generator,
    rho3_delta,
    swap_letters,
)
from braidalg import associator, reps, series
from braidalg.perms import Permutation
from braidalg.quotient import BasisError
from braidalg.sdseries import SemidirectSeries
from braidalg.associator import (
    NoCorrectionError,
    _columns,
    _residual,
    _revised_step,
    ae_residual,
)
from braidalg.linalg import SparseEchelon, affine_solve
from braidalg.lyndon import bracket_image, bracket_rows, bracket_terms, lie_basis, lyndon_words
from braidalg.series import (
    AlphabetMismatch,
    Alphabet,
    CapMismatch,
    ConstantTermError,
    SeriesError,
    generator_or_zero,
    lie_defect,
    parse_series,
    scale_slice,
    substitute,
    unscale_slice,
    zero,
)
from braidalg.words import WeldedWord, sigma


def lie3(a_coeff, b_coeff, cap=3):
    """a [A,[A,B]] + b [B,[A,B]] as a series."""
    (w1, b1), (w2, b2) = lie_basis(AB, cap, 3)
    assert w1 == (0, 0, 1) and w2 == (0, 1, 1)
    # the Lyndon brackets are [A,[A,B]] and [[A,B],B] = -[B,[A,B]]
    return b1.scale(a_coeff) + b2.scale(-b_coeff)


class TestAxiomChecks:
    def test_trivial_series_verdicts(self):
        phi = one(AB, 4)
        assert check_axiom(phi, "AE", 2).passed
        assert check_axiom(phi, "AS", 2).passed
        assert check_axiom(phi, "P", 2).passed
        h3 = check_axiom(phi, "H3", 2)
        assert not h3.passed and h3.first_failure_degree == 2
        h1 = check_axiom(phi, "H1", 2)
        assert not h1.passed and h1.first_failure_degree == 2

    def test_trivial_series_h3_residual_is_relation_commutator(self):
        # residual at degree 2 is [t13,t23]/8 as a normal form
        basis = build_graded_basis(infinitesimal_artin(3), 2)
        alph = basis.alphabet
        t13, t23 = generator(alph, 2, "t13"), generator(alph, 2, "t23")
        expected = basis.normal_form((t13 * t23 - t23 * t13).scale(Fraction(1, 8)))
        assert check_axiom(one(AB, 2), "H3", 2).residual == expected

    def test_hexagon_coefficient_pins_to_oracle_value(self):
        # brute-force solve of the degree-2 slice, entirely outside the package
        oracle_value = oracles.hexagon_degree2_coefficient()
        assert oracle_value == Fraction(1, 24)
        for c in (Fraction(0), Fraction(1, 24), Fraction(-1, 24), Fraction(1, 12)):
            phi = ab_commutator(2).scale(c).exp()
            assert check_axiom(phi, "H3", 2).passed == (c == oracle_value)

    def test_odd_lie_part_passes_swap_axiom(self):
        for cap in (2, 3):
            assert check_axiom(psi24(cap), "AS", cap).passed

    def test_swap_letters_involution(self):
        phi = psi24(3)
        assert swap_letters(swap_letters(phi)) == phi
        assert swap_letters(generator(AB, 2, "A")) == generator(AB, 2, "B")

    def test_ae_detects_degree_one_and_non_lie(self):
        bad1 = (generator(AB, 2, "A")).exp()
        r = check_axiom(bad1, "AE", 2)
        assert not r.passed and r.first_failure_degree == 1
        bad2 = one(AB, 2) + generator(AB, 2, "A") * generator(AB, 2, "B")
        r = check_axiom(bad2, "AE", 2)
        assert not r.passed and r.first_failure_degree == 2

    def test_unknown_axiom(self):
        with pytest.raises(AssociatorError):
            check_axiom(one(AB, 2), "H2", 2)

    def test_pentagon_for_bootstrap(self, semi_associator_deg5):
        assert check_axiom(semi_associator_deg5, "P", 4).passed


class TestExtension:
    def test_degree_two_unique_point(self):
        step = extend_semi_associator(one(AB, 1))
        assert step.degree == 2
        assert step.kernel_dimension == 0
        assert step.particular == [Fraction(1, 24)]
        psi = step.extended()
        assert psi == psi24(2)

    def test_a_series_known_only_to_degree_zero_is_refused_before_any_solve(self, monkeypatch):
        def fail(*args):
            pytest.fail("solved before refusing a degree-0 series")

        monkeypatch.setattr(associator, "affine_solve", fail)
        message = "known only to degree 0: extend a series known to degree 1, where \\(AE\\) normalizes"
        with pytest.raises(AssociatorError, match=message):
            extend_semi_associator(one(AB, 0))
        with pytest.raises(AssociatorError, match=message):
            list(extension_steps(one(AB, 0), 3))
        assert list(extension_steps(one(AB, 0), 0)) == []  # nothing to extend, nothing refused

    def test_chain_from_one_through_degree_four(self):
        phi = one(AB, 1)
        for expected_degree in (2, 3, 4):
            step = extend_semi_associator(phi)
            assert step.degree == expected_degree
            phi = step.extended()
        assert is_semi_associator(phi, 4)

    def test_degree_three_solutions_are_swap_antisymmetric(self):
        step = extend_semi_associator(psi24(2))
        assert step.degree == 3
        assert step.particular == [Fraction(0), Fraction(0)]
        assert step.kernel_dimension >= 1
        for kvec in [step.particular] + step.kernel:
            ell = step.correction(kvec)
            assert swap_letters(ell) == ell.scale(-1)

    def test_failing_candidate_reports_axiom_and_degree(self):
        bad = (lie3(1, 2, 3) + ab_commutator(3).scale(Fraction(1, 24))).exp()
        with pytest.raises(AssociatorError, match=r"\(AS\) at degree 3"):
            extend_semi_associator(bad)

    def test_hexagon_failure_reported(self):
        phi = ab_commutator(2).scale(Fraction(1, 5)).exp()
        with pytest.raises(AssociatorError, match=r"\(H3\) at degree 2"):
            extend_semi_associator(phi)

    def test_lookback_revises_dead_end(self):
        # the greedy degree-4 particular does not extend; one degree of
        # lookback finds coordinates that do
        phi = psi24(3)
        step4 = extend_semi_associator(phi)
        greedy = step4.extended()
        with pytest.raises(NoCorrectionError) as failure:
            extend_semi_associator(greedy)
        step5 = _revised_step(step4, failure.value.kernel)
        assert step5.degree == 5 and step5.base != greedy
        # the lookback's bracket coordinates are the particular solution of a
        # solve from the revised series
        assert step5 == extend_semi_associator(step5.base)
        assert is_semi_associator(step5.extended(), 5)

    def test_extension_steps_revise_once_on_the_way_to_five(self, semi_associator_deg5):
        steps = list(extension_steps(one(AB, 1), 5))
        assert [(s.degree, s.kernel_dimension, revised) for s, _, revised in steps] == [
            (2, 0, False),
            (3, 1, False),
            (4, 1, False),
            (5, 2, True),
        ]
        for step, extended, _ in steps:
            assert extended == step.extended()
        assert steps[-1][1] == semi_associator_deg5
        # the revised degree-4 choice is the base of the degree-5 step
        assert steps[-1][0].base != steps[2][1]
        assert steps[-1][0].base.truncated(3) == steps[1][1]

    def test_linear_columns_equal_full_residual_differences(self):
        # The solver's columns are residuals of 1 + p in F(A, B), top slice
        # only, on the Lyndon rows; the full path evaluates the whole (AS)
        # residual and the whole (H3) residual in F(A, B) of the perturbed
        # candidate itself.  Each full difference is a Lie element, so its
        # Lyndon rows determine it.
        def top(phi, degree):
            return {
                axiom: _residual(axiom, phi, free=True).homogeneous_part(degree)
                for axiom in ("AS", "H3")
            }

        def change(phi, candidates, degree):
            lyndon = set(lyndon_words(2, degree))
            r0 = top(phi, degree)
            columns = []
            for candidate in candidates:
                r = top(candidate, degree)
                col = {}
                for axiom in ("AS", "H3"):
                    diff = r[axiom] - r0[axiom]
                    assert lie_defect(diff).is_zero()
                    sl = diff.degree_slice(degree)
                    col.update(((axiom, w), c) for w, c in sl.items() if w in lyndon)
                columns.append(col)
            return columns

        steps = list(extension_steps(one(AB, 1), 6))
        for step, _, _ in steps:
            d = step.degree
            base = step.base.log().lifted(d).exp()
            full = change(base, [base + p for _, p in lie_basis(AB, d, d)], d)
            assert _unscaled(_columns([{w: 1} for w in lyndon_words(2, d)], d)) == full
        prev, (step5, _, revised) = steps[2][0], steps[3]
        assert step5.degree == 5 and revised
        base_log = prev.base.log().lifted(5) + prev.correction().lifted(5)
        kernel = [prev.correction(kvec).lifted(5) for kvec in prev.kernel]
        full = change(base_log.exp(), [(base_log + k).exp() for k in kernel], 5)
        assert len(full) == 1 and full[0]
        assert _unscaled(_columns([_coordinates(4, kvec) for kvec in prev.kernel], 5)) == full

    def test_each_degree_evaluates_its_bracket_columns_once(self, monkeypatch):
        # Perturbations per degree: the degree's Lyndon brackets once, plus the
        # previous degree's kernel at the revised degrees 4 and 6.
        associator._bracket_columns.cache_clear()
        counts = {}
        columns = associator._columns

        def counting(perturbations, degree):
            counts[degree] = counts.get(degree, 0) + len(perturbations)
            return columns(perturbations, degree)

        monkeypatch.setattr(associator, "_columns", counting)
        bootstrap_semi_associator(7)
        brackets = {d: len(lie_basis(AB, d, d)) for d in range(2, 8)}
        assert brackets == {2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18}
        assert counts == {2: 1, 3: 2, 4: 3, 5: 6 + 1, 6: 9, 7: 18 + 3}

    def test_columns_substitute_nothing(self, monkeypatch):
        # Bracket and lookback columns through degree 8 come from the cached
        # images of shorter brackets; only the candidates' residuals substitute.
        associator._bracket_columns.cache_clear()
        bracket_image.cache_clear()
        depth, inside, outside, lookback = [0], [], [], set()
        scaled_substitute = series.scaled_substitute

        def counting(f, forms, den, cap):
            (inside if depth[0] else outside).append(cap)
            return scaled_substitute(f, forms, den, cap)

        def within(function):
            def wrapped(*args):
                depth[0] += 1
                try:
                    return function(*args)
                finally:
                    depth[0] -= 1

            return wrapped

        bracket_columns, columns = associator._bracket_columns, within(associator._columns)

        def recording(perturbations, degree):
            lookback.update(degree for coords in perturbations if len(next(iter(coords))) < degree)
            return columns(perturbations, degree)

        monkeypatch.setattr(series, "scaled_substitute", counting)
        monkeypatch.setattr(reps, "scaled_substitute", counting)
        monkeypatch.setattr(associator, "_bracket_columns", within(bracket_columns))
        monkeypatch.setattr(associator, "_columns", recording)
        try:
            assert len(list(extension_steps(one(AB, 1), 8))) == 7
        finally:
            bracket_columns.cache_clear()
        assert lookback == {5, 7}
        # One substitution into (AS) and two into (H3) for the input's check at
        # cap 1, then two per (H3) residual in F(A, B), where Phi(A, B) is phi
        # itself: one solve per degree 2..8 and a second at the revised 5 and 7.
        assert inside == []
        assert outside == [1, 1, 1] + [d for d in range(2, 9) for _ in range(4 if d in (5, 7) else 2)]

    def test_hexagon_constants_built_once_per_cap(self, monkeypatch):
        # 375 exp calls before the hexagon's constant exponentials were shared,
        # and 31 before they were built in closed form.
        associator._bracket_columns.cache_clear()
        reps.exp_factor.cache_clear()
        calls, closed = [], []
        exp, exp_linear = TruncatedSeries.exp, series.scaled_exp_linear

        def counting(self):
            calls.append(self.cap)
            return exp(self)

        def counting_linear(form, den, s, cap):
            closed.append(cap)
            return exp_linear(form, den, s, cap)

        monkeypatch.setattr(TruncatedSeries, "exp", counting)
        monkeypatch.setattr(reps, "scaled_exp_linear", counting_linear)
        bootstrap_semi_associator(7)
        # Three closed forms per cap for H3 in F(A, B) at caps 1..7.  The
        # general exp lifts: one per step, six, and two per revision at
        # degrees 5 and 7, the greedy lift that finds no correction and the
        # lookback's base.
        assert reps.exp_factor.cache_info().misses == 3 * 7
        assert sorted(closed) == [cap for cap in range(1, 8) for _ in range(3)]
        assert len(calls) == 6 + 2 * 2

    def test_extension_steps_check_the_input_once(self, monkeypatch):
        calls = []
        check = associator.check_axiom

        def counting(phi, axiom, cap):
            calls.append((axiom, cap))
            return check(phi, axiom, cap)

        monkeypatch.setattr(associator, "check_axiom", counting)
        assert len(list(extension_steps(one(AB, 1), 6))) == 5
        assert calls == [("AE", 1), ("AS", 1), ("H3", 1)]

    def test_every_candidate_meets_the_hypotheses(self):
        # Each candidate solved for, the lifted base of a step or the lookback
        # base of a revision, has zero (AS) residual at its degree; every
        # extended series passes (AE), (AS) and (H3).
        revisions = 0
        prev = None
        for step, extended, revised in extension_steps(one(AB, 1), 8):
            d = step.degree
            candidates = [step.base.log().lifted(d).exp()]
            if revised:
                revisions += 1
                log = prev.base.log().lifted(d) + prev.correction().lifted(d)
                candidates.append(log.exp())
            for candidate in candidates:
                assert _residual("AS", candidate, free=True).is_zero()
            if revised:
                # the step read off the lookback's solve is the one solved afresh
                assert step == extend_semi_associator(step.base)
            for axiom in ("AE", "AS", "H3"):
                assert check_axiom(extended, axiom, d).passed, (axiom, d)
            prev = step
        assert revisions == 2

    def test_extension_steps_stop_at_the_target(self):
        assert list(extension_steps(psi24(3), 3)) == []
        with pytest.raises(AssociatorError, match=r"\(H3\) at degree 2"):
            next(extension_steps(one(AB, 2), 3))

    def test_bootstrap_to_degree_five(self, semi_associator_deg5):
        assert semi_associator_deg5.cap == 5
        assert is_semi_associator(semi_associator_deg5, 5)
        assert semi_associator_deg5.truncated(2) == psi24(2)


def _coordinates(degree, vector):
    """A coordinate vector over the degree's Lyndon brackets as {Lyndon word: c}."""
    return {w: c for w, c in zip(lyndon_words(2, degree), vector) if c}


def _perturbation(coords, degree):
    """The Lie element with coordinates {Lyndon word: c}, as a series at cap degree."""
    out = zero(AB, degree)
    for w, c in coords.items():
        out = out + TruncatedSeries.from_terms(AB, degree, bracket_terms(w)).scale(c)
    return out


def _unscaled(columns):
    """Scaled columns ``(den, {label: int})`` as {label: Fraction}."""
    return [unscale_slice(*col) for col in columns]


def _on_series(columns):
    """A column function of series perturbations, called with coordinates, scaled for the solver."""
    return lambda perturbations, degree: [
        scale_slice(col)
        for col in columns([_perturbation(coords, degree) for coords in perturbations], degree)
    ]


def _record_extension(to_degree, columns, residual_labels):
    """extension_steps from 1 with the given column and residual functions.

    ``columns`` takes the perturbations' coordinates, as
    ``associator._columns`` does.  Returns the steps as (degree, particular,
    kernel, revised) and every call of those functions as (kind, argument,
    degree, result), a column's argument its coordinates and each result
    as {label: Fraction}.
    """
    calls = []

    def recording_columns(perturbations, degree):
        result = columns(perturbations, degree)
        calls.extend(
            ("column", coords, degree, col) for coords, col in zip(perturbations, _unscaled(result))
        )
        return result

    def recording_residual(candidate, degree):
        result = residual_labels(candidate, degree)
        calls.append(("residual", candidate, degree, unscale_slice(*result)))
        return result

    associator._bracket_columns.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(associator, "_columns", recording_columns)
            mp.setattr(associator, "_residual_labels", recording_residual)
            steps = [
                (step.degree, step.particular, step.kernel, revised)
                for step, _, revised in extension_steps(one(AB, 1), to_degree)
            ]
    finally:
        associator._bracket_columns.cache_clear()
    return steps, calls


@pytest.fixture(scope="module")
def chord_extension():
    """The extension through degree 9 on the chord(3) rows of the oracles."""
    return _record_extension(
        9,
        _on_series(oracles.chord_columns),
        lambda candidate, degree: scale_slice(oracles.chord_residual_labels(candidate, degree)),
    )


def _embedded_and_reduced(sl, degree):
    """A top slice over {A, B} at t12, t23, reduced in chord(3)."""
    alph = Alphabet.chord(3)
    t12, t23 = generator(alph, degree, "t12"), generator(alph, degree, "t23")
    image = substitute(TruncatedSeries.from_terms(AB, degree, sl), t12, t23)
    basis = build_graded_basis(infinitesimal_artin(3), degree)
    return unscale_slice(*basis.reduce_slice(degree, image.scaled[degree]))


def _part(col, axiom):
    return {w: c for (ax, w), c in col.items() if ax == axiom}


class TestHexagonInFreeAlgebra:
    def test_extension_equals_the_chord_reference_through_degree_nine(self, chord_extension):
        steps, _ = _record_extension(9, associator._columns, associator._residual_labels)
        reference, _ = chord_extension
        assert steps == reference
        assert [(d, len(kernel), revised) for d, _, kernel, revised in steps] == [
            (2, 0, False), (3, 1, False), (4, 1, False), (5, 2, True),
            (6, 3, False), (7, 6, True), (8, 10, False), (9, 19, True),
        ]

    def test_columns_are_lie_and_embed_to_the_chord_columns(self, chord_extension):
        _, calls = chord_extension
        lookback = set()
        for kind, coords, degree, want in calls:
            if kind != "column":
                continue
            p = _perturbation(coords, degree)
            h3 = oracles._hexagon_column(p, degree)
            assert lie_defect(TruncatedSeries.from_terms(AB, degree, h3)).is_zero()
            assert _embedded_and_reduced(h3, degree) == _part(want, "H3")
            (col,) = _unscaled(associator._columns([coords], degree))
            lyndon = set(lyndon_words(2, degree))
            assert _part(col, "AS") == {w: c for w, c in _part(want, "AS").items() if w in lyndon}
            assert _part(col, "H3") == {w: c for w, c in h3.items() if w in lyndon}
            if not p.degree_slice(degree):
                lookback.add(degree)
        # the previous degree's kernel at the revised degrees 4, 6 and 8
        assert lookback == {5, 7, 9}

    def test_residuals_are_lie_and_embed_to_the_chord_residuals(self, chord_extension):
        _, calls = chord_extension
        degrees = []
        for kind, candidate, degree, want in calls:
            if kind != "residual":
                continue
            r = _residual("H3", candidate, free=True)
            assert r.min_degree() in (degree, None)
            assert lie_defect(r).is_zero()
            assert _embedded_and_reduced(r.degree_slice(degree), degree) == _part(want, "H3")
            lyndon = set(lyndon_words(2, degree))
            assert unscale_slice(*associator._residual_labels(candidate, degree)) == {
                ("H3", w): c for w, c in r.degree_slice(degree).items() if w in lyndon
            }
            degrees.append(degree)
        # one solve per step, and at each revision the lookback's: the revised
        # step takes its solution from the lookback's with no solve of its own
        assert degrees == [2, 3, 4, 5, 5, 6, 7, 7, 8, 9, 9]

    def test_every_extended_series_is_exp_of_log_plus_correction(self):
        for step, extended, _ in extension_steps(one(AB, 1), 8):
            d = step.degree
            assert step.log == step.base.log().lifted(d)
            assert step.candidate == step.log.exp()
            assert extended == (step.log + step.correction()).exp()
            for kvec in step.kernel:
                assert step.extended(kvec) == (step.log + step.correction(kvec)).exp()

    def test_correction_is_the_combination_of_lie_basis_brackets(self, rng):
        # coordinates are over lyndon_words(2, degree), so e_i gives the i-th bracket
        for step, _, _ in extension_steps(one(AB, 1), 8):
            d = step.degree
            basis = lie_basis(AB, d, d)
            assert [w for w, _ in basis] == lyndon_words(2, d)
            for i, (_, bracket) in enumerate(basis):
                unit = [Fraction(int(j == i)) for j in range(len(basis))]
                assert step.correction(unit) == bracket
            coords = [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in basis]
            for vec in [step.particular, coords, [Fraction(0)] * len(basis)] + step.kernel:
                want = sum((b.scale(c) for c, (_, b) in zip(vec, basis)), zero(AB, d))
                assert step.correction(vec) == want


class TestKernelIsAnS3Multiplicity:
    """The degree-d kernel is the multiplicity of S3's standard representation in L_d."""

    def test_the_closed_form_gives_the_measured_and_pinned_dimensions(self):
        # degrees 11 and 12 are the ones CI pins; 13 and 14 are predictions
        assert [oracles.standard_multiplicity(d) for d in range(2, 15)] == [
            0, 1, 1, 2, 3, 6, 10, 19, 33, 62, 112, 210, 387
        ]

    def test_extension_from_one_has_the_closed_form_kernels_through_degree_ten(self):
        dims = [step.kernel_dimension for step, _, _ in extension_steps(one(AB, 1), 10)]
        assert dims == [oracles.standard_multiplicity(d) for d in range(2, 11)]
        assert dims == [0, 1, 1, 2, 3, 6, 10, 19, 33]

    def test_the_yb_columns_have_the_kernel_of_the_as_h3_columns(self):
        # The linear half of "YB iff AS and H3": per degree, the first-order
        # (YB) residual along the Lyndon brackets vanishes on exactly the
        # subspace where the (AS)/(H3) columns do (check_equivalences).
        terms, _ = associator._first_order_terms("YB")
        for d in range(2, 11):
            lyndon = associator._lyndon_set(d)
            yb_columns = []
            for w in lyndon:
                column = {}
                for s, x, y, _, _ in terms:
                    image = bracket_rows(w, associator._letters(x, y), lyndon)
                    for word, n in image.items():
                        column[word] = column.get(word, 0) + s * n
                yb_columns.append((1, {word: n for word, n in column.items() if n}))
            _, yb_kernel = affine_solve(yb_columns)
            _, kernel = affine_solve(associator._bracket_columns(d))
            both = [dict(enumerate(v)) for v in yb_kernel + kernel]
            assert len(yb_kernel) == len(kernel) == oracles.standard_multiplicity(d), d
            assert oracles.dense_rank(both, range(len(lyndon))) == len(kernel), d


class TestHexagonVerdicts:
    def _assert_as_chord(self, phi, cap):
        for axiom in ("H1", "H3"):
            result = check_axiom(phi, axiom, cap)
            want = oracles.chord_hexagon_normal_form(phi, cap, axiom)
            assert result.residual.text() == want.text(), (axiom, phi.text())
            assert result.residual == want
            assert result.passed == want.is_zero()
            assert result.first_failure_degree == want.min_degree()

    @pytest.mark.parametrize("cap", range(6))
    def test_exp_lie_series_match_the_chord_path(self, rng, cap):
        # 1 fails both hexagons at degree 2, psi24 passes them through degree 2
        for _ in range(4):
            self._assert_as_chord(exp_lie_series(rng, cap), cap)
        self._assert_as_chord(one(AB, cap), cap)
        self._assert_as_chord(psi24(max(cap, 2)), cap)

    def test_semi_associators_pass_and_their_perturbations_fail(self, semi_associator_deg5):
        self._assert_as_chord(semi_associator_deg5, 5)
        self._assert_as_chord(psi24(2), 2)
        perturbed = (semi_associator_deg5.log() + lie3(1, 2, 5).scale(Fraction(1, 7))).exp()
        self._assert_as_chord(perturbed, 5)
        assert not check_axiom(perturbed, "H3", 5).passed
        assert not check_axiom(perturbed, "H1", 5).passed

    @pytest.mark.parametrize("text", ["1 + 1*A.B", "1 + 1*A", "1 + 1*A + 1/2*A.A", "1 - 1/3*B.A.B"])
    @pytest.mark.parametrize("cap", [0, 1, 2, 3, 4])
    def test_series_that_fail_ae_keep_the_chord_product(self, text, cap):
        phi = parse_series(text, AB, 4)
        if cap >= 3:
            assert not check_axiom(phi, "AE", cap).passed
        self._assert_as_chord(phi, cap)

    def test_a_passing_series_builds_no_chord_product(self, monkeypatch, semi_associator_deg5):
        calls = []
        residual = associator._residual

        def recording(axiom, phi, free=False):
            calls.append(free)
            return residual(axiom, phi, free)

        monkeypatch.setattr(associator, "_residual", recording)
        for axiom in ("H1", "H3"):
            assert check_axiom(semi_associator_deg5, axiom, 5).passed
        assert calls == [True, True]
        check_axiom(parse_series("1 + 1*A.B", AB, 3), "H3", 3)
        assert calls == [True, True, False]


class TestYangBaxter:
    def test_trivial_parameter_fails_at_degree_two(self):
        result = check_yang_baxter(one(AB, 2), 2)
        assert not result.passed
        assert result.first_failure_degree == 2

    def test_hexagon_solution_passes(self):
        assert check_yang_baxter(psi24(2), 2).passed

    def test_any_admissible_parameter_passes_at_cap_one(self):
        for psi in (one(AB, 1), one(AB, 1)):
            assert check_yang_baxter(psi, 1).passed
        assert check_yang_baxter(psi24(3), 1).passed

    def test_bootstrap_passes_at_cap_five(self, semi_associator_deg5):
        assert check_yang_baxter(semi_associator_deg5, 5).passed

    def test_verdict_is_a_yb_axiom_result(self):
        for psi, cap, passed in ((psi24(3), 3, True), (one(AB, 3), 3, False)):
            result = check_yang_baxter(psi, cap)
            assert type(result) is AxiomResult
            assert (result.axiom, result.cap, result.passed) == ("YB", cap, passed)
            assert (result.residual is None) == passed

    def test_one_fold_equals_the_two_fold_difference(self, semi_associator_deg5):
        # rho(s2 s1 s2) and rho(Delta) evaluated and reduced separately.
        word = WeldedWord(3, (sigma(2), sigma(1), sigma(2)))
        cases = [(semi_associator_deg5, 5), (psi24(3), 2), (psi24(3), 3), (one(AB, 3), 3)]
        cases += [((ab_commutator(3).scale(Fraction(1, 24)) + lie3(1, 2)).exp(), 3)]
        verdicts = []
        for psi, cap in cases:
            result = check_yang_baxter(psi, cap)
            diff = eval_rho3(word, psi, cap) - rho3_delta(psi, cap)
            assert result.passed == diff.is_zero()
            assert result.residual == (None if result.passed else diff)
            assert result.first_failure_degree == diff.min_degree()
            verdicts.append(result.passed)
        assert verdicts == [True, True, True, False, False]


@pytest.fixture(scope="module")
def semi_associator_deg7():
    return bootstrap_semi_associator(7)


_YB_WORD = WeldedWord(3, (sigma(2), sigma(1), sigma(2)))


class TestYangBaxterInFreeAlgebra:
    """check_yang_baxter decides in F(A, B); the chord(3) folds are the references."""

    def _assert_as_chord(self, psi, cap):
        """The defect is exp(c/2) r(t12, t23) (x) 321, and the verdict is the references'."""
        r = _residual("YB", psi.truncated(cap), free=True)
        defect = oracles.rho3_yang_baxter_defect(psi, cap)
        assert defect == eval_rho3(_YB_WORD, psi, cap) - rho3_delta(psi, cap)
        basis = build_graded_basis(infinitesimal_artin(3), cap)
        t12, t23 = (generator_or_zero(basis.alphabet, cap, pair) for pair in ((1, 2), (2, 3)))
        embedded = reps.central_element(cap).exp() * substitute(r, t12, t23)
        delta = Permutation.from_one_line("321")
        assert defect == SemidirectSeries.term(basis, cap, embedded, delta)
        assert defect.min_degree() == r.min_degree()
        result = check_yang_baxter(psi, cap)
        assert result.passed == defect.is_zero() == r.is_zero()
        assert result.first_failure_degree == defect.min_degree()
        assert result.residual == (None if result.passed else defect)
        return result.passed

    @pytest.mark.parametrize("cap", range(8))
    def test_exp_lie_series_and_psi24(self, rng, cap):
        for _ in range(3):
            self._assert_as_chord(exp_lie_series(rng, cap), cap)
        # psi24 passes through degree 3 and fails above
        assert self._assert_as_chord(psi24(max(cap, 2)), cap) == (cap <= 3)

    @pytest.mark.parametrize("cap", range(8))
    def test_bootstrap_passes_and_its_perturbations_fail(self, rng, semi_associator_deg7, cap):
        assert self._assert_as_chord(semi_associator_deg7, cap)
        for k in range(2, cap + 1):
            bracket = lie_basis(AB, 7, k)[-1][1]
            scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            perturbed = (semi_associator_deg7.log() + bracket.scale(scale)).exp()
            assert not self._assert_as_chord(perturbed, cap)
            assert check_yang_baxter(perturbed, cap).first_failure_degree == k

    def test_a_two_letter_alphabet_other_than_ab(self):
        xy = Alphabet.abstract("X", "Y")
        for psi, cap in ((psi24(3), 3), (psi24(4), 4), (one(AB, 2), 2)):
            renamed = TruncatedSeries(xy, psi.cap, psi.scaled)
            result = check_yang_baxter(renamed, cap)
            assert result.passed == check_yang_baxter(psi, cap).passed
            want = None if result.passed else oracles.rho3_yang_baxter_defect(renamed, cap)
            assert result.residual == want

    def test_a_passing_parameter_folds_nothing(self, monkeypatch, semi_associator_deg7):
        def refuse(*args, **kwargs):
            raise AssertionError("chord(3) work on a passing parameter")

        for name in ("fold", "_fold_scaled", "build_graded_basis", "_rho3_images"):
            monkeypatch.setattr(reps, name, refuse)
        monkeypatch.setattr(associator, "build_graded_basis", refuse)
        for cap in range(8):
            assert check_yang_baxter(semi_associator_deg7, cap).passed
        assert check_yang_baxter(psi24(3), 3).passed

    @pytest.mark.parametrize(
        "psi, cap, error, message",
        [
            (None, 3, SeriesError, "the rho3 family needs an associator series; none was given"),
            (None, -1, SeriesError, "the rho3 family needs an associator series; none was given"),
            (psi24(2), -1, BasisError, "cap must be >= 0"),
            (parse_series("1 + 1*A.B", AB, 3), -1, BasisError, "cap must be >= 0"),
            (psi24(2), 3, CapMismatch, "parameter known to degree 2 < cap 3"),
            (parse_series("2", AB, 3), 0, ConstantTermError, "need constant term 1"),
            (parse_series("1 + 1*A", AB, 3), 3, ConstantTermError,
             "need a trivial degree-1 part (log Psi = 0 mod degree 2)"),
            (parse_series("1 + 1*A.B", AB, 3), 3, ConstantTermError,
             "need a group-like series (primitive logarithm)"),
            (one(Alphabet.chord(3), 3), 3, AlphabetMismatch,
             "substitute expects a series over a 2-letter abstract alphabet"),
            (one(Alphabet.abstract("A", "B", "C"), 3), 0, AlphabetMismatch,
             "substitute expects a series over a 2-letter abstract alphabet"),
        ],
    )
    def test_refusals_are_the_folds(self, psi, cap, error, message):
        for check in (check_yang_baxter, oracles.rho3_yang_baxter_defect):
            with pytest.raises(error) as info:
                check(psi, cap)
            assert type(info.value) is error and str(info.value) == message


class TestEquivalences:
    def test_randomized_degree_three_perturbations(self, rng):
        # YB and H3 verdicts agree exactly; YB implies AS, checked at cap 3
        # only, on these degree-3 perturbations; H1 matches H3 whenever AS holds
        seen_pass = seen_fail = 0
        for k in range(12):
            if k % 3 == 0:
                t = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                ell = lie3(t, t)  # swap-antisymmetric direction
            else:
                ell = lie3(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                )
            psi = (ab_commutator(3).scale(Fraction(1, 24)) + ell).exp()
            report = check_equivalences(psi, 3)
            assert report.yb_iff_h3
            assert report.yb_implies_as
            assert report.h1_iff_h3 in (None, True)
            if report.yb.passed:
                seen_pass += 1
                assert report.delta_squared_central
                assert report.drinfeld_compatible
            else:
                seen_fail += 1
        assert seen_pass and seen_fail

    def test_trivial_parameter_equivalent_failures(self):
        report = check_equivalences(one(AB, 2), 2)
        assert not report.yb.passed and not report.h3.passed
        assert report.yb_iff_h3

    def test_drinfeld_compatibility_at_cap_two(self):
        report = check_equivalences(psi24(2), 2)
        assert report.drinfeld_compatible is True

    def test_delta_squared_central_at_cap_four(self, semi_associator_deg5):
        psi = semi_associator_deg5.truncated(4)
        report = check_equivalences(psi, 4)
        assert report.yb.passed
        assert report.delta_squared_central


class TestPsi5:
    """Psi5 passes (YB) through degree 5 and is not a semi-associator (tests/fixtures/psi5.txt)."""

    def test_yang_baxter_passes_and_the_fold_agrees(self, psi5):
        assert psi5.cap == 5
        assert check_yang_baxter(psi5, 5).passed
        assert oracles.rho3_yang_baxter_defect(psi5, 5).is_zero()

    def test_axiom_verdicts(self, psi5):
        verdicts = {ax: check_axiom(psi5, ax, 5) for ax in ("AE", "AS", "H1", "H3")}
        assert verdicts["AE"].passed and verdicts["H3"].passed
        for axiom in ("AS", "H1"):
            assert not verdicts[axiom].passed and verdicts[axiom].first_failure_degree == 5

    def test_equivalence_report(self, psi5):
        report = check_equivalences(psi5, 5)
        assert report.yb_implies_as is False
        assert report.delta_squared_central is False
        assert report.drinfeld_compatible is None


class TestEquivalencesShareOneLog:
    def test_the_report_takes_log_psi_once(self, monkeypatch):
        # (YB)'s precondition, the (AE) residual under H3 and H1, and the
        # 3-strand letters behind Delta all read one log of Psi at the cap
        path = Path(__file__).parent.parent / "bench" / "fixtures" / "phi7.txt"
        phi7 = parse_series(path.read_text().split("\n", 1)[1], AB)
        for cached in (reps.shared_log, associator.ae_residual, reps._rho3_images):
            cached.cache_clear()
        logs, log = [], TruncatedSeries.log
        monkeypatch.setattr(TruncatedSeries, "log", lambda s: logs.append(s) or log(s))
        report = check_equivalences(phi7, 6)
        assert report.yb.passed and report.h3.passed and report.h1.passed and report.as_.passed
        assert report.delta_squared_central and report.drinfeld_compatible
        assert len(logs) == 1


class TestCapZero:
    @pytest.mark.parametrize("axiom", ["AE", "AS", "H1", "H3", "P"])
    def test_every_axiom_holds_at_cap_zero(self, axiom):
        # Both sides of every axiom are 1 at cap 0, whatever the series.
        for phi in (one(AB, 0), one(AB, 2), psi24(3), one(AB, 2) + ab_commutator(2)):
            result = check_axiom(phi, axiom, 0)
            assert result.passed and result.first_failure_degree is None
            assert result.residual.cap == 0 and result.residual.is_zero()

    def test_equivalences_at_cap_zero(self):
        report = check_equivalences(psi24(2), 0)
        assert report.yb.passed and report.h1.passed and report.h3.passed and report.as_.passed
        assert report.yb_iff_h3 and report.h1_iff_h3 and report.yb_implies_as
        assert report.delta_squared_central and report.drinfeld_compatible


class TestAEResidualAgainstPerDegreeFormula:
    @pytest.mark.parametrize("cap", range(7))
    def test_random_series(self, rng, cap):
        # exp of a random Lie series with a degree-1 part, then a random perturbation
        for _ in range(8):
            ell = TruncatedSeries.from_terms(AB, cap + 1, {})
            for k in range(1, cap + 2):
                for _, bracket in lie_basis(AB, cap + 1, k):
                    if rng.random() < 0.5:
                        ell = ell + bracket.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
            phi = ell.exp()
            if rng.random() < 0.75:
                phi = phi + random_series(rng, AB, cap + 1, nterms=3, zero_constant=True)
            want = oracles.per_degree_ae_residual(dict(phi.terms()), cap)
            assert ae_residual(phi, cap) == TruncatedSeries.from_terms(AB, cap, want)


class TestSpanningExpansion:
    def test_pure_braid_images_span_low_degrees(self):
        # products of (rho alpha_ij - 1) plus constants span every normal form
        # of degree <= 3: exact rank over the stacked graded coordinates
        cap = 3
        basis = build_graded_basis(infinitesimal_artin(3), cap)
        psi = psi24(cap)
        mu = {}
        for j, i in ((1, 2), (1, 3), (2, 3)):
            img = eval_rho3(pure_braid_generator(j, i, 3), psi, cap)
            ((perm, series),) = img.terms.items()
            assert perm.is_identity()
            mu[(j, i)] = series - one(basis.alphabet, cap)

        def flatten(series):
            return {(k, w): c for k in range(cap + 1) for w, c in series.degree_slice(k).items()}

        ech = SparseEchelon(key=lambda col: (col[0], col[1]))
        ech.add(flatten(one(basis.alphabet, cap)))
        keys = list(mu)
        products = [mu[k] for k in keys]
        for depth in range(2):
            next_products = []
            for p in products:
                ech.add(flatten(basis.normal_form(p)))
                for k in keys:
                    next_products.append(p * mu[k])
            products = next_products
        for p in products:
            ech.add(flatten(basis.normal_form(p)))
        total_dim = sum(basis.dimension(k) for k in range(cap + 1))
        assert ech.rank == total_dim == 1 + 3 + 7 + 15


class TestOneTranscription:
    """The one table's residuals and columns against the hand transcriptions in the oracles."""

    @pytest.mark.parametrize("cap", range(8))
    def test_residuals_equal_the_hand_transcriptions(self, rng, semi_associator_deg7, psi5, cap):
        # exp-Lie series pass (AE); 1 + A.B and 1 + A fail it, so their
        # F(A, B) hexagon residuals are formulas only, compared all the same.
        # Psi5, known to degree 5, passes (AE) and fails (AS), (H1) and (P).
        series = [exp_lie_series(rng, cap) for _ in range(2)]
        series += [parse_series(text, AB, 7) for text in ("1 + 1*A.B", "1 + 1*A")]
        series.append(semi_associator_deg7)
        if cap <= psi5.cap:
            series.append(psi5)
        for phi in series:
            prepared = associator._prepare(phi, cap)
            assert _residual("AS", prepared, free=True) == oracles.as_residual(phi, cap)
            for axiom in ("H1", "H3"):
                for free in (False, True):
                    want = oracles._hexagon_residual(phi, cap, axiom, free)
                    assert _residual(axiom, prepared, free) == want, (axiom, free)
            want = oracles._yang_baxter_residual(prepared, cap)
            assert _residual("YB", prepared, free=True) == want
            if cap <= 5 or phi is semi_associator_deg7:
                assert _residual("P", prepared) == oracles.pentagon_residual(phi, cap)

    def test_columns_equal_the_hand_derived_columns_through_degree_nine(self, chord_extension):
        # The perturbations and candidates the extension solves with through
        # degree 9: every Lyndon bracket, and the kernel vectors of the
        # lookback at degrees 5, 7 and 9.
        _, calls = chord_extension
        lookback, brackets = set(), set()
        for kind, arg, degree, _ in calls:
            if kind == "column":
                p = _perturbation(arg, degree)
                assert _unscaled(_columns([arg], degree)) == oracles._columns([p], degree)
                (lookback if not p.degree_slice(degree) else brackets).add(degree)
            else:
                r = oracles._hexagon_residual(arg, degree, "H3", free=True)
                want = associator._lyndon_rows("H3", r.scaled[degree], degree)
                assert associator._residual_labels(arg, degree) == want
        assert lookback == {5, 7, 9}
        assert brackets == set(range(2, 10))

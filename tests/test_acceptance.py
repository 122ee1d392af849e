"""Acceptance suite: every criterion exact, zero tolerance.

Each test prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``
to see them stream.  Expected values tagged as derived were computed by the
independent oracles in oracles.py, never by the code paths under test.
"""

import random
from fractions import Fraction

import oracles
from conftest import ab_commutator, psi24

from braidalg import (
    AB,
    GroupRingElement,
    Permutation,
    SemidirectSeries,
    braid_relations,
    build_graded_basis,
    central_element,
    check_axiom,
    check_family_axioms,
    check_yang_baxter,
    eval_drinfeld,
    eval_group_ring,
    eval_rho3,
    eval_welded,
    extend_semi_associator,
    generator,
    hilbert_row,
    infinitesimal_artin,
    is_lie_element,
    mccool_relations,
    one,
    oriented_artin,
    oriented_upper_triangular,
    random_welded_word,
    rho3_delta,
    substitute,
    words_equal_in_bp,
    zero,
)
from braidalg.lyndon import lie_basis
from braidalg.words import WeldedWord, a, s, sigma, word


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_hilbert_kohno():
    for n, cap in ((3, 4), (4, 4)):
        expected = oracles.product_formula_dims(n, cap)
        got = hilbert_row(infinitesimal_artin(n), cap)
        assert got == expected, (n, got, expected)
    assert hilbert_row(infinitesimal_artin(3), 4) == [1, 3, 7, 15, 31]
    assert hilbert_row(infinitesimal_artin(4), 4) == [1, 6, 25, 90, 301]
    report(1, "chord dims match the product formula for n = 3, 4 through degree 4")


def test_criterion_2_oriented_dims():
    assert hilbert_row(oriented_artin(2), 5) == [2**k for k in range(6)]
    preset = oriented_artin(3)
    words2 = [(i, j) for i in range(6) for j in range(6)]
    rank = oracles.dense_rank([dict(r.degree_slice(2)) for r in preset.relations()], words2)
    assert rank == 9
    basis = build_graded_basis(preset, 2)
    assert basis.dimension(2) == 36 - rank == 27
    full = hilbert_row(oriented_artin(3), 4)
    upper = hilbert_row(oriented_upper_triangular(3), 4)
    assert all(u >= f for u, f in zip(upper, full)), (upper, full)
    report(2, "oriented dims: free on 2 strands, 27 at (n,k) = (3,2), upper-triangular dominates")


def test_criterion_3_relation_fidelity_and_family_axioms():
    for n, cap in ((3, 4), (4, 3)):
        basis = build_graded_basis(oriented_artin(n), cap)
        unit = SemidirectSeries.unit(basis, cap)
        for name, relator in mccool_relations(n) + braid_relations(n):
            assert eval_welded(relator, cap) == unit, (n, cap, name)
        family = check_family_axioms("welded", n, cap)
        for axiom in ("E", "Sigma", "S", "N", "relations"):
            assert family.checks[axiom].passed, (n, cap, axiom, family.checks[axiom].details)
    report(3, "welded relations map to 1 (x) id (n=3 cap 4, n=4 cap 3); (E),(Sigma),(S),(N) hold")


def test_criterion_4_semi_associator_bootstrap():
    oracle_coefficient = oracles.hexagon_degree2_coefficient()
    assert oracle_coefficient == Fraction(1, 24)
    step = extend_semi_associator(one(AB, 1))
    assert step.degree == 2
    assert step.kernel_dimension == 0, "degree-2 solution set must be a single point"
    assert step.particular == [oracle_coefficient]
    psi = step.extended()
    assert check_yang_baxter(psi, 2).passed
    kernel_dims = {2: step.kernel_dimension}
    while psi.cap < 4:
        step = extend_semi_associator(psi)
        kernel_dims[step.degree] = step.kernel_dimension
        psi = step.extended()
    assert set(kernel_dims) == {2, 3, 4}
    report(
        4,
        f"unique degree-2 coefficient {oracle_coefficient} equals the brute-force hexagon "
        f"solve; extension reaches degree 4 with kernel dims {kernel_dims}",
    )


def test_criterion_5_yang_baxter_hexagon_equivalence():
    rng = random.Random(20240531)
    brackets = lie_basis(AB, 3, 3)
    assert [w for w, _ in brackets] == [(0, 0, 1), (0, 1, 1)]
    passing = failing = 0
    for trial in range(24):
        if trial % 3 == 0:
            t = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            coords = (t, -t)  # a [A,[A,B]] - a [[A,B],B]: the swap-antisymmetric line
        else:
            coords = (
                Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
            )
        ell3 = brackets[0][1].scale(coords[0]) + brackets[1][1].scale(coords[1])
        psi3 = (ab_commutator(3).scale(Fraction(1, 24)) + ell3).exp()
        yb = check_yang_baxter(psi3, 3)
        h3 = check_axiom(psi3, "H3", 3)
        assert yb.passed == h3.passed, coords
        if yb.passed:
            passing += 1
            assert check_axiom(psi3, "AS", 3).passed, coords
            psi4 = psi3.log().lifted(4).exp()
            basis4 = build_graded_basis(infinitesimal_artin(3), 4)
            delta = rho3_delta(psi4, 4)
            expected = SemidirectSeries.term(
                basis4, 4, central_element(4).scale(2).exp(), Permutation.identity(3)
            )
            assert delta * delta == expected, coords
        else:
            failing += 1
    assert passing >= 5 and failing >= 5
    report(
        5,
        f"YB verdict = H3 verdict on 24 randomized degree-3 perturbations "
        f"({passing} pass, {failing} fail); YB implies AS, checked at cap 3 only, on these "
        f"degree-3 perturbations; Delta^2 = exp(2T)",
    )


def test_criterion_6_drinfeld_compatibility():
    candidates = [psi24(3)]
    step = extend_semi_associator(psi24(2))
    for kvec in step.kernel:
        coords = [p + k for p, k in zip(step.particular, kvec)]
        candidates.append(step.extended(coords))
    checked = 0
    for psi in candidates:
        if not (check_axiom(psi, "AS", 3).passed and check_axiom(psi, "H3", 3).passed):
            continue
        checked += 1
        w = word(3, sigma(2))
        assert eval_rho3(w, psi, 3) == eval_drinfeld(w, psi, 3)
    assert checked >= 2
    report(6, f"3-strand family matches the conjugation formula on sigma_2 for {checked} parameters")


def test_criterion_7_delta_injectivity():
    from braidalg import delta_kernel

    for k in range(1, 5):
        assert delta_kernel(3, k).kernel_dimension == 0, k
    for k in range(1, 6):
        assert delta_kernel(2, k).kernel_dimension == 0, k
    report(7, "comparison map has trivial kernel: n = 3 through degree 4, n = 2 through degree 5")


def test_criterion_8_finite_type_behavior():
    basis = build_graded_basis(oriented_artin(3), 4)
    alph = basis.alphabet
    xi = GroupRingElement.parse("1*[sig1] - 1*[s1]", 3)
    rep = eval_group_ring(xi, 4)
    assert rep == SemidirectSeries.term(
        basis, 4, generator(alph, 4, "v12").exp() - one(alph, 4), Permutation.from_one_line("213")
    )
    assert rep.min_degree() == 1

    xi2 = xi * GroupRingElement.parse("1*[sig2] - 1*[s2]", 3)
    assert eval_group_ring(xi2, 4).min_degree() == 2

    unit = GroupRingElement.one(3)
    a12 = GroupRingElement.from_word(word(3, a(1, 2)))
    for k in (1, 2, 3):
        assert eval_group_ring((a12 - unit) ** k, 4).min_degree() == k

    rng = random.Random(20240601)
    gens = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    checked_equalities = 0
    for _ in range(50):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        xi = (GroupRingElement.from_word(word(3, a(*rng.choice(gens)))) - unit) ** p
        eta = (GroupRingElement.from_word(word(3, a(*rng.choice(gens)))) - unit) ** q
        u = eval_group_ring(xi, 4)
        v = eval_group_ring(eta, 4)
        assert u.min_degree() == p and v.min_degree() == q
        product_order = (u * v).min_degree()
        assert product_order >= p + q
        # equality whenever the product of lowest terms survives reduction
        lowest = _lowest_term_product(u, v, p, q, basis)
        if any(lowest.values()):
            assert product_order == p + q
            checked_equalities += 1
    assert checked_equalities >= 25
    report(
        8,
        "orders: sigma-s resolution 1 with the exact exp(v)-1 image, double resolution 2, "
        f"(a12-1)^k exactly k, additivity on 50 sampled pairs ({checked_equalities} with equality)",
    )


def _lowest_term_product(u, v, p, q, basis):
    out = {}
    for x, su in u.terms.items():
        for y, sv in v.terms.items():
            key = x.compose(y)
            tgt = out.setdefault(key, {})
            for w1, c1 in su.degree_slice(p).items():
                for w2, c2 in sv.degree_slice(q).items():
                    w2t = tuple(sv.alphabet.permuted(g, x) for g in w2)
                    joined = w1 + w2t
                    c = tgt.get(joined, Fraction(0)) + c1 * c2
                    if c:
                        tgt[joined] = c
                    else:
                        del tgt[joined]
    return {perm: oracles.reduce_fractions(basis, p + q, slice_) for perm, slice_ in out.items()}


def test_criterion_9_oracle_consistency():
    rng = random.Random(20240607)
    relators = [r for _, r in mccool_relations(3) + braid_relations(3)]
    images_equal_count = 0
    for trial in range(200):
        w1 = random_welded_word(rng, 3, rng.randint(0, 8))
        if trial % 2 == 0:
            w2 = random_welded_word(rng, 3, rng.randint(0, 8))
        else:
            # same group element in a different spelling: splice in a relator
            # or an inverse pair at a random position
            cut = rng.randint(0, len(w1.letters))
            if rng.random() < 0.5:
                filler = rng.choice(relators)
            else:
                t = random_welded_word(rng, 3, 1)
                filler = t * t.inverse()
            w2 = WeldedWord(3, w1.letters[:cut] + filler.letters + w1.letters[cut:])
        oracle_equal = words_equal_in_bp(w1, w2)
        images_equal = eval_welded(w1, 4) == eval_welded(w2, 4)
        if oracle_equal:
            assert images_equal, (w1.text(), w2.text())
        if not images_equal:
            assert not oracle_equal, (w1.text(), w2.text())
        if images_equal:
            images_equal_count += 1
    assert images_equal_count >= 50
    report(
        9,
        f"200 word pairs at cap 4: oracle equality forces image equality, image inequality "
        f"is confirmed distinct ({images_equal_count} equal-image pairs exercised)",
    )


def test_criterion_10_kernel_algebra_health():
    rng = random.Random(20240613)
    alphabets = [AB, infinitesimal_artin(3).alphabet, oriented_artin(3).alphabet]

    def random_series(alphabet, cap, zero_constant):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            deg = rng.randint(1 if zero_constant else 0, cap)
            terms[tuple(rng.randrange(alphabet.size) for _ in range(deg))] = Fraction(
                rng.randint(-6, 6), rng.randint(1, 6)
            )
        terms.pop((), None) if zero_constant else None
        from braidalg import TruncatedSeries

        return TruncatedSeries.from_terms(alphabet, cap, terms)

    for case in range(100):
        alphabet = alphabets[case % 3]
        cap = rng.randint(2, 4)
        x = random_series(alphabet, cap, zero_constant=True)
        assert x.exp().log() == x
        g = one(alphabet, cap) + random_series(alphabet, cap, zero_constant=True)
        assert g.log().exp() == g

    for case in range(100):
        alphabet = alphabets[case % 3]
        cap = rng.randint(2, 4)
        g = one(alphabet, cap).scale(Fraction(rng.randint(1, 5))) + random_series(
            alphabet, cap, zero_constant=True
        )
        assert g * g.inverse() == one(alphabet, cap)
        assert g.inverse() * g == one(alphabet, cap)

    chord = infinitesimal_artin(3).alphabet
    for case in range(100):
        cap = rng.randint(2, 3)
        f = random_series(AB, cap, zero_constant=False)
        g = random_series(AB, cap, zero_constant=False)
        x = generator(chord, cap, "t12")
        y = generator(chord, cap, "t13") + generator(chord, cap, "t23")
        assert substitute(f * g, x, y) == substitute(f, x, y) * substitute(g, x, y)

    for case in range(100):
        coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(8)]
        ell = zero(AB, 4)
        idx = 0
        for k in range(1, 5):
            for _, bracket in lie_basis(AB, 4, k):
                if idx < len(coords):
                    ell = ell + bracket.scale(coords[idx])
                    idx += 1
        assert is_lie_element(ell.exp().log())
    bch = (generator(AB, 4, "A").exp() * generator(AB, 4, "B").exp()).log()
    assert is_lie_element(bch)
    report(10, "exp/log, inverses, substitution morphism and Lie detection: 100 random cases each")

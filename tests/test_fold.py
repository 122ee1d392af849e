"""The scaled-integer folds against an all-Fraction reference fold.

The reference multiplies {permutation: {word: Fraction}} maps with
``oracles.mini_mul``, relabels strands with its own generator map, and
reduces once at the end with ``normal_form``.  Generator images are rebuilt
here from their defining formulas, so only the series arithmetic they use is
shared with the code under test.  The welded family's closed-form fold is
also compared with the generic fold over its letters' images as series
factors (``oracles.welded_factor_images``), and its degree-by-degree slices
with the letter-by-letter fold it replaced (``oracles.reference_welded_raw``).
"""

import sys
import threading
from fractions import Fraction

import pytest

from conftest import ab_commutator, make_rng, psi24, random_series
from oracles import (
    factor_group_ring,
    mini_add,
    mini_exp,
    mini_inverse,
    mini_mul,
    mini_scale,
    reference_welded_raw,
)

from braidalg import (
    AB,
    GroupRingElement,
    Permutation,
    SemidirectSeries,
    TruncatedSeries,
    build_graded_basis,
    eval_drinfeld,
    eval_group_ring,
    eval_rho3,
    eval_welded,
    generator,
    infinitesimal_artin,
    one,
    oriented_artin,
    substitute,
    zero,
)
from braidalg import reps
from braidalg.lyndon import lie_basis
from braidalg.sdseries import _normalized, lowest_degree
from braidalg.words import WeldedWord, a, s, sigma

HALF = Fraction(1, 2)


# -- the reference fold ------------------------------------------------------------


def relabel(alph, x, series):
    """x.series on a {word: coeff} map: v_ij -> v_x(i)x(j), chord pairs sorted."""
    index = {pair: g for g, pair in enumerate(alph.pairs)}
    gmap = []
    for i, j in alph.pairs:
        pair = (x(i), x(j))
        if alph.kind == "chord":
            pair = tuple(sorted(pair))
        gmap.append(index[pair])
    return {tuple(gmap[g] for g in w): c for w, c in series.items()}


def ref_mul(u, v, alph, cap):
    out = {}
    for x, a_x in u.items():
        for y, b_y in v.items():
            key = x.compose(y)
            out[key] = mini_add(out.get(key, {}), mini_mul(a_x, relabel(alph, x, b_y), cap))
    return {perm: series for perm, series in out.items() if series}


def ref_fold(alph, cap, images):
    acc = {Permutation.identity(alph.n): {(): Fraction(1)}}
    for image in images:
        acc = ref_mul(acc, image, alph, cap)
    return acc


def ref_normal_form(basis, cap, raw):
    terms = {}
    for perm, series in raw.items():
        nf = basis.normal_form(TruncatedSeries.from_terms(basis.alphabet, cap, series))
        if not nf.is_zero():
            terms[perm] = nf
    return terms


def as_dict(series):
    return dict(series.terms())


def assert_all_fractions(image):
    for series in image.terms.values():
        for k in range(series.cap + 1):
            sl = series.degree_slice(k)
            assert all(type(c) is Fraction for c in sl.values()), sl


def assert_matches_reference(image, basis, cap, images, letters):
    want = ref_normal_form(basis, cap, ref_fold(basis.alphabet, cap, [images[t] for t in letters]))
    assert image.terms == want
    assert image.text() == SemidirectSeries(basis, cap, want).text()
    assert_all_fractions(image)


# -- reference generator images ----------------------------------------------------


def welded_reference_images(n, cap):
    alph = oriented_artin(n).alphabet
    ident = Permutation.identity(n)

    def exp_gen(i, j, sign):
        return mini_exp({(alph.gen(i, j),): Fraction(sign)}, cap)

    images = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                images[a(i, j)] = {ident: exp_gen(i, j, 1)}
                images[a(i, j, -1)] = {ident: exp_gen(i, j, -1)}
    for i in range(1, n):
        si = Permutation.transposition(n, i)
        images[s(i)] = {si: {(): Fraction(1)}}
        images[sigma(i)] = {si: exp_gen(i, i + 1, 1)}
        images[sigma(i, -1)] = {si: exp_gen(i + 1, i, -1)}
    return images


def drinfeld_reference_images(n, cap, assoc):
    alph = infinitesimal_artin(n).alphabet
    images = {}
    for i in range(1, n):
        si = Permutation.transposition(n, i)
        half_twist = mini_exp({(alph.gen(i, i + 1),): HALF}, cap)
        if i == 1:
            u = half_twist
        else:
            x = sum((generator(alph, cap, (j, i)) for j in range(1, i)), zero(alph, cap))
            y = generator(alph, cap, (i, i + 1))
            phi = as_dict(substitute(assoc.truncated(cap), x, y))
            u = mini_mul(mini_inverse(phi, cap), half_twist, cap)
            u = mini_mul(u, relabel(alph, si, phi), cap)
        images[sigma(i)] = {si: u}
        images[sigma(i, -1)] = {si: relabel(alph, si, mini_inverse(u, cap))}
    return images


def rho3_reference_images(cap, psi):
    alph = infinitesimal_artin(3).alphabet
    t12, t23 = generator(alph, cap, (1, 2)), generator(alph, cap, (2, 3))
    phi_t = as_dict(substitute(psi.truncated(cap), t12, t23))
    central = {(alph.gen(*pair),): HALF for pair in ((1, 2), (1, 3), (2, 3))}
    s1 = Permutation.transposition(3, 1)
    rho_s1 = {s1: mini_exp({(alph.gen(1, 2),): HALF}, cap)}
    rho_s1_inv = {s1: mini_exp({(alph.gen(1, 2),): -HALF}, cap)}
    delta = {
        Permutation.from_one_line("321"): mini_mul(
            mini_exp(central, cap), mini_inverse(phi_t, cap), cap
        )
    }
    # sigma_2 = sigma_1^-1 Delta sigma_1^-1
    ((perm2, u2),) = ref_mul(ref_mul(rho_s1_inv, delta, alph, cap), rho_s1_inv, alph, cap).items()
    return {
        sigma(1): rho_s1,
        sigma(1, -1): rho_s1_inv,
        sigma(2): {perm2: u2},
        sigma(2, -1): {perm2: relabel(alph, perm2, mini_inverse(u2, cap))},
    }


# -- random inputs ---------------------------------------------------------------------


def random_welded_letters(rng, n, length):
    """Letters with many s(i) and inverses."""
    letters = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.35:
            letters.append(s(rng.randrange(1, n)))
        elif roll < 0.7:
            i, j = rng.sample(range(1, n + 1), 2)
            letters.append(a(i, j, rng.choice((1, -1))))
        else:
            letters.append(sigma(rng.randrange(1, n), rng.choice((1, -1))))
    return tuple(letters)


def random_braid_letters(rng, n, length):
    return tuple(sigma(rng.randrange(1, n), rng.choice((1, -1))) for _ in range(length))


def random_group_like(rng, cap):
    """exp of a random Lie element of degrees 2..cap over {A, B}: normalized group-like."""
    lie = TruncatedSeries.from_terms(AB, cap, {})
    for degree in range(2, cap + 1):
        for _, bracket in lie_basis(AB, cap, degree):
            c = Fraction(rng.choice((-7, -3, -1, 1, 2, 5, 11)), rng.choice((7, 11, 13, 36)))
            lie = lie + bracket.scale(c)
    return lie.exp()


# -- tests ---------------------------------------------------------------------------------


# Every cap 0-6 on 2 and 3 strands; on 4 and 5 strands the caps whose bases
# build in well under a second (oriented_artin(4) at cap 6 takes seconds).
WELDED_GRID = (
    [(n, cap) for n in (2, 3) for cap in range(7)]
    + [(4, cap) for cap in range(6)]
    + [(5, cap) for cap in range(5)]
)


def welded_samples(rng, n, count):
    """The empty word, words holding every letter of the family, then random words."""
    everything = list(welded_reference_images(n, 0))
    rng.shuffle(everything)
    covering = [tuple(everything[i : i + 7]) for i in range(0, len(everything), 7)]
    random_words = [random_welded_letters(rng, n, rng.randint(1, 9)) for _ in range(count)]
    return [()] + covering + random_words


def group_ring_samples(rng, n):
    """The zero element, signed and Fraction coefficients, and (c - 1)^k and (c - 1)^k [s].

    The last two are the elements the splitting check folds, for k = 1, 2, 3.
    """
    words = [WeldedWord(n, random_welded_letters(rng, n, rng.randint(0, 6))) for _ in range(4)]
    mixed = GroupRingElement(n, dict(zip(words, (Fraction(-3, 4), 2, Fraction(5, 6), -1))))
    samples = [GroupRingElement(n, {}), mixed, mixed - mixed.scale(Fraction(1, 3))]
    unit = GroupRingElement.one(n)
    for k in (1, 2, 3):
        c = WeldedWord(n, [a(*rng.sample(range(1, n + 1), 2), rng.choice((1, -1))) for _ in range(k)])
        perm = WeldedWord(n, [s(rng.randrange(1, n)) for _ in range(rng.randint(0, 3))])
        power = (GroupRingElement.from_word(c) - unit) ** k
        samples += [power, power * GroupRingElement.from_word(perm)]
    return samples


def assert_same_element(image, want):
    assert image == want
    assert image.text() == want.text()


@pytest.mark.parametrize("n, cap", WELDED_GRID)
def test_welded_fold_matches_reference(n, cap):
    rng = make_rng(1000 * n + cap)
    basis = build_graded_basis(oriented_artin(n), cap)
    images = welded_reference_images(n, cap)
    for letters in welded_samples(rng, n, 20):
        image = eval_welded(WeldedWord(n, letters), cap)
        assert_matches_reference(image, basis, cap, images, letters)


def test_welded_samples_hold_every_letter():
    for n in range(2, 6):
        samples = welded_samples(make_rng(n), n, 0)
        letters = {t for letters in samples for t in letters}
        assert letters == set(welded_reference_images(n, 0))
        assert {(t.kind, t.power) for t in letters} == {
            ("a", 1), ("a", -1), ("s", 1), ("sigma", 1), ("sigma", -1)
        }


@pytest.mark.parametrize("n, cap", WELDED_GRID)
def test_welded_fold_matches_factor_fold(n, cap):
    rng = make_rng(5000 * n + cap)
    for letters in welded_samples(rng, n, 20):
        w = WeldedWord(n, letters)
        xi = GroupRingElement.from_word(w)
        assert_same_element(eval_welded(w, cap), factor_group_ring(xi, cap))


@pytest.mark.parametrize("n, cap", WELDED_GRID)
def test_group_ring_fold_matches_factor_fold(n, cap):
    rng = make_rng(6000 * n + cap)
    for xi in group_ring_samples(rng, n):
        assert_same_element(eval_group_ring(xi, cap), factor_group_ring(xi, cap))


@pytest.mark.parametrize("n, cap", WELDED_GRID)
def test_group_ring_fold_matches_reference(n, cap):
    rng = make_rng(7000 * n + cap)
    basis = build_graded_basis(oriented_artin(n), cap)
    images = welded_reference_images(n, cap)
    for xi in group_ring_samples(rng, n):
        raw = {}
        for w, c in xi.terms.items():
            for perm, series in ref_fold(basis.alphabet, cap, [images[t] for t in w.letters]).items():
                raw[perm] = mini_add(raw.get(perm, {}), mini_scale(series, c))
        want = SemidirectSeries(basis, cap, ref_normal_form(basis, cap, raw))
        assert_same_element(eval_group_ring(xi, cap), want)


def test_group_ring_samples_cover_the_cases():
    samples = group_ring_samples(make_rng(1), 3)
    assert not samples[0].terms and eval_group_ring(samples[0], 3).is_zero()
    coeffs = {c for xi in samples for c in xi.terms.values()}
    assert any(c < 0 for c in coeffs) and any(c.denominator > 1 for c in coeffs)


def welded_combinations(rng, n):
    """Seeded combinations ``[(w, c), ...]`` of welded words on n strands.

    The empty combination and word, permutation-only words, Fraction
    coefficients, cancelling pairs (w, 1), (w, -1), and random words.
    """
    def word(length):
        return WeldedWord(n, random_welded_letters(rng, n, length))

    def permutation_word():
        return WeldedWord(n, [s(rng.randrange(1, n)) for _ in range(rng.randint(1, 3))])

    cancelling = word(rng.randint(1, 6))
    c = WeldedWord(n, [a(*rng.sample(range(1, n + 1), 2), rng.choice((1, -1))) for _ in range(2)])
    samples = [
        [],
        [(WeldedWord(n, ()), 1)],
        [(permutation_word(), 1), (permutation_word(), Fraction(-2, 3)), (WeldedWord(n, ()), 5)],
        [(cancelling, 1), (cancelling, -1)],
        [(cancelling, Fraction(1, 2)), (word(3), 1), (cancelling, Fraction(-1, 2))],
        # (c - 1)^2: the empty word first, in the permutation of the others
        [(WeldedWord(n, ()), 1), (c, -2), (c * c, 1)],
    ]
    for _ in range(4):
        samples.append([
            (word(rng.randint(0, 7)), Fraction(rng.choice((-5, -2, -1, 1, 3, 4)), rng.randint(1, 6)))
            for _ in range(rng.randint(1, 4))
        ])
    return samples


@pytest.mark.parametrize("n, cap", [(n, cap) for n in (2, 3, 4) for cap in range(7)])
def test_degree_major_fold_matches_letter_major_reference(n, cap):
    rng = make_rng(8000 * n + cap)
    for combination in welded_combinations(rng, n):
        want = reference_welded_raw(n, cap, combination)
        raw = reps._welded_raw(n, cap, combination)
        assert list(raw) == list(want)
        for perm, slices in want.items():
            assert [raw[perm][k] for k in range(cap + 1)] == list(slices)
        # Read the top degree first: it and every degree below it come out the same.
        raw = reps._welded_raw(n, cap, combination)
        assert [raw[perm][cap] for perm in raw] == [slices[cap] for slices in want.values()]
        assert {perm: tuple(degrees) for perm, degrees in raw.items()} == want
        if n < 4 or cap < 6:  # oriented_artin(4) at cap 6 takes seconds to build
            basis = build_graded_basis(oriented_artin(n), cap)
            order = _normalized(basis, cap, want).min_degree()
            assert lowest_degree(*reps.fold_welded(n, cap, combination)) == order


def test_threads_reading_one_fold_get_the_reference():
    # Each thread reads the degrees in its own order; a degree computed twice,
    # or a prefix kept twice, would shift every degree above it.
    n, cap = 3, 6
    rng = make_rng(8999)
    combination = [
        (WeldedWord(n, random_welded_letters(rng, n, 12)), Fraction(c, 3)) for c in range(-4, 5) if c
    ]
    want = reference_welded_raw(n, cap, combination)
    orders = [range(cap + 1), range(cap, -1, -1), (3, 0, 6, 1, 5, 2, 4), (cap,)]
    for _ in range(5):
        raw = reps._welded_raw(n, cap, combination)
        assert any(len(degrees.words) > 1 for degrees in raw.values())
        barrier = threading.Barrier(len(orders))
        results = [None] * len(orders)

        def work(i):
            barrier.wait(timeout=30)
            results[i] = {perm: [degrees[k] for k in orders[i]] for perm, degrees in raw.items()}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(orders))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for order, result in zip(orders, results):
            assert result == {perm: [slices[k] for k in order] for perm, slices in want.items()}


@pytest.mark.parametrize("n, cap", [(3, 4), (3, 5), (4, 3)])
def test_drinfeld_fold_matches_reference(n, cap):
    rng = make_rng(2000 * n + cap)
    basis = build_graded_basis(infinitesimal_artin(n), cap)
    for assoc in (psi24(cap), random_group_like(rng, cap)):
        images = drinfeld_reference_images(n, cap, assoc)
        samples = [()] + [random_braid_letters(rng, n, rng.randint(1, 6)) for _ in range(5)]
        for letters in samples:
            image = eval_drinfeld(WeldedWord(n, letters), assoc, cap)
            assert_matches_reference(image, basis, cap, images, letters)


@pytest.mark.parametrize("cap", [3, 4, 5])
def test_rho3_fold_matches_reference(cap):
    rng = make_rng(3000 + cap)
    basis = build_graded_basis(infinitesimal_artin(3), cap)
    for psi in (psi24(cap), random_group_like(rng, cap)):
        images = rho3_reference_images(cap, psi)
        samples = [()] + [random_braid_letters(rng, 3, rng.randint(1, 6)) for _ in range(5)]
        for letters in samples:
            image = eval_rho3(WeldedWord(3, letters), psi, cap)
            assert_matches_reference(image, basis, cap, images, letters)


def test_random_group_like_has_nontrivial_denominators():
    series = random_group_like(make_rng(7), 4)
    assert any(c.denominator % p == 0 for _, c in series.terms() for p in (7, 11, 13))


@pytest.mark.parametrize("kind", ["oriented", "chord"])
def test_semidirect_product_matches_reference(kind):
    rng = make_rng(4000 + len(kind))
    cap = 3
    preset = oriented_artin(3) if kind == "oriented" else infinitesimal_artin(3)
    basis = build_graded_basis(preset, cap)
    alph = basis.alphabet
    perms = [Permutation.from_one_line(p) for p in ("123", "213", "231", "321")]

    def random_element():
        chosen = rng.sample(perms, 3)
        terms = {perm: random_series(rng, alph, cap, nterms=5, denom=9) for perm in chosen}
        return SemidirectSeries(basis, cap, terms)

    for _ in range(6):
        u, v = random_element(), random_element()
        # The reference multiplies the normal forms, as the product does.
        raw_u = {perm: as_dict(series) for perm, series in u.terms.items()}
        raw_v = {perm: as_dict(series) for perm, series in v.terms.items()}
        product = u * v
        assert product.terms == ref_normal_form(basis, cap, ref_mul(raw_u, raw_v, alph, cap))
        assert_all_fractions(product)


def test_image_cache_is_bounded():
    cache = reps._drinfeld_images
    size = cache.cache_info().maxsize
    assert size == reps._rho3_images.cache_info().maxsize == 32
    cache.cache_clear()
    w = WeldedWord(3, (sigma(2), sigma(1, -1)))
    assocs = [ab_commutator(2).scale(Fraction(1, k)).exp() for k in range(1, size + 6)]
    for built, assoc in enumerate(assocs, start=1):
        eval_drinfeld(w, assoc, 2)
        assert cache.cache_info().currsize == min(built, size)
    assert cache.cache_info().misses == len(assocs)
    # The newest image set is kept; the oldest was evicted.
    eval_drinfeld(w, assocs[-1], 2)
    assert cache.cache_info().hits == 1
    # An evicted image set is rebuilt on demand and gives the same value.
    basis = build_graded_basis(infinitesimal_artin(3), 2)
    images = drinfeld_reference_images(3, 2, assocs[0])
    assert_matches_reference(eval_drinfeld(w, assocs[0], 2), basis, 2, images, w.letters)
    assert cache.cache_info().misses == len(assocs) + 1


def test_series_hash_is_computed_once():
    assoc = psi24(4)
    eval_drinfeld(WeldedWord(3, (sigma(1),)), assoc, 4)
    assert assoc._hash is not None
    assert assoc._hash == hash(psi24(4))
    assert hash(one(AB, 4)) != hash(assoc)

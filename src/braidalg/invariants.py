"""Finite-type machinery for welded braids.

The group ring of the braid-permutation group carries the filtration by
powers of the ideal generated by sigma_i - s_i; the universal representation
into the oriented braid algebra identifies its associated graded with the
graded oriented algebra, so the filtration order of an element is read off
as the vanishing order of its image.  This module computes those orders,
distinguishes welded words by truncated invariants with the automorphism
oracle as cross-check (both fold and reduce the image degree by degree and
stop at the order they return; distinguish keeps its answers per pair of
middles), compares the chord and oriented graded algebras through the map
t_ij -> v_ij + v_ji, written once on the letters and ranked on Lyndon
brackets' images (:mod:`braidalg.lyndon`), and tabulates dimensions.
"""

from __future__ import annotations

import random
from functools import cache, lru_cache, partial
from math import factorial

from .linalg import affine_solve
from .lyndon import bracket_image, lyndon_words
from .quotient import (
    GradedQuotientBasis,
    build_graded_basis,
    hilbert_row,
    infinitesimal_artin,
    oriented_artin,
)
from .reps import fold_welded
from .sdseries import SemidirectSeries, _normalized, lowest_degree
from .series import TruncatedSeries, scaled_substitute
from .value import Record
from .words import (
    GroupRingElement,
    WeldedWord,
    WordError,
    a as a_token,
    s as s_token,
    sigma as sigma_token,
    words_equal_in_bp,
)


def eval_group_ring(xi: GroupRingElement, cap: int, cache_dir=None) -> SemidirectSeries:
    """Linear extension of the welded representation to the group ring, reduced once.

    Every degree-d coefficient of a word's image lies in (1/d!) Z, since
    1/(k_1! ... k_m!) = multinomial(d; k)/d! for the letters' exponentials,
    so the element is summed in integers over q d!, q the lcm of its
    coefficients' denominators (:func:`braidalg.reps.fold_welded`), folded
    through the cap and reduced to normal form once, every degree.
    """
    return _normalized(*fold_welded(xi.n, cap, xi.terms.items(), cache_dir))


class FiltrationReport(Record):
    """An element, its cap, its image, and its vanishing order (None = above the cap).

    The third field is the image, or a function of no arguments that
    computes it.  ``image`` reads it: the image is normalized on first read
    and kept, so at most once, and never when only ``order`` is read.
    """

    __slots__ = ("element", "cap", "_image", "order")

    @property
    def image(self) -> SemidirectSeries:
        image = self._image
        if callable(image):
            image = self._image = image()
        return image

    @property
    def above_cap(self) -> bool:
        return self.order is None


def vassiliev_degree(xi: GroupRingElement, cap: int, cache_dir=None) -> FiltrationReport:
    """Least degree with a nonzero image component across all permutation parts.

    xi is folded once in integers (:func:`braidalg.reps.fold_welded`),
    degree by degree as the degrees are read; the order is read by reducing
    the fold from degree 0 upward and stopping at the first nonzero degree
    (:func:`braidalg.sdseries.lowest_degree`), so no degree above the order
    is folded or reduced to find it.  The report's image, equal to
    ``eval_group_ring(xi, cap)``, continues the same fold through the cap
    and is normalized on its first read.
    """
    folded = fold_welded(xi.n, cap, xi.terms.items(), cache_dir)
    return FiltrationReport(xi, cap, partial(_normalized, *folded), lowest_degree(*folded))


class DistinguishReport(Record):
    """The cap, the first degree where the images differ (None = equal to the cap), the oracle's verdict."""

    __slots__ = ("cap", "first_difference_degree", "oracle_equal")

    @property
    def images_equal_to_cap(self) -> bool:
        return self.first_difference_degree is None


def _common_prefix_length(x: tuple, y: tuple) -> int:
    return next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))


def distinguish(w1: WeldedWord, w2: WeldedWord, cap: int, cache_dir=None) -> DistinguishReport:
    """First degree where truncated invariants differ, plus the exact verdict.

    Only the middles m1, m2 of w1 = P m1 S and w2 = P m2 S are evaluated, P
    and S the longest common prefix and suffix.  The fold gives img(w) =
    img(P) img(m) img(S), and img(P), img(S) are single terms g (x) pi with
    constant term 1.  Multiplying by such a unit on either side, with its
    relabelling of strands, is invertible and keeps the lowest nonzero
    degree of the normal form, through any cap: the relation ideal is
    homogeneous, two-sided and stable under relabelling.  Truncating the
    fold commutes with the fold, so degrees 0..d of the difference are
    those of its fold through degree d: the difference of the middles is
    folded once, degree by degree from 0, and reduced as it goes
    (:func:`braidalg.sdseries.lowest_degree`); its first nonzero degree is
    the answer, and no degree above it is folded or reduced.  The
    Aut(F_n) oracle sees the middles too: in a group, P m1 S = P m2 S if and
    only if m1 = m2.  It compares their strand permutations before their
    automorphisms (:func:`braidalg.words.words_equal_in_bp`), which is
    exact because the permutation is a function of the automorphism.  Degree
    0 of a word's image is 1 (x) its permutation, so the pairs whose
    difference starts at degree 0 are the pairs the oracle settles without
    composing automorphisms.

    Both answers are kept per process in a memo of at most 1,024 entries,
    keyed by (cap, m1, m2, cache_dir) (:func:`_middles`).  A hit is exact:
    both answers are functions of the cap and the middles alone, which are
    immutable and carry n.  And a hit touches no file that the first call
    did not: that call already built the basis through the cap from the
    same cache_dir, and a built basis stays built for the life of the
    process.
    """
    if w1.n != w2.n:
        raise WordError(f"strand mismatch: {w1.n} vs {w2.n}")
    p = _common_prefix_length(w1.letters, w2.letters)
    s = _common_prefix_length(w1.letters[p:][::-1], w2.letters[p:][::-1])
    m1, m2 = (WeldedWord(w.n, w.letters[p : len(w.letters) - s]) for w in (w1, w2))
    return DistinguishReport(cap, *_middles(cap, m1, m2, cache_dir))


@lru_cache(maxsize=1024)
def _middles(cap: int, m1: WeldedWord, m2: WeldedWord, cache_dir) -> tuple:
    """(first degree where the middles' images differ, oracle verdict on them): :func:`distinguish`'s memo."""
    order = lowest_degree(*fold_welded(m1.n, cap, [(m1, 1), (m2, -1)], cache_dir))
    return order, words_equal_in_bp(m1, m2)


# -- the chord-to-oriented comparison map ----------------------------------------


def delta_map(s: TruncatedSeries, target: GradedQuotientBasis) -> TruncatedSeries:
    """t_ij -> v_ij + v_ji on the letters (:func:`_delta_forms`), then the target's normal form."""
    alph = s.alphabet
    if alph.kind != "chord" or target.alphabet.kind != "oriented" or alph.n != target.alphabet.n:
        raise WordError("delta maps a chord series into the oriented quotient of the same n")
    image = scaled_substitute(s.scaled, _delta_forms(alph.n), 1, s.cap)
    return target.normal_form(TruncatedSeries(target.alphabet, s.cap, image))


@cache
def _delta_forms(n: int) -> tuple:
    """delta on the letters: the form v_ij + v_ji of each t_ij, in the chord alphabet's order."""
    gen = oriented_artin(n).alphabet.gen
    return tuple(((gen(i, j), 1), (gen(j, i), 1)) for i, j in infinitesimal_artin(n).alphabet.pairs)


class DeltaKernelReport(Record):
    """Strands n, the degree, dim chord(n) in that degree, and the dimension of delta's kernel there."""

    __slots__ = ("n", "degree", "domain_dimension", "kernel_dimension")

    @property
    def injective(self) -> bool:
        return self.kernel_dimension == 0


@cache
def _image_rank(n: int, d: int) -> int:
    """dim delta(t_n)_d from the Lyndon basis of t_n = F(t_1n, ..., t_(n-1)n) x| t_(n-1), reduced in o_n."""
    forms, preset, chord = _delta_forms(n), oriented_artin(n), infinitesimal_artin(n).alphabet
    columns = []
    for top in range(2, n + 1):
        letters = tuple(forms[chord.gen(i, top)] for i in range(1, top))
        columns += [bracket_image(w, letters, preset) for w in lyndon_words(top - 1, d)]
    return len(columns) - len(affine_solve(columns)[1])


def _pbw_dimension(ranks: list, k: int) -> int:
    """[t^k] prod_d (1 - t^d)^(-ranks[d - 1]): dim U(L)_k, L a Lie algebra of those ranks."""
    coeffs = [1] + [0] * k
    for d, r in enumerate(ranks, 1):
        for _ in range(r):
            for j in range(d, k + 1):
                coeffs[j] += coeffs[j - d]
    return coeffs[k]


def delta_kernel(n: int, k: int, cache_dir=None) -> DeltaKernelReport:
    """Exact kernel dimension of delta on degree k: dim chord(n)_k - dim U(delta(t_n))_k.

    delta = U(f) for the Lie map f: t_n -> o_n (Milnor-Moore), so its image is
    U(f(t_n)), of dimension [t^k] prod_d (1 - t^d)^(-dim f(t_n)_d) by PBW.
    """
    domain = build_graded_basis(infinitesimal_artin(n), k, cache_dir).dimension(k)
    build_graded_basis(oriented_artin(n), k, cache_dir)
    image = _pbw_dimension([_image_rank(n, d) for d in range(1, k + 1)], k)
    return DeltaKernelReport(n, k, domain, domain - image)


# -- dimension tables ---------------------------------------------------------------


class HilbertTable(Record):
    """Graded dimensions side by side: n, cap, chord_dims, oriented_dims, weight_factor (n!, dim Q[S_n])."""

    __slots__ = ("n", "cap", "chord_dims", "oriented_dims", "weight_factor")

    def rows(self):
        yield ("degree", list(range(self.cap + 1)))
        yield ("chord", self.chord_dims)
        yield ("oriented", self.oriented_dims)
        yield ("chord weight systems", [d * self.weight_factor for d in self.chord_dims])
        yield ("oriented weight systems", [d * self.weight_factor for d in self.oriented_dims])


def hilbert_table(n: int, cap: int, cache_dir=None) -> HilbertTable:
    return HilbertTable(
        n,
        cap,
        hilbert_row(infinitesimal_artin(n), cap, cache_dir),
        hilbert_row(oriented_artin(n), cap, cache_dir),
        factorial(n),
    )


# -- the splitting identity ----------------------------------------------------------


class SplittingCase(Record):
    """A case's description, its orders without and with the permutation factor, and its verdict."""

    __slots__ = ("description", "order_plain", "order_twisted", "passed")


class SplittingReport(Record):
    """Strands n, the cap, and the list of SplittingCase."""

    __slots__ = ("n", "cap", "cases")

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)


def _random_conjugating_word(rng: random.Random, n: int, max_len: int) -> WeldedWord:
    letters = []
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for _ in range(rng.randint(1, max_len)):
        i, j = rng.choice(pairs)
        letters.append(a_token(i, j, rng.choice((1, -1))))
    return WeldedWord(n, letters)


def _random_permutation_word(rng: random.Random, n: int, max_len: int) -> WeldedWord:
    letters = tuple(s_token(rng.randint(1, n - 1)) for _ in range(rng.randint(0, max_len)))
    return WeldedWord(n, letters)


def check_splitting_identity(n: int, cap: int, samples: int, seed: int = 0, cache_dir=None) -> SplittingReport:
    """Permutation factors do not change vanishing orders; a_ij - 1 has order 1.

    Samples (c - 1)^k for conjugating words c and compares the order of
    (c - 1)^k s against (c - 1)^k; also pins the order of every a_ij - 1.
    """
    if n < 2:
        raise ValueError(f"the splitting identity needs n >= 2 strands, got n = {n}")
    if cap < 1:
        raise ValueError(f"the a_ij - 1 cases have order 1 and need cap >= 1, got cap = {cap}")
    if samples < 0:
        raise ValueError(f"the splitting identity needs samples >= 0, got samples = {samples}")
    rng = random.Random(seed)
    cases = []
    unit = GroupRingElement.one(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            elt = GroupRingElement.from_word(WeldedWord(n, (a_token(i, j),))) - unit
            order = vassiliev_degree(elt, cap, cache_dir).order
            cases.append(SplittingCase(f"a{i}{j} - 1", order, order, order == 1))
    for _ in range(samples):
        c = _random_conjugating_word(rng, n, 3)
        sw = _random_permutation_word(rng, n, 3)
        k = rng.randint(1, min(3, cap))
        base = (GroupRingElement.from_word(c) - unit) ** k
        twisted = base * GroupRingElement.from_word(sw)
        order_plain = vassiliev_degree(base, cap, cache_dir).order
        order_twisted = vassiliev_degree(twisted, cap, cache_dir).order
        cases.append(
            SplittingCase(
                f"(({c.text()}) - 1)^{k} * [{sw.text()}]",
                order_plain,
                order_twisted,
                order_plain == order_twisted,
            )
        )
    return SplittingReport(n, cap, cases)


# -- random words (exported; the property tests draw from them) -----------------------


def random_welded_word(rng: random.Random, n: int, length: int) -> WeldedWord:
    letters = []
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for _ in range(length):
        kind = rng.choice(("a", "s", "sigma"))
        if kind == "a":
            i, j = rng.choice(pairs)
            letters.append(a_token(i, j, rng.choice((1, -1))))
        elif kind == "s":
            letters.append(s_token(rng.randint(1, n - 1)))
        else:
            letters.append(sigma_token(rng.randint(1, n - 1), rng.choice((1, -1))))
    return WeldedWord(n, letters)

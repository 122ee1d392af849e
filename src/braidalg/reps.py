"""Universal representations into (oriented) braid algebras.

Three families are evaluated on words:

* the welded family  a(i,j) -> exp(v_ij) (x) id,  s(i) -> 1 (x) s_i,
  sigma(i) -> exp(v_{i,i+1}) (x) s_i,   landing in the oriented braid algebra;
* the associator-driven family on braid words, sigma_1 -> exp(t_12/2) (x) s_1
  and sigma_{i>1} conjugated by Phi(sum_{j<i} t_ji, t_{i,i+1});
* the 3-strand family parametrized by a group-like series Psi normalized in
  degree one, defined on sigma_1 and the fundamental element Delta.

The welded family's letters are stored once per strand count as
closed-form data: each image is exp(+-v_g) (x) pi, pi the identity or
s_i.  :func:`fold_welded` folds a linear combination of welded words as
products of letter exponentials, degree d held in integers over d!:
1/(k_1! ... k_m!) = multinomial(d; k)/d!, so multiplying by exp(+-v_g) is
a binomial convolution in integers, with no series multiplied.  The fold
goes degree by degree: one walk over a word's letters gives its relabelled
exponentials and its permutation, degree d of every prefix of the word
comes from the prefixes' lower degrees, and a degree of the sum is
computed only when it is first read.  So a reader that stops at the
lowest nonzero degree folds nothing above it.  :func:`fold_welded` builds
the oriented basis too, and is the one way into the welded family.

The associator families' letters are products of Phi(x, y)^+-1 and exp(s x)
over sums of strands, as the axioms' residuals are
(:mod:`braidalg.associator`); :func:`factor_product` evaluates both from
factor tuples in scaled integers.  A parameter's inverse and its (AE)
defect are each kept for the last series (:func:`_inverse`,
:func:`ae_defect`), so one series at one cap is inverted and logged once.
Each family keeps the letters of its 32 most recent parameter series, as
tuples of factors ``{pi: scaled series}``.  No letter's image is inverted:
the 3-strand family's sigma_2^-1 is folded as sigma_1 Delta^-1 sigma_1,
where Delta^-1 needs no inverse.  Their words are the product of the
letters' images, folded in integer arithmetic in the free algebra
(:func:`braidalg.sdseries.fold`).  Every family reduces a word's image to
quotient normal form once at the end; the result is identical to reducing
eagerly after every product, at a fraction of the cost.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import cache, lru_cache
from math import comb, factorial, lcm

from .perms import Permutation
from .quotient import (
    BasisError,
    build_graded_basis,
    infinitesimal_artin,
    oriented_artin,
)
from .sdseries import SemidirectSeries, _fold_scaled, _normalized, fold
from .series import (
    Alphabet,
    CapMismatch,
    ConstantTermError,
    SeriesError,
    TruncatedSeries,
    generator_or_zero,
    lie_defect,
    one,
    require_two_variables,
    scaled_exp_linear,
    scaled_mul,
    scaled_substitute,
    zero,
)
from .value import Record
from .words import Token, WeldedWord, WordError, braid_relations, mccool_relations, sigma as sigma_token


HALF = Fraction(1, 2)


# -- generator images ----------------------------------------------------------


def _require_assoc(family: str, assoc):
    """The associator families are undefined without their parameter series."""
    if assoc is None:
        raise SeriesError(f"the {family} family needs an associator series; none was given")


@cache
def welded_images(n: int) -> dict:
    """{token: (g, c, relabelling)}: the welded family's letters on n strands.

    Every letter's image is exp(c v_g) (x) pi with c = +-1 and pi the
    identity or s_i; s(i) has no exponential.  g is the generator index, or
    None for s(i), and the relabelling is pi's action on generator indices,
    g -> pi.g, or None for the identity.  No image is a series and none
    depends on the cap: a word's image is a product of letter exponentials,
    whose degree-d coefficients all lie in (1/d!) Z, since
    1/(k_1! ... k_m!) = multinomial(d; k)/d!, so the fold writes each
    exponential out in integers over d! (:func:`fold_welded`).
    """
    alph = oriented_artin(n).alphabet
    letters = {}
    for i, j in alph.pairs:
        letters[Token("a", i, j, 1)] = (alph.gen(i, j), 1, None)
        letters[Token("a", i, j, -1)] = (alph.gen(i, j), -1, None)
    for i in range(1, n):
        si = Permutation.transposition(n, i)
        relabel = tuple(alph.permuted(g, si) for g in range(alph.size))
        letters[Token("s", i)] = (None, 0, relabel)
        # sigma_i = a_{i,i+1} s_i, so sigma_i^-1 = s_i a_{i,i+1}^-1.
        letters[Token("sigma", i, 0, 1)] = (alph.gen(i, i + 1), 1, relabel)
        letters[Token("sigma", i, 0, -1)] = (alph.gen(i + 1, i), -1, relabel)
    return letters


@cache
def _signed_binomials(cap: int) -> dict:
    """{c: rows}, rows[d][k] = C(d, k) c^k for c = +-1 and 0 <= k <= d <= cap."""
    rows = tuple(tuple(comb(d, k) for k in range(d + 1)) for d in range(cap + 1))
    return {1: rows, -1: tuple(tuple(-b if k & 1 else b for k, b in enumerate(row)) for row in rows)}


def _word_degree(word: tuple, d: int, binomials: dict, keep: bool) -> dict:
    """Degree d of a word's image a exp(c_1 v_g1) ... exp(c_m v_gm), its numerators over d!.

    word is (a, ((g_1, c_1), ...), prefixes), prefixes[j][t] the degree-j
    numerators of the product of its first t exponentials, for every j < d.
    1/(i! k!) = C(i + k, k)/(i + k)!, so degree d of a prefix times
    exp(c v_g) is degree d of the prefix plus sum_{k >= 1} C(d, k) c^k
    (degree d - k) v_g^k.  With ``keep`` the prefixes' degree-d slices are
    kept for degree d + 1; a kept slice is copied before it is changed.
    """
    a, exps, prefixes = word
    if not d:
        cur = {(): a}
        if keep:
            prefixes.append([cur] * len(exps))
        return cur
    cur, kept = {}, []
    for t, (g, c) in enumerate(exps):
        if keep:
            kept.append(cur)
        owned = not keep
        row = binomials[c][d]
        for k in range(1, d + 1):
            src = prefixes[d - k][t]
            if not src:
                continue
            if not owned:
                cur, owned = dict(cur), True
            get = cur.get
            m = row[k]
            tail = (g,) * k
            for u, x in src.items():
                w = u + tail
                v = get(w, 0) + m * x
                if v:
                    cur[w] = v
                else:
                    del cur[w]
    if keep:
        prefixes.append(kept)
    return cur


class _WeldedDegrees:
    """Degree k of one permutation's part of a welded fold, ``(q k!, {word: int})``, on first read.

    The words are the combination's words whose permutation it is, each
    ``(a, exponentials, prefixes)`` for :func:`_word_degree`, a/q its
    coefficient.  Reading degree k computes every degree up to k not yet
    computed, each from the words' prefixes below it, and keeps it; once
    the cap is computed the prefixes go.  Degrees are computed under a
    lock, so threads reading one fold compute each degree once.
    """

    __slots__ = ("cap", "q", "binomials", "words", "sums", "lock")

    def __init__(self, cap: int, q: int, binomials: dict):
        self.cap, self.q, self.binomials = cap, q, binomials
        self.words, self.sums, self.lock = [], [], threading.Lock()

    def __iter__(self):
        return map(self.__getitem__, range(self.cap + 1))

    def __getitem__(self, k: int) -> tuple:
        sums = self.sums
        if len(sums) <= k:
            with self.lock:
                while len(sums) <= k:
                    sums.append(self._degree(len(sums)))
        return sums[k]

    def _degree(self, d: int) -> tuple:
        """Degree d of the sum, every lower degree computed; the words' prefixes go at the cap.

        A word with no exponential is a constant, zero above degree 0.
        """
        keep = d < self.cap
        total, owned = {}, True
        for word in self.words:
            if d and not word[1]:
                continue
            sl = _word_degree(word, d, self.binomials, keep)
            if not total:
                total, owned = sl, False
                continue
            if not owned:
                total, owned = dict(total), True
            get = total.get
            for w, x in sl.items():
                v = get(w, 0) + x
                if v:
                    total[w] = v
                else:
                    del total[w]
        if not keep:
            self.words = ()
        return self.q * factorial(d), total


@cache
def _strand_permutation(n: int, relabel: tuple) -> Permutation:
    """The permutation x of the n strands whose action on oriented generator indices is relabel."""
    alph = oriented_artin(n).alphabet
    return Permutation(alph.pairs[relabel[alph.gen(i, i % n + 1)]][0] for i in range(1, n + 1))


def fold_welded(n: int, cap: int, combination, cache_dir=None) -> tuple:
    """(basis, cap, raw): sum c * (image of w) over ``[(w, c), ...]``, folded and not yet reduced.

    basis is the oriented basis on n strands through the cap, and raw is
    {pi: scaled series} in the free algebra: these are the arguments of
    ``sdseries._normalized`` and :func:`braidalg.sdseries.lowest_degree`.
    A word's image is the product of its letters' exponentials exp(+-v_g),
    each relabelled by the permutation of the letters before it; one walk
    over its letters gives those exponentials and its permutation.  Each
    word is folded in integers, degree d over d!, from the constant q c, q
    the lcm of the coefficients' denominators, and the words of each
    permutation are summed over q d!.  The fold goes degree by degree, and a
    degree is computed when it is first read (:class:`_WeldedDegrees`): a
    reader that stops at degree k folds nothing above k.
    """
    return build_graded_basis(oriented_artin(n), cap, cache_dir), cap, _welded_raw(n, cap, combination)


def _welded_raw(n: int, cap: int, combination) -> dict:
    """:func:`fold_welded`'s raw, {pi: :class:`_WeldedDegrees`}, with no degree computed yet."""
    alph, letters = oriented_artin(n).alphabet, welded_images(n)
    combination = list(combination)
    q = lcm(*(c.denominator for _, c in combination))
    binomials = _signed_binomials(cap)
    identity = tuple(range(alph.size))
    total: dict = {}
    for w, c in combination:
        exps = []
        relabelled = identity
        for t in w.letters:
            g, sign, relabel = letters[t]
            if g is not None:
                exps.append((relabelled[g], sign))
            if relabel is not None:
                relabelled = tuple([relabelled[h] for h in relabel])
        degrees = total.get(relabelled)
        if degrees is None:
            degrees = total[relabelled] = _WeldedDegrees(cap, q, binomials)
        degrees.words.append((c.numerator * (q // c.denominator), exps, []))
    return {_strand_permutation(n, relabelled): degrees for relabelled, degrees in total.items()}


def eval_welded(w: WeldedWord, cap: int, cache_dir=None) -> SemidirectSeries:
    """The representation R_n (x) id evaluated on a welded word, reduced once."""
    return _normalized(*fold_welded(w.n, cap, [(w, 1)], cache_dir))


def _check_braid_word(w: WeldedWord):
    if not w.is_braid_word():
        raise WordError("this family is defined on sigma-only words")


# -- products of Phi and exp factors over strand sums ---------------------------


_FREE_STRANDS = {"12": ((0, 1),), "13": ((0, -1), (1, -1)), "23": ((1, 1),)}


@cache
def strand_form(x: str, n: int, free=False) -> tuple:
    """The strand sum x, e.g. "13+23", as a linear form ((letter, numerator), ...) over 1.

    Over the n-strand chords t_ij is the generator (i, j); with ``free``,
    t12, t13 and t23 are A, -A-B and B in F(A, B) (:mod:`braidalg.associator`).
    """
    alph = None if free else Alphabet.chord(n)
    total: dict = {}
    for label in x.split("+"):
        terms = _FREE_STRANDS[label] if free else ((alph.gen(int(label[0]), int(label[1])), 1),)
        for g, c in terms:
            total[g] = total.get(g, 0) + c
    return tuple((g, c) for g, c in total.items() if c)


@cache
def exp_factor(x: str, s, n: int, cap: int, free=False) -> tuple:
    """exp(s x) for a sum of strands x, in closed form and scaled, built once per cap."""
    return scaled_exp_linear(strand_form(x, n, free), 1, s, cap)


@lru_cache(maxsize=1)
def _inverse(phi: TruncatedSeries) -> tuple:
    """phi^-1, scaled, kept for the last series: one inversion per parameter and cap."""
    return phi.inverse().scaled


def factor_product(factors, phi: TruncatedSeries, n: int, free=False) -> tuple:
    """The product of the factors, left to right, scaled, at phi's cap.

    A factor ("Phi", x, y, k) is phi(x, y)^k with k = +-1, and ("exp", x, s)
    is exp(s x), x and y strand sums (:func:`strand_form`).  phi^-1 is
    :func:`_inverse`'s; in F(A, B), phi(A, B)^k is that power itself.  A Phi
    factor needs phi over two letters, as :func:`braidalg.series.substitute`
    does.
    """
    cap = phi.cap
    product = None
    for factor in factors:
        if factor[0] == "exp":
            value = exp_factor(*factor[1:], n, cap, free)
        else:
            _, x, y, k = factor
            require_two_variables(phi)
            power = phi.scaled if k == 1 else _inverse(phi)
            if free and (x, y) == ("12", "23"):
                value = power
            else:
                forms = (strand_form(x, n, free), strand_form(y, n, free))
                value = scaled_substitute(power, forms, 1, cap)
        product = value if product is None else scaled_mul(product, value, cap)
    return product


# -- the associator families' letters -------------------------------------------


@lru_cache(maxsize=32)
def _drinfeld_images(n: int, cap: int, assoc: TruncatedSeries):
    """{token: {s_i: scaled series}}: sigma_i^+-1 -> Phi(x, t)^-1 exp(+-t/2) Phi(s_i.x, t) (x) s_i.

    That is Phi(x, t)^-1 (exp(+-t/2) (x) s_i) Phi(x, t), t = t_{i,i+1} and
    x = sum_{j<i} t_ji; s_i fixes t.
    """
    if assoc.constant_term != 1:
        raise ConstantTermError("the associator series must have constant term 1")
    if assoc.cap < cap:
        raise CapMismatch(f"associator known to degree {assoc.cap} < cap {cap}")
    phi = assoc.truncated(cap)
    images = {}
    for i in range(1, n):
        si = Permutation.transposition(n, i)
        t = f"{i}{i + 1}"
        x, x_si = ("+".join(f"{j}{h}" for j in range(1, i)) for h in (i, i + 1))
        for sign in (1, -1):
            factors = (("exp", t, sign * HALF),)
            if i > 1:
                factors = (("Phi", x, t, -1), *factors, ("Phi", x_si, t, 1))
            images[Token("sigma", i, 0, sign)] = {si: factor_product(factors, phi, n)}
    return images


def eval_drinfeld(w: WeldedWord, assoc: TruncatedSeries, cap: int) -> SemidirectSeries:
    """The associator-driven representation of a braid word on n strands."""
    _require_assoc("drinfeld", assoc)
    _check_braid_word(w)
    basis = build_graded_basis(infinitesimal_artin(w.n), cap)
    images = _drinfeld_images(w.n, cap, assoc)
    return fold(basis, cap, [(1, [images[t] for t in w.letters])])


def central_element(cap: int) -> TruncatedSeries:
    """T = (t_12 + t_13 + t_23)/2, central in the 3-strand algebra."""
    alph = infinitesimal_artin(3).alphabet
    out = zero(alph, cap)
    for pair in ((1, 2), (1, 3), (2, 3)):
        out = out + generator_or_zero(alph, cap, pair)
    return out.scale(HALF)


@lru_cache(maxsize=1)
def ae_defect(psi: TruncatedSeries) -> TruncatedSeries:
    """The degree-1 part of log psi plus its Lie defect, kept for the last series.

    Zero exactly when psi is group-like and normalized in degree one: the
    (AE) residual and the 3-strand family's precondition (:func:`rho3_parameter`).
    """
    logpsi = psi.log()
    return logpsi.homogeneous_part(1) + lie_defect(logpsi)


def rho3_parameter(psi: TruncatedSeries, cap: int) -> TruncatedSeries:
    """psi truncated to the cap, once the 3-strand family accepts it there.

    The refusals, in order: no series, a negative cap, a series known below
    the cap, a constant term other than 1, then a nonzero :func:`ae_defect`
    at the cap, read first in degree 1 and then in the degrees above.
    """
    _require_assoc("rho3", psi)
    if cap < 0:
        raise BasisError("cap must be >= 0")
    if psi.cap < cap:
        raise CapMismatch(f"parameter known to degree {psi.cap} < cap {cap}")
    psi = psi.truncated(cap)
    if psi.constant_term != 1:
        raise ConstantTermError("need constant term 1")
    defect = ae_defect(psi)
    if defect.min_degree() == 1:
        raise ConstantTermError("need a trivial degree-1 part (log Psi = 0 mod degree 2)")
    if not defect.is_zero():
        raise ConstantTermError("need a group-like series (primitive logarithm)")
    return psi


@lru_cache(maxsize=32)
def _rho3_images(cap: int, psi: TruncatedSeries):
    """{token: (factor, ...)}: each letter's image, the factors folded in its place.

    Delta -> exp(c/2) Psi(t12, t23)^-1 (x) 321, and sigma_2 = sigma_1^-1 Delta
    sigma_1^-1 is folded once.  sigma_2^-1 = sigma_1 Delta^-1 sigma_1 with
    Delta^-1 = Psi(t23, t12) exp(-c/2) (x) 321, whose central exp(-c/2) joins
    the first sigma_1: exp(t12/2) exp(-c/2) = exp(-(t13+t23)/2).
    """
    psi = rho3_parameter(psi, cap)
    s1, w0 = Permutation.transposition(3, 1), Permutation.from_one_line("321")

    def term(perm, *factors):
        return {perm: factor_product(factors, psi, 3)}

    rho_s1, rho_s1_inv = term(s1, ("exp", "12", HALF)), term(s1, ("exp", "12", -HALF))
    delta = term(w0, ("exp", "12+13+23", HALF), ("Phi", "12", "23", -1))
    sigma2 = _fold_scaled(infinitesimal_artin(3).alphabet, cap, [rho_s1_inv, delta, rho_s1_inv])
    return {
        Token("sigma", 1, 0, 1): (rho_s1,),
        Token("sigma", 1, 0, -1): (rho_s1_inv,),
        Token("sigma", 2, 0, 1): (sigma2,),
        Token("sigma", 2, 0, -1): (
            term(s1, ("exp", "13+23", -HALF)), term(w0, ("Phi", "23", "12", 1)), rho_s1
        ),
        "Delta": (delta,),  # not a letter: the factor rho3_delta folds
    }


def eval_rho3(w: WeldedWord, psi: TruncatedSeries, cap: int) -> SemidirectSeries:
    """The 3-strand family: sigma_1 -> exp(t_12/2) (x) s_1, Delta -> exp(T) Psi_t^-1 (x) 321."""
    _require_assoc("rho3", psi)
    _check_braid_word(w)
    if w.n != 3:
        raise WordError("the parametrized family lives on 3 strands")
    basis = build_graded_basis(infinitesimal_artin(3), cap)
    images = _rho3_images(cap, psi)
    return fold(basis, cap, [(1, [f for t in w.letters for f in images[t]])])


def rho3_delta(psi: TruncatedSeries, cap: int) -> SemidirectSeries:
    """Image of the fundamental element Delta = sigma_1 sigma_2 sigma_1."""
    _require_assoc("rho3", psi)
    basis = build_graded_basis(infinitesimal_artin(3), cap)
    return fold(basis, cap, [(1, list(_rho3_images(cap, psi)["Delta"]))])


# -- family axioms ---------------------------------------------------------------


class CheckOutcome(Record):
    """A check's verdict and its details, "" when there are none."""

    __slots__ = ("passed", "details")


class FamilyReport:
    """Named verdicts for (E), (Sigma), (S), (N) and relation fidelity."""

    __slots__ = ("family", "n", "cap", "checks")

    def __init__(self, family: str, n: int, cap: int, checks: dict | None = None):
        self.family = family
        self.n = n
        self.cap = cap
        self.checks = {} if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.checks.values())

    def lines(self):
        for name in ("E", "Sigma", "S", "N", "relations"):
            if name in self.checks:
                outcome = self.checks[name]
                status = "pass" if outcome.passed else "FAIL"
                suffix = f"  ({outcome.details})" if outcome.details else ""
                yield f"{name:>9}: {status}{suffix}"


def _family_generators(family: str, n: int):
    """Tokens whose images pin the family down, with their Sigma_n projections."""
    gens = []
    if family == "welded":
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    gens.append((Token("a", i, j, 1), Permutation.identity(n)))
        for i in range(1, n):
            gens.append((Token("s", i), Permutation.transposition(n, i)))
            gens.append((Token("sigma", i, 0, 1), Permutation.transposition(n, i)))
    else:
        for i in range(1, n):
            gens.append((Token("sigma", i, 0, 1), Permutation.transposition(n, i)))
    return gens


def _family_eval(family: str, n: int, cap: int, assoc):
    """The family's target preset and its evaluator on words."""
    if family == "welded":
        return oriented_artin(n), lambda w: eval_welded(w, cap)
    if family == "drinfeld":
        _require_assoc(family, assoc)
        return infinitesimal_artin(n), lambda w: eval_drinfeld(w, assoc, cap)
    if family == "rho3":
        _require_assoc(family, assoc)
        if n != 3:
            raise WordError("the rho3 family requires n = 3")
        return infinitesimal_artin(3), lambda w: eval_rho3(w, assoc, cap)
    raise WordError(f"unknown family {family!r}")


def check_family_axioms(family: str, n: int, cap: int, assoc=None) -> FamilyReport:
    """Verify (E), (Sigma), (S), (N) and relation fidelity at the given cap."""
    report = FamilyReport(family, n, cap)
    preset, ev = _family_eval(family, n, cap, assoc)
    basis = build_graded_basis(preset, cap)
    gens = _family_generators(family, n)
    images = {t: ev(WeldedWord(n, (t,))) for t, _ in gens}

    # (E): each image is a single group-like term, i.e. its log is primitive
    # in the quotient Hopf algebra.
    failures = []
    for t, _ in gens:
        image = images[t]
        if len(image.terms) != 1:
            failures.append(f"{t.text()}: not a single term")
            continue
        ((_, series),) = image.terms.items()
        if series.constant_term != 1 or not basis.is_primitive(series.log()):
            failures.append(f"{t.text()}: log not primitive")
    report.checks["E"] = CheckOutcome(not failures, "; ".join(failures))

    # (Sigma): permutation parts match the projection to the symmetric group.
    failures = []
    for t, expected in gens:
        image = images[t]
        if set(image.terms) != {expected}:
            failures.append(f"{t.text()}: permutation part != {expected.one_line()}")
    report.checks["Sigma"] = CheckOutcome(not failures, "; ".join(failures))

    # (S): images over n-1 strands embed to the images over n strands.  The
    # 3-strand family's 2-strand member is the Drinfeld family's, whose only
    # image is sigma_1 -> exp(t_12/2) (x) s_1.
    if n <= 2:
        report.checks["S"] = CheckOutcome(True, "no smaller family member")
    else:
        small_family = "drinfeld" if family == "rho3" else family
        _, ev_small = _family_eval(small_family, n - 1, cap, assoc)
        failures = []
        for t, _ in _family_generators(small_family, n - 1):
            small = ev_small(WeldedWord(n - 1, (t,)))
            if small.stabilize(basis) != images[t]:
                failures.append(t.text())
        details = f"stabilization fails: {', '.join(failures)}" if failures else ""
        report.checks["S"] = CheckOutcome(not failures, details)

    # (N): the stated degree-1 normalizations.
    failures = []
    for t, expected_perm in gens:
        ((perm, series),) = images[t].terms.items()
        low = series.truncated(min(1, cap))
        alph = basis.alphabet
        if family == "welded":
            if t.kind == "a":
                want = one(alph, low.cap) + generator_or_zero(alph, low.cap, (t.i, t.j))
            elif t.kind == "s":
                want = one(alph, low.cap)
            else:
                want = one(alph, low.cap) + generator_or_zero(alph, low.cap, (t.i, t.i + 1))
        else:
            want = one(alph, low.cap) + generator_or_zero(alph, low.cap, (t.i, t.i + 1)).scale(HALF)
        if low != basis.normal_form(want):
            failures.append(t.text())
    report.checks["N"] = CheckOutcome(not failures, "; ".join(failures))

    # Relation fidelity: every defining relator maps to 1 (x) id.
    unit = SemidirectSeries.unit(basis, cap)
    failures = []
    if family == "welded":
        relators = mccool_relations(n) + braid_relations(n)
    elif family == "drinfeld":
        relators = braid_relations(n)
    else:
        lhs = WeldedWord(3, (sigma_token(2), sigma_token(1), sigma_token(2)))
        rhs = WeldedWord(3, (sigma_token(1), sigma_token(2), sigma_token(1)))
        relators = [("yang-baxter", lhs * rhs.inverse())]
    for name, relator in relators:
        if ev(relator) != unit:
            failures.append(name)
    report.checks["relations"] = CheckOutcome(
        not failures, "" if not failures else f"failing: {', '.join(failures)}"
    )
    return report

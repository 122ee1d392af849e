"""Semi-associator axioms, the Yang-Baxter checker, and degree-wise extension.

The axioms are transcribed once, here, and nowhere else:

  (AE)  Phi = exp(phi) with phi a Lie series with no degree-1 part;
  (AS)  Phi(t23,t12) = Phi(t12,t23)^-1: swapping A and B sends Phi to Phi^-1;
  (H1)  exp((t12+t13)/2) = (231.Phi_t)^-1 exp(t13/2) (213.Phi_t) exp(t12/2) Phi_t^-1;
  (H3)  exp((t13+t23)/2) = (312.Phi_t) exp(t13/2) (132.Phi_t)^-1 exp(t23/2) Phi_t;
  (P)   Phi(t12,t23+t24) Phi(t13+t23,t34)
            = Phi(t23,t34) Phi(t12+t13,t24+t34) Phi(t12,t23),

with Phi_t = Phi(t12, t23); (H1) and (H3) live in the 3-strand chord algebra,
(P) in the 4-strand one.  Sign conventions for hexagons differ across the
literature; everything downstream derives from the five lines above.  In
code they, and (YB) below, are one table, ``_TERMS``: each residual a signed
sum of products of factors Phi(x, y)^+-1 and exp(x), x and y sums of
strands.  Every residual and every column of the solve is read off it.
A residual's products are evaluated by :func:`braidalg.reps.factor_product`,
the evaluator that builds the Drinfeld and 3-strand families' letters from
the same factors, in the scaled-integer kernel of :mod:`braidalg.series`,
on the stored degrees of Phi and Phi^-1; each exp(s x) is the closed form
sum_k s^k x^k / k! of a linear x, built once per cap.
The (AE) residual is the degree-1 part of log Phi plus its Lie defect,
:func:`braidalg.series.lie_defect`: the one Dynkin test, which also decides
``is_lie_element``, the 3-strand family's precondition and
``GradedQuotientBasis.is_primitive``.

Semi-associators are built by :func:`extension_steps`, the one extension
loop (a degree at a time, with one degree of lookback); the bootstrap and the
CLI's ``extend-associator`` both run it.  At the new top degree d the
unknown enters (AS) and (H3) linearly (Bar-Natan's degree-by-degree method):
adding a perturbation p of degree d or d-1 >= 2 to a candidate with no
degree-1 part changes the top slice of each residual as much as adding it to
1 does, since a degree-d term takes p from at most one factor and only the
parts of degree 0 and 1 from the others, which the candidate shares with 1.
So a solve evaluates the candidate's own residual, and per perturbation the
derivative at 1 of the top slice, read off the axioms above.

The hexagons are evaluated in the free algebra F(A, B), not in chord(3).
c = t12 + t13 + t23 is central in chord(3), and chord(3) = Q[c] (x) F(t12, t23)
(Drinfeld, Leningrad Math. J. 2, 1991; Bar-Natan, Selecta Math. 4, 1998):
t12 -> A, t23 -> B and t13 -> c - A - B.  When Phi passes (AE), log Phi is a
sum of brackets, from which a central summand of an argument drops out, so
each Phi factor lives in F(A, B): 312.Phi_t = Phi(t13, t12) = Phi(-A-B, A),
132.Phi_t = Phi(-A-B, B), 231.Phi_t = Phi(B, -A-B), 213.Phi_t = Phi(A, -A-B).
Each exponential splits off exp(c/2) or nothing: exp(t13/2) =
exp(c/2) exp(-(A+B)/2), and the left-hand sides are exp(c/2) exp(-A/2) for
(H3) and exp(c/2) exp(-B/2) for (H1).  Since exp(c/2) is central, each
hexagon residual is exp(c/2) r(t12, t23), with r the residual in F(A, B) of

  (H1)  exp(-B/2) = Phi(B,-A-B)^-1 exp(-(A+B)/2) Phi(A,-A-B) exp(A/2) Phi(A,B)^-1;
  (H3)  exp(-A/2) = Phi(-A-B,A) exp(-(A+B)/2) Phi(-A-B,B)^-1 exp(B/2) Phi(A,B).

:func:`check_axiom` evaluates r: r = 0 settles the verdict with no
reduction, and otherwise it reports the chord(3) normal form of
exp(c/2) r(t12, t23), the one the chord product would give.  A series that
fails (AE) is evaluated over the chords and reduced.  The (AE) residual is
kept for the last series and cap, so a run that checks (AE) and both
hexagons on one series takes its log once.

The braid relation of the 3-strand family reduces the same way.  There
sigma_1 -> exp(t12/2) (x) s1 and Delta -> exp(c/2) Psi_t^-1 (x) 321, with Psi
group-like and no degree-1 part (the family's precondition), and
sigma_2 = sigma_1^-1 Delta sigma_1^-1.  A permutation pi acts on a series by
t_ij -> t_pi(i)pi(j), and (u (x) g)(v (x) h) = u (g.v) (x) gh.  s1 sends
Psi(t12, t23) to Psi(t12, t13), and s1 321 sends t12 to t13, so

  rho(sigma_2) = exp(-t12/2) exp(c/2) Psi(t12,t13)^-1 exp(-t13/2) (x) s2,

and s2 sends t12 to t13 while s2 s1 sends (t12, t13, t23) to (t13, t23, t12):

  rho(sigma_2 sigma_1 sigma_2) = exp(c) exp(-t12/2) Psi(t12,t13)^-1 exp(-t13/2)
                                 Psi(t13,t23)^-1 exp(-t23/2) (x) 321.

With t13 = c - A - B the Psi factors become Psi(A,-A-B)^-1 and
Psi(-A-B,B)^-1 as above, and exp(-t13/2) = exp(-c/2) exp((A+B)/2).  So
rho(sigma_2 sigma_1 sigma_2) - rho(Delta) = exp(c/2) r(t12, t23) (x) 321, with
r the residual in F(A, B) of

  (YB)  Psi(A,B)^-1 = exp(-A/2) Psi(A,-A-B)^-1 exp((A+B)/2) Psi(-A-B,B)^-1 exp(-B/2).

exp(c/2) is a unit of chord(3), so the defect vanishes through the cap iff
r does, and both first fail in the same degree.  :func:`check_yang_baxter`
evaluates r: r = 0 is a pass with no chord(3) work, and a failing Psi
reports the chord(3) normal form of exp(c/2) r(t12, t23) (x) 321, reduced
as the hexagons' residuals are.

The solve reads its columns off the same products, to first order.  Near
1, Phi(x, y)^k = 1 + k p(x, y), so along p a signed product moves by the
sum over its Phi factors of sign k E p(x, y) E', E and E' the exp factors
on either side.  In degree d a p of degree d meets only their constant
terms, giving sum sign k p(x, y), and a p of degree d-1 only their
degree-1 parts, giving sum sign k (l p(x, y) + p(x, y) r), l and r the
sums of the exponents left and right of the factor.  With q = p(A, B),
a = p(-A-B, A) and b = p(-A-B, B), the images of p under 312 and 132 with
c dropped, the columns are

  (AS)  swap(p) + p      for p of degree d, and 0 for p of degree d-1;
  (H3)  a - b + q        for p of degree d, and
        (-a A + (A+B) b - b B - A q) / 2   for p of degree d-1.

Over the chords the exponents keep c, and the second (H3) column has one
more term, c (a - b + q) / 2.  A perturbation of degree d-1 is a kernel
vector of the degree below, whose column a - b + q is zero, so that term
vanishes.

Only Lyndon rows are kept.  Every top slice in the solve is a Lie element:
the candidate's (H3) residual, which vanishes below d, so that its top
slice is that of the group-like lhs^-1 rhs minus 1; a degree-d column,
the image of the Lie element p under algebra maps that send generators to
Lie elements; swap(p) + p; and a lookback column, which with
a - b + q = 0 is ([A+B, b] - [A, q]) / 2.  A Lie element of degree d is
determined by its coefficients on the Lyndon words, since the bracketing of
a Lyndon word w is w plus words greater than w (Reutenauer, *Free Lie
Algebras*, 1993, Thm 5.1).  So the rows kept, and the embedding
F(A, B) -> chord(3), are one-to-one on the slices solved over: the linear
relations among the columns and the right-hand side, and so the solution
:func:`braidalg.linalg.affine_solve` returns, are those of the chord(3)
solve.  No slice is reduced.  The columns of a degree's Lie brackets do not
depend on the candidate, so they are built once per degree and process; a
degree revised in the lookback adds only the previous degree's kernel
columns, and its step is read off that one solve (:func:`_revised_step`).

The columns substitute nothing: each image p(x, y) of a Lyndon bracket is
built by :mod:`braidalg.lyndon`, unreduced and kept per map, and a degree-d
column reads only its Lyndon rows, off its factors' images
(:func:`braidalg.lyndon.bracket_rows`).  A lookback perturbation is a kernel
vector, given by its coordinates over the previous degree's Lyndon brackets;
its images are the same combination of theirs, and so, the column being
linear in p, is its column.

The hypotheses (AE), (AS) and (H3) are checked once, on the series
:func:`extension_steps` starts from (:func:`extend_semi_associator` checks
its argument too).  Every candidate built after that meets them by
construction: it is exp of a Lie series, each solve is checked exactly, and
a solve changes only the top slices.  The (AS) part of a solve's right-hand
side is zero, so only the candidate's (H3) residual is evaluated.  A
candidate is exp(phi) with phi a Lie series that has no slice in the top
degree d.  Below d, (AS) holds, and swap is an algebra map, so
exp(swap(phi)) = swap(exp(phi)) = exp(phi)^-1 = exp(-phi) there, and
swap(phi) + phi = 0 below d.  With no degree-d slice that holds through d:
swap(exp(phi)) = exp(-phi) = exp(phi)^-1 exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import lcm

from .linalg import affine_solve
from .lyndon import bracket_image, bracket_rows, bracket_terms, lyndon_words
from .perms import Permutation
from .quotient import build_graded_basis, infinitesimal_artin
from .reps import (
    eval_drinfeld,
    eval_rho3,
    exp_factor,
    factor_product,
    rho3_delta,
    rho3_parameter,
    shared_log,
    strand_form,
)
from .sdseries import SemidirectSeries
from .series import (
    Alphabet,
    ConstantTermError,
    SeriesError,
    TruncatedSeries,
    lie_defect,
    lowest_terms,
    one,
    relabel,
    scale_slice,
    scaled_add,
    scaled_times,
    zero,
)
from .value import Record
from .words import WeldedWord, sigma

AB = Alphabet.abstract("A", "B")
AXIOMS = ("AE", "AS", "H1", "H3", "P")
HALF = Fraction(1, 2)


class AssociatorError(SeriesError):
    pass


class NoCorrectionError(AssociatorError):
    """The candidate meets the hypotheses, but no Lie correction extends it.

    ``kernel`` is the kernel of the degree's bracket columns, which does not
    depend on the candidate.
    """

    def __init__(self, message: str, kernel: list):
        super().__init__(message)
        self.kernel = kernel


class AxiomResult(Record):
    """One axiom's verdict at a cap: axiom, cap, passed, first_failure_degree, residual.

    For "YB" the residual is the chord(3) (x) 321 defect, None on a pass.
    """

    __slots__ = ("axiom", "cap", "passed", "first_failure_degree", "residual")

    def __bool__(self):
        return self.passed


def swap_letters(phi: TruncatedSeries) -> TruncatedSeries:
    """The involution A <-> B of the two-variable algebra."""
    if phi.alphabet != AB:
        raise AssociatorError("expected a series over {A, B}")
    return TruncatedSeries(AB, phi.cap, relabel(phi.scaled, (1, 0)))


def _result(axiom: str, cap: int, residual: TruncatedSeries) -> AxiomResult:
    degree = residual.min_degree()
    return AxiomResult(axiom, cap, residual.is_zero(), degree, residual)


def _prepare(phi: TruncatedSeries, cap: int) -> TruncatedSeries:
    if phi.alphabet != AB:
        raise AssociatorError("associator candidates live over {A, B}")
    if phi.constant_term != 1:
        raise ConstantTermError("associator candidates have constant term 1")
    if phi.cap < cap:
        raise AssociatorError(f"series known to degree {phi.cap} < requested cap {cap}")
    return phi.truncated(cap)


@lru_cache(maxsize=1)
def ae_residual(phi: TruncatedSeries, cap: int) -> TruncatedSeries:
    """Defect of exponential type: degree-1 part of log plus its Lie defect.

    Kept for the last series and cap: the (AE) check and each hexagon's
    verdict on the same series (:func:`check_axiom`) share one log, and the
    3-strand family's precondition on it shares that log too
    (:func:`braidalg.reps.shared_log`).
    """
    logphi = shared_log(_prepare(phi, cap))
    return logphi.homogeneous_part(1) + lie_defect(logphi)


# Each axiom as a signed sum of products, the one transcription of the five
# lines above (and of (YB) below): a factor ("Phi", x, y, k) is Phi(x, y)^k
# with k = +-1, and ("exp", x, s) is exp(s x); x and y are sums of strands,
# "13+23" for t13 + t23.  (P) lives on 4 strands, the others on 3.
_TERMS = {
    "AS": ((1, (("Phi", "23", "12", 1),)), (-1, (("Phi", "12", "23", -1),))),
    "H1": (
        (1, (("Phi", "23", "13", -1), ("exp", "13", HALF), ("Phi", "12", "13", 1),
             ("exp", "12", HALF), ("Phi", "12", "23", -1))),
        (-1, (("exp", "12+13", HALF),)),
    ),
    "H3": (
        (1, (("Phi", "13", "12", 1), ("exp", "13", HALF), ("Phi", "13", "23", -1),
             ("exp", "23", HALF), ("Phi", "12", "23", 1))),
        (-1, (("exp", "13+23", HALF),)),
    ),
    "P": (
        (1, (("Phi", "12", "23+24", 1), ("Phi", "13+23", "34", 1))),
        (-1, (("Phi", "23", "34", 1), ("Phi", "12+13", "24+34", 1), ("Phi", "12", "23", 1))),
    ),
    "YB": (
        (1, (("exp", "12", -HALF), ("Phi", "12", "13", -1), ("exp", "13", -HALF),
             ("Phi", "13", "23", -1), ("exp", "23", -HALF))),
        (-1, (("Phi", "12", "23", -1),)),
    ),
}


def _residual(axiom: str, phi: TruncatedSeries, free=False) -> TruncatedSeries:
    """The axiom's residual at phi's cap: over the chords, not reduced, or in F(A, B).

    With ``free`` a 3-strand residual is the one in F(A, B) whose product
    with exp(c/2) is the chord(3) residual; this needs phi to pass (AE)
    (module docstring).  Each signed product is
    :func:`braidalg.reps.factor_product`'s, sharing phi^-1; signs and sums
    run in the scaled-integer kernel too.
    """
    n, powers = (4 if axiom == "P" else 3), {}
    total = None
    for sign, factors in _TERMS[axiom]:
        product = scaled_times(factor_product(factors, phi, n, free, powers), sign)
        total = product if total is None else scaled_add(total, product)
    return TruncatedSeries(AB if free else Alphabet.chord(n), phi.cap, total)


def _chord3_normal_form(r: TruncatedSeries, cap: int) -> TruncatedSeries:
    """The chord(3) normal form of exp(c/2) r(t12, t23), r in F(A, B); r = 0 reduces nothing."""
    if r.is_zero():
        return zero(Alphabet.chord(3), cap)
    embedded = factor_product((("exp", "12+13+23", HALF), ("Phi", "12", "23", 1)), r, 3)
    basis = build_graded_basis(infinitesimal_artin(3), cap)
    return basis.normal_form(TruncatedSeries(Alphabet.chord(3), cap, embedded))


def check_axiom(phi: TruncatedSeries, axiom: str, cap: int) -> AxiomResult:
    """Check one axiom at the cap; failures carry the lowest failing degree.

    (AS) is evaluated in F(A, B).  A hexagon is too when phi passes (AE), and
    then r = 0 settles the verdict with no reduction; otherwise, and for
    (P), the residual is evaluated over the chords and reduced.
    """
    if axiom == "AE":
        return _result("AE", cap, ae_residual(phi, cap))
    if axiom == "AS":
        return _result("AS", cap, _residual("AS", _prepare(phi, cap), free=True))
    if axiom in ("H1", "H3"):
        if ae_residual(phi, cap).is_zero():
            residual = _chord3_normal_form(_residual(axiom, _prepare(phi, cap), free=True), cap)
        else:
            basis = build_graded_basis(infinitesimal_artin(3), cap)
            residual = basis.normal_form(_residual(axiom, _prepare(phi, cap)))
        return _result(axiom, cap, residual)
    if axiom == "P":
        basis = build_graded_basis(infinitesimal_artin(4), cap)
        return _result("P", cap, basis.normal_form(_residual("P", _prepare(phi, cap))))
    raise AssociatorError(f"unknown axiom {axiom!r}; choose from {AXIOMS}")


def is_semi_associator(phi: TruncatedSeries, cap: int) -> bool:
    return all(check_axiom(phi, ax, cap).passed for ax in ("AE", "AS", "H3"))


# -- degree-by-degree extension ---------------------------------------------------


class ExtensionStep(Record):
    """Affine solution set of Lie corrections at one degree: degree, particular, kernel, base, log, candidate.

    Solutions are coordinates over the bracketings of ``lyndon_words(2,
    degree)``, in that order; the set is particular + span(kernel).  ``log``
    is log(base) lifted to the degree and ``candidate`` its exp, the
    group-like lift of ``base`` before correction.  ``correction`` and
    ``extended`` realize a chosen coordinate vector as a series.
    """

    __slots__ = ("degree", "particular", "kernel", "base", "log", "candidate")

    def __eq__(self, other):
        """Field by field: a step read off a lookback's solve equals the one solved afresh."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.degree == other.degree
            and self.particular == other.particular
            and self.kernel == other.kernel
            and self.base == other.base
            and self.log == other.log
            and self.candidate == other.candidate
        )

    @property
    def kernel_dimension(self) -> int:
        return len(self.kernel)

    def correction(self, coords=None) -> TruncatedSeries:
        """sum_i coords[i] b(w_i), w_i the degree's Lyndon words: summed in integers, as lie_defect."""
        coords = self.particular if coords is None else coords
        den, scaled = scale_slice(dict(zip(_lyndon_set(self.degree), coords)))
        total: dict = {}
        for w, c in scaled.items():
            if c:
                for word, n in bracket_terms(w).items():
                    total[word] = total.get(word, 0) + c * n
        return TruncatedSeries(AB, self.degree, ((1, {}),) * self.degree + (lowest_terms(den, total),))

    def extended(self, coords=None) -> TruncatedSeries:
        """exp(log + correction), the chosen solution as a group-like series.

        The correction is homogeneous of the top degree, so at the cap this
        is candidate + correction exactly.
        """
        return self.candidate + self.correction(coords)


def extend_semi_associator(phi: TruncatedSeries) -> ExtensionStep:
    """Extend a semi-associator valid to degree d = phi.cap by one degree.

    The unknown is a homogeneous Lie element of degree d+1; (AS) and (H3) at
    degree d+1 are affine in it.  Raises naming the axiom and degree when phi
    fails a hypothesis.  Solvability through any finite degree is expected
    since rational associators exist.
    """
    _require_hypotheses(phi)
    return _extend(phi, phi.log())


def _require_hypotheses(phi: TruncatedSeries):
    """Raise naming the axiom and degree unless phi meets (AE), (AS) and (H3) at its cap.

    A series known only to degree 0 is refused first: the extension's
    columns start in degree 2, above the degree-1 normalization of (AE).
    """
    if phi.cap < 1:
        raise AssociatorError(
            "candidate known only to degree 0: extend a series known to degree 1, "
            "where (AE) normalizes it to have no degree-1 part (e.g. 1)"
        )
    for axiom in ("AE", "AS", "H3"):
        result = check_axiom(phi, axiom, phi.cap)
        if not result.passed:
            raise AssociatorError(
                f"candidate fails ({axiom}) at degree {result.first_failure_degree}"
            )


def _extend(phi: TruncatedSeries, log: TruncatedSeries) -> ExtensionStep:
    """:func:`extend_semi_associator` for a phi known to meet the hypotheses, log = log phi."""
    degree = phi.cap + 1
    columns = _bracket_columns(degree)
    # Group-like lift: zero-pad the logarithm, not the series, so the new top
    # slice of the candidate is exp(phi)'s before correction.
    log = log.lifted(degree)
    candidate = log.exp()
    particular, kernel = _solve_top_degree(candidate, columns, degree)
    if particular is None:
        raise NoCorrectionError(f"no Lie correction exists at degree {degree}", kernel)
    return ExtensionStep(degree, particular, kernel, phi, log, candidate)


@cache
def _bracket_columns(degree: int) -> list:
    """The columns of the degree's Lyndon brackets, which no candidate changes."""
    return _columns([{w: 1} for w in _lyndon_set(degree)], degree)


def _solve_top_degree(base: TruncatedSeries, columns: list, degree: int):
    """Coordinates x that cancel the top-degree AS and H3 residual of base + sum x_i p_i.

    base's own (AS) residual is zero (module docstring), so only its (H3)
    residual enters the right-hand side.
    """
    den, residual = _residual_labels(base, degree)
    return affine_solve(columns, (den, {label: -c for label, c in residual.items()}))


@cache
def _lyndon_set(degree: int) -> dict:
    """The degree's Lyndon words in order, as the keys of a dict."""
    return dict.fromkeys(lyndon_words(2, degree))


def _lyndon_rows(axiom: str, scaled: tuple, degree: int) -> tuple:
    """A scaled Lie slice's numerators on the Lyndon words, which determine it; labelled by axiom."""
    lyndon = _lyndon_set(degree)
    den, sl = scaled
    return den, {(axiom, w): c for w, c in sl.items() if w in lyndon}


@cache
def _first_order_terms(axiom: str) -> tuple:
    """Per Phi factor of the axiom: (sign times k, x, y, left, right), and their denominator.

    left and right are the sums, in F(A, B), of the exponents of the exp
    factors on either side of it in its product, as {(letter,): numerator}
    over the one denominator returned second.
    """
    terms = []
    for sign, factors in _TERMS[axiom]:
        for j, factor in enumerate(factors):
            if factor[0] == "Phi":
                left, right = _exponent_sum(factors[:j]), _exponent_sum(factors[j + 1:])
                terms.append((sign * factor[3], factor[1], factor[2], left, right))
    den = lcm(*(c.denominator for term in terms for side in term[3:] for c in side.values()))
    return tuple(
        (s, x, y, *({w: int(c * den) for w, c in side.items()} for side in sides))
        for s, x, y, *sides in terms
    ), den


def _exponent_sum(factors) -> dict:
    """The sum in F(A, B) of the exponents s x of the exp factors, as {(letter,): Fraction}."""
    total: dict = {}
    for factor in factors:
        if factor[0] == "exp":
            for g, c in strand_form(factor[1], 3, True):
                total[(g,)] = total.get((g,), 0) + factor[2] * c
    return {w: c for w, c in total.items() if c}


def _letters(x: str, y: str) -> tuple:
    """The forms of the sums of strands x, y in F(A, B): the letters of the map A, B -> x, y."""
    return strand_form(x, 3, True), strand_form(y, 3, True)


def _bracket_column(w: tuple, degree: int) -> tuple:
    """The column of the Lyndon bracket b(w) in integers, as (denominator, {label: numerator}).

    w has length ``degree``, or ``degree - 1`` >= 2 for a lookback.  Each
    image b(w)(x, y) is the bracket's cached image (module docstring); in
    degree d only its Lyndon rows are formed.
    """
    top = len(w)
    lyndon = _lyndon_set(degree)
    images, parts = {}, []
    for axiom in ("AS", "H3"):
        terms, den = _first_order_terms(axiom)
        rows = dict.fromkeys(lyndon, 0)
        for s, x, y, left, right in terms:
            if top == degree:
                if (x, y) not in images:
                    images[x, y] = bracket_rows(w, _letters(x, y), lyndon)
                for word, n in images[x, y].items():
                    rows[word] += s * n
            elif left or right:  # l p(x, y) + p(x, y) r, read off the first and last letters
                _, image = bracket_image(w, _letters(x, y))
                for word in rows:
                    l, r = left.get(word[:1], 0), right.get(word[-1:], 0)
                    rows[word] += s * (l * image.get(word[1:], 0) + r * image.get(word[:-1], 0))
        parts.append((axiom, 1 if top == degree else den, rows))
    common = lcm(*(den for _, den, _ in parts))
    return common, {
        (axiom, word): n * (common // den)
        for axiom, den, rows in parts
        for word, n in rows.items()
        if n
    }


def _columns(perturbations: list, degree: int) -> list:
    """Column i is the derivative at 1 of the top-degree (AS) and (H3) residual along p_i.

    p_i is given by its coordinates {Lyndon word: c} over the Lyndon
    brackets of degree ``degree``, or of ``degree - 1`` >= 2, and then it
    lies in the previous degree's kernel.  A column is linear in p, so it is
    the same combination of its brackets' columns, each built once and
    added in integers over one denominator.  The module docstring derives
    the columns from the axioms' products, in F(A, B), and why the Lyndon
    rows suffice.
    """
    brackets, columns = {}, []
    for coords in perturbations:
        den, coords = scale_slice(coords)
        for w in coords:
            if w not in brackets:
                brackets[w] = _bracket_column(w, degree)
        common = lcm(*(brackets[w][0] for w in coords))
        total: dict = {}
        for w, c in coords.items():
            bracket_den, column = brackets[w]
            c *= common // bracket_den
            for label, n in column.items():
                total[label] = total.get(label, 0) + c * n
        # Rows in the order of the labels, AS then H3, each in Lyndon order:
        # the solver's pivots follow it, and it keeps their fill-in small.
        columns.append(lowest_terms(den * common, dict(sorted(total.items()))))
    return columns


def _residual_labels(candidate: TruncatedSeries, degree: int) -> tuple:
    """Top-degree (H3) residual in F(A, B) on its Lyndon rows, labelled ("H3", word), scaled."""
    return _lyndon_rows("H3", _residual("H3", candidate, free=True).scaled[degree], degree)


def _revised_step(prev: ExtensionStep, kernel: list) -> ExtensionStep:
    """The next degree's step from the point of prev's solution set that extends.

    A truncated solution need not lift: the affine set at one degree can
    contain dead ends for the next.  Prev's kernel directions enter the next
    degree's residual linearly, as the next degree's brackets do, so one
    solve over both finds a continuable choice.  A kernel direction p of
    degree d-1 moves the candidate by exactly p at degree d (module
    docstring), so the solve's bracket coordinates solve the next degree for
    the revised candidate too.  The solve's solution is supported on columns
    independent of all columns before them, and such a bracket column is
    independent of the brackets before it: so the bracket coordinates are
    the particular solution :func:`_extend` would find, and the step needs
    no second solve.  ``kernel`` is the bracket columns' kernel, which no
    candidate changes.
    """
    degree = prev.degree + 1
    base = (prev.log + prev.correction()).lifted(degree).exp()
    words = _lyndon_set(prev.degree)
    lookback = [{w: c for w, c in zip(words, kvec) if c} for kvec in prev.kernel]
    columns = _bracket_columns(degree)
    solution, _ = _solve_top_degree(base, _columns(lookback, degree) + columns, degree)
    if solution is None:
        raise AssociatorError(
            f"no degree-{prev.degree} choice continues to degree {degree} "
            "within one degree of lookback"
        )
    tcoords, particular = solution[: len(prev.kernel)], solution[len(prev.kernel):]
    coords = [
        p + sum(t * kvec[i] for t, kvec in zip(tcoords, prev.kernel))
        for i, p in enumerate(prev.particular)
    ]
    log = (prev.log + prev.correction(coords)).lifted(degree)
    return ExtensionStep(degree, particular, kernel, prev.extended(coords), log, log.exp())


def extension_steps(phi: TruncatedSeries, to_degree: int):
    """Extend phi degree by degree to to_degree, with one degree of lookback.

    Yields ``(step, extended, revised)`` per new degree: the ExtensionStep,
    its particular solution ``step.extended()``, and whether the previous
    degree's choice was first revised within its solution set because the
    greedy one did not extend (Bar-Natan's degree-by-degree method).  When
    phi itself does not extend, its degree's solution set is rebuilt from
    ``phi.truncated(phi.cap - 1)`` and revised the same way.  phi itself
    must meet the hypotheses, checked once, or it raises; every candidate
    built from it meets them by construction (module docstring).  log phi is
    taken once and carried: each step's is its log plus its correction.
    """
    if phi.cap < to_degree:
        _require_hypotheses(phi)
        log = phi.log()
    prev = None
    while phi.cap < to_degree:
        revised = False
        try:
            step = _extend(phi, log)
        except NoCorrectionError as failure:
            if prev is None:
                # phi is one point of its top degree's solution set, e.g. read
                # from a file; rebuild that set from the degree below.
                prev = _extend(phi.truncated(phi.cap - 1), log.truncated(phi.cap - 1))
            step = _revised_step(prev, failure.kernel)
            revised = True
        phi, log = step.extended(), step.log + step.correction()
        yield step, phi, revised
        prev = step


def bootstrap_semi_associator(to_degree: int) -> TruncatedSeries:
    """Particular semi-associator built from 1 by :func:`extension_steps`."""
    phi = one(AB, 1)
    for _step, phi, _revised in extension_steps(phi, to_degree):
        pass
    return phi


# -- Yang-Baxter and the equivalence report ------------------------------------------


def check_yang_baxter(psi: TruncatedSeries, cap: int) -> AxiomResult:
    """Test rho(Delta) = rho(sigma_2) rho(sigma_1) rho(sigma_2) for the 3-strand family.

    The family's refusals come first, as :func:`braidalg.reps.rho3_parameter`
    orders them.  The difference is exp(c/2) r(t12, t23) (x) 321 with r the
    (YB) residual in F(A, B) (module docstring), so r = 0 settles a pass with
    no chord(3) work, and a failing residual is that product's normal form.
    """
    r = _residual("YB", rho3_parameter(psi, cap), free=True)
    if r.is_zero():
        return AxiomResult("YB", cap, True, None, None)
    basis = build_graded_basis(infinitesimal_artin(3), cap)
    delta = Permutation.from_one_line("321")
    diff = SemidirectSeries.term(basis, cap, _chord3_normal_form(r, cap), delta)
    return AxiomResult("YB", cap, False, diff.min_degree(), diff)


class EquivalenceReport(Record):
    """Yang-Baxter against the axioms: cap, yb, h3, h1, as_, delta_squared_central, drinfeld_compatible.

    The last two are None when not evaluated.  The tests check ``yb_implies_as``,
    YB implies AS, at cap 3 only, on degree-3 perturbations.
    """

    __slots__ = ("cap", "yb", "h3", "h1", "as_", "delta_squared_central", "drinfeld_compatible")

    @property
    def yb_iff_h3(self) -> bool:
        return self.yb.passed == self.h3.passed

    @property
    def h1_iff_h3(self) -> bool | None:
        # The two hexagons are only claimed equivalent in the presence of (AS).
        if not self.as_.passed:
            return None
        return self.h1.passed == self.h3.passed

    @property
    def yb_implies_as(self) -> bool:
        return (not self.yb.passed) or self.as_.passed


def check_equivalences(psi: TruncatedSeries, cap: int) -> EquivalenceReport:
    """The (YB), (H3), (H1) and (AS) verdicts at one cap, and what (YB) gives with them.

    The linear half of "(YB) iff (AS) and (H3)" holds in every degree.  The
    columns' substitutions permute A, B and C = -A - B: p(B, A) is (AB),
    p(C, A) the 3-cycle (A C B), p(C, B) is (AC) and p(A, C) is (BC).  So S3
    acts on each degree L_d of the free Lie algebra, and along a Lie p of
    degree d the first-order columns are elements of Q[S3]: (AS) is
    1 + (AB), (H3) is 1 + (A C B) - (AC), and (YB) is 1 - (BC) - (AC).  In
    the isotypic parts of L_d:

    - trivial part: (YB) acts as -1 and (AS) as 2, so neither kernel meets it;
    - sign part: (YB) acts as 3 and (H3) as 3, so neither kernel meets it;
    - standard part: (AB) + (BC) + (AC) acts as 0, so (YB) acts as
      1 + (AB), as (AS) does, and (H3) vanishes where (AS) does.

    So both kernels are the (AB)-anti-invariant line in each copy of the
    standard representation, one subspace, whose dimension is that
    multiplicity.  The tests check the equality of the two kernels for
    d = 2..10.  The nonlinear statement at a finite cap is another matter:
    Psi5 passes (YB) and (H3) at cap 5 but fails (AS) at degree 5.
    """
    yb = check_yang_baxter(psi, cap)
    h3 = check_axiom(psi, "H3", cap)
    h1 = check_axiom(psi, "H1", cap)
    as_ = check_axiom(psi, "AS", cap)

    delta_central = None
    if yb.passed:
        delta = rho3_delta(psi, cap)
        dsq = delta * delta
        exp_c = TruncatedSeries(Alphabet.chord(3), cap, exp_factor("12+13+23", 1, 3, cap))
        expected = SemidirectSeries.term(delta.basis, cap, exp_c, Permutation.identity(3))
        delta_central = dsq == expected

    compatible = None
    if as_.passed and h3.passed:
        w = WeldedWord(3, (sigma(2),))
        compatible = eval_rho3(w, psi, cap) == eval_drinfeld(w, psi, cap)
    return EquivalenceReport(cap, yb, h3, h1, as_, delta_central, compatible)

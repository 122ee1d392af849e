"""Semi-associator axioms, the Yang-Baxter checker, and degree-wise extension.

The axioms are transcribed once, here, and nowhere else:

  (AE)  Phi = exp(phi) with phi a Lie series with no degree-1 part;
  (AS)  swapping A and B sends Phi to Phi^-1;
  (H1)  exp((t12+t13)/2) = (231.Phi_t)^-1 exp(t13/2) (213.Phi_t) exp(t12/2) Phi_t^-1;
  (H3)  exp((t13+t23)/2) = (312.Phi_t) exp(t13/2) (132.Phi_t)^-1 exp(t23/2) Phi_t;
  (P)   Phi(t12,t23+t24) Phi(t13+t23,t34)
            = Phi(t23,t34) Phi(t12+t13,t24+t34) Phi(t12,t23),

with Phi_t = Phi(t12, t23); (H1) and (H3) live in the 3-strand chord algebra,
(P) in the 4-strand one.  Sign conventions for hexagons differ across the
literature; everything downstream derives from the five lines above.
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
evaluates r: r = 0 is a pass with no chord(3) work, and only a failing Psi is
folded over the chords for the reported defect.

In the solve write q = p(A, B), a = p(-A-B, A) and b = p(-A-B, B), the
images of p under 312 and 132 with c dropped.  Near 1, Phi^-1 = 1 - p, so

  (AS)  swap(p) + p      for p of degree d, and 0 for p of degree d-1;

(H3)'s right-hand side is (1 + a) exp(-(A+B)/2) (1 - b) exp(B/2) (1 + q),
and its left-hand side does not involve Phi, so

  (H3)  a - b + q        for p of degree d, where only the exponentials'
                         constant terms reach degree d, and
        (-a A + (A+B) b - b B - A q) / 2
                         for p of degree d-1, where only their degree-1
                         parts -(A+B)/2 and B/2 do.

Over the chords the second column has one more term, c (a - b + q) / 2.
A perturbation of degree d-1 is a kernel vector of the degree below, whose
column a - b + q is zero, so that term vanishes.

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
columns.

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

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import product
from math import lcm

from .linalg import affine_solve
from .lyndon import lie_basis, lyndon_words
from .perms import Permutation
from .quotient import build_graded_basis, infinitesimal_artin
from .reps import (
    central_element,
    eval_drinfeld,
    eval_rho3,
    rho3_delta,
    rho3_parameter,
    rho3_yang_baxter_defect,
)
from .sdseries import SemidirectSeries
from .series import (
    Alphabet,
    ConstantTermError,
    SeriesError,
    TruncatedSeries,
    generator_or_zero,
    lie_defect,
    lowest_terms,
    one,
    substitute,
    unscale_slice,
    zero,
)
from .words import WeldedWord, sigma

AB = Alphabet.abstract("A", "B")
AXIOMS = ("AE", "AS", "H1", "H3", "P")
HALF = Fraction(1, 2)


class AssociatorError(SeriesError):
    pass


class NoCorrectionError(AssociatorError):
    """The candidate meets the hypotheses, but no Lie correction extends it."""


@dataclass
class AxiomResult:
    axiom: str
    cap: int
    passed: bool
    first_failure_degree: int | None
    residual: TruncatedSeries | None

    def __bool__(self):
        return self.passed


def swap_letters(phi: TruncatedSeries) -> TruncatedSeries:
    """The involution A <-> B of the two-variable algebra."""
    if phi.alphabet != AB:
        raise AssociatorError("expected a series over {A, B}")
    slices = []
    for sl in phi.slices:
        slices.append({tuple(1 - g for g in w): c for w, c in sl.items()})
    return TruncatedSeries(AB, phi.cap, tuple(slices))


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
    verdict on the same series (:func:`_hexagon_normal_form`) share one log.
    """
    logphi = _prepare(phi, cap).log()
    return logphi.homogeneous_part(1) + lie_defect(logphi)


def as_residual(phi: TruncatedSeries, cap: int) -> TruncatedSeries:
    phi = _prepare(phi, cap)
    return swap_letters(phi) - phi.inverse()


def _strands(cap: int, free: bool) -> tuple:
    """t12, t13, t23 over the 3-strand chords, or their images A, -A-B, B in F(A, B)."""
    if not free:
        alph = Alphabet.chord(3)
        return tuple(generator_or_zero(alph, cap, pair) for pair in ((1, 2), (1, 3), (2, 3)))
    a, b = generator_or_zero(AB, cap, 0), generator_or_zero(AB, cap, 1)
    return a, -(a + b), b


@cache
def _hexagon_constants(cap: int, variant: str, free: bool) -> tuple:
    """The three factors of (H1) or (H3) that do not involve Phi: lhs and two exponentials."""
    t12, t13, t23 = _strands(cap, free)
    if variant == "H1":
        return (t12 + t13).scale(HALF).exp(), t13.scale(HALF).exp(), t12.scale(HALF).exp()
    return (t13 + t23).scale(HALF).exp(), t13.scale(HALF).exp(), t23.scale(HALF).exp()


def _hexagon_residual(phi: TruncatedSeries, cap: int, variant: str, free=False) -> TruncatedSeries:
    """rhs - lhs of (H1) or (H3): over the 3-strand chords, not reduced, or in F(A, B).

    With ``free`` the residual is the one in F(A, B) whose product with
    exp(c/2) is the chord(3) residual; this needs phi to pass (AE) (module
    docstring).
    """
    phi = _prepare(phi, cap)
    lhs, exp13, exp_last = _hexagon_constants(cap, variant, free)
    t12, t13, t23 = _strands(cap, free)

    def at(x, y):
        return substitute(phi, x, y)

    phi_t = phi if free else at(t12, t23)
    if variant == "H1":
        rhs = at(t23, t13).inverse() * exp13 * at(t12, t13) * exp_last * phi_t.inverse()
    else:
        rhs = at(t13, t12) * exp13 * at(t13, t23).inverse() * exp_last * phi_t
    return rhs - lhs


def _hexagon_normal_form(phi: TruncatedSeries, cap: int, variant: str) -> TruncatedSeries:
    """The chord(3) normal form of the (H1) or (H3) residual.

    When phi passes (AE) the residual is exp(c/2) r(t12, t23) with r its
    residual in F(A, B), so a zero r settles the verdict with no reduction.
    """
    if ae_residual(phi, cap).is_zero():
        r = _hexagon_residual(phi, cap, variant, free=True)
        if r.is_zero():
            return zero(Alphabet.chord(3), cap)
        t12, t13, t23 = _strands(cap, free=False)
        residual = (t12 + t13 + t23).scale(HALF).exp() * substitute(r, t12, t23)
    else:
        residual = _hexagon_residual(phi, cap, variant)
    return build_graded_basis(infinitesimal_artin(3), cap).normal_form(residual)


def pentagon_residual(phi: TruncatedSeries, cap: int) -> TruncatedSeries:
    """lhs - rhs of (P) in the free algebra on the 4-strand chords; not reduced."""
    phi = _prepare(phi, cap)
    alph = Alphabet.chord(4)

    def t(i, j):
        return generator_or_zero(alph, cap, (i, j))

    lhs = substitute(phi, t(1, 2), t(2, 3) + t(2, 4)) * substitute(phi, t(1, 3) + t(2, 3), t(3, 4))
    rhs = (
        substitute(phi, t(2, 3), t(3, 4))
        * substitute(phi, t(1, 2) + t(1, 3), t(2, 4) + t(3, 4))
        * substitute(phi, t(1, 2), t(2, 3))
    )
    return lhs - rhs


def check_axiom(phi: TruncatedSeries, axiom: str, cap: int) -> AxiomResult:
    """Check one axiom at the cap; failures carry the lowest failing degree."""
    if axiom == "AE":
        return _result("AE", cap, ae_residual(phi, cap))
    if axiom == "AS":
        return _result("AS", cap, as_residual(phi, cap))
    if axiom in ("H1", "H3"):
        return _result(axiom, cap, _hexagon_normal_form(phi, cap, axiom))
    if axiom == "P":
        basis = build_graded_basis(infinitesimal_artin(4), cap)
        return _result("P", cap, basis.normal_form(pentagon_residual(phi, cap)))
    raise AssociatorError(f"unknown axiom {axiom!r}; choose from {AXIOMS}")


def is_semi_associator(phi: TruncatedSeries, cap: int) -> bool:
    return all(check_axiom(phi, ax, cap).passed for ax in ("AE", "AS", "H3"))


# -- degree-by-degree extension ---------------------------------------------------


@dataclass
class ExtensionStep:
    """Affine solution set of Lie corrections at one degree.

    Solutions are coordinates over ``brackets``, the Lyndon bracket basis of
    the degree; the set is particular + span(kernel).  ``log`` is log(base)
    lifted to the degree and ``candidate`` its exp, the group-like lift of
    ``base`` before correction.  ``correction`` and ``extended`` realize a
    chosen coordinate vector as a series.
    """

    degree: int
    brackets: list
    particular: list
    kernel: list
    base: TruncatedSeries
    log: TruncatedSeries
    candidate: TruncatedSeries

    @property
    def kernel_dimension(self) -> int:
        return len(self.kernel)

    def correction(self, coords=None) -> TruncatedSeries:
        coords = self.particular if coords is None else coords
        out = zero(AB, self.degree)
        for c, bracket in zip(coords, self.brackets):
            out = out + bracket.scale(c)
        return out

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
    """Raise naming the axiom and degree unless phi meets (AE), (AS) and (H3) at its cap."""
    for axiom in ("AE", "AS", "H3"):
        result = check_axiom(phi, axiom, phi.cap)
        if not result.passed:
            raise AssociatorError(
                f"candidate fails ({axiom}) at degree {result.first_failure_degree}"
            )


def _extend(phi: TruncatedSeries, log: TruncatedSeries) -> ExtensionStep:
    """:func:`extend_semi_associator` for a phi known to meet the hypotheses, log = log phi."""
    degree = phi.cap + 1
    brackets, columns = _bracket_columns(degree)
    # Group-like lift: zero-pad the logarithm, not the series, so the new top
    # slice of the candidate is exp(phi)'s before correction.
    log = log.lifted(degree)
    candidate = log.exp()
    particular, kernel = _solve_top_degree(candidate, columns, degree)
    if particular is None:
        raise NoCorrectionError(f"no Lie correction exists at degree {degree}")
    return ExtensionStep(degree, brackets, particular, kernel, phi, log, candidate)


@cache
def _bracket_columns(degree: int) -> tuple:
    """The degree's Lyndon brackets and their columns, which no candidate changes."""
    brackets = [bracket for _, bracket in lie_basis(AB, degree, degree)]
    return brackets, _columns(brackets, degree)


def _solve_top_degree(base: TruncatedSeries, columns: list, degree: int):
    """Coordinates x that cancel the top-degree AS and H3 residual of base + sum x_i p_i.

    base's own (AS) residual is zero (module docstring), so only its (H3)
    residual enters the right-hand side.
    """
    rhs = {label: -c for label, c in _residual_labels(base, degree).items()}
    return affine_solve(columns, rhs)


@cache
def _lyndon_set(degree: int) -> frozenset:
    return frozenset(lyndon_words(2, degree))


def _lyndon_rows(axiom: str, sl: dict, degree: int) -> dict:
    """A Lie slice's coefficients on the Lyndon words, which determine it; labelled by axiom."""
    lyndon = _lyndon_set(degree)
    return {(axiom, w): c for w, c in sl.items() if w in lyndon}


def _hexagon_column(p: TruncatedSeries, degree: int, words=None) -> dict:
    """The top slice in F(A, B) of the derivative at 1 of the (H3) residual along p.

    Only its coefficients on ``words`` (by default every word of the degree)
    are formed, each a signed sum of coefficients of a = p(-A-B, A),
    b = p(-A-B, B) and q = p added in integers over one denominator.
    """
    A, minus_ab, B = _strands(degree, free=True)
    top = degree if p.slices[degree] else degree - 1
    a, b = (substitute(p, minus_ab, x).slices[top] for x in (A, B))
    q = p.slices[top]
    if top == degree:
        half = 1

        def reads(w):  # a - b + q
            return (a, w, 1), (b, w, -1), (q, w, 1)

    else:
        half = 2

        def reads(w):  # -a A + (A+B) b - b B - A q, on the prefix and suffix of w
            out = [(b, w[1:], 1), (a if w[-1] == 0 else b, w[:-1], -1)]
            if w[0] == 0:
                out.append((q, w[1:], -1))
            return out

    if words is None:
        words = product(range(2), repeat=degree)
    rows = {w: [(sign, sl[u]) for sl, u, sign in reads(w) if u in sl] for w in words}
    den = lcm(*(c.denominator for row in rows.values() for _, c in row))
    numerators = {
        w: sum(sign * c.numerator * (den // c.denominator) for sign, c in row)
        for w, row in rows.items()
    }
    return unscale_slice(*lowest_terms(den * half, numerators))


def _columns(perturbations: list, degree: int) -> list:
    """Column i is the derivative at 1 of the top-degree (AS) and (H3) residual along p_i.

    Each p_i has degree ``degree``, or ``degree - 1`` >= 2 and then lies in
    the previous degree's kernel; the module docstring derives both cases
    from the axioms, in F(A, B), and why the Lyndon rows suffice.
    """
    columns = []
    for p in perturbations:
        col = {}
        if p.slices[degree]:
            col = _lyndon_rows("AS", (swap_letters(p) + p).slices[degree], degree)
        h3 = _hexagon_column(p, degree, _lyndon_set(degree))
        col.update({("H3", w): c for w, c in h3.items()})
        columns.append(col)
    return columns


def _residual_labels(candidate: TruncatedSeries, degree: int) -> dict:
    """Top-degree (H3) residual in F(A, B) on its Lyndon rows, labelled ("H3", word)."""
    h3 = _hexagon_residual(candidate, degree, "H3", free=True).slices[degree]
    return _lyndon_rows("H3", h3, degree)


def _revised_coordinates(prev: ExtensionStep):
    """Coordinates in prev's solution set from which one more degree extends.

    A truncated solution need not lift: the affine set at one degree can
    contain dead ends for the next.  Prev's kernel directions enter the next
    degree's residual linearly, as the next degree's brackets do, so one
    solve over both finds a continuable choice.
    """
    degree = prev.degree + 1
    base = (prev.log + prev.correction()).lifted(degree).exp()
    kernel = [prev.correction(kvec).lifted(degree) for kvec in prev.kernel]
    columns = _columns(kernel, degree) + _bracket_columns(degree)[1]
    solution, _ = _solve_top_degree(base, columns, degree)
    if solution is None:
        raise AssociatorError(
            f"no degree-{prev.degree} choice continues to degree {degree} "
            "within one degree of lookback"
        )
    tcoords = solution[: len(prev.kernel)]
    return [
        p + sum(t * kvec[i] for t, kvec in zip(tcoords, prev.kernel))
        for i, p in enumerate(prev.particular)
    ]


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
        except NoCorrectionError:
            if prev is None:
                # phi is one point of its top degree's solution set, e.g. read
                # from a file; rebuild that set from the degree below.
                prev = _extend(phi.truncated(phi.cap - 1), log.truncated(phi.cap - 1))
            coords = _revised_coordinates(prev)
            phi, log = prev.extended(coords), prev.log + prev.correction(coords)
            revised = True
            step = _extend(phi, log)
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


@dataclass
class YangBaxterResult:
    cap: int
    passed: bool
    first_failure_degree: int | None
    residual: SemidirectSeries | None

    def __bool__(self):
        return self.passed


def _yang_baxter_residual(psi: TruncatedSeries, cap: int) -> TruncatedSeries:
    """The (YB) residual r in F(A, B) (module docstring).

    rho(sigma_2 sigma_1 sigma_2) - rho(Delta) = exp(c/2) r(t12, t23) (x) 321
    when psi meets the family's precondition at the cap.
    """
    t12, t13, t23 = _strands(cap, free=True)
    inverse = psi.inverse()

    def at(x, y):
        return substitute(inverse, x, y)

    def half_twist_inverse(t):
        return t.scale(-HALF).exp()

    lhs = (
        half_twist_inverse(t12) * at(t12, t13) * half_twist_inverse(t13)
        * at(t13, t23) * half_twist_inverse(t23)
    )
    return lhs - at(t12, t23)


def check_yang_baxter(psi: TruncatedSeries, cap: int) -> YangBaxterResult:
    """Test rho(Delta) = rho(sigma_2) rho(sigma_1) rho(sigma_2) for the 3-strand family.

    The family's refusals come first, as :func:`braidalg.reps.rho3_parameter`
    orders them.  The difference is exp(c/2) r(t12, t23) (x) 321 with r a
    residual in F(A, B) (module docstring), so r = 0 settles a pass with no
    chord(3) work.  Only a failing psi is folded in chord(3), by
    :func:`braidalg.reps.rho3_yang_baxter_defect`, for the reported residual
    and its lowest degree.
    """
    if _yang_baxter_residual(rho3_parameter(psi, cap), cap).is_zero():
        return YangBaxterResult(cap, True, None, None)
    diff = rho3_yang_baxter_defect(psi, cap)
    return YangBaxterResult(cap, False, diff.min_degree(), diff)


@dataclass
class EquivalenceReport:
    """Cross-checks between the Yang-Baxter equation and the axioms."""

    cap: int
    yb: YangBaxterResult
    h3: AxiomResult
    h1: AxiomResult
    as_: AxiomResult
    delta_squared_central: bool | None
    drinfeld_compatible: bool | None

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
    yb = check_yang_baxter(psi, cap)
    h3 = check_axiom(psi, "H3", cap)
    h1 = check_axiom(psi, "H1", cap)
    as_ = check_axiom(psi, "AS", cap)

    delta_central = None
    if yb.passed:
        delta = rho3_delta(psi, cap)
        dsq = delta * delta
        expected = SemidirectSeries.term(
            delta.basis, cap, central_element(cap).scale(2).exp(), Permutation.identity(3)
        )
        delta_central = dsq == expected

    compatible = None
    if as_.passed and h3.passed:
        w = WeldedWord(3, (sigma(2),))
        compatible = eval_rho3(w, psi, cap) == eval_drinfeld(w, psi, cap)
    return EquivalenceReport(cap, yb, h3, h1, as_, delta_central, compatible)

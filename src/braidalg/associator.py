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

Write q = p(t12, t23), a = 312.q and b = 132.q.  Near 1, Phi^-1 = 1 - p, so

  (AS)  swap(p) + p      for p of degree d, and 0 for p of degree d-1;

(H3)'s right-hand side is (1 + a) exp(t13/2) (1 - b) exp(t23/2) (1 + q), and
its left-hand side does not involve Phi, so

  (H3)  a - b + q        for p of degree d, where only the exponentials'
                         constant terms reach degree d, and
        (a (t13+t23) - t13 b - b t23 + (t13+t23) q) / 2
                         for p of degree d-1, where only their degree-1
                         parts t13/2 and t23/2 do.

Only the (H3) column is reduced, once, in the chord algebra.  The columns of
a degree's Lie brackets do not depend on the candidate, so they are built
once per degree and process; a degree revised in the lookback adds only the
previous degree's kernel columns.  The solve itself is
:func:`braidalg.linalg.affine_solve`, in integers.

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
from functools import cache

from .linalg import affine_solve
from .lyndon import lie_basis
from .perms import Permutation
from .quotient import build_graded_basis, infinitesimal_artin
from .reps import central_element, eval_drinfeld, eval_rho3, rho3_delta, rho3_yang_baxter_defect
from .sdseries import SemidirectSeries
from .series import (
    Alphabet,
    ConstantTermError,
    SeriesError,
    TruncatedSeries,
    generator,
    generator_or_zero,
    lie_defect,
    one,
    substitute,
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


def ae_residual(phi: TruncatedSeries, cap: int) -> TruncatedSeries:
    """Defect of exponential type: degree-1 part of log plus its Lie defect."""
    logphi = _prepare(phi, cap).log()
    return logphi.homogeneous_part(1) + lie_defect(logphi)


def as_residual(phi: TruncatedSeries, cap: int) -> TruncatedSeries:
    phi = _prepare(phi, cap)
    return swap_letters(phi) - phi.inverse()


@cache
def _hexagon_constants(cap: int, variant: str) -> tuple:
    """The three factors of (H1) or (H3) that do not involve Phi: lhs and two exponentials."""
    alph = Alphabet.chord(3)
    t12 = generator_or_zero(alph, cap, (1, 2))
    t13 = generator_or_zero(alph, cap, (1, 3))
    t23 = generator_or_zero(alph, cap, (2, 3))
    if variant == "H1":
        return (t12 + t13).scale(HALF).exp(), t13.scale(HALF).exp(), t12.scale(HALF).exp()
    return (t13 + t23).scale(HALF).exp(), t13.scale(HALF).exp(), t23.scale(HALF).exp()


def _hexagon_residual(phi: TruncatedSeries, cap: int, variant: str) -> TruncatedSeries:
    """rhs - lhs of (H1) or (H3) in the free algebra on the 3-strand chords; not reduced."""
    phi = _prepare(phi, cap)
    alph = Alphabet.chord(3)
    lhs, exp13, exp_last = _hexagon_constants(cap, variant)
    t12, t23 = generator_or_zero(alph, cap, (1, 2)), generator_or_zero(alph, cap, (2, 3))
    phi_t = substitute(phi, t12, t23)

    def at(one_line):
        return phi_t.act(Permutation.from_one_line(one_line))

    if variant == "H1":
        rhs = at("231").inverse() * exp13 * at("213") * exp_last * phi_t.inverse()
    else:
        rhs = at("312") * exp13 * at("132").inverse() * exp_last * phi_t
    return rhs - lhs


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
        basis = build_graded_basis(infinitesimal_artin(3), cap)
        return _result(axiom, cap, basis.normal_form(_hexagon_residual(phi, cap, axiom)))
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
    the degree; the set is particular + span(kernel).  ``correction`` and
    ``extended`` realize a chosen coordinate vector as a series.
    """

    degree: int
    brackets: list
    particular: list
    kernel: list
    base: TruncatedSeries

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
        """exp(lifted log + correction): the chosen solution as a group-like series."""
        return (self.base.log().lifted(self.degree) + self.correction(coords)).exp()


def extend_semi_associator(phi: TruncatedSeries) -> ExtensionStep:
    """Extend a semi-associator valid to degree d = phi.cap by one degree.

    The unknown is a homogeneous Lie element of degree d+1; (AS) and (H3) at
    degree d+1 are affine in it.  Raises naming the axiom and degree when phi
    fails a hypothesis.  Solvability through any finite degree is expected
    since rational associators exist.
    """
    _require_hypotheses(phi)
    return _extend(phi)


def _require_hypotheses(phi: TruncatedSeries):
    """Raise naming the axiom and degree unless phi meets (AE), (AS) and (H3) at its cap."""
    for axiom in ("AE", "AS", "H3"):
        result = check_axiom(phi, axiom, phi.cap)
        if not result.passed:
            raise AssociatorError(
                f"candidate fails ({axiom}) at degree {result.first_failure_degree}"
            )


def _extend(phi: TruncatedSeries) -> ExtensionStep:
    """:func:`extend_semi_associator` for a phi known to meet the hypotheses."""
    degree = phi.cap + 1
    brackets, columns = _bracket_columns(degree)
    # Group-like lift: zero-pad the logarithm, not the series, so the new top
    # slice of the candidate is exp(phi)'s before correction.
    lifted = phi.log().lifted(degree).exp()
    particular, kernel = _solve_top_degree(lifted, columns, degree)
    if particular is None:
        raise NoCorrectionError(f"no Lie correction exists at degree {degree}")
    return ExtensionStep(degree, brackets, particular, kernel, phi)


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


def _columns(perturbations: list, degree: int) -> list:
    """Column i is the derivative at 1 of the top-degree (AS) and (H3) residual along p_i.

    Each p_i has degree ``degree``, or ``degree - 1`` >= 2; the module
    docstring derives both cases from the axioms.  Only the (H3) part is
    reduced, once, in the chord algebra.
    """
    alph = Alphabet.chord(3)
    basis3 = build_graded_basis(infinitesimal_artin(3), degree)
    t12, t13, t23 = (generator(alph, degree, pair) for pair in ((1, 2), (1, 3), (2, 3)))
    g312, g132 = Permutation.from_one_line("312"), Permutation.from_one_line("132")
    columns = []
    for p in perturbations:
        q = substitute(p, t12, t23)
        a, b = q.act(g312), q.act(g132)
        if p.slices[degree]:
            col = {("AS", w): c for w, c in (swap_letters(p) + p).slices[degree].items()}
            h3 = a - b + q
        else:
            col = {}
            t = t13 + t23
            h3 = (a * t - t13 * b - b * t23 + t * q).scale(HALF)
        h3 = basis3.reduce_slice(degree, h3.slices[degree])
        col.update((("H3", w), c) for w, c in h3.items())
        columns.append(col)
    return columns


def _residual_labels(candidate: TruncatedSeries, degree: int) -> dict:
    """Top-degree H3 residual, labelled by ("H3", word); only that slice is reduced."""
    basis3 = build_graded_basis(infinitesimal_artin(3), degree)
    h3 = _hexagon_residual(candidate, degree, "H3").slices[degree]
    return {("H3", w): c for w, c in basis3.reduce_slice(degree, h3).items()}


def _revised_coordinates(prev: ExtensionStep):
    """Coordinates in prev's solution set from which one more degree extends.

    A truncated solution need not lift: the affine set at one degree can
    contain dead ends for the next.  Prev's kernel directions enter the next
    degree's residual linearly, as the next degree's brackets do, so one
    solve over both finds a continuable choice.
    """
    degree = prev.degree + 1
    base = (prev.base.log().lifted(degree) + prev.correction().lifted(degree)).exp()
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
    built from it meets them by construction (module docstring).
    """
    if phi.cap < to_degree:
        _require_hypotheses(phi)
    prev = None
    while phi.cap < to_degree:
        revised = False
        try:
            step = _extend(phi)
        except NoCorrectionError:
            if prev is None:
                # phi is one point of its top degree's solution set, e.g. read
                # from a file; rebuild that set from the degree below.
                prev = _extend(phi.truncated(phi.cap - 1))
            phi = prev.extended(_revised_coordinates(prev))
            revised = True
            step = _extend(phi)
        phi = step.extended()
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


def check_yang_baxter(psi: TruncatedSeries, cap: int) -> YangBaxterResult:
    """Test rho(Delta) = rho(sigma_2) rho(sigma_1) rho(sigma_2) for the 3-strand family.

    The difference is one fold (:func:`braidalg.reps.rho3_yang_baxter_defect`),
    and the family's precondition on psi is checked once, by its images.
    """
    diff = rho3_yang_baxter_defect(psi, cap)
    if diff.is_zero():
        return YangBaxterResult(cap, True, None, None)
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

"""Semidirect products of quotient algebras with symmetric group algebras.

Elements are finitely supported maps pi -> series with the twisted product
(a (x) x) * (b (x) y) = a * (x.b) (x) xy, extended bilinearly.  Components
are kept in quotient normal form eagerly after every product, so equality
is plain component-wise comparison.

Products run in the scaled-integer kernel of :mod:`braidalg.series` on the
components' stored ``(den, {word: int})`` pairs, with no conversion.  A
factor is a plain ``{pi: scaled series}`` dict, and the twisted product
skips unit components.  :func:`fold` takes a linear combination of products
of factors, folds every product in the free algebra, sums the terms in
integers and reduces the sum to normal form once at the end.
``SemidirectSeries.__mul__`` is the same product of two elements; the
associator-driven and 3-strand representations in :mod:`braidalg.reps` go
through :func:`fold`.  The welded family, whose factors are letter
exponentials, has its own closed-form fold
(:func:`braidalg.reps.fold_welded`), then the same :func:`_normalized`.
Its sum per permutation is a sequence of degrees computed on first read,
not a tuple; the two readers below only index and iterate a component, so
they take either.  :func:`lowest_degree` reads the lowest nonzero degree
of the element such a sum reduces to, reading and reducing upward from
degree 0 and stopping there, with the same checks; the filtration order
needs nothing above it (:func:`braidalg.invariants.vassiliev_degree`), so
with the welded fold nothing above it is folded either.
"""

from __future__ import annotations

from .perms import Permutation
from .quotient import GradedQuotientBasis
from .series import (
    TruncatedSeries,
    generator_or_zero,
    one,
    parse_series,
    rational,
    relabel,
    scaled_add,
    scaled_mul,
    scaled_one,
    scaled_times,
    substitute_generators,
    zero,
)


class ContextMismatch(ValueError):
    """Semidirect elements over different presets, strand counts or caps."""


class SemidirectSeries:
    """An element of (quotient algebra) x| Q[Sigma_n], components in normal form."""

    __slots__ = ("basis", "cap", "terms")

    def __init__(self, basis: GradedQuotientBasis, cap: int, terms: dict, *, _normalized=False):
        if cap > basis.cap:
            raise ContextMismatch(f"cap {cap} exceeds basis cap {basis.cap}")
        self.basis = basis
        self.cap = cap
        if _normalized:
            self.terms = terms
        else:
            clean = {}
            for perm, series in terms.items():
                if perm.n != basis.alphabet.n and basis.alphabet.kind != "abstract":
                    raise ContextMismatch(f"permutation size {perm.n} vs n={basis.alphabet.n}")
                if series.cap != cap:
                    raise ContextMismatch(f"component cap {series.cap} vs {cap}")
                nf = basis.normal_form(series)
                if not nf.is_zero():
                    clean[perm] = nf
            self.terms = clean

    @property
    def n(self) -> int:
        return self.basis.alphabet.n

    # -- constructors ----------------------------------------------------

    @staticmethod
    def term(basis, cap, series, perm) -> "SemidirectSeries":
        return SemidirectSeries(basis, cap, {perm: series})

    @staticmethod
    def unit(basis, cap) -> "SemidirectSeries":
        n = basis.alphabet.n
        return SemidirectSeries(
            basis, cap, {Permutation.identity(n): one(basis.alphabet, cap)}
        )

    @staticmethod
    def zero(basis, cap) -> "SemidirectSeries":
        return SemidirectSeries(basis, cap, {}, _normalized=True)

    # -- structure ---------------------------------------------------------

    def _check_context(self, other: "SemidirectSeries"):
        if self.basis.preset != other.basis.preset:
            raise ContextMismatch(
                f"presets differ: {self.basis.preset.key()} vs {other.basis.preset.key()}"
            )
        if self.cap != other.cap:
            raise ContextMismatch(f"caps differ: {self.cap} vs {other.cap}")

    def __add__(self, other):
        if not isinstance(other, SemidirectSeries):
            return NotImplemented
        self._check_context(other)
        terms = dict(self.terms)
        for perm, series in other.terms.items():
            s = terms.get(perm)
            s = series if s is None else s + series
            if s.is_zero():
                terms.pop(perm, None)
            else:
                terms[perm] = s
        return SemidirectSeries(self.basis, self.cap, terms, _normalized=True)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, SemidirectSeries):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c) -> "SemidirectSeries":
        """c times the element, for an int or a Fraction c; a float raises TypeError."""
        if not rational(c):
            return SemidirectSeries.zero(self.basis, self.cap)
        return SemidirectSeries(
            self.basis,
            self.cap,
            {perm: series.scale(c) for perm, series in self.terms.items()},
            _normalized=True,
        )

    def __mul__(self, other):
        """Twisted product; components are re-normalized eagerly."""
        if not isinstance(other, SemidirectSeries):
            return NotImplemented
        self._check_context(other)
        acc = {x: a.scaled for x, a in self.terms.items()}
        factor = {y: b.scaled for y, b in other.terms.items()}
        raw = _twisted_mul(acc, factor, self.basis.alphabet, self.cap)
        return _normalized(self.basis, self.cap, raw)

    def inverse(self) -> "SemidirectSeries":
        """Inverse of a single term g (x) pi with invertible g."""
        if len(self.terms) != 1:
            raise ContextMismatch("only single-term elements are inverted")
        ((perm, series),) = self.terms.items()
        if not series.constant_term:
            raise ContextMismatch("component with zero constant term is not invertible")
        ipi = perm.inverse()
        return SemidirectSeries(self.basis, self.cap, {ipi: series.inverse().act(ipi)})

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def min_degree(self):
        """Lowest degree with a nonzero coefficient across all components."""
        degrees = [s.min_degree() for s in self.terms.values()]
        degrees = [d for d in degrees if d is not None]
        return min(degrees) if degrees else None

    def degree_slice(self, k: int) -> dict:
        """{permutation: {word: coeff}} at one degree, zero slices dropped."""
        out = {}
        for perm, series in self.terms.items():
            if series.scaled[k][1]:
                out[perm] = series.degree_slice(k)
        return out

    def project_permutations(self) -> dict:
        """Augmentation to the group algebra: {pi: constant term}; multiplicative."""
        out = {}
        for perm, series in self.terms.items():
            c = series.constant_term
            if c:
                out[perm] = c
        return out

    def component(self, perm: Permutation) -> TruncatedSeries:
        return self.terms.get(perm, zero(self.basis.alphabet, self.cap))

    # -- stabilization ---------------------------------------------------------

    def stabilize(self, target_basis: GradedQuotientBasis) -> "SemidirectSeries":
        """Embed into the same preset family on more strands, fixing the new ones."""
        src, dst = self.basis.alphabet, target_basis.alphabet
        if src.kind != dst.kind or dst.n < src.n:
            raise ContextMismatch(f"cannot embed {src!r} into {dst!r}")
        images = [generator_or_zero(dst, self.cap, pair) for pair in src.pairs]
        terms = {}
        for perm, series in self.terms.items():
            terms[perm.extend(dst.n)] = substitute_generators(series, images)
        return SemidirectSeries(target_basis, self.cap, terms)

    # -- text form ----------------------------------------------------------------

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for perm in sorted(self.terms):
            parts.append(f"({self.terms[perm].text()}) ⊗ {perm.one_line()}")
        return " + ".join(parts)

    @staticmethod
    def parse(text: str, basis: GradedQuotientBasis, cap: int) -> "SemidirectSeries":
        text = text.strip()
        if text == "0":
            return SemidirectSeries.zero(basis, cap)
        # Split on '+' outside parentheses only; component series carry signs inside.
        chunks = []
        depth = 0
        cur: list = []
        for ch in text:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "+" and depth == 0:
                chunks.append("".join(cur))
                cur = []
            else:
                cur.append(ch)
        chunks.append("".join(cur))
        terms: dict = {}
        for chunk in chunks:
            body, _, perm_txt = chunk.rpartition("⊗")
            if not perm_txt:
                raise ValueError(f"missing permutation part in {chunk!r}")
            body = body.strip()
            if body.startswith("(") and body.endswith(")"):
                body = body[1:-1]
            series = parse_series(body, basis.alphabet, cap)
            perm = Permutation.from_one_line(perm_txt.strip())
            cur = terms.get(perm)
            terms[perm] = series if cur is None else cur + series
        return SemidirectSeries(basis, cap, terms)

    def __eq__(self, other):
        if not isinstance(other, SemidirectSeries):
            return NotImplemented
        return (
            self.basis.preset == other.basis.preset
            and self.cap == other.cap
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"<sd {self.text()} | cap {self.cap} over {self.basis.preset.key()}>"


# -- the twisted product in scaled integers ---------------------------------------


def _twisted_mul(acc: dict, factor: dict, alphabet, cap: int) -> dict:
    """{x: a} * {y: b} = sum of a * (x.b) (x) xy over scaled series; units are not multiplied."""
    unit = scaled_one(cap)
    out: dict = {}
    for x, a in acc.items():
        gmap = [alphabet.permuted(g, x) for g in range(alphabet.size)]
        for y, b in factor.items():
            prod = a if b == unit else scaled_mul(a, relabel(b, gmap), cap)
            key = x.compose(y)
            cur = out.get(key)
            out[key] = prod if cur is None else scaled_add(cur, prod)
    return {perm: s for perm, s in out.items() if any(sl for _, sl in s)}


def _fold_scaled(alphabet, cap: int, factors, c=1) -> dict:
    """c times the product of the factors in the free algebra, as {pi: scaled series}."""
    acc = {Permutation.identity(alphabet.n): scaled_times(scaled_one(cap), c)}
    for factor in factors:
        acc = _twisted_mul(acc, factor, alphabet, cap)
    return acc


def fold(basis: GradedQuotientBasis, cap: int, combination) -> SemidirectSeries:
    """sum c * (product of factors, left to right) over ``[(c, factors), ...]``, reduced once.

    Reducing once at the end equals reducing after every factor and every
    term: the relation ideal is two-sided and stable under relabelling
    strands, and normal form is linear.
    """
    total: dict = {}
    for c, factors in combination:
        for perm, scaled in _fold_scaled(basis.alphabet, cap, factors, c).items():
            total[perm] = scaled_add(total[perm], scaled) if perm in total else scaled
    return _normalized(basis, cap, total)


def _check_raw(basis: GradedQuotientBasis, cap: int, raw: dict):
    """The cap and each permutation's size of {pi: scaled series} against the basis."""
    if cap > basis.cap:
        raise ContextMismatch(f"cap {cap} exceeds basis cap {basis.cap}")
    target = basis.alphabet
    for perm in raw:
        if perm.n != target.n and target.kind != "abstract":
            raise ContextMismatch(f"permutation size {perm.n} vs n={target.n}")


def _normalized(basis: GradedQuotientBasis, cap: int, raw: dict) -> SemidirectSeries:
    """Reduce {pi: scaled series} over the basis's alphabet to an element, every degree.

    A component is read degree by degree from 0 through the cap, so a
    welded fold's degrees that are not computed yet are computed here.
    """
    _check_raw(basis, cap, raw)
    terms = {}
    for perm, scaled in raw.items():
        slices = tuple(basis.reduce_slice(k, pair) for k, pair in enumerate(scaled))
        if any(sl for _, sl in slices):
            terms[perm] = TruncatedSeries(basis.alphabet, cap, slices)
    return SemidirectSeries(basis, cap, terms, _normalized=True)


def lowest_degree(basis: GradedQuotientBasis, cap: int, raw: dict):
    """``_normalized(basis, cap, raw).min_degree()``, reducing only the degrees it reads.

    Degrees are read and reduced from 0 upward, every component at each
    degree, and the search stops at the first degree where a component is
    nonzero: no degree above the answer is reduced, and none above it is
    read, so a welded fold computes none (:func:`braidalg.reps.fold_welded`).
    A slice is tested for zero on its reduced numerators: the denominator
    does not change whether it vanishes, so it is not rescaled.
    None means the element is zero through the cap.  The filtration order is
    read this way, and the image itself is normalized on first read
    (:class:`braidalg.invariants.FiltrationReport`).
    """
    _check_raw(basis, cap, raw)
    for k in range(cap + 1):
        for scaled in raw.values():
            if basis.reduce(k, scaled[k][1]):
                return k
    return None

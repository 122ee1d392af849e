"""Semidirect products of quotient algebras with symmetric group algebras.

Elements are finitely supported maps pi -> series with the twisted product
(a (x) x) * (b (x) y) = a * (x.b) (x) xy, extended bilinearly.  Components
are kept in quotient normal form eagerly after every product, so equality
is plain component-wise comparison.

Products are computed in scaled integers: a series is held as one
``(den, {word: int})`` pair per degree, standing for ``{word: c / den}``.
The twisted product of such maps runs in integer arithmetic, skips unit
components, and divides each degree by the gcd of its denominator and
numerators, so denominators stay small.  :func:`fold` multiplies a sequence
of :class:`Factor` values this way in the free algebra and reduces the
integer slices to normal form once at the end; a ``Fraction`` is built only
for a surviving normal-form term.  ``SemidirectSeries.__mul__`` is the same
product of two elements; the representations in :mod:`braidalg.reps` fold
words through :func:`fold`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .perms import Permutation
from .quotient import GradedQuotientBasis, reduce_scaled, scale_slice
from .series import (
    AlphabetMismatch,
    TruncatedSeries,
    generator,
    one,
    parse_series,
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
        c = c if isinstance(c, Fraction) else Fraction(c)
        if not c:
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
        alph = self.basis.alphabet
        acc = {x: _scaled(a) for x, a in self.terms.items()}
        raw = _twisted_mul(acc, Factor(alph, other.terms), self.cap)
        return _normalized(self.basis, self.cap, alph, raw)

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
            sl = series.slices[k]
            if sl:
                out[perm] = dict(sl)
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
        images = [generator(dst, self.cap, pair) for pair in src.pairs]
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


def _scaled(series: TruncatedSeries) -> tuple:
    return tuple(scale_slice(sl) for sl in series.slices)


def _unscaled(alphabet, cap: int, scaled: tuple) -> TruncatedSeries:
    slices = tuple({w: Fraction(c, den) for w, c in sl.items()} for den, sl in scaled)
    return TruncatedSeries(alphabet, cap, slices)


def _is_unit(scaled: tuple) -> bool:
    return scaled[0] == (1, {(): 1}) and not any(sl for _, sl in scaled[1:])


def _lowest_terms(den: int, sl: dict) -> tuple:
    """Drop zero terms and divide out gcd(den, *numerators)."""
    sl = {w: c for w, c in sl.items() if c}
    g = gcd(den, *sl.values())
    if g != 1:
        den //= g
        sl = {w: c // g for w, c in sl.items()}
    return den, sl


def _scaled_mul(a: tuple, b: tuple, cap: int) -> tuple:
    """a * b in the free algebra; each degree over the lcm of its den_a * den_b."""
    out = []
    for d in range(cap + 1):
        pairs = [(a[i], b[d - i]) for i in range(d + 1) if a[i][1] and b[d - i][1]]
        if not pairs:
            out.append((1, {}))
            continue
        den = lcm(*(da * db for (da, _), (db, _) in pairs))
        tgt: dict = {}
        get = tgt.get
        for (da, sa), (db, sb) in pairs:
            m = den // (da * db)
            for v, cv in sb.items():
                cv *= m
                for u, cu in sa.items():
                    w = u + v
                    tgt[w] = get(w, 0) + cu * cv
        out.append(_lowest_terms(den, tgt))
    return tuple(out)


def _scaled_add(a: tuple, b: tuple) -> tuple:
    out = []
    for (da, sa), (db, sb) in zip(a, b):
        if not sb:
            out.append((da, sa))
        elif not sa:
            out.append((db, sb))
        else:
            den = lcm(da, db)
            ma, mb = den // da, den // db
            sl = {w: c * ma for w, c in sa.items()}
            for w, c in sb.items():
                sl[w] = sl.get(w, 0) + c * mb
            out.append(_lowest_terms(den, sl))
    return tuple(out)


class Factor:
    """A semidirect element {pi: series} in scaled form, for repeated products.

    ``acted(x)`` lists, for every term y -> b, the product permutation xy and
    the relabelled series x.b, or None where x.b is the unit; it is computed
    once per permutation x and kept.
    """

    __slots__ = ("alphabet", "terms", "_acted")

    def __init__(self, alphabet, terms: dict):
        self.alphabet = alphabet
        self.terms = {perm: _scaled(series) for perm, series in terms.items()}
        self._acted: dict = {}

    def acted(self, x: Permutation) -> list:
        out = self._acted.get(x)
        if out is None:
            alph = self.alphabet
            gmap = [alph.permuted(g, x) for g in range(alph.size)]
            out = []
            for y, b in self.terms.items():
                xb = None if _is_unit(b) else tuple(
                    (den, {tuple([gmap[g] for g in w]): c for w, c in sl.items()}) for den, sl in b
                )
                out.append((x.compose(y), xb))
            # Threads racing here compute equal lists; the first one published wins.
            out = self._acted.setdefault(x, out)
        return out


def _twisted_mul(acc: dict, factor: Factor, cap: int) -> dict:
    """{x: a} * factor = sum of a * (x.b) (x) xy; unit components are not multiplied."""
    out: dict = {}
    for x, a in acc.items():
        for key, xb in factor.acted(x):
            prod = a if xb is None else _scaled_mul(a, xb, cap)
            cur = out.get(key)
            out[key] = prod if cur is None else _scaled_add(cur, prod)
    return {perm: s for perm, s in out.items() if any(sl for _, sl in s)}


def _fold_scaled(alphabet, cap: int, factors) -> dict:
    acc = {Permutation.identity(alphabet.n): ((1, {(): 1}),) + ((1, {}),) * cap}
    for factor in factors:
        acc = _twisted_mul(acc, factor, cap)
    return acc


def fold(basis: GradedQuotientBasis, cap: int, alphabet, factors) -> SemidirectSeries:
    """The product of the factors, left to right, reduced to normal form once at the end.

    Reducing once equals reducing after every factor: the relation ideal is
    two-sided and stable under relabelling strands.
    """
    return _normalized(basis, cap, alphabet, _fold_scaled(alphabet, cap, factors))


def fold_free(alphabet, cap: int, factors) -> dict:
    """The product of the factors in the free algebra, as {pi: series}."""
    return {
        perm: _unscaled(alphabet, cap, scaled)
        for perm, scaled in _fold_scaled(alphabet, cap, factors).items()
    }


def _normalized(basis: GradedQuotientBasis, cap: int, alphabet, raw: dict) -> SemidirectSeries:
    """Reduce {pi: scaled series} over the basis; Fractions only for surviving terms."""
    if cap > basis.cap:
        raise ContextMismatch(f"cap {cap} exceeds basis cap {basis.cap}")
    target = basis.alphabet
    terms = {}
    for perm, scaled in raw.items():
        if perm.n != target.n and target.kind != "abstract":
            raise ContextMismatch(f"permutation size {perm.n} vs n={target.n}")
        if alphabet != target:
            raise AlphabetMismatch(f"{alphabet!r} vs preset alphabet {target!r}")
        slices = tuple(reduce_scaled(basis.table(k), den, sl) for k, (den, sl) in enumerate(scaled))
        if any(slices):
            terms[perm] = TruncatedSeries(alphabet, cap, slices)
    return SemidirectSeries(basis, cap, terms, _normalized=True)

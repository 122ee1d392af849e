"""Truncated noncommutative power series over exact rationals.

Every value downstream (quotient algebras, semidirect products, braid
representations) is built from these series.  A series lives over a fixed
:class:`Alphabet`, is truncated at an explicit degree cap, and holds each
degree as one ``(den, {word: int})`` pair in lowest terms, standing for
``{word: c / den}`` with words tuples of generator indices.

That pair is the one stored form.  ``+``, ``scale``, ``*``, ``exp``,
``log``, ``inverse``, ``act``, :func:`substitute_generators` and
:func:`lie_defect` all run in the scaled-integer kernel at the end of this
module, in integer arithmetic, and so do the quotient reduction of
:mod:`braidalg.quotient`, the semidirect fold of :mod:`braidalg.sdseries`
and the axiom residuals of :mod:`braidalg.associator`.  The text form is
read and written in integers too: :func:`parse_series` sums each degree's
terms over the lcm of their denominators, and ``text`` prints each
numerator over the degree's denominator in lowest terms.  A ``Fraction`` is
built only where a value leaves a series: ``constant_term``,
``coefficient``, ``terms`` and ``degree_slice``.  A coefficient enters as
an int or a Fraction; a float, a binary fraction, is refused.

Values are immutable after construction and every operation is pure, so
series can be shared freely between concurrent workers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial, gcd, lcm

from .perms import Permutation


class SeriesError(ValueError):
    """Base class for series-level errors."""


class AlphabetMismatch(SeriesError):
    pass


class CapMismatch(SeriesError):
    pass


class ConstantTermError(SeriesError):
    pass


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

ZERO = Fraction(0)
ONE = Fraction(1)


class Alphabet:
    """Generator set of a series algebra.

    Three kinds:

    * ``chord(n)``:    t_ij = t_ji for 1 <= i < j <= n, size n(n-1)/2;
    * ``oriented(n)``: v_ij for ordered pairs 1 <= i != j <= n, size n(n-1);
    * ``abstract``:    named generators, e.g. {A, B}.

    Chord labels are canonicalized to i < j on every lookup.
    """

    __slots__ = ("kind", "n", "names", "pairs", "_index", "_pair_index")

    def __init__(self, kind, n, names, pairs):
        self.kind = kind
        self.n = n
        self.names = tuple(names)
        self.pairs = tuple(pairs)
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be pairwise distinct")
        for name in self.names:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad generator name {name!r}")
        self._index = {name: g for g, name in enumerate(self.names)}
        self._pair_index = {pair: g for g, pair in enumerate(self.pairs)}

    @staticmethod
    def chord(n: int) -> "Alphabet":
        if not 2 <= n <= 9:
            raise ValueError("chord alphabets need 2 <= n <= 9")
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        return Alphabet("chord", n, [f"t{i}{j}" for i, j in pairs], pairs)

    @staticmethod
    def oriented(n: int) -> "Alphabet":
        if not 2 <= n <= 9:
            raise ValueError("oriented alphabets need 2 <= n <= 9")
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        return Alphabet("oriented", n, [f"v{i}{j}" for i, j in pairs], pairs)

    @staticmethod
    def abstract(*names: str) -> "Alphabet":
        if not names:
            raise ValueError("abstract alphabet needs at least one name")
        return Alphabet("abstract", 0, names, ())

    @property
    def size(self) -> int:
        return len(self.names)

    def gen(self, i: int, j: int) -> int:
        """Generator index of t_ij / v_ij, canonicalizing chord labels."""
        if self.kind == "chord" and i > j:
            i, j = j, i
        try:
            return self._pair_index[(i, j)]
        except KeyError:
            raise KeyError(f"no generator with labels ({i},{j}) in {self!r}") from None

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r} in {self!r}") from None

    def permuted(self, g: int, perm: Permutation) -> int:
        """Index of the generator with relabelled strands; chord pairs re-canonicalized."""
        if self.kind == "abstract":
            raise AlphabetMismatch("permutations act only on chord/oriented alphabets")
        if perm.n != self.n:
            raise AlphabetMismatch(f"permutation of size {perm.n} on {self!r}")
        i, j = self.pairs[g]
        return self.gen(perm(i), perm(j))

    def word_name(self, word: tuple) -> str:
        return ".".join(self.names[g] for g in word)

    def __eq__(self, other):
        return (
            isinstance(other, Alphabet)
            and self.kind == other.kind
            and self.n == other.n
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.kind, self.n, self.names))

    def __repr__(self):
        if self.kind == "abstract":
            return f"Alphabet.abstract({', '.join(map(repr, self.names))})"
        return f"Alphabet.{self.kind}({self.n})"


def word_key(word: tuple) -> tuple:
    """Deglex sort key: degree first, then lexicographic on generator indices."""
    return (len(word), word)


class TruncatedSeries:
    """Noncommutative power series truncated at a degree cap.

    ``scaled[k]`` is degree k as one ``(den, {word: int})`` pair in lowest
    terms, standing for ``{word: c / den}``: den > 0, no zero numerator and
    gcd(den, *numerators) == 1.  The form is unique, so ``==`` and the hash
    read the pairs.  Do not mutate; use the arithmetic operations, which all
    return fresh values.  The hash is computed on first use and kept, so a
    series used as a cache key is hashed once.
    """

    __slots__ = ("alphabet", "cap", "scaled", "_hash")

    def __init__(self, alphabet: Alphabet, cap: int, scaled: tuple):
        self.alphabet = alphabet
        self.cap = cap
        self.scaled = scaled
        self._hash = None

    # -- construction -------------------------------------------------

    @staticmethod
    def from_terms(alphabet: Alphabet, cap: int, terms) -> "TruncatedSeries":
        """Build a series from {word: coefficient}; zero coefficients are dropped.

        A coefficient is an int or a Fraction; a float raises TypeError.
        """
        if cap < 0:
            raise SeriesError("cap must be >= 0")
        size = alphabet.size
        slices = [dict() for _ in range(cap + 1)]
        items = terms.items() if isinstance(terms, dict) else terms
        for word, coeff in items:
            word = tuple(word)
            if len(word) > cap:
                raise SeriesError(f"word of degree {len(word)} exceeds cap {cap}")
            if any(not 0 <= g < size for g in word):
                raise SeriesError(f"word {word!r} has letters outside the alphabet")
            sl = slices[len(word)]
            c = rational(coeff)
            sl[word] = sl[word] + c if word in sl else c
        return TruncatedSeries(alphabet, cap, tuple(lowest_terms(*scale_slice(sl)) for sl in slices))

    # -- inspection ---------------------------------------------------

    @property
    def constant_term(self) -> Fraction:
        den, sl = self.scaled[0]
        return Fraction(sl[()], den) if sl else ZERO

    def coefficient(self, word) -> Fraction:
        word = tuple(word)
        if len(word) > self.cap:
            raise SeriesError(f"word of degree {len(word)} exceeds cap {self.cap}")
        den, sl = self.scaled[len(word)]
        c = sl.get(word)
        return Fraction(c, den) if c else ZERO

    def is_zero(self) -> bool:
        return not any(sl for _, sl in self.scaled)

    def min_degree(self):
        """Lowest degree with a nonzero term, or None for the zero series."""
        for k, (_, sl) in enumerate(self.scaled):
            if sl:
                return k
        return None

    def terms(self):
        """Yield (word, coefficient) pairs in deglex order."""
        for pair in self.scaled:
            sl = unscale_slice(*pair)
            for word in sorted(sl):
                yield word, sl[word]

    def degree_slice(self, k: int) -> dict:
        """Degree k as {word: Fraction}."""
        if not 0 <= k <= self.cap:
            raise SeriesError(f"degree {k} outside 0..{self.cap}")
        return unscale_slice(*self.scaled[k])

    def homogeneous_part(self, k: int) -> "TruncatedSeries":
        scaled = tuple(pair if d == k else (1, {}) for d, pair in enumerate(self.scaled))
        return TruncatedSeries(self.alphabet, self.cap, scaled)

    def truncated(self, new_cap: int) -> "TruncatedSeries":
        """Drop all terms above new_cap; requires 0 <= new_cap <= cap."""
        if new_cap < 0:
            raise SeriesError("cap must be >= 0")
        if new_cap > self.cap:
            raise CapMismatch(f"cannot raise cap {self.cap} to {new_cap}")
        return TruncatedSeries(self.alphabet, new_cap, self.scaled[: new_cap + 1])

    def lifted(self, new_cap: int) -> "TruncatedSeries":
        """The same coefficients viewed at a higher cap (upper terms unknown-as-zero)."""
        if new_cap < self.cap:
            raise CapMismatch(f"cannot lower cap {self.cap} to {new_cap} (use truncated)")
        return TruncatedSeries(self.alphabet, new_cap, self.scaled + ((1, {}),) * (new_cap - self.cap))

    # -- ring structure ------------------------------------------------

    def _check_compat(self, other: "TruncatedSeries"):
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch(f"{self.alphabet!r} vs {other.alphabet!r}")
        if self.cap != other.cap:
            raise CapMismatch(f"cap {self.cap} vs {other.cap}")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compat(other)
        return TruncatedSeries(self.alphabet, self.cap, scaled_add(self.scaled, other.scaled))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c) -> "TruncatedSeries":
        """c times the series, for an int or a Fraction c; a float raises TypeError."""
        return TruncatedSeries(self.alphabet, self.cap, scaled_times(self.scaled, rational(c)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compat(other)
        return TruncatedSeries(self.alphabet, self.cap, scaled_mul(self.scaled, other.scaled, self.cap))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = one(self.alphabet, self.cap)
        for _ in range(k):
            out = out * self
        return out

    # -- analytic operations -------------------------------------------

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term, truncated at the cap."""
        if self.constant_term:
            raise ConstantTermError("exp requires a zero constant term")
        return self._power_series([Fraction(1, factorial(k)) for k in range(self.cap + 1)])

    def log(self) -> "TruncatedSeries":
        """log of a series with constant term 1; inverse of exp at the cap."""
        if self.constant_term != 1:
            raise ConstantTermError("log requires constant term 1")
        coefficients = [ZERO] + [Fraction((-1) ** (k + 1), k) for k in range(1, self.cap + 1)]
        return self._power_series(coefficients)

    def inverse(self) -> "TruncatedSeries":
        """Two-sided multiplicative inverse; constant term must be nonzero."""
        c = self.constant_term
        if not c:
            raise ConstantTermError("inverse requires a nonzero constant term")
        # (c (1 + h))^-1 = sum_k (-1)^k h^k / c with h = (self - c) / c.
        return self._power_series([(-1) ** k / c for k in range(self.cap + 1)], 1 / c)

    def _power_series(self, coefficients, x=ONE) -> "TruncatedSeries":
        """sum_k coefficients[k] h^k with h = x (self - constant term)."""
        cap = self.cap
        h = scaled_times(((1, {}),) + self.scaled[1:], x)
        power = scaled_one(cap)
        total = scaled_times(power, coefficients[0])
        for c in coefficients[1:]:
            power = scaled_mul(power, h, cap)
            total = scaled_add(total, scaled_times(power, c))
        return TruncatedSeries(self.alphabet, cap, total)

    # -- symmetry -------------------------------------------------------

    def act(self, perm: Permutation) -> "TruncatedSeries":
        """Relabel strands: t_ij -> t_(pi i)(pi j), v_ij -> v_(pi i)(pi j)."""
        alphabet = self.alphabet
        gmap = [alphabet.permuted(g, perm) for g in range(alphabet.size)]
        return TruncatedSeries(alphabet, self.cap, relabel(self.scaled, gmap))

    # -- text form ------------------------------------------------------

    def text(self) -> str:
        """Render in the series grammar, e.g. ``1 + 1/24*t12.t23 - 1/24*t23.t12``."""
        name = self.alphabet.word_name
        return signed_sum_text(
            (sl[word], den, "*" + name(word) if word else "") for den, sl in self.scaled for word in sorted(sl)
        )

    # -- equality -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.alphabet == other.alphabet and self.cap == other.cap and self.scaled == other.scaled

    def __hash__(self):
        if self._hash is None:
            slices = tuple((den, frozenset(sl.items())) for den, sl in self.scaled)
            self._hash = hash((self.alphabet, self.cap, slices))
        return self._hash

    def __repr__(self):
        return f"<series {self.text()} | cap {self.cap} over {self.alphabet!r}>"


def rational(c):
    """c itself when it is an int or a Fraction; a float, a binary fraction, raises TypeError."""
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError(f"unsupported coefficient type: {type(c).__name__!r} (use an int or a Fraction)")


# -- constructors -------------------------------------------------------


def zero(alphabet: Alphabet, cap: int) -> TruncatedSeries:
    return TruncatedSeries.from_terms(alphabet, cap, {})


def one(alphabet: Alphabet, cap: int) -> TruncatedSeries:
    return TruncatedSeries.from_terms(alphabet, cap, {(): ONE})


def generator(alphabet: Alphabet, cap: int, key) -> TruncatedSeries:
    """The degree-1 series for one generator.

    ``key`` may be a name ("t12"), a strand pair (i, j), or a raw index.
    """
    if cap < 1:
        raise SeriesError("cap must be >= 1 to hold a generator")
    if isinstance(key, str):
        g = alphabet.index_of(key)
    elif isinstance(key, tuple):
        g = alphabet.gen(*key)
    else:
        g = int(key)
        if not 0 <= g < alphabet.size:
            raise SeriesError(f"generator index {g} out of range")
    return TruncatedSeries.from_terms(alphabet, cap, {(g,): ONE})


def generator_or_zero(alphabet: Alphabet, cap: int, key) -> TruncatedSeries:
    """The generator at caps >= 1; at cap 0, which holds none, 0 (so its exp is 1)."""
    return generator(alphabet, cap, key) if cap else zero(alphabet, 0)


# -- substitution --------------------------------------------------------


def substitute_generators(f: TruncatedSeries, images) -> TruncatedSeries:
    """Linear substitution: the algebra map sending generator g of f to images[g].

    Every image must be linear, homogeneous of degree 1: a constant term
    raises ConstantTermError and a term of degree 2 or more raises
    SeriesError naming the image.  All images share one alphabet and cap, the
    cap of the result; f must be known at least to that cap so no unknown
    terms are silently dropped.  The constant term of f passes through.
    The substitution itself is :func:`scaled_substitute`.
    """
    images = list(images)
    alphabet = f.alphabet
    if len(images) != alphabet.size:
        raise AlphabetMismatch(f"need {alphabet.size} images for {alphabet!r}, got {len(images)}")
    target = images[0]
    for g, im in enumerate(images):
        target._check_compat(im)
        if im.constant_term:
            raise ConstantTermError("substitution images must have zero constant term")
        k = next((k for k in range(2, im.cap + 1) if im.scaled[k][1]), None)
        if k is not None:
            raise SeriesError(
                f"the image of {alphabet.names[g]} has a term of degree {k}; "
                "substitution images must be linear"
            )
    if f.cap < target.cap:
        raise CapMismatch(
            f"series known only to degree {f.cap}, cannot substitute at cap {target.cap}"
        )
    cap = target.cap
    den, forms = linear_forms([im.scaled[1] if cap else (1, {}) for im in images])
    return TruncatedSeries(target.alphabet, cap, scaled_substitute(f.scaled, forms, den, cap))


def substitute(f: TruncatedSeries, x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    """Evaluate a two-variable series at linear x, y, e.g. Phi(A, B) at t12, t23."""
    require_two_variables(f)
    return substitute_generators(f, (x, y))


def require_two_variables(f: TruncatedSeries):
    """Raise unless f lives over a 2-letter abstract alphabet, as :func:`substitute` needs."""
    if f.alphabet.kind != "abstract" or f.alphabet.size != 2:
        raise AlphabetMismatch("substitute expects a series over a 2-letter abstract alphabet")


# -- Lie structure -------------------------------------------------------


def _bracket_word(word: tuple) -> dict:
    """Left-normed bracketing [[..[a1,a2],..],ak] of a word, as {word: int}."""
    cur = {word[:1]: 1}
    for g in word[1:]:
        nxt = {w + (g,): c for w, c in cur.items()}
        for w, c in cur.items():
            w2 = (g,) + w
            cv = nxt.get(w2, 0) - c
            if cv:
                nxt[w2] = cv
            else:
                del nxt[w2]
        cur = nxt
    return cur


def lie_defect(s: TruncatedSeries) -> TruncatedSeries:
    """(k s_k - D s_k) / k in each degree k >= 1, with D the Dynkin map.

    D is the left-normed bracketing of each word, extended linearly.  A
    homogeneous x of degree k is a Lie element iff D x = k x
    (Dynkin-Specht-Wever), so the defect is zero exactly when s is a Lie
    series.  Each degree is bracketed in integers over its denominator.
    """
    if s.constant_term:
        raise ConstantTermError("Lie detection needs a zero constant term")
    slices = [(1, {})]
    for k in range(1, s.cap + 1):
        den, sl = s.scaled[k]
        total = {w: k * c for w, c in sl.items()}
        get = total.get
        for w, c in sl.items():
            for u, cu in _bracket_word(w).items():
                total[u] = get(u, 0) - c * cu
        slices.append(lowest_terms(den * k, total))
    return TruncatedSeries(s.alphabet, s.cap, tuple(slices))


def is_lie_element(s: TruncatedSeries) -> bool:
    """True iff every homogeneous component is a free-Lie element."""
    return lie_defect(s).is_zero()


# -- the signed-sum grammar ------------------------------------------------------
#
# Series and group-ring elements are written ``c*x + c*x - c*x``: a rational
# coefficient per term, each term after the first led by its sign.  Both
# directions work on a coefficient as its integer numerator and denominator.


def signed_sum_text(terms) -> str:
    """Join ``(numerator, denominator, tail)`` triples as ``c*x + c*x - c*x``; ``"0"`` when there are none.

    A term prints as the absolute value of its nonzero coefficient
    numerator / denominator, in lowest terms, followed by its tail, e.g.
    ``"*t12.t23"``, or ``""`` for a constant.
    """
    out = ""
    for num, den, tail in terms:
        g = gcd(num, den)
        body = f"{abs(num) // g}{tail}" if den == g else f"{abs(num) // g}/{den // g}{tail}"
        if out:
            out += f" {'-' if num < 0 else '+'} {body}"
        else:
            out = "-" + body if num < 0 else body
    return out or "0"


def signed_sum_terms(text: str, term_re, error, grammar: str):
    """Yield ``(numerator, denominator, match)`` per term of ``term (+- term)*``; ``""`` and ``"0"`` have none.

    The numerator carries the term's sign; the denominator is positive and
    the pair need not be in lowest terms.  term_re matches one term from its
    optional sign on, with the groups ``sign`` and ``rat``; syntax errors and
    a zero denominator raise ``error`` naming the grammar.
    """
    stripped = text.strip()
    if stripped in ("", "0"):
        return
    pos = 0
    while pos < len(stripped):
        m = term_re.match(stripped, pos)
        if not m or m.end() == pos:
            raise error(f"bad {grammar} syntax near {stripped[pos:pos + 20]!r}")
        if m.group("sign") is None and pos:
            raise error(f"missing +/- before {stripped[pos:pos + 20]!r}")
        rat = m.group("rat")
        # int() skips the whitespace that the grammar admits around "/".
        num, _, den = rat.partition("/")
        den = int(den) if den else 1
        if not den:
            raise error(f"zero denominator in {rat!r}")
        yield (-int(num) if m.group("sign") == "-" else int(num)), den, m
        pos = m.end()


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<rat>\d+(?:\s*/\s*\d+)?)"
    r"(?:\s*\*\s*(?P<word>[A-Za-z][A-Za-z0-9_]*(?:\s*\.\s*[A-Za-z][A-Za-z0-9_]*)*))?"
)


def parse_series(text: str, alphabet: Alphabet, cap: int | None = None) -> TruncatedSeries:
    """Parse the series grammar: ``term (+- term)*``, term = rational ["*" word].

    Words are generator names joined by ".".  Inverse of :meth:`TruncatedSeries.text`.
    Without a cap, the cap is the length of the longest word.  Each degree's
    terms are summed in integers over the lcm of their denominators.
    """
    degrees: dict = {}  # degree -> [(word, numerator, denominator)]
    for num, den, m in signed_sum_terms(text, _TERM_RE, SeriesError, "series"):
        word_txt = m.group("word")
        if word_txt is None:
            word = ()
        else:
            try:
                word = tuple(alphabet.index_of(g.strip()) for g in word_txt.split("."))
            except KeyError as exc:
                raise SeriesError(exc.args[0]) from None
        if cap is not None and len(word) > cap:
            raise SeriesError(f"word {word_txt!r} exceeds cap {cap}")
        degrees.setdefault(len(word), []).append((word, num, den))
    if cap is None:
        cap = max(degrees, default=0)
    if cap < 0:
        raise SeriesError("cap must be >= 0")
    slices = [(1, {})] * (cap + 1)
    for k, terms in degrees.items():
        den = lcm(*[d for _, _, d in terms])
        sl: dict = {}
        for word, num, d in terms:
            sl[word] = sl.get(word, 0) + num * (den // d)
        slices[k] = lowest_terms(den, sl)
    return TruncatedSeries(alphabet, cap, tuple(slices))


# -- the scaled-integer kernel ---------------------------------------------
#
# A scaled series is a tuple with one ``(den, {word: int})`` pair per degree,
# standing for ``{word: c / den}``.  Every slice an operation returns is in
# lowest terms: no zero numerators, and gcd(den, *numerators) == 1.


def scale_slice(sl: dict) -> tuple:
    """A slice of ints and Fractions as ``(den, {word: int})``, den the lcm of its denominators.

    With no zero value the pair is in lowest terms.
    """
    if not sl:
        return 1, {}
    den = lcm(*[c.denominator for c in sl.values()])
    if den == 1:
        return 1, {w: c.numerator for w, c in sl.items()}
    return den, {w: c.numerator * (den // c.denominator) for w, c in sl.items()}


def unscale_slice(den: int, sl: dict) -> dict:
    """``{word: c / den}`` as Fractions, one per distinct numerator."""
    if not sl:
        return {}
    out = {}
    fractions: dict = {}  # terms of a slice share few distinct values
    for w, c in sl.items():
        f = fractions.get(c)
        if f is None:
            f = fractions[c] = Fraction(c, den)
        out[w] = f
    return out


def lowest_terms(den: int, sl: dict) -> tuple:
    """Drop zero terms and divide out gcd(den, *numerators)."""
    sl = {w: c for w, c in sl.items() if c}
    g = gcd(den, *sl.values())
    if g != 1:
        den //= g
        sl = {w: c // g for w, c in sl.items()}
    return den, sl


def scaled_one(cap: int) -> tuple:
    return ((1, {(): 1}),) + ((1, {}),) * cap


def scaled_mul(a: tuple, b: tuple, cap: int) -> tuple:
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
        out.append(lowest_terms(den, tgt))
    return tuple(out)


def scaled_add(a: tuple, b: tuple) -> tuple:
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
            out.append(lowest_terms(den, sl))
    return tuple(out)


def scaled_times(a: tuple, c) -> tuple:
    """The scalar multiple c * a, for an int or Fraction c."""
    p, q = c.numerator, c.denominator
    if p == q:
        return a
    if not p:
        return ((1, {}),) * len(a)
    return tuple(lowest_terms(den * q, {w: v * p for w, v in sl.items()}) for den, sl in a)


def linear_forms(firsts) -> tuple:
    """Scaled degree-1 slices over one denominator D: ``(D, forms)``.

    ``forms[i]`` is slice i's terms as a tuple of ``(letter, numerator)``
    pairs, the form standing for sum numerator * letter / D.
    """
    den = lcm(*(d for d, _ in firsts))
    return den, tuple(tuple((w[0], c * (den // d)) for w, c in first.items()) for d, first in firsts)


def relabel(a: tuple, gmap) -> tuple:
    """a with letter g renamed gmap[g]; gmap is one-to-one, so no two words collide."""
    return tuple((den, {tuple([gmap[g] for g in w]): c for w, c in sl.items()}) for den, sl in a)


def scaled_substitute(f: tuple, forms: tuple, den_forms: int, cap: int) -> tuple:
    """The algebra map sending generator g of the scaled series f to forms[g] / den_forms.

    f holds at least cap + 1 degrees; its constant term passes through.  A
    word's image is a product of linear forms, expanded from its prefix's
    image in integers: degree k of the result is sum_w n_w N_w / (den_k D^k),
    with n_w / den_k the coefficients of f, D = den_forms and N_w the
    expanded numerators.  Only proper prefixes' images are kept: a word's own
    image is added into its slice as it is expanded, and a degree with no
    terms is skipped.
    """
    slices = [f[0]]
    # proper prefix of f's words -> the numerators of its image, one length at a time
    level = {(): {(): 1}}
    for k in range(1, cap + 1):
        den, sl = f[k]
        if sl:
            total: dict = {}
            get = total.get
            for w, n in sl.items():
                last = forms[w[-1]]
                for u, cu in level[w[:-1]].items():
                    for h, ch in last:
                        v = u + (h,)
                        total[v] = get(v, 0) + n * cu * ch
            slices.append(lowest_terms(den * den_forms**k, total))
        else:
            slices.append((1, {}))
        prefixes = {w[:k] for d in range(k + 1, cap + 1) for w in f[d][1]}
        level = {
            w: {u + (h,): cu * ch for u, cu in level[w[:-1]].items() for h, ch in forms[w[-1]]}
            for w in prefixes
        }
    return tuple(slices)


def scaled_exp_linear(form: tuple, den: int, s, cap: int) -> tuple:
    """exp(s x) in closed form for the linear x = sum n_g g / den, form = ((g, n_g), ...).

    Degree k is s^k x^k / k!, and x^k is the sum over the words of length k
    of the products of their letters' numerators, over den^k: with
    s = p / q each degree is one integer slice over k! (q den)^k, and no
    series is multiplied.  s is an int or a Fraction.
    """
    p, q = s.numerator, s.denominator
    scaled_form = [(g, n * p) for g, n in form]
    out = [(1, {(): 1})]
    level = {(): 1}
    for k in range(1, cap + 1):
        level = {u + (g,): cu * n for g, n in scaled_form for u, cu in level.items()}
        out.append(lowest_terms(factorial(k) * (q * den) ** k, level))
    return tuple(out)

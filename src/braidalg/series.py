"""Truncated noncommutative power series over exact rationals.

Every value downstream (quotient algebras, semidirect products, braid
representations) is built from these series.  A series lives over a fixed
:class:`Alphabet`, is truncated at an explicit degree cap, and stores exact
``fractions.Fraction`` coefficients keyed by words (tuples of generator
indices), sliced per degree for fast truncated multiplication.

Values are immutable after construction and every operation is pure, so
series can be shared freely between concurrent workers.
"""

from __future__ import annotations

import re
from fractions import Fraction

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

    ``slices[k]`` maps degree-k words to nonzero Fractions.  Do not mutate;
    use the arithmetic operations, which all return fresh values.  The hash
    is computed on first use and kept, so a series used as a cache key is
    hashed once.
    """

    __slots__ = ("alphabet", "cap", "slices", "_hash")

    def __init__(self, alphabet: Alphabet, cap: int, slices: tuple):
        self.alphabet = alphabet
        self.cap = cap
        self.slices = slices
        self._hash = None

    # -- construction -------------------------------------------------

    @staticmethod
    def from_terms(alphabet: Alphabet, cap: int, terms) -> "TruncatedSeries":
        """Build a series from {word: coefficient}; zero coefficients are dropped."""
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
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            sl = slices[len(word)]
            c = sl.get(word, ZERO) + c
            if c:
                sl[word] = c
            else:
                sl.pop(word, None)
        return TruncatedSeries(alphabet, cap, tuple(slices))

    # -- inspection ---------------------------------------------------

    @property
    def constant_term(self) -> Fraction:
        return self.slices[0].get((), ZERO)

    def coefficient(self, word) -> Fraction:
        word = tuple(word)
        if len(word) > self.cap:
            raise SeriesError(f"word of degree {len(word)} exceeds cap {self.cap}")
        return self.slices[len(word)].get(word, ZERO)

    def is_zero(self) -> bool:
        return not any(self.slices)

    def min_degree(self):
        """Lowest degree with a nonzero term, or None for the zero series."""
        for k, sl in enumerate(self.slices):
            if sl:
                return k
        return None

    def terms(self):
        """Yield (word, coefficient) pairs in deglex order."""
        for sl in self.slices:
            for word in sorted(sl):
                yield word, sl[word]

    def degree_slice(self, k: int) -> dict:
        if not 0 <= k <= self.cap:
            raise SeriesError(f"degree {k} outside 0..{self.cap}")
        return dict(self.slices[k])

    def homogeneous_part(self, k: int) -> "TruncatedSeries":
        slices = tuple(dict(sl) if d == k else {} for d, sl in enumerate(self.slices))
        return TruncatedSeries(self.alphabet, self.cap, slices)

    def truncated(self, new_cap: int) -> "TruncatedSeries":
        """Drop all terms above new_cap; requires new_cap <= cap."""
        if new_cap > self.cap:
            raise CapMismatch(f"cannot raise cap {self.cap} to {new_cap}")
        return TruncatedSeries(self.alphabet, new_cap, tuple(dict(sl) for sl in self.slices[: new_cap + 1]))

    def lifted(self, new_cap: int) -> "TruncatedSeries":
        """The same coefficients viewed at a higher cap (upper terms unknown-as-zero)."""
        if new_cap < self.cap:
            raise CapMismatch(f"cannot lower cap {self.cap} to {new_cap} (use truncated)")
        slices = [dict(sl) for sl in self.slices] + [dict() for _ in range(new_cap - self.cap)]
        return TruncatedSeries(self.alphabet, new_cap, tuple(slices))

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
        slices = []
        for a, b in zip(self.slices, other.slices):
            sl = dict(a)
            for w, c in b.items():
                c2 = sl.get(w, ZERO) + c
                if c2:
                    sl[w] = c2
                else:
                    sl.pop(w, None)
            slices.append(sl)
        return TruncatedSeries(self.alphabet, self.cap, tuple(slices))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c) -> "TruncatedSeries":
        c = c if isinstance(c, Fraction) else Fraction(c)
        if not c:
            return zero(self.alphabet, self.cap)
        return TruncatedSeries(
            self.alphabet, self.cap, tuple({w: cv * c for w, cv in sl.items()} for sl in self.slices)
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compat(other)
        cap = self.cap
        out = [dict() for _ in range(cap + 1)]
        for d1, s1 in enumerate(self.slices):
            if not s1:
                continue
            for d2 in range(cap - d1 + 1):
                s2 = other.slices[d2]
                if not s2:
                    continue
                tgt = out[d1 + d2]
                for u, cu in s1.items():
                    for v, cv in s2.items():
                        w = u + v
                        c = tgt.get(w, ZERO) + cu * cv
                        if c:
                            tgt[w] = c
                        else:
                            del tgt[w]
        return TruncatedSeries(self.alphabet, cap, tuple(out))

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
        result = one(self.alphabet, self.cap)
        power = result
        kfact = 1
        for k in range(1, self.cap + 1):
            power = power * self
            if power.is_zero():
                break
            kfact *= k
            result = result + power.scale(Fraction(1, kfact))
        return result

    def log(self) -> "TruncatedSeries":
        """log of a series with constant term 1; inverse of exp at the cap."""
        if self.constant_term != 1:
            raise ConstantTermError("log requires constant term 1")
        h = self - one(self.alphabet, self.cap)
        result = zero(self.alphabet, self.cap)
        power = one(self.alphabet, self.cap)
        for k in range(1, self.cap + 1):
            power = power * h
            if power.is_zero():
                break
            result = result + power.scale(Fraction((-1) ** (k + 1), k))
        return result

    def inverse(self) -> "TruncatedSeries":
        """Two-sided multiplicative inverse; constant term must be nonzero."""
        c = self.constant_term
        if not c:
            raise ConstantTermError("inverse requires a nonzero constant term")
        h = self.scale(1 / c) - one(self.alphabet, self.cap)
        result = one(self.alphabet, self.cap)
        power = result
        for _ in range(self.cap):
            power = power * h
            if power.is_zero():
                break
            result = result + power.scale(-1)
            power = power.scale(-1)
        return result.scale(1 / c)

    # -- symmetry -------------------------------------------------------

    def act(self, perm: Permutation) -> "TruncatedSeries":
        """Relabel strands: t_ij -> t_(pi i)(pi j), v_ij -> v_(pi i)(pi j)."""
        alphabet = self.alphabet
        gmap = [alphabet.permuted(g, perm) for g in range(alphabet.size)]
        slices = []
        for sl in self.slices:
            new = {}
            for w, c in sl.items():
                w2 = tuple(gmap[g] for g in w)
                c2 = new.get(w2, ZERO) + c
                if c2:
                    new[w2] = c2
                else:
                    del new[w2]
            slices.append(new)
        return TruncatedSeries(alphabet, self.cap, tuple(slices))

    # -- text form ------------------------------------------------------

    def text(self) -> str:
        """Render in the series grammar, e.g. ``1 + 1/24*t12.t23 - 1/24*t23.t12``."""
        parts = []
        for word, c in self.terms():
            body = str(c if c > 0 else -c)
            if word:
                body += "*" + self.alphabet.word_name(word)
            parts.append(("-" if c < 0 else "+", body))
        if not parts:
            return "0"
        sign0, body0 = parts[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    # -- equality -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.cap == other.cap
            and all(a == b for a, b in zip(self.slices, other.slices))
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.alphabet, self.cap, tuple(frozenset(sl.items()) for sl in self.slices))
            )
        return self._hash

    def __repr__(self):
        return f"<series {self.text()} | cap {self.cap} over {self.alphabet!r}>"


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


# -- substitution --------------------------------------------------------


def substitute_generators(f: TruncatedSeries, images) -> TruncatedSeries:
    """Algebra map sending generator g of f to images[g]; truncates at the images' cap.

    All images must share one alphabet and cap and have zero constant term;
    f must be known at least to that cap so no unknown terms are silently
    dropped.  The constant term of f passes through.
    """
    images = list(images)
    if len(images) != f.alphabet.size:
        raise AlphabetMismatch(
            f"need {f.alphabet.size} images for {f.alphabet!r}, got {len(images)}"
        )
    target = images[0]
    for im in images:
        target._check_compat(im)
        if im.constant_term:
            raise ConstantTermError("substitution images must have zero constant term")
    if f.cap < target.cap:
        raise CapMismatch(
            f"series known only to degree {f.cap}, cannot substitute at cap {target.cap}"
        )
    result = one(target.alphabet, target.cap).scale(f.constant_term)
    for deg in range(1, min(f.cap, target.cap) + 1):
        for word, c in f.slices[deg].items():
            prod = images[word[0]]
            for g in word[1:]:
                prod = prod * images[g]
            result = result + prod.scale(c)
    return result


def substitute(f: TruncatedSeries, x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    """Evaluate a two-variable series, e.g. Phi(A, B) at x, y."""
    if f.alphabet.kind != "abstract" or f.alphabet.size != 2:
        raise AlphabetMismatch("substitute expects a series over a 2-letter abstract alphabet")
    return substitute_generators(f, (x, y))


# -- Lie structure -------------------------------------------------------


def _bracket_word(word: tuple) -> dict:
    """Left-normed bracketing [[..[a1,a2],..],ak] of a word, as {word: coeff}."""
    cur = {word[:1]: ONE}
    for g in word[1:]:
        nxt = {}
        for w, c in cur.items():
            for w2, c2 in ((w + (g,), c), ((g,) + w, -c)):
                cv = nxt.get(w2, ZERO) + c2
                if cv:
                    nxt[w2] = cv
                else:
                    del nxt[w2]
        cur = nxt
    return cur


def left_bracketing(s: TruncatedSeries) -> TruncatedSeries:
    """Dynkin map: word-wise left-normed bracketing, extended linearly."""
    if s.constant_term:
        raise ConstantTermError("the Dynkin map needs a zero constant term")
    slices = [dict() for _ in range(s.cap + 1)]
    for k in range(1, s.cap + 1):
        tgt = slices[k]
        for word, c in s.slices[k].items():
            for w, cb in _bracket_word(word).items():
                cv = tgt.get(w, ZERO) + c * cb
                if cv:
                    tgt[w] = cv
                else:
                    del tgt[w]
    return TruncatedSeries(s.alphabet, s.cap, tuple(slices))


def lie_components(s: TruncatedSeries) -> dict:
    """Per-degree Dynkin verdicts: degree k holds iff bracketing gives k times the slice.

    A homogeneous component passes exactly when it lies in the free Lie
    algebra on the alphabet; zero components pass vacuously.
    """
    if s.constant_term:
        raise ConstantTermError("Lie detection needs a zero constant term")
    bracketed = left_bracketing(s)
    verdicts = {}
    for k in range(1, s.cap + 1):
        want = {w: k * c for w, c in s.slices[k].items()}
        verdicts[k] = bracketed.slices[k] == want
    return verdicts


def is_lie_element(s: TruncatedSeries) -> bool:
    """True iff every homogeneous component is a free-Lie element."""
    return all(lie_components(s).values())


# -- parsing --------------------------------------------------------------

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<rat>\d+(?:\s*/\s*\d+)?)"
    r"(?:\s*\*\s*(?P<word>[A-Za-z][A-Za-z0-9_]*(?:\s*\.\s*[A-Za-z][A-Za-z0-9_]*)*))?"
)


def parse_series(text: str, alphabet: Alphabet, cap: int | None = None) -> TruncatedSeries:
    """Parse the series grammar: ``term (+- term)*``, term = rational ["*" word].

    Words are generator names joined by ".".  Inverse of :meth:`TruncatedSeries.text`.
    Without a cap, the cap is the length of the longest word.
    """
    stripped = text.strip()
    if stripped in ("", "0"):
        return zero(alphabet, cap or 0)
    terms = []
    pos = 0
    first = True
    while pos < len(stripped):
        m = _TERM_RE.match(stripped, pos)
        if not m or m.end() == pos:
            raise SeriesError(f"bad series syntax near {stripped[pos:pos + 20]!r}")
        sign, rat, word_txt = m.group("sign"), m.group("rat"), m.group("word")
        if sign is None and not first:
            raise SeriesError(f"missing +/- before {stripped[pos:pos + 20]!r}")
        coeff = Fraction(rat.replace(" ", ""))
        if sign == "-":
            coeff = -coeff
        if word_txt is None:
            word = ()
        else:
            try:
                word = tuple(alphabet.index_of(g.strip()) for g in word_txt.split("."))
            except KeyError as exc:
                raise SeriesError(str(exc)) from None
        if cap is not None and len(word) > cap:
            raise SeriesError(f"word {word_txt!r} exceeds cap {cap}")
        terms.append((word, coeff))
        pos = m.end()
        first = False
    if cap is None:
        cap = max(len(word) for word, _ in terms)
    return TruncatedSeries.from_terms(alphabet, cap, terms)

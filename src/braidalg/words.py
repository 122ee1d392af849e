"""Welded braid words, group-ring elements, and the Aut(F_n) equality oracle.

The braid-permutation group consists of the automorphisms of the free group
sending each generator x_i to a conjugate of some x_{s(i)}.  Words in the
tokens a(i,j), s(i), sigma(i) are evaluated to such automorphisms; equality
of automorphisms (reduced image words compared letter-by-letter) is the
exact equality oracle for the group.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache, lru_cache

from .perms import Permutation, perm_from_transposition_word
from .series import rational, signed_sum_terms, signed_sum_text
from .value import OrderedValue, Value


class WordError(ValueError):
    pass


class Token(OrderedValue):
    """One letter of a welded word: a(i,j)^e, s(i) or sigma(i)^e with e = +-1.

    ``kind`` is "a", "s" or "sigma"; only "a" has a second label ``j``.
    Immutable; equal, hashed and ordered as its field tuple ``(kind, i, j, power)``.
    """

    __slots__ = ("kind", "i", "j", "power")

    def __init__(self, kind: str, i: int, j: int = 0, power: int = 1):
        if kind not in ("a", "s", "sigma"):
            raise WordError(f"unknown token kind {kind!r}")
        if power not in (1, -1):
            raise WordError("token powers must be expanded to +-1")
        if kind == "s" and power != 1:
            raise WordError("s(i) is its own inverse; use power 1")
        if kind == "a" and (i == j or i < 1 or j < 1):
            raise WordError(f"a({i},{j}) needs distinct positive labels")
        if kind != "a":
            if i < 1:
                raise WordError(f"{kind}({i}) needs a positive index")
            if j != 0:
                raise WordError(f"bad token: {kind}({i}) takes no second label, got {j}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "_key", (kind, i, j, power))

    def __repr__(self):
        return f"Token({self.kind!r}, {self.i}, {self.j}, {self.power})"

    def inverse(self) -> "Token":
        if self.kind == "s":
            return self
        return Token(self.kind, self.i, self.j, -self.power)

    def text(self) -> str:
        if self.kind == "a":
            base = f"a{self.i}{self.j}"
        elif self.kind == "s":
            return f"s{self.i}"
        else:
            base = f"sig{self.i}"
        return base if self.power == 1 else base + "^-1"


def a(i: int, j: int, power: int = 1) -> Token:
    return Token("a", i, j, power)


def s(i: int) -> Token:
    return Token("s", i)


def sigma(i: int, power: int = 1) -> Token:
    return Token("sigma", i, 0, power)


class WeldedWord(Value):
    """A word in the generators of the braid-permutation group on n strands.

    Immutable; equal and hashed as its field tuple ``(n, letters)``.  The
    letters may come as any iterable, and are stored as a tuple.  Hashing
    the key calls every letter's ``__hash__``, so the hash is computed on
    first use and kept.
    """

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters):
        letters = tuple(letters)
        for t in letters:
            if t.kind == "a":
                if not (1 <= t.i <= n and 1 <= t.j <= n):
                    raise WordError(f"token {t.text()} out of range for n={n}")
            elif not 1 <= t.i < n:
                raise WordError(f"token {t.text()} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_key", (n, letters))
        object.__setattr__(self, "_hash", None)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._key)
            object.__setattr__(self, "_hash", h)
        return h

    def __mul__(self, other: "WeldedWord") -> "WeldedWord":
        if self.n != other.n:
            raise WordError(f"strand mismatch: {self.n} vs {other.n}")
        return WeldedWord(self.n, self.letters + other.letters)

    def inverse(self) -> "WeldedWord":
        return WeldedWord(self.n, (t.inverse() for t in reversed(self.letters)))

    def is_braid_word(self) -> bool:
        return all(t.kind == "sigma" for t in self.letters)

    def text(self) -> str:
        return " ".join(t.text() for t in self.letters) if self.letters else ""

    def __repr__(self):
        return f"WeldedWord({self.n}, '{self.text()}')"


def word(n: int, *letters) -> WeldedWord:
    return WeldedWord(n, letters)


_TOKEN_RE = re.compile(r"(a|sig|s)(\d)(\d)?(?:\^(-?\d+))?\Z")


def parse_word(text: str, n: int) -> WeldedWord:
    """Grammar: whitespace-separated ``a12``, ``a12^-1``, ``a12^3``, ``s1``, ``sig1``.

    Powers expand at parse time; ``s`` tokens are involutions, so negative
    powers of them expand to the same letters.  Each token text is parsed
    once and each letter built once (:func:`_parse_token`), so a word holds
    one ``Token`` per distinct letter.
    """
    letters = []
    for tok in text.split():
        letter, count = _parse_token(tok)
        letters.extend([letter] * count)
    return WeldedWord(n, letters)


@lru_cache(maxsize=1024)
def _parse_token(tok: str) -> tuple:
    """(letter, count): the token text ``tok`` stands for ``count`` copies of ``letter``."""
    m = _TOKEN_RE.match(tok)
    if not m:
        raise WordError(f"bad token {tok!r}")
    kind_txt, i_txt, j_txt, pow_txt = m.groups()
    power = int(pow_txt) if pow_txt is not None else 1
    i = int(i_txt)
    if kind_txt == "a":
        if j_txt is None:
            raise WordError(f"token {tok!r} needs two strand labels")
        kind, j = "a", int(j_txt)
    elif j_txt is not None:
        raise WordError(f"bad token {tok!r}")
    else:
        kind, j = ("s" if kind_txt == "s" else "sigma"), 0
    sign = 1 if power >= 0 or kind == "s" else -1
    return _letter(kind, i, j, sign), abs(power)


@cache
def _letter(kind: str, i: int, j: int, power: int) -> Token:
    """One shared Token per letter; the grammar's labels are digits, so few are kept."""
    return Token(kind, i, j, power)


# -- free group automorphisms ------------------------------------------------


def _free_reduce(seq) -> tuple:
    out = []
    for g in seq:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def _apply_word(images, letters) -> tuple:
    """The image of a free-group word under x_i -> images[i - 1], freely reduced."""
    out = []
    for g in letters:
        out.extend(images[g - 1] if g > 0 else [-h for h in reversed(images[-g - 1])])
    return _free_reduce(out)


class FreeGroupEndo(Value):
    """Images of the free-group generators; letters are +-(1..n), reduced.

    Immutable; ``images`` is stored as a tuple of tuples, so any sequences of
    the same letters give the same value.  Equal and hashed as its field
    tuple ``(n, images)``.
    """

    __slots__ = ("n", "images")

    def __init__(self, n: int, images):
        images = tuple(map(tuple, images))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_key", (n, images))

    def __repr__(self):
        return f"FreeGroupEndo({self.n}, {self.images!r})"

    @staticmethod
    def identity(n: int) -> "FreeGroupEndo":
        return FreeGroupEndo(n, tuple((i,) for i in range(1, n + 1)))

    @staticmethod
    def generator_a(n: int, i: int, j: int, power: int = 1) -> "FreeGroupEndo":
        """a(i,j): x_i -> x_j^-1 x_i x_j, fixing the other generators."""
        images = [(k,) for k in range(1, n + 1)]
        if power == 1:
            images[i - 1] = (-j, i, j)
        else:
            images[i - 1] = (j, i, -j)
        return FreeGroupEndo(n, tuple(images))

    @staticmethod
    def generator_s(n: int, i: int) -> "FreeGroupEndo":
        images = [(k,) for k in range(1, n + 1)]
        images[i - 1], images[i] = (i + 1,), (i,)
        return FreeGroupEndo(n, tuple(images))

    def apply_word(self, letters) -> tuple:
        """Image of a free-group word, freely reduced."""
        return _apply_word(self.images, letters)

    def compose(self, other: "FreeGroupEndo") -> "FreeGroupEndo":
        """(self . other)(x) = self(other(x))."""
        if self.n != other.n:
            raise WordError(f"rank mismatch: {self.n} vs {other.n}")
        return FreeGroupEndo(self.n, tuple(self.apply_word(w) for w in other.images))

    def permutation_part(self) -> Permutation:
        """Abelianized strand action; defined for permutation-conjugacy endos."""
        images = []
        for idx, img in enumerate(self.images, start=1):
            counts = {}
            for g in img:
                counts[abs(g)] = counts.get(abs(g), 0) + (1 if g > 0 else -1)
            nonzero = {k: v for k, v in counts.items() if v}
            if len(nonzero) != 1 or set(nonzero.values()) != {1}:
                raise WordError(f"image of x_{idx} is not a conjugate of a generator")
            images.append(next(iter(nonzero)))
        return Permutation(images)

    def fixes_product_of_generators(self) -> bool:
        """Whether x_1 x_2 ... x_n is fixed (Artin's characterization of braids)."""
        return self.apply_word(range(1, self.n + 1)) == tuple(range(1, self.n + 1))


def _token_endo(n: int, t: Token) -> FreeGroupEndo:
    if t.kind == "a":
        return FreeGroupEndo.generator_a(n, t.i, t.j, t.power)
    if t.kind == "s":
        return FreeGroupEndo.generator_s(n, t.i)
    # sigma_i = a_{i,i+1} s_i; the inverse reverses and inverts.
    ai = FreeGroupEndo.generator_a(n, t.i, t.i + 1, t.power)
    si = FreeGroupEndo.generator_s(n, t.i)
    return ai.compose(si) if t.power == 1 else si.compose(ai)


@cache
def _token_moves(n: int, t: Token) -> tuple:
    """The generators a letter moves, as (index, image) pairs; it fixes the others."""
    return tuple(
        (k, img) for k, img in enumerate(_token_endo(n, t).images) if img != (k + 1,)
    )


def as_automorphism(w: WeldedWord) -> FreeGroupEndo:
    """Evaluate a welded word in Aut(F_n); the group product is composition.

    Composing with a letter's endomorphism changes only the images of the
    generators it moves, so only those are recomputed, and one
    FreeGroupEndo is built per word.
    """
    images = [(k,) for k in range(1, w.n + 1)]
    for t in w.letters:
        moved = [(k, _apply_word(images, img)) for k, img in _token_moves(w.n, t)]
        for k, img in moved:
            images[k] = img
    return FreeGroupEndo(w.n, images)


def words_equal_in_bp(w1: WeldedWord, w2: WeldedWord) -> bool:
    """Exact equality in the braid-permutation group via the faithful action.

    The strand permutations are compared first, and the automorphisms only
    when those agree.  A word's strand permutation, the product of its s and
    sigma indices, equals the ``permutation_part`` of its automorphism:
    a(i,j) sends each x_k to a conjugate of x_k, and s_i and sigma_i send
    x_i, x_{i+1} to conjugates of x_{i+1}, x_i.  So the permutation is a
    function of the automorphism, and unequal permutations prove unequal
    automorphisms.
    """
    if w1.n != w2.n:
        raise WordError(f"strand mismatch: {w1.n} vs {w2.n}")
    p1, p2 = (
        perm_from_transposition_word(w.n, [t.i for t in w.letters if t.kind != "a"]) for w in (w1, w2)
    )
    return p1 == p2 and as_automorphism(w1) == as_automorphism(w2)


def pure_braid_generator(j: int, i: int, n: int) -> WeldedWord:
    """alpha_{ji} = sigma_{i-1} ... sigma_{j+1} sigma_j^2 sigma_{j+1}^-1 ... sigma_{i-1}^-1."""
    if not 1 <= j < i <= n:
        raise WordError(f"need 1 <= j < i <= n, got j={j}, i={i}, n={n}")
    conj = [sigma(k) for k in range(i - 1, j, -1)]
    body = [sigma(j), sigma(j)]
    return WeldedWord(n, conj + body + [t.inverse() for t in reversed(conj)])


# -- defining relations -------------------------------------------------------


def _commutator(u: WeldedWord, v: WeldedWord) -> WeldedWord:
    return u * v * u.inverse() * v.inverse()


def mccool_relations(n: int) -> list:
    """All McCool relators (I), (II), (III), one word per valid index tuple."""
    rels = []
    strands = range(1, n + 1)
    for i in strands:
        for j in strands:
            for k in strands:
                if len({i, j, k}) != 3:
                    continue
                rels.append(
                    (f"(a{i}{k},a{j}{k})", _commutator(word(n, a(i, k)), word(n, a(j, k))))
                )
                rels.append(
                    (
                        f"(a{i}{j},a{i}{k}a{j}{k})",
                        _commutator(word(n, a(i, j)), word(n, a(i, k), a(j, k))),
                    )
                )
    for i in strands:
        for j in strands:
            for k in strands:
                for l in strands:
                    if len({i, j, k, l}) != 4:
                        continue
                    rels.append(
                        (f"(a{i}{j},a{k}{l})", _commutator(word(n, a(i, j)), word(n, a(k, l))))
                    )
    return rels


def braid_relations(n: int) -> list:
    """Artin relators in sigma tokens: far commutation and the braid relation."""
    rels = []
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append(
                (f"(sig{i},sig{j})", _commutator(word(n, sigma(i)), word(n, sigma(j))))
            )
    for i in range(1, n - 1):
        lhs = word(n, sigma(i + 1), sigma(i), sigma(i + 1))
        rhs = word(n, sigma(i), sigma(i + 1), sigma(i))
        rels.append((f"braid({i},{i + 1})", lhs * rhs.inverse()))
    return rels


def equivariance_relations(n: int) -> list:
    """s a(i,j) s^-1 = a(s(i),s(j)) for adjacent transpositions, as relators."""
    rels = []
    for k in range(1, n):
        sk = Permutation.transposition(n, k)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                lhs = word(n, s(k), a(i, j), s(k))
                rhs = word(n, a(sk(i), sk(j)))
                rels.append((f"s{k} a{i}{j} s{k} = a{sk(i)}{sk(j)}", lhs * rhs.inverse()))
    return rels


# -- group ring ----------------------------------------------------------------


_RING_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<rat>\d+(?:/\d+)?)\s*\*\s*\[(?P<word>[^\]]*)\]"
)


class GroupRingElement:
    """Rational combination of welded words, each kept in its given spelling.

    Coefficients are ints or Fractions; a float raises TypeError.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict):
        self.n = n
        clean = {}
        for w, c in terms.items():
            if w.n != n:
                raise WordError(f"strand mismatch: {w.n} vs {n}")
            c = c if isinstance(c, Fraction) else Fraction(rational(c))
            if c:
                clean[w] = c
        self.terms = clean

    @staticmethod
    def from_word(w: WeldedWord, coeff=1) -> "GroupRingElement":
        return GroupRingElement(w.n, {w: coeff})

    @staticmethod
    def one(n: int) -> "GroupRingElement":
        return GroupRingElement(n, {WeldedWord(n, ()): Fraction(1)})

    def __add__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        if self.n != other.n:
            raise WordError("strand mismatch")
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, Fraction(0)) + c
        return GroupRingElement(self.n, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "GroupRingElement":
        c = rational(c)
        return GroupRingElement(self.n, {w: cv * c for w, cv in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        if self.n != other.n:
            raise WordError("strand mismatch")
        terms: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                terms[w] = terms.get(w, Fraction(0)) + c1 * c2
        return GroupRingElement(self.n, terms)

    def __pow__(self, k: int):
        if k < 0:
            raise WordError("group-ring powers need k >= 0")
        out = GroupRingElement.one(self.n)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def text(self) -> str:
        order = sorted(self.terms, key=lambda w: (len(w.letters), w.text()))
        terms = self.terms
        return signed_sum_text((terms[w].numerator, terms[w].denominator, f"*[{w.text()}]") for w in order)

    @staticmethod
    def parse(text: str, n: int) -> "GroupRingElement":
        """Grammar: ``rational * [word] (+- rational * [word])*``, [] = identity."""
        terms: dict = {}
        for num, den, m in signed_sum_terms(text, _RING_TERM_RE, WordError, "group-ring"):
            w = parse_word(m.group("word"), n)
            terms[w] = terms.get(w, Fraction(0)) + Fraction(num, den)
        return GroupRingElement(n, terms)

    def __repr__(self):
        return f"<group-ring {self.text()} | n={self.n}>"

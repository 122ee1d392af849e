"""Graded quotients of free algebras by homogeneous degree-2 relations.

The infinitesimal Artin algebra (chord generators t_ij), the oriented Artin
algebra (ordered generators v_ij) and its upper-triangular variant all have
the same normal forms: reduction modulo the slice of the two-sided relation
ideal in reduced row echelon form over exact rationals, with deglex pivoting.
They yield canonical representatives, equality tests and dimensions of the
graded pieces; ``GradedQuotientBasis.reduce`` is the one reduction.

The oriented presets hold, per degree k, a table echelonizing u * r * w
exhaustively over relations r and words u, w.  Finished tables are immutable,
shared through a process-wide registry and can be persisted to a disk cache.
The degree-2 rows of the chord presets are a Groebner basis of their ideal,
so a chord basis holds no table: it rewrites each word it meets by those
rules alone, and memoizes the word's normal form process-wide.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, product

from .linalg import SparseEchelon, demote
from .lyndon import lyndon_words, lyndon_bracket
from .series import (
    Alphabet,
    AlphabetMismatch,
    CapMismatch,
    TruncatedSeries,
    generator,
    scale_slice,
    unscale_slice,
    word_key,
)

CACHE_FORMAT = "braidalg-basis v2"


class BasisError(ValueError):
    """Missing degree, wrong preset, or malformed cache data."""


@dataclass(frozen=True, slots=True)
class RelationPreset:
    """A named family of degree-2 relations over a fixed alphabet."""

    kind: str
    n: int
    alphabet: Alphabet

    def key(self) -> str:
        if self.kind == "free":
            if self.alphabet.kind == "abstract":
                return f"free[{','.join(self.alphabet.names)}]"
            return f"free[{self.alphabet.kind}({self.alphabet.n})]"
        return f"{self.kind}({self.n})"

    def relations(self) -> list:
        """The defining degree-2 relation series, generated exhaustively."""
        cap = 2
        alph = self.alphabet
        rels = []

        def comm(a, b):
            return a * b - b * a

        def g(i, j):
            return generator(alph, cap, (i, j))

        strands = range(1, self.n + 1)
        if self.kind == "infinitesimal_artin":
            # [t_ij, t_ik + t_jk] over unordered pairs {i,j}; swapping i,j repeats it.
            for i in strands:
                for j in strands:
                    if j <= i:
                        continue
                    for k in strands:
                        if k in (i, j):
                            continue
                        rels.append(comm(g(i, j), g(i, k) + g(j, k)))
            # [t_ij, t_kl] for disjoint unordered pairs, each pair-of-pairs once.
            for (i, j), (k, l) in _disjoint_pairs(alph):
                rels.append(comm(g(i, j), g(k, l)))
        elif self.kind in ("oriented_artin", "oriented_upper_triangular"):
            upper = self.kind == "oriented_upper_triangular"
            # (I) [v_ik, v_jk]; antisymmetric in i,j, so take i < j once.
            for k in strands:
                for i in strands:
                    for j in strands:
                        if i >= j or k in (i, j):
                            continue
                        if upper and not (i > k and j > k):
                            continue
                        rels.append(comm(g(i, k), g(j, k)))
            # (II) [v_ij, v_ik + v_jk]; genuinely ordered in (i, j).
            for i in strands:
                for j in strands:
                    if i == j:
                        continue
                    for k in strands:
                        if k in (i, j):
                            continue
                        if upper and not (i > j > k):
                            continue
                        rels.append(comm(g(i, j), g(i, k) + g(j, k)))
            # (III) [v_ij, v_kl] over disjoint ordered pairs, each pair-of-pairs once.
            for (i, j), (k, l) in _disjoint_pairs(alph):
                if upper and not (i > j and k > l):
                    continue
                rels.append(comm(g(i, j), g(k, l)))
        elif self.kind != "free":
            raise BasisError(f"unknown preset kind {self.kind!r}")
        return rels

    def __repr__(self):
        return f"RelationPreset({self.key()})"


def _disjoint_pairs(alphabet: Alphabet) -> list:
    """Generator label pairs on disjoint strands, each pair-of-pairs once, in label order."""
    return [(p, q) for p, q in combinations(alphabet.pairs, 2) if not set(p) & set(q)]


def infinitesimal_artin(n: int) -> RelationPreset:
    """Chord generators t_ij with the infinitesimal braid relations."""
    return RelationPreset("infinitesimal_artin", n, Alphabet.chord(n))


def oriented_artin(n: int) -> RelationPreset:
    """Ordered generators v_ij with relations (I), (II), (III)."""
    return RelationPreset("oriented_artin", n, Alphabet.oriented(n))


def oriented_upper_triangular(n: int) -> RelationPreset:
    """Same alphabet as oriented_artin, restricted relation sublist."""
    return RelationPreset("oriented_upper_triangular", n, Alphabet.oriented(n))


def free_preset(alphabet: Alphabet) -> RelationPreset:
    """No relations: the free algebra on the given alphabet."""
    return RelationPreset("free", alphabet.n, alphabet)


PRESET_KINDS = (
    "infinitesimal_artin",
    "oriented_artin",
    "oriented_upper_triangular",
)


def preset_by_name(kind: str, n: int) -> RelationPreset:
    if kind not in PRESET_KINDS:
        raise BasisError(f"unknown preset {kind!r}; choose from {PRESET_KINDS}")
    return {
        "infinitesimal_artin": infinitesimal_artin,
        "oriented_artin": oriented_artin,
        "oriented_upper_triangular": oriented_upper_triangular,
    }[kind](n)


class GradedQuotientBasis:
    """Echelonized ideal slices of one preset, complete through a degree cap."""

    __slots__ = ("preset", "cap", "_tables", "_prim")

    def __init__(self, preset: RelationPreset, cap: int, tables: dict):
        self.preset = preset
        self.cap = cap
        self._tables = tables
        self._prim = {}

    @property
    def alphabet(self) -> Alphabet:
        return self.preset.alphabet

    def _check(self, k: int):
        if not 0 <= k <= self.cap:
            raise BasisError(f"basis for {self.preset.key()} not built at degree {k}")

    def table(self, k: int) -> SparseEchelon:
        self._check(k)
        return self._tables[k]

    def pivot_words(self, k: int):
        return sorted(self.table(k).pivots())

    def normal_words(self, k: int) -> list:
        """Deglex-sorted non-pivot words: a basis of the degree-k graded piece."""
        # product yields the words of one degree in lexicographic, so deglex, order.
        pivots = self.table(k).rows
        return [w for w in product(range(self.alphabet.size), repeat=k) if w not in pivots]

    def dimension(self, k: int) -> int:
        return self.alphabet.size**k - self.table(k).rank

    def reduce(self, k: int, vec: dict) -> dict:
        """Normal form of a degree-k slice; integer slices stay integral."""
        return self.table(k).reduce(vec)

    def reduce_slice(self, k: int, vec: dict) -> dict:
        """Reduce a degree-k slice of rationals in integers; a Fraction only per surviving term."""
        den, scaled = scale_slice(vec)
        return unscale_slice(den, self.reduce(k, scaled))

    def normal_form(self, s: TruncatedSeries) -> TruncatedSeries:
        """Canonical representative supported on non-pivot words; idempotent."""
        if s.alphabet != self.alphabet:
            raise AlphabetMismatch(f"{s.alphabet!r} vs preset alphabet {self.alphabet!r}")
        if s.cap > self.cap:
            raise CapMismatch(f"series cap {s.cap} exceeds basis cap {self.cap}")
        slices = tuple(self.reduce_slice(k, sl) for k, sl in enumerate(s.slices))
        return TruncatedSeries(s.alphabet, s.cap, slices)

    def equal_mod_relations(self, a: TruncatedSeries, b: TruncatedSeries) -> bool:
        return self.normal_form(a - b).is_zero()

    # -- primitive (Lie) slices ------------------------------------------

    def primitive_slice(self, k: int) -> SparseEchelon:
        """Span of the reduced free-Lie bracketings in degree k.

        The graded quotient is the enveloping algebra of its Lie quotient, so
        this span is exactly the degree-k primitive part.
        """
        ech = self._prim.get(k)
        if ech is None:
            if k > self.cap:
                raise BasisError(f"basis built only to degree {self.cap}")
            ech = SparseEchelon(key=word_key)
            if k >= 1:
                for w in lyndon_words(self.alphabet.size, k):
                    bracket = lyndon_bracket(self.alphabet, k, w)
                    ech.add(self.reduce(k, bracket.slices[k]))
            # Threads racing here each build an equal slice; all of them
            # return the one that was published first.
            ech = self._prim.setdefault(k, ech)
        return ech

    def is_primitive(self, s: TruncatedSeries) -> bool:
        """True iff every homogeneous part of the normal form is a reduced Lie element."""
        nf = self.normal_form(s)
        if nf.constant_term:
            return False
        return all(
            self.primitive_slice(k).contains(nf.slices[k]) for k in range(1, nf.cap + 1)
        )

    def __repr__(self):
        return f"GradedQuotientBasis({self.preset.key()}, cap={self.cap})"


class _ChordBasis(GradedQuotientBasis):
    """Chord normal forms from the degree-2 rules and a process-wide word memo; no tables.

    The leading words of the chord ideal are the words holding a degree-2
    pivot pair (tests/test_quotient.py checks Kohno's dimensions against that
    count), so rewriting pivot pairs alone reaches every normal form.
    """

    __slots__ = ("_rules", "_memo")

    def __init__(self, preset: RelationPreset, cap: int):
        super().__init__(preset, cap, {})
        state = _CHORD_STATE.get(preset.key())
        if state is None:
            ech = _echelon_table(preset, 2, preset.relations())
            rules = {pair: ech.replacement(pair) for pair in ech.pivots()}
            # Threads racing here build equal rules; all keep the first published.
            state = _CHORD_STATE.setdefault(preset.key(), (rules, {}))
        self._rules, self._memo = state

    def table(self, k: int) -> SparseEchelon:
        """The degree-k rows pivot - NF(pivot): the reduced echelon form of the ideal slice."""
        self._check(k)
        nfs = {w: self._nf(w) for w in product(range(self.alphabet.size), repeat=k)}
        rows = {w: {w: 1, **{u: -c for u, c in nf.items()}} for w, nf in nfs.items() if w not in nf}
        return SparseEchelon(key=word_key, rows=rows)

    def normal_words(self, k: int) -> list:
        """Deglex-sorted words avoiding the pivot pairs: a basis of the degree-k graded piece."""
        self._check(k)
        letters = range(self.alphabet.size)
        words = [()]
        for _ in range(k):
            words = [w + (b,) for w in words for b in letters if w[-1:] + (b,) not in self._rules]
        return words

    def dimension(self, k: int) -> int:
        return len(self.normal_words(k))

    def reduce(self, k: int, vec: dict) -> dict:
        """sum c * NF(x) over the terms c * x of a degree-k slice, memoizing each NF(x)."""
        self._check(k)
        memo = self._memo
        out = {}
        for x, c in vec.items():
            try:
                nf = memo[x]
            except KeyError:
                nf = self._nf(x)
            for u, cu in nf.items():
                cv = out.get(u, 0) + c * cu
                if cv:
                    out[u] = cv
                else:
                    out.pop(u, None)
        return out

    def _nf(self, w: tuple) -> dict:
        """NF(w) as {normal word: coefficient}, memoized; {w: 1} when w is normal.

        NF(a.v) = NF(a.NF(v)).  When v is normal, so is a.v, unless (a, v[0])
        is a pivot pair, which its rule rewrites.  Every word this reaches is
        below w in deglex order, so the recursion ends, and the result is the
        unique reduced form whatever order words are met in.
        """
        memo = self._memo
        if w in memo:
            return memo[w]
        # The empty word is normal; a word's form holds the word iff it is normal.
        tail = self._nf(w[1:]) if w else {w: 1}
        if w[1:] not in tail:
            terms = {w[:1] + u: c for u, c in tail.items()}
        elif w[:2] in self._rules:
            terms = {pair + w[2:]: c for pair, c in self._rules[w[:2]].items()}
        else:
            return memo.setdefault(w, {w: 1})
        # Threads racing on a word compute equal forms; all keep the first published.
        return memo.setdefault(w, self.reduce(len(w), terms))


# -- construction and registry -------------------------------------------

_TABLE_STORE: dict = {}
_CHORD_STATE: dict = {}  # chord preset key -> (degree-2 rules, word memo)


def build_graded_basis(preset: RelationPreset, cap: int, cache_dir=None) -> GradedQuotientBasis:
    """The normal forms of a preset through the cap, shared process-wide.

    A chord (infinitesimal_artin) basis holds its degree-2 rules and word memo
    and touches no file.  Another preset's table the store holds touches no
    file either; one absent from it is loaded from cache_dir, when given, or
    built and written there.
    """
    if cap < 0:
        raise BasisError("cap must be >= 0")
    if preset.kind == "infinitesimal_artin":
        return _ChordBasis(preset, cap)
    tables = {}
    # Built at the first table this call computes and the first cache file it
    # reads or writes, so a call served wholly from the store builds neither.
    relations = cache(preset.relations)
    digest = None
    for k in range(cap + 1):
        key = (preset.key(), k)
        ech = _TABLE_STORE.get(key)
        if ech is None:
            if cache_dir is not None:
                if digest is None:
                    digest = _relations_digest(relations())
                ech = _load_table(cache_dir, preset, k, digest)
            if ech is None:
                ech = _echelon_table(preset, k, relations())
                if cache_dir is not None:
                    _save_table(cache_dir, preset, k, ech, digest)
            _TABLE_STORE[key] = ech
        tables[k] = ech
    return GradedQuotientBasis(preset, cap, tables)


def _echelon_table(preset: RelationPreset, k: int, relations: list) -> SparseEchelon:
    """Echelonize u * r * w over the relations r and words u, w of total degree k."""
    ech = SparseEchelon(key=word_key)
    # The relations are integral: echelonize in int, not Fraction, arithmetic.
    rel_slices = [{w: demote(c) for w, c in r.slices[2].items()} for r in relations]
    m = preset.alphabet.size
    for a in range(k - 1):
        b = k - 2 - a
        for u in product(range(m), repeat=a):
            for rel in rel_slices:
                for w in product(range(m), repeat=b):
                    ech.add({u + rw + w: c for rw, c in rel.items()})
    return ech


# -- disk cache ------------------------------------------------------------


def _cache_path(cache_dir, preset: RelationPreset, k: int) -> str:
    return os.path.join(str(cache_dir), f"{preset.key()}__deg{k}.basis")


def _relations_digest(relations: list) -> str:
    """sha256 of a preset's relation set, so a cache file never outlives a change to it."""
    # Imported here: hashlib maps OpenSSL, about 4 MB of resident memory that
    # only a run reading or writing the cache should pay.
    import hashlib

    texts = sorted(r.text() for r in relations)
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def _save_table(cache_dir, preset: RelationPreset, k: int, ech: SparseEchelon, digest: str):
    os.makedirs(str(cache_dir), exist_ok=True)
    alph = preset.alphabet
    name = alph.word_name
    header = [
        f"#% {CACHE_FORMAT}",
        f"#% preset {preset.key()}",
        f"#% degree {k}",
        f"#% alphabet {alph.kind}({alph.n if alph.kind != 'abstract' else ','.join(alph.names)})",
        f"#% rows {ech.rank}",
        f"#% relations {digest}",
    ]
    # Atomic write-then-rename: concurrent readers never observe partial files.
    fd, tmp = tempfile.mkstemp(dir=str(cache_dir), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write("\n".join(header) + "\n")
            # One row per pivot: "pivot -> replacement", the replacement as
            # TruncatedSeries.text() writes it.  _read_table accepts exactly
            # this syntax.  The row holds pivot - replacement, so a positive
            # entry is a "-" term.
            for pivot, row in sorted(ech.rows.items()):
                repl = " ".join(
                    f"{'-' if c > 0 else '+'} {abs(c)!s}*{name(word)}"
                    for word, c in sorted(row.items())
                    if word != pivot
                )
                if not repl:
                    repl = "0"
                elif repl[0] == "+":
                    repl = repl[2:]
                else:
                    repl = "-" + repl[2:]
                handle.write(f"{name(pivot)} -> {repl}\n")
        os.replace(tmp, _cache_path(cache_dir, preset, k))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Rejected(Exception):
    """A cache file that must be rebuilt; the message says why."""


def _load_table(cache_dir, preset: RelationPreset, k: int, digest: str):
    """Reload one degree table, or None when it must be rebuilt.

    The reason -- missing file, stale header or failed body check -- is
    logged at DEBUG on the ``braidalg.quotient`` logger.
    """
    path = _cache_path(cache_dir, preset, k)
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
        return _read_table(lines, preset, k, digest)
    except FileNotFoundError:
        reason = "missing file"
    except UnicodeDecodeError:
        reason = "failed body check: not text"
    except _Rejected as exc:
        reason = str(exc)
    _log_debug("rebuilding %s: %s", path, reason)
    return None


def _log_debug(message: str, *args):
    # Imported here: importing logging adds about 10 ms to every run of the
    # package, and only a rebuild logs.
    import logging

    logging.getLogger(__name__).debug(message, *args)


def _check_header(lines: list, preset: RelationPreset, k: int, digest: str) -> tuple:
    """Check the format line and the preset, degree and relations fields; raise _Rejected.

    Returns the fields of the ``#% `` lines and the index of the first line after them.
    """
    if not lines or lines[0] != f"#% {CACHE_FORMAT}":
        raise _Rejected(f"stale header: format {lines[0] if lines else ''!r}")
    header = {}
    start = 1
    while start < len(lines) and lines[start].startswith("#% "):
        field, _, value = lines[start][3:].partition(" ")
        header[field] = value
        start += 1
    expected = {"preset": preset.key(), "degree": str(k), "relations": digest}
    for field, value in expected.items():
        if header.get(field) != value:
            raise _Rejected(f"stale header: {field} {header.get(field)!r}, expected {value!r}")
    return header, start


def _read_table(lines: list, preset: RelationPreset, k: int, digest: str) -> SparseEchelon:
    """Check and parse the lines of a cache file in one pass; raise _Rejected.

    Word names and coefficient texts recur across rows, so each is parsed
    once per file and its tuple, int or Fraction shared by every row using it.
    """
    header, start = _check_header(lines, preset, k, digest)
    body = lines[start:]
    if header.get("rows") != str(len(body)):
        raise _Rejected(f"stale header: rows {header.get('rows')!r}, expected {str(len(body))!r}")

    index = {name: g for g, name in enumerate(preset.alphabet.names)}
    words = {}  # word name -> word tuple
    entries = {}  # negated signed coefficient text -> row entry

    def word_of(name):
        try:
            word = tuple(index[g] for g in name.split("."))
        except KeyError:
            raise _Rejected(f"failed body check: unknown generator in {name!r}") from None
        if len(word) != k:
            raise _Rejected(f"failed body check: {name!r} is not of degree {k}")
        words[name] = word
        return word

    def entry_of(key, text):
        try:
            c = Fraction(key)
        except (ValueError, ZeroDivisionError):
            c = None
        # _save_table writes each coefficient as str() of its absolute value.
        if not c or str(abs(c)) != text:
            raise _Rejected(f"failed body check: bad coefficient {text!r}")
        # Integral values as int, as SparseEchelon stores them.
        c = entries[key] = demote(c)
        return c

    rows = {}
    cols = set()  # the words rows mention off-pivot
    for line in body:
        pivot_txt, arrow, repl_txt = line.partition(" -> ")
        if not arrow:
            raise _Rejected(f"failed body check: no ' -> ' in {line!r}")
        pivot = words.get(pivot_txt)
        if pivot is None:
            pivot = word_of(pivot_txt)
        if pivot in rows:
            raise _Rejected(f"failed body check: duplicate pivot {pivot_txt!r}")
        row = rows[pivot] = {pivot: 1}
        if repl_txt == "0":
            continue
        # "-c*w + c*w - c*w": give the first term a sign token of its own,
        # then read (sign, term) pairs.
        if repl_txt.startswith("-"):
            tokens = ("- " + repl_txt[1:]).split(" ")
        else:
            tokens = ("+ " + repl_txt).split(" ")
        if len(tokens) % 2:
            raise _Rejected(f"failed body check: dangling sign in {line!r}")
        pairs = iter(tokens)
        for sign, term in zip(pairs, pairs):
            coeff_txt, star, name = term.partition("*")
            if not star:
                raise _Rejected(f"failed body check: no '*' in term {term!r}")
            # The row holds pivot - replacement, so each entry is the
            # term's coefficient negated.
            if sign == "+":
                key = "-" + coeff_txt
            elif sign == "-":
                key = coeff_txt
            else:
                raise _Rejected(f"failed body check: bad sign {sign!r}")
            c = entries.get(key)
            if c is None:
                c = entry_of(key, coeff_txt)
            word = words.get(name)
            if word is None:
                word = word_of(name)
            if word >= pivot:
                raise _Rejected(f"failed body check: {name!r} not below pivot {pivot_txt!r}")
            if word in row:
                raise _Rejected(f"failed body check: {name!r} repeated in row {pivot_txt!r}")
            row[word] = c
            cols.add(word)
    # Single-pass reduction needs an inter-reduced table: no stored row may
    # mention another pivot off-pivot.
    if not rows.keys().isdisjoint(cols):
        raise _Rejected("failed body check: a row mentions another pivot")
    return SparseEchelon(key=word_key, rows=rows)


def hilbert_row(preset: RelationPreset, cap: int, cache_dir=None) -> list:
    """Dimensions of the graded pieces in degrees 0..cap."""
    basis = build_graded_basis(preset, cap, cache_dir)
    return [basis.dimension(k) for k in range(cap + 1)]

"""Graded quotients of free algebras by homogeneous degree-2 relations.

The infinitesimal Artin algebra (chord generators t_ij), the oriented Artin
algebra (ordered generators v_ij) and its upper-triangular variant all have
the same normal forms: the words avoiding the leading words of the ideal
under deglex order span each graded piece, and every other word rewrites to
a combination of them over exact rationals.  ``GradedQuotientBasis.reduce``
is the one reduction.  The rules come from a truncated Buchberger closure,
one degree at a time; the chord presets gain none past degree 2.  Each
preset's rules and word memos are shared process-wide, and the other presets
can keep each degree's forms in a disk cache.
"""

from __future__ import annotations

import os
import tempfile
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product

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

        triples = list(permutations(range(1, self.n + 1), 3))  # distinct strands, lexicographic
        pairs = _disjoint_pairs(alph)
        if self.kind == "infinitesimal_artin":
            # [t_ij, t_ik + t_jk] over unordered pairs {i,j}; swapping i,j repeats it.
            rels += [comm(g(i, j), g(i, k) + g(j, k)) for i, j, k in triples if i < j]
            # [t_ij, t_kl] for disjoint unordered pairs, each pair-of-pairs once.
            rels += [comm(g(i, j), g(k, l)) for (i, j), (k, l) in pairs]
        elif self.kind in ("oriented_artin", "oriented_upper_triangular"):
            full = self.kind == "oriented_artin"
            # (I) [v_ik, v_jk]; antisymmetric in i,j, so take i < j once.
            rels += [comm(g(i, k), g(j, k)) for k, i, j in triples if i < j and (full or i > k)]
            # (II) [v_ij, v_ik + v_jk]; genuinely ordered in (i, j).
            rels += [comm(g(i, j), g(i, k) + g(j, k)) for i, j, k in triples if full or i > j > k]
            # (III) [v_ij, v_kl] over disjoint ordered pairs, each pair-of-pairs once.
            rels += [comm(g(i, j), g(k, l)) for (i, j), (k, l) in pairs if full or i > j and k > l]
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
    """Normal forms of one preset through a degree cap.

    Every basis of a preset shares the preset's process-wide Groebner rules
    (leading word -> its normal form) and memos of word normal forms.
    """

    __slots__ = ("preset", "cap", "_state", "_rules", "_memos", "_loaded", "_prim")

    def __init__(self, preset: RelationPreset, cap: int, state: _PresetState):
        self.preset = preset
        self.cap = cap
        self._state = state
        self._rules, self._memos, self._loaded = state.rules, state.memos, state.loaded
        self._prim = {}

    @property
    def alphabet(self) -> Alphabet:
        return self.preset.alphabet

    def _check(self, k: int):
        if not 0 <= k <= self.cap:
            raise BasisError(f"basis for {self.preset.key()} not built at degree {k}")

    def table(self, k: int) -> SparseEchelon:
        """The degree-k rows pivot - NF(pivot): the reduced echelon form of the ideal slice."""
        self._check(k)
        memo = self._memos[k]
        nfs = ((w, self._nf(w, memo)) for w in product(range(self.alphabet.size), repeat=k))
        rows = {w: {w: 1, **{u: -c for u, c in nf.items()}} for w, nf in nfs if w not in nf}
        return SparseEchelon(key=word_key, rows=rows)

    def pivot_words(self, k: int):
        return sorted(self.table(k).pivots())

    def normal_words(self, k: int) -> list:
        """Deglex-sorted words avoiding every leading word: a basis of the degree-k graded piece."""
        self._check(k)
        letters = range(self.alphabet.size)
        if k in self._loaded:
            # product yields the words of one degree in lexicographic, so deglex, order.
            return [w for w in product(letters, repeat=k) if w not in self._memos[k]]
        # A word whose prefixes avoid the leading words can hold one only as a suffix.
        rules, lengths = self._rules, self._state.lengths
        words = [()]
        for _ in range(k):
            extended = (w + (b,) for w in words for b in letters)
            words = [v for v in extended if not any(v[-j:] in rules for j in lengths)]
        return words

    def dimension(self, k: int) -> int:
        return len(self.normal_words(k))

    def reduce(self, k: int, vec: dict) -> dict:
        """Normal form of a degree-k slice; integer slices stay integral under integral rules."""
        self._check(k)
        return self._reduce(self._memos[k], vec)

    def reduce_slice(self, k: int, vec: dict) -> dict:
        """Reduce a degree-k slice of rationals in integers; a Fraction only per surviving term."""
        den, scaled = scale_slice(vec)
        return unscale_slice(den, self.reduce(k, scaled))

    def normal_form(self, s: TruncatedSeries) -> TruncatedSeries:
        """Canonical representative supported on normal words; idempotent."""
        if s.alphabet != self.alphabet:
            raise AlphabetMismatch(f"{s.alphabet!r} vs preset alphabet {self.alphabet!r}")
        if s.cap > self.cap:
            raise CapMismatch(f"series cap {s.cap} exceeds basis cap {self.cap}")
        slices = tuple(self.reduce_slice(k, sl) for k, sl in enumerate(s.slices))
        return TruncatedSeries(s.alphabet, s.cap, slices)

    def equal_mod_relations(self, a: TruncatedSeries, b: TruncatedSeries) -> bool:
        return self.normal_form(a - b).is_zero()

    def _reduce(self, memo: dict, vec: dict) -> dict:
        """sum c * NF(x) over the terms c * x of a slice; memo is the memo of its degree."""
        out = {}
        for x, c in vec.items():
            nf = memo.get(x)
            if nf is None:
                nf = self._nf(x, memo)
            for u, cu in nf.items():
                cv = out.get(u, 0) + c * cu
                if cv:
                    out[u] = cv
                else:
                    out.pop(u, None)
        return out

    def _nf(self, w: tuple, memo: dict) -> dict:
        """NF(w) as {normal word: coefficient}, memoized in memo; {w: 1} when w is normal.

        NF(a.v) = NF(a.NF(v)).  When v is normal, a leading word in a.v can
        only be a prefix, which its rule rewrites.  Every word this reaches is
        below w in deglex order, so the recursion ends, and the result is the
        unique reduced form whatever order words are met in.  A degree read
        from the disk cache holds every word that is not normal.
        """
        nf = memo.get(w)
        if nf is not None:
            return nf
        if len(w) in self._loaded:
            return {w: 1}
        # The empty word is normal; a word's form holds the word iff it is normal.
        tail = self._nf(w[1:], self._memos[len(w) - 1]) if w else {w: 1}
        if w[1:] not in tail:
            terms = {w[:1] + u: c for u, c in tail.items()}
        else:
            for j in self._state.lengths:
                rule = self._rules.get(w[:j])
                if rule is not None:
                    terms = {u + w[j:]: c for u, c in rule.items()}
                    break
            else:
                return memo.setdefault(w, {w: 1})
        # Threads racing on a word compute equal forms; all keep the first published.
        return memo.setdefault(w, self._reduce(memo, terms))

    def _close(self, top: int, relations):
        """Extend the rules through degree top by the truncated Buchberger closure.

        The leading words of degree j are the pivots of the degree-j
        ambiguities, reduced by the rules below j and echelonized; in degree 2
        the relations stand for them.  With every ambiguity of degree j
        resolved, the rules are a Groebner basis through degree j (Bergman's
        diamond lemma).  The leading words of a degree read from the disk
        cache are its pivots whose two maximal subwords are normal.
        """
        state = self._state
        for j in range(state.closed + 1, top + 1):
            memo = state.memos.setdefault(j, {})
            if j in state.loaded:
                below = state.memos.get(j - 1)
                new = {w: nf for w, nf in memo.items() if w[1:] in self._nf(w[1:], below)}
                new = {w: nf for w, nf in new.items() if w[:-1] in self._nf(w[:-1], below)}
            else:
                ambiguities = self._ambiguities(j, relations)
                local = {}  # below the new rules, these are not yet normal forms
                ech = SparseEchelon(key=word_key)
                for vec in ambiguities:
                    ech.add(self._reduce(local, vec))
                new = {p: ech.replacement(p) for p in ech.pivots()}
            if new:
                self._rules.update(new)
                state.lengths = tuple(sorted({len(w) for w in self._rules}))
            state.closed = j

    def _ambiguities(self, j: int, relations):
        """NF(a).v - u.NF(b) over the degree-j words a.v = u.b where leading words a, b overlap."""
        if j == 2:
            yield from ({w: demote(c) for w, c in r.slices[2].items()} for r in relations())
        starting = {}  # proper prefix -> the leading words starting with it
        for b in self._rules:
            for i in range(1, len(b)):
                starting.setdefault(b[:i], []).append(b)
        for a, nf_a in self._rules.items():
            for i in range(1, len(a)):
                for b in starting.get(a[i:], ()):
                    if i + len(b) == j:
                        u, v = a[:i], b[len(a) - i :]
                        vec = {x + v: c for x, c in nf_a.items()}
                        for x, c in self._rules[b].items():
                            vec[u + x] = vec.get(u + x, 0) - c
                        yield vec

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


# -- construction and registry -------------------------------------------


class _PresetState:
    """What the process knows of one preset's ideal; extending it holds the lock."""

    __slots__ = ("rules", "lengths", "closed", "memos", "loaded", "lock")

    def __init__(self):
        self.rules = {}  # leading word -> its normal form
        self.lengths = ()  # the lengths of the leading words, ascending
        self.closed = -1  # the rules are complete through this degree
        self.memos = {}  # degree -> {word: normal form}
        self.loaded = set()  # degrees read from the disk cache
        self.lock = threading.Lock()

    def missing(self, cap: int) -> list:
        """The degrees through cap neither closed nor loaded."""
        return [k for k in range(self.closed + 1, cap + 1) if k not in self.loaded]


_STATE: dict = {}  # preset key -> _PresetState


def build_graded_basis(preset: RelationPreset, cap: int, cache_dir=None) -> GradedQuotientBasis:
    """The normal forms of a preset through the cap, shared process-wide.

    A degree the process already knows touches no file.  Another is read
    from cache_dir, when given, or reached by the closure and written there;
    chord (infinitesimal_artin) degrees are never read or written.
    """
    if cap < 0:
        raise BasisError("cap must be >= 0")
    state = _STATE.get(preset.key()) or _STATE.setdefault(preset.key(), _PresetState())
    basis = GradedQuotientBasis(preset, cap, state)
    if not state.missing(cap):
        return basis
    with state.lock:
        # Built at the first use, so a call that reads no file builds no digest.
        relations = cache(preset.relations)
        cached = cache_dir is not None and preset.kind != "infinitesimal_artin"
        if cached and state.missing(cap):
            digest = _relations_digest(relations())
            for k in state.missing(cap):
                forms = _load_table(cache_dir, preset, k, digest)
                if forms is not None:
                    state.memos[k] = forms
                    state.loaded.add(k)
        unread = state.missing(cap)
        if unread:
            basis._close(unread[-1], relations)
            for k in unread if cached else ():
                _save_table(cache_dir, preset, k, basis.table(k), digest)
    return basis


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
    """Reload one degree as {pivot: NF(pivot)}, or None when it must be rebuilt.

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


def _read_table(lines: list, preset: RelationPreset, k: int, digest: str) -> dict:
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
    entries = {}  # signed coefficient text -> coefficient

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
        # Integral values as int, as the rules hold them.
        c = entries[key] = demote(c)
        return c

    forms = {}
    cols = set()  # the words the forms mention
    for line in body:
        pivot_txt, arrow, repl_txt = line.partition(" -> ")
        if not arrow:
            raise _Rejected(f"failed body check: no ' -> ' in {line!r}")
        pivot = words.get(pivot_txt)
        if pivot is None:
            pivot = word_of(pivot_txt)
        if pivot in forms:
            raise _Rejected(f"failed body check: duplicate pivot {pivot_txt!r}")
        nf = forms[pivot] = {}
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
            if sign == "+":
                key = coeff_txt
            elif sign == "-":
                key = "-" + coeff_txt
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
            if word in nf:
                raise _Rejected(f"failed body check: {name!r} repeated in row {pivot_txt!r}")
            nf[word] = c
            cols.add(word)
    # A normal form holds only normal words: no row may mention a pivot.
    if not forms.keys().isdisjoint(cols):
        raise _Rejected("failed body check: a row mentions another pivot")
    return forms


def hilbert_row(preset: RelationPreset, cap: int, cache_dir=None) -> list:
    """Dimensions of the graded pieces in degrees 0..cap."""
    basis = build_graded_basis(preset, cap, cache_dir)
    return [basis.dimension(k) for k in range(cap + 1)]

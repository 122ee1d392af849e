"""Graded quotients of free algebras by homogeneous degree-2 relations.

The infinitesimal Artin algebra (chord generators t_ij), the oriented Artin
algebra (ordered generators v_ij) and its upper-triangular variant all have
the same normal forms: the words avoiding the leading words of the ideal
under deglex order span each graded piece, and every other word rewrites to
a combination of them over exact rationals.  ``GradedQuotientBasis.reduce``
is the one reduction.  The rules (leading word -> its normal form) come from
a truncated Buchberger closure, one degree at a time; the chord presets gain
none past degree 2.  Each preset's rules and word memos are shared
process-wide.  The other presets can keep each degree's rules in a disk
cache; loading them leaves the process as closing that degree would.  A
cache file names the relation set it was built from verbatim, and its rows
are read and written in the integer series grammar of :mod:`braidalg.series`.
"""

from __future__ import annotations

import os
import sys
import threading
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, permutations, product

from .linalg import SparseEchelon, demote
from .series import (
    Alphabet,
    AlphabetMismatch,
    CapMismatch,
    SeriesError,
    TruncatedSeries,
    lie_defect,
    lowest_terms,
    parse_series,
    scale_slice,
    signed_sum_text,
    word_key,
)
from .value import Value

CACHE_FORMAT = "braidalg-rules v4"


class BasisError(ValueError):
    """Missing degree, wrong preset, or malformed cache data."""


class RelationPreset(Value):
    """A named family of degree-2 relations over a fixed alphabet.

    Immutable; equal and hashed as its field tuple ``(kind, n, alphabet)``.
    """

    __slots__ = ("kind", "n", "alphabet")

    def __init__(self, kind: str, n: int, alphabet: Alphabet):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_key", (kind, n, alphabet))

    def key(self) -> str:
        if self.kind == "free":
            if self.alphabet.kind == "abstract":
                return f"free[{','.join(self.alphabet.names)}]"
            return f"free[{self.alphabet.kind}({self.alphabet.n})]"
        return f"{self.kind}({self.n})"

    def relations(self) -> list:
        """The defining degree-2 relations, generated exhaustively, as cap-2 series.

        Each is a commutator [a, b1 + ... + bm] of distinct generators, written
        straight from its words: the terms a.b with coefficient 1, then the
        terms b.a with coefficient -1, over denominator 1.  The list and each
        relation's text are what the product a * b - b * a would give, so the
        relation set that cache files name does not depend on how they are
        built.
        """
        g = self.alphabet.gen
        triples = list(permutations(range(1, self.n + 1), 3))  # distinct strands, lexicographic
        pairs = _disjoint_pairs(self.alphabet)
        brackets = []  # (a, (b1, ..., bm)) per relation [a, b1 + ... + bm]
        if self.kind == "infinitesimal_artin":
            # [t_ij, t_ik + t_jk] over unordered pairs {i,j}; swapping i,j repeats it.
            brackets += [(g(i, j), (g(i, k), g(j, k))) for i, j, k in triples if i < j]
            # [t_ij, t_kl] for disjoint unordered pairs, each pair-of-pairs once.
            brackets += [(g(i, j), (g(k, l),)) for (i, j), (k, l) in pairs]
        elif self.kind in ("oriented_artin", "oriented_upper_triangular"):
            full = self.kind == "oriented_artin"
            # (I) [v_ik, v_jk]; antisymmetric in i,j, so take i < j once.
            brackets += [(g(i, k), (g(j, k),)) for k, i, j in triples if i < j and (full or i > k)]
            # (II) [v_ij, v_ik + v_jk]; genuinely ordered in (i, j).
            brackets += [(g(i, j), (g(i, k), g(j, k))) for i, j, k in triples if full or i > j > k]
            # (III) [v_ij, v_kl] over disjoint ordered pairs, each pair-of-pairs once.
            brackets += [(g(i, j), (g(k, l),)) for (i, j), (k, l) in pairs if full or i > j and k > l]
        elif self.kind != "free":
            raise BasisError(f"unknown preset kind {self.kind!r}")
        return [self._commutator(a, bs) for a, bs in brackets]

    def _commutator(self, a: int, bs: tuple) -> TruncatedSeries:
        """[a, b1 + ... + bm] for distinct generators: no two of its words coincide."""
        sl = {(a, b): 1 for b in bs}
        sl.update({(b, a): -1 for b in bs})
        return TruncatedSeries(self.alphabet, 2, ((1, {}), (1, {}), (1, sl)))

    def __repr__(self):
        return f"RelationPreset({self.key()})"


def _disjoint_pairs(alphabet: Alphabet) -> list:
    """Generator label pairs on disjoint strands, each pair-of-pairs once, in label order."""
    return [(p, q) for p, q in combinations(alphabet.pairs, 2) if not set(p) & set(q)]


# The presets are immutable values, built once per n: a fresh alphabet checks
# every generator name.  Typed, so that a float n still fails as it always did.
@lru_cache(maxsize=None, typed=True)
def infinitesimal_artin(n: int) -> RelationPreset:
    """Chord generators t_ij with the infinitesimal braid relations."""
    return RelationPreset("infinitesimal_artin", n, Alphabet.chord(n))


@lru_cache(maxsize=None, typed=True)
def oriented_artin(n: int) -> RelationPreset:
    """Ordered generators v_ij with relations (I), (II), (III)."""
    return RelationPreset("oriented_artin", n, Alphabet.oriented(n))


@lru_cache(maxsize=None, typed=True)
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

    __slots__ = ("preset", "cap", "_state", "_rules", "_memos")

    def __init__(self, preset: RelationPreset, cap: int, state: _PresetState):
        self.preset = preset
        self.cap = cap
        self._state = state
        self._rules, self._memos = state.rules, state.memos

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

    def dimension(self, k: int) -> int:
        return self._counts(k)[k]

    def _counts(self, k: int) -> list:
        """The numbers of normal words in degrees 0..k, counted on the leading words' prefixes.

        A word's state is its longest suffix that is a proper prefix of a
        leading word of degree <= k; the empty word always is one.  A leading
        word inside w.b ends at b, so its part before b is a suffix of w's
        state p: w.b is normal iff w is and no suffix of p.b is a leading
        word, and then w.b's state is the longest suffix of p.b that is a
        state (Ufnarovskij's graph of obstructions).  Counting per state,
        each degree costs states x letters, not the size of the degree.
        """
        self._check(k)
        leads = {w for w in list(self._rules) if len(w) <= k}  # rules of higher degrees may be known
        states = sorted({()} | {w[:i] for w in leads for i in range(1, len(w))}, key=len)
        index = {p: i for i, p in enumerate(states)}  # the empty word is state 0
        moves = []  # per state, the state reached by each allowed letter
        for p in states:
            targets = []
            for b in range(self.alphabet.size):
                v = p + (b,)
                if not any(v[i:] in leads for i in range(len(v))):
                    targets.append(next(index[v[i:]] for i in range(len(v) + 1) if v[i:] in index))
            moves.append(targets)
        counts = [1] + [0] * (len(states) - 1)
        row = [1]
        for _ in range(k):
            nxt = [0] * len(states)
            for c, targets in zip(counts, moves):
                if c:
                    for t in targets:
                        nxt[t] += c
            counts = nxt
            row.append(sum(counts))
        return row

    def reduce(self, k: int, vec: dict) -> dict:
        """Normal form of a degree-k slice; integer slices stay integral under integral rules."""
        self._check(k)
        return self._reduce(self._memos[k], vec)

    def reduce_slice(self, k: int, pair: tuple) -> tuple:
        """Normal form of a scaled degree-k slice ``(den, {word: int})``, in lowest terms.

        Rules with Fraction coefficients leave Fraction values, whose
        denominators move into den.
        """
        den, sl = pair
        m, sl = scale_slice(self.reduce(k, sl))
        return lowest_terms(den * m, sl)

    def normal_form(self, s: TruncatedSeries) -> TruncatedSeries:
        """Canonical representative supported on normal words; idempotent."""
        if s.alphabet != self.alphabet:
            raise AlphabetMismatch(f"{s.alphabet!r} vs preset alphabet {self.alphabet!r}")
        if s.cap > self.cap:
            raise CapMismatch(f"series cap {s.cap} exceeds basis cap {self.cap}")
        slices = tuple(self.reduce_slice(k, pair) for k, pair in enumerate(s.scaled))
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
        unique reduced form whatever order words are met in.
        """
        nf = memo.get(w)
        if nf is not None:
            return nf
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

    def _close(self, j: int, relations) -> dict:
        """The rules of degree j by the truncated Buchberger closure, those below j complete.

        The leading words of degree j are the pivots of the degree-j
        ambiguities, reduced by the rules below j and echelonized; in degree 2
        the relations stand for them.  With every ambiguity of degree j
        resolved, the rules are a Groebner basis through degree j (Bergman's
        diamond lemma).
        """
        local = {}  # below the new rules, these are not yet normal forms
        ech = SparseEchelon(key=word_key)
        for vec in self._ambiguities(j, relations):
            ech.add(self._reduce(local, vec))
        return {p: ech.replacement(p) for p in ech.pivots()}

    def _ambiguities(self, j: int, relations):
        """NF(a).v - u.NF(b) over the degree-j words a.v = u.b where leading words a, b overlap."""
        if j == 2:  # each relation's degree 2, over denominator 1
            yield from (r.scaled[2][1] for r in relations())
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

    def is_primitive(self, s: TruncatedSeries) -> bool:
        """True iff s maps to a primitive (Lie) element of the quotient U = T(V)/I.

        Every preset's relations are commutators of generators, which are
        primitive, so the ideal I they generate is a Hopf ideal and the
        projection pi: T(V) -> U is a map of graded connected cocommutative
        Hopf algebras.  The Dynkin operator D = S * N, the convolution of
        the antipode with the degree operator, is the left-normed bracketing
        on words; it commutes with Hopf maps (Patras-Reutenauer, Adv. Appl.
        Math. 28, 2002), and in such a Hopf algebra a homogeneous y of
        degree k is primitive iff D y = k y.  So pi(s) is primitive iff
        s has no constant term and pi(lie_defect(s)) = 0, which holds also
        for the ideal elements that are not Lie in the free algebra.
        """
        return not s.constant_term and self.normal_form(lie_defect(s)).is_zero()

    def __repr__(self):
        return f"GradedQuotientBasis({self.preset.key()}, cap={self.cap})"


# -- construction and registry -------------------------------------------


class _PresetState:
    """What the process knows of one preset's ideal; extending it holds the lock."""

    __slots__ = ("rules", "lengths", "closed", "memos", "lock")

    def __init__(self):
        self.rules = {}  # leading word -> its normal form
        self.lengths = ()  # the lengths of the leading words, ascending
        self.closed = -1  # the rules are complete through this degree
        self.memos = {}  # degree -> {word: normal form}
        self.lock = threading.Lock()

    def extend(self, j: int, new: dict):
        """Add the rules of degree j, which complete the rules through degree j."""
        self.memos[j] = {}
        if new:
            self.rules.update(new)
            self.lengths = tuple(sorted({len(w) for w in self.rules}))
        self.closed = j


_STATE: dict = {}  # preset key -> _PresetState


def build_graded_basis(preset: RelationPreset, cap: int, cache_dir=None) -> GradedQuotientBasis:
    """The normal forms of a preset through the cap, shared process-wide.

    A degree the process already knows touches no file.  Another degree's
    rules are read from cache_dir, when given, or reached by the closure and
    written there; chord (infinitesimal_artin) degrees are never read or
    written.
    """
    if cap < 0:
        raise BasisError("cap must be >= 0")
    state = _STATE.get(preset.key()) or _STATE.setdefault(preset.key(), _PresetState())
    basis = GradedQuotientBasis(preset, cap, state)
    if state.closed >= cap:
        return basis
    with state.lock:
        # Built at most once per call, and only for a cache header or a closure in degree 2.
        relations = cache(preset.relations)
        cached = cache_dir is not None and preset.kind != "infinitesimal_artin"
        relations_text = _relations_text(relations()) if cached and state.closed < cap else None
        for k in range(state.closed + 1, cap + 1):
            new = _load_rules(cache_dir, preset, k, relations_text, state) if cached else None
            if new is None:
                new = basis._close(k, relations)
                if cached:
                    _save_rules(cache_dir, preset, k, new, relations_text)
            state.extend(k, new)
    return basis


# -- disk cache ------------------------------------------------------------


def _cache_path(cache_dir, preset: RelationPreset, k: int) -> str:
    return os.path.join(str(cache_dir), f"{preset.key()}__deg{k}.basis")


def _relations_text(relations: list) -> str:
    """A preset's relation set as cache files name it: the sorted relation texts joined by ``"; "``.

    No relation text holds a ``;``, so two relation sets never share a name
    and a cache file never outlives a change to the relations.
    """
    return "; ".join(sorted(r.text() for r in relations))


def _save_rules(cache_dir, preset: RelationPreset, k: int, rules: dict, relations_text: str):
    os.makedirs(str(cache_dir), exist_ok=True)
    alph = preset.alphabet
    lines = [
        f"#% {CACHE_FORMAT}",
        f"#% preset {preset.key()}",
        f"#% degree {k}",
        f"#% alphabet {alph.kind}({alph.n if alph.kind != 'abstract' else ','.join(alph.names)})",
        f"#% rows {len(rules)}",
        f"#% relations {relations_text}",
    ]
    # One row per rule, "leading word -> its normal form", the form in deglex
    # order as TruncatedSeries.text() writes it; _read_rules accepts only that.
    name = alph.word_name
    for w in sorted(rules):
        nf = rules[w]
        terms = ((nf[u].numerator, nf[u].denominator, "*" + name(u)) for u in sorted(nf))
        lines.append(f"{name(w)} -> {signed_sum_text(terms)}")
    atomic_write(_cache_path(cache_dir, preset, k), "\n".join(lines) + "\n")


def atomic_write(path, text: str):
    """Write a new file beside path and rename it: readers never see a partial file.

    A failure on the new file is reported against path, which the caller named.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class _Rejected(Exception):
    """A cache file that must be rebuilt; the message says why."""


def _load_rules(cache_dir, preset: RelationPreset, k: int, relations_text: str, state: _PresetState):
    """The rules of degree k, given those below it, or None when they must be rebuilt.

    The reason -- missing file, stale header or failed body check -- is
    logged at DEBUG on the ``braidalg.quotient`` logger when the process has
    imported ``logging``.
    """
    path = _cache_path(cache_dir, preset, k)
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
        return _read_rules(lines, preset, k, relations_text, state)
    except FileNotFoundError:
        reason = "missing file"
    except UnicodeDecodeError:
        reason = "failed body check: not text"
    except _Rejected as exc:
        reason = str(exc)
    _log_debug("rebuilding %s: %s", path, reason)
    return None


def _log_debug(message: str, *args):
    # Only code that has imported logging can have set a level or a handler
    # that sees the record, so a run that has not pays nothing: importing
    # logging costs about 8 ms.
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).debug(message, *args)


def _check_header(lines: list, preset: RelationPreset, k: int, relations_text: str) -> tuple:
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
    expected = {"preset": preset.key(), "degree": str(k), "relations": relations_text}
    for field, value in expected.items():
        found = header.get(field)
        if found == value:
            continue
        if field == "relations":
            raise _Rejected(f"stale header: relations, {_relations_difference(found, value)}")
        raise _Rejected(f"stale header: {field} {found!r}, expected {value!r}")
    return header, start


def _relations_difference(found, expected: str) -> str:
    """How two relations lines differ, in a few words: each names every relation."""
    have, want = (line.split("; ") if line else [] for line in (found, expected))
    i = next((i for i, (a, b) in enumerate(zip(have, want)) if a != b), min(len(have), len(want)))
    first, wanted = (names[i] if i < len(names) else None for names in (have, want))
    return (
        f"{len(have)} found, {len(want)} expected; relation {i + 1} is {first!r}, expected {wanted!r}"
    )


def _read_rules(lines: list, preset: RelationPreset, k: int, relations_text: str, state) -> dict:
    """Check and parse the lines of a cache file; raise _Rejected.

    Each row must read back to the text it was written as, and the rules
    must be reduced given those below degree k: no term, and no maximal
    proper subword of a leading word, holds a leading word.
    """
    header, start = _check_header(lines, preset, k, relations_text)
    body = lines[start:]
    if header.get("rows") != str(len(body)):
        raise _Rejected(f"stale header: rows {header.get('rows')!r}, expected {str(len(body))!r}")
    alph = preset.alphabet
    rules = {}
    for line in body:
        lead_txt, arrow, nf_txt = line.partition(" -> ")
        if not arrow:
            raise _Rejected(f"failed body check: no ' -> ' in {line!r}")
        try:
            lead = tuple(alph.index_of(g) for g in lead_txt.split("."))
            nf = parse_series(nf_txt, alph, k)
        except (KeyError, SeriesError):
            raise _Rejected(f"failed body check: unreadable row {line!r}") from None
        if nf.text() != nf_txt:
            raise _Rejected(f"failed body check: {nf_txt!r} is not as written")
        if len(lead) != k or any(sl for _, sl in nf.scaled[:k]):
            raise _Rejected(f"failed body check: {line!r} is not of degree {k}")
        if lead in rules:
            raise _Rejected(f"failed body check: duplicate leading word {lead_txt!r}")
        if any(u >= lead for u in nf.scaled[k][1]):
            raise _Rejected(f"failed body check: a term of {lead_txt!r} is not below it")
        # Integral values as int, as the closure leaves them.
        den, sl = nf.scaled[k]
        rules[lead] = sl if den == 1 else {u: demote(Fraction(c, den)) for u, c in sl.items()}
    below, lengths = state.rules, state.lengths
    for lead, nf in rules.items():
        if any(_holds_leading_word(v, below, lengths) for v in (lead[1:], lead[:-1])):
            raise _Rejected(f"failed body check: {alph.word_name(lead)!r} is not reduced")
        if any(u in rules or _holds_leading_word(u, below, lengths) for u in nf):
            raise _Rejected(f"failed body check: a term of {alph.word_name(lead)!r} is not normal")
    return rules


def _holds_leading_word(u: tuple, rules: dict, lengths: tuple) -> bool:
    return any(u[i : i + j] in rules for j in lengths for i in range(len(u) - j + 1))


def hilbert_row(preset: RelationPreset, cap: int, cache_dir=None) -> list:
    """Dimensions of the graded pieces in degrees 0..cap."""
    return build_graded_basis(preset, cap, cache_dir)._counts(cap)

"""Lyndon words and the images of their bracketings: a basis of the free Lie algebra.

The bracketing b(w) of a Lyndon word w = uv, split by its standard
factorization, is [b(u), b(v)], and is w plus greater words (Reutenauer, *Free
Lie Algebras*, 1993, Thm 5.1).  An algebra map sends it to the commutator of
its factors' images: :func:`bracket_image` is that one recursion.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .quotient import build_graded_basis
from .series import Alphabet, TruncatedSeries, commutator


def lyndon_words(m: int, k: int) -> list:
    """All Lyndon words of length k over the ordered alphabet {0..m-1}.

    A word is Lyndon when it is strictly smaller than all of its proper
    rotations.  This checks all m**k words.
    """
    if k == 1:
        return [(g,) for g in range(m)]
    out = []
    for w in product(range(m), repeat=k):
        if all(w < w[i:] + w[:i] for i in range(1, k)):
            out.append(w)
    return out


def standard_factorization(w: tuple) -> tuple:
    """Chen-Fox-Lyndon factorization w = (u, v), v the smallest proper suffix."""
    v = min(w[i:] for i in range(1, len(w)))
    return w[: len(w) - len(v)], v


@cache
def bracket_image(w: tuple, letters: tuple, preset=None) -> tuple:
    """The image of b(w) under the algebra map of the letters, as a scaled slice (den, {word: int}).

    ``letters[g]`` is the image of letter g, a linear form ((h, c), ...)
    with nonzero integer c, sum c h.  With a preset, each commutator is
    reduced by the preset's basis through len(w), built if need be, and den
    carries the rules' denominators; without one, den is 1.  Images are
    kept per (w, letters, preset) for the life of the process; the dicts
    returned are shared and must not be changed.
    """
    if len(w) == 1:
        return 1, {(h,): c for h, c in letters[w[0]]}
    u, v = standard_factorization(w)
    if preset is None:  # keyed (w, letters), as the callers of unreduced images pass them
        return 1, commutator(bracket_image(u, letters)[1], bracket_image(v, letters)[1])
    (den_u, s), (den_v, t) = bracket_image(u, letters, preset), bracket_image(v, letters, preset)
    return build_graded_basis(preset, len(w)).reduce_slice(len(w), (den_u * den_v, commutator(s, t)))


def bracket_rows(w: tuple, letters: tuple, words) -> dict:
    """The unreduced image of b(w) on the given words of its length, as {word: int}.

    The coefficient of L in [s, t], s and t the images of b(u) and b(v), is
    s[L[:|u|]] t[L[|u|:]] - t[L[:|v|]] s[L[|v|:]]; so it is read off the
    factors' images, and the image itself is not formed.
    """
    u, v = standard_factorization(w)
    (_, s), (_, t) = bracket_image(u, letters), bracket_image(v, letters)
    k, j = len(u), len(v)
    out = {}
    for word in words:
        n = s.get(word[:k], 0) * t.get(word[k:], 0) - t.get(word[:j], 0) * s.get(word[j:], 0)
        if n:
            out[word] = n
    return out


def bracket_terms(w: tuple) -> dict:
    """The bracketing of a Lyndon word, recursively [b(u), b(v)], as {word: int}."""
    return bracket_image(w, tuple(((g, 1),) for g in range(max(w) + 1)))[1]


def lie_basis(alphabet: Alphabet, cap: int, degree: int) -> list:
    """(word, bracket series) pairs for the free-Lie basis in one degree."""
    return [
        (w, TruncatedSeries.from_terms(alphabet, cap, bracket_terms(w)))
        for w in lyndon_words(alphabet.size, degree)
    ]

"""Lyndon words and their standard bracketings: a basis of the free Lie algebra."""

from __future__ import annotations

from itertools import product

from .series import Alphabet, TruncatedSeries


def lyndon_words(m: int, k: int) -> list:
    """All Lyndon words of length k over the ordered alphabet {0..m-1}.

    A word is Lyndon when it is strictly smaller than all of its proper
    rotations.  This checks all m**k words, which suits its one caller,
    ``lie_basis`` over {A, B}.
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


def bracket_terms(w: tuple) -> dict:
    """The bracketing of a Lyndon word, recursively [b(u), b(v)], as {word: int}."""
    if len(w) == 1:
        return {w: 1}
    u, v = standard_factorization(w)
    bu, bv = bracket_terms(u), bracket_terms(v)
    out = {x + y: cx * cy for x, cx in bu.items() for y, cy in bv.items()}
    for y, cy in bv.items():
        for x, cx in bu.items():
            c = out.get(y + x, 0) - cx * cy
            if c:
                out[y + x] = c
            else:
                del out[y + x]
    return out


def lie_basis(alphabet: Alphabet, cap: int, degree: int) -> list:
    """(word, bracket series) pairs for the free-Lie basis in one degree."""
    return [
        (w, TruncatedSeries.from_terms(alphabet, cap, bracket_terms(w)))
        for w in lyndon_words(alphabet.size, degree)
    ]

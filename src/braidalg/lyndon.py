"""Lyndon words and their standard bracketings: a basis of the free Lie algebra."""

from __future__ import annotations

from functools import cache
from itertools import product

from .series import Alphabet, TruncatedSeries


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
def bracket_image(w: tuple, letters: tuple) -> dict:
    """The image of the bracketing of a Lyndon word under a linear algebra map, as {word: int}.

    ``letters[g]`` is the image of letter g, a linear form ((h, c), ...)
    with nonzero integer c, sum c h.  An algebra map sends a bracket to a
    bracket, sigma([b(u), b(v)]) = [sigma b(u), sigma b(v)] for w = uv the
    standard factorization, so the image is the commutator of the cached
    images of u and v.  Every image is kept for the life of the process;
    the dicts returned are shared and must not be changed.
    """
    if len(w) == 1:
        return {(h,): c for h, c in letters[w[0]]}
    u, v = standard_factorization(w)
    return commutator(bracket_image(u, letters), bracket_image(v, letters))


def commutator(a: dict, b: dict) -> dict:
    """ab - ba for homogeneous a, b given as {word: coefficient}, with no zero terms."""
    out = {x + y: cx * cy for x, cx in a.items() for y, cy in b.items()}
    for y, cy in b.items():
        for x, cx in a.items():
            c = out.get(y + x, 0) - cx * cy
            if c:
                out[y + x] = c
            else:
                del out[y + x]
    return out


def bracket_terms(w: tuple) -> dict:
    """The bracketing of a Lyndon word, recursively [b(u), b(v)], as {word: int}."""
    return bracket_image(w, tuple(((g, 1),) for g in range(max(w) + 1)))


def lie_basis(alphabet: Alphabet, cap: int, degree: int) -> list:
    """(word, bracket series) pairs for the free-Lie basis in one degree."""
    return [
        (w, TruncatedSeries.from_terms(alphabet, cap, bracket_terms(w)))
        for w in lyndon_words(alphabet.size, degree)
    ]

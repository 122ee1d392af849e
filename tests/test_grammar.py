"""The signed-sum grammar shared by series and group-ring elements.

Printing is checked against the reference formatters in ``oracles`` on
seeded values, parsing by round trips, and every parse error by its class
and message.
"""

import re
from fractions import Fraction

import pytest

from conftest import make_rng, random_series
from oracles import reference_group_ring_text, reference_series_text

from braidalg import AB, Alphabet, GroupRingElement, SeriesError, WordError, parse_series
from braidalg.invariants import random_welded_word
from braidalg.series import TruncatedSeries

ALPHABETS = [AB, Alphabet.chord(3), Alphabet.chord(4), Alphabet.oriented(3)]


def random_rational(rng):
    return Fraction(rng.randint(-40, 40), rng.randint(1, 12))


def test_series_text_matches_the_reference_and_parses_back():
    rng = make_rng(16001)
    count = 0
    for alph in ALPHABETS:
        for cap in range(5):
            for nterms in (0, 1, 3, 8):
                for _ in range(12):
                    s = random_series(rng, alph, cap, nterms=nterms, denom=rng.choice((1, 7, 30)))
                    text = s.text()
                    assert text == reference_series_text(s)
                    assert parse_series(text, alph, cap) == s
                    count += 1
    assert count == 960


def test_group_ring_text_matches_the_reference_and_parses_back():
    rng = make_rng(16002)
    count = 0
    for n in (2, 3, 4):
        for _ in range(100):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                w = random_welded_word(rng, n, rng.randint(0, 4))
                terms[w] = rng.choice((0, 1, -1, random_rational(rng)))
            xi = GroupRingElement(n, terms)
            text = xi.text()
            assert text == reference_group_ring_text(xi)
            assert GroupRingElement.parse(text, n) == xi
            count += 1
    assert count == 300


def test_texts_with_spaces_and_unreduced_rationals_parse():
    s = parse_series(" - 2 / 4 * A . B+3", AB)
    assert s == TruncatedSeries.from_terms(AB, 2, {(0, 1): Fraction(-1, 2), (): 3})
    assert s.text() == "3 - 1/2*A.B"
    xi = GroupRingElement.parse("2/4*[sig1]  -1*[] + 0*[s1]", 3)
    assert xi.text() == "-1*[] + 1/2*[sig1]"
    for text in ("", "  ", "0", " 0 "):
        assert parse_series(text, AB, 2).text() == "0"
        assert GroupRingElement.parse(text, 3).text() == "0"


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 + + 2*A", "bad series syntax near ' + + 2*A'"),
        ("1 2*A", "missing +/- before ' 2*A'"),
        ("1 - 2*A 3", "missing +/- before ' 3'"),
        ("1/0*A", "zero denominator in '1/0'"),
        ("- 3/0", "zero denominator in '3/0'"),
        ("1*C", "unknown generator 'C' in Alphabet.abstract('A', 'B')"),
        ("1 * A . C", "unknown generator 'C' in Alphabet.abstract('A', 'B')"),
        ("1*A.A.A", "word 'A.A.A' exceeds cap 2"),
        ("*A", "bad series syntax near '*A'"),
        ("1 +", "bad series syntax near ' +'"),
        ("1*", "bad series syntax near '*'"),
        ("A", "bad series syntax near 'A'"),
        ("1*A..B", "bad series syntax near '..B'"),
        ("1*A.", "bad series syntax near '.'"),
        ("1*A + -2*B", "bad series syntax near ' + -2*B'"),
        ("1/2/3*A", "bad series syntax near '/3*A'"),
        ("1.5*A", "bad series syntax near '.5*A'"),
    ],
)
def test_series_parse_errors(text, message):
    with pytest.raises(SeriesError, match=f"^{re.escape(message)}$"):
        parse_series(text, AB, 2)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1*[sig1] 1*[s1]", "missing +/- before ' 1*[s1]'"),
        ("1/0*[a12]", "zero denominator in '1/0'"),
        ("1*[bogus]", "bad token 'bogus'"),
        ("2*[sig1^x]", "bad token 'sig1^x'"),
        ("1*[a14]", "token a14 out of range for n=3"),
        ("1*[a11]", "a(1,1) needs distinct positive labels"),
        ("[s1]", "bad group-ring syntax near '[s1]'"),
        ("1*[s1", "bad group-ring syntax near '1*[s1'"),
        ("1 + 1*[s1]", "bad group-ring syntax near '1 + 1*[s1]'"),
        ("1*[s1] +", "bad group-ring syntax near ' +'"),
        ("1*[s1] - - 1*[s2]", "bad group-ring syntax near ' - - 1*[s2]'"),
        ("1 / 2*[s1]", "bad group-ring syntax near '1 / 2*[s1]'"),
        ("x", "bad group-ring syntax near 'x'"),
    ],
)
def test_group_ring_parse_errors(text, message):
    with pytest.raises(WordError, match=f"^{re.escape(message)}$"):
        GroupRingElement.parse(text, 3)

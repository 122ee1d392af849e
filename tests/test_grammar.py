"""The signed-sum grammar shared by series and group-ring elements.

Printing is checked against the reference formatters in ``oracles`` on
seeded values, parsing by round trips, the integer reader and writer
against the Fraction grammar in ``oracles`` on seeded strings, and every
parse error by its class and message.
"""

import re
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from conftest import make_rng, random_series
from oracles import reference_group_ring_text, reference_series_text

from braidalg import AB, Alphabet, GroupRingElement, SeriesError, WordError, cli, oriented_artin, parse_series, quotient
from braidalg.invariants import random_welded_word
from braidalg.series import TruncatedSeries

PHI7_PATH = Path(__file__).parent.parent / "bench" / "fixtures" / "phi7.txt"

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


def random_series_string(rng, alphabet):
    """A seeded string in the series grammar, in the spellings the grammar admits.

    Terms repeat and cancel, rationals need not be in lowest terms, the first
    term may carry a "+", and spaces and tabs stand around "*" and "."; only
    spaces stand around "/", which is all the Fraction reader takes there.
    """
    pool = [()] + [
        tuple(rng.randrange(alphabet.size) for _ in range(rng.randint(1, 4))) for _ in range(5)
    ]
    def gap():
        return rng.choice(("", "", " ", "  ", "\t", " \t "))

    terms = []
    for _ in range(rng.randint(0, 8)):
        word = rng.choice(pool)
        num, den = rng.randint(0, 30), rng.choice((None, 1, 2, 4, 6, 12, 35))
        terms.append((rng.choice("+-"), num, den, word))
        if rng.random() < 0.2:  # a term that cancels it
            terms.append(("-" if terms[-1][0] == "+" else "+", num, den, word))
    parts = []
    for i, (sign, num, den, word) in enumerate(terms):
        rat = str(num) if den is None else f"{num}{rng.choice(('', ' ', '  '))}/{rng.choice(('', ' '))}{den}"
        if word:
            rat += gap() + "*" + gap() + (gap() + "." + gap()).join(alphabet.names[g] for g in word)
        lead = sign if i or rng.random() < 0.5 else ("" if sign == "+" else "-")
        parts.append(f"{lead}{rng.choice(('', ' '))}{rat}")
    return rng.choice(("", " ")).join(parts) if parts else rng.choice(("", "0", " 0 "))


@pytest.mark.parametrize("alphabet", [AB, Alphabet.oriented(3)], ids=["AB", "oriented(3)"])
def test_integer_grammar_matches_the_fraction_reference(alphabet):
    rng = make_rng(38001)
    for _ in range(400):
        text = random_series_string(rng, alphabet)
        want = oracles.fraction_parse_series(text, alphabet)
        got = parse_series(text, alphabet)
        assert (got.cap, got.scaled) == (want.cap, want.scaled), text
        assert got.text() == oracles.fraction_series_text(want), text
        lifted = parse_series(text, alphabet, got.cap + 1)
        assert lifted.scaled == oracles.fraction_parse_series(text, alphabet, got.cap + 1).scaled


@pytest.mark.parametrize(
    "text, n",
    [
        # The group-ring strings of the CI steps and the README.
        ("1/2*[sig1] - 1/2*[s1] + 0*[a12]", 3),
        ("1*[a12 a12 s2] - 2*[a12 s2] + 1*[s2]", 3),
        ("1*[sig1] - 1*[s1]", 3),
        ("2/4*[sig1]  -1*[] + 0*[s1]", 3),
        ("+ 6/4*[a12] - 3/2*[a12] + 5/10*[a21 s1]", 2),
    ],
)
def test_group_ring_text_is_unchanged(text, n):
    assert GroupRingElement.parse(text, n).text() == oracles.fraction_group_ring_text(text, n)


@pytest.mark.parametrize(
    "text, spaced",
    [
        ("1\t/2*A", "1/2*A"),
        ("1 + 1\t/24*A.B - 1/24*B.A", "1 + 1 /24*A.B - 1/24*B.A"),
        ("3\n/\n4 - 2/\t6*B", "3 / 4 - 2/ 6*B"),
    ],
)
def test_tabs_and_newlines_around_a_slash_read_as_spaces(text, spaced):
    # The grammar's \s* around "/" admits them; the Fraction reader refused them.
    assert parse_series(text, AB) == parse_series(spaced, AB) == oracles.fraction_parse_series(spaced, AB)


@pytest.fixture
def fractions_made(monkeypatch):
    """The arguments of every Fraction constructed while the fixture is live."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return made


def test_reading_and_writing_the_text_form_makes_no_fraction(tmp_path, fractions_made):
    phi = cli._read_series(AB, 1, path=PHI7_PATH)
    assert phi.cap == 7 and phi.text() == PHI7_PATH.read_text().splitlines()[1]
    assert fractions_made == []
    preset = oriented_artin(3)
    quotient._STATE.pop(preset.key(), None)
    try:
        quotient.build_graded_basis(preset, 2, cache_dir=tmp_path)
    finally:
        quotient._STATE.pop(preset.key(), None)
    relations_text = quotient._relations_text(preset.relations())
    fractions_made.clear()
    state = quotient._PresetState()
    for k in range(3):  # every row integral
        rules = quotient._load_rules(tmp_path, preset, k, relations_text, state)
        assert rules is not None
        state.extend(k, rules)
    assert len(state.rules) == 9 and fractions_made == []
    # The spy sees what the Fraction reader makes.
    oracles.fraction_parse_series("1/2*A", AB)
    assert fractions_made

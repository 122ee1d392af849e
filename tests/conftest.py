import random
from fractions import Fraction
from pathlib import Path

import pytest

from braidalg import AB, TruncatedSeries, generator, parse_series
from braidalg.lyndon import lie_basis

PSI5_PATH = Path(__file__).parent / "fixtures" / "psi5.txt"


def make_rng(seed):
    return random.Random(seed)


def random_series(rng, alphabet, cap, nterms=6, denom=6, zero_constant=False):
    terms = {}
    for _ in range(nterms):
        deg = rng.randint(1 if zero_constant else 0, cap)
        word = tuple(rng.randrange(alphabet.size) for _ in range(deg))
        terms[word] = Fraction(rng.randint(-denom, denom), rng.randint(1, denom))
    if zero_constant:
        terms.pop((), None)
    return TruncatedSeries.from_terms(alphabet, cap, terms)


def ab_commutator(cap):
    A = generator(AB, cap, "A")
    B = generator(AB, cap, "B")
    return A * B - B * A


def exp_lie_series(rng, cap):
    """exp of a random Lie series with no degree-1 part: it passes (AE)."""
    ell = TruncatedSeries.from_terms(AB, cap, {})
    for k in range(2, cap + 1):
        for _, bracket in lie_basis(AB, cap, k):
            if rng.random() < 0.6:
                ell = ell + bracket.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    return ell.exp()


def psi24(cap):
    """exp([A,B]/24) at the requested cap."""
    return ab_commutator(cap).scale(Fraction(1, 24)).exp()


@pytest.fixture
def rng():
    return make_rng(20240817)


@pytest.fixture(scope="session")
def semi_associator_deg5():
    from braidalg import bootstrap_semi_associator

    return bootstrap_semi_associator(5)


@pytest.fixture(scope="session")
def psi5():
    """Psi5 (tests/fixtures/psi5.txt): passes (YB) through degree 5, but not (AS)."""
    lines = PSI5_PATH.read_text().splitlines()
    return parse_series(" ".join(line for line in lines if not line.startswith("#")), AB)

"""Differential tests of the exact linear algebra against all-Fraction references.

The references, ``oracles.FractionEchelon`` and the aux-column solve
``oracles.reference_affine_solve`` built on it, convert every value to
Fraction, so they cannot share a mistake with the integer arithmetic under
test.
The tests take no fixtures and import no pytest, so the module also runs
as a script on an interpreter without pytest:

    PYTHONPATH=src python tests/test_linalg.py
"""

import random
from fractions import Fraction
from itertools import product
from math import lcm

from oracles import FractionEchelon, reference_affine_solve

from braidalg import (
    AB,
    TruncatedSeries,
    build_graded_basis,
    extension_steps,
    infinitesimal_artin,
    one,
    oriented_artin,
    oriented_upper_triangular,
)
from braidalg import associator
from braidalg.linalg import SparseEchelon, affine_solve, primes
from braidalg.series import word_key

PRESETS = (infinitesimal_artin, oriented_artin, oriented_upper_triangular)
# (strands, highest degree) at which tables are compared.
SIZES = ((3, 4), (4, 3))


def reference_table(preset, k):
    """The degree-k ideal slice spanned by u * r * w, echelonized in Fraction."""
    ech = FractionEchelon(key=word_key)
    rels = [r.degree_slice(2) for r in preset.relations()]
    m = preset.alphabet.size
    for a in range(k - 1):
        for u in product(range(m), repeat=a):
            for rel in rels:
                for w in product(range(m), repeat=k - 2 - a):
                    ech.add({u + rw + w: c for rw, c in rel.items()})
    return ech


def assert_exact(values):
    """Every value is an int or a Fraction, and every integral Fraction is an int."""
    for c in values:
        assert type(c) in (int, Fraction), c
        assert type(c) is int or c.denominator != 1, c


def row_values(ech):
    return [c for row in ech.rows.values() for c in row.values()]


def live_occ(ech):
    """The column index that the rows of ech imply."""
    occ = {}
    for pivot, row in ech.rows.items():
        for col in row:
            if col != pivot:
                occ.setdefault(col, set()).add(pivot)
    return occ


def random_vector(rng, ncols, nterms, coeff):
    return {rng.randrange(ncols): coeff(rng) for _ in range(nterms)}


def test_preset_tables_equal_reference():
    rng = random.Random(3)
    for make in PRESETS:
        for n, top in SIZES:
            preset = make(n)
            m = preset.alphabet.size
            basis = build_graded_basis(preset, top)
            for k in range(top + 1):
                fresh = basis.table(k)
                ref = reference_table(preset, k)
                assert fresh.rows == ref.rows, (preset, k)
                assert_exact(row_values(fresh))
                assert fresh._occ == live_occ(fresh), (preset, k)
                for _ in range(5):
                    words = [tuple(rng.randrange(m) for _ in range(k)) for _ in range(8)]
                    vec = {w: rng.randint(-5, 5) for w in words}
                    out = fresh.reduce(vec)
                    assert out == ref.reduce(vec)
                    # The tables are integral, so integer vectors stay integers.
                    assert all(type(c) is int for c in out.values())


def test_non_unit_pivots_fall_back_to_fraction():
    for seed in range(5):
        rng = random.Random(seed)
        ech = SparseEchelon()
        ref = FractionEchelon()
        for _ in range(30):
            vec = random_vector(rng, 40, 5, lambda r: r.randint(-4, 4))
            # A leading column above every other: its coefficient is the pivot's.
            vec[40 + rng.randrange(20)] = rng.choice((2, 3, -6))
            assert ech.add(vec) == ref.add(vec)
        assert ech.rows == ref.rows
        assert_exact(row_values(ech))
        assert any(type(c) is Fraction for c in row_values(ech))
        assert all(row[pivot] == 1 and type(row[pivot]) is int for pivot, row in ech.rows.items())
        assert ech._occ == live_occ(ech)
        for _ in range(10):
            vec = random_vector(rng, 60, 6, lambda r: r.randint(-9, 9))
            out = ech.reduce(vec)
            assert out == ref.reduce(vec)
            assert all(type(c) in (int, Fraction) for c in out.values())


def test_given_rows_index_built_on_first_add():
    for seed in range(5):
        rng = random.Random(200 + seed)
        built = SparseEchelon()
        for _ in range(30):
            built.add(random_vector(rng, 40, 5, lambda r: r.randint(-4, 4)))
        given = SparseEchelon(rows={p: dict(row) for p, row in built.rows.items()})
        assert given._index is None  # a table that is only reduced against holds no index
        for _ in range(10):
            vec = random_vector(rng, 50, 5, lambda r: r.randint(-4, 4))
            assert given.add(vec) == built.add(vec)
        assert given.rows == built.rows
        assert given._occ == built._occ == live_occ(built)


def test_fraction_vectors_equal_reference():
    for seed in range(5):
        rng = random.Random(100 + seed)
        ech = SparseEchelon()
        ref = FractionEchelon()
        for _ in range(40):
            vec = random_vector(rng, 50, 6, lambda r: Fraction(r.randint(-6, 6), r.randint(1, 6)))
            assert ech.add(vec) == ref.add(vec)
        assert ech.rows == ref.rows
        assert_exact(row_values(ech))
        assert ech._occ == live_occ(ech)
        for _ in range(10):
            vec = random_vector(rng, 50, 6, lambda r: Fraction(r.randint(-6, 6), r.randint(1, 6)))
            out = ech.reduce(vec)
            assert out == ref.reduce(vec)
            assert all(type(c) is Fraction for c in out.values())


def test_normal_form_equals_reference_reduce():
    rng = random.Random(7)
    for make in PRESETS:
        for n, cap in SIZES:
            preset = make(n)
            basis = build_graded_basis(preset, cap)
            refs = [reference_table(preset, k) for k in range(cap + 1)]
            m = preset.alphabet.size
            for _ in range(10):
                terms = {}
                for _ in range(12):
                    word = tuple(rng.randrange(m) for _ in range(rng.randint(0, cap)))
                    terms[word] = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
                s = TruncatedSeries.from_terms(preset.alphabet, cap, terms)
                nf = basis.normal_form(s)
                for k in range(cap + 1):
                    assert nf.degree_slice(k) == refs[k].reduce(s.degree_slice(k)), (preset, k)
                    assert all(type(c) is Fraction for c in nf.degree_slice(k).values())
                    assert all(type(nf.coefficient(w)) is Fraction for w in nf.degree_slice(k))
                assert basis.normal_form(nf) == nf


def fractions(pair):
    """A scaled vector ``(den, {label: int})``, the solver's form, as {label: Fraction}."""
    den, vec = pair
    return {label: Fraction(c, den) for label, c in vec.items()}


def scaled(vec, extra=1):
    """{label: rational} as ``(den, {label: int})``, den the lcm of its denominators times extra."""
    den = extra * lcm(*(Fraction(c).denominator for c in vec.values()))
    return den, {label: int(c * den) for label, c in vec.items()}


def test_affine_solve_returns_fractions():
    rng = random.Random(11)
    for integral in (True, False):
        columns = [
            (1 if integral else rng.randint(2, 6), random_vector(rng, 6, 3, lambda r: r.randint(-6, 6)))
            for _ in range(9)
        ]
        x = [rng.randint(-3, 3) for _ in columns]
        rhs = combination(x, [fractions(col) for col in columns])
        particular, kernel = affine_solve(columns, scaled(rhs))
        assert kernel
        for vector in [particular, *kernel]:
            assert all(type(c) is Fraction for c in vector)
        for vector, target in [(particular, rhs), *((k, {}) for k in kernel)]:
            image = combination(vector, [fractions(col) for col in columns])
            assert {w: c for w, c in image.items() if c} == {w: c for w, c in target.items() if c}


def assert_solves_like_reference(columns, rhs=None):
    """Solve scaled columns, and check against the reference on their Fraction form."""
    got = affine_solve(columns, rhs)
    reference = reference_affine_solve(
        [fractions(col) for col in columns], None if rhs is None else fractions(rhs)
    )
    assert got == reference
    particular, kernel = got
    for vector in ([] if particular is None else [particular]) + kernel:
        assert len(vector) == len(columns)
        assert all(type(c) is Fraction for c in vector)
    return got


def combination(coeffs, columns):
    out = {}
    for x, col in zip(coeffs, columns):
        for label, c in col.items():
            out[label] = out.get(label, 0) + x * c
    return out


def test_affine_solve_equals_reference_on_seeded_systems():
    def rational(r):
        return Fraction(r.randint(-9, 9), r.randint(1, 12))

    for seed in range(12):
        rng = random.Random(300 + seed)
        # Odd seeds are integral; even seeds give each column its own den,
        # not in lowest terms unless its numerators happen to make it so.
        nlabels = rng.randint(3, 12)
        ncols = rng.randint(1, 10)
        columns = [
            (
                1 if seed % 2 else rng.randint(1, 12),
                random_vector(rng, nlabels, rng.randint(1, 5), lambda r: r.randint(-9, 9)),
            )
            for _ in range(ncols)
        ]
        # Rank deficiency: combinations of earlier columns, interleaved.
        for _ in range(3):
            at = rng.randrange(1, len(columns) + 1)
            xs = [rational(rng) for _ in columns[:at]]
            columns.insert(at, scaled(combination(xs, map(fractions, columns[:at])), rng.randint(1, 3)))
        reachable = combination([rational(rng) for _ in columns], map(fractions, columns))
        # A label no column holds makes the rhs unreachable.
        unreachable = {**reachable, nlabels: Fraction(1, 3)}
        for rhs in (None, scaled(reachable), scaled(reachable, 6), scaled(unreachable), (1, {})):
            particular, kernel = assert_solves_like_reference(columns, rhs)
            assert len(kernel) >= 3
            assert (particular is None) == (rhs is None or nlabels in rhs[1])
    # Zero columns are their own kernel vectors; no columns leave only the rhs.
    assert_solves_like_reference([(1, {}), (3, {0: 2}), (2, {1: 0}), (1, {0: 1})], (2, {0: 4}))
    assert affine_solve([(1, {}), (5, {1: 0})], (1, {})) == ([0, 0], [[1, 0], [0, 1]])
    assert affine_solve([], (1, {})) == ([], [])
    assert affine_solve([], (1, {0: 1})) == (None, [])
    assert affine_solve([]) == (None, [])
    # The answer is in the scaled columns' values: 2/3 x = 1/2 has x = 3/4.
    assert assert_solves_like_reference([(3, {0: 2})], (2, {0: 1})) == ([Fraction(3, 4)], [])
    assert assert_solves_like_reference([(6, {0: 4}), (9, {0: 6})]) == (None, [[-1, 1]])


def test_affine_solve_equals_reference_on_extension_systems():
    systems = []

    def recording(columns, rhs=None):
        systems.append((columns, rhs))
        return affine_solve(columns, rhs)

    associator.affine_solve = recording
    try:
        for _ in extension_steps(one(AB, 1), 8):
            pass
    finally:
        associator.affine_solve = affine_solve
    # One solve per degree, and the lookback's at each revised degree, 5 and 7.
    assert len(systems) == 7 + 2
    for columns, rhs in systems:
        assert_solves_like_reference(columns, rhs)


def test_affine_solve_survives_an_unlucky_prime():
    p = next(primes())
    # Independent over Q with determinant p: dependent modulo the first prime.
    columns = [(1, {0: 1, 1: 1}), (1, {0: 1, 1: 1 + p})]
    assert assert_solves_like_reference(columns, (1, {0: 2, 1: 2 + p})) == ([1, 1], [])
    assert assert_solves_like_reference(columns) == (None, [])
    # Mod p column 1 vanishes and column 2 looks independent; over Q column 2
    # is column 1 over p.
    columns = [(1, {0: 1}), (1, {1: p}), (1, {1: 1})]
    assert assert_solves_like_reference(columns, (1, {0: 1, 1: 1})) == (
        [1, Fraction(1, p), 0],
        [[0, Fraction(-1, p), 1]],
    )
    # In the span mod p, but not over Q.
    assert assert_solves_like_reference([(1, {0: 1})], (1, {0: 1, 1: p})) == (None, [])


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")

"""Differential tests of the integer-first SparseEchelon against an all-Fraction reference.

The reference, ``oracles.FractionEchelon``, converts every value to Fraction,
so it cannot share a mistake with the int/Fraction bookkeeping under test.
The tests take no fixtures and import no pytest, so the module also runs
as a script on an interpreter without pytest:

    PYTHONPATH=src python tests/test_linalg.py
"""

import random
from fractions import Fraction
from itertools import product

from oracles import FractionEchelon

from braidalg import (
    TruncatedSeries,
    build_graded_basis,
    infinitesimal_artin,
    oriented_artin,
    oriented_upper_triangular,
)
from braidalg.linalg import SparseEchelon, affine_solve
from braidalg.series import word_key

PRESETS = (infinitesimal_artin, oriented_artin, oriented_upper_triangular)
# (strands, highest degree) at which tables are compared.
SIZES = ((3, 4), (4, 3))


def reference_table(preset, k):
    """The degree-k ideal slice spanned by u * r * w, echelonized in Fraction."""
    ech = FractionEchelon(key=word_key)
    rels = [r.slices[2] for r in preset.relations()]
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
                    assert nf.slices[k] == refs[k].reduce(s.slices[k]), (preset, k)
                    assert all(type(c) is Fraction for c in nf.slices[k].values())
                assert basis.normal_form(nf) == nf


def test_affine_solve_returns_fractions():
    rng = random.Random(11)
    for integral in (True, False):
        if integral:
            def coeff(r):
                return r.choice((2, 3, -6, 1, -1))
        else:
            def coeff(r):
                return Fraction(r.randint(-6, 6), r.randint(1, 6))
        columns = [random_vector(rng, 6, 3, coeff) for _ in range(9)]
        x = [rng.randint(-3, 3) for _ in columns]
        rhs = {}
        for xi, col in zip(x, columns):
            for w, c in col.items():
                rhs[w] = rhs.get(w, 0) + xi * c
        particular, kernel = affine_solve(columns, rhs)
        assert kernel
        for vector in [particular, *kernel]:
            assert all(type(c) is Fraction for c in vector)
        for vector, target in [(particular, rhs), *((k, {}) for k in kernel)]:
            image = {}
            for xi, col in zip(vector, columns):
                for w, c in col.items():
                    image[w] = image.get(w, 0) + xi * c
            assert {w: c for w, c in image.items() if c} == {w: c for w, c in target.items() if c}


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")

"""Exact linear algebra over the rationals: a sparse echelon and an affine solver.

``SparseEchelon`` is the engine behind the quotient rules' Buchberger
closure and the tests' exhaustive reference slices.  Rows are dicts
{column: coefficient}; the pivot of a row is its largest column under the
supplied ordering, and the stored table is kept inter-reduced so that
reduction is a single pass.

Coefficients are exact: ``int`` where a value is an integer, ``Fraction``
where it is not, and never ``float``.  Every stored row holds its integral
values as ``int`` and its pivot coefficient as ``1``, so the relation tables,
which are integral, are built and applied in integer arithmetic.  ``reduce``
keeps the type of its input: integer vectors reduce to integer vectors
whenever the rows they meet are integral, and vectors of ``Fraction`` values
stay ``Fraction``.

``affine_solve``, behind the associator extension and ``delta_kernel``,
returns one answer whatever the order of the labels: P, the greedy
left-to-right independent columns; the solution of the rhs supported on P;
and for each column i outside P the kernel vector e_i - sum x_j e_j, over the
j in P before i, that writes column i in those columns.  The columns and
the rhs arrive scaled to integers, as a series stores a degree, ``(den,
{label: int})``, and no ``Fraction`` enters until the answer is built:

1. Rank profile.  The columns are eliminated modulo a prime p below 2**30,
   so that every residue and every product of two is a machine-size int.
   This finds P and one pivot row per column of P; on those rows R the
   square block A[R, P] is invertible mod p, so the columns of P are
   independent over Q.
2. Solve.  A[R, P] y = t is solved modulo one prime after another, for the
   rhs and for each column outside P, and each y is rebuilt from its
   residues by Chinese remaindering and rational reconstruction.
3. Check.  Each rebuilt y is checked exactly against all rows.  Once the
   modulus exceeds 2 (H T)^2, with H Hadamard's bound on det A[R, P] and T
   the largest target norm, reconstruction is exact; a column outside P that
   still fails, or needs a column of P after it, shows an unlucky p, whose
   rank profile differs from the one over Q, and the solve starts again
   with the next prime.  Once P is checked, the rhs is unreachable exactly
   when it is independent mod p or still fails at that modulus.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd, isqrt, lcm, prod
from operator import mul

ZERO = Fraction(0)


class SparseEchelon:
    """Incrementally echelonized span of sparse rational vectors."""

    __slots__ = ("key", "rows", "_index")

    def __init__(self, key=None, rows=None):
        self.key = key if key is not None else _identity
        # pivot column -> full row, normalized to pivot coefficient 1; given
        # rows must already be inter-reduced
        self.rows: dict = {} if rows is None else rows
        self._index = None

    @property
    def _occ(self) -> dict:
        """Column -> set of pivots whose rows contain it off-pivot.

        Only ``add`` needs it, so it is built on first use: a finished table
        that is only reduced against never holds this transpose of its rows.
        """
        if self._index is None:
            occ = {}
            for pivot, row in self.rows.items():
                for col in row:
                    if col != pivot:
                        occ.setdefault(col, set()).add(pivot)
            self._index = occ
        return self._index

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivots(self):
        return self.rows.keys()

    def reduce(self, vec: dict) -> dict:
        """Canonical representative of vec modulo the stored span.

        Single pass suffices: stored rows never contain other pivots off-pivot.
        """
        out = {}
        for col, c in vec.items():
            if not c:
                continue
            row = self.rows.get(col)
            if row is None:
                c2 = out.get(col, 0) + c
                if c2:
                    out[col] = c2
                else:
                    del out[col]
            else:
                for col2, c2 in row.items():
                    if col2 == col:
                        continue
                    cv = out.get(col2, 0) - c * c2
                    if cv:
                        out[col2] = cv
                    else:
                        del out[col2]
        return out

    def add(self, vec: dict):
        """Adjoin a vector to the span; returns the new pivot or None if dependent."""
        rem = self.reduce(vec)
        if not rem:
            return None
        pivot = max(rem, key=self.key)
        cp = rem[pivot]
        if cp == 1:
            row = {col: demote(c) for col, c in rem.items()}
        elif cp == -1:
            row = {col: demote(-c) for col, c in rem.items()}
        else:
            # Fraction(cp), not cp itself: 1 / int is a float.
            inv = 1 / Fraction(cp)
            row = {col: demote(c * inv) for col, c in rem.items()}
        # Back-substitute so existing rows stay free of the new pivot.
        occ = self._occ
        for q in occ.pop(pivot, ()):
            qrow = self.rows[q]
            cq = qrow.pop(pivot)
            for col, c in row.items():
                if col == pivot:
                    continue
                cv = qrow.get(col, 0) - cq * c
                if cv:
                    if col not in qrow:
                        occ.setdefault(col, set()).add(q)
                    qrow[col] = demote(cv)
                else:
                    # Never left empty: col is in the new row, which joins its set below.
                    del qrow[col]
                    occ[col].discard(q)
        self.rows[pivot] = row
        for col in row:
            if col != pivot:
                occ.setdefault(col, set()).add(pivot)
        return pivot

    def replacement(self, pivot) -> dict:
        """Reduced form of a pivot column: pivot = sum of strictly smaller terms."""
        row = self.rows[pivot]
        return {col: -c for col, c in row.items() if col != pivot}


def _identity(col):
    return col


def demote(c):
    """The int of an integral Fraction; any other value unchanged."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


# -- the affine solver -------------------------------------------------------------


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2, 3, 5, 7: exact for odd 7 < n < 3,215,031,751."""
    d, s = n - 1, 0
    while not d % 2:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def _prime(k: int) -> int:
    n = 2**30 - 1 if k == 0 else _prime(k - 1) - 2
    while not _is_prime(n):
        n -= 2
    return n


def primes():
    """The solver's primes, largest first below 2**30; each is found once per process."""
    return map(_prime, count())


def _reduce_mod(vec: dict, pivots: list, p: int) -> dict:
    """vec mod p minus its combination of the pivot columns, in the order they were found."""
    vec = {label: c % p for label, c in vec.items()}
    get = vec.get
    for row, pcol in pivots:
        f = get(row)
        if f:
            vec.update({label: (get(label, 0) - f * c) % p for label, c in pcol.items()})
    return {label: c for label, c in vec.items() if c}


def _rank_profile(columns: list, p: int):
    """The greedy independent columns mod p as (index, pivot row) pairs, and the other indices.

    Each pivot column, stored after reduction, vanishes on the pivot rows
    found before it and is 1 on its own, so one pass in that order reduces.
    """
    pivots, independent, dependent = [], [], []
    for i, col in enumerate(columns):
        vec = _reduce_mod(col, pivots, p)
        if not vec:
            dependent.append(i)
            continue
        row = next(iter(vec))
        inv = pow(vec[row], -1, p)
        pivots.append((row, {label: c * inv % p for label, c in vec.items()}))
        independent.append((i, row))
    return pivots, independent, dependent


def _solve_mod(square: list, targets: list, q: int):
    """Solutions mod q of square y = t for each target t, or None if square is singular mod q."""
    n = len(square)
    rows = [[c % q for c in row] + [t[r] % q for t in targets] for r, row in enumerate(square)]
    for c in range(n):
        r = next((r for r in range(c, n) if rows[r][c]), None)
        if r is None:
            return None
        rows[c], rows[r] = rows[r], rows[c]
        inv = pow(rows[c][c], -1, q)
        pivot = rows[c][c:] = [x * inv % q for x in rows[c][c:]]
        for r, row in enumerate(rows):
            f = row[c]
            if f and r != c:
                row[c:] = [(x - f * y) % q for x, y in zip(row[c:], pivot)]
    return [[row[n + k] for row in rows] for k in range(len(targets))]


def _rational(a: int, m: int):
    """The fraction r/s with |r|, s <= sqrt(m/2) and r = a s mod m, or None."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, a, 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1, s0, s1 = r1, r0 - quo * r1, s1, s0 - quo * s1
    if not s1 or abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _norm_bound(vec) -> int:
    return isqrt(sum(c * c for c in vec)) + 1


def _verified(rows: list, target: list, residues: list, modulus: int):
    """The y rebuilt from its residues if A y = t holds on every row, else None."""
    y = []
    for a in residues:
        f = _rational(a, modulus)
        if f is None:
            return None
        y.append(f)
    den = lcm(*[f.denominator for f in y])
    ints = [f.numerator * (den // f.denominator) for f in y]
    if all(sum(map(mul, row, ints)) == den * t for row, t in zip(rows, target)):
        return y
    return None


def _solve_checked(rows: list, targets: list) -> list:
    """Per target t, the exact y with A y = t on every row, or None if there is none.

    ``rows`` are the dense integer rows of A, the first len(y) of them a
    square block invertible over Q; ``targets`` are dense integer columns
    over the same rows.  Primes are added until each y checks, or until the
    modulus passes the bound past which the block's solution is surely
    rebuilt.
    """
    n = len(rows[0]) if rows else 0
    square = rows[:n]
    det_bound = prod(_norm_bound([row[j] for row in square]) for j in range(n))
    limit = 2 * (det_bound * max(_norm_bound(t[:n]) for t in targets)) ** 2
    found = [None] * len(targets)
    residues = [[0] * n for _ in targets]
    modulus = 1
    for q in primes():
        if modulus > limit or all(y is not None for y in found):
            return found
        solution = _solve_mod(square, targets, q)
        if solution is None:
            continue
        inv = pow(modulus, -1, q)
        for k, (res, xs) in enumerate(zip(residues, solution)):
            res[:] = [a + modulus * ((x - a) * inv % q) for a, x in zip(res, xs)]
            if found[k] is None:
                found[k] = _verified(rows, targets[k], res, modulus * q)
        modulus *= q


def affine_solve(columns, rhs=None):
    """Solve  sum_i x_i * columns[i] = rhs  exactly over the rationals.

    ``columns`` and ``rhs`` are scaled sparse vectors over hashable labels,
    ``(den, {label: int})`` for {label: int / den}, den not necessarily in
    lowest terms.  Returns ``(particular, kernel)`` as lists of Fractions:
    ``particular`` is the solution supported on the greedy independent
    columns, or None when rhs is unreachable or was not given; ``kernel`` has
    one vector per other column i, e_i minus the combination of earlier
    independent columns that equals column i (see the module docstring).
    """
    ints = [col for _, col in columns]
    den_b, b = rhs if rhs is not None else (1, None)
    labels = dict.fromkeys(label for col in ints + [b or {}] for label in col)
    for p in primes():
        pivots, independent, dependent = _rank_profile(ints, p)
        reachable = b is not None and not _reduce_mod(b, pivots, p)
        targets = [ints[i] for i in dependent] + ([b] if reachable else [])
        if not targets:
            solutions = []
            break
        # Dense rows of A[:, P], the pivot rows first.
        pivot_rows = dict.fromkeys(row for _, row in independent)
        order = list(pivot_rows) + [label for label in labels if label not in pivot_rows]
        rows = [[ints[i].get(label, 0) for i, _ in independent] for label in order]
        dense = [[t.get(label, 0) for label in order] for t in targets]
        solutions = _solve_checked(rows, dense)
        # P is the greedy profile over Q too once each column outside it is
        # checked to be a combination of the columns of P before it.
        if all(
            y is not None and not any(c for (j, _), c in zip(independent, y) if j > i)
            for i, y in zip(dependent, solutions)
        ):
            break
    nvars = len(columns)
    kernel = []
    for i, y in zip(dependent, solutions):
        vector = [ZERO] * nvars
        vector[i] = Fraction(1)
        for (j, _), c in zip(independent, y):
            vector[j] = -c * columns[j][0] / columns[i][0]
        kernel.append(vector)
    particular = None
    if reachable and solutions[-1] is not None:
        particular = [ZERO] * nvars
        for (j, _), c in zip(independent, solutions[-1]):
            particular[j] = c * columns[j][0] / den_b
    return particular, kernel

"""Sparse exact row echelon over the rationals, keyed by arbitrary column labels.

The one linear-algebra engine behind quotient bases, primitive-slice
membership, kernel computations and the associator extension solver.
Rows are dicts {column: coefficient}; the pivot of a row is its largest
column under the supplied ordering, and the stored table is kept
inter-reduced so that reduction is a single pass.

Coefficients are exact: ``int`` where a value is an integer, ``Fraction``
where it is not, and never ``float``.  Every stored row holds its integral
values as ``int`` and its pivot coefficient as ``1``, so the relation tables,
which are integral, are built and applied in integer arithmetic.  ``reduce``
keeps the type of its input: integer vectors reduce to integer vectors
whenever the rows they meet are integral, and vectors of ``Fraction`` values
stay ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction

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

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

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


class _Aux:
    """Bookkeeping column tracking the coefficient of one input vector."""

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index

    def __eq__(self, other):
        return isinstance(other, _Aux) and self.index == other.index

    def __hash__(self):
        return hash(("aux", self.index))

    def __repr__(self):
        return f"_Aux({self.index})"


def affine_solve(columns, rhs=None, key=None):
    """Solve  sum_i x_i * columns[i] = rhs  exactly over the rationals.

    ``columns`` is a list of sparse dicts over comparable labels (pass ``key``
    when labels are not directly comparable).  Returns ``(particular, kernel)``:
    ``particular`` is a coefficient list, or None when rhs is unreachable or
    was not given; ``kernel`` is a list of coefficient lists spanning the
    nullspace of the column map.
    """
    base_key = key if key is not None else _identity

    def mixed_key(col):
        # Aux columns sort below all real columns, so pivots prefer real
        # columns and a pure-aux pivot row is exactly a kernel relation.
        if isinstance(col, _Aux):
            return (0, col.index)
        return (1, base_key(col))

    ech = SparseEchelon(key=mixed_key)
    nvars = len(columns)
    kernel = []
    for i, colvec in enumerate(columns):
        vec = {col: c for col, c in colvec.items() if c}
        vec[_Aux(i)] = Fraction(1)
        pivot = ech.add(vec)
        if isinstance(pivot, _Aux):
            # Pivot is aux, so every column of the row is aux: a kernel vector.
            coeffs = [ZERO] * nvars
            for col, c in ech.rows[pivot].items():
                coeffs[col.index] = Fraction(c)
            kernel.append(coeffs)
    if rhs is None:
        return None, kernel
    rem = ech.reduce({col: c for col, c in rhs.items() if c})
    if any(not isinstance(col, _Aux) for col in rem):
        return None, kernel
    particular = [ZERO] * nvars
    for col, c in rem.items():
        particular[col.index] = -Fraction(c)
    return particular, kernel

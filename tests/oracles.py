"""Independent brute-force oracles for the tests.

Tiny pieces of arithmetic are deliberately reimplemented here with plain
dicts and lists so that expected values are not produced by the code paths
under test.  Words are tuples of generator indices; vectors are dicts.  The
exceptions build on the package's own series arithmetic: the relations as
products of generators, and the section of hand-transcribed axioms below.
"""

from fractions import Fraction
from functools import cache, lru_cache
from itertools import permutations, product
from math import comb, factorial, lcm

from braidalg.associator import AB, HALF, _lyndon_rows, _lyndon_set, _prepare, swap_letters
from braidalg.linalg import affine_solve
from braidalg.quotient import (
    BasisError,
    _disjoint_pairs,
    build_graded_basis,
    infinitesimal_artin,
    oriented_artin,
)
from braidalg.perms import Permutation
from braidalg.reps import (
    _require_assoc,
    _strand_permutation,
    central_element,
    fold,
    rho3_parameter,
    welded_images,
)
from braidalg.sdseries import SemidirectSeries
from braidalg.series import (
    _TERM_RE,
    Alphabet,
    CapMismatch,
    ConstantTermError,
    SeriesError,
    TruncatedSeries,
    generator,
    generator_or_zero,
    lowest_terms,
    one,
    scale_slice,
    substitute,
    unscale_slice,
    zero,
)
from braidalg.words import _RING_TERM_RE, FreeGroupEndo, GroupRingElement, Token, WordError, parse_word

ZERO = Fraction(0)


def reduce_fractions(basis, k, sl):
    """basis.reduce of a degree-k slice of Fractions, run in integers as normal forms run it."""
    return unscale_slice(*basis.reduce_slice(k, scale_slice(sl)))


# -- mini free-algebra arithmetic (dict word -> Fraction) -----------------------


def mini_mul(a, b, cap):
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            if len(u) + len(v) > cap:
                continue
            w = u + v
            c = out.get(w, ZERO) + cu * cv
            if c:
                out[w] = c
            else:
                del out[w]
    return out


def mini_add(a, b):
    out = dict(a)
    for w, c in b.items():
        c2 = out.get(w, ZERO) + c
        if c2:
            out[w] = c2
        else:
            del out[w]
    return out


def mini_scale(a, c):
    c = Fraction(c)
    return {w: cv * c for w, cv in a.items()} if c else {}


def mini_exp(x, cap):
    assert () not in x
    out = {(): Fraction(1)}
    power = {(): Fraction(1)}
    fact = 1
    for k in range(1, cap + 1):
        power = mini_mul(power, x, cap)
        if not power:
            break
        fact *= k
        out = mini_add(out, mini_scale(power, Fraction(1, fact)))
    return out


def mini_log(g, cap):
    assert g.get(()) == 1
    h = dict(g)
    del h[()]
    out = {}
    power = {(): Fraction(1)}
    for k in range(1, cap + 1):
        power = mini_mul(power, h, cap)
        if not power:
            break
        out = mini_add(out, mini_scale(power, Fraction((-1) ** (k + 1), k)))
    return out


def mini_inverse(g, cap):
    c0 = g.get((), ZERO)
    assert c0
    h = mini_scale(g, 1 / c0)
    del h[()]
    out = {(): Fraction(1)}
    power = {(): Fraction(1)}
    for _ in range(cap):
        power = mini_scale(mini_mul(power, h, cap), -1)
        if not power:
            break
        out = mini_add(out, power)
    return mini_scale(out, 1 / c0)


def reference_substitute(f, images, cap):
    """Letter-by-letter product substitution: sum c * images[w1] ... images[wk], to the cap.

    f and the images are dicts word -> Fraction; the images may be any series
    with zero constant term, not only linear ones.
    """
    out = {}
    for word, c in f.items():
        prod = {(): Fraction(1)}
        for g in word:
            prod = mini_mul(prod, images[g], cap)
        out = mini_add(out, mini_scale(prod, c))
    return out


def reference_delta_map(s, target):
    """t_ij -> v_ij + v_ji: each chord word to its 2^k oriented words, reduced in the quotient.

    s is a chord TruncatedSeries and target an oriented GradedQuotientBasis.
    Each word is expanded on its own, with no substitution kernel.
    """
    letters = [(target.alphabet.gen(i, j), target.alphabet.gen(j, i)) for i, j in s.alphabet.pairs]
    slices = []
    for k, (den, sl) in enumerate(s.scaled):
        image = {u: c for w, c in sl.items() for u in product(*(letters[g] for g in w))}
        slices.append(target.reduce_slice(k, (den, image)))
    return TruncatedSeries(target.alphabet, s.cap, tuple(slices))


def normal_words(basis, k):
    """Deglex-sorted degree-k words whose normal form is themselves: a basis of the graded piece.

    A prefix of a normal word is normal, so each degree extends the normal
    words of the one below by every letter.
    """
    words = [()]
    for d in range(1, k + 1):
        extended = (w + (b,) for w in words for b in range(basis.alphabet.size))
        words = [v for v in extended if basis.reduce(d, {v: 1}) == {v: 1}]
    return words


def reference_delta_kernel(n, k):
    """(dim chord(n)_k, dim of the kernel of delta on it), from every normal word's image.

    Each chord normal word maps to the sum of its 2^k oriented words, reduced
    in the oriented quotient; the kernel is that of the d_k image columns.
    """
    chord_basis = build_graded_basis(infinitesimal_artin(n), k)
    oriented_basis = build_graded_basis(oriented_artin(n), k)
    gen = oriented_basis.alphabet.gen
    letters = [(gen(i, j), gen(j, i)) for i, j in chord_basis.alphabet.pairs]
    domain_words = normal_words(chord_basis, k)
    columns = [
        scale_slice(oriented_basis.reduce(k, dict.fromkeys(product(*(letters[g] for g in w)), 1)))
        for w in domain_words
    ]
    _, kernel = affine_solve(columns)
    return len(domain_words), len(kernel)


# -- welded words in Aut(F_n): one composition per letter -------------------------


def _letter_endo(n, t):
    """a(i,j): x_i -> x_j^-1 x_i x_j; s(i) swaps x_i, x_i+1; sigma(i) = a(i,i+1) s(i)."""
    if t.kind == "a":
        return FreeGroupEndo.generator_a(n, t.i, t.j, t.power)
    if t.kind == "s":
        return FreeGroupEndo.generator_s(n, t.i)
    ai = FreeGroupEndo.generator_a(n, t.i, t.i + 1, t.power)
    si = FreeGroupEndo.generator_s(n, t.i)
    return ai.compose(si) if t.power == 1 else si.compose(ai)


def as_automorphism(w):
    """The welded word as a composite of its letters' endomorphisms, every image recomputed per letter."""
    endo = FreeGroupEndo.identity(w.n)
    for t in w.letters:
        endo = endo.compose(_letter_endo(w.n, t))
    return endo


# -- Lie elements: the per-degree Dynkin formula and the Lyndon span ------------------


def left_normed_bracket(word):
    """[[..[a1, a2], ..], ak] as {word: Fraction}, by commutators of mini products."""
    out = {word[:1]: Fraction(1)}
    for g in word[1:]:
        letter = {(g,): Fraction(1)}
        right, left = mini_mul(out, letter, len(word)), mini_mul(letter, out, len(word))
        out = mini_add(right, mini_scale(left, -1))
    return out


def per_degree_ae_residual(phi, cap):
    """The (AE) residual degree by degree: log_1 + sum over k >= 2 of log_k - D(log_k) / k.

    phi is a dict word -> Fraction with constant term 1; terms above the cap
    are dropped.  D is the left-normed bracketing of each word.
    """
    log = mini_log({w: c for w, c in phi.items() if len(w) <= cap}, cap)
    out = {w: c for w, c in log.items() if len(w) == 1}
    for w, c in log.items():
        if len(w) >= 2:
            out = mini_add(out, {w: c})
            out = mini_add(out, mini_scale(left_normed_bracket(w), -c / len(w)))
    return out


@cache
def lyndon_slice(preset, k):
    """The span of the reduced Lyndon bracketings in degree k of a preset's quotient.

    The quotient is the enveloping algebra of its Lie quotient, so this span
    is its degree-k primitive part.  Brute force: the Lyndon words are found
    among all size**k words, and each bracket is reduced and echelonized.
    """
    from braidalg.linalg import SparseEchelon
    from braidalg.lyndon import bracket_terms, lyndon_words
    from braidalg.quotient import build_graded_basis
    from braidalg.series import word_key

    basis = build_graded_basis(preset, k)
    ech = SparseEchelon(key=word_key)
    for w in lyndon_words(preset.alphabet.size, k):
        ech.add(basis.reduce(k, bracket_terms(w)))
    return ech


def in_lyndon_span(basis, s):
    """Whether s maps to a primitive element: each part of NF(s) in its degree's Lyndon span."""
    nf = basis.normal_form(s)
    if nf.constant_term:
        return False
    return all(not lyndon_slice(basis.preset, k).reduce(nf.degree_slice(k)) for k in range(1, nf.cap + 1))


# -- dense exact Gauss over an explicit column list ------------------------------


def dense_rows(vectors, columns):
    index = {w: i for i, w in enumerate(columns)}
    rows = []
    for vec in vectors:
        row = [ZERO] * len(columns)
        for w, c in vec.items():
            row[index[w]] = c
        rows.append(row)
    return rows


def gauss_eliminate(rows):
    """In-place forward elimination; returns the list of pivot column indices."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [c * inv for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def dense_rank(vectors, columns):
    _, pivots = gauss_eliminate(dense_rows(vectors, columns))
    return len(pivots)


# -- sparse inter-reduced echelon, every coefficient a Fraction --------------------


class FractionEchelon:
    """Reference sparse echelon: rows {column: Fraction}, pivot = largest column.

    Every value is converted to Fraction on the way in, and every row is
    scaled by the inverse of its pivot coefficient, so no step depends on
    which values happen to be integers.
    """

    def __init__(self, key=None):
        self.key = key if key is not None else (lambda col: col)
        self.rows = {}

    def reduce(self, vec):
        out = {}
        for col, c in vec.items():
            c = Fraction(c)
            row = self.rows.get(col)
            terms = [(col, c)] if row is None else [(w, -c * r) for w, r in row.items() if w != col]
            for w, t in terms:
                out[w] = out.get(w, ZERO) + t
                if not out[w]:
                    del out[w]
        return out

    def add(self, vec):
        rem = self.reduce(vec)
        if not rem:
            return None
        pivot = max(rem, key=self.key)
        inv = 1 / rem[pivot]
        row = {w: c * inv for w, c in rem.items()}
        for qrow in self.rows.values():
            cq = qrow.pop(pivot, ZERO)
            for w, c in row.items():
                if cq and w != pivot:
                    qrow[w] = qrow.get(w, ZERO) - cq * c
                    if not qrow[w]:
                        del qrow[w]
        self.rows[pivot] = row
        return pivot


def reference_affine_solve(columns, rhs=None, key=None):
    """Solve sum_i x_i columns[i] = rhs on FractionEchelon, tracking each column in an aux column.

    Column i enters as columns[i] + aux_i, with the aux columns below every
    label (pass ``key`` when labels are not directly comparable).  A row
    whose pivot is an aux column holds only aux columns: a kernel relation.
    The rhs reduces to aux columns only when it is reachable, and then to
    minus the particular solution.  Returns ``(particular, kernel)`` like
    ``braidalg.linalg.affine_solve``.
    """
    label_key = key if key is not None else (lambda col: col)
    aux = object()

    def mixed_key(col):
        if isinstance(col, tuple) and len(col) == 2 and col[0] is aux:
            return (0, col[1])
        return (1, label_key(col))

    ech = FractionEchelon(key=mixed_key)
    n = len(columns)
    kernel = []
    for i, column in enumerate(columns):
        vec = {label: c for label, c in column.items() if c}
        vec[(aux, i)] = Fraction(1)
        pivot = ech.add(vec)
        if mixed_key(pivot)[0] == 0:
            coeffs = [ZERO] * n
            for (_, j), c in ech.rows[pivot].items():
                coeffs[j] = c
            kernel.append(coeffs)
    if rhs is None:
        return None, kernel
    rem = ech.reduce({label: c for label, c in rhs.items() if c})
    if any(mixed_key(label)[0] == 1 for label in rem):
        return None, kernel
    particular = [ZERO] * n
    for (_, j), c in rem.items():
        particular[j] = -c
    return particular, kernel


# -- the exhaustive ideal slice: the reference for every preset's normal forms ------


def reference_relations(preset):
    """A preset's degree-2 relations as series products a * b - b * a of generators."""
    cap = 2
    alph = preset.alphabet
    rels = []

    def comm(a, b):
        return a * b - b * a

    def g(i, j):
        return generator(alph, cap, (i, j))

    triples = list(permutations(range(1, preset.n + 1), 3))  # distinct strands, lexicographic
    pairs = _disjoint_pairs(alph)
    if preset.kind == "infinitesimal_artin":
        # [t_ij, t_ik + t_jk] over unordered pairs {i,j}; swapping i,j repeats it.
        rels += [comm(g(i, j), g(i, k) + g(j, k)) for i, j, k in triples if i < j]
        # [t_ij, t_kl] for disjoint unordered pairs, each pair-of-pairs once.
        rels += [comm(g(i, j), g(k, l)) for (i, j), (k, l) in pairs]
    elif preset.kind in ("oriented_artin", "oriented_upper_triangular"):
        full = preset.kind == "oriented_artin"
        # (I) [v_ik, v_jk]; antisymmetric in i,j, so take i < j once.
        rels += [comm(g(i, k), g(j, k)) for k, i, j in triples if i < j and (full or i > k)]
        # (II) [v_ij, v_ik + v_jk]; genuinely ordered in (i, j).
        rels += [comm(g(i, j), g(i, k) + g(j, k)) for i, j, k in triples if full or i > j > k]
        # (III) [v_ij, v_kl] over disjoint ordered pairs, each pair-of-pairs once.
        rels += [comm(g(i, j), g(k, l)) for (i, j), (k, l) in pairs if full or i > j and k > l]
    elif preset.kind != "free":
        raise BasisError(f"unknown preset kind {preset.kind!r}")
    return rels


def echelon_table(preset, k, relations):
    """Echelonize u * r * w over the relations r and words u, w of total degree k.

    This spans the degree-k slice of the ideal by brute force, with no
    rewriting rule.  It runs on the package's SparseEchelon, which
    tests/test_linalg.py checks against FractionEchelon above.
    """
    from braidalg.linalg import SparseEchelon, demote
    from braidalg.series import word_key

    ech = SparseEchelon(key=word_key)
    # The relations are integral: echelonize in int, not Fraction, arithmetic.
    rel_slices = [{w: demote(c) for w, c in r.degree_slice(2).items()} for r in relations]
    m = preset.alphabet.size
    for a in range(k - 1):
        for u in product(range(m), repeat=a):
            for rel in rel_slices:
                for w in product(range(m), repeat=k - 2 - a):
                    ech.add({u + rw + w: c for rw, c in rel.items()})
    return ech


# -- closed-form Hilbert series -----------------------------------------------------


def rational_series_dims(numerator, denominator, cap):
    """Coefficients of numerator(t) / denominator(t) in degrees 0..cap; denominator[0] == 1."""
    coeffs = []
    for k in range(cap + 1):
        c = numerator[k] if k < len(numerator) else 0
        c -= sum(denominator[i] * coeffs[k - i] for i in range(1, min(k, len(denominator) - 1) + 1))
        coeffs.append(c)
    return coeffs


def oriented_formula_dims(n, cap):
    """(1 - n t)^-(n-1) in degrees 0..cap.

    Koszulity of H*(P Sigma_n) predicts these dimensions for oriented_artin(n).
    """
    return [comb(k + n - 2, n - 2) * n**k for k in range(cap + 1)]


def upper_triangular_formula_dims(n, cap):
    """1/(prod_{k<n} (1 - k t) - C(n, 2) t) in degrees 0..cap.

    The letters v_ij with i < j appear in no upper-triangular relation, so
    the algebra is the free product of the free algebra on them with the
    quotient on the other letters, whose series is 1/prod_{k<n} (1 - k t).
    """
    denominator = [1]
    for k in range(1, n):
        denominator = [a - k * b for a, b in zip(denominator + [0], [0] + denominator)]
    denominator[1] -= comb(n, 2)
    return rational_series_dims([1], denominator, cap)


# -- Hilbert series of the chord algebra: product of 1/(1 - j t) ------------------


def product_formula_dims(n, cap):
    coeffs = [1] + [0] * cap
    for j in range(1, n):
        # multiply by 1/(1 - j t): c_k += j * c_{k-1} running forward
        for k in range(1, cap + 1):
            coeffs[k] += j * coeffs[k - 1]
    return coeffs


# -- the semi-associator kernel: an S3 multiplicity in the free Lie algebra ------


def _mobius(k):
    mu, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if k > 1 else mu


def _free_lie_character(d, trace):
    """chi_d(g) = (1/d) sum_{k | d} mu(k) tr(g^k)^(d/k), the character of L_d at g.

    ``trace(k)`` is tr(g^k) on the degree-1 part; trace(1) ** d summed this
    way is Witt's dimension formula when g is the identity.
    """
    total = sum(_mobius(k) * trace(k) ** (d // k) for k in range(1, d + 1) if d % k == 0)
    assert total % d == 0
    return total // d


def standard_multiplicity(d):
    """How often S3's standard representation occurs in degree d of the free Lie algebra on A, B.

    S3 permutes A, B and C = -A - B, so it acts on span(A, B) as its standard
    representation: trace 2 on the identity, -1 on a 3-cycle, 0 on a
    transposition.  The transpositions drop out of the inner product, which
    leaves (dim L_d - chi_d(3-cycle)) / 3.  The kernel of the extension's
    degree-d (AS)/(H3) columns has this dimension.
    """
    dim = _free_lie_character(d, lambda k: 2)
    rotation = _free_lie_character(d, lambda k: 2 if k % 3 == 0 else -1)
    assert (dim - rotation) % 3 == 0
    return (dim - rotation) // 3


def avoiding_word_counts(size, forbidden_pairs, cap):
    """Number of words of each degree 0..cap that contain no forbidden adjacent pair.

    A transfer-matrix count over the graph on the letters with an edge a -> b
    for every allowed pair (a, b) (the Ufnarovski graph of a quadratic
    monomial algebra): ending[b] counts the allowed words ending in b.
    """
    forbidden = set(forbidden_pairs)
    counts = [1]
    ending = [1] * size
    for _ in range(cap):
        counts.append(sum(ending))
        ending = [sum(ending[a] for a in range(size) if (a, b) not in forbidden) for b in range(size)]
    return counts


# -- brute-force degree-2 hexagon solve -------------------------------------------
#
# Work over the 3 chord generators indexed 0: t12, 1: t13, 2: t23, at cap 2.
# Coefficients are linear polynomials p0 + p1*c in the unknown degree-2
# coefficient c of the candidate exp(c[A,B]); terms in c^2 have word degree 4.


def _poly_mul_series(a, b, cap):
    out = {}
    for u, (a0, a1) in a.items():
        for v, (b0, b1) in b.items():
            if len(u) + len(v) > cap:
                continue
            w = u + v
            p0, p1 = out.get(w, (ZERO, ZERO))
            # drop the c^2 component: it lives above word degree 2
            out[w] = (p0 + a0 * b0, p1 + a0 * b1 + a1 * b0)
    return {w: p for w, p in out.items() if p != (ZERO, ZERO)}


def _half_exp(gens):
    """Degree-<=2 expansion of exp((sum of gens)/2) with constant poly coeffs."""
    out = {(): (Fraction(1), ZERO)}
    lin = {(g,): (Fraction(1, 2), ZERO) for g in gens}
    for w, c in lin.items():
        out[w] = c
    for g1 in gens:
        for g2 in gens:
            w = (g1, g2)
            p0, _ = out.get(w, (ZERO, ZERO))
            out[w] = (p0 + Fraction(1, 8), ZERO)
    return out


def _phi_factor(x, y, sign):
    """exp(sign * c * [t_x, t_y]) to degree 2: 1 + sign*c*(xy - yx)."""
    one = Fraction(1)
    return {
        (): (one, ZERO),
        (x, y): (ZERO, Fraction(sign)),
        (y, x): (ZERO, Fraction(-sign)),
    }


def hexagon_degree2_coefficient():
    """Solve the degree-2 slice of the printed hexagon for exp(c[A,B]).

    Returns the unique rational c.  Fully independent of the package: its own
    series arithmetic, its own relation reduction.
    """
    T12, T13, T23 = 0, 1, 2
    cap = 2
    # Phi_t = Phi(t12, t23) = exp(c[t12, t23]); the permuted copies follow
    # from pi(t_ij) = t_(pi i)(pi j):
    #   312.Phi_t = Phi(t13, t12),   132.Phi_t^-1 = Phi(t13, t23)^-1.
    rhs = _phi_factor(T13, T12, +1)
    rhs = _poly_mul_series(rhs, _half_exp([T13]), cap)
    rhs = _poly_mul_series(rhs, _phi_factor(T13, T23, -1), cap)
    rhs = _poly_mul_series(rhs, _half_exp([T23]), cap)
    rhs = _poly_mul_series(rhs, _phi_factor(T12, T23, +1), cap)
    lhs = _half_exp([T13, T23])
    residual = {}
    for w in set(rhs) | set(lhs):
        r0 = rhs.get(w, (ZERO, ZERO))[0] - lhs.get(w, (ZERO, ZERO))[0]
        r1 = rhs.get(w, (ZERO, ZERO))[1] - lhs.get(w, (ZERO, ZERO))[1]
        if (r0, r1) != (ZERO, ZERO):
            residual[w] = (r0, r1)
    # Degree-2 slice modulo the three infinitesimal relations.
    words = [(i, j) for i in range(3) for j in range(3)]
    relations = []
    pairs = {T12: (1, 2), T13: (1, 3), T23: (2, 3)}

    def bracket(x, y):
        return {(x, y): Fraction(1), (y, x): Fraction(-1)}

    for x in (T12, T13, T23):
        others = [g for g in (T12, T13, T23) if g != x]
        vec = {}
        for y in others:
            for w, c in bracket(x, y).items():
                vec[w] = vec.get(w, ZERO) + c
        relations.append(vec)
    rel_rows, pivots = gauss_eliminate(dense_rows(relations, words))
    index = {w: i for i, w in enumerate(words)}

    def reduce_vec(vec):
        row = [ZERO] * len(words)
        for w, c in vec.items():
            if len(w) == 2:
                row[index[w]] = c
        for rrow, pivot in zip(rel_rows, pivots):
            f = row[pivot]
            if f:
                row = [a - f * b for a, b in zip(row, rrow)]
        return row

    r0 = reduce_vec({w: p[0] for w, p in residual.items()})
    r1 = reduce_vec({w: p[1] for w, p in residual.items()})
    assert any(r1), "degree-2 hexagon slice must constrain c"
    ratio = None
    for a, b in zip(r0, r1):
        if b:
            cand = -a / b
            assert ratio is None or cand == ratio, "inconsistent slice"
            ratio = cand
        else:
            assert not a, "inconsistent slice"
    return ratio


# -- the hexagon in chord(3): the reference for the F(A, B) evaluation ------------
#
# The (H1)/(H3) residual and the extension's (H3) rows as the associator built
# them before it worked in F(A, B): every product in the free algebra on t12,
# t13, t23, and each top slice reduced in chord(3), over its normal words.


def chord_hexagon_residual(phi, cap, variant):
    """rhs - lhs of (H1) or (H3) over the 3-strand chords, not reduced."""
    from braidalg.series import Alphabet, generator_or_zero, substitute

    phi = phi.truncated(cap)
    alph = Alphabet.chord(3)
    half = Fraction(1, 2)
    t12, t13, t23 = (generator_or_zero(alph, cap, pair) for pair in ((1, 2), (1, 3), (2, 3)))
    phi_t = substitute(phi, t12, t23)

    def at(one_line):
        return phi_t.act(Permutation.from_one_line(one_line))

    if variant == "H1":
        lhs = (t12 + t13).scale(half).exp()
        rhs = at("231").inverse() * t13.scale(half).exp() * at("213")
        rhs = rhs * t12.scale(half).exp() * phi_t.inverse()
    else:
        lhs = (t13 + t23).scale(half).exp()
        rhs = at("312") * t13.scale(half).exp() * at("132").inverse()
        rhs = rhs * t23.scale(half).exp() * phi_t
    return rhs - lhs


def chord_hexagon_normal_form(phi, cap, variant):
    from braidalg.quotient import build_graded_basis, infinitesimal_artin

    basis = build_graded_basis(infinitesimal_artin(3), cap)
    return basis.normal_form(chord_hexagon_residual(phi, cap, variant))


def chord_columns(perturbations, degree):
    """The extension's columns over all (AS) words and the chord(3) normal words of (H3)."""
    from braidalg.associator import swap_letters
    from braidalg.quotient import build_graded_basis, infinitesimal_artin
    from braidalg.series import Alphabet, generator, substitute

    alph = Alphabet.chord(3)
    basis3 = build_graded_basis(infinitesimal_artin(3), degree)
    t12, t13, t23 = (generator(alph, degree, pair) for pair in ((1, 2), (1, 3), (2, 3)))
    g312, g132 = Permutation.from_one_line("312"), Permutation.from_one_line("132")
    columns = []
    for p in perturbations:
        q = substitute(p, t12, t23)
        a, b = q.act(g312), q.act(g132)
        if p.degree_slice(degree):
            col = {("AS", w): c for w, c in (swap_letters(p) + p).degree_slice(degree).items()}
            h3 = a - b + q
        else:
            col = {}
            t = t13 + t23
            h3 = (a * t - t13 * b - b * t23 + t * q).scale(Fraction(1, 2))
        h3 = unscale_slice(*basis3.reduce_slice(degree, h3.scaled[degree]))
        col.update((("H3", w), c) for w, c in h3.items())
        columns.append(col)
    return columns


def chord_residual_labels(candidate, degree):
    """The candidate's top-degree (H3) residual reduced in chord(3), labelled ("H3", word)."""
    from braidalg.quotient import build_graded_basis, infinitesimal_artin

    basis3 = build_graded_basis(infinitesimal_artin(3), degree)
    h3 = chord_hexagon_residual(candidate, degree, "H3").scaled[degree]
    return {("H3", w): c for w, c in unscale_slice(*basis3.reduce_slice(degree, h3)).items()}


# -- reference text formatters ---------------------------------------------------
#
# The series and group-ring printers as two separate loops, each joining its
# own signed terms.


def reference_series_text(series):
    parts = []
    for word, c in series.terms():
        body = str(c if c > 0 else -c)
        if word:
            body += "*" + series.alphabet.word_name(word)
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def reference_group_ring_text(element):
    if not element.terms:
        return "0"
    parts = []
    for w in sorted(element.terms, key=lambda w: (len(w.letters), w.text())):
        c = element.terms[w]
        body = f"{c if c > 0 else -c}*[{w.text()}]"
        parts.append(("-" if c < 0 else "+", body))
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out

# -- the signed-sum grammar in Fractions ---------------------------------------------
#
# The series and group-ring text forms as braidalg read and wrote them with one
# Fraction per term, copied unchanged: the integer reader and writer must give
# the same series and the same text.  The old reader fails on a tab or a newline
# next to "/", which the grammar admits, so random inputs keep to spaces there.


def fraction_signed_sum_text(terms) -> str:
    """Join ``(coefficient, tail)`` pairs as ``c*x + c*x - c*x``; ``"0"`` when there are none.

    A term prints as the absolute value of its nonzero coefficient followed by
    its tail, e.g. ``"*t12.t23"``, or ``""`` for a constant.
    """
    out = ""
    for c, tail in terms:
        body = str(abs(c)) + tail
        if out:
            out += f" {'-' if c < 0 else '+'} {body}"
        else:
            out = "-" + body if c < 0 else body
    return out or "0"


def fraction_signed_sum_terms(text: str, term_re, error, grammar: str):
    """Yield ``(coefficient, match)`` per term of ``term (+- term)*``; ``""`` and ``"0"`` have none.

    term_re matches one term from its optional sign on, with the groups
    ``sign`` and ``rat``; syntax errors raise ``error`` naming the grammar.
    """
    stripped = text.strip()
    if stripped in ("", "0"):
        return
    pos = 0
    while pos < len(stripped):
        m = term_re.match(stripped, pos)
        if not m or m.end() == pos:
            raise error(f"bad {grammar} syntax near {stripped[pos:pos + 20]!r}")
        if m.group("sign") is None and pos:
            raise error(f"missing +/- before {stripped[pos:pos + 20]!r}")
        rat = m.group("rat")
        try:
            coeff = Fraction(rat.replace(" ", ""))
        except ZeroDivisionError:
            raise error(f"zero denominator in {rat!r}") from None
        yield (-coeff if m.group("sign") == "-" else coeff), m
        pos = m.end()


def fraction_parse_series(text: str, alphabet: Alphabet, cap: int | None = None) -> TruncatedSeries:
    """Parse the series grammar: ``term (+- term)*``, term = rational ["*" word].

    Words are generator names joined by ".".  Inverse of :meth:`TruncatedSeries.text`.
    Without a cap, the cap is the length of the longest word.
    """
    terms = []
    for coeff, m in fraction_signed_sum_terms(text, _TERM_RE, SeriesError, "series"):
        word_txt = m.group("word")
        if word_txt is None:
            word = ()
        else:
            try:
                word = tuple(alphabet.index_of(g.strip()) for g in word_txt.split("."))
            except KeyError as exc:
                raise SeriesError(exc.args[0]) from None
        if cap is not None and len(word) > cap:
            raise SeriesError(f"word {word_txt!r} exceeds cap {cap}")
        terms.append((word, coeff))
    if cap is None:
        cap = max((len(word) for word, _ in terms), default=0)
    return TruncatedSeries.from_terms(alphabet, cap, terms)


def fraction_series_text(series: TruncatedSeries) -> str:
    """Render in the series grammar, e.g. ``1 + 1/24*t12.t23 - 1/24*t23.t12``."""
    name = series.alphabet.word_name
    return fraction_signed_sum_text((c, "*" + name(word) if word else "") for word, c in series.terms())


def fraction_group_ring_text(text: str, n: int) -> str:
    """``GroupRingElement.parse(text, n).text()`` as the Fraction grammar gave it."""
    terms: dict = {}
    for c, m in fraction_signed_sum_terms(text, _RING_TERM_RE, WordError, "group-ring"):
        w = parse_word(m.group("word"), n)
        terms[w] = terms.get(w, Fraction(0)) + c
    element = GroupRingElement(n, terms)
    order = sorted(element.terms, key=lambda w: (len(w.letters), w.text()))
    return fraction_signed_sum_text((element.terms[w], f"*[{w.text()}]") for w in order)


# -- the axioms as transcribed by hand ----------------------------------------------
#
# The residuals and solver columns of braidalg.associator as they were
# before each axiom was written once as a signed sum of products: copied
# unchanged, each axiom derived on its own.  The one table's residuals and
# first-order columns must equal them.  They are differential references for
# the transcription only: they share substitute, inverse, _prepare and
# _lyndon_rows with the package, so a fault there moves both sides alike.
# Substitution is checked on its own against reference_substitute
# (test_series.TestSubstitute).


def as_residual(phi: TruncatedSeries, cap: int) -> TruncatedSeries:
    phi = _prepare(phi, cap)
    return swap_letters(phi) - phi.inverse()


def _strands(cap: int, free: bool) -> tuple:
    """t12, t13, t23 over the 3-strand chords, or their images A, -A-B, B in F(A, B)."""
    if not free:
        alph = Alphabet.chord(3)
        return tuple(generator_or_zero(alph, cap, pair) for pair in ((1, 2), (1, 3), (2, 3)))
    a, b = generator_or_zero(AB, cap, 0), generator_or_zero(AB, cap, 1)
    return a, -(a + b), b


@cache
def _hexagon_constants(cap: int, variant: str, free: bool) -> tuple:
    """The three factors of (H1) or (H3) that do not involve Phi: lhs and two exponentials."""
    t12, t13, t23 = _strands(cap, free)
    if variant == "H1":
        return (t12 + t13).scale(HALF).exp(), t13.scale(HALF).exp(), t12.scale(HALF).exp()
    return (t13 + t23).scale(HALF).exp(), t13.scale(HALF).exp(), t23.scale(HALF).exp()


def _hexagon_residual(phi: TruncatedSeries, cap: int, variant: str, free=False) -> TruncatedSeries:
    """rhs - lhs of (H1) or (H3): over the 3-strand chords, not reduced, or in F(A, B).

    With ``free`` the residual is the one in F(A, B) whose product with
    exp(c/2) is the chord(3) residual; this needs phi to pass (AE) (module
    docstring).
    """
    phi = _prepare(phi, cap)
    lhs, exp13, exp_last = _hexagon_constants(cap, variant, free)
    t12, t13, t23 = _strands(cap, free)

    def at(x, y):
        return substitute(phi, x, y)

    phi_t = phi if free else at(t12, t23)
    if variant == "H1":
        rhs = at(t23, t13).inverse() * exp13 * at(t12, t13) * exp_last * phi_t.inverse()
    else:
        rhs = at(t13, t12) * exp13 * at(t13, t23).inverse() * exp_last * phi_t
    return rhs - lhs


def pentagon_residual(phi: TruncatedSeries, cap: int) -> TruncatedSeries:
    """lhs - rhs of (P) in the free algebra on the 4-strand chords; not reduced."""
    phi = _prepare(phi, cap)
    alph = Alphabet.chord(4)

    def t(i, j):
        return generator_or_zero(alph, cap, (i, j))

    lhs = substitute(phi, t(1, 2), t(2, 3) + t(2, 4)) * substitute(phi, t(1, 3) + t(2, 3), t(3, 4))
    rhs = (
        substitute(phi, t(2, 3), t(3, 4))
        * substitute(phi, t(1, 2) + t(1, 3), t(2, 4) + t(3, 4))
        * substitute(phi, t(1, 2), t(2, 3))
    )
    return lhs - rhs


def _hexagon_column(p: TruncatedSeries, degree: int, words=None) -> dict:
    """The top slice in F(A, B) of the derivative at 1 of the (H3) residual along p.

    Only its coefficients on ``words`` (by default every word of the degree)
    are formed, each a signed sum of coefficients of a = p(-A-B, A),
    b = p(-A-B, B) and q = p added in integers over one denominator.
    """
    A, minus_ab, B = _strands(degree, free=True)
    top = degree if p.degree_slice(degree) else degree - 1
    a, b = (substitute(p, minus_ab, x).degree_slice(top) for x in (A, B))
    q = p.degree_slice(top)
    if top == degree:
        half = 1

        def reads(w):  # a - b + q
            return (a, w, 1), (b, w, -1), (q, w, 1)

    else:
        half = 2

        def reads(w):  # -a A + (A+B) b - b B - A q, on the prefix and suffix of w
            out = [(b, w[1:], 1), (a if w[-1] == 0 else b, w[:-1], -1)]
            if w[0] == 0:
                out.append((q, w[1:], -1))
            return out

    if words is None:
        words = product(range(2), repeat=degree)
    rows = {w: [(sign, sl[u]) for sl, u, sign in reads(w) if u in sl] for w in words}
    den = lcm(*(c.denominator for row in rows.values() for _, c in row))
    numerators = {
        w: sum(sign * c.numerator * (den // c.denominator) for sign, c in row)
        for w, row in rows.items()
    }
    return unscale_slice(*lowest_terms(den * half, numerators))


def _columns(perturbations: list, degree: int) -> list:
    """Column i is the derivative at 1 of the top-degree (AS) and (H3) residual along p_i.

    Each p_i has degree ``degree``, or ``degree - 1`` >= 2 and then lies in
    the previous degree's kernel; the module docstring derives both cases
    from the axioms, in F(A, B), and why the Lyndon rows suffice.
    """
    columns = []
    for p in perturbations:
        col = {}
        if p.degree_slice(degree):
            col = unscale_slice(*_lyndon_rows("AS", (swap_letters(p) + p).scaled[degree], degree))
        h3 = _hexagon_column(p, degree, _lyndon_set(degree))
        col.update({("H3", w): c for w, c in h3.items()})
        columns.append(col)
    return columns


def _yang_baxter_residual(psi: TruncatedSeries, cap: int) -> TruncatedSeries:
    """The (YB) residual r in F(A, B) (module docstring).

    rho(sigma_2 sigma_1 sigma_2) - rho(Delta) = exp(c/2) r(t12, t23) (x) 321
    when psi meets the family's precondition at the cap.
    """
    t12, t13, t23 = _strands(cap, free=True)
    inverse = psi.inverse()

    def at(x, y):
        return substitute(inverse, x, y)

    def half_twist_inverse(t):
        return t.scale(-HALF).exp()

    lhs = (
        half_twist_inverse(t12) * at(t12, t13) * half_twist_inverse(t13)
        * at(t13, t23) * half_twist_inverse(t23)
    )
    return lhs - at(t12, t23)


# -- the associator families' letters, built as series ---------------------------------
#
# The Drinfeld and 3-strand families' letter images as they were built
# before both were read off factor tuples (braidalg.reps.factor_product):
# copied unchanged, each Phi factor a substituted series inverted at the
# cap and acted on, each exponential a power series, except that a factor
# is given as {perm: scaled series}, and sigma_2's three factors are
# multiplied out here with series products, not folded.  They share
# substitute, inverse, act, exp and rho3_parameter with the package, not the
# factor evaluator under test.


def _factor(terms: dict) -> dict:
    """{perm: series} as the fold's factor {perm: scaled series}."""
    return {perm: series.scaled for perm, series in terms.items()}


@lru_cache(maxsize=32)
def drinfeld_images(n: int, cap: int, assoc: TruncatedSeries):
    if assoc.constant_term != 1:
        raise ConstantTermError("the associator series must have constant term 1")
    if assoc.cap < cap:
        raise CapMismatch(f"associator known to degree {assoc.cap} < cap {cap}")
    alph = infinitesimal_artin(n).alphabet
    images = {}
    for i in range(1, n):
        si = Permutation.transposition(n, i)
        t = generator_or_zero(alph, cap, (i, i + 1))
        u, u_inv = t.scale(HALF).exp(), t.scale(-HALF).exp()
        if i > 1:
            x = zero(alph, cap)
            for j in range(1, i):
                x = x + generator_or_zero(alph, cap, (j, i))
            phi_xy = substitute(assoc.truncated(cap), x, t)
            # u_i = Phi^-1 exp(t_{i,i+1}/2) (s_i Phi), the series part of
            # Phi^-1 (exp (x) s_i) Phi; s_i fixes t_{i,i+1}, so sigma_i^-1 is
            # Phi^-1 (exp(-t_{i,i+1}/2) (x) s_i) Phi.
            phi_inv, phi_si = phi_xy.inverse(), phi_xy.act(si)
            u, u_inv = phi_inv * u * phi_si, phi_inv * u_inv * phi_si
        images[Token("sigma", i, 0, 1)] = _factor({si: u})
        images[Token("sigma", i, 0, -1)] = _factor({si: u_inv})
    return images


@lru_cache(maxsize=32)
def rho3_images(cap: int, psi: TruncatedSeries):
    psi = rho3_parameter(psi, cap)
    alph = infinitesimal_artin(3).alphabet
    phi_t = substitute(
        psi, generator_or_zero(alph, cap, (1, 2)), generator_or_zero(alph, cap, (2, 3))
    )
    s1, w0 = Permutation.transposition(3, 1), Permutation.from_one_line("321")
    u1_inv = generator_or_zero(alph, cap, (1, 2)).scale(-HALF).exp()
    rho_s1 = _factor({s1: generator_or_zero(alph, cap, (1, 2)).scale(HALF).exp()})
    rho_s1_inv = _factor({s1: u1_inv})
    u_delta = central_element(cap).exp() * phi_t.inverse()
    delta = _factor({w0: u_delta})
    # sigma_2 = sigma_1^-1 Delta sigma_1^-1 in the two-generator presentation:
    # (u (x) g)(v (x) h) = u (g.v) (x) gh.
    s1_w0 = s1.compose(w0)
    sigma2 = _factor({s1_w0.compose(s1): u1_inv * u_delta.act(s1) * u1_inv.act(s1_w0)})
    # sigma_2^-1 = sigma_1 Delta^-1 sigma_1, with Delta^-1 = (321.Psi_t) exp(-T) (x) 321
    # and 321.Psi_t = Psi(t23, t12).  exp(-T) is central, so it joins the first
    # sigma_1: exp(t12/2) exp(-T) = exp(-(t13+t23)/2).  No factor is inverted.
    t13_t23 = generator_or_zero(alph, cap, (1, 3)) + generator_or_zero(alph, cap, (2, 3))
    sigma2_inv = (
        _factor({s1: t13_t23.scale(-HALF).exp()}),
        _factor({w0: phi_t.act(w0)}),
        rho_s1,
    )
    # Each letter's image is the factors folded in its place.
    images = {
        Token("sigma", 1, 0, 1): (rho_s1,),
        Token("sigma", 1, 0, -1): (rho_s1_inv,),
        Token("sigma", 2, 0, 1): (sigma2,),
        Token("sigma", 2, 0, -1): sigma2_inv,
        "Delta": (delta,),  # not a letter: the factor rho3_delta folds
    }
    return images


def rho3_yang_baxter_defect(psi: TruncatedSeries, cap: int) -> SemidirectSeries:
    """rho(sigma_2 sigma_1 sigma_2) - rho(Delta), folded as one combination and reduced once.

    The chord(3) reference for the braid relation, on the letters built as
    series above: :func:`braidalg.associator.check_yang_baxter` decides it
    in the free algebra on two letters and must report this defect for a
    psi that fails.
    """
    _require_assoc("rho3", psi)
    basis = build_graded_basis(infinitesimal_artin(3), cap)
    images = rho3_images(cap, psi)
    (s1,), (s2,) = images[Token("sigma", 1, 0, 1)], images[Token("sigma", 2, 0, 1)]
    return fold(basis, cap, [(1, [s2, s1, s2]), (-1, list(images["Delta"]))])


# -- the welded family through the generic fold ------------------------------------
#
# The welded letters' images as generic fold factors, each exp(+-v) built as
# a series, copied unchanged from braidalg.reps as it was before the welded
# fold wrote each exponential out in closed form; and the evaluation that
# folded them.  They share the generic fold and the normal form with the
# package, not the closed-form fold under test.


@cache
def welded_factor_images(n: int, cap: int):
    """{token: {perm: scaled series}}: the welded family's letter images on n strands."""
    alph = oriented_artin(n).alphabet

    def exp_v(pair, sign):
        return generator_or_zero(alph, cap, pair).scale(sign).exp()

    images = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            images[Token("a", i, j, 1)] = {Permutation.identity(n): exp_v((i, j), 1)}
            images[Token("a", i, j, -1)] = {Permutation.identity(n): exp_v((i, j), -1)}
    for i in range(1, n):
        si = Permutation.transposition(n, i)
        images[Token("s", i)] = {si: one(alph, cap)}
        # sigma_i = a_{i,i+1} s_i, so sigma_i^-1 = s_i a_{i,i+1}^-1.
        images[Token("sigma", i, 0, 1)] = {si: exp_v((i, i + 1), 1)}
        images[Token("sigma", i, 0, -1)] = {si: exp_v((i + 1, i), -1)}
    return {t: _factor(terms) for t, terms in images.items()}


def factor_group_ring(xi, cap: int) -> SemidirectSeries:
    """The welded image of a group-ring element, folded over the factor images."""
    basis = build_graded_basis(oriented_artin(xi.n), cap)
    images = welded_factor_images(xi.n, cap)
    terms = [(c, [images[t] for t in w.letters]) for w, c in xi.terms.items()]
    return fold(basis, cap, terms)


# -- the welded fold letter by letter ------------------------------------------------
#
# The closed-form welded fold as it was before it went degree by degree: each
# letter's exponential multiplies every degree of the word's slices at once,
# in place.  It shares the letters' closed-form data and the strand
# permutation with braidalg.reps, not the degree-major loop under test.


def _times_exp(slices: list, g: int, c: int):
    """slices * exp(c v_g) in place, degree d of both held as numerators over d!.

    1/(i! k!) = C(i + k, k)/(i + k)!, so degree d of the product is
    sum_k C(d, k) c^k (degree d - k) v_g^k over d!.  Degrees are updated from
    the top down, so each reads only lower degrees not yet updated.
    """
    for d in range(len(slices) - 1, 0, -1):
        tgt = slices[d]
        for k in range(1, d + 1):
            m, tail = comb(d, k) * c**k, (g,) * k
            for u, a in slices[d - k].items():
                w = u + tail
                v = tgt.get(w, 0) + m * a
                if v:
                    tgt[w] = v
                else:
                    del tgt[w]


def _add_into(acc: list, slices: list):
    """acc += slices, degree by degree, in place."""
    for tgt, src in zip(acc, slices):
        for w, a in src.items():
            v = tgt.get(w, 0) + a
            if v:
                tgt[w] = v
            else:
                del tgt[w]


def reference_welded_raw(n: int, cap: int, combination) -> dict:
    """{pi: ((q d!, {word: int}), ...)}: sum c * (image of w) over ``[(w, c), ...]``, letter by letter."""
    alph, letters = oriented_artin(n).alphabet, welded_images(n)
    combination = list(combination)
    q = lcm(*(c.denominator for _, c in combination))
    identity = tuple(range(alph.size))
    total: dict = {}
    for w, c in combination:
        slices = [{(): c.numerator * (q // c.denominator)}] + [{} for _ in range(cap)]
        relabelled = identity
        for t in w.letters:
            g, sign, relabel = letters[t]
            if g is not None:
                _times_exp(slices, relabelled[g], sign)
            if relabel is not None:
                relabelled = tuple([relabelled[h] for h in relabel])
        acc = total.get(relabelled)
        if acc is None:
            total[relabelled] = slices
        else:
            _add_into(acc, slices)
    return {
        _strand_permutation(n, relabelled): tuple((q * factorial(d), sl) for d, sl in enumerate(slices))
        for relabelled, slices in total.items()
    }

"""Shared helpers: independent brute-force oracles kept free of the library's
enumeration path; the rational matrix arithmetic, the cyclotomic Gauss sum,
the full-minimum Jordan pivot, the Jordan splitting that rebuilds its
table after every block, the cubic root readings through the rank-23
overlattice, the Smith and symmetric elimination kernels before their early
exits, the general Bareiss determinant, and the whole p-part matrix with
the local obstruction read from its determinant, which the library no
longer carries, kept as references for its integer, Jordan, closed-form and
kernel paths; the recursive Fincke-Pohst walker over the whole tree and
the paired stream derived from it, read on the positive model of a
definite lattice, the references for the order of the library's half-tree
stream; the budgeted U(3) witness search over the L1-windowed walk of that
walker, with its coordinate bounds, a witness oracle for the U(3)
embedding decision; the saturation of a sublattice and the radical of a
finite form, references for `saturation_index` and for degenerate forms;
the subquotient presentation read through Fraction inverses, the reference
for `_presentation` and the source of the lifts of its generators, which
the library does not return; an injective glue built from the library's
one onto glue search; the three glue loops `verify` ran before
`glue.embedding_glues` (every U(3) glue, the A2 images in element order,
the first U(3) graph per quadratic value), references for that enumerator; the
U(3) gluing forms read on disc U(3) + disc M, the reference for the negated
complement forms `verify` reads them from; and the quadratic value of an
element as a Fraction mod 2, which the library no longer gives."""

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import mul

import pytest

from latticeforge.discform import (
    FiniteQuadraticForm,
    _match_maps,
    _p_form,
    discriminant_form,
    orthogonal_subgroup,
    solve_congruences,
    subquotient_form,
)
from latticeforge.errors import DegenerateForm, DimensionMismatch, OddLatticeQuadratic
from latticeforge.glue import GlueData, Sublattice, embedding_glues, saturation_index
from latticeforge.lattice import Lattice, _factorization, _invariant_factors
from latticeforge.linalg import (
    Matrix,
    SnfResult,
    SymmetricElimination,
    hermite_normal_form,
    integer_kernel,
    smith_normal_form,
)


def fraction_inverse(m):
    """Exact inverse over the rationals by Gauss-Jordan elimination; a
    Matrix of Fractions."""
    n = m.nrows
    a = [[Fraction(x) for x in r] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, r in enumerate(m.rows)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise DegenerateForm("singular matrix")
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return Matrix(tuple(tuple(r[n:]) for r in a))


def fraction_to_int(m):
    """Cast a matrix of integral rationals to ints; ValueError on any
    non-integral entry."""
    out = []
    for r in m.rows:
        row = []
        for a in r:
            f = Fraction(a)
            if f.denominator != 1:
                raise ValueError("non-integral entry %s" % (a,))
            row.append(int(f))
        out.append(tuple(row))
    return Matrix(tuple(out))


@lru_cache(maxsize=None)
def _cyclotomic(n):
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, _cyclotomic(d))
    return tuple(poly)


def _polydiv_exact(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    dlead = den[-1]
    for i in range(len(out) - 1, -1, -1):
        coeff = num[i + len(den) - 1]
        assert coeff % dlead == 0
        c = coeff // dlead
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    assert not any(num[: len(den) - 1]) and not any(num[len(den) - 1:][len(out):])
    return out


class _CycloRing:
    """Z[x]/Phi_n(x) with dense integer coefficient vectors."""

    def __init__(self, n):
        self.n = n
        phi = _cyclotomic(n)
        self.deg = deg = len(phi) - 1
        # reduction table for x^k, k < 2n
        table = [tuple(int(j == 0) for j in range(deg))]
        for _ in range(1, 2 * n):
            prev = table[-1]
            nxt = [0] + list(prev[:deg - 1])
            for j in range(deg):
                nxt[j] -= prev[deg - 1] * phi[j]
            table.append(tuple(nxt))
        self.xpow = table

    def zero(self):
        return (0,) * self.deg

    def zeta_pow(self, k):
        return self.xpow[k % self.n]

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def scale(self, a, c):
        return tuple(c * x for x in a)

    def mul(self, a, b):
        prod = [0] * (2 * self.deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        out = [0] * self.deg
        for k, c in enumerate(prod):
            if c:
                for j, x in enumerate(self.xpow[k]):
                    out[j] += c * x
        return tuple(out)


def _sqrt_in_ring(ring, n):
    """sqrt(n) as an exact element of Z[zeta_L]; needs 8 | L and the odd
    part of the squarefree kernel of n dividing L."""
    f = m = 1
    for p, e in _factorization(n).items():
        f *= p ** (e // 2)
        m *= p ** (e % 2)
    acc = ring.scale(ring.zeta_pow(0), f)
    if m % 2 == 0:
        m //= 2
        acc = ring.mul(acc, ring.add(ring.zeta_pow(ring.n // 8), ring.zeta_pow(-ring.n // 8)))
    if m > 1:
        g = ring.zero()
        for k in range(m):
            g = ring.add(g, ring.zeta_pow(ring.n // m * k * k))
        if m % 4 == 3:
            g = ring.mul(g, ring.zeta_pow(-ring.n // 4))  # divide by i
        acc = ring.mul(acc, g)
    return acc


def cyclotomic_milgram(form):
    """The Gauss-sum signature by its definition: s mod 8 with sum_x
    exp(pi i q(x)) = sqrt(|A|) exp(pi i s / 4), the sum over the whole
    group taken exactly in Z[zeta_L], L = lcm(8, 2 den, odd squarefree
    kernel of |A|)."""
    if form.is_trivial():
        return 0
    odd_kernel = math.prod(p for p, e in _factorization(form.group_order).items()
                           if p > 2 and e % 2)
    ring_n = math.lcm(8, 2 * form.den, odd_kernel)
    ring = _CycloRing(ring_n)
    step = ring_n // (2 * form.den)
    total = ring.zero()
    for e, c in Counter(form._q(x) * step for x in form.elements()).items():
        total = ring.add(total, ring.scale(ring.zeta_pow(e), c))
    target = _sqrt_in_ring(ring, form.group_order)
    for s in range(8):
        if ring.mul(target, ring.zeta_pow(s * ring_n // 8)) == total:
            return s
    raise DegenerateForm("Gauss sum does not have root-of-unity phase")


def smith_normal_form_oracle(m):
    """`linalg.smith_normal_form` as it was before it stopped its pivot scan
    at a unit and skipped the divisibility scan of a unit pivot: every step
    scans the whole trailing block for the first smallest entry."""
    r, c = m.nrows, m.ncols
    a = [list(row) for row in m.rows]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    v_inv = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j; in v_inv row_j += q * row_i
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]
        v_inv[j] = [x + q * y for x, y in zip(v_inv[j], v_inv[i])]

    t = 0
    while t < min(r, c):
        piv = None
        for i in range(t, r):
            for j in range(t, c):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        a[t], a[i] = a[i], a[t]
        u[t], u[i] = u[i], u[t]
        for row in a + v:
            row[t], row[j] = row[j], row[t]
        v_inv[t], v_inv[j] = v_inv[j], v_inv[t]
        dirty = False
        for i in range(t + 1, r):
            if a[i][t]:
                row_op(i, t, a[i][t] // a[t][t])
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, c):
            if a[t][j]:
                col_op(j, t, a[t][j] // a[t][t])
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        bad = next((i for i in range(t + 1, r) for j in range(t + 1, c)
                    if a[i][j] % a[t][t]), None)
        if bad is not None:
            row_op(t, bad, -1)
            continue
        t += 1
    for i in range(min(r, c)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return SnfResult(Matrix(a), Matrix(u), Matrix(v), Matrix(v_inv))


def symmetric_elimination_oracle(g):
    """`linalg.symmetric_elimination` as it was before it left rows with a
    zero multiplier alone: every row below the pivot takes the full Bareiss
    update."""
    if not g.is_symmetric():
        raise DegenerateForm("matrix not symmetric")
    n = g.nrows
    a = [list(r) for r in g.rows]
    b = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    minors = []
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j]), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                b[k], b[j] = b[j], b[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j]), None)
                if j is None:
                    raise DegenerateForm("degenerate form")
                a[k] = [x + y for x, y in zip(a[k], a[j])]
                b[k] = [x + y for x, y in zip(b[k], b[j])]
                for row in a:
                    row[k] += row[j]
        piv = a[k][k]
        minors.append(piv)
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [(x * piv - f * y) // prev for x, y in zip(a[i], a[k])]
            b[i] = [(x * piv - f * y) // prev for x, y in zip(b[i], b[k])]
        prev = piv
    return SymmetricElimination(tuple(minors), tuple(tuple(r) for r in a),
                                tuple(tuple(r) for r in b))


def box_bounds(gram, max_norm):
    """Coordinate bounds of the box `box_ball` searches: |x_i| <=
    isqrt(max_norm * (G^-1)_ii) + 1."""
    inv = fraction_inverse(gram)
    bounds = []
    for i in range(gram.nrows):
        b = Fraction(max_norm) * inv[i, i]
        bounds.append(isqrt(b.numerator // b.denominator) + 1)
    return bounds


def box_ball(gram, max_norm):
    """(x, norm) for every nonzero vector of norm <= max_norm, via plain box
    enumeration.

    Coordinate bounds come from the dual Gram diagonal: |x_i| <= sqrt(max_norm
    * (G^-1)_ii) by Cauchy-Schwarz in the positive definite form.  Independent
    of the branch-and-bound enumerator.
    """
    for x in itertools.product(*(range(-b, b + 1) for b in box_bounds(gram, max_norm))):
        if any(x):
            gx = gram.apply(x)
            nx = sum(a * c for a, c in zip(x, gx))
            if nx <= max_norm:
                yield x, nx


def box_vectors(gram, norm):
    """All vectors of the given norm via plain box enumeration (`box_ball`)."""
    return sorted(x for x, nx in box_ball(gram, norm) if nx == norm)


def box_count(gram, norm):
    return len(box_vectors(gram, norm))


def enumerate_upto_oracle(pos, bound, l1_window=None):
    """`shortvec._enumerate_upto` as it walked the Fincke-Pohst tree before
    it kept per-level state in one frame: one recursive generator per
    coordinate, every vector handed up through one `yield from` per level.
    Reads the same elimination, so it is the oracle for the order of the
    stream, not for its contents (the box oracles above check those).

    With l1_window = (lo, hi) only the x with lo < |x|_1 <= hi are produced:
    a branch is cut once its fixed coordinates exceed hi, or once they cannot
    exceed lo even with every open coordinate at its `coordinate_bounds`
    value (exact at the last level, where no coordinate is open)."""
    n = pos.rank
    if n == 0 or bound <= 0:
        return
    elim = pos.elimination()
    d = (1,) + elim.minors
    u = elim.rows
    x = [0] * n
    if l1_window is not None:
        lo, hi = l1_window
        tail = [0]
        for b in coordinate_bounds(pos, bound):
            tail.append(tail[-1] + b)

    def rec(i, rest, size):
        if i < 0:
            if rest:
                yield tuple(x), rest
            return
        ui = u[i]
        c = sum(map(mul, ui, x))
        piv = d[i + 1]
        r = isqrt(d[i] * (piv * bound - rest))
        a, b = -((r + c) // piv), (r - c) // piv
        if l1_window is None:
            xs = range(a, b + 1)
        else:
            room = hi - size
            a, b = max(a, -room), min(b, room)
            need = lo - size - tail[i] + 1
            if need > 0:
                xs = (*range(a, min(b, -need) + 1), *range(max(a, need), b + 1))
            else:
                xs = range(a, b + 1)
        for xi in xs:
            x[i] = xi
            y = piv * xi + c
            yield from rec(i - 1, (d[i] * rest + y * y) // piv, size + abs(xi))
        x[i] = 0

    yield from rec(n - 1, 0, 0)


def positive_model(lat):
    """The lattice itself when it is positive definite, else the lattice of
    Gram matrix -G: the input of the positive definite oracles."""
    return lat if lat.signature[1] == 0 else Lattice(-lat.gram)


def paired_stream_oracle(pos, bound):
    """The stream `shortvec._enumerate_upto` hands out, derived from the
    whole-tree walk of `enumerate_upto_oracle`: its x whose last nonzero
    coordinate is positive, in its order, each followed by -x."""
    return [p for x, q in enumerate_upto_oracle(pos, bound)
            if [c for c in x if c][-1] > 0 for p in ((x, q), (tuple(-c for c in x), q))]


def coordinate_bounds(lat, max_norm):
    """Largest |x_i| over the vectors of |norm| <= max_norm of a definite
    lattice: x_i^2 <= max_norm (G^-1)_ii (Cauchy-Schwarz in the dual).  The
    orthogonal basis b_k of the elimination, of norms D_k D_{k+1}, gives
    (G^-1)_ii = sum_k b_k[i]^2 / (D_k D_{k+1}), read over one common
    denominator; on a negative definite lattice the elimination of G gives
    those of -G up to sign, so the norms are read as |D_k D_{k+1}|.  Calls
    no `zip`, which `find_u3_sublattice_oracle` keeps for its pair loop."""
    elim = lat.elimination()
    d = (1,) + elim.minors
    n = len(elim.minors)
    norms = [abs(d[k] * d[k + 1]) for k in range(n)]
    den = math.lcm(*norms)
    return tuple(isqrt(max_norm * sum(den // norms[k] * elim.basis[k][i] ** 2 for k in range(n))
                       // den) for i in range(n))


def u3_candidates_oracle(block, rest, sign, coeff_bound, max_def_norm):
    """Isotropic vectors (alpha, beta) + w, nonzero, with |alpha|, |beta| <=
    coeff_bound and w in the definite part `rest` of |norm| <= max_def_norm,
    in shells of increasing L1 size s = |alpha| + |beta| + |w|_1.

    Within a shell the order is the (alpha, beta) loop order, then w in
    lexicographic order.  The w are enumerated lazily by L1 size from the
    windowed walk of `enumerate_upto_oracle`, each pass reaching twice as
    far as the last, and never beyond the largest L1 size a vector of norm
    <= max_def_norm can have (the sum of the coordinate bounds), so the
    shells up to that size are the whole candidate set.
    """
    heads = []
    for alpha in range(-coeff_bound, coeff_bound + 1):
        for beta in range(-coeff_bound, coeff_bound + 1):
            m = block[0, 0] * alpha * alpha + 2 * block[0, 1] * alpha * beta \
                + block[1, 1] * beta * beta
            # need w with w^2 = -m in the definite part; its norms have sign `sign`
            key = -m * sign
            if 0 <= key <= max_def_norm and (alpha or beta):
                heads.append((alpha, beta, key))
    pos = positive_model(rest)
    zero = (0,) * rest.rank
    w_max = sum(coordinate_bounds(rest, max_def_norm))
    by_size = {(0, 0): [zero]}  # (|w|_1, norm) -> sorted w
    reach = 0  # by_size holds every w with |w|_1 <= reach
    for s in range(2 * coeff_bound + w_max + 1):
        if reach < min(s, w_max):
            top = min(max(s, 2 * reach), w_max)
            fresh = {}
            for w, nw in enumerate_upto_oracle(pos, max_def_norm, (reach, top)):
                fresh.setdefault((sum(map(abs, w)), nw), []).append(w)
            for key, ws in fresh.items():
                by_size[key] = sorted(ws)
            reach = top
        for alpha, beta, key in heads:
            for w in by_size.get((s - abs(alpha) - abs(beta), key), ()):
                yield (alpha, beta) + w


def find_u3_sublattice_oracle(lat, max_def_norm=12, coeff_bound=4, pair_budget=400000):
    """A primitive rank-2 sublattice with Gram [[0, 3], [3, 0]], or None: the
    budgeted witness search that `verify` ran before it decided the column
    by Nikulin's embedding theorem.  A witness it returns is a proof; None
    proves nothing.

    Fast path: a direct-sum U(3) block.  Otherwise the first two coordinates
    must span an indefinite block orthogonal to a definite rest, and the
    search runs over the isotropic candidates (alpha, beta) + w with |alpha|,
    |beta| <= coeff_bound and |w^2| <= max_def_norm, in increasing L1 size
    (`u3_candidates_oracle`).  The candidate stream is memoised and grown
    only as far as the pair loops read it.  Pairs (u, v) are tried in stream
    order, u skipped untested when gcd(G u) does not divide 3; every v tried
    counts against `pair_budget`, and None is returned once it is spent.
    """
    g = lat.gram
    n = lat.rank
    for i in range(n):
        if g[i, i]:
            continue
        for j in range(i + 1, n):
            if g[j, j] == 0 and g[i, j] == 3 and \
                    all(g[i, t] == g[j, t] == 0 for t in range(n) if t not in (i, j)):
                rows = [tuple(int(t == k) for t in range(n)) for k in (i, j)]
                return Sublattice(lat, Matrix(rows))
    if n < 4:
        return None
    # split: coordinates 0,1 indefinite, the rest definite
    if any(g[i, j] != 0 for i in (0, 1) for j in range(2, n)):
        return None
    rest = Lattice(Matrix(tuple(tuple(g[i, j] for j in range(2, n)) for i in range(2, n))))
    if rest.signature[0] != 0 and rest.signature[1] != 0:
        return None
    sign = -1 if rest.signature[0] == 0 else 1
    block = Matrix([[g[0, 0], g[0, 1]], [g[0, 1], g[1, 1]]])
    source = u3_candidates_oracle(block, rest, sign, coeff_bound, max_def_norm)
    cands = []

    def stream():
        i = 0
        while True:
            if i == len(cands):
                nxt = next(source, None)
                if nxt is None:
                    return
                cands.append(nxt)
            yield cands[i]
            i += 1

    checked = 0
    for u in stream():
        gu = g.apply(u)
        # (u, v) = 3 needs the divisibility gcd(G u) to divide 3
        div = math.gcd(*gu)
        if div == 0 or 3 % div:
            continue
        for v in stream():
            checked += 1
            if checked > pair_budget:
                return None
            # the one zip call per pair is what tests count to check the
            # pair budget
            if sum(a * b for a, b in zip(v, gu)) != 3:
                continue
            sub = Sublattice(lat, Matrix([u, v]))
            if sub.gram() == Matrix([[0, 3], [3, 0]]) and saturation_index(sub) == 1:
                return sub
    return None


def root_report_oracle(lat, pairing=None):
    """(short roots, long roots) by the definition `shortvec.root_report`
    reads faster: every vector of norm 2 or 6, both signs, its divisibility
    gcd(pairing v) taken over every row of the full pairing (the Gram matrix
    by default) with generator sums.  A pairing whose row i pairs v with
    basis vector i of an ambient lattice measures the divisibility there."""
    from latticeforge.shortvec import short_vectors

    pairing = lat.gram if pairing is None else pairing
    short = long_ = 0
    for v, nv in short_vectors(lat, 6):
        if nv == 2 and math.gcd(*(sum(a * b for a, b in zip(r, v)) for r in pairing.rows)) == 1:
            short += 1
        elif nv == 6 and math.gcd(*(sum(a * b for a, b in zip(r, v)) for r in pairing.rows)) == 3:
            long_ += 1
    return short, long_


def cubic_roots_oracle(alg, co):
    """The middle-cohomology and root readings of a cubic row through the
    rank-23 overlattice, as `verify` built them before it read them from A
    and T alone: H4 = alg + co glued along `glue.full_glue` by
    `glue.primitive_extension`, eta-perp of H4, and each norm-2 and norm-6
    vector of eta-perp in A measured through its pairing with eta-perp of H4
    (`root_report_oracle`).

    Returns (glue check passed, glue detail, short roots, long roots); the
    root counts are None when no glue map exists."""
    from latticeforge import glue

    g = glue.full_glue(alg, co)
    if g is None:
        return False, "no glue map found", None, None
    ext, alg_rows, _ = glue.primitive_extension(g, require_even=False, label="H4")
    h4 = ext.lattice
    passed = h4.rank == 23 and abs(h4.det) == 1 and not h4.is_even() and h4.signature == (21, 2)
    detail = "rank %d det %d sig %s" % (h4.rank, h4.det, h4.signature)
    if alg.rank < 2:
        return passed, detail, 0, 0
    eta = (1,) + (0,) * (alg.rank - 1)
    perp = glue.orthogonal_complement(glue.span(alg, [eta]))
    prim = glue.orthogonal_complement(glue.span(h4, [alg_rows.row(0)]))
    pairing = prim.basis @ h4.gram @ alg_rows.T @ perp.basis.T
    return (passed, detail) + root_report_oracle(perp.lattice(), pairing)


def bareiss_det(m):
    """Determinant of a square integer matrix by fraction-free elimination
    with row swaps; the library reads every determinant from its symmetric
    elimination or from a Jordan splitting instead."""
    n = m.nrows
    if n != m.ncols:
        raise DimensionMismatch("determinant of non-square matrix")
    if n == 0:
        return 1
    a = [list(r) for r in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _p_part(form, p):
    """(M, n): generators x_i = c_i e_i of the p-part of the group, of
    orders n_i, and the integer matrix M = (n_i b(x_i, x_j)) with n_i q(x_i)
    on the diagonal (n_i b(x_i, x_i) on a bilinear-only form), as
    `discform` built it before the p-part became a form of its own
    (`discform._p_form`).  M = D G with D = diag(n) and G the Gram matrix of
    K* for a p-adic lattice K with K*/K the p-part of the form, so
    det K = |A_p| det M."""
    gens = []
    for i, o in enumerate(form.orders):
        n = math.gcd(o, p ** o.bit_length())  # the p-part of o
        if n > 1:
            gens.append((i, o // n, n))
    table = [list(row) for row in form.B]
    for i, q in enumerate(form.Q or ()):
        table[i][i] = q
    m = Matrix(tuple(tuple(ni * ci * cj * table[i][j] // form.den for j, cj, _ in gens)
                     for i, ci, ni in gens))
    return m, tuple(n for _, _, n in gens)


def local_obstruction_oracle(form, sig):
    """`discform.local_obstruction` as it read the determinant of the whole
    p-part matrix of `_p_part` rather than the Jordan blocks: with
    m = |A| / |A_p|, odd p needs ((-1)^(s-) m det M / p) = 1, and p = 2
    needs m det M = +-1 mod 8 unless some generator of order 2 has
    b(x, x) = 1/2."""
    if form.Q is None:
        raise OddLatticeQuadratic("only even lattices have a quadratic form")
    factors = _invariant_factors(form.orders)
    if not factors or len(factors) != sig[0] + sig[1]:
        return None
    for p in sorted(_factorization(factors[0])):
        mat, orders = _p_part(form, p)
        unit = form.group_order // math.prod(orders) * bareiss_det(mat)
        if p == 2:
            theta = any(n == 2 and mat[i, i] % 2 for i, n in enumerate(orders))
            if not theta and unit % 8 not in (1, 7):
                return p
        elif pow((-1) ** sig[1] * unit, (p - 1) // 2, p) != 1:
            return p
    return None


def jordan_full_min_oracle(form, p):
    """`discform._jordan` as it pivoted before it scanned the diagonal for a
    unit first: every step takes the least (valuation, off-diagonal, i, j)
    over all k(k + 1)/2 entries of the table.  A bilinear-only form carries
    no q, so its table is read modulo top at every prime, as the library
    reads it."""
    mat, orders = _p_part(form, p)
    top = max(orders)
    mod = 2 * top if p == 2 and form.Q is not None else top
    h = [[top // n * x % mod for x in row] for n, row in zip(orders, mat.rows)]
    blocks = []
    while h:
        k = len(h)
        s, off, i, j = min((math.gcd(h[i][j], top), i != j, i, j)
                           for i in range(k) for j in range(i, k))
        if s == top:
            raise DegenerateForm("degenerate finite quadratic form")
        if off and p != 2:
            h[i] = [a + b for a, b in zip(h[i], h[j])]
            for row in h:
                row[i] += row[j]
            off = False
        piv = (i, j) if off else (i,)
        n = top // s
        u = [[h[a][b] // s % (mod // s if a == b else n) for b in piv] for a in piv]
        if off:
            det = u[0][0] * u[1][1] - u[0][1] ** 2
            inv = [[u[1][1], -u[0][1]], [-u[1][0], u[0][0]]]
        else:
            det, inv = u[0][0], [[1]]
        inv_det = pow(det, -1, mod)
        rest = [t for t in range(k) if t not in piv]
        cols = [[h[a][r] for r in rest] for a in piv]
        cleared = []
        for t in rest:
            w = [h[t][a] // s for a in piv]
            row = [h[t][r] for r in rest]
            for inv_col, col in zip(zip(*inv), cols):
                c = inv_det * sum(a * b for a, b in zip(w, inv_col)) % mod
                row = [x - c * y for x, y in zip(row, col)]
            cleared.append([x % mod for x in row])
        h = cleared
        blocks.append((n, tuple(map(tuple, u))))
    if math.prod(n ** len(u) for n, u in blocks) != math.prod(orders):
        raise DegenerateForm("degenerate finite quadratic form")
    return blocks


def jordan_rebuild_oracle(form, p):
    """`discform._jordan` as it was before it cleared the table in place:
    after every block it builds the remaining k x k table anew, reducing
    every entry."""
    pf = _p_form(form, p)
    top = pf.den
    mod = 2 * top if p == 2 and pf.Q is not None else top
    h = [list(row) for row in pf.B]
    for i, q in enumerate(pf.Q or ()):
        h[i][i] = q % mod
    blocks = []
    while h:
        k = len(h)
        unit = next(((1, False, i, i) for i in range(k) if math.gcd(h[i][i], top) == 1), None)
        s, off, i, j = unit or min((math.gcd(h[i][j], top), i != j, i, j)
                                   for i in range(k) for j in range(i, k))
        if s == top:
            raise DegenerateForm("degenerate finite quadratic form")
        if off and p != 2:
            h[i] = [a + b for a, b in zip(h[i], h[j])]
            for row in h:
                row[i] += row[j]
            off = False
        piv = (i, j) if off else (i,)
        n = top // s
        u = [[h[a][b] // s % (mod // s if a == b else n) for b in piv] for a in piv]
        if off:
            det = u[0][0] * u[1][1] - u[0][1] ** 2
            inv = [[u[1][1], -u[0][1]], [-u[1][0], u[0][0]]]
        else:
            det, inv = u[0][0], [[1]]
        inv_det = pow(det, -1, mod)
        rest = [t for t in range(k) if t not in piv]
        cols = [[h[a][r] for r in rest] for a in piv]
        cleared = []
        for t in rest:
            w = [h[t][a] // s for a in piv]
            row = [h[t][r] for r in rest]
            for inv_col, col in zip(zip(*inv), cols):
                c = inv_det * sum(map(mul, w, inv_col)) % mod
                row = [x - c * y for x, y in zip(row, col)]
            cleared.append([x % mod for x in row])
        h = cleared
        blocks.append((n, tuple(map(tuple, u))))
    if math.prod(n ** len(u) for n, u in blocks) != pf.group_order:
        raise DegenerateForm("degenerate finite quadratic form")
    return blocks


def box_minimum(lat, coeff_bound=5):
    """Minimal nonzero |norm| over a +-coeff_bound coordinate box."""
    g = lat.gram
    n = g.nrows
    best = None
    for x in itertools.product(*(range(-coeff_bound, coeff_bound + 1) for _ in range(n))):
        if any(x):
            v = abs(lat.norm(x))
            if best is None or v < best:
                best = v
    return best


def saturate(s):
    """Smallest primitive sublattice containing s: the integer kernel of the
    integer kernel of its basis."""
    n = s.ambient.rank
    k = s.basis.nrows
    if k == 0:
        return Sublattice(s.ambient, Matrix(()))
    if k == n:
        return Sublattice(s.ambient, Matrix.identity(n))
    perp = integer_kernel(s.basis.T)
    return Sublattice(s.ambient, integer_kernel(perp.T))


def is_nondegenerate(form):
    """True when b(x, -) vanishes only for x = 0 on a finite form."""
    radical = solve_congruences(form.B, [form.den] * form.ngens, form.orders)
    return not any(any(form.reduce(x)) for x in radical.rows)


def q_of(form, x):
    """q(x) of a finite quadratic form as a Fraction mod 2."""
    return Fraction(form._q(x), form.den)


def u3_glue_maps_oracle(fu, fl):
    """Every (generators of H, their images) for a subgroup H of
    disc U(3) = (Z/3)^2 and an isometric embedding of H into the form fl:
    the trivial H, the four lines, then the whole group, with no orbit
    reduction.  H is a 3-group, so q on the generators and their sum decides
    isometry, as q(x + y) - q(x) - q(y) = 2 b(x, y).  `verify` enumerated
    the U(3) glues so before `glue.embedding_glues`."""
    # the 3-torsion of Z/o is 0, o/3 and 2o/3
    torsion = [(y, q_of(fl, y)) for y in itertools.product(
        *[range(0, o, o // 3) if o % 3 == 0 else (0,) for o in fl.orders]) if any(y)]
    for gens in ((), ((1, 0),), ((0, 1),), ((1, 1),), ((1, 2),), ((1, 0), (0, 1))):
        pools = [[y for y, qy in torsion if qy == q_of(fu, h)] for h in gens]
        for images in itertools.product(*pools):
            if len(images) < 2 or q_of(fl, tuple(map(sum, zip(*images)))) == q_of(fu, (1, 1)):
                yield gens, images


def a2_glue_images_oracle(fh):
    """Every y of order 3 with q(y) = 2/3 in the form fh, in the order of
    `fh.elements()`: the images of the Z/3 glues of A2, whose form is Z/3
    with q = 2/3.  `verify.a2_complement_candidates` took the first one
    before `glue.embedding_glues`."""
    return [y for y in fh.elements()
            if fh.element_order(y) == 3 and q_of(fh, y) == Fraction(2, 3)]


def u3_first_graphs_oracle(fu, fo):
    """The order-3 graphs (h + y,) in disc U(3) + fo that
    `verify._u3_gluings_to` tried before `glue.embedding_glues`: the first
    h of order 3 per value q(h), each with the first y of order 3 in fo with
    q(h) + q(y) = 0 mod 2.  One graph per value suffices when fo is
    3-elementary (Witt's extension theorem over F_3)."""
    graphs = []
    first_h = {}  # q(h) -> the first h of order 3 with that value
    for h in fu.elements():
        if fu.element_order(h) == 3:
            first_h.setdefault(q_of(fu, h), h)
    for qh, h in first_h.items():
        for y in fo.elements():
            if fo.element_order(y) == 3 and (qh + q_of(fo, y)) % 2 == 0:
                graphs.append((h + y,))
                break
    return graphs


def u3_glued_forms_oracle(fu, fo):
    """(generators of H, H^perp / H in fu + fo) for the graph H of every
    glue of disc U(3) into -fo: the discriminant forms of U(3) glued with a
    lattice of form fo (Nikulin 1979, Prop. 1.4.1), as
    `verify._u3_gluings_to` read them before `glue.complement_forms`."""
    big = fu.direct_sum(fo)
    return [(gens, subquotient_form(big, [h + y for h, y in zip(gens, images)]))
            for gens, images in embedding_glues(fu, fo.neg())]


def fraction_presentation(form, gen_rows, rel_rows):
    """(form, lifts): the form `discform._presentation` induces on the span
    of `gen_rows` modulo that of `rel_rows`, and its generators as rows in
    those of `form`.  The relations are read in the HNF basis P through the
    Gauss-Jordan inverse of P, the new generators come from the inverse of
    the Smith transform, and their values are read as Fractions."""
    h, _ = hermite_normal_form(Matrix(gen_rows))
    p = Matrix(tuple(r for r in h.rows if any(r)))
    c = fraction_to_int(Matrix(rel_rows) @ fraction_inverse(p))
    snf = smith_normal_form(c)
    vinv = fraction_to_int(fraction_inverse(snf.v))
    pairs = [(d, (Matrix((vinv.row(j),)) @ p).row(0))
             for j, d in enumerate(snf.divisors) if d not in (0, 1)]
    orders = tuple(d for d, _ in pairs)
    lifts = tuple(lift for _, lift in pairs)
    den = math.lcm(*orders)

    def integral(value):
        value = Fraction(den * value, form.den)
        assert value.denominator == 1, value
        return value.numerator

    B = [[integral(form._b(x, y)) for y in lifts] for x in lifts]
    # a trivial quotient is TRIVIAL_FORM, whose empty table of q values
    # stands even for a bilinear-only form
    Q = None if form.Q is None and lifts else [integral(form._q(x)) for x in lifts]
    return FiniteQuadraticForm(orders, B, Q), Matrix(lifts)


def injective_anti_glue(left, right):
    """Glue data embedding disc(left) anti-isometrically into disc(right) as
    the subgroup y-perp of one element y, or None.

    y-perp is presented as a form of its own and matched onto by
    `_match_maps`; one y is tried per nonzero quadratic value, which covers
    every choice when disc(right) is p-elementary with p odd (Witt's
    extension theorem over F_p).
    """
    fl = discriminant_form(left)
    fr = discriminant_form(right)
    rel = Matrix.diagonal(fr.orders).rows
    seen = set()
    for y in fr.elements():
        qy = q_of(fr, y)
        if qy == 0 or qy in seen:
            continue
        seen.add(qy)
        sub, lifts = fraction_presentation(fr, orthogonal_subgroup(fr, [y]).rows, rel)
        images = _match_maps(fl, sub, -1)
        if images is not None:
            return GlueData(left, right, Matrix.identity(fl.ngens), images @ lifts)
    return None


@pytest.fixture(scope="session")
def named():
    from latticeforge.lattice import make_named

    return make_named

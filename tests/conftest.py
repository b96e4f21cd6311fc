"""Shared helpers: independent brute-force oracles kept free of the library's
enumeration path; the rational matrix arithmetic, the cyclotomic Gauss sum,
the full-minimum Jordan pivot, the cubic root readings through the rank-23
overlattice, the Smith and symmetric elimination kernels before their early
exits, the general Bareiss determinant, and the whole p-part matrix with
the local obstruction read from its determinant, which the library no
longer carries, kept as references for its integer, Jordan, closed-form and
kernel paths; the saturation of a sublattice and the radical of a finite
form, references for `saturation_index` and for degenerate forms; and an
injective glue built from the library's one onto glue search."""

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import pytest

from latticeforge.discform import (
    _match_maps,
    _presentation,
    discriminant_form,
    orthogonal_subgroup,
    solve_congruences,
)
from latticeforge.errors import DegenerateForm, DimensionMismatch, OddLatticeQuadratic
from latticeforge.glue import GlueData, Sublattice
from latticeforge.lattice import _factorization
from latticeforge.linalg import Matrix, SnfResult, SymmetricElimination, integer_kernel


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
    if not form.orders or form.ngens != sig[0] + sig[1]:
        return None
    for p in sorted(_factorization(math.gcd(*form.orders))):
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


def injective_anti_glue(left, right):
    """Glue data embedding disc(left) anti-isometrically into disc(right) as
    the subgroup y-perp of one element y, or None.

    y-perp is presented as a form of its own and matched onto by
    `_match_maps`; one y is tried per nonzero quadratic value, which covers
    every choice when disc(right) is p-elementary with p odd (Witt's
    extension theorem over F_p).
    """
    fl, _ = discriminant_form(left)
    fr, _ = discriminant_form(right)
    rel = Matrix.diagonal(fr.orders).rows
    seen = set()
    for y in fr.elements():
        qy = fr.q_of(y)
        if qy == 0 or qy in seen:
            continue
        seen.add(qy)
        sub, lifts = _presentation(fr, orthogonal_subgroup(fr, [y]).rows, rel)
        images = _match_maps(fl, sub, -1)
        if images is not None:
            return GlueData(left, right, Matrix.identity(fl.ngens), images @ lifts)
    return None


@pytest.fixture(scope="session")
def named():
    from latticeforge.lattice import make_named

    return make_named

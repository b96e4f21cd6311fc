"""Finite discriminant groups with Q/Z bilinear and Q/2Z quadratic forms.

A form is one integer table (orders, den, B, Q) over generators e_i of the
given orders, with den = lcm(orders):

    b(e_i, e_j) = B[i][j] / den mod 1,   q(e_i) = Q[i] / den mod 2,

B reduced mod den and Q mod 2 den, so a presentation has exactly one table.
The constructor accepts rational b and q, and `b_of` and `q_of` return
Fractions; everything else reads the table.  Lifts of group elements to the
dual lattice are integer vectors over the same den.  Isomorphism of odd
p-elementary forms is decided in closed form (length and the Legendre class
of the determinant), and of all other forms by backtracking search; the
mod-8 Gauss-sum invariant is computed exactly in a cyclotomic ring; Nikulin's
local existence conditions read one integer matrix per prime; no floats.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import (
    DegenerateForm,
    DimensionMismatch,
    NotTwoElementary,
    OddLatticeQuadratic,
    TooLarge,
)
from .lattice import _factorization, _is_prime
from .linalg import Matrix

DESK_GROUP_BOUND = 30000  # largest group we are willing to enumerate


class FiniteQuadraticForm:
    """Finite abelian group with a Q/Z bilinear form and, when available, a
    Q/2Z quadratic form refining it; Q is None for a bilinear-only form."""

    __slots__ = ("orders", "den", "B", "Q", "_qms")

    def __init__(self, orders, b, q=None):
        orders = tuple(int(d) for d in orders)
        if any(d < 2 for d in orders):
            raise DimensionMismatch("generator orders must be > 1")
        k = len(orders)
        b = [[Fraction(x) for x in row] for row in (b.rows if isinstance(b, Matrix) else b)]
        if len(b) != k or any(len(row) != k for row in b) or \
                any(b[i][j] != b[j][i] for i in range(k) for j in range(i)):
            raise DimensionMismatch("bilinear table must be symmetric k x k")
        den = math.lcm(*orders)
        for i, row in enumerate(b):
            if any((orders[i] * x).denominator != 1 for x in row):
                raise DegenerateForm("b not defined modulo the order of generator %d" % i)
        B = [[int(x * den) for x in row] for row in b]
        Q = None
        if q is not None:
            q = [Fraction(x) for x in q]
            if len(q) != k:
                raise DimensionMismatch("need one quadratic value per generator")
            for i in range(k):
                if (q[i] - b[i][i]).denominator != 1:
                    raise DegenerateForm("q and b incompatible on generator %d" % i)
                if (orders[i] ** 2 * q[i]) % 2 != 0:
                    raise DegenerateForm("q not defined modulo the order of generator %d" % i)
            Q = [int(x * den) for x in q]
        self._set_table(orders, B, Q)

    @classmethod
    def _from_table(cls, orders, B, Q):
        """Form with the given table at den = lcm(orders); entries need not
        be reduced."""
        form = object.__new__(cls)
        form._set_table(tuple(orders), B, Q)
        return form

    def _set_table(self, orders, B, Q):
        self.orders = orders
        self.den = den = math.lcm(*orders)
        self.B = tuple(tuple(x % den for x in row) for row in B)
        self.Q = None if Q is None else tuple(x % (2 * den) for x in Q)
        self._qms = None

    # -- basic structure ----------------------------------------------------

    @property
    def ngens(self):
        return len(self.orders)

    @property
    def group_order(self):
        return math.prod(self.orders)

    @property
    def q(self):
        """Quadratic values on the generators as Fractions mod 2, or None."""
        if self.Q is None:
            return None
        return tuple(Fraction(v, self.den) for v in self.Q)

    def is_trivial(self):
        return not self.orders

    def reduce(self, x):
        return tuple(c % d for c, d in zip(x, self.orders))

    def elements(self):
        return itertools.product(*(range(d) for d in self.orders))

    def element_order(self, x):
        return math.lcm(*(d // math.gcd(c, d) for c, d in zip(x, self.orders)))

    def _b(self, x, y):
        """den * b(x, y), reduced mod den."""
        acc = 0
        for xi, row in zip(x, self.B):
            if xi:
                for yj, bij in zip(y, row):
                    if yj:
                        acc += xi * yj * bij
        return acc % self.den

    def _q(self, x):
        """den * q(x), reduced mod 2 den."""
        if self.Q is None:
            raise OddLatticeQuadratic("no quadratic refinement on this form")
        acc = 0
        k = len(x)
        for i, xi in enumerate(x):
            if xi:
                acc += xi * xi * self.Q[i]
                row = self.B[i]
                for j in range(i + 1, k):
                    if x[j]:
                        acc += 2 * xi * x[j] * row[j]
        return acc % (2 * self.den)

    def b_of(self, x, y):
        return Fraction(self._b(x, y), self.den)

    def q_of(self, x):
        return Fraction(self._q(x), self.den)

    def q_multiset(self):
        """Sorted values den * q(x) over the whole group."""
        if self._qms is None:
            self._qms = tuple(sorted(self._q(x) for x in self.elements()))
        return self._qms

    def neg(self):
        return FiniteQuadraticForm._from_table(
            self.orders,
            [[-x for x in row] for row in self.B],
            None if self.Q is None else [-x for x in self.Q],
        )

    def direct_sum(self, other):
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        k1, k2 = self.ngens, other.ngens
        B = [[s * x for x in row] + [0] * k2 for row in self.B]
        B += [[0] * k1 + [t * x for x in row] for row in other.B]
        Q = None
        if self.Q is not None and other.Q is not None:
            Q = [s * x for x in self.Q] + [t * x for x in other.Q]
        return FiniteQuadraticForm._from_table(self.orders + other.orders, B, Q)

    def is_nondegenerate(self):
        """True when b(x, -) vanishes only for x = 0."""
        radical = solve_congruences(self.B, [self.den] * self.ngens, self.orders)
        return not any(any(self.reduce(x)) for x in radical.rows)

    def __repr__(self):
        grp = " + ".join("Z/%d" % d for d in self.orders) or "0"
        if self.Q is not None:
            return "FiniteQuadraticForm(%s, q=%s)" % (grp, [str(x) for x in self.q])
        return "FiniteQuadraticForm(%s, bilinear only)" % grp


TRIVIAL_FORM = FiniteQuadraticForm((), Matrix(()), ())


# ---------------------------------------------------------------------------
# construction from a lattice


def discriminant_form(lat):
    """Discriminant group of a lattice with its torsion forms.

    Returns (form, lifts) where row i of the integer matrix `lifts`, over
    form.den, is a dual vector in the lattice basis representing generator i
    of the dual quotient.  Quadratic values are attached when the lattice is
    even.
    """
    if lat.rank == 0:
        return TRIVIAL_FORM, Matrix(())
    snf = lat.snf()
    orders = []
    cols = []
    for i, d in enumerate(snf.divisors):
        if d not in (0, 1):
            orders.append(d)
            cols.append(snf.v.col(i))
    if not orders:
        return TRIVIAL_FORM, Matrix(())
    den = math.lcm(*orders)
    # generator i is c_i / d_i with c_i = cols[i]; c_i.G.c_j / (d_i d_j) has
    # denominator dividing d_i, so scaling by den = lcm(orders) is exact
    lifts = Matrix(tuple(tuple(den // d * c for c in col) for col, d in zip(cols, orders)))
    k = len(orders)
    B = [[0] * k for _ in range(k)]
    Q = [0] * k
    for i in range(k):
        gc = lat.gram.apply(cols[i])
        for j in range(i, k):
            dot = sum(a * c for a, c in zip(cols[j], gc))
            B[i][j] = B[j][i] = dot * den // (orders[i] * orders[j])
        Q[i] = B[i][i]
    return FiniteQuadraticForm._from_table(orders, B, Q if lat.is_even() else None), lifts


def element_lift(lifts, x):
    """Integer lattice-coordinate vector that, over the den of the form,
    represents group element x."""
    n = lifts.ncols
    out = [0] * n
    for coeff, row in zip(x, lifts.rows):
        if coeff:
            for j in range(n):
                out[j] += coeff * row[j]
    return tuple(out)


def class_of(lat, lifts, form, vec):
    """Class of the dual vector vec / form.den (vec an integer vector, like
    the rows of `lifts`) in the discriminant group: with u G v = d, the
    coordinates w = v^-1 vec / den of a dual vector have d_i w_i integral,
    and d_i w_i mod d_i is its coefficient on generator i."""
    if form.is_trivial():
        return ()
    snf = lat.snf()
    den = form.den
    coeffs = []
    for d, w in zip(snf.divisors, snf.v_inv.apply(vec)):
        c, rem = divmod(w * d, den)
        if rem:
            raise DegenerateForm("vector is not in the dual lattice")
        if d not in (0, 1):
            coeffs.append(c % d)
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# subgroup machinery


def solve_congruences(rows, moduli, orders):
    """Generators of {x mod orders : sum_i x_i rows[i][j] = 0 mod moduli[j]}.

    `rows` is a k x m integer matrix; column j is read modulo moduli[j].
    Returns an r x k integer matrix of generators (redundant generators are
    fine; callers reduce modulo orders).
    """
    k = len(orders)
    m = len(moduli)
    if m == 0:
        return Matrix.identity(k)
    big = []
    for i in range(k):
        big.append(tuple(rows[i][j] for j in range(m)))
    for j in range(m):
        big.append(tuple(moduli[j] if jj == j else 0 for jj in range(m)))
    ker = linalg.integer_kernel(Matrix(big))
    if ker.nrows == 0:
        gens = []
    else:
        gens = [r[:k] for r in ker.rows]
    for i in range(k):
        gens.append(tuple(orders[i] if jj == i else 0 for jj in range(k)))
    return Matrix(gens)


def orthogonal_subgroup(form, subgroup_gens):
    """Generator matrix of the annihilator of a subgroup under b."""
    k = form.ngens
    if not subgroup_gens:
        return Matrix.identity(k)
    rows = [[form._b(e, h) for h in subgroup_gens] for e in Matrix.identity(k).rows]
    return solve_congruences(rows, [form.den] * len(subgroup_gens), form.orders)


def _presentation(form, gen_rows, rel_rows):
    """Form induced on the subgroup spanned by `gen_rows` modulo the span of
    `rel_rows`, in invariant-factor presentation.

    Both are integer rows in the generators of `form`; `gen_rows` contain
    every order_i * e_i and their span contains that of `rel_rows`.  Returns
    (form, lifts) with the new generators as rows in the old ones.
    """
    h, _ = linalg.hermite_normal_form(Matrix(gen_rows))
    p = Matrix(tuple(r for r in h.rows if any(r)))
    if p.nrows != form.ngens:
        raise DegenerateForm("subgroup lattice not full rank")
    # the relations in the basis p, then their Smith form: the new
    # generators are the rows of v^-1 p
    snf = linalg.smith_normal_form(linalg.triangular_solve(p, Matrix(rel_rows)))
    orders = []
    lifts = []
    for j, d in enumerate(snf.divisors):
        if d not in (0, 1):
            orders.append(d)
            lifts.append(p.T.apply(snf.v_inv.row(j)))
    if not orders:
        return TRIVIAL_FORM, Matrix(())
    # the values on the new generators have denominators dividing the new
    # orders, so moving from form.den to their lcm is an exact division
    step = form.den // math.lcm(*orders)
    B = [[form._b(x, y) // step for y in lifts] for x in lifts]
    Q = None if form.Q is None else [form._q(x) // step for x in lifts]
    return FiniteQuadraticForm._from_table(orders, B, Q), Matrix(lifts)


def subquotient_form(form, isotropic_gens):
    """Form induced on (S^perp)/S for an isotropic subgroup S.

    `isotropic_gens` are integer coefficient rows.  Returns the quotient as a
    FiniteQuadraticForm in invariant-factor presentation.
    """
    if form.is_trivial():
        return TRIVIAL_FORM
    perp = orthogonal_subgroup(form, [form.reduce(h) for h in isotropic_gens])
    rel = [tuple(h) for h in isotropic_gens] + list(Matrix.diagonal(form.orders).rows)
    return _presentation(form, perp.rows, rel)[0]


# ---------------------------------------------------------------------------
# invariants


def delta_invariant(form):
    """0 when every quadratic value of a 2-elementary form is integral."""
    if any(d != 2 for d in form.orders):
        raise NotTwoElementary("delta needs a 2-elementary form")
    return int(any(v % form.den for v in form.q_multiset()))


@lru_cache(maxsize=None)
def _cyclotomic(n):
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            phi_d = _cyclotomic(d)
            poly = _polydiv_exact(poly, phi_d)
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
    assert all(x == 0 for x in num[: len(den) - 1]) and all(
        x == 0 for x in num[len(den) - 1:][len(out):]
    )
    return out


class _CycloRing:
    """Z[x]/Phi_n(x) with dense integer coefficient vectors."""

    def __init__(self, n):
        self.n = n
        phi = _cyclotomic(n)
        self.deg = len(phi) - 1
        # reduction table for x^k, k < 2n
        table = []
        cur = [0] * self.deg
        if self.deg:
            cur[0] = 1
        table.append(tuple(cur))
        for k in range(1, 2 * n):
            nxt = [0] + list(table[-1][: self.deg - 1]) if self.deg > 1 else [0]
            if self.deg == 1:
                nxt = [0]
            carry = table[-1][self.deg - 1] if self.deg >= 1 else 0
            if carry:
                for j in range(self.deg):
                    nxt[j] -= carry * phi[j]
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
        prod = [0] * (2 * self.deg - 1 if self.deg else 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        out = [0] * self.deg
        for k, c in enumerate(prod):
            if c:
                row = self.xpow[k]
                for j in range(self.deg):
                    out[j] += c * row[j]
        return tuple(out)


def _squarefree_split(n):
    """n = f^2 * m with m squarefree."""
    f = m = 1
    for p, e in _factorization(n).items():
        f *= p ** (e // 2)
        m *= p ** (e % 2)
    return f, m


def _sqrt_in_ring(ring, n):
    """sqrt(n) as an exact element of Z[zeta_L]; needs 8 | L and odd part of
    the squarefree kernel dividing L."""
    f, m = _squarefree_split(n)
    acc = ring.zeta_pow(0)
    acc = ring.scale(acc, f)
    if m % 2 == 0:
        m //= 2
        root2 = ring.add(ring.zeta_pow(ring.n // 8), ring.zeta_pow(-ring.n // 8))
        acc = ring.mul(acc, root2)
    if m > 1:
        assert ring.n % m == 0
        g = ring.zero()
        step = ring.n // m
        for k in range(m):
            g = ring.add(g, ring.zeta_pow(step * (k * k)))
        if m % 4 == 3:
            g = ring.mul(g, ring.zeta_pow(-ring.n // 4))  # divide by i
        acc = ring.mul(acc, g)
    return acc


def milgram_signature(form):
    """Residue s mod 8 with sum_x exp(pi i q(x)) = sqrt(|A|) exp(pi i s / 4).

    Computed exactly: the Gauss sum lives in a cyclotomic ring, and sqrt(|A|)
    is expressed there through quadratic Gauss sums.
    """
    if form.is_trivial():
        return 0
    if form.group_order > DESK_GROUP_BOUND:
        raise TooLarge("group of order %d exceeds the desk-scale bound" % form.group_order)
    if not form.is_nondegenerate():
        raise DegenerateForm("degenerate finite quadratic form")
    two_den = 2 * form.den
    _, m = _squarefree_split(form.group_order)
    modd = m // 2 if m % 2 == 0 else m
    ring_n = math.lcm(8, two_den, modd)
    ring = _CycloRing(ring_n)
    step = ring_n // two_den
    counts = [0] * ring_n
    for v in form.q_multiset():
        counts[v * step] += 1
    s_vec = ring.zero()
    for expo, c in enumerate(counts):
        if c:
            s_vec = ring.add(s_vec, ring.scale(ring.zeta_pow(expo), c))
    target = _sqrt_in_ring(ring, form.group_order)
    for s in range(8):
        cand = ring.mul(target, ring.zeta_pow(s * ring_n // 8))
        if cand == s_vec:
            return s
    raise DegenerateForm("Gauss sum does not have root-of-unity phase")


# ---------------------------------------------------------------------------
# isomorphism testing


def _match_maps(src, dst, sign, q_mod=2):
    """The first bijective morphism src -> dst matching the torsion forms,
    or None.

    Images satisfy b(f x, f y) = sign * b(x, y) mod 1 and q(f x) = sign * q(x)
    modulo `q_mod` (q_mod=2 is a strict (anti-)isometry; q_mod=1 only forces
    q(f x) + q(x) or q(f x) - q(x) to be integral, which is the right notion
    when gluing inside an odd overlattice).  Returns the image matrix (rows in
    dst generator coordinates).
    """
    have_q = src.Q is not None and dst.Q is not None
    k = src.ngens
    if k == 0:
        return Matrix(()) if dst.is_trivial() else None
    if dst.group_order > DESK_GROUP_BOUND:
        raise TooLarge("group of order %d exceeds the desk-scale bound" % dst.group_order)
    if src.group_order != dst.group_order:
        return None
    # both tables rescaled to one denominator: b-values are residues mod
    # den and q-values residues mod q_mod * den
    den = math.lcm(src.den, dst.den)
    s_scale, d_scale = den // src.den, den // dst.den
    q_den = q_mod * den
    kk = dst.ngens
    dst_b = [[d_scale * x for x in row] for row in dst.B]

    def brow(y):
        """b(y, g_t) * den mod den for every dst generator g_t."""
        return tuple(sum(y[i] * dst_b[i][t] for i in range(kk) if y[i]) % den
                     for t in range(kk))

    by_key = {}
    rows_of = {}
    for y in dst.elements():
        row = brow(y)
        key = (dst.element_order(y), d_scale * dst._q(y) % q_den if have_q else None,
               sum(a * c for a, c in zip(y, row)) % den)
        by_key.setdefault(key, []).append(y)
        rows_of[y] = row
    want_int = [[sign * s_scale * src.B[i][j] % den for j in range(k)] for i in range(k)]
    pools = []
    for i in range(k):
        want_q = sign * s_scale * src.Q[i] % q_den if have_q else None
        pool = by_key.get((src.orders[i], want_q, want_int[i][i]), [])
        if not pool:
            return None
        pools.append(pool)
    chosen = []

    def feasible(y, i):
        row_y = rows_of[y]
        for j, prev in enumerate(chosen):
            acc = 0
            for t in range(kk):
                pt = prev[t]
                if pt:
                    acc += pt * row_y[t]
            if acc % den != want_int[i][j]:
                return False
        return True

    def image_index(images):
        """Order of dst / (subgroup generated by the images)."""
        rows = [list(img) for img in images]
        for i, d in enumerate(dst.orders):
            rows.append([d if j == i else 0 for j in range(kk)])
        h, _ = linalg.hermite_normal_form(Matrix(rows))
        vol = 1
        for i in range(kk):
            vol *= h[i, i]
        return abs(vol)

    def rec(i):
        if i == k:
            return image_index(chosen) == 1
        for y in pools[i]:
            if feasible(y, i):
                chosen.append(y)
                if rec(i + 1):
                    return True
                chosen.pop()
        return False

    return Matrix(tuple(chosen)) if rec(0) else None


def _p_part(form, p):
    """(M, n): generators x_i = c_i e_i of the p-part of the group, of
    orders n_i, and the integer matrix M = (n_i b(x_i, x_j)) with n_i q(x_i)
    on the diagonal (n_i b(x_i, x_i) on a bilinear-only form).  M = D G with
    D = diag(n) and G the Gram matrix of K* for a p-adic lattice K with K*/K
    the p-part of the form, so det K = |A_p| det M."""
    gens = []
    for i, o in enumerate(form.orders):
        n = math.gcd(o, p ** o.bit_length())  # the p-part of o
        if n > 1:
            gens.append((i, o // n, n))
    table = [list(row) for row in form.B]
    for i, q in enumerate(form.Q or ()):
        table[i][i] = q
    # exact: n_i b(x_i, x_j) and n_i q(x_i) are integers
    m = Matrix(tuple(tuple(ni * ci * cj * table[i][j] // form.den for j, cj, _ in gens)
                     for i, ci, ni in gens))
    return m, tuple(n for _, _, n in gens)


def local_obstruction(form, sig):
    """The least prime at which no even lattice of signature sig = (s+, s-)
    with discriminant form `form` exists, or None (Nikulin 1979, Thm 1.10.1;
    the signature congruence and l(A) <= s+ + s- are the caller's).  Only p
    with l(A_p) = s+ + s- count.  With M from `_p_part` and m = |A| / |A_p|,
    odd p needs ((-1)^(s-) m det M / p) = 1, and p = 2 needs m det M = +-1
    mod 8 unless A_2 has a Z/2 summand with b(x, x) = 1/2."""
    if form.Q is None:
        raise OddLatticeQuadratic("only even lattices have a quadratic form")
    if not form.orders or form.ngens != sig[0] + sig[1]:
        return None
    for p in sorted(_factorization(math.gcd(*form.orders))):
        mat, orders = _p_part(form, p)
        unit = form.group_order // math.prod(orders) * linalg.bareiss_det(mat)
        if p == 2:
            theta = any(n == 2 and mat[i, i] % 2 for i, n in enumerate(orders))
            if not theta and unit % 8 not in (1, 7):
                return p
        elif pow((-1) ** sig[1] * unit, (p - 1) // 2, p) != 1:
            return p
    return None


def _odd_elementary_class(form):
    """(p, length, Legendre symbol of det M mod p), M from `_p_part`, for a
    nondegenerate p-elementary form with p an odd prime, else None.

    For odd p the quadratic form is fixed by b, and b is a nondegenerate
    symmetric bilinear form over F_p, which is classified by its dimension
    and the square class of its determinant (Nikulin 1979; Conway-Sloane,
    SPLAG ch. 15), so the triple is a complete invariant.
    """
    if not form.orders:
        return None
    p = form.orders[0]
    if p % 2 == 0 or not _is_prime(p) or any(d != p for d in form.orders):
        return None
    det = linalg.bareiss_det(_p_part(form, p)[0]) % p
    if det == 0:
        return None
    legendre = 1 if pow(det, (p - 1) // 2, p) == 1 else -1
    return (p, form.ngens, legendre)


def forms_isomorphic(f, g):
    """Decide isomorphism of finite quadratic forms.

    Nondegenerate p-elementary forms with p odd are decided in closed form
    by `_odd_elementary_class`, at any group order; every other pair (2-parts,
    mixed or degenerate groups) by generator search, which raises TooLarge
    above DESK_GROUP_BOUND.
    """
    if sorted(f.orders) != sorted(g.orders):
        return False
    if (f.Q is None) != (g.Q is None):
        return False
    cf = _odd_elementary_class(f)
    cg = _odd_elementary_class(g)
    if cf is not None and cg is not None:
        return cf == cg
    if f.group_order > DESK_GROUP_BOUND or g.group_order > DESK_GROUP_BOUND:
        raise TooLarge("forms exceed the desk-scale bound")
    if f.Q is not None and f.q_multiset() != g.q_multiset():
        return False
    return _match_maps(f, g, 1) is not None


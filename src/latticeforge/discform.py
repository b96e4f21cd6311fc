"""Finite discriminant groups with Q/Z bilinear and Q/2Z quadratic forms.

A form is presented by generators in invariant-factor order.  Isomorphism of
odd p-elementary forms is decided in closed form (length and the Legendre
class of the determinant), and of all other forms by backtracking search; the
mod-8 Gauss-sum invariant is computed exactly in a cyclotomic ring; nothing
here touches floating point.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import linalg
from .errors import (
    DegenerateForm,
    DimensionMismatch,
    NotTwoElementary,
    OddLatticeQuadratic,
    TooLarge,
)
from .lattice import _is_prime
from .linalg import Matrix

DESK_GROUP_BOUND = 30000  # largest group we are willing to enumerate


def _mod1(x):
    return Fraction(x) % 1


def _mod2(x):
    return Fraction(x) % 2


class FiniteQuadraticForm:
    """Finite abelian group with a Q/Z bilinear form and, when available, a
    Q/2Z quadratic form refining it."""

    __slots__ = ("orders", "b", "q", "_qtab", "_qms")

    def __init__(self, orders, b, q=None):
        self.orders = tuple(int(d) for d in orders)
        if any(d < 2 for d in self.orders):
            raise DimensionMismatch("generator orders must be > 1")
        k = len(self.orders)
        if not isinstance(b, Matrix):
            b = Matrix(b)
        if b.shape != (k, k) or not b.is_symmetric():
            raise DimensionMismatch("bilinear table must be symmetric k x k")
        self.b = Matrix(tuple(tuple(_mod1(x) for x in r) for r in b.rows))
        if q is not None:
            q = tuple(_mod2(x) for x in q)
            if len(q) != k:
                raise DimensionMismatch("need one quadratic value per generator")
            for i in range(k):
                if _mod1(q[i] - self.b[i, i]) != 0:
                    raise DegenerateForm("q and b incompatible on generator %d" % i)
                if _mod2(self.orders[i] ** 2 * q[i]) != 0:
                    raise DegenerateForm("q not defined modulo the order of generator %d" % i)
        self.q = q
        self._qtab = None
        self._qms = None

    # -- basic structure ----------------------------------------------------

    @property
    def ngens(self):
        return len(self.orders)

    @property
    def group_order(self):
        n = 1
        for d in self.orders:
            n *= d
        return n

    def is_trivial(self):
        return not self.orders

    def reduce(self, x):
        return tuple(c % d for c, d in zip(x, self.orders))

    def elements(self):
        return itertools.product(*(range(d) for d in self.orders))

    def element_order(self, x):
        n = 1
        for c, d in zip(x, self.orders):
            dd = d // gcd(c, d)
            n = n * dd // gcd(n, dd)
        return n

    def b_of(self, x, y):
        acc = Fraction(0)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        acc += xi * yj * self.b[i, j]
        return _mod1(acc)

    def q_of(self, x):
        if self.q is None:
            raise OddLatticeQuadratic("no quadratic refinement on this form")
        acc = Fraction(0)
        for i, xi in enumerate(x):
            if xi:
                acc += xi * xi * self.q[i]
                for j in range(i + 1, self.ngens):
                    if x[j]:
                        acc += 2 * xi * x[j] * self.b[i, j]
        return _mod2(acc)

    def _q_int_table(self):
        """(den, diag, off) with q(x) = (sum x_i^2 diag_i + sum_{i<j} x_i x_j off_ij)/den mod 2."""
        if self._qtab is None:
            if self.q is None:
                raise OddLatticeQuadratic("no quadratic refinement on this form")
            den = 1
            for v in self.q:
                den = den * v.denominator // gcd(den, v.denominator)
            for i in range(self.ngens):
                for j in range(i + 1, self.ngens):
                    d = (2 * self.b[i, j]).denominator
                    den = den * d // gcd(den, d)
            diag = [int(v * den) for v in self.q]
            off = [[int(2 * self.b[i, j] * den) for j in range(self.ngens)] for i in range(self.ngens)]
            self._qtab = (den, diag, off)
        return self._qtab

    def q_multiset(self):
        """Sorted scaled q-values over the whole group (exact integers)."""
        if self._qms is not None:
            return self._qms
        den, diag, off = self._q_int_table()
        two_den = 2 * den
        vals = []
        for x in self.elements():
            acc = 0
            for i, xi in enumerate(x):
                if xi:
                    acc += xi * xi * diag[i]
                    row = off[i]
                    for j in range(i + 1, self.ngens):
                        if x[j]:
                            acc += xi * x[j] * row[j]
            vals.append(acc % two_den)
        vals.sort()
        self._qms = (den, tuple(vals))
        return self._qms

    def neg(self):
        return FiniteQuadraticForm(
            self.orders,
            Matrix(tuple(tuple(_mod1(-x) for x in r) for r in self.b.rows)),
            None if self.q is None else tuple(_mod2(-x) for x in self.q),
        )

    def direct_sum(self, other):
        k1, k2 = self.ngens, other.ngens
        b = [[Fraction(0)] * (k1 + k2) for _ in range(k1 + k2)]
        for i in range(k1):
            for j in range(k1):
                b[i][j] = self.b[i, j]
        for i in range(k2):
            for j in range(k2):
                b[k1 + i][k1 + j] = other.b[i, j]
        q = None
        if self.q is not None and other.q is not None:
            q = self.q + other.q
        return FiniteQuadraticForm(self.orders + other.orders, Matrix(b), q)

    def is_nondegenerate(self):
        """True when b(x, -) vanishes only for x = 0."""
        if not self.orders:
            return True
        rad = radical_subgroup(self)
        return not rad

    def __repr__(self):
        grp = " + ".join("Z/%d" % d for d in self.orders) or "0"
        if self.q is not None:
            return "FiniteQuadraticForm(%s, q=%s)" % (grp, [str(x) for x in self.q])
        return "FiniteQuadraticForm(%s, bilinear only)" % grp


TRIVIAL_FORM = FiniteQuadraticForm((), Matrix(()), ())


# ---------------------------------------------------------------------------
# construction from a lattice


def discriminant_form(lat):
    """Discriminant group of a lattice with its torsion forms.

    Returns (form, lifts) where row i of `lifts` is a rational vector in the
    lattice basis representing generator i of the dual quotient.  Quadratic
    values are attached when the lattice is even.
    """
    if lat.rank == 0:
        return TRIVIAL_FORM, Matrix(())
    snf = lat.snf()
    gens = []
    orders = []
    for i, d in enumerate(snf.divisors):
        if d not in (0, 1):
            orders.append(d)
            col = snf.v.col(i)
            gens.append(tuple(Fraction(c, d) for c in col))
    if not gens:
        return TRIVIAL_FORM, Matrix(())
    lifts = Matrix(gens)
    g = lat.gram.to_fraction()
    k = len(gens)
    b = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        gi = g.apply(gens[i])
        for j in range(i, k):
            val = _mod1(sum(a * c for a, c in zip(gens[j], gi)))
            b[i][j] = b[j][i] = val
    q = None
    if lat.is_even():
        q = tuple(
            _mod2(sum(a * c for a, c in zip(gens[i], g.apply(gens[i])))) for i in range(k)
        )
    return FiniteQuadraticForm(tuple(orders), Matrix(b), q), lifts


def element_lift(lifts, x):
    """Rational lattice-coordinate vector representing group element x."""
    n = lifts.ncols
    out = [Fraction(0)] * n
    for coeff, row in zip(x, lifts.rows):
        if coeff:
            for j in range(n):
                out[j] += coeff * row[j]
    return tuple(out)


def class_of(lat, lifts, form, vec):
    """Class of a dual vector (rational coords) in the discriminant group."""
    if form.is_trivial():
        return ()
    snf = lat.snf()
    w = linalg.inverse(snf.v).apply(vec)
    coeffs = []
    for i, d in enumerate(snf.divisors):
        c = Fraction(w[i] * d)
        if c.denominator != 1:
            raise DegenerateForm("vector is not in the dual lattice")
        if d not in (0, 1):
            coeffs.append(int(c) % d)
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


def radical_subgroup(form):
    """Nonzero elements pairing integrally with the whole group."""
    k = form.ngens
    if k == 0:
        return []
    den = 1
    for r in form.b.rows:
        for x in r:
            den = den * x.denominator // gcd(den, x.denominator)
    rows = [[int(form.b[i, j] * den) for j in range(k)] for i in range(k)]
    gens = solve_congruences(rows, [den] * k, form.orders)
    seen = set()
    out = []
    for grow in gens.rows:
        x = form.reduce(grow)
        if any(x) and x not in seen:
            seen.add(x)
            out.append(x)
    # close under the group operation within the solution set
    changed = True
    members = set(out)
    while changed:
        changed = False
        for a in list(members):
            for b in list(members):
                c = form.reduce(tuple(p + q for p, q in zip(a, b)))
                if any(c) and c not in members:
                    members.add(c)
                    changed = True
    return sorted(members)


def orthogonal_subgroup(form, subgroup_gens):
    """Generator matrix of the annihilator of a subgroup under b."""
    k = form.ngens
    if not subgroup_gens:
        return Matrix.identity(k)
    den = 1
    cols = []
    for h in subgroup_gens:
        col = [form.b_of(tuple(1 if t == i else 0 for t in range(k)), h) for i in range(k)]
        cols.append(col)
        for x in col:
            den = den * x.denominator // gcd(den, x.denominator)
    rows = [[int(cols[j][i] * den) for j in range(len(subgroup_gens))] for i in range(k)]
    return solve_congruences(rows, [den] * len(subgroup_gens), form.orders)


def subquotient_form(form, isotropic_gens, require_quadratic=True):
    """Form induced on (S^perp)/S for an isotropic subgroup S.

    `isotropic_gens` are integer coefficient rows.  Returns the quotient as a
    FiniteQuadraticForm in invariant-factor presentation.
    """
    k = form.ngens
    if k == 0:
        return TRIVIAL_FORM
    perp = orthogonal_subgroup(form, [form.reduce(h) for h in isotropic_gens])
    hperp, _ = linalg.hermite_normal_form(perp)
    prows = [r for r in hperp.rows if any(r)]
    p = Matrix(prows)
    if p.nrows != k:
        raise DegenerateForm("annihilator lattice not full rank")
    sub_rows = [tuple(h) for h in isotropic_gens]
    for i in range(k):
        sub_rows.append(tuple(form.orders[i] if j == i else 0 for j in range(k)))
    pinv = linalg.inverse(p)
    c = (Matrix(sub_rows).to_fraction() @ pinv).to_int()
    snf = linalg.smith_normal_form(c)
    vinv = linalg.inverse(snf.v).to_int()
    orders = []
    lifts = []
    n = min(snf.d.nrows, snf.d.ncols)
    for j in range(c.ncols):
        d = snf.d[j, j] if j < n else 0
        if d in (0, 1):
            continue
        lift = tuple(vinv.row(j))  # in p-coordinates
        coords = Matrix((lift,)) @ p
        orders.append(d)
        lifts.append(coords.row(0))
    if not orders:
        return TRIVIAL_FORM
    m = len(orders)
    b = [[Fraction(0)] * m for _ in range(m)]
    q = [Fraction(0)] * m
    for i in range(m):
        for j in range(i, m):
            b[i][j] = b[j][i] = form.b_of(lifts[i], lifts[j])
        if form.q is not None:
            q[i] = form.q_of(lifts[i])
    return FiniteQuadraticForm(
        tuple(orders), Matrix(b), tuple(q) if (form.q is not None and require_quadratic) else None
    )


def isotropic_subgroups(form):
    """All subgroups on which both q and b vanish identically.

    Subgroups are returned as sorted element tuples, smallest first, in a
    deterministic order.
    """
    if form.group_order > DESK_GROUP_BOUND:
        raise TooLarge("group of order %d exceeds the desk-scale bound" % form.group_order)
    zero = tuple(0 for _ in form.orders)
    candidates = []
    for x in form.elements():
        if not any(x):
            continue
        if form.q is not None and form.q_of(x) != 0:
            continue
        if form.q is None and form.b_of(x, x) != 0:
            continue
        candidates.append(x)
    found = {frozenset([zero])}
    frontier = [frozenset([zero])]
    while frontier:
        new_frontier = []
        for h in frontier:
            for x in candidates:
                if x in h:
                    continue
                if any(form.b_of(x, y) != 0 for y in h):
                    continue
                members = set(h)
                for mult in range(1, form.element_order(x)):
                    shift = tuple(mult * c for c in x)
                    members.update(form.reduce(tuple(a + b for a, b in zip(y, shift))) for y in h)
                fz = frozenset(members)
                if fz not in found:
                    found.add(fz)
                    new_frontier.append(fz)
        frontier = new_frontier
    return [tuple(sorted(h)) for h in sorted(found, key=lambda h: (len(h), tuple(sorted(h))))]


# ---------------------------------------------------------------------------
# invariants


def delta_invariant(form):
    """0 when every quadratic value of a 2-elementary form is integral."""
    if any(d != 2 for d in form.orders):
        raise NotTwoElementary("delta needs a 2-elementary form")
    if form.is_trivial():
        return 0
    for x in form.elements():
        if form.q_of(x).denominator != 1:
            return 1
    return 0


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
    f = 1
    m = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            f *= d ** (e // 2)
            if e % 2:
                m *= d
        d += 1
    m *= n
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
    den, diag, off = form._q_int_table()
    two_den = 2 * den
    _, m = _squarefree_split(form.group_order)
    modd = m // 2 if m % 2 == 0 else m
    ring_n = 8
    for v in (two_den, modd):
        ring_n = ring_n * v // gcd(ring_n, v)
    ring = _CycloRing(ring_n)
    step = ring_n // two_den
    counts = [0] * ring_n
    k = form.ngens
    for x in form.elements():
        acc = 0
        for i in range(k):
            xi = x[i]
            if xi:
                acc += xi * xi * diag[i]
                row = off[i]
                for j in range(i + 1, k):
                    if x[j]:
                        acc += xi * x[j] * row[j]
        counts[(acc % two_den) * step] += 1
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


def _match_maps(src, dst, sign, q_mod=2, max_results=1, require_onto=True,
                require_injective=False):
    """Group morphisms src -> dst matching the torsion forms.

    Images satisfy b(f x, f y) = sign * b(x, y) mod 1 and q(f x) = sign * q(x)
    modulo `q_mod` (q_mod=2 is a strict (anti-)isometry; q_mod=1 only forces
    q(f x) + q(x) or q(f x) - q(x) to be integral, which is the right notion
    when gluing inside an odd overlattice).  Returns image matrices (rows in
    dst generator coordinates).
    """
    have_q = src.q is not None and dst.q is not None
    k = src.ngens
    if k == 0:
        return [Matrix(())] if (not require_onto or dst.is_trivial()) else []
    if dst.group_order > DESK_GROUP_BOUND:
        raise TooLarge("group of order %d exceeds the desk-scale bound" % dst.group_order)
    if require_onto and src.group_order != dst.group_order:
        return []
    # integer-scaled bilinear tables: all b-values become residues mod den
    den = 1
    for r in dst.b.rows:
        for x in r:
            den = den * x.denominator // gcd(den, x.denominator)
    for r in src.b.rows:
        for x in r:
            den = den * x.denominator // gcd(den, x.denominator)
    dst_b_int = [[int(dst.b[i, j] * den) % den for j in range(dst.ngens)]
                 for i in range(dst.ngens)]

    def brow(y):
        """b(y, g_t) * den mod den for every dst generator g_t."""
        return tuple(sum(y[i] * dst_b_int[i][t] for i in range(dst.ngens) if y[i]) % den
                     for t in range(dst.ngens))

    by_key = {}
    rows_of = {}
    for y in dst.elements():
        key = (dst.element_order(y), dst.q_of(y) % q_mod if have_q else None, dst.b_of(y, y))
        by_key.setdefault(key, []).append(y)
        rows_of[y] = brow(y)
    gens = [tuple(1 if t == i else 0 for t in range(k)) for i in range(k)]
    src_b = [[src.b_of(gens[i], gens[j]) for j in range(k)] for i in range(k)]
    want_int = [[int(_mod1(sign * src_b[i][j]) * den) % den for j in range(k)] for i in range(k)]
    pools = []
    for i in range(k):
        want_q = (sign * src.q_of(gens[i])) % q_mod if have_q else None
        want_b = _mod1(sign * src_b[i][i])
        pool = by_key.get((src.orders[i], want_q, want_b), [])
        if not pool:
            return []
        pools.append(pool)
    results = []
    chosen = []

    def feasible(y, i):
        row_y = rows_of[y]
        kk = dst.ngens
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
            rows.append([d if j == i else 0 for j in range(dst.ngens)])
        h, _ = linalg.hermite_normal_form(Matrix(rows))
        vol = 1
        for i in range(dst.ngens):
            vol *= h[i, i]
        return abs(vol)

    def rec(i):
        if len(results) >= max_results:
            return
        if i == k:
            if require_onto and image_index(chosen) != 1:
                return
            if require_injective and not require_onto:
                if dst.group_order % src.group_order or \
                        image_index(chosen) != dst.group_order // src.group_order:
                    return
            results.append(Matrix(tuple(chosen)))
            return
        for y in pools[i]:
            if feasible(y, i):
                chosen.append(y)
                rec(i + 1)
                chosen.pop()
                if len(results) >= max_results:
                    return

    rec(0)
    return results


def _odd_elementary_class(form):
    """(p, length, Legendre symbol of det(p b) mod p) for a nondegenerate
    p-elementary form with p an odd prime, else None.

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
    scaled = []
    for r in form.b.rows:
        row = []
        for x in r:
            y = p * x
            if y.denominator != 1:
                return None
            row.append(int(y) % p)
        scaled.append(tuple(row))
    det = linalg.bareiss_det(Matrix(scaled)) % p
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
    if (f.q is None) != (g.q is None):
        return False
    cf = _odd_elementary_class(f)
    cg = _odd_elementary_class(g)
    if cf is not None and cg is not None:
        return cf == cg
    if f.group_order > DESK_GROUP_BOUND or g.group_order > DESK_GROUP_BOUND:
        raise TooLarge("forms exceed the desk-scale bound")
    if f.q is not None and f.q_multiset() != g.q_multiset():
        return False
    return bool(_match_maps(f, g, 1, max_results=1))


def anti_isometries(f, g, max_results=1):
    """Bijective maps f -> g with q(img) = -q(x) mod 2; glue data for even
    primitive extensions."""
    return _match_maps(f, g, -1, max_results=max_results)


def odd_glue_maps(f, g, max_results=1):
    """Bijective maps f -> g with b anti-preserved and q(img) + q(x) integral;
    glue data for extensions inside an odd unimodular overlattice."""
    return _match_maps(f, g, -1, q_mod=1, max_results=max_results)


def isometric_embeddings(sub, host, max_results=8):
    """q-preserving injective maps sub -> host (embedding-subgroup data)."""
    return _match_maps(sub, host, 1, max_results=max_results,
                       require_onto=False, require_injective=True)


def all_subgroups(form):
    """Every subgroup, as a sorted tuple of elements, deterministically ordered."""
    if form.group_order > DESK_GROUP_BOUND:
        raise TooLarge("group of order %d exceeds the desk-scale bound" % form.group_order)
    zero = tuple(0 for _ in form.orders)
    found = {frozenset([zero])}
    frontier = [frozenset([zero])]
    elems = [x for x in form.elements() if any(x)]
    while frontier:
        new_frontier = []
        for h in frontier:
            for x in elems:
                if x in h:
                    continue
                members = set(h)
                for mult in range(1, form.element_order(x)):
                    shift = tuple(mult * c for c in x)
                    members.update(form.reduce(tuple(a + b for a, b in zip(y, shift))) for y in h)
                fz = frozenset(members)
                if fz not in found:
                    found.add(fz)
                    new_frontier.append(fz)
        frontier = new_frontier
    return [tuple(sorted(h)) for h in sorted(found, key=lambda h: (len(h), tuple(sorted(h))))]


def subgroup_form(form, element_rows):
    """Present the subgroup generated by the given elements as a standalone
    form; returns (sub_form, lift_rows) with lifts in the ambient generators."""
    k = form.ngens
    if k == 0 or not element_rows:
        return TRIVIAL_FORM, Matrix(())
    rows = [tuple(form.reduce(r)) for r in element_rows]
    rows += [tuple(form.orders[i] if j == i else 0 for j in range(k)) for i in range(k)]
    h, _ = linalg.hermite_normal_form(Matrix(rows))
    p = Matrix(tuple(r for r in h.rows if any(r)))
    rel = Matrix(tuple(tuple(form.orders[i] if j == i else 0 for j in range(k)) for i in range(k)))
    c = (rel.to_fraction() @ linalg.inverse(p)).to_int()
    snf = linalg.smith_normal_form(c)
    vinv = linalg.inverse(snf.v).to_int()
    orders = []
    lifts = []
    for j in range(k):
        d = snf.d[j, j]
        if d in (0, 1):
            continue
        coords = Matrix((tuple(vinv.row(j)),)) @ p
        orders.append(d)
        lifts.append(coords.row(0))
    if not orders:
        return TRIVIAL_FORM, Matrix(())
    m = len(orders)
    b = [[Fraction(0)] * m for _ in range(m)]
    q = [Fraction(0)] * m if form.q is not None else None
    for i in range(m):
        for j in range(i, m):
            b[i][j] = b[j][i] = form.b_of(lifts[i], lifts[j])
        if q is not None:
            q[i] = form.q_of(lifts[i])
    sub = FiniteQuadraticForm(tuple(orders), Matrix(b), tuple(q) if q is not None else None)
    return sub, Matrix(lifts)

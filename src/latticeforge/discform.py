"""Finite discriminant groups with Q/Z bilinear and Q/2Z quadratic forms.

A form is one integer table (orders, den, B, Q) over generators e_i of the
given orders, with den = lcm(orders):

    b(e_i, e_j) = B[i][j] / den mod 1,   q(e_i) = Q[i] / den mod 2,

B reduced mod den and Q mod 2 den, so a presentation has exactly one table.
The constructor takes the integer table; only `q` returns Fractions.
Lifts of group elements to the dual lattice (`element_lift`) are integer
vectors over the same den.  Local invariants are read one prime at a time
from one Jordan splitting of the p-part, kept on the form: it gives the mod-8
Gauss-sum signature (by the oddity formula), Nikulin's local existence
conditions (from the determinants of its blocks), which with the length
make his existence test (`genus_obstruction`), and decides isomorphism of
odd p-parts and 2-elementary 2-parts, while other 2-parts and degenerate
ones are compared by backtracking search; no floats.
"""

import itertools
import math
from fractions import Fraction
from operator import mul

from . import linalg
from .errors import (
    DegenerateForm,
    NotTwoElementary,
    OddLatticeQuadratic,
    TooLarge,
)
from .lattice import _factorization, _invariant_factors
from .linalg import Matrix

DESK_GROUP_BOUND = 30000  # largest group we are willing to enumerate


class FiniteQuadraticForm:
    """Finite abelian group with a Q/Z bilinear form and, when available, a
    Q/2Z quadratic form refining it; Q is None for a bilinear-only form.

    `_local` maps a prime p to the `_jordan` blocks of the p-part and its
    `_local_class`, both computed once per form object, when either is first
    read; the dict is allocated on first use."""

    __slots__ = ("orders", "den", "B", "Q", "_local")

    def __init__(self, orders, B, Q=None):
        """The form whose table at den = lcm(orders) is B and Q; entries
        need not be reduced."""
        self.orders = orders = tuple(orders)
        self.den = den = math.lcm(*orders)
        self.B = tuple(tuple(x % den for x in row) for row in B)
        self.Q = None if Q is None else tuple(x % (2 * den) for x in Q)
        self._local = None

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

    def neg(self):
        return FiniteQuadraticForm(
            self.orders,
            [[-x for x in row] for row in self.B],
            None if self.Q is None else [-x for x in self.Q],
        )

    def bilinear(self):
        """The same group and b, without the quadratic refinement."""
        return FiniteQuadraticForm(self.orders, self.B, None)

    def direct_sum(self, other):
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        k1, k2 = self.ngens, other.ngens
        B = [[s * x for x in row] + [0] * k2 for row in self.B]
        B += [[0] * k1 + [t * x for x in row] for row in other.B]
        Q = None
        if self.Q is not None and other.Q is not None:
            Q = [s * x for x in self.Q] + [t * x for x in other.Q]
        return FiniteQuadraticForm(self.orders + other.orders, B, Q)

    def __repr__(self):
        grp = " + ".join("Z/%d" % d for d in self.orders) or "0"
        if self.Q is not None:
            return "FiniteQuadraticForm(%s, q=%s)" % (grp, [str(x) for x in self.q])
        return "FiniteQuadraticForm(%s, bilinear only)" % grp


TRIVIAL_FORM = FiniteQuadraticForm((), (), ())


# ---------------------------------------------------------------------------
# construction from a lattice


def discriminant_form(lat):
    """Discriminant group of a lattice with its torsion forms.

    Quadratic values are attached when the lattice is even.  A direct sum
    gives the orthogonal sum of its summands' forms (the dual of L1 + L2 is
    L1* + L2*), so no Smith form of its whole Gram matrix runs; any other
    lattice gives the form on its Smith generators, `smith_form(lat)`.  A
    degenerate lattice raises DegenerateForm: its dual quotient is
    infinite.  The form is computed once per lattice object and kept on it,
    so every caller shares it; `element_lift` and `class_of` map its group
    to the dual lattice and back.
    """
    if lat._disc is None:
        lat._disc = _discriminant_form(lat)
    return lat._disc


def _discriminant_form(lat):
    """The form of `discriminant_form`, computed."""
    if lat._summands is None:
        return _smith_form(lat)
    # the orthogonal sum of the summands' forms; a unimodular summand has
    # the trivial form and is skipped
    form = TRIVIAL_FORM
    for s in lat._summands:
        if abs(s.det) != 1:
            f = discriminant_form(s)
            form = f if form.is_trivial() else form.direct_sum(f)
    # an odd unimodular summand leaves no trace in the forms but makes the
    # sum odd, and an odd lattice carries no quadratic form
    if not form.is_trivial() and form.Q is not None and not lat.is_even():
        form = form.bilinear()
    return form


def _smith_generators(lat):
    """(index, order) of each Smith column of the Gram matrix of `lat` whose
    divisor is neither 0 nor 1: column i of v over d_i is a generator of the
    dual quotient.  A zero divisor raises DegenerateForm."""
    divisors = lat.snf().divisors
    if 0 in divisors:
        raise DegenerateForm("degenerate form")
    return [(i, d) for i, d in enumerate(divisors) if d != 1]


def smith_form(lat):
    """The discriminant form on the Smith generators of the Gram matrix of
    `lat` itself, a direct sum's included: one generator per invariant
    factor.  A trivial group gives TRIVIAL_FORM, with its empty q, on an odd
    lattice too.  A lattice that is no sum has it as its discriminant form,
    kept on it; a sum's is read off its cached `lat.snf()` on each call."""
    return discriminant_form(lat) if lat._summands is None else _smith_form(lat)


def _smith_form(lat):
    """The form of `smith_form`, computed from `lat.snf()`."""
    gens = _smith_generators(lat)
    if not gens:
        return TRIVIAL_FORM
    v = lat.snf().v
    orders = [d for _, d in gens]
    cols = [v.col(i) for i, _ in gens]
    den = math.lcm(*orders)
    # generator i is c_i / d_i with c_i = cols[i]; c_i.G.c_j / (d_i d_j) has
    # denominator dividing d_i, so scaling by den = lcm(orders) is exact
    k = len(orders)
    B = [[0] * k for _ in range(k)]
    Q = [0] * k
    for i in range(k):
        gc = lat.gram.apply(cols[i])
        for j in range(i, k):
            dot = sum(map(mul, cols[j], gc))
            B[i][j] = B[j][i] = dot * den // (orders[i] * orders[j])
        Q[i] = B[i][i]
    return FiniteQuadraticForm(orders, B, Q if lat.is_even() else None)


def element_lift(lat, x):
    """An integer lattice-coordinate vector v with v / den in the dual
    lattice of class x, den that of `discriminant_form(lat)`; `class_of`
    is its inverse.  A direct sum lifts each summand's block of x, scaled to
    its den, onto that summand's coordinates, with zeros on a unimodular
    summand; any other lattice sums the Smith columns, each read once."""
    den = discriminant_form(lat).den
    out = [0] * lat.rank
    if lat._summands is not None:
        start = at = 0
        for s in lat._summands:
            if abs(s.det) != 1:
                f = discriminant_form(s)
                step = den // f.den
                block = element_lift(s, x[at:at + f.ngens])
                out[start:start + s.rank] = [step * c for c in block]
                at += f.ngens
            start += s.rank
        return tuple(out)
    v = lat.snf().v
    for c, (i, d) in zip(x, _smith_generators(lat)):
        if c:
            c *= den // d
            out = [o + c * r[i] for o, r in zip(out, v.rows)]
    return tuple(out)


def class_of(lat, vec):
    """Class in `discriminant_form(lat)` of the dual vector vec / den, vec
    an integer vector over the den of that form, like those of
    `element_lift`; a vector outside the dual lattice raises DegenerateForm.
    A direct sum reads each summand's block over that summand's den.
    Otherwise, with u G v = d, the coordinates w = v^-1 vec / den of a dual
    vector have d_i w_i integral, and d_i w_i mod d_i is its coefficient on
    generator i."""
    form = discriminant_form(lat)
    if form.is_trivial():
        return ()
    den = form.den
    coeffs = []
    if lat._summands is not None:
        start = 0
        for s in lat._summands:
            block, start = vec[start:start + s.rank], start + s.rank
            unimodular = abs(s.det) == 1
            step = den if unimodular else den // discriminant_form(s).den
            if any(x % step for x in block):
                raise DegenerateForm("vector is not in the dual lattice")
            if not unimodular:
                coeffs += class_of(s, [x // step for x in block])
        return tuple(coeffs)
    snf = lat.snf()
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
    every order_i * e_i and their span contains that of `rel_rows`.
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
        return TRIVIAL_FORM
    # the values on the new generators have denominators dividing the new
    # orders, so moving from form.den to their lcm is an exact division
    step = form.den // math.lcm(*orders)
    B = [[form._b(x, y) // step for y in lifts] for x in lifts]
    Q = None if form.Q is None else [form._q(x) // step for x in lifts]
    return FiniteQuadraticForm(orders, B, Q)


def subquotient_form(form, isotropic_gens):
    """Form induced on (S^perp)/S for an isotropic subgroup S.

    `isotropic_gens` are integer coefficient rows.  Returns the quotient as a
    FiniteQuadraticForm in invariant-factor presentation; for S = 0 the
    quotient is the form itself, returned as it is presented.
    """
    if form.is_trivial():
        return TRIVIAL_FORM
    if not isotropic_gens:
        return form
    perp = orthogonal_subgroup(form, [form.reduce(h) for h in isotropic_gens])
    rel = [tuple(h) for h in isotropic_gens] + list(Matrix.diagonal(form.orders).rows)
    return _presentation(form, perp.rows, rel)


# ---------------------------------------------------------------------------
# invariants


def delta_invariant(form):
    """0 when every quadratic value of a 2-elementary form is integral.

    On a 2-elementary group 2 b(x, y) is an integer, so q mod 1 is additive
    and the generators decide."""
    if any(d != 2 for d in form.orders):
        raise NotTwoElementary("delta needs a 2-elementary form")
    if form.Q is None:
        raise OddLatticeQuadratic("no quadratic refinement on this form")
    return int(any(v % form.den for v in form.Q))


def milgram_signature(form):
    """Residue s mod 8 with sum_x exp(pi i q(x)) = sqrt(|A|) exp(pi i s / 4).

    The Gauss sum is the product of those of the Jordan blocks, so s is the
    oddity minus the p-excesses (the oddity formula, SPLAG ch. 15 §7.7).
    """
    if form.Q is None:
        raise OddLatticeQuadratic("no quadratic refinement on this form")
    return sum(_block_signature(p, n, u) for p in _factorization(form.den)
               for n, u in _split(form, p)[0]) % 8


def _block_signature(p, n, u):
    """s mod 8 for the Gauss sum of one Jordan block (n, U) from `_jordan`,
    n = p^k.

    For odd p it is minus the p-excess, -(n - 1 + 4 [k odd, (u/p) = -1]).
    For p = 2 it is the oddity: u + 4 [k odd, u = +-3 mod 8] for a 1 x 1
    block, 0 for the hyperbolic plane (det U = -1 mod 8) and 4k for the
    other even plane (det U = 3 mod 8).
    """
    odd_power = math.isqrt(n) ** 2 != n
    if p != 2:
        (u,), = u
        return -(n - 1 + 4 * (odd_power and pow(u, (p - 1) // 2, p) != 1))
    if len(u) == 1:
        (u,), = u
        return u + 4 * (odd_power and u % 8 in (3, 5))
    det = u[0][0] * u[1][1] - u[0][1] ** 2
    return 4 * (odd_power and det % 8 == 3)


# ---------------------------------------------------------------------------
# isomorphism testing


def _match_maps(src, dst, sign):
    """The first bijective morphism src -> dst matching the torsion forms,
    or None.

    Images satisfy b(f x, f y) = sign * b(x, y) mod 1 and, when both forms
    carry q, q(f x) = sign * q(x) mod 2.  On the b parts alone (`bilinear`)
    this also forces q(f x) - sign * q(x) to be integral, as q(x) = b(x, x)
    mod 1, which is the right notion when gluing inside an odd overlattice.
    Returns the image matrix (rows in dst generator coordinates).
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
    # den and q-values residues mod 2 * den
    den = math.lcm(src.den, dst.den)
    s_scale, d_scale = den // src.den, den // dst.den
    q_den = 2 * den
    kk = dst.ngens
    dst_b = [[d_scale * x for x in row] for row in dst.B]

    def brow(y):
        """b(y, g_t) * den mod den for every dst generator g_t, read on the
        rows of the symmetric table."""
        return tuple([sum(map(mul, row, y)) % den for row in dst_b])

    by_key = {}
    rows_of = {}
    for y in dst.elements():
        row = brow(y)
        key = (dst.element_order(y), d_scale * dst._q(y) % q_den if have_q else None,
               sum(map(mul, y, row)) % den)
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
        want = want_int[i]
        return all(sum(map(mul, prev, row_y)) % den == want[j] for j, prev in enumerate(chosen))

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


def genus_obstruction(sig, form):
    """None when an even lattice of signature sig = (s+, s-) has the
    discriminant form `form` (Nikulin 1979, Thm 1.10.1); otherwise the
    condition that fails: "signature" when the Gauss-sum signature is not
    s+ - s- mod 8, "length" when the invariant factors outnumber s+ + s-, or
    the prime that `local_obstruction` returns."""
    if (milgram_signature(form) - sig[0] + sig[1]) % 8:
        return "signature"
    return length_or_local_obstruction(sig, form)


def length_or_local_obstruction(sig, form):
    """`genus_obstruction` past the signature congruence, for a caller that
    has the congruence already: "length", the prime of `local_obstruction`,
    or None.  Unlike the congruence, which factors all of form.den, it
    factors only the least invariant factor, and only when the length is
    s+ + s-."""
    if len(_invariant_factors(form.orders)) > sig[0] + sig[1]:
        return "length"
    return local_obstruction(form, sig)


def local_obstruction(form, sig):
    """The least prime at which no even lattice of signature sig = (s+, s-)
    with discriminant form `form` exists, or None (Nikulin 1979, Thm 1.10.1;
    the signature congruence and l(A) <= s+ + s- are checked by
    `genus_obstruction` and `length_or_local_obstruction`, which call this
    last).  Only p
    with l(A_p) = s+ + s- count: l(A) = s+ + s- and p divides the least
    invariant factor, read from the invariant factors, not the generators,
    so every presentation of a form gets one answer.  With u the product of
    the determinants of the `_jordan` blocks of A_p and m = |A| / |A_p|, odd
    p needs ((-1)^(s-) m u / p) = 1, and p = 2 needs m u = +-1 mod 8 unless
    A_2 has a Z/2 summand with b(x, x) = 1/2, a 1 x 1 block of order 2."""
    if form.Q is None:
        raise OddLatticeQuadratic("only even lattices have a quadratic form")
    factors = _invariant_factors(form.orders)
    if not factors or len(factors) != sig[0] + sig[1]:
        return None
    for p in sorted(_factorization(factors[0])):
        blocks = _split(form, p)[0]
        unit = form.group_order // math.prod(n ** len(u) for n, u in blocks)
        for n, u in blocks:
            unit *= u[0][0] if len(u) == 1 else u[0][0] * u[1][1] - u[0][1] ** 2
        if p == 2:
            theta = any(n == 2 and len(u) == 1 for n, u in blocks)
            if not theta and unit % 8 not in (1, 7):
                return p
        elif pow((-1) ** sig[1] * unit, (p - 1) // 2, p) != 1:
            return p
    return None


def _p_form(form, p):
    """The p-part of `form` as a form of its own, on the generators
    x_i = c_i e_i of orders n_i, the p-parts of the orders: at
    top = max n_i its table is top b(x_i, x_j), with top q(x_i) on the
    diagonal."""
    gens = []
    for i, o in enumerate(form.orders):
        n = math.gcd(o, p ** o.bit_length())  # the p-part of o
        if n > 1:
            gens.append((i, o // n, n))
    if len(gens) == form.ngens and all(c == 1 for _, c, _ in gens):
        return form  # a p-group is its own p-part, on the same generators
    top = max(n for _, _, n in gens)
    # exact: b(x_i, x_j) and q(x_i) lie in (1 / n_i) Z
    B = [[top * ci * cj * form.B[i][j] // form.den for j, cj, _ in gens] for i, ci, _ in gens]
    Q = None if form.Q is None else [top * ci * ci * form.Q[i] // form.den for i, ci, _ in gens]
    return FiniteQuadraticForm([n for _, _, n in gens], B, Q)


def _jordan(form, p):
    """Jordan splitting of the p-part of a form: blocks (n, U) whose
    orthogonal sum is the p-part, block (n, U) being (Z/n)^k, k = len(U),
    with b = U / n and q = U_ii / n (Conway-Sloane, SPLAG ch. 15 §7).  U is
    1 x 1 for odd p, and 1 x 1 or 2 x 2 with even diagonal for p = 2; its
    determinant is a p-adic unit.  A degenerate p-part raises DegenerateForm.

    The table of `_p_form`, top b(x_i, x_j) with top q(x_i) on the diagonal,
    is read as the Gram matrix of a p-adic lattice and split by unimodular
    row and column operations modulo top (2 top where p = 2 and the diagonal
    carries q; on a bilinear-only form U is b alone, read modulo n): pivot
    on an entry of least valuation, on the diagonal when one has it (the
    first diagonal unit, when there is one), and clear its rows.  The table
    is cleared in place; the rows and columns of the blocks already split
    off are left stale and never read again.
    """
    pf = _p_form(form, p)
    top = pf.den
    mod = 2 * top if p == 2 and pf.Q is not None else top
    h = [list(row) for row in pf.B]
    for i, q in enumerate(pf.Q or ()):
        h[i][i] = q % mod
    live = list(range(len(h)))  # the rows and columns not yet split off
    blocks = []
    while live:
        unit = next(((1, False, i, i) for i in live if math.gcd(h[i][i], top) == 1), None)
        s, off, i, j = unit or min((math.gcd(h[i][j], top), i != j, i, j)
                                   for i in live for j in live if j >= i)
        if s == top:
            raise DegenerateForm("degenerate finite quadratic form")
        if off and p != 2:
            # 2 is a unit, so e_i + e_j has the least valuation on the diagonal
            hi, hj = h[i], h[j]
            for t in live:
                hi[t] += hj[t]
            for t in live:
                h[t][i] += h[t][j]
            off = False
        piv = (i, j) if off else (i,)
        n = top // s
        u = [[h[a][b] // s % (mod // s if a == b else n) for b in piv] for a in piv]
        if off:
            det = u[0][0] * u[1][1] - u[0][1] ** 2
            adj = [(u[1][1], -u[0][1]), (-u[1][0], u[0][0])]
        else:
            det, adj = u[0][0], [(1,)]
        inv_det = pow(det, -1, mod)
        # the columns of U^-1 = adj / det modulo mod, each with its pivot row
        cols = [([inv_det * x % mod for x in col], h[a]) for col, a in zip(zip(*adj), piv)]
        live = [t for t in live if t not in piv]
        for t in live:
            # e_t - c e_piv is orthogonal to the block for c = (h_t,piv / s) U^-1;
            # the entries of a row nothing is subtracted from are reduced already
            ht = h[t]
            w = [ht[a] // s for a in piv]
            for col, row in cols:
                c = sum(map(mul, w, col)) % mod
                if c:
                    ht = [x - c * y for x, y in zip(ht, row)]
            if ht is not h[t]:
                h[t] = [x % mod for x in ht]
        blocks.append((n, tuple(map(tuple, u))))
    if math.prod(n ** len(u) for n, u in blocks) != pf.group_order:
        raise DegenerateForm("degenerate finite quadratic form")
    return blocks


def _local_class(form, p):
    """A complete invariant of the nondegenerate p-part, or None where only
    a search decides (2-parts that are not 2-elementary).

    Odd p: per scale n, the dimension and the Legendre class of the
    determinant of the Jordan component (SPLAG ch. 15 §7).  A 2-elementary
    2-part: whether q (b, on a bilinear-only form) is non-integral on some
    element, and the Gauss-sum signature (Nikulin 1979, Thm 3.6.2).
    """
    return _split(form, p)[1]


def _split(form, p):
    """(the `_jordan` blocks of the p-part, its `_local_class`), computed
    once per form object and kept in `form._local`; a degenerate p-part
    raises DegenerateForm and leaves nothing there."""
    if form._local is None:
        form._local = {}
    elif p in form._local:
        return form._local[p]
    blocks = _jordan(form, p)
    if p != 2:
        scales = {}
        for n, ((u,),) in blocks:
            dim, det = scales.get(n, (0, 1))
            scales[n] = (dim + 1, det * u % p)
        out = sorted((n, dim, pow(det, (p - 1) // 2, p)) for n, (dim, det) in scales.items())
    elif any(n != 2 for n, _ in blocks):
        out = None
    else:
        signature = None if form.Q is None else \
            sum(_block_signature(2, n, u) for n, u in blocks) % 8
        out = any(len(u) == 1 for _, u in blocks), signature
    form._local[p] = blocks, out
    return blocks, out


def forms_isomorphic(f, g):
    """Decide isomorphism of finite quadratic forms in any presentations,
    one prime at a time.

    The groups must have the same invariant factors (Z/6 is Z/2 + Z/3), and
    a form is the orthogonal sum of its p-parts.  A nondegenerate p-part is
    decided by `_local_class`, at any group order, when p is odd or the
    2-part is 2-elementary; other 2-parts and degenerate p-parts by
    generator search (`_match_maps`), which raises TooLarge above
    DESK_GROUP_BOUND.
    """
    if _invariant_factors(f.orders) != _invariant_factors(g.orders) \
            or (f.Q is None) != (g.Q is None):
        return False
    for p in _factorization(f.den):
        try:
            cf, cg = _local_class(f, p), _local_class(g, p)
        except DegenerateForm:
            cf = cg = None
        if cf != cg or cf is None and _match_maps(_p_form(f, p), _p_form(g, p), 1) is None:
            return False
    return True

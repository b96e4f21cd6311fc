"""Exact integer matrix kernel.

Every matrix holds Python ints; rational data elsewhere in the package is an
integer matrix over one denominator.  No floating point and no fraction
enters any computation.  Sizes stay small (rank <= 26 throughout the
package), so classical fraction-free algorithms are used: SNF by elimination
with smallest-pivot selection (carrying the inverse of its column
transform), row-style HNF, forward substitution on a triangular HNF, and one
symmetric Bareiss elimination (`symmetric_elimination`), the only Bareiss
kernel, whose leading minors, echelon rows and orthogonal basis give
determinants, signatures, spinor reflections and the bounds of vector
enumeration.  Every dot product is written inline as `sum(map(mul, a, b))`,
one loop in C per entry; a shared helper would cost a Python call per vector.
"""

from dataclasses import dataclass
from operator import mul

from .errors import DegenerateForm, DimensionMismatch


class Matrix:
    """Immutable dense matrix of Python ints."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise DimensionMismatch("ragged rows")
        self.rows = rows

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def diagonal(cls, entries):
        n = len(entries)
        return cls(tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i):
        return self.rows[i]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Matrix(%r)" % (self.rows,)

    def transpose(self):
        return Matrix(tuple(zip(*self.rows))) if self.rows else Matrix(())

    @property
    def T(self):
        return self.transpose()

    def __add__(self, other):
        if self.shape != other.shape:
            raise DimensionMismatch("add %s vs %s" % (self.shape, other.shape))
        return Matrix(tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix(tuple(tuple(-a for a in r) for r in self.rows))

    def scale(self, k):
        return Matrix(tuple(tuple(k * a for a in r) for r in self.rows))

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch("matmul %s vs %s" % (self.shape, other.shape))
        cols = other.transpose().rows
        return Matrix(tuple(tuple([sum(map(mul, r, c)) for c in cols]) for r in self.rows))

    def apply(self, vec):
        """Matrix-times-column-vector, vec given as a sequence."""
        if self.ncols != len(vec):
            raise DimensionMismatch("apply %s to length %d" % (self.shape, len(vec)))
        return tuple([sum(map(mul, r, vec)) for r in self.rows])

    def is_symmetric(self):
        return self.rows == self.transpose().rows


def block_diag(mats):
    """Block-diagonal sum of square matrices."""
    n = sum(m.nrows for m in mats)
    rows = []
    off = 0
    for m in mats:
        for r in m.rows:
            rows.append((0,) * off + tuple(r) + (0,) * (n - off - m.ncols))
        off += m.ncols
    return Matrix(tuple(rows))


def stack(mats):
    """Vertical concatenation of matrices with equal column count."""
    rows = []
    for m in mats:
        rows.extend(m.rows)
    return Matrix(tuple(rows))


def triangular_solve(h, b):
    """Integer rows x with x @ h = b for an upper triangular h with nonzero
    diagonal, by forward substitution on the columns of h; raises
    DimensionMismatch when a row of b is not in the row lattice of h."""
    cols = h.transpose().rows
    out = []
    for r in b.rows:
        x = []
        for j, (rj, col) in enumerate(zip(r, cols)):
            # sum_{k <= j} x_k h_kj = r_j, with x holding x_0 .. x_{j-1}
            q, rem = divmod(rj - sum(map(mul, x, col)), col[j])
            if rem:
                raise DimensionMismatch("row not in the lattice spanned by the triangular rows")
            x.append(q)
        out.append(tuple(x))
    return Matrix(tuple(out))


@dataclass(frozen=True)
class SnfResult:
    """u @ m @ v == d with d diagonal, d1 | d2 | ..., |det u| = |det v| = 1,
    and v_inv @ v == identity."""

    d: Matrix
    u: Matrix
    v: Matrix
    v_inv: Matrix

    @property
    def divisors(self):
        return tuple(self.d[i, i] for i in range(min(self.d.nrows, self.d.ncols)))


def smith_normal_form(m):
    """Smith normal form with unimodular transforms, pivoting on the smallest
    nonzero entry to keep coefficient growth down.  Each column operation on
    v is matched by its inverse row operation on v_inv, so v_inv is v^-1
    without a further elimination."""
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

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    t = 0
    while t < min(r, c):
        # locate the first smallest nonzero entry in the trailing block; no
        # entry is strictly smaller than a unit, so the scan stops at one
        piv, least = None, 0
        for i in range(t, r):
            row = a[i]
            for j in range(t, c):
                x = abs(row[j])
                if x and (piv is None or x < least):
                    piv, least = (i, j), x
                    if x == 1:
                        break
            if least == 1:
                break
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        dirty = False
        for i in range(t + 1, r):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                row_op(i, t, q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, c):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                col_op(j, t, q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by the pivot; a unit
        # divides everything
        bad = None
        if least != 1:
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if a[i][j] % a[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
        if bad is not None:
            row_op(t, bad, -1)
            continue
        t += 1
    for i in range(min(r, c)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return SnfResult(Matrix(a), Matrix(u), Matrix(v), Matrix(v_inv))


def hermite_normal_form(m):
    """Row-style HNF: returns (h, u) with u @ m = h, u unimodular.

    Pivots are positive, entries below a pivot are zero and entries above are
    reduced into [0, pivot).  Zero rows sink to the bottom.
    """
    r, c = m.nrows, m.ncols
    a = [list(row) for row in m.rows]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    piv_row = 0
    for j in range(c):
        # gcd out column j below piv_row
        k = None
        for i in range(piv_row, r):
            if a[i][j]:
                k = i
                break
        if k is None:
            continue
        a[piv_row], a[k] = a[k], a[piv_row]
        u[piv_row], u[k] = u[k], u[piv_row]
        changed = True
        while changed:
            changed = False
            for i in range(piv_row + 1, r):
                if a[i][j]:
                    if abs(a[i][j]) < abs(a[piv_row][j]):
                        a[piv_row], a[i] = a[i], a[piv_row]
                        u[piv_row], u[i] = u[i], u[piv_row]
                    q = a[i][j] // a[piv_row][j]
                    a[i] = [x - q * y for x, y in zip(a[i], a[piv_row])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[piv_row])]
                    if a[i][j]:
                        changed = True
        if a[piv_row][j] < 0:
            a[piv_row] = [-x for x in a[piv_row]]
            u[piv_row] = [-x for x in u[piv_row]]
        for i in range(piv_row):
            q = a[i][j] // a[piv_row][j]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[piv_row])]
                u[i] = [x - q * y for x, y in zip(u[i], u[piv_row])]
        piv_row += 1
        if piv_row == r:
            break
    return Matrix(a), Matrix(u)


def integer_kernel(m):
    """Basis (rows) of the saturated left kernel {x in Z^r : x @ m = 0}."""
    h, u = hermite_normal_form(m)
    rows = [u.row(i) for i in range(m.nrows) if all(x == 0 for x in h.row(i))]
    return Matrix(tuple(rows)) if rows else Matrix(())


@dataclass(frozen=True)
class SymmetricElimination:
    """Bareiss elimination of a nondegenerate symmetric integer matrix G.

    Congruence pivoting turns G into G' = P G P^T with P unimodular; P is the
    identity whenever no diagonal entry vanishes during the elimination, in
    particular for every definite G.  With D_0 = 1:

    * `minors` are the leading principal minors D_1..D_n of G' (D_n = det G);
    * `rows[k]` is row k of the Bareiss echelon form of G': zero before
      column k and D_{k+1} at column k, so that
      y^T G' y = sum_k (rows[k] . y)^2 / (D_k D_{k+1});
    * `basis[k]` is an integer vector in the coordinates of G; the basis
      rows are pairwise orthogonal for G and basis[k] has norm D_k D_{k+1}.
    """

    minors: tuple
    rows: tuple
    basis: tuple

    @property
    def det(self):
        return self.minors[-1] if self.minors else 1

    @property
    def signature(self):
        """(n_plus, n_minus): pivot k is D_{k+1} / D_k, positive exactly when
        the two minors have the same sign."""
        n_plus = 0
        prev = 1
        for d in self.minors:
            n_plus += (d > 0) == (prev > 0)
            prev = d
        return (n_plus, len(self.minors) - n_plus)


def symmetric_elimination(g):
    """Symmetric Bareiss elimination of a nondegenerate symmetric integer
    matrix; see SymmetricElimination.

    A vanishing pivot is replaced by a later nonzero diagonal entry (a
    symmetric swap), otherwise by adding row and column j to row and column
    k for the first j with a nonzero off-diagonal entry, which makes the
    pivot twice that entry.  Every division is exact: after step k each
    entry is a (k+1)-minor of [G' | P].

    A step whose multiplier on a row is zero would only rescale that row by
    the ratio of consecutive minors, so a row records the minor it is
    current for and is brought up to date, x -> x D_k / D_seen (exact), only
    when its multiplier is nonzero, when it becomes the pivot row, or when it
    takes part in a zero-pivot swap or add.  A banded Gram then costs O(n^2)
    rather than O(n^3) big-integer work.
    """
    if not g.is_symmetric():
        raise DegenerateForm("matrix not symmetric")
    n = g.nrows
    a = [list(r) for r in g.rows]
    b = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    seen = [1] * n  # the leading minor each row of a and b is current for
    minors = []
    prev = 1

    def catch_up(i):
        s = seen[i]
        if s != prev:
            a[i] = [x * prev // s for x in a[i]]
            b[i] = [x * prev // s for x in b[i]]
            seen[i] = prev

    for k in range(n):
        catch_up(k)
        if a[k][k] == 0:
            # a stale row differs from its current one by a nonzero factor,
            # so its zero entries are read as they are
            j = next((j for j in range(k + 1, n) if a[j][j]), None)
            if j is not None:
                catch_up(j)
                a[k], a[j] = a[j], a[k]
                b[k], b[j] = b[j], b[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j]), None)
                if j is None:
                    raise DegenerateForm("degenerate form")
                catch_up(j)
                a[k] = [x + y for x, y in zip(a[k], a[j])]
                b[k] = [x + y for x, y in zip(b[k], b[j])]
                for row in a:
                    row[k] += row[j]
        piv = a[k][k]
        minors.append(piv)
        ak, bk = a[k], b[k]
        for i in range(k + 1, n):
            if a[i][k]:
                catch_up(i)
                f = a[i][k]
                a[i] = [(x * piv - f * y) // prev for x, y in zip(a[i], ak)]
                b[i] = [(x * piv - f * y) // prev for x, y in zip(b[i], bk)]
                seen[i] = piv
        prev = piv
    return SymmetricElimination(tuple(minors), tuple(tuple(r) for r in a),
                                tuple(tuple(r) for r in b))

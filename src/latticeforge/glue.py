"""Overlattices, primitive embeddings, orthogonal complements, saturation.

Sublattices carry their ambient lattice and a basis given as integer rows of
coordinates.  Overlattices are built by Hermite reduction of integer
generators stacked over one common denominator, so bases are canonical and
stable.
"""

from dataclasses import dataclass
from math import gcd, lcm, prod
from operator import mul

from . import discform, linalg
from .errors import (
    DegenerateComplement,
    DimensionMismatch,
    InfeasibleSignature,
    NotComplementary,
    NotIsotropic,
    NotIsotropicGraph,
)
from .lattice import Lattice
from .linalg import Matrix


class Sublattice:
    """Z-span of integer row vectors inside an ambient lattice."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient, basis):
        if not isinstance(basis, Matrix):
            basis = Matrix(basis)
        if basis.nrows and basis.ncols != ambient.rank:
            raise DimensionMismatch("basis rows must have ambient rank length")
        self.ambient = ambient
        self.basis = basis

    @property
    def rank(self):
        return self.basis.nrows

    def gram(self):
        b = self.basis
        return (b @ self.ambient.gram @ b.T) if b.nrows else Matrix(())

    def lattice(self, label=None):
        return Lattice(self.gram(), label)

    def __repr__(self):
        return "Sublattice(rank %d of %r)" % (self.rank, self.ambient)


def _hnf_rows(m):
    if m.nrows == 0:
        return m
    h, _ = linalg.hermite_normal_form(m)
    return Matrix(tuple(r for r in h.rows if any(r)))


def span(ambient, rows):
    """Sublattice spanned by the given rows (must be independent)."""
    m = Matrix(rows)
    if m.nrows and _hnf_rows(m).nrows != m.nrows:
        raise DimensionMismatch("rows are linearly dependent")
    return Sublattice(ambient, m)


def saturation_index(s):
    """Index of s inside its saturation: the product of the Smith divisors of
    its basis, as the saturation is the rational span of s meet Z^n."""
    divisors = linalg.smith_normal_form(s.basis).divisors
    if not all(divisors) or len(divisors) != s.rank:
        raise DimensionMismatch("rank drop during saturation")
    return prod(divisors)


def orthogonal_complement(s):
    """Primitive sublattice of everything orthogonal to s: the integer kernel
    of G B^T, which depends only on the rational span of the basis B."""
    n = s.ambient.rank
    if s.rank == 0:
        return Sublattice(s.ambient, Matrix.identity(n))
    m = s.ambient.gram @ s.basis.T  # n x k
    rows = linalg.integer_kernel(m)
    comp = Sublattice(s.ambient, rows)
    if comp.rank and comp.lattice().det == 0:
        raise DegenerateComplement("induced form on the complement is degenerate")
    return comp


@dataclass
class Extension:
    """An overlattice together with coordinate bookkeeping.

    The new basis is `rows / den` in the old coordinates: `rows` is the
    integer Hermite normal form (upper triangular, positive diagonal) of the
    generators scaled by `den`.  `old_in_new` rows express the old basis
    vectors in the new basis, so old_in_new @ rows = den * identity.
    """

    lattice: Lattice
    rows: Matrix
    den: int
    old_in_new: Matrix

    @property
    def index(self):
        """Index [M : L] of the original lattice L in the overlattice M: the
        new basis is rows / den, so [M : L] = den^n / det(rows)."""
        n = self.rows.nrows
        return self.den ** n // prod(self.rows[i, i] for i in range(n))


def overlattice(lat, rows, den, require_even=None, label=None):
    """Overlattice of `lat` generated by the dual vectors rows / den.

    `rows` are integer coordinate rows over the positive denominator `den`;
    the vectors must pair integrally with the lattice and with each other
    (bilinear isotropy of the subgroup they span).  With require_even=True
    their norms must also be even.

    All arithmetic is in integers: with rows and den divided by their common
    factor, the HNF H of rows stacked over den * identity gives the new basis
    H / den, the Gram matrix H G H^T // den^2 (integrality is its
    divisibility by den^2) and old_in_new = den * H^-1.
    """
    n = lat.rank
    if require_even is None:
        require_even = lat.is_even()
    rows = [tuple(v) for v in rows]
    if any(len(v) != n for v in rows):
        raise DimensionMismatch("lift of wrong length")
    g = gcd(den, *(x for v in rows for x in v))
    den //= g
    stacked = [tuple(x // g for x in v) for v in rows]
    stacked += [tuple(den if j == i else 0 for j in range(n)) for i in range(n)]
    h = _hnf_rows(Matrix(stacked))
    if h.nrows != n:
        raise DimensionMismatch("overlattice basis is not full rank")
    scaled = h @ lat.gram @ h.T
    den2 = den * den
    if any(x % den2 for r in scaled.rows for x in r):
        raise NotIsotropic("generators do not pair integrally")
    gram = Matrix(tuple(tuple(x // den2 for x in r) for r in scaled.rows))
    if require_even and any(gram[i, i] % 2 for i in range(n)):
        raise NotIsotropic("overlattice of an even lattice fails to be even")
    old_in_new = linalg.triangular_solve(h, Matrix.identity(n).scale(den))
    return Extension(Lattice(gram, label), h, den, old_in_new)


@dataclass
class GlueData:
    """Gluing data for a primitive extension of left + right.

    `subgroup` rows are coefficient vectors in the generators of disc(left);
    `images` rows are their images in the generators of disc(right).
    """

    left: Lattice
    right: Lattice
    subgroup: Matrix
    images: Matrix


def primitive_extension(g, require_even=None, label=None):
    """Overlattice of left + right along the graph of the gluing map.

    Returns (extension, left_rows, right_rows); the row matrices embed the
    factors into the extension.  Raises NotIsotropicGraph when the glue
    violates integrality.
    """
    left, right = g.left, g.right
    fl, ll = discform.discriminant_form(left)
    fr, lr = discform.discriminant_form(right)
    amb = Lattice(linalg.block_diag([left.gram, right.gram]))
    nl = left.rank
    # both lifts over one denominator
    den = lcm(fl.den, fr.den)
    sl, sr = den // fl.den, den // fr.den
    rows = []
    for xrow, yrow in zip(g.subgroup.rows, g.images.rows):
        vx = discform.element_lift(ll, fl.reduce(xrow))
        vy = discform.element_lift(lr, fr.reduce(yrow))
        rows.append(tuple(sl * x for x in vx) + tuple(sr * y for y in vy))
    try:
        ext = overlattice(amb, rows, den, require_even=require_even, label=label)
    except NotIsotropic as e:
        raise NotIsotropicGraph(str(e)) from e
    left_rows = Matrix(ext.old_in_new.rows[:nl])
    right_rows = Matrix(ext.old_in_new.rows[nl:])
    return ext, left_rows, right_rows


def trivial_glue(left, right):
    return GlueData(left, right, Matrix(()), Matrix(()))


def full_glue(left, right):
    """Glue data identifying the whole discriminant groups, or None.  The
    map is an anti-isometry when both lattices and forms are even, and
    otherwise, or when no anti-isometry exists, anti-preserves b with
    q(img) + q(x) integral.  This is the standard glue for complements
    inside a unimodular lattice.  Both searches need b anti-preserved, so
    forms whose b parts are not anti-isometric return None unsearched."""
    fl, _ = discform.discriminant_form(left)
    fr, _ = discform.discriminant_form(right)
    if not discform.forms_isomorphic(fl.bilinear(), fr.bilinear().neg()):
        return None
    images = None
    if fl.Q is not None and fr.Q is not None and left.is_even() and right.is_even():
        images = discform._match_maps(fl, fr, -1)
    if images is None:
        images = discform._match_maps(fl, fr, -1, q_mod=1)
    if images is None:
        return None
    return GlueData(left, right, Matrix.identity(fl.ngens), images)


def complement_genus(host_form, host_sig, sub, glue):
    """Signature and discriminant form of the orthogonal complement of a
    primitive embedding of `sub` into a host with discriminant form
    `host_form` and signature `host_sig`.

    `glue` is (subgroup_rows, image_rows): a subgroup of disc(sub) mapped
    q-preservingly into the host form.
    """
    sig = (host_sig[0] - sub.signature[0], host_sig[1] - sub.signature[1])
    if sig[0] < 0 or sig[1] < 0:
        raise InfeasibleSignature("complement signature would be negative")
    fs, _ = discform.discriminant_form(sub)
    big = fs.neg().direct_sum(host_form)
    sub_rows, img_rows = glue
    graph = []
    for xr, yr in zip(sub_rows.rows, img_rows.rows):
        x = fs.reduce(xr)
        y = host_form.reduce(yr)
        if host_form.q_of(y) != fs.q_of(x):
            raise NotIsotropic("glue map must preserve quadratic values")
        graph.append(tuple(x) + tuple(y))
    return sig, discform.subquotient_form(big, graph)


def glue_group(ambient, s1, s2, p=None):
    """Quotient of the ambient lattice by the direct sum of two orthogonal
    primitive sublattices; returns (orders, a)."""
    if s1.rank + s2.rank != ambient.rank:
        raise NotComplementary("ranks do not sum to the ambient rank")
    for v in s1.basis.rows:
        gv = ambient.gram.apply(v)
        for w in s2.basis.rows:
            if sum(map(mul, w, gv)) != 0:
                raise NotComplementary("sublattices are not orthogonal")
    if s1.rank and s2.rank:
        stacked = linalg.stack([s1.basis, s2.basis])
    else:
        stacked = s1.basis if s1.rank else s2.basis
    snf = linalg.smith_normal_form(stacked)
    orders = tuple(d for d in snf.divisors if d not in (0, 1))
    a = len(orders)
    if p is not None and any(d != p for d in orders):
        raise NotComplementary("glue group is not p-elementary for p=%d" % p)
    return orders, a

"""Overlattices, primitive embeddings and their glues, orthogonal
complements, saturation.

Sublattices carry their ambient lattice and a basis given as integer rows of
coordinates.  Overlattices are built by Hermite reduction of integer
generators stacked over one common denominator, so bases are canonical and
stable.
"""

import copy
import itertools
from dataclasses import dataclass
from math import gcd, prod
from operator import mul

from . import discform, linalg
from .errors import (
    BadParams,
    DegenerateComplement,
    DimensionMismatch,
    NotComplementary,
    NotIsotropic,
    NotIsotropicGraph,
)
from .lattice import Lattice, direct_sum
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

    def lattice(self):
        return Lattice(self.gram())

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


def overlattice(lat, rows, den, require_even=None):
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
    return Extension(Lattice(gram), h, den, old_in_new)


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


def primitive_extension(g, require_even=None):
    """Overlattice of left + right along the graph of the gluing map.

    Returns (extension, left_rows, right_rows); the row matrices embed the
    factors into the extension.  Raises NotIsotropicGraph when the glue
    violates integrality.
    """
    # the form of left + right is that of left beside that of right
    amb = direct_sum([g.left, g.right])
    form = discform.discriminant_form(amb)
    rows = [discform.element_lift(amb, form.reduce(x + y))
            for x, y in zip(g.subgroup.rows, g.images.rows)]
    try:
        ext = overlattice(amb, rows, form.den, require_even=require_even)
    except NotIsotropic as e:
        raise NotIsotropicGraph(str(e)) from e
    left_rows = Matrix(ext.old_in_new.rows[:g.left.rank])
    right_rows = Matrix(ext.old_in_new.rows[g.left.rank:])
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
    fl = discform.discriminant_form(left)
    fr = discform.discriminant_form(right)
    if not discform.forms_isomorphic(fl.bilinear(), fr.bilinear().neg()):
        return None
    images = None
    if fl.Q is not None and fr.Q is not None and left.is_even() and right.is_even():
        images = discform._match_maps(fl, fr, -1)
    if images is None:
        images = discform._match_maps(fl.bilinear(), fr.bilinear(), -1)
    if images is None:
        return None
    return GlueData(left, right, Matrix.identity(fl.ngens), images)


def embedding_glues(fs, fh):
    """Every (generators of H, their images) for a subgroup H of the form
    fs = Z/3 or (Z/3)^2 and an isometric embedding of H into the form fh,
    the glues of Nikulin (1979, Prop. 1.15.1): the trivial H, the lines,
    then the whole group.  As H is a 3-group, q on the generators and their
    sum decides isometry, and nonzero images make the map injective.  When
    the 3-part of fh is 3-elementary, O(q_fh) is transitive on the
    embeddings of each H (Witt's extension theorem over F_3), so only the
    first is given; otherwise every one is.  The 3-torsion of fh is read
    lazily, as far as the glues asked for need it."""
    if fs.orders not in ((3,), (3, 3)):
        raise BadParams("embedding_glues needs Z/3 or (Z/3)^2, not %r" % (fs,))
    # y in the 3-torsion of fh (0, o/3 and 2o/3 in each Z/o) has q(y) = q(h)
    # iff 3 fh._q(y) = fh.den fs._q(h), fs being over den 3; `read` computes
    # each 3 fh._q(y) once, when the first of its copies reaches y
    torsion = itertools.product(*[range(0, o, o // 3) if o % 3 == 0 else (0,) for o in fh.orders])
    next(torsion)  # zero
    read, = itertools.tee(((y, 3 * fh._q(y)) for y in torsion), 1)

    def images(h):
        qh = fh.den * fs._q(h)
        return (y for y, qy in copy.copy(read) if qy == qh)

    lines = [(1,)] if fs.ngens == 1 else [(1, 0), (0, 1), (1, 1), (1, 2)]
    glues = [((), [()])] + [((h,), ((y,) for y in images(h))) for h in lines]
    if fs.ngens == 2:
        q_sum = fh.den * fs._q((1, 1))
        glues.append((((1, 0), (0, 1)), (
            (y1, y2) for y1 in images((1, 0)) for y2 in images((0, 1))
            if 3 * fh._q(tuple(map(sum, zip(y1, y2)))) == q_sum)))
    every = any(o % 9 == 0 for o in fh.orders)
    for gens, found in glues:
        for ims in itertools.islice(found, None if every else 1):
            yield gens, ims


def complement_forms(fs, fh):
    """(generators of H, complement form) for every glue of
    `embedding_glues(fs, fh)`: the form on Gamma^perp / Gamma in -fs + fh,
    Gamma the graph of the glue, which is the discriminant form of the
    orthogonal complement of a primitive embedding of a lattice with form fs
    into one with form fh (Nikulin 1979, Prop. 1.15.1)."""
    big = fs.neg().direct_sum(fh)
    for gens, images in embedding_glues(fs, fh):
        yield gens, discform.subquotient_form(big, [x + y for x, y in zip(gens, images)])


def glue_group(ambient, s1, s2):
    """Quotient of the ambient lattice by the direct sum of two orthogonal
    primitive sublattices, as its invariant factors."""
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
    return tuple(d for d in snf.divisors if d not in (0, 1))

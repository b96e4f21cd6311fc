"""Lattice isometries: invariant/coinvariant splitting, discriminant action,
spinor norm, and the canonical rank-26 extension."""

import functools
from dataclasses import dataclass
from math import gcd
from operator import mul

from . import discform, glue, linalg
from .errors import (
    DegenerateForm,
    InfiniteOrder,
    NontrivialDiscAction,
    NotAnIsometry,
    TooLarge,
)
from .lattice import direct_sum, make_named
from .linalg import Matrix

ORDER_CAP = 120  # everything in scope has prime order <= 23; the cap guards junk input


class Isometry:
    """Integer matrix preserving a nondegenerate Gram matrix; acts on column
    vectors.  From M^T G M = G and det G != 0, det M = +-1 follows."""

    __slots__ = ("lattice", "matrix")

    def __init__(self, lattice, matrix):
        if not isinstance(matrix, Matrix):
            matrix = Matrix(matrix)
        if any(type(x) is not int for r in matrix.rows for x in r):
            raise NotAnIsometry("matrix entries must be integers")
        if matrix.shape != (lattice.rank, lattice.rank):
            raise NotAnIsometry("matrix size does not match the rank")
        if matrix.T @ lattice.gram @ matrix != lattice.gram:
            raise NotAnIsometry("matrix does not preserve the Gram matrix")
        if lattice.det == 0:
            raise DegenerateForm("degenerate form")
        self.lattice = lattice
        self.matrix = matrix

    def __mul__(self, other):
        return Isometry(self.lattice, self.matrix @ other.matrix)

    def apply(self, v):
        return self.matrix.apply(v)

    def __repr__(self):
        return "Isometry(%r)" % (self.lattice,)


def isometry_order(f, cap=ORDER_CAP):
    """Smallest k >= 1 with f^k = id, or None when f has infinite order.

    The order is infinite once some |tr f^k| exceeds the rank: an isometry of
    finite order has roots of unity for eigenvalues.  An order neither found
    nor proved infinite within `cap` powers raises TooLarge."""
    n = f.lattice.rank
    ident = Matrix.identity(n)
    power = f.matrix
    for k in range(1, cap + 1):
        if power == ident:
            return k
        if abs(sum(power[i, i] for i in range(n))) > n:
            return None
        power = power @ f.matrix
    raise TooLarge("isometry order exceeds the cap %d" % cap)


@dataclass
class InvariantPair:
    """Fixed sublattice of an isometry and its orthogonal complement."""

    invariant: glue.Sublattice
    coinvariant: glue.Sublattice
    glue_orders: tuple

    @property
    def ambient(self):
        return self.invariant.ambient


def invariant_coinvariant(f):
    """Saturated fixed sublattice and its orthogonal complement.

    The fixed lattice is the integer kernel of f - 1, so an order beyond
    `ORDER_CAP` is no obstacle.  A proved infinite order is refused, and so
    is a degenerate fixed lattice, which on a nondegenerate lattice only an
    isometry of infinite order has."""
    try:
        infinite = isometry_order(f) is None
    except TooLarge:
        infinite = False
    if infinite:
        raise InfiniteOrder("isometry has infinite order")
    n = f.lattice.rank
    diff = f.matrix - Matrix.identity(n)
    inv_rows = linalg.integer_kernel(diff.T)
    inv = glue.Sublattice(f.lattice, inv_rows)
    if inv.rank and inv.lattice().det == 0:
        raise DegenerateForm("the fixed lattice of the isometry is degenerate")
    coinv = glue.orthogonal_complement(inv)
    return InvariantPair(inv, coinv, glue.glue_group(f.lattice, inv, coinv))


def discriminant_action(f):
    """Induced action on the discriminant group.

    Returns (kind, images) with kind one of 'id', '-id', 'other'; images is
    the matrix of generator images in generator coordinates.
    """
    lat = f.lattice
    form = discform.discriminant_form(lat)
    if form.is_trivial():
        return "id", Matrix(())
    # class_of gives reduced coordinates, so the rows compare as they are
    units = Matrix.identity(form.ngens).rows
    images = Matrix([discform.class_of(lat, f.apply(discform.element_lift(lat, e)))
                     for e in units])
    if images.rows == units:
        return "id", images
    if images.rows == tuple(form.reduce([-c for c in e]) for e in units):
        return "-id", images
    return "other", images


def _reflect(gram, w, current, scale):
    """(R_w current / scale) as (matrix, scale) in lowest terms, and nw, for
    the reflection R_w in w: nw R_w = nw I - 2 w (G w)^T is integral for
    nw = (w, w) != 0."""
    gw = gram.apply(w)
    nw = sum(map(mul, w, gw))
    t = [sum(map(mul, gw, col)) for col in current.transpose().rows]
    rows = [[nw * x - 2 * wi * tj for x, tj in zip(r, t)] for wi, r in zip(w, current.rows)]
    scale *= nw
    g = gcd(scale, *(x for r in rows for x in r))
    return Matrix(tuple(tuple(x // g for x in r) for r in rows)), scale // g, nw


def spinor_norm(f):
    """Spinor norm with the convention +1 on reflections in vectors of
    negative square (and hence -1 on reflections in positive vectors).

    Along the orthogonal basis of the Gram elimination, f is composed with
    the reflection in fv - v (or, when that is isotropic, in fv + v and then
    in v) until it is the identity.  The running product is an integer
    matrix over one scale, and fv - v is taken times that scale: a
    reflection does not change when its vector is scaled.
    """
    gram = f.lattice.gram
    n = f.lattice.rank
    if n == 0:
        return 1

    def contrib(norm_val):
        return 1 if norm_val < 0 else -1

    current, scale = f.matrix, 1
    spin = 1
    for v in f.lattice.elimination().basis:
        fv = current.apply(v)
        w = tuple(a - scale * b for a, b in zip(fv, v))
        if all(x == 0 for x in w):
            continue
        if sum(map(mul, w, gram.apply(w))):
            current, scale, nw = _reflect(gram, w, current, scale)
            spin *= contrib(nw)
        else:
            u = tuple(a + scale * b for a, b in zip(fv, v))
            current, scale, nu = _reflect(gram, u, current, scale)
            current, scale, nv = _reflect(gram, v, current, scale)
            spin *= contrib(nu) * contrib(nv)
    if current != Matrix.identity(n).scale(scale):
        raise NotAnIsometry("reflection factorization failed")
    return spin


# ---------------------------------------------------------------------------
# the canonical embedding of the rank-24 lattice into the rank-26 unimodular one

@functools.cache
def _canonical_extension():
    """Overlattice of OG10 + A2 along (a-b+c-d)/3 and (a+2b+c+2d)/3, where
    a, b span the A2(-1) tail of OG10 and c, d span the orthogonal A2."""
    og = make_named("OG10")
    a2 = make_named("A", 2)
    amb = direct_sum([og, a2])
    g1 = (0,) * 22 + (1, -1, 1, -1)
    g2 = (0,) * 22 + (1, 2, 1, 2)
    ext = glue.overlattice(amb, [g1, g2], 3, require_even=True, label="Lambda")
    return og, a2, ext


def canonical_lambda():
    """The glued rank-26 even unimodular lattice of signature (5, 21)."""
    return _canonical_extension()[2].lattice


def extend_to_lambda(f):
    """Extend an isometry of OG10 to the rank-26 unimodular overlattice.

    Acts trivially on the orthogonal A2 when the discriminant action is the
    identity and swaps its two generators when the action is -id; any other
    discriminant action is an error.  With the new basis rows / den and
    old_in_new = den * rows^-1 (see glue.Extension), the matrix in the new
    basis is old_in_new^T . diag(f, tail) . rows^T / den, an exact division
    for every isometry that extends.
    """
    og, a2, ext = _canonical_extension()
    if f.lattice.gram != og.gram:
        raise NotAnIsometry("expected an isometry of the rank-24 lattice in its standard basis")
    kind, _ = discriminant_action(f)
    if kind == "id":
        tail = Matrix.identity(2)
    elif kind == "-id":
        tail = Matrix([[0, 1], [1, 0]])
    else:
        raise NontrivialDiscAction("discriminant action is neither id nor -id")
    bd = linalg.block_diag([f.matrix, tail])
    scaled = ext.old_in_new.T @ bd @ ext.rows.T
    if any(x % ext.den for r in scaled.rows for x in r):
        raise NontrivialDiscAction("extension is not integral; unexpected glue mismatch")
    return Isometry(ext.lattice, Matrix(tuple(tuple(x // ext.den for x in r) for r in scaled.rows)))


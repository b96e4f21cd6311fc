"""Exhaustive vector enumeration on definite lattices.

All-integer Fincke-Pohst branch and bound over the fraction-free symmetric
elimination of the Gram matrix (`linalg.symmetric_elimination`): coordinate
bounds come from integer square roots and the norm of each vector from the
running remainder, never from floating point or rational arithmetic.
Negative definite inputs are globally negated before enumeration, once per
lattice: the negation is kept with the lattice's caches.

Every vector query reads one stream, `short_vectors`, which owns the sign
flip and the norm and rank guards; the U(3) search alone reads its own
L1-windowed pass, `vectors_by_l1`.
"""

from math import gcd, isqrt
from operator import mul

from .errors import BadParams, IndefiniteLattice, RankTooLarge
from .lattice import Lattice
from .linalg import Matrix, bareiss_det

RANK_CAP = 16
ISOM_RANK_CAP = 14


def _flip_to_positive(lat):
    """(positive definite lattice, sign) for a definite input."""
    if lat.rank == 0:
        return lat, 1
    p, m = lat.signature
    if m == 0:
        return lat, 1
    if p == 0:
        if lat._negation is None:
            lat._negation = Lattice(-lat.gram, lat.label)
        return lat._negation, -1
    raise IndefiniteLattice("lattice of signature %s is indefinite" % ((p, m),))


def _enumerate_upto(pos, bound, l1_window=None):
    """Yield (x, Q(x)) for every nonzero integer vector x with Q(x) <= bound
    on a positive definite lattice; both x and -x are produced.

    With D_0 = 1, D_k the leading minors and y_i = U_i . x the echelon forms
    of the elimination, N_i = D_i * sum_{k>=i} y_k^2 / (D_k D_{k+1}) is an
    integer (the Bareiss Schur complement evaluated at x_i..x_{n-1}),
    N_i = (D_i N_{i+1} + y_i^2) / D_{i+1} exactly, and N_0 = Q(x).  Level i
    keeps y_i^2 <= D_i (D_{i+1} bound - N_{i+1}).

    With l1_window = (lo, hi) only the x with lo < |x|_1 <= hi are produced:
    a branch is cut once its fixed coordinates exceed hi, or once they cannot
    exceed lo even with every open coordinate at its `coordinate_bounds`
    value (exact at the last level, where no coordinate is open).
    """
    n = pos.rank
    if n == 0 or bound <= 0:
        return
    elim = pos.elimination()
    d = (1,) + elim.minors
    u = elim.rows
    x = [0] * n
    if l1_window is not None:
        lo, hi = l1_window
        # tail[i]: the largest |x_0| + ... + |x_{i-1}|
        tail = [0]
        for b in coordinate_bounds(pos, bound):
            tail.append(tail[-1] + b)

    def rec(i, rest, size):
        if i < 0:
            if rest:
                yield tuple(x), rest
            return
        ui = u[i]
        # x_0 .. x_i are still zero here, so the full row gives U_i . x over
        # the fixed coordinates x_{i+1} .. x_{n-1}
        c = sum(map(mul, ui, x))
        piv = d[i + 1]
        r = isqrt(d[i] * (piv * bound - rest))
        a, b = -((r + c) // piv), (r - c) // piv
        if l1_window is None:
            xs = range(a, b + 1)
        else:
            room = hi - size
            a, b = max(a, -room), min(b, room)
            need = lo - size - tail[i] + 1  # the least |x_i| that can exceed lo
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


def coordinate_bounds(lat, max_norm):
    """Largest |x_i| over the vectors of |norm| <= max_norm of a definite
    lattice: x_i^2 <= max_norm adj(G)_ii / det G (Cauchy-Schwarz in the
    dual), so |x_i| <= isqrt(max_norm adj(G)_ii // det G)."""
    pos, _sign = _flip_to_positive(lat)
    g = pos.gram
    n = pos.rank
    bounds = []
    for i in range(n):
        minor = Matrix(tuple(tuple(g[a, b] for b in range(n) if b != i)
                             for a in range(n) if a != i))
        bounds.append(isqrt(max_norm * bareiss_det(minor) // pos.det))
    return tuple(bounds)


def short_vectors(lat, max_norm, rank_cap=RANK_CAP):
    """Stream (v, |Q(v)|) over every nonzero vector v of |Q(v)| <= max_norm
    in a definite lattice, in Fincke-Pohst order; both v and -v are produced.

    Norms are read on the positive definite model: a negative definite
    lattice is negated first, so `max_norm` is never negative.  The guards
    act at the call, before the first vector: BadParams for a negative norm,
    RankTooLarge above `rank_cap`, IndefiniteLattice for an indefinite input.
    """
    if max_norm < 0:
        raise BadParams("target norm %d is negative; norms are read on the positive "
                        "definite model" % max_norm)
    if lat.rank > rank_cap:
        raise RankTooLarge("rank %d exceeds the enumeration cap %d" % (lat.rank, rank_cap))
    pos, _sign = _flip_to_positive(lat)
    return _enumerate_upto(pos, max_norm)


def _shell(lat, norm, dots, div, rank_cap):
    """The vectors of |norm| == norm that pair with each (w, value) of `dots`
    to that value on the original Gram matrix and, when `div` is set, have
    divisibility `div`."""
    for v, nv in short_vectors(lat, norm, rank_cap):
        if nv == norm and all(lat.inner(v, w) == val for w, val in dots) \
                and (div is None or lat.divisibility(v) == div):
            yield v


def vectors_of_norm(lat, norm, dots=(), div=None, rank_cap=RANK_CAP):
    """Sorted list of the vectors of |norm| == norm meeting the `dots` and
    `div` constraints of `_shell`."""
    return sorted(_shell(lat, norm, dots, div, rank_cap))


def count_vectors(lat, norm, dots=(), div=None, rank_cap=RANK_CAP):
    """Number of the vectors of |norm| == norm meeting the `dots` and `div`
    constraints of `_shell`, counted as they stream."""
    return sum(1 for _v in _shell(lat, norm, dots, div, rank_cap))


def vectors_by_l1(lat, max_norm, l1_lo, l1_hi):
    """Nonzero vectors of |norm| <= max_norm with l1_lo < |x|_1 <= l1_hi,
    bucketed by (|x|_1, norm), each bucket sorted; one Fincke-Pohst pass
    with the L1 cuts of `_enumerate_upto`."""
    pos, _sign = _flip_to_positive(lat)
    buckets = {}
    for v, nv in _enumerate_upto(pos, max_norm, (l1_lo, l1_hi)):
        buckets.setdefault((sum(map(abs, v)), nv), []).append(v)
    for vecs in buckets.values():
        vecs.sort()
    return buckets


def has_square_one(lat):
    """True when some vector has |(v, v)| = 1."""
    return count_vectors(lat, 1) > 0


def root_report(lat, rank_cap=RANK_CAP):
    """(number of short roots, number of long roots) of a definite lattice.

    Short root: |v^2| = 2 with divisibility 1; long root: |v^2| = 6 with
    divisibility 3.  The divisibility gcd(G v) is read in the lattice itself,
    only on norms 2 and 6, and once per pair +-v, on the v > 0."""
    rows = lat.gram.rows
    zero = (0,) * lat.rank
    short = long_ = 0
    for v, nv in short_vectors(lat, 6, rank_cap):
        if (nv == 2 or nv == 6) and v > zero:
            div = gcd(*[sum(map(mul, r, v)) for r in rows])
            if nv == 2:
                short += div == 1
            else:
                long_ += div == 3
    return (2 * short, 2 * long_)


def definite_isometric(l1, l2):
    """Explicit isometry witness between definite lattices, or None.

    Searches images of the basis of l1 among the vectors of l2 of matching
    norm, longest basis vectors first, with forward checking as in
    Plesken-Souvignier (1997): each pool vector carries its Gram image G2 v,
    and choosing an image filters the candidate list of every later basis
    vector down to the vectors with the inner product G1 requires, so an
    empty list backtracks at once.  Lists keep pool order, so the first
    witness is the one a plain depth-first search finds.  A complete failed
    search proves non-isometry.  The returned matrix W has columns = images
    and satisfies W^T G2 W = G1.
    """
    if l1.rank != l2.rank:
        return None
    if l1.rank == 0:
        return Matrix(())
    if l1.rank > ISOM_RANK_CAP:
        raise RankTooLarge("rank %d exceeds the isometry-search cap %d"
                           % (l1.rank, ISOM_RANK_CAP))
    pos1, sign1 = _flip_to_positive(l1)
    pos2, sign2 = _flip_to_positive(l2)
    if sign1 != sign2 or l1.det != l2.det or l1.is_even() != l2.is_even():
        return None
    n = pos1.rank
    basis_norms = [pos1.gram[i, i] for i in range(n)]
    order = sorted(range(n), key=lambda i: -basis_norms[i])
    g1 = pos1.gram
    g2 = pos2.gram
    pools = {}
    for nv in set(basis_norms):
        vecs = vectors_of_norm(pos2, nv)
        if len(vecs) != count_vectors(pos1, nv):
            return None
        pools[nv] = [(v, g2.apply(v)) for v in vecs]
    chosen = [None] * n

    def rec(k, lists):
        """lists[t] holds the candidates for basis vector order[k + t] that
        pair correctly with every image chosen so far."""
        if k == n:
            return True
        i = order[k]
        later = order[k + 1:]
        for cand, gc in lists[0]:
            filtered = []
            for j, lst in zip(later, lists[1:]):
                want = g1[i, j]
                keep = [(w, gw) for w, gw in lst if sum(map(mul, w, gc)) == want]
                if not keep:
                    break
                filtered.append(keep)
            else:
                chosen[i] = cand
                if rec(k + 1, filtered):
                    return True
        return False

    if not rec(0, [pools[basis_norms[i]] for i in order]):
        return None
    w = Matrix(chosen).T
    assert w.T @ l2.gram @ w == l1.gram
    return w

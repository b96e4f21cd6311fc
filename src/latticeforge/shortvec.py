"""Exhaustive vector enumeration on definite lattices.

All-integer Fincke-Pohst branch and bound over the fraction-free symmetric
elimination of the Gram matrix (`linalg.symmetric_elimination`): coordinate
bounds come from integer square roots and the norm of each vector from the
running remainder, never from floating point or rational arithmetic.  The
tree is walked in one generator frame that keeps each level's state in
lists, so a vector is handed out by one `yield`, not one per coordinate.
Q(-x) = Q(x) and every bound of the walk is symmetric, so only the half of
the tree whose last nonzero coordinate is positive is walked, and each x is
handed out together with -x: the stream is x, -x, x', -x', ... in the order
of the full tree's walk restricted to that half.
A negative definite lattice is walked on its own elimination: the
elimination of -G is that of G with minor D_k and echelon row U_{k-1}
negated at odd k, so norms are read as |Q| and no lattice of Gram matrix
-G is built.

Every vector query reads one stream, `short_vectors`, which owns the sign
and the norm and rank guards.  `definite_isometric` searches basis
images with Plesken-Souvignier forward checking over pools of vectors.
"""

from math import gcd, isqrt
from operator import mul

from .errors import BadParams, IndefiniteLattice, RankTooLarge
from .linalg import Matrix

RANK_CAP = 16
ISOM_RANK_CAP = 14


def _definite_sign(lat):
    """1 for a positive definite lattice (or rank 0), -1 for a negative
    definite one; IndefiniteLattice otherwise."""
    p, m = lat.signature
    if m == 0:
        return 1
    if p == 0:
        return -1
    raise IndefiniteLattice("lattice of signature %s is indefinite" % ((p, m),))


def _enumerate_upto(lat, bound):
    """Yield (x, |Q(x)|) for every nonzero integer vector x with |Q(x)| <=
    bound on a definite lattice, as pairs: each x whose last nonzero
    coordinate is positive, right after it -x.

    A negative definite lattice is read on the elimination of -G: its minor
    D_k and echelon row U_{k-1} are those of G, negated at odd k.

    With D_0 = 1, D_k the leading minors and y_i = U_i . x the echelon forms
    of the elimination, N_i = D_i * sum_{k>=i} y_k^2 / (D_k D_{k+1}) is an
    integer (the Bareiss Schur complement evaluated at x_i..x_{n-1}),
    N_i = (D_i N_{i+1} + y_i^2) / D_{i+1} exactly, and N_0 = Q(x).  Level i
    keeps y_i^2 <= D_i (D_{i+1} bound - N_{i+1}).

    The tree is walked in this one frame, last coordinate first: level i
    keeps the center c_i = U_i . x over the fixed coordinates x_{i+1} ..
    x_{n-1}, the remainder N_{i+1} and the iterator over x_i.  Level 0 is a
    plain loop that reads Q(x) off its center and remainder.  N_{i+1} is a
    positive definite form in the fixed coordinates, so it is 0 exactly
    while they are all zero; then the center is 0 and the range of x_i
    symmetric, and level i walks x_i >= 0 only.  Level 0 yields x and then
    -x, whose tail it builds once per opening.  The mirror subtree of -x,
    which the walk skips, has the same shape.
    """
    n = lat.rank
    if n == 0 or bound <= 0:
        return
    elim = lat.elimination()
    d, u = (1, *elim.minors), elim.rows
    if d[1] < 0:
        d = [-dk if k % 2 else dk for k, dk in enumerate(d)]
        u = [[-e for e in r] if k % 2 == 0 else r for k, r in enumerate(u)]

    x = [0] * n
    # per open level i >= 1: c_i, N_{i+1} and the iterator over x_i;
    # x_0 .. x_i are zero when level i is opened
    centers, rests, iters = [0] * n, [0] * n, [None] * n
    i, c, rest = n - 1, 0, 0  # the level to open and its state
    while True:
        piv = d[i + 1]
        r = isqrt(d[i] * (piv * bound - rest))
        # rest = 0: x_{i+1} .. x_{n-1} all zero, walk the half x_i >= 0
        xs = range(-((r + c) // piv) if rest else 0, (r - c) // piv + 1)
        if i:
            centers[i], rests[i], iters[i] = c, rest, iter(xs)
        else:
            fixed = tuple(x[1:])
            # tuple() of a list allocates at the final size; of an iterator it
            # resizes a smaller tuple, and each one freed here would pile up
            # in the interpreter's free list for this size
            mirror = tuple([-xi for xi in fixed])
            for x0 in xs:
                y = piv * x0 + c
                q = (rest + y * y) // piv
                if q:
                    yield (x0, *fixed), q
                    yield (-x0, *mirror), q
            i = 1
        # the next x_i of the lowest open level that has one
        while i < n:
            for xi in iters[i]:
                break
            else:
                x[i] = 0
                i += 1
                continue
            break
        else:
            return
        x[i] = xi
        piv = d[i + 1]
        y = piv * xi + centers[i]
        rest = (d[i] * rests[i] + y * y) // piv
        i -= 1
        c = sum(map(mul, u[i], x))


def short_vectors(lat, max_norm, rank_cap=RANK_CAP):
    """Stream (v, |Q(v)|) over every nonzero vector v of |Q(v)| <= max_norm
    in a definite lattice, in pairs: the v whose last nonzero coordinate is
    positive, in the Fincke-Pohst order of that half tree, each followed at
    once by (-v, |Q(v)|).

    Norms are read as |Q|, so `max_norm` is never negative; a negative
    definite lattice is walked on its own elimination.  The guards
    act at the call, before the first vector: BadParams for a negative norm,
    RankTooLarge above `rank_cap`, IndefiniteLattice for an indefinite input.
    """
    if max_norm < 0:
        raise BadParams("target norm %d is negative; norms are read on the positive "
                        "definite model" % max_norm)
    if lat.rank > rank_cap:
        raise RankTooLarge("rank %d exceeds the enumeration cap %d" % (lat.rank, rank_cap))
    _definite_sign(lat)
    return _enumerate_upto(lat, max_norm)


def _shell(lat, norm, dots, div, rank_cap):
    """The vectors of |norm| == norm that pair with each (w, value) of `dots`
    to that value on the original Gram matrix and, when `div` is set, have
    divisibility `div`.

    G w is computed once per constraint, before the first vector, so a
    constraint of the wrong length raises DimensionMismatch even on an empty
    shell.  The stream is read a pair (v, -v) at a time: one norm test, one
    dot product v . G w per constraint (v is kept when it equals the value,
    -v when it equals minus the value) and one divisibility per pair."""
    if div is not None and div < 1:
        raise BadParams("divisibility %d is not positive; no vector has it" % div)
    dots = [(lat.gram.apply(w), val) for w, val in dots]
    pairs = iter(short_vectors(lat, norm, rank_cap))
    for (v, nv), (mv, _) in zip(pairs, pairs):
        if nv != norm:
            continue
        keep = keep_mv = True
        for gw, val in dots:
            p = sum(map(mul, v, gw))
            keep, keep_mv = keep and p == val, keep_mv and p == -val
            if not (keep or keep_mv):
                break
        else:
            if div is None or lat.divisibility(v) == div:
                if keep:
                    yield v
                if keep_mv:
                    yield mv


def vectors_of_norm(lat, norm, dots=(), div=None, rank_cap=RANK_CAP):
    """Sorted list of the vectors of |norm| == norm meeting the `dots` and
    `div` constraints of `_shell`."""
    return sorted(_shell(lat, norm, dots, div, rank_cap))


def count_vectors(lat, norm, dots=(), div=None, rank_cap=RANK_CAP):
    """Number of the vectors of |norm| == norm meeting the `dots` and `div`
    constraints of `_shell`, counted as they stream."""
    return sum(1 for _v in _shell(lat, norm, dots, div, rank_cap))


def has_square_one(lat):
    """True when some vector has |(v, v)| = 1."""
    return count_vectors(lat, 1) > 0


def root_report(lat, rank_cap=RANK_CAP):
    """(number of short roots, number of long roots) of a definite lattice.

    Short root: |v^2| = 2 with divisibility 1; long root: |v^2| = 6 with
    divisibility 3.  The divisibility gcd(G v) is read in the lattice itself,
    only on norms 2 and 6, and once per pair (v, -v) of the stream."""
    rows = lat.gram.rows
    short = long_ = 0
    pairs = iter(short_vectors(lat, 6, rank_cap))
    for (v, nv), _mirror in zip(pairs, pairs):
        if nv == 2 or nv == 6:
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
    Plesken-Souvignier (1997): choosing an image v filters the candidate
    list of every later basis vector down to the vectors with the inner
    product G1 requires, so an empty list backtracks at once.  The pools
    hold vectors only; G2 v is computed once, when v is chosen.  Later basis
    vectors often hold one and the same list (at the top, every basis vector
    of a norm holds its pool): each distinct list is split once per chosen
    image into buckets by inner product, and every later basis vector that
    holds it takes the bucket for its Gram entry.  Buckets keep pool order,
    so the first witness is the one a plain depth-first search finds.  A
    complete failed search proves non-isometry.  The returned matrix W has
    columns = images and satisfies W^T G2 W = G1.
    """
    if l1.rank != l2.rank:
        return None
    if l1.rank == 0:
        return Matrix(())
    if l1.rank > ISOM_RANK_CAP:
        raise RankTooLarge("rank %d exceeds the isometry-search cap %d"
                           % (l1.rank, ISOM_RANK_CAP))
    sign = _definite_sign(l1)
    if sign != _definite_sign(l2) or l1.det != l2.det or l1.is_even() != l2.is_even():
        return None
    n = l1.rank
    g1 = l1.gram
    g2 = l2.gram
    basis_norms = [sign * g1[i, i] for i in range(n)]
    order = sorted(range(n), key=lambda i: -basis_norms[i])
    pools = {}
    for nv in set(basis_norms):
        pools[nv] = vectors_of_norm(l2, nv)
        if len(pools[nv]) != count_vectors(l1, nv):
            return None
    chosen = [None] * n

    def rec(k, lists):
        """lists[t] holds the candidates for basis vector order[k + t] that
        pair correctly with every image chosen so far."""
        if k == n:
            return True
        i = order[k]
        later = order[k + 1:]
        for cand in lists[0]:
            gc = g2.apply(cand)
            split = {}  # id of a later list -> its buckets by inner product
            filtered = []
            for j, lst in zip(later, lists[1:]):
                buckets = split.get(id(lst))
                if buckets is None:
                    buckets = split[id(lst)] = {}
                    for w in lst:
                        buckets.setdefault(sum(map(mul, w, gc)), []).append(w)
                keep = buckets.get(g1[i, j])
                if keep is None:
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

import random

import pytest

from conftest import box_count, box_minimum, box_vectors

from latticeforge import catalog, glue
from latticeforge.catalog import FG_PHI35
from latticeforge.errors import IndefiniteLattice, RankTooLarge
from latticeforge.lattice import Lattice, direct_sum, from_expression, make_named, rescale
from latticeforge.linalg import Matrix
from latticeforge.shortvec import (
    RANK_CAP,
    EnumQuery,
    _flip_to_positive,
    count_vectors,
    definite_isometric,
    has_square_one,
    minimum,
    root_report,
    vectors_of_norm,
    vectors_up_to,
    wall_class,
)

A2 = make_named("A", 2)

RANK_LE_6 = ["A2", "A2(-1)", "D4", "A4", "E6", "E6*(3)", "ExA", "ExB", "N15",
             "L17", "A2 + A2(-1)", "D4(-1)", "[2] + [4]"]


@pytest.mark.parametrize("expr", RANK_LE_6)
@pytest.mark.parametrize("norm", [1, 2, 3, 4, 6])
def test_count_matches_box_oracle(expr, norm):
    lat = from_expression(expr)
    p, m = lat.signature
    if p and m:
        with pytest.raises(IndefiniteLattice):
            count_vectors(EnumQuery(lat, norm))
        return
    gram = lat.gram if m == 0 else -lat.gram
    assert count_vectors(EnumQuery(lat, norm)) == box_count(gram, norm)
    assert vectors_up_to(lat, norm)[norm] == box_vectors(gram, norm)


def test_counts_even_without_constraints():
    for expr in ("A2", "D4", "E6", "ExA"):
        lat = from_expression(expr)
        for norm in (2, 4, 6):
            assert count_vectors(EnumQuery(lat, norm)) % 2 == 0


def test_count_examples():
    assert count_vectors(EnumQuery(A2, 2)) == 6
    assert count_vectors(EnumQuery(Lattice(FG_PHI35), 4)) == 54


def test_minimum():
    assert minimum(make_named("ExA")) == box_minimum(make_named("ExA")) == 2
    assert minimum(make_named("ExB")) == box_minimum(make_named("ExB")) == 4
    assert minimum(make_named("E", 8)) == 2


def test_rank_cap():
    lat = direct_sum([make_named("E", 8)] * 3)
    with pytest.raises(RankTooLarge):
        count_vectors(EnumQuery(lat, 2), rank_cap=16)


def test_root_report():
    assert root_report(make_named("E", 6)) == (72, 0)
    # the abstract rank-2 hexagonal lattice: its six norm-6 vectors all have
    # divisibility 3, verified by brute force
    longs = [v for v in box_vectors(A2.gram, 6) if A2.divisibility(v) == 3]
    assert root_report(A2) == (6, len(longs)) == (6, 6)
    assert root_report(rescale(A2, -1)) == (6, 6)
    assert root_report(Lattice(Matrix(()))) == (0, 0)


def test_root_report_with_ambient():
    # a primitive A2 inside E6: divisibility is measured upstairs
    from latticeforge.glue import Sublattice

    e6 = make_named("E", 6)
    rows = Matrix([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
    sub = Sublattice(e6, rows)
    short, long_ = root_report(sub.lattice(), ambient=sub)
    assert short == 6
    assert long_ == 0  # div in E6 of those norm-6 vectors is 1


def test_has_square_one():
    assert has_square_one(make_named("[]", 1))
    assert not has_square_one(Lattice(FG_PHI35))
    assert not has_square_one(rescale(make_named("E", 8), -1))


def test_wall_class():
    assert wall_class(-2, 1) == "pex"
    assert wall_class(-6, 3) == "pex"
    assert wall_class(-6, 1) == "neither"
    assert wall_class(-4, 2) == "wall"
    assert wall_class(-24, 3) == "wall"
    assert wall_class(-24, 1) == "neither"
    assert wall_class(2, 1) == "neither"


def test_definite_isometric():
    exa, exb = make_named("ExA"), make_named("ExB")
    assert definite_isometric(exa, exb) is None
    w = definite_isometric(exa, exa)
    assert w is not None
    assert w.T @ exa.gram @ w == exa.gram

    # the printed rank-6 invariant lattice of the seven-dimensional family is
    # isometric to E6*(3)
    e6s = make_named("E6*(3)")
    fg = Lattice(FG_PHI35)
    w = definite_isometric(e6s, fg)
    assert w is not None
    assert w.T @ fg.gram @ w == e6s.gram


def test_definite_isometric_negative_definite():
    a = rescale(make_named("D", 4), -1)
    w = definite_isometric(a, a)
    assert w is not None
    assert w.T @ a.gram @ w == a.gram


def _reference_isometric(l1, l2):
    """The plain depth-first search that forward checking replaced: every
    candidate is tested against every image chosen so far.  Slow beyond rank
    8; kept as the oracle for the order in which witnesses are found."""
    if l1.rank != l2.rank:
        return None
    pos1, sign1 = _flip_to_positive(l1)
    pos2, sign2 = _flip_to_positive(l2)
    if sign1 != sign2 or l1.det != l2.det or l1.is_even() != l2.is_even():
        return None
    n = pos1.rank
    basis_norms = [pos1.gram[i, i] for i in range(n)]
    order = sorted(range(n), key=lambda i: -basis_norms[i])
    pools = {}
    for nv in set(basis_norms):
        pools[nv] = vectors_of_norm(pos2, nv)
        if len(pools[nv]) != count_vectors(EnumQuery(pos1, nv), rank_cap=RANK_CAP):
            return None
    chosen = [None] * n

    def rec(k):
        if k == n:
            return True
        i = order[k]
        for cand in pools[basis_norms[i]]:
            if all(pos2.inner(cand, chosen[order[kk]]) == pos1.gram[i, order[kk]]
                   for kk in range(k)):
                chosen[i] = cand
                if rec(k + 1):
                    return True
        return False

    return Matrix(chosen).T if rec(0) else None


def _random_unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return Matrix(m)


def _eta_perp_pair(label):
    row = catalog.cubic_row(label)
    alg = Lattice(row.alg_gram)
    eta = tuple(int(i == 0) for i in range(alg.rank))
    perp = glue.orthogonal_complement(glue.span(alg, [eta])).lattice()
    return Lattice(row.inv_gram), perp


@pytest.mark.parametrize("expr", ["A2 + A2", "D4", "E6", "A2^3"])
def test_definite_isometric_matches_reference_on_base_changes(expr):
    lat = from_expression(expr)
    rng = random.Random(expr)
    for _ in range(3):
        u = _random_unimodular(rng, lat.rank)
        other = Lattice(u @ lat.gram @ u.T)
        for a, b in ((lat, other), (other, lat)):
            w = definite_isometric(a, b)
            assert w is not None and w.T @ b.gram @ w == a.gram
            assert w == _reference_isometric(a, b)


@pytest.mark.parametrize("label", ["phi35", "phi37"])
def test_definite_isometric_matches_reference_on_cubic_rows(label):
    inv, perp = _eta_perp_pair(label)
    for a, b in ((inv, perp), (perp, inv)):
        w = definite_isometric(a, b)
        assert w is not None
        assert w == _reference_isometric(a, b)


def test_definite_isometric_none_matches_reference():
    # the two binary forms of determinant 23 (minima 2 and 4)
    exa, exb = make_named("ExA"), make_named("ExB")
    for a, b in ((exa, exb), (exb, exa)):
        assert definite_isometric(a, b) is None
        assert _reference_isometric(a, b) is None


def test_definite_isometric_rejects_mixed_signs():
    assert definite_isometric(make_named("A", 2), rescale(make_named("A", 2), -1)) is None


def test_indefinite_rejected():
    with pytest.raises(IndefiniteLattice):
        minimum(make_named("U"))
    with pytest.raises(IndefiniteLattice):
        count_vectors(EnumQuery(make_named("U"), 2))


def test_dot_and_div_filters():
    eta = (1, 0)
    assert count_vectors(EnumQuery(A2, 2, dot_constraints=[(eta, 1)])) == 2
    # divisibility filter: norm-6 vectors of A2 all have div 3
    assert count_vectors(EnumQuery(A2, 6, divisibility_filter=3)) == 6
    assert count_vectors(EnumQuery(A2, 6, divisibility_filter=1)) == 0

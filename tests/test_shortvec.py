import random
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import box_ball, box_bounds, box_minimum, box_vectors, root_report_oracle

from latticeforge import catalog, glue, shortvec, verify
from latticeforge.catalog import FG_PHI35
from latticeforge.errors import DimensionMismatch, IndefiniteLattice, RankTooLarge
from latticeforge.lattice import Lattice, direct_sum, from_expression, make_named, rescale
from latticeforge.linalg import Matrix, bareiss_det
from latticeforge.shortvec import (
    _flip_to_positive,
    count_vectors,
    definite_isometric,
    has_square_one,
    minimum,
    root_report,
    short_vectors,
    vectors_of_norm,
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
            count_vectors(lat, norm)
        return
    gram = lat.gram if m == 0 else -lat.gram
    ball = sorted(box_ball(gram, norm))
    shell = [x for x, nx in ball if nx == norm]
    assert sorted(short_vectors(lat, norm)) == ball
    assert vectors_of_norm(lat, norm) == shell
    assert count_vectors(lat, norm) == len(shell)


def test_counts_even_without_constraints():
    for expr in ("A2", "D4", "E6", "ExA"):
        lat = from_expression(expr)
        for norm in (2, 4, 6):
            assert count_vectors(lat, norm) % 2 == 0


def test_count_examples():
    assert count_vectors(A2, 2) == 6
    assert count_vectors(Lattice(FG_PHI35), 4) == 54


def test_minimum():
    assert minimum(make_named("ExA")) == box_minimum(make_named("ExA")) == 2
    assert minimum(make_named("ExB")) == box_minimum(make_named("ExB")) == 4
    assert minimum(make_named("E", 8)) == 2


def test_rank_cap():
    lat = direct_sum([make_named("E", 8)] * 3)
    with pytest.raises(RankTooLarge):
        count_vectors(lat, 2, rank_cap=16)


def test_root_report():
    assert root_report(make_named("E", 6)) == (72, 0)
    # the abstract rank-2 hexagonal lattice: its six norm-6 vectors all have
    # divisibility 3, verified by brute force
    longs = [v for v in box_vectors(A2.gram, 6) if A2.divisibility(v) == 3]
    assert root_report(A2) == (6, len(longs)) == (6, 6)
    assert root_report(rescale(A2, -1)) == (6, 6)
    assert root_report(Lattice(Matrix(()))) == (0, 0)
    # the generator of A1(3) has norm 6 but divisibility 6, not 3
    assert root_report(from_expression("A1(3)")) == (0, 0)
    with pytest.raises(DimensionMismatch):
        root_report(A2, Matrix([[1, 0, 0]]))


def test_root_report_with_ambient():
    # a primitive A2 inside E6: divisibility is measured upstairs
    from latticeforge.glue import Sublattice

    e6 = make_named("E", 6)
    rows = Matrix([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
    sub = Sublattice(e6, rows)
    short, long_ = root_report(sub.lattice(), sub.ambient.gram @ sub.basis.T)
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
        if len(pools[nv]) != count_vectors(pos1, nv):
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
        count_vectors(make_named("U"), 2)


def test_dot_and_div_filters():
    eta = (1, 0)
    assert count_vectors(A2, 2, dots=[(eta, 1)]) == 2
    # divisibility filter: norm-6 vectors of A2 all have div 3
    assert count_vectors(A2, 6, div=3) == 6
    assert count_vectors(A2, 6, div=1) == 0


# ---------------------------------------------------------------------------
# every query against the box oracle on random definite lattices

_BOX_NORM = 6  # the largest norm the random suite asks for


@st.composite
def _random_definite(draw):
    """(lattice, positive definite model): k B B^T for a random nonsingular
    B of rank 2-5 with |b| <= 3 and k in {1, 2, 3}, so that divisibilities
    above 1 are common, or its negation; kept to lattices whose oracle box
    at norm 6 has at most 20000 points."""
    rank = draw(st.integers(2, 5))
    row = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    b = Matrix(draw(st.lists(row, min_size=rank, max_size=rank)))
    assume(bareiss_det(b) != 0)
    pos = (b @ b.T).scale(draw(st.sampled_from((1, 2, 3))))
    assume(prod(2 * x + 1 for x in box_bounds(pos, _BOX_NORM)) <= 20000)
    sign = draw(st.sampled_from((1, -1)))
    return Lattice(pos if sign == 1 else -pos), pos


@settings(max_examples=40, deadline=None)
@given(_random_definite(), st.integers(0, _BOX_NORM))
def test_stream_and_count_match_box_oracle(case, norm):
    lat, pos = case
    ball = sorted(box_ball(pos, norm))
    assert sorted(short_vectors(lat, norm)) == ball
    assert count_vectors(lat, norm) == sum(1 for _x, nx in ball if nx == norm)


@settings(max_examples=40, deadline=None)
@given(_random_definite(), st.data())
def test_filtered_shell_matches_box_oracle(case, data):
    lat, pos = case
    ball = list(box_ball(pos, _BOX_NORM))
    norm = data.draw(st.sampled_from(sorted({nx for _x, nx in ball}) or [_BOX_NORM]))
    shell = sorted(x for x, nx in ball if nx == norm)
    dots = []
    if data.draw(st.booleans()):
        w = tuple(data.draw(st.lists(st.integers(-2, 2), min_size=lat.rank,
                                     max_size=lat.rank)))
        val = data.draw(st.sampled_from(sorted({lat.inner(x, w) for x in shell}) or [0]))
        dots.append((w, val))
        shell = [x for x in shell if lat.inner(x, w) == val]
    divs = {x: gcd(*lat.gram.apply(x)) for x in shell}
    div = data.draw(st.sampled_from([None, *sorted(set(divs.values()))]))
    want = [x for x in shell if div is None or divs[x] == div]
    assert vectors_of_norm(lat, norm, dots, div) == want
    assert count_vectors(lat, norm, dots, div) == len(want)


@settings(max_examples=40, deadline=None)
@given(_random_definite())
def test_minimum_and_roots_match_box_oracle(case):
    lat, pos = case
    ball = list(box_ball(pos, _BOX_NORM))
    box_min = min((nx for _x, nx in ball), default=None)
    if box_min is None:
        assert minimum(lat) > _BOX_NORM
    else:
        assert minimum(lat) == box_min
    divs = {x: gcd(*lat.gram.apply(x)) for x, _nx in ball}
    short = sum(1 for x, nx in ball if nx == 2 and divs[x] == 1)
    long_ = sum(1 for x, nx in ball if nx == 6 and divs[x] == 3)
    assert root_report(lat) == (short, long_)


# ---------------------------------------------------------------------------
# root_report reads the Hermite rows of the pairing once per +-v; the oracle
# reads every row of the full pairing on both signs


def test_root_report_matches_oracle_on_cubic_rows(monkeypatch):
    # the (eta-perp, pairing) pairs the cubic rows measure their roots on
    seen = []
    real = shortvec.root_report

    def recording(lat, pairing=None, rank_cap=shortvec.RANK_CAP):
        seen.append((lat, pairing))
        return real(lat, pairing, rank_cap)

    monkeypatch.setattr(shortvec, "root_report", recording)
    assert verify.verify_cubic_tables().ok
    assert len(seen) == 3
    for lat, pairing in seen:
        assert pairing.nrows > lat.rank
        assert root_report(lat, pairing) == root_report_oracle(lat, pairing)


@st.composite
def _root_definite(draw):
    """(lattice, positive definite model): a small sum of root and scaled
    lattices, so that norm-2 and norm-6 vectors exist, in a basis changed by
    random elementary operations, or its negation."""
    expr = draw(st.sampled_from(("A2", "A3", "D4", "E6", "A2 + A2", "A2 + A1(3)",
                                 "A2(3) + A1", "[2] + [6]", "A3 + [3]", "E6*(3)")))
    g = from_expression(expr).gram
    n = g.nrows
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        c = draw(st.sampled_from((-1, 1)))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    pos = Matrix(u) @ g @ Matrix(u).T
    sign = draw(st.sampled_from((1, -1)))
    return Lattice(pos if sign == 1 else -pos), pos


@settings(max_examples=80, deadline=None)
@given(st.one_of(_random_definite(), _root_definite()), st.data())
def test_root_report_matches_oracle_on_random_pairings(case, data):
    lat, _pos = case
    n = lat.rank
    coeffs = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = []
    for _ in range(data.draw(st.integers(1, n + 4), label="rows")):
        kind = data.draw(st.sampled_from(("zero", "multiple", "lattice", "free")))
        if kind == "zero":
            rows.append((0,) * n)
        elif kind == "multiple" and rows:
            k = data.draw(st.sampled_from((-3, -2, -1, 2, 3)))
            rows.append(tuple(k * x for x in data.draw(st.sampled_from(rows))))
        elif kind == "lattice":
            # k (c, -): a pairing row of the lattice itself, scaled so that
            # divisibilities 2, 3 and 6 are common
            k = data.draw(st.sampled_from((1, 2, 3)))
            rows.append(tuple(k * x for x in lat.gram.apply(data.draw(coeffs))))
        else:
            rows.append(tuple(data.draw(coeffs)))
    pairing = Matrix(rows)
    assert root_report(lat, pairing) == root_report_oracle(lat, pairing)
    assert root_report(lat) == root_report_oracle(lat)

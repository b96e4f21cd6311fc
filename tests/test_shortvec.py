import dataclasses
import random
from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    bareiss_det,
    box_ball,
    box_bounds,
    box_minimum,
    box_vectors,
    cubic_roots_oracle,
    root_report_oracle,
    saturate,
)

from latticeforge import catalog, glue, linalg, verify
from latticeforge.catalog import FG_PHI35
from latticeforge.errors import IndefiniteLattice, RankTooLarge
from latticeforge.lattice import Lattice, direct_sum, from_expression, make_named, rescale
from latticeforge.linalg import Matrix, hermite_normal_form
from latticeforge.shortvec import (
    _flip_to_positive,
    coordinate_bounds,
    count_vectors,
    definite_isometric,
    has_square_one,
    root_report,
    short_vectors,
    vectors_by_l1,
    vectors_of_norm,
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
    exa, exb = make_named("ExA"), make_named("ExB")
    assert min(nv for _v, nv in short_vectors(exa, 4)) == box_minimum(exa) == 2
    assert min(nv for _v, nv in short_vectors(exb, 4)) == box_minimum(exb) == 4
    assert min(nv for _v, nv in short_vectors(make_named("E", 8), 4)) == 2


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


def test_root_report_with_ambient():
    # a primitive A2 inside E6: root_report measures divisibility in the
    # lattice it is given, where the six norm-6 vectors are long roots,
    # while in E6 they have divisibility 1
    e6 = make_named("E", 6)
    rows = Matrix([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
    sub = glue.Sublattice(e6, rows)
    assert root_report(sub.lattice()) == (6, 6)
    sixes = vectors_of_norm(sub.lattice(), 6)
    assert len(sixes) == 6
    assert {e6.divisibility(rows.T.apply(v)) for v in sixes} == {1}


def test_has_square_one():
    assert has_square_one(make_named("[]", 1))
    assert not has_square_one(Lattice(FG_PHI35))
    assert not has_square_one(rescale(make_named("E", 8), -1))


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


def test_negative_definite_queries_negate_once(monkeypatch):
    # the negation of a negative definite lattice is kept with its caches,
    # so repeated queries eliminate the negated Gram matrix once
    seen = []
    real = linalg.symmetric_elimination
    monkeypatch.setattr(linalg, "symmetric_elimination", lambda g: seen.append(g) or real(g))
    from_expression.cache_clear()
    try:
        lat = from_expression("E8(-1) + A2(-1)")
        counts = [count_vectors(lat, 2) for _ in range(2)]
        windows = [vectors_by_l1(lat, 2, lo, hi) for lo, hi in ((0, 1), (1, 2), (0, 2))]
        bounds = coordinate_bounds(lat, 2)
    finally:
        from_expression.cache_clear()
    assert counts == [240 + 6] * 2
    assert {**windows[0], **windows[1]} == windows[2]
    assert len(bounds) == 10
    assert len([g for g in seen if g in (lat.gram, -lat.gram)]) == 1


def _adjugate_bounds(gram, max_norm):
    """isqrt(max_norm adj(G)_ii // det G) for a positive definite G, every
    minor taken by the oracle `bareiss_det`: `coordinate_bounds` as it read
    them before it read the orthogonal basis of the elimination."""
    n = gram.nrows
    det = bareiss_det(gram)
    return tuple(isqrt(max_norm * bareiss_det(Matrix(tuple(
        tuple(gram[a, b] for b in range(n) if b != i) for a in range(n) if a != i))) // det)
        for i in range(n))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 6), st.sampled_from((1, 2, 3)), st.sampled_from((1, -1)),
       st.integers(0, 40))
def test_coordinate_bounds_match_adjugate_oracle(data, rank, k, sign, max_norm):
    # k B B^T for a random nonsingular B, and its negation
    row = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    b = Matrix(data.draw(st.lists(row, min_size=rank, max_size=rank)))
    assume(bareiss_det(b) != 0)
    pos = (b @ b.T).scale(k)
    lat = Lattice(pos.scale(sign))
    assert coordinate_bounds(lat, max_norm) == _adjugate_bounds(pos, max_norm)


def test_coordinate_bounds_read_the_cached_elimination(monkeypatch):
    # once a lattice (or the negation a negative definite one keeps) is
    # eliminated, the bounds need no further elimination
    pos = Lattice(linalg.block_diag([make_named("E", 6).gram, make_named("D", 4).gram]))
    neg = rescale(pos, -1)
    pos.elimination()
    want = coordinate_bounds(neg, 6)

    def refuse(g):
        raise AssertionError("symmetric_elimination ran again")

    monkeypatch.setattr(linalg, "symmetric_elimination", refuse)
    assert coordinate_bounds(pos, 6) == coordinate_bounds(neg, 6) == want
    assert want == _adjugate_bounds(pos.gram, 6)


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
        short_vectors(make_named("U"), 2)
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
    assert min((nv for _v, nv in short_vectors(lat, _BOX_NORM)), default=None) == box_min
    divs = {x: gcd(*lat.gram.apply(x)) for x, _nx in ball}
    short = sum(1 for x, nx in ball if nx == 2 and divs[x] == 1)
    long_ = sum(1 for x, nx in ball if nx == 6 and divs[x] == 3)
    assert root_report(lat) == (short, long_)


# ---------------------------------------------------------------------------
# verify reads the cubic rows' glue and roots from A and T alone; the oracle
# builds the rank-23 overlattice H4 and measures each root's divisibility
# through its pairing with eta-perp of H4


def _cubic_readings(checks):
    """(glue check passed, glue detail, short roots, long roots) from the
    checks of one cubic row; the root counts are None when they are absent."""
    by_name = {c.name: c for c in checks}
    glue_check = by_name["middle_cohomology_glue"]
    roots = [int(by_name[n].detail) if n in by_name else None
             for n in ("no_short_roots", "no_long_roots")]
    return (glue_check.passed, glue_check.detail, *roots)


def test_root_report_matches_oracle_on_cubic_rows():
    # the four catalog rows, Hassett's K2 and K6 (one long root pair and one
    # short root pair), K6 with a transcendental lattice whose discriminant
    # form differs from -disc(A) in the Legendre class of its 3-part, K6
    # glued to a unimodular lattice of rank 21, and phi35 with A2(-1) in
    # place of one A2 in T (both groups (Z/3)^6, Legendre classes differ)
    rows = list(catalog.CUBIC_ROWS)
    phi35 = catalog.cubic_row("phi35")
    for gram, coinv in (([[3, 1], [1, 1]], "U + E8^2 + [2] + [-1] + [1]"),
                        ([[3, 0], [0, 2]], "U + E8^2 + [6] + [-1] + [1]"),
                        ([[3, 0], [0, 2]], "U + E8^2 + [-6] + [1] + [1]"),
                        ([[3, 0], [0, 2]], "E8^2 + [6] + [-1] + [1]")):
        rows.append(dataclasses.replace(phi35, label="K", alg_gram=Matrix(gram), coinv=coinv,
                                        labeling_witness=()))
    rows.append(dataclasses.replace(phi35, coinv="U + U(3) + E6 + A2^2 + A2(-1)"))
    got = [_cubic_readings(verify._verify_cubic_row(row).checks) for row in rows]
    want = [cubic_roots_oracle(Lattice(row.alg_gram), from_expression(row.coinv))
            for row in rows]
    assert got == want
    assert [g[2:] for g in got] == [(0, 0)] * 4 + [(0, 2), (2, 0), (None, None), (2, 0),
                                                   (None, None)]
    assert got[-3][:2] == got[-1][:2] == (False, "no glue map found")
    assert got[-2][:2] == (False, "rank 21 det -1 sig (20, 1)")


@st.composite
def _cubic_algebraic(draw):
    """(A, T): a saturated A in the positive part of H4cubic = [1]^21 +
    [-1]^2 with eta = e1 + e2 + e3 as its first basis vector, spanned with
    eta by up to four random vectors in e1..e6, and T = A-perp."""
    h4 = make_named("H4cubic")
    eta = (1, 1, 1) + (0,) * 20
    extra = draw(st.lists(st.lists(st.integers(-1, 1), min_size=6, max_size=6),
                          min_size=1, max_size=4))
    sat = saturate(glue.Sublattice(h4, Matrix([eta] + [tuple(r) + (0,) * 17
                                                       for r in extra])))
    # eta has first coordinate 1, so the saturation is Z eta plus its
    # vectors with first coordinate 0
    hnf, _ = hermite_normal_form(Matrix([tuple(x - b[0] * e for x, e in zip(b, eta))
                                         for b in sat.basis.rows]))
    alg = glue.Sublattice(h4, Matrix([eta] + [r for r in hnf.rows if any(r)]))
    return alg.lattice(), glue.orthogonal_complement(alg).lattice()


@settings(max_examples=60, deadline=None)
@given(_cubic_algebraic())
def test_cubic_readings_match_oracle_on_random_algebraic_lattices(case):
    alg, trans = case
    v = verify.RowVerdict("random")
    eta = (1,) + (0,) * (alg.rank - 1)
    perp = glue.orthogonal_complement(glue.span(alg, [eta])).lattice()
    verify._middle_cohomology_checks(v, alg, trans, perp)
    assert _cubic_readings(v.checks) == cubic_roots_oracle(alg, trans)


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
@given(st.one_of(_random_definite(), _root_definite()))
def test_root_report_matches_oracle_on_random_lattices(case):
    # root_report reads gcd(G v) once per +-v; the oracle reads it on both
    # signs with generator sums
    lat, _pos = case
    assert root_report(lat) == root_report_oracle(lat)

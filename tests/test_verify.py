import dataclasses
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import conftest
from conftest import (
    bareiss_det,
    box_ball,
    find_u3_sublattice_oracle,
    fraction_inverse,
    injective_anti_glue,
    u3_candidates_oracle,
    u3_first_graphs_oracle,
    u3_glued_forms_oracle,
)

from latticeforge import catalog, discform, glue, linalg, shortvec, verify
from latticeforge.errors import TooLarge
from latticeforge.lattice import Lattice, _factorization, from_expression, make_named, rescale
from latticeforge.linalg import Matrix


def test_lambda_p_all_rows_pass():
    report = verify.verify_lambda_p()
    assert report.ok
    good, total = report.counts
    assert good == total == 53
    labels = {r.row for r in report.rows}
    assert {str(i) for i in range(1, 53)} <= labels


def test_lambda_p_negative_control():
    bad = dataclasses.replace(next(r for r in catalog.RANK26_PAIRS if r.label == "1"), a=2)
    report = verify.verify_lambda_p(rows=[bad])
    assert not report.ok
    names = {c.name for c in report.rows[0].checks if not c.passed}
    assert "coinv_p_elementary" in names


def test_cubic_rows_pass():
    report = verify.verify_cubic_tables()
    assert report.ok, report.to_text(verbose=True)


@pytest.mark.parametrize("alg_gram,coinv,short,long_", [
    # Hassett's K_2 = <eta, T> with T^2 = 1: eta - 3T has norm 6 and pairs
    # into 3Z with all of eta-perp, a long root
    ([[3, 1], [1, 1]], "U + E8^2 + [2] + [-1] + [1]", 0, 2),
    # K_6 with T^2 = 2 orthogonal to eta: T is a short root
    ([[3, 0], [0, 2]], "U + E8^2 + [6] + [-1] + [1]", 2, 0),
], ids=["K2", "K6"])
def test_cubic_root_counts_on_excluded_discriminants(alg_gram, coinv, short, long_):
    row = dataclasses.replace(catalog.cubic_row("phi35"), label="K", alg_gram=Matrix(alg_gram),
                              coinv=coinv, labeling_witness=())
    checks = {c.name: c for c in verify._verify_cubic_row(row).checks}
    assert checks["middle_cohomology_glue"].passed
    assert checks["no_short_roots"].detail == str(short)
    assert checks["no_long_roots"].detail == str(long_)


def test_verify_cubic_builds_no_overlattice(monkeypatch):
    # the glue and root columns are read from A and T alone
    def refuse(*args, **kwargs):
        raise AssertionError("verify cubic built an overlattice")

    for name in ("full_glue", "primitive_extension", "overlattice"):
        monkeypatch.setattr(glue, name, refuse)
    assert verify.verify_cubic_tables().ok


def test_cubic_negative_control():
    bad = dataclasses.replace(catalog.cubic_row("phi35"), moduli_dim=9)
    report = verify.verify_cubic_tables(rows=[bad])
    assert not report.ok
    names = {c.name for c in report.rows[0].checks if not c.passed}
    assert "rank_coinv_2d_plus_2" in names


def test_lsv_rows_pass():
    report = verify.verify_lsv_table()
    assert report.ok, report.to_text(verbose=True)


def test_lsv_negative_control():
    row = next(r for r in catalog.INDUCED_ROWS if r.label == "phi35")
    bad = dataclasses.replace(row, sgn_inv=(1, 5))
    report = verify.verify_lsv_table(rows=[bad])
    assert not report.ok


def test_find_u3_sublattice_skips_candidates_of_wrong_divisibility():
    # the first isotropic candidate (-1, -1, 0, ...) has divisibility 2, so
    # it pairs to 3 with nothing; skipping it untested leaves the budget for
    # the candidates that can
    lat = from_expression("[2] + [-2] + E6(-1) + D4(-1)")
    sub = find_u3_sublattice_oracle(lat, pair_budget=1000)
    assert sub is not None
    assert sub.gram() == Matrix([[0, 3], [3, 0]])
    assert glue.saturation_index(sub) == 1


# ---------------------------------------------------------------------------
# the U(3) witness oracle against the ball-and-sort search it replaced: the
# decision tests below read witnesses from it


def _norm_buckets(lat, max_norm):
    """{m: sorted vectors of |norm| m} for m = 1..max_norm, bucketed from one
    `shortvec.short_vectors` pass."""
    buckets = {m: [] for m in range(1, max_norm + 1)}
    for v, nv in shortvec.short_vectors(lat, max_norm):
        buckets[nv].append(v)
    return {m: sorted(vs) for m, vs in buckets.items()}


def _ball_and_sort_candidates(lat, max_def_norm=12, coeff_bound=4):
    """The isotropic candidates of the split shape as the earlier search built
    them: the whole definite ball to max_def_norm, every candidate, one
    stable sort by L1 size."""
    g = lat.gram
    n = lat.rank
    rest = Lattice(Matrix(tuple(tuple(g[i, j] for j in range(2, n)) for i in range(2, n))))
    sign = -1 if rest.signature[0] == 0 else 1
    by_norm = _norm_buckets(rest, max_def_norm)
    by_norm[0] = [tuple(0 for _ in range(n - 2))]
    cands = []
    for alpha in range(-coeff_bound, coeff_bound + 1):
        for beta in range(-coeff_bound, coeff_bound + 1):
            m = g[0, 0] * alpha * alpha + 2 * g[0, 1] * alpha * beta + g[1, 1] * beta * beta
            key = -m * sign if m else 0
            if key in by_norm:
                for w in by_norm[key]:
                    vec = (alpha, beta) + tuple(w)
                    if any(vec):
                        cands.append(vec)
    cands.sort(key=lambda v: sum(abs(x) for x in v))
    return cands


def _ball_and_sort_search(lat, cands, pair_budget=400000):
    """The earlier pair loop over a candidate list; returns (basis rows or
    None, pairs checked)."""
    g = lat.gram
    checked = 0
    for u in cands:
        gu = g.apply(u)
        div = gcd(*gu)
        if div == 0 or 3 % div:
            continue
        for v in cands:
            checked += 1
            if checked > pair_budget:
                return None, checked
            if sum(a * b for a, b in zip(v, gu)) != 3:
                continue
            sub = glue.Sublattice(lat, Matrix([u, v]))
            if bareiss_det(sub.gram()) != -9:
                continue
            if sub.gram() == Matrix([[0, 3], [3, 0]]) and glue.saturation_index(sub) == 1:
                return sub.basis.rows, checked
    return None, checked


def _stream(lat, max_def_norm=12, coeff_bound=4):
    g = lat.gram
    n = lat.rank
    rest = Lattice(Matrix(tuple(tuple(g[i, j] for j in range(2, n)) for i in range(2, n))))
    sign = -1 if rest.signature[0] == 0 else 1
    block = Matrix([[g[0, 0], g[0, 1]], [g[0, 1], g[1, 1]]])
    return u3_candidates_oracle(block, rest, sign, coeff_bound, max_def_norm)


PHI23 = "[2] + [-2] + E6(-1) + D4(-1)"


@pytest.fixture(scope="module")
def phi23_oracle():
    lat = from_expression(PHI23)
    return lat, _ball_and_sort_candidates(lat)


@pytest.mark.parametrize("expr", [
    "[2] + [-2] + A2(-1)^2", "U + A2(-1) + A2(-1)", "U + E6(-2)", "[1] + [-1] + D4(-1)",
    "[4] + [-2] + A2(-1)^2",
])
def test_u3_candidate_stream_matches_ball_and_sort(expr):
    lat = from_expression(expr)
    assert list(_stream(lat)) == _ball_and_sort_candidates(lat)
    assert list(_stream(lat, max_def_norm=4, coeff_bound=2)) == \
        _ball_and_sort_candidates(lat, max_def_norm=4, coeff_bound=2)


def test_u3_candidate_stream_phi23_prefix(phi23_oracle):
    lat, cands = phi23_oracle
    assert list(itertools.islice(_stream(lat), 1000)) == cands[:1000]


@pytest.mark.parametrize("label", [r.label for r in catalog.INDUCED_ROWS])
def test_find_u3_sublattice_same_witness_on_induced_rows(label, phi23_oracle):
    expr = next(r.inv for r in catalog.INDUCED_ROWS if r.label == label)
    lat = from_expression(expr)
    if expr.startswith("U(3)"):
        # a direct-sum U(3) block: the fast path returns its two basis vectors
        want = tuple(tuple(int(j == i) for j in range(lat.rank)) for i in (0, 1))
    else:
        cands = phi23_oracle[1] if expr == PHI23 else _ball_and_sort_candidates(lat)
        want, _ = _ball_and_sort_search(lat, cands)
    got = find_u3_sublattice_oracle(lat)
    assert want is not None and got.basis.rows == want


@pytest.mark.parametrize("budget", [1, 2, 3, 1000])
def test_find_u3_sublattice_budget_on_phi23(budget, phi23_oracle):
    lat, cands = phi23_oracle
    want, _ = _ball_and_sort_search(lat, cands, pair_budget=budget)
    got = find_u3_sublattice_oracle(lat, pair_budget=budget)
    assert (got.basis.rows if got is not None else None) == want


def test_find_u3_sublattice_budget_boundary():
    # the witness of this lattice is pair check 52,631 of the earlier search:
    # one pair less must give None, exactly that many the same witness
    lat = from_expression("[1] + [-1] + E6(-1)")
    want, checked = _ball_and_sort_search(lat, _ball_and_sort_candidates(lat))
    assert want is not None
    assert find_u3_sublattice_oracle(lat, pair_budget=checked - 1) is None
    assert find_u3_sublattice_oracle(lat, pair_budget=checked).basis.rows == want


def test_find_u3_sublattice_no_witness_same_pair_count(monkeypatch):
    # the pair loop calls zip once per pair checked and the oracle calls it
    # nowhere else on this path, so a counting zip counts the pairs
    lat = from_expression("[1] + [-1] + D4(-1)")
    want, checked = _ball_and_sort_search(lat, _ball_and_sort_candidates(lat))
    assert want is None and checked > 0
    calls = []

    def counting_zip(*args):
        calls.append(None)
        return zip(*args)

    monkeypatch.setattr(conftest, "zip", counting_zip, raising=False)
    assert find_u3_sublattice_oracle(lat) is None
    assert len(calls) == checked


def test_find_u3_sublattice_builds_no_ball(monkeypatch):
    def no_ball(*args):
        raise AssertionError("short_vectors called")

    monkeypatch.setattr(shortvec, "short_vectors", no_ball)
    sub = find_u3_sublattice_oracle(from_expression(PHI23))
    assert sub is not None and sub.gram() == Matrix([[0, 3], [3, 0]])


# ---------------------------------------------------------------------------
# the primitive U(3) decision


@pytest.mark.parametrize("row", catalog.INDUCED_ROWS, ids=lambda r: r.label)
def test_u3_embedding_agrees_with_the_witness_oracle_on_induced_rows(row):
    # phi21 and phi23 pass through the genus, alone in it; the other four
    # rows through a direct-summand block
    lat = from_expression(row.inv)
    passed, detail = verify._u3_embedding(lat)
    assert find_u3_sublattice_oracle(lat) is not None and passed
    assert detail.startswith("direct summand") == row.inv.startswith("U(3)")


@pytest.mark.parametrize("gram,passed,start", [
    (make_named("U").gram, False, "no primitive U(3)"),
    (rescale(make_named("U"), 9).gram, False, "no primitive U(3)"),
    (from_expression("U + A2").gram, True, "glue |H| = 3"),
    # U(3) in a basis with no summand block: the genus holds a primitive
    # U(3), but the rank is below l(A_L) + 2
    (Matrix([[0, 3], [3, 6]]), False, "undecided"),
    (Matrix([[1, 0], [0, -1]]), False, "undecided"),
    (make_named("A", 2).gram, False, "no primitive U(3)"),
])
def test_u3_embedding_examples(gram, passed, start):
    got, detail = verify._u3_embedding(Lattice(gram))
    assert got is passed and detail.startswith(start), detail


@st.composite
def _split_even_lattices(draw):
    """B + M: B a rank-2 even indefinite block, M a negative definite even
    sum of rank <= 4."""
    a, c = draw(st.sampled_from((0, 2, -2, 4, -4, 6))), draw(st.sampled_from((0, 2, -2, 6)))
    b = draw(st.integers(1, 6))
    assume(a * c - b * b < 0)
    terms = draw(st.lists(st.sampled_from(("A2(-1)", "A1(-1)", "[-6]", "A1(-3)", "D4(-1)",
                                           "A3(-1)", "[-4]")), min_size=1, max_size=3))
    rest = [from_expression(t) for t in terms]
    assume(sum(t.rank for t in rest) <= 4)
    return Lattice(linalg.block_diag([Matrix([[a, b], [b, c]])] + [t.gram for t in rest]))


@settings(max_examples=60, deadline=None)
@given(_split_even_lattices())
def test_u3_embedding_never_denies_a_witness(lat):
    passed, detail = verify._u3_embedding(lat)
    if find_u3_sublattice_oracle(lat, max_def_norm=8, coeff_bound=3, pair_budget=4000):
        assert passed or detail.startswith("undecided"), detail


def test_k3_table_matches():
    report = verify.verify_k3_table()
    assert report.ok, report.to_text(verbose=True)


def test_k3_negative_control():
    bad = dataclasses.replace(catalog.cubic_row("phi37"), has_assoc_k3=False)
    report = verify.verify_k3_table(rows=[bad])
    assert not report.ok


def test_k3_verdicts():
    for label, want in (("phi31", False), ("phi35", False),
                        ("phi37", True), ("phi32", True)):
        trans = from_expression(catalog.cubic_row(label).coinv)
        got, reason = verify.k3_association_verdict(trans)
        assert got == want, (label, reason)


def test_k3_verdict_rank22_det_clash():
    got, reason = verify.k3_association_verdict(from_expression("U^2 + E8(-1)^2 + [2] + [-2]"))
    assert not got and "rank 22" in reason


def test_k3_verdict_rank22_unimodular():
    # an indefinite even unimodular lattice is fixed by its signature, so
    # T(-1) embeds iff it is the K3 lattice itself
    got, reason = verify.k3_association_verdict(from_expression("U^3 + E8^2"))
    assert got, reason
    got, reason = verify.k3_association_verdict(from_expression("U^11"))
    assert not got and "does not fit" in reason


K3_REGRESSIONS = [
    # T(-1) = U^2 + E8(-1)^2 + [-2k] embeds via e - k f in a further U
    ("U^2 + E8^2 + A1", True),
    ("U^2 + E8^2 + [6]", True),
    ("U^2 + E8^2 + [4611686018427387902]", True),  # 2 (2^61 - 1)
    ("A1 + U", True),
    ("[4] + U", True),
    ("U + U(2) + E8^2", True),  # complement U(2)
    ("U^3 + E8^2", True),
    ("U + [1000000]", True),
    ("U^11", False),
    ("U + A2 + [5]", False),  # odd
]


@pytest.mark.parametrize("expr,want", K3_REGRESSIONS)
def test_k3_verdict_regressions(expr, want):
    got, reason = verify.k3_association_verdict(from_expression(expr))
    assert got == want, reason


@pytest.mark.parametrize("expr,p", [("E8^2 + U(3) + A1 + A1", 3), ("E8^2 + U(2) + A2", 2)])
def test_k3_verdict_local_condition_fails(expr, p):
    # the complement has signature (2, 0) and length 2 = its rank, and the
    # forms of U(3) + A1^2 and U(2) + A2 fail at p = 3 and p = 2
    got, reason = verify.k3_association_verdict(from_expression(expr))
    assert not got and "%d-adic" % p in reason


def test_k3_verdict_reads_the_length_from_the_invariant_factors():
    # A1^6 + A2^6 presents its form on 12 generators, one per summand, but
    # its group (Z/2)^6 + (Z/3)^6 = (Z/6)^6 has length 6
    trans = from_expression("A1^6 + A2^6")
    assert discform.discriminant_form(trans).ngens == 12
    assert verify.k3_association_verdict(trans) == \
        (False, "complement length 6 exceeds rank 4")


def test_k3_verdict_factors_only_where_needed():
    big = (2 ** 31 - 1) * (2 ** 61 - 1)  # no prime factor below 2^16
    # length 1 below the complement rank 19: no prime is examined, so even
    # a determinant beyond rho's budget is decided
    assert verify.k3_association_verdict(from_expression("U + [%d]" % (2 * big)))[0]
    huge = (2 ** 61 - 1) * (2 ** 89 - 1)
    assert verify.k3_association_verdict(from_expression("U + [%d]" % (2 * huge))) == \
        (True, "an even complement of signature (2, 17) exists")
    # a rank-1 complement needs the primes of 2 big, which rho finds
    assert _factorization(2 * big) == {2: 1, 2 ** 31 - 1: 1, 2 ** 61 - 1: 1}
    assert verify.k3_association_verdict(from_expression("U^2 + E8^2 + [%d]" % (2 * big))) == \
        (True, "an even complement of signature (1, 0) exists")
    # two primes near 2^61 and 2^89 are beyond rho's step budget
    with pytest.raises(TooLarge):
        verify.k3_association_verdict(from_expression("U^2 + E8^2 + [%d]" % (2 * huge)))


@pytest.mark.parametrize("label,expr", [("phi37", "U(3) + E6*(-3)"),
                                        ("phi32", "U(3) + A2(-1)^2 + E6(-1)")])
def test_k3_yes_rows_have_an_explicit_complement(label, expr):
    # the complements the old block search exhibited: each has the
    # signature and discriminant form the existence test asks for
    trans = from_expression(catalog.cubic_row(label).coinv)
    comp = from_expression(expr)
    tp, tm = trans.signature
    assert comp.is_even() and comp.signature == (3 - tm, 19 - tp)
    assert discform.forms_isomorphic(discform.discriminant_form(comp),
                                     discform.discriminant_form(trans))
    assert verify.k3_association_verdict(trans)[0]


def test_labeling_search_phi37():
    alg = Lattice(catalog.AY_PHI37)
    found = dict(verify.labeling_search(alg, 20))
    assert 14 in found
    sub = found[14]
    gram = (sub @ alg.gram @ sub.T)
    assert bareiss_det(gram) == 14


def test_labeling_search_phi35_multiples_of_six():
    alg = Lattice(catalog.AY_PHI35)
    found = verify.labeling_search(alg, 60)
    assert found
    assert all(d % 6 == 0 for d, _ in found)


def test_labeling_search_phi32_has_14():
    alg = Lattice(catalog.AY_PHI32)
    found = dict(verify.labeling_search(alg, 14))
    assert 14 in found


def test_labeling_rank_one_empty():
    assert verify.labeling_search(Lattice(catalog.AY_PHI31), 60) == []


def test_labeling_search_streams_the_ball():
    # the whole ball to norm (60 + 1) // 3 = 20 of AY_phi37 took 6.1 MB when
    # it was built before the first vector was read
    alg = Lattice(catalog.AY_PHI37)
    tracemalloc.start()
    try:
        found = verify.labeling_search(alg, 60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found and peak < 1_000_000


def _labeling_oracle(alg, d_max):
    """The per-vector search `labeling_search` replaced: a Matrix product and
    a Bareiss determinant for every enumerated vector, over the same vectors
    in the same order (with the |eta^2| // 2 bound of the fixed search)."""
    eta = tuple(1 if i == 0 else 0 for i in range(alg.rank))
    n = abs(alg.gram[0, 0])
    found = {}
    buckets = _norm_buckets(alg, (d_max + (n // 2) ** 2) // n)
    for norm in sorted(buckets):
        for vec in buckets[norm]:
            tail = vec[1:]
            if not any(tail):
                continue
            g = gcd(*tail)
            if g > 1:
                c = vec[0] % g
                vec = tuple((x - c * e) // g for x, e in zip(vec, eta))
            rows = Matrix([eta, vec])
            d = bareiss_det(rows @ alg.gram @ rows.T)
            if 0 < d <= d_max and d not in found:
                found[d] = rows
    return sorted(found.items())


def _random_definite(rng, rank):
    while True:
        b = Matrix([[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)])
        if bareiss_det(b):
            return Lattice(b @ b.T)


_D_MAXES = (8, 10, 13, 20, 30, 60)


def _labeling_cases():
    """(name, lattice, d_max values)."""
    fixtures = catalog.fixture_lattices()
    for name in sorted(k for k in fixtures if k.startswith("AY_")):
        # AY_phi32 has rank 13: the oracle alone takes seconds from d_max = 20
        yield name, fixtures[name], _D_MAXES if name != "AY_phi32" else _D_MAXES[:3]
    yield "A2(-1)", from_expression("A2(-1)"), _D_MAXES
    yield "AY_phi35(-1)", rescale(fixtures["AY_phi35"], -1), _D_MAXES[:5]
    rng = random.Random(8)
    for i in range(24):
        yield "random %d" % i, _random_definite(rng, rng.randint(2, 6)), (8, 13, 20)


def test_labeling_search_matches_determinant_oracle():
    for name, alg, d_maxes in _labeling_cases():
        # the oracle's vectors for a smaller d_max are a prefix of its vectors
        # for the largest, and that prefix already holds a witness for every
        # d <= d_max, so one oracle run serves every d_max
        full = _labeling_oracle(alg, d_maxes[-1])
        for d_max in d_maxes:
            want = [(d, w) for d, w in full if d <= d_max]
            assert verify.labeling_search(alg, d_max) == want, (name, d_max)


# Bourbaki's simple roots of E8 in the model {x in Z^8 u (Z + 1/2)^8 : sum x
# even}, doubled to be integral and ordered like make_named("E8"): a chain of
# seven nodes with the eighth attached to the third
_E8_ROOTS_2X = ((1, -1, -1, -1, -1, -1, -1, 1), (-2, 2, 0, 0, 0, 0, 0, 0),
                (0, -2, 2, 0, 0, 0, 0, 0), (0, 0, -2, 2, 0, 0, 0, 0),
                (0, 0, 0, -2, 2, 0, 0, 0), (0, 0, 0, 0, -2, 2, 0, 0),
                (0, 0, 0, 0, 0, -2, 2, 0), (2, 2, 0, 0, 0, 0, 0, 0))


def _e8_model_ball(max_norm):
    """(coefficients, norm) of every nonzero vector of E8 of norm <= max_norm,
    listed in doubled model coordinates y = 2x (all y_i of one parity, sum y
    divisible by 4) and written in the root basis."""
    roots = Matrix(_E8_ROOTS_2X)
    # E8 is unimodular, so basis^-1 = basis^T G^-1 has entries in Z/2 and
    # 4 * roots^-1 = 2 * basis^-1 is integral
    inv4 = fraction_inverse(roots).scale(4)
    assert all(x.denominator == 1 for r in inv4.rows for x in r)
    inv4 = [[int(x) for x in r] for r in inv4.rows]
    out = []
    y = [0] * 8

    def rec(i, left, parity):
        if i == 8:
            if any(y) and sum(y) % 4 == 0:
                coeffs = [sum(y[k] * inv4[k][j] for k in range(8)) for j in range(8)]
                assert all(c % 4 == 0 for c in coeffs)
                out.append((tuple(c // 4 for c in coeffs), sum(c * c for c in y) // 4))
            return
        r = isqrt(left)
        for c in range(-r, r + 1):
            if c % 2 == parity:
                y[i] = c
                rec(i + 1, left - c * c, parity)
        y[i] = 0

    for parity in (0, 1):
        rec(0, 4 * max_norm, parity)
    return out


@pytest.mark.parametrize("expr,d_max", [("D4", 30), ("A3", 30), ("A4", 30),
                                        ("[1] + A2", 30), ("E8", 8)])
def test_labeling_search_matches_box_oracle(expr, d_max):
    """The found d are exactly the d <= d_max of the saturated <eta, v>.  By
    the shift argument every such sublattice has a basis (eta, v) with
    |Q(v)| <= (d_max + (n // 2)^2) // n <= d_max, so the oracle takes every
    v of norm <= d_max: from the plain box, and for E8 (whose box is too
    large) from its coordinate model.  <eta, v> is saturated iff the
    coordinates of v after the first are coprime."""
    alg = from_expression(expr)
    g = alg.gram
    n = g[0, 0]
    if expr == "E8":
        roots = Matrix(_E8_ROOTS_2X)
        assert roots @ roots.T == g.scale(4)
        ball = _e8_model_ball(d_max)
    else:
        ball = box_ball(g, d_max)
    want = set()
    for v, nv in ball:
        if gcd(*v[1:]) == 1:
            d = n * nv - g.apply(v)[0] ** 2
            if d <= d_max:
                want.add(d)
    assert [d for d, _ in verify.labeling_search(alg, d_max)] == sorted(want)


def test_candidates_crosscheck():
    report, candidates = verify.derive_og10_order3_candidates()
    assert report.ok, report.to_text(verbose=True)
    # every order-3 row of the rank-26 table got a candidate list
    assert set(candidates) == {r.label for r in catalog.RANK26_PAIRS if r.p == 3}
    assert all(cands for cands in candidates.values())


def _replaced(rows, label, **changes):
    return tuple(dataclasses.replace(r, **changes) if r.label == label else r for r in rows)


def _crosscheck(report, label):
    (row,) = [r for r in report.rows if r.row == "crosscheck_" + label]
    (check,) = row.checks
    return check


def test_candidates_negative_control(monkeypatch):
    # an induced coinvariant whose genus no rank-26 row has pairs with no row
    monkeypatch.setattr(catalog, "INDUCED_ROWS", _replaced(
        catalog.INDUCED_ROWS, "phi37", coinv="U + U(3) + E8(-1) + [-6]^2"))
    report, _ = verify.derive_og10_order3_candidates()
    check = _crosscheck(report, "phi37")
    assert not check.passed and check.detail.endswith(": none (need exactly one)")
    assert [r.row for r in report.rows if not r.ok] == ["crosscheck_phi37"]


def test_candidates_two_matching_rank26_rows_fail(monkeypatch):
    twin = dataclasses.replace(
        next(r for r in catalog.RANK26_PAIRS if r.label == "18"), label="18b")
    monkeypatch.setattr(catalog, "RANK26_PAIRS", catalog.RANK26_PAIRS + (twin,))
    report, _ = verify.derive_og10_order3_candidates()
    check = _crosscheck(report, "phi37")
    assert not check.passed and ": 18, 18b (" in check.detail


def test_candidates_wrong_induced_invariant_fails(monkeypatch):
    # E6(-1) in place of E6*(-3): still rank 10 and signature (1, 9), and
    # paired with row 18 as before, but among none of its A2 complements
    monkeypatch.setattr(catalog, "INDUCED_ROWS", _replaced(
        catalog.INDUCED_ROWS, "phi37", inv="U(3) + E6(-1) + A2(-1)"))
    report, _ = verify.derive_og10_order3_candidates()
    check = _crosscheck(report, "phi37")
    assert not check.passed and check.detail == "row 18 of the rank-26 table"


def test_candidates_signature_obstruction():
    # a hyperbolic-plane host has only one positive direction, so no
    # complement of a positive definite A2 can exist
    assert verify.a2_complement_candidates(make_named("U")) == []


@pytest.mark.parametrize("expr", ["U^2 + A2(-3) + A2(-1)", "U(3) + U(9) + A2(-1)",
                                  "U^2 + E6(-3)"])
def test_candidates_merge_isomorphic_complements_on_mixed_hosts(expr):
    # the 3-part of these hosts is not 3-elementary, so the glue enumerator
    # gives every image of Z/3 (12, 54 and 270 of them), and all of them
    # leave isomorphic complement forms: one Z/3 candidate each
    cands = verify.a2_complement_candidates(from_expression(expr))
    assert [kind for kind, _, _ in cands] == ["trivial", "Z/3"]


def test_induced_pair_reassembles_rank24_genus():
    # invariant + coinvariant of the phi37 induced action glue back to a
    # lattice in the rank-24 hyperbolic-type genus, with glue length 7
    from latticeforge.discform import discriminant_form, forms_isomorphic
    from latticeforge.glue import Sublattice, glue_group, primitive_extension

    row = next(r for r in catalog.INDUCED_ROWS if r.label == "phi37")
    inv = from_expression(row.inv)
    coinv = from_expression(row.coinv)
    g = injective_anti_glue(coinv, inv)
    assert g is not None
    ext, corows, invrows = primitive_extension(g)
    amb = ext.lattice
    og = make_named("OG10")
    assert amb.rank == 24 and amb.signature == (3, 21) and abs(amb.det) == 3
    f1 = discriminant_form(amb)
    f2 = discriminant_form(og)
    assert forms_isomorphic(f1, f2)
    orders = glue_group(amb, Sublattice(amb, invrows), Sublattice(amb, corows))
    assert orders == (3,) * 7
    assert len(orders) <= coinv.rank // 2  # prime-order glue bound at p = 3


# ---------------------------------------------------------------------------
# U(3) gluing genus on forms against the explicit overlattices it replaced


def _overlattice_u3_gluings_to(target, other):
    """The earlier `_u3_gluings_to`: the direct sum or, at determinant ratio
    9, the overlattices along one graph per q(h), compared by genus."""
    u3 = rescale(make_named("U"), 3)
    if other.rank == 0:
        return verify._genus_equal(u3, target)
    direct = Lattice(linalg.block_diag([u3.gram, other.gram]))
    ratio = Fraction(abs(direct.det), abs(target.det))
    if ratio == 1:
        return verify._genus_equal(direct, target)
    if ratio != 9:
        return False
    fu = discform.discriminant_form(u3)
    fo = discform.discriminant_form(other)
    for (hy,) in u3_first_graphs_oracle(fu, fo):
        ext, _, _ = glue.primitive_extension(
            glue.GlueData(u3, other, Matrix([hy[:2]]), Matrix([hy[2:]])))
        if verify._genus_equal(ext.lattice, target):
            return True
    return False


def _u3_pairs():
    """(target, other) for the certificate, the four order-3 induced rows and
    every mismatched pairing of their invariants with other rows' parts."""
    invs = {r.label: from_expression(r.inv) for r in catalog.INDUCED_ROWS if r.p == 3}
    negs = {label: Lattice(-catalog.cubic_row(label).inv_gram) for label in invs}
    pairs = [(make_named("OG10"), from_expression("U^2 + E8(-1)^2 + A2(-1)"))]
    pairs += [(invs[a], negs[b]) for a in invs for b in invs]
    # a direct sum, an index-3 glue onto U, a determinant ratio of 81 and a
    # rank mismatch
    pairs += [(from_expression("U(3) + A2(-1)^2"), from_expression("A2(-1)^2")),
              (from_expression("U + A2(-1)^2"), from_expression("A2(-1)^2")),
              (from_expression("U(3) + E6(-1)"), from_expression("E6*(-3)")),
              (from_expression("U(3) + A2(-1)"), from_expression("E6(-1)"))]
    return pairs


def test_u3_gluings_on_forms_match_explicit_overlattices():
    pairs = _u3_pairs()
    got = [verify._u3_gluings_to(t, o) for t, o in pairs]
    assert got == [_overlattice_u3_gluings_to(t, o) for t, o in pairs]
    # the certificate and the four diagonal pairs glue; some mismatches do not
    assert got[0] and all(got[1 + 5 * i] for i in range(4))
    assert not all(got) and any(got[17:])


def test_u3_gluing_forms_are_negated_complement_forms():
    # the negated complement of U(3) in -q_other has, table for table, the
    # form of U(3) glued with other, read on disc U(3) + disc other
    fu = discform.discriminant_form(rescale(make_named("U"), 3))
    for _, other in _u3_pairs():
        fo = discform.discriminant_form(other)
        got = [(gens, form.neg()) for gens, form in glue.complement_forms(fu, fo.neg())]
        want = u3_glued_forms_oracle(fu, fo)
        assert [gens for gens, _ in got] == [gens for gens, _ in want]
        assert [(f.orders, f.B, f.Q) for _, f in got] == [(f.orders, f.B, f.Q) for _, f in want]


# ---------------------------------------------------------------------------
# verify all against the benchmark reference verdicts


def test_verify_all_matches_benchmark_reference():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    want = json.loads(path.read_text())["verify"]
    got = {report.table: {r.row: sorted([c.name, c.passed] for c in r.checks)
                          for r in report.rows}
           for report in verify.verify_all()}
    assert got == want


def test_report_serialization():
    report = verify.verify_k3_table()
    data = report.to_json()
    assert data["table"] == "k3"
    assert all("checks" in row for row in data["rows"])
    text = report.to_text(verbose=True)
    assert "4/4" in text

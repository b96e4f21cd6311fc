import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeforge import catalog, discform, linalg, verify
from latticeforge.discform import (
    FiniteQuadraticForm,
    _local_class,
    class_of,
    discriminant_form,
    element_lift,
    forms_isomorphic,
)
from latticeforge.errors import (
    BadInput,
    BadParams,
    DegenerateForm,
    TooLarge,
    UnknownName,
    ZeroScale,
    ZeroVector,
)
from latticeforge.lattice import (
    NAMED,
    Lattice,
    _factorization,
    _invariant_factors,
    _is_prime,
    direct_sum,
    from_expression,
    make_named,
    rescale,
)
from latticeforge.linalg import Matrix

# name, rank, signature, determinant, even
GOLDEN = [
    ("U", 2, (1, 1), -1, True),
    ("A2", 2, (2, 0), 3, True),
    ("A4", 4, (4, 0), 5, True),
    ("A10", 10, (10, 0), 11, True),
    ("D4", 4, (4, 0), 4, True),
    ("E6", 6, (6, 0), 3, True),
    ("E7", 7, (7, 0), 2, True),
    ("E8", 8, (8, 0), 1, True),
    ("K7", 2, (0, 2), 7, True),
    ("K11", 2, (0, 2), 11, True),
    ("K19", 2, (0, 2), 19, True),
    ("K23", 2, (0, 2), 23, True),
    ("h5", 2, (1, 1), -5, True),
    ("h13", 2, (1, 1), -13, True),
    ("E6*(3)", 6, (6, 0), 243, True),
    ("L17", 4, (4, 0), 17, True),
    ("N69", 2, (1, 1), -69, True),
    ("N15", 2, (2, 0), 15, True),
    ("ExA", 2, (2, 0), 23, True),
    ("ExB", 2, (2, 0), 23, True),
    ("OG10", 24, (3, 21), -3, True),
    ("Lambda", 26, (5, 21), -1, True),
    ("F", 22, (20, 2), 3, True),
    ("K3", 22, (3, 19), -1, True),
]


@pytest.mark.parametrize("name,rank,sig,d,even", GOLDEN)
def test_named_invariants(name, rank, sig, d, even):
    lat = from_expression(name)
    assert lat.rank == rank
    assert lat.signature == sig
    assert lat.det == d
    assert lat.is_even() == even


def test_named_k7_h5_matrices():
    assert make_named("K", 7).gram == Matrix([[-4, 1], [1, -2]])
    assert make_named("H", 5).gram == Matrix([[2, 1], [1, -2]])
    assert make_named("ExA").gram == Matrix([[12, 1], [1, 2]])


def test_named_table_drives_names_expressions_and_registry(fresh_lattices):
    from latticeforge import cli

    reg = cli._registry()
    for name, entry in NAMED.items():
        want = entry if isinstance(entry, Matrix) else from_expression(entry).gram
        lat = make_named(name)
        assert lat.gram == want
        assert from_expression(name).gram == want
        assert reg[name] is from_expression(name)
        if not isinstance(entry, Matrix):
            assert lat is from_expression(entry) is from_expression(name)
        if "(" not in name:
            assert from_expression(name + "(-1)").gram == want.scale(-1)
    for alias in ("E6*", "E6star", "E6star3"):
        lat = make_named(alias)
        assert lat.gram == NAMED["E6*(3)"]
        assert alias not in reg
    # the composites as the earlier if-chain built them
    og = direct_sum([make_named("U")] * 3 + [rescale(make_named("E", 8), -1)] * 2
                    + [rescale(make_named("A", 2), -1)])
    assert make_named("OG10").gram == og.gram
    assert make_named("H4cubic").gram == Matrix.diagonal([1] * 21 + [-1] * 2)
    # a fixed name wins over the K_p family
    assert from_expression("K3").rank == 22


def test_middle_cohomology_lattice():
    # the odd unimodular middle-cohomology lattice of a cubic fourfold;
    # rank 23 = 22 + 1 from the primitive part plus the square of the
    # hyperplane class, signature (21, 2)
    h4 = make_named("H4cubic")
    assert h4.rank == 23
    assert h4.signature == (21, 2)
    assert abs(h4.det) == 1
    assert not h4.is_even()


def test_bad_names():
    with pytest.raises(UnknownName):
        make_named("Zorp")
    with pytest.raises(BadParams):
        make_named("K", 4)
    with pytest.raises(BadParams):
        make_named("H", 9)
    with pytest.raises(BadParams):
        make_named("A", 0)


def test_rescale():
    u3 = rescale(make_named("U"), 3)
    assert u3.gram == Matrix([[0, 3], [3, 0]])
    assert rescale(make_named("A", 2), -1).gram == Matrix([[-2, 1], [1, -2]])
    assert rescale(make_named("[]", 1), -1).gram == Matrix([[-1]])
    with pytest.raises(ZeroScale):
        rescale(u3, 0)


def test_rescale_det_scaling():
    rng = random.Random(1)
    for name in ("A2", "D4", "E6", "U"):
        lat = from_expression(name)
        for _ in range(5):
            k = rng.choice([-3, -2, -1, 2, 3, 5])
            assert rescale(lat, k).det == k ** lat.rank * lat.det


def test_direct_sum():
    uu = direct_sum([make_named("U")] * 2)
    assert uu.rank == 4 and uu.signature == (2, 2)
    og = from_expression("U^3 + E8(-1)^2 + A2(-1)")
    assert og.rank == 24 and og.det == -3 and og.signature == (3, 21)
    lam = from_expression("U^5 + E8(-1)^2")
    assert lam.rank == 26 and lam.det == -1


def test_direct_sum_equals_the_checked_block_diagonal_lattice():
    # a sum binds its block-diagonal Gram without checking it again; every
    # summand was checked when it was built
    terms = [make_named("U"), from_expression("A2(-1)"), Lattice([[3]]),
             rescale(make_named("D", 4), 2)]
    lat = direct_sum(terms)
    assert lat == Lattice(linalg.block_diag([t.gram for t in terms]))
    assert lat._summands == tuple(terms)
    assert all(type(x) is int for r in lat.gram.rows for x in r) and lat.gram.is_symmetric()
    nested = direct_sum([lat, make_named("A", 1)])
    assert nested == Lattice(linalg.block_diag([lat.gram, make_named("A", 1).gram]))
    assert nested._summands == (lat, make_named("A", 1))


def test_direct_sum_rejects_bad_input_at_the_summand():
    with pytest.raises(BadInput, match="integers"):
        direct_sum([make_named("A", 2), Lattice([[1.5]])])
    with pytest.raises(DegenerateForm, match="not symmetric"):
        direct_sum([Lattice([[2, 1], [0, 2]]), make_named("U")])


# a direct sum reads det and signature from its summands; the whole Gram's
# elimination is the reference

_TERMS = ("U", "A2", "A1", "D4", "E6", "E8", "K5", "h5", "N69", "E6*(3)", "[3]", "[-2]", "[1]")


@st.composite
def _sum_terms(draw):
    """A summand: a named or rank-one term, possibly twisted, the degenerate
    [0], or a direct sum of such summands."""
    kind = draw(st.sampled_from(("term", "term", "term", "zero", "sum")))
    if kind == "zero":
        return Lattice([[0]])
    if kind == "sum":
        return direct_sum(draw(st.lists(_sum_terms(), min_size=1, max_size=3)))
    lat = from_expression(draw(st.sampled_from(_TERMS)))
    twist = draw(st.sampled_from((1, 1, -1, 2, -3)))
    return rescale(lat, twist) if twist != 1 else lat


@settings(max_examples=150, deadline=None)
@given(st.lists(_sum_terms(), min_size=1, max_size=5), st.booleans())
def test_direct_sum_invariants_match_the_whole_elimination(summands, det_first):
    lat = direct_sum(summands)
    try:
        whole = linalg.symmetric_elimination(lat.gram)
    except DegenerateForm:
        assert lat.det == 0
        with pytest.raises(DegenerateForm, match="degenerate form"):
            lat.signature
        return
    # the signature also reads the det; either may come first
    if det_first:
        assert lat.det == whole.det
        assert lat.signature == whole.signature
    else:
        assert lat.signature == whole.signature
        assert lat.det == whole.det


def _leaves(lat):
    """The summands of a nested direct sum that are no sums, in order."""
    if lat._summands is None:
        return [lat]
    return [leaf for s in lat._summands for leaf in _leaves(s)]


@settings(max_examples=150, deadline=None)
@given(st.lists(_sum_terms(), min_size=1, max_size=5))
def test_direct_sum_discriminant_matches_the_whole_smith_form(summands):
    # the merged invariant factors and the orthogonal sum of the summands'
    # forms against a fresh lattice on the same Gram, which has no summands
    lat = direct_sum(summands)
    whole = Lattice(lat.gram)
    assert lat.disc_group_orders() == tuple(d for d in linalg.smith_normal_form(lat.gram).divisors
                                            if d not in (0, 1))
    assert lat.disc_group_orders() == whole.disc_group_orders()
    if lat.det == 0:
        with pytest.raises(DegenerateForm, match="degenerate form"):
            discriminant_form(lat)
        return
    got, want = discriminant_form(lat), discriminant_form(whole)
    assert (got.Q is None) == (want.Q is None)
    assert got.is_trivial() or (got.Q is None) == (not lat.is_even())
    # a witness: each generator of `got` is the class of a dual vector of a
    # summand, which `class_of` places in `want`; the map keeps b and q, so
    # it is injective (b is nondegenerate), and both groups have order |det|
    assert got.group_order == want.group_order == abs(lat.det)
    images, padded, offset = [], [], 0
    for leaf in _leaves(lat):
        if abs(leaf.det) != 1:
            f = discriminant_form(leaf)
            for e in Matrix.identity(f.ngens).rows:
                vec = [0] * lat.rank
                vec[offset:offset + leaf.rank] = [got.den // f.den * x
                                                  for x in element_lift(leaf, e)]
                padded.append(tuple(vec))
                images.append(class_of(whole, vec))
        offset += leaf.rank
    # the lifts of the sum are the leaves' lifts, scaled and padded
    assert [element_lift(lat, e) for e in Matrix.identity(got.ngens).rows] == padded
    assert got.den == want.den and len(images) == got.ngens
    assert [[want._b(x, y) for y in images] for x in images] == [list(r) for r in got.B]
    if got.Q is not None:
        assert [want._q(x) for x in images] == list(got.Q)
    # forms_isomorphic decides odd p-parts and 2-elementary 2-parts without
    # search; any other 2-part goes to the backtracking search, which can
    # run for minutes below DESK_GROUP_BOUND (ROADMAP item 2: 2-adic
    # symbols), so it is asked only where no search runs, and the witness
    # above covers the rest
    if got.den % 2 or _local_class(got, 2) is not None:
        assert forms_isomorphic(got, want) and forms_isomorphic(want, got)


@settings(max_examples=100, deadline=None)
@given(st.lists(_sum_terms(), min_size=1, max_size=5))
def test_class_of_inverts_element_lift(summands):
    # on a sum, unimodular and odd unimodular summands included, and on a
    # lattice on the same Gram with no summands; every element of a group of
    # order <= 729, else each generator, and each negated, so unreduced
    lat = direct_sum(summands)
    if lat.det == 0:
        return
    for each in (lat, Lattice(lat.gram)):
        form = discriminant_form(each)
        xs = form.elements() if form.group_order <= 729 else Matrix.identity(form.ngens).rows
        for x in xs:
            for y in (x, tuple(-c for c in x)):
                assert class_of(each, element_lift(each, y)) == form.reduce(y), (each, y)


def test_disc_group_orders_merge_the_summands():
    # Z/2 + Z/3 + Z/4 + Z/6 = Z/2 + Z/12 + Z/6 regrouped: Z/2 + Z/6 + Z/12
    lat = from_expression("[2] + [3] + [4] + [6]")
    assert lat._snf is None
    assert lat.disc_group_orders() == (2, 6, 12)
    assert lat._snf is None
    assert Lattice(lat.gram).disc_group_orders() == (2, 6, 12)


def test_verify_lambda_p_eliminates_terms_only(monkeypatch):
    # the rank-26 rows are sums of terms of rank at most 10 (A10(-1) in the
    # p = 11 row); det and signature come from the terms, each eliminated
    # once, and no whole Gram is eliminated
    grams = []
    real = linalg.symmetric_elimination

    def recording(g):
        grams.append(g)
        return real(g)

    from_expression.cache_clear()
    monkeypatch.setattr(linalg, "symmetric_elimination", recording)
    try:
        assert verify.verify_lambda_p().ok
    finally:
        from_expression.cache_clear()
    monkeypatch.undo()
    terms = {term.gram for row in catalog.RANK26_PAIRS for expr in (row.coinv, row.inv)
             for term in from_expression(expr)._summands or [from_expression(expr)]}
    assert grams and max(g.nrows for g in grams) <= 10
    assert len(set(grams)) == len(grams) and set(grams) <= terms


def test_verify_lambda_p_smith_forms_terms_only(monkeypatch):
    # the discriminant groups and forms of the rank-26 rows come from their
    # terms too: each term's Gram has one Smith form, and no whole Gram has
    # any
    grams = []
    real = linalg.smith_normal_form

    def recording(m):
        grams.append(m)
        return real(m)

    from_expression.cache_clear()
    monkeypatch.setattr(linalg, "smith_normal_form", recording)
    try:
        assert verify.verify_lambda_p().ok
    finally:
        from_expression.cache_clear()
    monkeypatch.undo()
    terms = {term.gram for row in catalog.RANK26_PAIRS for expr in (row.coinv, row.inv)
             for term in from_expression(expr)._summands or [from_expression(expr)]}
    assert grams and max(g.nrows for g in grams) <= 10
    assert len(set(grams)) == len(grams) and set(grams) <= terms


# every invariant is cached on the lattice when first read, and a form's
# local classes on the form; each cached value must be the one a fresh
# lattice on the same Gram computes, which has no summands and no caches

_READERS = {
    "det": lambda lat: lat.det,
    "signature": lambda lat: lat.signature,
    "is_even": lambda lat: lat.is_even(),
    "disc_group_orders": lambda lat: lat.disc_group_orders(),
    "elimination": lambda lat: lat.elimination(),
    "snf": lambda lat: lat.snf(),
    "discriminant_form": discriminant_form,
}
# the cache each reader fills; a reader that raises must leave it empty
_SLOTS = {"det": "_det", "signature": "_sig", "is_even": "_even",
          "disc_group_orders": "_orders", "elimination": "_elim", "snf": "_snf",
          "discriminant_form": "_disc"}
_CACHES = ("_elim", "_det", "_snf", "_sig", "_even", "_orders", "_disc")


def _read(name, lat):
    try:
        return _READERS[name](lat)
    except DegenerateForm as exc:
        return exc


def _same_local_classes(form):
    """Each local class is cached on the form, read twice as one object, and
    equals the class of an uncached copy of the form."""
    copy = FiniteQuadraticForm(form.orders, form.B, form.Q)
    for p in _factorization(form.den):
        got = _local_class(form, p)
        assert _local_class(form, p) is got and got == _local_class(copy, p)
        assert p in form._local


def _check_caches(lat, order):
    got = {name: _read(name, lat) for name in order}
    fresh = Lattice(lat.gram)
    for name in order:
        value = got[name]
        if isinstance(value, DegenerateForm):
            assert isinstance(_read(name, fresh), DegenerateForm), name
            assert getattr(lat, _SLOTS[name]) is None, name
            continue
        assert _read(name, lat) is value, name
        if name == "discriminant_form" and lat._summands is not None:
            # a sum presents its form on its summands' generators: the same
            # group and parity as the Smith form of its whole Gram; each
            # lift is the class of its own generator, and its class in the
            # whole Gram's form keeps b and q (a witness of isomorphism)
            form, want = value, discriminant_form(fresh)
            assert _invariant_factors(form.orders) == want.orders
            assert (form.Q is None) == (want.Q is None)
            units = Matrix.identity(form.ngens).rows
            lifts = [element_lift(lat, e) for e in units]
            assert [class_of(lat, row) for row in lifts] == list(units)
            images = [class_of(fresh, row) for row in lifts]
            assert form.den == want.den
            assert [[want._b(x, y) for y in images] for x in images] == [list(r) for r in form.B]
            if form.Q is not None:
                assert [want._q(x) for x in images] == list(form.Q)
            # a 2-part that is neither odd nor 2-elementary goes to the
            # backtracking search, which can run for minutes (ROADMAP item 2)
            if form.den % 2 or _local_class(form, 2) is not None:
                assert forms_isomorphic(form, want)
            _same_local_classes(form)
        elif name == "discriminant_form":
            form, want = value, discriminant_form(fresh)
            assert (form.orders, form.B, form.Q) == (want.orders, want.B, want.Q)
            assert all(element_lift(lat, e) == element_lift(fresh, e)
                       for e in Matrix.identity(form.ngens).rows)
            _same_local_classes(form)
        else:
            assert value == _read(name, fresh), name


def test_every_lattice_verify_all_parses_caches_what_a_fresh_lattice_computes(monkeypatch):
    parsed = []
    for name in ("from_expression", "make_named"):
        real = getattr(verify, name)

        def recording(*args, real=real):
            parsed.append(real(*args))
            return parsed[-1]

        monkeypatch.setattr(verify, name, recording)
    from_expression.cache_clear()
    try:
        assert all(report.ok for report in verify.verify_all())
    finally:
        from_expression.cache_clear()
    monkeypatch.undo()
    lats = list({id(lat): lat for lat in parsed}.values())
    assert len(lats) > 100
    rng = random.Random(25)
    for lat in lats:
        _check_caches(lat, rng.sample(sorted(_READERS), len(_READERS)))


@settings(max_examples=150, deadline=None)
@given(st.lists(_sum_terms(), min_size=1, max_size=5),
       st.permutations(sorted(_READERS)))
def test_a_direct_sum_caches_what_a_fresh_lattice_computes(summands, order):
    lat = direct_sum(summands)
    assert all(getattr(lat, slot) is None for slot in _CACHES)
    _check_caches(lat, order)


def test_set_starts_with_every_cache_empty():
    lat = from_expression("U + A2 + [2]")
    for name in _READERS:
        _read(name, lat)
    assert all(getattr(lat, slot) is not None for slot in _CACHES)
    for fresh in (Lattice(lat.gram), direct_sum([lat, lat]), rescale(lat, 2)):
        assert all(getattr(fresh, slot) is None for slot in _CACHES)
    assert FiniteQuadraticForm((3,), [[1]], [2])._local is None


def test_a_raising_computation_caches_nothing():
    lat = direct_sum([make_named("A", 2), Lattice([[0]])])
    for name in ("signature", "discriminant_form", "elimination"):
        with pytest.raises(DegenerateForm):
            _READERS[name](lat)
        assert getattr(lat, _SLOTS[name]) is None
    form = FiniteQuadraticForm((3, 3), [[1, 0], [0, 0]], [2, 0])  # degenerate
    with pytest.raises(DegenerateForm):
        _local_class(form, 3)
    assert 3 not in form._local


def test_a_verify_pass_computes_each_form_and_local_class_once(monkeypatch):
    # verify lambda_p and verify candidates read the same lattices; each
    # form is built once per lattice object and split once per prime
    calls = {"_discriminant_form": [], "_jordan": []}
    for name, seen in calls.items():
        real = getattr(discform, name)

        def counting(*args, real=real, seen=seen):
            seen.append(args)  # holds the objects, so no id is reused
            return real(*args)

        monkeypatch.setattr(discform, name, counting)
    from_expression.cache_clear()
    try:
        assert verify.verify_lambda_p().ok
        assert verify.derive_og10_order3_candidates().ok
    finally:
        from_expression.cache_clear()
    monkeypatch.undo()
    for name, seen in calls.items():
        keys = [tuple(map(id, args[:1])) + args[1:] for args in seen]
        assert seen and len(set(keys)) == len(keys), name


def test_expression_terms_are_built_once():
    from_expression.cache_clear()
    a = from_expression("U + E8(-1)^2 + A2")
    b = from_expression("U^3 + E8(-1)")
    assert a._summands[1] is a._summands[2] is b._summands[3] is from_expression("E8(-1)")
    assert a._summands[0] is b._summands[0]
    # the cached object itself, not a copy of it
    assert from_expression("U + E8(-1)^2 + A2") is a


def test_divisibility():
    a2 = make_named("A", 2)
    assert a2.divisibility((1, 0)) == 1
    u3 = rescale(make_named("U"), 3)
    assert u3.divisibility((1, 0)) == 3
    og = make_named("OG10")
    gen = tuple(1 if i == 22 else 0 for i in range(24))
    assert og.divisibility(gen) == 1
    with pytest.raises(ZeroVector):
        a2.divisibility((0, 0))


def test_divisibility_divides_pairings():
    rng = random.Random(9)
    og = make_named("OG10")
    v = tuple(rng.randint(-2, 2) for _ in range(24))
    if not any(v):
        v = (1,) + (0,) * 23
    d = og.divisibility(v)
    for _ in range(20):
        w = tuple(rng.randint(-4, 4) for _ in range(24))
        assert og.inner(v, w) % d == 0


def test_inner():
    u = make_named("U")
    assert u.inner((1, 0), (0, 1)) == 1
    exb = make_named("ExB")
    assert exb.inner((1, 0), (1, 0)) == 6
    from latticeforge.catalog import AY_PHI37

    ay = Lattice(AY_PHI37)
    eta = (1,) + (0,) * 8
    f1 = (0, 1) + (0,) * 7
    assert ay.inner(eta, f1) == 1


def test_expression_parser():
    assert from_expression("U(3)").gram == Matrix([[0, 3], [3, 0]])
    assert from_expression("[2] + [-2]^2").rank == 3
    assert from_expression("E6*(-3)").signature == (0, 6)
    with pytest.raises(UnknownName):
        from_expression("Q17 + U")
    with pytest.raises(UnknownName):
        from_expression("")


def test_json_roundtrip():
    lat = make_named("ExA")
    back = Lattice.from_json(json.loads('{"name": "ExA", "gram": [[12, 1], [1, 2]]}'))
    assert back.gram == lat.gram


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(61)
    cases = list(range(-3, 3000))
    # Carmichael numbers (56052361 = 211 * 421 * 631 has a^((n-1)/2) = 1
    # for every base) and strong pseudoprimes to the first bases
    cases += [561, 1105, 1729, 8911, 56052361, 172947529, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461, 2 ** 61 - 1, 2 ** 67 - 1,
              3317044064679887385961813]
    cases += [rng.randrange(2, 3 * 10 ** 24) for _ in range(2000)]
    for n in cases:
        assert _is_prime(n) == sympy.isprime(n), n


def test_is_prime_beyond_the_deterministic_bound():
    # 3317044064679887385961981 is the least composite that passes all 13
    # Miller-Rabin bases; from it on, passing numbers are not decided
    assert _is_prime(3317044064679887385961813)  # the prime below it
    for n in (3317044064679887385961981, 3317044064679887385962123, 2 ** 89 - 1):
        with pytest.raises(TooLarge):
            _is_prime(n)
    assert not _is_prime(2 ** 89 + 1) and not _is_prime(2 ** 100)


def test_factorization_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(67)
    cases = list(range(1, 2000)) + [2 ** 16 - 1, 2 ** 16 + 1, 65521 ** 2, 65521 * 65537,
                                    2 * (2 ** 61 - 1), 10 ** 6, 2 ** 62]
    # every n whose part above the trial bound is one prime
    cases += [rng.randrange(1, 2 ** 16) * rng.choice([1, 65537, 2 ** 31 - 1, 2 ** 61 - 1])
              for _ in range(300)]
    for n in cases:
        assert _factorization(n) == sympy.factorint(n), n


def test_factorization_refuses_two_large_primes():
    # trial division stops below 2^16 and rho splits what is left, but
    # two primes near 2^61 and 2^89 are beyond rho's step budget
    sympy = pytest.importorskip("sympy")
    for n in ((2 ** 31 - 1) * (2 ** 61 - 1), 65537 ** 2, 6 * 65537 * 65539, 65537 ** 3 * 65539,
              (2 ** 31 - 1) ** 2 * (2 ** 61 - 1)):
        assert _factorization(n) == sympy.factorint(n), n
    with pytest.raises(TooLarge):
        _factorization((2 ** 61 - 1) * (2 ** 89 - 1))

import itertools
import math
import random
from fractions import Fraction

import pytest
from conftest import (
    bareiss_det,
    cyclotomic_milgram,
    fraction_inverse,
    fraction_to_int,
    is_nondegenerate,
    jordan_full_min_oracle,
    jordan_rebuild_oracle,
    local_obstruction_oracle,
    q_of,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latticeforge import catalog, discform, verify
from latticeforge.discform import (
    TRIVIAL_FORM,
    FiniteQuadraticForm,
    _jordan,
    _local_class,
    _match_maps,
    _presentation,
    class_of,
    delta_invariant,
    discriminant_form,
    element_lift,
    forms_isomorphic,
    genus_obstruction,
    length_or_local_obstruction,
    local_obstruction,
    milgram_signature,
    orthogonal_subgroup,
    subquotient_form,
)
from latticeforge.errors import DegenerateForm, NotTwoElementary, OddLatticeQuadratic
from latticeforge.lattice import (
    Lattice,
    _invariant_factors,
    direct_sum,
    from_expression,
    make_named,
    rescale,
)
from latticeforge.linalg import Matrix, hermite_normal_form, smith_normal_form

A2 = make_named("A", 2)


def test_disc_a2():
    f = discriminant_form(A2)
    assert f.orders == (3,)
    assert f.q == (Fraction(2, 3),)


def test_disc_unimodular_trivial():
    f = discriminant_form(make_named("U"))
    assert f.is_trivial()
    f = discriminant_form(make_named("E", 8))
    assert f.is_trivial()


def test_disc_og10():
    og = make_named("OG10")
    f = discriminant_form(og)
    assert f.orders == (3,)
    assert f.q == (Fraction(4, 3),)
    # the generator lift lands in the A2(-1) tail
    lift = element_lift(og, (1,))
    assert all(x == 0 for x in lift[:22])


def test_disc_odd_lattice_has_no_q():
    f = discriminant_form(make_named("[]", 3))
    assert f.q is None
    with pytest.raises(OddLatticeQuadratic):
        f._q((1,))


def _assert_form_matches_lifts(form, lat, lift, sign=1):
    """b(x, y) mod 1 and q(x) mod 2 on every element equal sign times
    the lifts lift(x) (integer vectors over form.den) paired through the
    Gram matrix; odd lattices have no q."""
    den2 = form.den ** 2
    vecs = {x: lift(x) for x in form.elements()}
    gvecs = {x: lat.gram.apply(v) for x, v in vecs.items()}
    for x, vx in vecs.items():
        if lat.is_even():
            want = sign * Fraction(sum(a * b for a, b in zip(vx, gvecs[x])), den2) % 2
            assert q_of(form, x) == want, x
        else:
            with pytest.raises(OddLatticeQuadratic):
                form._q(x)
        for y, gy in gvecs.items():
            want = sign * Fraction(sum(a * b for a, b in zip(vx, gy)), den2) % 1
            assert Fraction(form._b(x, y), form.den) == want, (x, y)


@pytest.mark.parametrize("expr", ["A2 + A2(-1)", "[3] + D4(-1)", "[4] + A2(-1)", "A2 + [4]",
                                  "D4 + [4]"])
def test_q_values_brute_force_oracle(expr):
    # every value of disc(lat), of its negative and of its direct sum with
    # disc([8]) against the lifts pushed through the Gram matrix
    lat = from_expression(expr)
    f = discriminant_form(lat)

    def lift(x):
        return element_lift(lat, x)

    _assert_form_matches_lifts(f, lat, lift)
    _assert_form_matches_lifts(f.neg(), lat, lift, sign=-1)
    eight = make_named("[]", 8)
    g = discriminant_form(eight)
    fg = f.direct_sum(g)
    total = direct_sum([lat, eight])

    def both(x):
        """Both lifts rewritten over the denominator of the sum."""
        k = f.ngens
        return tuple(fg.den // f.den * c for c in lift(x[:k])) \
            + tuple(fg.den // g.den * c for c in element_lift(eight, x[k:]))

    _assert_form_matches_lifts(fg, total, both)
    # which is what `element_lift` gives on the sum
    assert all(element_lift(total, x) == both(x) for x in fg.elements())


def test_degenerate_form():
    # on (Z/3)^2 with b = 1/3 everywhere, (1, 2) pairs to 0 with everything
    f = FiniteQuadraticForm((3, 3), [[1, 1], [1, 1]], [4, 4])
    assert not is_nondegenerate(f)
    assert f._b((1, 2), (1, 0)) == f._b((1, 2), (0, 1)) == 0
    with pytest.raises(DegenerateForm):
        milgram_signature(f)
    assert is_nondegenerate(discriminant_form(A2))


def test_delta():
    f = discriminant_form(make_named("D", 4))
    assert delta_invariant(f) == 0
    f2 = discriminant_form(make_named("[]", 2))
    assert delta_invariant(f2) == 1
    assert delta_invariant(TRIVIAL_FORM) == 0
    with pytest.raises(NotTwoElementary):
        delta_invariant(discriminant_form(A2))


MILGRAM_CASES = [
    ("E8(-1)", 0),
    ("A2", 2),
    ("U^3 + E8(-1)^2 + A2(-1)", 6),  # signature (3, 21)
]


@pytest.mark.parametrize("expr,want", MILGRAM_CASES)
def test_milgram_examples(expr, want):
    f = discriminant_form(from_expression(expr))
    assert milgram_signature(f) == want


EVEN_NAMED = [
    "U", "A2", "A3", "A4", "A6", "A10", "D4", "D5", "D6", "E6", "E7", "E8",
    "K7", "K11", "K19", "K23", "h5", "h13", "E6*(3)", "L17", "N69", "N15",
    "ExA", "ExB", "OG10", "Lambda", "F", "K3", "U(3)", "U(5)", "A2(-1)",
    "E6(-2)", "D4(-1)", "[2]", "[-2]", "[4]", "U + A2(-1)^2",
]


@pytest.mark.parametrize("expr", EVEN_NAMED)
def test_milgram_matches_signature(expr):
    lat = from_expression(expr)
    assert lat.is_even()
    f = discriminant_form(lat)
    sp, sm = lat.signature
    assert milgram_signature(f) == cyclotomic_milgram(f) == (sp - sm) % 8


@pytest.mark.parametrize("expr", EVEN_NAMED)
def test_disc_order_equals_determinant(expr):
    lat = from_expression(expr)
    f = discriminant_form(lat)
    assert f.group_order == abs(lat.det)


def test_forms_isomorphic_examples():
    fa = discriminant_form(make_named("ExA"))
    fb = discriminant_form(make_named("ExB"))
    assert forms_isomorphic(fa, fb)
    f1 = discriminant_form(A2)
    f2 = discriminant_form(rescale(A2, -1))
    assert not forms_isomorphic(f1, f2)
    assert forms_isomorphic(TRIVIAL_FORM, TRIVIAL_FORM)


def test_forms_isomorphic_across_presentations():
    # disc(A1 + A2) read from the whole Gram is Z/6 with q = 7/6; read from
    # the summands it is Z/2 + Z/3 with q = 1/2, 2/3.  The groups have the
    # same elementary divisors, so the forms are compared prime by prime
    lat = from_expression("A1 + A2")
    whole = discriminant_form(Lattice(lat.gram))
    split = discriminant_form(lat)
    assert whole.orders == (6,) and whole.q == (Fraction(7, 6),)
    assert split.orders == (2, 3) and split.q == (Fraction(1, 2), Fraction(2, 3))
    assert forms_isomorphic(whole, split) and forms_isomorphic(split, whole)
    assert not forms_isomorphic(whole, split.neg())
    # Z/2 + Z/2 is not Z/4, whatever the forms
    assert not forms_isomorphic(discriminant_form(from_expression("[2] + [2]")),
                                discriminant_form(from_expression("[4]")))


def test_discriminant_form_of_an_odd_sum_is_bilinear_only():
    # [1] adds nothing to the group but makes the sum odd
    lat = from_expression("A2 + [1]")
    f = discriminant_form(lat)
    assert f.orders == (3,) and f.Q is None
    assert element_lift(lat, (1,)) == (1, 2, 0)  # A2's lift, padded past [1]
    assert forms_isomorphic(f, discriminant_form(Lattice(lat.gram)))
    assert discriminant_form(from_expression("U + [1]")) is TRIVIAL_FORM


def test_class_of_a_sum_reads_each_summand_block():
    # A2 + U + [2]: Z/3 + Z/2 over den 6; U is unimodular
    lat = from_expression("A2 + U + [2]")
    whole = Lattice(lat.gram)
    form = discriminant_form(lat)
    assert form.orders == (3, 2)
    assert [element_lift(lat, e) for e in ((1, 0), (0, 1))] == \
        [(2, 4, 0, 0, 0), (0, 0, 0, 0, 3)]
    assert class_of(lat, (4, 2, 6, -12, 9)) == (2, 1)
    # a block outside its summand's dual: U's not divisible by den, [2]'s
    # not by den / 2, and A2's (1, 0) / 3
    for bad in ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (2, 0, 0, 0, 0)):
        with pytest.raises(DegenerateForm, match="not in the dual lattice"):
            class_of(lat, bad)
        with pytest.raises(DegenerateForm, match="not in the dual lattice"):
            class_of(whole, bad)


def test_forms_isomorphic_pairs_of_opposite_blocks():
    # over F_3, two copies of one sign class match two of the other
    f1 = discriminant_form(direct_sum([A2, A2]))
    f2 = discriminant_form(direct_sum([rescale(A2, -1), rescale(A2, -1)]))
    assert forms_isomorphic(f1, f2)


POOL = ["A2", "A2(-1)", "[2]", "[-2]", "U(3)", "A4", "D4", "[6]", "ExA", "E6(-1)"]


def test_forms_isomorphic_equivalence_relation():
    forms = [discriminant_form(from_expression(e)) for e in POOL]
    n = len(forms)
    rel = [[forms_isomorphic(forms[i], forms[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        assert rel[i][i]
        for j in range(n):
            assert rel[i][j] == rel[j][i]
            for k in range(n):
                if rel[i][j] and rel[j][k]:
                    assert rel[i][k]


def _q_multiset(f):
    return sorted(f._q(x) for x in f.elements())


def _backtracking_isomorphic(f, g):
    """The whole-group generator search the Jordan symbols replaced: equal
    q-value multisets, then a `_match_maps` isometry.  Kept as the oracle."""
    if sorted(f.orders) != sorted(g.orders) or (f.q is None) != (g.q is None):
        return False
    if f.q is not None and _q_multiset(f) != _q_multiset(g):
        return False
    return _match_maps(f, g, 1) is not None


def _assert_closed_form_matches_oracle(forms):
    for i, f in enumerate(forms):
        assert _local_class(f, f.orders[0]) is not None
        for g in forms[i:]:
            if sorted(f.orders) == sorted(g.orders):
                assert forms_isomorphic(f, g) == _backtracking_isomorphic(f, g), (f, g)


def test_odd_elementary_closed_form_matches_backtracking_on_catalog():
    # every odd p-elementary discriminant form of the rank-26 table with its
    # negative, up to group order 729; repeated presentations are checked once
    forms = {}
    for row in catalog.RANK26_PAIRS:
        for expr in (row.coinv, row.inv):
            f = discriminant_form(from_expression(expr))
            if f.orders and f.orders[0] % 2 and len(set(f.orders)) == 1 \
                    and f.group_order <= 729:
                for h in (f, f.neg()):
                    forms.setdefault((h.orders, h.B, h.Q), h)
    assert {f.orders[0] for f in forms.values()} >= {3, 5, 7}
    _assert_closed_form_matches_oracle(list(forms.values()))


def _form_mod(n, m):
    """(Z/n)^k form with b = m / n; for odd n the quadratic value on each
    generator is the unique lift of b_ii whose n multiple is even."""
    return FiniteQuadraticForm((n,) * len(m), m, [r[i] + n * (r[i] % 2) for i, r in enumerate(m)])


def _random_nondegenerate(rng, p, k):
    while True:
        m = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                m[i][j] = m[j][i] = rng.randrange(p)
        if bareiss_det(Matrix(m)) % p:
            return m


def _random_base_change(rng, p, m):
    """A m A^T mod p for a random invertible A over F_p."""
    k = len(m)
    while True:
        a = Matrix([[rng.randrange(p) for _ in range(k)] for _ in range(k)])
        if bareiss_det(a) % p:
            break
    return [[x % p for x in r] for r in (a @ Matrix(m) @ a.T).rows]


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3),
                                 (7, 1), (7, 2), (7, 3)])
def test_odd_elementary_closed_form_matches_backtracking_on_random_forms(p, k):
    rng = random.Random(100 * p + k)
    mats = []
    legendre = set()
    while len(mats) < 6 or len(legendre) < 2:
        m = _random_nondegenerate(rng, p, k)
        mats.append(m)
        legendre.add(pow(bareiss_det(Matrix(m)), (p - 1) // 2, p))
    mats += [_random_base_change(rng, p, m) for m in mats]
    forms = [_form_mod(p, m) for m in mats]
    half = len(forms) // 2
    for f, g in zip(forms[:half], forms[half:]):
        assert forms_isomorphic(f, g) and forms_isomorphic(g, f)
    _assert_closed_form_matches_oracle(forms)


@pytest.mark.parametrize("n", [9, 15, 25])
def test_composite_odd_orders_are_not_decided_in_closed_form(n):
    # (Z/n) with n odd but not prime is not p-elementary, so the Legendre
    # class of the determinant mod n must not decide it: the Jordan splitting
    # reads one block per prime power
    forms = [_form_mod(n, [[a]]) for a in range(1, n) if math.gcd(a, n) == 1]
    for f in forms:
        assert [m for p in (3, 5) if n % p == 0 for m, _ in _jordan(f, p)] == \
            {9: [9], 15: [3, 5], 25: [25]}[n]
    for f in forms:
        for g in forms:
            assert forms_isomorphic(f, g) == _backtracking_isomorphic(f, g), (f, g)
    if n == 9:
        # x -> 2x takes b = 1/9 to 4/9, while 8 is not a square mod 9
        assert forms_isomorphic(_form_mod(9, [[1]]), _form_mod(9, [[4]]))
        assert not forms_isomorphic(_form_mod(9, [[1]]), _form_mod(9, [[8]]))


def test_forms_isomorphic_decides_beyond_desk_bound():
    # (Z/3)^10 has 59049 elements, above DESK_GROUP_BOUND; the two forms
    # differ in the Legendre class of their determinant
    f = discriminant_form(from_expression("A2^10"))
    g = discriminant_form(from_expression("A2^9 + A2(-1)"))
    assert f.group_order == g.group_order == 3 ** 10
    assert forms_isomorphic(f, f) and forms_isomorphic(g, g)
    assert not forms_isomorphic(f, g) and not forms_isomorphic(g, f)
    assert milgram_signature(f) == 20 % 8 and milgram_signature(g) == 16 % 8
    # (Z/2)^20: 2-elementary forms are fixed by delta and the signature, so
    # <1/2>^20 matches <1/2>^12 + <-1/2>^8 (both 4 mod 8) but not
    # <1/2>^19 + <-1/2> (2 mod 8) or the delta-0 form of U(2)^10
    two = [discriminant_form(from_expression(e))
           for e in ("[2]^20", "[2]^12 + [-2]^8", "[2]^19 + [-2]", "U(2)^10")]
    assert [milgram_signature(h) for h in two] == [4, 4, 2, 0]
    assert [forms_isomorphic(two[0], h) for h in two] == [True, True, False, False]


def test_anti_isometries_exist_for_complements():
    f1 = discriminant_form(A2)
    f2 = discriminant_form(rescale(A2, -1))
    assert _match_maps(f1, f2, -1) is not None


def test_odd_glue_maps():
    f1 = discriminant_form(make_named("[]", 3))
    f2 = discriminant_form(make_named("F"))
    assert _match_maps(f1, f2, -1, q_mod=1) is not None


def test_subquotient_form():
    lat = direct_sum([A2, rescale(A2, -1)])
    f = discriminant_form(lat)
    out = subquotient_form(f, [(1, 1)])
    assert out.is_trivial()
    # quotient by nothing is the form itself, not a re-presentation of it
    assert subquotient_form(f, []) is f
    assert subquotient_form(f, ()) is f


def _fraction_presentation(form, gen_rows, rel_rows):
    """The earlier `_presentation` generators: the relations in the HNF basis
    P through the Gauss-Jordan inverse of P, new generators from the inverse
    of the Smith transform.  Returns (orders, lifts)."""
    h, _ = hermite_normal_form(Matrix(gen_rows))
    p = Matrix(tuple(r for r in h.rows if any(r)))
    c = fraction_to_int(Matrix(rel_rows) @ fraction_inverse(p))
    snf = smith_normal_form(c)
    vinv = fraction_to_int(fraction_inverse(snf.v))
    pairs = [(d, (Matrix((vinv.row(j),)) @ p).row(0))
             for j, d in enumerate(snf.divisors) if d not in (0, 1)]
    return tuple(d for d, _ in pairs), Matrix(tuple(lift for _, lift in pairs))


def _catalog_forms(max_order=729):
    """Distinct discriminant forms of the catalog lattices, up to the order."""
    lats = [lat for lat in catalog.fixture_lattices().values() if lat.rank]
    for row in catalog.RANK26_PAIRS + catalog.INDUCED_ROWS:
        lats += [from_expression(row.coinv), from_expression(row.inv)]
    lats += [from_expression(e) for e in ("OG10", "F", "E6*(3)", "L17", "N69", "[3] + D4(-1)")]
    forms = {}
    for lat in lats:
        f = discriminant_form(lat)
        if not f.is_trivial() and f.group_order <= max_order:
            forms.setdefault((f.orders, f.B, f.Q), f)
    return list(forms.values())


def _presentation_inputs(form):
    """(gen_rows, rel_rows) pairs: the subquotient S^perp / S for a few
    cyclic S = <x> with b(x, x) = 0, and the p-torsion subgroup for every
    prime p dividing the group order."""
    diag = list(Matrix.diagonal(form.orders).rows)
    out = [(diag, diag)]
    isotropic = [x for x in form.elements() if any(x) and form._b(x, x) == 0]
    for x in isotropic[:4]:
        perp = orthogonal_subgroup(form, [x])
        out.append((list(perp.rows), [x] + diag))
    for p in sorted({p for p in range(2, form.group_order + 1)
                     if form.group_order % p == 0 and all(p % q for q in range(2, p))}):
        gens = [tuple(d // math.gcd(d, p) if j == i else 0 for j, d in enumerate(form.orders))
                for i in range(form.ngens)]
        out.append((gens + diag, diag))
    return out


def test_presentation_matches_fractions_on_catalog_forms():
    forms = _catalog_forms()
    assert len(forms) >= 20
    cases = 0
    for form in forms:
        for gen_rows, rel_rows in _presentation_inputs(form):
            got, lifts = _presentation(form, gen_rows, rel_rows)
            want_orders, want_lifts = _fraction_presentation(form, gen_rows, rel_rows)
            assert got.orders == want_orders and lifts == want_lifts, (form, gen_rows)
            if len(rel_rows) > form.ngens:
                sub = subquotient_form(form, rel_rows[:1])
                assert (sub.orders, sub.B, sub.Q) == (got.orders, got.B, got.Q)
            cases += 1
    assert cases >= 100


# ---------------------------------------------------------------------------
# existence of an even lattice with given signature and form (Nikulin 1.10.1)


@st.composite
def _even_lattices(draw, max_rank=4):
    """Nondegenerate even lattices of rank <= max_rank with small entries,
    half of them scaled by 2."""
    k = draw(st.integers(1, max_rank))
    gram = [[0] * k for _ in range(k)]
    for i in range(k):
        gram[i][i] = 2 * draw(st.integers(-5, 5))
        for j in range(i + 1, k):
            gram[i][j] = gram[j][i] = draw(st.integers(-4, 4))
    scale = draw(st.sampled_from([1, 2]))
    lat = Lattice([[scale * x for x in r] for r in gram])
    assume(lat.det != 0)
    return lat


@settings(max_examples=80, deadline=None)
@given(_even_lattices())
def test_milgram_matches_signature_on_random_lattices(lat):
    assume(abs(lat.det) <= 2000)
    sp, sm = lat.signature
    assert milgram_signature(discriminant_form(lat)) == (sp - sm) % 8


@settings(max_examples=150, deadline=None)
@given(_even_lattices())
def test_local_obstruction_admits_every_lattice(lat):
    f = discriminant_form(lat)
    assert f.ngens <= lat.rank and local_obstruction(f, lat.signature) is None
    assert genus_obstruction(lat.signature, f) is None
    assert length_or_local_obstruction(lat.signature, f) is None


def _unimodular(draw, k):
    """A product of random elementary integer matrices."""
    u = Matrix.identity(k)
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if i != j:
            e = [[int(r == c) for c in range(k)] for r in range(k)]
            e[i][j] = draw(st.integers(-3, 3))
            u = Matrix(e) @ u
    return u


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_local_obstruction_ignores_the_basis(data):
    lat = data.draw(_even_lattices())
    u = _unimodular(data.draw, lat.rank)
    moved = Lattice(u @ lat.gram @ u.T)
    f = discriminant_form(lat)
    g = discriminant_form(moved)
    n = f.ngens
    for sp in range(n + 1):
        assert local_obstruction(f, (sp, n - sp)) == local_obstruction(g, (sp, n - sp))


@pytest.mark.parametrize("expr", ["A2 + U(2)", "A2 + [4]", "U(3) + [2] + [-6]",
                                  "A2(-1) + U(2) + [6]", "E6 + D4(-1) + [2]", "U(3) + A2(-2)"])
def test_local_obstruction_reads_every_presentation_alike(expr):
    # a sum's form comes with one block per summand (Z/3 + Z/2 + Z/2 for
    # A2 + U(2)), its whole Gram's in invariant factors (Z/2 + Z/6); every
    # signature up to two past the length is asked
    lat = from_expression(expr)
    block, whole = discriminant_form(lat), discriminant_form(Lattice(lat.gram))
    assert block.orders != whole.orders
    length = whole.ngens
    for rank in range(length + 3):
        for sp in range(rank + 1):
            sig = (sp, rank - sp)
            got = local_obstruction(block, sig)
            assert got == local_obstruction(whole, sig) == local_obstruction_oracle(block, sig), sig
    assert local_obstruction(discriminant_form(from_expression("A2 + U(2)")), (2, 0)) == 2


def _binary_even_lattices(n):
    """Even lattices of rank 1 and 2 with |det| = n, at least one in each
    isometry class: [+-n] and the reduced Grams [[a, b], [b, c]], which have
    |2b| <= |a| <= |c| (so a^2 <= 4n/3) or a = 0 <= c < 2b."""
    out = [Lattice([[n]]), Lattice([[-n]])] if n % 2 == 0 else []
    amax = math.isqrt(4 * n // 3)
    for a in range(-amax, amax + 1):
        if a == 0 or a % 2:
            continue
        for b in range(-(abs(a) // 2), abs(a) // 2 + 1):
            for det in (n, -n):
                c, r = divmod(det + b * b, a)
                if r == 0 and c % 2 == 0 and abs(c) >= abs(a):
                    out.append(Lattice([[a, b], [b, c]]))
    r = math.isqrt(n)
    if r * r == n:
        out += [Lattice([[0, r], [r, c]]) for c in range(0, 2 * r, 2)]
    return out


def _random_even_lattice(rng, max_rank=3, max_det=250):
    while True:
        k = rng.randint(1, max_rank)
        gram = [[0] * k for _ in range(k)]
        for i in range(k):
            gram[i][i] = 2 * rng.randint(-6, 6)
            for j in range(i + 1, k):
                gram[i][j] = gram[j][i] = rng.randint(-5, 5)
        lat = Lattice(gram)
        if lat.det and abs(lat.det) <= max_det:
            return lat


def test_local_obstruction_matches_binary_forms():
    # every signature of rank 1 or 2, for random forms and their negations:
    # the whole existence test (Milgram, length bound and local conditions)
    # must agree with a search over all even lattices of that rank and
    # determinant
    rng = random.Random(1)
    lats = [_random_even_lattice(rng) for _ in range(400)]
    lats += [from_expression(e) for e in ("U(2) + A2", "U(2) + A2(-1)", "D4 + [6]",
                                          "U(2) + [-6]", "A2(2)", "[6] + [6]", "A2(3)")]
    known = {}
    seen = set()
    reasons = set()
    cases = 0
    for lat in lats:
        f = discriminant_form(lat)
        sp, sm = lat.signature
        for form, sign in ((f, sp - sm), (f.neg(), sm - sp)):
            n = form.group_order
            if n not in known:
                known[n] = [(l.signature, discriminant_form(l)) for l in _binary_even_lattices(n)]
            for sig in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
                rank = sig[0] + sig[1]
                why = genus_obstruction(sig, form)
                if why != "signature":
                    # past the congruence, the test that skips it agrees
                    assert length_or_local_obstruction(sig, form) == why
                want = any(s == sig and forms_isomorphic(g, form) for s, g in known[n])
                assert (why is None) == want, (lat.gram, form, sig)
                reasons.add(why if why in (None, "signature", "length") else "prime")
                cases += 1
                factors = _invariant_factors(form.orders)
                if len(factors) == rank and (sig[0] - sig[1] - sign) % 8 == 0:
                    bad = local_obstruction(form, sig)
                    assert why == bad
                    for p in _prime_divisors(factors[0]):
                        blocks = _jordan(form, p)
                        theta = p == 2 and any(n == 2 and len(u) == 1 for n, u in blocks)
                        seen.add((p == 2, {n for n, _ in blocks} == {p}, theta, bad != p))
    assert cases >= 1400 and reasons == {None, "signature", "length", "prime"}
    # odd and 2-adic conditions, elementary or not, each met and failed;
    # q_theta(2) summands, elementary or not, never obstruct
    assert seen == {(two, elem, theta, ok) for two in (False, True) for elem in (False, True)
                    for theta in ((False, True) if two else (False,))
                    for ok in ((True,) if theta else (False, True))}


def _prime_divisors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def test_local_obstruction_needs_a_quadratic_form():
    f = discriminant_form(from_expression("[3]"))
    with pytest.raises(OddLatticeQuadratic):
        local_obstruction(f, (1, 0))


# ---------------------------------------------------------------------------
# Jordan splitting against the whole-group oracles


def _random_form(rng, orders, quadratic=True):
    """A random table on the given orders, degenerate or not; q is the lift
    of b_ii that an element of order n needs (n^2 q even)."""
    den = math.lcm(*orders)
    k = len(orders)
    b = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            g = math.gcd(orders[i], orders[j])
            b[i][j] = b[j][i] = rng.randrange(g) * (den // g)
    q = None
    if quadratic:
        q = [b[i][i] + den * (orders[i] * b[i][i] // den % 2) for i in range(k)]
    return FiniteQuadraticForm(orders, b, q)


def _moved(rng, form):
    """The form on random new generators: the images of the old ones under a
    product of transvections e_i -> e_i + c (o_j / gcd(o_i, o_j)) e_j and
    unit scalings, each an automorphism of the group."""
    orders = form.orders
    k = len(orders)
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k):
        i, j = rng.randrange(k), rng.randrange(k)
        if i != j:
            c = rng.randrange(orders[j]) * (orders[j] // math.gcd(orders[i], orders[j]))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        else:
            u = rng.randrange(1, orders[i])
            if math.gcd(u, orders[i]) == 1:
                rows[i] = [u * a for a in rows[i]]
    return FiniteQuadraticForm(
        orders, [[form._b(x, y) for y in rows] for x in rows],
        None if form.Q is None else [form._q(x) for x in rows])


# 2-parts of exponent >= 4, Z/9 and Z/27, mixed primes
RANDOM_ORDERS = [(16,), (2, 16), (4, 16), (32,), (2, 2, 8), (2, 2, 2, 2), (9,), (27,), (3, 9),
                 (9, 9), (3, 81), (5, 25), (7, 49), (6,), (12,), (18,), (24,), (6, 12), (45,)]


def _pools():
    """Forms of order <= 729 grouped by sorted orders: the catalog forms and
    their negatives, random tables (degenerate ones too, and bilinear-only
    ones) and a copy of each random table on moved generators."""
    rng = random.Random(17)
    forms = _catalog_forms()
    forms += [f.neg() for f in forms]
    tables = [_random_form(rng, orders, quadratic) for orders in RANDOM_ORDERS
              for quadratic in (True, False) for _ in range(6)]
    forms += tables + [_moved(rng, f) for f in tables]
    pools = {}
    for f in forms:
        pools.setdefault(tuple(sorted(f.orders)), []).append(f)
    return pools


def test_forms_isomorphic_matches_backtracking():
    pools = _pools()
    counts = {True: 0, False: 0}
    degenerate = 0
    for forms in pools.values():
        for i, f in enumerate(forms):
            degenerate += not is_nondegenerate(f)
            for g in forms[i:]:
                want = _backtracking_isomorphic(f, g)
                assert forms_isomorphic(f, g) == forms_isomorphic(g, f) == want, (f, g)
                counts[want] += 1
    assert counts[True] >= 300 and counts[False] >= 300 and degenerate >= 20


def test_forms_isomorphic_ignores_the_generators():
    rng = random.Random(23)
    for forms in _pools().values():
        for f in forms:
            g = _moved(rng, f)
            assert forms_isomorphic(f, g) and forms_isomorphic(g, f), f
            if f.Q is not None and is_nondegenerate(f):
                assert milgram_signature(f) == milgram_signature(g)
                assert all(_local_class(f, p) == _local_class(g, p)
                           for p in _prime_divisors(f.den))


def test_milgram_matches_cyclotomic_oracle():
    # the oddity formula on the Jordan blocks against the Gauss sum over the
    # whole group, on catalog forms, their negatives and random even
    # lattices scaled to reach 2- and 3-parts of higher exponent
    for f in _catalog_forms():
        if f.Q is not None:
            for h in (f, f.neg()):
                assert milgram_signature(h) == cyclotomic_milgram(h), h
    rng = random.Random(31)
    cases = 0
    while cases < 150:
        lat = rescale(_random_even_lattice(rng), rng.choice([1, 2, 3, 4]))
        f = discriminant_form(lat)
        if f.group_order > 1000:
            continue
        sp, sm = lat.signature
        assert milgram_signature(f) == cyclotomic_milgram(f) == (sp - sm) % 8, lat.gram
        cases += 1


def test_jordan_determinant_matches_local_obstruction():
    # local_obstruction reads the unit from the Jordan blocks; the oracle
    # reads det M of the whole p-part matrix.  Every signature of rank <= 5
    # is asked; the local conditions are read where the rank is the form's
    # length, and those cases are counted
    rng = random.Random(37)
    forms = _catalog_forms() + [discriminant_form(rescale(_random_even_lattice(rng), k))
                                for k in (1, 2, 4, 8, 3, 9) for _ in range(100)]
    # a 2-adic V summand dropped from the rank: 2-obstructed without theta
    forms += [discriminant_form(from_expression(e)) for e in ("A2 + [4]", "A2 + U(2)")]
    cases = 0
    seen = set()
    for f in forms:
        if f.Q is None:
            continue
        for h in (f, f.neg()):
            for rank in range(6):
                for sp in range(rank + 1):
                    sig = (sp, rank - sp)
                    got = local_obstruction(h, sig)
                    assert got == local_obstruction_oracle(h, sig), (h, sig)
                    if h.ngens == rank:
                        cases += 1
                        if h.orders and math.gcd(*h.orders) % 2 == 0:
                            blocks = _jordan(h, 2)
                            seen.add((any(n == 2 and len(u) == 1 for n, u in blocks), got == 2))
    assert cases >= 3000
    # theta and non-theta 2-parts, the latter both obstructed and not
    assert seen >= {(True, False), (False, False), (False, True)}


def test_jordan_pivot_matches_full_minimum():
    # _jordan pivots on the first diagonal unit when there is one; the old
    # search for the least (valuation, off-diagonal, i, j) over the whole
    # table is the oracle, on the lambda_p forms and on random tables
    # (degenerate and bilinear-only ones too) and their moved copies
    rng = random.Random(43)
    forms = [discriminant_form(from_expression(expr))
             for row in catalog.RANK26_PAIRS for expr in (row.coinv, row.inv)]
    tables = [_random_form(rng, orders, quadratic) for orders in RANDOM_ORDERS + [(3, 3, 9)]
              for quadratic in (True, False) for _ in range(6)]
    forms += tables + [_moved(rng, f) for f in tables]
    cases = degenerate = 0
    for f in forms + [f.neg() for f in forms]:
        for p in _prime_divisors(f.den):
            try:
                want = jordan_full_min_oracle(f, p)
            except DegenerateForm:
                with pytest.raises(DegenerateForm):
                    _jordan(f, p)
                degenerate += 1
                continue
            assert _jordan(f, p) == want, (f, p)
            cases += 1
    assert cases >= 500 and degenerate >= 20


def _same_blocks_as_rebuild_oracle(f, p):
    """Whether `_jordan` splits like the table-rebuilding oracle, both
    raising DegenerateForm alike; False on a degenerate p-part."""
    try:
        want = jordan_rebuild_oracle(f, p)
    except DegenerateForm:
        with pytest.raises(DegenerateForm):
            _jordan(f, p)
        return False
    assert _jordan(f, p) == want, (f, p)
    return True


_PRIME_POWERS = st.sampled_from((2, 4, 8, 16, 3, 9, 27, 5, 25, 7, 6, 12, 18, 45))


@settings(max_examples=300, deadline=None)
@given(st.lists(_PRIME_POWERS, min_size=1, max_size=7), st.booleans(), st.randoms(use_true_random=False))
def test_jordan_matches_the_rebuild_oracle(orders, quadratic, rng):
    # _jordan clears its table in place; the oracle builds the rest anew
    # after every block.  Random tables (degenerate and bilinear-only ones
    # too), their moved copies and negatives
    f = _random_form(rng, orders, quadratic)
    for g in (f, f.neg(), _moved(rng, f)):
        for p in _prime_divisors(g.den):
            _same_blocks_as_rebuild_oracle(g, p)


def test_jordan_matches_the_rebuild_oracle_on_every_verify_all_input(monkeypatch):
    seen = []
    real = discform._jordan

    def recording(form, p):
        seen.append((form, p))
        return real(form, p)

    from_expression.cache_clear()
    monkeypatch.setattr(discform, "_jordan", recording)
    try:
        assert all(report.ok for report in verify.verify_all())
    finally:
        from_expression.cache_clear()
    monkeypatch.undo()
    assert len(seen) > 100
    assert all(_same_blocks_as_rebuild_oracle(f, p) for f, p in seen)


def test_delta_closed_form_matches_enumeration():
    rng = random.Random(41)
    forms = [f for f in _catalog_forms() if set(f.orders) == {2}]
    forms += [discriminant_form(from_expression(e))
              for e in ("[2]", "E7", "D4", "U(2)", "[2] + [-2]", "D4 + E7(-1)", "D6 + [2]")]
    forms += [_random_form(rng, (2,) * k) for k in range(1, 7) for _ in range(8)]
    for f in forms + [f.neg() for f in forms]:
        assert delta_invariant(f) == int(any(f._q(x) % f.den for x in f.elements())), f

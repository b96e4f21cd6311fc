import random
from fractions import Fraction
from math import isqrt, lcm

import pytest
from conftest import (
    bareiss_det,
    fraction_inverse,
    fraction_to_int,
    injective_anti_glue,
    saturate,
)

from latticeforge import catalog, glue, isom, linalg

from latticeforge.discform import (
    discriminant_form,
    element_lift,
    forms_isomorphic,
    milgram_signature,
)
from latticeforge.errors import (
    DegenerateComplement,
    DimensionMismatch,
    NotComplementary,
    NotIsotropic,
    NotIsotropicGraph,
)
from latticeforge.glue import (
    GlueData,
    Sublattice,
    complement_genus,
    full_glue,
    glue_group,
    orthogonal_complement,
    overlattice,
    primitive_extension,
    saturation_index,
    span,
    trivial_glue,
)
from latticeforge.lattice import Lattice, direct_sum, from_expression, make_named, rescale
from latticeforge.linalg import Matrix, block_diag

U = make_named("U")
A2 = make_named("A", 2)


def test_saturate_multiple():
    s = span(U, [(2, 0)])
    sat = saturate(s)
    assert sat.basis == Matrix([(1, 0)])
    assert saturation_index(s) == 2


def test_saturation_index_rank_drop():
    with pytest.raises(DimensionMismatch):
        saturation_index(Sublattice(U, [(1, 0), (2, 0)]))
    with pytest.raises(DimensionMismatch):
        saturation_index(Sublattice(U, [(1, 0), (0, 1), (1, 1)]))
    assert saturation_index(Sublattice(U, [])) == 1


def test_saturate_idempotent():
    s = span(U, [(1, 0)])
    assert saturate(s).basis == saturate(saturate(s)).basis
    assert saturation_index(s) == 1


def test_orthogonal_complement_a2_in_lambda():
    lam = make_named("Lambda")
    # standard A2 embedded in the U + U block: (e1 + f1 + e2, -e1 - f2) has
    # Gram A2; simpler: glue the canonical construction instead
    _, _, ext = isom._canonical_extension()
    lam = ext.lattice
    a2_rows = Matrix(ext.old_in_new.rows[24:])
    comp = orthogonal_complement(Sublattice(lam, a2_rows))
    cl = comp.lattice()
    assert cl.rank == 24
    assert cl.det == -3
    assert cl.signature == (3, 21)
    inv = cl.disc_group_orders()
    assert inv == (3,)


def test_complement_of_isotropic_vector_degenerate():
    with pytest.raises(DegenerateComplement):
        orthogonal_complement(span(U, [(1, 0)]))


def test_overlattice_diagonal_glue():
    lat = direct_sum([A2, rescale(A2, -1)])
    f, lifts = discriminant_form(lat)
    ext = overlattice(lat, [element_lift(lifts, (1, 1))], f.den)
    assert ext.lattice.rank == 4
    assert abs(ext.lattice.det) == 1
    assert ext.lattice.signature == (2, 2)
    assert ext.lattice.is_even()
    assert ext.index == 3


def test_overlattice_trivial():
    lat = direct_sum([A2, rescale(A2, -1)])
    ext = overlattice(lat, [], 1)
    assert ext.lattice.gram == lat.gram


def test_overlattice_det_index_identity():
    lat = direct_sum([A2, rescale(A2, -1)])
    f, lifts = discriminant_form(lat)
    ext = overlattice(lat, [element_lift(lifts, (1, 1))], f.den)
    idx = ext.index
    assert abs(ext.lattice.det) * idx * idx == abs(lat.det)


def test_og10_plus_a2_glue_is_unimodular():
    og = make_named("OG10")
    g = full_glue(og, A2)
    assert g is not None
    # Z/3 -> Z/3 has two anti-isometries, x -> y and x -> -y
    for images in (g.images, g.images.scale(-1)):
        ext, lrows, rrows = primitive_extension(GlueData(og, A2, g.subgroup, images))
        lam = ext.lattice
        assert lam.rank == 26
        assert abs(lam.det) == 1
        assert lam.signature == (5, 21)
        assert lam.is_even()


def test_primitive_extension_bad_glue_rejected():
    # gluing A2 to A2 with the identity map is not isotropic (q + q != 0)
    g = GlueData(A2, A2, Matrix([(1,)]), Matrix([(1,)]))
    with pytest.raises(NotIsotropicGraph):
        primitive_extension(g)


def test_primitive_extension_mixed_denominators():
    # disc(A2) = Z/3 (q = 2/3) glued onto 2 in disc([-6]) = Z/6 (q = -1/6)
    six = make_named("[]", -6)
    ext, lrows, rrows = primitive_extension(GlueData(A2, six, Matrix([(1,)]), Matrix([(2,)])))
    assert ext.index == 3
    assert abs(ext.lattice.det) == 2
    assert Sublattice(ext.lattice, lrows).gram() == A2.gram
    assert Sublattice(ext.lattice, rrows).gram() == six.gram


def test_trivial_glue_direct_sum():
    ext, _, _ = primitive_extension(trivial_glue(U, U))
    assert ext.lattice.gram == block_diag([U.gram, U.gram])


def test_complement_genus_unimodular_host():
    from latticeforge.discform import TRIVIAL_FORM

    sig, form = complement_genus(TRIVIAL_FORM, (5, 21), A2, (Matrix(()), Matrix(())))
    assert sig == (3, 21)
    og_form, _ = discriminant_form(make_named("OG10"))
    assert forms_isomorphic(form, og_form)


def test_complement_genus_zero_sub():
    from latticeforge.discform import TRIVIAL_FORM

    zero = Lattice(Matrix(()))
    host_form, _ = discriminant_form(make_named("OG10"))
    sig, form = complement_genus(host_form, (3, 21), zero, (Matrix(()), Matrix(())))
    assert sig == (3, 21)
    assert forms_isomorphic(form, host_form)


def test_complement_genus_signature_and_milgram():
    # complement of A2 in hosts of the rank-26 table rows: signature adds up
    # and the output form satisfies the Gauss-sum congruence
    from latticeforge.catalog import RANK26_PAIRS

    for row in RANK26_PAIRS[:6]:
        host = from_expression(row.inv)
        hf, _ = discriminant_form(host)
        sig, form = complement_genus(hf, host.signature, A2, (Matrix(()), Matrix(())))
        assert (sig[0] + A2.signature[0], sig[1] + A2.signature[1]) == host.signature
        if not form.is_trivial():
            assert milgram_signature(form) == (sig[0] - sig[1]) % 8


def test_glue_group():
    uu = direct_sum([U, U])
    s1 = span(uu, [(1, 0, 0, 0), (0, 1, 0, 0)])
    s2 = span(uu, [(0, 0, 1, 0), (0, 0, 0, 1)])
    orders, a = glue_group(uu, s1, s2)
    assert orders == () and a == 0

    _, _, ext = isom._canonical_extension()
    lam = ext.lattice
    og_rows, a2_rows = Matrix(ext.old_in_new.rows[:24]), Matrix(ext.old_in_new.rows[24:])
    orders, a = glue_group(lam, Sublattice(lam, og_rows), Sublattice(lam, a2_rows), p=3)
    assert orders == (3,) and a == 1


def test_glue_group_f_decomposition():
    # invariant + coinvariant of the order-three action on the primitive
    # cubic cohomology glue along (Z/3)^5
    from latticeforge.catalog import cubic_row

    row = cubic_row("phi35")
    inv = Lattice(row.inv_gram)
    co = from_expression(row.coinv)
    g = injective_anti_glue(inv, co)
    assert g is not None
    ext, lrows, rrows = primitive_extension(g)
    f_lat = ext.lattice
    assert f_lat.signature == (20, 2)
    assert abs(f_lat.det) == 3
    orders, a = glue_group(f_lat, Sublattice(f_lat, lrows), Sublattice(f_lat, rrows), p=3)
    assert a == 5


def test_glue_group_not_complementary():
    uu = direct_sum([U, U])
    s1 = span(uu, [(1, 0, 0, 0), (0, 1, 0, 0)])
    with pytest.raises(NotComplementary):
        glue_group(uu, s1, s1)


def test_double_complement_is_saturation():
    rng = random.Random(21)
    amb = from_expression("U^3 + E8(-1)")
    n = amb.rank
    for _ in range(20):
        k = rng.randint(1, 4)
        rows = []
        while len(rows) < k:
            cand = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(cand):
                m = Matrix(rows + [cand])
                from latticeforge import linalg

                h, _ = linalg.hermite_normal_form(m)
                if sum(1 for r in h.rows if any(r)) == len(rows) + 1:
                    rows.append(cand)
        s = Sublattice(amb, Matrix(rows))
        sat = saturate(s)
        try:
            dd = orthogonal_complement(orthogonal_complement(sat))
        except DegenerateComplement:
            continue
        from latticeforge import linalg

        h1, _ = linalg.hermite_normal_form(sat.basis)
        h2, _ = linalg.hermite_normal_form(dd.basis)
        assert h1 == h2


# ---------------------------------------------------------------------------
# integer overlattices against the Fraction construction they replaced


def _fraction_overlattice(lat, rows, den, require_even=None):
    """The earlier overlattice: Fraction basis, Fraction Gram, Gauss-Jordan
    inverse.  Returns (gram, basis, old_in_new)."""
    n = lat.rank
    if require_even is None:
        require_even = lat.is_even()
    lifts = [tuple(Fraction(x, den) for x in v) for v in rows]
    den = lcm(*(x.denominator for v in lifts for x in v))
    stacked = [tuple(int(x * den) for x in r) for r in lifts]
    stacked += [tuple(den if j == i else 0 for j in range(n)) for i in range(n)]
    h, _ = linalg.hermite_normal_form(Matrix(stacked))
    h = Matrix(tuple(r for r in h.rows if any(r)))
    basis = Matrix(tuple(tuple(Fraction(x, den) for x in r) for r in h.rows))
    try:
        gram = fraction_to_int(basis @ lat.gram @ basis.T)
    except ValueError:
        raise NotIsotropic("generators do not pair integrally") from None
    if require_even and any(gram[i, i] % 2 for i in range(n)):
        raise NotIsotropic("overlattice of an even lattice fails to be even")
    try:
        old_in_new = fraction_to_int(fraction_inverse(basis.T).T)
    except ValueError:
        raise NotIsotropic("original lattice not contained in the overlattice") from None
    return gram, basis, old_in_new


def _assert_same_overlattice(lat, rows, den, require_even=None):
    try:
        want = _fraction_overlattice(lat, rows, den, require_even)
    except NotIsotropic as exc:
        with pytest.raises(NotIsotropic) as got:
            overlattice(lat, rows, den, require_even=require_even)
        assert str(got.value) == str(exc)
        return False
    ext = overlattice(lat, rows, den, require_even=require_even)
    gram, basis, old_in_new = want
    assert ext.lattice.gram == gram
    assert ext.old_in_new == old_in_new
    assert Matrix(tuple(tuple(Fraction(x, ext.den) for x in r) for r in ext.rows.rows)) == basis
    return True


def _recorded_overlattice_calls(monkeypatch, build):
    """Inputs of every glue.overlattice call made by build()."""
    calls = []
    real = glue.overlattice

    def recording(lat, rows, den, require_even=None, label=None):
        calls.append((lat, list(rows), den, require_even))
        return real(lat, rows, den, require_even=require_even, label=label)

    monkeypatch.setattr(glue, "overlattice", recording)
    build()
    return calls


@pytest.mark.parametrize("label", [r.label for r in catalog.CUBIC_ROWS])
def test_overlattice_matches_fractions_on_cubic_middle_cohomology(monkeypatch, label):
    row = catalog.cubic_row(label)
    alg = Lattice(row.alg_gram)
    trans = from_expression(row.coinv)
    calls = _recorded_overlattice_calls(monkeypatch, lambda: glue.primitive_extension(
        glue.full_glue(alg, trans), require_even=False, label="H4"))
    assert len(calls) == 1
    assert _assert_same_overlattice(*calls[0])


def test_overlattice_matches_fractions_on_canonical_lambda(monkeypatch):
    isom._canonical_extension.cache_clear()
    calls = _recorded_overlattice_calls(monkeypatch, isom.canonical_lambda)
    assert len(calls) == 1
    assert _assert_same_overlattice(*calls[0])


def test_overlattice_matches_fractions_on_examples():
    lat = direct_sum([A2, rescale(A2, -1)])
    f, lifts = discriminant_form(lat)
    assert _assert_same_overlattice(lat, [element_lift(lifts, (1, 1))], f.den)
    assert _assert_same_overlattice(lat, [], 1)
    # disc(A2) glued to itself: q(x) + q(x) = 4/3 pairs non-integrally
    aa = direct_sum([A2, A2])
    f, lifts = discriminant_form(aa)
    assert not _assert_same_overlattice(aa, [element_lift(lifts, (1, 1))], f.den)
    # (1/2, 1/2) in [2] + [2] has norm 1: integral, but odd
    two = from_expression("[2] + [2]")
    assert _assert_same_overlattice(two, [(1, 1)], 2, require_even=False)
    assert not _assert_same_overlattice(two, [(1, 1)], 2, require_even=True)
    # a generator written over a multiple of its denominator: (2, 2) / 4
    assert _assert_same_overlattice(two, [(2, 2)], 4, require_even=False)


def test_overlattice_matches_fractions_on_random_glue():
    rng = random.Random(6)
    blocks = ["A2", "A2(-1)", "E6*(3)"]
    built = refused = 0
    for _ in range(60):
        lat = from_expression(" + ".join(rng.choice(blocks) for _ in range(rng.randint(2, 3))))
        f, lifts = discriminant_form(lat)
        gens = [tuple(rng.randrange(d) for d in f.orders) for _ in range(rng.randint(1, 2))]
        rows = [element_lift(lifts, x) for x in gens]
        if _assert_same_overlattice(lat, rows, f.den,
                                    require_even=rng.choice([None, False, True])):
            built += 1
        else:
            refused += 1
    assert built >= 10 and refused >= 10


# ---------------------------------------------------------------------------
# integer saturation index against the Fraction construction it replaced


def _fraction_saturation_index(s):
    """The earlier saturation index: the rows of s in the saturation basis
    B, through the inverse of the dot-product Gram B B^T."""
    b = saturate(s).basis
    coeffs = (s.basis @ b.T) @ fraction_inverse(b @ b.T)
    return abs(bareiss_det(fraction_to_int(coeffs)))


def test_saturation_index_matches_fractions_on_random_sublattices():
    rng = random.Random(400)
    amb = from_expression("U + A2(-1) + D4")
    n = amb.rank
    indices = []
    for _ in range(300):
        k = rng.randint(1, n - 1)
        rows = []
        for _ in range(k):
            # a random scaling of each row makes non-primitive sublattices common
            c = rng.choice((1, 1, 2, 3))
            rows.append(tuple(c * rng.randint(-3, 3) for _ in range(n)))
        if linalg.integer_kernel(Matrix(rows)).nrows:
            continue
        s = Sublattice(amb, rows)
        indices.append(saturation_index(s))
        assert indices[-1] == _fraction_saturation_index(s)
    assert len(indices) > 200 and sum(i > 1 for i in indices) > 100


# ---------------------------------------------------------------------------
# Extension.index against the determinant ratio it replaced


def _det_ratio_index(lat, ext):
    """The earlier index: the square root of |det L| / |det M|."""
    ratio = Fraction(abs(lat.det), abs(ext.lattice.det))
    num = isqrt(ratio.numerator)
    assert ratio.denominator == 1 and num * num == ratio.numerator
    return num


def test_extension_index_matches_determinant_ratio_on_random_glue():
    # M + M(-1) glued along the diagonal of a random subgroup of disc(M):
    # (v, v) pairs to zero with every other such vector, so each glue is
    # isotropic and the index is the order of the subgroup
    rng = random.Random(12)
    blocks = ["A2", "A3", "D4", "E6*(3)", "[4]", "[6]", "U(3)"]
    indices = []
    for _ in range(60):
        m = from_expression(" + ".join(rng.choice(blocks) for _ in range(rng.randint(1, 3))))
        lat = direct_sum([m, rescale(m, -1)])
        f, lifts = discriminant_form(m)
        gens = [tuple(rng.randrange(d) for d in f.orders) for _ in range(rng.randint(1, 2))]
        lifted = [element_lift(lifts, x) for x in gens]
        ext = overlattice(lat, [v + v for v in lifted], f.den)
        indices.append(ext.index)
        assert ext.index == _det_ratio_index(lat, ext)
    assert len(set(indices)) >= 5

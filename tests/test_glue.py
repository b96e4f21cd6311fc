import random
from fractions import Fraction
from math import isqrt, lcm

import pytest
from conftest import (
    a2_glue_images_oracle,
    bareiss_det,
    fraction_inverse,
    fraction_presentation,
    fraction_to_int,
    injective_anti_glue,
    q_of,
    saturate,
    u3_first_graphs_oracle,
    u3_glue_maps_oracle,
)

from latticeforge import catalog, glue, isom, linalg

from latticeforge.discform import (
    discriminant_form,
    element_lift,
    forms_isomorphic,
    milgram_signature,
    subquotient_form,
)
from latticeforge.errors import (
    BadParams,
    DegenerateComplement,
    DimensionMismatch,
    NotComplementary,
    NotIsotropic,
    NotIsotropicGraph,
)
from latticeforge.glue import (
    GlueData,
    Sublattice,
    complement_forms,
    embedding_glues,
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
    f = discriminant_form(lat)
    ext = overlattice(lat, [element_lift(lat, (1, 1))], f.den)
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
    f = discriminant_form(lat)
    ext = overlattice(lat, [element_lift(lat, (1, 1))], f.den)
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


def test_complement_forms_unimodular_host():
    # A2 in a unimodular host of signature (5, 21): only the trivial glue,
    # and the complement has the form of the rank-24 genus of signature
    # (3, 21)
    from latticeforge.discform import TRIVIAL_FORM

    (gens, form), = complement_forms(FA, TRIVIAL_FORM)
    assert gens == ()
    og_form = discriminant_form(make_named("OG10"))
    assert forms_isomorphic(form, og_form)
    assert milgram_signature(form) == (3 - 21) % 8


def test_complement_forms_satisfy_milgram():
    # complements of A2 in hosts of the rank-26 table rows, one per glue:
    # each form satisfies the Gauss-sum congruence of the signature
    # sig(host) - sig(A2)
    from latticeforge.catalog import RANK26_PAIRS

    for row in RANK26_PAIRS[:6]:
        host = from_expression(row.inv)
        hf = discriminant_form(host)
        sig = (host.signature[0] - A2.signature[0], host.signature[1] - A2.signature[1])
        assert min(sig) >= 0
        forms = list(complement_forms(FA, hf))
        assert forms[0][0] == ()
        for gens, form in forms:
            if not form.is_trivial():
                assert milgram_signature(form) == (sig[0] - sig[1]) % 8, (row.inv, gens)


def test_glue_group():
    uu = direct_sum([U, U])
    s1 = span(uu, [(1, 0, 0, 0), (0, 1, 0, 0)])
    s2 = span(uu, [(0, 0, 1, 0), (0, 0, 0, 1)])
    assert glue_group(uu, s1, s2) == ()

    _, _, ext = isom._canonical_extension()
    lam = ext.lattice
    og_rows, a2_rows = Matrix(ext.old_in_new.rows[:24]), Matrix(ext.old_in_new.rows[24:])
    assert glue_group(lam, Sublattice(lam, og_rows), Sublattice(lam, a2_rows)) == (3,)


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
    assert glue_group(f_lat, Sublattice(f_lat, lrows), Sublattice(f_lat, rrows)) == (3,) * 5


def test_primitive_extension_glues_the_phi21_involution_pair():
    # the induced involution pair of row phi21 glued along the 2-parts of
    # its discriminants gives a lattice of the rank-24 hyperbolic-type
    # genus, in which the two parts meet with a 2-elementary glue group
    from latticeforge.discform import _match_maps

    row = next(r for r in catalog.INDUCED_ROWS if r.label == "phi21")
    inv = from_expression(row.inv)        # U + E6(-2)
    coinv = from_expression(row.coinv)    # U^2 + D4(-1)^3
    fi = discriminant_form(inv)
    fc = discriminant_form(coinv)
    two_part = [x for x in fi.elements() if any(x) and fi.element_order(x) == 2]
    # the subgroup they generate, presented as a standalone form
    rel = Matrix.diagonal(fi.orders).rows
    sub, lifts = fraction_presentation(fi, [fi.reduce(x) for x in two_part] + list(rel), rel)
    assert sub.orders == (2,) * 6
    images = _match_maps(sub, fc, -1)
    assert images is not None
    ext, inv_rows, coinv_rows = primitive_extension(GlueData(inv, coinv, lifts, images))
    amb = ext.lattice
    assert amb.rank == 24 and abs(amb.det) == 3 and amb.signature == (3, 21)
    assert glue_group(amb, Sublattice(amb, inv_rows), Sublattice(amb, coinv_rows)) == (2,) * 6


# ---------------------------------------------------------------------------
# the glue enumerator against the loops it replaced

# hosts whose 3-part is not 3-elementary, where Witt's theorem does not
# reduce the embeddings of a subgroup to one
MIXED_HOSTS = ("U^2 + A2(-3) + A2(-1)", "U(3) + U(9) + A2(-1)", "U^2 + E6(-3)")
FU = discriminant_form(rescale(U, 3))
FA = discriminant_form(A2)


def _gluing_others():
    """The forms q_M of the lattices M that `verify all` glues to U(3)."""
    others = [Lattice(-catalog.cubic_row(r.label).inv_gram)
              for r in catalog.INDUCED_ROWS if r.p == 3]
    return [discriminant_form(o)
            for o in others + [from_expression("U^2 + E8(-1)^2 + A2(-1)")]]


def _verify_glue_hosts():
    """(source form, host form) of every `embedding_glues` call of
    `verify all`: disc A2 into the order-3 rank-26 invariants, disc U(3)
    into the induced invariants and into the -q_M of its gluing check."""
    cases = [(FA, discriminant_form(from_expression(r.inv)))
             for r in catalog.RANK26_PAIRS if r.p == 3]
    cases += [(FU, discriminant_form(from_expression(r.inv))) for r in catalog.INDUCED_ROWS]
    return cases + [(FU, fo.neg()) for fo in _gluing_others()]


def _oracle_glues(fs, fh):
    if fs is FU:
        return u3_glue_maps_oracle(FU, fh)
    return [((), ())] + [(((1,),), (y,)) for y in a2_glue_images_oracle(fh)]


def _by_subgroup(glues, cap=None):
    """{generators of H: its images}, at most `cap` per H; the whole group
    comes last, so the stream stops once it has `cap`."""
    out = {}
    for gens, images in glues:
        found = out.setdefault(gens, [])
        if cap is None or len(found) < cap:
            found.append(images)
        elif len(gens) == 2:
            break
    return out


def _complement(fs, fh, gens, images):
    """The form on Gamma^perp / Gamma in -fs + fh, Gamma the graph of the
    glue, as `complement_forms` builds it."""
    graph = [tuple(h) + tuple(y) for h, y in zip(gens, images)]
    return subquotient_form(fs.neg().direct_sum(fh), graph)


def test_embedding_glues_match_the_full_enumeration():
    cases = [(fs, fh, False) for fs, fh in _verify_glue_hosts()]
    cases += [(fs, discriminant_form(from_expression(e)), True)
              for e in MIXED_HOSTS for fs in (FA, FU)]
    for fs, fh, mixed in cases:
        assert any(o % 9 == 0 for o in fh.orders) == mixed
        got = _by_subgroup(embedding_glues(fs, fh))
        want = _by_subgroup(_oracle_glues(fs, fh), None if mixed else 8)
        assert list(got) == list(want), (fs, fh)
        if mixed:
            # every embedding, in the order of the enumeration, and more
            # than one for each nontrivial subgroup
            assert got == want and all(len(ims) > 1 for gens, ims in got.items() if gens)
            continue
        for gens, ims in got.items():
            # the first embedding, and one complement class for all of them
            assert ims == want[gens][:1]
            form = _complement(fs, fh, gens, ims[0])
            assert all(forms_isomorphic(_complement(fs, fh, gens, other), form)
                       for other in want[gens][1:]), (fh, gens)


def test_embedding_glues_preserve_quadratic_values():
    # q_fs(h) = q_fh(gamma h) on each generator of H and on their sum, so
    # every glue is an isometric embedding of H
    cases = _verify_glue_hosts()
    cases += [(fs, discriminant_form(from_expression(e))) for e in MIXED_HOSTS for fs in (FA, FU)]
    seen = 0
    for fs, fh in cases:
        for gens, images in embedding_glues(fs, fh):
            pairs = list(zip(gens, images))
            if len(pairs) == 2:
                pairs.append(tuple(tuple(map(sum, zip(*v))) for v in (gens, images)))
            for h, y in pairs:
                assert q_of(fs, fs.reduce(h)) == q_of(fh, fh.reduce(y)), (fh, gens, images)
                seen += 1
    assert seen > 0


def test_embedding_glues_reach_the_first_graph_per_quadratic_value():
    # the line glues into -q_other give the same gluing classes as the
    # first graph per value q(h) that the gluing check tried before
    for fo in _gluing_others():
        big = FU.direct_sum(fo)
        lines = [subquotient_form(big, [h + y for h, y in zip(gens, ims)])
                 for gens, ims in embedding_glues(FU, fo.neg()) if len(gens) == 1]
        firsts = [subquotient_form(big, graph) for graph in u3_first_graphs_oracle(FU, fo)]
        assert all(any(forms_isomorphic(f, g) for g in firsts) for f in lines)
        assert all(any(forms_isomorphic(f, g) for g in lines) for f in firsts)


def test_embedding_glues_needs_a_small_3_elementary_source():
    host = discriminant_form(from_expression("U(3)"))
    for bad in ("U(9)", "A2 + A2 + A2", "U(2)"):
        with pytest.raises(BadParams):
            next(embedding_glues(discriminant_form(from_expression(bad)), host))


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

    def recording(lat, rows, den, require_even=None):
        calls.append((lat, list(rows), den, require_even))
        return real(lat, rows, den, require_even=require_even)

    monkeypatch.setattr(glue, "overlattice", recording)
    build()
    return calls


@pytest.mark.parametrize("label", [r.label for r in catalog.CUBIC_ROWS])
def test_overlattice_matches_fractions_on_cubic_middle_cohomology(monkeypatch, label):
    row = catalog.cubic_row(label)
    alg = Lattice(row.alg_gram)
    trans = from_expression(row.coinv)
    calls = _recorded_overlattice_calls(monkeypatch, lambda: glue.primitive_extension(
        glue.full_glue(alg, trans), require_even=False))
    assert len(calls) == 1
    assert _assert_same_overlattice(*calls[0])


def test_overlattice_matches_fractions_on_canonical_lambda(monkeypatch):
    isom._canonical_extension.cache_clear()
    calls = _recorded_overlattice_calls(monkeypatch, isom.canonical_lambda)
    assert len(calls) == 1
    assert _assert_same_overlattice(*calls[0])


def test_overlattice_matches_fractions_on_examples():
    lat = direct_sum([A2, rescale(A2, -1)])
    f = discriminant_form(lat)
    assert _assert_same_overlattice(lat, [element_lift(lat, (1, 1))], f.den)
    assert _assert_same_overlattice(lat, [], 1)
    # disc(A2) glued to itself: q(x) + q(x) = 4/3 pairs non-integrally
    aa = direct_sum([A2, A2])
    f = discriminant_form(aa)
    assert not _assert_same_overlattice(aa, [element_lift(aa, (1, 1))], f.den)
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
        f = discriminant_form(lat)
        gens = [tuple(rng.randrange(d) for d in f.orders) for _ in range(rng.randint(1, 2))]
        rows = [element_lift(lat, x) for x in gens]
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
        f = discriminant_form(m)
        gens = [tuple(rng.randrange(d) for d in f.orders) for _ in range(rng.randint(1, 2))]
        lifted = [element_lift(m, x) for x in gens]
        ext = overlattice(lat, [v + v for v in lifted], f.den)
        indices.append(ext.index)
        assert ext.index == _det_ratio_index(lat, ext)
    assert len(set(indices)) >= 5

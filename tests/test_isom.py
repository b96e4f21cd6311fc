import random
from fractions import Fraction

import pytest
from conftest import fraction_inverse, fraction_to_int

from latticeforge.discform import discriminant_form, forms_isomorphic
from latticeforge.errors import DegenerateForm, NotAnIsometry, TooLarge
from latticeforge.isom import (
    Isometry,
    _canonical_extension,
    canonical_lambda,
    discriminant_action,
    extend_to_lambda,
    invariant_coinvariant,
    isometry_order,
    spinor_norm,
)
from latticeforge.lattice import Lattice, direct_sum, from_expression, make_named, rescale
from latticeforge.linalg import Matrix, block_diag

A2 = make_named("A", 2)
U = make_named("U")
ROT3 = Matrix([[0, -1], [1, -1]])


def _reflection(lat, v):
    nv = lat.norm(v)
    gv = lat.gram.apply(v)
    n = lat.rank
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            num = 2 * v[i] * gv[j]
            assert num % nv == 0
            row.append((1 if i == j else 0) - num // nv)
        rows.append(row)
    return Isometry(lat, Matrix(rows))


def test_isometry_validation():
    with pytest.raises(NotAnIsometry):
        Isometry(A2, Matrix([[1, 1], [0, 1]]))
    with pytest.raises(NotAnIsometry):
        Isometry(A2, Matrix([[2, 0], [0, 2]]))


def test_order():
    assert isometry_order(Isometry(A2, Matrix.identity(A2.rank))) == 1
    assert isometry_order(Isometry(A2, -Matrix.identity(A2.rank))) == 2
    assert isometry_order(Isometry(A2, ROT3)) == 3


def test_order_cap():
    # Pell automorphism of the form 2x^2 - 6y^2 has infinite order
    lat = Lattice(Matrix([[2, 0], [0, -6]]))
    f = Isometry(lat, Matrix([[2, 3], [1, 2]]))
    assert isometry_order(f, cap=50) is None
    with pytest.raises(Exception):
        invariant_coinvariant(f)


def test_invariant_coinvariant_examples():
    pair = invariant_coinvariant(Isometry(U, -Matrix.identity(U.rank)))
    assert pair.invariant.rank == 0
    assert pair.coinvariant.rank == 2
    assert pair.glue_a == 0

    pair = invariant_coinvariant(Isometry(A2, ROT3))
    assert pair.invariant.rank == 0
    assert pair.coinvariant.rank == 2
    assert pair.coinvariant.lattice().gram == A2.gram
    # rk(coinvariant)/(p-1) is an integer
    assert pair.coinvariant.rank % 2 == 0

    lat = direct_sum([U, A2])
    f = Isometry(lat, block_diag([Matrix.identity(2), ROT3]))
    pair = invariant_coinvariant(f)
    assert pair.invariant.rank == 2
    assert pair.coinvariant.lattice().gram == A2.gram
    assert pair.glue_a == 0


def test_discriminant_action():
    assert discriminant_action(Isometry(make_named("E", 8), Matrix.identity(8)))[0] == "id"
    assert discriminant_action(Isometry(make_named("OG10"), -Matrix.identity(24)))[0] == "-id"

    og = make_named("OG10")
    # swap the two E8(-1) blocks (coordinates 6..13 and 14..21)
    perm = list(range(24))
    for t in range(8):
        perm[6 + t], perm[14 + t] = perm[14 + t], perm[6 + t]
    m = Matrix([[1 if perm[i] == j else 0 for j in range(24)] for i in range(24)])
    assert discriminant_action(Isometry(og, m))[0] == "id"

    # the A2 rotation on the tail acts trivially on the discriminant group
    rot_tail = block_diag([Matrix.identity(22), ROT3])
    assert discriminant_action(Isometry(og, rot_tail))[0] == "id"


def test_disc_action_power_trivial():
    og = make_named("OG10")
    rot_tail = block_diag([Matrix.identity(22), ROT3])
    f = Isometry(og, rot_tail)
    n = isometry_order(f)
    power = Isometry(og, Matrix.identity(og.rank))
    for _ in range(n):
        power = f * power
    assert discriminant_action(power)[0] == "id"


def test_spinor_norm_convention():
    og = make_named("OG10")
    v = tuple(1 if i == 6 else 0 for i in range(24))  # a (-2)-vector
    assert og.norm(v) == -2
    assert spinor_norm(_reflection(og, v)) == 1

    assert spinor_norm(Isometry(og, Matrix.identity(og.rank))) == 1

    w = (1, 1)  # (+2)-vector of U
    assert U.norm(w) == 2
    assert spinor_norm(_reflection(U, w)) == -1


def test_spinor_norm_multiplicative():
    rng = random.Random(4)
    lat = direct_sum([U, A2, rescale(A2, -1)])
    roots = []
    n = lat.rank
    for x in ([1, 1, 0, 0, 0, 0], [1, -1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
              [0, 0, 0, 1, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 0],
              [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 1]):
        v = tuple(x)
        if abs(lat.norm(v)) == 2:
            roots.append(v)
    isoms = [_reflection(lat, v) for v in roots]
    for _ in range(15):
        f = rng.choice(isoms)
        g = rng.choice(isoms)
        assert spinor_norm(f * g) == spinor_norm(f) * spinor_norm(g)


def test_canonical_lambda():
    lam = canonical_lambda()
    assert lam.rank == 26
    assert abs(lam.det) == 1
    assert lam.signature == (5, 21)
    assert lam.is_even()


def test_extend_identity():
    ext = extend_to_lambda(Isometry(make_named("OG10"), Matrix.identity(24)))
    assert ext.matrix == Matrix.identity(26)


def test_extend_neg_identity():
    og = make_named("OG10")
    ext = extend_to_lambda(Isometry(og, -Matrix.identity(og.rank)))
    assert isometry_order(ext) == 2
    pair = invariant_coinvariant(ext)
    assert pair.invariant.rank == 1
    assert pair.invariant.gram() == Matrix([[2]])
    # the extension swaps the two orthogonal generators c, d
    _, _, canon = _canonical_extension()
    a2_rows = Matrix(canon.old_in_new.rows[24:])
    c = a2_rows.row(0)
    d = a2_rows.row(1)
    assert ext.matrix.apply(c) == d
    assert ext.matrix.apply(d) == c


def test_extend_restricts_to_input():
    og = make_named("OG10")
    rot_tail = block_diag([Matrix.identity(22), ROT3])
    f = Isometry(og, rot_tail)
    ext = extend_to_lambda(f)
    _, _, canon = _canonical_extension()
    og_rows, a2_rows = Matrix(canon.old_in_new.rows[:24]), Matrix(canon.old_in_new.rows[24:])
    for i in range(24):
        img = f.matrix.col(i)  # image of basis vector i under f
        want = tuple(sum(img[t] * og_rows[t, j] for t in range(24)) for j in range(26))
        assert ext.matrix.apply(og_rows.row(i)) == want
    # trivial disc action: the orthogonal A2 is fixed pointwise
    assert ext.matrix.apply(a2_rows.row(0)) == a2_rows.row(0)
    # its coinvariant matches the one downstairs (an A2(-1))
    pair = invariant_coinvariant(ext)
    assert pair.coinvariant.rank == 2
    f2, _ = discriminant_form(pair.coinvariant.lattice())
    f3, _ = discriminant_form(rescale(A2, -1))
    assert pair.coinvariant.lattice().signature == (0, 2)
    assert forms_isomorphic(f2, f3)


def _fraction_extension(f):
    """The earlier conjugation: inverse(P^T) @ diag(f, tail) @ P^T over the
    Fraction basis P of the overlattice."""
    _, _, ext = _canonical_extension()
    kind, _ = discriminant_action(f)
    tail = Matrix.identity(2) if kind == "id" else Matrix([[0, 1], [1, 0]])
    basis = Matrix(tuple(tuple(Fraction(x, ext.den) for x in r) for r in ext.rows.rows))
    bd = block_diag([f.matrix, tail])
    return fraction_to_int(fraction_inverse(basis.T) @ bd @ basis.T)


def _e8_coxeter_on_og10():
    """Product of the reflections in the simple roots of the first E8(-1)
    block of OG10 (coordinates 6..13), the identity elsewhere."""
    og = make_named("OG10")
    f = Isometry(og, Matrix.identity(og.rank))
    for i in range(6, 14):
        f = _reflection(og, tuple(int(t == i) for t in range(24))) * f
    return f


@pytest.mark.parametrize("make", [lambda og: Isometry(og, -Matrix.identity(24)),
                                  lambda og: _e8_coxeter_on_og10()],
                         ids=["minus-id", "e8-coxeter"])
def test_extend_matches_fraction_conjugation(make):
    f = make(make_named("OG10"))
    assert extend_to_lambda(f).matrix == _fraction_extension(f)


def test_extend_rejects_other_action():
    og = make_named("OG10")
    # an isometry moving the discriminant class to something not +-id does
    # not exist on Z/3; instead feed a non-OG10 lattice to hit the guard
    f_lat = make_named("F")
    with pytest.raises(NotAnIsometry):
        extend_to_lambda(Isometry(f_lat, Matrix.identity(f_lat.rank)))


def _coxeter(lat):
    """Product of the reflections in the basis vectors (order p on A_{p-1})."""
    f = Isometry(lat, Matrix.identity(lat.rank))
    for i in range(lat.rank):
        v = tuple(1 if t == i else 0 for t in range(lat.rank))
        f = _reflection(lat, v) * f
    return f


def _order_210():
    """Coxeter elements of A2, A4, A6 and -1 on A1: order lcm(3, 5, 7, 2)."""
    blocks = [_coxeter(from_expression(e)).matrix for e in ("A2", "A4", "A6")]
    return Isometry(from_expression("A2 + A4 + A6 + A1"), block_diag(blocks + [Matrix([[-1]])]))


def test_order_beyond_cap_is_too_large_not_infinite():
    f = _order_210()
    with pytest.raises(TooLarge, match="cap 120"):
        isometry_order(f)
    assert isometry_order(f, cap=210) == 210
    with pytest.raises(TooLarge):
        isometry_order(Isometry(A2, ROT3), cap=2)


def test_invariant_coinvariant_needs_no_order():
    # above the order cap the fixed lattice is still the kernel of f - 1
    pair = invariant_coinvariant(_order_210())
    assert pair.invariant.rank == 0 and pair.coinvariant.rank == 13
    assert abs(pair.coinvariant.lattice().det) == 210
    # an Eichler transvection: every trace is 3, so its infinite order is
    # never proved, and its fixed lattice span(e) is isotropic
    eichler = Isometry(from_expression("U + [2]"), Matrix([[1, -1, 2], [0, 1, 0], [0, -1, 1]]))
    with pytest.raises(TooLarge):
        isometry_order(eichler)
    with pytest.raises(DegenerateForm, match="fixed lattice"):
        invariant_coinvariant(eichler)


def test_order_infinite_once_a_trace_exceeds_the_rank():
    # the Pell automorphism has trace 4 > 2 at the first power
    lat = Lattice(Matrix([[2, 0], [0, -6]]))
    f = Isometry(lat, Matrix([[2, 3], [1, 2]]))
    assert isometry_order(f, cap=1) is None


def test_prime_order_glue_bound_on_generated_isometries():
    # >= 20 block isometries of prime order: the glue group of
    # invariant + coinvariant is p-elementary of length a <= rk/(p-1)
    cases = []
    for p, piece in ((2, "[2] + [-2]"), (3, "A2"), (5, "A4"), (7, "A6")):
        base = from_expression(piece)
        cox = _coxeter(base) if p > 2 else Isometry(base, -Matrix.identity(base.rank))
        assert isometry_order(cox) == p
        for extra in ("U", "U^2", "E8(-1)", "U + A2(-1)", "U(3)", "A2(-1)^2"):
            other = from_expression(extra)
            lat = direct_sum([base, other])
            m = block_diag([cox.matrix, Matrix.identity(other.rank)])
            cases.append((p, Isometry(lat, m)))
    assert len(cases) >= 20
    for p, f in cases:
        pair = invariant_coinvariant(f)
        rk = pair.coinvariant.rank
        assert rk % (p - 1) == 0
        m = rk // (p - 1)
        assert all(d == p for d in pair.glue_orders)
        assert pair.glue_a <= m


# ---------------------------------------------------------------------------
# integer discriminant action and spinor norm against the Fraction versions
# they replaced


def _fraction_discriminant_action(f):
    """The earlier images: Fraction lifts c_i / d_i pushed through f, then
    classified through the Gauss-Jordan inverse of the Smith transform."""
    snf = f.lattice.snf()
    vinv = fraction_inverse(snf.v)
    images = []
    for d, col in zip(snf.divisors, snf.v.T.rows):
        if d in (0, 1):
            continue
        w = vinv.apply(f.matrix.apply([Fraction(c, d) for c in col]))
        coeffs = []
        for e, wi in zip(snf.divisors, w):
            if (wi * e).denominator != 1:
                raise DegenerateForm("vector is not in the dual lattice")
            if e not in (0, 1):
                coeffs.append(int(wi * e) % e)
        images.append(tuple(coeffs))
    return Matrix(images)


def _block_isometries():
    """(isometry, expected kind) on sums of blocks: -id of a block, Coxeter
    elements of A_{p-1} blocks (trivial on the discriminant, as is every
    Weyl group element) and their products; a Coxeter element beside -id on
    a block with an odd discriminant part acts as neither id nor -id."""
    cases = []
    for expr in ("A2", "A4", "A6", "A2(-1)", "A4(-1)", "D4", "E6(-1)", "U(3)", "[2] + [-6]"):
        lat = from_expression(expr)
        cases.append((Isometry(lat, -Matrix.identity(lat.rank)),
                      "-id" if max(lat.disc_group_orders()) > 2 else "id"))
    for p in (3, 5, 7):
        for twist in ("", "(-1)"):
            cases.append((_coxeter(from_expression("A%d%s" % (p - 1, twist))), "id"))
    for left, right in (("A2", "A4(-1)"), ("A6", "U(3)"), ("A2(-1)", "A2 + D4")):
        a, b = from_expression(left), from_expression(right)
        cox, neg = _coxeter(a), Isometry(b, -Matrix.identity(b.rank))
        cases.append((Isometry(direct_sum([a, b]), block_diag([cox.matrix, neg.matrix])), "other"))
        cases.append((Isometry(direct_sum([a, b]),
                               block_diag([cox.matrix, Matrix.identity(b.rank)])), "id"))
    og = make_named("OG10")
    cases += [(Isometry(og, -Matrix.identity(og.rank)), "-id"), (_e8_coxeter_on_og10(), "id"),
              (Isometry(og, block_diag([Matrix.identity(22), ROT3])), "id"),
              (Isometry(og, block_diag([-Matrix.identity(22), ROT3])), "id")]
    return cases


def test_discriminant_action_matches_fractions():
    # the Fraction oracle reads the Smith presentation, so it runs on a
    # lattice on the same Gram with no summands; on a sum, the summands'
    # presentation gives the same kind, with images that keep b and q
    for f, kind in _block_isometries():
        whole = Isometry(Lattice(f.lattice.gram), f.matrix)
        got_kind, images = discriminant_action(whole)
        assert images == _fraction_discriminant_action(whole), f.lattice.gram
        assert got_kind == kind, f.lattice.gram
        got_kind, images = discriminant_action(f)
        form, _ = discriminant_form(f.lattice)
        assert got_kind == kind, f.lattice.gram
        assert [[form._b(x, y) for y in images.rows] for x in images.rows] == \
            [list(r) for r in form.B]
        assert form.Q is None or [form._q(x) for x in images.rows] == list(form.Q)


def _fraction_spinor_norm(f):
    """The earlier spinor norm: the same factorization, with rational
    reflection matrices."""
    gram = f.lattice.gram
    n = f.lattice.rank

    def reflection(w):
        gw = gram.apply(w)
        nw = sum(a * b for a, b in zip(w, gw))
        return Matrix(tuple(tuple((1 if i == j else 0) - Fraction(2 * w[i] * gw[j], nw)
                                  for j in range(n)) for i in range(n))), nw

    def contrib(norm_val):
        return 1 if norm_val < 0 else -1

    current = f.matrix
    spin = 1
    for v in f.lattice.elimination().basis:
        fv = current.apply(v)
        w = tuple(a - b for a, b in zip(fv, v))
        if not any(w):
            continue
        if sum(a * b for a, b in zip(w, gram.apply(w))):
            r, nw = reflection(w)
            current = r @ current
            spin *= contrib(nw)
        else:
            ru, nu = reflection(tuple(a + b for a, b in zip(fv, v)))
            rv, nv = reflection(v)
            current = rv @ ru @ current
            spin *= contrib(nu) * contrib(nv)
    assert current == Matrix.identity(n)
    return spin


@pytest.mark.parametrize("expr", ["A2", "U", "A2 + A2(-1)", "E8(-1)", "U^2 + D4(-1)",
                                  "[1] + [-1] + [3]", "OG10"])
def test_spinor_norm_of_minus_identity(expr):
    lat = from_expression(expr)
    f = Isometry(lat, -Matrix.identity(lat.rank))
    assert spinor_norm(f) == (-1) ** lat.signature[0] == _fraction_spinor_norm(f)


@pytest.mark.parametrize("expr", ["A2", "A2(-1)", "A4", "A4(-1)", "A6", "A6(-1)", "OG10"])
def test_spinor_norm_of_coxeter_elements(expr):
    # an even number of reflections in vectors of one sign
    f = _e8_coxeter_on_og10() if expr == "OG10" else _coxeter(from_expression(expr))
    assert spinor_norm(f) == 1 == _fraction_spinor_norm(f)


def test_spinor_norm_random_reflection_products():
    # a product of reflections in vectors of norm +-1, +-2 has spinor norm
    # (-1)^(number of positive ones)
    rng = random.Random(7)
    lat = from_expression("U + A2 + D4(-1) + [1] + [-1]")
    n = lat.rank
    vectors = []
    while len(vectors) < 40:
        v = tuple(rng.randint(-1, 1) for _ in range(n))
        if lat.norm(v) in (-2, -1, 1, 2):
            vectors.append(v)
    for _ in range(60):
        f = Isometry(lat, Matrix.identity(lat.rank))
        want = 1
        for v in rng.sample(vectors, rng.randint(1, 6)):
            f = _reflection(lat, v) * f
            want *= 1 if lat.norm(v) < 0 else -1
        assert spinor_norm(f) == want == _fraction_spinor_norm(f)

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bareiss_det,
    find_u3_sublattice_oracle,
    paired_stream_oracle,
    positive_model,
    smith_normal_form_oracle,
    symmetric_elimination_oracle,
)

from latticeforge import catalog, glue, linalg, shortvec, verify
from latticeforge.errors import DegenerateForm, DimensionMismatch
from latticeforge.lattice import Lattice, from_expression, make_named
from latticeforge.linalg import (
    Matrix,
    block_diag,
    hermite_normal_form,
    integer_kernel,
    smith_normal_form,
    symmetric_elimination,
    triangular_solve,
)


def test_snf_identity():
    s = smith_normal_form(Matrix.identity(3))
    assert s.d == Matrix.identity(3)


def test_snf_a2():
    s = smith_normal_form(Matrix([[2, -1], [-1, 2]]))
    assert s.divisors == (1, 3)


def test_snf_u3():
    m = Matrix([[0, 3], [3, 0]])
    s = smith_normal_form(m)
    assert s.divisors == (3, 3)
    assert s.u @ m @ s.v == s.d


def test_hnf_examples():
    h, u = hermite_normal_form(Matrix([[2, 0], [0, 2]]))
    assert h == Matrix([[2, 0], [0, 2]])
    h, u = hermite_normal_form(Matrix([[1, 2], [2, 4]]))
    assert h == Matrix([[1, 2], [0, 0]])
    h, u = hermite_normal_form(Matrix([[0, 3], [3, 0]]))
    assert h == Matrix([[3, 0], [0, 3]])


def test_kernel_examples():
    assert integer_kernel(Matrix([[1, 0], [0, 1]])).nrows == 0
    assert integer_kernel(Matrix([[1, 1], [1, 1]])).rows in (((1, -1),), ((-1, 1),))
    assert integer_kernel(Matrix([[2], [-2]])).rows == ((1, 1),)


def test_kernel_saturated():
    # x (2, 4) = 0 over Q is spanned by (2, -1); the integer kernel basis
    # must be that primitive vector, not a multiple
    ker = integer_kernel(Matrix([[2], [4]]))
    assert ker.nrows == 1
    assert sorted(map(abs, ker.row(0))) == [1, 2]


def test_signature_examples():
    assert symmetric_elimination(Matrix([[0, 1], [1, 0]])).signature == (1, 1)
    e8 = _e8()
    assert symmetric_elimination(e8.scale(-1)).signature == (0, 8)


def _e8():
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    for i in range(6):
        g[i][i + 1] = g[i + 1][i] = -1
    g[2][7] = g[7][2] = -1
    return Matrix(g)


def _random_matrix(rng, r, c, lo=-6, hi=6):
    return Matrix([[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])


def _random_unimodular(rng, n, steps=12):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    return Matrix(m)


def test_snf_roundtrip_random():
    rng = random.Random(7)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, r, c)
        s = smith_normal_form(m)
        assert s.u @ m @ s.v == s.d
        assert abs(bareiss_det(s.u)) == 1
        assert abs(bareiss_det(s.v)) == 1
        divisors = [d for d in s.divisors if d]
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0


def test_hnf_transform_random():
    rng = random.Random(11)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, r, c)
        h, u = hermite_normal_form(m)
        assert u @ m == h
        assert abs(bareiss_det(u)) == 1


def test_det_matches_snf_product():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n, n)
        prod = 1
        for d in smith_normal_form(m).divisors:
            prod *= d
        assert abs(bareiss_det(m)) == prod


def test_signature_congruence_invariant():
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randint(1, 10)
        # random nondegenerate symmetric matrix
        while True:
            a = _random_matrix(rng, n, n, -4, 4)
            g = a + a.T
            if bareiss_det(g) != 0:
                break
        sig = symmetric_elimination(g).signature
        u = _random_unimodular(rng, n)
        assert symmetric_elimination(u.T @ g @ u).signature == sig


def test_snf_v_inv_roundtrip():
    rng = random.Random(5)
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        s = smith_normal_form(_random_matrix(rng, r, c))
        assert s.v_inv @ s.v == Matrix.identity(c)
        assert s.v @ s.v_inv == Matrix.identity(c)


@st.composite
def _int_matrices(draw):
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = st.integers(-50, 50)
    return Matrix([[draw(entries) for _ in range(c)] for _ in range(r)])


@settings(max_examples=150, deadline=None)
@given(_int_matrices())
def test_snf_properties(m):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    s = smith_normal_form(m)
    r, c = m.shape
    assert s.u @ m @ s.v == s.d
    assert s.v_inv @ s.v == Matrix.identity(c)
    assert abs(bareiss_det(s.u)) == 1 and abs(bareiss_det(s.v)) == 1
    assert all(s.d[i, j] == 0 for i in range(r) for j in range(c) if i != j)
    divisors = s.divisors
    assert all(d >= 0 for d in divisors)
    # d1 | d2 | ...: every entry divides the next, and 0 only at the end
    assert all(b % a == 0 if a else b == 0 for a, b in zip(divisors, divisors[1:]))
    want = sympy_snf(sympy.Matrix([list(row) for row in m.rows]), domain=sympy.ZZ)
    assert divisors == tuple(abs(int(want[i, i])) for i in range(min(r, c)))


@settings(max_examples=150, deadline=None)
@given(_int_matrices())
def test_hnf_properties(m):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

    h, u = hermite_normal_form(m)
    assert u @ m == h
    assert abs(bareiss_det(u)) == 1
    # row echelon shape: pivots positive and strictly to the right of the
    # pivot above, zero rows at the bottom, entries above a pivot in [0, pivot)
    pivots = []
    for i, row in enumerate(h.rows):
        nonzero = [j for j, x in enumerate(row) if x]
        if not nonzero:
            assert not any(any(r) for r in h.rows[i:])
            break
        j = nonzero[0]
        assert row[j] > 0 and (not pivots or j > pivots[-1])
        assert all(0 <= h[k, j] < row[j] for k in range(i))
        pivots.append(j)
    # same row module: sympy's HNF is column-style, so compare the transposes
    def hnf_of_transpose(a):
        return sympy_hnf(sympy.Matrix([list(r) for r in a.rows]).T)

    assert hnf_of_transpose(m) == hnf_of_transpose(h)


def test_kernel_random_annihilates():
    rng = random.Random(13)
    for _ in range(30):
        r, c = rng.randint(1, 6), rng.randint(1, 4)
        m = _random_matrix(rng, r, c)
        ker = integer_kernel(m)
        if ker.nrows:
            assert all(all(x == 0 for x in row) for row in (ker @ m).rows)


def _descartes_signature(g):
    """(n_plus, n_minus) from the characteristic polynomial: its roots are
    real, so the sign changes of its coefficients count the positive roots
    exactly.  Uses no elimination of the library."""
    sympy = pytest.importorskip("sympy")
    coeffs = sympy.Matrix([list(r) for r in g.rows]).charpoly().all_coeffs()
    signs = [c > 0 for c in coeffs if c != 0]
    n_plus = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return (n_plus, g.nrows - n_plus)


def _check_elimination(g):
    sympy = pytest.importorskip("sympy")
    n = g.nrows
    want_det = sympy.Matrix([list(r) for r in g.rows]).det()
    if want_det == 0:
        with pytest.raises(DegenerateForm):
            symmetric_elimination(g)
        return False
    e = symmetric_elimination(g)
    assert e.det == bareiss_det(g) == want_det
    assert e.signature == _descartes_signature(g)
    d = (1,) + e.minors
    for k, row in enumerate(e.rows):
        assert all(x == 0 for x in row[:k]) and row[k] == d[k + 1]
    b = Matrix(e.basis)
    assert b @ g @ b.T == Matrix.diagonal([d[k] * d[k + 1] for k in range(n)])
    return True


def test_symmetric_elimination_random_oracle():
    rng = random.Random(26)
    nondegenerate = 0
    for trial in range(200):
        n = rng.randint(1, 8)
        a = _random_matrix(rng, n, n, -3, 3)
        g = [list(r) for r in (a + a.T).rows]
        if trial % 2:
            # a zero diagonal exercises both kinds of congruence pivot
            for i in range(n):
                g[i][i] = 0
        nondegenerate += _check_elimination(Matrix(g))
    assert nondegenerate > 150


def _catalog_grams():
    lats = [make_named(name) for name in ("OG10", "Lambda", "K3", "F", "H4cubic")]
    lats += [lat for lat in catalog.fixture_lattices().values() if lat.rank]
    for row in catalog.RANK26_PAIRS:
        lats += [from_expression(row.coinv), from_expression(row.inv)]
    return [lat.gram for lat in lats]


def test_symmetric_elimination_catalog_oracle():
    rng = random.Random(10)
    grams = _catalog_grams()
    for g in grams:
        assert _check_elimination(g)
    for g in grams[:5]:
        # the same forms in a dense random basis
        u = _random_unimodular(rng, g.nrows, steps=3 * g.nrows)
        assert _check_elimination(u.T @ g @ u)



# ---------------------------------------------------------------------------
# the Smith and symmetric elimination kernels stop their pivot scan at a unit
# and leave rows with a zero multiplier alone; the oracles in conftest run
# every pass, and both must give exactly the same result or exception


def _same_as_oracle(kernel, oracle, m):
    try:
        want = oracle(m)
    except DegenerateForm as exc:
        with pytest.raises(DegenerateForm, match=str(exc)):
            kernel(m)
        return False
    assert kernel(m) == want
    return True


def test_kernels_match_oracles_on_every_verify_all_input(monkeypatch):
    seen = {"snf": set(), "elim": set(), "walk": set()}
    real_snf, real_elim = linalg.smith_normal_form, linalg.symmetric_elimination
    real_walk = shortvec._enumerate_upto

    def snf(m):
        seen["snf"].add(m)
        return real_snf(m)

    def elim(g):
        seen["elim"].add(g)
        return real_elim(g)

    def walk(lat, bound):
        seen["walk"].add((lat.gram, bound))
        return real_walk(lat, bound)

    from_expression.cache_clear()
    verify._cubic_lattice.cache_clear()
    monkeypatch.setattr(linalg, "smith_normal_form", snf)
    monkeypatch.setattr(linalg, "symmetric_elimination", elim)
    monkeypatch.setattr(shortvec, "_enumerate_upto", walk)
    try:
        assert all(report.ok for report in verify.verify_all())
        # more real inputs: a U(3) witness in each induced invariant
        # lattice, and the norm-2 vectors of its complement; the norm-2
        # vectors of each cubic row's negated invariant and algebraic
        # lattices and of eta-perp in the algebraic lattice and its negation
        for row in catalog.INDUCED_ROWS:
            sub = find_u3_sublattice_oracle(from_expression(row.inv))
            shortvec.count_vectors(glue.orthogonal_complement(sub).lattice(), 2)
        for row in catalog.CUBIC_ROWS:
            alg = Lattice(row.alg_gram)
            eta = (1,) + (0,) * (alg.rank - 1)
            perp = glue.orthogonal_complement(glue.span(alg, [eta])).lattice()
            for gram in (row.inv_gram, row.alg_gram, perp.gram, -perp.gram):
                shortvec.count_vectors(Lattice(-gram), 2)
    finally:
        from_expression.cache_clear()
        verify._cubic_lattice.cache_clear()
    monkeypatch.undo()
    assert len(seen["snf"]) > 50 and len(seen["elim"]) > 50
    for m in seen["snf"]:
        assert smith_normal_form(m) == smith_normal_form_oracle(m)
    for g in seen["elim"]:
        _same_as_oracle(symmetric_elimination, symmetric_elimination_oracle, g)
    # every Fincke-Pohst walk, of either sign, gives the recursive walker's
    # stream on the positive model cut to the half tree, each x followed by
    # -x: the same vectors with the same norms in the same order
    assert seen["walk"]
    for gram, bound in seen["walk"]:
        lat = Lattice(gram)
        want = paired_stream_oracle(positive_model(lat), bound)
        assert list(shortvec._enumerate_upto(lat, bound)) == want


def test_smith_normal_form_matches_oracle_on_the_lambda_p_grams():
    # verify reads the rank-26 rows' discriminant data from their terms, so
    # their block-diagonal Grams, of rank up to 24, reach the Smith kernel
    # only through `info` and the like; the 106 expressions have 102 Grams
    grams = {from_expression(expr).gram for row in catalog.RANK26_PAIRS
             for expr in (row.coinv, row.inv)}
    assert len(grams) == 102 and max(g.nrows for g in grams) == 24
    for g in grams:
        assert smith_normal_form(g) == smith_normal_form_oracle(g)


# mostly zeros and units, so that unit pivots, zero multipliers and zero
# pivots all occur
_SMALL = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -6))


@st.composite
def _sparse_matrices(draw):
    r, c = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    return Matrix([[draw(_SMALL) for _ in range(c)] for _ in range(r)])


@settings(max_examples=200, deadline=None)
@given(st.one_of(_int_matrices(), _sparse_matrices()))
def test_smith_normal_form_matches_oracle(m):
    assert smith_normal_form(m) == smith_normal_form_oracle(m)


@st.composite
def _symmetric_blocks(draw):
    """A symmetric matrix: a block diagonal of random symmetric blocks,
    zero-diagonal U-like blocks [[0, a], [a, 0]] and zero blocks, with a few
    entries coupling the blocks and optionally a zero diagonal, in a random
    order of the basis."""
    blocks = []
    for kind in draw(st.lists(st.sampled_from(("random", "hyperbolic", "zero")),
                              min_size=1, max_size=4)):
        if kind == "random":
            n = draw(st.integers(1, 3))
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = draw(_SMALL)
            blocks.append(Matrix(g))
        elif kind == "hyperbolic":
            a = draw(st.sampled_from((1, -1, 2, 3)))
            blocks.append(Matrix([[0, a], [a, 0]]))
        else:
            blocks.append(Matrix([[0]]))
    g = [list(r) for r in block_diag(blocks).rows]
    n = len(g)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        g[i][j] = g[j][i] = draw(_SMALL)
    if draw(st.booleans()):
        for i in range(n):
            g[i][i] = 0
    order = draw(st.permutations(range(n)))
    return Matrix([[g[i][j] for j in order] for i in order])


@settings(max_examples=300, deadline=None)
@given(_symmetric_blocks())
def test_symmetric_elimination_matches_oracle(g):
    _same_as_oracle(symmetric_elimination, symmetric_elimination_oracle, g)


@st.composite
def _banded_blocks(draw):
    """A block diagonal of banded symmetric blocks (bandwidth 1 to 3, a
    mostly nonzero diagonal, so most multipliers of a step are zero and rows
    fall many minors behind) and hyperbolic blocks [[0, a], [a, 0]], in the
    order drawn."""
    blocks = []
    for kind in draw(st.lists(st.sampled_from(("banded", "banded", "hyperbolic")),
                              min_size=1, max_size=4)):
        if kind == "banded":
            n, w = draw(st.integers(1, 9)), draw(st.integers(1, 3))
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                g[i][i] = draw(st.sampled_from((2, 2, 4, -2, 3, 0)))
                for j in range(i + 1, min(n, i + w + 1)):
                    g[i][j] = g[j][i] = draw(_SMALL)
            blocks.append(Matrix(g))
        else:
            a = draw(st.sampled_from((1, -1, 2, 3)))
            blocks.append(Matrix([[0, a], [a, 0]]))
    return block_diag(blocks)


@settings(max_examples=300, deadline=None)
@given(_banded_blocks())
def test_symmetric_elimination_matches_oracle_on_banded_grams(g):
    _same_as_oracle(symmetric_elimination, symmetric_elimination_oracle, g)


class _Counted(int):
    """An int that counts the multiplications it takes part in; every sum,
    difference, product and floor quotient is again a _Counted."""

    products = 0

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted(int(self) * int(other))

    __rmul__ = __mul__

    def __floordiv__(self, other):
        return _Counted(int(self) // int(other))

    def __rfloordiv__(self, other):
        return _Counted(int(other) // int(self))

    def __add__(self, other):
        return _Counted(int(self) + int(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _Counted(int(self) - int(other))

    def __rsub__(self, other):
        return _Counted(int(other) - int(self))


@pytest.mark.parametrize("expr, width", [("A60", 1), ("D60", 2), ("E8^4 + U^10", 5)])
def test_symmetric_elimination_does_quadratic_work_on_banded_grams(expr, width):
    # a row of bandwidth w takes at most w Bareiss updates (4n products each)
    # and one catch-up (2n); rescaling every zero-multiplier row at every step
    # would take about n^3 products
    gram = from_expression(expr).gram
    n = gram.nrows
    _Counted.products = 0
    got = symmetric_elimination(Matrix([[_Counted(x) for x in r] for r in gram.rows]))
    assert _Counted.products <= (4 * width + 2) * n * n
    assert got == symmetric_elimination_oracle(gram)


@pytest.mark.parametrize("rows", [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],  # zero multipliers, piv == prev
    [[2, 0, 0], [0, 3, 0], [0, 0, 5]],  # zero multipliers, piv != prev
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0]],  # U + U(3)
    [[0, 0, 1], [0, 2, 0], [1, 0, 0]],  # a zero pivot swapped
    [[2, 1], [1, 0]],
    [[0, 0], [0, 3]],  # degenerate
    [[2, 2], [2, 2]],  # degenerate
])
def test_kernels_match_oracles_on_hand_picked_inputs(rows):
    m = Matrix(rows)
    assert smith_normal_form(m) == smith_normal_form_oracle(m)
    _same_as_oracle(symmetric_elimination, symmetric_elimination_oracle, m)


# ---------------------------------------------------------------------------
# the dot-product kernels against sympy products: small entries and entries
# beyond 2^64, 1 x n and empty shapes, and the DimensionMismatch of a bad shape

_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(2 ** 64, 2 ** 70),
                     st.integers(-2 ** 70, -2 ** 64))


def _draw_rows(data, r, c):
    return [[data.draw(_ENTRIES) for _ in range(c)] for _ in range(r)]


def _ints(m):
    """A sympy matrix as a tuple of int rows."""
    return tuple(tuple(int(x) for x in m.row(i)) for i in range(m.rows))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
def test_matmul_and_apply_match_sympy(r, k, c, data):
    sympy = pytest.importorskip("sympy")
    a, b = _draw_rows(data, r, k), _draw_rows(data, k, c)
    vec = tuple(data.draw(_ENTRIES) for _ in range(k))
    assert (Matrix(a) @ Matrix(b)).rows == _ints(sympy.Matrix(a) * sympy.Matrix(b))
    assert Matrix(a).apply(vec) == tuple(
        x for (x,) in _ints(sympy.Matrix(a) * sympy.Matrix(k, 1, list(vec))))
    with pytest.raises(DimensionMismatch):
        Matrix(a) @ Matrix(_draw_rows(data, k + 1, c))
    with pytest.raises(DimensionMismatch):
        Matrix(a).apply(vec + (1,))


def test_matmul_and_apply_on_empty_and_single_row_shapes():
    sympy = pytest.importorskip("sympy")
    empty = Matrix(())
    assert (empty @ empty).rows == () and empty.apply(()) == ()
    # r x 0 times the empty matrix: r empty rows; applied to (), r zeros
    tall = Matrix([(), (), ()])
    assert tall.shape == (3, 0)
    assert (tall @ empty).rows == ((), (), ())
    assert tall.apply(()) == (0, 0, 0)
    big = 2 ** 65 + 7
    row = Matrix([(big, -1, 3)])
    col = Matrix([(2,), (big,), (-big,)])
    assert (row @ col).rows == _ints(sympy.Matrix(row.rows) * sympy.Matrix(col.rows))
    assert (col @ row).rows == _ints(sympy.Matrix(col.rows) * sympy.Matrix(row.rows))
    assert row.apply((2, big, -big)) == ((row @ col)[0, 0],)
    for a, b in ((empty, row), (row, empty), (tall, row), (row, row)):
        with pytest.raises(DimensionMismatch):
            a @ b
    with pytest.raises(DimensionMismatch):
        empty.apply((1,))
    with pytest.raises(DimensionMismatch):
        row.apply((1, 2))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(0, 4), st.data())
def test_triangular_solve_matches_sympy(n, r, data):
    sympy = pytest.importorskip("sympy")
    nonzero = _ENTRIES.filter(bool)
    h = [[data.draw(nonzero) if i == j else data.draw(_ENTRIES) if j > i else 0
          for j in range(n)] for i in range(n)]
    x = _draw_rows(data, r, n)
    b = _ints(sympy.Matrix(r, n, [v for row in x for v in row]) * sympy.Matrix(h))
    assert triangular_solve(Matrix(h), Matrix(b)).rows == tuple(map(tuple, x))
    if abs(h[0][0]) > 1:
        # the first coordinate of a row of the lattice is a multiple of h_00
        with pytest.raises(DimensionMismatch):
            triangular_solve(Matrix(h), Matrix([(1,) + (0,) * (n - 1)]))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.data())
def test_lattice_inner_matches_sympy(n, data):
    sympy = pytest.importorskip("sympy")
    upper = _draw_rows(data, n, n)
    gram = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    lat = Lattice(Matrix(gram))
    v = tuple(data.draw(_ENTRIES) for _ in range(n))
    w = tuple(data.draw(_ENTRIES) for _ in range(n))
    want = sympy.Matrix(1, n, list(v)) * sympy.Matrix(gram) * sympy.Matrix(n, 1, list(w))
    assert lat.inner(v, w) == int(want[0, 0]) == lat.inner(w, v)
    with pytest.raises(DimensionMismatch):
        lat.inner(v + (1,), w)
    with pytest.raises(DimensionMismatch):
        lat.inner(v, w[:-1])

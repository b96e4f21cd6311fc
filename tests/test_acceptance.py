"""Acceptance suite: one test per criterion, each printing a pass line.

All arithmetic is exact, so every tolerance is equality; the stated runtime
budgets are asserted with wall-clock checks.
"""

import random
import time
from fractions import Fraction

from conftest import box_count, box_minimum

from latticeforge import catalog, verify
from latticeforge.discform import (
    discriminant_form,
    element_lift,
    forms_isomorphic,
    milgram_signature,
)
from latticeforge.glue import overlattice, saturation_index, span
from latticeforge.isom import Isometry, _canonical_extension, extend_to_lambda
from latticeforge.lattice import Lattice, direct_sum, from_expression, make_named
from latticeforge.linalg import Matrix, bareiss_det, smith_normal_form
from latticeforge.shortvec import count_vectors, short_vectors


def _timed(budget):
    start = time.monotonic()

    def done(label):
        elapsed = time.monotonic() - start
        assert elapsed < budget, "%s took %.1fs (budget %.0fs)" % (label, elapsed, budget)
        return elapsed

    return done


def test_criterion_01_discriminant_of_rank24_lattice():
    done = _timed(1.0)
    og = make_named("OG10")
    form, _ = discriminant_form(og)
    assert form.orders == (3,)
    assert form.q == (Fraction(4, 3),)
    t = done("criterion 1")
    print("criterion 1: PASS - disc group Z/3 with q = 4/3 (%.2fs)" % t)


def test_criterion_02_genus_vs_isometry_example():
    done = _timed(1.0)
    exa, exb = make_named("ExA"), make_named("ExB")
    ua = direct_sum([make_named("U"), exa])
    ub = direct_sum([make_named("U"), exb])
    assert ua.signature == ub.signature
    fa, _ = discriminant_form(ua)
    fb, _ = discriminant_form(ub)
    assert forms_isomorphic(fa, fb)
    assert box_minimum(exa, 5) == 2 and min(nv for _v, nv in short_vectors(exa, 4)) == 2
    assert box_minimum(exb, 5) == 4 and min(nv for _v, nv in short_vectors(exb, 4)) == 4
    t = done("criterion 2")
    print("criterion 2: PASS - same genus, minima 2 vs 4 (%.2fs)" % t)


def test_criterion_03_rank26_table():
    done = _timed(30.0)
    report = verify.verify_lambda_p()
    assert report.ok, report.to_text()
    good, total = report.counts
    assert good == total == len(catalog.RANK26_PAIRS) == 53
    labels = {r.row for r in report.rows}
    assert {str(i) for i in range(1, catalog.RANK26_LABEL_COUNT + 1)} <= labels
    t = done("criterion 3")
    print("criterion 3: PASS - all 52 printed rows (53 physical) pass every "
          "column check (%.1fs)" % t)


def test_criterion_04_count_54():
    done = _timed(1.0)
    assert count_vectors(Lattice(catalog.FG_PHI35), 4) == 54
    t = done("criterion 4")
    print("criterion 4: PASS - 54 vectors of square 4 (%.2fs)" % t)


def test_criterion_05_count_81():
    done = _timed(60.0)
    alg = Lattice(catalog.AY_PHI32)
    eta = (1,) + (0,) * 12
    assert count_vectors(alg, 3, dots=[(eta, 1)]) == 81
    t = done("criterion 5")
    print("criterion 5: PASS - 81 classes of square 3 meeting eta once (%.2fs)" % t)


def test_criterion_06_cubic_structural_suite():
    done = _timed(300.0)
    report = verify.verify_cubic_tables()
    assert report.ok, report.to_text(verbose=True)
    want_d = {"phi31": 10, "phi35": 7, "phi37": 6, "phi32": 4}
    for row in catalog.CUBIC_ROWS:
        assert row.moduli_dim == want_d[row.label]
        assert from_expression(row.coinv).rank == 2 * row.moduli_dim + 2
    by_row = {r.row: {c.name: c.passed for c in r.checks} for r in report.rows}
    for label in want_d:
        checks = by_row[label]
        for name in ("no_short_roots", "no_long_roots", "no_square_one_class",
                     "eta_square_3", "eta_perp_isometric_inv", "l_alg_column",
                     "rank_coinv_2d_plus_2"):
            assert checks[name], (label, name)
    t = done("criterion 6")
    print("criterion 6: PASS - root/square-one exclusions, eta-perp witnesses, "
          "lengths and rank bookkeeping for all four rows (%.1fs)" % t)


def test_criterion_07_associated_k3_column():
    done = _timed(10.0)
    verdicts = []
    for row in catalog.CUBIC_ROWS:
        got, _ = verify.k3_association_verdict(from_expression(row.coinv))
        verdicts.append(got)
        assert got == row.has_assoc_k3
    assert verdicts == [False, False, True, True]
    t = done("criterion 7")
    print("criterion 7: PASS - verdicts (No, No, Yes, Yes) (%.2fs)" % t)


def test_criterion_08_labelings():
    done = _timed(30.0)
    for label in ("phi37", "phi32"):
        row = catalog.cubic_row(label)
        alg = Lattice(row.alg_gram)
        eta = (1,) + (0,) * (alg.rank - 1)
        witness = span(alg, [eta, row.labeling_witness])
        assert witness.gram() == Matrix([[3, 2], [2, 6]])
        assert bareiss_det(witness.gram()) == 14
        assert saturation_index(witness) == 1
        found = dict(verify.labeling_search(alg, 20))
        assert 14 in found
    alg35 = Lattice(catalog.AY_PHI35)
    found = verify.labeling_search(alg35, 60)
    assert found and all(d % 6 == 0 for d, _ in found)
    t = done("criterion 8")
    print("criterion 8: PASS - d=14 labelings with the printed witnesses; only "
          "d = 0 mod 6 up to 60 for the rank-7 case (%.1fs)" % t)


def test_criterion_09_explicit_glue_and_extension():
    done = _timed(5.0)
    og = make_named("OG10")
    a2 = make_named("A", 2)
    amb = direct_sum([og, a2])
    g1 = (0,) * 22 + (1, -1, 1, -1)
    ext = overlattice(amb, [g1], 3)
    lam = ext.lattice
    assert lam.is_even()
    assert abs(lam.det) == 1
    assert lam.signature == (5, 21)

    _, _, canon = _canonical_extension()
    lam2 = canon.lattice
    f = extend_to_lambda(Isometry(og, -Matrix.identity(og.rank)))
    assert f.matrix.T @ lam2.gram @ f.matrix == lam2.gram
    a2_rows = Matrix(canon.old_in_new.rows[24:])
    c, d = a2_rows.row(0), a2_rows.row(1)
    assert f.matrix.apply(c) == d and f.matrix.apply(d) == c
    t = done("criterion 9")
    print("criterion 9: PASS - printed generators glue to the even unimodular "
          "(5,21) lattice; -id extends swapping the two new generators (%.2fs)" % t)


def test_criterion_10_property_suites():
    done = _timed(240.0)
    rng = random.Random(99)
    # Smith round trip
    for _ in range(10):
        m = Matrix([[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)])
        s = smith_normal_form(m)
        assert s.u @ m @ s.v == s.d
    # Gauss-sum residue equals signature mod 8 on every even named lattice
    for expr in ("U", "A2", "D4", "E6", "E7", "E8", "K7", "K11", "K19", "K23",
                 "h5", "h13", "E6*(3)", "L17", "N69", "N15", "ExA", "ExB",
                 "OG10", "Lambda", "F", "K3", "U(3)"):
        lat = from_expression(expr)
        f, _ = discriminant_form(lat)
        sp, sm = lat.signature
        assert milgram_signature(f) == (sp - sm) % 8, expr
    # overlattice determinant identity, the index read from the Hermite form
    from latticeforge.lattice import rescale

    pair = direct_sum([make_named("A", 2), rescale(make_named("A", 2), -1)])
    fp, lifts = discriminant_form(pair)
    ext = overlattice(pair, [element_lift(lifts, (1, 1))], fp.den)
    idx = ext.index
    assert abs(ext.lattice.det) * idx * idx == abs(pair.det)
    # prime-order glue bound on generated isometries: delegated module test
    from test_isom import test_prime_order_glue_bound_on_generated_isometries

    test_prime_order_glue_bound_on_generated_isometries()
    # branch-and-bound vs box oracle on small definite lattices
    for expr in ("A2", "D4", "E6", "ExA", "E6*(3)"):
        lat = from_expression(expr)
        for norm in (2, 4):
            assert count_vectors(lat, norm) == box_count(lat.gram, norm)
    t = done("criterion 10")
    print("criterion 10: PASS - round trips, Gauss-sum congruences, overlattice "
          "determinants, glue bounds, enumeration oracle (%.1fs)" % t)

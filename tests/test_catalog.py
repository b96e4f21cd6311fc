import pytest

from latticeforge import catalog
from latticeforge.errors import LatticeForgeError
from latticeforge.lattice import Lattice, from_expression
from latticeforge.linalg import Matrix


def test_all_expressions_resolve():
    for row in catalog.RANK26_PAIRS:
        assert from_expression(row.coinv).rank + from_expression(row.inv).rank == 26
    for row in catalog.CUBIC_ROWS:
        assert from_expression(row.coinv).rank + row.inv_gram.nrows == 22
    for row in catalog.INDUCED_ROWS:
        exprs = [row.coinv] + ([row.alt_coinv] if row.alt_coinv else [])
        assert any(from_expression(e).rank + from_expression(row.inv).rank == 24
                   for e in exprs)


def test_printed_matrices_symmetric():
    for m in (catalog.FG_PHI35, catalog.FG_PHI37, catalog.FG_PHI32,
              catalog.AY_PHI35, catalog.AY_PHI37, catalog.AY_PHI32):
        assert m.is_symmetric()


def test_rank26_labels():
    labels = [r.label for r in catalog.RANK26_PAIRS]
    assert len(labels) == 53  # 52 printed labels, one duplicated in the source
    assert len(set(labels)) == 53
    numeric = sorted(int(l.rstrip("b")) for l in labels)
    assert numeric[0] == 1 and numeric[-1] == catalog.RANK26_LABEL_COUNT == 52


def test_cubic_row_order_and_dimensions():
    assert [r.label for r in catalog.CUBIC_ROWS] == ["phi31", "phi35", "phi37", "phi32"]
    assert [r.moduli_dim for r in catalog.CUBIC_ROWS] == [10, 7, 6, 4]
    assert [r.has_assoc_k3 for r in catalog.CUBIC_ROWS] == [False, False, True, True]
    assert [r.rational for r in catalog.CUBIC_ROWS] == [None, None, True, True]


def test_fg_phi37_is_three_times_unimodular():
    m = catalog.FG_PHI37
    assert all(x % 3 == 0 for row in m.rows for x in row)
    third = Matrix([[x // 3 for x in row] for row in m.rows])
    assert abs(Lattice(third).det) == 1


def test_fixture_lattices_registry():
    reg = catalog.fixture_lattices()
    assert reg["FG_phi35"].rank == 6
    assert reg["AY_phi32"].rank == 13
    assert reg["LG_phi37"].rank == 14
    assert reg["LGinv_phi31"].gram == Matrix([[0, 3], [3, 0]])
    assert reg["TY_phi31"].signature == (20, 2)


def test_fixtures_as_json_shape():
    data = catalog.fixtures_as_json()
    assert len(data["rank26_pairs"]) == 53
    assert len(data["cubic_rows"]) == 4
    assert len(data["induced_rows"]) == 6
    assert data["rank26_pairs"][22]["printed"] is not None  # row 23 reconciled


def test_row_lookups():
    assert next(r for r in catalog.RANK26_PAIRS if r.label == "52").p == 23
    assert catalog.cubic_row("phi37").l_alg == 7
    assert next(r for r in catalog.INDUCED_ROWS if r.label == "phi21").p == 2
    with pytest.raises(KeyError):
        catalog.cubic_row("99")


def test_unknown_row_label_is_an_input_error():
    with pytest.raises(LatticeForgeError):
        catalog.cubic_row("99")

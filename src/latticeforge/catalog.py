"""Embedded classification-table fixtures.

Each row stores printed data; where the source tables carry typos that the
row's own checksum columns (rank, signature, length) contradict, the
reconciled expression is used for computation and the printed one is kept in
`printed` with a note.  Verifiers in latticeforge.verify re-check every
column of every row.
"""

from dataclasses import dataclass

from .errors import UnknownLabel
from .lattice import Lattice, from_expression
from .linalg import Matrix


@dataclass(frozen=True)
class PairRow:
    """A (coinvariant, invariant) pair with its checksum columns."""

    label: str
    rank_inv: int
    coinv: str
    inv: str
    sgn_coinv: tuple
    a: int
    p: int
    note: str = ""
    printed: tuple = ()  # (coinv, inv) as printed, when reconciled
    alt_coinv: str = ""  # second reading of an ambiguous printed expression


# Pairs in the rank-26 even unimodular lattice of signature (5, 21), prime
# order p >= 3, coinvariant signature (2, rk-2).  Row labels follow the
# source; the label 25 appears twice there, so the second occurrence is 25b.
RANK26_PAIRS = (
    PairRow("1", 24, "A2", "U^3 + E8(-1)^2 + A2(-1)", (2, 0), 1, 3),
    PairRow("2", 22, "U^2", "U^3 + E8(-1)^2", (2, 2), 0, 3),
    PairRow("3", 22, "U + U(3)", "U^2 + U(3) + E8(-1)^2", (2, 2), 2, 3),
    PairRow("4", 20, "U^2 + A2(-1)", "U^3 + E8(-1) + E6(-1)", (2, 4), 1, 3),
    PairRow("5", 20, "U + U(3) + A2(-1)", "U^3 + E8(-1) + A2(-1)^3", (2, 4), 3, 3),
    PairRow("6", 18, "U^2 + A2(-1)^2", "U^3 + E6(-1)^2", (2, 6), 2, 3),
    PairRow("7", 18, "U + U(3) + A2(-1)^2", "U^2 + U(3) + E6(-1)^2", (2, 6), 4, 3),
    PairRow("8", 16, "U^2 + E6(-1)", "U^3 + E8(-1) + A2(-1)", (2, 8), 1, 3),
    PairRow("9", 16, "U + U(3) + E6(-1)", "U^3 + E6(-1) + A2(-1)^2", (2, 8), 3, 3),
    PairRow("10", 16, "U + U(3) + A2(-1)^3", "U^2 + U(3) + E6(-1) + A2(-1)^2", (2, 8), 5, 3),
    PairRow("11", 14, "U^2 + E8(-1)", "U^3 + E8(-1)", (2, 10), 0, 3),
    PairRow("12", 14, "U + U(3) + E8(-1)", "U^2 + U(3) + E8(-1)", (2, 10), 2, 3),
    PairRow("13", 14, "U^2 + A2(-1)^4", "U^3 + A2(-1)^4", (2, 10), 4, 3),
    PairRow("14", 14, "U + U(3) + A2(-1)^4", "U^2 + U(3) + A2(-1)^4", (2, 10), 6, 3),
    PairRow("15", 12, "U^2 + E8(-1) + A2(-1)", "U^3 + E6(-1)", (2, 12), 1, 3),
    PairRow("16", 12, "U + U(3) + E8(-1) + A2(-1)", "U^2 + U(3) + E6(-1)", (2, 12), 3, 3),
    PairRow("17", 12, "U^2 + A2(-1)^5", "U^2 + U(3) + A2(-1)^3", (2, 12), 5, 3),
    PairRow("18", 12, "U + U(3) + A2(-1)^5", "U^2 + U(3) + E6*(-3)", (2, 12), 7, 3),
    PairRow("19", 10, "U^2 + E6(-1)^2", "U^3 + A2(-1)^2", (2, 14), 2, 3),
    PairRow("20", 10, "U + U(3) + E6(-1)^2", "U^2 + U(3) + A2(-1)^2", (2, 14), 4, 3),
    PairRow("21", 10, "U + U(3) + E6(-1) + A2(-1)^3", "U + U(3)^2 + A2(-1)^2", (2, 14), 6, 3),
    PairRow("22", 10, "U + U(3) + A2(-1)^6", "U(3)^3 + A2(-1)^2", (2, 14), 8, 3),
    PairRow("23", 8, "U^2 + E8(-1) + E6(-1)", "U^3 + A2(-1)", (2, 16), 1, 3,
            note="source prints the row-15 lattices here; the rank, signature "
                 "and length columns force this pair",
            printed=("U^2 + E8(-1) + A2(-1)", "U^3 + E6(-1)")),
    PairRow("24", 8, "U + U(3) + E8(-1) + E6(-1)", "U^2 + U(3) + A2(-1)", (2, 16), 3, 3),
    PairRow("25", 8, "U^2 + E6(-1) + A2(-1)^4", "U + U(3)^2 + A2(-1)", (2, 16), 5, 3),
    PairRow("25b", 8, "U + U(3) + E6(-1) + A2(-1)^4", "U(3)^3 + A2(-1)", (2, 16), 7, 3,
            note="second row printed with label 25"),
    PairRow("26", 6, "U^2 + E8(-1)^2", "U^3", (2, 18), 0, 3),
    PairRow("27", 6, "U + U(3) + E8(-1)^2", "U^2 + U(3)", (2, 18), 2, 3),
    PairRow("28", 6, "U^2 + E8(-1) + A2(-1)^4", "U + U(3)^2", (2, 18), 4, 3),
    PairRow("29", 6, "U^2 + E6(-1) + A2(-1)^5", "U(3)^3", (2, 18), 6, 3),
    PairRow("30", 4, "U^2 + E8(-1)^2 + A2(-1)", "U + A2", (2, 20), 1, 3),
    PairRow("31", 4, "U + U(3) + E8(-1)^2 + A2(-1)", "U(3) + A2", (2, 20), 3, 3),
    PairRow("32", 22, "U + h5", "U^2 + h5 + E8(-1)^2", (2, 2), 1, 5),
    PairRow("33", 18, "U + h5 + A4(-1)", "U^2 + h5 + E8(-1) + A4(-1)", (2, 6), 2, 5),
    PairRow("34", 14, "U + h5 + E8(-1)", "U^2 + h5 + E8(-1)", (2, 10), 1, 5),
    PairRow("35", 14, "U + h5 + A4(-1)^2", "U^2 + h5 + A4(-1)^2", (2, 10), 3, 5),
    PairRow("36", 10, "U + h5 + E8(-1) + A4(-1)", "U^2 + h5 + A4(-1)", (2, 14), 2, 5),
    PairRow("37", 10, "U + h5 + A4(-1)^3", "U + U(5) + h5 + A4(-1)", (2, 14), 4, 5),
    PairRow("38", 6, "U + h5 + E8(-1)^2", "U^2 + h5", (2, 18), 1, 5),
    PairRow("39", 6, "U + h5 + E8(-1) + A4(-1)^2", "U + U(5) + h5", (2, 18), 3, 5),
    PairRow("40", 6, "U + h5 + A4(-1)^4", "U(5)^2 + h5", (2, 18), 5, 5,
            note="source prints a rank-8 coinvariant; the signature and "
                 "length columns force this rank-20 pair",
            printed=("U(5)^2 + A4(-1)", "U(5)^2 + h5")),
    PairRow("41", 20, "U^2 + K7", "U^3 + E8(-1) + A6(-1)", (2, 4), 1, 7,
            note="source prints K7(-1), which is positive definite and "
                 "contradicts the signature column",
            printed=("U^2 + K7(-1)", "U^3 + E8(-1) + A6(-1)")),
    PairRow("42", 14, "U^2 + E8(-1)", "U^3 + E8(-1)", (2, 10), 0, 7),
    PairRow("43", 14, "U + U(7) + E8(-1)", "U^2 + U(7) + E8(-1)", (2, 10), 2, 7),
    PairRow("44", 8, "U^2 + E8(-1) + A6(-1)", "U^3 + K7", (2, 16), 1, 7),
    PairRow("45", 8, "U + U(7) + E8(-1) + A6(-1)", "U^2 + U(7) + K7", (2, 16), 3, 7),
    PairRow("46", 16, "K11(-1) + E8(-1)", "U^3 + A10(-1)", (2, 8), 1, 11,
            note="source prints K11, which is negative definite and "
                 "contradicts the signature column",
            printed=("K11 + E8(-1)", "U^3 + A10(-1)")),
    PairRow("47", 6, "U^2 + E8(-1)^2", "U^3", (2, 18), 0, 11),
    PairRow("48", 6, "U + U(11) + E8(-1)^2", "U^2 + U(11)", (2, 18), 2, 11),
    PairRow("49", 14, "U + h13 + E8(-1)", "U^2 + h13 + E8(-1)", (2, 10), 1, 13),
    PairRow("50", 10, "U^2 + E8(-1) + L17(-1)", "U^3 + L17(-1)", (2, 14), 1, 17),
    PairRow("51", 8, "K19(-1) + E8(-1)^2", "U^3 + K19", (2, 16), 1, 19,
            note="source swaps the two sign twists; the signature columns "
                 "force this reading",
            printed=("K19 + E8(-1)^2", "U^3 + K19(-1)")),
    PairRow("52", 4, "U^2 + E8(-1)^2 + K23", "U + K23(-1)", (2, 20), 1, 23,
            note="source swaps the two sign twists; the signature columns "
                 "force this reading",
            printed=("U^2 + E8(-1)^2 + K23(-1)", "U + K23")),
)

# printed labels run 1..52 with 25 duplicated (53 physical rows)
RANK26_LABEL_COUNT = 52


# ---------------------------------------------------------------------------
# order-three cubic fourfold tables

FG_PHI35 = Matrix([
    [4, 2, -1, 1, 2, -2],
    [2, 4, 1, 2, 1, -1],
    [-1, 1, 4, 2, -2, -1],
    [1, 2, 2, 4, -1, -2],
    [2, 1, -2, -1, 4, -1],
    [-2, -1, -1, -2, -1, 4],
])

FG_PHI37 = Matrix([
    [6, 3, 3, 3, 3, 3, -3, 3],
    [3, 6, 0, 0, 0, 0, -3, 0],
    [3, 0, 6, 0, 3, 0, 0, 3],
    [3, 0, 0, 6, 0, 3, 0, 3],
    [3, 0, 3, 0, 6, 0, 0, 3],
    [3, 0, 0, 3, 0, 6, -3, 0],
    [-3, -3, 0, 0, 0, -3, 6, 0],
    [3, 0, 3, 3, 3, 0, 0, 6],
])

FG_PHI32 = Matrix([
    [4, 1, -2, -2, 1, 2, -2, -1, -2, -2, -2, 2],
    [1, 4, -2, -1, 1, 0, 0, 1, -2, 1, 1, 2],
    [-2, -2, 4, 2, -2, 0, 0, 1, 1, 1, 1, -1],
    [-2, -1, 2, 4, 0, -2, 1, 2, 0, 2, 0, -2],
    [1, 1, -2, 0, 4, -1, -1, -1, -1, 1, 0, -1],
    [2, 0, 0, -2, -1, 4, -2, 0, 0, -1, 0, 2],
    [-2, 0, 0, 1, -1, -2, 4, 1, 0, 0, 1, 0],
    [-1, 1, 1, 2, -1, 0, 1, 4, 0, 2, 1, 0],
    [-2, -2, 1, 0, -1, 0, 0, 0, 4, 0, 0, -2],
    [-2, 1, 1, 2, 1, -1, 0, 2, 0, 4, 2, -1],
    [-2, 1, 1, 0, 0, 0, 1, 1, 0, 2, 4, 0],
    [2, 2, -1, -2, -1, 2, 0, 0, -2, -1, 0, 4],
])

AY_PHI31 = Matrix([[3]])

AY_PHI35 = Matrix([
    [3, 0, 0, 0, 0, 0, 0],
    [0, 4, 2, -1, 1, 2, -2],
    [0, 2, 4, 1, 2, 1, -1],
    [0, -1, 1, 4, 2, -2, -1],
    [0, 1, 2, 2, 4, -1, -2],
    [0, 2, 1, -2, -1, 4, -1],
    [0, -2, -1, -1, -2, -1, 4],
])

AY_PHI37 = Matrix([
    [3, 1, 1, 1, 1, 1, 1, 1, 1],
    [1, 3, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 3, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 3, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 3, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 3, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 3, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 3, 0],
    [1, 0, 0, 0, 0, 0, 0, 0, 3],
])

AY_PHI32 = Matrix([
    [3, -1, -1, 1, -1, 1, -1, 1, 0, 1, 0, 1, 0],
    [-1, 3, 1, -1, 1, -1, -1, -1, -1, 0, 1, -1, 1],
    [-1, 1, 3, -1, -1, -1, -1, -1, -1, 0, 1, 0, 2],
    [1, -1, -1, 3, -1, 1, -1, 1, 0, 1, -1, 0, -1],
    [-1, 1, -1, -1, 3, -1, 1, 0, 1, -1, 1, 0, 0],
    [1, -1, -1, 1, -1, 3, 1, 0, -1, 0, -2, 0, -1],
    [-1, -1, -1, -1, 1, 1, 3, 0, 1, -1, -1, 0, -1],
    [1, -1, -1, 1, 0, 0, 0, 3, 2, 1, 1, 0, 0],
    [0, -1, -1, 0, 1, -1, 1, 2, 4, 1, 1, 1, -1],
    [1, 0, 0, 1, -1, 0, -1, 1, 1, 3, 1, 1, -1],
    [0, 1, 1, -1, 1, -2, -1, 1, 1, 1, 4, 1, 1],
    [1, -1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 3, 0],
    [0, 1, 2, -1, 0, -1, -1, 0, -1, -1, 1, 0, 4],
])


# isometries of the inv Grams onto eta-perp in the algebraic lattices; row
# i is the image of inv's basis vector i in alg coordinates (CubicRow)

PERP_PHI35 = (
    (0, -1, 0, -1, 0, 0, -1),
    (0, -1, 0, -1, 1, 0, 0),
    (0, -1, 1, 0, 0, 0, 0),
    (0, -1, 0, 0, 0, 0, 0),
    (0, 0, -1, 0, 1, 1, 0),
    (0, 1, 0, 0, 0, -1, 0),
)

PERP_PHI37 = (
    (-3, 2, 1, 1, 1, 1, 1, 1, 1),
    (-3, 1, 1, 1, 1, 1, 1, 1, 2),
    (-2, 1, 0, 1, 1, 1, 1, 1, 0),
    (-1, 1, 1, 0, 0, 0, 0, 1, 0),
    (-2, 1, 1, 1, 1, 1, 1, 0, 0),
    (0, 1, 0, -1, 0, 0, 0, 0, 0),
    (1, -1, 0, 0, -1, 0, 0, 0, -1),
    (-2, 1, 1, 1, 1, 0, 1, 1, 0),
)

PERP_PHI32 = (
    (-2, -1, -2, -1, -1, 2, -2, -1, 1, 0, 1, 0, 1),
    (-1, 0, -2, -1, -1, 0, -1, 0, 0, 0, 0, 0, 0),
    (1, -1, 2, 0, 2, 0, 0, 0, 0, 1, -1, -1, 0),
    (1, 0, 0, 1, 0, -1, 2, -1, 0, 1, 0, -1, 1),
    (0, 1, -1, 0, -2, -1, 1, 0, 0, -1, 0, 1, 0),
    (-1, 0, 0, -1, 0, 2, -2, 0, 1, 0, 0, 0, 0),
    (1, 0, 0, 1, 0, -1, 1, -1, 0, 0, 1, -1, 0),
    (0, 0, -1, 0, 0, 0, 0, -1, 0, 1, 0, -1, 1),
    (1, 1, 2, 1, 1, -1, 1, 1, -1, 0, -1, 1, -1),
    (1, 1, 0, 0, 0, -1, 1, 0, 0, 0, -1, 0, 0),
    (1, 1, 1, 0, 0, -1, 0, 1, 0, -1, -1, 0, -1),
    (-1, -1, -1, -1, 0, 2, -2, -1, 1, 0, 1, -1, 0),
)


@dataclass(frozen=True)
class CubicRow:
    """One automorphism family of a cubic fourfold: the invariant/coinvariant
    pair on primitive cohomology and the algebraic/transcendental pair on
    full middle cohomology.

    `perp_witness` proves that inv is the primitive algebraic lattice
    eta-perp in alg: its rows are the images of inv's basis, as vectors in
    alg coordinates, under an isometry onto eta-perp, so they do not depend
    on the basis `integer_kernel` picks for eta-perp.  `verify` checks them
    with inner products and one determinant comparison, and searches
    nothing.  To
    regenerate one, take W = shortvec.definite_isometric(inv, perp) with
    sub = glue.orthogonal_complement(glue.span(alg, [eta])) and perp =
    sub.lattice(); the rows are those of W^T @ sub.basis.
    `export-fixtures` does not export the witness.
    """

    label: str
    rank_inv: int
    coinv: str  # transcendental lattice expression
    inv_gram: Matrix  # primitive algebraic lattice, printed Gram (eta-free)
    sgn_coinv: tuple
    l_inv: int
    alg_gram: Matrix  # algebraic lattice; first basis vector is eta, eta^2 = 3
    l_alg: int
    moduli_dim: int  # dimension of the family of cubics with this action
    has_assoc_k3: bool
    rational: bool | None  # None where the source leaves the question open
    labeling_witness: tuple = ()  # coefficients of w with K_14 = <eta, w>
    perp_witness: tuple = ()  # images of inv's basis in eta-perp, alg coordinates


CUBIC_ROWS = (
    CubicRow("phi31", 0, "U^2 + E8^2 + A2", Matrix(()), (20, 2), 0,
             AY_PHI31, 1, 10, False, None),
    CubicRow("phi35", 6, "U + U(3) + E6 + A2^3", FG_PHI35, (14, 2), 5,
             AY_PHI35, 6, 7, False, None, perp_witness=PERP_PHI35),
    CubicRow("phi37", 8, "U + U(3) + A2^5", FG_PHI37, (12, 2), 8,
             AY_PHI37, 7, 6, True, True,
             labeling_witness=(0, 1, 1, 0, 0, 0, 0, 0, 0),
             perp_witness=PERP_PHI37),
    CubicRow("phi32", 12, "U + U(3) + A2^3", FG_PHI32, (8, 2), 6,
             AY_PHI32, 5, 4, True, True,
             labeling_witness=(0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 0),
             perp_witness=PERP_PHI32),
)


@dataclass(frozen=True)
class InducedRow:
    """Invariant/coinvariant pair of the action induced on the rank-24
    hyperbolic-type lattice by a cubic fourfold automorphism."""

    label: str
    coinv: str
    inv: str
    sgn_inv: tuple
    j_birational: bool  # whether the untwisted and twisted models are birational
    p: int
    alt_coinv: str = ""
    note: str = ""


INDUCED_ROWS = (
    InducedRow("phi21", "U^2 + D4(-1)^3", "U + E6(-2)", (1, 7), True, 2),
    InducedRow("phi23", "U + [2] + [-2]^9", "[2] + [-2] + E6(-1) + D4(-1)", (1, 11), True, 2),
    InducedRow("phi31", "U^2 + E8(-1)^2 + A2(-1)", "U(3)", (1, 1), False, 3,
               alt_coinv="U + E8(-1)^2 + A2(-1)",
               note="source prints an ambiguous exponent on the U factor; "
                    "rank bookkeeping selects the first reading"),
    InducedRow("phi35", "U + U(3) + E6(-1) + A2(-1)^3", "U(3) + E6*(-3)", (1, 7), False, 3),
    InducedRow("phi37", "U + U(3) + A2(-1)^5", "U(3) + E6*(-3) + A2(-1)", (1, 9), True, 3),
    InducedRow("phi32", "U + U(3) + A2(-1)^3", "U(3) + E6(-1) + A2(-1)^3", (1, 13), True, 3),
)

def cubic_row(label):
    for row in CUBIC_ROWS:
        if row.label == label:
            return row
    raise UnknownLabel(label)


def fixture_lattices():
    """Stable name -> Lattice map for every table lattice (CLI registry)."""
    out = {}
    for row in CUBIC_ROWS:
        out["FG_%s" % row.label] = Lattice(row.inv_gram, "FG_%s" % row.label)
        out["FGco_%s" % row.label] = from_expression(row.coinv).relabel("FGco_%s" % row.label)
        out["AY_%s" % row.label] = Lattice(row.alg_gram, "AY_%s" % row.label)
        out["TY_%s" % row.label] = from_expression(row.coinv).relabel("TY_%s" % row.label)
    for row in INDUCED_ROWS:
        out["LG_%s" % row.label] = from_expression(row.coinv).relabel("LG_%s" % row.label)
        out["LGinv_%s" % row.label] = from_expression(row.inv).relabel("LGinv_%s" % row.label)
    return out


def fixtures_as_json():
    """All table rows in a machine-readable layout."""
    return {
        "rank26_pairs": [
            {
                "label": r.label, "rank_inv": r.rank_inv, "coinvariant": r.coinv,
                "invariant": r.inv, "sgn_coinvariant": list(r.sgn_coinv), "a": r.a,
                "p": r.p, "note": r.note,
                "printed": list(r.printed) if r.printed else None,
            }
            for r in RANK26_PAIRS
        ],
        "cubic_rows": [
            {
                "label": r.label, "rank_inv": r.rank_inv, "transcendental": r.coinv,
                "inv_gram": [list(x) for x in r.inv_gram.rows],
                "alg_gram": [list(x) for x in r.alg_gram.rows],
                "sgn_transcendental": list(r.sgn_coinv), "l_inv": r.l_inv,
                "l_alg": r.l_alg, "moduli_dim": r.moduli_dim,
                "associated_k3": r.has_assoc_k3, "rational": r.rational,
            }
            for r in CUBIC_ROWS
        ],
        "induced_rows": [
            {
                "label": r.label, "coinvariant": r.coinv, "invariant": r.inv,
                "sgn_invariant": list(r.sgn_inv), "j_birational": r.j_birational,
                "p": r.p, "alt_coinvariant": r.alt_coinv or None, "note": r.note,
            }
            for r in INDUCED_ROWS
        ],
    }

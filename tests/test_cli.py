import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latticeforge import catalog, cli
from latticeforge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_og10(capsys):
    code, out, _ = run(capsys, "info", "OG10")
    assert code == 0
    assert "rank 24" in out and "sig (3,21)" in out and "det -3" in out
    assert "Z/3" in out and "4/3" in out


def test_info_f(capsys):
    code, out, _ = run(capsys, "info", "F")
    assert code == 0
    assert "sig (20,2)" in out


def test_info_json_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "--format", "json", "info", "U")
    assert code == 0
    data = json.loads(out)
    assert data["determinant"] == -1
    assert data["disc_group"] == []
    # the JSON output doubles as a lattice file the CLI can read back
    path = tmp_path / "u.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "info", str(path))
    assert code == 0 and "det -1" in out2


def test_info_delta_of_a_large_two_elementary_group(capsys):
    # delta reads the 20 generators, not the 2^20 elements of the group
    start = time.perf_counter()
    code, out, _ = run(capsys, "info", "[2]^20")
    assert code == 0 and "delta = 1" in out
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("expr,grams", [("A7", 1), ("A2 + D5", 3)])
def test_info_runs_one_smith_form_per_gram(capsys, monkeypatch, expr, grams):
    # disc_q reads the Smith generators: a lattice that is no sum shares its
    # own Smith form with disc_group; a sum adds one of its whole Gram to
    # those of its summands; asked again, `info` runs none
    from latticeforge import linalg
    from latticeforge.lattice import from_expression

    seen = []
    real = linalg.smith_normal_form

    def counting(m):
        seen.append(m)
        return real(m)

    monkeypatch.setattr(linalg, "smith_normal_form", counting)
    from_expression.cache_clear()
    try:
        for _ in range(2):
            code, out, _ = run(capsys, "--format", "json", "info", expr)
            assert code == 0 and json.loads(out)["disc_q"]
    finally:
        from_expression.cache_clear()
    assert len(seen) == len(set(seen)) == grams


@pytest.mark.parametrize("expr,parity,disc_q", [
    ("[1]", "odd", []), ("[-1]^2", "odd", []), ("[-1] + U", "odd", []),
    ("E8", "even", []), ("U", "even", []),
    ("[3]", "odd", None), ("[1] + A2", "odd", None),
])
def test_info_disc_q_of_trivial_and_odd_groups(capsys, expr, parity, disc_q):
    # a trivial group prints its empty q on an odd lattice too; an odd
    # lattice with a nontrivial group has no q and prints null
    code, out, _ = run(capsys, "--format", "json", "info", expr)
    data = json.loads(out)
    assert code == 0 and (data["parity"], data["disc_q"]) == (parity, disc_q)


def test_info_unknown_exit_2(capsys):
    code, _, err = run(capsys, "info", "Quux99")
    assert code == 2
    assert "error" in err


def test_info_zero_power_exit_2(capsys):
    for expr in ("U^0", "U(3)^0"):
        code, out, err = run(capsys, "info", expr)
        assert code == 2 and out == ""
        assert "zero power" in err and "Traceback" not in err


def test_info_unexpandable_power_exit_2(capsys):
    # 2^62 copies fail to allocate at once and 2^64 overflows the list size;
    # neither may reach the user as a traceback
    for expr in ("A1^4611686018427387904", "A1^18446744073709551616"):
        code, out, err = run(capsys, "info", expr)
        assert code == 2 and out == ""
        assert "too large to expand" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:")


def test_a0_exit_2(capsys):
    for argv in (["info", "A0"], ["enum", "A0", "--norm", "2"], ["k3", "A0"],
                 ["labeling", "A0", "--dmax", "5"], ["info", "A2 + A0"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "A_n needs n >= 1" in err and "Traceback" not in err, argv


def test_enum_counts(capsys):
    code, out, _ = run(capsys, "enum", "FG_phi35", "--norm", "4")
    assert code == 0 and out.strip() == "54"
    code, out, _ = run(capsys, "enum", "AY_phi32", "--norm", "3", "--dot", "eta=1")
    assert code == 0 and out.strip() == "81"
    code, out, _ = run(capsys, "enum", "A2", "--norm", "2")
    assert code == 0 and out.strip() == "6"


def test_enum_negative_norm_exit_2(capsys):
    code, out, err = run(capsys, "enum", "A2", "--norm", "-2")
    assert code == 2 and out == "" and "negative" in err
    code, out, _ = run(capsys, "enum", "A2(-1)", "--norm", "2")
    assert code == 0 and out.strip() == "6"


@pytest.mark.parametrize("div", ["0", "-3"])
@pytest.mark.parametrize("listed", [[], ["--list"]])
def test_enum_divisibility_below_one_exit_2(capsys, div, listed):
    # a divisibility is positive, so the query can never be met
    code, out, err = run(capsys, "enum", "A2", "--norm", "2", "--div", div, *listed)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error:") and "not positive" in err


def test_enum_list(capsys):
    code, out, _ = run(capsys, "--format", "json", "enum", "A2", "--norm", "2", "--list")
    data = json.loads(out)
    assert data["count"] == 6
    assert len(data["vectors"]) == 6


def test_enum_indefinite_exit_2(capsys):
    code, _, err = run(capsys, "enum", "U", "--norm", "2")
    assert code == 2


def test_roots(capsys):
    code, out, _ = run(capsys, "roots", "E6")
    assert code == 0 and "short 72" in out


def test_glue_command(capsys):
    code, out, _ = run(capsys, "glue", "A2", "A2(-1)")
    assert code == 0
    assert "rank 4" in out and "glue index 3" in out


def test_glue_without_full_glue_map_exit_2(capsys):
    # disc(A2) and disc(A2) admit no anti-isometry: bad input, not a failed check
    code, out, err = run(capsys, "glue", "A2", "A2")
    assert code == 2
    assert out == ""
    assert "no full glue map between the discriminant forms" in err


def test_glue_without_anti_isometric_bilinear_forms_exits_at_once():
    # both groups are (Z/3)^6 but their Legendre classes differ; the glue
    # search used to backtrack over partial maps for minutes
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "latticeforge.cli", "glue", "AY_phi35",
         "U + U(3) + E6 + A2^2 + A2(-1)"],
        capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "no full glue map between the discriminant forms" in proc.stderr


# a profile hook in a fresh interpreter records every call of an invariant
# kernel: the import and the registry must call none, and the probe after
# them shows the hook sees such calls
_SETUP_PROBE = r"""
import json, sys

KERNELS = {"smith_normal_form", "hermite_normal_form", "symmetric_elimination",
           "discriminant_form", "_discriminant_form", "_jordan"}
ran = []

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_name in KERNELS and "latticeforge" in code.co_filename:
        ran.append(code.co_name)

sys.setprofile(profile)
import latticeforge.cli
from latticeforge import catalog, discform

catalog.fixture_lattices()
setup = sorted(set(ran))
form = discform.discriminant_form(catalog.fixture_lattices()["FG_phi37"])
discform.forms_isomorphic(form, form.neg())
sys.setprofile(None)
print(json.dumps({"setup": setup, "probe": sorted(set(ran))}))
"""


def test_import_and_registry_run_no_invariant_kernel():
    # set-up time is the import and `catalog.fixture_lattices()`; every
    # invariant is computed when first read, never at set-up
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["setup"] == []
    assert {"smith_normal_form", "discriminant_form", "_discriminant_form",
            "_jordan"} <= set(seen["probe"])


def test_isom_files(capsys, tmp_path):
    rot = tmp_path / "rot3_A2.json"
    rot.write_text(json.dumps({"lattice": "A2", "matrix": [[0, -1], [1, -1]]}))
    code, out, _ = run(capsys, "isom", "order", str(rot))
    assert code == 0 and out.strip() == "3"

    og_refl = tmp_path / "refl_neg2.json"
    # reflection in a (-2)-vector: x -> x - 2(x,v)/(v,v) v
    from latticeforge.lattice import make_named

    og = make_named("OG10")
    v = tuple(1 if i == 6 else 0 for i in range(24))
    gv = og.gram.apply(v)
    mat = [[(1 if i == j else 0) - (2 * v[i] * gv[j]) // og.norm(v) for j in range(24)]
           for i in range(24)]
    og_refl.write_text(json.dumps({"lattice": "OG10", "matrix": mat}))
    code, out, _ = run(capsys, "isom", "spin", str(og_refl))
    assert code == 0 and out.strip() == "+1"

    minus = tmp_path / "minus_id_L.json"
    minus.write_text(json.dumps(
        {"lattice": "OG10", "matrix": [[-1 if i == j else 0 for j in range(24)] for i in range(24)]}))
    code, out, _ = run(capsys, "isom", "disc-action", str(minus))
    assert code == 0 and out.strip() == "-id"
    code, out, _ = run(capsys, "isom", "extend-lambda", str(minus))
    assert code == 0
    rows = [r for r in out.strip().splitlines() if r.strip()]
    assert len(rows) == 26


def test_isom_order_cap_exit_2_and_infinite_order(capsys, tmp_path):
    # Coxeter elements of A2, A4, A6 and -1 on A1 have order 210, above the
    # cap: an error, not "infinite"
    from test_isom import _order_210

    f = _order_210()
    big = tmp_path / "order210.json"
    big.write_text(json.dumps({"lattice": "A2 + A4 + A6 + A1",
                               "matrix": [list(r) for r in f.matrix.rows]}))
    code, out, err = run(capsys, "isom", "order", str(big))
    assert code == 2 and out == "" and "cap 120" in err
    pell = tmp_path / "pell.json"
    pell.write_text(json.dumps({"lattice": {"gram": [[2, 0], [0, -6]]},
                                "matrix": [[2, 3], [1, 2]]}))
    code, out, _ = run(capsys, "isom", "order", str(pell))
    assert code == 0 and out.strip() == "infinite"


def test_isom_invariant_beyond_the_order_cap(capsys, tmp_path):
    # the fixed lattice is the kernel of f - 1, which needs no order: the
    # order-210 isometry fixes nothing and its coinvariant lattice is all of
    # A2 + A4 + A6 + A1
    from conftest import bareiss_det
    from test_isom import _order_210

    from latticeforge.linalg import Matrix

    big = tmp_path / "order210.json"
    big.write_text(json.dumps({"lattice": "A2 + A4 + A6 + A1",
                               "matrix": [list(r) for r in _order_210().matrix.rows]}))
    code, out, _ = run(capsys, "--format", "json", "isom", "invariant", str(big))
    assert code == 0 and json.loads(out)["rank"] == 0
    code, out, _ = run(capsys, "--format", "json", "isom", "coinvariant", str(big))
    data = json.loads(out)
    assert code == 0 and data["rank"] == 13
    assert abs(bareiss_det(Matrix(data["gram"]))) == 210

    # the Eichler transvection e -> e, f -> f - e - x, x -> x + 2e on U + [2]:
    # unipotent, so every trace is 3 and no trace proves the infinite order,
    # and its fixed lattice span(e) is isotropic
    eichler = tmp_path / "eichler.json"
    eichler.write_text(json.dumps({"lattice": "U + [2]",
                                   "matrix": [[1, -1, 2], [0, 1, 0], [0, -1, 1]]}))
    for action in ("invariant", "coinvariant"):
        code, out, err = run(capsys, "isom", action, str(eichler))
        assert code == 2 and out == "" and "degenerate" in err and "Traceback" not in err

    pell = tmp_path / "pell.json"
    pell.write_text(json.dumps({"lattice": {"gram": [[2, 0], [0, -6]]},
                                "matrix": [[2, 3], [1, 2]]}))
    for action in ("invariant", "coinvariant"):
        code, out, err = run(capsys, "isom", action, str(pell))
        assert code == 2 and out == "" and "infinite order" in err


def test_degenerate_lattice_exit_2(capsys, tmp_path):
    # the Smith form of [[0, 0], [0, 2]] has a zero divisor, so the dual
    # quotient is infinite: every command that reads it refuses the input,
    # and an isometry of it is refused before any action runs
    lat = tmp_path / "degenerate.json"
    lat.write_text(json.dumps({"gram": [[0, 0], [0, 2]]}))
    iso = tmp_path / "degenerate_id.json"
    iso.write_text(json.dumps({"lattice": {"gram": [[0, 0], [0, 2]]},
                               "matrix": [[1, 0], [0, 1]]}))
    for argv in (["isom", "disc-action", str(iso)], ["isom", "spin", str(iso)],
                 ["isom", "order", str(iso)], ["isom", "invariant", str(iso)],
                 ["isom", "coinvariant", str(iso)],
                 ["glue", "A2", str(lat)], ["glue", "A2", str(lat), "--trivial"],
                 ["info", str(lat)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "degenerate form" in err, argv


def test_isom_invariant_subcommands(capsys, tmp_path):
    rot = tmp_path / "rot_block.json"
    # rotation on the A2 tail of a U + A2 lattice
    mat = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, -1]]
    rot.write_text(json.dumps({"lattice": "U + A2", "matrix": mat}))
    code, out, _ = run(capsys, "--format", "json", "isom", "invariant", str(rot))
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 2 and data["glue_a"] == 0
    code, out, _ = run(capsys, "--format", "json", "isom", "coinvariant", str(rot))
    data = json.loads(out)
    assert data["rank"] == 2
    assert data["gram"] in ([[2, -1], [-1, 2]], [[2, 1], [1, 2]])


def test_glue_even_case(capsys):
    # [2] + [-2] glues along its diagonal to the even unimodular plane
    code, out, _ = run(capsys, "glue", "[2]", "[-2]")
    assert code == 0
    assert "even" in out and "glue index 2" in out and "det -1" in out


def test_glue_odd_case(capsys):
    # a square-3 class plus the even rank-22 lattice assemble the odd
    # unimodular rank-23 lattice of signature (21, 2)
    code, out, _ = run(capsys, "glue", "[3]", "F")
    assert code == 0
    assert "rank 23" in out and "sig (21,2)" in out and "odd" in out


def test_isom_bad_matrix_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lattice": "A2", "matrix": [[1, 1], [0, 1]]}))
    code, _, err = run(capsys, "isom", "order", str(bad))
    assert code == 2


def test_isom_missing_matrix_exit_2(capsys, tmp_path):
    path = tmp_path / "no_matrix.json"
    path.write_text(json.dumps({"lattice": "A2"}))
    code, out, err = run(capsys, "isom", "order", str(path))
    assert code == 2 and out == "" and '"matrix"' in err


def test_info_non_integral_gram_exit_2(capsys, tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"gram": [[2, 0.5], [0.5, 2]]}))
    code, out, err = run(capsys, "info", str(path))
    assert code == 2 and out == "" and "non-integral" in err


@pytest.mark.parametrize("gram", [5, [[2, None], [None, 2]], [[2, 1], [1]], [2, 1], "A2", [[True]]],
                         ids=["number", "null-entries", "ragged", "flat", "string", "bool"])
def test_info_malformed_gram_exit_2(capsys, tmp_path, gram):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"gram": gram}))
    code, out, err = run(capsys, "info", str(path))
    assert code == 2 and out == "" and "Gram matrix" in err and "Traceback" not in err


@pytest.mark.parametrize("name", [{"a": 1}, 5, ["A2"], True],
                         ids=["object", "number", "list", "bool"])
def test_lattice_file_with_a_non_string_name_exit_2(capsys, tmp_path, name):
    # the name becomes the label that `info` prints and a direct sum joins
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"gram": [[2]], "name": name}))
    iso = tmp_path / "iso.json"
    iso.write_text(json.dumps({"lattice": {"gram": [[2]], "name": name}, "matrix": [[1]]}))
    for argv in (["--format", "csv", "info", str(path)], ["glue", str(path), "A2", "--trivial"],
                 ["isom", "order", str(iso)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert '"name" must be a string' in err and "Traceback" not in err, argv


@pytest.mark.parametrize("data", [
    {"lattice": "A2", "matrix": 5},
    {"lattice": "A2", "matrix": [[1, None], [None, 1]]},
    {"lattice": "A2", "matrix": [[1, 0], [0]]},
    {"lattice": {"gram": 5}, "matrix": [[1, 0], [0, 1]]},
    {"lattice": {"gram": [[2, None], [None, 2]]}, "matrix": [[1, 0], [0, 1]]},
], ids=["number", "null-entries", "ragged", "nested-number", "nested-null-entries"])
def test_isom_malformed_matrix_exit_2(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "isom", "invariant", str(path))
    assert code == 2 and out == "" and err.startswith("error: ") and "Traceback" not in err


def test_enum_bad_dot_exit_2(capsys):
    code, out, err = run(capsys, "enum", "A2", "--norm", "2", "--dot", "x=1")
    assert code == 2 and out == "" and "eta=1" in err


@pytest.mark.parametrize("norm", ["2", "3"])
def test_enum_dot_of_the_wrong_length_exit_2(capsys, norm):
    # A2 has vectors of norm 2 but none of norm 3; the length is refused
    # before any enumeration either way
    code, out, err = run(capsys, "enum", "A2", "--norm", norm, "--dot=1,0,0=1")
    assert code == 2 and out == "" and "3 coordinates, the rank is 2" in err


def test_labeling(capsys):
    code, out, _ = run(capsys, "--format", "json", "labeling", "AY_phi37", "--dmax", "20")
    assert code == 0
    assert 14 in json.loads(out)["discriminants"]


def test_labeling_nonpositive_dmax_prints_none(capsys):
    for dmax in ("0", "-5"):
        code, out, err = run(capsys, "labeling", "AY_phi37", "--dmax", dmax)
        assert code == 0 and out.strip() == "none" and err == ""


def test_every_enumerating_command_reads_rank_cap(capsys):
    # A1^17 has rank 17, one above the default cap of 16
    for argv in (["enum", "A1^17", "--norm", "2"], ["roots", "A1^17"],
                 ["labeling", "A1^17", "--dmax", "10"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "rank 17 exceeds the enumeration cap 16" in err and "Traceback" not in err
    code, out, _ = run(capsys, "--rank-cap", "17", "enum", "A1^17", "--norm", "2")
    assert code == 0 and out.strip() == "34"
    # e_i has divisibility 2 and no norm-6 vector has divisibility 3
    code, out, _ = run(capsys, "--rank-cap", "17", "roots", "A1^17")
    assert code == 0 and out.strip() == "short 0, long 0"
    # eta = e_1 and a primitive tail t give d = 4 |t|^2
    code, out, _ = run(capsys, "--rank-cap", "17", "--format", "json",
                       "labeling", "A1^17", "--dmax", "10")
    assert code == 0 and json.loads(out)["discriminants"] == [4, 8]


def test_k3_command(capsys):
    code, out, _ = run(capsys, "k3", "TY_phi37")
    assert code == 0 and out.startswith("yes")
    code, out, _ = run(capsys, "k3", "TY_phi35")
    assert code == 0 and out.startswith("no")


@pytest.mark.parametrize("expr,want", [
    ("U^2 + E8^2 + A1", True), ("U^2 + E8^2 + [6]", True),
    ("U^2 + E8^2 + [4611686018427387902]", True), ("A1 + U", True), ("[4] + U", True),
    ("U + U(2) + E8^2", True), ("U^3 + E8^2", True), ("U + [1000000]", True),
    ("U^11", False), ("U + A2 + [5]", False),
    ("TY_phi31", False), ("TY_phi35", False), ("TY_phi37", True), ("TY_phi32", True),
])
def test_k3_command_decides(capsys, expr, want):
    start = time.perf_counter()
    code, out, err = run(capsys, "--format", "json", "k3", expr)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert json.loads(out)["associated_k3"] is want


def test_verify_selector_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "k3")
    assert code == 0 and "4/4" in out
    code, _, err = run(capsys, "verify", "bogus")
    assert code == 2


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "verify", "k3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "table,row,ok"
    assert len(lines) == 5


def test_export_fixtures(capsys, tmp_path):
    out_path = tmp_path / "fixtures.json"
    code, _, _ = run(capsys, "export-fixtures", "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert len(data["rank26_pairs"]) == 53


# ---------------------------------------------------------------------------
# JSON fuzz: `lattice.matrix_from_json` is the only gate on matrix entries

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3), st.integers(-3, 3), st.integers(-2 ** 80, 2 ** 80))
_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-3, 3), _SCALARS)
_MATRICES = st.one_of(
    st.lists(st.lists(_ENTRIES, max_size=4), max_size=4),  # ragged or not
    st.lists(st.one_of(_ENTRIES, st.lists(st.lists(_ENTRIES, max_size=2), max_size=2)),
             max_size=4),  # flat, mixed or nested too deep
    _SCALARS)


@st.composite
def _symmetric(draw):
    """A well-formed symmetric integer matrix, so the fuzz also reaches the
    computations behind the parser."""
    n = draw(st.integers(0, 4))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(_ENTRIES.filter(lambda x: type(x) is int))
    return g


_LATTICES = st.one_of(_symmetric().map(lambda g: {"gram": g}),
                      _MATRICES.map(lambda g: {"gram": g}),
                      st.sampled_from(["A2", "U", "A0", "D3", "[0]"]), _SCALARS)


def _run_quietly(argv):
    """(exit code, stdout, stderr) of one `main` call; argparse's exit is
    read as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.one_of(_LATTICES, st.lists(_SCALARS, max_size=2)))
def test_info_json_fuzz(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lattice.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        code, _, err = _run_quietly(["info", path])
    assert code in (0, 1, 2) and "Traceback" not in err


@settings(max_examples=150, deadline=None)
@given(_LATTICES, st.one_of(_symmetric(), _MATRICES))
def test_isom_invariant_json_fuzz(lattice, matrix):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "isometry.json")
        with open(path, "w") as fh:
            json.dump({"lattice": lattice, "matrix": matrix}, fh)
        code, _, err = _run_quietly(["isom", "invariant", path])
    assert code in (0, 1, 2) and "Traceback" not in err


_ISOM_LATTICES = {"A2": 2, "U": 2, "A2(-1)": 2, "[2] + [-6]": 2, "A1 + [3]": 2,
                  "A2 + A2(-1)": 4, "U + A2": 4, "D4": 4, "E6": 6, "OG10": 24}


@st.composite
def _isometry_files(draw):
    """An isometry file on a named lattice or a small Gram matrix, with a
    random, degenerate, non-unimodular or genuine matrix: -id, or a signed
    permutation of the basis, which preserves a diagonal Gram matrix."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(_ISOM_LATTICES)))
        lattice, n = name, _ISOM_LATTICES[name]
    else:
        diag = draw(st.lists(st.integers(-3, 3), max_size=4))
        g = draw(st.one_of(st.just([[d * (i == j) for j, _ in enumerate(diag)]
                                    for i, d in enumerate(diag)]), _symmetric()))
        lattice, n = {"gram": g}, len(g)
    kind = draw(st.sampled_from(["random", "zero", "double", "minus-id", "signed-perm"]))
    if kind == "random":
        m = [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) for _ in range(n)]
    elif kind == "zero":
        m = [[0] * n for _ in range(n)]
    elif kind == "double":
        m = [[2 * (i == j) for j in range(n)] for i in range(n)]
    elif kind == "minus-id":
        m = [[-(i == j) for j in range(n)] for i in range(n)]
    else:
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        m = [[signs[i] * (perm[i] == j) for j in range(n)] for i in range(n)]
    return {"lattice": lattice, "matrix": m}


@settings(max_examples=150, deadline=None)
@given(_isometry_files(),
       st.sampled_from(["order", "spin", "disc-action", "coinvariant", "extend-lambda"]))
def test_isom_actions_fuzz(data, action):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "isometry.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        code, _, err = _run_quietly(["isom", action, path])
    assert code in (0, 1, 2) and "Traceback" not in err


# named lattices for the vector queries: definite of both signs, indefinite,
# and a degenerate term
_VECTOR_LATTICES = ["A2", "A2(-1)", "D4", "D4(-1)", "E6", "A1 + [3]", "[2] + [-6]", "U",
                    "A2 + U(2)", "A2 + [0]"]


@st.composite
def _vector_lattices(draw):
    """A named lattice, or a small Gram JSON that is definite of either sign
    (diagonally dominant), random (mostly indefinite) or degenerate (its
    last row repeated)."""
    if draw(st.booleans()):
        return draw(st.sampled_from(_VECTOR_LATTICES))
    kind = draw(st.sampled_from(["definite", "random", "degenerate"]))
    if kind == "random":
        return {"gram": draw(_symmetric())}
    n = draw(st.integers(1, 4))
    sign = draw(st.sampled_from((1, -1)))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-1, 1))
    for i in range(n):
        g[i][i] = sum(abs(x) for x in g[i]) + draw(st.integers(1, 3))
    g = [[sign * x for x in r] for r in g]
    if kind == "degenerate":
        g = [r + [r[-1]] for r in g]
        g.append(g[-1])
    return {"gram": g}


# `--dot` values: eta=, coordinate vectors of lengths 1 to 5 (so both the
# right and the wrong length for the lattices above), and malformed specs
_DOT_SPECS = st.one_of(
    st.integers(-2, 2).map("eta={}".format),
    st.tuples(st.lists(st.integers(-2, 2), min_size=1, max_size=5), st.integers(-2, 2)).map(
        lambda t: "%s=%d" % (",".join(map(str, t[0])), t[1])),
    st.sampled_from(["eta", "eta=", "=1", "eta=x", "1,,0=1", "1;0=1", "", "eta=1=2", "x=1",
                     "1.5=2", "eta=0x1"]))


def _with_lattice_file(ref, argv_of):
    """Run the argv lists that `argv_of(reference)` returns, with a Gram JSON
    reference written to a file first; returns their (code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        if not isinstance(ref, str):
            path = os.path.join(tmp, "lattice.json")
            with open(path, "w") as fh:
                json.dump(ref, fh)
            ref = path
        return [_run_quietly(argv) for argv in argv_of(ref)]


@settings(max_examples=150, deadline=None)
@given(_vector_lattices(), st.one_of(st.sampled_from([2, 4, 6]), st.integers(-1, 6)),
       st.lists(_DOT_SPECS, max_size=2), st.one_of(st.none(), st.integers(-3, 6)))
@example("A2", 2, ["eta=1"], None)
@example("D4(-1)", 2, ["0,1,0,0=-1", "eta=0"], 1)
@example("E6", 2, [], 1)
@example("A1 + [3]", 3, ["0,1=3"], 0)
@example("A2", 2, ["1,0,0=1"], -1)
def test_enum_dot_and_div_fuzz(ref, norm, dots, div):
    flags = ["--norm", str(norm)] + ["--dot=" + spec for spec in dots]
    if div is not None:
        flags.append("--div=%d" % div)
    (code, out, err), (lcode, lout, lerr) = _with_lattice_file(ref, lambda r: (
        ["--format", "json", "enum", r] + flags, ["--format", "json", "enum", r, "--list"] + flags))
    assert code in (0, 1, 2) and "Traceback" not in err and "Traceback" not in lerr
    assert code == lcode
    if code == 0:
        listed = json.loads(lout)
        assert json.loads(out)["count"] == listed["count"] == len(listed["vectors"])


@settings(max_examples=100, deadline=None)
@given(_vector_lattices())
def test_roots_fuzz(ref):
    (code, out, err), (ecode, _, _) = _with_lattice_file(ref, lambda r: (
        ["--format", "json", "roots", r], ["enum", r, "--norm", "2"]))
    assert code in (0, 1, 2) and "Traceback" not in err
    # both read the same definite stream, so both succeed or neither does
    assert code == ecode
    if code == 0:
        roots = json.loads(out)
        assert roots["short_roots"] >= 0 and roots["long_roots"] >= 0


# ---------------------------------------------------------------------------
# one parser and one registry per process: queries must not see each other


def test_repeated_queries_give_the_same_answers(tmp_path):
    rot = tmp_path / "rot3_A2.json"
    rot.write_text(json.dumps({"lattice": "A2", "matrix": [[0, -1], [1, -1]]}))
    lat = tmp_path / "lattice.json"
    lat.write_text(json.dumps({"gram": [[2, 1], [1, 4]]}))
    argvs = [
        ["info", "OG10"], ["--format", "json", "info", "U + U(3) + A2(-1)"],
        ["info", str(lat)], ["--format", "csv", "info", "AY_phi37"],
        ["enum", "A2", "--norm", "2", "--list"],
        ["enum", "AY_phi32", "--norm", "3", "--dot", "eta=1"],
        ["roots", "E6"], ["glue", "A2", "A2(-1)"], ["glue", "A1", "[3]", "--trivial"],
        ["isom", "order", str(rot)], ["isom", "spin", str(rot)],
        ["--format", "json", "isom", "coinvariant", str(rot)],
        ["labeling", "AY_phi37", "--dmax", "30"], ["labeling", "D4", "--dmax", "30"],
        ["k3", "TY_phi37"], ["verify", "k3"], ["export-fixtures"],
        ["info", "Quux99"],                     # unknown label
        ["info", "U^0"],                        # BadParams
        ["enum", "A2", "--norm", "-2"],         # BadParams
        ["glue", "A2", "A2"],                   # no full glue map
        ["enum", "A2"],                         # argparse error
        ["labeling", "A2", "--dmax", "x"],      # argparse error
    ]
    first = [_run_quietly(argv)[:2] for argv in argvs]
    second = [_run_quietly(argv)[:2] for argv in argvs]
    assert first == second
    codes = [code for code, _ in first]
    assert codes[:17] == [0] * 17 and codes[17:] == [2] * 6
    assert first[13][1].splitlines()[-2:] == [
        "d=24  witness [[1, 0, 0, 0], [-2, -4, -3, -3]]",
        "d=27  witness [[1, 0, 0, 0], [-3, -5, -3, -3]]"]


def test_registry_and_parser_built_once(monkeypatch):
    calls = []
    build = catalog.fixture_lattices

    def counting():
        calls.append(1)
        return build()

    monkeypatch.setattr(catalog, "fixture_lattices", counting)
    cli._registry.cache_clear()
    names = ["AY_phi37", "OG10", "A2", "TY_phi35", "U"]
    for i in range(50):
        code, _, _ = _run_quietly(["info", names[i % len(names)]])
        assert code == 0
    assert len(calls) == 1
    assert cli.build_parser() is cli.build_parser()


_FUZZ_BASES = {"U": 2, "A1": 1, "A2": 2, "A3": 3, "A4": 4, "D4": 4, "D5": 5, "E6": 6,
               "E8": 8, "[1]": 1, "[2]": 1, "[-1]": 1, "[3]": 1, "[-6]": 1, "K5": 2,
               "h7": 2, "ExA": 2, "E6*": 6, "[0]": 1, "A0": 0, "D2": 0, "E9": 0,
               "Quux": 0}


@st.composite
def _expressions(draw, max_rank=10):
    """Lattice expressions of rank <= max_rank built from valid and invalid
    terms, or short free text of the expression alphabet (no digits, so no
    term can ask for a huge rank)."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(alphabet="UADEKh[]()-+^* ", min_size=1, max_size=8))
    terms = draw(st.lists(st.tuples(
        st.sampled_from(sorted(_FUZZ_BASES)),
        st.sampled_from(["", "(1)", "(-1)", "(2)", "(3)", "(-3)", "(0)"]),
        st.sampled_from(["", "", "^1", "^2", "^0"])), min_size=1, max_size=3))
    rank = sum(_FUZZ_BASES[b] * (2 if p == "^2" else 1) for b, _, p in terms)
    assume(rank <= max_rank)
    return draw(st.sampled_from([" + ", "+", " ⊕ ", " - "])).join(b + t + p for b, t, p in terms)


@settings(max_examples=80, deadline=None)
@given(_expressions(max_rank=6), _expressions(max_rank=6), st.booleans())
def test_glue_fuzz(left, right, trivial):
    code, _, err = _run_quietly(["glue", left, right] + (["--trivial"] if trivial else []))
    assert code in (0, 1, 2) and "Traceback" not in err


_FIXED_QUERY = ["--format", "json", "labeling", "AY_phi37", "--dmax", "20"]
_FIXED_ANSWER = []


@settings(max_examples=80, deadline=None)
@given(_expressions(), st.sampled_from([["info"], ["enum", "--norm", "2"],
                                        ["labeling", "--dmax", "10"], ["k3"]]))
def test_lattice_expression_fuzz(expr, command):
    if not _FIXED_ANSWER:
        _FIXED_ANSWER.append(_run_quietly(_FIXED_QUERY))
    code, _, err = _run_quietly(command[:1] + [expr] + command[1:])
    assert code in (0, 1, 2) and "Traceback" not in err
    if command == ["k3"] and _run_quietly(["info", expr])[0] == 0:
        # k3 decides every lattice that parses
        assert code == 0, err
    assert _run_quietly(_FIXED_QUERY) == _FIXED_ANSWER[0]


# ---------------------------------------------------------------------------
# output identity: a change that is not meant to change any answer must leave
# these two outputs byte for byte as they are.  A change that alters them on
# purpose updates the digest and says why in CHANGES.md.

_OUTPUT_SHA256 = {
    ("--format", "json", "verify", "all"):
        "f4e11f2ce83d6568944f8623d6c490de788cc331e860262cd48cf6eeeaa59750",
    ("export-fixtures",):
        "25083e97e553b123afaa151580f05e41c7132ac6cd77c0c53f0c998c0c5bd087",
}

# `info` prints disc_q on the generators of the Smith form of the whole Gram
# matrix, so these digests also pin that presentation
_INFO_SHA256 = {
    "OG10": "943b0f94b5667064d5364d6a7c85dbcb199cc7a2ac4d5e1eac8ff2f9a7de10f1",
    "Lambda": "7fc46e5eba820aaee1299f9995228dc682c2cb63f4a9637dee9024cb851acd5e",
    "U + U(3) + A2^2 + [6]": "88a49da17f10acae362ab9a1eb428bd4a5a8897665596c59cf8acb5bfc14e900",
    "E6 + D4(-1) + [2]": "d92de991838591dc6ac62b4c32d4a20574b16962f76562b3bb58cf1225313ba2",
    "U^3 + E8(-1)^2 + A2(-1)^2 + [6]":
        "8549c273d2e19eef158f5447c211c61062c04fcb60369a9006c185a8e8a72230",
    "FGco_phi35": "070f6171818da9e8fd4d18579524d6b3918d0512cea8262c9c62c491fcbc0d1a",
}


@pytest.mark.parametrize("argv", sorted(_OUTPUT_SHA256))
def test_output_is_byte_identical_to_the_recorded_digest(argv):
    code, out, err = _run_quietly(list(argv))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _OUTPUT_SHA256[argv]


@pytest.mark.parametrize("name", sorted(_INFO_SHA256))
def test_info_json_is_byte_identical_to_the_recorded_digest(name):
    code, out, err = _run_quietly(["--format", "json", "info", name])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _INFO_SHA256[name]

"""The package keeps only what a verdict, a CLI command or the benchmark runs,
and writes each decision procedure once.

Every public function and method defined in `src/latticeforge` or in the
benchmark's own modules must be named somewhere outside its own definition
in those same files, so a function that only tests call has no place in the
package.  Tests, `perfbench/test_*.py` included, do not count as callers.
The check reads names, not calls: a caller-less method that shares its name
with a called one, such as a second `to_json` beside `VerdictReport.to_json`,
passes unseen.  The parts of Nikulin's genus-existence test are named only
in `discform`, so every other module asks `discform.genus_obstruction` or,
with the signature congruence given, `discform.length_or_local_obstruction`.
The parts of his complement step are named only in `discform` and `glue`,
so every other module reads complement forms from `glue.complement_forms`.
A direct sum's summands are read only in `lattice` and `discform`, so every
other module asks those two for a sum's invariants and forms.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# caller-less names kept for an open ROADMAP item that will call them; a name
# leaves this table once that item lands
RESERVED = {
    "definite_isometric": "ROADMAP items 3 and 19 build on it; it regenerates "
                          "the cubic rows' stored eta-perp witnesses",
}

# the readers of one condition of Nikulin (1979, Thm 1.10.1) each, which
# only `discform` puts together
GENUS_PARTS = {"local_obstruction", "milgram_signature"}

# the glue enumerator and the subquotient of Nikulin (1979, Prop. 1.15.1),
# which only `glue.complement_forms` puts together
COMPLEMENT_PARTS = {"embedding_glues", "subquotient_form"}


def _program_files():
    files = sorted((ROOT / "src" / "latticeforge").glob("*.py"))
    files += sorted(p for p in (ROOT / "perfbench").glob("*.py")
                    if not p.name.startswith("test_"))
    return files


def _names(src):
    """(name, line) of every NAME token of a source text."""
    return [(tok.string, tok.start[0])
            for tok in tokenize.generate_tokens(io.StringIO(src).readline)
            if tok.type == tokenize.NAME]


def _uncalled():
    """Public function and method names with no NAME token outside their
    own definitions, as (file, line, name)."""
    defs, uses = [], {}
    for path in _program_files():
        src = path.read_text()
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not node.name.startswith("_"):
                defs.append((path, node.lineno, node.end_lineno, node.name))
        for name, line in _names(src):
            uses.setdefault(name, []).append((path, line))
    return [(path.relative_to(ROOT).as_posix(), first, name)
            for path, first, last, name in defs
            if all(where == path and first <= line <= last
                   for where, line in uses[name])]


def test_every_public_function_has_a_caller():
    uncalled = _uncalled()
    assert {name for _, _, name in uncalled} == set(RESERVED), uncalled


def _named_outside(parts, owners):
    """(file, line, name) of every name in `parts` in a package module not
    in `owners`."""
    return [(path.name, line, name)
            for path in sorted((ROOT / "src" / "latticeforge").glob("*.py"))
            if path.name not in owners
            for name, line in _names(path.read_text()) if name in parts]


def test_only_discform_names_the_parts_of_the_genus_test():
    assert _named_outside(GENUS_PARTS, {"discform.py"}) == []


def test_only_discform_and_glue_name_the_parts_of_the_complement_step():
    assert _named_outside(COMPLEMENT_PARTS, {"discform.py", "glue.py"}) == []


def test_only_lattice_and_discform_read_the_summands_of_a_sum():
    assert _named_outside({"_summands"}, {"lattice.py", "discform.py"}) == []

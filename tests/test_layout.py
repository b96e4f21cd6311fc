"""The package keeps only what a verdict, a CLI command or the benchmark runs,
and writes each decision procedure once.

Every public function and method defined in `src/latticeforge` or in the
benchmark's own modules must be named somewhere outside its own definition
in those same files, so a function that only tests call has no place in the
package.  Tests, `perfbench/test_*.py` included, do not count as callers.
The check reads names, not calls: a caller-less method that shares its name
with a called one, such as a second `to_json` beside `VerdictReport.to_json`,
passes unseen.  Likewise every defaulted parameter of a package function
must be passed, by keyword or by position, by some call in those files, so
a default that only tests override has no place either.  The parts of
Nikulin's genus-existence test are named only in `discform`, so every other
module asks `discform.genus_obstruction` or, with the signature congruence
given, `discform.length_or_local_obstruction`.
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


def _knobs(path, tree):
    """{name: [(file, line, parameter, position)]} of every defaulted
    parameter of a function or method; `position` counts from 0 after
    `self` or `cls`, and is None for a keyword-only parameter.  A class's
    `__init__` is listed under the class name, as a class call passes its
    arguments."""
    out = {}

    def visit(node, in_class=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                if in_class and not static:
                    positional = positional[1:]
                name = in_class if in_class and child.name == "__init__" else child.name
                where = (path.relative_to(ROOT).as_posix(), child.lineno)
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], first):
                    out.setdefault(name, []).append(where + (arg.arg, i))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out.setdefault(name, []).append(where + (arg.arg, None))
                visit(child)
            else:
                visit(child, in_class)

    visit(tree)
    return out


def _unset_knobs():
    """(file, line, parameter) of every defaulted parameter of a function
    or method in `src/latticeforge` that no call in the program files passes,
    by keyword or by position.  Calls are matched by the name they call, so
    one passing call serves every definition of that name."""
    knobs, calls = {}, []
    for path in _program_files():
        tree = ast.parse(path.read_text())
        if path.parent.name == "latticeforge":
            for name, params in _knobs(path, tree).items():
                knobs.setdefault(name, []).extend(params)
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    passed = set()  # (name, parameter or position), "*" for anything
    for call in calls:
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        if any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            passed.add((name, "*"))
        passed |= {(name, i) for i in range(len(call.args))}
        passed |= {(name, k.arg) for k in call.keywords}
    return [(where, line, param)
            for name, params in knobs.items()
            for where, line, param, pos in params
            if not passed & {(name, "*"), (name, param), (name, pos)}]


def test_every_defaulted_parameter_is_passed_by_some_caller():
    # a default no caller overrides is a knob that only tests turn
    assert _unset_knobs() == []


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

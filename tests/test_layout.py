"""The package keeps only what a verdict, a CLI command or the benchmark runs.

Every public function and method defined in `src/latticeforge` or in the
benchmark's own modules must be named somewhere outside its own definition
in those same files, so a function that only tests call has no place in the
package.  Tests, `perfbench/test_*.py` included, do not count as callers.
The check reads names, not calls: a caller-less method that shares its name
with a called one, such as a second `to_json` beside `VerdictReport.to_json`,
passes unseen.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# caller-less names kept for an open ROADMAP item that will call them; a name
# leaves this table once that item lands
RESERVED = {
    "nonsymplectic_feasible": "ROADMAP item 7: verify lsv calls it per row",
}


def _program_files():
    files = sorted((ROOT / "src" / "latticeforge").glob("*.py"))
    files += sorted(p for p in (ROOT / "perfbench").glob("*.py")
                    if not p.name.startswith("test_"))
    return files


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
        for tok in tokenize.generate_tokens(io.StringIO(src).readline):
            if tok.type == tokenize.NAME:
                uses.setdefault(tok.string, []).append((path, tok.start[0]))
    return [(path.relative_to(ROOT).as_posix(), first, name)
            for path, first, last, name in defs
            if all(where == path and first <= line <= last
                   for where, line in uses[name])]


def test_every_public_function_has_a_caller():
    uncalled = _uncalled()
    assert {name for _, _, name in uncalled} == set(RESERVED), uncalled

"""Write reference.json: the verdict of every table row and the recorded
answers of the session's catalog queries.

Run from the root of a checkout of the commit whose answers are the
reference (it takes about a minute):

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import session  # noqa: E402
from latticeforge import catalog, cli  # noqa: E402

TABLES = ("lambda_p", "k3", "candidates", "cubic", "lsv")


def cli_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--format", "json"])
    if code != 0:
        raise SystemExit("%s exited %s" % (" ".join(argv), code))
    return json.loads(out.getvalue())


def main():
    verify = {}
    for table in TABLES:
        (report,) = cli_json(["verify", table])
        verify[table] = {row["row"]: sorted([c["name"], c["passed"]] for c in row["checks"])
                         for row in report["rows"]}
    answers = {}
    for row in catalog.CUBIC_ROWS:
        answers["k3 TY_%s" % row.label] = {"associated_k3": row.has_assoc_k3}
    for name, dmax in session.LABELINGS:
        data = cli_json(["labeling", name, "--dmax", str(dmax)])
        answers["labeling %s %d" % (name, dmax)] = {"discriminants": data["discriminants"]}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"verify": verify, "answers": answers}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

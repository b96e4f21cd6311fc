"""Layered benchmark of latticeforge.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-forms --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``verify-forms``: ``verify lambda_p``, ``verify k3``, ``verify candidates``
  (93 rows) in one fresh interpreter, repeated in fresh interpreters until
  ``--seconds`` have passed;
* ``verify-enum``: ``verify cubic``, ``verify lsv`` (11 rows) likewise; one
  pass already outlasts ``--seconds``.  The two verify workloads together are
  ``verify all``.  They ignore ``--seed``;
* ``session``: one long-lived interpreter answers seeded queries
  (session.py) in a closed loop with one caller, whole rounds at a time, for
  ``--seconds`` and at least 100 queries.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:

* ``verdict_s``: verify workloads, first ``verify`` call to last verdict
  (median over passes); session, wall time per round of the query mix
  (session wall time over whole rounds answered);
* ``setup_s``: fresh interpreter until ``latticeforge.cli`` is imported and
  the catalog registry is built, median of at least 7 starts;
* ``peak_rss_mb``: ``ru_maxrss`` of the measured interpreter (median over
  passes);
* ``query_p50_ms``, ``query_p90_ms``: latency of one operation, inclusive
  quantiles per pass, median over passes.  On the session an operation is a
  query; on the verify workloads it is a row, whose latency is its table's
  time over the table's rows (both quantiles then fall on the largest table);
* ``queries_per_s``: operations per second of measured wall time.

With ``--trace 1`` the workload runs once untraced and once under the tracer
(tracer.py) in fresh interpreters; the outputs of the two must agree, and the
last line holds the per-layer metrics, ``ops_failed_frac`` and
``trace.overhead_s`` (traced minus untraced time of the same operations).

Operations are rows on the verify workloads and queries on the session.  A
row fails when its (check name, passed) list differs from reference.json or
its table call raises or exits non-zero; a query fails when it exits non-zero
or its answer differs from the one known by construction.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import session  # noqa: E402

WORKLOADS = {
    "verify-forms": ("lambda_p", "k3", "candidates"),
    "verify-enum": ("cubic", "lsv"),
    "session": None,
}
SETUP_SAMPLES = 7
MIN_QUERIES = 100
CHILD_TIMEOUT_S = 170


class Bench:
    """Spawns measured interpreters from one checkout."""

    def __init__(self, root):
        self.root = root
        self.env = dict(os.environ)
        # LATTICEFORGE_JOBS silently overrides --jobs; the benchmark runs the default
        self.env.pop("LATTICEFORGE_JOBS", None)
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.deadline = time.monotonic() + CHILD_TIMEOUT_S
        self.setups = []
        self.modules = set()

    def start(self):
        """Fresh interpreter; returns (process, set-up seconds)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-s", os.path.join(HERE, "child.py")], cwd=self.root,
            env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if ready != "ready\n":
            proc.kill()
            proc.wait()
            raise RuntimeError("measured interpreter failed to start")
        return proc, setup

    def run(self, argvs, seconds=None, trace=False, round_size=1, min_ops=0):
        """One pass in a fresh interpreter; returns the child's report, or
        None when it crashed or timed out."""
        proc, setup = self.start()
        self.setups.append(setup)
        job = {"argvs": argvs, "seconds": seconds, "trace": trace,
               "round_size": round_size, "min_ops": min_ops}
        try:
            out, _ = proc.communicate(json.dumps(job) + "\n",
                                      timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None
        if proc.returncode != 0 or not out:
            return None
        report = json.loads(out.splitlines()[-1])
        self.modules.add(report["module"])
        return report

    def sample_setups(self):
        """Top the set-up samples up to SETUP_SAMPLES with empty passes."""
        while len(self.setups) < SETUP_SAMPLES:
            self.run([])

    def program_is_checkout(self):
        src = os.path.join(self.root, "src") + os.sep
        return all(m.startswith(src) for m in self.modules)


def quantile(values, q):
    """Inclusive quantile; q in (0, 1) in steps of 0.1."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[round(q * 10) - 1]


def latency_metrics(passes, wall):
    """Latency quantiles per pass, median over passes; throughput overall."""
    return {
        "query_p50_ms": (statistics.median(quantile(p, 0.5) for p in passes) * 1e3, "ms"),
        "query_p90_ms": (statistics.median(quantile(p, 0.9) for p in passes) * 1e3, "ms"),
        "queries_per_s": (sum(len(p) for p in passes) / wall, "1/s"),
    }


# ---------------------------------------------------------------------------
# verify workloads


def _rows(stdout):
    """table -> {row: sorted [(check, passed)]} from `verify --format json`."""
    out = {}
    for report in json.loads(stdout):
        rows = out.setdefault(report["table"], {})
        for row in report["rows"]:
            rows[row["row"]] = sorted(
                [c["name"], c["passed"] if "passed" in c else c.get("status") == "pass"]
                for c in row["checks"])
    return out


def verify_outcome(tables, report, reference):
    """(attempted rows, failed rows, normalized outputs) of one pass."""
    attempted = sum(len(reference[t]) for t in tables)
    if report is None:
        return attempted, attempted, None
    failed = 0
    outputs = []
    for table, res in zip(tables, report["results"]):
        got = {}
        if res["code"] == 0 and res["error"] is None:
            try:
                got = _rows(res["stdout"]).get(table, {})
            except (ValueError, KeyError, TypeError):
                got = {}
        want = reference[table]
        failed += sum(1 for row, checks in want.items() if got.get(row) != checks)
        failed += sum(1 for row in got if row not in want)
        outputs.append([res["code"], got])
    failed += sum(len(reference[t]) for t in tables[len(report["results"]):])
    return attempted, min(failed, attempted), outputs


def verify_workload(bench, tables, seconds, trace, reference):
    argvs = [["verify", t, "--format", "json"] for t in tables]
    if trace:
        return traced(bench, argvs, lambda rep: verify_outcome(tables, rep, reference))
    passes = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        passes.append(bench.run(argvs))
        if passes[-1] is None:
            break
    bench.sample_setups()
    attempted = failed = 0
    for rep in passes:
        a, f, _ = verify_outcome(tables, rep, reference)
        attempted += a
        failed += f
    good = [rep for rep in passes if rep is not None]
    if len(good) < len(passes):
        return attempted, failed, None
    verdicts = [rep["results"][-1]["end"] - rep["results"][0]["start"] for rep in good]
    # the CLI times tables, not rows: each row gets its table's time over its rows
    latencies = [[(r["end"] - r["start"]) / len(reference[t])
                  for t, r in zip(tables, rep["results"]) for _ in range(len(reference[t]))]
                 for rep in good]
    metrics = {"verdict_s": (statistics.median(verdicts), "s")}
    metrics.update(common_metrics(bench, good))
    metrics.update(latency_metrics(latencies, sum(verdicts)))
    return attempted, failed, metrics


def common_metrics(bench, reports):
    return {
        "setup_s": (statistics.median(bench.setups), "s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in reports) / 1024, "MB"),
    }


# ---------------------------------------------------------------------------
# session workload


def _lambda_gram(root):
    """Gram matrix of the rank-26 lattice that `isom extend-lambda` targets."""
    sys.path.insert(0, os.path.join(root, "src"))
    from latticeforge import isom

    return [list(r) for r in isom.canonical_lambda().gram.rows]


@contextlib.contextmanager
def isometry_files(root, queries):
    """Write the isometry files the queries name; remove them afterwards."""
    tmp = os.path.join(root, session.ISOM_DIR)
    os.makedirs(tmp, exist_ok=True)
    try:
        for q in queries:
            if "file" in q:
                with open(os.path.join(root, q["argv"][2]), "w") as fh:
                    json.dump(q["file"], fh)
        yield
    finally:
        shutil.rmtree(os.path.dirname(tmp), ignore_errors=True)


def session_outcome(queries, report, reference, root):
    """(attempted, failed, outputs) of a session pass."""
    if report is None:
        return MIN_QUERIES, MIN_QUERIES, None
    results = report["results"]
    gram = None
    if any(q["kind"].startswith("isom") and q["argv"][1] == "extend-lambda"
           for q in queries[:len(results)]):
        gram = _lambda_gram(root)
    failed = 0
    for q, res in zip(queries, results):
        try:
            ok = res["error"] is None and session.check(q, res["code"], res["stdout"],
                                                        reference, gram)
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False
        failed += not ok
    return len(results), failed, [[r["code"], r["stdout"]] for r in results]


def session_workload(bench, seed, seconds, trace, reference):
    # enough rounds for a program about five times faster than today's
    rounds = 10 + int(seconds * 6)
    queries = session.generate(seed, rounds)
    argvs = [q["argv"] + ["--format", "json"] for q in queries]
    with isometry_files(bench.root, queries):
        run = dict(seconds=seconds, round_size=len(session.ROUND), min_ops=MIN_QUERIES)
        if trace:
            return traced(bench, argvs,
                          lambda rep: session_outcome(queries, rep, reference, bench.root), run)
        report = bench.run(argvs, **run)
    bench.sample_setups()
    attempted, failed, _ = session_outcome(queries, report, reference, bench.root)
    if report is None:
        return attempted, failed, None
    results = report["results"]
    latencies = [r["end"] - r["start"] for r in results]
    wall = results[-1]["end"] - results[0]["start"]
    rounds = len(results) // len(session.ROUND)
    metrics = {"verdict_s": (wall / rounds, "s")}
    metrics.update(common_metrics(bench, [report]))
    metrics.update(latency_metrics([latencies], wall))
    return attempted, failed, metrics


# ---------------------------------------------------------------------------
# traced runs


def traced(bench, argvs, outcome, plain_job=None):
    """Run untraced, then traced on the same argvs; per-layer metrics.

    `outcome(report)` gives (attempted, failed, outputs); the traced outputs
    must equal the untraced ones.  The untraced pass decides how many argvs
    both run."""
    plain = bench.run(argvs, **(plain_job or {}))
    attempted, failed, plain_out = outcome(plain)
    if plain is None:
        return attempted, failed, None
    tracer_run = bench.run(argvs[:len(plain["results"])], trace=True)
    if tracer_run is None or outcome(tracer_run)[2] != plain_out:
        return attempted, failed, None
    cost = lambda rep: sum(r["end"] - r["start"] for r in rep["results"])  # noqa: E731
    metrics = {name: tuple(v) for name, v in tracer_run["layers"].items()}
    metrics["ops_failed_frac"] = (failed / attempted, "ratio")
    metrics["trace.overhead_s"] = (cost(tracer_run) - cost(plain), "s")
    return attempted, failed, metrics


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "latticeforge", "cli.py")):
        print("error: run from the root of a latticeforge checkout (no src/latticeforge)",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    bench = Bench(root)
    bench.run([])  # warm-up: byte-compiles the package once, not measured
    bench.setups.clear()
    tables = WORKLOADS[args.workload]
    if tables:
        attempted, failed, metrics = verify_workload(bench, tables, args.seconds,
                                                     args.trace, reference["verify"])
    else:
        attempted, failed, metrics = session_workload(bench, args.seed, args.seconds,
                                                      args.trace, reference["answers"])
    correct = metrics is not None and failed == 0 and bench.program_is_checkout()
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted((metrics or {}).items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The measured interpreter: one fresh process per pass.

Protocol on stdin/stdout with run.py:
1. imports `latticeforge.cli`, builds the catalog registry and writes
   ``ready`` -- the parent times set-up up to this line;
2. reads one JSON job: ``{"argvs": [...], "seconds": s|null,
   "round_size": k, "min_ops": n, "trace": bool}``;
3. runs ``cli.main(argv)`` for each argv with stdout and stderr captured, and
   stops early only after `seconds` have passed, at least `min_ops` argvs
   are done and a whole round of `round_size` argvs is complete;
4. writes one JSON line with per-op results, ``ru_maxrss`` and, when
   tracing, the per-layer metrics.
"""

import contextlib
import io
import json
import resource
import sys
import time


def run_ops(cli, job):
    results = []
    deadline = None if job["seconds"] is None else time.perf_counter() + job["seconds"]
    for i, argv in enumerate(job["argvs"]):
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        except Exception as exc:  # a traceback counts as a failed op
            code, error = None, "%s: %s" % (type(exc).__name__, exc)
        end = time.perf_counter()
        results.append({"start": start, "end": end, "code": code,
                        "stdout": out.getvalue(), "error": error})
        done = i + 1
        if (deadline is not None and end >= deadline and done >= job["min_ops"]
                and done % job["round_size"] == 0):
            break
    return results


def main():
    real_stdout = sys.stdout
    from latticeforge import catalog, cli

    catalog.fixture_lattices()
    real_stdout.write("ready\n")
    real_stdout.flush()
    job = json.loads(sys.stdin.readline())
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    results = run_ops(cli, job)
    report = {
        "results": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": cli.__file__,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
    real_stdout.write(json.dumps(report) + "\n")
    real_stdout.flush()


if __name__ == "__main__":
    main()

"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import session  # noqa: E402
import tracer  # noqa: E402


def test_self_time_of_nested_spans():
    # cli.outer -> verify.mid -> linalg.inner, then verify.helper (same layer,
    # no span) -> linalg.inner again; a scripted clock makes the sums exact
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 10.0, 12.0])
    tr = tracer.Tracer(clock=lambda: next(ticks))
    inner = tr.wrap(lambda: None, "linalg.inner", "linalg")

    def helper_body():
        inner()

    helper = tr.wrap(helper_body, "verify.helper", "verify")

    def mid_body():
        inner()
        helper()

    mid = tr.wrap(mid_body, "verify.mid", "verify")
    outer = tr.wrap(lambda: mid(), "cli.outer", "cli")
    outer()
    assert tr.layer_self_s["linalg"] == 4.0
    assert tr.layer_self_s["verify"] == 5.0
    assert tr.layer_self_s["cli"] == 3.0
    assert sum(tr.layer_self_s.values()) == 12.0
    assert tr.calls == {"linalg.inner": 2, "verify.helper": 1, "verify.mid": 1, "cli.outer": 1}
    assert tr.span_calls["verify.helper"] == 0
    assert tr.span_s["linalg.inner"] == 4.0
    assert tr.layer_spans["verify"] == 1


def test_same_seed_same_session():
    first = session.generate(7, 3)
    again = session.generate(7, 3)
    assert [q["argv"] for q in first] == [q["argv"] for q in again]
    assert [q.get("file") for q in first] == [q.get("file") for q in again]
    assert [q["argv"] for q in session.generate(8, 3)] != [q["argv"] for q in first]
    assert sorted(q["kind"] for q in first[:len(session.ROUND)]) == sorted(session.ROUND)


def test_block_models_match_classical_counts():
    # theta series: A2 1 + 6q + 6q^3, D4 1 + 24q + 24q^2, A3 = D3 1 + 12q + 6q^2
    assert [session.count_in_sum([("A2", 1)], n) for n in (2, 4, 6)] == [6, 0, 6]
    assert [session.count_in_sum([("D4", 1)], n) for n in (2, 4)] == [24, 24]
    assert [session.count_in_sum([("A3", 1)], n) for n in (2, 4)] == [12, 6]
    # norm 4 in A2 + A2 pairs two roots: 36; twice a root of D4 has divisibility 2
    assert session.count_in_sum([("A2", 1), ("A2", 1)], 4) == 36
    assert session.count_in_sum([("D4", 1)], 8, div=2) == 24
    # A2(2): norms and divisibilities double
    assert session.count_in_sum([("A2", 2)], 4, div=2) == 6


def test_isometry_construction():
    c = session.coxeter_element(4)
    power = c
    for _ in range(4):
        power = session._matmul(power, c)
    assert power == session._identity(4)
    assert c != session._identity(4)


def test_oracles_pass_on_a_small_seed():
    root = os.path.dirname(HERE)
    queries = session.generate(3, 1)
    with run.isometry_files(root, queries):
        report = run.Bench(root).run([q["argv"] + ["--format", "json"] for q in queries])
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["answers"]
    attempted, failed, _ = run.session_outcome(queries, report, reference, root)
    assert (attempted, failed) == (len(session.ROUND), 0)
    # a wrong answer is caught
    q = next(q for q in queries if q["kind"] == "info")
    res = report["results"][queries.index(q)]
    wrong = res["stdout"].replace('"rank": %d' % q["expect"]["rank"],
                                  '"rank": %d' % (q["expect"]["rank"] + 1))
    assert not session.check(q, 0, wrong, reference)
    assert not session.check(q, 1, res["stdout"], reference)

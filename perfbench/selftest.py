"""Self-tests of the benchmark itself.

Run from the root of a checkout (the test helpers in ``tests/`` must be
present)::

    python3 perfbench/selftest.py

It checks that

1. the frozen generators in ``corpus.py`` draw exactly what
   ``tests/conftest.py`` draws for the same seed;
2. the correctness gate catches a deliberately wrong expected answer on
   every workload, and a run with one counts it as failed;
3. every criterion-12 interface that ``behaviours`` draws is controllable
   by ``lti.is_controllable``;
4. two traced runs on one seed give identical counts (``*.calls``,
   ``*.bits_max`` and ``answer_bits``), and another seed gives another
   corpus.

Exit code 0 when all pass.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE, os.path.join(ROOT, "tests")]

import conftest  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def check_frozen_generators():
    for seed in range(20):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(30):
            x, y = ours.randint(0, 3), theirs.randint(0, 3)
            assert corpus.rand_circuit(ours, x, 2, 6, 8) == conftest.rand_circuit(theirs, y, 2, 6, 8)
            shape = ours.randint(1, 5), theirs.randint(1, 5)
            assert corpus.rand_poly_matrix(ours, shape[0], 3, 3) == conftest.rand_poly_matrix(theirs, shape[1], 3, 3)
            assert corpus.rand_term(ours, 12) == conftest.rand_term(theirs, 12)
        assert ours.getstate() == theirs.getstate()


def _wrong_expectation(name, queries, workload):
    """A query, its answer, and the query with its known answer made wrong."""
    if name == "circuits":
        query = next(q for q in queries if q[0] == "ladder")
        kind, a, b, impedance = query
        return query, workload.run(query), (kind, a, b, impedance + 1)
    if name == "behaviours":
        query = next(q for q in queries if q[0] == "snf")
        m = query[1]
        entries = (tuple(e + 1 if k == 0 else e for k, e in enumerate(m.entries[0])),) + m.entries[1:]
        return query, workload.run(query), ("snf", workloads.lti.PolyMatrix(m.rows, m.cols, entries))
    if name == "traces":
        query = next(q for q in queries if q[0] == "chain" and workload.run(q))
        kind, term, window, init = query
        u, v = window[-1]
        return query, True, (kind, term, window[:-1] + [(u, [v[0] + 1])], init)
    query, other = queries[1], queries[1 + len(workloads._CLI_COMMANDS)]
    assert query[0] == other[0] == "circuit blackbox"
    return query, workload.run(query), (query[0], other[1], query[2])


def check_gate_catches_wrong_answers():
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        for name in run.WORKLOADS:
            workload = workloads.make(name, ROOT, workdir)
            query, answer, wrong = _wrong_expectation(name, workload.build(7), workload)
            assert workload.check(query, answer) is None, name
            assert workload.check(wrong, answer) is not None, name
            # inside a run, every attempt at the query counts as failed
            ledger = run.Ledger(workload)
            ledger.record(0, answer)
            ledger.record(0, answer)
            assert ledger.verdicts([query]) == (0, []), name
            assert ledger.verdicts([wrong])[0] == 2, name


def check_controllable_interfaces():
    rng = random.Random(12)
    for _ in range(200):
        _, b2, c1, _ = workloads.Behaviours._controllable_interface(rng)
        assert workloads.lti.is_controllable(workloads.lti.MatCospan(b2, c1))


def _traced(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
        check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check_determinism():
    for name in ("traces", "behaviours", "cli"):
        first_record, first = _traced(name, 3)
        second_record, second = _traced(name, 3)
        counts = [k for k in first["metrics"] if k.endswith(".calls") or k.endswith(".bits_max")]
        assert counts
        for key in counts:
            assert first["metrics"][key]["value"] == second["metrics"][key]["value"], (name, key)
        assert first_record["answer_bits"] == second_record["answer_bits"], name
        assert first_record["corpus_digest"] == second_record["corpus_digest"], name
        other_record, _ = _traced(name, 4)
        assert other_record["corpus_digest"] != first_record["corpus_digest"], name


def main():
    for check in (
        check_frozen_generators,
        check_gate_catches_wrong_answers,
        check_controllable_interfaces,
        check_determinism,
    ):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

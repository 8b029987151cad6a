"""openwires benchmark: time to verdict per workload, per-layer spans.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload circuits --seed 1 --seconds 20 --trace 0

Workloads: circuits, behaviours, traces, cli (see perfbench/README.md).
With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it alternates untraced and traced passes over
the corpus and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every answer passed its check.

The package is always imported from this checkout's ``src/``; the run
refuses to start otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_TRIALS = 5
WARM_QUERIES = 3
WARM_SEED = 0
MIN_PASSES = 2
PROBE_RUNS = 5
WORKLOADS = ("circuits", "behaviours", "traces", "cli")


class ProvenanceError(RuntimeError):
    pass


# -- provenance -----------------------------------------------------------------


def git_commit(root):
    """HEAD of the checkout, or None outside a git checkout."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def import_package():
    """Import openwires from this checkout's src/, or refuse."""
    if not os.path.isdir(os.path.join(SRC, "openwires")):
        raise ProvenanceError(f"no openwires package under {SRC}")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import openwires

    found = os.path.realpath(os.path.dirname(openwires.__file__))
    wanted = os.path.realpath(os.path.join(SRC, "openwires"))
    if found != wanted:
        raise ProvenanceError(f"openwires imported from {found}, not from {wanted}")
    return found


def provenance(package_path):
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "openwires": package_path,
    }


# -- set-up -----------------------------------------------------------------------


def _purge():
    for name in list(sys.modules):
        if name in ("corpus", "workloads", "spans") or name == "openwires" or name.startswith("openwires."):
            del sys.modules[name]


def set_up(name, seed, workdir):
    """Import the package, build the corpus and warm up, from scratch.

    Returns the time taken, the workload module and object, and the
    corpus.  The warm-up queries are drawn from WARM_SEED, so that their
    cost is the same whatever ``seed`` is.  For ``cli``, building the
    corpus is drawing and writing the documents; its warm-up children are
    started by the caller.
    """
    _purge()
    shutil.rmtree(workdir, ignore_errors=True)
    start = perf_counter()
    module = importlib.import_module("workloads")
    workload = module.make(name, ROOT, workdir)
    queries = workload.build(seed)
    if workload.in_process:
        for query in workload.build(WARM_SEED, WARM_QUERIES):
            workload.run(query)
    return perf_counter() - start, module, workload, queries


def corpus_digest(queries, workdir):
    """A short hash of the corpus; the same for the same seed."""
    text = repr(queries).replace(workdir, "<work>")
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- measurement --------------------------------------------------------------------


class Ledger:
    """Every answer of a run and its verdict.

    The first answer to each corpus query is kept and checked after
    timing; a repeated query only has to give the same answer again.
    """

    def __init__(self, workload):
        self.workload = workload
        self.first = {}
        self.runs = Counter()
        self.bad = {}
        self.attempted = 0

    def record(self, index, answer, error=None):
        self.attempted += 1
        self.runs[index] += 1
        if error is not None:
            self.bad.setdefault(index, error)
        elif index not in self.first:
            self.first[index] = answer
        elif answer != self.first[index]:
            self.bad.setdefault(index, "answer changed between passes")

    def verdicts(self, queries):
        """(failed count, sorted distinct reasons)."""
        for index, answer in self.first.items():
            try:
                reason = self.workload.check(queries[index], answer)
            except Exception as exc:  # an answer the check cannot read is wrong
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                self.bad.setdefault(index, reason)
        failed = sum(self.runs[index] for index in self.bad)
        return failed, sorted(f"query {i}: {r}" for i, r in self.bad.items())

    def answer_bits(self):
        """(total bits, geometric mean of bits per number) over the corpus.

        The total is exact but heavy-tailed: one Smith form can hold a
        tenth of a seed's bits.  The mean is taken over the answers that
        hold any bits, of each answer's bits per number.  It doubles when
        every coefficient doubles in bit length, and one bulky answer
        barely moves it, so it is the gated figure.
        """
        sizes = [self.workload.size_of(answer) for answer in self.first.values()]
        per_number = [bits / numbers for bits, numbers in sizes if bits]
        return sum(bits for bits, _ in sizes), statistics.geometric_mean(per_number)


def attempt(run, query):
    """(answer, None), or (None, reason) when the query raised."""
    try:
        return run(query), None
    except Exception as exc:  # a crash is a failed query, not a crashed benchmark
        return None, f"{type(exc).__name__}: {exc}"


def calibrate():
    """Seconds taken by a fixed loop of exact arithmetic, about 0.3 ms.

    It runs no openwires code, so no change to the package moves it.  Its
    time at a given moment shows how fast the machine runs just then.
    """
    start = perf_counter()
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(k, k + 1) * Fraction(k + 2, 2 * k + 3)
    return perf_counter() - start


def scaled(samples, fastest):
    """(seconds, calibration) samples scaled to the fastest calibration."""
    return [seconds * fastest / calibration for seconds, calibration in samples]


def timed_loop(run, queries, seconds, ledger, between=()):
    """Closed loop, one caller: each query starts when the last has ended.

    Cycles over the corpus until ``seconds`` have passed and at least
    MIN_PASSES passes are done.  ``between`` holds (time, action) pairs;
    each action runs once between two queries, as soon as that many
    seconds of the loop have gone by.  Every query is preceded by
    ``calibrate()``.  Returns, per query, its (seconds, calibration)
    samples, then the number of queries run and the wall time.
    """
    pending = sorted(between, key=lambda item: item[0])
    samples = [[] for _ in queries]
    count = 0
    start = perf_counter()
    while count < MIN_PASSES * len(queries) or perf_counter() - start < seconds:
        while pending and perf_counter() - start >= pending[0][0]:
            pending.pop(0)[1]()
        position = count % len(queries)
        calibration = calibrate()
        t0 = perf_counter()
        answer, error = attempt(run, queries[position])
        samples[position].append((perf_counter() - t0, calibration))
        ledger.record(position, answer, error)
        count += 1
    for _, action in pending:
        action()
    return samples, count, perf_counter() - start


def tail(durations, percentile):
    """The ``percentile``-th duration and the number of durations beyond it."""
    ordered = sorted(durations)
    rank = math.ceil(percentile / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def measure_untraced(workload, queries, seconds, ledger, between, setup_samples):
    """End-to-end metrics, with every time taken at the machine's full speed.

    The CPU speed of a shared machine can swing by a factor of 2 for
    seconds or minutes at a time.  Each query and each set-up is timed
    right after ``calibrate()``, and its time is scaled by the run's
    fastest calibration over the one just before it.  For the median and
    the tail, a query's time is the median of its scaled repeats; the
    throughput counts every scaled execution.
    """
    samples, count, wall = timed_loop(workload.run, queries, seconds, ledger, between)
    fastest = min(c for pairs in samples + [setup_samples] for _, c in pairs)
    runs = [scaled(pairs, fastest) for pairs in samples]
    times = [statistics.median(durations) for durations in runs]
    tail_value, beyond = tail(times, workload.tail_percentile)
    total_bits, bits_per_number = ledger.answer_bits()
    metrics = {
        "setup_s": statistics.median(scaled(setup_samples, fastest)),
        "query_p50_ms": 1000 * statistics.median(times),
        "query_tail_ms": 1000 * tail_value,
        "queries_per_s": count / sum(map(sum, runs)),
        "peak_rss_mb": peak_rss_mb(children=not workload.in_process),
        "answer_bits_per_number": bits_per_number,
    }
    calibrations = [c for pairs in samples for _, c in pairs]
    detail = {
        "tail_percentile": workload.tail_percentile,
        "samples": len(times),
        "beyond_tail": beyond,
        "queries_run": count,
        "raw_query_p50_ms": 1000 * statistics.median(statistics.median(d for d, _ in pairs) for pairs in samples),
        "wall_queries_per_s": count / wall,
        "median_slowdown": statistics.median(calibrations) / fastest,
        "answer_bits": total_bits,
    }
    return metrics, detail


def _probe_ms(code, env):
    times = []
    for _ in range(PROBE_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, timeout=60)
        times.append(perf_counter() - t0)
    return 1000 * statistics.median(times)


def _import_ms(env):
    code = "import time; t = time.perf_counter(); import openwires.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(PROBE_RUNS):
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout))
    return 1000 * statistics.median(times)


def measure_traced(module, workload, queries, seconds, ledger, spans_path):
    """Alternate untraced and traced passes over the corpus until time is up.

    Counts come from one traced pass and repeat exactly on every pass;
    times are medians over the traced passes.  The spans of the last
    traced pass are written to ``spans_path``, one JSON object a line.
    """
    spans = importlib.import_module("spans")
    run = workload.run if workload.in_process else workload.run_in_process

    def untraced_pass():
        t0 = perf_counter()
        for k, query in enumerate(queries):
            ledger.record(k, *attempt(run, query))
        plain.append(perf_counter() - t0)

    def traced_pass():
        tracer = spans.Tracer()
        tracer.install()
        try:
            t0 = perf_counter()
            for k, query in enumerate(queries):
                tracer.query = k
                ledger.record(k, *attempt(run, query))
            traced.append(perf_counter() - t0)
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary(module.bit_size))
        return tracer

    plain, traced, summaries = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        # alternate which pass goes first, so neither always runs colder
        if len(traced) % 2:
            tracer = traced_pass()
            untraced_pass()
        else:
            untraced_pass()
            tracer = traced_pass()
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as handle:
        for name, begin, end, span_id, parent, query in tracer.spans:
            handle.write(json.dumps({"name": name, "start": begin, "end": end, "id": span_id, "parent": parent, "query": query}) + "\n")
    metrics = {}
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        if key.endswith(".calls") or key.endswith(".bits_max"):
            if len(set(values)) != 1:
                raise RuntimeError(f"{key} differs between traced passes: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    if not workload.in_process:
        metrics["cli.interpreter_ms"] = _probe_ms("pass", workload.env)
        metrics["cli.import_ms"] = _import_ms(workload.env)
    else:
        metrics["cli.interpreter_ms"] = 0.0
        metrics["cli.import_ms"] = 0.0
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    detail = {"passes": len(traced), "answer_bits": ledger.answer_bits()[0]}
    return metrics, detail


def metric_units(section):
    """{name: unit} of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[section]}


# -- entry point -------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        codes = []
        for name in WORKLOADS:
            child = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed)]
            child += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
            sys.stdout.flush()
            codes.append(subprocess.run(child).returncode)
        return max(codes)

    try:
        package_path = import_package()
    except (ProvenanceError, ImportError) as err:
        print(f"refusing to run: {err}", file=sys.stderr)
        return 2

    # one CPU for this process and its children, so that the calibration
    # before a query measures the CPU the query then runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        calibration = calibrate()
        first_setup, module, workload, queries = set_up(args.workload, args.seed, workdir)
        setup_samples = [(first_setup, calibration)]
        if not workload.in_process:
            for query in queries[:WARM_QUERIES]:
                workload.run(query)
        ledger = Ledger(workload)
        if args.trace:
            spans_path = os.path.join(WORK_ROOT, f"spans-{args.workload}-{args.seed}.jsonl")
            measured, detail = measure_traced(module, workload, queries, args.seconds, ledger, spans_path)
            units = metric_units("per_layer")
        else:
            # the other set-ups are spread over the run, so that their
            # median does not rest on one moment of the machine's speed
            def trial():
                calibration = calibrate()
                setup_samples.append((set_up(args.workload, args.seed, workdir)[0], calibration))

            between = [(args.seconds * k / SETUP_TRIALS, trial) for k in range(1, SETUP_TRIALS)]
            measured, detail = measure_untraced(workload, queries, args.seconds, ledger, between, setup_samples)
            units = metric_units("end_to_end")
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in units.items()}
        failed, reasons = ledger.verdicts(queries)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(package_path),
        "corpus_digest": corpus_digest(queries, workdir),
        "failed_ratio": failed / ledger.attempted,
        **detail,
    }
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    for name, metric in metrics.items():
        note = ""
        if name == "query_tail_ms":
            note = f"  (p{detail['tail_percentile']:g} of {detail['samples']} samples, {detail['beyond_tail']} beyond)"
        print(f"{args.workload:<10} {name:<40} {metric['value']:>14.6g} {metric['unit']}{note}")
    print(f"{args.workload:<10} {'answer_bits':<40} {record['answer_bits']:>14d} bit ({len(queries)} queries)")
    print(f"{args.workload:<10} {'failed_ratio':<40} {record['failed_ratio']:>14.6g} ({failed}/{ledger.attempted})")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one process: set up, measure, check, report.

Run by ``run.py`` as ``python3 bench/worker.py <workload> <seed> <seconds>
<trace> <result-dir>`` with ``src/`` on the path; prints one JSON line.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
SETUP_REPEATS = 5
# an import is timed in a fresh interpreter each time, one after another
IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import nonarch\n"
    "for name in sys.argv[1:]:\n"
    "    __import__('nonarch.' + name)\n"
    "print(time.perf_counter() - t0)\n"
)


class Program:
    """The nonarch modules the benchmark calls, imported from src/."""

    MODULES = ("values", "fields", "laurent", "expr", "lattices", "lp", "tropical", "forms",
               "weights", "cli")

    def __init__(self):
        self.package = importlib.import_module("nonarch")
        for name in self.MODULES:
            setattr(self, name, importlib.import_module("nonarch." + name))


def build(plan, nx):
    cache = {}
    plan.prepare(nx, cache)
    return [case.build(nx, cache) for case in plan.cases]


def run_round(plan, thunks, lat, outputs, errors, tracer=None):
    """One pass over the workload's operations, appending each operation's
    time to its list in ``lat``; returns the failed count."""
    failed = 0
    for case, thunk, times in zip(plan.cases, thunks, lat):
        if tracer is not None:
            tracer.op += 1
        t0 = perf_counter()
        try:
            out = thunk()
        except Exception as exc:  # a fault of the program under test
            times.append(perf_counter() - t0)
            failed += 1
            if (case.fault is None or type(exc).__name__ != case.fault) and len(errors) < 100:
                errors.append(f"{case.label}: unexpected {type(exc).__name__}: {exc}")
            continue
        times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        err = case.check(out)
        if tracer is not None:
            tracer.active = True
        if err and len(errors) < 100:
            errors.append(err)
        outputs[case.label] = out
    if tracer is not None:
        tracer.active = False
    for relation in plan.relations:
        err = relation(outputs)
        if err and len(errors) < 100:
            errors.append(err)
    if tracer is not None:
        tracer.active = True
    return failed


def time_import(modules):
    """Median time to import nonarch and its modules, each time in a fresh
    interpreter, so the standard modules they load are paid for too."""
    import statistics

    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *modules], env=os.environ,
                             stdout=subprocess.PIPE, check=True, timeout=60)
        times.append(float(out.stdout.decode().split()[-1]))
    return statistics.median(times)


def until(seconds, round_fn, least):
    """Call ``round_fn`` for whole rounds while the next one is expected to
    end within ``seconds`` (after at least ``least`` rounds); the number of
    rounds."""
    import statistics

    spent, rounds = [], 0
    start = perf_counter()
    while rounds < least or perf_counter() - start + statistics.median(spent) <= seconds:
        t0 = perf_counter()
        round_fn()
        spent.append(perf_counter() - t0)
        rounds += 1
    return rounds


def measure(plan, thunks, seconds):
    """Whole rounds for ``seconds``; per-operation times."""
    import gc

    lat, outputs, errors = [[] for _ in thunks], {}, []
    gc.collect()
    failed = []
    rounds = until(seconds, lambda: failed.append(run_round(plan, thunks, lat, outputs, errors)), 3)
    return lat, rounds * len(thunks), sum(failed), rounds, errors


def quantile(values, q):
    import statistics

    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]


def main(argv):
    name, seed, seconds, trace, result_dir = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4]

    import_s = time_import(Program.MODULES)
    nx = Program()

    import cli_batch
    import workloads

    plan_fn = {
        "lattice-content": workloads.plan_lattice,
        "kahler-charts": workloads.plan_kahler,
        "skeleton-locus": workloads.plan_skeleton,
        "cli-batch": cli_batch.plan_cli,
    }[name]

    plan = plan_fn(seed)  # the seeded inputs and the reference answers
    try:
        return measure_plan(plan, nx, name, seed, seconds, trace, import_s, result_dir)
    finally:
        if plan.cleanup:
            plan.cleanup()


def measure_plan(plan, nx, name, seed, seconds, trace, import_s, result_dir):
    import json
    import resource
    import statistics

    build_s = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        thunks = build(plan, nx)
        build_s.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(build_s)

    errors = []
    if not trace:
        lat, attempted, failed, rounds, errors = measure(plan, thunks, seconds)
        # each operation's fastest time over the rounds.  On a shared host
        # the usual pace moves by up to 1.5x from one minute to the next,
        # and the median time of a run follows it; brief fast moments come
        # in most stretches, and the fastest time, taken in one of them,
        # moves far less
        ms = [min(times) * 1e3 for times in lat]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(ms) / sum(ms) * 1e3, "unit": "ops/s"},
            "op_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
            "op_ms_p90": {"value": quantile(ms, 90), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        if len(ms) < 100:
            errors.append(f"only {len(ms)} operations: fewer than ten lie beyond p90")
    else:
        from tracing import Tracer

        # traced and untraced rounds alternate, so both sides of the tracing
        # overhead see the same host; each side takes each operation's
        # fastest time
        tracer = Tracer()
        base, lat = [[] for _ in thunks], [[] for _ in thunks]
        outputs, failures = {}, []

        def pair():
            failures.append(run_round(plan, thunks, base, outputs, errors))
            tracer.install(nx)
            failures.append(run_round(plan, thunks, lat, outputs, errors, tracer))
            tracer.uninstall()

        rounds = until(seconds, pair, 2)
        attempted, failed = 2 * rounds * len(thunks), sum(failures)
        metrics = tracer.per_layer(rounds)
        overhead = sum(min(t) for t in lat) / sum(min(t) for t in base)
        metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
        os.makedirs(result_dir, exist_ok=True)
        tracer.dump(os.path.join(result_dir, f"trace-{name}-seed{seed}.json"),
                    {"workload": name, "seed": seed, "rounds": rounds})

    for err in errors[:20]:
        sys.stderr.write(f"check failed: {err}\n")
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics,
              "rounds": rounds}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        import traceback

        traceback.print_exc()
        sys.exit(1)

#!/usr/bin/env python3
"""One benchmark process: set up a workload in a fresh interpreter, run it,
check every output against the corpus, and print one JSON line.

    python3 perfbench/worker.py --mode {setup,run,trace} --workload NAME \\
        --seed N --seconds S

``run.py`` starts this script; it is not meant to be run by hand.  Modes:

- ``setup``: import, build the seed's pool, run one warm-up item, report
  ``setup_s`` and exit.
- ``run``: setup, then a closed loop (one caller, one thread) of whole passes
  over the pool until the items have taken ``--seconds`` at reference speed
  (speed.py), timing every item.  Whole passes keep the mix of items in a run
  the same whatever its length.
- ``trace``: setup, then the first ``trace_items`` items of the pool twice:
  untraced, then with spans around every layer function (tracing.py).  The
  inputs of those items are also generated once more while traced, so the
  setup work shows up in the spans.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here, before lbldg is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import corpus  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import DECIDED, FAILED, WORKLOADS  # noqa: E402

# items per workload in a traced run; fixed so that span counts repeat exactly
TRACE_ITEMS = {"suites-n3": 420, "pencil-n4": 80, "overlap-n5": 150, "truncated-n3": 1000}
# spans written to the dump file; the analysis uses all of them
DUMP_SPANS = 10000
SETUP_ITEM = -2


def setup(workload, seed):
    """Build the seed's pool and run one warm-up item.  Returns (pool,
    inputs, set-up time at reference speed, set-up wall time); both times
    count from T0 and leave out the probes taken along the way."""
    imports = time.perf_counter() - T0
    meter = speed.Meter()
    meter.step(imports)
    start = time.perf_counter()
    pool = corpus.select_pool(corpus.load(workload.name)["items"], seed, workload.pool_size)
    inputs = []
    for item in pool:
        inputs.append(workload.prepare(item[0]))
        meter.step(time.perf_counter() - start)
        start = time.perf_counter()
    workload.run(inputs[0])  # warm-up item
    meter.step(time.perf_counter() - start)
    return pool, inputs, sum(meter.finish()), sum(meter.walls)


class Tally:
    """Outcomes of the items run, checked against the pool's references.
    Each pool entry is checked on its first run, outside the timed region;
    later runs of the same entry reuse that verdict."""

    def __init__(self, workload, pool, inputs):
        self.workload = workload
        self.pool = pool
        self.inputs = inputs
        self.verdict = {}
        self.attempted = self.failed = self.decided = 0
        self.mismatches = []

    def add(self, index, status, calls):
        if index not in self.verdict:
            ok = self.workload.check(self.inputs[index], status, calls, self.pool[index][4])
            self.verdict[index] = ok
            if not ok:
                self.mismatches.append(self.pool[index][0])
        self.attempted += 1
        if status == FAILED or not self.verdict[index]:
            self.failed += 1
        elif status == DECIDED:
            self.decided += 1

    def summary(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "decided": self.decided,
            "distinct": len(self.verdict),
            "correct": not self.mismatches,
            "mismatched_keys": self.mismatches[:20],
        }


def closed_loop(workload, tally, stop, tracer=None):
    """Run items in pool order, with speed probes between them, until
    stop(count, spent) holds, where `spent` is the item time so far at
    reference speed.  Returns (normalized latencies, wall latencies, probe
    times)."""
    clock = time.perf_counter
    inputs = tally.inputs
    meter = speed.Meter()
    i = 0
    while True:
        index = i % len(inputs)
        if tracer is not None:
            tracer.item = i
        t0 = clock()
        status, calls = workload.run(inputs[index])
        meter.step(clock() - t0)
        tally.add(index, status, calls)
        i += 1
        if stop(i, meter.spent):
            return meter.finish(), meter.walls, meter.probes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--dump", default=None, help="file for the traced spans")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]
    pool, inputs, setup_s, setup_wall_s = setup(workload, args.seed)
    out = {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "pool": len(pool)}
    # The pool stays alive all run; keep the collector from re-scanning it.
    gc.collect()
    gc.freeze()

    if args.mode == "run":

        def whole_passes(count, spent):
            return count % len(inputs) == 0 and spent >= args.seconds

        tally = Tally(workload, pool, inputs)
        latencies, walls, probes = closed_loop(workload, tally, whole_passes)
        out.update(tally.summary())
        out["latencies_s"] = latencies
        out["wall_latencies_s"] = walls
        out["probes_s"] = probes
        out["wrapped_bindings"] = len(tracing.wrapped_bindings())
    elif args.mode == "trace":
        items = TRACE_ITEMS[workload.name]

        def until(count, spent):
            return count >= items

        plain = closed_loop(workload, Tally(workload, pool, inputs), until)[0]
        tracer = tracing.Tracer()
        installed = tracer.install()
        try:
            tracer.item = SETUP_ITEM
            tally = Tally(workload, pool, [workload.prepare(item[0]) for item in pool[:items]])
            traced, traced_walls, _ = closed_loop(workload, tally, until, tracer)
        finally:
            tracer.restore()
        if tracing.wrapped_bindings():
            raise SystemExit("span wrappers left behind after restore")
        out.update(tally.summary())
        metrics = tracing.layer_metrics(tracer)
        # self times in the same reference-speed units as the end-to-end ones
        scale = sum(traced) / sum(traced_walls)
        for name in metrics:
            if name.endswith(".self_s"):
                metrics[name] *= scale
        metrics["trace.items"] = items
        metrics["trace.spans"] = len(tracer.names)
        metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
        out["layer_metrics"] = metrics
        out["installed_bindings"] = installed
        out["error_sites"] = sorted(
            [name, kind, n] for (name, kind), n in tracer.error_sites().items()
        )
        if args.dump:
            tracer.dump(args.dump, DUMP_SPANS)

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()

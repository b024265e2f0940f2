#!/usr/bin/env python3
"""Rebuild the committed corpus of one workload (or all of them).

    python3 perfbench/make_corpus.py [--workload NAME]

Runs every corpus key once to record its outcome and reference, and three
times more to record its cost: the median, at reference speed (speed.py).
Run it alone on the machine, since pools are balanced on these costs.
Remaking a corpus changes the benchmark: do it only in a change that changes
the benchmark, and measure the baseline again afterwards.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import speed  # noqa: E402
from corpus import corpus_path  # noqa: E402
from workloads import CORPUS_SEED, DECIDED, WORKLOADS, TruncatedN3, ref_hash  # noqa: E402


def build(workload):
    items = []
    for key in range(workload.corpus_size):
        inp = workload.prepare(key)
        status, calls = workload.run(inp)
        costs = []
        for _ in range(3):
            before = speed.probe()
            start = time.perf_counter()
            workload.run(inp)
            wall = time.perf_counter() - start
            costs.append(speed.normalize([(wall, 0)], [before, speed.probe()])[0])
        if isinstance(workload, TruncatedN3):
            exact = workload.exact_calls(inp)
            if any(kind != "ok" for kind, _ in exact):
                raise SystemExit(f"{workload.name} key {key}: untruncated input undecided")
            ref = workload.reference_text(inp, exact)
        elif status == DECIDED:
            ref = ref_hash(workload.reference_text(inp, calls))
        else:
            ref = ""
        items.append([key, workload.kind_of(key), status, round(sorted(costs)[1] * 1e6), ref])
    return {
        "workload": workload.name,
        "corpus_seed": CORPUS_SEED,
        "columns": ["key", "kind", "outcome", "cost_us", "ref"],
        "items": items,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    names = [args.workload] if args.workload else sorted(WORKLOADS)
    for name in names:
        start = time.perf_counter()
        data = build(WORKLOADS[name])
        os.makedirs(os.path.dirname(corpus_path(name)), exist_ok=True)
        with open(corpus_path(name), "w") as fh:
            fh.write("{\n")
            for field in ("workload", "corpus_seed", "columns"):
                fh.write(f"  {json.dumps(field)}: {json.dumps(data[field])},\n")
            fh.write('  "items": [\n')
            rows = [json.dumps(item) for item in data["items"]]
            fh.write(",\n".join(f"    {row}" for row in rows))
            fh.write("\n  ]\n}\n")
        outcomes = {}
        for item in data["items"]:
            outcomes[item[2]] = outcomes.get(item[2], 0) + 1
        print(f"{name}: {len(rows)} items {outcomes} in {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main()

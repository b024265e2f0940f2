#!/usr/bin/env python3
"""The lbldg benchmark: one workload, one seed, one result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (it imports ``src/lbldg``).  Every
measurement happens in a fresh single-threaded worker process (worker.py).

With ``--trace 0`` it starts ``SETUP_RUNS - 1`` set-up-only workers and then
one timed worker, and prints the end-to-end metrics.  With ``--trace 1`` it
starts one traced worker and prints the per-layer metrics.  The last stdout
line is a JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat each metric with its unit and record
the run's provenance.  The full record, latencies included, goes to
``perfbench/out/``.  The exit code is 0 for a correct run, 1 when an output
differs from the committed reference, and 2 when the run could not be made.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 3
# a run must end within this many seconds of its start
DEADLINE_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def source_digest():
    """sha256 over src/lbldg's Python sources: identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "lbldg")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args):
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def worker(mode, args, deadline, dump=None):
    """Run worker.py in a fresh interpreter and return its JSON report."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if dump:
        cmd += ["--dump", dump]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before the worker could start")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        fail(f"{mode} worker did not finish within {DEADLINE_S} s of the start")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Linear-interpolated percentile, q in (0, 100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timings(latencies_s, setups_s):
    lat_ms = [s * 1e3 for s in latencies_s]
    return {
        "throughput_per_s": len(latencies_s) / sum(latencies_s),
        "item_p50_ms": percentile(lat_ms, 50),
        "item_p90_ms": percentile(lat_ms, 90),
        "setup_s": statistics.median(setups_s),
    }


def end_to_end(report, setups_s):
    attempted = report["attempted"]
    out = timings(report["latencies_s"], setups_s)
    out["peak_rss_mb"] = report["peak_rss_mb"]
    out["success_ratio"] = 1 - report["failed"] / attempted
    out["decided_ratio"] = report["decided"] / attempted
    return out


def main():
    spec = benchmark_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "lbldg", "__init__.py")):
        fail(f"no lbldg sources under {SRC}; run from the root of a source checkout")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {"provenance": provenance(args)}
    if args.trace:
        report = worker("trace", args, deadline, dump=stem + "-spans.jsonl")
        measured = report["layer_metrics"]
    else:
        setup_reports = [worker("setup", args, deadline) for _ in range(SETUP_RUNS - 1)]
        report = worker("run", args, deadline)
        if report["wrapped_bindings"]:
            fail("the untraced run found span wrappers installed")
        setup_reports.append(report)
        record["setup_runs_s"] = [r["setup_s"] for r in setup_reports]
        record["setup_runs_wall_s"] = [r["setup_wall_s"] for r in setup_reports]
        measured = end_to_end(report, record["setup_runs_s"])
        # the same timings before speed normalization (speed.py)
        record["wall_clock"] = timings(report["wall_latencies_s"], record["setup_runs_wall_s"])
        measured["error_rate"] = report["failed"] / report["attempted"]
    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted
    }
    counts = {
        k: report[k] for k in ("pool", "attempted", "failed", "decided", "distinct")
    }
    record.update(counts=counts, report=report, metrics=metrics)
    record["all_measured"] = measured
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    prov = record["provenance"]
    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
        f" git={prov['git_sha'][:12]} src={prov['source_sha256']} python={prov['python']}"
        f" nproc={prov['nproc']} platform={prov['platform']}"
    )
    print("# items: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    if not args.trace:
        print(f"# latency samples: {len(report['latencies_s'])}")
        print(f"error_rate {measured['error_rate']:.6g} ratio")
    else:
        print(f"# spans: {measured['trace.spans']}  overhead: {measured['trace.overhead_ratio']:.3f}x")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not report["correct"]:
        print(f"# MISMATCH against the committed reference, keys {report['mismatched_keys']}")
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    sys.exit(0 if report["correct"] else 1)


if __name__ == "__main__":
    main()

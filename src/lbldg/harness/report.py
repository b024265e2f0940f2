"""Deterministic reports for the verification suites.

A report is a config echo plus one row per check: trial counts, failure
counts, and replayable counterexample payloads. Serialization is stable
(sorted keys, no timestamps inside rows), so two runs with the same config
produce byte-identical JSON apart from the wall-clock field. Trials draw
from per-trial streams split by counter, so execution order cannot change
a report either.
"""

import time
from typing import NamedTuple

from .generators import DENOM, FACTORS, SPAN, trial_rng

SCHEMA = "lbldg-report/1"

# cap stored counterexamples per row; counts still reflect every failure
KEEP = 5


class CheckRow(NamedTuple):
    name: str
    trials: int
    passed: int
    failed: int
    counterexamples: tuple

    @property
    def ok(self):
        return self.failed == 0


class Report(NamedTuple):
    kind: str
    which: str
    config: tuple
    rows: tuple
    elapsed_ms: int

    @property
    def ok(self):
        return all(row.ok for row in self.rows)


def run_check(name, cfg, stream, one):
    """Drive one(rng, t) over range(cfg.trials), trial t drawing from
    trial_rng(cfg.seed, stream, t). A trial passes when it returns None; a
    JSON-able payload or a raised exception records a failure."""
    passed = failed = 0
    kept = []
    for t in range(cfg.trials):
        try:
            bad = one(trial_rng(cfg.seed, stream, t), t)
        except Exception as exc:
            bad = {"error": f"{type(exc).__name__}: {exc}"}
        if bad is None:
            passed += 1
        else:
            failed += 1
            if len(kept) < KEEP:
                payload = dict(bad)
                payload["trial"] = t
                kept.append(payload)
    return CheckRow(name, cfg.trials, passed, failed, tuple(kept))


def run_suite(kind, suites, cfg, which):
    """Run the suite named which from the registry suites (name -> check
    function of a config) and time it; kind is "axioms" or "theorems"."""
    if which not in suites:
        raise KeyError(f"unknown {kind[:-1]} {which!r}")
    cfg.validate()
    start = time.monotonic()
    rows = suites[which](cfg)
    elapsed = int((time.monotonic() - start) * 1000)
    return Report(kind, which, cfg, tuple(rows), elapsed)


def payload_strs(values):
    """Exact rationals as the strings a counterexample payload stores."""
    return [str(v) for v in values]


def report_to_dict(report):
    return {
        "schema": SCHEMA,
        "kind": report.kind,
        "which": report.which,
        # the echo names the draw lattice too, as lbldg-report/1 always has
        "config": dict(
            report.config._asdict(),
            exponent_denominator_bound=DENOM,
            exponent_magnitude_bound=SPAN,
            factor_count=FACTORS,
        ),
        "checks": [
            {
                "name": row.name,
                "trials": row.trials,
                "passed": row.passed,
                "failed": row.failed,
                "counterexamples": list(row.counterexamples),
            }
            for row in report.rows
        ],
        "ok": report.ok,
        "elapsed_ms": report.elapsed_ms,
    }


def format_lines(report):
    """One human-readable line per check."""
    out = []
    for row in report.rows:
        verdict = "PASS" if row.ok else "FAIL"
        out.append(
            f"{verdict} {report.which}: {row.name} "
            f"[{row.passed}/{row.trials} trials]"
        )
    return out

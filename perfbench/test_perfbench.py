"""Self-tests of the benchmark itself (not of lbldg).

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import math
import os
import sys
import types
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import pytest  # noqa: E402

import corpus  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _spans(tracer, rows):
    """Load (name, start, end, parent) rows into a tracer's span table."""
    for name, start, end, parent in rows:
        tracer.names.append(tracer.name_id(name))
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.items.append(0)


def test_self_times_on_a_fixed_tree():
    tr = tracing.Tracer()
    # det(3) -> det(2) -> det(1) twice, with a sibling leaf under the root
    _spans(
        tr,
        [
            ("det", 0.0, 20.0, tracing.ROOT),
            ("det", 1.0, 9.0, 0),
            ("det", 2.0, 4.0, 1),
            ("det", 5.0, 8.0, 1),
            ("leaf", 10.0, 15.0, 0),
        ],
    )
    assert tr.self_times() == [7.0, 3.0, 2.0, 3.0, 5.0]
    stats = tr.by_name()
    assert stats["det"]["calls"] == 4
    assert stats["det"]["self_s"] == 15.0
    assert stats["leaf"]["self_s"] == 5.0


def test_self_times_of_a_traced_recursion_sum_to_the_root():
    tr = tracing.Tracer()
    ns = types.SimpleNamespace()

    def leaf():
        return sum(range(200))

    def det(n):
        # Laplace-like: n recursive minors, each followed by a leaf call
        if n == 1:
            return leaf()
        return sum(ns.det(n - 1) + ns.leaf() for _ in range(n))

    ns.det = tr.wrap(det, "t.det")
    ns.leaf = tr.wrap(leaf, "t.leaf")
    root = tr.wrap(lambda: ns.det(4), "t.root")
    root()
    selfs = tr.self_times()
    root_duration = tr.ends[0] - tr.starts[0]
    assert tr.parents[0] == tracing.ROOT
    assert all(s >= 0 for s in selfs)
    assert math.isclose(sum(selfs), root_duration, rel_tol=1e-9, abs_tol=1e-12)
    stats = tr.by_name()
    assert stats["t.det"]["calls"] == 1 + 4 + 4 * 3 + 4 * 3 * 2
    assert stats["t.root"]["calls"] == 1


def _function_bindings():
    return {
        (mod.__name__, attr): obj
        for mod in tracing.lbldg_modules()
        for attr, obj in vars(mod).items()
        if callable(obj)
    }


def test_install_wraps_every_binding_and_restore_puts_them_back():
    from lbldg import valfield
    from lbldg.harness import axioms
    from lbldg.valfield import _backend, series

    tracing.traced_functions()  # imports every traced module first
    before = _function_bindings()
    tr = tracing.Tracer()
    tr.install()
    try:
        for fn in (
            axioms.distance,
            series.kernel_mul,
            _backend.kernel_mul,
            valfield.mul,
            series.mul,
        ):
            assert getattr(fn, tracing.MARK, False), fn
        assert valfield.mul is series.mul
        assert axioms.distance.__wrapped__ is before[("lbldg.symspace", "distance")]
    finally:
        tr.restore()
    after = _function_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracing.wrapped_bindings() == []


def test_untraced_run_installs_no_wrapper(monkeypatch):
    def refuse(self):
        raise AssertionError("an untraced run installed span wrappers")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    workload = WORKLOADS["truncated-n3"]
    seen = []
    plain_run = workload.run

    def probe(inp):
        seen.append(len(tracing.wrapped_bindings()))
        return plain_run(inp)

    monkeypatch.setattr(workload, "run", probe)
    # --seconds 0: one whole pass over the pool
    argv = ["worker.py", "--mode", "run", "--workload", "truncated-n3", "--seed", "1",
            "--seconds", "0"]
    monkeypatch.setattr(sys, "argv", argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        worker.main()
    report = json.loads(out.getvalue().splitlines()[-1])
    assert seen and set(seen) == {0}
    assert report["wrapped_bindings"] == 0
    assert report["correct"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pool_is_seeded_and_stratified(name):
    items = corpus.load(name)["items"]
    size = WORKLOADS[name].pool_size
    a = corpus.select_pool(items, 1, size)
    assert a == corpus.select_pool(items, 1, size)
    b = corpus.select_pool(items, 2, size)
    assert a != b
    assert abs(len(a) - size) <= 4 and len(b) == len(a)
    strata = lambda pool: Counter((it[1], it[2]) for it in pool)  # noqa: E731
    assert strata(a) == strata(b)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_match_the_corpus_and_a_wrong_reference_fails(name):
    workload = WORKLOADS[name]
    pool = corpus.select_pool(corpus.load(name)["items"], 7, workload.pool_size)[:4]
    for key, _, outcome, _, ref in pool:
        inp = workload.prepare(key)
        status, calls = workload.run(inp)
        assert status == outcome
        assert workload.check(inp, status, calls, ref)
    # a decided item whose reference is a digest or a plain value
    key, _, _, _, ref = next(
        it for it in corpus.load(name)["items"]
        if it[2] == "decided" and it[1] not in ("s12", "s40")
    )
    inp = workload.prepare(key)
    status, calls = workload.run(inp)
    assert workload.check(inp, status, calls, ref)
    assert not workload.check(inp, status, calls, "1" + ref)

"""Committed corpora and the seeded choice of a run's pool.

A corpus file ``corpus/<workload>.json`` lists every candidate item as
``[key, kind, outcome, cost_us, ref]``: the generator key, the item kind, the
item's outcome when the corpus was made, its cost in microseconds on the
machine that made it, and the reference (a digest of the output, or for
``truncated-n3`` the exact answers as text).

A run's pool is a stratified sample of ``size`` items: the corpus is split
into strata by (kind, outcome), each stratum gets its share of ``size``, is
sorted by cost and cut into that many blocks of neighbours, and one item is
picked per block.  Every seed gets the same mix of kinds, outcomes and costs,
and a different set of inputs.

Costs are heavy-tailed (the dearest pencil-n4 item costs 150 times the
median), so a free pick in the top blocks alone would move a pool's total
cost by 10%.  Picks are therefore balanced: blocks are visited widest cost
range first, and the seed's shuffled candidates are taken only while the
pool's running cost stays within ``BALANCE`` of its expected total; otherwise
the candidate that keeps it closest is taken.  The widest blocks thus vary
least between seeds and the bulk varies freely.

The pool is then ordered so that every prefix spreads over that mix: the item
of sorted rank r goes to position frac(r * GOLDEN).
"""

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = 0.6180339887498949
BALANCE = 0.01


def corpus_path(workload):
    return os.path.join(HERE, "corpus", f"{workload}.json")


def load(workload):
    with open(corpus_path(workload)) as fh:
        return json.load(fh)


def _strata_order(items):
    return sorted(items, key=lambda it: (it[1], it[2], it[3], it[0]))


def select_pool(items, seed, size):
    """The seed's `size` items from a corpus item list, in run order."""
    rng = random.Random(f"perfbench-pool:{seed}")
    strata = {}
    for item in _strata_order(items):
        strata.setdefault((item[1], item[2]), []).append(item)
    blocks = []
    for group in strata.values():
        count = max(1, round(len(group) * size / len(items)))
        for b in range(count):
            blocks.append(group[len(group) * b // count : len(group) * (b + 1) // count])
    means = [sum(it[3] for it in block) / len(block) for block in blocks]
    tolerance = BALANCE * sum(means)
    picked, drift = [], 0.0
    for i in sorted(range(len(blocks)), key=lambda i: blocks[i][0][3] - blocks[i][-1][3]):
        candidates = blocks[i][:]
        rng.shuffle(candidates)
        shift = [drift + it[3] - means[i] for it in candidates]
        fits = [k for k, d in enumerate(shift) if abs(d) <= tolerance]
        k = fits[0] if fits else min(range(len(candidates)), key=lambda k: abs(shift[k]))
        picked.append(candidates[k])
        drift = shift[k]
    ranked = _strata_order(picked)
    order = sorted(range(len(ranked)), key=lambda r: ((r * GOLDEN) % 1.0, r))
    return [ranked[r] for r in order]

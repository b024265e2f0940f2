"""Byte-for-byte outputs: series text, matrix and overlap JSON, distances,
retractions and a suite report (without ``elapsed_ms``).

The expected values are literals. Any change to the series representation,
the kernel or the geometry must reproduce them exactly.
"""

import json
from fractions import Fraction as Q

import pytest

from lbldg.building import apartment_overlap, overlap_to_json, x_mu
from lbldg.harness.axioms import check_axiom
from lbldg.harness.config import TrialConfig
from lbldg.harness.generators import gen_group_elem, gen_point, trial_rng
from lbldg.harness.report import report_to_dict
from lbldg.symspace import GroupElem, distance, matrix_to_json, retract
from lbldg.valfield import series as fs

A = "3/2*t^(1/2) + 1 - 2*t^(-3)"
B = "t^(1/2) - 1 + t^(-5/2)"
C = "2*t^(1/3) - 1 + 3/4*t^(-1/2)"
S = "4*t^(2/3) + 1/3 - t^(-1/4)"


def _diagonal_g():
    return gen_group_elem(trial_rng(3, "parity", 0), 3)


def _dense_g():
    return gen_group_elem(trial_rng(5, "golden", 4), 3)


def _group(rows):
    return GroupElem([[fs.parse(e) for e in row] for row in rows])


def _tied_g():
    """Positive integer entries n - max(i, j): trop is 0, all 120 permutations tie."""
    return GroupElem([[fs.from_rational(Q(5 - max(i, j))) for j in range(5)] for i in range(5)])


def _mixed_g():
    """Exponents over 2, 3 and 6 with exact zeros, times a signed swap of rows 1 and 3."""
    swap = _group([
        ["0", "0", "t^(-1/2)", "0", "0"],
        ["0", "1", "0", "0", "0"],
        ["-t^(1/2)", "0", "0", "0", "0"],
        ["0", "0", "0", "1", "0"],
        ["0", "0", "0", "0", "1"],
    ])
    diag = _group([
        ["t^(1/2)", "0", "0", "0", "0"],
        ["0", "t^(1/3)", "0", "0", "0"],
        ["0", "0", "t^(-1/2)", "0", "0"],
        ["0", "0", "0", "t^(-1/3)", "0"],
        ["0", "0", "0", "0", "1"],
    ])
    upper = _group([
        ["1", "t^(1/3)", "0", "0", "0"],
        ["0", "1", "0", "2*t^(-1/2)", "0"],
        ["0", "0", "1", "0", "t^(1/6)"],
        ["0", "0", "0", "1", "0"],
        ["0", "0", "0", "0", "1"],
    ])
    lower = _group([
        ["1", "0", "0", "0", "0"],
        ["0", "1", "0", "0", "0"],
        ["0", "0", "1", "0", "0"],
        ["t^(-2/3)", "0", "0", "1", "0"],
        ["0", "3", "0", "0", "1"],
    ])
    return swap @ diag @ upper @ lower


def _pencil():
    rng = trial_rng(3, "golden", 1)
    x, y = gen_point(rng, 3), gen_point(rng, 3)
    return [str(distance(x, y).finite_value)] + [
        str(v) for p in (x, y) for v in retract(p).to_mu()
    ]


def _a2_report():
    rep = report_to_dict(check_axiom(TrialConfig(n=2, trials=4, seed=9), "A2"))
    rep.pop("elapsed_ms")
    return json.dumps(rep, sort_keys=True)


CASES = {
    "sum": lambda: fs.to_str(fs.add(fs.parse(A), fs.parse(B))),
    "prod": lambda: fs.to_str(fs.mul(fs.parse(A), fs.parse(B))),
    "floored_prod": lambda: fs.to_str(
        fs.mul(fs.with_floor(fs.parse(A), Q(-2)), fs.parse(B))
    ),
    "inv": lambda: fs.to_str(fs.inv(fs.parse(C), -3)),
    "inv_floored": lambda: fs.to_str(fs.inv(fs.with_floor(fs.parse(C), Q(-5)), -4)),
    "sqrt": lambda: fs.to_str(fs.sqrt_pos(fs.parse(S), -3)),
    "sqrt_floored": lambda: fs.to_str(
        fs.sqrt_pos(fs.parse("9/4*t - 2 + O(t^(-7/2))"), Q(-3, 2))
    ),
    "g": lambda: json.dumps(matrix_to_json(_diagonal_g())),
    "g_inverse": lambda: json.dumps(matrix_to_json(_diagonal_g().inverse())),
    "g_overlap": lambda: json.dumps(
        overlap_to_json(apartment_overlap(_diagonal_g())), sort_keys=True
    ),
    "dense_g": lambda: json.dumps(matrix_to_json(_dense_g())),
    "dense_g_inverse": lambda: json.dumps(matrix_to_json(_dense_g().inverse())),
    "dense_g_overlap": lambda: json.dumps(
        overlap_to_json(apartment_overlap(_dense_g())), sort_keys=True
    ),
    "tied_n5_overlap": lambda: json.dumps(
        overlap_to_json(apartment_overlap(_tied_g())), sort_keys=True
    ),
    "mixed_n5_overlap": lambda: json.dumps(
        overlap_to_json(apartment_overlap(_mixed_g())), sort_keys=True
    ),
    "dist": lambda: str(
        distance(x_mu([1, 0, -1]), x_mu([Q(1, 2), 0, Q(-1, 2)])).finite_value
    ),
    "point": lambda: json.dumps(matrix_to_json(gen_point(trial_rng(3, "golden", 1), 3))),
    "pencil": lambda: json.dumps(_pencil()),
    "a2_report": _a2_report,
}

GOLDEN = {
    "sum": "5/2*t^(1/2) + t^(-5/2) - 2*t^(-3)",
    "prod": "3/2*t - 1/2*t^(1/2) - 1 + 3/2*t^(-2) - t^(-5/2) + 2*t^(-3) - 2*t^(-11/2)",
    "floored_prod": "3/2*t - 1/2*t^(1/2) - 1 + O(t^(-3/2))",
    "inv": (
        "1/2*t^(-1/3) + 1/4*t^(-2/3) + 1/8*t^(-1) - 3/16*t^(-7/6) + 1/16*t^(-4/3)"
        " - 3/16*t^(-3/2) + 1/32*t^(-5/3) - 9/64*t^(-11/6) + 11/128*t^(-2)"
        " - 3/32*t^(-13/6) + 29/256*t^(-7/3) - 15/256*t^(-5/2) + 7/64*t^(-8/3)"
        " - 63/1024*t^(-17/6) + 23/256*t^(-3) + O(t^(-19/6))"
    ),
    "inv_floored": (
        "1/2*t^(-1/3) + 1/4*t^(-2/3) + 1/8*t^(-1) - 3/16*t^(-7/6) + 1/16*t^(-4/3)"
        " - 3/16*t^(-3/2) + 1/32*t^(-5/3) - 9/64*t^(-11/6) + 11/128*t^(-2)"
        " - 3/32*t^(-13/6) + 29/256*t^(-7/3) - 15/256*t^(-5/2) + 7/64*t^(-8/3)"
        " - 63/1024*t^(-17/6) + 23/256*t^(-3) - 75/1024*t^(-19/6)"
        " + 137/2048*t^(-10/3) - 159/2048*t^(-7/2) + 463/8192*t^(-11/3)"
        " - 297/4096*t^(-23/6) + 913/16384*t^(-4) + O(t^(-25/6))"
    ),
    "sqrt": (
        "2*t^(1/3) + 1/12*t^(-1/3) - 1/4*t^(-7/12) - 1/576*t^(-1) + 1/96*t^(-5/4)"
        " - 1/64*t^(-3/2) + 1/13824*t^(-5/3) - 1/1536*t^(-23/12) + 1/512*t^(-13/6)"
        " - 5/1327104*t^(-7/3) - 1/512*t^(-29/12) + 5/110592*t^(-31/12)"
        " - 5/24576*t^(-17/6) + 7/31850496*t^(-3) + O(t^(-73/24))"
    ),
    "sqrt_floored": "3/2*t^(1/2) - 2/3*t^(-1/2) - 4/27*t^(-3/2) + O(t^(-2))",
    "g": '[["t^4", "0", "0"], ["0", "9*t^(7/2)", "0"], ["0", "0", "1/9*t^(-15/2)"]]',
    "g_inverse": (
        '[["t^(-4)", "0", "0"], ["0", "1/9*t^(-7/2)", "0"], ["0", "0", "9*t^(15/2)"]]'
    ),
    "g_overlap": (
        '{"constraints": [], "weyl": {"perm": [1, 2, 3],'
        ' "translation": ["4", "7/2", "-15/2"]}}'
    ),
    "dense_g": (
        '[["6/37*t^(-1)", "12/37*t^3", "12/37*t^(-2)"],'
        ' ["-48/37*t^(-1)", "-81/74*t^3", "8/111*t^(-2)"],'
        ' ["56/37*t^(-1)", "-36/37*t^3", "1/37*t^(-2)"]]'
    ),
    "dense_g_inverse": (
        '[["3/74*t", "-12/37*t", "14/37*t"],'
        ' ["16/111*t^(-3)", "-18/37*t^(-3)", "-16/37*t^(-3)"],'
        ' ["108/37*t^2", "24/37*t^2", "9/37*t^2"]]'
    ),
    "dense_g_overlap": (
        '{"constraints": [{"ell": "4", "i": 1, "j": 2}, {"ell": "-1", "i": 1, "j": 3},'
        ' {"ell": "-4", "i": 2, "j": 1}, {"ell": "-5", "i": 2, "j": 3},'
        ' {"ell": "1", "i": 3, "j": 1}, {"ell": "5", "i": 3, "j": 2}],'
        ' "weyl": {"perm": [1, 2, 3], "translation": ["-1", "3", "-2"]}}'
    ),
    "tied_n5_overlap": (
        '{"constraints": [{"ell": "0", "i": 1, "j": 2}, {"ell": "0", "i": 1, "j": 3},'
        ' {"ell": "0", "i": 1, "j": 4}, {"ell": "0", "i": 1, "j": 5},'
        ' {"ell": "0", "i": 2, "j": 1}, {"ell": "0", "i": 2, "j": 3},'
        ' {"ell": "0", "i": 2, "j": 4}, {"ell": "0", "i": 2, "j": 5},'
        ' {"ell": "0", "i": 3, "j": 1}, {"ell": "0", "i": 3, "j": 2},'
        ' {"ell": "0", "i": 3, "j": 4}, {"ell": "0", "i": 3, "j": 5},'
        ' {"ell": "0", "i": 4, "j": 1}, {"ell": "0", "i": 4, "j": 2},'
        ' {"ell": "0", "i": 4, "j": 3}, {"ell": "0", "i": 4, "j": 5},'
        ' {"ell": "0", "i": 5, "j": 1}, {"ell": "0", "i": 5, "j": 2},'
        ' {"ell": "0", "i": 5, "j": 3}, {"ell": "0", "i": 5, "j": 4}],'
        ' "weyl": {"perm": [1, 2, 3, 4, 5], "translation": ["0", "0", "0", "0", "0"]}}'
    ),
    "mixed_n5_overlap": (
        '{"constraints": [{"ell": "1/6", "i": 3, "j": 2}, {"ell": "1/6", "i": 3, "j": 5},'
        ' {"ell": "-7/6", "i": 2, "j": 1}, {"ell": "-1/2", "i": 2, "j": 4},'
        ' {"ell": "1/3", "i": 1, "j": 2}, {"ell": "-2/3", "i": 4, "j": 1},'
        ' {"ell": "0", "i": 5, "j": 2}],'
        ' "weyl": {"perm": [3, 2, 1, 4, 5], "translation": ["-1", "1/3", "1", "-1/3", "0"]}}'
    ),
    "dist": "4",
    "point": (
        '[["9/1369*t^3 + 324/1369*t + 256/1369*t^(-4)",'
        ' "-84/1369*t^3 - 27/1369*t + 768/1369*t^(-4)",'
        ' "72/1369*t^3 - 72/1369*t + 864/1369*t^(-4)"],'
        ' ["-84/1369*t^3 - 27/1369*t + 768/1369*t^(-4)",'
        ' "784/1369*t^3 + 9/5476*t + 2304/1369*t^(-4)",'
        ' "-672/1369*t^3 + 6/1369*t + 2592/1369*t^(-4)"],'
        ' ["72/1369*t^3 - 72/1369*t + 864/1369*t^(-4)",'
        ' "-672/1369*t^3 + 6/1369*t + 2592/1369*t^(-4)",'
        ' "576/1369*t^3 + 16/1369*t + 2916/1369*t^(-4)"]]'
    ),
    "pencil": '["38", "-2", "1/2", "3/2", "0", "0", "0"]',
    "a2_report": (
        '{"checks": [{"counterexamples": [], "failed": 0,'
        ' "name": "overlaps carry a single Weyl transport", "passed": 4, "trials": 4}],'
        ' "config": {"exponent_denominator_bound": 2, "exponent_magnitude_bound": 4,'
        ' "factor_count": 3, "n": 2, "seed": 9, "trials": 4},'
        ' "kind": "axioms", "ok": true, "schema": "lbldg-report/1", "which": "A2"}'
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    assert CASES[name]() == GOLDEN[name]


def test_every_case_has_a_literal():
    assert CASES.keys() == GOLDEN.keys()

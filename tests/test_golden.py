"""Byte-for-byte outputs: series text, matrix and overlap JSON, distances,
retractions and suite reports (without ``elapsed_ms``).

The expected values are literals. Any change to the series representation,
the kernel or the geometry must reproduce them exactly.
"""

import hashlib
import json
import random
import re
from fractions import Fraction as Q

import pytest

from lbldg.apartment import ApartmentVec, wconvex_witness
from lbldg.building import apartment_overlap, chart_image, overlap_to_json, x_mu
from lbldg.harness.axioms import AXIOMS, check_axiom
from lbldg.harness.config import TrialConfig
from lbldg.harness.generators import gen_apartment_mu, gen_group_elem, gen_point, trial_rng
from lbldg.harness.report import report_to_dict
from lbldg.harness.theorems import THEOREMS, check_theorem
from lbldg.rootsys import type_A
from lbldg.symspace import GroupElem, distance, matrix_to_json, retract
from lbldg.valfield import series as fs
from oracles import random_series, series_from_terms, series_texts

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
        distance(
            x_mu(ApartmentVec.from_mu(type_A(2), [1, 0, -1])),
            x_mu(ApartmentVec.from_mu(type_A(2), [Q(1, 2), 0, Q(-1, 2)])),
        ).finite_value
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


# sha256 of every suite's report JSON (sorted keys, without ``elapsed_ms``)
# at seed 1 with 5 trials, for n = 2..5
SUITE_REPORTS = {
    ("A1", 2): "bce419e70d25f3d1759db0ff4d895bceae2d3afb0ca3b22db04efe8f82e5de2f",
    ("A1", 3): "ecc56f34a37a9765bfd1e0b17793102bdafb11da06eb6ca8ec10a31154b1eebf",
    ("A1", 4): "64cc6ca9d181a14337a102425bacd65a9964ff11d0d86184228cf696a804ac0c",
    ("A1", 5): "6c80a0ec0d549aff1fc9cee673cf800a68ca7565349e00ae003a2dcceba4262b",
    ("A2", 2): "1b5d79a99a5eba1c97ee273cf964f42f67d40cc52433b088b27f3c67635649e7",
    ("A2", 3): "6fe63c278dff2e37bbd27b90a7b101e339e1b8a72acf25ab15ce375943e8115b",
    ("A2", 4): "bcdfb89279c8a09c2fad2754f1848842714d9eb8113cb3aee60695ee2ecee5c4",
    ("A2", 5): "8d849309b2489a052e6c1e08e2e1afd5e1c636e83f87042025fe9fe8e149609d",
    ("A3r", 2): "16ef54836c3d1da903f846c042a6871227819956dfce994528ffd1918992e745",
    ("A3r", 3): "bb3397a9c4d186af7770fde96463c504e9cb5bc9624d23c5b445916f0957f2ae",
    ("A3r", 4): "b668be931d270dcb1c3e0b8275088a97ae1d5ea39c3a2cfe7a439a365a9a1e57",
    ("A3r", 5): "44203fde899f43f689aaea375497fd375368e84a2d215c36d7b631fd624a1e99",
    ("TI", 2): "bf1ac23ae920b1653492851033345dde400272d62cb4d9e9d761a9745b3f4869",
    ("TI", 3): "647bdae40394b4ae9d8ebcf53ccde823470a6b1dfa9bea76b3619994f10110cb",
    ("TI", 4): "113f2ab0a8170c536ca48551f5f425c465ba776830d21642613c3d5982c1736f",
    ("TI", 5): "c271ac4382dd50bbb7c075a1e214dd959970e7bbf18fb46c8edfb36d44742359",
    ("A4", 2): "04d1581fd53bcc58dab3fc34d32c15944b5416a24d96c2db8c54b99b5ed50547",
    ("A4", 3): "b7e24b18a336b3a75dd35b7b96e73217df9332ea9d0cb09b8e3845167d238459",
    ("A4", 4): "d2c5029428a8e7f7d37b305b723e6216acfa79a090a8d09c3f7bbd1327281037",
    ("A4", 5): "4396080132f5e19b376e0b54601e8593b97a1e58fc35876032ec7db48f95e7dd",
    ("EC", 2): "77dce73a20e81b38742cafa5b6b26dd8da612d24f0ff6d0036d141aace7fbbf8",
    ("EC", 3): "a2cb8630cb45d85ee3e96b356c5f1ddec9246bfc0d073b293cada58a50e12cb6",
    ("EC", 4): "8fe8d12b990d303920635eb5dee10c329db86c4983bf89f891fad51d1b4b2b3f",
    ("EC", 5): "aaef57bca3149eb042f267ee9451f20ac632294a62318402767a3841987f02f9",
    ("Stab_o", 2): "fb6ad27887c7e26b8b3bed6d8966531bd01e3977b9085e4480356b4ebdb1373a",
    ("Stab_o", 3): "5301f133aa8633f936c24fe58ac84d23233d00c5cf97452d708f861e0f58550a",
    ("Stab_o", 4): "c69c63d0a6189c4a97d174369b76b09fe3350b97f45668a9d9c46211e807640f",
    ("Stab_o", 5): "8c7e1ae9de26e196aeeeec678021060b14faeea366344e47d7ba1dcc874d77d4",
    ("Stab_A", 2): "05aba856921bbf0433307a1eaa3dd57126b6b0c1680ff18f06bff89838550770",
    ("Stab_A", 3): "31bcb6e047f3534594e8da69f83f275bf9bcb88d30177b37d8cd363605446bf9",
    ("Stab_A", 4): "a10d886639f2267059465e58718c1ffc73cf784614a8d42e6659d970cad4e678",
    ("Stab_A", 5): "55ea463a7a31cf150b4791f6aaa1395399723cc75b9c94f71980468917fc9e92",
    ("Stab_C0", 2): "64bc9d2333094edd35f5977d415495b0933d76b0f1ec9f65a085eb37ebce84e6",
    ("Stab_C0", 3): "f9442639142c1e05d1446e18d6ee36925d0b30dd95487e79d0577046ed5fc1cb",
    ("Stab_C0", 4): "0093aa2b6ddc6f1eb2a17467a390f582224bfc33fca4d6f5f14259eba5920965",
    ("Stab_C0", 5): "4a539d7e8aee537a3174c8c9f319228f1d87ee521f9d03766ab0285a54e62917",
    ("HalfAptStab", 2): "0c9303451541152dff91e4f6bae0efd3a9233202a98a838f1421a64c86942bb2",
    ("HalfAptStab", 3): "3746cc70699a791abf1b3bc96ade45a286c1bf54e0cd9d65b573560dac9ff244",
    ("HalfAptStab", 4): "4220c8bad59382c1d41eb461141d818e1a163b6a609e17d4eded774ff46a125e",
    ("HalfAptStab", 5): "d2ddc62457f110da6ff466d986f04ad0da2b483126d83396c9400bb8f8e7d9f0",
    ("Retract", 2): "16781259fb9b6043d1c79905570e018d1bf7982da4794a84aba19bd76a714819",
    ("Retract", 3): "a29176db79c7ec90deebe21d14d1e54550a23f129c372691cd3cbf0648b4cb0a",
    ("Retract", 4): "6dd3f2d78ff3f241e842690d59769c0464c94c117f0dbda5a5097964bbd1dba6",
    ("Retract", 5): "908de42398099c1fcf114012772b36c86e8210185ef0cbbc559a14614280d2f6",
    ("GermBorel", 2): "d3ab04935af820a3ae05e05586e081a7bcc1743d118d4ebad148f679f7c5aeed",
    ("GermBorel", 3): "e3e4dc91fce63528103f7593a32426274603c8b78184fb7811360d59ebbc826c",
    ("GermBorel", 4): "b98b400001e0037f26a5e69d11d312b6095d9050251b9090db019faf92acb5c7",
    ("GermBorel", 5): "b096250140d8eba0df895b9c5a4dcccfefe2e2e62469922015b636a52148b92f",
    ("InfinityBorel", 2): "f57e3aeb7cfc468b9c0491b0584daaee952bf5a10a239bbe2bdf9cb626c7c8a2",
    ("InfinityBorel", 3): "fed559cf598bc02df03c4ae8dd2a416f68f98bd24c4cb41078583be5196e1d71",
    ("InfinityBorel", 4): "678805606857f97667e9b76a3295a9dc7d178f3a4e154df63a411d5c71cb7613",
    ("InfinityBorel", 5): "5a0a95b4d5f76d8fa98c22c3c261993fc4e08688a4f60e1cc57049b8cbd06571",
    ("IwasawaO", 2): "6399d11613b68c05a215a64ef7cd57f6c79b032eb954ed3cbaa4a4391d5fe1d8",
    ("IwasawaO", 3): "caa560e44e046759bb217e7b19e1ba0b2d28cc46fa70c40b2809eb0b031317d7",
    ("IwasawaO", 4): "b856a3c42a95901a7577edf12f4f12adb0c80fcbc5f35d1b6ffcdddbacd7eb7e",
    ("IwasawaO", 5): "b4b4554e63fc3dc87952a6483f99a46fda42340f9045eb2bf0a593e477fe0921",
}


def _report_digest(which, n):
    check = check_axiom if which in AXIOMS else check_theorem
    rep = report_to_dict(check(TrialConfig(n=n, trials=5, seed=1), which))
    rep.pop("elapsed_ms")
    return hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("which, n", sorted(SUITE_REPORTS))
def test_suite_report(which, n):
    assert _report_digest(which, n) == SUITE_REPORTS[which, n]


def test_every_suite_has_a_report_literal():
    assert {w for w, _ in SUITE_REPORTS} == AXIOMS.keys() | THEOREMS.keys()
    assert {n for _, n in SUITE_REPORTS} == {2, 3, 4, 5}


def _power_calls():
    """Seeded (function, operand, target) triples for inv and sqrt_pos.

    Operands are zero, monomials, or a leading term with up to four lower
    terms over exponent denominators 1-4, exact or cut by with_floor at a
    floor that may mask the leading term.  Leading coefficients for sqrt_pos
    are mostly rational squares, and otherwise signed and mostly not squares.
    Targets lie from 12 below to 2 above the leading exponent; sqrt_pos is
    sometimes called without one."""
    rng = random.Random(20261018)
    for i in range(2000):
        fn = fs.inv if i % 2 == 0 else fs.sqrt_pos
        lead = Q(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        if fn is fs.sqrt_pos and rng.random() < 0.7:
            coef = Q(rng.randint(1, 4), rng.randint(1, 3)) ** 2
        else:
            coef = Q(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        terms = [(lead, coef)]
        x = lead
        for _ in range(rng.choice([0, 0, 1, 2, 3, 4])):
            x -= Q(rng.randint(1, 4), rng.choice([1, 2, 3, 4]))
            terms.append((x, Q(rng.randint(-9, 9), rng.randint(1, 4))))
        a = fs.ZERO if rng.random() < 0.03 else series_from_terms(terms)
        if rng.random() < 0.5:
            a = fs.with_floor(a, x - Q(rng.randint(-4, 8), rng.choice([1, 2])))
        target = lead + Q(rng.randint(-12, 2), rng.choice([1, 2, 3, 4]))
        if fn is fs.sqrt_pos and rng.random() < 0.2:
            target = None
        yield fn, a, target


def _power_digest():
    lines = []
    for fn, a, target in _power_calls():
        try:
            lines.append(fs.to_str(fn(a, target)))
        except Exception as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# sha256 of the to_str of every _power_calls result, or "type: message" for
# the calls that raise, one per line
POWER_DIGEST = "89f1f51e06170a399aaebd500ac64c6bf695948662938be9139a00923c3ffe7c"


def test_inv_and_sqrt_pos_outputs():
    assert _power_digest() == POWER_DIGEST


def _chart_inputs():
    """Seeded (g, mu) pairs for apartment_overlap and chart_image at n = 2..5.

    Each g is a gen_group_elem chart, built without validation and, by
    turns, left as drawn; with one entry cut by with_floor at a floor from
    two below to two above its leading exponent, so that some are masked and
    some are not; with one entry set to zero; or made singular or not in
    SL(n): a zero row, a repeated row, a row times t^k, or a row times a
    rational constant."""
    rng = random.Random(20261019)
    for i in range(2000):
        n = 2 + i % 4
        rows = [list(row) for row in gen_group_elem(rng, n).entries]
        a, b = rng.randrange(n), rng.randrange(n)
        kind = i // 4 % 4
        if kind == 1:
            e = rows[a][b]
            lead = fs.negval(e) if e.pairs else Q(0)
            rows[a][b] = fs.with_floor(e, lead + Q(rng.randint(-4, 4), 2))
        elif kind == 2:
            rows[a][b] = fs.ZERO
        elif kind == 3:
            how = rng.randrange(4)
            if how == 0:
                rows[a] = [fs.ZERO] * n
            elif how == 1:
                rows[a] = list(rows[(a + 1) % n])
            else:
                if how == 2:
                    m = fs.monomial(Q(rng.randint(-4, 4), rng.choice([1, 2, 3])))
                else:
                    m = fs.from_rational(Q(rng.randint(2, 5), rng.randint(1, 3)))
                rows[a] = [fs.mul(m, e) for e in rows[a]]
        mu = ApartmentVec.from_mu(type_A(n - 1), gen_apartment_mu(rng, n))
        yield GroupElem(rows, validate=False), mu


def _chart_lines():
    lines = []
    for g, mu in _chart_inputs():
        try:
            res = apartment_overlap(g)
            lines.append(json.dumps(overlap_to_json(res), sort_keys=True))
            if res is not None:
                mu = ApartmentVec.from_mu(mu.rs, wconvex_witness(res[0]))
        except Exception as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
        try:
            img = chart_image(g, mu)
            lines.append("none" if img is None else ",".join(str(v) for v in img.to_mu()))
        except Exception as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    return lines


# sha256 of the overlap JSON and the chart image of every _chart_inputs pair,
# or "type: message" for the calls that raise, one per line, with the
# "row i, column j: " that leads a masked entry's message dropped
CHART_DIGEST = "06290f262ecd2e98c2cddd36c4344ac2efcd7d6c22ac9a38aba87a2670f1d267"
# the same lines as they are, masked-entry positions included
CHART_NAMED_DIGEST = "74880bbd7b8dbbc46cefe60492a58137fe7f1f7aa5d582d0f4aa86dabd9e2dce"
# the first masked-entry lines, by line number
CHART_MASKED_HEAD = [
    (8, "PrecisionError: row 1, column 2: negval masked by floor -1"),
    (9, "PrecisionError: row 1, column 2: negval masked by floor -1"),
    (10, "PrecisionError: row 2, column 3: negval masked by floor -1"),
]


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_overlap_and_chart_image_outputs():
    lines = _chart_lines()
    named = re.compile(r"^PrecisionError: row \d+, column \d+: ")
    assert [(k, s) for k, s in enumerate(lines) if named.match(s)][:3] == CHART_MASKED_HEAD
    assert _sha([named.sub("PrecisionError: ", s) for s in lines]) == CHART_DIGEST
    assert _sha(lines) == CHART_NAMED_DIGEST


# test_parse_fuzz's alphabet plus a tab, a no-break space, an Arabic-Indic
# digit and "O (": every digit here is one int() reads
TEXT_TOKENS = list("0123456789t^()/*+-O ") + [
    "t^(", "O(t^(", "3/2", "*t", " + ", "\t", "\xa0", "\u0663", "O (",
]


def _text_lines():
    """(text, outcome) for every series_texts string, the outcome the to_str
    of the value or "type: message", then ("", to_str) for 3 000
    random_series elements."""
    rng = random.Random(20261020)
    out = []
    for text in series_texts(rng, 6000, TEXT_TOKENS):
        try:
            out.append((text, fs.to_str(fs.parse(text))))
        except Exception as exc:
            out.append((text, f"{type(exc).__name__}: {exc}"))
    out.extend(("", fs.to_str(random_series(rng))) for _ in range(3000))
    return out


_DUPLICATE = re.compile(r"DuplicateExponent: .* \(offset (\d+)\)")


def _after_minus(text, line):
    """The outcome with a DuplicateExponent offset that follows a '-' and
    blanks moved back to just after the '-', where parse put it while a
    '+' and a '-' placed it apart."""
    m = _DUPLICATE.fullmatch(line)
    if m:
        at = int(m.group(1))
        sign = len(text[:at].rstrip()) - 1
        if sign < at - 1 and text[sign] == "-":
            return f"{line[: m.start(1)]}{sign + 1})"
    return line


# sha256 of the _text_lines outcomes, one per line, each as _after_minus
# gives it
TEXT_DIGEST = "f7035d5c1519b278ad2f346e9c12bb39e28f8cbe7a6bc05c2ae82797a2f120d5"
# the outcomes _after_minus moves, by line number: each offset is that of the
# repeated term's first token
TEXT_AT_TERM = [
    (144, "DuplicateExponent: exponent 1 appears twice (offset 3)"),
    (859, "DuplicateExponent: exponent 5 appears twice (offset 29)"),
    (1359, "DuplicateExponent: exponent 1 appears twice (offset 5)"),
    (2067, "DuplicateExponent: exponent 1 appears twice (offset 21)"),
    (2956, "DuplicateExponent: exponent 0 appears twice (offset 5)"),
    (3287, "DuplicateExponent: exponent 1 appears twice (offset 20)"),
    (3329, "DuplicateExponent: exponent 1 appears twice (offset 14)"),
    (3384, "DuplicateExponent: exponent 0 appears twice (offset 4)"),
    (3815, "DuplicateExponent: exponent 0 appears twice (offset 28)"),
    (5617, "DuplicateExponent: exponent 0 appears twice (offset 4)"),
    (5897, "DuplicateExponent: exponent 1 appears twice (offset 25)"),
]


def test_series_text_outcomes():
    outcomes = _text_lines()
    was = [_after_minus(text, line) for text, line in outcomes]
    assert _sha(was) == TEXT_DIGEST
    moved = [(k, line) for k, ((_, line), w) in enumerate(zip(outcomes, was)) if line != w]
    assert moved == TEXT_AT_TERM

"""Acceptance battery: eleven criteria, one test (and one pass/fail line
under -v) each. Every check is exact; seeds are fixed so the battery is
reproducible run to run.
"""

import random
import time
from fractions import Fraction as Q

from lbldg.apartment import ApartmentVec, apply_weyl, in_half
from lbldg.building import (
    apartment_overlap,
    chart_image,
    fixed_set_root,
    m_of,
    stab_o,
    x_mu,
)
from lbldg.boundaries import (
    germ_equal,
    infinity_equal,
    sampled_germ_equal,
    sampled_infinity_equal,
    transitivity_witness,
)
from lbldg.harness.generators import (
    gen_apartment_mu,
    gen_group_elem,
    gen_orthogonal,
    gen_point,
    gen_root_elem,
    gen_stab_elem,
    sample_in_region,
    trial_rng,
)
from lbldg.rootsys import type_A
from lbldg.symspace import (
    GroupElem,
    SPDPoint,
    act,
    cartan_valuations,
    distance,
    retract,
)
from lbldg.valfield import series as vf
from lbldg.valfield.lam import LambdaVal
from oracles import brute_membership, series_from_terms

A1 = type_A(1)
A2 = type_A(2)
ZERO = LambdaVal.of(0)
SEED = 2026


def _vec(rs, mu):
    return ApartmentVec.from_mu(rs, mu)


def _gap_point(rs, n, i, j, gap, others):
    """Sum-zero point with mu_i - mu_j = gap and the free coordinates taken
    from `others`."""
    mu = [Q(0)] * n
    rest = sum(others)
    mu[j - 1] = -(rest + gap) / 2
    mu[i - 1] = mu[j - 1] + gap
    spots = [a for a in range(n) if a not in (i - 1, j - 1)]
    for a, v in zip(spots, others):
        mu[a] = v
    return _vec(rs, mu)


def test_criterion_01_pseudo_distance_500_triples():
    start = time.monotonic()
    for trial in range(500):
        rng = trial_rng(SEED, "c1", trial)
        x, y, z = (gen_point(rng, 3) for _ in range(3))
        dxy, dyz, dxz = distance(x, y), distance(y, z), distance(x, z)
        assert dxy == distance(y, x)
        assert dxy >= ZERO and distance(x, x) == ZERO
        assert dxz <= dxy + dyz
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"pseudo-distance battery took {elapsed:.1f}s"
    print(f"criterion 1: 500 triples, symmetry/positivity/triangle exact ({elapsed:.1f}s)")


def test_criterion_02_retraction_diminishes_200_pairs():
    for trial in range(200):
        rng = trial_rng(SEED, "c2", trial)
        x, y = gen_point(rng, 3), gen_point(rng, 3)
        assert distance(x_mu(retract(x)), x_mu(retract(y))) <= distance(x, y)
    rng = trial_rng(SEED, "c2-fix", 0)
    for _ in range(20):
        mu = _vec(A2, gen_apartment_mu(rng, 3))
        assert retract(x_mu(mu)) == mu
    print("criterion 2: 200 pairs diminished, 20 apartment points fixed")


def test_criterion_03_base_point_stabilizer_200():
    o = SPDPoint.basepoint(3)
    for trial in range(200):
        rng = trial_rng(SEED, "c3", trial)
        g = gen_group_elem(rng, 3)
        assert stab_o(g) == (distance(o, act(g, o)) == ZERO)
    print("criterion 3: 200 elements, shape test matches orbit distance")


def test_criterion_04_membership_vs_brute_force():
    grid2 = [_vec(A1, [a, -a]) for a in [Q(k, 2) for k in range(-6, 7)]]
    for trial in range(25):
        rng = trial_rng(SEED, "c4-sl2", trial)
        g = gen_group_elem(rng, 2)
        for mu in grid2:
            assert (chart_image(g, mu) is not None) == brute_membership(g, mu)
    axis = [Q(k, 2) for k in range(-3, 4)]
    grid3 = [_vec(A2, [a, b, -a - b]) for a in axis for b in axis]
    assert len(grid3) == 49
    for trial in range(10):
        rng = trial_rng(SEED, "c4-sl3", trial)
        # small exponent lattice keeps the brute-force search box desk scale
        g = gen_group_elem(rng, 3, span=2, denom=2, factors=2)
        for mu in grid3:
            assert (chart_image(g, mu) is not None) == brute_membership(g, mu)
    print("criterion 4: brute-force membership agreement, 25 SL2 + 10 SL3 charts")


def test_criterion_05_overlap_transport_100_charts():
    found = 0
    trial = 0
    while found < 100:
        assert trial < 4000, "not enough charts with nonempty overlap"
        rng = trial_rng(SEED, "c5", trial)
        trial += 1
        g = gen_group_elem(rng, 3)
        res = apartment_overlap(g)
        if res is None:
            continue
        found += 1
        region, w = res
        assert len(region.constraints) <= 6
        for mu in sample_in_region(rng, region, 20):
            assert chart_image(g, mu) == apply_weyl(w, mu)
    print("criterion 5: 100 nonempty overlaps transported")


def test_criterion_06_fixed_sets_on_grid():
    axis = [Q(k, 2) for k in range(-4, 5)]
    grid = [_vec(A2, [a, b, -a - b]) for a in axis for b in axis]
    assert len(grid) == 81
    for trial in range(20):
        rng = trial_rng(SEED, "c6", trial)
        u = gen_root_elem(rng, 3)
        half = fixed_set_root(u)
        g = u.as_group()
        for mu in grid:
            inside = in_half(half, mu)
            img = chart_image(g, mu)
            assert (img == mu) == inside
            assert (img is None) == (not inside)
    print("criterion 6: 20 root elements, fixed set matches chart action on 9x9 grid")


def test_criterion_07_affine_reflections():
    for trial in range(20):
        rng = trial_rng(SEED, "c7", trial)
        u = gen_root_elem(rng, 3)
        i, j = u.i, u.j
        m, root, ell = m_of(u)
        for k in range(5):
            others = [Q(rng.randint(-4, 4), 2)]
            wall = _gap_point(A2, 3, i, j, ell, others)
            assert chart_image(m, wall) == wall
        for k in range(5):
            others = [Q(rng.randint(-4, 4), 2)]
            bump = Q(rng.randint(1, 6), 2)
            plus = _gap_point(A2, 3, i, j, ell + bump, others)
            mu = plus.to_mu()
            nu = list(mu)
            nu[i - 1] = ell + mu[j - 1]
            nu[j - 1] = mu[i - 1] - ell
            minus = _vec(A2, nu)
            assert chart_image(m, plus) == minus
            assert chart_image(m, minus) == plus
        mm = m @ m
        for k in range(10):
            mu = _vec(A2, gen_apartment_mu(rng, 3))
            assert chart_image(mm, mu) == mu
    print("criterion 7: 20 reflections fix walls, swap halves, square to identity")


def test_criterion_08_newton_polygon_oracle():
    o = SPDPoint.basepoint(3)
    for trial in range(50):
        rng = trial_rng(SEED, "c8", trial)
        k = gen_orthogonal(rng, 3)
        mu = sorted(gen_apartment_mu(rng, 3), reverse=True)
        p = act(k, x_mu(_vec(A2, mu)))
        got = list(cartan_valuations(o, p))
        assert got == mu
    print("criterion 8: 50 conjugated flats, eigen-valuations recovered sorted")


def test_criterion_09_germ_predicate_and_witness():
    for n in (2, 3):
        base = GroupElem.identity(n)
        for trial in range(100):
            rng = trial_rng(SEED, f"c9-{n}", trial)
            s = gen_stab_elem(rng, n)
            assert germ_equal(s, base) == sampled_germ_equal(s, base)
    witnesses = 0
    for trial in range(100):
        rng = trial_rng(SEED, "c9-w", trial)
        s1 = gen_stab_elem(rng, 3)
        s2 = gen_stab_elem(rng, 3)
        h = transitivity_witness(s1, s2)
        assert germ_equal(h @ s1, s2)
        witnesses += 1
    assert witnesses == 100
    print("criterion 9: germ predicate matches sampling (n=2,3), witness 100/100")


def test_criterion_10_infinity_predicate():
    for n in (2, 3):
        base = GroupElem.identity(n)
        for trial in range(100):
            rng = trial_rng(SEED, f"c10-{n}", trial)
            c = gen_group_elem(rng, n)
            assert infinity_equal(c, base) == sampled_infinity_equal(c, base)
    print("criterion 10: parallelism predicate matches subsector sampling (n=2,3)")


def _rand_exact(rng, max_terms=4):
    pairs = []
    for _ in range(rng.randint(0, max_terms)):
        e = Q(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
        c = Q(rng.randint(-9, 9), rng.randint(1, 5))
        pairs.append((e, c))
    return series_from_terms(pairs)


def _rand_nonzero(rng):
    while True:
        x = _rand_exact(rng)
        if not x.is_zero:
            return x


def test_criterion_11_valfield_invariants_200_each():
    rng = random.Random(f"{SEED}:c11")
    for _ in range(200):
        a, b, c = (_rand_exact(rng) for _ in range(3))
        assert vf.add(a, b) == vf.add(b, a)
        assert vf.mul(a, b) == vf.mul(b, a)
        assert vf.add(vf.add(a, b), c) == vf.add(a, vf.add(b, c))
        assert vf.mul(vf.mul(a, b), c) == vf.mul(a, vf.mul(b, c))
        assert vf.mul(a, vf.add(b, c)) == vf.add(vf.mul(a, b), vf.mul(a, c))
        assert vf.add(a, vf.neg(a)).is_zero
    for _ in range(200):
        a, b = _rand_nonzero(rng), _rand_nonzero(rng)
        # ordered-field compatibility: sums of positives stay positive and
        # products respect signs
        pa = a if vf.cmp(a, vf.ZERO) == vf.GT else vf.neg(a)
        pb = b if vf.cmp(b, vf.ZERO) == vf.GT else vf.neg(b)
        assert vf.cmp(vf.add(pa, pb), vf.ZERO) == vf.GT
        assert vf.cmp(vf.mul(pa, pb), vf.ZERO) == vf.GT
    for _ in range(200):
        a, b = _rand_nonzero(rng), _rand_nonzero(rng)
        assert vf.negval(vf.mul(a, b)) == vf.negval(a) + vf.negval(b)
        s = vf.add(a, b)
        hi = max(vf.negval(a), vf.negval(b))
        assert not vf.negval(s) > hi
        if vf.negval(a) != vf.negval(b):
            assert vf.negval(s) == hi
    for _ in range(200):
        x = _rand_exact(rng)
        if rng.random() < 0.4:
            lo = min((e for e, _ in x.terms), default=Q(0))
            x = vf.with_floor(x, lo - rng.randint(1, 3))
        assert vf.parse(vf.to_str(x)) == x
    print("criterion 11: field laws, order, valuation, round-trip at 200 trials each")

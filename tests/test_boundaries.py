"""Residue building and building at infinity: predicates vs sampled geometry."""

import math
from fractions import Fraction as Q

import pytest

from lbldg import boundaries as bn
from lbldg import building as bd
from lbldg.apartment import ApartmentVec, in_half
from lbldg.errors import NotInRing, PrecisionError
from lbldg.harness.generators import (
    gen_group_elem,
    gen_orthogonal,
    gen_stab_elem,
    trial_rng,
)
from lbldg.rootsys import type_A
from lbldg.symspace import GroupElem, SPDPoint, act, distance, mat_det, retract
from lbldg.valfield import series as fs
from lbldg.valfield.lam import LambdaVal

A1 = type_A(1)


def _g(rows):
    return GroupElem([[fs.parse(v) for v in row] for row in rows])


def _mu(rs, *vals):
    return ApartmentVec.from_mu(rs, [Q(v) for v in vals])


def _deep_root(n, i, j, exp, coef=1):
    rows = [[fs.ONE if a == b else fs.ZERO for b in range(n)] for a in range(n)]
    rows[i - 1][j - 1] = fs.monomial(Q(exp), Q(coef))
    return GroupElem(rows, validate=False)


# --- entrywise reduction --------------------------------------------------------


class TestReduce:
    def test_sub_residue_entry_drops(self):
        assert bn.reduce(_g([["1", "t^(-1)"], ["0", "1"]])) == GroupElem.identity(2)

    def test_unit_entries_survive(self):
        r = bn.reduce(_g([["2", "0"], ["0", "1/2"]]))
        assert r.entries == _g([["2", "0"], ["0", "1/2"]]).entries

    def test_mixed_entry(self):
        r = bn.reduce(
            _g([["1 + 3*t^(-1) + t^(-3/2)", "3 + t^(-1/2)"], ["t^(-1)", "1"]])
        )
        assert r.entries == _g([["1", "3"], ["0", "1"]]).entries

    def test_not_in_ring(self):
        with pytest.raises(NotInRing):
            bn.reduce(_g([["t", "0"], ["0", "t^(-1)"]]))

    def test_masked_residue(self):
        z = fs.with_floor(fs.ZERO, 0)
        g = GroupElem([[fs.ONE, z], [fs.ZERO, fs.ONE]], validate=False)
        with pytest.raises(PrecisionError):
            bn.reduce(g)

    def test_multiplicative(self):
        for n in (2, 3):
            for trial in range(40):
                rng = trial_rng(11, f"reduce-hom-{n}", trial)
                a = gen_stab_elem(rng, n)
                b = gen_stab_elem(rng, n)
                assert bn.reduce(a @ b) == bn.reduce(a) @ bn.reduce(b)

    def test_residue_has_determinant_one(self):
        for n in (2, 3, 4):
            for trial in range(20):
                rng = trial_rng(11, f"reduce-det-{n}", trial)
                assert mat_det(bn.reduce(gen_stab_elem(rng, n)).entries) == fs.ONE

    def test_inverse(self):
        # the residue group's inverse is the adjugate; reduction commutes with it
        for n in (2, 3):
            for trial in range(20):
                rng = trial_rng(11, f"reduce-inv-{n}", trial)
                g = gen_stab_elem(rng, n)
                assert bn.reduce(g).inverse() == bn.reduce(g.inverse())

    def test_constant_elements_agree_at_both_boundaries(self):
        # a constant element is its own residue, so its germ at o and its
        # sector at infinity sit in the standard class together or not at all
        verdicts = set()
        for n in (2, 3, 4):
            ident = GroupElem.identity(n)
            for trial in range(20):
                rng = trial_rng(11, f"reduce-const-{n}", trial)
                for c in (bn.reduce(gen_stab_elem(rng, n)), gen_orthogonal(rng, n)):
                    assert bn.reduce(c) == c
                    germ = bn.germ_equal(c, ident)
                    parallel = bn.infinity_equal(c, ident)
                    assert germ == parallel
                    verdicts.add(germ)
        assert verdicts == {True, False}


# --- germs at the base point ----------------------------------------------------


class TestGerms:
    def test_reflexive(self):
        for n in (2, 3):
            s = GroupElem.identity(n)
            assert bn.germ_equal(s, s) is True
            assert bn.sampled_germ_equal(s, s) is True

    def test_deep_lower_entry_is_invisible(self):
        # the (2,1) entry sits below the residue, so the germ agrees
        s = _g([["1", "0"], ["t^(-1)", "1"]])
        s0 = GroupElem.identity(2)
        assert bn.germ_equal(s, s0) is True
        assert bn.sampled_germ_equal(s, s0) is True

    def test_rational_lower_entry_splits_germs(self):
        s = _g([["1", "0"], ["2", "1"]])
        s0 = GroupElem.identity(2)
        assert bn.germ_equal(s, s0) is False
        assert bn.sampled_germ_equal(s, s0) is False
        # the chamber point with gap 1/2 is moved clean off the apartment
        assert bd.chart_image(s, _mu(A1, "1/4", "-1/4")) is None

    def test_radii_are_existential(self):
        # fixes gaps up to 1/2 only: radius 1 moves, while GERM_RADIUS = 1/4
        # agrees, and so does the germ
        s = _deep_root(2, 2, 1, "-1/2")
        s0 = GroupElem.identity(2)
        assert bd.chart_image(s, _mu(A1, "1/2", "-1/2")) != _mu(A1, "1/2", "-1/2")
        assert bd.chart_image(s, _mu(A1, "1/4", "-1/4")) == _mu(A1, "1/4", "-1/4")
        assert bn.sampled_germ_equal(s, s0) is True
        assert bn.germ_equal(s, s0) is True

    def test_fixed_probes_stay_fixed_toward_o(self):
        """The star-shape lemma behind sampled_germ_equal's one radius: a
        point fixed by b in SL(n, O) stays fixed at every fraction of it.
        Probed at radii 1, 1/2 and 1/4 on each chamber ray and at k/5 of each
        fixed probe; every other draw carries a deep lower root factor, so
        some rays agree at 1/4 but not at 1."""
        partial = 0
        for n in (2, 3, 4, 5):
            rs = type_A(n - 1)
            for trial in range(40):
                rng = trial_rng(11, f"star-{n}", trial)
                b = gen_stab_elem(rng, n)
                if trial % 2:
                    j, i = sorted(rng.sample(range(1, n + 1), 2))
                    b = b @ _deep_root(n, i, j, Q(-rng.randint(1, 4), 4))
                for ray in bn.chamber_rays(n):
                    fixed = set()
                    for eps in (Q(1), Q(1, 2), Q(1, 4)):
                        p = _mu(rs, *[eps * x for x in ray])
                        agrees = bd.chart_image(b, p) == p
                        fixed.add(agrees)
                        if agrees:
                            for k in range(1, 6):
                                q = _mu(rs, *[Q(k, 5) * x for x in p.to_mu()])
                                assert bd.chart_image(b, q) == q, (n, trial, ray, eps, k)
                    partial += len(fixed) > 1
        assert partial > 10

    def test_chamber_rays_need_n_at_least_two(self):
        assert len(bn.chamber_rays(2)) == 1 and len(bn.chamber_rays(3)) == 3
        for n in (-1, 0, 1):
            with pytest.raises(ValueError, match=rf"^chamber rays need n at least 2, got {n}$"):
                bn.chamber_rays(n)

    def test_per_size_constants_are_shared_and_immutable(self):
        # both are cached per n, so every caller gets the one object
        for n in (2, 3, 5):
            for build in (bn.chamber_rays, bn._deep_direction):
                value = build(n)
                assert build(n) is value
                assert isinstance(value, tuple)

    def test_requires_stabilizer_charts(self):
        s = _g([["t", "0"], ["0", "t^(-1)"]])
        s0 = GroupElem.identity(2)
        with pytest.raises(NotInRing):
            bn.germ_equal(s, s0)
        with pytest.raises(NotInRing):
            bn.sampled_germ_equal(s, s0)

    def test_borel_predicate_matches_sampling(self):
        for n in (2, 3):
            for trial in range(60):
                rng = trial_rng(11, f"germ-agree-{n}", trial)
                s1 = gen_stab_elem(rng, n)
                s2 = gen_stab_elem(rng, n)
                assert bn.germ_equal(s1, s2) == bn.sampled_germ_equal(s1, s2)

    def test_orthogonal_charts_split_unless_upper(self):
        hits = 0
        for trial in range(30):
            rng = trial_rng(11, "germ-orth", trial)
            k = gen_orthogonal(rng, 2)
            verdict = bn.germ_equal(k, GroupElem.identity(2))
            if verdict:
                assert bn.reduce(k).entries[1][0] == fs.ZERO
            else:
                hits += 1
        assert hits >= 10


# --- reduction-kernel fix radius ------------------------------------------------


class TestKernelRadius:
    """A reduction-kernel element whose entries of g - Id all have negval at
    most -delta fixes the ball of radius delta / (n - 1) around o.

    The constant comes from the diagonal subgroup: a positive diagonal
    determinant-one matrix whose consecutive-gap negvals are at most lam has
    entry negvals at most lam (n - 1)/2, and the arithmetic staircase
    attains it.  A point within distance lam of o has a Cartan
    representative with entry negvals at most lam (n - 1)/2 on both sides,
    so conjugating g - Id by it keeps every entry in the maximal ideal
    whenever delta exceeds lam (n - 1)."""

    def test_staircase_attains_the_constant(self):
        # the point x_mu = diag(t^(2 mu_i)) of the staircase mu_i =
        # lam (n - 1 - 2i)/2 has consecutive gaps lam and its largest
        # diagonal negval is 2 max mu = lam (n - 1)
        lam = Q(1, 2)
        for n in (2, 3, 4):
            x = bd.x_mu(
                ApartmentVec.from_mu(type_A(n - 1), [lam * Q(n - 1 - 2 * i, 2) for i in range(n)])
            )
            top = max(fs.negval(x.entries[i][i]) for i in range(n))
            assert top == lam * (n - 1)
            mu = retract(x).to_mu()
            assert [mu[i] - mu[i + 1] for i in range(n - 1)] == [lam] * (n - 1)

    def test_kernel_fixes_ball(self):
        for trial in range(25):
            rng = trial_rng(11, "kernel-ball", trial)
            n = rng.choice([2, 3])
            ker = GroupElem.identity(n)
            depth = None
            for _ in range(2):
                i, j = rng.sample(range(1, n + 1), 2)
                exp = Q(rng.randint(-4, -1), 2)
                ker = ker @ _deep_root(n, i, j, exp, rng.randint(1, 3))
                depth = -exp if depth is None else min(depth, -exp)
            assert bn.reduce(ker) == GroupElem.identity(n)
            lam = depth / (n - 1)
            o = SPDPoint.basepoint(n)
            for _ in range(4):
                mu = [Q(rng.randint(-2, 2), 8) for _ in range(n - 1)]
                mu.append(-sum(mu))
                spread = sum(abs(a - b) for a in mu for b in mu)
                if spread > lam:
                    mu = [x * lam / spread for x in mu]
                p = bd.x_mu(ApartmentVec.from_mu(type_A(n - 1), mu))
                assert distance(p, o) <= LambdaVal.of(lam)
                q = act(gen_orthogonal(rng, n), p)
                assert distance(act(ker, q), q) == LambdaVal.of(0)


# --- sectors at infinity --------------------------------------------------------


class TestInfinity:
    def test_reflexive(self):
        for n in (2, 3):
            c = GroupElem.identity(n)
            assert bn.infinity_equal(c, c) is True
            assert bn.sampled_infinity_equal(c, c) is True

    def test_upper_root_element_is_parallel(self):
        c = _g([["1", "t"], ["0", "1"]])
        c0 = GroupElem.identity(2)
        assert bn.infinity_equal(c, c0) is True
        assert bn.sampled_infinity_equal(c, c0) is True
        # witness subsector: mu1 - mu2 >= 1 is fixed pointwise
        half = bd.fixed_set_root(bd.RootElem(2, 1, 2, fs.monomial(Q(1))))
        assert half.threshold == Q(1)
        for a in (1, 2, 5):
            pt = _mu(A1, a, -a)
            assert in_half(half, pt)
            assert bd.chart_image(c, pt) == pt

    def test_swap_is_not_parallel(self):
        c = _g([["0", "1"], ["-1", "0"]])
        c0 = GroupElem.identity(2)
        assert bn.infinity_equal(c, c0) is False
        assert bn.sampled_infinity_equal(c, c0) is False

    def test_diagonal_translates(self):
        # a diagonal chart is parallel; deep points shift by its exponents
        c = _g([["t", "0"], ["0", "t^(-1)"]])
        c0 = GroupElem.identity(2)
        assert bn.infinity_equal(c, c0) is True
        assert bn.sampled_infinity_equal(c, c0) is True
        pt = _mu(A1, 10, -10)
        assert bd.chart_image(c, pt) == _mu(A1, 11, -11)

    def test_masked_lower_entry_raises(self):
        z = fs.with_floor(fs.ZERO, -5)
        c = GroupElem([[fs.ONE, fs.ZERO], [z, fs.ONE]], validate=False)
        c0 = GroupElem.identity(2)
        with pytest.raises(PrecisionError):
            bn.infinity_equal(c, c0)

    def test_predicate_matches_sampling(self):
        for n in (2, 3):
            for trial in range(60):
                rng = trial_rng(11, f"inf-agree-{n}", trial)
                c1 = gen_group_elem(rng, n)
                c2 = gen_group_elem(rng, n)
                assert bn.infinity_equal(c1, c2) == bn.sampled_infinity_equal(c1, c2)

    def test_deep_direction_sums_are_multiset_unique(self):
        for n in (2, 3, 4):
            rho = bn._deep_direction(n)
            assert sum(rho) == 0
            assert all(rho[i] > rho[i + 1] for i in range(n - 1))
            seen = {}
            stack = [(0, Q(0))]
            while stack:
                depth, total = stack.pop()
                if depth == n:
                    seen.setdefault(total, 0)
                    seen[total] += 1
                    continue
                for r in rho:
                    stack.append((depth + 1, total + r))
            # zero is hit only by permutations of the full index set
            assert seen[Q(0)] == math.factorial(n)


# --- strong transitivity on germs -----------------------------------------------


class TestTransitivity:
    def test_witness_always_exists(self):
        for n in (2, 3):
            for trial in range(40):
                rng = trial_rng(11, f"trans-{n}", trial)
                s1 = gen_stab_elem(rng, n)
                s2 = gen_stab_elem(rng, n)
                h = bn.transitivity_witness(s1, s2)
                # the witness carries germ 1 to germ 2
                assert bn.germ_equal(h @ s1, s2) is True

    def test_witness_is_residue_level(self):
        s1 = _g([["1", "t^(-1)"], ["0", "1"]])
        s0 = GroupElem.identity(2)
        assert bn.transitivity_witness(s1, s0) == GroupElem.identity(2)

"""Model apartment in mu coordinates: pairing, the metric the building
distance induces on it, Weyl action, feasibility."""

import random
from fractions import Fraction as Q
from itertools import permutations

import pytest

from lbldg import apartment as apt
from lbldg import rootsys as rsys
from lbldg.building import apartment_overlap, chart_image, normalizer_of, x_mu
from lbldg.errors import NotARoot
from lbldg.symspace import GroupElem, distance
from lbldg.valfield import series as fs
from lbldg.valfield.lam import LambdaVal

A1 = rsys.type_A(1)
A2 = rsys.type_A(2)
A3 = rsys.type_A(3)


def _mu(rs, *mu):
    return apt.ApartmentVec.from_mu(rs, [Q(m) for m in mu])


def _rand_mu(rng, rs, denom=2, span=4):
    m = rs.rank + 1
    vals = [Q(rng.randint(-span * denom, span * denom), denom) for _ in range(m - 1)]
    vals.append(-sum(vals))
    return apt.ApartmentVec.from_mu(rs, vals)


def _dist(x, y):
    """The building distance between two points of the standard apartment;
    it is twice the sum of |mu_i - mu_j| over i < j for mu = x - y."""
    return distance(x_mu(x), x_mu(y))


def _in_C0(x):
    """mu_1 >= mu_2 >= ... >= mu_n."""
    mu = x.to_mu()
    return all(a >= b for a, b in zip(mu, mu[1:]))


def _spherical(rs, sigma):
    """The Weyl element nu_i = mu_{sigma(i)}, with no translation."""
    return apt.affine_from_mu(rs, sigma, [0] * (rs.rank + 1))


class TestCoordinates:
    def test_mu_round_trip(self):
        x = _mu(A2, 1, 0, -1)
        assert x.to_mu() == (Q(1), Q(0), Q(-1))
        assert all(type(v) is Q for v in x.to_mu())
        assert apt.ApartmentVec.from_mu(A2, x.to_mu()) == x

    def test_mu_sum_must_vanish(self):
        with pytest.raises(ValueError, match="^mu coordinates must sum to zero$"):
            _mu(A2, 1, 0, 0)
        with pytest.raises(ValueError):
            _mu(A2, 1, -1)
        # mixed denominators, summed exactly
        assert _mu(A2, Q(1, 3), Q(1, 6), Q(-1, 2)).to_mu() == (Q(1, 3), Q(1, 6), Q(-1, 2))
        with pytest.raises(ValueError, match="^mu coordinates must sum to zero$"):
            _mu(A2, Q(1, 3), Q(1, 6), Q(-1, 2) + Q(1, 10**30))
        with pytest.raises(ValueError, match="^mu coordinates must sum to zero$"):
            _mu(A2, 1, Q(-1, 2), Q(-1, 3))

    def test_b_ext_examples(self):
        d1 = _mu(A2, 1, -1, 0)
        assert apt.b_ext(d1, (1, 2)) == Q(2)
        zero = _mu(A2, 0, 0, 0)
        for i, j in permutations((1, 2, 3), 2):
            assert apt.b_ext(zero, A2.alpha(i, j)) == Q(0)
        x = _mu(A2, 1, 0, -1)
        assert apt.b_ext(x, A2.alpha(1, 3)) == Q(2)

    def test_b_ext_is_mu_difference(self):
        rng = random.Random(31)
        for _ in range(25):
            x = _rand_mu(rng, A3)
            mu = x.to_mu()
            for i in range(1, 5):
                for j in range(1, 5):
                    if i != j:
                        got = apt.b_ext(x, A3.alpha(i, j))
                        assert type(got) is Q and got == mu[i - 1] - mu[j - 1]


class TestNormDist:
    """The building distance restricted to the standard apartment."""

    def test_norm_spec_values(self):
        zero = _mu(A2, 0, 0, 0)
        assert _dist(_mu(A2, 1, -1, 0), zero) == LambdaVal.of(2 * 4)
        assert _dist(zero, zero) == LambdaVal.of(0)

    def test_norm_weyl_invariant_a2_exhaustive(self):
        rng = random.Random(37)
        zero = _mu(A2, 0, 0, 0)
        for _ in range(10):
            x = _rand_mu(rng, A2)
            for sigma in permutations((1, 2, 3)):
                wx = apt.apply_weyl(_spherical(A2, sigma), x)
                assert _dist(wx, zero) == _dist(x, zero)

    def test_norm_weyl_invariant_a3_sampled(self):
        # sampled points, every element of S_4
        rng = random.Random(41)
        zero = _mu(A3, 0, 0, 0, 0)
        for _ in range(10):
            x = _rand_mu(rng, A3)
            for sigma in permutations((1, 2, 3, 4)):
                wx = apt.apply_weyl(_spherical(A3, sigma), x)
                assert _dist(wx, zero) == _dist(x, zero)

    def test_dist_basics(self):
        x = _mu(A2, 2, -1, -1)
        assert _dist(x, x) == LambdaVal.of(0)
        # |mu1 - mu2| over the single positive root of A_1 is 2, and the
        # building distance is twice that
        assert _dist(_mu(A1, 1, -1), _mu(A1, 0, 0)) == LambdaVal.of(4)

    def test_dist_symmetry_100(self):
        rng = random.Random(43)
        for _ in range(100):
            x, y = _rand_mu(rng, A2), _rand_mu(rng, A2)
            assert _dist(x, y) == _dist(y, x)
            assert not _dist(x, y) < LambdaVal.of(0)

    def test_triangle_inequality_500_a3(self):
        rng = random.Random(47)
        for _ in range(500):
            x, y, z = (_rand_mu(rng, A3, denom=rng.choice([1, 2])) for _ in range(3))
            dxz = _dist(x, z)
            dxy = _dist(x, y)
            dyz = _dist(y, z)
            assert not dxz > LambdaVal(dxy.finite_value + dyz.finite_value)

    def test_chamber_identity(self):
        # for z = x - y in C0: dist(x, y) = 2 b_ext(z, sum of positive coroots)
        rng = random.Random(53)
        found = 0
        while found < 20:
            x, y = _rand_mu(rng, A3), _rand_mu(rng, A3)
            z = _mu(A3, *[a - b for a, b in zip(x.to_mu(), y.to_mu())])
            if not _in_C0(z):
                continue
            found += 1
            total = Q(0)
            for i in range(1, 5):
                for j in range(i + 1, 5):
                    total += apt.b_ext(z, (i, j))
            assert _dist(x, y) == LambdaVal.of(2 * total)


class TestChambersWalls:
    def test_chamber_examples(self):
        # C0 is the fixed set of the integral upper unipotent with every
        # entry above the diagonal equal to 1
        rows = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
        u = GroupElem([[fs.from_rational(v) for v in row] for row in rows])
        for mu, inside in (
            ((0, 0, 0), True),
            ((2, 1, -3), True),
            ((1, 1, -2), True),
            ((1, 2, -3), False),
            ((2, -3, 1), False),
        ):
            x = _mu(A2, *mu)
            assert _in_C0(x) == inside
            assert (chart_image(u, x) == x) == inside

    def test_on_wall_via_cochar(self):
        alpha = A2.alpha(1, 2)
        # the cocharacter of alpha_12 at 1/2: (1/2) (e_1 - e_2)
        x = _mu(A2, Q(1, 2), Q(-1, 2), 0)
        assert apt.b_ext(x, alpha) == Q(1)
        assert apt.b_ext(x, alpha) != Q(0)

    def test_half_apartment_membership(self):
        h = apt.HalfApartment(A2.alpha(1, 2), Q(1))
        assert apt.in_half(h, _mu(A2, 1, 0, -1))
        assert not apt.in_half(h, _mu(A2, 0, 0, 0))
        # the opposite half {mu_1 - mu_2 <= 1} is the root (2, 1) at -1
        hm = apt.HalfApartment(A2.alpha(2, 1), Q(-1))
        assert apt.in_half(hm, _mu(A2, 0, 0, 0))
        assert not apt.in_half(hm, _mu(A2, 2, 0, -2))
        with pytest.raises(NotARoot):
            apt.in_half(apt.HalfApartment((2, 2), Q(0)), _mu(A2, 0, 0, 0))

    def test_wall_fixed_halves_swapped(self):
        alpha = A2.alpha(1, 3)
        ell = Q(1)
        refl = apt.affine_reflection(A2, alpha, ell)
        on = _mu(A2, Q(1, 2), 0, Q(-1, 2))
        assert apt.b_ext(on, alpha) == ell
        assert apt.apply_weyl(refl, on) == on
        rng = random.Random(59)
        for _ in range(30):
            x = _rand_mu(rng, A2)
            b = apt.b_ext(x, alpha)
            img = apt.apply_weyl(refl, x)
            assert apt.b_ext(img, alpha) == 2 * ell - b
            assert apt.apply_weyl(refl, img) == x


class TestAffineWeyl:
    def test_identity_and_translation(self):
        x = _mu(A2, 1, 0, -1)
        assert apt.apply_weyl(_spherical(A2, (1, 2, 3)), x) == x
        c = [Q(1), Q(-2), Q(1)]
        w = apt.affine_from_mu(A2, (1, 2, 3), c)
        winv = apt.affine_from_mu(A2, (1, 2, 3), [-v for v in c])
        assert apt.apply_weyl(winv, apt.apply_weyl(w, x)) == x

    def test_sl2_swap_example(self):
        w = apt.affine_from_mu(A1, (2, 1), [Q(1), Q(-1)])
        out = apt.apply_weyl(w, _mu(A1, 0, 0))
        assert list(out.to_mu()) == [Q(1), Q(-1)]

    def test_mu_action_convention(self):
        rng = random.Random(61)
        for _ in range(30):
            m = 3
            sigma = list(range(1, m + 1))
            rng.shuffle(sigma)
            c = [Q(rng.randint(-3, 3)) for _ in range(m - 1)]
            c.append(-sum(c))
            w = apt.affine_from_mu(A2, tuple(sigma), c)
            x = _rand_mu(rng, A2)
            mu = x.to_mu()
            nu = apt.apply_weyl(w, x).to_mu()
            for i in range(m):
                assert nu[i] == c[i] + mu[sigma[i] - 1]

    def test_composition_homomorphism(self):
        # the overlap of a product of two normalizer realizations is the
        # composite: perm s2(s1(i)), translation c1_i + c2_{s1(i)}
        rng = random.Random(67)
        for _ in range(30):
            ws = []
            for _ in range(2):
                sigma = list(range(1, 4))
                rng.shuffle(sigma)
                c = [Q(rng.randint(-2, 2)) for _ in range(2)]
                c.append(-sum(c))
                ws.append(apt.affine_from_mu(A2, tuple(sigma), c))
            w1, w2 = ws
            x = _rand_mu(rng, A2)
            region, composite = apartment_overlap(normalizer_of(w1) @ normalizer_of(w2))
            assert region.constraints == ()
            assert apt.apply_weyl(composite, x) == apt.apply_weyl(w1, apt.apply_weyl(w2, x))
            s1, s2 = w1.perm, w2.perm
            c1, c2 = w1.translation.to_mu(), w2.translation.to_mu()
            assert composite.perm == tuple(s2[s1[i] - 1] for i in range(3))
            assert composite.translation.to_mu() == tuple(c1[i] + c2[s1[i] - 1] for i in range(3))

    @pytest.mark.parametrize(
        "w, x",
        [
            (apt.affine_from_mu(A3, (4, 3, 2, 1), [0, 0, 0, 0]), _mu(A1, 1, -1)),
            (apt.affine_from_mu(A1, (2, 1), [0, 0]), _mu(A3, 1, -1, 0, 0)),
        ],
    )
    def test_size_mismatch_is_a_value_error(self, w, x):
        sizes = f"size {len(w.perm)} and point size {len(x.mu)}"
        with pytest.raises(ValueError, match=sizes):
            apt.apply_weyl(w, x)

    @pytest.mark.parametrize("sigma", [(0, 1, 2), (1, 2, 3, 4), (1, 2), (1, 1, 2)])
    def test_sigma_must_be_a_permutation(self, sigma):
        with pytest.raises(ValueError, match="not a permutation"):
            apt.affine_from_mu(A2, sigma, [Q(1), Q(-2), Q(1)])


def _feasible(s):
    return apt.wconvex_witness(s) is not None


class TestWConvex:
    def _set(self, rs, cons):
        halves = tuple(
            apt.HalfApartment(rs.alpha(i, j), Q(ell))
            for i, j, ell in cons
        )
        return apt.WConvexSet(rs, halves)

    def test_spec_examples(self):
        assert _feasible(apt.WConvexSet(A2, ()))
        bad = self._set(A1, [(1, 2, Q(1)), (2, 1, Q(0))])
        assert not _feasible(bad)
        s = self._set(A2, [(1, 2, Q(1)), (2, 3, Q(1))])
        w = apt.wconvex_witness(s)
        assert w == (Q(1), Q(0), Q(-1))
        assert w[0] - w[1] >= 1 and w[1] - w[2] >= 1 and sum(w) == 0

    def test_int_threshold_gives_a_fraction_witness(self):
        s = apt.WConvexSet(A2, (apt.HalfApartment((1, 2), 1),))
        w = apt.wconvex_witness(s)
        assert w == (Q(1, 3), Q(-2, 3), Q(1, 3))
        assert all(isinstance(v, Q) for v in w)
        assert apt.ApartmentVec.from_mu(A2, w).to_mu() == w

    @pytest.mark.parametrize(
        "s, x",
        [
            (apt.WConvexSet(A1, (apt.HalfApartment((1, 2), 1),)), _mu(A2, 2, 0, -2)),
            (apt.WConvexSet(A2, (apt.HalfApartment((1, 3), 1),)), _mu(A1, 2, -2)),
        ],
        ids=["2-3", "3-2"],
    )
    def test_size_mismatch_is_a_value_error(self, s, x):
        # named as a mismatch: neither answered on the shared roots nor a NotARoot
        sizes = f"region size {s.rs.rank + 1} and point size {len(x.mu)} disagree"
        with pytest.raises(ValueError, match=sizes) as ei:
            apt.in_wconvex(s, x)
        assert type(ei.value) is ValueError

    def test_constraint_naming_no_root(self):
        for root in ((1, 1), (1, 4), (0, 2)):
            s = apt.WConvexSet(A2, (apt.HalfApartment(root, Q(0)),))
            with pytest.raises(NotARoot):
                _feasible(s)

    def _grid_vals(self):
        vals = set()
        for q in (1, 2, 3, 4):
            for p in range(-5 * q, 5 * q + 1):
                vals.add(Q(p, q))
        return sorted(vals)

    def test_agreement_with_brute_force_sl2(self):
        rng = random.Random(71)
        vals = self._grid_vals()
        pts = [(a, -a) for a in vals]
        for _ in range(50):
            cons = [
                (rng.choice([1, 2]), 0, Q(rng.randint(-4, 4), 2))
                for _ in range(rng.randint(1, 2))
            ]
            cons = [(i, 3 - i, ell) for i, _, ell in cons]
            s = self._set(A1, cons)
            brute = any(
                all(p[i - 1] - p[j - 1] >= ell for i, j, ell in cons) for p in pts
            )
            assert _feasible(s) == brute

    def test_agreement_with_brute_force_sl3(self):
        rng = random.Random(73)
        vals = [v for v in self._grid_vals() if v.denominator <= 3]
        pairs = [(a, b) for a in vals for b in vals if abs(a + b) <= 5]
        for _ in range(50):
            cons = []
            for _ in range(rng.randint(1, 2)):
                i, j = rng.sample([1, 2, 3], 2)
                cons.append((i, j, Q(rng.randint(-2, 2))))
            s = self._set(A2, cons)

            def val(p, k):
                return p[k - 1] if k <= 2 else -p[0] - p[1]

            brute = any(
                all(val(p, i) - val(p, j) >= ell for i, j, ell in cons) for p in pairs
            )
            mine = _feasible(s)
            if mine:
                w = apt.wconvex_witness(s)
                assert all(w[i - 1] - w[j - 1] >= ell for i, j, ell in cons)
                assert sum(w) == 0
            assert mine == brute

    def test_json_round_trip(self):
        s = self._set(A2, [(1, 2, Q(1)), (3, 1, Q(-1, 2))])
        data = apt.wconvex_to_json(s)
        assert data == [{"i": 1, "j": 2, "ell": "1"}, {"i": 3, "j": 1, "ell": "-1/2"}]
        back = self._set(A2, [(c["i"], c["j"], Q(c["ell"])) for c in data])
        assert back == s


class TestDifferencePotentials:
    """One Bellman-Ford for int and Fraction payloads: scaling the thresholds by a
    positive factor scales the potentials by the same factor."""

    SYSTEM = [(1, 2, 3), (2, 3, -5), (3, 1, 1), (4, 2, 2), (1, 4, -4)]
    CYCLE = [(1, 2, 1), (2, 3, 1), (3, 1, -1)]

    def test_int_and_fraction_agree(self):
        d = apt.difference_potentials(4, self.SYSTEM)
        assert d is not None and all(isinstance(v, int) for v in d)
        assert all(d[i - 1] - d[j - 1] >= ell for i, j, ell in self.SYSTEM)
        assert max(d) == 0
        frac = apt.difference_potentials(4, [(i, j, Q(ell, 6)) for i, j, ell in self.SYSTEM])
        assert [6 * v for v in frac] == d

    def test_negative_cycle_is_infeasible(self):
        assert apt.difference_potentials(3, self.CYCLE) is None
        assert apt.difference_potentials(3, [(i, j, Q(ell, 6)) for i, j, ell in self.CYCLE]) is None

    def test_no_constraints(self):
        assert apt.difference_potentials(3, []) == [0, 0, 0]


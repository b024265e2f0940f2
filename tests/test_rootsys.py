"""The type A root system in mu coordinates: roots are index pairs, the
pairing is a difference of coordinates, reflections and Weyl elements are
permutations."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from lbldg import apartment as apt
from lbldg import rootsys as rsys
from lbldg.errors import NotARoot
from lbldg.linalg import mat_inv
from oracles import identity, mat_mul


def _roots(rs):
    """Every pair alpha accepts, searched over a box past both ends."""
    span = range(-1, rs.rank + 4)
    out = set()
    for i in span:
        for j in span:
            try:
                out.add(rs.alpha(i, j))
            except NotARoot:
                pass
    return out


def _point(rs, i, j):
    """The coroot of alpha_ij as an apartment point: e_i - e_j."""
    mu = [0] * (rs.rank + 1)
    mu[i - 1], mu[j - 1] = 1, -1
    return apt.ApartmentVec.from_mu(rs, mu)


def _weyl(rs, sigma):
    return apt.affine_from_mu(rs, sigma, [0] * (rs.rank + 1))


class TestTypeA:
    def test_cartan_a2(self):
        rs = rsys.type_A(2)
        simple = [(1, 2), (2, 3)]
        cartan = tuple(
            tuple(apt.b_ext(_point(rs, *a), b) for b in simple) for a in simple
        )
        assert cartan == ((2, -1), (-1, 2))

    def test_rank_1_roots(self):
        rs = rsys.type_A(1)
        assert rs.rank == 1
        assert _roots(rs) == {(1, 2), (2, 1)}

    def test_root_counts(self):
        assert len(_roots(rsys.type_A(3))) == 12
        assert len(_roots(rsys.type_A(2))) == 6

    def test_alpha_labels(self):
        rs = rsys.type_A(2)
        assert rs.alpha(1, 3) == (1, 3)
        assert rs.alpha(3, 1) == (3, 1)
        for bad in ((1, 1), (0, 1), (1, 4), (4, 1)):
            with pytest.raises(NotARoot):
                rs.alpha(*bad)
        assert rsys.type_A(2) is rs
        with pytest.raises(ValueError):
            rsys.type_A(0)

    def test_axioms_r1_r3(self):
        for n in (1, 2, 3):
            rs = rsys.type_A(n)
            roots = _roots(rs)
            assert all(i != j for i, j in roots)
            assert all((j, i) in roots for i, j in roots)
            for a in roots:
                s = apt.affine_reflection(rs, a, 0)
                for i, j in roots:
                    img = apt.apply_weyl(s, _point(rs, i, j))
                    assert any(img == _point(rs, *r) for r in roots)
                    assert apt.b_ext(_point(rs, i, j), a).denominator == 1


class TestPairing:
    def test_spec_values(self):
        rs = rsys.type_A(2)
        d1 = _point(rs, 1, 2)
        assert apt.b_ext(d1, (1, 2)) == 2
        assert apt.b_ext(d1, (2, 3)) == -1
        assert apt.b_ext(_point(rs, 1, 3), (1, 2)) == 1

    def test_diagonal_is_two_everywhere(self):
        for rs in (rsys.type_A(2), rsys.type_A(3)):
            for r in _roots(rs):
                assert apt.b_ext(_point(rs, *r), r) == 2

    def test_not_a_root(self):
        rs = rsys.type_A(2)
        x = _point(rs, 1, 2)
        for bad in ((1, 1), (0, 2), (4, 1)):
            with pytest.raises(NotARoot):
                apt.b_ext(x, bad)

    def test_coroot_transpose_identity(self):
        # simply laced: b(alpha^vee, beta) = b(beta^vee, alpha)
        for rs in (rsys.type_A(2), rsys.type_A(3)):
            for a in _roots(rs):
                for b in _roots(rs):
                    assert apt.b_ext(_point(rs, *a), b) == apt.b_ext(_point(rs, *b), a)


class TestReflect:
    def test_spec_values(self):
        rs = rsys.type_A(2)
        s1 = apt.affine_reflection(rs, (1, 2), 0)
        assert apt.apply_weyl(s1, _point(rs, 1, 2)) == _point(rs, 2, 1)
        assert apt.apply_weyl(s1, _point(rs, 2, 3)) == _point(rs, 1, 3)

    def test_involution_a3(self):
        rs = rsys.type_A(3)
        for a in _roots(rs):
            s = apt.affine_reflection(rs, a, 0)
            for x in _roots(rs):
                p = _point(rs, *x)
                assert apt.apply_weyl(s, apt.apply_weyl(s, p)) == p


class TestWeyl:
    def test_s3_size(self):
        # a regular point has one image per Weyl element
        rs = rsys.type_A(2)
        x = apt.ApartmentVec.from_mu(rs, [2, 1, -3])
        images = {apt.apply_weyl(_weyl(rs, p), x) for p in permutations((1, 2, 3))}
        assert len(images) == 6

    def test_positive_roots(self):
        # the roots positive on the interior of the chamber C0
        for n in (1, 3):
            rs = rsys.type_A(n)
            rho = apt.ApartmentVec.from_mu(rs, [Fraction(n, 2) - k for k in range(n + 1)])
            mu = rho.to_mu()
            assert all(a >= b for a, b in zip(mu, mu[1:]))
            positive = {r for r in _roots(rs) if apt.b_ext(rho, r) > 0}
            assert positive == {(i, j) for i in range(1, n + 2) for j in range(i + 1, n + 2)}

    def test_weyl_preserves_roots_a3(self):
        rs = rsys.type_A(3)
        for sigma in permutations((1, 2, 3, 4)):
            inv = {s: k + 1 for k, s in enumerate(sigma)}
            w = _weyl(rs, sigma)
            for i, j in _roots(rs):
                assert apt.apply_weyl(w, _point(rs, i, j)) == _point(rs, inv[i], inv[j])

    def test_perm_action_matches_labels(self):
        rs = rsys.type_A(2)
        rng = random.Random(29)
        for s in permutations((1, 2, 3)):
            w = _weyl(rs, s)
            c = [Fraction(rng.randint(-6, 6), 2) for _ in range(2)]
            x = apt.ApartmentVec.from_mu(rs, c + [-sum(c)])
            wx = apt.apply_weyl(w, x)
            for i, j in _roots(rs):
                assert apt.b_ext(wx, (i, j)) == apt.b_ext(x, (s[i - 1], s[j - 1]))

    def test_simple_reflections_are_involutions(self):
        rs = rsys.type_A(3)
        one = _weyl(rs, (1, 2, 3, 4))
        for k in range(1, 4):
            s = apt.affine_reflection(rs, (k, k + 1), 0)
            assert s != one
            x = apt.ApartmentVec.from_mu(rs, [4, 1, -2, -3])
            assert apt.apply_weyl(s, x) != x
            assert apt.apply_weyl(s, apt.apply_weyl(s, x)) == x


def test_cartan_inverse_exact():
    # the rows of the inverse Cartan matrix, over the simple coroots, are
    # the fundamental coweights: b(omega_k, alpha_l) = delta_kl
    for rs in (rsys.type_A(2), rsys.type_A(3)):
        n = rs.rank
        simple = [(k, k + 1) for k in range(1, n + 1)]
        cartan = [
            [Fraction(apt.b_ext(_point(rs, *a), b)) for b in simple] for a in simple
        ]
        inv = mat_inv(cartan)
        assert mat_mul(cartan, inv) == identity(n)
        for k in range(n):
            mu = [Fraction(0)] * (n + 1)
            for (i, j), c in zip(simple, inv[k]):
                mu[i - 1] += c
                mu[j - 1] -= c
            omega = apt.ApartmentVec.from_mu(rs, mu)
            assert [apt.b_ext(omega, b) for b in simple] == identity(n)[k]


def test_basis_sign_property_a2():
    # every root written in any Weyl image of the simple coroots has
    # coefficients of one sign; exhaustive over W x roots for A_2, with a
    # sum-zero point read in its first two coordinates
    rs = rsys.type_A(2)
    for sigma in permutations((1, 2, 3)):
        w = _weyl(rs, sigma)
        cols = [apt.apply_weyl(w, _point(rs, k, k + 1)).to_mu()[:2] for k in (1, 2)]
        inv = mat_inv([[Fraction(cols[j][i]) for j in range(2)] for i in range(2)])
        for r in _roots(rs):
            v = _point(rs, *r).to_mu()[:2]
            coeffs = [sum(a * b for a, b in zip(row, v)) for row in inv]
            assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)

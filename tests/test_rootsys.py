"""Root systems: pairing, reflections, Weyl enumeration, Cartan data."""

import random
from fractions import Fraction

import pytest

from lbldg import apartment as apt
from lbldg import rootsys as rsys
from lbldg.errors import EnumerationBound, NotARoot
from lbldg.linalg import identity, mat_inv, mat_mul


class TestTypeA:
    def test_cartan_a2(self):
        assert rsys.type_A(2).cartan == ((2, -1), (-1, 2))

    def test_rank_1_roots(self):
        rs = rsys.type_A(1)
        assert {r.vec for r in rs.roots} == {(1,), (-1,)}

    def test_root_counts(self):
        assert len(rsys.type_A(3).roots) == 12
        assert len(rsys.type_A(2).roots) == 6

    def test_alpha_labels(self):
        rs = rsys.type_A(2)
        assert rs.alpha(1, 3).vec == (1, 1)
        assert rs.alpha(3, 1).vec == (-1, -1)
        assert rs.alpha(2, 3).vec == (0, 1)
        with pytest.raises(NotARoot):
            rs.alpha(1, 1)

    def test_axioms_r1_r3(self):
        for n in (1, 2, 3):
            rs = rsys.type_A(n)
            vecs = {r.vec for r in rs.roots}
            assert (0,) * n not in vecs
            assert all(tuple(-c for c in v) in vecs for v in vecs)
            for r in rs.roots:
                for d in rs.basis:
                    assert rsys.reflect(rs, d, r) in rs.roots
                for beta in rs.roots:
                    assert isinstance(rsys.pairing(rs, r, beta), int)


class TestPairing:
    def test_spec_values(self):
        rs = rsys.type_A(2)
        d1, d2 = rs.basis
        assert rsys.pairing(rs, d1, d1) == 2
        assert rsys.pairing(rs, d1, d2) == -1
        assert rsys.pairing(rs, (1, 1), d1) == 1

    def test_diagonal_is_two_everywhere(self):
        for rs in (rsys.type_A(2), rsys.type_A(3)):
            for r in rs.roots:
                assert rsys.pairing(rs, r, r) == 2

    def test_not_a_root(self):
        rs = rsys.type_A(2)
        with pytest.raises(NotARoot):
            rsys.pairing(rs, (1, 0), (2, 0))

    def test_coroot_transpose_identity(self):
        # b(alpha, beta_covec) computed directly vs with roles swapped on the
        # dual side: alpha(beta_covec) = beta_covec(alpha) in the b pairing.
        for rs in (rsys.type_A(2), rsys.type_A(3)):
            for a in rs.roots:
                for b in rs.roots:
                    lhs = rsys.pairing(rs, a, b)
                    rhs = sum(
                        b.covec[j] * sum(rs.cartan[j][k] * a.covec[k] for k in range(rs.rank))
                        for j in range(rs.rank)
                    )
                    # simply laced: vec == covec, so both routes agree
                    assert lhs == rhs


class TestReflect:
    def test_spec_values(self):
        rs = rsys.type_A(2)
        d1, d2 = rs.basis
        assert rsys.reflect(rs, d1, d1).vec == (-1, 0)
        assert rsys.reflect(rs, d1, d2).vec == (1, 1)

    def test_involution_a3(self):
        rs = rsys.type_A(3)
        for a in rs.roots:
            for x in rs.roots:
                assert rsys.reflect(rs, a, rsys.reflect(rs, a, x)) == x


class TestWeyl:
    def test_s3_size(self):
        assert len(rsys.weyl_elements(rsys.type_A(2))) == 6

    def test_positive_roots(self):
        rs1 = rsys.type_A(1)
        assert rsys.positive_roots(rs1) == {rs1.alpha(1, 2)}
        rs = rsys.type_A(3)
        assert rsys.positive_roots(rs) == {rs.alpha(i, j) for i in range(1, 5) for j in range(i + 1, 5)}

    def test_weyl_preserves_roots_a3(self):
        rs = rsys.type_A(3)
        ws = rsys.weyl_elements(rs)
        rng = random.Random(23)
        roots = sorted(rs.roots)
        for _ in range(50):
            w = rng.choice(ws)
            r = rng.choice(roots)
            assert w.act_root(r) in rs.roots

    def test_perm_action_matches_labels(self):
        rs = rsys.type_A(2)
        for w in rsys.weyl_elements(rs):
            s = w.perm
            for i in range(1, 4):
                for j in range(1, 4):
                    if i != j:
                        assert w.act_root(rs.alpha(i, j)) == rs.alpha(s[i - 1], s[j - 1])

    def test_simple_reflections_are_involutions(self):
        rs = rsys.type_A(3)
        n = rs.rank
        for w in rsys.weyl_elements(rs):
            if w.perm and sorted(
                k for k in range(1, 5) if w.perm[k - 1] != k
            ) in ([1, 2], [2, 3], [3, 4]):
                sq = mat_mul([list(r) for r in w.matrix], [list(r) for r in w.matrix])
                assert sq == identity(n)


class TestFromCartan:
    def test_recovers_a2(self):
        rs = rsys.from_cartan([[2, -1], [-1, 2]])
        assert len(rs.roots) == 6
        assert {r.vec for r in rs.roots} == {r.vec for r in rsys.type_A(2).roots}
        assert len(rsys.weyl_elements(rs)) == 6

    def test_b2_counts(self):
        rs = rsys.from_cartan([[2, -1], [-2, 2]])
        assert len(rs.roots) == 8
        assert len(rsys.weyl_elements(rs)) == 8

    def test_g2_counts(self):
        rs = rsys.from_cartan([[2, -1], [-3, 2]])
        assert len(rs.roots) == 12
        assert len(rsys.weyl_elements(rs)) == 12

    def test_affine_cartan_hits_bound(self):
        with pytest.raises(EnumerationBound):
            rsys.from_cartan([[2, -2], [-2, 2]])

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            rsys.from_cartan([[1, 0], [0, 2]])
        with pytest.raises(ValueError):
            rsys.from_cartan([[2, 1], [1, 2]])
        with pytest.raises(ValueError):
            rsys.from_cartan([[2, -1], [0, 2]])

    def test_b2_pairing_not_symmetric(self):
        rs = rsys.from_cartan([[2, -1], [-2, 2]])
        d1, d2 = rs.basis
        assert rsys.pairing(rs, d1, d2) == -1
        assert rsys.pairing(rs, d2, d1) == -2


B2, G2 = [[2, -1], [-2, 2]], [[2, -1], [-3, 2]]


@pytest.mark.parametrize("cartan", [B2, G2], ids=["B2", "G2"])
class TestNonSimplyLaced:
    """Both sides of reflections and products, where vec and covec differ."""

    def test_reflections_are_involutions_negating_their_root(self, cartan):
        rs = rsys.from_cartan(cartan)
        ident = rsys.weyl_identity(rs.rank)
        for beta in rs.roots:
            s = rsys.reflection(rs.cartan, beta)
            assert s.act_root(beta) == rsys.Root(
                tuple(-c for c in beta.vec), tuple(-c for c in beta.covec)
            )
            assert s @ s == ident
            for r in rs.roots:
                assert s.act_root(r) in rs.roots
                assert s.act_root(r).vec == rsys.reflect(rs, beta, r.vec)

    def test_product_acts_as_composition(self, cartan):
        rs = rsys.from_cartan(cartan)
        ws = rsys.weyl_elements(rs)
        for a in ws:
            for b in ws:
                for r in rs.roots:
                    assert (a @ b).act_root(r) == a.act_root(b.act_root(r))

    def test_affine_reflection_fixes_its_wall(self, cartan):
        rs = rsys.from_cartan(cartan)
        rng = random.Random(71)
        for alpha in sorted(rs.roots):
            ell = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            refl = apt.affine_reflection(rs, alpha, ell)
            for _ in range(5):
                x = apt.ApartmentVec(rs, [Fraction(rng.randint(-9, 9), 2) for _ in alpha.vec])
                b = apt.b_ext(x, alpha).finite_value
                # move x along alpha onto the wall: b(alpha, alpha^∨) = 2
                shift = (b - ell) / 2
                p = apt.ApartmentVec(rs, [c - shift * v for c, v in zip(x.coords, alpha.vec)])
                assert apt.on_wall(alpha, ell, p)
                assert apt.apply_weyl(refl, p) == p
                img = apt.apply_weyl(refl, x)
                assert apt.b_ext(img, alpha).finite_value == 2 * ell - b
                assert apt.apply_weyl(refl, img) == x


def test_cartan_inverse_exact():
    for rs in (rsys.type_A(2), rsys.type_A(3), rsys.from_cartan([[2, -1], [-2, 2]])):
        cartan = [list(r) for r in rs.cartan]
        prod = mat_mul(cartan, mat_inv(cartan))
        assert prod == identity(rs.rank)


def test_basis_sign_property_a2():
    # every root written in any Weyl image of the basis has coefficients of
    # one sign; exhaustive over W x roots for A_2
    rs = rsys.type_A(2)
    from lbldg.linalg import mat_vec

    for w in rsys.weyl_elements(rs):
        cols = [w.act_root(d).vec for d in rs.basis]
        mat = [[Fraction(cols[j][i]) for j in range(2)] for i in range(2)]
        inv = mat_inv(mat)
        for r in rs.roots:
            coeffs = mat_vec(inv, [Fraction(c) for c in r.vec])
            assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)

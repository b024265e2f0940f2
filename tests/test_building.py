"""Building charts: tropical membership, overlaps, root subgroups, stabilizers."""

import hashlib
import json
import random
from fractions import Fraction as Q
from itertools import permutations, product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lbldg import apartment as apt
from lbldg import building as bd
from lbldg.apartment import (
    ApartmentVec,
    HalfApartment,
    WConvexSet,
    affine_from_mu,
    apply_weyl,
    b_ext,
    in_half,
    in_wconvex,
    wconvex_witness,
)
from lbldg.errors import (
    IdentityElement,
    NotARoot,
    PrecisionError,
)
from lbldg.harness import generators
from lbldg.harness.generators import (
    gen_apartment_mu,
    gen_diagonal,
    gen_group_elem,
    gen_orthogonal,
    gen_root_elem,
    gen_unipotent,
    sample_in_region,
    trial_rng,
)
from lbldg.rootsys import type_A
from lbldg.symspace import GroupElem, SPDPoint, act, char_pencil, distance, mat_det, retract
from lbldg.valfield import series as fs
from oracles import (
    BOTTOM,
    Lam,
    brute_membership,
    fraction_witness,
    iwasawa_witness,
    overlap_systems,
    valuation,
)

A1 = type_A(1)
A2 = type_A(2)


def _g(rows):
    return GroupElem([[fs.parse(v) for v in row] for row in rows])


def _mu(rs, *vals):
    return ApartmentVec.from_mu(rs, [Q(v) for v in vals])


def _half(root, ell):
    return HalfApartment(root, Q(ell))


def _half_grid(span):
    k = int(2 * span)
    return [Q(m, 2) for m in range(-k, k + 1)]


def _sl2_grid(span):
    return [_mu(A1, a, -a) for a in _half_grid(span)]


def _sl3_grid(span):
    out = []
    for a in _half_grid(span):
        for b in _half_grid(span):
            out.append(_mu(A2, a, b, -a - b))
    return out


# --- tropical matrices ---------------------------------------------------------


def _trop_lam(g):
    """trop(g) read back in Lambda: S_ij / L, Bottom for None."""
    L, S = bd.trop(g)
    return [[BOTTOM if v is None else Lam(Q(v, L)) for v in row] for row in S]


def _max_plus(a, b):
    """Max-plus product of two tropical matrices."""
    n = len(a)
    return [[max(a[i][k] + b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


class TestTrop:
    def test_identity(self):
        L, S = bd.trop(GroupElem.identity(3))
        assert L == 1
        for i in range(3):
            for j in range(3):
                assert S[i][j] == (0 if i == j else None)

    def test_single_root_element(self):
        assert bd.trop(_g([["1", "t"], ["0", "1"]])) == (1, [[0, 1], [None, 0]])
        assert bd.trop(_g([["1", "t^(1/2)"], ["0", "1"]])) == (2, [[0, 1], [None, 0]])

    def test_orthogonal_rows_peak_at_zero(self):
        for trial in range(20):
            rng = trial_rng(3, "trop-orth", trial)
            k = gen_orthogonal(rng, 3)
            T = _trop_lam(k)
            assert max(v for row in T for v in row) == Lam(Q(0))

    def test_submultiplicative_under_max_plus(self):
        for trial in range(30):
            rng = trial_rng(3, "trop-mul", trial)
            a = gen_group_elem(rng, 3)
            b = gen_group_elem(rng, 3)
            lhs = _trop_lam(a @ b)
            rhs = _max_plus(_trop_lam(a), _trop_lam(b))
            for i in range(3):
                for j in range(3):
                    assert lhs[i][j] <= rhs[i][j]

    def test_masked_entry_raises(self):
        z = fs.with_floor(fs.ZERO, -5)
        g = GroupElem([[fs.ONE, z], [fs.ZERO, fs.ONE]])
        with pytest.raises(PrecisionError):
            bd.trop(g)


# --- chart membership ----------------------------------------------------------


class TestChartImage:
    def test_identity_chart_is_identity(self):
        for trial in range(10):
            rng = trial_rng(3, "chart-id", trial)
            mu = _mu(A2, *gen_apartment_mu(rng, 3))
            assert bd.chart_image(GroupElem.identity(3), mu) == mu

    def test_root_element_threshold(self):
        g = _g([["1", "t"], ["0", "1"]])
        assert bd.chart_image(g, _mu(A1, 1, -1)) == _mu(A1, 1, -1)
        assert bd.chart_image(g, _mu(A1, 0, 0)) is None

    def test_unipotent_rigidity(self):
        # an upper or lower unipotent moves no apartment point it preserves
        for trial in range(30):
            rng = trial_rng(3, "chart-rigid", trial)
            u = gen_unipotent(rng, 3, lower=bool(trial % 2))
            mu = _mu(A2, *gen_apartment_mu(rng, 3))
            nu = bd.chart_image(u, mu)
            assert nu is None or nu == mu

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            bd.chart_image(GroupElem.identity(3), _mu(A1, 0, 0))

    def test_brute_force_oracle_sl2(self):
        for trial in range(12):
            rng = trial_rng(3, "chart-brute2", trial)
            g = gen_group_elem(rng, 2)
            for mu in _sl2_grid(2):
                got = bd.chart_image(g, mu) is not None
                assert got == brute_membership(g, mu)

    def test_brute_force_oracle_sl3(self):
        for trial in range(4):
            rng = trial_rng(3, "chart-brute3", trial)
            g = gen_unipotent(rng, 3) @ gen_diagonal(rng, 3)
            for mu in _sl3_grid(1):
                got = bd.chart_image(g, mu) is not None
                assert got == brute_membership(g, mu)


# --- the overlap algorithm -----------------------------------------------------


class TestApartmentOverlap:
    def test_identity_overlaps_everywhere(self):
        reg, w = bd.apartment_overlap(GroupElem.identity(3))
        assert reg.constraints == ()
        assert w.perm == (1, 2, 3)
        assert list(w.translation.to_mu()) == [0, 0, 0]

    def test_root_element_half_apartment(self):
        reg, w = bd.apartment_overlap(_g([["1", "t"], ["0", "1"]]))
        assert w.perm == (1, 2)
        assert len(reg.constraints) == 1
        h = reg.constraints[0]
        assert h.root == (1, 2)
        assert h.threshold == Q(1)

    def test_monomial_reflection_element(self):
        reg, w = bd.apartment_overlap(_g([["0", "t"], ["-t^(-1)", "0"]]))
        assert reg.constraints == ()
        assert w.perm == (2, 1)
        assert list(w.translation.to_mu()) == [1, -1]

    def test_disjoint_chart(self):
        assert bd.apartment_overlap(_g([["1 + t^2", "t"], ["t", "1"]])) is None

    def test_single_factors_have_nonempty_overlap(self):
        # triangular factors keep their zero diagonal permutation, diagonal
        # factors sum to zero, and orthogonal factors have an O-inverse, so
        # each family alone always meets the model apartment
        for trial in range(20):
            rng = trial_rng(3, "overlap-nonempty", trial)
            for g in (
                gen_unipotent(rng, 3),
                gen_unipotent(rng, 3, lower=True),
                gen_diagonal(rng, 3),
                gen_orthogonal(rng, 3),
            ):
                assert bd.apartment_overlap(g) is not None

    def test_empty_overlap_means_no_membership(self):
        # products of generators can push the whole model apartment out of
        # the chart; emptiness must then be visible pointwise
        seen_empty = 0
        for trial in range(40):
            rng = trial_rng(3, "overlap-empty", trial)
            g = gen_group_elem(rng, 3)
            if bd.apartment_overlap(g) is not None:
                continue
            seen_empty += 1
            for mu in _sl3_grid(1):
                assert bd.chart_image(g, mu) is None
        assert seen_empty >= 3

    def test_coherence_with_chart_image(self):
        hits = 0
        for trial in range(40):
            rng = trial_rng(3, "overlap-coherent", trial)
            g = gen_group_elem(rng, 3)
            res = bd.apartment_overlap(g)
            if res is None:
                continue
            hits += 1
            reg, w = res
            assert len(reg.constraints) <= 6
            for mu in sample_in_region(rng, reg, 6):
                assert bd.chart_image(g, mu) == apply_weyl(w, mu)
        assert hits >= 25

    def test_membership_boundary_is_sharp(self):
        for trial in range(20):
            rng = trial_rng(3, "overlap-sharp", trial)
            g = gen_group_elem(rng, 3)
            res = bd.apartment_overlap(g)
            for mu in _sl3_grid(1):
                inside = bd.chart_image(g, mu) is not None
                if res is None:
                    assert not inside
                else:
                    assert inside == in_wconvex(res[0], mu)

    def test_json_shapes(self):
        assert bd.overlap_to_json(None) == {"empty": True}
        data = bd.overlap_to_json(bd.apartment_overlap(_g([["1", "t"], ["0", "1"]])))
        assert data["constraints"] == [{"i": 1, "j": 2, "ell": "1"}]
        assert data["weyl"] == {"perm": [1, 2], "translation": ["0", "0"]}

    def test_four_by_four(self):
        rng = trial_rng(3, "overlap-4", 0)
        g = gen_group_elem(rng, 4)
        res = bd.apartment_overlap(g)
        assert res is not None
        reg, w = res
        mu = sample_in_region(rng, reg, 1)[0]
        assert bd.chart_image(g, mu) == apply_weyl(w, mu)


# --- the overlap against an exhaustive oracle ------------------------------------


def _oracle_region(rs, T, sigma):
    """Half-apartment system {mu_{sigma(i)} - mu_j >= T_ij - T_{i sigma(i)}}."""
    n = rs.rank + 1
    cons = []
    for i in range(1, n + 1):
        a = sigma[i - 1]
        base = T[i - 1][a - 1].v
        for j in range(1, n + 1):
            tij = T[i - 1][j - 1]
            if j != a and tij != BOTTOM:
                cons.append(HalfApartment(rs.alpha(a, j), tij.v - base))
    return WConvexSet(rs, tuple(cons))


def _oracle_overlap(g):
    """The overlap by exhaustive search in Lambda, on valuations read entry
    by entry: every optimal permutation's region, a Bellman-Ford witness for
    each, and the first region in lex order that contains every witness.
    The argument in apartment_overlap's docstring says that region exists;
    AssertionError if it does not."""
    n = g.n
    rs = type_A(n - 1)
    T = [[valuation(e) for e in row] for row in g.entries]
    best, opt = BOTTOM, []
    for sigma in permutations(range(1, n + 1)):
        tot = Lam(Q(0))
        for i in range(n):
            tot = tot + T[i][sigma[i] - 1]
        if tot == BOTTOM:
            continue
        if best < tot:
            best, opt = tot, [sigma]
        elif tot == best:
            opt.append(sigma)
    if best > Lam(Q(0)):
        return None
    if best != BOTTOM and best < Lam(Q(0)):
        raise ValueError("the tropical permanent is negative, so g is not in SL(n)")
    regions = [(sigma, _oracle_region(rs, T, sigma)) for sigma in opt]
    witnesses = [wconvex_witness(reg) for _, reg in regions]
    points = [ApartmentVec.from_mu(rs, w) for w in witnesses if w is not None]
    if not points:
        raise AssertionError("no feasible region despite a zero tropical permanent")
    for sigma, reg in regions:
        if all(in_wconvex(reg, p) for p in points):
            c = [T[i][sigma[i] - 1].v for i in range(n)]
            return reg, affine_from_mu(rs, sigma, c)
    raise AssertionError("no optimal permutation's region covers all witnesses")


def _outcome(overlap, g):
    """Overlap JSON text, or the type and message of what it raised."""
    try:
        return json.dumps(bd.overlap_to_json(overlap(g)), sort_keys=True)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _solve_count(g):
    """How many difference_potentials calls apartment_overlap makes on g,
    through the apartment module or a name bound in building."""
    calls = []

    def recording(m, cons):
        calls.append(cons)
        return solve(m, cons)

    solve = apt.difference_potentials
    with patch.object(apt, "difference_potentials", recording), \
            patch.object(bd, "difference_potentials", recording, create=True):
        _outcome(bd.apartment_overlap, g)
    return len(calls)


def _monomials(rows):
    """Group element (not validated) from (exponent, coefficient) pairs;
    None is an exact zero."""
    return GroupElem(
        [[fs.ZERO if e is None else fs.monomial(Q(e[0]), Q(e[1])) for e in row] for row in rows],
        validate=False,
    )


def _unit_block(k):
    """Entries k - max(i, j): positive integers, determinant 1, trop = 0."""
    return [[k - max(i, j) for j in range(k)] for i in range(k)]


def _block_diagonal(sizes):
    n = sum(sizes)
    rows = [[None] * n for _ in range(n)]
    off = 0
    for k in sizes:
        for i, row in enumerate(_unit_block(k)):
            for j, v in enumerate(row):
                rows[off + i][off + j] = (0, v)
        off += k
    return _monomials(rows)


def _diagonal(exps):
    n = len(exps)
    return _monomials([[(exps[i], 1) if i == j else None for j in range(n)] for i in range(n)])


def _scaled(exps, g):
    """diag(t^e) g diag(t^-e): the same ties on a finer exponent lattice."""
    return _diagonal(exps) @ g @ _diagonal([-e for e in exps])


MIXED = [Q(1, 2), Q(1, 3), Q(-1, 2), Q(-1, 3), 0]
TIED = {
    # every entry a unit: all 120 permutations are optimal
    "units": _block_diagonal([5]),
    "units_mixed": _scaled(MIXED, _block_diagonal([5])),
    # block-diagonal products keep exact zeros; 96, 72, 48, 36 and 24 ties
    "blocks_41_14": _block_diagonal([4, 1]) @ _block_diagonal([1, 4]),
    "blocks_32_14": _block_diagonal([3, 2]) @ _block_diagonal([1, 4]),
    "blocks_221_14": _block_diagonal([2, 2, 1]) @ _block_diagonal([1, 4]),
    "blocks_32_23": _block_diagonal([3, 2]) @ _block_diagonal([2, 3]),
    "blocks_131_41": _block_diagonal([1, 3, 1]) @ _block_diagonal([4, 1]),
    "blocks_mixed": _scaled(MIXED, _block_diagonal([4, 1]) @ _block_diagonal([1, 4])),
}
# every TIED element's lex-first optimal permutation is the identity; six
# seeded row permutations of each move it, so a rule that returned the
# identity whenever it is optimal would fail
ROW_PERMUTED = {
    f"{name}_rows{k}": bd.normalizer_of(
        affine_from_mu(type_A(4), trial_rng(11, f"tied-rows-{name}", k).sample(range(1, 6), 5),
                       [0] * 5)
    ) @ g
    for name, g in TIED.items()
    for k in range(6)
}


def _seeded(n, denom, count):
    with patch.object(generators, "DENOM", denom):
        return [gen_group_elem(trial_rng(11, f"oracle-{n}-{denom}", k), n) for k in range(count)]


def _unvalidated(n, count):
    """Monomial matrices with no determinant condition, a third of the
    entries exact zeros: the tropical permanent may be nonzero."""
    out = []
    for k in range(count):
        rng = trial_rng(11, f"oracle-free-{n}", k)
        rows = [
            [None if rng.random() < 0.33 else (Q(rng.randint(-6, 6), rng.choice([1, 2, 3])), 1)
             for _ in range(n)]
            for _ in range(n)
        ]
        out.append(_monomials(rows))
    return out


def _all_bottom(g):
    """Every permutation meets an exact zero."""
    _, S = bd.trop(g)
    return all(any(S[i][s[i]] is None for i in range(g.n)) for s in permutations(range(g.n)))


def _with_zeros(n, count):
    """Seeded elements with exact zeros: unipotent, diagonal and root
    elements, and those of count unvalidated monomial matrices that have a
    finite permutation."""
    rng = trial_rng(11, "oracle-zeros", n)
    elems = [gen_unipotent(rng, n), gen_unipotent(rng, n, lower=True),
             gen_diagonal(rng, n), gen_root_elem(rng, n).as_group()]
    return elems + [g for g in _unvalidated(n, count) if not _all_bottom(g)]


# draws per size for the oracle comparisons: the oracle's n! search in
# Lambda takes about 1 s per seeded element at n = 7
SEEDED_DRAWS = {2: 30, 3: 30, 4: 30, 5: 12, 6: 3, 7: 2}
FREE_DRAWS = {2: 40, 3: 40, 4: 40, 5: 40, 6: 4, 7: 2}


class TestOverlapOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("denom", [2, 6])
    def test_seeded_elements(self, n, denom):
        for g in _seeded(n, denom, SEEDED_DRAWS[n]):
            assert _outcome(bd.apartment_overlap, g) == _outcome(_oracle_overlap, g)
            assert _solve_count(g) == 0

    @pytest.mark.parametrize("name", sorted(TIED) + sorted(ROW_PERMUTED))
    def test_tie_heavy_elements(self, name):
        g = TIED[name] if name in TIED else ROW_PERMUTED[name]
        assert _outcome(bd.apartment_overlap, g) == _outcome(_oracle_overlap, g)

    def test_row_permuted_ties_leave_the_identity(self):
        identity = tuple(range(1, 6))
        assert all(bd.apartment_overlap(g)[1].perm == identity for g in TIED.values())
        moved = [name for name, g in ROW_PERMUTED.items()
                 if bd.apartment_overlap(g)[1].perm != identity]
        assert len(moved) == 20

    def test_mixed_denominators(self):
        g = TIED["units_mixed"]
        L, S = bd.trop(g)
        dens = {Q(v, L).denominator for row in S for v in row}
        assert dens == {1, 2, 3, 6}
        reg, _ = bd.apartment_overlap(g)
        assert {h.threshold.denominator for h in reg.constraints} == {1, 2, 3, 6}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_exact_zeros(self, n):
        elems = _with_zeros(n, FREE_DRAWS[n])
        assert any(e == fs.ZERO for g in elems for row in g.entries for e in row)
        for g in elems:
            assert _outcome(bd.apartment_overlap, g) == _outcome(_oracle_overlap, g)
            assert _solve_count(g) == 0

    def test_negative_permanent_is_not_in_sl_n(self):
        g = _diagonal([-1, 0])
        with pytest.raises(ValueError, match="tropical permanent is negative, so g is not in SL"):
            bd.apartment_overlap(g)

    def test_zero_row_is_singular(self):
        g = _monomials([[None, None, None], [(0, 1), (1, 1), None], [None, (0, 2), (0, 1)]])
        assert _all_bottom(g)
        with pytest.raises(ValueError, match="no permutation has a finite tropical product"):
            bd.apartment_overlap(g)


def _brute_assignment(S):
    """The lex-first permutation of largest finite total by trying all n!,
    as (total, sigma), or None when every permutation meets a None."""
    best = None
    for sigma in permutations(range(len(S))):
        picked = [row[a] for row, a in zip(S, sigma)]
        if None not in picked and (best is None or sum(picked) > best[0]):
            best = (sum(picked), sigma)
    return best


@st.composite
def _tie_matrices(draw):
    """Int matrices at n = 2..6 from a small range, so that optimal
    permutations tie often, with None entries and now and then a row or a
    column of None."""
    n = draw(st.integers(2, 6))
    cell = st.one_of(st.none(), st.integers(-2, 2), st.integers(-2, 2))  # a third None
    S = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    blank = draw(st.sampled_from(["none", "none", "row", "column"]))
    k = draw(st.integers(0, n - 1))
    if blank == "row":
        S[k] = [None] * n
    elif blank == "column":
        for row in S:
            row[k] = None
    return S


class TestLexFirstAssignment:
    @given(_tie_matrices())
    # two rows with one finite column between them: no full row or column
    # of None, yet no perfect matching
    @example([[0, None, None], [0, None, None], [0, 0, 0]])
    @settings(max_examples=300, deadline=None)
    def test_matches_the_exhaustive_search(self, S):
        assert bd._lex_first_assignment(S) == _brute_assignment(S)


class TestOverlapWorkCounts:
    """Deterministic counts on an all-tied n = 5 element: only the returned
    region becomes a WConvexSet, and no apartment membership test runs."""

    def test_all_tied_element(self, monkeypatch):
        counts = {"regions": 0}
        region = bd.WConvexSet

        def counting_region(*args):
            counts["regions"] += 1
            return region(*args)

        def forbidden(*args):
            raise AssertionError("in_wconvex called")

        monkeypatch.setattr(bd, "WConvexSet", counting_region)
        monkeypatch.setattr(apt, "in_wconvex", forbidden)
        monkeypatch.setattr(bd, "in_wconvex", forbidden, raising=False)
        reg, w = bd.apartment_overlap(TIED["units"])
        assert counts == {"regions": 1}
        assert w.perm == (1, 2, 3, 4, 5) and len(reg.constraints) == 20



OPTIMAL_DRAWS = {
    **{f"seeded-{n}-{denom}": lambda n=n, denom=denom: _seeded(n, denom, SEEDED_DRAWS[n])
       for n in (2, 3, 4, 5) for denom in (2, 6)},
    **{f"zeros-{n}": lambda n=n: _with_zeros(n, FREE_DRAWS[n]) for n in (2, 3, 4, 5)},
    "tied": lambda: list(TIED.values()),
}


class TestOptimalRegionsAgree:
    """The argument apartment_overlap returns the first optimal region on:
    the Bellman-Ford witness of every optimal permutation's difference
    system exists and satisfies every other optimal system, over the
    oracle tests' draws."""

    @pytest.mark.parametrize("draws", sorted(OPTIMAL_DRAWS))
    def test_each_witness_satisfies_every_optimal_system(self, draws):
        pairs = 0
        for g in OPTIMAL_DRAWS[draws]():
            systems = overlap_systems(bd.trop(g)[1])
            for cons in systems:
                d = apt.difference_potentials(g.n, cons)
                assert d is not None
                for other in systems:
                    assert all(d[i - 1] - d[j - 1] >= ell for i, j, ell in other)
                pairs += len(systems) - 1
        if draws == "tied":
            assert pairs > 0


# --- sampling an overlap region -------------------------------------------------


def _region(n, cons):
    """The region mu_i - mu_j >= ell over every (i, j, ell) in cons."""
    rs = type_A(n - 1)
    return WConvexSet(
        rs, tuple(HalfApartment(rs.alpha(i, j), Q(ell)) for i, j, ell in cons)
    )


def _box_support(reg, denom, span):
    """Every point the sampler may return, by enumerating its box."""
    w = wconvex_witness(reg)
    bound = span * denom
    out = set()
    for d in product(range(-bound, bound + 1), repeat=len(w) - 1):
        o = list(d) + [-sum(d)]
        mu = ApartmentVec.from_mu(reg.rs, [v + Q(k, denom) for v, k in zip(w, o)])
        if in_wconvex(reg, mu):
            out.add(mu)
    return out


@st.composite
def _difference_systems(draw, sizes=(3, 4, 5)):
    """Random mu_i - mu_j >= ell systems around a hidden point: inequalities
    it meets with slack, equality pairs through it, and now and then a
    threshold drawn freely, which can make the system infeasible.  Zero
    constraints leave the region unbounded."""
    n = draw(st.sampled_from(sizes))
    hidden = [Q(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2, 3]))) for _ in range(n)]
    cons = []
    for _ in range(draw(st.integers(0, n * (n - 1)))):
        i, j = draw(st.permutations(range(1, n + 1)))[:2]
        kind = draw(st.sampled_from(["slack", "slack", "equal", "free"]))
        if kind == "free":
            cons.append((i, j, Q(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2, 3])))))
            continue
        ell = hidden[i - 1] - hidden[j - 1]
        if kind == "slack":
            cons.append((i, j, ell - Q(draw(st.integers(0, 4)), draw(st.sampled_from([1, 2, 3])))))
        else:
            cons += [(i, j, ell), (j, i, -ell)]
    return _region(n, cons)


def _box(denom, span):
    """sample_in_region with its box set to denom and span."""
    return patch.multiple(generators, REGION_DENOM=denom, REGION_SPAN=span)


class TestSampleInRegion:
    @given(
        _difference_systems(),
        st.integers(1, 25),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([0, 1, 2]),
        st.integers(0, 2**32),
    )
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("error:non-integer arguments to randrange:DeprecationWarning")
    def test_points_are_distinct_region_points(self, reg, count, denom, span, seed):
        with _box(denom, span):
            pts = sample_in_region(random.Random(seed), reg, count)
            again = sample_in_region(random.Random(seed), reg, count)
        w = wconvex_witness(reg)
        if w is None:
            assert pts == []
            return
        assert pts[0] == ApartmentVec.from_mu(reg.rs, w)
        assert 1 <= len(pts) <= count and len(set(pts)) == len(pts)
        assert all(in_wconvex(reg, p) for p in pts)
        assert again == pts

    @given(_difference_systems(sizes=(3, 4)), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_draws_cover_a_small_box(self, reg, seed):
        """With a 3^(n-1) box, 1000 draws reach every region point in it."""
        if wconvex_witness(reg) is None:
            return
        with _box(1, 1):
            got = set(sample_in_region(random.Random(seed), reg, 1000))
        assert _box_support(reg, 1, 1) <= got

    def test_tied_coordinates_move_together(self):
        # mu_1 = mu_2 = mu_3 = mu_4 and 0 <= mu_1 - mu_5 <= 5/2: one box
        # point besides the witness, 1 in 6561 of the box; a draw elsewhere
        # lands on the segment, so 20 draws still reach it
        ties = [(1, 2, 0), (2, 1, 0), (2, 3, 0), (3, 2, 0), (3, 4, 0), (4, 3, 0)]
        reg = _region(5, ties + [(1, 5, 0), (5, 1, "-5/2")])
        got = set(sample_in_region(random.Random(0), reg, 20))
        assert _box_support(reg, generators.REGION_DENOM, generators.REGION_SPAN) <= got
        assert all(len(set(p.to_mu()[:4])) == 1 for p in got)

    def test_equality_pair(self):
        reg = _region(4, [(1, 2, "1/2"), (2, 1, "-1/2")])
        pts = sample_in_region(trial_rng(1, "thin", 0), reg, 20)
        assert len(set(pts)) == len(pts) > 1
        assert all(b_ext(p, reg.rs.alpha(1, 2)) == Q(1, 2) for p in pts)

    def test_single_point_region_returns_the_witness(self):
        reg = _region(3, [(1, 2, "1/2"), (2, 1, "-1/2"), (2, 3, 1), (3, 2, -1)])
        w = ApartmentVec.from_mu(A2, wconvex_witness(reg))
        assert sample_in_region(trial_rng(1, "point", 0), reg, 20) == [w]

    def test_empty_region_and_zero_count(self):
        reg = _region(3, [(1, 2, 1), (2, 1, 0)])
        assert sample_in_region(random.Random(0), reg, 20) == []
        assert sample_in_region(random.Random(0), _region(3, []), 0) == []

    def test_never_tests_membership(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("in_wconvex called")

        monkeypatch.setattr(apt, "in_wconvex", forbidden)
        monkeypatch.setattr(generators, "in_wconvex", forbidden, raising=False)
        sampled = 0
        for trial in range(20):
            rng = trial_rng(3, "sample-work", trial)
            res = bd.apartment_overlap(gen_group_elem(rng, 4))
            if res is not None:
                sampled += len(sample_in_region(rng, res[0], 20))
        assert sampled >= 100

    def test_seeded_draws_of_overlap_regions(self):
        """20-point draws over 25 seeded nonempty overlaps at each n = 3, 4
        and 5, half of them on the 1/6 exponent lattice, and where each
        draw leaves its stream: the exact points and their order."""
        lines = []
        for n in (3, 4, 5):
            regions = 0
            for trial in range(1000):
                rng = trial_rng(trial, "sample-digest", n)
                with patch.object(generators, "DENOM", 6 if trial % 2 else 2):
                    g = gen_group_elem(rng, n)
                res = bd.apartment_overlap(g)
                if res is None:
                    continue
                pts = sample_in_region(rng, res[0], 20)
                lines.append(f"{n} {trial} " + " ".join(",".join(map(str, p.to_mu())) for p in pts))
                lines.append(f"next {rng.getrandbits(32)}")
                regions += 1
                if regions == 25:
                    break
        assert len(lines) == 150
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "b1bc989d1799bbd8723e34ad0f088a556c74114020d9b3ff002949e9e993d48f"


@st.composite
def _free_regions(draw, denoms):
    """Regions with thresholds drawn freely over denoms; denominator 1 gives
    a plain int threshold, as HalfApartment allows."""
    n = draw(st.sampled_from([3, 4, 5]))
    rs = type_A(n - 1)
    halves = []
    for _ in range(draw(st.integers(0, n))):
        i, j = draw(st.permutations(range(1, n + 1)))[:2]
        ell, den = draw(st.integers(-6, 6)), draw(st.sampled_from(denoms))
        halves.append(HalfApartment(rs.alpha(i, j), ell if den == 1 else Q(ell, den)))
    return WConvexSet(rs, tuple(halves))


class TestWitnessOracle:
    """wconvex_witness solves on ints over the lcm of the threshold
    denominators; a Bellman-Ford on Fractions is the reference."""

    @given(
        st.one_of(
            _difference_systems(),
            _free_regions((1,)),
            _free_regions((1, 2, 3, 4, 5)),
            st.sampled_from([_region(n, []) for n in (3, 4, 5)]),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_fraction_witness(self, reg):
        w = wconvex_witness(reg)
        assert w == fraction_witness(reg)
        assert w is None or all(type(v) is Q for v in w)

    def test_mixed_denominators_reach_bellman_ford_as_ints(self):
        reg, _ = bd.apartment_overlap(TIED["units_mixed"])
        assert {h.threshold.denominator for h in reg.constraints} == {1, 2, 3, 6}
        seen, solve = [], apt.difference_potentials

        def recording(m, cons):
            seen.extend(ell for _, _, ell in cons)
            return solve(m, cons)

        with patch.object(apt, "difference_potentials", recording):
            w = wconvex_witness(reg)
        assert len(seen) == len(reg.constraints)
        assert all(type(ell) is int for ell in seen)
        assert w == fraction_witness(reg)


# --- stabilizer of the base point ----------------------------------------------


class TestStabO:
    def test_orthogonal_elements_fix_o(self):
        for trial in range(20):
            rng = trial_rng(3, "stab-orth", trial)
            assert bd.stab_o(gen_orthogonal(rng, 3))

    def test_diagonal_translation_moves_o(self):
        assert not bd.stab_o(_g([["t", "0"], ["0", "t^(-1)"]]))

    def test_small_root_element_fixes_o(self):
        assert bd.stab_o(_g([["1", "t^(-1)"], ["0", "1"]]))

    def test_matches_zero_distance(self):
        o = SPDPoint.basepoint(3)
        for trial in range(60):
            rng = trial_rng(3, "stab-dist", trial)
            g = gen_group_elem(rng, 3)
            assert bd.stab_o(g) == (distance(o, act(g, o)) == 0)


# --- root group valuation ------------------------------------------------------


class TestPhi:
    def test_values(self):
        assert bd.phi(bd.RootElem(2, 1, 2, fs.parse("t"))) == 1
        assert bd.phi(bd.RootElem(2, 1, 2, fs.ZERO)) is None

    def test_ultrametric_on_products(self):
        for trial in range(100):
            rng = trial_rng(3, "phi-ultra", trial)
            u = gen_root_elem(rng, 3)
            _, i, j, s1 = u
            s2 = fs.monomial(
                Q(rng.randint(-4, 4), rng.choice([1, 2])),
                Q(rng.choice([1, -1, 2, -2]), rng.choice([1, 2])),
            )
            v = bd.RootElem(3, i, j, s2)
            uv = bd.RootElem(3, i, j, fs.add(s1, s2))
            assert u.as_group() @ v.as_group() == uv.as_group()
            pu, pv, puv = Lam(bd.phi(u)), Lam(bd.phi(v)), Lam(bd.phi(uv))
            bound = max(pu, pv)
            assert puv <= bound
            if pu != pv:
                assert puv == bound


# --- fixed sets ------------------------------------------------------------------


def _root_fixed_sets(u):
    """The fixed half-apartments of the root elements at the nonzero
    entries of an upper unipotent u; u fixes their intersection."""
    n = u.n
    return WConvexSet(
        type_A(n - 1),
        tuple(
            bd.fixed_set_root(bd.RootElem(n, i + 1, j + 1, u.entries[i][j]))
            for i in range(n)
            for j in range(i + 1, n)
            if not fs.provably_zero(u.entries[i][j])
        ),
    )


class TestFixedSets:
    def test_root_element_upper(self):
        h = bd.fixed_set_root(bd.RootElem(2, 1, 2, fs.parse("t")))
        assert h.root == (1, 2)
        assert type(h.threshold) is Q and h.threshold == 1

    def test_root_element_lower(self):
        h = bd.fixed_set_root(bd.RootElem(2, 2, 1, fs.parse("t^(-1)")))
        assert h.root == (2, 1)
        assert h.threshold == Q(-1)

    def test_identity_rejected(self):
        with pytest.raises(IdentityElement):
            bd.fixed_set_root(bd.RootElem(2, 1, 2, fs.ZERO))

    def test_grid_agreement_with_chart(self):
        grid = _sl3_grid(2)
        for trial in range(10):
            rng = trial_rng(3, "fix-grid", trial)
            u = gen_root_elem(rng, 3)
            h = bd.fixed_set_root(u)
            gmat = u.as_group()
            for mu in grid:
                assert in_half(h, mu) == (bd.chart_image(gmat, mu) is not None)

    def test_conjugation_shifts_threshold(self):
        for trial in range(30):
            rng = trial_rng(3, "fix-conj", trial)
            u = gen_root_elem(rng, 3)
            i, j = u.i, u.j
            a = gen_diagonal(rng, 3)
            exps = [fs.negval(a.entries[k][k]) for k in range(3)]
            conj = a @ u.as_group() @ a.inverse()
            moved = bd.RootElem(3, i, j, conj.entries[i - 1][j - 1])
            got = bd.fixed_set_root(moved)
            want = bd.phi(u) + exps[i - 1] - exps[j - 1]
            assert got.threshold == want

    def test_unipotent_identity_fixes_everything(self):
        ident = GroupElem.identity(3)
        region, _ = bd.apartment_overlap(ident)
        assert region.constraints == ()
        assert all(bd.chart_image(ident, mu) == mu for mu in _sl3_grid(1))

    def test_unipotent_example_with_grid(self):
        u = _g([["1", "t", "t^3"], ["0", "1", "0"], ["0", "0", "1"]])
        s = _root_fixed_sets(u)
        labels = {h.root: h.threshold for h in s.constraints}
        assert labels == {(1, 2): Q(1), (1, 3): Q(3)}
        for mu in _sl3_grid(2):
            assert in_wconvex(s, mu) == (bd.chart_image(u, mu) is not None)

    def test_factor_order_and_product(self):
        # in the (i, j - i) descending root order the root elements at the
        # entries of u multiply back to u with no cross terms
        order = sorted(
            ((i, j) for i in range(1, 5) for j in range(i + 1, 5)),
            key=lambda p: (p[0], p[1] - p[0]),
            reverse=True,
        )
        for trial in range(20):
            rng = trial_rng(3, "fix-factors", trial)
            u = gen_unipotent(rng, 4)
            prod = GroupElem.identity(4)
            for i, j in order:
                prod = prod @ bd.RootElem(4, i, j, u.entries[i - 1][j - 1]).as_group()
            assert prod == u

    def test_grid_agreement_random_unipotent(self):
        for trial in range(12):
            rng = trial_rng(3, "fix-uni-grid", trial)
            u = gen_unipotent(rng, 3)
            s = _root_fixed_sets(u)
            for mu in _sl3_grid(1):
                assert in_wconvex(s, mu) == (bd.chart_image(u, mu) is not None)

    def test_integral_unipotent_fixes_chamber_points(self):
        for trial in range(15):
            rng = trial_rng(3, "fix-chamber", trial)
            rows = [[fs.ONE if i == j else fs.ZERO for j in range(3)] for i in range(3)]
            for i in range(3):
                for j in range(i + 1, 3):
                    exp = Q(rng.randint(-4, 0), rng.choice([1, 2]))
                    c = rng.choice([0, 1, -1, 2])
                    if c:
                        rows[i][j] = fs.monomial(exp, c)
            u = GroupElem(rows, validate=False)
            mu = _mu(A2, *gen_apartment_mu(rng, 3))
            dom = sorted(mu.to_mu(), reverse=True)
            pt = _mu(A2, *dom)
            assert bd.chart_image(u, pt) == pt


# --- rank-one reflections --------------------------------------------------------


class TestMOf:
    def test_matrix_and_datum(self):
        u = bd.RootElem(2, 1, 2, fs.parse("t"))
        m, root, ell = bd.m_of(u)
        assert m == _g([["0", "t"], ["-t^(-1)", "0"]])
        assert root == (1, 2)
        assert type(ell) is Q and ell == 1

    def test_identity_rejected(self):
        with pytest.raises(IdentityElement):
            bd.m_of(bd.RootElem(2, 1, 2, fs.ZERO))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_determinant_is_one(self, n):
        # m_of builds its element unvalidated; this is the check it skips
        for trial in range(40):
            m, _, _ = bd.m_of(gen_root_elem(trial_rng(4, "mof-det", trial), n))
            assert mat_det(m.entries) == fs.ONE

    @pytest.mark.parametrize("i, j", [(1, 5), (1, 1), (0, 2), (4, 1)])
    def test_pair_that_names_no_root(self, i, j):
        # checked before the matrix is indexed, as in fixed_set_root
        with pytest.raises(NotARoot, match=rf"no root labelled \({i}, {j}\)"):
            bd.m_of(bd.RootElem(3, i, j, fs.parse("t")))

    @pytest.mark.parametrize("fn", [bd.phi, bd.fixed_set_root, bd.RootElem.as_group])
    @pytest.mark.parametrize("i, j", [(1, 5), (1, 1), (0, 2), (4, 1)])
    def test_every_reader_rejects_the_pair_alike(self, fn, i, j):
        # one bad pair, one answer from every reader of a root element
        with pytest.raises(NotARoot, match=rf"no root labelled \({i}, {j}\)"):
            fn(bd.RootElem(3, i, j, fs.parse("t")))

    def test_wall_fixed_and_halves_swapped(self):
        for trial in range(20):
            rng = trial_rng(3, "mof-wall", trial)
            u = gen_root_elem(rng, 3)
            i, j = u.i, u.j
            m, root, ell = bd.m_of(u)
            _, w = bd.apartment_overlap(m)
            for k in range(5):
                mu = list(gen_apartment_mu(rng, 3))
                # project onto the wall: shift the i and j slots so the root
                # value is exactly the level
                gap = (ell - (mu[i - 1] - mu[j - 1])) / 2
                mu[i - 1] += gap
                mu[j - 1] -= gap
                pt = _mu(A2, *mu)
                assert b_ext(pt, root) == ell
                assert apply_weyl(w, pt) == pt
                # push off the wall: the two sides trade places
                off = [Q(1) if a == i - 1 else (Q(-1) if a == j - 1 else Q(0)) for a in range(3)]
                plus = _mu(A2, *[m + o for m, o in zip(mu, off)])
                minus = _mu(A2, *[m - o for m, o in zip(mu, off)])
                assert apply_weyl(w, plus) == minus
                assert apply_weyl(w, minus) == plus

    def test_square_acts_trivially(self):
        for trial in range(20):
            rng = trial_rng(3, "mof-square", trial)
            m, _, _ = bd.m_of(gen_root_elem(rng, 3))
            _, w = bd.apartment_overlap(m @ m)
            for k in range(10):
                mu = _mu(A2, *gen_apartment_mu(rng, 3))
                assert apply_weyl(w, mu) == mu

    def test_triple_product_identity(self):
        for trial in range(20):
            rng = trial_rng(3, "mof-triple", trial)
            u = gen_root_elem(rng, 3)
            _, i, j, s = u
            m, _, _ = bd.m_of(u)
            e, c = s.terms[0]
            uprime = bd.RootElem(3, j, i, fs.monomial(-e, -1 / c))
            assert bd.phi(uprime) == -bd.phi(u)
            assert uprime.as_group() @ u.as_group() @ uprime.as_group() == m

    @pytest.mark.parametrize("s", ["t + 1", "t + O(t^(-1))", "t^(1/2) - 2*t^(-3)"])
    def test_non_monomial_parameter_is_refused(self, s):
        # -1/s is an infinite series, or known only above a floor: no exact m(u)
        with pytest.raises(ValueError, match=r"m\(u\) needs a monomial parameter with no floor"):
            bd.m_of(bd.RootElem(2, 1, 2, fs.parse(s)))


# --- stabilizer shape predicates --------------------------------------------------


class TestStabPredicates:
    def test_apartment_pointwise(self):
        assert bd.stab_apartment(_g([["-1", "0"], ["0", "-1"]]))
        assert bd.stab_apartment(_g([["1/2", "0"], ["0", "2"]]))
        assert not bd.stab_apartment(_g([["t", "0"], ["0", "t^(-1)"]]))
        assert not bd.stab_apartment(_g([["1", "t^(-1)"], ["0", "1"]]))

    def test_chamber(self):
        assert bd.stab_chamber(_g([["1", "t^(-1)"], ["0", "1"]]))
        assert not bd.stab_chamber(_g([["1", "t"], ["0", "1"]]))
        assert not bd.stab_chamber(_g([["1", "0"], ["1", "1"]]))

    def test_half_apartment_shape(self):
        g = _g([["1", "t"], ["0", "1"]])
        assert bd.stab_half_apartment(g, _half((1, 2), 1))
        assert not bd.stab_half_apartment(g, _half((1, 2), 0))
        assert bd.stab_half_apartment(GroupElem.identity(2), _half((1, 2), 0))
        assert not bd.stab_half_apartment(_g([["1", "0"], ["t", "1"]]), _half((1, 2), 1))

    @pytest.mark.parametrize("root", [(0, 5), (1, 1), (4, 1)])
    def test_half_apartment_target_names_a_root(self, root):
        with pytest.raises(NotARoot):
            bd.stab_half_apartment(GroupElem.identity(3), _half(root, 0))


# --- apartment points and normalizers ---------------------------------------------


class TestRealizations:
    def test_x_mu_basepoint(self):
        assert bd.x_mu(ApartmentVec.from_mu(A2, [0, 0, 0])) == SPDPoint.basepoint(3)

    def test_x_mu_sum_check(self):
        with pytest.raises(ValueError):
            bd.x_mu(ApartmentVec.from_mu(A1, [1, 1]))

    @pytest.mark.parametrize("mu", [[1, -1.0], [0.5, -0.5], ["1", "-1"]])
    def test_x_mu_reads_lists_as_apartment_input(self, mu):
        with pytest.raises(TypeError, match="unsupported Lambda payload"):
            bd.x_mu(ApartmentVec.from_mu(A1, mu))

    def test_normalizer_action_matches_weyl(self):
        for trial in range(30):
            rng = trial_rng(3, "norm-act", trial)
            n = rng.choice([2, 3])
            rs = type_A(n - 1)
            sigma = tuple(rng.sample(range(1, n + 1), n))
            c = gen_apartment_mu(rng, n)
            w = affine_from_mu(rs, sigma, list(c))
            nw = bd.normalizer_of(w)
            for k in range(4):
                mu = _mu(rs, *gen_apartment_mu(rng, n))
                assert act(nw, bd.x_mu(mu)) == bd.x_mu(apply_weyl(w, mu))

    def test_normalizer_overlap_recovers_weyl(self):
        for trial in range(15):
            rng = trial_rng(3, "norm-overlap", trial)
            sigma = tuple(rng.sample(range(1, 4), 3))
            c = gen_apartment_mu(rng, 3)
            w = affine_from_mu(A2, sigma, list(c))
            nw = bd.normalizer_of(w)
            reg, got = bd.apartment_overlap(nw)
            assert reg.constraints == ()
            assert got.perm == sigma
            assert got.translation == w.translation


# --- mixed Iwasawa witnesses -------------------------------------------------------


class TestIwasawa:
    def test_constructive_witness_sl2(self):
        for trial in range(50):
            rng = trial_rng(3, "iwasawa-2", trial)
            g = gen_group_elem(rng, 2)
            res = iwasawa_witness(g)
            assert res is not None
            u, n, k = res
            # u is upper unipotent
            assert all(
                u.entries[i][j] == (fs.ONE if i == j else fs.ZERO)
                for i in range(2)
                for j in range(i + 1)
            )
            for i in range(2):
                for j in range(2):
                    e = n.entries[i][j]
                    assert (i == j) == bool(e.terms)
            assert bd.stab_o(k)
            assert u @ n @ k == g

    def test_consequence_sl3(self):
        # every generated element maps the base vertex into the standard
        # apartment image once the unipotent part is peeled off
        zero = _mu(A2, 0, 0, 0)
        for trial in range(30):
            rng = trial_rng(3, "iwasawa-3", trial)
            g = gen_group_elem(rng, 3)
            res = iwasawa_witness(g)
            assert res is not None
            u, n, k = res
            assert u @ n @ k == g
            assert bd.stab_o(k)
            peeled = u.inverse() @ g
            nu = bd.chart_image(peeled, zero)
            assert nu is not None
            exps = [fs.negval(n.entries[i][i]) for i in range(3)]
            assert list(nu.to_mu()) == exps

    def test_retraction_cross_check(self):
        # two independent Iwasawa readings must agree: k in SL(n, O) keeps
        # the negvals of the trailing principal minors and an upper
        # unipotent keeps the minors themselves, so the witness exponents
        # are the trailing-minor retraction of g . o
        for size in (2, 3, 4):
            for trial in range(40):
                rng = trial_rng(size, "iwasawa-retract", trial)
                g = gen_group_elem(rng, size)
                res = iwasawa_witness(g)
                assert res is not None
                _, n, _ = res
                exps = [fs.negval(n.entries[i][i]) for i in range(size)]
                got = retract(act(g, SPDPoint.basepoint(size)))
                assert list(got.to_mu()) == exps

    def test_point_equivalence(self):
        for trial in range(20):
            rng = trial_rng(3, "iwasawa-equiv", trial)
            g = gen_group_elem(rng, 2)
            u, n, k = iwasawa_witness(g)
            o = SPDPoint.basepoint(2)
            assert distance(act(g, o), act(u @ n, o)) == 0


# --- inputs of two sizes -----------------------------------------------------------


def _of_size(n):
    """One input of size n for every entry point that takes two: a group
    element, an apartment point, an affine Weyl element, a one-constraint
    region and half-apartment on the root (1, n), and a point."""
    rs = type_A(n - 1)
    h = HalfApartment((1, n), Q(1))
    return {
        "g": GroupElem.identity(n),
        "mu": ApartmentVec.from_mu(rs, [0] * n),
        "w": affine_from_mu(rs, range(1, n + 1), [0] * n),
        "region": WConvexSet(rs, (h,)),
        "h": h,
        "x": SPDPoint.basepoint(n),
    }


# each entry point taking inputs of two sizes, and its error text for the
# sizes a and b
_TWO_SIZES = {
    "chart_image": (
        lambda a, b: bd.chart_image(a["g"], b["mu"]),
        "chart size {a} and point size {b} disagree",
    ),
    "apply_weyl": (
        lambda a, b: apply_weyl(a["w"], b["mu"]),
        "affine element size {a} and point size {b} disagree",
    ),
    "in_wconvex": (
        lambda a, b: in_wconvex(a["region"], b["mu"]),
        "region size {a} and point size {b} disagree",
    ),
    "act": (
        lambda a, b: act(a["g"], b["x"]),
        "cannot act by a {a} x {a} element on a {b} x {b} point",
    ),
    "char_pencil": (
        lambda a, b: char_pencil(a["x"], b["x"]),
        "the pencil needs points of one size, got {a} x {a} and {b} x {b}",
    ),
    "GroupElem @": (
        lambda a, b: a["g"] @ b["g"],
        "cannot multiply a {a} x {a} element by a {b} x {b} element",
    ),
    "stab_half_apartment": (
        lambda a, b: bd.stab_half_apartment(a["g"], b["h"]),
        "no root labelled (1, {b})",
    ),
    "distance": (
        lambda a, b: distance(a["x"], b["x"]),
        "the pencil needs points of one size, got {a} x {a} and {b} x {b}",
    ),
}


@pytest.mark.parametrize(
    "name, sizes",
    [
        pytest.param(name, sizes, id=f"{name}-{sizes[0]}-{sizes[1]}")
        for name in _TWO_SIZES
        for sizes in ((2, 3), (3, 2))
        # a half-apartment names only its root, and (1, 2) is a root at n = 3
        if (name, sizes) != ("stab_half_apartment", (3, 2))
    ],
)
def test_sizes_that_disagree_raise_a_typed_error(name, sizes):
    """Inputs of sizes 2 and 3 give a ValueError (NotARoot among them) that
    names both sizes: never an IndexError and never an answer."""
    a, b = (_of_size(n) for n in sizes)
    call, text = _TWO_SIZES[name]
    with pytest.raises(ValueError) as exc:
        call(a, b)
    assert str(exc.value) == text.format(a=sizes[0], b=sizes[1])

"""Axiom verification suites at desk scale.

Each suite runs cfg.trials independent trials; trial k draws from the
stream split off by (seed, stream, k), the stream named where run_check is
called, so reports are reproducible and independent of execution order. A
trial either verifies a concretely constructed instance of the axiom or
records a replayable counterexample.

The constructions are pinned so every trial is decidable:

- A1 realizes an affine Weyl element as a monomial normalizer matrix and
  checks that precomposing any chart with it is again a chart, acting the
  same way on sampled apartment points.  normalizer_of realises apply_weyl
  exactly, so the two images are compared as equal matrices, which implies
  that they are equivalent points.
- A2 computes the apartment overlap of a random chart whose overlap holds
  at least two sampled points and confirms a single Weyl element transports
  them, with the constraint count within the root bound.
- A3r builds point pairs sharing a chart by construction and checks the
  distance read in any chart presentation agrees.
- TI exercises the pseudo-distance axioms on random point triples.
- A4 builds the transition between two sector charts in unipotent-times-
  normalizer-times-unipotent form, so one chart provably contains deep
  subsectors of both sectors; trials confirm membership at sampled depths.
- EC starts from a root element u whose overlap is its fixed half-apartment
  and builds the third chart from the opposite root element; trials confirm
  the three pairwise overlaps are the two half-apartments and their wall,
  and that m(u) and the remaining transition both act as the reflection in
  the wall mu_i - mu_j = phi(u).
"""

from fractions import Fraction

from ..apartment import (
    ApartmentVec,
    affine_from_mu,
    affine_reflection,
    apply_weyl,
    in_wconvex,
)
from ..building import (
    RootElem,
    apartment_overlap,
    chart_image,
    fixed_set_root,
    m_of,
    normalizer_of,
    trop_radius,
    x_mu,
)
from ..rootsys import type_A
from ..symspace import act, distance, matrix_to_json
from ..valfield import series as fs
from ..valfield.lam import ZERO
from .generators import (
    gen_apartment_mu,
    gen_diagonal,
    gen_group_elem,
    gen_point,
    gen_root_elem,
    gen_unipotent,
    sample_in_region,
)
from .report import payload_strs, run_check, run_suite


# --- A1: precomposition with the affine Weyl group ----------------------------


def _check_a1(cfg):
    rs = type_A(cfg.n - 1)

    def one(rng, _):
        g = gen_group_elem(rng, cfg.n)
        sigma = tuple(rng.sample(range(1, cfg.n + 1), cfg.n))
        c = gen_apartment_mu(rng, cfg.n)
        w = affine_from_mu(rs, sigma, list(c))
        gnw = g @ normalizer_of(w)
        for _ in range(4):
            mu = ApartmentVec.from_mu(rs, gen_apartment_mu(rng, cfg.n))
            left = act(gnw, x_mu(mu))
            right = act(g, x_mu(apply_weyl(w, mu)))
            if left != right:
                return {
                    "g": matrix_to_json(g),
                    "perm": list(sigma),
                    "shift": payload_strs(c),
                    "mu": payload_strs(mu.to_mu()),
                }
        return None

    return [run_check("charts absorb affine Weyl precomposition", cfg, "A1", one)]


# --- A2: two charts differ by one Weyl element on their overlap ---------------


def _check_a2(cfg):
    bound = cfg.n * (cfg.n - 1)

    def one(rng, _):
        # a one-point region is carried by many Weyl elements, so keep
        # drawing until the overlap holds at least two sampled points
        for _ in range(40):
            g = gen_group_elem(rng, cfg.n)
            res = apartment_overlap(g)
            if res is not None:
                points = sample_in_region(rng, res[0], 20)
                if len(points) >= 2:
                    break
        else:
            return {"note": "no chart with an overlap of two points in 40 draws"}
        region, w = res
        if len(region.constraints) > bound:
            return {"g": matrix_to_json(g), "constraints": len(region.constraints)}
        for mu in points:
            if chart_image(g, mu) != apply_weyl(w, mu):
                return {"g": matrix_to_json(g), "mu": payload_strs(mu.to_mu())}
        return None

    return [run_check("overlaps carry a single Weyl transport", cfg, "A2", one)]


# --- A3r: distance is chart-independent ----------------------------------------


def _check_a3r(cfg):
    rs = type_A(cfg.n - 1)
    zero = ApartmentVec.from_mu(rs, [Fraction(0)] * cfg.n)

    def one(rng, _):
        h = gen_group_elem(rng, cfg.n)
        nu = ApartmentVec.from_mu(rs, gen_apartment_mu(rng, cfg.n))
        base = distance(x_mu(zero), x_mu(nu))
        moved = distance(act(h, x_mu(zero)), act(h, x_mu(nu)))
        if moved != base:
            return {"h": matrix_to_json(h), "nu": payload_strs(nu.to_mu()), "kind": "chart"}
        sigma = tuple(rng.sample(range(1, cfg.n + 1), cfg.n))
        w = affine_from_mu(rs, sigma, list(gen_apartment_mu(rng, cfg.n)))
        rewound = distance(x_mu(apply_weyl(w, zero)), x_mu(apply_weyl(w, nu)))
        if rewound != base:
            return {"h": matrix_to_json(h), "nu": payload_strs(nu.to_mu()), "kind": "weyl"}
        return None

    return [run_check("distance agrees across chart presentations", cfg, "A3r", one)]


# --- TI: pseudo-distance axioms -------------------------------------------------


def _check_ti(cfg):
    def one(rng, _):
        x, y, z = (gen_point(rng, cfg.n) for _ in range(3))
        dxy, dyz, dxz = distance(x, y), distance(y, z), distance(x, z)
        if dxy < ZERO or distance(x, x) != ZERO:
            return {"x": matrix_to_json(x), "y": matrix_to_json(y), "kind": "positivity"}
        if dxy != distance(y, x):
            return {"x": matrix_to_json(x), "y": matrix_to_json(y), "kind": "symmetry"}
        if dxz > dxy + dyz:
            return {
                "x": matrix_to_json(x),
                "y": matrix_to_json(y),
                "z": matrix_to_json(z),
                "kind": "triangle",
            }
        return None

    return [run_check("pseudo-distance axioms hold on triples", cfg, "TI", one)]


# --- A4: two sectors admit a common chart ---------------------------------------


def _check_a4(cfg):
    rs = type_A(cfg.n - 1)
    stair = [Fraction(cfg.n - 1 - 2 * i) for i in range(cfg.n)]

    def one(rng, _):
        u1 = gen_unipotent(rng, cfg.n)
        a1 = gen_diagonal(rng, cfg.n)
        sigma = tuple(rng.sample(range(1, cfg.n + 1), cfg.n))
        w = affine_from_mu(rs, sigma, list(gen_apartment_mu(rng, cfg.n)))
        nw = normalizer_of(w)
        u2 = gen_unipotent(rng, cfg.n)
        a2 = gen_diagonal(rng, cfg.n)
        b1 = u1 @ a1
        g = b1 @ nw @ u2 @ a2
        # a chart containing deep subsectors of both sectors: the left
        # factor's chart; depth clears every exponent in play
        bound = sum(trop_radius(f) for f in (u1, a1, nw, u2, a2))
        depth = 2 * cfg.n * (1 + bound)
        into_chart = b1.inverse()
        transition = into_chart @ g
        for k in range(4):
            mu = ApartmentVec.from_mu(rs, [(depth + k) * v for v in stair])
            if chart_image(into_chart, mu) is None:
                return {
                    "g": matrix_to_json(g),
                    "mu": payload_strs(mu.to_mu()),
                    "kind": "base sector",
                }
            if chart_image(transition, mu) is None:
                return {
                    "g": matrix_to_json(g),
                    "mu": payload_strs(mu.to_mu()),
                    "kind": "moved sector",
                }
        return None

    return [run_check("sector pairs share a chart at depth", cfg, "A4", one)]


# --- EC: exchange configuration from a root element -----------------------------


def _gap_point(rs, n, i, j, gamma):
    mu = [Fraction(0)] * n
    mu[i - 1] = gamma / 2
    mu[j - 1] = -gamma / 2
    return ApartmentVec.from_mu(rs, mu)


def _check_ec(cfg):
    rs = type_A(cfg.n - 1)

    def one(rng, _):
        root_elem = gen_root_elem(rng, cfg.n)
        _, i, j, s = root_elem
        u = root_elem.as_group()
        ell = fs.negval(s)
        coef = fs.coef_at(s, ell)
        opp = RootElem(cfg.n, j, i, fs.monomial(-ell, 1 / coef)).as_group()
        bad = {"s": fs.to_str(s), "i": i, "j": j}
        ov12 = apartment_overlap(u)
        ov13 = apartment_overlap(opp)
        transition = u.inverse() @ opp
        ov23 = apartment_overlap(transition)
        if ov12 is None or ov13 is None or ov23 is None:
            return dict(bad, kind="empty overlap")
        if any(len(res[0].constraints) != 1 for res in (ov12, ov13, ov23)):
            return dict(bad, kind="not a half-apartment")
        if ov12[0].constraints != (fixed_set_root(root_elem),):
            return dict(bad, kind="overlap is not the fixed half-apartment")
        wall = _gap_point(rs, cfg.n, i, j, ell)
        plus = _gap_point(rs, cfg.n, i, j, ell + 2)
        minus = _gap_point(rs, cfg.n, i, j, ell - 2)
        table = (
            (ov12[0], True, True, False),
            (ov13[0], True, False, True),
            (ov23[0], True, True, False),
        )
        for region, on_wall, on_plus, on_minus in table:
            if (
                in_wconvex(region, wall) != on_wall
                or in_wconvex(region, plus) != on_plus
                or in_wconvex(region, minus) != on_minus
            ):
                return dict(bad, kind="wrong half-apartment")
        # each root element fixes its closed half-apartment pointwise
        if chart_image(u, wall) != wall or chart_image(u, plus) != plus:
            return dict(bad, kind="plus chart moves its half")
        if chart_image(opp, wall) != wall or chart_image(opp, minus) != minus:
            return dict(bad, kind="minus chart moves its half")
        # m(u) and the remaining transition both reflect across the wall
        # mu_i - mu_j = phi(u)
        m, root, level = m_of(root_elem)
        reflected = apply_weyl(affine_reflection(rs, root, level), plus)
        if chart_image(m, plus) != reflected or chart_image(m, wall) != wall:
            return dict(bad, kind="m(u) is not the wall reflection")
        got = chart_image(transition, plus)
        if got != reflected or apply_weyl(ov23[1], plus) != reflected:
            return dict(bad, kind="transition is not the wall reflection")
        if apply_weyl(ov23[1], wall) != wall:
            return dict(bad, kind="transition moves the wall")
        return None

    return [run_check("exchange configurations close up", cfg, "EC", one)]


AXIOMS = {
    "A1": _check_a1,
    "A2": _check_a2,
    "A3r": _check_a3r,
    "TI": _check_ti,
    "A4": _check_a4,
    "EC": _check_ec,
}

AXIOM_NAMES = tuple(AXIOMS)


def check_axiom(cfg, which):
    """Run one axiom suite; returns a Report.  A2 and EC take any n, as the
    other suites do: each overlap they read is one assignment solve."""
    return run_suite("axioms", AXIOMS, cfg, which)

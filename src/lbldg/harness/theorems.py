"""Stabilizer and retraction theorem suites.

Same trial discipline as the axiom suites: per-trial streams split by
(seed, stream, trial), the stream named where run_check is called, every
check decided by exact arithmetic, and failures recorded with replayable
payloads.

The stabilizer suites compare matrix-shape predicates against the action
itself. Stab_o reads it off the pencil, distance(o, g . o) = 0. The
apartment, chamber and half-apartment suites read it off the chart image:
g fixes x_mu iff g . x_mu is the point of the standard apartment with
coordinates mu, which is chart_image(g, mu) == mu, that is
max_ij (negval g_ij + mu_j - mu_i) <= 0. For the base point and the full
apartment the shape test is exactly the stabilizer, so trials check it
against moved-or-fixed probes. For chambers and half-apartments the shape
test describes a subgroup that fixes the region pointwise; trials verify
that direction on sampled points and, within the single-root family where
the shape is also necessary, the converse with a wall witness.
"""

from fractions import Fraction

from ..apartment import ApartmentVec, HalfApartment
from ..building import (
    RootElem,
    chart_image,
    stab_apartment,
    stab_chamber,
    stab_half_apartment,
    stab_o,
    x_mu,
)
from ..boundaries import (
    germ_equal,
    infinity_equal,
    sampled_germ_equal,
    sampled_infinity_equal,
    transitivity_witness,
)
from ..rootsys import type_A
from ..symspace import (
    GroupElem,
    SPDPoint,
    act,
    distance,
    matrix_to_json,
    retract,
)
from ..valfield import series as fs
from ..valfield.lam import ZERO
from .generators import (
    DENOM,
    FACTORS,
    SPAN,
    gen_apartment_mu,
    gen_diag_units,
    gen_dominant_mu,
    gen_group_elem,
    gen_point,
    gen_stab_elem,
    gen_unipotent,
)
from .report import payload_strs, run_check, run_suite


# --- base-point stabilizer -------------------------------------------------------


def _check_stab_o(cfg):
    o = SPDPoint.basepoint(cfg.n)

    def one(rng, _):
        g = gen_group_elem(rng, cfg.n)
        shape = stab_o(g)
        moved = distance(o, act(g, o))
        if shape != (moved == ZERO):
            return {"g": matrix_to_json(g), "shape": shape, "distance": str(moved)}
        return None

    return [run_check("integral shape is exactly the base-point stabilizer", cfg, "Stab_o", one)]


# --- pointwise apartment stabilizer ------------------------------------------------


def _probe_mus(cfg, rng, rs):
    """Two deep opposite staircases plus random points: depth clears every
    exponent a product of FACTORS drawn factors can carry."""
    k = FACTORS * cfg.n * SPAN + 1
    stair = [Fraction(k * (cfg.n - 1 - 2 * i)) for i in range(cfg.n)]
    mus = [stair, [-v for v in stair]]
    for _ in range(4):
        mus.append(list(gen_apartment_mu(rng, cfg.n)))
    return [ApartmentVec.from_mu(rs, m) for m in mus]


def _check_stab_a(cfg):
    rs = type_A(cfg.n - 1)

    def one(rng, trial):
        g = gen_diag_units(rng, cfg.n) if trial % 2 == 0 else gen_group_elem(rng, cfg.n)
        shape = stab_apartment(g)
        fixes = all(chart_image(g, mu) == mu for mu in _probe_mus(cfg, rng, rs))
        if shape != fixes:
            return {"g": matrix_to_json(g), "shape": shape, "fixes": fixes}
        return None

    return [run_check("diagonal units are exactly the apartment fixers", cfg, "Stab_A", one)]


# --- pointwise chamber stabilizer --------------------------------------------------


def _check_stab_c0(cfg):
    rs = type_A(cfg.n - 1)

    def positive(rng, _):
        g = gen_unipotent(rng, cfg.n, integral=True) @ gen_diag_units(rng, cfg.n)
        if not stab_chamber(g):
            return {"g": matrix_to_json(g), "kind": "shape rejected"}
        for _ in range(20):
            mu = ApartmentVec.from_mu(rs, gen_dominant_mu(rng, cfg.n))
            if chart_image(g, mu) != mu:
                return {"g": matrix_to_json(g), "mu": payload_strs(mu.to_mu())}
        return None

    def negative(rng, _):
        g = gen_unipotent(rng, cfg.n, integral=True) @ gen_diag_units(rng, cfg.n)
        i, j = sorted(rng.sample(range(1, cfg.n + 1), 2))
        ell = Fraction(rng.randint(1, 2 * DENOM), DENOM)
        bad = g @ RootElem(cfg.n, i, j, fs.monomial(ell, Fraction(1))).as_group()
        if stab_chamber(bad):
            return {"g": matrix_to_json(bad), "kind": "shape accepted"}
        # interior point whose (i, j) gap is ell/2, below the entry depth:
        # the staircase has consecutive gaps 2*gamma, so positions i and j
        # sit 2*gamma*(j - i) apart
        gamma = ell / (4 * (j - i))
        vec = ApartmentVec.from_mu(rs, [gamma * (cfg.n - 1 - 2 * a) for a in range(cfg.n)])
        if chart_image(bad, vec) == vec:
            return {"g": matrix_to_json(bad), "mu": payload_strs(vec.to_mu()), "kind": "not moved"}
        return None

    return [
        run_check("triangular integral products fix the chamber", cfg, "Stab_C0+", positive),
        run_check("a too-shallow entry moves an interior point", cfg, "Stab_C0-", negative),
    ]


# --- half-apartment stabilizers ------------------------------------------------


def _check_half_apt(cfg):
    rs = type_A(cfg.n - 1)

    def _gap_points(rng, i, j, ell):
        """Points of {mu_i - mu_j >= ell}, the wall first."""
        out = []
        for bump in (Fraction(0), Fraction(1, DENOM), Fraction(3), Fraction(7)):
            others = [
                Fraction(rng.randint(-2 * DENOM, 2 * DENOM), DENOM)
                for _ in range(cfg.n - 2)
            ]
            gap = ell + bump
            rest = sum(others)
            mu = [Fraction(0)] * cfg.n
            mu[j - 1] = -(rest + gap) / 2
            mu[i - 1] = mu[j - 1] + gap
            spots = [a for a in range(cfg.n) if a not in (i - 1, j - 1)]
            for a, v in zip(spots, others):
                mu[a] = v
            out.append(ApartmentVec.from_mu(rs, mu))
        return out

    def one(rng, _):
        i, j = rng.sample(range(1, cfg.n + 1), 2)
        ell = Fraction(rng.randint(-SPAN, SPAN), DENOM)
        target = HalfApartment(rs.alpha(i, j), ell)
        depth = Fraction(rng.randint(0, 2 * DENOM), DENOM)
        deep = RootElem(cfg.n, i, j, fs.monomial(ell - depth, Fraction(1)))
        g = gen_diag_units(rng, cfg.n) @ deep.as_group()
        if not stab_half_apartment(g, target):
            return {"g": matrix_to_json(g), "kind": "shape rejected"}
        for vec in _gap_points(rng, i, j, ell):
            if chart_image(g, vec) != vec:
                return {"g": matrix_to_json(g), "mu": payload_strs(vec.to_mu()), "kind": "moved"}
        shallow = RootElem(
            cfg.n, i, j, fs.monomial(ell + Fraction(1, DENOM), Fraction(1))
        ).as_group()
        if stab_half_apartment(shallow, target):
            return {"g": matrix_to_json(shallow), "kind": "shape accepted"}
        wall = _gap_points(rng, i, j, ell)[0]
        if chart_image(shallow, wall) == wall:
            return {"g": matrix_to_json(shallow), "kind": "wall not moved"}
        return None

    return [run_check("root depth against the wall level decides fixing", cfg, "HalfAptStab", one)]


# --- retraction -----------------------------------------------------------------


def _check_retract(cfg):
    rs = type_A(cfg.n - 1)

    def one(rng, _):
        x = gen_point(rng, cfg.n)
        y = gen_point(rng, cfg.n)
        if distance(x_mu(retract(x)), x_mu(retract(y))) > distance(x, y):
            return {"x": matrix_to_json(x), "y": matrix_to_json(y), "kind": "expanded"}
        for _ in range(2):
            mu = ApartmentVec.from_mu(rs, gen_apartment_mu(rng, cfg.n))
            if retract(x_mu(mu)) != mu:
                return {"mu": payload_strs(mu.to_mu()), "kind": "apartment moved"}
        return None

    return [run_check("retraction diminishes distances and fixes the apartment", cfg, "Retract", one)]


# --- germs of sectors ------------------------------------------------------------


def _check_germ_borel(cfg):
    base = GroupElem.identity(cfg.n)

    def agreement(rng, _):
        g = gen_stab_elem(rng, cfg.n)
        shape = germ_equal(g, base)
        sampled = sampled_germ_equal(g, base)
        if shape != sampled:
            return {"g": matrix_to_json(g), "shape": shape, "sampled": sampled}
        return None

    def witness(rng, _):
        g1 = gen_stab_elem(rng, cfg.n)
        g2 = gen_stab_elem(rng, cfg.n)
        h = transitivity_witness(g1, g2)
        if not germ_equal(h @ g1, g2):
            return {"g1": matrix_to_json(g1), "g2": matrix_to_json(g2)}
        return None

    return [
        run_check("residue shape matches sampled germ comparison", cfg, "GermBorel", agreement),
        run_check("residue witness maps germ to germ", cfg, "GermBorel-w", witness),
    ]


# --- sectors at infinity ----------------------------------------------------------


def _check_infinity_borel(cfg):
    base = GroupElem.identity(cfg.n)

    def one(rng, _):
        g = gen_group_elem(rng, cfg.n)
        shape = infinity_equal(g, base)
        sampled = sampled_infinity_equal(g, base)
        if shape != sampled:
            return {"g": matrix_to_json(g), "shape": shape, "sampled": sampled}
        return None

    return [run_check("triangularity matches sampled parallelism", cfg, "InfinityBorel", one)]


# --- Iwasawa at the base point ----------------------------------------------------


def _check_iwasawa_o(cfg):
    rs = type_A(cfg.n - 1)
    origin = ApartmentVec.from_mu(rs, [Fraction(0)] * cfg.n)
    o = SPDPoint.basepoint(cfg.n)

    def one(rng, _):
        g = gen_stab_elem(rng, cfg.n)
        if retract(act(g, o)) != origin:
            return {"g": matrix_to_json(g)}
        return None

    return [run_check("integral orbits retract to the origin", cfg, "IwasawaO", one)]


THEOREMS = {
    "Stab_o": _check_stab_o,
    "Stab_A": _check_stab_a,
    "Stab_C0": _check_stab_c0,
    "HalfAptStab": _check_half_apt,
    "Retract": _check_retract,
    "GermBorel": _check_germ_borel,
    "InfinityBorel": _check_infinity_borel,
    "IwasawaO": _check_iwasawa_o,
}

THEOREM_NAMES = tuple(THEOREMS)


def check_theorem(cfg, which):
    """Run one theorem suite; returns a Report."""
    return run_suite("theorems", THEOREMS, cfg, which)

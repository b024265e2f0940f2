"""The four benchmark workloads.

Each workload turns a corpus key into an input with the package's own seeded
generators, runs one item (one timed call group) on it, and checks the result
against the reference recorded in its corpus file.  Inputs that the command
line takes as JSON matrices travel through the same text round trip
(``matrix_to_json`` then ``point_from_json``/``group_from_json``), so setup
pays for ``series.to_str`` and ``series.parse`` the way a user does.

An item ends in one of three states:

- ``decided``: every call returned an exact answer;
- ``undecided``: some call raised ``PrecisionError`` (or another typed
  ``lbldg.errors`` error) and none failed;
- ``failed``: some call raised an exception that is not a typed
  ``lbldg.errors`` error, a suite trial failed, or a decided answer differs
  from the reference.
"""

import hashlib
import json
from fractions import Fraction

# Package functions are reached through their modules, never bound here by
# ``from ... import``, so a traced run's wrappers see every call.
from lbldg import apartment, building, errors, symspace
from lbldg.harness import axioms, generators, report, theorems
from lbldg.harness.config import TrialConfig
from lbldg.rootsys import type_A
from lbldg.valfield import series as fs

# Every corpus input is drawn from trial_rng(CORPUS_SEED, <workload>, key).
CORPUS_SEED = 2601

DECIDED, UNDECIDED, FAILED = "decided", "undecided", "failed"


def ref_hash(text):
    """The short digest a corpus stores in place of a reference output."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _call(fn, *args):
    """Run one call of an item; returns (kind, value)."""
    try:
        return "ok", fn(*args)
    except errors.PrecisionError as exc:
        return "precision", f"{type(exc).__name__}: {exc}"
    except Exception as exc:
        typed = type(exc).__module__ == errors.__name__
        return ("typed" if typed else "error"), f"{type(exc).__name__}: {exc}"


def _status(calls):
    kinds = {kind for kind, _ in calls}
    if "error" in kinds:
        return FAILED
    if kinds == {"ok"}:
        return DECIDED
    return UNDECIDED


def _round_trip(matrix, reader):
    """The command line's input path: series text in JSON, parsed back."""
    return reader(json.loads(json.dumps(symspace.matrix_to_json(matrix))), validate=False)


def _mu_text(vec):
    return ",".join(str(v) for v in vec.to_mu())


class Workload:
    """A corpus-backed workload.  Subclasses define kinds, inputs and items."""

    name = ""
    # corpus keys cycle through these kinds: key k has kinds[k % len(kinds)]
    kinds = ("item",)
    corpus_size = 0
    # items per run; a run repeats whole passes over them
    pool_size = 0

    def kind_of(self, key):
        return self.kinds[key % len(self.kinds)]

    def prepare(self, key):
        """Build the input for corpus key `key` (runs during setup)."""
        raise NotImplementedError

    def run(self, inp):
        """One timed item; returns (status, calls)."""
        raise NotImplementedError

    def reference_text(self, inp, calls):
        """Canonical output text whose digest the corpus stores."""
        raise NotImplementedError

    def check(self, inp, status, calls, ref):
        """True when the item's output agrees with reference digest `ref`."""
        if status != DECIDED:
            return False
        return ref_hash(self.reference_text(inp, calls)) == ref


class SuitesN3(Workload):
    name = "suites-n3"
    kinds = axioms.AXIOM_NAMES + theorems.THEOREM_NAMES
    corpus_size = len(kinds) * 330
    pool_size = len(kinds) * 60

    def prepare(self, key):
        return self.kind_of(key), TrialConfig(n=3, trials=1, seed=key // len(self.kinds))

    def run(self, inp):
        which, cfg = inp
        if which in axioms.AXIOM_NAMES:
            kind, rep = _call(axioms.check_axiom, cfg, which)
        else:
            kind, rep = _call(theorems.check_theorem, cfg, which)
        if kind == "ok" and not rep.ok:
            kind = "error"
        return _status([(kind, rep)]), [(kind, rep)]

    def reference_text(self, inp, calls):
        data = report.report_to_dict(calls[0][1])
        del data["elapsed_ms"]
        return json.dumps(data, sort_keys=True)


class PencilN4(Workload):
    name = "pencil-n4"
    corpus_size = 720
    pool_size = 240

    def prepare(self, key):
        rng = generators.trial_rng(CORPUS_SEED, self.name, key)
        x, y = generators.gen_point(rng, 4), generators.gen_point(rng, 4)
        return _round_trip(x, symspace.point_from_json), _round_trip(y, symspace.point_from_json)

    def run(self, inp):
        x, y = inp
        calls = [
            _call(symspace.distance, x, y),
            _call(symspace.retract, x),
            _call(symspace.retract, y),
        ]
        return _status(calls), calls

    def reference_text(self, inp, calls):
        d, rx, ry = (value for _, value in calls)
        return f"{d.finite_value};{_mu_text(rx)};{_mu_text(ry)}"


class OverlapN5(Workload):
    name = "overlap-n5"
    corpus_size = 1200
    pool_size = 300

    def prepare(self, key):
        rng = generators.trial_rng(CORPUS_SEED, self.name, key)
        g = generators.gen_group_elem(rng, 5)
        mu = apartment.ApartmentVec.from_mu(type_A(4), generators.gen_apartment_mu(rng, 5))
        return _round_trip(g, symspace.group_from_json), mu

    def run(self, inp):
        g, mu = inp
        kind, res = _call(building.apartment_overlap, g)
        calls = [(kind, res)]
        if kind == "ok":
            # a witness point of a nonempty overlap; the sampled point otherwise
            if res is not None:
                mu = apartment.ApartmentVec.from_mu(mu.rs, apartment.wconvex_witness(res[0]))
            calls.append(_call(building.chart_image, g, mu))
        return _status(calls), calls

    def reference_text(self, inp, calls):
        (_, res), (_, img) = calls
        shown = "none" if img is None else _mu_text(img)
        return json.dumps(building.overlap_to_json(res), sort_keys=True) + ";" + shown


def _series_text(rng, nterms):
    """A positive series with a square leading coefficient, as text."""
    den = rng.choice([1, 2, 3])
    e = Fraction(rng.randint(-3 * den, 3 * den), den)
    p, q = rng.randint(1, 3), rng.randint(1, 2)
    terms = [(e, Fraction(p * p, q * q))]
    for _ in range(nterms - 1):
        e -= Fraction(rng.randint(1, 2), den)
        terms.append((e, Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))))
    return " + ".join(f"{c}*t^({x})" for x, c in terms).replace("+ -", "- ")


class TruncatedN3(Workload):
    """Floored operands.  The corpus stores the answers computed from the
    untruncated input as text: a decided answer must equal them, and for a
    series answer that means equal terms above the higher of the two floors."""

    name = "truncated-n3"
    kinds = ("pair", "s12", "pair", "s40")
    corpus_size = 2400
    pool_size = 800

    def prepare(self, key):
        """(kind, untruncated operands, truncated operands)."""
        rng = generators.trial_rng(CORPUS_SEED, self.name, key)
        kind = self.kind_of(key)
        if kind == "pair":
            x, y = generators.gen_point(rng, 3), generators.gen_point(rng, 3)
            floor = Fraction(rng.randint(-12, 12), 2)
            cut = (
                symspace.SPDPoint(
                    [[fs.with_floor(e, floor) for e in row] for row in p.entries],
                    validate=False,
                )
                for p in (x, y)
            )
            return (
                kind,
                (x, y),
                tuple(_round_trip(p, symspace.point_from_json) for p in cut),
            )
        a = fs.parse(_series_text(rng, 12 if kind == "s12" else 40))
        lead = a.terms[0][0]
        # one unit below each answer's leading exponent; operand floors range
        # from two units under the lead to one unit over it
        targets = (-lead - 1, lead / 2 - 1)
        floor = lead + Fraction(rng.randint(-6, 2), 2)
        return kind, (a,) + targets, (fs.with_floor(a, floor),) + targets

    def _calls(self, kind, operands):
        if kind == "pair":
            x, y = operands
            return [
                _call(symspace.distance, x, y),
                _call(symspace.retract, x),
                _call(symspace.retract, y),
            ]
        a, t_inv, t_sqrt = operands
        return [_call(fs.inv, a, t_inv), _call(fs.sqrt_pos, a, t_sqrt)]

    def run(self, inp):
        kind, _, cut = inp
        calls = self._calls(kind, cut)
        return _status(calls), calls

    def exact_calls(self, inp):
        kind, exact, _ = inp
        return self._calls(kind, exact)

    def reference_text(self, inp, calls):
        return ";".join(_value_text(value) for _, value in calls)

    def check(self, inp, status, calls, ref):
        """`ref` is the reference text itself.  Each decided call must agree
        with it; undecided calls are not compared."""
        for (kind, value), text in zip(calls, ref.split(";")):
            if kind != "ok":
                continue
            if isinstance(value, fs.PuiseuxElem):
                want = fs.parse(text)
                floors = [f for f in (value.floor, want.floor) if f is not None]
                if floors:
                    value, want = fs.with_floor(value, max(floors)), fs.with_floor(want, max(floors))
                if value != want:
                    return False
            elif _value_text(value) != text:
                return False
        return True


def _value_text(value):
    if isinstance(value, fs.PuiseuxElem):
        return fs.to_str(value)
    if isinstance(value, apartment.ApartmentVec):
        return _mu_text(value)
    return str(value.finite_value)


WORKLOADS = {w.name: w for w in (SuitesN3(), PencilN4(), OverlapN5(), TruncatedN3())}

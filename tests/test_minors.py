"""The minor table behind every determinant, against the recursive first-row
Laplace expansion it replaced, plus deterministic work counts."""

from fractions import Fraction as Q
from operator import attrgetter

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from lbldg import symspace as sym
from lbldg.errors import PrecisionError
from lbldg.harness.generators import gen_point, trial_rng
from lbldg.valfield import series as fs
from oracles import series_from_terms


def _laplace(m, ring):
    """Determinant by Laplace expansion along the first row over the
    commutative ring given by ring = (zero, is_zero, add, neg, mul); exact
    and division-free.  Exactly-zero first-row entries contribute no term.
    Every sub-minor is recomputed once per path that reaches it."""
    n = len(m)
    if n == 1:
        return m[0][0]
    zero, is_zero, add, neg, mul = ring
    acc = zero
    for j in range(n):
        if is_zero(m[0][j]):
            continue
        minor = tuple(row[:j] + row[j + 1 :] for row in m[1:])
        term = mul(m[0][j], _laplace(minor, ring))
        acc = add(acc, term if j % 2 == 0 else neg(term))
    return acc


def _polynomials(ring):
    """The ring (zero, is_zero, add, neg, mul) of polynomials, tuples of
    coefficients low degree first, over the given coefficient ring."""
    zero, is_zero, add, neg, mul = ring

    def poly_add(p, q):
        n = max(len(p), len(q))
        p = p + (zero,) * (n - len(p))
        q = q + (zero,) * (n - len(q))
        return tuple([add(a, b) for a, b in zip(p, q)])

    def poly_neg(p):
        return tuple([neg(a) for a in p])

    def poly_mul(p, q):
        out = [zero] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if is_zero(a):
                continue
            for j, b in enumerate(q):
                if is_zero(b):
                    continue
                out[i + j] = add(out[i + j], mul(a, b))
        return tuple(out)

    def poly_is_zero(p):
        return all(is_zero(a) for a in p)

    return (zero,), poly_is_zero, poly_add, poly_neg, poly_mul


# the series operations as a ring, one canonical element per operation
_SERIES = (fs.ZERO, attrgetter("is_zero"), fs.add, fs.neg, fs.mul)


def _as_dot(ring):
    """The (is_zero, dot) form of ring, that the minor table runs on:
    dot folds add over the signed products, in order."""
    zero, is_zero, add, neg, mul = ring

    def dot(terms):
        acc = zero
        for a, b, negative in terms:
            term = mul(a, b)
            acc = add(acc, neg(term) if negative else term)
        return acc

    return is_zero, dot


def _det(m):
    return _laplace(m, _SERIES)


def _counted(det):
    """det(ring) on the series ring, and the number of products it made."""
    seen = []
    zero, is_zero, add, neg, mul = _SERIES

    def counting_mul(a, b):
        seen.append(None)
        return mul(a, b)

    return det((zero, is_zero, add, neg, counting_mul)), len(seen)


# denominators up to 6 in exponents and coefficients, so that rows differ in
# ramification index and in coefficient scale
_EXP = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_COEF = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_FLOOR = st.one_of(st.none(), st.fractions(min_value=-9, max_value=6, max_denominator=6))


@st.composite
def _entries(draw, floors=_FLOOR):
    """An exact zero, or up to three terms, possibly cut by with_floor."""
    if draw(st.integers(0, 4)) == 0:
        return fs.ZERO
    terms = draw(st.lists(st.tuples(_EXP, _COEF), min_size=1, max_size=3))
    a = series_from_terms(terms)
    f = draw(floors)
    return a if f is None else fs.with_floor(a, f)


def _matrices(n, floors=_FLOOR):
    return st.lists(
        st.lists(_entries(floors), min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: tuple(tuple(row) for row in rows))


def _floored(*ms):
    return any(v.floor is not None for m in ms for row in m for v in row)


_SIZED = st.integers(1, 5).flatmap(_matrices)


# a failing matrix is reported as drawn: shrinking tables of up to 5 x 5
# multi-term series took minutes per failure
_NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


class TestAgainstLaplace:
    """Byte equality of to_str, floors included: each table entry is the
    recursive expansion's expression tree with shared sub-minors."""

    @given(_SIZED)
    @settings(max_examples=80, deadline=None, phases=_NO_SHRINK)
    def test_det(self, m):
        want, recursive = _counted(lambda ring: _laplace(m, ring))
        assert fs.to_str(sym.mat_det(m)) == fs.to_str(want)
        # only minors an expansion reaches are built, so exact zeros save
        # the table at least what they save the recursion
        _, table = _counted(lambda ring: sym._minors(m, _as_dot(ring), [(1 << len(m)) - 1]))
        assert table <= recursive

    @given(_SIZED)
    @settings(max_examples=80, deadline=None, phases=_NO_SHRINK)
    def test_trailing_principal_minors(self, m):
        n = len(m)
        got = sym._trailing_minors(m)
        want = [_det(tuple(row[i:] for row in m[i:])) for i in range(n)]
        assert [fs.to_str(v) for v in got] == [fs.to_str(v) for v in want]

    @given(_SIZED)
    @settings(max_examples=60, deadline=None, phases=_NO_SHRINK)
    def test_adjugate(self, m):
        n = len(m)
        got = sym.mat_adjugate(m)
        if n == 1:
            assert got == ((fs.ONE,),)
            return
        for i in range(n):
            for j in range(n):
                minor = tuple(r[:j] + r[j + 1 :] for k, r in enumerate(m) if k != i)
                d = _det(minor)
                want = d if (i + j) % 2 == 0 else fs.neg(d)
                # the adjugate is the transposed cofactor matrix
                assert fs.to_str(got[j][i]) == fs.to_str(want)

    # an exact pencil is one series determinant in t, with lambda = t^(B/E);
    # a pencil with a floored entry runs the table on polynomials in lambda
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(*[_matrices(n, st.none())] * 2)))
    @settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
    def test_char_pencil_exact(self, pair):
        _assert_pencil(*pair)

    @given(
        st.integers(1, 5)
        .flatmap(lambda n: st.tuples(_matrices(n), _matrices(n)))
        .filter(lambda pair: _floored(*pair))
    )
    @settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
    def test_char_pencil(self, pair):
        _assert_pencil(*pair)

    @pytest.mark.parametrize(
        "xm, ym",
        [
            # rows spanning 2 000 each: B = 4 001 lattice steps
            ([["t^1000 + t^(-1000)", "1"], ["1", "2"]], [["1", "t^(-1000)"], ["t^(-1000)", "t^1000"]]),
            # mixed ramification: the lattice is over E = 12
            (
                [["t^(1/4) - 2*t^(-3/4)", "t^(1/6)"], ["t^(1/6)", "3*t^(5/6)"]],
                [["t^(-1/6)", "1/2*t^(3/4)"], ["1/2*t^(3/4)", "t^(1/4) + t^(-5/6)"]],
            ),
            # an exactly-zero row of the pencil: q is zero
            (
                [["t + 1", "2", "t^(-1)"], ["0", "0", "0"], ["1", "t", "3"]],
                [["1", "t^2", "0"], ["0", "0", "0"], ["t^(1/2)", "1", "1"]],
            ),
            # an exactly-zero row of x alone: q has degree n - 1
            (
                [["t + 1", "2", "t^(-1)"], ["0", "0", "0"], ["1", "t", "3"]],
                [["1", "t^2", "0"], ["t", "0", "-1"], ["t^(1/2)", "1", "1"]],
            ),
        ],
    )
    def test_char_pencil_cases(self, xm, ym):
        x, y = (tuple(tuple(fs.parse(s) for s in row) for row in m) for m in (xm, ym))
        _assert_pencil(x, y)


def _assert_pencil(xm, ym):
    """char_pencil of the unvalidated points xm and ym against the
    recursive expansion of det(lambda*x - y) over polynomials in lambda."""
    n = len(xm)
    x, y = (sym.SPDPoint(m, validate=False) for m in (xm, ym))
    pencil = tuple(tuple((fs.neg(ym[i][j]), xm[i][j]) for j in range(n)) for i in range(n))
    want = _laplace(pencil, _polynomials(_SERIES))
    want = want + (fs.ZERO,) * (n + 1 - len(want))
    assert [fs.to_str(v) for v in sym.char_pencil(x, y)] == [fs.to_str(v) for v in want]


def _retract_oracle(m):
    """mu of the retraction of m from the recursive expansion: halved
    differences of the trailing principal minors' negvals, with retract's
    errors in retract's order."""
    n = len(m)
    nv = []
    for i in range(n):
        v = fs.negval(_det(tuple(row[i:] for row in m[i:])))
        if v is None:
            raise ValueError(
                "a trailing principal minor is zero, so the point is not positive definite"
            )
        nv.append(v)
    if nv[0] != 0:
        raise ValueError("the determinant is not a unit, so the point does not have determinant 1")
    nv.append(Q(0))
    return [(nv[i] - nv[i + 1]) / 2 for i in range(n)]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ValueError, PrecisionError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def _retract_inputs(draw):
    """A matrix with n = 2..4, about one entry in eight floored, whose first
    row is rescaled where det has a visible lead: to lead exponent 0 three
    times in four, which takes retract past the unit check to mu, and to
    1/2 otherwise, so that the unit check meets later zero and masked
    minors."""
    m = draw(st.integers(2, 4).flatmap(lambda n: _matrices(n, st.one_of([st.none()] * 3 + [_FLOOR]))))
    det = _det(m)
    if det.pairs:
        shift = fs.monomial(draw(st.sampled_from([0, 0, 0, Q(1, 2)])) - fs.negval(det))
        m = (tuple([fs.mul(v, shift) for v in m[0]]),) + m[1:]
    return m


@given(_retract_inputs())
@settings(max_examples=80, deadline=None, phases=_NO_SHRINK)
def test_retract_against_laplace(m):
    """retract reads the lead exponents off the lattice table; the oracle
    canonicalises each minor of the recursive expansion and takes negval."""
    got = _outcome(lambda: list(sym.retract(sym.SPDPoint(m, validate=False)).to_mu()))
    assert got == _outcome(_retract_oracle, m)


@given(st.integers(1, 4).flatmap(_matrices))
@settings(max_examples=60, deadline=None, phases=_NO_SHRINK)
def test_lattice_round_trip(m):
    """Every entry comes back from the lattice over its row's scale."""
    e, scales, rows = fs.to_lattice(m)
    for row, scale, values in zip(m, scales, rows):
        assert [fs.from_lattice(e, scale, v) for v in values] == list(row)


def _leading_chain(m):
    n = len(m)
    return all(
        fs.cmp(_det(tuple(row[:k] for row in m[:k])), fs.ZERO) == fs.GT for k in range(1, n + 1)
    )


def _trailing_chain(m):
    return all(fs.cmp(d, fs.ZERO) == fs.GT for d in sym._trailing_minors(m))


def _shifted(rng, n):
    """A seeded point minus a scalar monomial: exact, symmetric, and
    positive definite or not depending on the shift."""
    m = [list(row) for row in gen_point(rng, n).entries]
    shift = fs.monomial(Q(rng.randint(-6, 6), 2), rng.choice([1, 2]))
    for i in range(n):
        m[i][i] = fs.sub(m[i][i], shift)
    return tuple(tuple(row) for row in m)


class TestSylvester:
    """Point validation decides positive definiteness on the trailing
    principal minors; on exact input that agrees with the leading chain."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_seeded_points(self, n):
        rng = trial_rng(7, "sylvester", n)
        for _ in range(6 if n < 5 else 3):
            m = gen_point(rng, n).entries
            assert _trailing_chain(m) and _leading_chain(m)
            sym.SPDPoint(m)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_shifted_points(self, n):
        rng = trial_rng(7, "sylvester-shift", n)
        decided = set()
        for _ in range(40):
            m = _shifted(rng, n)
            decided.add(_leading_chain(m))
            assert _trailing_chain(m) == _leading_chain(m)
        assert decided == {True, False}


# --- deterministic work counts ----------------------------------------------------

# 2 on the diagonal and 1 elsewhere: exact, no zero entry, positive definite
_DENSE5 = tuple(tuple(fs.from_rational(2 if i == j else 1) for j in range(5)) for i in range(5))


@pytest.fixture
def counts(monkeypatch):
    """Counts the products of the ring each table runs on (the (v, w) pairs
    passed to its dot), the kernel calls that build lattice sums
    (kernel_dot), the series products (fs.mul) made anywhere, and the
    tables."""
    seen = {"ring_mul": 0, "kernel_dot": 0, "fs_mul": 0, "tables": 0}
    mul, kernel_dot, minors = fs.mul, fs.kernel_dot, sym._minors

    def counting_mul(a, b):
        seen["fs_mul"] += 1
        return mul(a, b)

    def counting_kernel_dot(terms):
        seen["kernel_dot"] += 1
        return kernel_dot(terms)

    def counting_minors(m, ring, masks):
        seen["tables"] += 1
        is_zero, dot = ring

        def counting_dot(terms):
            seen["ring_mul"] += len(terms)
            return dot(terms)

        return minors(m, (is_zero, counting_dot), masks)

    monkeypatch.setattr(fs, "mul", counting_mul)
    monkeypatch.setattr(fs, "kernel_dot", counting_kernel_dot)
    monkeypatch.setattr(sym, "_minors", counting_minors)
    return seen


class TestWorkCounts:
    """A dense 5 x 5 determinant takes sum_k C(5, k) * k = 75 ring products
    from the table; the recursive expansion took sum_k 5!/(k - 1)! = 205.
    On the lattice ring each of its sum_k C(5, k) = 26 minors on two or more
    rows is one kernel_dot call, and no series product is made."""

    def test_mat_det(self, counts):
        sym.mat_det(_DENSE5)
        assert counts == {"ring_mul": 75, "kernel_dot": 26, "fs_mul": 0, "tables": 1}

    def test_retract_reads_one_table(self, counts):
        # the recursive expansion took 205 + 40 + 9 + 2 = 256 for the chain
        sym.retract(sym.SPDPoint(_DENSE5, validate=False))
        assert counts == {"ring_mul": 75, "kernel_dot": 26, "fs_mul": 0, "tables": 1}

    def test_char_pencil(self, counts):
        # an exact pencil is one series determinant, lambda = t^(B/E): the
        # table runs on the lattice ring, one kernel_dot call per minor
        x = sym.SPDPoint(_DENSE5, validate=False)
        sym.char_pencil(x, x)
        assert counts == {"ring_mul": 75, "kernel_dot": 26, "fs_mul": 0, "tables": 1}

    def test_char_pencil_floored(self, counts):
        # one floored entry puts the table on polynomials in lambda: 75
        # polynomial products, and one kernel_dot call per degree of each
        # minor, sum_k C(5, k) * (k + 1) = 101
        rows = [list(row) for row in _DENSE5]
        rows[4][4] = fs.with_floor(rows[4][4], -5)
        x = sym.SPDPoint(rows, validate=False)
        sym.char_pencil(x, x)
        assert counts == {"ring_mul": 75, "kernel_dot": 101, "fs_mul": 0, "tables": 1}

    def test_mat_adjugate(self, counts):
        sym.mat_adjugate(_DENSE5)
        # one 4 x 5 table per deleted row: sum_{k=2..4} C(5, k) * k each,
        # from sum_{k=2..4} C(5, k) = 25 minors
        assert counts == {"ring_mul": 5 * 70, "kernel_dot": 5 * 25, "fs_mul": 0, "tables": 5}

    def test_point_validation(self, counts):
        # det (for the det = 1 check) and the whole trailing chain come from
        # one table; the leading chain took 205 + 40 + 9 + 2 more products
        with pytest.raises(ValueError, match="determinant must be exactly 1"):
            sym.SPDPoint(_DENSE5)
        assert counts == {"ring_mul": 75, "kernel_dot": 26, "fs_mul": 0, "tables": 1}
        entries = gen_point(trial_rng(7, "counts", 0), 5).entries
        counts["tables"] = 0
        sym.SPDPoint(entries)
        assert counts["tables"] == 1

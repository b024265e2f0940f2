"""Harness tests: reports, suites, golden generator streams, and the CLI."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner

from lbldg import symspace as sym
from lbldg.apartment import ApartmentVec
from lbldg.building import RootElem, apartment_overlap, chart_image, x_mu
from lbldg.errors import ConfigError
from lbldg.harness import axioms as ax
from lbldg.harness import theorems as th
from lbldg.harness.cli import main
from lbldg.harness.config import TrialConfig
from lbldg.harness.generators import (
    DENOM,
    FACTORS,
    SPAN,
    gen_apartment_mu,
    gen_diag_units,
    gen_diagonal,
    gen_dominant_mu,
    gen_group_elem,
    gen_orthogonal,
    gen_point,
    gen_root_elem,
    gen_stab_elem,
    gen_unipotent,
    trial_rng,
)
from lbldg.harness.report import (
    KEEP,
    SCHEMA,
    CheckRow,
    format_lines,
    report_to_dict,
    run_check,
)
from lbldg.rootsys import type_A
from lbldg.symspace import act, distance, matrix_to_json
from lbldg.valfield import series as fs
from lbldg.valfield.lam import LambdaVal


# --- report plumbing -------------------------------------------------------------


def _draws(rng, trial):
    """Fails every third trial with a payload read off its stream."""
    if trial % 3 == 0:
        return {"value": rng.randint(0, 10**9)}
    return None


class TestRunCheck:
    def test_counts_and_payloads(self):
        cfg = TrialConfig(trials=10, seed=4)
        row = run_check("thirds fail", cfg, "thirds", _draws)
        assert (row.trials, row.passed, row.failed) == (10, 6, 4)
        assert not row.ok
        assert [ce["trial"] for ce in row.counterexamples] == [0, 3, 6, 9]
        # the payload replays: re-running the recorded trial on its stream
        # reproduces it
        for ce in row.counterexamples:
            t = ce["trial"]
            assert _draws(trial_rng(cfg.seed, "thirds", t), t) == {"value": ce["value"]}
        # and the stream is keyed by its name
        other = run_check("thirds fail", cfg, "other", _draws)
        assert other.counterexamples != row.counterexamples

    def test_keep_cap(self):
        row = run_check("all fail", TrialConfig(trials=KEEP + 7), "all", lambda rng, t: {})
        assert row.failed == KEEP + 7
        assert len(row.counterexamples) == KEEP

    def test_exceptions_become_failures(self):
        def one(rng, trial):
            if trial == 2:
                raise ValueError("boom")
            return None

        row = run_check("raises once", TrialConfig(trials=4), "raises", one)
        assert row.failed == 1
        assert row.counterexamples[0] == {"error": "ValueError: boom", "trial": 2}

    def test_all_pass(self):
        row = run_check("fine", TrialConfig(trials=5), "fine", lambda rng, t: None)
        assert row.ok and row.counterexamples == ()

    def test_every_check_draws_from_its_own_stream(self, monkeypatch):
        streams = []

        def record(name, cfg, stream, one):
            streams.append(stream)
            return CheckRow(name, cfg.trials, cfg.trials, 0, ())

        monkeypatch.setattr(ax, "run_check", record)
        monkeypatch.setattr(th, "run_check", record)
        cfg = TrialConfig(n=2, trials=1)
        for check in list(ax.AXIOMS.values()) + list(th.THEOREMS.values()):
            check(cfg)
        assert len(streams) == 16
        assert len(set(streams)) == len(streams)


class TestReports:
    def test_deterministic_modulo_timing(self):
        cfg = TrialConfig(n=2, trials=6, seed=11)
        a = report_to_dict(ax.check_axiom(cfg, "A2"))
        b = report_to_dict(ax.check_axiom(cfg, "A2"))
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_schema_and_echo(self):
        cfg = TrialConfig(n=2, trials=3, seed=5)
        rep = th.check_theorem(cfg, "IwasawaO")
        d = report_to_dict(rep)
        assert d["schema"] == SCHEMA == "lbldg-report/1"
        assert d["kind"] == "theorems" and d["which"] == "IwasawaO"
        assert cfg._fields == ("n", "trials", "seed")
        # the echo names the fixed draw lattice as well
        assert d["config"] == dict(
            cfg._asdict(),
            exponent_denominator_bound=DENOM,
            exponent_magnitude_bound=SPAN,
            factor_count=FACTORS,
        )
        assert d["ok"] is True
        parsed = json.loads(json.dumps(report_to_dict(rep)))
        assert parsed["checks"][0]["trials"] == 3

    def test_format_lines(self):
        rep = ax.check_axiom(TrialConfig(n=2, trials=2, seed=1), "TI")
        (line,) = format_lines(rep)
        assert line.startswith("PASS TI:") and "[2/2 trials]" in line

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError):
            ax.check_axiom(TrialConfig(), "A9")
        with pytest.raises(KeyError):
            th.check_theorem(TrialConfig(), "Nope")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ax.check_axiom(TrialConfig(n=1), "A1")
        with pytest.raises(ConfigError):
            th.check_theorem(TrialConfig(trials=0), "Stab_o")
        with pytest.raises(ConfigError):
            th.check_theorem(TrialConfig(seed=-1), "Stab_o")
        assert ax.check_axiom(TrialConfig(n=5, trials=2, seed=3), "A4").ok

    @pytest.mark.parametrize("which", ["A2", "EC"])
    def test_overlap_suites_at_n6_and_n8(self, which):
        for n in (6, 8):
            assert ax.check_axiom(TrialConfig(n=n, trials=3, seed=1), which).ok


# --- suite registries -------------------------------------------------------------


class TestSuites:
    def test_registry_names(self):
        assert ax.AXIOM_NAMES == ("A1", "A2", "A3r", "TI", "A4", "EC")
        assert th.THEOREM_NAMES == (
            "Stab_o",
            "Stab_A",
            "Stab_C0",
            "HalfAptStab",
            "Retract",
            "GermBorel",
            "InfinityBorel",
            "IwasawaO",
        )

    def test_all_axioms_pass_small(self):
        for which in ax.AXIOM_NAMES:
            for n in (2, 3):
                rep = ax.check_axiom(TrialConfig(n=n, trials=6, seed=13), which)
                assert rep.ok, (which, n, rep.rows)

    def test_all_theorems_pass_small(self):
        for which in th.THEOREM_NAMES:
            for n in (2, 3):
                rep = th.check_theorem(TrialConfig(n=n, trials=6, seed=13), which)
                assert rep.ok, (which, n, rep.rows)


# --- "g fixes x_mu": the chart image against the pencil ---------------------------


def _fixer_candidates(rng, n):
    """One g from each family the stabilizer suites draw or build: diagonal
    units, random products, integral elements, triangular integral
    products, and diagonal units times a root element."""
    i, j = rng.sample(range(1, n + 1), 2)
    ell = Fraction(rng.randint(-2 * DENOM, 2 * DENOM), DENOM)
    root = RootElem(n, i, j, fs.monomial(ell, Fraction(1))).as_group()
    return [
        gen_diag_units(rng, n),
        gen_group_elem(rng, n),
        gen_stab_elem(rng, n),
        gen_unipotent(rng, n, integral=True) @ gen_diag_units(rng, n),
        gen_diag_units(rng, n) @ root,
    ]


class TestFixedPoints:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_chart_image_agrees_with_the_pencil(self, n):
        """g fixes x_mu by the pencil, distance(g . x_mu, x_mu) = 0, iff
        chart_image(g, mu) == mu, on both deep staircases of the Stab_A
        probes, one random and one dominant point."""
        cfg = TrialConfig(n=n, seed=3)
        rs = type_A(n - 1)
        fixed = cases = 0
        for trial in range(4):
            rng = trial_rng(cfg.seed, "fixed-points", trial)
            for g in _fixer_candidates(rng, n):
                mus = th._probe_mus(cfg, rng, rs)[:2] + [
                    ApartmentVec.from_mu(rs, gen_apartment_mu(rng, n)),
                    ApartmentVec.from_mu(rs, gen_dominant_mu(rng, n)),
                ]
                for mu in mus:
                    by_pencil = distance(act(g, x_mu(mu)), x_mu(mu)) == LambdaVal.of(0)
                    by_chart = chart_image(g, mu) == mu
                    assert by_pencil == by_chart, (matrix_to_json(g), mu.to_mu())
                    fixed += by_chart
                    cases += 1
        assert 0 < fixed < cases

    def test_stabilizer_suites_expand_no_pencil(self, monkeypatch):
        """Stab_A, Stab_C0 and HalfAptStab decide fixing on the chart alone:
        no act, no distance, no characteristic pencil."""

        def forbidden(*args):
            raise AssertionError("pencil path called")

        monkeypatch.setattr(sym, "char_pencil", forbidden)
        monkeypatch.setattr(th, "act", forbidden)
        monkeypatch.setattr(th, "distance", forbidden)
        for which in ("Stab_A", "Stab_C0", "HalfAptStab"):
            rep = th.check_theorem(TrialConfig(n=3, trials=5, seed=1), which)
            assert rep.ok, (which, rep.rows)


# --- golden generator stream -------------------------------------------------------


class TestGolden:
    def test_frozen_seed_zero_elements(self):
        # frozen wire forms; a change here means seeded streams moved and
        # every recorded counterexample stops replaying
        g = gen_group_elem(trial_rng(0, "golden", 0), 2)
        assert matrix_to_json(g) == [["0", "1"], ["-1", "0"]]
        g3 = gen_group_elem(trial_rng(0, "golden", 1), 3)
        assert matrix_to_json(g3) == [
            ["1", "t^2", "1/2*t^2"],
            ["0", "1", "t^4"],
            ["0", "0", "1"],
        ]


    @staticmethod
    def _draw_lines(sizes, streams):
        """Every generator's draws at each n of sizes, and where each leaves
        its stream, as one line per draw: `streams` streams per n, each
        drawing from every generator in turn."""
        lines = []
        for n in sizes:
            for trial in range(streams):
                rng = trial_rng(trial, "draws", n)
                for gen in (
                    gen_unipotent, gen_diagonal, gen_orthogonal, gen_group_elem,
                    gen_point, gen_diag_units, gen_stab_elem,
                ):
                    lines.append(f"{gen.__name__} {matrix_to_json(gen(rng, n))}")
                r = gen_root_elem(rng, n)
                lines.append(f"gen_root_elem {r.n} {r.i} {r.j} {fs.to_str(r.s)}")
                for gen in (gen_apartment_mu, gen_dominant_mu):
                    lines.append(f"{gen.__name__} {[str(v) for v in gen(rng, n)]}")
                lines.append(f"next {rng.getrandbits(32)}")
        return lines

    def test_seeded_draws_of_every_generator(self):
        """25 streams at each n = 2..5."""
        lines = self._draw_lines(range(2, 6), 25)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "0c3088bf3d65ab4997ebed6209a5495dbc0ae581af279cd645835e5ac9b6cc9e"

    def test_seeded_draws_beyond_five(self):
        """25 streams at n = 6 and 8 and 5 at n = 12, the sizes CI runs the
        suites at: the larger draws' skew Cayley matrices and diagonal
        products reach past what n <= 5 exercises."""
        lines = self._draw_lines((6, 8), 25) + self._draw_lines((12,), 5)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "6e0d7a65a3d619817a453fa8bc1a66b1014d4a760d893b2aabd694b342a6076a"


# --- the exchange example ----------------------------------------------------------


class TestExchangeExample:
    def test_three_charts_share_a_wall(self):
        # the unit root element at depth one: the three charts overlap in
        # the two half-apartments {mu1 - mu2 >= 1}, {mu1 - mu2 <= 1} and
        # meet in the wall at one
        from fractions import Fraction

        from lbldg.apartment import ApartmentVec, in_wconvex
        from lbldg.building import RootElem
        from lbldg.rootsys import type_A
        from lbldg.valfield import series as fs

        rs = type_A(1)
        u = RootElem(2, 1, 2, fs.parse("t")).as_group()
        opp = RootElem(2, 2, 1, fs.parse("t^(-1)")).as_group()
        ov12 = apartment_overlap(u)
        ov13 = apartment_overlap(opp)
        ov23 = apartment_overlap(u.inverse() @ opp)
        point = lambda a: ApartmentVec.from_mu(rs, [Fraction(a), -Fraction(a)])
        wall, plus, minus = point(Fraction(1, 2)), point(2), point(-1)
        assert in_wconvex(ov12[0], wall) and in_wconvex(ov12[0], plus)
        assert not in_wconvex(ov12[0], minus)
        assert in_wconvex(ov13[0], wall) and in_wconvex(ov13[0], minus)
        assert not in_wconvex(ov13[0], plus)
        assert in_wconvex(ov23[0], wall) and in_wconvex(ov23[0], plus)
        # the transition Weyl element is the reflection fixing the wall
        from lbldg.apartment import apply_weyl

        assert apply_weyl(ov23[1], wall) == wall
        assert apply_weyl(ov23[1], plus) == point(-1)


# --- CLI ---------------------------------------------------------------------------


@pytest.fixture()
def files(tmp_path):
    px = tmp_path / "x.json"
    py = tmp_path / "y.json"
    pg = tmp_path / "g.json"
    px.write_text(json.dumps(matrix_to_json(x_mu(ApartmentVec.from_mu(type_A(1), [1, -1])))))
    py.write_text(json.dumps(matrix_to_json(x_mu(ApartmentVec.from_mu(type_A(1), [0, 0])))))
    pg.write_text(json.dumps([["1", "t"], ["0", "1"]]))
    return px, py, pg


class TestCli:
    def test_dist(self, files):
        px, py, _ = files
        res = CliRunner().invoke(main, ["dist", str(px), str(py)])
        assert res.exit_code == 0 and res.output.strip() == "4"

    @pytest.mark.parametrize("swap", [False, True])
    def test_dist_of_points_of_different_sizes(self, files, tmp_path, swap):
        px, _, _ = files
        p3 = tmp_path / "x3.json"
        p3.write_text(json.dumps(matrix_to_json(x_mu(ApartmentVec.from_mu(type_A(2), [1, 0, -1])))))
        args = [str(p3), str(px)] if swap else [str(px), str(p3)]
        sizes = ("3 x 3", "2 x 2") if swap else ("2 x 2", "3 x 3")
        res = CliRunner().invoke(main, ["dist", *args])
        assert res.exit_code == 2 and res.stdout == ""
        assert f"got {sizes[0]} and {sizes[1]}" in res.stderr

    def test_retract(self, files):
        px, _, _ = files
        res = CliRunner().invoke(main, ["retract", str(px)])
        assert res.exit_code == 0
        assert json.loads(res.output) == {"mu": ["1", "-1"]}

    def test_overlap(self, files):
        _, _, pg = files
        res = CliRunner().invoke(main, ["overlap", str(pg)])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["constraints"] == [{"ell": "1", "i": 1, "j": 2}]
        assert data["weyl"]["perm"] == [1, 2]

    def test_parse_roundtrip(self):
        res = CliRunner().invoke(main, ["parse", "3/2*t^(-1/2) + t"])
        assert res.exit_code == 0 and res.output.strip() == "t + 3/2*t^(-1/2)"

    def test_parse_check_is_refused(self):
        # parse has no options: "--check" is read as the expression, and the
        # text after "--" is an argument too many
        res = CliRunner().invoke(main, ["parse", "--check", "--", "t"])
        assert res.exit_code == 2 and res.stdout == ""
        assert "Got unexpected extra argument (t)" in res.stderr

    def test_parse_refuses_a_lone_option(self):
        # no series text starts with '--' and a letter, so "--check" alone is
        # an option parse does not have; after "--" it is the expression
        res = CliRunner().invoke(main, ["parse", "--check"])
        assert res.exit_code == 2 and res.stdout == ""
        assert "No such option '--check'" in res.stderr
        res = CliRunner().invoke(main, ["parse", "--", "--check"])
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr == "error: expected an integer (offset 1)\n"

    @pytest.mark.parametrize("expr, out", [("--3", "3"), ("-t+1", "-t + 1")])
    def test_parse_reads_signs_before_a_digit_or_t(self, expr, out):
        res = CliRunner().invoke(main, ["parse", expr])
        assert res.exit_code == 0 and res.stdout == out + "\n"

    @pytest.mark.parametrize("expr", ["-t + 1", "-1", "-t"])
    def test_parse_leading_minus(self, expr):
        """A negative leading term is printed with a leading '-'; parse takes
        it as the expression, not as an option, and the output parses back."""
        res = CliRunner().invoke(main, ["parse", expr])
        assert res.exit_code == 0, res.output
        assert res.stdout == expr + "\n"
        assert fs.to_str(fs.parse(expr)) == expr

    def test_parse_error_exits_2(self):
        res = CliRunner().invoke(main, ["parse", "3t^(-1)"])
        assert res.exit_code == 2

    def test_parse_fuzz(self):
        """Seeded strings over the grammar's alphabet: exit 0 or 2, never a
        traceback, and every accepted output parses back to itself."""
        tokens = list("0123456789t^()/*+-O ") + ["t^(", "O(t^(", "3/2", "*t", " + "]
        rng = random.Random(20240)
        runner = CliRunner()
        accepted = 0
        for _ in range(4000):
            expr = "".join(rng.choice(tokens) for _ in range(rng.randint(0, 12)))
            res = runner.invoke(main, ["parse", "--", expr])
            assert res.exit_code in (0, 2), expr
            assert res.exception is None or isinstance(res.exception, SystemExit), expr
            if res.exit_code == 2:
                (line,) = res.stderr.splitlines()
                assert line.startswith("error: ") and res.stdout == "", expr
                continue
            accepted += 1
            out = res.stdout.rstrip("\n")
            again = runner.invoke(main, ["parse", "--", out])
            assert again.exit_code == 0 and again.stdout.rstrip("\n") == out, expr
        assert accepted > 50

    def test_a_digit_int_cannot_read_is_a_syntax_error(self):
        res = CliRunner().invoke(main, ["parse", "--", "t^(1/\u00b2)"])
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr == "error: expected an integer (offset 5)\n"

    def test_bad_entry_is_named_by_row_and_column(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([["1", "0"], ["0", "1/0"]]))
        res = CliRunner().invoke(main, ["retract", str(bad)])
        assert res.exit_code == 2 and res.stdout == ""
        (line,) = res.stderr.splitlines()
        assert line == (
            f"error: cannot read {bad}: row 2, column 2: denominator must be positive (offset 2)"
        )

    def test_bad_point_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = CliRunner().invoke(main, ["retract", str(bad)])
        assert res.exit_code == 2

    def test_non_square_point_file_exits_2(self, files, tmp_path):
        _, py, _ = files
        bad = tmp_path / "wide.json"
        bad.write_text(json.dumps([["1", "0", "0"], ["0", "1", "0"]]))
        res = CliRunner().invoke(main, ["dist", str(bad), str(py)])
        assert res.exit_code == 2 and res.stdout == ""
        (line,) = res.stderr.splitlines()
        assert line.startswith(f"error: cannot read {bad}: ") and "square" in line

    @pytest.mark.parametrize("command", ["retract", "dist"])
    @pytest.mark.parametrize(
        "rows, message",
        [
            ([["1", "0"], ["0"]], "matrix must be square and non-empty, got rows of lengths [2, 1]"),
            ([[1, 0], [0, 1]], "matrix must be a JSON list of rows, each a list of series strings"),
            ([["1", "0"], ["0", "t^"]], "row 2, column 2: expected an integer (offset 2)"),
            ([["t", "0"], ["0", "1"]], "determinant must be exactly 1"),
        ],
        ids=["ragged", "numbers", "bad-entry", "determinant"],
    )
    def test_malformed_point_files_exit_2(self, files, tmp_path, command, rows, message):
        _, py, _ = files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(rows))
        args = [str(bad)] if command == "retract" else [str(bad), str(py)]
        res = CliRunner().invoke(main, [command, *args])
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr == f"error: cannot read {bad}: {message}\n"

    @pytest.mark.parametrize("command", ["retract", "overlap"])
    @pytest.mark.parametrize(
        "text",
        ['["10", "01"]', '{"1": "x"}', "[[1,0],[0,1]]", '[["1",0],["0","1"]]'],
        ids=["string-rows", "object", "numbers", "mixed"],
    )
    def test_non_string_rows_exit_2(self, tmp_path, command, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        res = CliRunner().invoke(main, [command, str(bad)])
        assert res.exit_code == 2 and res.stdout == ""
        (line,) = res.stderr.splitlines()
        assert line == (
            f"error: cannot read {bad}: "
            "matrix must be a JSON list of rows, each a list of series strings"
        )

    @pytest.mark.parametrize("command", ["dist", "retract", "overlap"])
    def test_one_by_one_file_exits_2(self, tmp_path, command):
        """Every command turns down a 1 x 1 matrix with the same message."""
        one = tmp_path / "one.json"
        one.write_text(json.dumps([["1"]]))
        args = [str(one), str(one)] if command == "dist" else [str(one)]
        res = CliRunner().invoke(main, [command, *args])
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr == f"error: cannot read {one}: matrix is 1 x 1, but n must be at least 2\n"

    @pytest.mark.parametrize("command", ["dist", "retract", "overlap"])
    def test_floored_file_is_undecided(self, files, tmp_path, command):
        _, py, _ = files
        floored = tmp_path / "floored.json"
        floored.write_text(json.dumps([["1 + O(t^(1))", "0"], ["0", "1"]]))
        args = [str(floored), str(py)] if command == "dist" else [str(floored)]
        res = CliRunner().invoke(main, [command, *args])
        assert res.exit_code == 3 and res.stdout == ""
        assert res.stderr == (
            f"undecided: {command}: {floored}: "
            "determinant's t^0 coefficient masked by floor 1\n"
        )

    def test_masked_entry_is_named(self, tmp_path):
        masked = tmp_path / "masked.json"
        masked.write_text(json.dumps([["1", "0 + O(t^(-1))"], ["0", "1"]]))
        res = CliRunner().invoke(main, ["overlap", str(masked)])
        assert res.exit_code == 3 and res.stdout == ""
        assert res.stderr == "undecided: overlap: row 1, column 2: negval masked by floor -1\n"

    def test_seeded_bad_files_exit_0_2_or_3(self, tmp_path):
        """Malformed, floored, singular and mismatched-size files through
        dist, retract and overlap: exit 0, 2 (bad input) or 3 (undecided),
        with one stderr line and empty stdout on 2 and 3, and never an
        unhandled exception."""
        runner = CliRunner()
        seen = set()
        for trial in range(24):
            rng = trial_rng(5, "cli-bad-files", trial)
            n = rng.choice([2, 3])
            rows = {
                "x": matrix_to_json(gen_point(rng, n)),
                "y": matrix_to_json(gen_point(rng, n)),
                "g": matrix_to_json(gen_group_elem(rng, n)),
            }
            kind = ("malformed", "floored", "singular", "mismatched")[trial % 4]
            for name in ("x", "g"):
                m = rows[name]
                i, j = rng.randrange(n), rng.randrange(n)
                if kind == "malformed":
                    m[i][j] = rng.choice(["t^", "1/0", 7, "O(t)", "", None])
                elif kind == "floored":
                    floor = Fraction(rng.randint(-12, 12), 2)
                    m[:] = [
                        [fs.to_str(fs.with_floor(fs.parse(e), floor)) for e in row]
                        for row in m
                    ]
                elif kind == "singular":
                    m[i] = ["0"] * n
                else:
                    m.append(["0"] * n)
            if kind == "mismatched":
                rows["y"] = matrix_to_json(gen_point(rng, n + 1))
            paths = {}
            for name, m in rows.items():
                paths[name] = tmp_path / f"{name}.json"
                paths[name].write_text(json.dumps(m))
            for args in (
                ["dist", paths["x"], paths["y"]],
                ["retract", paths["x"]],
                ["overlap", paths["g"]],
            ):
                res = runner.invoke(main, [str(a) for a in args])
                label = (trial, kind, args[0])
                assert res.exit_code in (0, 2, 3), label
                assert res.exception is None or isinstance(res.exception, SystemExit), label
                if res.exit_code:
                    (line,) = res.stderr.splitlines()
                    prefix = "error: " if res.exit_code == 2 else f"undecided: {args[0]}: "
                    assert line.startswith(prefix) and res.stdout == "", label
                seen.add(res.exit_code)
        assert seen == {0, 2, 3}

    def test_axioms_json_out(self, tmp_path):
        out = tmp_path / "rep.json"
        res = CliRunner().invoke(
            main,
            ["axioms", "--which", "EC", "--n", "2", "--trials", "4",
             "--seed", "7", "--json", str(out)],
        )
        assert res.exit_code == 0
        assert "PASS EC:" in res.output
        data = json.loads(out.read_text())
        assert data["schema"] == "lbldg-report/1"
        assert data["reports"][0]["which"] == "EC"
        assert data["reports"][0]["ok"] is True

    def test_theorems_run(self):
        res = CliRunner().invoke(
            main, ["theorems", "--which", "Stab_o", "--n", "2", "--trials", "5"]
        )
        assert res.exit_code == 0 and "PASS Stab_o:" in res.output

    @pytest.mark.parametrize("command", ["axioms", "theorems"])
    @pytest.mark.parametrize(
        "option", ["--denominator-bound", "--magnitude-bound", "--factor-count"]
    )
    def test_lattice_options_are_gone(self, command, option):
        """The draw lattice is fixed: click rejects the old options."""
        value = "2" if option == "--factor-count" else "3"
        res = CliRunner().invoke(main, [command, "--n", "2", "--trials", "1", option, value])
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr.startswith("Usage: ")
        assert "No such option" in res.stderr and option in res.stderr

    def test_unknown_which_exits_2(self):
        res = CliRunner().invoke(main, ["axioms", "--which", "A9"])
        assert res.exit_code == 2

    def test_bad_config_exits_2(self):
        res = CliRunner().invoke(main, ["theorems", "--which", "Stab_o", "--n", "1"])
        assert res.exit_code == 2

    def test_failing_suite_exits_1(self, monkeypatch):
        def rigged(cfg):
            return [run_check("always fails", cfg, "rigged", lambda rng, t: {"bad": True})]

        monkeypatch.setitem(ax.AXIOMS, "A1", rigged)
        res = CliRunner().invoke(
            main, ["axioms", "--which", "A1", "--n", "2", "--trials", "2"]
        )
        assert res.exit_code == 1
        assert "FAIL A1:" in res.output

    def test_all_selector_covers_every_suite(self):
        res = CliRunner().invoke(
            main, ["axioms", "--which", "all", "--n", "2", "--trials", "2"]
        )
        assert res.exit_code == 0
        assert res.output.count("PASS") == len(ax.AXIOM_NAMES)

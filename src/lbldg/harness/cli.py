"""Command line interface.

Point and group inputs are JSON files holding a square array of series
strings, at least 2 x 2; parse takes one series text, with no options, and
prints its canonical form. Exit codes: 0 on success, 1 when a suite reports
failures, 2 for bad input or a bad configuration (a ValueError, malformed
JSON and series text among them, a TypeError, an OSError or another
lbldg.errors type), and 3 when a PrecisionError, raised reading a truncated
input or computing on it, leaves the answer undecided. Any other exception
is a defect and propagates with its traceback.
"""

import json
import sys
from contextlib import contextmanager

import click

from ..building import apartment_overlap, overlap_to_json
from ..errors import ConfigError, PrecisionError
from ..symspace import distance, group_from_json, point_from_json, retract
from ..valfield import series as fs
from .axioms import AXIOM_NAMES, check_axiom
from .config import TrialConfig
from .report import SCHEMA, format_lines, report_to_dict
from .theorems import THEOREM_NAMES, check_theorem


# bad input: what reading JSON and series text raises, and every package
# error type but PrecisionError, which is caught before these (each of the
# others is a ValueError)
_BAD_INPUT = (ValueError, TypeError, OSError)


@contextmanager
def _exits(command, path=None):
    """Exit 3 on a PrecisionError and 2 on bad input, with one stderr line
    naming the command or the file read; anything else propagates."""
    try:
        yield
    except PrecisionError as exc:
        where = f"{path}: " if path else ""
        click.echo(f"undecided: {command}: {where}{exc}", err=True)
        sys.exit(3)
    except _BAD_INPUT as exc:
        where = f"cannot read {path}: " if path else ""
        click.echo(f"error: {where}{exc}", err=True)
        sys.exit(2)


def _load(command, path, reader):
    with _exits(command, path):
        with open(path) as fh:
            return reader(json.load(fh))


@click.group()
def main():
    """Exact computations in the affine Lambda-building for SL(n)."""


@main.command()
@click.argument("x", type=click.Path(exists=True))
@click.argument("y", type=click.Path(exists=True))
def dist(x, y):
    """Distance between two points given as series-matrix JSON files."""
    px = _load("dist", x, point_from_json)
    py = _load("dist", y, point_from_json)
    with _exits("dist"):
        d = distance(px, py)
    click.echo(str(d.finite_value))


@main.command(name="retract")
@click.argument("x", type=click.Path(exists=True))
def retract_cmd(x):
    """Apartment coordinates of the retraction of a point."""
    px = _load("retract", x, point_from_json)
    with _exits("retract"):
        mu = retract(px).to_mu()
    click.echo(json.dumps({"mu": [str(v) for v in mu]}))


@main.command()
@click.argument("g", type=click.Path(exists=True))
def overlap(g):
    """Overlap of a chart with the model apartment, as constraints plus the
    Weyl transport, or {"empty": true}."""
    elem = _load("overlap", g, group_from_json)
    with _exits("overlap"):
        result = apartment_overlap(elem)
    click.echo(json.dumps(overlap_to_json(result), sort_keys=True))


def _suite_options(fn):
    for deco in (
        click.option("--which", default="all", show_default=True),
        click.option("--n", default=3, show_default=True),
        click.option("--trials", default=100, show_default=True),
        click.option("--seed", default=0, show_default=True),
        click.option("--json", "json_out", type=click.Path(), default=None),
    ):
        fn = deco(fn)
    return fn


def _run_suites(kind, names, runner, which, cfg, json_out):
    if which != "all" and which not in names:
        click.echo(
            f"error: unknown {kind} {which!r}; choose from "
            f"{', '.join(names)} or all",
            err=True,
        )
        sys.exit(2)
    picked = names if which == "all" else (which,)
    try:
        reports = [runner(cfg, name) for name in picked]
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    for rep in reports:
        for line in format_lines(rep):
            click.echo(line)
    if json_out:
        payload = {
            "schema": SCHEMA,
            "kind": kind,
            "reports": [report_to_dict(r) for r in reports],
        }
        with open(json_out, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if not all(r.ok for r in reports):
        sys.exit(1)


@main.command()
@_suite_options
def axioms(which, n, trials, seed, json_out):
    """Run axiom suites (A1, A2, A3r, TI, A4, EC)."""
    cfg = TrialConfig(n, trials, seed)
    _run_suites("axioms", AXIOM_NAMES, check_axiom, which, cfg, json_out)


@main.command()
@_suite_options
def theorems(which, n, trials, seed, json_out):
    """Run theorem suites (stabilizers, retraction, germs, infinity)."""
    cfg = TrialConfig(n, trials, seed)
    _run_suites("theorems", THEOREM_NAMES, check_theorem, which, cfg, json_out)


class _SeriesCommand(click.Command):
    """parse's command: its one argument is series text and may start with
    '-' ("-t + 1"). No series text starts with '--' and a letter, so that
    argument, given first rather than after '--', is an unknown option."""

    def parse_args(self, ctx, args):
        first = list(args[:1])  # click consumes args as it parses
        rest = super().parse_args(ctx, args)
        expr = ctx.params.get("expr")
        if first == [expr] and expr[:2] == "--" and expr[2:3].isalpha():
            raise click.NoSuchOption(expr, ctx=ctx)
        return rest


@main.command(cls=_SeriesCommand, context_settings={"ignore_unknown_options": True})
@click.argument("expr")
def parse(expr):
    """Parse a series expression; echoes the canonical form."""
    with _exits("parse"):
        val = fs.parse(expr)
    click.echo(fs.to_str(val))

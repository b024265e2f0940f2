"""Command line interface.

Point and group inputs are JSON files holding a square array of series
strings. Exit codes: 0 when every requested check passes, 1 when a suite
reports failures, 2 for unreadable input or a bad configuration.
"""

import json
import sys

import click

from ..building import apartment_overlap, overlap_to_json
from ..errors import ConfigError
from ..symspace import distance, group_from_json, point_from_json, retract
from ..valfield import series as fs
from .axioms import AXIOM_NAMES, check_axiom
from .config import TrialConfig
from .report import SCHEMA, format_lines, report_to_dict
from .theorems import THEOREM_NAMES, check_theorem


def _load(path, reader):
    try:
        with open(path) as fh:
            data = json.load(fh)
        return reader(data)
    except Exception as exc:
        click.echo(f"error: cannot read {path}: {exc}", err=True)
        sys.exit(2)


@click.group()
def main():
    """Exact computations in the affine Lambda-building for SL(n)."""


@main.command()
@click.argument("x", type=click.Path(exists=True))
@click.argument("y", type=click.Path(exists=True))
def dist(x, y):
    """Distance between two points given as series-matrix JSON files."""
    px = _load(x, point_from_json)
    py = _load(y, point_from_json)
    try:
        click.echo(str(distance(px, py).finite_value))
    except Exception as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


@main.command(name="retract")
@click.argument("x", type=click.Path(exists=True))
def retract_cmd(x):
    """Apartment coordinates of the retraction of a point."""
    px = _load(x, point_from_json)
    try:
        mu = retract(px).to_mu()
    except Exception as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    click.echo(json.dumps({"mu": [str(v) for v in mu]}))


@main.command()
@click.argument("g", type=click.Path(exists=True))
def overlap(g):
    """Overlap of a chart with the model apartment, as constraints plus the
    Weyl transport, or {"empty": true}."""
    elem = _load(g, group_from_json)
    try:
        result = apartment_overlap(elem)
    except Exception as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    click.echo(json.dumps(overlap_to_json(result), sort_keys=True))


def _suite_options(fn):
    for deco in (
        click.option("--which", default="all", show_default=True),
        click.option("--n", default=3, show_default=True),
        click.option("--trials", default=100, show_default=True),
        click.option("--seed", default=0, show_default=True),
        click.option("--denominator-bound", default=2, show_default=True),
        click.option("--magnitude-bound", default=4, show_default=True),
        click.option("--factor-count", default=3, show_default=True),
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
def axioms(which, n, trials, seed, denominator_bound, magnitude_bound, factor_count, json_out):
    """Run axiom suites (A1, A2, A3r, TI, A4, EC)."""
    cfg = TrialConfig(n, trials, seed, denominator_bound, magnitude_bound, factor_count)
    _run_suites("axioms", AXIOM_NAMES, check_axiom, which, cfg, json_out)


@main.command()
@_suite_options
def theorems(which, n, trials, seed, denominator_bound, magnitude_bound, factor_count, json_out):
    """Run theorem suites (stabilizers, retraction, germs, infinity)."""
    cfg = TrialConfig(n, trials, seed, denominator_bound, magnitude_bound, factor_count)
    _run_suites("theorems", THEOREM_NAMES, check_theorem, which, cfg, json_out)


# a leading minus belongs to the expression ("-t + 1" is canonical output)
@main.command(context_settings={"ignore_unknown_options": True})
@click.option("--check", is_flag=True, help="validate only; print nothing on success")
@click.argument("expr")
def parse(check, expr):
    """Parse a series expression; echoes the canonical form."""
    try:
        val = fs.parse(expr)
    except Exception as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    if not check:
        click.echo(fs.to_str(val))

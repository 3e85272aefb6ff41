"""Command-line pipeline: ingest -> build -> betti / nerve / persist / compare.

All outputs are deterministic: identical inputs and flags produce
byte-identical files.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import sys
from pathlib import Path

import click

import hypercode
from hypercode import codes, homology, synth
from hypercode.compare import compare_levels
from hypercode.errors import HypercodeError, ParseError
from hypercode.hyperstructure import (
    DECOMPOSITION_MODES,
    BuildConfig,
    Hyperstructure,
    build_hyperstructure,
)
from hypercode.topology import (
    DEFAULT_CLIQUE_BUDGET,
    NERVE_RULES,
    NerveConfig,
    gluing_graph,
    level_complex,
    nerve,
)


def _domain_errors(fn):
    """End a domain error, a path the OS refuses, or running out of memory,
    as one ``error:`` line and exit 1.  An ``OverflowError`` that no parser
    turned into a domain error is a mask or table too large for the process."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (HypercodeError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except (MemoryError, OverflowError):
            click.echo("error: out of memory", err=True)
            sys.exit(1)

    return wrapper


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _write_texts(outputs: list[tuple[str, str]]) -> None:
    """Write each (path, text), or no file when the OS refuses one path or
    two paths name one file.

    Every path is first opened in append mode, which truncates nothing; a
    file that probe created is removed again when the outputs are refused.
    """
    created = []
    try:
        for pos, (path, _) in enumerate(outputs):
            new = not os.path.lexists(path)
            open(path, "a").close()
            if new:
                created.append(path)
            for earlier, _ in outputs[:pos]:
                if os.path.samefile(earlier, path):
                    raise ParseError(f"{earlier} and {path} name one file")
    except (OSError, ParseError):
        for path in created:
            os.remove(path)
        raise
    for path, text in outputs:
        Path(path).write_text(text)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid text: {exc}") from exc


def _read_json(path: str):
    try:
        return json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def _load_hs(path: str) -> Hyperstructure:
    return Hyperstructure.from_json_obj(_read_json(path))


def _echo_betti(k, max_dim=None, dim_cap=None) -> None:
    """Print Betti numbers; when they stop below the complex dimension unasked, say so on stderr."""
    b = homology.betti(k, max_dim=max_dim, dim_cap=dim_cap)
    if max_dim is None and len(b) <= k.dim:
        click.echo(
            f"note: complex dimension {k.dim} exceeds dim_cap {homology.resolve_dim_cap(dim_cap)}; "
            f"printing beta_0..beta_{len(b) - 1}",
            err=True,
        )
    click.echo(",".join(str(x) for x in b))


def _print_version(ctx, param, value):
    if not value or ctx.resilient_parsing:
        return
    click.echo(
        f"hypercode {hypercode.__version__} "
        f"(schema v{hypercode.SCHEMA_VERSION}, gf2 kernel: {hypercode.GF2_BACKEND})"
    )
    ctx.exit()


@click.group()
@click.option(
    "--version",
    is_flag=True,
    callback=_print_version,
    expose_value=False,
    is_eager=True,
    help="Print version and schema information.",
)
def cli():
    """Higher-order neural code analysis."""


@cli.command()
@click.argument("path", type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(["matrix", "events"]), default="matrix")
@click.option("--header", is_flag=True, help="Skip one header line (matrix format).")
@click.option("--dt", type=float, default=None, help="Bin width in seconds (events format).")
@click.option("--neurons", type=int, default=None, help="Neuron count (events format; default: inferred).")
@click.option("-o", "--output", required=True, type=click.Path())
@_domain_errors
def ingest(path, fmt, header, dt, neurons, output):
    """Parse spike data into an occurrence-log JSON file."""
    if fmt == "matrix" and (dt is not None or neurons is not None):
        raise ParseError("--dt and --neurons apply to --format events only")
    if fmt == "events" and header:
        raise ParseError("--header applies to --format matrix only")
    text = _read_text(path)
    if fmt == "matrix":
        _, log = codes.parse_spike_matrix(text, header=header)
    else:
        if dt is None:
            raise ParseError("events format requires --dt")
        events = []
        for row in csv.reader(text.splitlines()):
            if not row or row[0].strip() == "neuron_id":
                continue
            if len(row) != 2:
                raise ParseError(f"bad event row {row!r}: {len(row)} cells, not 2")
            try:
                events.append((int(row[0]), float(row[1])))
            except ValueError as exc:
                raise ParseError(f"bad event row {row!r}: {exc}") from exc
        n = neurons if neurons is not None else max((e[0] for e in events), default=-1) + 1
        log = codes.bin_event_list(events, dt, n)
    _write_texts([(output, _json_text(codes.log_to_json_obj(log)))])


@cli.command()
@click.argument("log_path", type=click.Path(exists=True))
@click.option("--max-level", type=int, default=3, show_default=True)
@click.option(
    "--decomposition",
    type=click.Choice(DECOMPOSITION_MODES),
    default="exact-cover",
    show_default=True,
)
@click.option("--min-count", type=int, default=1, show_default=True)
@click.option("--two-pass", is_flag=True, help="Collect level-1 patterns before counting.")
@click.option("--keep-union-words", is_flag=True, help="Also record decomposable unions as level-1 patterns.")
@click.option("-o", "--output", required=True, type=click.Path())
@_domain_errors
def build(log_path, max_level, decomposition, min_count, two_pass, keep_union_words, output):
    """Build a hyperstructure from an occurrence-log JSON file."""
    log = codes.log_from_json_obj(_read_json(log_path))
    config = BuildConfig(
        max_level=max_level,
        decomposition=decomposition,
        min_count=min_count,
        two_pass=two_pass,
        keep_union_words=keep_union_words,
    )
    hs = build_hyperstructure(log, config)
    _write_texts([(output, _json_text(hs.to_json_obj()))])


@cli.command()
@click.argument("hs_path", type=click.Path(exists=True))
@click.option("--level", type=int, required=True)
@click.option("--max-dim", type=int, default=None, help="Highest homology dimension (default: complex dimension; cap - 1 above the dim cap).")
@click.option("--dim-cap", type=int, default=None)
@_domain_errors
def betti(hs_path, level, max_dim, dim_cap):
    """Print Betti numbers of a level complex, comma-separated."""
    hs = _load_hs(hs_path)
    _echo_betti(level_complex(hs, level), max_dim=max_dim, dim_cap=dim_cap)


@cli.command("nerve")
@click.argument("hs_path", type=click.Path(exists=True))
@click.option("--rule", type=click.Choice(NERVE_RULES), default="pairwise", show_default=True)
@click.option("--include-levels", default=None, help="Comma-separated levels (default: all).")
@click.option("--clique-budget", type=int, default=DEFAULT_CLIQUE_BUDGET, show_default=True)
@click.option("-o", "--output", type=click.Path(), default=None, help="Write nerve complex JSON here.")
@click.option("--betti", "print_betti", is_flag=True, help="Print the nerve's Betti numbers.")
@click.option("--dot", type=click.Path(), default=None, help="Write a gluing-graph DOT file.")
@click.option("--dot-levels", type=int, nargs=2, default=None, help="(i, j) stratum for --dot.")
@_domain_errors
def nerve_cmd(hs_path, rule, include_levels, clique_budget, output, print_betti, dot, dot_levels):
    """Compute the nerve of a hyperstructure."""
    if dot and not dot_levels:
        raise ParseError("--dot requires --dot-levels I J")
    if dot_levels and not dot:
        raise ParseError("--dot-levels requires --dot")
    try:
        levels = (
            frozenset(int(x) for x in include_levels.split(","))
            if include_levels is not None
            else None
        )
    except ValueError:
        raise ParseError(
            f"--include-levels must be comma-separated integers, got {include_levels!r}"
        ) from None
    hs = _load_hs(hs_path)
    dot_text = gluing_graph(hs, *dot_levels).to_dot() if dot else None
    k = nerve(hs, NerveConfig(rule=rule, include_levels=levels, clique_budget=clique_budget))
    outputs = [(output, _json_text(k.to_json_obj()))] if output else []
    if dot:
        outputs.append((dot, dot_text))
    _write_texts(outputs)
    if print_betti or not output:
        _echo_betti(k)


@cli.command()
@click.argument("hs_path", type=click.Path(exists=True))
@click.option("--level", type=int, default=None, help="Single level (default: all levels).")
@click.option("--dim-cap", type=int, default=None)
@click.option("--keep-zero", is_flag=True, help="Keep zero-length intervals.")
@click.option("-o", "--output", required=True, type=click.Path())
@_domain_errors
def persist(hs_path, level, dim_cap, keep_zero, output):
    """Write frequency-filtered persistence barcodes as CSV."""
    hs = _load_hs(hs_path)
    seq = []
    for i in range(1, hs.k + 1) if level is None else (level,):
        f = homology.frequency_filtration(hs, i, dim_cap=dim_cap)
        if f.truncated:
            click.echo(
                f"note: level {i}: complex dimension exceeds dim_cap {f.top}; "
                f"intervals of dimension {f.top} and above dropped",
                err=True,
            )
        seq.append((i, homology.persistence(f, keep_zero=keep_zero)))
    _write_texts([(output, homology.barcodes_to_csv(seq))])


@cli.command()
@click.argument("a_path", type=click.Path(exists=True))
@click.argument("b_path", type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json", show_default=True)
@click.option("--with-nerve", is_flag=True, help="Include nerve Betti vectors.")
@click.option("-o", "--output", type=click.Path(), default=None)
@_domain_errors
def compare(a_path, b_path, fmt, with_nerve, output):
    """Compare two hyperstructures levelwise by canonical bond identity."""
    report = compare_levels(_load_hs(a_path), _load_hs(b_path), with_nerve=with_nerve)
    text = _json_text(report.to_json_obj()) if fmt == "json" else report.to_table()
    if output:
        _write_texts([(output, text)])
    else:
        click.echo(text, nl=False)


@cli.command("synth")
@click.argument("spec_path", type=click.Path(exists=True))
@click.option("-o", "--output", required=True, type=click.Path())
@_domain_errors
def synth_cmd(spec_path, output):
    """Generate a spike matrix CSV from a synthesis spec JSON file."""
    spec = synth.SynthSpec.from_json_obj(_read_json(spec_path))
    _write_texts([(output, synth.matrix_to_csv(synth.synth_generate(spec)))])


def main():
    cli()


if __name__ == "__main__":
    main()

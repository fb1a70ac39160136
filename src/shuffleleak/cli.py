"""Command-line interface: run configs, validate them, run figure presets.

Exit codes: 0 success, 2 config error, 3 enumeration resource limit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .config import parse_config
from .errors import ResourceLimitError
from .montecarlo import MIN_SAMPLES, SEED_LIMIT
from .runner import ceiling_diagnostics, preset_configs, run_configs, to_csv

SEED = click.IntRange(0, SEED_LIMIT, max_open=True)
SAMPLES = click.IntRange(min=MIN_SAMPLES)


def _parse_file(path: str):
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    return parse_config(doc)


def _run_and_emit(configs, workers: int, out: str | None) -> None:
    # the file is written after the run, so a path that cannot hold it is refused first
    if out is not None and (Path(out).is_dir() or not Path(out).parent.is_dir()):
        problem = "is a directory" if Path(out).is_dir() else "is in a missing directory"
        click.echo(f"output error: {out} {problem}", err=True)
        sys.exit(2)
    try:
        rows = run_configs(configs, workers=workers)
    except ResourceLimitError as exc:
        click.echo(f"resource limit: {exc}", err=True)
        sys.exit(3)
    text = to_csv(rows)
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        click.echo(f"output error: {out}: {exc.strerror}", err=True)
        sys.exit(2)


@click.group()
def main():
    """Information-leakage experiments for shuffle-based anonymization."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", type=click.Path(), default=None, help="Write CSV here instead of stdout.")
@click.option("--samples", type=SAMPLES, default=None,
              help="Override Monte Carlo sample count.")
@click.option("--seed", type=SEED, default=None, help="Override the config seed.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
def run(config_path, out, samples, seed, workers):
    """Run one experiment config and emit a CSV table."""
    cfg, diags = _parse_file(config_path)
    if diags:
        for d in diags:
            click.echo(str(d), err=True)
        sys.exit(2)
    _run_and_emit([cfg.with_overrides(samples=samples, seed=seed)], workers, out)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
def validate(config_path):
    """Check a config; print one diagnostic per problem."""
    cfg, diags = _parse_file(config_path)
    if cfg is not None:
        diags += ceiling_diagnostics(cfg)
    if diags:
        for d in diags:
            click.echo(str(d))
        sys.exit(2)
    click.echo("ok")


@main.command()
@click.argument("name", type=click.Choice(["fig1", "fig2", "fig3"]))
@click.option("--out", type=click.Path(), default=None)
@click.option("--samples", type=SAMPLES, default=None)
@click.option("--seed", type=SEED, default=None)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
def preset(name, out, samples, seed, workers):
    """Run a built-in experiment battery (fig1, fig2, or fig3)."""
    _run_and_emit(preset_configs(name, samples, seed), workers, out)


if __name__ == "__main__":
    main()

"""Execute experiment configs into CSV rows, plus the built-in presets.

Rows are computed independently (each Monte Carlo row owns a seed derived
from the config seed and the row's position in the plan; other rows take
no seed), buffered, and emitted in config order, so output bytes do not
depend on the worker count.

Worker threads run only long cells, those whose driver splits them into
several pieces of numpy work: a Monte Carlo row of more than one block, or
an exact cell of more than one enumeration chunk within the ceiling. Two
such cells can overlap, because numpy releases the interpreter lock inside
each piece. A short cell takes a few hundred µs and holds the lock nearly
all the time, so another thread only contends for it. A batch with at
least two long cells runs in two phases: the calling thread first runs the
short cells in plan order, then a pool runs the long cells (only those
ahead of the first short cell that raised, if one did). Short cells go
first so that an inline failure starts no pooled cell; any other batch
runs inline.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import asymptotics as asym
from . import exact, montecarlo
from .config import ExperimentConfig, cell_methods, exact_cell
from .errors import InvalidParameterError, ResourceLimitError
from .mechanisms import blanket_of_randomizer, ldp_epsilon, make_krr
from .probability import make_uniform, make_zipf

CSV_HEADER = ("case", "n", "method", "quantity", "value_nats", "stderr")


@dataclass(frozen=True)
class ResultRow:
    case: str
    n: int
    method: str
    quantity: str
    value: float
    stderr: float | None


def _derive_seed(seed: int, cfg_index: int, row_index: int) -> int:
    ss = np.random.SeedSequence(entropy=(seed & ((1 << 64) - 1), cfg_index, row_index))
    return int(ss.generate_state(1, np.uint64)[0])


def compute_row(cfg: ExperimentConfig, n: int, method: str, row_seed: int) -> ResultRow | None:
    """Evaluate one (n, method) cell of a config. Returns None when an
    exact cell is skipped for exceeding the ceiling under 'all'."""
    if method not in cell_methods(cfg):
        raise InvalidParameterError(f"method {method!r} is not planned for this config")
    quantity = cfg.quantity
    value: float
    stderr: float | None = None

    if method == "exact":
        try:
            value = exact_cell(cfg, n)[1]()
        except ResourceLimitError:
            if cfg.method == "all":
                return None
            raise
    elif cfg.mode == "shuffle_only":
        p, q = cfg.p, cfg.cover
        if method == "mc":
            est = (
                montecarlo.estimate_position_mi(p, q, n, cfg.samples, row_seed)
                if quantity == "IK"
                else montecarlo.estimate_message_mi(p, q, n, cfg.samples, row_seed)
            )
            value, stderr = est.estimate, est.stderr
        else:  # asym
            term = (
                asym.position_mi_expansion(p, q)
                if quantity == "IK"
                else asym.message_mi_expansion(p, q)
            )
            value = term.evaluate(n)
    else:
        r = cfg.mechanism
        prior = cfg.input_prior()
        if method == "mc":
            est = montecarlo.estimate_input_mi(r, prior, n, cfg.samples, row_seed)
            value, stderr = est.estimate, est.stderr
        elif method == "asym":
            value = asym.mixed_signal_rate(prior, r, asym.row_mixture(prior, r), n - 1)
        elif method == "bound_unified":
            value = asym.input_mi_dp_bound(ldp_epsilon(r), n)
        elif method == "bound_blanket":
            qb = blanket_of_randomizer(r).generalized_blanket
            value = asym.mean_chi2(prior, r, qb) / (2.0 * n)
        elif method == "bound_position":
            value = asym.position_mi_dp_bound(ldp_epsilon(r))
        else:  # bound_clone
            value = asym.clone_message_bound(
                len(r.output_labels), ldp_epsilon(r), n
            )
    return ResultRow(cfg.label, n, method, quantity, value, stderr)


def _is_long(cfg: ExperimentConfig, n: int, method: str) -> bool:
    """True for a cell of several pieces of numpy work: a Monte Carlo row of
    more than one block, or an exact cell of more than one enumeration chunk
    within the ceiling (a cell over it only raises or is skipped)."""
    if method == "mc":
        return cfg.samples > montecarlo.BLOCK_SIZE
    if method == "exact":
        return exact.CHUNK_ROWS < exact_cell(cfg, n)[0] <= exact.MAX_STATES
    return False


def run_configs(configs: Sequence[ExperimentConfig], workers: int = 1) -> list[ResultRow]:
    """Run every (n, method) cell of every config, in plan order.

    Exact cells are skipped (not errored) when infeasible under the 'all'
    selector; an explicit 'exact' request propagates the resource error.
    With ``workers`` > 1 and at least two long cells (``_is_long``), the
    batch runs in two phases: the calling thread runs the other cells in
    plan order and stops at the first that raises, then a pool of
    ``workers`` threads runs the long cells ahead of that failure, and
    after a pooled failure no later pooled cell starts. Otherwise every
    cell runs on the calling thread. A failing batch raises the error of
    its first failing cell in plan order, as one worker does.
    """
    tasks = []
    for ci, cfg in enumerate(configs):
        for n in cfg.n_grid:
            for method in cell_methods(cfg):
                # only Monte Carlo rows use a seed; the index is the plan position
                seed = _derive_seed(cfg.seed, ci, len(tasks)) if method == "mc" else 0
                tasks.append((cfg, n, method, seed))

    long = [i for i, task in enumerate(tasks) if _is_long(*task[:3])] if workers > 1 else []
    if len(long) < 2:
        long = []
    results: list[ResultRow | None] = [None] * len(tasks)
    failure = None
    pooled = set(long)
    for i, task in enumerate(tasks):
        if i in pooled:
            continue
        try:
            results[i] = compute_row(*task)
        except Exception as exc:
            failure = exc
            long = [j for j in long if j < i]
            break

    if long:
        stop = [len(tasks)]  # the plan index of the first pooled failure

        def run_long(i: int) -> ResultRow | None:
            if i > stop[0]:
                return None  # behind a failure: its error is raised first
            try:
                return compute_row(*tasks[i])
            except Exception:
                stop[0] = min(stop[0], i)
                raise

        with ThreadPoolExecutor(max_workers=workers) as pool:
            # results arrive in plan order, so the first pooled error wins
            for i, row in zip(long, pool.map(run_long, long)):
                results[i] = row
    if failure is not None:
        raise failure
    return [r for r in results if r is not None]


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def to_csv(rows: Sequence[ResultRow]) -> str:
    """Render rows as a CSV document ('.' decimal, comma separator).

    Fields are quoted as RFC 4180 asks, so any label reads back intact.
    """
    out = io.StringIO()
    plain = csv.writer(out, lineterminator="\n")
    # the csv module quotes a field for the line terminator's characters
    # only, so a label with a bare carriage return is quoted explicitly
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow(CSV_HEADER)
    for r in rows:
        stderr = "" if r.stderr is None else _fmt(r.stderr)
        writer = quoted if "\r" in r.case else plain
        writer.writerow((r.case, r.n, r.method, r.quantity, _fmt(r.value), stderr))
    return out.getvalue()


_FIG1_GRID = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
_MC_GRID = (16, 32, 64, 128, 256, 512, 1024)  # the fig2 and fig3 populations
# six blocks: with the control variate, every fig2/fig3 Monte Carlo row has
# no larger a stderr than the plain score at 10^5 samples
PRESET_SAMPLES = 6 * montecarlo.BLOCK_SIZE


def preset_configs(name: str, samples: int | None = None, seed: int | None = None):
    """Built-in experiment batteries over log-spaced population grids.

    fig1: matched-channel message leakage, exact closed form vs its
    leading rate, for uniform and Zipf targets. fig2: Zipf target against
    uniform, matched, and optimal covers (Monte Carlo vs expansions).
    fig3: 4-ary randomized response at eps0 = 1 with uniform inputs
    (Monte Carlo vs the mixed-signal rate and the DP-derived bounds).
    Monte Carlo rows draw PRESET_SAMPLES unless ``samples`` is given.
    """
    zipf = make_zipf(4, 0.7)
    if name == "fig1":
        cfgs = [
            ExperimentConfig(
                quantity="IY1", p=make_uniform(4), n_grid=_FIG1_GRID,
                method="exact+asym", label="uniform_m4",
            ),
            ExperimentConfig(
                quantity="IY1", p=zipf, n_grid=_FIG1_GRID,
                method="exact+asym", label="zipf_m4_a07",
            ),
        ]
    elif name == "fig2":
        uniform = make_uniform(4)
        optimal = asym.optimal_cover(zipf)
        cfgs = [
            ExperimentConfig(quantity="IK", p=zipf, q=uniform, n_grid=_MC_GRID,
                             method="mc+asym", label="q_uniform_ik"),
            ExperimentConfig(quantity="IY1", p=zipf, q=uniform, n_grid=_MC_GRID,
                             method="mc+asym", label="q_uniform_iy1"),
            ExperimentConfig(quantity="IY1", p=zipf, n_grid=_MC_GRID,
                             method="mc+asym", label="q_matched_iy1"),
            ExperimentConfig(quantity="IY1", p=zipf, q=optimal, n_grid=_MC_GRID,
                             method="mc+asym", label="q_optimal_iy1"),
        ]
    elif name == "fig3":
        cfgs = [
            ExperimentConfig(
                mode="shuffle_dp", quantity="IX1", mechanism=make_krr(4, 1.0),
                n_grid=_MC_GRID, method="mc+asym+bounds", label="krr4_eps1",
            ),
        ]
    else:
        raise InvalidParameterError(f"unknown preset {name!r}")
    if samples is None:
        samples = PRESET_SAMPLES
    return [c.with_overrides(samples=samples, seed=seed) for c in cfgs]


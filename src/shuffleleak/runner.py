"""Execute experiment configs into CSV rows, plus the built-in presets.

Rows are computed independently (each Monte Carlo row owns a seed derived
from the config seed and the row's position in the plan; other rows take
no seed), buffered, and emitted in config order, so output bytes do not
depend on the worker count.

Worker threads run only long cells, those whose driver splits them into
several pieces of numpy work: a Monte Carlo row of more than one block, or
an exact cell whose work (``cells``) is above one enumeration chunk,
``exact.CHUNK_ROWS``. Two such cells can overlap, because numpy releases
the interpreter lock inside each piece. A short cell takes a few hundred
µs and holds the lock nearly all the time, so another thread only
contends for it. A batch with at least two long cells runs in two phases:
the calling thread first runs the short cells in plan order, then a pool
runs the long cells (only those ahead of the first short cell that
raised, if one did). Short cells go first so that an inline failure
starts no pooled cell; any other batch runs inline.

``run_configs`` builds each config's cell table (``cells``) once, on the
calling thread and before any cell runs; there an exact cell over the state
ceiling is dropped ('all') or refuses the batch (an explicit 'exact'). Each
planned cell's call goes to ``compute_row``.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from itertools import cycle, islice
from typing import Sequence

import numpy as np

from . import asymptotics as asym
from . import config, exact, montecarlo
from .config import Diagnostic, ExperimentConfig, cell_methods
from .errors import InvalidInputError, InvalidParameterError
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
    if not 0 <= seed < montecarlo.SEED_LIMIT:
        raise InvalidParameterError("seed must be in [0, 2^64)")
    ss = np.random.SeedSequence(entropy=(seed, cfg_index, row_index))
    return int(ss.generate_state(1, np.uint64)[0])


def _free(value):
    """The pair of an expansion or bound row: no work, and no stderr."""
    return (lambda n: 0), (lambda n, seed: (value(n), None))


def cells(cfg: ExperimentConfig) -> dict:
    """The config's planned methods, in plan order, each mapped to a pair
    (work, value) of functions of n.

    ``work(n)`` is what the cell costs, known without running it: the state
    count its exact oracle checks against the ceiling (pmf terms for the
    matched closed form, grid cells for the dense driver), the samples of a
    Monte Carlo row, or 0 for an expansion or a bound. ``value(n, seed)``
    returns (value, stderr), stderr None but for Monte Carlo; ``run_configs``
    never calls it for an exact cell over the ceiling. The values that no
    n changes (the expansion, the prior, the prior vector, eps0, the blanket
    chi-square) are built here, each only when a planned method reads it;
    the per-n oracles, estimators and bounds are looked up when a value runs.
    """
    planned = cell_methods(cfg)
    table = {}
    if cfg.mode == "shuffle_only":
        p, q = cfg.p, cfg.cover
        ik = cfg.quantity == "IK"
        if "exact" in planned and not ik and p.same_mass(q):
            table["exact"] = (lambda n: exact.states_binomial(p, n),
                              lambda n, seed: (exact.matched_message_mi(p, n), None))
        elif "exact" in planned:
            table["exact"] = lambda n: exact.states_shuffle_only(p, q, n), lambda n, seed: (
                (exact.position_mi_exact if ik else exact.message_mi_exact)(p, q, n), None)
        if "mc" in planned:
            table["mc"] = lambda n: cfg.samples, lambda n, seed: _value_and_stderr(
                (montecarlo.estimate_position_mi if ik else montecarlo.estimate_message_mi)(
                    p, q, n, cfg.samples, seed))
        if "asym" in planned:
            expansion = (asym.position_mi_expansion if ik else asym.message_mi_expansion)(p, q)
            table["asym"] = _free(lambda n: expansion.evaluate(n))
        return table

    r = cfg.mechanism
    k = len(r.output_labels)
    prior = cfg.input_prior() if cfg.quantity == "IX1" else None  # every IX1 method reads it
    if "exact" in planned and cfg.quantity == "IX1":
        table["exact"] = (lambda n: exact.states_input_mi(n, k),
                          lambda n, seed: (exact.input_mi_iid_others(r, prior, n), None))
    elif "exact" in planned:
        table["exact"] = (lambda n: exact.states_position_dp(n, k)), lambda n, seed: (
            exact.position_mi_fixed_inputs(
                r, cfg.x_inputs or tuple(islice(cycle(r.input_labels), n))), None)
    if "mc" in planned:
        table["mc"] = lambda n: cfg.samples, lambda n, seed: _value_and_stderr(
            montecarlo.estimate_input_mi(r, prior, n, cfg.samples, seed))
    if "asym" in planned:
        prior_vec = exact._prior_vector(prior, r.input_labels)
        marginal = prior_vec @ r.kernel  # the law of one user's message
        table["asym"] = _free(lambda n: asym.signal_rate(prior_vec, r.kernel, [marginal], [n - 1]))
    if any(m.startswith("bound_") for m in planned):
        eps0 = ldp_epsilon(r)  # every quantity's bounds read it
    if "bound_unified" in planned:
        table["bound_unified"] = _free(lambda n: asym.input_mi_dp_bound(eps0, n))
    if "bound_blanket" in planned:
        # the prior's mean chi-square of the rows from the generalized blanket
        chi2 = asym.mean_chi2(prior, r, blanket_of_randomizer(r).generalized_blanket)
        table["bound_blanket"] = _free(lambda n: chi2 / (2.0 * n))
    if "bound_position" in planned:
        table["bound_position"] = _free(lambda n: asym.position_mi_dp_bound(eps0))
    if "bound_clone" in planned:
        table["bound_clone"] = _free(lambda n: asym.clone_message_bound(k, eps0, n))
    return table


def _value_and_stderr(est: montecarlo.EstimatorResult) -> tuple[float, float]:
    return est.estimate, est.stderr


def compute_row(cfg: ExperimentConfig, n: int, method: str, call) -> ResultRow:
    """Evaluate one planned (n, method) cell of a config by ``call()``, which
    returns (value, stderr)."""
    value, stderr = call()
    return ResultRow(cfg.label, n, method, cfg.quantity, value, stderr)


def _is_long(method: str, work: int) -> bool:
    """True for a cell of several pieces of numpy work: a Monte Carlo row of
    more than one block, or an exact cell whose work is above one chunk."""
    return work > (montecarlo.BLOCK_SIZE if method == "mc" else exact.CHUNK_ROWS)


def _over_ceiling(method: str, work: int) -> bool:
    """True for an exact cell whose oracle would refuse its work."""
    return method == "exact" and work > exact.MAX_STATES


def ceiling_diagnostics(cfg: ExperimentConfig) -> list[Diagnostic]:
    """One diagnostic per n whose exact cell exceeds the state ceiling, from
    state counts alone: a run drops that cell under 'all', exits 3 on 'exact'."""
    given = cfg.p if cfg.mode == "shuffle_only" else cfg.mechanism
    if given is None or cfg.method == "all" or "exact" not in cell_methods(cfg):
        return []
    # an exact cell alone reads no n-free value but the prior, which is never refused
    work = cells(replace(cfg, method="exact"))["exact"][0]
    return [Diagnostic("n_grid", f"resource-limit: exact method at n={n}: "
                       f"{exact.ceiling_error(states)}")
            for n in cfg.n_grid if _over_ceiling("exact", states := work(n))]


def run_configs(configs: Sequence[ExperimentConfig], workers: int = 1) -> list[ResultRow]:
    """Run every (n, method) cell of every config, in plan order.

    An exact cell over the state ceiling is dropped from the plan under
    'all'; an explicit 'exact' raises its ResourceLimitError before any
    cell runs. With ``workers`` > 1 and at least two long cells
    (``_is_long``), the batch runs in two phases: the calling thread runs the other cells in
    plan order and stops at the first that raises, then a pool of
    ``workers`` threads runs the long cells ahead of that failure, and
    after a pooled failure no later pooled cell starts. Otherwise every
    cell runs on the calling thread. A failing batch raises the error of
    its first failing cell in plan order, as one worker does. A config with
    a diagnostic from ``config.validate_config`` (one built in Python, say)
    raises InvalidInputError before any cell runs.
    """
    for cfg in configs:
        diags = config.validate_config(cfg)
        if diags:
            raise InvalidInputError(f"config {cfg.label!r}: " + "; ".join(map(str, diags)))
    tasks, works, position = [], [], 0
    for ci, cfg in enumerate(configs):
        table = cells(cfg)
        for n in cfg.n_grid:
            for method, (work, value) in table.items():
                position += 1
                if _over_ceiling(method, cost := work(n)):
                    if cfg.method != "all":
                        raise exact.ceiling_error(cost)
                    continue
                # only Monte Carlo rows use a seed; the index is the plan position
                seed = _derive_seed(cfg.seed, ci, position - 1) if method == "mc" else 0
                tasks.append((cfg, n, method, partial(value, n, seed)))
                works.append(cost)

    long = [i for i, (task, work) in enumerate(zip(tasks, works))
            if _is_long(task[2], work)] if workers > 1 else []
    if len(long) < 2:
        long = []
    results: list = [None] * len(tasks)
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
    return results


def _fmt(value: float) -> str:
    return f"{value + 0.0:.12g}"  # -0.0 + 0.0 is 0.0, so no field reads -0


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
# two blocks, 24 576 samples: with the control variate, every fig2/fig3
# Monte Carlo row has no larger a stderr than the plain score at 10^5 samples
PRESET_SAMPLES = 2 * montecarlo.BLOCK_SIZE


def preset_configs(name: str, samples: int | None = None, seed: int | None = None):
    """Built-in experiment batteries over log-spaced population grids.

    fig1: matched-channel message leakage, exact closed form vs its
    leading rate, for uniform and Zipf targets. fig2: Zipf target against
    uniform, matched, and optimal covers (Monte Carlo vs expansions).
    fig3: 4-ary randomized response at eps0 = 1 with uniform inputs
    (Monte Carlo vs the leading rate signal_rate and the DP-derived bounds).
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


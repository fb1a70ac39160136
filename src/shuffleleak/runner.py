"""Execute experiment configs into CSV rows, plus the built-in presets.

Rows are computed independently (each Monte Carlo row owns a seed derived
from the config seed and the row's position in the plan), buffered, and
emitted in config order, so output bytes do not depend on the worker
count.
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
from .config import ExperimentConfig, methods_of
from .errors import InvalidParameterError
from .exact import DEFAULT_LIMITS, ExactLimits
from .mechanisms import blanket_of_randomizer, ldp_epsilon, make_krr
from .probability import Categorical, make_uniform, make_zipf

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


def _concrete_methods(cfg: ExperimentConfig) -> list[str]:
    selected = methods_of(cfg)
    wanted = []
    if cfg.mode == "shuffle_only":
        table = {"exact": ["exact"], "mc": ["mc"], "asym": ["asym"], "bounds": []}
    elif cfg.quantity == "IX1":
        table = {
            "exact": ["exact"],
            "mc": ["mc"],
            "asym": ["asym"],
            "bounds": ["bound_unified", "bound_blanket"],
        }
    elif cfg.quantity == "IK":
        table = {"exact": ["exact"], "mc": [], "asym": [], "bounds": ["bound_position"]}
    else:  # shuffle_dp IY1
        table = {"exact": [], "mc": [], "asym": [], "bounds": ["bound_clone"]}
    for base in ("exact", "mc", "asym", "bounds"):
        if base in selected:
            wanted.extend(table[base])
    return wanted


def _dp_prior(cfg: ExperimentConfig) -> Categorical:
    if cfg.prior is not None:
        return cfg.prior
    labels = cfg.mechanism.input_labels
    return Categorical(labels, np.full(len(labels), 1.0 / len(labels)))


def _dp_inputs(cfg: ExperimentConfig, n: int) -> tuple:
    if cfg.x_inputs is not None:
        return cfg.x_inputs
    labels = cfg.mechanism.input_labels
    return tuple(labels[i % len(labels)] for i in range(n))


def compute_row(
    cfg: ExperimentConfig,
    n: int,
    method: str,
    row_seed: int,
    limits: ExactLimits = DEFAULT_LIMITS,
    skip_infeasible_exact: bool = False,
) -> ResultRow | None:
    """Evaluate one (n, method) cell of a config. Returns None when an
    exact cell is skipped for exceeding the ceiling under 'all'."""
    quantity = cfg.quantity
    value: float
    stderr: float | None = None

    if cfg.mode == "shuffle_only":
        p = cfg.p
        q = cfg.q if cfg.q is not None else p
        matched = cfg.q is None or p.same_mass(q)
        if method == "exact":
            try:
                if quantity == "IK":
                    value = exact.position_mi_exact(p, q, n, limits)
                elif matched:
                    value = exact.matched_message_mi(p, n)
                else:
                    value = exact.message_mi_exact(p, q, n, limits)
            except exact.ResourceLimitError:
                if skip_infeasible_exact:
                    return None
                raise
        elif method == "mc":
            est = (
                montecarlo.estimate_position_mi(p, q, n, cfg.samples, row_seed)
                if quantity == "IK"
                else montecarlo.estimate_message_mi(p, q, n, cfg.samples, row_seed)
            )
            value, stderr = est.estimate, est.stderr
        elif method == "asym":
            term = (
                asym.position_mi_expansion(p, q)
                if quantity == "IK"
                else asym.message_mi_expansion(p, q)
            )
            value = term.evaluate(n)
        else:
            raise InvalidParameterError(f"unsupported method {method!r}")
    else:
        r = cfg.mechanism
        prior = _dp_prior(cfg)
        if method == "exact":
            try:
                if quantity == "IX1":
                    value = exact.input_mi_iid_others(r, prior, n, limits)
                else:
                    value = exact.position_mi_fixed_inputs(r, _dp_inputs(cfg, n), limits)
            except exact.ResourceLimitError:
                if skip_infeasible_exact:
                    return None
                raise
        elif method == "mc":
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
        elif method == "bound_clone":
            value = asym.clone_message_bound(
                len(r.output_labels), ldp_epsilon(r), n
            )
        else:
            raise InvalidParameterError(f"unsupported method {method!r}")
    return ResultRow(cfg.label, n, method, quantity, value, stderr)


def run_configs(
    configs: Sequence[ExperimentConfig],
    limits: ExactLimits = DEFAULT_LIMITS,
    workers: int = 1,
) -> list[ResultRow]:
    """Run every (n, method) cell of every config, in plan order.

    Exact cells are skipped (not errored) when infeasible under the 'all'
    selector; an explicit 'exact' request propagates the resource error.
    """
    tasks = []
    for ci, cfg in enumerate(configs):
        skip = cfg.method == "all"
        for n in cfg.n_grid:
            for method in _concrete_methods(cfg):
                row_seed = _derive_seed(cfg.seed, ci, len(tasks))
                tasks.append((cfg, n, method, row_seed, skip))

    def work(task):
        cfg, n, method, row_seed, skip = task
        return compute_row(cfg, n, method, row_seed, limits, skip)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, tasks))
    else:
        results = [work(t) for t in tasks]
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
_FIG2_GRID = (16, 32, 64, 128, 256, 512, 1024)
_FIG3_GRID = (16, 32, 64, 128, 256, 512, 1024)


def preset_configs(name: str, samples: int | None = None, seed: int | None = None):
    """Built-in experiment batteries over log-spaced population grids.

    fig1: matched-channel message leakage, exact closed form vs its
    leading rate, for uniform and Zipf targets. fig2: Zipf target against
    uniform, matched, and optimal covers (Monte Carlo vs expansions).
    fig3: 4-ary randomized response at eps0 = 1 with uniform inputs
    (Monte Carlo vs the mixed-signal rate and the DP-derived bounds).
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
            ExperimentConfig(quantity="IK", p=zipf, q=uniform, n_grid=_FIG2_GRID,
                             method="mc+asym", label="q_uniform_ik"),
            ExperimentConfig(quantity="IY1", p=zipf, q=uniform, n_grid=_FIG2_GRID,
                             method="mc+asym", label="q_uniform_iy1"),
            ExperimentConfig(quantity="IY1", p=zipf, n_grid=_FIG2_GRID,
                             method="mc+asym", label="q_matched_iy1"),
            ExperimentConfig(quantity="IY1", p=zipf, q=optimal, n_grid=_FIG2_GRID,
                             method="mc+asym", label="q_optimal_iy1"),
        ]
    elif name == "fig3":
        cfgs = [
            ExperimentConfig(
                mode="shuffle_dp", quantity="IX1", mechanism=make_krr(4, 1.0),
                n_grid=_FIG3_GRID, method="mc+asym+bounds", label="krr4_eps1",
            ),
        ]
    else:
        raise InvalidParameterError(f"unknown preset {name!r}")
    return [c.with_overrides(samples=samples, seed=seed) for c in cfgs]


def run_preset(
    name: str,
    samples: int | None = None,
    seed: int | None = None,
    workers: int = 1,
    limits: ExactLimits = DEFAULT_LIMITS,
) -> str:
    """Run a preset and return its CSV document."""
    return to_csv(run_configs(preset_configs(name, samples, seed), limits, workers))

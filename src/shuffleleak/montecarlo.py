"""Seeded Monte Carlo estimators for the leakage quantities.

Each quantity is a ``HistogramForm`` from ``exact``: the mean of one
statistic of the pooled histogram h under Mult(n, cover), plus a constant
for the target messages the cover hides. The exact oracles enumerate h;
this module samples it. A sample draws the target's symbol J from
target / sum(target), then the n - 1 covers from Mult(n - 1, cover), and
adds J to their histogram. That law is Mult(h; n, cover) lr(h) /
sum(target) with lr(h) = sum_j target_j h_j / (n cover_j), so the
sample's score sum(target) statistic(h) / lr(h) averages to the form's
mean. The score is the divergence of the exact posterior from the prior,
so the only error is statistical; the hidden part is added exactly. The
reported standard error is the plug-in sample std / sqrt(samples).

A block's only (symbols, rows) array is its integer histogram: the
statistics work one symbol (or input) row at a time on vectors of length
rows. At m = 4 a 4096-row block peaks near three times the 128 KiB
histogram under tracemalloc. More float temporaries of the histogram's
size made glibc trim and regrow its heap on every block, tens of
thousands of page faults per preset battery.

Determinism contract: samples are organized into fixed-size blocks and the
randomness of block b derives from a counter-based Philox stream keyed by
(seed, b). Partial sums are reduced with exact float summation and the
per-block variances are merged in block order, so results are
bit-identical however the blocks are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .exact import HistogramForm, input_form, message_form, position_form
from .mechanisms import Randomizer
from .probability import Categorical

BLOCK_SIZE = 4096

_MASK64 = (1 << 64) - 1


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = ((seed & _MASK64) << 64) | (block & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(samples: int):
    start = 0
    block = 0
    while start < samples:
        yield block, min(BLOCK_SIZE, samples - start)
        start += BLOCK_SIZE
        block += 1


@dataclass(frozen=True)
class EstimatorResult:
    """Point estimate in nats with its standard error and provenance."""

    estimate: float
    stderr: float
    samples: int
    seed: int


def _estimate(stat_fn, samples: int, seed: int) -> EstimatorResult:
    if samples < 1:
        raise InvalidParameterError("samples must be at least 1")
    sums = []
    count, mean, m2 = 0, 0.0, 0.0
    for block, size in _blocks(samples):
        stats = stat_fn(_block_rng(seed, block), size)
        total = float(np.sum(stats))
        sums.append(total)
        # merge the block's (count, mean, M2) in block order
        # (Chan, Golub & LeVeque 1979); no sum of squares loses the spread
        block_mean = total / size
        delta = block_mean - mean
        count += size
        mean += delta * size / count
        m2 += float(np.sum((stats - block_mean) ** 2))
        m2 += delta * delta * (count - size) * size / count
    stderr = math.sqrt(m2 / (samples - 1) / samples) if samples > 1 else 0.0
    return EstimatorResult(math.fsum(sums) / samples, stderr, samples, seed)


def _score(form: HistogramForm, n: int, h: np.ndarray) -> np.ndarray:
    """sum(target) statistic(h) / lr(h) for a (symbols, rows) histogram chunk
    holding at least one target message."""
    lr = (form.target / (n * form.cover)) @ h
    return form.target.sum() * form.statistic(h) / lr


def _block_scores(
    form: HistogramForm, n: int, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Scores of one block. Draw order is fixed: target symbols first, then
    the cover counts."""
    cum = np.cumsum(form.target / form.target.sum())
    cum[-1] = 1.0
    j = np.minimum(np.searchsorted(cum, rng.random(size), side="right"), len(cum) - 1)
    h = rng.multinomial(n - 1, form.cover / form.cover.sum(), size=size).T
    h[j, np.arange(size)] += 1
    return _score(form, n, h)


def _sample(form: HistogramForm, n: int, samples: int, seed: int) -> EstimatorResult:
    """The Monte Carlo driver: the form's value from ``samples`` scores."""
    if samples < 1:
        raise InvalidParameterError("samples must be at least 1")
    if not form.target.any():  # every target message is hidden
        return EstimatorResult(form.constant, 0.0, samples, seed)
    part = _estimate(lambda rng, size: _block_scores(form, n, rng, size), samples, seed)
    return EstimatorResult(part.estimate + form.constant, part.stderr, samples, seed)


def estimate_position_mi(
    p: Categorical, q: Categorical, n: int, samples: int = 100_000, seed: int = 0
) -> EstimatorResult:
    """Monte Carlo position leakage for the two-distribution channel."""
    return _sample(position_form(p, q, n), n, samples, seed)


def estimate_message_mi(
    p: Categorical, q: Categorical, n: int, samples: int = 100_000, seed: int = 0
) -> EstimatorResult:
    """Monte Carlo message leakage for the two-distribution channel."""
    return _sample(message_form(p, q, n), n, samples, seed)


def estimate_input_mi(
    r: Randomizer,
    prior: Categorical,
    n: int,
    samples: int = 100_000,
    seed: int = 0,
) -> EstimatorResult:
    """Monte Carlo input leakage with all users' inputs i.i.d. from ``prior``."""
    return _sample(input_form(r, prior, n), n, samples, seed)

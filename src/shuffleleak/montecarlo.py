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
so the only error is statistical; the hidden part is added exactly.

Every table a row draws from holds at most one budget of
max(SIMPLEX_ROWS, min(samples, CHUNK_ROWS)) entries (``_budget``): an
entry costs about what a draw does to build, so past SIMPLEX_ROWS a row
tables at most as many entries as it draws. Where h takes at most that
many values, C(n + m - 1, m - 1) for m visible symbols (n <= 44 at
m = 4 for a preset row of 24 576 samples), ``_scorer`` draws from a
table of every h, from the exact oracles' enumeration in one chunk,
each scored and controlled once per estimate. Above that ``_drawer``
draws J and the covers as above, the covers by binary splitting: the
first half of the symbols takes a Bin(n - 1, c_left) share of the
counts, and each range of symbols is halved again, breadth-first, on
its parent's counts. The root draws from a table of its n probabilities
when n fits the budget, the later splits from per-row tables of every
parent count's CDF (``_split_keys``) when those together fit it
(n <= 128 at m = 4 for a preset row), and each by ``rng.binomial``
otherwise. Every table holds the int64 keys ceil(F 2^53) of its CDF F
and is searched one way (``_search``): the inverse transform of Devroye
(1986, ch. III).

On a 2-vCPU host one block of 12 288 samples at m = 4 (message form:
draw, score and control) costs 0.35-0.55 ms from the table at
n = 16-44, after 0.5-3.2 ms to build it; 1.9-2.4 ms drawn with keyed
splits at n = 64-128, after 0.4-0.9 ms to build their tables; and
2.7-3.5 ms drawn with ``rng.binomial`` splits at n = 256-1024. The two
child splits take 0.8-1.1 ms keyed at n = 32-128 against 1.5-3.3 ms by
``rng.binomial``, whose inversion walks about parent * p steps per draw
(Kachitvichyanukul & Schmeiser 1988); a search costs the same at any p.

A block holds BLOCK_SIZE = 12 288 = 3 * 4096 samples, so a preset row
of 24 576 is two blocks. Each block pays a fixed cost of about a hundred
calls, most of them short numpy calls that hold the interpreter lock for
most of their time, so two worker threads queue on them, while the long
draw calls, which release it, overlap. Against blocks of 4096 (six per
preset row), fig2 + fig3 at --workers 2 take about a fifth less wall
time and a seventh less CPU on a 2-vCPU host; blocks of 24 576 or
32 768 samples took about twice the CPU of 12 288.

Each score has a control variate subtracted: a quadratic in h whose mean
under the draw law is exactly 0, with coefficients from central
differences of the score at the histogram's mean (``_control``). Each
half of a block keeps the control only where it lowers the variance of
the other half's scores (``_block_scores``), so a control that misses
the score's tails is dropped, and since the choice never reads the
half's own draws the estimate stays unbiased, with no fit. The variance
falls 5-300x at n = 16 and 400-1.6e5x at n = 1024 for the fig2/fig3
rows. The reported standard error is the plug-in std of the controlled
scores / sqrt(samples).

A drawn block holds one (symbols, rows) float histogram, each symbol's
row converted once from its integer counts as the split reaches it, and
the statistics work one symbol (or input) row at a time on vectors of
length rows; the control adds one (rows, symbols) product. At m = 4 a
block peaks at 2.7-3.0 times its 384 KiB histogram under tracemalloc, a
tabled block at 0.75 times; at m = 64 a drawn block peaks at 12.2 MiB,
2.0 times its 6 MiB histogram. More float temporaries of the
histogram's size made glibc trim and regrow its heap on every block,
tens of thousands of page faults per preset battery. A table build
peaks once per estimate, at 0.1 MiB for n = 16, m = 4 and at 0.9-1.9
MiB for the largest tables (16 384 values at m = 2, 16 215 at m = 4,
n = 44); each keyed split table of n = 128 peaks at 0.7 MiB while it is
built, and the two of m = 4 then hold 127 KiB of keys.

Determinism contract: samples are organized into blocks of BLOCK_SIZE,
the last one partial, and block b draws from a new generator on the
counter-based Philox stream keyed by (seed, b), at counter 0. The
control depends on the form and n only, the tables on those and the
row's sample count (never on the block size), and each half's
choice to use the control depends only on the other half's draws.
Partial sums are reduced with exact float summation and the per-block
variances are merged in block order, so results are bit-identical
however the blocks are scheduled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError
from .exact import (
    CHUNK_ROWS,
    SIMPLEX_ROWS,
    HistogramForm,
    _integer,
    _log_factorials,
    binomial_weights,
    input_form,
    message_form,
    position_form,
    weighted_histograms,
)
from .mechanisms import Randomizer
from .probability import Categorical

BLOCK_SIZE = 12_288  # samples per Philox block; see the module docstring
DEFAULT_SAMPLES = 100_000  # samples per estimate when a config or call gives none
MIN_SAMPLES = 2  # one sample has no spread, so its stderr would read 0
MIN_STEP = 0.125  # smallest design step of the control, in counts
MAX_N = 1 << 63  # the n - 1 cover counts of a draw are an int64
SEED_LIMIT = 1 << 64  # a seed is the high half of each block's 128-bit Philox key


@dataclass(frozen=True)
class EstimatorResult:
    """Point estimate in nats with its standard error and provenance."""

    estimate: float
    stderr: float
    samples: int
    seed: int


def _estimate(stat_fn, samples: int, seed: int) -> EstimatorResult:
    """The mean of ``stat_fn(rng, size)`` over blocks of BLOCK_SIZE samples,
    the last one partial, with its plug-in standard error. Block b draws
    from a new generator on ``Philox(key=(seed << 64) | b)``."""
    sums = []
    count, mean, m2 = 0, 0.0, 0.0
    for block, start in enumerate(range(0, samples, BLOCK_SIZE)):
        size = min(BLOCK_SIZE, samples - start)
        stats = stat_fn(np.random.Generator(np.random.Philox(key=(seed << 64) | block)), size)
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
    stderr = math.sqrt(m2 / (samples - 1) / samples)
    return EstimatorResult(math.fsum(sums) / samples, stderr, samples, seed)


def _proposal(form: HistogramForm) -> np.ndarray:
    """tau = target / sum(target), the law of the target's drawn symbol J."""
    return form.target / form.target.sum()


def _score(form: HistogramForm, n: int, h: np.ndarray) -> np.ndarray:
    """sum(target) statistic(h) / lr(h) for a (symbols, rows) histogram chunk
    holding at least one target message."""
    lr = (form.target / (n * form.cover)) @ h
    return form.target.sum() * form.statistic(h) / lr


def _control(form: HistogramForm, n: int) -> np.ndarray:
    """The quadratic control variate of the form's score at population n,
    as the matrix A of control(h) = h'Ah.

    The drawn histogram h = X + e_J, X ~ Mult(n - 1, c), J ~ tau, has the
    exact mean hbar = (n - 1) c + tau and covariance
    Sigma = (n - 1)(diag c - cc') + diag tau - tau tau'. On its first
    d = m - 1 counts y = h[:d] - hbar[:d], the control
    g'y + (y'Hy - tr(H Sigma)) / 2 has mean 0 for any fixed g and H, so
    subtracting it keeps the estimate unbiased. g and H are central
    differences of the score along e_a - e_m, with steps sqrt(Sigma_aa)
    halved until every design point is positive. The design sits on a
    dyadic grid, so its counts sum to n exactly and a score that is
    constant there (position leakage on a matched channel) gets
    g = H = 0. Every drawn histogram sums to n, so the linear and
    constant terms fold into A. The control is 0 when m = 1 or when a
    positive design needs a step below MIN_STEP counts.

    The design's 1 + 2d + 2d(d - 1) points are built SIMPLEX_ROWS = 4096
    at a time and scored CHUNK_ROWS at a time, so one call at m = 100
    peaks at about 20 MiB under tracemalloc, not the whole design's
    48 MiB. The score work, O(m^3), is unchanged: 0.12 s at m = 100 and
    1.2 s at m = 200 on a 2-vCPU host.
    """
    m = len(form.cover)
    d = m - 1
    quad = np.zeros((m, m))
    if d == 0:
        return quad
    # the set-up runs once per row on vectors of m entries, where Python
    # floats cost less than numpy calls; the design's scores are one call
    c = (form.cover[:d] / form.cover.sum()).tolist()
    tau = _proposal(form)[:d].tolist()
    mean = [(n - 1) * x + t for x, t in zip(c, tau)]
    # design counts are multiples of quantum below 2n: 41 bits, summed exactly
    quantum = 2.0 ** (math.frexp(n)[1] - 40)
    center = [round(x / quantum) * quantum for x in mean]
    step = [
        round(math.sqrt((n - 1) * x * (1 - x) + t * (1 - t)) / quantum) * quantum
        for x, t in zip(c, tau)
    ]
    # halve the steps until every design point is positive; the lowest
    # design count of symbol a < d is center_a - step_a, the last symbol's
    # is n - sum(center) less the two largest steps. A step below
    # MIN_STEP would probe the score's curvature on a scale far finer
    # than the integer counts the draws take (a rare symbol's h log h
    # term), and the control would rest on the rare draws that reach it
    last = n - sum(center)
    while min(step) >= MIN_STEP and (
        min(x - s for x, s in zip(center, step)) <= 0 or last <= sum(sorted(step)[-2:])
    ):
        step = [s / 2 for s in step]
    if min(step) < MIN_STEP:  # also a count that never varies
        return quad
    # the design: the center, +step and -step on each axis, then the
    # corners of the pairs a > b for each sign pattern in turn: +a+b,
    # +a-b, -a+b, -a-b; the last symbol takes what the others leave of n
    pairs = [(a, b) for a in range(d) for b in range(a)]

    def design():
        yield center
        for sign in (1, -1):
            for a in range(d):
                column = center.copy()
                column[a] += sign * step[a]
                yield column
        for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            for a, b in pairs:
                column = center.copy()
                column[a] += sa * step[a]
                column[b] += sb * step[b]
                yield column

    # a score's last bits depend on its chunk's width (BLAS splits a
    # product over rows), so the chunks stay CHUNK_ROWS wide
    size = 1 + 2 * d + 2 * d * (d - 1)
    columns = design()
    f = []
    for i in range(0, size, CHUNK_ROWS):
        points = np.empty((m, min(CHUNK_ROWS, size - i)))
        for j in range(0, points.shape[1], SIMPLEX_ROWS):
            piece = list(itertools.islice(columns, SIMPLEX_ROWS))
            points[:d, j : j + len(piece)] = np.array(piece).T
        points[d] = n - points[:d].sum(axis=0)
        f += _score(form, n, points).tolist()
    plus, minus, corners = f[1 : 1 + d], f[1 + d : 1 + 2 * d], f[1 + 2 * d :]
    g = [(p - q) / (2 * s) for p, q, s in zip(plus, minus, step)]
    hess = [[0.0] * d for _ in range(d)]
    for a in range(d):
        hess[a][a] = (plus[a] - 2 * f[0] + minus[a]) / step[a] ** 2
    for k, (a, b) in enumerate(pairs):
        pp, pm, mp, mm = corners[k :: len(pairs)]
        hess[a][b] = hess[b][a] = (pp - pm - mp + mm) / (4 * step[a] * step[b])
    # g'y + (y'Hy - tr(H Sigma)) / 2 = h'Ah once sum(h) = n: the linear
    # part g - H mean and the constant (mean'H mean - tr(H Sigma)) / 2 -
    # g'mean are spread over sum(h) / n and (sum(h) / n)^2
    twice_constant = 0.0
    for a in range(d):
        quad[a, :d] = [x / 2 for x in hess[a]]
        quad[a] += (g[a] - sum(x * y for x, y in zip(hess[a], mean))) / n
        twice_constant -= 2 * g[a] * mean[a]
        for b in range(d):
            sigma = (a == b) * mean[a] - (n - 1) * c[a] * c[b] - tau[a] * tau[b]
            twice_constant += hess[a][b] * (mean[a] * mean[b] - sigma)
    return quad + twice_constant / (2 * n * n)


def _splits(c: np.ndarray) -> list[tuple[int, int, int, float]]:
    """The binary splits of the visible symbols, breadth-first: the range
    lo:hi is halved at mid, and its count draws lo:mid's share with
    probability c[lo:mid] / c[lo:hi]. The root split (0, m // 2, m) comes
    first."""
    splits, ranges = [], [(0, len(c))]
    for lo, hi in ranges:  # the list grows as it is walked: breadth-first
        if hi - lo > 1:
            mid = (lo + hi) // 2
            splits.append((lo, mid, hi, min(float(c[lo:mid].sum() / c[lo:hi].sum()), 1.0)))
            ranges += [(lo, mid), (mid, hi)]
    return splits


def _sorted_halves(x: np.ndarray) -> np.ndarray:
    """``x`` with each half of the block (as ``_block_scores`` splits it)
    sorted in place. A half contributes its sum, its spread and the control
    choice it makes for the other half, none of which reads its order, and
    sorting within a half keeps the halves independent."""
    x[: len(x) // 2].sort()
    x[len(x) // 2 :].sort()
    return x


def _budget(samples: int) -> int:
    """The most entries any table of a row of ``samples`` draws may hold."""
    return max(SIMPLEX_ROWS, min(samples, CHUNK_ROWS))


def _keys(cdf: np.ndarray) -> np.ndarray:
    """The int64 search keys ceil(F 2^53) of the CDF entries F in [0, 1]."""
    return np.ceil(cdf * 2.0**53).astype(np.int64)


def _search(keys: np.ndarray, u: np.ndarray, parent: np.ndarray | int = 0) -> np.ndarray:
    """The draws of uniforms ``u`` from a table of ``_keys``: how many
    entries F <= u its CDF row ``parent`` holds (row 0 of a one-row
    table; ``_split_keys`` lays out the others). ``rng.random`` returns
    multiples of 2^-53, so ceil(F 2^53) <= u 2^53 exactly when F <= u:
    this is ``np.searchsorted(cdf, u, side="right")`` with no float error."""
    query = (u * 2.0**53).astype(np.int64)
    query += parent << 53
    return np.searchsorted(keys, query, side="right") - parent * (parent - 1) // 2


def _split_keys(n: int, p: float) -> np.ndarray:
    """The table of one split for every parent count v = 0..n - 1: the
    keys v 2^53 + ``_keys(F_v(k))`` for k < v, row v from v(v - 1) / 2
    on, with F_v the Bin(v, p) CDF divided by its row's sum. Rows of
    v 2^53 keep every row's keys below the next row's queries, and
    n < 2^10 keeps every key, at most n 2^53, below 2^63.

    The pmf is exp(log v! - log k! - log (v - k)! + k log p + (v - k)
    log(1 - p)) from the lgamma table, built in one pass over the (n, n)
    grid of (v, k): a loop over ``binomial_weights`` cost 0.4-14 ms per
    split. A p clipped to 1.0 (``_splits``) draws X = v surely, so
    F_v(k) = 0 for every k < v; log(1 - p) has no value there.
    """
    k = np.arange(n)
    d = k[:, None] - k  # v - k: rows v, columns k
    if p == 1.0:
        pmf = (d == 0).astype(float)
    else:
        log_fact = _log_factorials(n)[:n]
        log_pmf = (log_fact[:, None] - log_fact - log_fact[np.maximum(d, 0)]
                   + k * math.log(p) + d * math.log1p(-p))
        log_pmf[d < 0] = -np.inf
        pmf = np.exp(log_pmf)
    cdf = np.cumsum(pmf, axis=1)
    cdf /= cdf[:, -1:]
    return (np.repeat(k, k) << 53) + _keys(cdf[d > 0])


def _drawer(
    form: HistogramForm, n: int, samples: int
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """The draw of a block of histograms h = X + e_J, J ~ tau and
    X ~ Mult(n - 1, c), for a row of ``samples`` draws, set up once per
    estimate. It returns a (symbols, size) float block: every product with
    it would otherwise convert the integer counts again.

    X is drawn by binary splitting (Devroye 1986, ch. XI): the root split
    draws the first half's count Bin(n - 1, sum(c[:m // 2]) / sum(c)) for
    the whole block, each half of it sorted (``_sorted_halves``), and every
    later split, breadth-first, draws its share of its parent's counts.
    Within the row's ``_budget`` the root searches the n keys of
    ``exact.binomial_weights``'s CDF, and the later splits, when their
    tables (``_split_keys``, n(n - 1) / 2 keys each) fit it together
    (n <= 128 at m = 4 for a preset row, never at n > 181), search those,
    at a cost that does not grow with the parent count. Otherwise each
    draws by ``rng.binomial``, which below parent * p = 30 inverts by
    walking about parent * p steps per draw, reusing its set-up over a run
    of equal parents (sorted ones at m <= 4). A child's uniforms are never
    sorted: within a run of equal parents that would pair the children's
    draws (mean z +8.0 at n = 64). Draw order is fixed: J's uniforms, the
    root, then the splits.
    """
    c = form.cover / form.cover.sum()
    cum = np.cumsum(_proposal(form))[:-1]  # J is the count of these at or below its uniform
    m = len(c)
    splits = _splits(c)
    budget = _budget(samples)
    keys = {}
    if n <= budget:
        cdf = np.cumsum(binomial_weights(n - 1, splits[0][3]))
        keys[0, m] = _keys(cdf / cdf[-1])
    if (len(splits) - 1) * n * (n - 1) // 2 <= budget:
        keys.update({(lo, hi): _split_keys(n, p) for lo, _, hi, p in splits[1:]})

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        h = np.empty((m, size))
        counts = {(0, m): n - 1}  # the count of each symbol range not yet split
        for lo, mid, hi, p in splits:
            parent = counts.pop((lo, hi))
            table = keys.get((lo, hi))
            if hi - lo == m:  # the root: one parent, n - 1, for the whole block
                left = (_sorted_halves(rng.binomial(parent, p, size)) if table is None
                        else _search(table, _sorted_halves(rng.random(size))))
            elif table is None:
                left = rng.binomial(parent, p)
            else:
                left = _search(table, rng.random(len(parent)), parent)
            for (a, b), x in (((lo, mid), left), ((mid, hi), parent - left)):
                if b - a == 1:
                    h[a] = x
                else:
                    counts[a, b] = x
        # add e_J in float: at n = MAX_N an int64 count could overflow
        j = sum(x <= u for x in cum)
        for a in range(m):
            h[a] += j == a
        return h

    return draw


def _quadratic(a: np.ndarray, h: np.ndarray) -> np.ndarray:
    """h'Ah for each column of a (symbols, rows) histogram chunk."""
    quad = h.T @ a
    quad *= h.T
    return quad @ np.ones(len(a))


def _lowers_spread(scores: np.ndarray, ctl: np.ndarray) -> bool:
    """Whether subtracting the control lowers the sample variance of the
    scores: var(c) < 2 cov(score, c)."""
    if len(ctl) < 2:
        return False
    ctl = ctl - ctl.mean()
    return float(ctl @ ctl) < 2 * float(ctl @ scores)


def _table(form: HistogramForm, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every histogram of n messages that the draw can reach, as a
    (symbols, states) float table in the exact oracles' order, and the
    ``_keys`` of the draw's CDF over it: the law is Mult(h; n, c) lr(h) /
    sum(target) with c the normalised cover, which is
    sum_j tau_j Mult(h - e_j; n - 1, c). A histogram of law 0 (no target
    message, or a weight below the smallest float) is left out: it is
    never drawn, and with no target message its score would divide by
    lr(h) = 0."""
    c = form.cover / form.cover.sum()
    # a table holds at most CHUNK_ROWS histograms (``_budget``): one chunk
    [(h, weight)] = weighted_histograms(n, c)
    law = weight * ((_proposal(form) / (n * c)) @ h)
    reached = law > 0
    cdf = np.cumsum(law[reached])
    cdf /= cdf[-1]
    return h[:, reached].astype(float), _keys(cdf)


def _scorer(
    form: HistogramForm, n: int, control: np.ndarray, samples: int
) -> Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]:
    """The scores and control values h'Ah of one block of draws, for one
    form at population n and a row of ``samples`` draws, set up once per
    estimate. When the histogram's C(n + m - 1, m - 1) values fit the
    row's ``_budget``, every value is scored once and each block draws
    from the table (``_table``), its uniforms sorted within each half
    (``_sorted_halves``; a sorted search costs a third of an unsorted
    one), and gathers the table's scores and controls. Above that a block
    is drawn by ``_drawer`` and scored as drawn."""
    m = len(form.cover)
    if math.comb(n + m - 1, m - 1) > _budget(samples):
        draw = _drawer(form, n, samples)

        def drawn(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
            h = draw(rng, size)
            return _score(form, n, h), _quadratic(control, h)

        return drawn
    table, keys = _table(form, n)
    scores, ctl = _score(form, n, table), _quadratic(control, table)

    def tabled(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        at = _search(keys, _sorted_halves(rng.random(size)))
        return scores.take(at), ctl.take(at)

    return tabled


def _block_scores(scores: np.ndarray, ctl: np.ndarray) -> np.ndarray:
    """The scores of one block less their control values ``ctl``, in
    place. Each half of the block subtracts them only where that lowers
    the spread of the other half: a choice independent of the half's own
    draws, so the control's mean there stays 0."""
    half = len(scores) // 2
    first = _lowers_spread(scores[half:], ctl[half:])
    second = _lowers_spread(scores[:half], ctl[:half])
    if first:
        scores[:half] -= ctl[:half]
    if second:
        scores[half:] -= ctl[half:]
    return scores


def _sample(form: HistogramForm, n: int, samples: int, seed: int) -> EstimatorResult:
    """The Monte Carlo driver: the form's value from ``samples`` controlled
    scores. Each argument is made a Python int, or ``seed << 64`` wraps."""
    n, samples = _integer("n", n, 1), _integer("samples", samples, MIN_SAMPLES)
    seed = _integer("seed", seed, 0)
    if n > MAX_N:
        raise InvalidParameterError("Monte Carlo needs n at most 2^63")
    if seed >= SEED_LIMIT:
        raise InvalidParameterError("seed must be in [0, 2^64)")
    if not form.target.any():  # every target message is hidden
        return EstimatorResult(form.constant, 0.0, samples, seed)
    block = _scorer(form, n, _control(form, n), samples)
    part = _estimate(lambda rng, size: _block_scores(*block(rng, size)), samples, seed)
    return EstimatorResult(part.estimate + form.constant, part.stderr, samples, seed)


def estimate_position_mi(
    p: Categorical, q: Categorical, n: int, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> EstimatorResult:
    """Monte Carlo position leakage for the two-distribution channel."""
    return _sample(position_form(p, q, n), n, samples, seed)


def estimate_message_mi(
    p: Categorical, q: Categorical, n: int, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> EstimatorResult:
    """Monte Carlo message leakage for the two-distribution channel."""
    return _sample(message_form(p, q, n), n, samples, seed)


def estimate_input_mi(
    r: Randomizer,
    prior: Categorical,
    n: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> EstimatorResult:
    """Monte Carlo input leakage with all users' inputs i.i.d. from ``prior``."""
    return _sample(input_form(r, prior, n), n, samples, seed)

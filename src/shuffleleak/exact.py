"""Ground-truth leakage values at small scale.

Two kinds of machinery live here, each behind a state ceiling that
raises before anything is allocated:

- A histogram engine for position and message leakage of the
  two-distribution channel and for input leakage with i.i.d. others.
  Each is a ``HistogramForm``: the mean of one statistic of the pooled
  histogram h of all n messages under the multinomial law Mult(h; n, q)
  of the cover (or of the output marginal), plus a constant for target
  messages the cover hides. The same forms drive the Monte Carlo
  estimators. The engine enumerates h in numpy chunks and weights each
  row by its log-multinomial probability. With w = p / q on the support
  of q and S = h . w, the statistics are

  - position: sum_j (h_j w_j / n) log(n w_j / S), plus p(hidden) log n;
  - message: sum_j (h_j w_j / n) log(h_j w_j / (S p_j)), plus
    -p_a log p_a for every symbol a the cover hides;
  - input: sum_x prior_x t_x log t_x, with
    t_x = sum_y K[x, y] h_y / (n marginal_y).

  Every logarithm is of a ratio built from counts and the fixed p, q or
  kernel, never of an enumerated probability, so underflow in the tail
  of the law cannot make a value infinite. The message and input
  statistics work one symbol (or input) row at a time, so a chunk never
  builds a (symbols, rows) float array. At m = 4 the default ceiling of
  10^7 states binds before time does: n = 224 for the two-distribution
  oracles and n = 208 for i.i.d. input, each in about 0.15-0.25 s on one
  core.
- A dense driver for a target row among other users whose rows differ
  (fixed inputs, heterogeneous covers). It convolves the other rows into
  the law of their counts on the (n + 1)^(k - 1) count grid and returns
  it shifted by each target message a, s[a](h) = P_others(h - e_a). Two
  statistics read it: input leakage mixes the shifts through the
  target's kernel rows, and position leakage with fixed inputs weighs
  them by the target's row, t_a = R[x_1, a] s[a], with the position
  posterior proportional to t_a / h_a. Its work is n (n + 1)^(k - 1):
  at k = 4 the default ceiling allows n = 55.

Finite-n closed forms built from binomial expectations stay exact at any
n and need no ceiling. Their Bin(n, p) pmf is built in numpy from the
ratio of consecutive terms, outward from the mode, and divided by its
sum. Up to n = 16384 the closed forms stay within 1e-11 relative of a
reference pmf from a special-function library (see the tests), and one
binomial expectation takes about 0.3 ms at that n (2.9 ms with the
library's pmf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, permutations, product, repeat
from math import comb, factorial, lgamma
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    AbsoluteContinuityError,
    InvalidInputError,
    InvalidParameterError,
    ResourceLimitError,
)
from .mechanisms import Randomizer
from .probability import Categorical, align


@dataclass(frozen=True)
class ExactLimits:
    """Ceiling on enumerated states; exceeding it raises, never truncates."""

    max_states: int = 10_000_000


DEFAULT_LIMITS = ExactLimits()

CHUNK_ROWS = 1 << 14  # histogram rows per enumerated chunk; bounds the engine's memory


def _limit_error(states_text: str, limits: ExactLimits) -> ResourceLimitError:
    return ResourceLimitError(
        f"enumeration needs {states_text} states, ceiling is {limits.max_states}"
    )


def check_states(states: int, limits: ExactLimits) -> None:
    """Raise ResourceLimitError when ``states`` exceeds the ceiling."""
    if states > limits.max_states:
        # Python refuses to format integers of more than 4300 digits
        text = str(states) if states < 10**15 else f"~10^{int(math.log10(states))}"
        raise _limit_error(text, limits)


def states_shuffle_only(p: Categorical, q: Categorical, n: int) -> int:
    """Enumeration size of the histogram oracle for the two-distribution channel."""
    s = len(q.support())
    return comb(n - 1 + s - 1, s - 1) * max(1, len(p.support()))


def states_input_mi(n: int, n_outputs: int) -> int:
    """State count charged to the i.i.d. input oracle: the (n + 1)^(k - 1)
    grid of counts that holds its histograms."""
    if n_outputs <= 1:
        return 1
    return (n + 1) ** (n_outputs - 1)


def states_position_dp(n: int, n_outputs: int) -> int:
    """Work of the dense driver behind the fixed-input and heterogeneous
    oracles: n draws (the target's included), each updating every cell of
    the (n + 1)^(k - 1) grid of counts."""
    return n * (n + 1) ** (n_outputs - 1)


def _bounded_vectors(total: int, dim: int) -> Iterator[np.ndarray]:
    """Nonnegative integer vectors of length ``dim`` with sum at most
    ``total``, lexicographically, in chunks of at most CHUNK_ROWS.

    Chunks are (dim, rows) arrays: one contiguous row of counts per
    symbol, so sums over symbols are whole-vector additions.
    """
    if dim == 0:
        yield np.zeros((0, 1), dtype=np.int64)
        return
    for prefix in _bounded_vectors(total, dim - 1):
        room = total + 1 - prefix.sum(axis=0)  # choices of the last entry per prefix
        ends = np.cumsum(room)
        for lo in range(0, int(ends[-1]), CHUNK_ROWS):
            idx = np.arange(lo, min(lo + CHUNK_ROWS, int(ends[-1])))
            col = np.searchsorted(ends, idx, side="right")
            out = np.empty((dim, len(idx)), dtype=np.int64)
            out[:-1] = prefix[:, col]
            out[-1] = idx - ends[col] + room[col]
            yield out


_LOG_FACTORIALS = np.zeros(1)


def _log_factorials(n: int) -> np.ndarray:
    """log(c!) from math.lgamma for the counts c = 0..n at least.

    The table is kept between calls (at n = 16384 it takes 3 ms to build)
    and rebuilt larger on demand. Every entry is the same in whichever
    table a call sees, so threads may share it.
    """
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if len(table) <= n:
        table = np.fromiter(map(lgamma, range(1, n + 2)), float, n + 1)
        _LOG_FACTORIALS = table
    return table


def _histogram_mean(
    n: int, q: np.ndarray, statistic: Callable[[np.ndarray], np.ndarray]
) -> float:
    """E[statistic(h)] for h ~ Mult(n, q), by enumerating every h.

    ``statistic`` maps a (len(q), rows) chunk of histograms to one value
    per histogram. ``q`` must be positive. The multinomial weights come
    from one lgamma table and are divided by their own sum, so the table's
    shared rounding cancels. Chunk partials are summed with fsum in a
    fixed order.
    """
    if len(q) == 1:  # one symbol: h = (n) surely, and n may be far beyond any table
        return float(statistic(np.full((1, 1), n))[0])
    log_fact = _log_factorials(n)
    logq = np.log(q)[:, None]
    num, den = [], []
    for tail in _bounded_vectors(n, len(q) - 1):
        h = np.empty((len(q), tail.shape[1]), dtype=np.int64)
        h[0] = n - tail.sum(axis=0)
        h[1:] = tail
        weight = np.exp(log_fact[n] - log_fact[h].sum(axis=0) + (h * logq).sum(axis=0))
        num.append(float((weight * statistic(h)).sum()))
        den.append(float(weight.sum()))
    return math.fsum(num) / math.fsum(den)


@dataclass(frozen=True)
class HistogramForm:
    """A leakage quantity at population n: E[statistic(h)] for
    h ~ Mult(n, cover), plus ``constant``.

    ``cover`` is the law of one cover message on the visible symbols and
    ``target`` the target's message law on them (it sums to the target's
    visible mass). ``statistic`` maps a (len(cover), rows) integer
    histogram chunk to one value per row; ``constant`` is the exact term
    of target messages the cover cannot produce.
    """

    cover: np.ndarray
    target: np.ndarray
    statistic: Callable[[np.ndarray], np.ndarray]
    constant: float


def _histogram_value(n: int, form: HistogramForm) -> float:
    """The exact driver: the form's value by enumerating every histogram."""
    if not form.target.any():  # every target message is hidden
        return form.constant
    return math.fsum([_histogram_mean(n, form.cover, form.statistic), form.constant])


def _visible_split(p: Categorical, q: Categorical, n: int) -> tuple[np.ndarray, ...]:
    """Shared set-up of the two-distribution forms: (target, cover, hidden p)."""
    if n < 1:
        raise InvalidParameterError("n must be at least 1")
    _, pv, qv = align(p, q)
    vis = qv > 0
    # q is not renormalized on its support, so w = p / q is exactly 1 when p = q
    return pv[vis], qv[vis], pv[~vis]


def _or_one(v: np.ndarray) -> np.ndarray:
    """``v`` with its entries <= 0 replaced by 1: a safe divisor, or a
    logarithm's argument whose term is multiplied by 0."""
    return np.where(v > 0, v, 1.0)


def _s_log_n_over_s(s: np.ndarray, n: int) -> np.ndarray:
    """S log(n / S) per histogram, 0 where S = 0 (no target mass)."""
    return s * np.log(n / _or_one(s))


def position_form(p: Categorical, q: Categorical, n: int) -> HistogramForm:
    """Position leakage of the two-distribution channel as a histogram form."""
    target, cover, hidden = _visible_split(p, q, n)
    w = target / cover
    wlogw = w * np.log(_or_one(w))

    def statistic(h):
        return (wlogw @ h + _s_log_n_over_s(w @ h, n)) / n

    return HistogramForm(cover, target, statistic, math.fsum(hidden) * math.log(n))


def message_form(p: Categorical, q: Categorical, n: int) -> HistogramForm:
    """Message leakage of the two-distribution channel as a histogram form.

    The statistic is written through the posterior h_j w_j / S, so a
    target that is sure of its message scores exactly 0.
    """
    target, cover, hidden = _visible_split(p, q, n)
    w = target / cover
    sent = np.flatnonzero(target)  # the symbols with a nonzero term
    hidden = hidden[hidden > 0]

    def statistic(h):
        # one symbol row at a time, so no (symbols, rows) float array is built
        s = sum(h[j] * w[j] for j in range(len(w)))
        safe_s = _or_one(s)
        total = np.zeros(h.shape[1])
        for j in sent:
            hw = h[j] * w[j]
            total += hw * np.log(np.where(hw > 0, hw / (safe_s * target[j]), 1.0))
        return total / n

    return HistogramForm(cover, target, statistic, -math.fsum(hidden * np.log(hidden)))


def _prior_vector(prior: Categorical, input_labels: tuple) -> np.ndarray:
    known = set(input_labels)
    for lab in prior.support():
        if lab not in known:
            raise InvalidInputError(f"prior symbol {lab!r} not a randomizer input")
    return np.array([prior.prob(x) for x in input_labels])


def input_form(r: Randomizer, prior: Categorical, n: int) -> HistogramForm:
    """Input leakage with i.i.d. inputs as a histogram form; the target's
    output follows the output marginal too, so ``target`` is the cover."""
    if n < 1:
        raise InvalidParameterError("n must be at least 1")
    prior_vec = _prior_vector(prior, r.input_labels)
    marginal = prior_vec @ r.kernel
    seen = marginal > 0
    cover = marginal[seen]
    px = prior_vec[prior_vec > 0]
    # ratio[x, y] = K[x, y] / (n cover_y) over the inputs x with prior mass
    ratio = r.kernel[prior_vec > 0][:, seen] / (n * cover)

    def statistic(h):
        # one input row at a time, so no (inputs, rows) float array is built
        total = np.zeros(h.shape[1])
        for x in range(len(px)):
            t = ratio[x] @ h
            total += px[x] * t * np.log(_or_one(t))
        return total

    return HistogramForm(cover, cover, statistic, 0.0)


def position_mi_exact(
    p: Categorical, q: Categorical, n: int, limits: ExactLimits = DEFAULT_LIMITS
) -> float:
    """Exact position leakage of the two-distribution shuffle channel.

    The position posterior given the released sequence is proportional to
    w = p / q at each position, so its divergence from uniform depends on
    the sequence only through the pooled histogram. A target value
    impossible under the cover distribution pins the posterior to a single
    position and contributes log n.
    """
    form = position_form(p, q, n)
    check_states(states_shuffle_only(p, q, n), limits)
    return _histogram_value(n, form)


def message_mi_exact(
    p: Categorical, q: Categorical, n: int, limits: ExactLimits = DEFAULT_LIMITS
) -> float:
    """Exact message leakage of the two-distribution shuffle channel.

    Given a visible target value a, the posterior of the target's message
    given the pooled histogram h is h_a w_a / S. A target value the cover
    hides is revealed outright and contributes its entropy term. Works
    whether or not the target distribution is absolutely continuous
    w.r.t. the cover.
    """
    form = message_form(p, q, n)
    check_states(states_shuffle_only(p, q, n), limits)
    return _histogram_value(n, form)


def _binom_xlogx(n: int, prob: float) -> float:
    """E[(X/n) log(X/n)] for X ~ Bin(n, prob), with 0 log 0 = 0.

    The pmf is built up to a constant from the mode outward by the ratio
    pmf(x + 1) / pmf(x) = (n - x) prob / ((x + 1)(1 - prob)), so every
    entry in the bulk is a short product of factors near 1, and is then
    divided by its sum. Weights from differences of lgamma values carry the
    rounding of numbers near log n!: at n = 16384 and prob = 0.9 they put
    E[(X/n) log(X/n)] - prob log prob 1.7e-10 relative from a 40-digit
    reference, and this product 6e-12.
    """
    if prob == 1.0:  # X = n surely
        return 0.0
    x = np.arange(n + 1)
    mode = min(int((n + 1) * prob), n)
    pmf = np.empty(n + 1)
    pmf[mode] = 1.0
    odds = prob / (1.0 - prob)
    # every factor is at most 1 in the direction it is multiplied along
    up, down = x[mode:n], x[:mode][::-1]
    pmf[mode + 1 :] = np.cumprod((n - up) / (up + 1) * odds)
    pmf[:mode] = np.cumprod((down + 1) / (n - down) / odds)[::-1]
    ratio = x[1:] / n
    return float(np.dot(pmf[1:], ratio * np.log(ratio)) / pmf.sum())


def matched_message_mi(p: Categorical, n: int) -> float:
    """Exact message leakage when the covers share the target's distribution.

    Closed form via binomial expectations,
    sum_i E[(X/n) log(X/n)] - p_i log p_i with X ~ Bin(n, p_i),
    valid at every finite n (no asymptotics, no enumeration ceiling).
    """
    if n < 1:
        raise InvalidParameterError("n must be at least 1")
    terms = []
    for pi in p.probs:
        pi = float(pi)
        if pi == 0.0:
            continue
        terms.append(_binom_xlogx(n, pi) - pi * math.log(pi))
    return math.fsum(terms)


def message_minus_position_mi(p: Categorical, q: Categorical, n: int) -> float:
    """Exact gap between message leakage and position leakage.

    Equals sum_i (p_i/q_i) E[(X/n) log(X/n)] - p_i log p_i with
    X ~ Bin(n, q_i). Adding the exact position leakage recovers the exact
    message leakage (chain-rule decomposition of the channel). Requires
    the target distribution absolutely continuous w.r.t. the cover.
    """
    if n < 1:
        raise InvalidParameterError("n must be at least 1")
    labels, pv, qv = align(p, q)
    if np.any((pv > 0) & (qv == 0)):
        raise AbsoluteContinuityError("target has mass outside the cover support")
    terms = []
    for pi, qi in zip(pv, qv):
        pi, qi = float(pi), float(qi)
        if pi == 0.0:
            continue
        terms.append((pi / qi) * _binom_xlogx(n, qi) - pi * math.log(pi))
    return math.fsum(terms)


def _shifted_laws(
    n: int, k: int, other_rows: Iterable[Sequence[float]], limits: ExactLimits
) -> tuple[np.ndarray, np.ndarray]:
    """The dense driver: the law of the other users' counts, shifted by the
    target's message.

    The n - 1 other users draw once each from the k-symbol rows
    ``other_rows``, which are read only after the ceiling check passes, and
    the target's message makes n. Returns (s, h), both (k, histograms), over
    every histogram h of n messages: h[a] is the count of symbol a and
    s[a] = P_others(h - e_a), the law with the target's message taken to
    be a. The law is built one draw at a time on the (n + 1)^(k - 1) grid
    of the counts of symbols 1..k-1 (the count of symbol 0 is implicit),
    so no draw, the target's included, shifts mass off the grid.
    """
    check_states(states_position_dp(n, k), limits)
    law = np.zeros((n + 1,) * (k - 1))
    law[(0,) * (k - 1)] = 1.0
    for row in other_rows:
        new = row[0] * law
        for axis in range(k - 1):
            head = (slice(None),) * axis
            new[head + (slice(1, None),)] += row[axis + 1] * law[head + (slice(0, -1),)]
        law = new
    cells = np.flatnonzero(sum(np.indices(law.shape, sparse=True)) <= n)
    # flat offset of e_a on the grid; symbol 0 has no axis
    step = np.array((0,) + law.strides)[:, None] // law.itemsize
    h = cells // step[1:] % (n + 1)
    h = np.vstack([n - h.sum(axis=0), h])
    s = np.where(h > 0, law.ravel()[np.where(h > 0, cells - step, 0)], 0.0)
    return s, h


def _input_mi_hist(
    prior_vec: np.ndarray,
    signal_rows: np.ndarray,
    n: int,
    other_rows: Iterable[Sequence[float]],
    limits: ExactLimits,
) -> float:
    """Mutual information between the signal index and the pooled histogram.

    One draw comes from signal_rows[x] (x distributed per prior_vec); the
    n - 1 other draws come from other_rows, independently. The histogram of
    all draws is observed. Each histogram's likelihoods are divided by
    their largest before they are mixed: the mixture is then at least the
    smallest prior mass, so it cannot underflow to 0 where a likelihood is
    positive, however far in the tail of the law the histogram lies.
    """
    s, _ = _shifted_laws(n, signal_rows.shape[1], other_rows, limits)
    seen = prior_vec > 0
    px = prior_vec[seen]
    lx = signal_rows[seen] @ s
    ratio = lx / _or_one(lx.max(axis=0))
    ratio /= _or_one(px @ ratio)  # P(h | x) / P(h)
    return float(px @ (lx * np.log(_or_one(ratio))).sum(axis=1))


def input_mi_fixed_others(
    r: Randomizer,
    prior: Categorical,
    x_rest: Sequence,
    limits: ExactLimits = DEFAULT_LIMITS,
) -> float:
    """Exact input leakage with the other users' inputs held fixed.

    The target's input follows ``prior`` and is pushed through ``r``; each
    remaining user i contributes one draw from the row of ``x_rest[i]``.
    """
    prior_vec = _prior_vector(prior, r.input_labels)
    return _input_mi_hist(prior_vec, r.kernel, len(x_rest) + 1, map(r.row, x_rest), limits)


def input_mi_iid_others(
    r: Randomizer,
    prior: Categorical,
    n: int,
    limits: ExactLimits = DEFAULT_LIMITS,
) -> float:
    """Exact input leakage when every user's input is i.i.d. from ``prior``.

    The non-target outputs are then i.i.d. from the output marginal
    prior @ kernel, so the pooled histogram h given the target's input x
    has law Mult(h; n, marginal) times t_x(h), and t_x(h) is also the
    likelihood ratio against the unconditional law. This is the quantity
    the Monte Carlo input estimator converges to.
    """
    form = input_form(r, prior, n)
    check_states(states_input_mi(n, len(r.output_labels)), limits)
    return _histogram_value(n, form)


def input_mi_shuffle_only(
    p1: Categorical,
    others: Sequence[Categorical],
    limits: ExactLimits = DEFAULT_LIMITS,
) -> float:
    """Exact input leakage when messages are sent unrandomized.

    The target's message follows ``p1``; user i's message follows
    ``others[i]``, all independent, and the shuffled pool is observed.
    """
    labels = list(p1.labels)
    seen = set(labels)
    for d in others:
        for lab in d.labels:
            if lab not in seen:
                seen.add(lab)
                labels.append(lab)
    signal = np.zeros((len(p1.labels), len(labels)))
    for i, lab in enumerate(p1.labels):
        signal[i, labels.index(lab)] = 1.0
    rows = ([d.prob(lab) for lab in labels] for d in others)
    prior_vec = np.asarray(p1.probs)
    return _input_mi_hist(prior_vec, signal, len(others) + 1, rows, limits)


def _check_sequence_states(n: int, n_outputs: int, limits: ExactLimits) -> None:
    """The ceiling check of ``position_likelihoods``: k^n sequences times n
    positions times (n - 1)! assignments of the other users.

    The count is a product of factors >= 1, so the partial product passes
    the ceiling exactly when the count does; it is compared as it grows
    and the full integer is never formed.
    """
    acc = n
    for f in chain(range(2, n), repeat(n_outputs, n)):
        acc *= f
        if acc > limits.max_states:
            log_states = n * math.log(n_outputs) + math.log(n) + lgamma(max(n - 1, 1) + 1)
            raise _limit_error(f"~10^{int(log_states / math.log(10))}", limits)


def position_likelihoods(
    r: Randomizer, x_inputs: Sequence, limits: ExactLimits = DEFAULT_LIMITS
) -> tuple[list[tuple], np.ndarray]:
    """Conditional law of the released sequence given the target's position.

    Returns (sequences, matrix) where matrix[i, j] is the probability of
    sequences[j] given that the target's message landed at position i + 1,
    with all users' inputs fixed to ``x_inputs``.
    """
    if len(x_inputs) < 1:
        raise InvalidParameterError("need at least one input")
    n = len(x_inputs)
    k = len(r.output_labels)
    _check_sequence_states(n, k, limits)
    rows = np.array([r.row(x) for x in x_inputs])
    z_idx = np.array(list(product(range(k), repeat=n)), dtype=np.intp).reshape(-1, n)
    nz = z_idx.shape[0]
    like = np.zeros((n, nz))
    for k_pos in range(n):
        other_pos = [j for j in range(n) if j != k_pos]
        acc = np.zeros(nz)
        for perm in permutations(range(1, n)):
            prod = rows[0][z_idx[:, k_pos]].copy()
            for u, pos in zip(perm, other_pos):
                prod *= rows[u][z_idx[:, pos]]
            acc += prod
        like[k_pos] = acc / factorial(n - 1)
    z_tuples = [tuple(r.output_labels[j] for j in row) for row in z_idx]
    return z_tuples, like


def position_mi_fixed_inputs(
    r: Randomizer, x_inputs: Sequence, limits: ExactLimits = DEFAULT_LIMITS
) -> float:
    """Exact position leakage with all users' inputs fixed.

    Summed over the released sequences with histogram h whose slot k holds
    a, P(z | K = k) is t_a(h) = R[x_1, a] P_others(h - e_a) for every k, so
    the position posterior at such a sequence is proportional to t_a / h_a
    and I(K; Z) = sum_h sum_a t_a log(n t_a / (h_a sum_b t_b)).
    """
    n = len(x_inputs)
    if n < 1:
        raise InvalidParameterError("need at least one input")
    s, h = _shifted_laws(n, len(r.output_labels), map(r.row, x_inputs[1:]), limits)
    t = r.row(x_inputs[0])[:, None] * s
    # n t_a / (h_a sum_b t_b), taken where t_a > 0 (so h_a >= 1)
    ratio = t / _or_one(t.sum(axis=0)) * (n / np.maximum(h, 1))
    return float((t * np.log(_or_one(ratio))).sum())

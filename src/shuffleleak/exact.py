"""Ground-truth leakage values at small scale.

Every oracle counts its states (histograms, grid cells or pmf terms)
and raises ResourceLimitError before it allocates anything when the
count exceeds MAX_STATES. Two kinds of machinery live here:

- A histogram engine for position and message leakage of the
  two-distribution channel and for input leakage with i.i.d. others.
  Each is a ``HistogramForm``: the mean of one statistic of the pooled
  histogram h of all n messages under the multinomial law Mult(h; n, q)
  of the cover (or of the output marginal), plus a constant for target
  messages the cover hides. The same forms drive the Monte Carlo
  estimators. The engine enumerates h in numpy chunks and weights each
  row by its log-multinomial probability (``weighted_histograms``, which
  also tables the Monte Carlo draw where h takes at most 4096 values). With w = p / q on the support
  of q and S = h . w, the statistics are

  - position: sum_j (h_j w_j / n) log(n w_j / S), plus p(hidden) log n;
  - message and input, one signal statistic: for a signal x ~ px sent
    through a kernel K, sum_x px_x t_x log(t_x / mix), with
    t_x = sum_y K[x, y] h_y / (n cover_y) and mix = sum_x px_x t_x. The
    message is the target's visible symbol through the identity kernel
    (t_j = h_j / (n q_j), mix = S / n), plus -p_a log p_a for every
    symbol a the cover hides; the input goes through the randomizer's
    kernel, and its cover is the output marginal.

  Every logarithm is of a ratio built from counts and the fixed p, q or
  kernel, never of an enumerated probability, so underflow in the tail
  of the law cannot make a value infinite. The signal statistic works
  one signal row at a time, so a chunk never builds a (signals, rows)
  float array. At m = 4 the ceiling of 10^7 states binds before
  time does: n = 224 for the two-distribution oracles and n = 208 for
  i.i.d. input, each in about 0.15-0.25 s on one core.
- A dense driver for a target row among other users whose rows differ
  (fixed inputs, heterogeneous covers). It convolves the other rows into
  the law of their counts on the C(n + k - 1, k - 1) histograms that
  ``_histogram_chunks`` enumerates, the engine's order, and returns it
  shifted by each target message a, s[a](h) = P_others(h - e_a). The
  (n + 1)^(k - 1) grid of counts is only a sort key: no array of its size
  is built. Two statistics read the shifts: input leakage takes the signal
  statistic of the shifts mixed through the target's kernel rows, and
  position leakage with fixed inputs weighs them by the target's row,
  t_a = R[x_1, a] s[a], with the position posterior proportional to
  t_a / h_a. Its charge is n (n + 1)^(k - 1): at k = 4 the ceiling allows
  n = 55.

A small simplex is enumerated once per process. A cache keyed by
(n, symbols) keeps the histograms of n messages when there are at most
SIMPLEX_ROWS = 4096 of them (the Monte Carlo table's bound) over 2 to
SIMPLEX_SYMBOLS = 8 symbols, for at most SIMPLEX_ENTRIES = 32 simplices,
dropping the least recently used. An entry holds the int64 histograms in
``_histogram_chunks`` order, their coefficients log n! - sum_j log h_j! and
the back map of the dense law, all read-only. The engine's weights
exp(coef + h . log q) from it are the floats an enumeration gives; the
Monte Carlo table reads it through the engine, and ``_shifted_laws`` takes
its histograms and back map. An entry takes 8 rows (2 symbols + 1) bytes,
at most 0.47 MB (8 symbols, n = 7, 3432 histograms), so the cache holds at
most 15 MB; the 20 simplices of n <= 8 at m = 2..5 take 0.1 MB. It is a
``functools.lru_cache``: threads that miss a simplex together may each
build it (at most 0.1 ms and 0.47 MB), and the cache keeps one build.

Finite-n closed forms built from binomial expectations are exact and
enumerate nothing. Their Bin(n, p) pmf is built in numpy from the ratio
of consecutive terms, outward from the mode, and divided by its sum; its
n + 1 terms per symbol are their states. Up to n = 16384 the closed forms
stay within 1e-11 relative of a reference pmf from a special-function
library (see the tests), and one binomial expectation takes about 0.3 ms
at that n (2.9 ms with the library's pmf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb, lgamma
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    AbsoluteContinuityError,
    InvalidInputError,
    InvalidParameterError,
    ResourceLimitError,
)
from .mechanisms import Randomizer
from .probability import Categorical, align, union_labels


MAX_STATES = 10_000_000  # the state ceiling of every exact oracle; exceeding it raises
CHUNK_ROWS = 1 << 14  # histogram rows per enumerated chunk; bounds the engine's memory
SIMPLEX_ROWS = 4096  # the most histograms a cached simplex holds: the Monte Carlo table's bound
SIMPLEX_SYMBOLS = 8  # the most symbols a cached simplex has; bounds an entry at 0.47 MB
SIMPLEX_ENTRIES = 32  # simplices cached at once


def ceiling_error(states: int) -> ResourceLimitError:
    """The error an oracle raises for ``states`` above MAX_STATES."""
    # Python refuses to format integers of more than 4300 digits
    text = str(states) if states < 10**15 else f"~10^{int(math.log10(states))}"
    return ResourceLimitError(f"the exact oracle needs {text} states, ceiling is {MAX_STATES}")


def check_states(states: int) -> None:
    """Raise ``ceiling_error(states)`` when ``states`` exceeds MAX_STATES,
    read at call time. A state is one histogram, grid cell or pmf term."""
    if states > MAX_STATES:
        raise ceiling_error(states)


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
    """Charge of the dense driver behind the fixed-input and heterogeneous
    oracles: n draws (the target's included), each charged the (n + 1)^(k - 1)
    cells of the grid of counts that bounds its histograms."""
    return n * (n + 1) ** (n_outputs - 1)


def states_binomial(p: Categorical, n: int) -> int:
    """Pmf terms of the binomial closed forms: n + 1 for each symbol of p's support."""
    return len(p.support()) * (n + 1)


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


def _histogram_chunks(n: int, symbols: int) -> Iterator[np.ndarray]:
    """Every histogram of n messages over ``symbols`` symbols, in (symbols,
    rows) int64 chunks of at most CHUNK_ROWS: one contiguous row of counts
    per symbol, so sums over symbols are whole-vector additions. The counts
    of symbols 1.. run lexicographically; symbol 0 has what they leave of n.

    Each histogram of one symbol fewer, in this order, is extended by every
    count of the new last symbol that its count of symbol 0 leaves room for.
    """
    if symbols == 1:
        yield np.full((1, 1), n, dtype=np.int64)
        return
    for prev in _histogram_chunks(n, symbols - 1):
        room = prev[0] + 1  # choices of the last count per shorter histogram
        ends = np.cumsum(room)
        for lo in range(0, int(ends[-1]), CHUNK_ROWS):
            idx = np.arange(lo, min(lo + CHUNK_ROWS, int(ends[-1])))
            col = np.searchsorted(ends, idx, side="right")
            out = np.empty((symbols, len(idx)), dtype=np.int64)
            out[:-1] = prev[:, col]
            out[-1] = idx - ends[col] + room[col]
            out[0] -= out[-1]
            del idx, col  # not held while the caller works on the chunk
            yield out


def _log_coefficients(n: int, h: np.ndarray) -> np.ndarray:
    """log n! - sum_j log h_j! for each histogram of a chunk."""
    log_fact = _log_factorials(n)
    return log_fact[n] - log_fact[h].sum(axis=0)


def _back_map(n: int, h: np.ndarray) -> np.ndarray:
    """For histograms h of n messages in ``_histogram_chunks`` order,
    back[a] is the index of h - e_a, or len(h[0]) where h_a = 0. Their flat
    offsets on the (n + 1)^(k - 1) grid of counts of symbols 1..k-1 increase
    in that order, so each index is one search and the grid is never built."""
    step = np.r_[0, (n + 1) ** np.arange(len(h) - 2, -1, -1)]  # the offset of e_a
    offset = step @ h
    return np.where(h > 0, np.searchsorted(offset, offset - step[:, None]), len(offset))


def _is_small(n: int, symbols: int) -> bool:
    """Whether the simplex cache keeps the histograms of n messages over
    ``symbols`` symbols."""
    return 2 <= symbols <= SIMPLEX_SYMBOLS and comb(n + symbols - 1, symbols - 1) <= SIMPLEX_ROWS


@lru_cache(maxsize=SIMPLEX_ENTRIES)
def _small_simplex(n: int, symbols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, coef, back) of a simplex ``_is_small`` admits, from the cache:
    its histograms as one ``_histogram_chunks`` chunk, their
    ``_log_coefficients`` and their ``_back_map``, all read-only."""
    [h] = _histogram_chunks(n, symbols)  # SIMPLEX_ROWS <= CHUNK_ROWS: one chunk
    entry = (h, _log_coefficients(n, h), _back_map(n, h))
    for array in entry:
        array.flags.writeable = False
    return entry


def weighted_histograms(n: int, q: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every histogram h of n messages over len(q) symbols, in a fixed order
    and in chunks of at most CHUNK_ROWS: pairs (h, weight) of a (len(q),
    rows) integer chunk and its multinomial probabilities Mult(h; n, q).

    ``q`` must be positive. The weights come from one lgamma table, so
    they sum to 1 only up to the table's shared rounding; a reader
    divides by their sum. A small simplex (``_is_small``) comes from the
    cache, as one read-only chunk; its weights are the same floats as an
    enumerated chunk's.
    """
    if len(q) == 1:  # one symbol: h = (n) surely, and n may be far beyond any table
        yield np.full((1, 1), n), np.ones(1)
        return
    logq = np.log(q)[:, None]
    if _is_small(n, len(q)):
        chunks = [_small_simplex(n, len(q))[:2]]
    else:
        chunks = ((h, _log_coefficients(n, h)) for h in _histogram_chunks(n, len(q)))
    for h, coef in chunks:
        yield h, np.exp(coef + (h * logq).sum(axis=0))


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
    """The exact driver: the form's value by enumerating every histogram.

    The weights are divided by their own sum, so the lgamma table's shared
    rounding cancels. Chunk partials are summed with fsum in a fixed order.
    """
    if not form.target.any():  # every target message is hidden
        return form.constant
    num, den = [], []
    for h, weight in weighted_histograms(n, form.cover):
        num.append(float((weight * form.statistic(h)).sum()))
        den.append(float(weight.sum()))
    return math.fsum([math.fsum(num) / math.fsum(den), form.constant])


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


def position_form(p: Categorical, q: Categorical, n: int) -> HistogramForm:
    """Position leakage of the two-distribution channel as a histogram form."""
    target, cover, hidden = _visible_split(p, q, n)
    w = target / cover
    wlogw = w * np.log(_or_one(w))

    def statistic(h):
        s = w @ h  # S log(n / S) is 0 where S = 0 (no target mass)
        return (wlogw @ h + s * np.log(n / _or_one(s))) / n

    return HistogramForm(cover, target, statistic, math.fsum(hidden) * math.log(n))


def _signal_divergence(px: np.ndarray, rows: Iterable[np.ndarray], mix: np.ndarray) -> np.ndarray:
    """sum_x px_x t_x log(t_x / mix) per histogram: the divergence of a
    signal's posterior from its prior, for the likelihood ratios t_x that
    ``rows`` yields one signal at a time and their mixture
    mix = sum_x px_x t_x. Terms with t_x = 0 are 0, so all are where mix = 0."""
    safe_mix = _or_one(mix)
    total = np.zeros(mix.shape)
    for p, t in zip(px, rows):
        total += p * t * np.log(_or_one(t) / safe_mix)
    return total


def _signal_form(px, ratio, cover, target, constant: float) -> HistogramForm:
    """Leakage of a signal x ~ px as a histogram form: t_x(h) = ratio[x] . h,
    with ratio[x] = K[x] / (n cover) for the kernel K that sends x to the
    target's message."""
    mix_row = px @ ratio

    def statistic(h):
        # one signal row at a time, so no (signals, rows) float array is built
        return _signal_divergence(px, (r @ h for r in ratio), mix_row @ h)

    return HistogramForm(cover, target, statistic, constant)


def message_form(p: Categorical, q: Categorical, n: int) -> HistogramForm:
    """Message leakage of the two-distribution channel as a histogram form:
    the signal is the target's visible message, sent through the identity
    kernel, so a target that is sure of its message scores exactly 0."""
    target, cover, hidden = _visible_split(p, q, n)
    sent = np.flatnonzero(target)
    hidden = hidden[hidden > 0]
    ratio = np.eye(len(cover))[sent] / (n * cover)
    return _signal_form(target[sent], ratio, cover, target, -math.fsum(hidden * np.log(hidden)))


def _prior_vector(prior: Categorical, input_labels: tuple) -> np.ndarray:
    known = set(input_labels)
    for lab in prior.support():
        if lab not in known:
            raise InvalidInputError(f"prior symbol {lab!r} not a randomizer input")
    return np.array([prior.prob(x) for x in input_labels])


def input_form(r: Randomizer, prior: Categorical, n: int) -> HistogramForm:
    """Input leakage with i.i.d. inputs as a histogram form: the target's
    input is a signal sent through the randomizer's kernel. The target's
    output follows the output marginal too, so ``target`` is the cover."""
    if n < 1:
        raise InvalidParameterError("n must be at least 1")
    prior_vec = _prior_vector(prior, r.input_labels)
    marginal = prior_vec @ r.kernel
    seen = marginal > 0
    cover = marginal[seen]
    sent = prior_vec > 0
    ratio = r.kernel[sent][:, seen] / (n * cover)
    return _signal_form(prior_vec[sent], ratio, cover, cover, 0.0)


def position_mi_exact(p: Categorical, q: Categorical, n: int) -> float:
    """Exact position leakage of the two-distribution shuffle channel.

    The position posterior given the released sequence is proportional to
    w = p / q at each position, so its divergence from uniform depends on
    the sequence only through the pooled histogram. A target value
    impossible under the cover distribution pins the posterior to a single
    position and contributes log n.
    """
    check_states(states_shuffle_only(p, q, n))
    return _histogram_value(n, position_form(p, q, n))


def message_mi_exact(p: Categorical, q: Categorical, n: int) -> float:
    """Exact message leakage of the two-distribution shuffle channel.

    Given a visible target value a, the posterior of the target's message
    given the pooled histogram h is h_a w_a / S. A target value the cover
    hides is revealed outright and contributes its entropy term. Works
    whether or not the target distribution is absolutely continuous
    w.r.t. the cover.
    """
    check_states(states_shuffle_only(p, q, n))
    return _histogram_value(n, message_form(p, q, n))


def binomial_weights(n: int, prob: float) -> np.ndarray:
    """The Bin(n, prob) pmf over 0..n up to a constant factor, 1 at the mode.

    It is built from the mode outward by the ratio
    pmf(x + 1) / pmf(x) = (n - x) prob / ((x + 1)(1 - prob)), so every
    entry in the bulk is a short product of factors near 1. Weights from
    differences of lgamma values carry the rounding of numbers near log n!:
    at n = 16384 and prob = 0.9 they put E[(X/n) log(X/n)] - prob log prob
    1.7e-10 relative from a 40-digit reference, and this product 6e-12.
    """
    pmf = np.zeros(n + 1)
    if prob == 1.0:  # X = n surely
        pmf[n] = 1.0
        return pmf
    x = np.arange(n + 1)
    mode = min(int((n + 1) * prob), n)
    pmf[mode] = 1.0
    odds = prob / (1.0 - prob)
    # every factor is at most 1 in the direction it is multiplied along
    up, down = x[mode:n], x[:mode][::-1]
    pmf[mode + 1 :] = np.cumprod((n - up) / (up + 1) * odds)
    pmf[:mode] = np.cumprod((down + 1) / (n - down) / odds)[::-1]
    return pmf


def _binom_xlogx(n: int, prob: float) -> float:
    """E[(X/n) log(X/n)] for X ~ Bin(n, prob), with 0 log 0 = 0, from
    ``binomial_weights`` divided by their sum."""
    if prob == 1.0:  # X = n surely
        return 0.0
    pmf = binomial_weights(n, prob)
    ratio = np.arange(1, n + 1) / n
    return float(np.dot(pmf[1:], ratio * np.log(ratio)) / pmf.sum())


def matched_message_mi(p: Categorical, n: int) -> float:
    """Exact message leakage when the covers share the target's distribution.

    Closed form via binomial expectations,
    sum_i E[(X/n) log(X/n)] - p_i log p_i with X ~ Bin(n, p_i),
    valid at every finite n (no asymptotics, no enumeration); its
    |supp p| (n + 1) pmf terms are checked against the ceiling. It is the
    message-minus-position gap at q = p, where position leakage is 0.
    """
    return message_minus_position_mi(p, p, n)


def message_minus_position_mi(p: Categorical, q: Categorical, n: int) -> float:
    """Exact gap between message leakage and position leakage.

    Equals sum_i (p_i/q_i) E[(X/n) log(X/n)] - p_i log p_i with
    X ~ Bin(n, q_i). Adding the exact position leakage recovers the exact
    message leakage (chain-rule decomposition of the channel). Requires
    the target distribution absolutely continuous w.r.t. the cover.
    """
    if n < 1:
        raise InvalidParameterError("n must be at least 1")
    check_states(states_binomial(p, n))
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
    n: int, k: int, other_rows: Iterable[Sequence[float]]
) -> tuple[np.ndarray, np.ndarray]:
    """The dense driver: the law of the other users' counts, shifted by the
    target's message.

    The n - 1 other users draw once each from the k-symbol rows
    ``other_rows``, which are read only after the ceiling check passes, and
    the target's message makes n. Returns (s, h), both (k, histograms), over
    the C(n + k - 1, k - 1) histograms h of n messages in the order of
    ``_histogram_chunks(n, k)``: h[a] is the count of symbol a and
    s[a] = P_others(h - e_a), the law with the target's message taken to
    be a. The law lives on the same histograms (their counts of symbols
    1..k-1; the count of symbol 0 is implicit) and is built one draw at a
    time. ``back[a]`` is the index of h - e_a, or of a 0 appended to the
    law where h_a = 0 (``_back_map``); it serves both the draws and the
    final shift. Both depend on n and k only, so a small simplex
    (``_is_small``) takes them from the cache.
    """
    check_states(states_position_dp(n, k))
    if _is_small(n, k):
        h, _, back = _small_simplex(n, k)
    else:
        h = np.concatenate(list(_histogram_chunks(n, k)), axis=1)
        back = _back_map(n, h)
    law = np.zeros(h.shape[1] + 1)
    law[0] = 1.0  # no other user has drawn: every count is 0
    for row in other_rows:
        new = row[0] * law
        for a in range(1, k):
            new[:-1] += row[a] * law.take(back[a])
        law = new
    return law.take(back), h


def _input_mi_hist(
    prior_vec: np.ndarray,
    signal_rows: np.ndarray,
    n: int,
    other_rows: Iterable[Sequence[float]],
) -> float:
    """Mutual information between the signal index and the pooled histogram.

    One draw comes from signal_rows[x] (x distributed per prior_vec); the
    n - 1 other draws come from other_rows, independently. The histogram of
    all draws is observed. Each histogram's likelihoods are divided by
    their largest before they are mixed: the mixture is then at least the
    smallest prior mass, so it cannot underflow to 0 where a likelihood is
    positive, however far in the tail of the law the histogram lies.
    """
    s, _ = _shifted_laws(n, signal_rows.shape[1], other_rows)
    seen = prior_vec > 0
    px = prior_vec[seen]
    lx = signal_rows[seen] @ s
    top = lx.max(axis=0)
    rows = lx / _or_one(top)
    return float(top @ _signal_divergence(px, rows, px @ rows))


def input_mi_fixed_others(r: Randomizer, prior: Categorical, x_rest: Sequence) -> float:
    """Exact input leakage with the other users' inputs held fixed.

    The target's input follows ``prior`` and is pushed through ``r``; each
    remaining user i contributes one draw from the row of ``x_rest[i]``.
    """
    prior_vec = _prior_vector(prior, r.input_labels)
    return _input_mi_hist(prior_vec, r.kernel, len(x_rest) + 1, map(r.row, x_rest))


def input_mi_iid_others(r: Randomizer, prior: Categorical, n: int) -> float:
    """Exact input leakage when every user's input is i.i.d. from ``prior``.

    The non-target outputs are then i.i.d. from the output marginal
    prior @ kernel, so the pooled histogram h given the target's input x
    has law Mult(h; n, marginal) times t_x(h), and t_x(h) is also the
    likelihood ratio against the unconditional law. This is the quantity
    the Monte Carlo input estimator converges to.
    """
    check_states(states_input_mi(n, len(r.output_labels)))
    return _histogram_value(n, input_form(r, prior, n))


def input_mi_shuffle_only(p1: Categorical, others: Sequence[Categorical]) -> float:
    """Exact input leakage when messages are sent unrandomized.

    The target's message follows ``p1``; user i's message follows
    ``others[i]``, all independent, and the shuffled pool is observed.
    """
    labels = union_labels([p1, *others])
    signal = np.eye(len(p1.labels), len(labels))  # p1's labels come first
    rows = ([d.prob(lab) for lab in labels] for d in others)
    prior_vec = np.asarray(p1.probs)
    return _input_mi_hist(prior_vec, signal, len(others) + 1, rows)


def position_mi_fixed_inputs(r: Randomizer, x_inputs: Sequence) -> float:
    """Exact position leakage with all users' inputs fixed.

    Summed over the released sequences with histogram h whose slot k holds
    a, P(z | K = k) is t_a(h) = R[x_1, a] P_others(h - e_a) for every k, so
    the position posterior at such a sequence is proportional to t_a / h_a
    and I(K; Z) = sum_h sum_a t_a log(n t_a / (h_a sum_b t_b)).
    """
    n = len(x_inputs)
    if n < 1:
        raise InvalidParameterError("need at least one input")
    s, h = _shifted_laws(n, len(r.output_labels), map(r.row, x_inputs[1:]))
    t = r.row(x_inputs[0])[:, None] * s
    # n t_a / (h_a sum_b t_b), taken where t_a > 0 (so h_a >= 1)
    ratio = t / _or_one(t.sum(axis=0)) * (n / np.maximum(h, 1))
    return float((t * np.log(_or_one(ratio))).sum())

"""Leading-order expansions and privacy-derived bounds, all in nats.

Expansion functions return an :class:`AsymptoticTerm` holding the
coefficients separately, so callers can print or test each coefficient
and evaluate the expansion on any population-size grid; remainder terms
are not estimated. ``signal_rate`` is the one leading form of input
leakage, whatever laws the other users send from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AbsoluteContinuityError, InvalidParameterError
from .mechanisms import Randomizer
from .probability import (
    Categorical,
    align,
    chi2_divergence,
    kl_divergence,
    split_support,
)


@dataclass(frozen=True)
class AsymptoticTerm:
    """Expansion a + b log n + c / n, less a remainder of smaller order."""

    constant_term: float
    log_n_coefficient: float
    inv_n_coefficient: float

    def evaluate(self, n: int) -> float:
        if n < 1:
            raise InvalidParameterError("n must be at least 1")
        return (
            self.constant_term
            + self.log_n_coefficient * math.log(n)
            + self.inv_n_coefficient / n
        )


def position_mi_expansion(p: Categorical, q: Categorical) -> AsymptoticTerm:
    """Expansion of position leakage for the two-distribution channel.

    beta log n + (1 - beta) KL(p'||q) - (1 - beta) chi2(p'||q) / (2n),
    where beta is the target mass invisible to the cover and p' the
    restriction to the visible part. With beta = 0 this collapses to
    KL(p||q) - chi2(p||q)/(2n).
    """
    beta, restricted = split_support(p, q)
    if restricted is None:
        return AsymptoticTerm(0.0, 1.0, 0.0)
    kl = kl_divergence(restricted, q)
    chi2 = chi2_divergence(restricted, q)
    return AsymptoticTerm((1 - beta) * kl, beta, -(1 - beta) * chi2 / 2.0)


def message_mi_expansion(p: Categorical, q: Categorical) -> AsymptoticTerm:
    """Expansion of message leakage for the two-distribution channel.

    Constant part: sum over invisible symbols of p log(1/p) plus
    (1 - beta) log(1/(1 - beta)). 1/n part:
    (1 - beta) sum (p'_i - p'_i^2) / q_i / 2, summed over the support of
    the visible restriction.
    """
    beta, restricted = split_support(p, q)
    labels, pv, qv = align(p, q)
    outside = (pv > 0) & (qv == 0)
    constant = float(np.sum(-pv[outside] * np.log(pv[outside]))) if outside.any() else 0.0
    if 0.0 < beta < 1.0:
        constant += (1 - beta) * math.log(1.0 / (1.0 - beta))
    if restricted is None:
        return AsymptoticTerm(constant, 0.0, 0.0)
    _, rp, rq = align(restricted, q)
    m = rp > 0
    inv = (1 - beta) * float(np.sum((rp[m] - rp[m] ** 2) / rq[m])) / 2.0
    return AsymptoticTerm(constant, 0.0, inv)


def optimal_cover(p: Categorical) -> Categorical:
    """Cover distribution minimizing the leading message leakage.

    Assigns q_i proportional to sqrt(p_i (1 - p_i)) on the support of p;
    symbols outside the support get nothing. Undefined for a point mass.
    """
    sup = p.support()
    if len(sup) < 2:
        raise InvalidParameterError("target must have at least two support points")
    a = np.array([p.prob(l) * (1 - p.prob(l)) for l in sup])
    q = np.sqrt(a)
    return Categorical(sup, q / q.sum())


def position_mi_dp_bound(eps0: float) -> float:
    """Position leakage never exceeds 2 eps0 under an eps0-LDP randomizer."""
    if eps0 < 0:
        raise InvalidParameterError("eps0 must be nonnegative")
    return 2.0 * eps0


def input_mi_dp_bound(eps0: float, n: int) -> float:
    """Leading input-leakage bound (e^eps0 - 1) / (2n) under eps0-LDP."""
    if eps0 < 0:
        raise InvalidParameterError("eps0 must be nonnegative")
    if n < 1:
        raise InvalidParameterError("n must be at least 1")
    return (math.exp(eps0) - 1.0) / (2.0 * n)


def clone_message_bound(m: int, eps0: float, n: int) -> float:
    """Message-leakage bound (m - 1) e^eps0 / (2n) via the clone mixture.

    Reduces the randomize-then-shuffle channel to the matched shuffle-only
    channel with a binomially thinned population.
    """
    if m < 1:
        raise InvalidParameterError("m must be a positive integer")
    if eps0 < 0:
        raise InvalidParameterError("eps0 must be nonnegative")
    if n < 1:
        raise InvalidParameterError("n must be at least 1")
    return (m - 1) * math.exp(eps0) / (2.0 * n)


def mean_chi2(prior: Categorical, r: Randomizer, q: Categorical) -> float:
    """Prior-weighted chi-squared divergence of the rows from ``q``.

    Infinite when a row with prior mass puts mass outside the support of q.
    """
    total = 0.0
    for x in prior.support():
        try:
            total += prior.prob(x) * chi2_divergence(r.row_dist(x), q)
        except AbsoluteContinuityError:
            return math.inf
    return total


def signal_rate(px, rows, others, counts) -> float:
    """Leading input leakage 1/2 tr(Sigma^-1 C) of a signal pooled with others.

    A signal x ~ ``px`` sends one message from ``rows[x]`` and ``counts[i]``
    users one each from ``others[i]``, over one alphabet. Sigma is the pooled
    histogram's covariance cov(rbar) + sum_i counts_i cov(others_i), with
    cov(r) = diag r - r r^T and rbar = px . rows, and C = sum_x px_x
    (rows_x - rbar)(rows_x - rbar)^T (Clarke & Barron 1990), both on the
    symbols some user sends less one per group of symbols the laws link (as
    a rule one group, of count n). Exact values are within O(n^-2). Rows
    with px_x = 0 are ignored; one that sends a symbol no law in ``others``
    sends raises AbsoluteContinuityError.
    """
    px = np.asarray(px, dtype=float)
    px, rows = px[px > 0], np.asarray(rows, dtype=float)[px > 0]
    others = np.asarray(others, dtype=float).reshape(-1, rows.shape[1])
    counts = np.asarray(counts, dtype=float)
    if counts.shape != others.shape[:1] or np.any(counts < 0):
        raise InvalidParameterError("counts must be one nonnegative count per law in others")
    if np.any(rows[:, ~others.any(axis=0)] > 0):
        raise AbsoluteContinuityError("a signal row sends a symbol no other user sends")
    mix = px @ rows
    sigma = np.diag(mix + counts @ others) - np.outer(mix, mix) - (others.T * counts) @ others
    dev = rows - mix
    spread = dev.T @ (px[:, None] * dev)
    sends = np.vstack([mix, others[counts > 0]]) > 0
    link = np.linalg.matrix_power(sends.T @ sends, len(mix))
    keep = np.tril(link, -1).any(axis=1)  # all but the first symbol of each linked group
    return 0.5 * float(np.trace(np.linalg.solve(sigma[keep][:, keep], spread[keep][:, keep])))

"""Leading-order expansions and privacy-derived bounds, all in nats.

Expansion functions return an :class:`AsymptoticTerm` holding the
coefficients separately, so callers can print or test each coefficient
and evaluate the expansion on any population-size grid. Remainder
constants are never estimated: the ``remainder_order`` tag records the
order of the neglected term and nothing more.
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
    """Expansion a + b log n + c / n with a remainder of known order."""

    constant_term: float
    log_n_coefficient: float
    inv_n_coefficient: float
    remainder_order: str = "n^-3/2"

    def evaluate(self, n: int) -> float:
        if n < 1:
            raise InvalidParameterError("n must be at least 1")
        return (
            self.constant_term
            + self.log_n_coefficient * math.log(n)
            + self.inv_n_coefficient / n
        )


def matched_message_rate(m: int, n: int) -> float:
    """Leading message leakage (m - 1) / (2n) when covers match the target."""
    if m < 1:
        raise InvalidParameterError("m must be a positive integer")
    if n < 1:
        raise InvalidParameterError("n must be at least 1")
    return (m - 1) / (2.0 * n)


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


def cover_constant(p: Categorical, q: Categorical) -> float:
    """Leading-coefficient sum a_i / q_i with a_i = p_i (1 - p_i).

    This is twice the 1/n coefficient of the message-leakage expansion.
    Infinite when the cover misses part of the target's support.
    """
    _, pv, qv = align(p, q)
    a = pv * (1 - pv)
    if np.any((a > 0) & (qv == 0)):
        return math.inf
    m = a > 0
    return float(np.sum(a[m] / qv[m]))


def optimal_cover_constant(p: Categorical) -> float:
    """Best achievable leading coefficient, (sum_i sqrt(p_i(1-p_i)))^2."""
    a = np.asarray(p.probs) * (1 - np.asarray(p.probs))
    return float(np.sqrt(a).sum() ** 2)


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


def row_mixture(prior: Categorical, r: Randomizer) -> Categorical:
    """Output marginal of the randomizer under ``prior``."""
    vec = np.zeros(len(r.output_labels))
    for x in prior.support():
        vec += prior.prob(x) * r.row(x)
    return Categorical(r.output_labels, vec)


def mixed_signal_rate(prior: Categorical, r: Randomizer, q: Categorical, s: int) -> float:
    """Leading input leakage of one randomized signal pooled with s cover draws.

    (mean chi2 of rows from q - chi2 of the row mixture from q) divided by
    2 (s + 1). Requires q positive wherever any row has mass.
    """
    if s < 0:
        raise InvalidParameterError("s must be nonnegative")
    chi_bar = mean_chi2(prior, r, q)
    mix = row_mixture(prior, r)
    return (chi_bar - chi2_divergence(mix, q)) / (2.0 * (s + 1))

"""Sampling the shuffle channel and the target's position posterior.

The channel takes the target user's message (position 1 before shuffling)
plus n - 1 cover messages, applies a uniformly random permutation, and
releases the permuted sequence. Positions are 1-indexed throughout.

This module is the sequence-level view, kept for the README's library
tour and for acceptance criterion 1 (the posterior against brute-force
Bayes). Every leakage value the runner reports comes from the histogram
forms in ``exact`` and ``montecarlo``, which read nothing here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .probability import Categorical


@dataclass(frozen=True)
class ShuffleSample:
    """One realization of the shuffle channel.

    ``z`` is the released sequence, ``k_true`` the 1-indexed post-shuffle
    position of the target's message, and ``y1`` that message's value.
    """

    z: tuple
    k_true: int
    y1: Hashable

    def __post_init__(self):
        if not 1 <= self.k_true <= len(self.z):
            raise InvalidInputError("k_true out of range")
        if self.z[self.k_true - 1] != self.y1:
            raise InvalidInputError("z[k_true] must equal y1")


def _shuffle(y: list, rng: np.random.Generator) -> tuple[tuple, int]:
    """Apply a uniform permutation; return (z, 1-indexed target position)."""
    n = len(y)
    perm = rng.permutation(n)
    z = tuple(y[perm[i]] for i in range(n))
    k_true = int(np.nonzero(perm == 0)[0][0]) + 1
    return z, k_true


def _labels_at(d: Categorical, u: Sequence[float]) -> list:
    """The labels of ``d`` at the uniforms ``u`` by its inverse CDF, whose
    last entry is set to 1 so rounding cannot push a draw past it."""
    cum = np.cumsum(d.probs)
    cum[-1] = 1.0
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(d.labels) - 1)
    return [d.labels[i] for i in idx]


def sample_shuffle_only(
    p: Categorical, q: Categorical, n: int, rng: np.random.Generator
) -> ShuffleSample:
    """Draw the target's message from p, n - 1 covers i.i.d. from q, shuffle.

    Draw order is fixed (target message, cover messages, permutation) so a
    seeded generator reproduces samples exactly.
    """
    if n < 1:
        raise InvalidParameterError("n must be at least 1")
    [y1] = _labels_at(p, [rng.random()])
    y = [y1] + _labels_at(q, rng.random(n - 1))
    z, k_true = _shuffle(y, rng)
    return ShuffleSample(z=z, k_true=k_true, y1=y1)


def position_posterior(z: Sequence, p: Categorical, q: Categorical) -> np.ndarray:
    """Posterior over the target's position given the released sequence.

    Entry i of the returned vector is the probability that the target's
    message sits at (1-indexed) position i + 1. The posterior is
    proportional to the likelihood ratio p(z_k) / q(z_k). Positions whose
    symbol is impossible under q but possible under p carry infinite
    weight: the posterior then splits uniformly over those positions.
    """
    n = len(z)
    if n == 0:
        raise InvalidInputError("empty sequence")
    w = np.empty(n)
    inf_mask = np.zeros(n, dtype=bool)
    for i, v in enumerate(z):
        pv, qv = p.prob(v), q.prob(v)
        if pv == 0.0 and qv == 0.0:
            raise InvalidInputError(f"message {v!r} outside both supports")
        if qv == 0.0:
            inf_mask[i] = True
            w[i] = 0.0
        else:
            w[i] = pv / qv
    if inf_mask.any():
        post = np.zeros(n)
        post[inf_mask] = 1.0 / inf_mask.sum()
        return post
    s = w.sum()
    if s == 0.0:
        raise InvalidInputError("all position weights are zero")
    return w / s

"""Sampling the shuffle channel and the exact posteriors it induces.

The channel takes the target user's message (position 1 before shuffling)
plus n - 1 cover messages, applies a uniformly random permutation, and
releases the permuted sequence. Positions are 1-indexed throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .mechanisms import Randomizer
from .probability import Categorical


@dataclass(frozen=True)
class ShuffleSample:
    """One realization of the shuffle channel.

    ``z`` is the released sequence, ``k_true`` the 1-indexed post-shuffle
    position of the target's message, ``y1`` that message's value, and
    ``x_inputs`` the users' inputs when a local randomizer was applied.
    """

    z: tuple
    k_true: int
    y1: Hashable
    x_inputs: tuple | None = None

    def __post_init__(self):
        if not 1 <= self.k_true <= len(self.z):
            raise InvalidInputError("k_true out of range")
        if self.z[self.k_true - 1] != self.y1:
            raise InvalidInputError("z[k_true] must equal y1")


@dataclass(frozen=True)
class Histogram:
    """Count vector over an output alphabet."""

    counts: Mapping[Hashable, int]
    total: int = -1

    def __post_init__(self):
        counts = dict(self.counts)
        if any(c < 0 or c != int(c) for c in counts.values()):
            raise InvalidInputError("counts must be nonnegative integers")
        total = sum(counts.values())
        if self.total not in (-1, total):
            raise InvalidInputError("total does not match counts")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)

    @classmethod
    def from_messages(cls, messages: Sequence) -> "Histogram":
        counts: dict = {}
        for m in messages:
            counts[m] = counts.get(m, 0) + 1
        return cls(counts)


def _shuffle(y: list, rng: np.random.Generator) -> tuple[tuple, int]:
    """Apply a uniform permutation; return (z, 1-indexed target position)."""
    n = len(y)
    perm = rng.permutation(n)
    z = tuple(y[perm[i]] for i in range(n))
    k_true = int(np.nonzero(perm == 0)[0][0]) + 1
    return z, k_true


def sample_shuffle_only(
    p: Categorical, q: Categorical, n: int, rng: np.random.Generator
) -> ShuffleSample:
    """Draw the target's message from p, n - 1 covers i.i.d. from q, shuffle.

    Draw order is fixed (target message, cover messages, permutation) so a
    seeded generator reproduces samples exactly.
    """
    if n < 1:
        raise InvalidParameterError("n must be at least 1")
    y1 = p.sample(rng)
    y = [y1] + q.sample_n(rng, n - 1)
    z, k_true = _shuffle(y, rng)
    return ShuffleSample(z=z, k_true=k_true, y1=y1)


def sample_shuffle_dp(
    r: Randomizer, x_inputs: Sequence, rng: np.random.Generator
) -> ShuffleSample:
    """Randomize each input through ``r``, then shuffle the outputs."""
    if len(x_inputs) < 1:
        raise InvalidParameterError("need at least one input")
    dists = [r.row_dist(x) for x in x_inputs]
    y = [d.sample(rng) for d in dists]
    z, k_true = _shuffle(y, rng)
    return ShuffleSample(z=z, k_true=k_true, y1=y[0], x_inputs=tuple(x_inputs))


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


def message_posterior(z: Sequence, p: Categorical, q: Categorical) -> Categorical:
    """Posterior over the target's message value given the released sequence.

    Aggregates the position posterior over equal-valued positions; the
    alphabet is the distinct values of ``z`` in first-occurrence order.
    """
    post = position_posterior(z, p, q)
    labels: list = []
    mass: dict = {}
    for v, pk in zip(z, post):
        if v not in mass:
            labels.append(v)
            mass[v] = 0.0
        mass[v] += pk
    return Categorical(tuple(labels), np.array([mass[v] for v in labels]))


def input_posterior(
    hist: Histogram, prior: Categorical, r: Randomizer, q: Categorical
) -> Categorical:
    """Posterior over the target's input given the mixed output histogram.

    The histogram pools the target's randomized output with draws that are
    i.i.d. from the cover distribution ``q``; the posterior on input x is
    proportional to prior(x) * sum_y c_y * R_x(y) / q(y).
    """
    if hist.total < 1:
        raise InvalidInputError("histogram must contain at least one message")
    t = np.zeros(len(r.input_labels))
    for y, c in hist.counts.items():
        if c == 0:
            continue
        qy = q.prob(y)
        if qy == 0.0:
            raise InvalidInputError(f"observed output {y!r} has zero cover probability")
        try:
            j = r.output_labels.index(y)
        except ValueError:
            raise InvalidInputError(f"output {y!r} not in randomizer alphabet") from None
        t += c * r.kernel[:, j] / qy
    unnorm = np.array([prior.prob(x) for x in r.input_labels]) * t
    total = unnorm.sum()
    if total <= 0.0:
        raise InvalidInputError("posterior has no mass; inconsistent inputs")
    return Categorical(r.input_labels, unnorm / total)

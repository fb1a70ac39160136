"""Finite categorical distributions and the divergences built on them.

All information quantities in this package are measured in nats (natural
logarithm), and the convention 0*log(0) = 0 applies everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import AbsoluteContinuityError, InvalidParameterError

PROB_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Categorical:
    """A probability distribution over a finite, labeled alphabet.

    Parameters
    ----------
    labels : sequence of hashable
        Alphabet symbols, in a fixed order. Must be distinct.
    probs : sequence of float
        Probability weights aligned with ``labels``. Must be nonnegative
        and sum to 1 within ``PROB_SUM_TOL``; the constructor renormalizes
        exactly once when within tolerance and rejects otherwise.

    Notes
    -----
    Instances are immutable. Operations that combine two distributions
    align them by label (union of alphabets with zero padding), never by
    position.
    """

    labels: tuple
    probs: np.ndarray

    def __init__(self, labels: Sequence[Hashable], probs: Sequence[float]):
        labels = tuple(labels)
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1 or len(labels) != len(probs):
            raise InvalidParameterError("labels and probs must be 1-d and aligned")
        if len(labels) == 0:
            raise InvalidParameterError("alphabet must be nonempty")
        if len(set(labels)) != len(labels):
            raise InvalidParameterError("labels must be distinct")
        if not np.all(np.isfinite(probs)):
            raise InvalidParameterError("probabilities must be finite")
        if np.any(probs < 0):
            raise InvalidParameterError("probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise InvalidParameterError(
                f"probabilities sum to {total!r}, outside tolerance {PROB_SUM_TOL}"
            )
        probs = probs / total
        probs.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(labels)})

    def __len__(self) -> int:
        return len(self.labels)

    def prob(self, label: Hashable) -> float:
        """Probability of ``label``; 0.0 for labels outside the alphabet."""
        i = self._index.get(label)
        return 0.0 if i is None else float(self.probs[i])

    def support(self) -> tuple:
        """Labels carrying strictly positive probability."""
        return tuple(lab for lab, p in zip(self.labels, self.probs) if p > 0)

    def as_dict(self) -> dict:
        return dict(zip(self.labels, map(float, self.probs)))

    def same_mass(self, other: "Categorical", tol: float = 0.0) -> bool:
        """True if both assign the same probability to every label."""
        labs = set(self.labels) | set(other.labels)
        return all(abs(self.prob(l) - other.prob(l)) <= tol for l in labs)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{l!r}: {p:.6g}" for l, p in zip(self.labels, self.probs))
        return f"Categorical({{{pairs}}})"


def make_uniform(m: int) -> Categorical:
    """Uniform distribution over the integer alphabet 1..m."""
    if m < 1:
        raise InvalidParameterError("m must be a positive integer")
    return Categorical(tuple(range(1, m + 1)), np.full(m, 1.0 / m))


def make_zipf(m: int, alpha: float) -> Categorical:
    """Zipf distribution on 1..m with weight i**(-alpha) at rank i.

    alpha = 0 degenerates to the uniform distribution.
    """
    if m < 1:
        raise InvalidParameterError("m must be a positive integer")
    if not (np.isfinite(alpha) and alpha >= 0):
        raise InvalidParameterError("alpha must be finite and nonnegative")
    w = np.arange(1, m + 1, dtype=np.float64) ** (-float(alpha))
    return Categorical(tuple(range(1, m + 1)), w / w.sum())


def union_labels(dists: Iterable[Categorical]) -> tuple:
    """The union of the distributions' alphabets, each label where it is
    first seen: the first distribution's order, then each later one's new
    labels in its own order."""
    return tuple(dict.fromkeys(lab for d in dists for lab in d.labels))


def align(p: Categorical, q: Categorical) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Align two distributions on the union alphabet with zero padding.

    Returns (labels, p_vec, q_vec). The union keeps ``p``'s label order
    first, then ``q``'s remaining labels in their original order.
    """
    if p.labels == q.labels:
        return p.labels, np.asarray(p.probs), np.asarray(q.probs)
    labels = union_labels((p, q))
    pv = np.array([p.prob(l) for l in labels])
    qv = np.array([q.prob(l) for l in labels])
    return labels, pv, qv


def entropy(p: Categorical) -> float:
    """Shannon entropy -sum p_i log p_i in nats."""
    v = p.probs[p.probs > 0]
    return float(-np.sum(v * np.log(v)))


def kl_divergence(p: Categorical, q: Categorical) -> float:
    """Kullback-Leibler divergence KL(p || q) = sum p_i log(p_i / q_i) in nats.

    Requires p absolutely continuous w.r.t. q (support(p) within
    support(q)); raises :class:`AbsoluteContinuityError` otherwise.
    Labels present in neither support contribute nothing.
    """
    _, pv, qv = align(p, q)
    bad = (pv > 0) & (qv == 0)
    if np.any(bad):
        raise AbsoluteContinuityError("p has mass outside the support of q")
    m = pv > 0
    return float(np.sum(pv[m] * np.log(pv[m] / qv[m])))


def chi2_divergence(p: Categorical, q: Categorical) -> float:
    """Chi-squared divergence chi2(p || q) = sum (p_i - q_i)^2 / q_i.

    Summed over support(q); requires p absolutely continuous w.r.t. q.
    """
    _, pv, qv = align(p, q)
    bad = (pv > 0) & (qv == 0)
    if np.any(bad):
        raise AbsoluteContinuityError("p has mass outside the support of q")
    m = qv > 0
    return float(np.sum((pv[m] - qv[m]) ** 2 / qv[m]))


def split_support(p: Categorical, q: Categorical) -> tuple[float, Categorical | None]:
    """Split ``p`` by whether its mass is visible to ``q``.

    Returns ``(beta, restricted)`` where ``beta`` is the total p-mass on
    labels with q = 0, and ``restricted`` is p conditioned on the
    remaining labels (renormalized by 1 - beta). When beta = 1 there is
    nothing left to condition on and ``restricted`` is None.
    """
    labels, pv, qv = align(p, q)
    outside = (pv > 0) & (qv == 0)
    beta = float(np.sum(pv[outside]))
    if beta == 0.0:
        return 0.0, p
    keep = ~outside
    rest_mass = float(np.sum(pv[keep]))
    if rest_mass == 0.0:
        return 1.0, None
    kept_labels = tuple(l for l, k in zip(labels, keep) if k)
    return beta, Categorical(kept_labels, pv[keep] / rest_mass)

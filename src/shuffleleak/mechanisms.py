"""Local randomizers and blanket decompositions.

A :class:`Randomizer` is a row-stochastic kernel: row x is the output
distribution of the mechanism applied to input x. The blanket
decomposition peels off the largest input-independent common component of
a randomizer's rows; the residual mass is routed through a placeholder
symbol ``BOT``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .probability import Categorical


class _Bottom:
    """Placeholder symbol for the non-common residual of a decomposition."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BOT"


BOT = _Bottom()


@dataclass(frozen=True, eq=False)
class Randomizer:
    """Row-stochastic kernel from an input alphabet to an output alphabet.

    Parameters
    ----------
    input_labels, output_labels : sequences of hashable
        Ordered alphabets.
    kernel : 2-d array
        ``kernel[i, j]`` is the probability of output ``output_labels[j]``
        on input ``input_labels[i]``. Each row is checked and renormalized
        once as a :class:`Categorical`, which ``row_dist`` returns.
    """

    input_labels: tuple
    output_labels: tuple
    kernel: np.ndarray

    def __init__(self, input_labels, output_labels, kernel):
        input_labels = tuple(input_labels)
        output_labels = tuple(output_labels)
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.shape != (len(input_labels), len(output_labels)):
            raise InvalidParameterError("kernel shape must match alphabets")
        if len(set(input_labels)) != len(input_labels):
            raise InvalidParameterError("input labels must be distinct")
        rows = {x: Categorical(output_labels, row) for x, row in zip(input_labels, kernel)}
        kernel = np.array([row.probs for row in rows.values()]).reshape(kernel.shape)
        kernel.flags.writeable = False
        object.__setattr__(self, "input_labels", input_labels)
        object.__setattr__(self, "output_labels", output_labels)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "_rows", rows)

    def row(self, x: Hashable) -> np.ndarray:
        return self.row_dist(x).probs

    def row_dist(self, x: Hashable) -> Categorical:
        row = self._rows.get(x)
        if row is None:
            raise InvalidInputError(f"unknown input symbol {x!r}")
        return row


def make_krr(k: int, eps0: float) -> Randomizer:
    """k-ary randomized response on the alphabet 1..k.

    Keeps the input with probability (e^eps0 - 1) / (e^eps0 + k - 1) and
    otherwise outputs a uniform symbol, so the kernel has diagonal
    e^eps0 / (e^eps0 + k - 1) and off-diagonal 1 / (e^eps0 + k - 1).
    Only eps0 > 0 with e^eps0 finite as a float (eps0 below about 709.78)
    is supported.
    """
    if k < 2:
        raise InvalidParameterError("k must be at least 2")
    if not (eps0 > 0) or math.isinf(eps0):
        raise InvalidParameterError("eps0 must be positive and finite")
    try:
        e = math.exp(eps0)
    except OverflowError:
        raise InvalidParameterError(
            f"eps0 = {eps0} is too large: e^eps0 overflows a float"
        ) from None
    denom = e + k - 1
    kernel = np.full((k, k), 1.0 / denom)
    np.fill_diagonal(kernel, e / denom)
    labels = tuple(range(1, k + 1))
    return Randomizer(labels, labels, kernel)


def ldp_epsilon(r: Randomizer) -> float:
    """Local DP parameter of a randomizer (pure, delta = 0).

    Largest log-likelihood ratio log(R_x(y) / R_x'(y)) over outputs y and
    input pairs; ``math.inf`` when some output is possible under one input
    and impossible under another.
    """
    eps = 0.0
    for j in range(len(r.output_labels)):
        col = r.kernel[:, j]
        hi = float(col.max())
        if hi == 0.0:
            continue
        lo = float(col.min())
        if lo == 0.0:
            return math.inf
        eps = max(eps, math.log(hi / lo))
    return eps


@dataclass(frozen=True)
class BlanketDecomposition:
    """Common-component decomposition of a randomizer's rows.

    ``gamma`` is the total coordinatewise-infimum mass. Each row x
    satisfies R_x = gamma * blanket + (1 - gamma) * leftovers[x].
    ``generalized_blanket`` places the un-normalized infimum on the
    output alphabet and mass 1 - gamma on ``BOT``. ``blanket`` is None
    when gamma = 0 and ``leftovers`` is empty when gamma = 1.
    """

    gamma: float
    blanket: Categorical | None
    generalized_blanket: Categorical
    leftovers: Mapping[Hashable, Categorical]


def blanket_of_randomizer(r: Randomizer) -> BlanketDecomposition:
    """Blanket decomposition of a randomizer's rows, keyed by input label."""
    labels, rows = r.output_labels, r.kernel
    inf_row = rows.min(axis=0)
    gamma = float(inf_row.sum())
    gen_labels = labels + (BOT,)

    if gamma == 0.0:
        generalized = Categorical(gen_labels, np.append(inf_row, 1.0))
        leftovers = {x: r.row_dist(x) for x in r.input_labels}
        return BlanketDecomposition(0.0, None, generalized, leftovers)

    if gamma >= 1.0 - 1e-12:
        blanket = Categorical(labels, inf_row)
        generalized = Categorical(gen_labels, np.append(blanket.probs, 0.0))
        return BlanketDecomposition(1.0, blanket, generalized, {})

    blanket = Categorical(labels, inf_row / gamma)
    generalized = Categorical(gen_labels, np.append(inf_row, 1.0 - gamma))
    leftovers = {}
    for x, row in zip(r.input_labels, rows):
        res = np.maximum(row - inf_row, 0.0)
        leftovers[x] = Categorical(labels, res / res.sum())
    return BlanketDecomposition(gamma, blanket, generalized, leftovers)

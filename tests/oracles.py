"""Independent brute-force oracles used by the test suite.

Everything here enumerates raw outcome spaces (messages times
permutations) directly, deliberately sharing no code path with the
library's histogram- or closed-form-based computations.
"""

import itertools
import math
from collections import defaultdict

import numpy as np

from shuffleleak import Categorical, Randomizer, blanket_of_randomizer, ldp_epsilon
from shuffleleak.mechanisms import BOT


def brute_position_posteriors(p, q, n):
    """Posterior over positions for every reachable output sequence.

    Joint enumeration over (target value, cover values, permutation);
    returns {z: posterior vector over 0-indexed positions}.
    """
    joint = defaultdict(lambda: np.zeros(n))
    perms = list(itertools.permutations(range(n)))
    p_items = [(lab, pr) for lab, pr in p.as_dict().items() if pr > 0]
    q_items = [(lab, pr) for lab, pr in q.as_dict().items() if pr > 0]
    for y1, p1 in p_items:
        for others in itertools.product(q_items, repeat=n - 1):
            py = p1 * math.prod(pr for _, pr in others)
            y = [y1] + [lab for lab, _ in others]
            for sigma in perms:
                z = tuple(y[sigma[i]] for i in range(n))
                k = sigma.index(0)
                joint[z][k] += py / math.factorial(n)
    return {z: vec / vec.sum() for z, vec in joint.items()}


def brute_message_mi(p, q, n):
    """Sequence-level message leakage by full enumeration (no histograms)."""
    joint = defaultdict(lambda: defaultdict(float))
    perms = list(itertools.permutations(range(n)))
    p_items = [(lab, pr) for lab, pr in p.as_dict().items() if pr > 0]
    q_items = [(lab, pr) for lab, pr in q.as_dict().items() if pr > 0]
    for y1, p1 in p_items:
        for others in itertools.product(q_items, repeat=n - 1):
            py = p1 * math.prod(pr for _, pr in others)
            y = [y1] + [lab for lab, _ in others]
            for sigma in perms:
                z = tuple(y[sigma[i]] for i in range(n))
                joint[z][y1] += py / math.factorial(n)
    total = 0.0
    for z, per_y in joint.items():
        pz = sum(per_y.values())
        for y1, pr in per_y.items():
            total += pr * math.log(pr / (pz * p.prob(y1)))
    return total


def law_by_position(r, x_inputs):
    """Joint law of the target's position and the released sequence with
    all inputs fixed, by enumerating (outputs, permutation).

    Returns {z: vector over 0-indexed positions k of P(K = k, Z = z)}.
    """
    n = len(x_inputs)
    rows = [r.row(x) for x in x_inputs]
    perms = list(itertools.permutations(range(n)))
    joint = defaultdict(lambda: np.zeros(n))
    for ys in itertools.product(range(len(r.output_labels)), repeat=n):
        py = math.prod(float(rows[i][ys[i]]) for i in range(n))
        if py == 0.0:
            continue
        msgs = [r.output_labels[j] for j in ys]
        for sigma in perms:
            z = tuple(msgs[sigma[i]] for i in range(n))
            k = sigma.index(0)
            joint[z][k] += py / math.factorial(n)
    return dict(joint)


def brute_position_mi_fixed_inputs(r, x_inputs):
    """Position leakage with fixed inputs from the enumerated joint law."""
    n = len(x_inputs)
    total = 0.0
    for vec in law_by_position(r, x_inputs).values():
        pz = vec.sum()
        for k in range(n):
            if vec[k] > 0:
                total += vec[k] * math.log(vec[k] * n / pz)
    return total


def brute_input_mi_sequence(r, prior, x_rest):
    """Sequence-level input leakage: enumerate outputs and permutations.

    Independent check that the released sequence carries no more about the
    target's input than its histogram does.
    """
    n = 1 + len(x_rest)
    perms = list(itertools.permutations(range(n)))
    joint = defaultdict(lambda: defaultdict(float))
    for x1 in prior.support():
        rows = [r.row(x1)] + [r.row(x) for x in x_rest]
        for ys in itertools.product(range(len(r.output_labels)), repeat=n):
            py = prior.prob(x1) * math.prod(float(rows[i][ys[i]]) for i in range(n))
            if py == 0.0:
                continue
            msgs = [r.output_labels[j] for j in ys]
            for sigma in perms:
                z = tuple(msgs[sigma[i]] for i in range(n))
                joint[z][x1] += py / math.factorial(n)
    total = 0.0
    for z, per_x in joint.items():
        pz = sum(per_x.values())
        for x1, pr in per_x.items():
            total += pr * math.log(pr / (pz * prior.prob(x1)))
    return total


def law_shuffle_dp(r, xs):
    """Exact law of the released sequence with all inputs fixed."""
    law = defaultdict(float)
    n = len(xs)
    rows = [r.row(x) for x in xs]
    perms = list(itertools.permutations(range(n)))
    for ys in itertools.product(range(len(r.output_labels)), repeat=n):
        py = math.prod(float(rows[i][ys[i]]) for i in range(n))
        if py == 0.0:
            continue
        msgs = [r.output_labels[j] for j in ys]
        for sigma in perms:
            z = tuple(msgs[sigma[i]] for i in range(n))
            law[z] += py / math.factorial(n)
    return law


def law_blanket_postprocessed(r, x1, x_rest):
    """Exact law of the post-processed blanket-reduced sequence.

    Enumerates the target's output, the covers' generalized-blanket draws,
    the permutation, and every branch of the placeholder replacement
    (uniform choice of an unused user, then a leftover draw).
    """
    dec = blanket_of_randomizer(r)
    qb = dec.generalized_blanket
    leftovers = [dec.leftovers[x] for x in x_rest]
    n = 1 + len(x_rest)
    law = defaultdict(float)

    def replace(z, unused, pos, pr):
        i = pos
        while i < len(z) and z[i] is not BOT:
            i += 1
        if i == len(z):
            law[tuple(z)] += pr
            return
        for t in range(len(unused)):
            j = unused[t]
            rest = unused[:t] + unused[t + 1:]
            lo = leftovers[j]
            for lab, lp in zip(lo.labels, lo.probs):
                if lp == 0.0:
                    continue
                z2 = list(z)
                z2[i] = lab
                replace(z2, rest, i + 1, pr * float(lp) / len(unused))

    perms = list(itertools.permutations(range(n)))
    for y1, p1 in zip(r.output_labels, r.row(x1)):
        if p1 == 0.0:
            continue
        for others in itertools.product(range(len(qb.labels)), repeat=n - 1):
            po = math.prod(float(qb.probs[i]) for i in others)
            if po == 0.0:
                continue
            msgs = [y1] + [qb.labels[i] for i in others]
            for sigma in perms:
                z = [msgs[sigma[i]] for i in range(n)]
                replace(z, list(range(n - 1)), 0, float(p1) * po / math.factorial(n))
    return law


def total_variation(law_a, law_b):
    keys = set(law_a) | set(law_b)
    return 0.5 * sum(abs(law_a.get(k, 0.0) - law_b.get(k, 0.0)) for k in keys)


def random_ldp_kernel(rng, strength, n_in, n_out):
    """Random finite-ratio kernel: perturb a random base by bounded factors.

    ``strength`` caps the log-factor spread; the realized LDP parameter is
    measured afterwards with ldp_epsilon and is what tests should bound
    against.
    """
    base = rng.random(n_out) + 0.2
    base = base / base.sum()
    factors = np.exp(rng.uniform(-strength / 2, strength / 2, size=(n_in, n_out)))
    kernel = base[None, :] * factors
    kernel = kernel / kernel.sum(axis=1, keepdims=True)
    return Randomizer(tuple(range(1, n_in + 1)), tuple(range(1, n_out + 1)), kernel)


def random_bounded_ratio_kernel(rng, lo=0.1, hi=2.0, n_in=3, n_out=3, max_tries=80):
    """Random kernel whose measured LDP parameter falls inside [lo, hi]."""
    for _ in range(max_tries):
        strength = rng.uniform(lo, hi)
        r = random_ldp_kernel(rng, strength, n_in, n_out)
        eps = ldp_epsilon(r)
        if lo <= eps <= hi:
            return r, eps
    raise RuntimeError("could not draw a kernel in the requested LDP range")


def random_categorical(rng, labels):
    w = rng.random(len(labels)) + 0.05
    return Categorical(labels, w / w.sum())

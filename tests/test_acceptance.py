"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Monte Carlo checks use a 3-sigma contract with a single retry under
a fresh seed (a 3-sigma check fails by chance roughly 0.3% of the time;
one retry keeps the suite stable without masking real bias).
"""

import math
import time

import numpy as np

import shuffleleak as sl
from shuffleleak.runner import preset_configs, run_configs, to_csv

from oracles import (
    brute_position_posteriors,
    law_blanket_postprocessed,
    law_shuffle_dp,
    random_bounded_ratio_kernel,
    random_categorical,
    total_variation,
)


def criterion(num, description, ok):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {description}"
    print(line)
    assert ok, line


def retry_once(run, check):
    first = run(314159)
    if check(first):
        return first
    second = run(271828)
    assert check(second), (first, second)
    return second


def test_criterion_01_posterior_matches_bayes_enumeration():
    """Position posterior equals brute-force Bayes on alphabets <= 3, n <= 4."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    pairs = []
    for mp in (1, 2, 3):
        for mq in (2, 3):
            labels = tuple(range(1, max(mp, mq) + 1))
            pairs.append((random_categorical(rng, labels[:mp]),
                          random_categorical(rng, labels[:mq])))
    # edge cases: matched, hidden symbols, deterministic target
    pairs += [
        (sl.make_uniform(3), sl.make_uniform(3)),
        (sl.Categorical((1, 2, 3), (0.5, 0.3, 0.2)), sl.Categorical((1, 2, 3), (0.6, 0.4, 0.0))),
        (sl.Categorical((1, 2), (1.0, 0.0)), sl.Categorical((1, 2), (0.5, 0.5))),
    ]
    worst = 0.0
    for p, q in pairs:
        for n in (1, 2, 3, 4):
            expected = brute_position_posteriors(p, q, n)
            for z, post in expected.items():
                got = sl.position_posterior(z, p, q)
                worst = max(worst, float(np.max(np.abs(got - post))))
    elapsed = time.monotonic() - start
    criterion(1, f"posterior vs enumeration, worst entry gap {worst:.2e} <= 1e-12 "
                 f"({elapsed:.1f}s < 10s)", worst <= 1e-12 and elapsed < 10)


def test_criterion_02_closed_form_equals_enumeration():
    """Matched-channel closed form equals histogram enumeration, m<=4, n<=10."""
    start = time.monotonic()
    worst = 0.0
    for m in (2, 3, 4):
        for d in (sl.make_uniform(m), sl.make_zipf(m, 0.7)):
            for n in range(1, 11):
                gap = abs(sl.matched_message_mi(d, n) - sl.message_mi_exact(d, d, n))
                worst = max(worst, gap)
    anchor = abs(sl.matched_message_mi(sl.make_uniform(2), 2) - math.log(2) / 2)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and anchor <= 1e-10 and elapsed < 30
    criterion(2, f"closed form vs enumeration, worst gap {worst:.2e} <= 1e-10; "
                 f"(log 2)/2 anchor gap {anchor:.2e} ({elapsed:.1f}s < 30s)", ok)


def test_criterion_03_matched_rate_and_remainder_trend():
    """2n*I -> m-1 decreasingly; remainder times n^1.5 shows no growth."""
    u4 = sl.make_uniform(4)
    grid = [32, 64, 128, 256, 512, 1024, 2048, 4096]
    scaled_gap = []
    remainder = []
    for n in grid:
        v = sl.matched_message_mi(u4, n)
        scaled_gap.append(abs(2 * n * v - 3))
        remainder.append(abs(v - 3 / (2 * n)) * n**1.5)
    decreasing = all(a > b for a, b in zip(scaled_gap, scaled_gap[1:]))
    final_ok = scaled_gap[-1] <= 0.05
    # growth detector: the grid maximum must stay within twice the median
    # of the smallest-n neighborhood (first three grid points)
    med = float(np.median(remainder[:3]))
    no_growth = max(remainder) <= 2 * med
    ok = decreasing and final_ok and no_growth
    criterion(3, f"|2n*I-3| decreasing ({decreasing}), {scaled_gap[-1]:.4f} <= 0.05 "
                 f"at n=4096; max remainder*n^1.5 {max(remainder):.3f} <= {2*med:.3f}",
              ok)


def test_criterion_04_visible_channel_estimates_match_expansions():
    """Monte Carlo at n=1000 lands on the KL - chi2/(2n) and sum/(2n) laws."""
    start = time.monotonic()
    p, q = sl.make_zipf(4, 0.7), sl.make_uniform(4)
    n = 1000
    kl = sl.kl_divergence(p, q)
    chi = sl.chi2_divergence(p, q)
    target_pos = kl - chi / (2 * n)
    target_msg = sum((pi - pi * pi) / qi for pi, qi in zip(p.probs, q.probs)) / (2 * n)

    pos = retry_once(
        lambda s: sl.estimate_position_mi(p, q, n, samples=100_000, seed=s),
        lambda r: abs(r.estimate - target_pos) <= 3 * r.stderr + 0.002,
    )
    msg = retry_once(
        lambda s: sl.estimate_message_mi(p, q, n, samples=100_000, seed=s),
        lambda r: abs(r.estimate - target_msg) <= 3 * r.stderr + 0.002,
    )
    elapsed = time.monotonic() - start
    criterion(4, f"position {pos.estimate:.6f} vs {target_pos:.6f}, "
                 f"message {msg.estimate:.6f} vs {target_msg:.6f}, "
                 f"both within 3*stderr + 0.002 ({elapsed:.1f}s < 120s)",
              elapsed < 120)


def test_criterion_05_optimal_cover():
    """Optimal-cover constant is 2.81 +- 0.01 and is a strict minimum."""
    p = sl.make_zipf(4, 0.7)
    q = sl.optimal_cover(p)
    best = 2 * sl.message_mi_expansion(p, q).inv_n_coefficient
    value_ok = abs(best - 2.81) <= 0.01
    rng = np.random.default_rng(55)
    trials = 0
    strict = True
    while trials < 100:
        d = rng.normal(size=4)
        d -= d.mean()
        v = np.asarray(q.probs) + 1e-3 * d / np.linalg.norm(d)
        if np.any(v <= 0):
            continue
        trials += 1
        perturbed = sl.Categorical(q.labels, v / v.sum())
        if 2 * sl.message_mi_expansion(p, perturbed).inv_n_coefficient <= best:
            strict = False
    criterion(5, f"leading constant {best:.4f} = 2.81 +- 0.01 and 100 random "
                 "perturbations all strictly worse", value_ok and strict)


def test_criterion_06_partially_hidden_channel():
    """Hidden-symbol channel: position MI converges to its split form and the
    message MI matches the n-free terms at the largest enumerable n."""
    p = sl.Categorical((1, 2, 3), (0.5, 0.3, 0.2))
    q = sl.Categorical((1, 2, 3), (0.6, 0.4, 0.0))
    beta, restricted = sl.split_support(p, q)
    limit = (1 - beta) * sl.kl_divergence(restricted, q)
    gap4 = abs(sl.position_mi_exact(p, q, 4) - beta * math.log(4) - limit)
    gap10 = abs(sl.position_mi_exact(p, q, 10) - beta * math.log(10) - limit)
    position_ok = gap10 < gap4

    n_big = 60
    term = sl.message_mi_expansion(p, q)
    msg_gap = abs(sl.message_mi_exact(p, q, n_big) - term.evaluate(n_big))
    message_ok = msg_gap <= 0.01
    criterion(6, f"position gap shrinks ({gap4:.5f} -> {gap10:.5f}); message vs "
                 f"n-free terms at n={n_big}: {msg_gap:.2e} <= 0.01",
              position_ok and message_ok)


def test_criterion_07_blanket_postprocessing_exact_distribution():
    """Post-processed blanket reduction reproduces the true channel law."""
    r = sl.make_krr(2, math.log(3))
    worst = 0.0
    for x1 in (1, 2):
        reduced = law_blanket_postprocessed(r, x1, (1, 2))
        direct = law_shuffle_dp(r, (x1, 1, 2))
        worst = max(worst, total_variation(reduced, direct))
    criterion(7, f"total variation {worst:.2e} <= 1e-10", worst <= 1e-10)


def test_criterion_08_position_leakage_bounds():
    """Position leakage <= 2*eps for random finite-ratio kernels and for
    heterogeneous unrandomized families with bounded ratios."""
    rng = np.random.default_rng(88)
    ok = True
    worst_margin = -math.inf
    for trial in range(50):
        r, eps = random_bounded_ratio_kernel(rng, n_in=3, n_out=3)
        n = int(rng.integers(2, 6))
        xs = tuple(int(rng.integers(1, 4)) for _ in range(n))
        v = sl.position_mi_fixed_inputs(r, xs)
        worst_margin = max(worst_margin, v - 2 * eps)
        ok = ok and v <= 2 * eps + 1e-9
    # heterogeneous family = one user per row of a bounded-ratio kernel
    for trial in range(50):
        n = int(rng.integers(2, 6))
        fam, eps = random_bounded_ratio_kernel(rng, n_in=n, n_out=3)
        v = sl.position_mi_fixed_inputs(fam, tuple(range(1, n + 1)))
        worst_margin = max(worst_margin, v - 2 * eps)
        ok = ok and v <= 2 * eps + 1e-9
    criterion(8, f"100 random instances, max(value - 2*eps) = {worst_margin:.3e} <= 1e-9",
              ok)


def test_criterion_09_randomized_response_input_leakage():
    """4-ary randomized response at eps0=1: estimate matches the closed-form
    rate, obeys both bounds; exact leakage decays with the scaled value
    capped at the largest enumerable n."""
    start = time.monotonic()
    e = math.e
    r = sl.make_krr(4, 1.0)
    prior = sl.make_uniform(4)
    n = 64
    rate = 3 * (e - 1) ** 2 / (2 * (e + 3) ** 2 * n)

    est = retry_once(
        lambda s: sl.estimate_input_mi(r, prior, n, samples=100_000, seed=s),
        lambda res: abs(res.estimate - rate) <= 3 * res.stderr + 0.10 * rate,
    )
    unified = sl.input_mi_dp_bound(1.0, n)
    blanket = sl.mean_chi2(prior, r, sl.blanket_of_randomizer(r).generalized_blanket) / (2 * n)
    bounds_ok = est.estimate <= unified and est.estimate <= blanket

    grid = [4, 8, 16, 32]
    exact_vals = []
    for m in grid:
        x_rest = tuple((i % 4) + 1 for i in range(m - 1))
        exact_vals.append(sl.input_mi_fixed_others(r, prior, x_rest))
    decaying = all(a > b for a, b in zip(exact_vals, exact_vals[1:]))
    scaled = [m * v for m, v in zip(grid, exact_vals)]
    cap = 1.1 * (e - 1) / 2
    capped = scaled[-1] <= cap
    print(f"    scaled exact leakage n*I over grid {grid}: "
          + ", ".join(f"{s:.4f}" for s in scaled) + f" (cap {cap:.4f})")
    elapsed = time.monotonic() - start
    criterion(9, f"mc {est.estimate:.6f} vs rate {rate:.6f} (3*stderr+10%); "
                 f"<= unified {unified:.5f} and blanket {blanket:.5f} ({bounds_ok}); "
                 f"exact decays ({decaying}) and n*I = {scaled[-1]:.4f} <= {cap:.4f} "
                 f"({elapsed:.1f}s < 180s)",
              bounds_ok and decaying and capped and elapsed < 180)


def test_criterion_10_preset_determinism():
    """Preset CSVs are byte-identical across reruns and worker counts."""
    ok = True
    for name in ("fig1", "fig2", "fig3"):
        first = to_csv(run_configs(preset_configs(name, samples=10_000), workers=1))
        second = to_csv(run_configs(preset_configs(name, samples=10_000), workers=3))
        ok = ok and first == second
    criterion(10, "fig1/fig2/fig3 byte-identical across runs and worker counts", ok)

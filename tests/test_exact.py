import itertools
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import binom

from shuffleleak import (
    AbsoluteContinuityError,
    Categorical,
    Randomizer,
    ResourceLimitError,
    blanket_of_randomizer,
    entropy,
    estimate_position_mi,
    input_mi_fixed_others,
    input_mi_iid_others,
    input_mi_shuffle_only,
    kl_divergence,
    make_krr,
    make_uniform,
    make_zipf,
    matched_message_mi,
    message_mi_exact,
    message_mi_expansion,
    message_minus_position_mi,
    position_mi_exact,
    position_mi_fixed_inputs,
    signal_rate,
)
from shuffleleak import exact
from shuffleleak.exact import states_shuffle_only

from oracles import (
    brute_message_mi,
    brute_position_mi_fixed_inputs,
    law_by_position,
    random_categorical,
)

ZIPF = make_zipf(4, 0.7)
U4 = make_uniform(4)


def dist(*probs, labels=None):
    labels = labels or tuple(range(1, len(probs) + 1))
    return Categorical(labels, probs)


class TestPositionExact:
    def test_matched_is_zero(self):
        assert position_mi_exact(U4, U4, 6) == 0.0

    @pytest.mark.parametrize("p", [ZIPF, make_zipf(4, 1.0)])
    def test_matched_non_uniform_is_exactly_zero(self, p):
        # w = p / q must be exactly 1; q renormalized leaves it 1 +- 1 ulp
        # where the probabilities do not sum to exactly 1, as for Zipf(4, 1)
        for n in (2, 3, 8):
            assert position_mi_exact(p, p, n) == 0.0
            assert estimate_position_mi(p, p, n, samples=2000, seed=1).estimate == 0.0

    def test_disjoint_supports_log_n(self):
        p = dist(1.0, 0.0)
        q = dist(0.0, 1.0)
        for n in (2, 4, 7):
            assert position_mi_exact(p, q, n) == pytest.approx(math.log(n), abs=1e-12)

    def test_ceiling_enforced(self, monkeypatch):
        monkeypatch.setattr(exact, "MAX_STATES", 1000)
        with pytest.raises(ResourceLimitError):
            position_mi_exact(ZIPF, U4, 500)

    def test_split_gap_shrinks(self):
        p = dist(0.5, 0.3, 0.2)
        q = dist(0.6, 0.4, 0.0)
        beta = 0.2
        target = (1 - beta) * kl_divergence(dist(0.625, 0.375, labels=(1, 2)), q)
        gaps = [
            abs(position_mi_exact(p, q, n) - beta * math.log(n) - target)
            for n in (4, 10, 25)
        ]
        assert gaps[0] > gaps[1] > gaps[2]


class TestMessageExact:
    def test_matched_uniform2_n2(self):
        assert message_mi_exact(U4, U4, 1) == pytest.approx(entropy(U4), abs=1e-12)
        u2 = make_uniform(2)
        assert message_mi_exact(u2, u2, 2) == pytest.approx(math.log(2) / 2, abs=1e-12)

    def test_point_mass_target(self):
        p = dist(1.0, 0.0)
        assert message_mi_exact(p, make_uniform(2), 4) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_reveals_entropy(self):
        p = dist(0.6, 0.4, 0.0, 0.0)
        q = dist(0.0, 0.0, 0.5, 0.5)
        for n in (2, 5):
            assert message_mi_exact(p, q, n) == pytest.approx(entropy(p), abs=1e-12)

    def test_matches_sequence_level_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            p = random_categorical(rng, (1, 2, 3))
            q = random_categorical(rng, (1, 2, 3))
            for n in (2, 3):
                assert message_mi_exact(p, q, n) == pytest.approx(
                    brute_message_mi(p, q, n), abs=1e-12
                )

    def test_sequence_level_with_hidden_symbols(self):
        p = dist(0.5, 0.3, 0.2)
        q = dist(0.6, 0.4, 0.0)
        for n in (2, 3, 4):
            assert message_mi_exact(p, q, n) == pytest.approx(
                brute_message_mi(p, q, n), abs=1e-12
            )


class TestClosedForms:
    def test_matched_closed_form_equals_enumeration(self):
        for m in (2, 3, 4):
            for d in (make_uniform(m), make_zipf(m, 0.9)):
                for n in range(1, 8):
                    assert matched_message_mi(d, n) == pytest.approx(
                        message_mi_exact(d, d, n), abs=1e-10
                    )

    def test_n1_gives_entropy(self):
        assert matched_message_mi(ZIPF, 1) == pytest.approx(entropy(ZIPF), abs=1e-12)

    def test_uniform4_n100_near_rate(self):
        v = matched_message_mi(U4, 100)
        assert abs(v - 3 / 200) / (3 / 200) < 0.10

    def test_decomposition_identity(self):
        for n in (2, 5, 8, 10):
            total = message_minus_position_mi(ZIPF, U4, n) + position_mi_exact(
                ZIPF, U4, n
            )
            assert message_mi_exact(ZIPF, U4, n) == pytest.approx(total, abs=1e-10)

    def test_decomposition_matched_collapse(self):
        # matched channel: position term is zero, so the gap is the whole value
        for n in (2, 6):
            assert message_minus_position_mi(U4, U4, n) == pytest.approx(
                matched_message_mi(U4, n), abs=1e-12
            )

    def test_gap_requires_absolute_continuity(self):
        with pytest.raises(AbsoluteContinuityError):
            message_minus_position_mi(dist(0.5, 0.5), dist(1.0, 0.0), 4)


class TestBinomialClosedForms:
    """The closed forms against a scipy.stats.binom reference."""

    @staticmethod
    def xlogx(n, prob):
        x = np.arange(1, n + 1)
        return float(np.dot(binom.pmf(x, n, prob), (x / n) * np.log(x / n)))

    def reference_matched(self, p, n):
        return math.fsum(self.xlogx(n, pi) - pi * math.log(pi) for pi in p.probs if pi > 0)

    def reference_gap(self, p, q, n):
        return math.fsum(
            (pi / qi) * self.xlogx(n, qi) - pi * math.log(pi)
            for pi, qi in zip(p.probs, q.probs)
            if pi > 0
        )

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 4096, 16384])
    def test_against_scipy_binomial(self, m, n):
        # Zipf(m, 3) puts 0.89 (m = 2) to 0.83 (m = 5) on its first symbol
        dists = (make_uniform(m), make_zipf(m, 0.7), make_zipf(m, 3.0))
        for p in dists:
            assert matched_message_mi(p, n) == pytest.approx(
                self.reference_matched(p, n), rel=1e-10, abs=0
            )
            for q in dists:
                assert message_minus_position_mi(p, q, n) == pytest.approx(
                    self.reference_gap(p, q, n), rel=1e-10, abs=0
                )

    def test_matches_exact_rational_pmf(self):
        # p = (9/10, 1/10): each pmf value of Bin(n, a/10) is the integer
        # C(n, x) a^x (10 - a)^(n - x) over 10^n, rounded once by Python's
        # big-integer true division. A pmf from lgamma differences is off
        # by 3e-12 here.
        n = 1024

        def xlogx(a):
            return math.fsum(
                math.comb(n, x) * a**x * (10 - a) ** (n - x) / 10**n * (x / n) * math.log(x / n)
                for x in range(1, n + 1)
            )

        reference = math.fsum(xlogx(a) - a / 10 * math.log(a / 10) for a in (9, 1))
        assert matched_message_mi(dist(0.9, 0.1), n) == pytest.approx(reference, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [1, 2, 7, 16384])
    def test_point_mass_is_exactly_zero(self, n):
        point = dist(0.0, 1.0, 0.0)
        assert matched_message_mi(point, n) == 0.0
        assert message_minus_position_mi(point, point, n) == 0.0


class TestInputOracles:
    def test_constant_rows_leak_nothing(self):
        r = Randomizer((1, 2), ("a", "b"), [[0.4, 0.6], [0.4, 0.6]])
        assert input_mi_fixed_others(r, make_uniform(2), (1, 2)) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_single_user_channel(self):
        r = make_krr(2, math.log(3))
        expect = math.log(2) - (-0.75 * math.log(0.75) - 0.25 * math.log(0.25))
        assert input_mi_iid_others(r, make_uniform(2), 1) == pytest.approx(
            expect, abs=1e-12
        )

    def test_fixed_others_matches_direct_enumeration(self):
        # independent check built from raw (x1, outputs) enumeration
        r = make_krr(4, 1.0)
        k = r.kernel
        joint = {}
        import itertools

        for x1 in range(4):
            for ys in itertools.product(range(4), repeat=3):
                pr = 0.25 * k[x1, ys[0]] * k[0, ys[1]] * k[1, ys[2]]
                c = [0, 0, 0, 0]
                for y in ys:
                    c[y] += 1
                joint.setdefault(tuple(c), np.zeros(4))[x1] += pr
        expect = 0.0
        for vec in joint.values():
            pc = vec.sum()
            for x in range(4):
                if vec[x] > 0:
                    expect += vec[x] * math.log(vec[x] / (pc * 0.25))
        got = input_mi_fixed_others(r, make_uniform(4), (1, 2))
        assert got == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("n", [1024, 2048])
    def test_fixed_others_finite_at_large_n(self, n):
        # others whose row is the output marginal are i.i.d. others; at
        # n = 2048 the law's tail is subnormal, and its mixture with the
        # prior must not underflow to 0 where a likelihood is positive
        r = make_krr(2, 0.5)
        prior = make_uniform(2)
        marginal = np.array([prior.prob(x) for x in r.input_labels]) @ r.kernel
        ext = Randomizer(r.input_labels + ("m",), r.output_labels, np.vstack([r.kernel, marginal]))
        got = input_mi_fixed_others(ext, prior, ("m",) * (n - 1))
        assert got == pytest.approx(input_mi_iid_others(r, prior, n), rel=1e-9)

    def test_iid_ceiling(self, monkeypatch):
        monkeypatch.setattr(exact, "MAX_STATES", 10_000)
        with pytest.raises(ResourceLimitError):
            input_mi_iid_others(make_krr(4, 1.0), make_uniform(4), 10_000)

    def test_histogram_is_sufficient_for_input(self):
        # ordering carries nothing once the counts are known
        from oracles import brute_input_mi_sequence

        r = make_krr(3, 0.9)
        prior = make_uniform(3)
        for x_rest in ((1,), (1, 2), (2, 3)):
            assert input_mi_fixed_others(r, prior, x_rest) == pytest.approx(
                brute_input_mi_sequence(r, prior, x_rest), abs=1e-12
            )

    def test_fixed_others_matches_brute_force_at_five_outputs(self):
        from oracles import brute_input_mi_sequence

        r = make_krr(5, 0.7)
        prior = Categorical(r.input_labels, (0.1, 0.3, 0.2, 0.25, 0.15))
        for x_rest in ((), (4,), (1, 5), (2, 2, 3)):
            assert input_mi_fixed_others(r, prior, x_rest) == pytest.approx(
                brute_input_mi_sequence(r, prior, x_rest), abs=1e-12
            )

    def test_data_processing_blanket_reduction(self):
        # leakage through the true channel never exceeds the reduced channel
        rng = np.random.default_rng(9)
        for n in (3, 4, 6):
            p1 = random_categorical(rng, (1, 2, 3))
            others = [random_categorical(rng, (1, 2, 3)) for _ in range(n - 1)]
            direct = input_mi_shuffle_only(p1, others)
            rows = Randomizer(range(n - 1), (1, 2, 3), [o.probs for o in others])
            dec = blanket_of_randomizer(rows)
            reduced = input_mi_shuffle_only(p1, [dec.generalized_blanket] * (n - 1))
            assert direct <= reduced + 1e-12


class TestPositionFixedInputs:
    def test_all_equal_inputs(self):
        assert position_mi_fixed_inputs(make_krr(3, 1.0), (2, 2, 2, 2)) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_deterministic_distinct_outputs(self):
        ident = Randomizer((1, 2, 3), (1, 2, 3), np.eye(3))
        assert position_mi_fixed_inputs(ident, (1, 2, 3)) == pytest.approx(
            math.log(3), abs=1e-12
        )

    def test_matches_brute_force(self):
        cases = (
            (make_krr(2, math.log(3)), ((1, 2, 2), (1, 1, 2), (2, 1, 2, 1))),
            (make_krr(3, 0.9), ((1, 2), (2, 2, 3), (3, 1, 2, 1), (1, 2, 3, 3, 2))),
            (make_krr(4, 1.2), ((4, 1), (1, 2, 3), (2, 4, 4, 1), (1, 2, 3, 4, 1))),
            (Randomizer((1, 2), ("a", "b", "c"), [[0.7, 0.3, 0.0], [0.1, 0.2, 0.7]]),
             ((1, 2, 2), (2, 1, 1, 2))),
            (make_krr(5, 0.8), ((5, 1), (2, 4, 4), (1, 3, 5, 2))),
            (Randomizer((1, 2, 3), tuple("abcdef"),
                        [[0.3, 0.0, 0.2, 0.1, 0.4, 0.0],
                         [0.05, 0.25, 0.0, 0.3, 0.15, 0.25],
                         [0.0, 0.1, 0.5, 0.0, 0.1, 0.3]]),
             ((1, 2), (3, 1, 2), (2, 3, 3, 1))),
        )
        for r, inputs in cases:
            for xs in inputs:
                assert position_mi_fixed_inputs(r, xs) == pytest.approx(
                    brute_position_mi_fixed_inputs(r, xs), abs=1e-12
                )

    @pytest.mark.parametrize("n", [2, 5, 40, 150])
    def test_matches_two_distribution_channel(self, n):
        # a target sending from p among covers sending from q is the
        # two-distribution channel; the second pair's cover hides a symbol
        for p, q in ((dist(0.5, 0.3, 0.2), dist(0.2, 0.3, 0.5)),
                     (dist(0.6, 0.1, 0.3), dist(0.5, 0.5, 0.0))):
            r = Randomizer(("p", "q"), p.labels, [p.probs, q.probs])
            assert position_mi_fixed_inputs(r, ("p",) + ("q",) * (n - 1)) == pytest.approx(
                position_mi_exact(p, q, n), rel=1e-12, abs=1e-15
            )

    def test_bounded_by_twice_eps(self):
        r = make_krr(2, math.log(3))
        v = position_mi_fixed_inputs(r, (1, 2, 2))
        assert v <= 2 * math.log(3) + 1e-9

    def test_position_law_is_2eps_private(self):
        # max log-ratio of the conditional laws across positions stays
        # within twice the mechanism's LDP parameter
        from shuffleleak import ldp_epsilon
        from oracles import random_ldp_kernel

        rng = np.random.default_rng(31)
        for _ in range(15):
            r = random_ldp_kernel(rng, rng.uniform(0.2, 1.2), 3, 3)
            eps = ldp_epsilon(r)
            n = int(rng.integers(2, 6))
            xs = tuple(int(rng.integers(1, 4)) for _ in range(n))
            law = law_by_position(r, xs)
            cond = n * np.array(list(law.values()))  # P(z | K = k), one row per z
            # each position's law is a distribution whose slot k holds the target's row
            assert np.allclose(cond.sum(axis=0), 1.0)
            for k in range(n):
                slot = [cond[[z[k] == a for z in law], k].sum() for a in r.output_labels]
                assert np.allclose(slot, r.row(xs[0]))
            for row in cond:  # the kernel is positive, so every position is possible
                assert (row > 0).all()
                assert math.log(row.max() / row.min()) <= 2 * eps + 1e-9

    def test_bounded_by_twice_eps_at_larger_n(self):
        # the paper's I(K; Z) <= 2 eps0, beyond the sizes enumeration reaches
        from shuffleleak import ldp_epsilon
        from oracles import random_bounded_ratio_kernel

        rng = np.random.default_rng(47)
        for n in (6, 12, 25, 50):
            for _ in range(4):
                r, eps = random_bounded_ratio_kernel(rng, n_in=4, n_out=3)
                xs = tuple(int(x) for x in rng.integers(1, 5, size=n))
                assert position_mi_fixed_inputs(r, xs) <= 2 * ldp_epsilon(r) + 1e-9

    def test_dense_ceiling(self):
        # n (n + 1)^3 work at k = 4: 9.66e6 at n = 55, 1.04e7 at n = 56
        r = make_krr(4, 1.0)
        for n, ok in ((55, True), (56, False)):
            xs = tuple(1 + i % 4 for i in range(n))
            calls = (lambda: position_mi_fixed_inputs(r, xs),
                     lambda: input_mi_fixed_others(r, U4, xs[1:]))
            for call in calls:
                if ok:
                    assert 0.0 < call() < math.log(n)
                else:
                    with pytest.raises(ResourceLimitError):
                        call()

    def test_dense_memory_is_on_the_histograms(self):
        # kRR10 at n = 4: the law lives on the 715 histograms; one float64
        # array over the 5^9 cells of the grid of counts would take 15 MiB
        r = make_krr(10, 1.0)
        calls = (lambda: position_mi_fixed_inputs(r, (1, 2, 3, 4)),
                 lambda: input_mi_fixed_others(r, make_uniform(10), (2, 3, 4)))
        for call in calls:
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20


class TestHistogramEngine:
    """The enumerate-and-weight engine behind the multinomial oracles."""

    def test_iid_input_finite_at_large_n(self):
        # kRR2 at eps0 = 0.5 with a uniform prior: the tail of the histogram
        # law is subnormal here, so no tail probability may reach a logarithm
        r = make_krr(2, 0.5)
        prior = make_uniform(2)
        n = 16384
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = input_mi_iid_others(r, prior, n)
        px = np.asarray(prior.probs)
        rate = signal_rate(px, r.kernel, [px @ r.kernel], [n - 1])
        assert math.isfinite(v)
        assert v == pytest.approx(rate, rel=1e-4)

    def test_hidden_cover_message_finite_at_large_n(self):
        # Zipf(3) against a cover that misses the third symbol
        p = make_zipf(3, 0.7)
        q = dist(0.4271221890546695, 0.5728778109453305)
        n = 16384
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = message_mi_exact(p, q, n)
        assert math.isfinite(v)
        assert v == pytest.approx(message_mi_expansion(p, q).evaluate(n), rel=1e-4)

    def test_message_equals_input_of_unrandomized_channel(self):
        # message leakage is input leakage when the covers are i.i.d. from q
        cases = [
            (ZIPF, U4),
            (make_zipf(3, 0.7), dist(0.4271221890546695, 0.5728778109453305)),
            (dist(0.5, 0.3, 0.2), dist(0.2, 0.0, 0.8)),
        ]
        for p, q in cases:
            for n in (1, 2, 3, 5, 8, 13, 21, 30):
                assert message_mi_exact(p, q, n) == pytest.approx(
                    input_mi_shuffle_only(p, [q] * (n - 1)), abs=1e-12
                )

    def test_gap_identity_at_large_n(self, monkeypatch):
        monkeypatch.setattr(exact, "MAX_STATES", 10**8)
        for p, q in ((dist(0.7, 0.3), dist(0.4, 0.6)), (make_zipf(3, 0.7), make_uniform(3))):
            for n in (2, 64, 512, 4096):
                gap = message_mi_exact(p, q, n) - position_mi_exact(p, q, n)
                assert gap == pytest.approx(
                    message_minus_position_mi(p, q, n), rel=1e-10, abs=1e-13
                )

    def test_iid_input_matches_sequence_brute_force(self):
        from oracles import brute_input_mi_sequence

        mechanisms = (
            make_krr(3, 0.9),
            Randomizer((1, 2), ("a", "b", "c"), [[0.7, 0.2, 0.1], [0.0, 0.3, 0.7]]),
        )
        for r in mechanisms:
            weights = np.linspace(1.0, 2.0, len(r.input_labels))
            prior = Categorical(r.input_labels, weights / weights.sum())
            marginal = np.array([prior.prob(x) for x in r.input_labels]) @ r.kernel
            # an extra input whose row is the output marginal plays an i.i.d. other user
            ext = Randomizer(
                r.input_labels + ("other",), r.output_labels, np.vstack([r.kernel, marginal])
            )
            for n in (1, 2, 3, 4):
                assert input_mi_iid_others(r, prior, n) == pytest.approx(
                    brute_input_mi_sequence(ext, prior, ("other",) * (n - 1)), abs=1e-12
                )

    def test_single_visible_symbol_needs_no_tables(self):
        # one cover symbol: the histogram is certain whatever n is
        p = dist(0.6, 0.4)
        q = dist(1.0, 0.0)
        n = 10**9
        assert position_mi_exact(p, q, n) == pytest.approx(0.4 * math.log(n), rel=1e-12)
        assert message_mi_exact(p, q, n) == pytest.approx(entropy(p), rel=1e-12)

    def test_memory_is_bounded_by_chunks(self):
        # about 10^6 states each, in two shapes: many symbols at small n, and
        # two symbols at large n (where the n + 1 entry lgamma table is 4 MB)
        cases = (
            (position_mi_exact, ZIPF, U4, 113),
            (message_mi_exact, dist(0.7, 0.3), dist(0.4, 0.6), 500_000),
        )
        for oracle, p, q, n in cases:
            assert 5 * 10**5 < states_shuffle_only(p, q, n) <= 10**6
            tracemalloc.start()
            try:
                oracle(p, q, n)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20

    def test_ceiling_raises_before_allocating(self, monkeypatch):
        monkeypatch.setattr(exact, "MAX_STATES", 10)
        many = (1,) * 50_000  # the fixed-input oracles read no row of these
        covers = [U4] * 50_000
        calls = (
            lambda: position_mi_exact(ZIPF, U4, 10**9),
            lambda: message_mi_exact(ZIPF, U4, 10**9),
            lambda: input_mi_iid_others(make_krr(4, 1.0), U4, 10**9),
            lambda: position_mi_fixed_inputs(make_krr(4, 1.0), (1,) * 5),
            lambda: position_mi_fixed_inputs(make_krr(4, 1.0), many),
            lambda: input_mi_fixed_others(make_krr(4, 1.0), U4, many),
            lambda: input_mi_shuffle_only(U4, covers),
            # the closed forms build n + 1 pmf terms per symbol, tens of MiB here
            lambda: matched_message_mi(ZIPF, 10**6),
            lambda: message_minus_position_mi(ZIPF, U4, 10**6),
        )
        for call in calls:
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError):
                    call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    def test_huge_state_count_message(self, monkeypatch):
        # state counts of 10^15 and more are reported as a power of ten
        # instead of being formatted
        with pytest.raises(ResourceLimitError, match=r"~10\^\d+ states"):
            position_mi_fixed_inputs(make_krr(5, 1.0), (1,) * 16384)
        monkeypatch.setattr(exact, "MAX_STATES", 4096)
        with pytest.raises(ResourceLimitError, match=r"needs 4097 states"):
            input_mi_iid_others(make_krr(2, 0.5), make_uniform(2), 4096)


class TestHistogramChunks:
    """The enumerator behind every exact value and Monte Carlo table."""

    # chunk widths at CHUNK_ROWS 3 and 5, one digit per chunk, keyed by
    # (symbols, n): the engine sums chunk partials with fsum, so its floats
    # depend on where the chunks break
    WIDTHS = {
        3: {(2, 8): "333", (3, 6): "3333333331", (4, 4): "3333331333331",
            (4, 6): "333333333333333333313333333311", (5, 3): "333333133313111",
            (5, 5): "333333333333313333313333331333331333133313331311"},
        5: {(2, 8): "54", (3, 6): "555553", (4, 4): "55555352",
            (4, 6): "555555553555553544", (5, 3): "5535251522",
            (5, 5): "555555555154555551545515415451"},
    }

    @pytest.mark.parametrize("rows", [3, 5, exact.CHUNK_ROWS])
    def test_every_histogram_once_in_order(self, rows, monkeypatch):
        monkeypatch.setattr(exact, "CHUNK_ROWS", rows)
        for symbols in range(1, 6):
            for n in range(9):
                chunks = list(exact._histogram_chunks(n, symbols))
                for h in chunks:
                    assert h.dtype == np.int64 and h.flags.c_contiguous
                    assert h.shape[0] == symbols and 1 <= h.shape[1] <= rows
                got = [tuple(int(c) for c in col) for h in chunks for col in h.T]
                want = [
                    (n - sum(tail),) + tail
                    for tail in itertools.product(range(n + 1), repeat=symbols - 1)
                    if sum(tail) <= n
                ]
                assert got == want, (symbols, n)

    @pytest.mark.parametrize("rows", sorted(WIDTHS))
    def test_chunk_widths(self, rows, monkeypatch):
        monkeypatch.setattr(exact, "CHUNK_ROWS", rows)
        for (symbols, n), widths in self.WIDTHS[rows].items():
            got = "".join(str(h.shape[1]) for h in exact._histogram_chunks(n, symbols))
            assert got == widths, (symbols, n)


class TestSimplexCache:
    """The process-wide cache of small histogram simplices: its readers get
    the floats an enumeration gives, it stores only what it admits, and it
    hands out read-only entries, one stored per simplex."""

    GRID = [(n, m) for m in range(1, 7) for n in (1, 2, 3, 5, 8, 13)] + [
        (4095, 2), (4096, 2), (2, 9), (15, 5), (16, 5), (7, 8),
    ]

    @pytest.fixture
    def info(self):
        """An empty cache for the test; returns its ``cache_info``."""
        exact._small_simplex.cache_clear()
        yield exact._small_simplex.cache_info
        exact._small_simplex.cache_clear()

    @staticmethod
    def readers(n, m):
        """The raw bytes of what each cache reader returns at (n, m)."""
        rng = np.random.default_rng(1000 * n + m)
        q = rng.dirichlet(np.ones(m))
        chunks = list(exact.weighted_histograms(n, q))
        out = [a.tobytes() for chunk in chunks for a in chunk]
        rows = rng.dirichlet(np.ones(m), size=n - 1)
        if exact.states_position_dp(n, m) <= exact.MAX_STATES:
            out += [a.tobytes() for a in exact._shifted_laws(n, m, rows)]
        return out

    @staticmethod
    def stored(n, m):
        """Whether (n, m) is cached: a lookup that hits. A miss stores it."""
        hits = exact._small_simplex.cache_info().hits
        exact._small_simplex(n, m)
        return exact._small_simplex.cache_info().hits > hits

    def test_readers_match_the_enumeration_bytes(self, info, monkeypatch):
        size = info().currsize
        self.readers(4095, 2)
        assert info().currsize == size + 1
        self.readers(4096, 2)
        assert info().currsize == size + 1
        cached = {key: self.readers(*key) for key in self.GRID}
        misses = info().misses
        for key in self.GRID:  # the second read comes from the cache
            assert self.readers(*key) == cached[key], key
        assert info().misses == misses
        monkeypatch.setattr(exact, "_is_small", lambda n, symbols: False)
        for key in self.GRID:
            assert self.readers(*key) == cached[key], key

    def test_the_monte_carlo_table_reads_the_cache(self, info):
        for n, m, tabled in ((16, 4, True), (4095, 2, True), (4096, 2, False)):
            exact._small_simplex.cache_clear()
            p, q = make_zipf(m, 0.7), make_uniform(m)
            first = estimate_position_mi(p, q, n, samples=100, seed=2)
            assert info().currsize == tabled
            assert estimate_position_mi(p, q, n, samples=100, seed=2) == first
            assert (info().hits > 0) == tabled

    def test_cached_arrays_are_read_only(self, info):
        for array in exact._small_simplex(6, 3):
            with pytest.raises(ValueError, match="read-only"):
                array[..., 0] = 0
        [(h, weight)] = exact.weighted_histograms(6, np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="read-only"):
            h += 1
        weight[0] = 0.0  # the weights are the reader's own

    def test_nothing_above_the_bound_is_stored(self, info):
        for n, m in self.GRID:
            self.readers(n, m)
        admitted = {
            (n, m) for n, m in self.GRID
            if 2 <= m <= exact.SIMPLEX_SYMBOLS and math.comb(n + m - 1, m - 1) <= exact.SIMPLEX_ROWS
        }
        assert {(2, 9), (16, 5), (4096, 2)}.isdisjoint(admitted) and (15, 5) in admitted
        assert len(admitted) <= exact.SIMPLEX_ENTRIES and info().currsize == len(admitted)
        assert all(self.stored(*key) for key in admitted)
        # a full cache drops its least recently used simplex first
        exact._small_simplex.cache_clear()
        keys = [(n, 2) for n in range(1, exact.SIMPLEX_ENTRIES + 1)]
        for key in keys:
            exact._small_simplex(*key)
        exact._small_simplex(*keys[0])
        exact._small_simplex(100, 2)
        assert info().currsize == exact.SIMPLEX_ENTRIES
        assert self.stored(*keys[0]) and self.stored(100, 2) and not self.stored(*keys[1])

    def test_threads_get_equal_read_only_entries(self, info):
        start = threading.Barrier(4)
        got = [None] * 4

        def first_call(i):
            start.wait()
            got[i] = exact._small_simplex(13, 5)

        threads = [threading.Thread(target=first_call, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert info().currsize == 1
        kept = exact._small_simplex(13, 5)
        for entry in got:
            for a, b in zip(entry, kept, strict=True):
                assert not a.flags.writeable and a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

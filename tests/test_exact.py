import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import binom

from shuffleleak import (
    AbsoluteContinuityError,
    Categorical,
    ExactLimits,
    Randomizer,
    ResourceLimitError,
    blanket_of_family,
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
    mixed_signal_rate,
    position_likelihoods,
    position_mi_exact,
    position_mi_fixed_inputs,
    row_mixture,
)
from shuffleleak.exact import states_shuffle_only

from oracles import (
    brute_message_mi,
    brute_position_mi_fixed_inputs,
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

    def test_ceiling_enforced(self):
        with pytest.raises(ResourceLimitError):
            position_mi_exact(ZIPF, U4, 500, ExactLimits(max_states=1000))

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

    def test_iid_ceiling(self):
        with pytest.raises(ResourceLimitError):
            input_mi_iid_others(make_krr(4, 1.0), make_uniform(4), 10_000,
                                ExactLimits(max_states=10_000))

    def test_histogram_is_sufficient_for_input(self):
        # ordering carries nothing once the counts are known
        from oracles import brute_input_mi_sequence

        r = make_krr(3, 0.9)
        prior = make_uniform(3)
        for x_rest in ((1,), (1, 2), (2, 3)):
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
            dec = blanket_of_family(others)
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

    def test_likelihood_rows_are_distributions(self):
        _, like = position_likelihoods(make_krr(2, 0.8), (1, 2, 1))
        assert np.allclose(like.sum(axis=1), 1.0)

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
            _, like = position_likelihoods(r, xs)
            for j in range(like.shape[1]):
                col = like[:, j]
                pos = col[col > 0]
                if len(pos) == like.shape[0]:
                    ratio = math.log(pos.max() / pos.min())
                    assert ratio <= 2 * eps + 1e-9

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
        rate = mixed_signal_rate(prior, r, row_mixture(prior, r), n - 1)
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

    def test_gap_identity_at_large_n(self):
        limits = ExactLimits(max_states=10**8)
        for p, q in ((dist(0.7, 0.3), dist(0.4, 0.6)), (make_zipf(3, 0.7), make_uniform(3))):
            for n in (2, 64, 512, 4096):
                gap = message_mi_exact(p, q, n, limits) - position_mi_exact(p, q, n, limits)
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

    def test_ceiling_raises_before_allocating(self):
        tiny = ExactLimits(max_states=10)
        many = (1,) * 50_000  # the fixed-input oracles read no row of these
        calls = (
            lambda: position_mi_exact(ZIPF, U4, 10**9, tiny),
            lambda: message_mi_exact(ZIPF, U4, 10**9, tiny),
            lambda: input_mi_iid_others(make_krr(4, 1.0), U4, 10**9, tiny),
            lambda: position_mi_fixed_inputs(make_krr(4, 1.0), (1,) * 5, tiny),
            lambda: position_mi_fixed_inputs(make_krr(4, 1.0), many, tiny),
            lambda: input_mi_fixed_others(make_krr(4, 1.0), U4, many, tiny),
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

    def test_huge_state_count_message(self):
        # state counts of 10^15 and more are reported as a power of ten
        # instead of being formatted
        with pytest.raises(ResourceLimitError, match=r"~10\^\d+ states"):
            position_mi_fixed_inputs(make_krr(5, 1.0), (1,) * 16384)
        with pytest.raises(ResourceLimitError, match=r"needs 4097 states"):
            input_mi_iid_others(make_krr(2, 0.5), make_uniform(2), 4096, ExactLimits(4096))

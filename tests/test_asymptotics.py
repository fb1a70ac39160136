import math
from itertools import cycle, islice

import numpy as np
import pytest

from shuffleleak import (
    AbsoluteContinuityError,
    AsymptoticTerm,
    Categorical,
    InvalidParameterError,
    Randomizer,
    chi2_divergence,
    clone_message_bound,
    input_mi_dp_bound,
    input_mi_fixed_others,
    input_mi_iid_others,
    input_mi_shuffle_only,
    kl_divergence,
    ldp_epsilon,
    make_krr,
    make_uniform,
    make_zipf,
    matched_message_mi,
    mean_chi2,
    message_mi_exact,
    message_mi_expansion,
    optimal_cover,
    position_mi_dp_bound,
    position_mi_fixed_inputs,
    position_mi_expansion,
    signal_rate,
    blanket_of_randomizer,
    entropy,
)

from oracles import random_categorical, random_ldp_kernel

ZIPF = make_zipf(4, 0.7)
U4 = make_uniform(4)


def dist(*probs, labels=None):
    labels = labels or tuple(range(1, len(probs) + 1))
    return Categorical(labels, probs)


class TestTermEvaluation:
    def test_evaluate(self):
        t = AsymptoticTerm(1.0, 0.5, -2.0)
        assert t.evaluate(10) == pytest.approx(1.0 + 0.5 * math.log(10) - 0.2)

    def test_rejects_n0(self):
        with pytest.raises(InvalidParameterError):
            AsymptoticTerm(0, 0, 0).evaluate(0)


def matched_rate(p, n):
    """The leading message leakage when the n - 1 covers share p."""
    p = np.asarray(p.probs)
    return signal_rate(p, np.eye(len(p)), [p], [n - 1])


class TestMatchedRate:
    def test_point_mass_never_leaks(self):
        assert matched_rate(Categorical((1, 2), (1.0, 0.0)), 50) == 0.0

    def test_m4_n100(self):
        assert matched_rate(ZIPF, 100) == pytest.approx(0.015, abs=1e-15)

    @pytest.mark.parametrize(
        "p", [U4, ZIPF, make_zipf(6, 1.3), Categorical((1, 2, 3), (0.5, 0.0, 0.5))]
    )
    def test_is_m_minus_1_over_2n_on_the_support(self, p):
        m = len(p.support())
        for n in (1, 2, 7, 1000):
            assert matched_rate(p, n) == pytest.approx((m - 1) / (2 * n), rel=1e-13)

    def test_rate_is_asymptotic_not_exact(self):
        exact2 = matched_message_mi(make_uniform(2), 2)
        assert matched_rate(make_uniform(2), 2) == pytest.approx(0.25, abs=1e-15)
        assert exact2 == pytest.approx(math.log(2) / 2, abs=1e-12)
        gap_small = abs(matched_rate(make_uniform(2), 64) - matched_message_mi(make_uniform(2), 64))
        assert gap_small < abs(0.25 - exact2)


class TestPositionExpansion:
    def test_matched_all_zero(self):
        t = position_mi_expansion(U4, U4)
        assert (t.constant_term, t.log_n_coefficient, t.inv_n_coefficient) == (0, 0, 0)

    def test_disjoint_is_pure_log(self):
        t = position_mi_expansion(dist(1.0, 0.0), dist(0.0, 1.0))
        assert (t.constant_term, t.log_n_coefficient, t.inv_n_coefficient) == (0, 1.0, 0)
        assert t.evaluate(7) == pytest.approx(math.log(7))

    def test_zipf_uniform_coefficients(self):
        t = position_mi_expansion(ZIPF, U4)
        assert t.constant_term == pytest.approx(kl_divergence(ZIPF, U4), abs=1e-14)
        assert t.log_n_coefficient == 0.0
        assert t.inv_n_coefficient == pytest.approx(
            -chi2_divergence(ZIPF, U4) / 2, abs=1e-14
        )

    def test_visible_case_collapses_to_direct_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_categorical(rng, (1, 2, 3))
            q = random_categorical(rng, (1, 2, 3))
            t = position_mi_expansion(p, q)
            for n in (5, 50):
                direct = kl_divergence(p, q) - chi2_divergence(p, q) / (2 * n)
                assert t.evaluate(n) == pytest.approx(direct, abs=1e-12)


class TestMessageExpansion:
    def test_matched_uniform(self):
        t = message_mi_expansion(U4, U4)
        assert t.constant_term == 0.0
        assert t.inv_n_coefficient == pytest.approx(1.5, abs=1e-14)

    def test_fully_hidden_gives_entropy(self):
        p = dist(0.6, 0.4, 0.0, 0.0)
        q = dist(0.0, 0.0, 0.5, 0.5)
        t = message_mi_expansion(p, q)
        assert t.constant_term == pytest.approx(entropy(p), abs=1e-14)
        assert t.inv_n_coefficient == 0.0

    def test_partially_hidden_constant(self):
        p = dist(0.5, 0.3, 0.2)
        q = dist(0.6, 0.4, 0.0)
        t = message_mi_expansion(p, q)
        expect = 0.2 * math.log(1 / 0.2) + 0.8 * math.log(1 / 0.8)
        assert t.constant_term == pytest.approx(expect, abs=1e-14)
        pp = dist(0.625, 0.375)
        inv = 0.8 * sum((x - x * x) / q.prob(l) for l, x in pp.as_dict().items()) / 2
        assert t.inv_n_coefficient == pytest.approx(inv, abs=1e-14)

    def test_zipf_uniform_inv_coefficient(self):
        t = message_mi_expansion(ZIPF, U4)
        c1 = sum(4 * (p - p * p) for p in ZIPF.probs)
        assert t.inv_n_coefficient == pytest.approx(c1 / 2, abs=1e-12)


class TestOptimalCover:
    def test_two_support_points_uniform(self):
        q = optimal_cover(dist(0.9, 0.1))
        assert np.allclose(q.probs, [0.5, 0.5])

    def test_uniform_stays_uniform(self):
        q = optimal_cover(make_uniform(5))
        assert np.allclose(q.probs, 0.2)

    @staticmethod
    def leading_constant(p, q):
        """Twice the 1/n coefficient of message leakage, sum_i p_i (1 - p_i) / q_i."""
        return 2 * message_mi_expansion(p, q).inv_n_coefficient

    def test_zipf_constant(self):
        assert self.leading_constant(ZIPF, optimal_cover(ZIPF)) == pytest.approx(2.81, abs=0.01)

    def test_achieves_its_constant(self):
        a = np.asarray(ZIPF.probs) * (1 - np.asarray(ZIPF.probs))
        assert self.leading_constant(ZIPF, optimal_cover(ZIPF)) == pytest.approx(
            np.sqrt(a).sum() ** 2, abs=1e-12
        )

    def test_matched_cover_constant_is_m_minus_1(self):
        assert self.leading_constant(ZIPF, ZIPF) == pytest.approx(3.0, abs=1e-12)

    def test_point_mass_rejected(self):
        with pytest.raises(InvalidParameterError):
            optimal_cover(dist(1.0, 0.0))

    def test_perturbations_strictly_worse(self):
        rng = np.random.default_rng(21)
        q = optimal_cover(ZIPF)
        best = self.leading_constant(ZIPF, q)
        for _ in range(50):
            d = rng.normal(size=len(q.probs))
            d -= d.mean()
            v = np.asarray(q.probs) + 1e-3 * d / np.linalg.norm(d)
            if np.any(v <= 0):
                continue
            perturbed = Categorical(q.labels, v / v.sum())
            assert self.leading_constant(ZIPF, perturbed) > best


class TestBounds:
    def test_position_bound_values(self):
        assert position_mi_dp_bound(0.0) == 0.0
        assert position_mi_dp_bound(math.log(3)) == pytest.approx(2 * math.log(3))

    def test_input_bound_values(self):
        assert input_mi_dp_bound(0.0, 10) == 0.0
        assert input_mi_dp_bound(1.0, 64) == pytest.approx((math.e - 1) / 128)

    def test_clone_bound_values(self):
        assert clone_message_bound(1, 1.0, 10) == 0.0
        assert clone_message_bound(4, 0.0, 100) == pytest.approx(matched_rate(U4, 100))
        assert clone_message_bound(4, 1.0, 64) == pytest.approx(3 * math.e / 128)

    @staticmethod
    def vertex_mechanisms():
        rng = np.random.default_rng(17)
        mechanisms = [make_krr(k, eps) for k in (2, 3, 4) for eps in (0.5, 1.0, 2.0, 4.0)]
        return mechanisms + [random_ldp_kernel(rng, rng.uniform(0.2, 1.5), 3, 3) for _ in range(30)]

    def test_unified_bound_covers_fixed_inputs_at_every_vertex(self):
        # the leading term is convex in the other users' inputs, so its worst
        # case is a vertex: all n - 1 others given one input x
        cases = worst = 0
        for r in self.vertex_mechanisms():
            k = len(r.input_labels)
            eps = ldp_epsilon(r)
            for x in r.input_labels:
                for n in (2, 3, 4, 6, 8, 12, 16):
                    bound = input_mi_dp_bound(eps, n)
                    exact = input_mi_fixed_others(r, make_uniform(k), [x] * (n - 1))
                    rate = signal_rate(np.full(k, 1 / k), r.kernel, [r.row(x)], [n - 1])
                    assert exact <= bound and rate <= bound, (r.kernel, x, n)
                    worst = max(worst, exact / bound, rate / bound)
                    cases += 1
        assert cases == 882 and worst < 0.5

    def test_position_bound_covers_fixed_inputs_at_every_vertex(self):
        # the target's input x1 against n - 1 others that all share one input x
        cases = worst = 0
        for r in self.vertex_mechanisms():
            bound = position_mi_dp_bound(ldp_epsilon(r))
            for x1 in r.input_labels:
                for x in r.input_labels:
                    for n in (2, 3, 4, 6, 8, 12, 16):
                        exact = position_mi_fixed_inputs(r, (x1,) + (x,) * (n - 1))
                        assert exact <= bound, (r.kernel, x1, x, n)
                        worst = max(worst, exact / bound)
                        cases += 1
        assert cases == 2702 and worst < 0.5


class TestMixedSignalRate:
    """A randomized signal mixed into the batch, and the prior-weighted chi2
    behind the blanket bound."""

    def test_rows_equal_cover_no_leakage(self):
        q = np.array([0.3, 0.7])
        assert signal_rate([0.5, 0.5], [q, q], [q], [10]) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("k,eps", [(2, 0.5), (4, 1.0), (5, 2.0)])
    def test_krr_blanket_mean_chi2(self, k, eps):
        r = make_krr(k, eps)
        qb = blanket_of_randomizer(r).generalized_blanket
        e = math.exp(eps)
        expect = e * (e - 1) / (e + k - 1)
        assert mean_chi2(make_uniform(k), r, qb) == pytest.approx(expect, abs=1e-12)

    def test_mean_chi2_outside_the_cover_support(self):
        # the generalized blanket of this kernel has no mass on output 2
        r = Randomizer((1, 2), (1, 2), [[1.0, 0.0], [0.5, 0.5]])
        qb = blanket_of_randomizer(r).generalized_blanket
        assert mean_chi2(make_uniform(2), r, qb) == math.inf
        # a row without prior mass does not count
        only_first = Categorical((1, 2), (1.0, 0.0))
        assert mean_chi2(only_first, r, qb) == pytest.approx(1.0)

    @pytest.mark.parametrize("k,eps", [(2, 0.5), (4, 1.0)])
    def test_krr_uniform_cover_rate(self, k, eps):
        r = make_krr(k, eps)
        px = np.full(k, 1 / k)
        mix = px @ r.kernel
        assert np.allclose(mix, 1 / k, rtol=0, atol=1e-15)
        e = math.exp(eps)
        expect = (k - 1) * (e - 1) ** 2 / ((e + k - 1) ** 2)
        assert signal_rate(px, r.kernel, [mix], [63]) == pytest.approx(expect / 128, rel=1e-12)

    def test_iid_others_rate_is_the_mean_chi2_from_the_mixture(self):
        # with i.i.d. others the form is mean chi2(rows || mix) / (2n)
        rng = np.random.default_rng(5)
        for _ in range(20):
            r = random_ldp_kernel(rng, rng.uniform(0.2, 3.0), 3, 4)
            prior = random_categorical(rng, r.input_labels)
            px = np.asarray(prior.probs)
            mix = px @ r.kernel
            for n in (1, 2, 40, 10**6):
                expect = mean_chi2(prior, r, Categorical(r.output_labels, mix)) / (2 * n)
                got = signal_rate(px, r.kernel, [mix], [n - 1])
                assert got == pytest.approx(expect, rel=1e-12)


U4V = np.full(4, 0.25)
KRR4 = make_krr(4, 1.0)


def fixed_others_case(xs):
    """(exact, form) for kRR4 at eps0 = 1, a uniform target and fixed others."""
    rows = KRR4.kernel
    counts = [list(xs).count(x) for x in KRR4.input_labels]
    return input_mi_fixed_others(KRR4, U4, xs), signal_rate(U4V, rows, rows, counts)


def cycled(n):
    return fixed_others_case(list(islice(cycle(KRR4.input_labels), n - 1)))


ZIPF3 = make_zipf(3, 0.7)
COVERS = np.random.default_rng(0).dirichlet([4, 4, 4], size=79)


def heterogeneous(n):
    covers = COVERS[: n - 1]
    exact = input_mi_shuffle_only(ZIPF3, [Categorical((1, 2, 3), c) for c in covers])
    return exact, signal_rate(ZIPF3.probs, np.eye(3), covers, np.ones(n - 1))


def message_case(q):
    p = np.asarray(ZIPF.probs)
    return lambda n: (
        matched_message_mi(ZIPF, n) if q is ZIPF else message_mi_exact(ZIPF, q, n),
        signal_rate(p, np.eye(4), [q.probs], [n - 1]),
    )


class TestSignalRate:
    # (exact and form at n, the n grid, a bound on n^2 |exact - form|); the
    # observed n^2 (exact - form) runs, in grid order:
    # iid -0.011 -> -0.009, one input +0.021 -> +0.031, cycled -0.015 ->
    # -0.017, heterogeneous covers +0.71 / +0.70 / +0.69, matched +2.23 ->
    # +1.44, Zipf against uniform +1.81 -> +1.33
    ORACLES = {
        "iid_others": (
            lambda n: (input_mi_iid_others(KRR4, U4, n),
                       signal_rate(U4V, KRR4.kernel, [U4V @ KRR4.kernel], [n - 1])),
            (8, 16, 32, 64, 128), 0.02),
        "fixed_one_input": (lambda n: fixed_others_case([1] * (n - 1)), (8, 16, 24, 32, 48), 0.05),
        "fixed_cycled": (cycled, (8, 16, 24, 32, 48), 0.03),
        "shuffle_only_heterogeneous": (heterogeneous, (19, 39, 79), 1.2),
        "matched_message": (message_case(ZIPF), (16, 32, 64, 128, 256, 512, 1024), 3.0),
        "message_uniform_cover": (message_case(U4), (16, 32, 64, 128), 2.5),
    }

    @pytest.mark.parametrize("case", sorted(ORACLES))
    def test_tracks_the_exact_oracle_to_n_minus_2(self, case):
        values, grid, bound = self.ORACLES[case]
        scaled = [n * n * abs(np.subtract(*values(n))) for n in grid]
        assert max(scaled) < bound, scaled
        # an n^-3/2 remainder would grow n^2 |difference| like sqrt(n)
        assert scaled[-1] < 1.1 * scaled[-2], scaled

    def test_approaches_the_message_expansion(self):
        # n times the form tends to the 1/n coefficient of message leakage
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_categorical(rng, (1, 2, 3, 4))
            q = random_categorical(rng, (1, 2, 3, 4))
            n = 10**8
            got = n * signal_rate(p.probs, np.eye(4), [q.probs], [n - 1])
            assert got == pytest.approx(message_mi_expansion(p, q).inv_n_coefficient, rel=1e-7)

    def test_does_not_depend_on_symbol_order(self):
        # the first symbol is the one dropped, so a permutation drops another
        rng = np.random.default_rng(4)
        px = rng.dirichlet([1, 1, 1])
        rows = rng.dirichlet([1, 1, 1, 1], size=3)
        others = rng.dirichlet([1, 1, 1, 1], size=2)
        value = signal_rate(px, rows, others, [5, 9])
        for perm in ([3, 2, 1, 0], [1, 0, 3, 2], [2, 3, 0, 1]):
            got = signal_rate(px, rows[:, perm], others[:, perm], [5, 9])
            assert got == pytest.approx(value, rel=1e-12)

    def test_users_of_one_law_add_up(self):
        a, b = np.array([0.2, 0.5, 0.3]), np.array([0.6, 0.1, 0.3])
        rows = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        grouped = signal_rate([0.4, 0.6], rows, [a, b], [2, 1])
        one_each = signal_rate([0.4, 0.6], rows, [a, b, a], [1, 1, 1])
        assert one_each == pytest.approx(grouped, rel=1e-13)
        # one user fewer hides the signal less
        assert signal_rate([0.4, 0.6], rows, [a, b, a], [1, 1, 0]) > grouped

    def test_groups_of_symbols_that_no_law_links(self):
        # the others send {1, 2} or {3, 4, 5}, never both: the count of each
        # group is fixed, and the signal, which stays in {1, 2}, leaks as if
        # the {3, 4, 5} users were absent
        rng = np.random.default_rng(0)
        rows = np.array([[1.0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0]])
        for _ in range(5):
            first, second = rng.dirichlet([1, 1]), rng.dirichlet([1, 1, 1])
            others = [np.r_[first, 0, 0, 0], np.r_[0, 0, second]]
            got = signal_rate([0.3, 0.7], rows, others, [5, 7])
            alone = signal_rate([0.3, 0.7], rows[:, :2], [first], [5])
            assert got == pytest.approx(alone, rel=1e-12)
        halves = [[0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5]]
        assert signal_rate([0.5, 0.5], np.eye(4)[:2], halves, [3, 3]) == pytest.approx(0.125)
        # laws on {1, 3} and {2, 3} link all three symbols through symbol 3,
        # whether it comes first or last
        chain, rows = np.array([[0.5, 0, 0.5], [0, 0.4, 0.6]]), np.eye(3)[[0, 2]]
        last = signal_rate([0.5, 0.5], rows, chain, [4, 6])
        first = signal_rate([0.5, 0.5], rows[:, [2, 0, 1]], chain[:, [2, 0, 1]], [4, 6])
        assert last == pytest.approx(first, rel=1e-12)

    def test_a_symbol_no_other_user_sends(self):
        rows = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        with pytest.raises(AbsoluteContinuityError):
            signal_rate([0.5, 0.5], rows, [[0.4, 0.6, 0.0]], [9])
        # a row without prior mass is ignored
        assert signal_rate([1.0, 0.0], rows, [[0.4, 0.6, 0.0]], [9]) == pytest.approx(
            signal_rate([1.0], rows[:1], [[0.4, 0.6, 0.0]], [9]), abs=0
        )
        # the message expansion has a hidden-symbol constant there instead
        p, q = Categorical((1, 2, 3), (0.5, 0.3, 0.2)), Categorical((1, 2, 3), (0.6, 0.4, 0.0))
        assert message_mi_expansion(p, q).constant_term > 0
        with pytest.raises(AbsoluteContinuityError):
            signal_rate(p.probs, np.eye(3), [q.probs], [99])

    @pytest.mark.parametrize("counts", [[-1], [1, 2]])
    def test_rejects_counts_that_do_not_fit_the_laws(self, counts):
        with pytest.raises(InvalidParameterError):
            signal_rate([0.5, 0.5], np.eye(2), [[0.5, 0.5]], counts)

import math

import numpy as np
import pytest

from shuffleleak import (
    AsymptoticTerm,
    Categorical,
    InvalidParameterError,
    chi2_divergence,
    clone_message_bound,
    cover_constant,
    input_mi_dp_bound,
    kl_divergence,
    make_krr,
    make_uniform,
    make_zipf,
    matched_message_mi,
    matched_message_rate,
    mean_chi2,
    message_mi_expansion,
    mixed_signal_rate,
    optimal_cover,
    optimal_cover_constant,
    position_mi_dp_bound,
    position_mi_expansion,
    row_mixture,
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


class TestMatchedRate:
    def test_point_mass_never_leaks(self):
        assert matched_message_rate(1, 50) == 0.0

    def test_m4_n100(self):
        assert matched_message_rate(4, 100) == pytest.approx(0.015)

    def test_rate_is_asymptotic_not_exact(self):
        exact2 = matched_message_mi(make_uniform(2), 2)
        assert matched_message_rate(2, 2) == 0.25
        assert exact2 == pytest.approx(math.log(2) / 2, abs=1e-12)
        gap_small = abs(matched_message_rate(2, 64) - matched_message_mi(make_uniform(2), 64))
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

    def test_zipf_constant(self):
        assert optimal_cover_constant(ZIPF) == pytest.approx(2.81, abs=0.01)

    def test_achieves_its_constant(self):
        q = optimal_cover(ZIPF)
        assert cover_constant(ZIPF, q) == pytest.approx(
            optimal_cover_constant(ZIPF), abs=1e-12
        )

    def test_matched_cover_constant_is_m_minus_1(self):
        assert cover_constant(ZIPF, ZIPF) == pytest.approx(3.0, abs=1e-12)

    def test_point_mass_rejected(self):
        with pytest.raises(InvalidParameterError):
            optimal_cover(dist(1.0, 0.0))

    def test_perturbations_strictly_worse(self):
        rng = np.random.default_rng(21)
        q = optimal_cover(ZIPF)
        best = optimal_cover_constant(ZIPF)
        for _ in range(50):
            d = rng.normal(size=len(q.probs))
            d -= d.mean()
            v = np.asarray(q.probs) + 1e-3 * d / np.linalg.norm(d)
            if np.any(v <= 0):
                continue
            perturbed = Categorical(q.labels, v / v.sum())
            assert cover_constant(ZIPF, perturbed) > best


class TestBounds:
    def test_position_bound_values(self):
        assert position_mi_dp_bound(0.0) == 0.0
        assert position_mi_dp_bound(math.log(3)) == pytest.approx(2 * math.log(3))

    def test_input_bound_values(self):
        assert input_mi_dp_bound(0.0, 10) == 0.0
        assert input_mi_dp_bound(1.0, 64) == pytest.approx((math.e - 1) / 128)

    def test_clone_bound_values(self):
        assert clone_message_bound(1, 1.0, 10) == 0.0
        assert clone_message_bound(4, 0.0, 100) == pytest.approx(
            matched_message_rate(4, 100)
        )
        assert clone_message_bound(4, 1.0, 64) == pytest.approx(3 * math.e / 128)


class TestMixedSignalRate:
    def test_rows_equal_cover_no_leakage(self):
        r = make_krr(2, 1.0)
        q = row_mixture(make_uniform(2), r)
        # constant randomizer: every row equals q
        from shuffleleak import Randomizer

        const = Randomizer((1, 2), (1, 2), [q.probs, q.probs])
        assert mixed_signal_rate(make_uniform(2), const, q, 10) == pytest.approx(
            0.0, abs=1e-14
        )

    @pytest.mark.parametrize("k,eps", [(2, 0.5), (4, 1.0), (5, 2.0)])
    def test_krr_blanket_mean_chi2(self, k, eps):
        r = make_krr(k, eps)
        qb = blanket_of_randomizer(r).generalized_blanket
        e = math.exp(eps)
        expect = e * (e - 1) / (e + k - 1)
        assert mean_chi2(make_uniform(k), r, qb) == pytest.approx(expect, abs=1e-12)

    def test_mean_chi2_outside_the_cover_support(self):
        # the generalized blanket of this kernel has no mass on output 2
        from shuffleleak import Categorical, Randomizer

        r = Randomizer((1, 2), (1, 2), [[1.0, 0.0], [0.5, 0.5]])
        qb = blanket_of_randomizer(r).generalized_blanket
        assert mean_chi2(make_uniform(2), r, qb) == math.inf
        # a row without prior mass does not count
        only_first = Categorical((1, 2), (1.0, 0.0))
        assert mean_chi2(only_first, r, qb) == pytest.approx(1.0)

    @pytest.mark.parametrize("k,eps", [(2, 0.5), (4, 1.0)])
    def test_krr_uniform_cover_rate(self, k, eps):
        r = make_krr(k, eps)
        prior = make_uniform(k)
        q = row_mixture(prior, r)
        assert chi2_divergence(q, make_uniform(k)) == pytest.approx(0.0, abs=1e-14)
        e = math.exp(eps)
        expect = (k - 1) * (e - 1) ** 2 / ((e + k - 1) ** 2)
        s = 63
        assert mixed_signal_rate(prior, r, q, s) == pytest.approx(
            expect / (2 * (s + 1)), abs=1e-12
        )

    def test_unified_bound_dominates_blanket_rate(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            r = random_ldp_kernel(rng, rng.uniform(0.2, 1.5), 3, 3)
            from shuffleleak import ldp_epsilon

            eps = ldp_epsilon(r)
            qb = blanket_of_randomizer(r).generalized_blanket
            prior = random_categorical(rng, r.input_labels)
            n = 40
            assert input_mi_dp_bound(eps, n) + 1e-12 >= mixed_signal_rate(
                prior, r, qb, n - 1
            )

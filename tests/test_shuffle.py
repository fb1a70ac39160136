import math

import numpy as np
import pytest
from scipy.stats import chisquare

from shuffleleak import (
    Categorical,
    Histogram,
    InvalidInputError,
    InvalidParameterError,
    Randomizer,
    ShuffleSample,
    input_posterior,
    make_krr,
    make_uniform,
    message_posterior,
    position_posterior,
    sample_shuffle_dp,
    sample_shuffle_only,
)

from oracles import law_by_position, random_categorical


def dist(*probs, labels=None):
    labels = labels or tuple(range(1, len(probs) + 1))
    return Categorical(labels, probs)


class TestSampling:
    def test_n1(self):
        s = sample_shuffle_only(make_uniform(3), make_uniform(3), 1, np.random.default_rng(0))
        assert s.k_true == 1 and s.z == (s.y1,)

    def test_rejects_n0(self):
        with pytest.raises(InvalidParameterError):
            sample_shuffle_only(make_uniform(2), make_uniform(2), 0, np.random.default_rng(0))

    def test_point_masses_constant_output(self):
        p = dist(1.0, 0.0)
        rng = np.random.default_rng(5)
        s = sample_shuffle_only(p, p, 4, rng)
        assert s.z == (1, 1, 1, 1)

    def test_position_uniform_chisquare(self):
        # 1e5 draws; target position must look uniform at the 1% level
        rng = np.random.default_rng(77)
        n = 6
        counts = np.zeros(n)
        p, q = make_uniform(2), make_uniform(2)
        for _ in range(100_000):
            counts[sample_shuffle_only(p, q, n, rng).k_true - 1] += 1
        assert chisquare(counts).pvalue > 0.01

    def test_sample_invariant_enforced(self):
        with pytest.raises(InvalidInputError):
            ShuffleSample(z=("a", "b"), k_true=1, y1="b")

    def test_dp_identity_kernel_shuffles_inputs(self):
        ident = Randomizer((1, 2, 3), (1, 2, 3), np.eye(3))
        s = sample_shuffle_dp(ident, (3, 1, 2), np.random.default_rng(3))
        assert sorted(s.z) == [1, 2, 3]
        assert s.y1 == 3 and s.z[s.k_true - 1] == 3

    def test_dp_slot_marginal(self):
        r = make_krr(2, math.log(3))
        rng = np.random.default_rng(11)
        hits = 0
        trials = 20_000
        for _ in range(trials):
            hits += sample_shuffle_dp(r, (1, 1), rng).z[0] == 1
        assert hits / trials == pytest.approx(0.75, abs=0.01)

    def test_dp_unknown_input(self):
        with pytest.raises(InvalidInputError):
            sample_shuffle_dp(make_krr(2, 1.0), (1, 9), np.random.default_rng(0))

    def test_dp_joint_matches_enumerated_law(self):
        # empirical (k_true, z) frequencies vs the enumerated joint law
        r = make_krr(2, math.log(3))
        xs = (1, 2, 2)
        law = law_by_position(r, xs)
        idx = {z: j for j, z in enumerate(law)}
        rng = np.random.default_rng(23)
        trials = 30_000
        counts = np.zeros((3, len(law)))
        for _ in range(trials):
            s = sample_shuffle_dp(r, xs, rng)
            counts[s.k_true - 1, idx[s.z]] += 1
        expected = np.array(list(law.values())).T * trials
        assert chisquare(counts.ravel(), expected.ravel()).pvalue > 0.01


class TestPositionPosterior:
    def test_matched_is_uniform(self):
        post = position_posterior((1, 2, 2, 1), make_uniform(2), make_uniform(2))
        assert np.allclose(post, 0.25)

    def test_zero_weight_position(self):
        post = position_posterior(("a", "b"), dist(1.0, 0.0, labels=("a", "b")),
                                  dist(0.5, 0.5, labels=("a", "b")))
        assert np.allclose(post, [1.0, 0.0])

    def test_direct_substitution(self):
        p = dist(0.8, 0.2, labels=("a", "b"))
        q = dist(0.5, 0.5, labels=("a", "b"))
        post = position_posterior(("a", "a", "b"), p, q)
        assert np.allclose(post, np.array([1.6, 1.6, 0.4]) / 3.6)

    def test_hidden_symbol_takes_all_mass(self):
        p = dist(0.5, 0.5, labels=("a", "b"))
        q = dist(1.0, 0.0, labels=("a", "b"))
        post = position_posterior(("a", "b", "a"), p, q)
        assert np.allclose(post, [0.0, 1.0, 0.0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            p = random_categorical(rng, (1, 2, 3))
            q = random_categorical(rng, (1, 2, 3))
            s = sample_shuffle_only(p, q, 5, rng)
            assert position_posterior(s.z, p, q).sum() == pytest.approx(1.0, abs=1e-12)

    def test_exchangeability(self):
        p = dist(0.7, 0.2, 0.1)
        q = make_uniform(3)
        z = (1, 3, 2, 1, 2)
        post = position_posterior(z, p, q)
        perm = [3, 0, 4, 2, 1]
        post2 = position_posterior(tuple(z[i] for i in perm), p, q)
        assert np.allclose(post2, post[perm])

    def test_all_zero_weights_error(self):
        p = dist(1.0, 0.0, 0.0)
        q = dist(0.0, 0.5, 0.5)
        with pytest.raises(InvalidInputError):
            position_posterior((2, 3), p, q)

    def test_symbol_outside_both_supports(self):
        with pytest.raises(InvalidInputError):
            position_posterior((9,), make_uniform(2), make_uniform(2))


class TestMessagePosterior:
    def test_matched_aggregates_counts(self):
        post = message_posterior(("a", "a", "b"), dist(0.5, 0.5, labels=("a", "b")),
                                 dist(0.5, 0.5, labels=("a", "b")))
        assert post.prob("a") == pytest.approx(2 / 3, abs=1e-12)
        assert post.prob("b") == pytest.approx(1 / 3, abs=1e-12)

    def test_constant_sequence_point_mass(self):
        post = message_posterior((1, 1, 1), make_uniform(2), make_uniform(2))
        assert post.prob(1) == pytest.approx(1.0, abs=1e-12)

    def test_weighted_aggregate(self):
        p = dist(0.8, 0.2, labels=("a", "b"))
        q = dist(0.5, 0.5, labels=("a", "b"))
        post = message_posterior(("a", "a", "b"), p, q)
        assert post.prob("a") == pytest.approx(3.2 / 3.6, abs=1e-12)
        assert post.prob("b") == pytest.approx(0.4 / 3.6, abs=1e-12)

    def test_invariant_under_permuting_z(self):
        p = dist(0.6, 0.3, 0.1)
        q = make_uniform(3)
        a = message_posterior((1, 2, 3, 1), p, q)
        b = message_posterior((3, 1, 1, 2), p, q)
        assert a.same_mass(b, tol=1e-12)


class TestInputPosterior:
    def test_constant_rows_return_prior(self):
        r = Randomizer((1, 2), ("a", "b"), [[0.4, 0.6], [0.4, 0.6]])
        prior = dist(0.3, 0.7)
        post = input_posterior(Histogram({"a": 2, "b": 1}), prior, r,
                               dist(0.4, 0.6, labels=("a", "b")))
        assert post.same_mass(prior, tol=1e-12)

    def test_krr_single_cell(self):
        r = make_krr(2, math.log(3))
        post = input_posterior(Histogram({1: 2}), make_uniform(2), r, make_uniform(2))
        assert np.allclose(post.probs, [0.75, 0.25])

    def test_single_observation_ranking(self):
        r = make_krr(3, 1.0)
        post = input_posterior(Histogram({2: 1}), make_uniform(3), r, make_uniform(3))
        assert post.prob(2) > post.prob(1) == post.prob(3)

    def test_zero_cover_probability_rejected(self):
        r = make_krr(2, 1.0)
        with pytest.raises(InvalidInputError):
            input_posterior(Histogram({1: 1}), make_uniform(2), r,
                            dist(0.0, 1.0))


class TestHistogram:
    def test_from_messages(self):
        h = Histogram.from_messages(("a", "b", "a"))
        assert h.counts == {"a": 2, "b": 1} and h.total == 3

    def test_rejects_negative_counts(self):
        with pytest.raises(InvalidInputError):
            Histogram({"a": -1})

    def test_rejects_inconsistent_total(self):
        with pytest.raises(InvalidInputError):
            Histogram({"a": 2}, total=5)

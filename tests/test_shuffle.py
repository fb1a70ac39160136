import numpy as np
import pytest
from scipy.stats import chisquare

from shuffleleak import (
    Categorical,
    InvalidInputError,
    InvalidParameterError,
    ShuffleSample,
    make_uniform,
    make_zipf,
    position_posterior,
    sample_shuffle_only,
)

from oracles import random_categorical


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

    @pytest.mark.parametrize("seed, p, q, n, expected", [
        (0, make_zipf(4, 0.7), make_uniform(4), 6, ((1, 1, 2, 4, 4, 2), 3, 2)),
        (1, dist(0.3, 0.7, labels="ab"), dist(0.2, 0.5, 0.3, labels="abc"), 5,
         (("a", "c", "b", "c", "b"), 5, "b")),
        (2, make_uniform(3), make_zipf(3, 1.0), 8, ((2, 1, 1, 1, 1, 1, 2, 2), 2, 1)),
    ])
    def test_seeded_draws_are_reproduced(self, seed, p, q, n, expected):
        # recorded values: the draw order (target, covers, permutation) and
        # the inverse-CDF search fix every seeded sample
        s = sample_shuffle_only(p, q, n, np.random.default_rng(seed))
        assert (s.z, s.k_true, s.y1) == expected

    def test_sample_invariant_enforced(self):
        with pytest.raises(InvalidInputError):
            ShuffleSample(z=("a", "b"), k_true=1, y1="b")


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

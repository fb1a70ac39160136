import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shuffleleak import (
    AbsoluteContinuityError,
    Categorical,
    InvalidParameterError,
    chi2_divergence,
    entropy,
    kl_divergence,
    make_uniform,
    make_zipf,
    split_support,
)


def dist(*probs, labels=None):
    labels = labels or tuple(range(1, len(probs) + 1))
    return Categorical(labels, probs)


@st.composite
def categoricals(draw, min_size=1, max_size=5):
    m = draw(st.integers(min_size, max_size))
    w = draw(
        st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=m, max_size=m)
    )
    w = np.asarray(w)
    return Categorical(tuple(range(1, m + 1)), w / w.sum())


class TestConstruction:
    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            dist(-0.1, 1.1)

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidParameterError):
            dist(0.5, 0.6)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(InvalidParameterError):
            Categorical(("a", "a"), (0.5, 0.5))

    def test_renormalizes_within_tolerance(self):
        d = Categorical(("a", "b"), (0.5, 0.5 + 5e-10))
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(d=categoricals(), bad=st.sampled_from([math.nan, math.inf, -math.inf]), data=st.data())
    def test_rejects_non_finite(self, d, bad, data):
        # NaN passes every ordered comparison, so it must be rejected by name
        probs = np.array(d.probs)
        probs[data.draw(st.integers(0, len(probs) - 1))] = bad
        with pytest.raises(InvalidParameterError):
            Categorical(d.labels, probs)

    def test_prob_lookup_defaults_to_zero(self):
        assert dist(1.0).prob("missing") == 0.0


class TestConstructors:
    def test_uniform_m2(self):
        assert make_uniform(2).probs.tolist() == [0.5, 0.5]

    def test_uniform_point_mass(self):
        assert make_uniform(1).probs.tolist() == [1.0]

    def test_uniform_m4(self):
        assert make_uniform(4).probs.tolist() == [0.25] * 4

    def test_uniform_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            make_uniform(0)

    def test_zipf_alpha_zero_is_uniform(self):
        assert np.allclose(make_zipf(4, 0.0).probs, 0.25)

    def test_zipf_m2_alpha1(self):
        assert np.allclose(make_zipf(2, 1.0).probs, [2 / 3, 1 / 3])

    def test_zipf_m4_alpha07(self):
        w = np.arange(1, 5, dtype=float) ** -0.7
        assert np.allclose(make_zipf(4, 0.7).probs, w / w.sum(), atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(allow_nan=True, allow_infinity=True))
    def test_zipf_is_finite_or_rejected(self, alpha):
        try:
            d = make_zipf(4, alpha)
        except InvalidParameterError:
            assert not (math.isfinite(alpha) and alpha >= 0)
        else:
            assert np.all(np.isfinite(d.probs)) and d.probs.sum() == pytest.approx(1.0)

    def test_zipf_rejects_negative_alpha(self):
        with pytest.raises(InvalidParameterError):
            make_zipf(3, -0.5)


class TestEntropy:
    def test_uniform2(self):
        assert entropy(make_uniform(2)) == pytest.approx(math.log(2), abs=1e-12)

    def test_point_mass(self):
        assert entropy(dist(1.0, 0.0)) == 0.0

    def test_zipf_matches_direct_sum(self):
        d = make_zipf(4, 0.7)
        expect = -sum(p * math.log(p) for p in d.probs)
        assert entropy(d) == pytest.approx(expect, abs=1e-14)


class TestDivergences:
    def test_kl_self_is_zero(self):
        d = make_zipf(3, 0.5)
        assert kl_divergence(d, d) == pytest.approx(0.0, abs=1e-15)

    def test_kl_single_term(self):
        assert kl_divergence(dist(1.0, 0.0), dist(0.5, 0.5)) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_kl_zipf_uniform_direct_sum(self):
        p, q = make_zipf(4, 0.7), make_uniform(4)
        expect = sum(pi * math.log(pi / qi) for pi, qi in zip(p.probs, q.probs))
        assert kl_divergence(p, q) == pytest.approx(expect, abs=1e-14)

    def test_kl_raises_outside_support(self):
        with pytest.raises(AbsoluteContinuityError):
            kl_divergence(dist(0.5, 0.5), dist(1.0, 0.0))

    def test_chi2_self_is_zero(self):
        d = make_zipf(3, 1.0)
        assert chi2_divergence(d, d) == 0.0

    def test_chi2_two_term(self):
        assert chi2_divergence(dist(1.0, 0.0), dist(0.5, 0.5)) == pytest.approx(1.0)

    def test_chi2_zipf_uniform_direct_sum(self):
        p, q = make_zipf(4, 0.7), make_uniform(4)
        expect = sum((pi - qi) ** 2 / qi for pi, qi in zip(p.probs, q.probs))
        assert chi2_divergence(p, q) == pytest.approx(expect, abs=1e-14)

    def test_alignment_by_label_not_position(self):
        p = Categorical(("a", "b"), (0.3, 0.7))
        q = Categorical(("b", "a"), (0.7, 0.3))
        assert kl_divergence(p, q) == pytest.approx(0.0, abs=1e-15)

    @given(categoricals(min_size=2), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, d, rnd):
        idx = list(range(len(d)))
        rnd.shuffle(idx)
        perm = Categorical(
            tuple(d.labels[i] for i in idx), [d.probs[i] for i in idx]
        )
        q = make_uniform(len(d))
        q_perm = Categorical(
            tuple(q.labels[i] for i in idx), [q.probs[i] for i in idx]
        )
        assert entropy(perm) == pytest.approx(entropy(d), abs=1e-12)
        assert kl_divergence(perm, q_perm) == pytest.approx(
            kl_divergence(d, q), abs=1e-12
        )
        assert chi2_divergence(perm, q_perm) == pytest.approx(
            chi2_divergence(d, q), abs=1e-12
        )

    @given(categoricals(min_size=2), categoricals(min_size=2))
    @settings(max_examples=40, deadline=None)
    def test_kl_nonnegative_and_bounded(self, p, q):
        if len(p) != len(q):
            return
        v = kl_divergence(p, q)
        assert v >= -1e-12
        assert v <= math.log(1.0 / min(x for x in q.probs if x > 0)) + 1e-12

    @given(categoricals(min_size=2))
    @settings(max_examples=30, deadline=None)
    def test_kl_zero_iff_identical(self, p):
        q = make_uniform(len(p))
        if p.same_mass(q, tol=0.0):
            assert kl_divergence(p, q) == pytest.approx(0.0, abs=1e-15)
        else:
            assert kl_divergence(p, q) > 0.0


class TestSplitSupport:
    def test_absolutely_continuous_passthrough(self):
        p, q = make_zipf(3, 0.3), make_uniform(3)
        beta, restricted = split_support(p, q)
        assert beta == 0.0
        assert restricted is p

    def test_fully_disjoint(self):
        beta, restricted = split_support(dist(1.0, 0.0), dist(0.0, 1.0))
        assert beta == 1.0
        assert restricted is None

    def test_partial_overlap(self):
        p = dist(0.5, 0.3, 0.2)
        q = dist(0.6, 0.4, 0.0)
        beta, restricted = split_support(p, q)
        assert beta == pytest.approx(0.2, abs=1e-15)
        assert restricted.labels == (1, 2)
        assert np.allclose(restricted.probs, [0.625, 0.375])

    @given(categoricals(min_size=2, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_restriction_never_violates_continuity(self, p):
        # cover distribution that misses the last symbol
        qv = np.asarray(p.probs).copy()
        qv[-1] = 0.0
        if qv.sum() == 0:
            return
        q = Categorical(p.labels, qv / qv.sum())
        beta, restricted = split_support(p, q)
        if restricted is not None:
            kl_divergence(restricted, q)  # must not raise

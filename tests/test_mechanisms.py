import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shuffleleak import (
    Categorical,
    InvalidInputError,
    InvalidParameterError,
    Randomizer,
    blanket_of_randomizer,
    ldp_epsilon,
    make_krr,
)
from shuffleleak.mechanisms import BOT


class TestKrr:
    def test_k2_ln3(self):
        r = make_krr(2, math.log(3))
        assert np.allclose(r.kernel, [[0.75, 0.25], [0.25, 0.75]])

    def test_k4_eps1(self):
        r = make_krr(4, 1.0)
        e = math.e
        assert r.kernel[0, 0] == pytest.approx(e / (e + 3), abs=1e-15)
        assert r.kernel[0, 1] == pytest.approx(1 / (e + 3), abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 5), bad=st.sampled_from([math.nan, math.inf, -math.inf]), data=st.data())
    def test_randomizer_rejects_non_finite(self, k, bad, data):
        kernel = np.array(make_krr(k, 1.0).kernel)
        kernel[data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))] = bad
        with pytest.raises(InvalidParameterError):
            Randomizer(range(k), range(k), kernel)

    def test_rejects_k1(self):
        with pytest.raises(InvalidParameterError):
            make_krr(1, 1.0)

    def test_rejects_infinite_eps(self):
        with pytest.raises(InvalidParameterError):
            make_krr(4, math.inf)

    def test_rejects_overflowing_eps(self):
        # e^eps0 overflows a float above eps0 ~ 709.78
        with pytest.raises(InvalidParameterError, match="eps0"):
            make_krr(4, 1000.0)

    def test_largest_finite_eps(self):
        r = make_krr(4, 709.0)
        assert np.allclose(r.kernel.sum(axis=1), 1.0) and r.kernel[0, 0] == 1.0

    def test_rows_sum_to_one(self):
        r = make_krr(5, 0.3)
        assert np.allclose(r.kernel.sum(axis=1), 1.0)


class TestLdpEpsilon:
    @pytest.mark.parametrize("k,eps", [(2, 0.2), (3, 1.0), (4, math.log(3)), (6, 2.5)])
    def test_krr_recovers_eps(self, k, eps):
        assert ldp_epsilon(make_krr(k, eps)) == pytest.approx(eps, abs=1e-12)

    def test_identity_kernel_is_infinite(self):
        r = Randomizer((1, 2), (1, 2), np.eye(2))
        assert ldp_epsilon(r) == math.inf

    def test_constant_rows_give_zero(self):
        r = Randomizer((1, 2, 3), ("a", "b"), [[0.4, 0.6]] * 3)
        assert ldp_epsilon(r) == 0.0


def family(*rows):
    """A randomizer whose rows are ``rows``, on inputs 0, 1, ..."""
    return Randomizer(range(len(rows)), rows[0].labels, [row.probs for row in rows])


class TestBlanketOfFamily:
    def test_identical_sources(self):
        q = Categorical(("a", "b"), (0.3, 0.7))
        d = blanket_of_randomizer(family(q, q, q))
        assert d.gamma == 1.0
        assert d.blanket.same_mass(q, tol=1e-15)
        assert d.leftovers == {}
        assert d.generalized_blanket.prob(BOT) == 0.0

    def test_two_sources(self):
        d = blanket_of_randomizer(
            family(Categorical(("a", "b"), (0.3, 0.7)), Categorical(("a", "b"), (0.5, 0.5)))
        )
        assert d.gamma == pytest.approx(0.8, abs=1e-15)
        assert np.allclose(d.blanket.probs, [0.375, 0.625])
        assert np.allclose(d.leftovers[0].probs, [0.0, 1.0])
        assert np.allclose(d.leftovers[1].probs, [1.0, 0.0])

    def test_generalized_blanket_example(self):
        d = blanket_of_randomizer(
            family(Categorical(("y1", "y2"), (0.3, 0.7)), Categorical(("y1", "y2"), (0.5, 0.5)))
        )
        g = d.generalized_blanket
        assert g.prob("y1") == pytest.approx(0.3, abs=1e-12)
        assert g.prob("y2") == pytest.approx(0.5, abs=1e-12)
        assert g.prob(BOT) == pytest.approx(0.2, abs=1e-12)

    def test_disjoint_sources_gamma_zero(self):
        a = Categorical(("a", "b"), (1.0, 0.0))
        b = Categorical(("a", "b"), (0.0, 1.0))
        d = blanket_of_randomizer(family(a, b))
        assert d.gamma == 0.0
        assert d.blanket is None
        assert d.generalized_blanket.prob(BOT) == 1.0
        assert d.leftovers[0].same_mass(a) and d.leftovers[1].same_mass(b)

    @given(
        st.lists(
            st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
            min_size=2,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_mixture_identity(self, rows):
        sources = [
            Categorical((1, 2, 3), np.asarray(r) / np.sum(r)) for r in rows
        ]
        d = blanket_of_randomizer(family(*sources))
        for i, src in enumerate(sources):
            for lab in src.labels:
                if d.gamma == 1.0:
                    recon = d.blanket.prob(lab)
                else:
                    recon = d.gamma * d.blanket.prob(lab) + (
                        1 - d.gamma
                    ) * d.leftovers[i].prob(lab)
                assert recon == pytest.approx(src.prob(lab), abs=1e-9)
        if d.gamma < 1.0:
            for lo in d.leftovers.values():
                assert np.all(lo.probs >= 0)
                assert lo.probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestBlanketOfRandomizer:
    def test_krr_generalized_blanket(self):
        k, eps = 4, 1.0
        d = blanket_of_randomizer(make_krr(k, eps))
        e = math.exp(eps)
        for y in range(1, k + 1):
            assert d.generalized_blanket.prob(y) == pytest.approx(
                1 / (e + k - 1), abs=1e-12
            )
        assert d.generalized_blanket.prob(BOT) == pytest.approx(
            (e - 1) / (e + k - 1), abs=1e-12
        )

    def test_krr2_ln3_gamma_half(self):
        d = blanket_of_randomizer(make_krr(2, math.log(3)))
        assert d.gamma == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(d.blanket.probs, [0.5, 0.5])
        assert d.generalized_blanket.prob(BOT) == pytest.approx(0.5, abs=1e-12)

    def test_constant_randomizer(self):
        r = Randomizer((1, 2), ("a", "b"), [[0.4, 0.6], [0.4, 0.6]])
        d = blanket_of_randomizer(r)
        assert d.gamma == 1.0
        assert np.allclose(d.blanket.probs, [0.4, 0.6])

    def test_leftovers_keyed_by_input(self):
        d = blanket_of_randomizer(make_krr(2, math.log(3)))
        assert set(d.leftovers) == {1, 2}
        assert np.allclose(d.leftovers[1].probs, [1.0, 0.0])
        assert np.allclose(d.leftovers[2].probs, [0.0, 1.0])


class TestRandomizerValidation:
    def test_rejects_bad_rows(self):
        with pytest.raises(InvalidParameterError, match="probabilities sum to"):
            Randomizer((1,), (1, 2), [[0.7, 0.7]])

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidParameterError, match="probabilities must be nonnegative"):
            Randomizer((1,), (1, 2), [[1.2, -0.2]])

    def test_unknown_input_symbol(self):
        r = make_krr(2, 1.0)
        with pytest.raises(InvalidInputError):
            r.row(99)

    def test_rejects_repeated_outputs(self):
        with pytest.raises(InvalidParameterError, match="labels must be distinct"):
            Randomizer((1,), (1, 1), [[0.5, 0.5]])

    def test_rows_are_built_once(self):
        r = Randomizer(("a", "b"), (1, 2, 3), [[0.2, 0.3, 0.5], [0.6, 0.4, 0.0]])
        for i, x in enumerate(r.input_labels):
            assert r.row_dist(x) is r.row_dist(x) and r.row(x) is r.row_dist(x).probs
            assert r.kernel[i].tobytes() == r.row(x).tobytes()
        assert not r.kernel.flags.writeable

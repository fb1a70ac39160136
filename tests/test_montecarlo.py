import itertools
import math
import tracemalloc

import numpy as np
import pytest

from shuffleleak import (
    Categorical,
    InvalidParameterError,
    Randomizer,
    estimate_input_mi,
    estimate_message_mi,
    estimate_position_mi,
    input_mi_fixed_others,
    input_mi_iid_others,
    make_krr,
    make_uniform,
    make_zipf,
    matched_message_mi,
    message_mi_exact,
    position_mi_exact,
)
from shuffleleak import montecarlo
from shuffleleak.exact import input_form, message_form, position_form
from shuffleleak.montecarlo import (
    BLOCK_SIZE,
    _block_rng,
    _block_scores,
    _blocks,
    _control,
    _draw,
    _estimate,
    _quadratic,
    _score,
)
from shuffleleak.runner import preset_configs

ZIPF = make_zipf(4, 0.7)
U4 = make_uniform(4)


def no_control(form):
    """The zero control, under which a block holds the plain scores."""
    return np.zeros((len(form.cover), len(form.cover)))


def within(est, truth, slack=0.0):
    return abs(est.estimate - truth) <= 3 * est.stderr + slack


def retry_once(run, check):
    """3-sigma checks fail ~0.3% of the time; one retry with a fresh seed
    keeps the suite stable without hiding real bias."""
    first = run(101)
    if check(first):
        return first
    second = run(202)
    assert check(second), (first, second)
    return second


class TestDeterminism:
    def test_bit_identical_repeats(self):
        a = estimate_position_mi(ZIPF, U4, 30, samples=9999, seed=5)
        b = estimate_position_mi(ZIPF, U4, 30, samples=9999, seed=5)
        assert a == b

    def test_seed_changes_result(self):
        a = estimate_message_mi(ZIPF, U4, 30, samples=5000, seed=1)
        b = estimate_message_mi(ZIPF, U4, 30, samples=5000, seed=2)
        assert a.estimate != b.estimate

    def test_result_records_provenance(self):
        r = estimate_message_mi(ZIPF, U4, 8, samples=1234, seed=99)
        assert r.samples == 1234 and r.seed == 99


class TestDegenerate:
    def test_matched_position_is_exactly_zero(self):
        r = estimate_position_mi(U4, U4, 100, samples=4000, seed=3)
        assert r.estimate == 0.0 and r.stderr == 0.0

    def test_point_mass_message_is_zero(self):
        p = Categorical((1, 2), (1.0, 0.0))
        r = estimate_message_mi(p, make_uniform(2), 20, samples=4000, seed=3)
        assert r.estimate == 0.0

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_sure_input_leaks_exactly_zero(self, n):
        # the divergence mixes its own likelihood ratios, so a point-mass
        # prior gives a posterior equal to its prior, not rounding off 1
        r = make_krr(3, 0.8)
        prior = Categorical(r.input_labels, (0.0, 0.0, 1.0))
        assert input_mi_iid_others(r, prior, n) == 0.0
        others = tuple(itertools.islice(itertools.cycle(r.input_labels), n - 1))
        assert input_mi_fixed_others(r, prior, others) == 0.0
        est = estimate_input_mi(r, prior, n, samples=5000, seed=1)
        assert (est.estimate, est.stderr) == (0.0, 0.0)

    def test_constant_rows_input_zero(self):
        from shuffleleak import Randomizer

        rnd = Randomizer((1, 2), (1, 2), [[0.4, 0.6], [0.4, 0.6]])
        r = estimate_input_mi(rnd, make_uniform(2), 15, samples=4000, seed=3)
        assert r.estimate == pytest.approx(0.0, abs=1e-12)

    def test_rejects_zero_samples(self):
        with pytest.raises(InvalidParameterError):
            estimate_position_mi(U4, U4, 5, samples=0, seed=0)

    def test_input_support_violation(self):
        # only an input without prior mass can put a row's mass outside the
        # output marginal, and the input form drops it
        rnd = Randomizer((1, 2), (1, 2), [[1.0, 0.0], [0.0, 1.0]])
        prior = Categorical((1, 2), (1.0, 0.0))
        r = estimate_input_mi(rnd, prior, 5, samples=100, seed=0)
        assert (r.estimate, r.stderr) == (0.0, 0.0)
        assert input_mi_iid_others(rnd, prior, 5) == 0.0
        rnd = Randomizer((1, 2, 3), (1, 2, 3), [[0.6, 0.4, 0.0], [0.3, 0.7, 0.0], [0.0, 0.2, 0.8]])
        prior = Categorical((1, 2, 3), (0.5, 0.5, 0.0))
        r = estimate_input_mi(rnd, prior, 5, samples=20_000, seed=0)
        assert abs(r.estimate - input_mi_iid_others(rnd, prior, 5)) <= 5 * r.stderr


class TestConsistency:
    def test_position_against_enumeration(self):
        truth = position_mi_exact(ZIPF, U4, 8)
        retry_once(
            lambda s: estimate_position_mi(ZIPF, U4, 8, samples=60_000, seed=s),
            lambda r: within(r, truth),
        )

    def test_message_against_enumeration(self):
        truth = message_mi_exact(ZIPF, U4, 8)
        retry_once(
            lambda s: estimate_message_mi(ZIPF, U4, 8, samples=60_000, seed=s),
            lambda r: within(r, truth),
        )

    def test_message_against_closed_form(self):
        u2 = make_uniform(2)
        truth = matched_message_mi(u2, 2)
        retry_once(
            lambda s: estimate_message_mi(u2, u2, 2, samples=60_000, seed=s),
            lambda r: within(r, truth),
        )

    def test_input_against_exact_iid_law(self):
        r = make_krr(4, 1.0)
        prior = make_uniform(4)
        truth = input_mi_iid_others(r, prior, 4)
        retry_once(
            lambda s: estimate_input_mi(r, prior, 4, samples=60_000, seed=s),
            lambda r_: within(r_, truth),
        )

    def test_matched_uniform4_large_n_rate(self):
        # leading rate (m-1)/(2n) at n=128 with generous statistical slack
        target = 3 / (2 * 128)
        retry_once(
            lambda s: estimate_message_mi(U4, U4, 128, samples=100_000, seed=s),
            lambda r: abs(r.estimate - target) <= 3 * r.stderr + 0.1 * target,
        )

    def test_hidden_symbol_channel(self):
        # target sometimes emits a symbol the cover cannot produce
        p = Categorical((1, 2, 3), (0.5, 0.3, 0.2))
        q = Categorical((1, 2, 3), (0.6, 0.4, 0.0))
        truth = position_mi_exact(p, q, 12)
        retry_once(
            lambda s: estimate_position_mi(p, q, 12, samples=60_000, seed=s),
            lambda r: within(r, truth),
        )


class TestPerSampleStatistics:
    def test_position_stats_nonnegative(self):
        form = position_form(ZIPF, U4, 50)
        stats = _block_scores(form, 50, no_control(form), _block_rng(11, 0), 4096)
        assert stats.min() >= -1e-12

    def test_message_stats_nonnegative(self):
        form = message_form(ZIPF, U4, 50)
        stats = _block_scores(form, 50, no_control(form), _block_rng(12, 0), 4096)
        assert stats.min() >= -1e-12

    def test_input_stats_nonnegative(self):
        form = input_form(make_krr(4, 1.0), U4, 50)
        stats = _block_scores(form, 50, no_control(form), _block_rng(13, 0), 4096)
        assert stats.min() >= -1e-12

    def test_stderr_definition(self):
        # the estimate is the mean of the block scores over the same draws,
        # where each half of a block subtracts the control if that lowers
        # the other half's variance, and the stderr is their plug-in std /
        # sqrt(samples)
        r = estimate_message_mi(ZIPF, U4, 8, samples=5000, seed=8)
        form = message_form(ZIPF, U4, 8)
        control = _control(form, 8)
        assert control.any()
        stats = []
        for block, size in [(0, 4096), (1, 904)]:
            h = _draw(form, 8, _block_rng(8, block), size)
            score, ctl = _score(form, 8, h), np.einsum("ar,ab,br->r", h, control, h)
            for mine, other in [(slice(0, size // 2), slice(size // 2, size)),
                                (slice(size // 2, size), slice(0, size // 2))]:
                use = np.var(score[other] - ctl[other]) < np.var(score[other])
                stats.append(score[mine] - use * ctl[mine])
        stats = np.concatenate(stats)
        assert r.estimate == pytest.approx(stats.mean(), abs=1e-12)
        assert r.stderr == pytest.approx(stats.std(ddof=1) / math.sqrt(5000), rel=1e-9)


def drawn_mean(form, n, values=None):
    """Sum over every draw of its probability times values(h), by default
    its score plus the constant. A draw is the target's symbol j, with
    probability target_j / sum(target), then each of the n - 1 covers in
    turn."""
    if values is None:
        return drawn_mean(form, n, lambda h: _score(form, n, h)) + form.constant
    m = len(form.cover)
    seqs = np.array(list(itertools.product(range(m), repeat=n - 1)), dtype=np.int64)
    seqs = seqs.reshape(m ** (n - 1), n - 1)
    covers = (seqs[:, :, None] == np.arange(m)).sum(axis=1).T  # (symbols, draws)
    p_covers = np.prod(form.cover[seqs], axis=1)
    terms = []
    for j in np.nonzero(form.target)[0]:
        h = covers.copy()
        h[j] += 1
        p_draw = form.target[j] / form.target.sum() * p_covers
        terms.append(float(p_draw @ values(h)))
    return math.fsum(terms)


def control_mean(form, n):
    """The control's mean under the draw law, with design steps allowed
    below MIN_STEP: the mean is 0 for any step, and the control must not
    be 0 where the design has room, or the check would be empty."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "MIN_STEP", 2.0 ** -20)
        control = _control(form, n)
    assert control.any() or n == 1
    return drawn_mean(form, n, lambda h: _quadratic(control, h))


P3 = Categorical((1, 2, 3), (0.5, 0.3, 0.2))
Q3_HIDDEN = Categorical((1, 2, 3), (0.6, 0.4, 0.0))  # symbol 3 is hidden
P3_GAP = Categorical((1, 2, 3), (0.7, 0.0, 0.3))  # a visible symbol the target never sends
Q3 = Categorical((1, 2, 3), (0.2, 0.3, 0.5))
# output 3 is never produced, and input 2 has no prior mass
R_HIDDEN = Randomizer((1, 2, 3), (1, 2, 3), [[0.6, 0.4, 0.0], [0.1, 0.9, 0.0], [0.5, 0.5, 0.0]])
PRIOR_GAP = Categorical((1, 2, 3), (0.3, 0.0, 0.7))


class TestSharedForms:
    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    @pytest.mark.parametrize("p,q", [(ZIPF, U4), (P3, Q3_HIDDEN), (P3_GAP, Q3)])
    def test_draw_law_times_score_is_exact_two_distribution(self, p, q, n):
        assert drawn_mean(position_form(p, q, n), n) == pytest.approx(
            position_mi_exact(p, q, n), abs=1e-12
        )
        assert drawn_mean(message_form(p, q, n), n) == pytest.approx(
            message_mi_exact(p, q, n), abs=1e-12
        )
        assert abs(control_mean(position_form(p, q, n), n)) <= 1e-12
        assert abs(control_mean(message_form(p, q, n), n)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    @pytest.mark.parametrize("r,prior", [(make_krr(4, 1.0), U4), (R_HIDDEN, PRIOR_GAP)])
    def test_draw_law_times_score_is_exact_input(self, r, prior, n):
        assert drawn_mean(input_form(r, prior, n), n) == pytest.approx(
            input_mi_iid_others(r, prior, n), abs=1e-12
        )
        assert abs(control_mean(input_form(r, prior, n), n)) <= 1e-12

    def test_all_hidden_position_is_log_n(self):
        p = Categorical((1, 2), (0.5, 0.5))
        q = Categorical((3,), (1.0,))
        r = estimate_position_mi(p, q, 1024, samples=5000, seed=4)
        assert r.estimate == math.log(1024) and r.stderr == 0.0
        with pytest.raises(InvalidParameterError):
            estimate_position_mi(p, q, 1024, samples=0, seed=4)

    def test_hidden_part_adds_no_spread(self):
        # a hidden symbol used to be a sampled outcome; now its term is exact
        p = Categorical((1, 2, 3), (0.5, 0.3, 0.2))
        q = Categorical((1, 2, 3), (1.0, 0.0, 0.0))
        r = estimate_position_mi(p, q, 64, samples=5000, seed=5)
        assert r.estimate == pytest.approx(0.5 * math.log(64), abs=1e-12)
        assert r.stderr < 1e-12


def preset_rows(n):
    """(label, form, exact value) of every fig2/fig3 Monte Carlo row at n,
    with the preset's config."""
    for name in ("fig2", "fig3"):
        for cfg in preset_configs(name):
            if cfg.mode == "shuffle_only" and cfg.quantity == "IK":
                yield cfg, position_form(cfg.p, cfg.cover, n), position_mi_exact(cfg.p, cfg.cover, n)
            elif cfg.mode == "shuffle_only":
                yield cfg, message_form(cfg.p, cfg.cover, n), message_mi_exact(cfg.p, cfg.cover, n)
            else:
                r, prior = cfg.mechanism, cfg.input_prior()
                yield cfg, input_form(r, prior, n), input_mi_iid_others(r, prior, n)


class TestControlVariate:
    def test_preset_rows_beat_plain_stderr_at_n16(self):
        # the presets draw a quarter of the samples the plain score needs
        for cfg, form, _ in preset_rows(16):
            assert cfg.samples < 100_000
            control = _control(form, 16)
            controlled = _estimate(
                lambda rng, size: _block_scores(form, 16, control, rng, size), cfg.samples, 0
            )
            plain = _estimate(
                lambda rng, size: _block_scores(form, 16, no_control(form), rng, size), 100_000, 0
            )
            assert controlled.stderr <= plain.stderr, cfg.label

    @pytest.mark.parametrize("n", [4, 16])
    def test_z_scores_against_exact(self, n):
        # unbiased, and the plug-in stderr of the controlled scores is calibrated
        for cfg, form, truth in preset_rows(n):
            control = _control(form, n)
            z = []
            for seed in range(30):
                est = _estimate(
                    lambda rng, size: _block_scores(form, n, control, rng, size), BLOCK_SIZE, seed
                )
                z.append((est.estimate + form.constant - truth) / est.stderr)
            assert abs(np.mean(z)) < 0.65 and 0.6 < np.std(z, ddof=1) < 1.5, (cfg.label, z)

    def test_matched_channel_control_is_zero(self):
        # the score is constant at every design point, so the control is exactly 0
        assert not _control(position_form(ZIPF, ZIPF, 100), 100).any()
        assert not _control(position_form(U4, U4, 100), 100).any()

    @pytest.mark.parametrize("n", [4, 16])
    def test_rare_symbol_gets_no_control(self, n):
        # symbol 3's mean count is about 1e-5 n, so a positive design would
        # need steps far below one count, where the score's curvature has
        # nothing to do with the integer counts the draws take
        p = Categorical((1, 2, 3), (0.6, 0.39999, 1e-5))
        form, truth = message_form(p, p, n), message_mi_exact(p, p, n)
        control = _control(form, n)
        assert not control.any()
        z = []
        for seed in range(30):
            est = _estimate(
                lambda rng, size: _block_scores(form, n, control, rng, size), BLOCK_SIZE, seed
            )
            plain = _estimate(
                lambda rng, size: _block_scores(form, n, no_control(form), rng, size),
                BLOCK_SIZE, seed,
            )
            assert est.stderr <= plain.stderr
            z.append((est.estimate + form.constant - truth) / est.stderr)
        assert abs(np.mean(z)) < 0.65 and 0.5 < np.std(z, ddof=1) < 1.5, z

    def test_each_half_is_chosen_from_the_other(self, monkeypatch):
        # a half's choice must not read its own draws, or the control's mean
        # there would no longer be 0
        form = message_form(ZIPF, U4, 16)
        control = _control(form, 16)
        h = _draw(form, 16, _block_rng(5, 0), 1000)
        score, ctl = _score(form, 16, h), _quadratic(control, h)
        seen = []

        def first_only(scores, ctl):
            seen.append(scores.copy())
            return len(seen) == 1

        monkeypatch.setattr(montecarlo, "_lowers_spread", first_only)
        block = _block_scores(form, 16, control, _block_rng(5, 0), 1000)
        assert np.array_equal(seen[0], score[500:]) and np.array_equal(seen[1], score[:500])
        assert np.array_equal(block[:500], score[:500] - ctl[:500])
        assert np.array_equal(block[500:], score[500:])

    @pytest.mark.parametrize("n", [32, 64])
    def test_a_control_that_adds_spread_is_dropped(self, n):
        # the target's likeliest symbol is the cover's rarest: the quadratic
        # misses the score's tails and would raise the variance 1.6-50x
        p = Categorical((1, 2, 3), (0.15, 0.25, 0.6))
        q = Categorical((1, 2, 3), (0.3, 0.65, 0.05))
        form = message_form(p, q, n)
        control = _control(form, n)
        h = _draw(form, n, _block_rng(0, 0), BLOCK_SIZE)
        score = _score(form, n, h)
        assert np.var(score - _quadratic(control, h)) > 1.5 * np.var(score)
        block = _block_scores(form, n, control, _block_rng(0, 0), BLOCK_SIZE)
        assert np.var(block) <= np.var(score)


class TestStableVariance:
    def test_offset_statistic_keeps_its_spread(self):
        # the spread of 1e4 + U(0, 1e-6) is lost to cancellation in sum x^2 - n mean^2
        def stat(rng, size):
            return 1e4 + rng.uniform(0.0, 1e-6, size)

        samples = 100_000
        r = _estimate(stat, samples, 3)
        stats = np.concatenate([stat(_block_rng(3, b), size) for b, size in _blocks(samples)])
        assert r.stderr == pytest.approx(
            np.std(stats - 1e4, ddof=1) / math.sqrt(samples), rel=1e-6
        )
        assert r.stderr == pytest.approx(1e-6 / math.sqrt(12 * samples), rel=0.02)


class TestBlockMemory:
    @pytest.mark.parametrize("form", [
        position_form(ZIPF, U4, 1024),
        message_form(ZIPF, U4, 1024),
        input_form(make_krr(4, 1.0), U4, 1024),
    ], ids=["position", "message", "input"])
    def test_block_peak_is_bounded_by_the_histogram(self, form):
        # statistics run one symbol (or input) row at a time; a (symbols,
        # rows) float temporary per step used to take a block to 700-800 KiB.
        # The control's one (rows, symbols) product follows the statistic.
        histogram = 4 * BLOCK_SIZE * 8  # the block's (symbols, rows) float64 histogram
        for control in (no_control(form), _control(form, 1024)):
            _block_scores(form, 1024, control, _block_rng(0, 0), BLOCK_SIZE)  # first-call set-up is not counted
            tracemalloc.start()
            try:
                _block_scores(form, 1024, control, _block_rng(0, 1), BLOCK_SIZE)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3.5 * histogram

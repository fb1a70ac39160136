import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom, chisquare, multinomial

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
    signal_rate,
)
from shuffleleak import exact, montecarlo
from shuffleleak.exact import (
    CHUNK_ROWS,
    SIMPLEX_ROWS,
    binomial_weights,
    input_form,
    message_form,
    position_form,
)
from shuffleleak.montecarlo import (
    BLOCK_SIZE,
    _block_scores,
    _control,
    _drawer,
    _estimate,
    _inverse_cdf,
    _keyed_split,
    _proposal,
    _quadratic,
    _score,
    _scorer,
    _split_keys,
    _splits,
    _table,
)
from shuffleleak.runner import PRESET_SAMPLES, cells, preset_configs

ZIPF = make_zipf(4, 0.7)
U4 = make_uniform(4)


def block_rng(seed, block):
    """A new generator on block ``block``'s stream of a row at ``seed``."""
    return np.random.Generator(np.random.Philox(key=(seed << 64) | block))


def block_sizes(samples):
    """The sizes of a row's blocks of ``samples`` draws, in block order."""
    return [min(BLOCK_SIZE, samples - start) for start in range(0, samples, BLOCK_SIZE)]


def no_control(form):
    """The zero control, under which a block holds the plain scores."""
    return np.zeros((len(form.cover), len(form.cover)))


def row_estimate(form, n, control, samples, seed):
    """The estimator's controlled estimate of the form's mean part, through
    the row's own draw."""
    block = _scorer(form, n, control, samples)
    return _estimate(lambda rng, size: _block_scores(*block(rng, size)), samples, seed)


def plain_block(form, n, seed, size=BLOCK_SIZE):
    """The plain scores of block 0 of a row of ``size`` samples at ``seed``."""
    return _block_scores(*_scorer(form, n, no_control(form), size)(block_rng(seed, 0), size))


def table_draw(form, n, seed, block, size):
    """The histograms of one block of a tabled row, as the estimator draws them."""
    table, cdf = _table(form, n)
    return table[:, _inverse_cdf(cdf, block_rng(seed, block), size)]


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

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("n", [8, 1024], ids=["tabled", "drawn"])
    def test_each_block_draws_its_own_philox_stream(self, n, seed):
        # block b gets a generator on Philox key (b, seed) at counter 0
        # with nothing buffered, so its draws are a new generator's on that
        # key; the last block is partial
        form = message_form(ZIPF, U4, n)
        samples = 5 * BLOCK_SIZE + 3
        block = _scorer(form, n, _control(form, n), samples)
        seen = []

        def stat(rng, size):
            state = rng.bit_generator.state
            seen.append((state["state"]["key"].tolist(), state["state"]["counter"].tolist(),
                         state["buffer_pos"], state["has_uint32"], size))
            scores = _block_scores(*block(rng, size))
            reference = _block_scores(*block(block_rng(seed, len(seen) - 1), size))
            assert np.array_equal(scores, reference)
            return scores

        got = _estimate(stat, samples, seed)
        sizes = [BLOCK_SIZE] * 5 + [3]
        assert seen == [([b, seed], [0] * 4, 4, 0, size) for b, size in enumerate(sizes)]
        r = estimate_message_mi(ZIPF, U4, n, samples=samples, seed=seed)
        assert (r.estimate, r.stderr) == (got.estimate + form.constant, got.stderr)

    @pytest.mark.parametrize("case", ["tabled", "drawn", "drawn_m2"])
    def test_a_row_of_at_most_4096_samples_does_not_read_the_block_size(
        self, monkeypatch, case
    ):
        # such a row is block 0 at its own size, from the same key, whatever
        # BLOCK_SIZE is; the table and root-table rules read SIMPLEX_ROWS, so
        # m = 2 at n = 8192 (8193 histograms) is drawn, its root by binomial
        p, q, n = {"tabled": (ZIPF, U4, 8), "drawn": (ZIPF, U4, 1024),
                   "drawn_m2": (M2_P, M2_Q, 8192)}[case]
        results = []
        for size in (4096, 12_288):
            monkeypatch.setattr(montecarlo, "BLOCK_SIZE", size)
            results.append([estimate_message_mi(p, q, n, samples=s, seed=7) for s in (4093, 4096)])
        assert results[0] == results[1]


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

    def test_rejects_one_sample(self):
        # its stderr would read 0, even where every target message is hidden
        hidden = Categorical((9,), (1.0,))  # the cover sends no symbol of ZIPF
        for estimate, q in ((estimate_position_mi, U4), (estimate_message_mi, hidden)):
            with pytest.raises(InvalidParameterError, match="samples must be at least 2"):
                estimate(ZIPF, q, 5, samples=1, seed=0)
        with pytest.raises(InvalidParameterError, match="samples must be at least 2"):
            estimate_input_mi(make_krr(4, 1.0), U4, 5, samples=1, seed=0)
        r = estimate_message_mi(ZIPF, U4, 5, samples=2, seed=0)
        assert r.samples == 2 and r.stderr > 0

    def test_population_beyond_int64_is_refused(self):
        # the n - 1 cover counts of a draw are an int64
        for estimate in (estimate_position_mi, estimate_message_mi):
            with pytest.raises(InvalidParameterError):
                estimate(ZIPF, U4, 2**63 + 1, samples=10, seed=0)
        with pytest.raises(InvalidParameterError):
            estimate_input_mi(make_krr(4, 1.0), U4, 10**20, samples=10, seed=0)
        # n = 2^63 still draws: nearly every cover lands on symbol 1 here,
        # so the target's message must not be added to an int64 count
        p, q = Categorical((1, 2), (0.5, 0.5)), Categorical((1, 2), (1.0, 1e-300))
        r = estimate_message_mi(p, q, 2**63, samples=200, seed=0)
        assert r.estimate == pytest.approx(math.log(2), rel=1e-12)

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
        stats = plain_block(form, 50, 11)
        assert stats.min() >= -1e-12

    def test_message_stats_nonnegative(self):
        form = message_form(ZIPF, U4, 50)
        stats = plain_block(form, 50, 12)
        assert stats.min() >= -1e-12

    def test_input_stats_nonnegative(self):
        form = input_form(make_krr(4, 1.0), U4, 50)
        stats = plain_block(form, 50, 13)
        assert stats.min() >= -1e-12

    def test_stderr_definition(self):
        # the estimate is the mean of the block scores over the same draws,
        # where each half of a block subtracts the control if that lowers
        # the other half's variance, and the stderr is their plug-in std /
        # sqrt(samples); at n = 8 the histograms come from the table
        samples = BLOCK_SIZE + 904
        r = estimate_message_mi(ZIPF, U4, 8, samples=samples, seed=8)
        form = message_form(ZIPF, U4, 8)
        control = _control(form, 8)
        assert control.any()
        stats = []
        for block, size in enumerate(block_sizes(samples)):
            h = table_draw(form, 8, 8, block, size)
            score, ctl = _score(form, 8, h), np.einsum("ar,ab,br->r", h, control, h)
            for mine, other in [(slice(0, size // 2), slice(size // 2, size)),
                                (slice(size // 2, size), slice(0, size // 2))]:
                use = np.var(score[other] - ctl[other]) < np.var(score[other])
                stats.append(score[mine] - use * ctl[mine])
        stats = np.concatenate(stats)
        assert r.estimate == pytest.approx(stats.mean(), abs=1e-12)
        assert r.stderr == pytest.approx(stats.std(ddof=1) / math.sqrt(samples), rel=1e-9)


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
        p_draw = _proposal(form)[j] * p_covers
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
            controlled = row_estimate(form, 16, _control(form, 16), cfg.samples, 0)
            plain = row_estimate(form, 16, no_control(form), 100_000, 0)
            assert controlled.stderr <= plain.stderr, cfg.label

    # n = 32 has 6545 histograms: past SIMPLEX_ROWS, tabled for a block of draws
    @pytest.mark.parametrize("n", [4, 16, 32])
    def test_z_scores_against_exact(self, n):
        # unbiased, and the plug-in stderr of the controlled scores is calibrated
        for cfg, form, truth in preset_rows(n):
            control = _control(form, n)
            z = []
            for seed in range(30):
                est = row_estimate(form, n, control, BLOCK_SIZE, seed)
                z.append((est.estimate + form.constant - truth) / est.stderr)
            assert abs(np.mean(z)) < 0.65 and 0.6 < np.std(z, ddof=1) < 1.5, (cfg.label, z)

    def test_preset_rows_agree_with_the_expansions_at_2_26(self):
        # the largest n the README says the rows are checked at
        n = 2**26
        for name in ("fig2", "fig3"):
            for cfg in preset_configs(name, samples=100_000):
                table = cells(cfg)
                reference, _ = table["asym"][1](n, 0)
                z = []
                for seed in range(4):
                    value, stderr = table["mc"][1](n, seed)
                    z.append((value - reference) / stderr)
                assert abs(np.mean(z)) < 2.5, (cfg.label, z)

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
            est = row_estimate(form, n, control, BLOCK_SIZE, seed)
            plain = row_estimate(form, n, no_control(form), BLOCK_SIZE, seed)
            assert est.stderr <= plain.stderr
            z.append((est.estimate + form.constant - truth) / est.stderr)
        assert abs(np.mean(z)) < 0.65 and 0.5 < np.std(z, ddof=1) < 1.5, z

    def test_each_half_is_chosen_from_the_other(self, monkeypatch):
        # a half's choice must not read its own draws, or the control's mean
        # there would no longer be 0
        form = message_form(ZIPF, U4, 16)
        control = _control(form, 16)
        h = _drawer(form, 16, 1000)(block_rng(5, 0), 1000)
        score, ctl = _score(form, 16, h), _quadratic(control, h)
        seen = []

        def first_only(scores, ctl):
            seen.append(scores.copy())
            return len(seen) == 1

        monkeypatch.setattr(montecarlo, "_lowers_spread", first_only)
        block = _block_scores(score.copy(), ctl)
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
        h = _drawer(form, n, BLOCK_SIZE)(block_rng(0, 0), BLOCK_SIZE)
        score = _score(form, n, h)
        assert np.var(score - _quadratic(control, h)) > 1.5 * np.var(score)
        block = _block_scores(score.copy(), _quadratic(control, h))
        assert np.var(block) <= np.var(score)


def draw_law(form, n, h):
    """The reference law sum_j tau_j Mult(h - e_j; n - 1, c) of a drawn
    histogram h, from scipy's multinomial pmf."""
    c = form.cover / form.cover.sum()
    tau = form.target / form.target.sum()
    terms = []
    for j in range(len(c)):
        if h[j] > 0:
            terms.append(tau[j] * multinomial.pmf(h - np.eye(len(c), dtype=int)[j], n - 1, c))
    return math.fsum(terms)


def every_histogram(n, m):
    """Every histogram of n messages over m symbols, as tuples."""
    return [v for v in itertools.product(range(n + 1), repeat=m) if sum(v) == n]


TABLE_FORMS = {
    "zipf-uniform": lambda n: message_form(ZIPF, U4, n),
    "hidden-cover": lambda n: position_form(P3, Q3_HIDDEN, n),
    "target-gap": lambda n: message_form(P3_GAP, Q3, n),
    "input-gaps": lambda n: input_form(R_HIDDEN, PRIOR_GAP, n),
}
M2_P, M2_Q = Categorical((1, 2), (0.3, 0.7)), Categorical((1, 2), (0.6, 0.4))


class TestTableDraw:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("make", TABLE_FORMS.values(), ids=TABLE_FORMS.keys())
    def test_table_law_is_the_draw_law(self, make, n):
        # the table holds each histogram the draw can reach once, with its law
        form = make(n)
        table, cdf = _table(form, n)
        law = dict(zip(map(tuple, table.T.astype(int)), np.diff(cdf, prepend=0.0)))
        assert len(law) == table.shape[1]
        every = every_histogram(n, len(form.cover))
        assert math.comb(n + len(form.cover) - 1, n) == len(every)
        reference = {h: draw_law(form, n, np.array(h)) for h in every}
        assert set(law) == {h for h, p in reference.items() if p > 0}
        for h, p in law.items():
            assert p == pytest.approx(reference[h], abs=1e-12)

    def test_drawn_histograms_pass_chi_square(self):
        # a visible symbol the target never sends leaves states of law 0
        n, samples = 6, 100_000
        form = message_form(P3_GAP, Q3, n)
        h = np.concatenate(
            [table_draw(form, n, 7, b, size) for b, size in enumerate(block_sizes(samples))], axis=1
        ).astype(int)
        states, counts = np.unique(h, axis=1, return_counts=True)
        observed = dict(zip(map(tuple, states.T), counts))
        every = every_histogram(n, len(form.cover))
        law = np.array([draw_law(form, n, np.array(v)) for v in every])
        seen = np.array([observed.pop(v, 0) for v in every])
        assert not observed  # every draw is a histogram of n messages
        assert (seen[law == 0] == 0).all() and (law == 0).any()
        possible = law > 0
        assert (law[possible] * samples >= 5).all()  # no cell too thin for the test
        assert chisquare(seen[possible], law[possible] * samples).pvalue > 1e-3

    def test_each_half_of_a_block_draws_the_law(self):
        # the uniforms are sorted within a half, never across the halves,
        # which would give one half the table's first histograms
        n = 8
        form = message_form(ZIPF, U4, n)
        c, tau = form.cover / form.cover.sum(), form.target / form.target.sum()
        mean = (n - 1) * c + tau
        sd = np.sqrt((n - 1) * c * (1 - c) + tau * (1 - tau))
        h = table_draw(form, n, 3, 0, BLOCK_SIZE)
        for half in (h[:, : BLOCK_SIZE // 2], h[:, BLOCK_SIZE // 2 :]):
            z = (half.mean(axis=1) - mean) / (sd / math.sqrt(half.shape[1]))
            assert (abs(z) < 5).all(), z

    def test_table_up_to_one_block_of_states(self, monkeypatch):
        # a row tables at most max(SIMPLEX_ROWS, min(samples, CHUNK_ROWS))
        # histograms: at two symbols n - 1 has that many, n one more
        built = []
        table = montecarlo._table
        monkeypatch.setattr(montecarlo, "_table", lambda form, n: built.append(n) or table(form, n))
        for samples, bound in ((4000, SIMPLEX_ROWS), (BLOCK_SIZE, BLOCK_SIZE), (10**5, CHUNK_ROWS)):
            built.clear()
            for n in (bound - 1, bound):
                form = message_form(M2_P, M2_Q, n)
                _scorer(form, n, _control(form, n), samples)
            assert built == [bound - 1]
            # above the table a row draws by _drawer
            form = message_form(M2_P, M2_Q, bound)
            control, draw = _control(form, bound), _drawer(form, bound, samples)

            def drawn(rng, size):
                h = draw(rng, size)
                return _block_scores(_score(form, bound, h), _quadratic(control, h))

            plain = _estimate(drawn, samples, 3)
            r = estimate_message_mi(M2_P, M2_Q, bound, samples=samples, seed=3)
            assert (r.estimate, r.stderr) == (plain.estimate + form.constant, plain.stderr)

    @pytest.mark.parametrize("n", [4095, 4096])
    def test_z_scores_at_the_boundary(self, n):
        for form, truth in [
            (position_form(M2_P, M2_Q, n), position_mi_exact(M2_P, M2_Q, n)),
            (message_form(M2_P, M2_Q, n), message_mi_exact(M2_P, M2_Q, n)),
        ]:
            control = _control(form, n)
            z = []
            for seed in range(30):
                est = row_estimate(form, n, control, BLOCK_SIZE, seed)
                z.append((est.estimate + form.constant - truth) / est.stderr)
            assert abs(np.mean(z)) < 0.65 and 0.6 < np.std(z, ddof=1) < 1.5, z

    def test_one_visible_symbol_builds_no_factorial_table(self, monkeypatch):
        # the histogram is (n) surely: one state, whatever n is
        def refuse(*args):
            raise AssertionError(f"called with {args}")

        monkeypatch.setattr(exact, "_log_factorials", refuse)
        monkeypatch.setattr(montecarlo, "_drawer", refuse)
        p = Categorical((1, 2), (0.6, 0.4))
        q = Categorical((1, 2), (1.0, 0.0))
        n = 10**9
        r = estimate_position_mi(p, q, n, samples=5000, seed=1)
        assert r.estimate == pytest.approx(0.4 * math.log(n), rel=1e-12) and r.stderr < 1e-12
        r = estimate_message_mi(p, q, n, samples=5000, seed=1)
        assert r.estimate == pytest.approx(-0.6 * math.log(0.6) - 0.4 * math.log(0.4), rel=1e-12)
        assert r.stderr < 1e-12


def split_draws(form, n, seed, samples):
    """``samples`` histograms drawn by ``_drawer``, block by block, as a row
    at ``seed`` draws them."""
    draw = _drawer(form, n, samples)
    return np.concatenate(
        [draw(block_rng(seed, b), size) for b, size in enumerate(block_sizes(samples))], axis=1
    )


class TestSplitDraw:
    def test_splits_halve_each_range_breadth_first(self):
        c = np.array([0.1, 0.2, 0.3, 0.15, 0.25])
        splits = _splits(c)
        assert [s[:3] for s in splits] == [(0, 2, 5), (0, 1, 2), (2, 3, 5), (3, 4, 5)]
        for lo, mid, hi, p in splits:
            assert p == pytest.approx(c[lo:mid].sum() / c[lo:hi].sum(), rel=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_drawn_histograms_pass_chi_square(self, m):
        # n - 1 = 6 covers; far below the drawn path's usual n, so every
        # histogram has a brute-force law
        n, samples = 7, 100_000
        form = message_form(make_uniform(m), make_zipf(m, 1.3), n)
        h = split_draws(form, n, 11, samples)
        assert (h.sum(axis=0) == n).all() and (h >= 0).all()
        states, counts = np.unique(h.astype(int), axis=1, return_counts=True)
        observed = dict(zip(map(tuple, states.T), counts))
        every = every_histogram(n, m)
        law = np.array([draw_law(form, n, np.array(v)) for v in every])
        assert math.fsum(law) == pytest.approx(1.0, abs=1e-12)
        seen = np.array([observed.pop(v, 0) for v in every])
        assert not observed
        # cells expected fewer than 5 times are pooled into one
        thin = law * samples < 5
        pooled, expected = seen[~thin], law[~thin] * samples
        if thin.any():
            pooled = np.append(pooled, seen[thin].sum())
            expected = np.append(expected, law[thin].sum() * samples)
        assert chisquare(pooled, expected).pvalue > 1e-3

    @pytest.mark.parametrize("n", [4096, 1 << 20])
    def test_mean_and_covariance(self, monkeypatch, n):
        # n = 4096 draws the root from the table, n = 2^20 by rng.binomial
        tables = []
        monkeypatch.setattr(montecarlo, "binomial_weights",
                            lambda k, p: tables.append(k) or binomial_weights(k, p))
        samples = 20 * BLOCK_SIZE
        form = message_form(U4, ZIPF, n)
        h = split_draws(form, n, 5, samples)
        assert tables == ([n - 1] if n <= SIMPLEX_ROWS else [])
        assert (h.sum(axis=0) == n).all()
        c, tau = form.cover / form.cover.sum(), _proposal(form)
        mean = (n - 1) * c + tau
        cov = (n - 1) * (np.diag(c) - np.outer(c, c)) + np.diag(tau) - np.outer(tau, tau)
        z = (h.mean(axis=1) - mean) / np.sqrt(np.diag(cov) / samples)
        assert (abs(z) < 5).all(), z
        # the sample covariance's standard error, for nearly normal counts
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / samples)
        z = (np.cov(h) - cov) / se
        assert (abs(z) < 5).all(), z

    @pytest.mark.parametrize("n", [64, 1 << 20])
    def test_each_half_sorts_its_own_root_counts(self, n):
        # the target sends only the last symbol, so J adds nothing to the
        # first half of the symbols and their sum is the root count
        p = Categorical((1, 2, 3, 4), (0, 0, 0, 1))
        form = position_form(p, ZIPF, n)
        size, half = 1001, 500
        h = _drawer(form, n, size)(block_rng(3, 0), size)
        root = h[:2].sum(axis=0)
        # the root's draws come after J's uniforms, and each half's counts
        # are its own draws, sorted
        reference = block_rng(3, 0)
        reference.random(size)
        share = _splits(form.cover / form.cover.sum())[0][3]
        if n <= SIMPLEX_ROWS:
            cdf = np.cumsum(binomial_weights(n - 1, share))
            cdf /= cdf[-1]
            u = reference.random(size)
            first, second = (np.searchsorted(cdf, np.sort(x), side="right")
                             for x in (u[:half], u[half:]))
        else:
            x = reference.binomial(n - 1, share, size)
            first, second = np.sort(x[:half]), np.sort(x[half:])
        assert np.array_equal(root, np.concatenate([first, second]))
        assert (np.diff(root[:half]) >= 0).all() and (np.diff(root[half:]) >= 0).all()


class TestKeyedSplit:
    N = 127  # the largest parent of a split at n = 128

    @pytest.mark.parametrize("p", [1e-9, 0.3, 0.5, 0.77, 1 - 1e-9])
    def test_cdf_rows_match_the_binomial_weights(self, p):
        keys = _split_keys(self.N + 1, p)
        assert len(keys) == (self.N + 1) * self.N // 2 and (np.diff(keys) >= 0).all()
        for v in range(self.N + 1):
            row = keys[v * (v - 1) // 2 : v * (v + 1) // 2] - (v << 53)
            cdf = np.cumsum(binomial_weights(v, p))
            cdf /= cdf[-1]
            assert np.abs(row / 2.0**53 - cdf[:-1]).max(initial=0.0) <= 1e-12, v

    def test_a_split_clipped_to_one_draws_the_parent(self):
        keys = _split_keys(self.N + 1, 1.0)
        parent = np.arange(self.N + 1).repeat(40)
        assert np.array_equal(_keyed_split(keys, parent, block_rng(0, 0)), parent)
        # the last symbol's share of its range rounds to 0, so that split's p
        # is 1.0 and the symbol never takes a cover
        q = Categorical((1, 2, 3, 4), (0.3, 0.2, 0.5, 1e-300))
        form = message_form(ZIPF, q, 64)
        assert _splits(form.cover / form.cover.sum())[2][3] == 1.0
        h = _drawer(form, 64, PRESET_SAMPLES)(block_rng(0, 0), BLOCK_SIZE)
        assert (h.sum(axis=0) == 64).all() and (h[3] <= 1).all()

    @pytest.mark.parametrize("p", [0.3, 0.77])
    def test_draws_pass_chi_square(self, p):
        draws = 10**5
        keys = _split_keys(self.N + 1, p)
        for v in (0, 1, self.N // 2, self.N):
            x = _keyed_split(keys, np.full(draws, v), block_rng(v, 0))
            seen = np.bincount(x, minlength=v + 1)
            assert len(seen) == v + 1 and x.min() >= 0  # every draw is a count of 0..v
            if v == 0:
                continue
            expected = binom.pmf(np.arange(v + 1), v, p) * draws
            # cells expected fewer than 5 times are pooled into one
            thin = expected < 5
            pooled, expected_pooled = seen[~thin], expected[~thin]
            if thin.any():
                pooled = np.append(pooled, seen[thin].sum())
                expected_pooled = np.append(expected_pooled, expected[thin].sum())
            expected_pooled *= draws / expected_pooled.sum()
            assert chisquare(pooled, expected_pooled).pvalue > 1e-3, v

    def test_z_sweep_against_the_exact_oracles(self, monkeypatch):
        # a preset row's samples reach the wider table (n = 32 at m = 4 and
        # n = 128 at m = 3), the keyed splits (n = 64 and 128 at m = 4, n = 32
        # and 64 at m = 5) and rng.binomial (n = 128 at m = 5)
        monkeypatch.setattr(exact, "MAX_STATES", 10**9)  # m = 5 at n = 128
        keyed = []
        keys = montecarlo._split_keys
        monkeypatch.setattr(montecarlo, "_split_keys",
                            lambda n, p: keyed.append(n) or keys(n, p))
        z = []
        for m in (3, 4, 5):
            p, q, r = make_zipf(m, 0.7), make_uniform(m), make_krr(m, 1.0)
            for n in (32, 64, 128):
                for estimate, truth in (
                    (lambda s: estimate_position_mi(p, q, n, PRESET_SAMPLES, s),
                     position_mi_exact(p, q, n)),
                    (lambda s: estimate_message_mi(p, q, n, PRESET_SAMPLES, s),
                     message_mi_exact(p, q, n)),
                    (lambda s: estimate_input_mi(r, q, n, PRESET_SAMPLES, s),
                     input_mi_iid_others(r, q, n)),
                ):
                    z += [(est.estimate - truth) / est.stderr for est in map(estimate, range(4))]
        assert set(keyed) == {32, 64, 128}
        assert abs(np.mean(z)) < 0.5 and 0.6 < np.std(z, ddof=1) < 1.5, z

    def test_a_short_row_at_large_n_builds_no_new_table(self, monkeypatch):
        # every many_cells row: at most 4096 samples at n = 4096 or 16384
        def refuse(*args):
            raise AssertionError(f"called with {args}")

        monkeypatch.setattr(montecarlo, "_split_keys", refuse)
        monkeypatch.setattr(montecarlo, "_table", refuse)
        for m in (2, 3, 4, 5):
            for n in (4096, 16384):
                for samples in (2, 4096):
                    estimate_message_mi(make_zipf(m, 0.7), make_uniform(m), n, samples, seed=1)


class TestStableVariance:
    def test_offset_statistic_keeps_its_spread(self):
        # the spread of 1e4 + U(0, 1e-6) is lost to cancellation in sum x^2 - n mean^2
        def stat(rng, size):
            return 1e4 + rng.uniform(0.0, 1e-6, size)

        samples = 100_000
        r = _estimate(stat, samples, 3)
        stats = np.concatenate(
            [stat(block_rng(3, b), size) for b, size in enumerate(block_sizes(samples))]
        )
        assert r.stderr == pytest.approx(
            np.std(stats - 1e4, ddof=1) / math.sqrt(samples), rel=1e-6
        )
        assert r.stderr == pytest.approx(1e-6 / math.sqrt(12 * samples), rel=0.02)


class TestBlockMemory:
    @pytest.mark.parametrize("form, bound", [
        (position_form(ZIPF, U4, 1024), 3.5),
        (message_form(ZIPF, U4, 1024), 3.5),
        (input_form(make_krr(4, 1.0), U4, 1024), 3.5),
        (message_form(make_zipf(64, 0.7), make_uniform(64), 1024), 2.5),
    ], ids=["position", "message", "input", "message_m64"])
    def test_block_peak_is_bounded_by_the_histogram(self, form, bound):
        # statistics run one symbol (or input) row at a time; a (symbols,
        # rows) float temporary per step used to take a block to 700-800 KiB.
        # The control's one (rows, symbols) product follows the statistic.
        # At m = 64 the histogram is 6 MiB, and those two alone come on top.
        histogram = len(form.cover) * BLOCK_SIZE * 8  # the block's float64 histogram
        for control in (no_control(form), _control(form, 1024)):
            block = _scorer(form, 1024, control, BLOCK_SIZE)
            _block_scores(*block(block_rng(0, 0), BLOCK_SIZE))  # first-call set-up is not counted
            tracemalloc.start()
            try:
                _block_scores(*block(block_rng(0, 1), BLOCK_SIZE))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * histogram

    def test_control_at_many_symbols_is_scored_in_chunks(self, monkeypatch):
        # the 19 603-point design at m = 100 peaked at 48 MiB when it was
        # built whole, as a Python list per point plus one (m, points) array
        widths = []
        score = montecarlo._score
        monkeypatch.setattr(montecarlo, "_score",
                            lambda form, n, h: widths.append(h.shape[1]) or score(form, n, h))
        form = message_form(make_zipf(100, 0.7), make_uniform(100), 64)
        tracemalloc.start()
        try:
            control = _control(form, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20
        assert widths == [CHUNK_ROWS, 1 + 2 * 99 + 2 * 99 * 98 - CHUNK_ROWS]
        assert control.any() and np.isfinite(control).all()

    def test_table_build_and_block_are_bounded_by_the_histogram(self):
        # the largest table, SIMPLEX_ROWS = 4096 histograms of two symbols,
        # against a four-symbol histogram of as many rows, and a block
        # drawn from a four-symbol table (969 histograms at n = 16) against
        # the block's four-symbol histogram
        large = message_form(M2_P, M2_Q, 4095)
        large_control = _control(large, 4095)
        small = message_form(ZIPF, U4, 16)
        block = _scorer(small, 16, _control(small, 16), BLOCK_SIZE)
        _scorer(large, 4095, large_control, BLOCK_SIZE)  # first-call set-up is not counted
        _block_scores(*block(block_rng(0, 0), BLOCK_SIZE))
        for run, rows in (
            (lambda: _scorer(large, 4095, large_control, BLOCK_SIZE), SIMPLEX_ROWS),
            (lambda: _block_scores(*block(block_rng(0, 1), BLOCK_SIZE)), BLOCK_SIZE),
        ):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3.5 * 4 * rows * 8


def mean_z(estimate, truth):
    """Mean z-score of ``estimate(seed)`` against ``truth`` over seeds 0-3."""
    return np.mean([(r.estimate - truth) / r.stderr for r in map(estimate, range(4))])


class TestKnownDefects:
    # Each marker names the ROADMAP item whose fix must flip it: a strict
    # xfail fails the suite as soon as its estimate agrees with the truth,
    # and only a failed assertion counts as the defect.

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3b: "
                       "J's proposal misses a rare target symbol (mean z about -10 850)")
    def test_rare_target_symbol(self):
        p = Categorical((1, 2), (1e-6, 1 - 1e-6))
        q = Categorical((1, 2), (0.753, 0.247))
        truth = message_mi_exact(p, q, 6)
        assert abs(mean_z(lambda seed: estimate_message_mi(p, q, 6, 100_000, seed), truth)) < 5

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3a: "
                       "the float64 score drifts at large n (mean z about +22 at n = 2^30)")
    def test_large_n(self):
        r, n = make_krr(4, 1.0), 2**30
        prior = np.full(4, 0.25)
        truth = signal_rate(prior, r.kernel, [prior @ r.kernel], [n - 1])
        assert abs(mean_z(lambda seed: estimate_input_mi(r, U4, n, 24_576, seed), truth)) < 5

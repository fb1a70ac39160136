"""Which thread runs each cell under --workers, and what a failing batch raises.

Only long cells (a Monte Carlo row of more than one block, an exact cell of
more than one enumeration chunk within the ceiling) go to the pool, and only
when a batch has two or more of them; every other cell runs on the calling
thread. None of this may change the CSV bytes or which error a batch raises.
"""

import random
import sys
import threading
import time

import pytest

from shuffleleak import exact, montecarlo, runner
from shuffleleak.config import ExperimentConfig, exact_cell
from shuffleleak.errors import ResourceLimitError
from shuffleleak.runner import ResultRow, run_configs, to_csv
from shuffleleak import make_krr, make_uniform, make_zipf

LONG_MC = 3 * montecarlo.BLOCK_SIZE
ZIPF, UNIFORM = make_zipf(4, 0.7), make_uniform(4)


def mc_config(n_grid, samples=LONG_MC, method="mc", label="mc"):
    return ExperimentConfig(quantity="IY1", p=ZIPF, q=UNIFORM, n_grid=tuple(n_grid),
                            samples=samples, seed=3, method=method, label=label)


def recorded(monkeypatch, fake=None):
    """Wrap ``runner.compute_row`` to record (n, method, thread) per call;
    ``fake(cfg, n, method)`` replaces the computation when given."""
    calls = []
    real = runner.compute_row

    def record(cfg, n, method, seed):
        calls.append((n, method, threading.get_ident()))
        if fake is None:
            return real(cfg, n, method, seed)
        return fake(cfg, n, method)

    monkeypatch.setattr(runner, "compute_row", record)
    return calls


def plain_row(cfg, n, method):
    return ResultRow(cfg.label, n, method, cfg.quantity, 0.0, None)


def mixed_batch():
    """Three-block Monte Carlo rows, an exact cell above one chunk, short
    asym and bound rows, and an 'all' config whose exact cell at n = 10^6 is
    over the ceiling and skipped."""
    return [
        mc_config((16, 64), method="mc+asym", label="mc_asym"),
        ExperimentConfig(quantity="IY1", p=ZIPF, q=UNIFORM, n_grid=(40,),
                         method="exact", label="exact_chunks"),
        mc_config((8, 10**6), method="all", label="all_skips"),
        ExperimentConfig(mode="shuffle_dp", quantity="IX1", mechanism=make_krr(3, 1.0),
                         n_grid=(6,), samples=montecarlo.BLOCK_SIZE,
                         method="mc+asym+bounds", label="dp_short"),
    ]


class TestDispatch:
    def test_the_mixed_batch_has_every_kind_of_cell(self):
        states = exact_cell(mixed_batch()[1], 40)[0]
        assert exact.CHUNK_ROWS < states <= exact.MAX_STATES
        assert exact_cell(mixed_batch()[2], 10**6)[0] > exact.MAX_STATES
        assert LONG_MC > montecarlo.BLOCK_SIZE

    def test_bytes_do_not_depend_on_workers(self):
        batch = mixed_batch()
        one = to_csv(run_configs(batch, workers=1))
        assert "all_skips,1000000,exact" not in one and "all_skips,8,exact" in one
        assert "exact_chunks,40,exact" in one
        for workers in (2, 4):
            assert to_csv(run_configs(batch, workers=workers)) == one

    @pytest.mark.parametrize("batch", [
        # no long cell: one-block Monte Carlo rows, asym, small exact cells
        [mc_config((4, 8, 16), samples=montecarlo.BLOCK_SIZE, method="all")],
        # one long Monte Carlo row among short cells
        [mc_config((16,), method="mc+asym"), mc_config((4, 8), samples=100, method="all")],
        # one long exact cell; the other exact cell is over the ceiling
        [ExperimentConfig(quantity="IY1", p=ZIPF, q=UNIFORM, n_grid=(40, 10**6),
                          samples=100, method="all")],
    ])
    def test_at_most_one_long_cell_runs_on_the_calling_thread(self, monkeypatch, batch):
        calls = recorded(monkeypatch)
        run_configs(batch, workers=4)
        assert calls and {ident for *_, ident in calls} == {threading.get_ident()}

    def test_long_cells_leave_the_calling_thread(self, monkeypatch):
        calls = recorded(monkeypatch)
        rows = run_configs(mixed_batch(), workers=2)
        me = threading.get_ident()
        long = {(16, "mc"), (64, "mc"), (40, "exact"), (8, "mc"), (10**6, "mc")}
        assert {(n, m) for n, m, _ in calls} >= long
        for n, method, ident in calls:
            assert (ident != me) == ((n, method) in long), (n, method)
        assert len(rows) == len(calls) - 1  # the over-ceiling exact cell is skipped


class TestFailures:
    def test_an_inline_failure_starts_no_later_cell(self, monkeypatch):
        # the over-ceiling exact cell comes first in plan order; one worker
        # stops there, and so does a pool of two
        calls = recorded(monkeypatch)
        cfg = ExperimentConfig(quantity="IY1", p=ZIPF, q=UNIFORM,
                               n_grid=(10**6, 64, 128, 256, 512, 1024),
                               samples=LONG_MC, method="exact+mc")
        with pytest.raises(ResourceLimitError):
            run_configs([cfg], workers=2)
        assert [(n, m) for n, m, _ in calls] == [(10**6, "exact")]

    def test_a_pooled_failure_cancels_the_queued_cells(self, monkeypatch):
        def fake(cfg, n, method):
            if n == 10:
                raise ValueError("cell 10")
            time.sleep(0.1)
            return plain_row(cfg, n, method)

        calls = recorded(monkeypatch, fake)
        with pytest.raises(ValueError, match="cell 10"):
            run_configs([mc_config(range(10, 16))], workers=2)
        # the failing cell, and at most the one the other thread had taken
        assert 1 <= len(calls) <= 2 and calls[0][0] == 10

    @pytest.mark.parametrize("workers,failing", [
        # the pooled mc cell at n = 11 fails after the inline asym cell at
        # n = 11 behind it has failed too; its error is the one raised
        *(pytest.param(w, {(11, "mc"): ValueError, (11, "asym"): KeyError}, id=str(w))
          for w in (1, 2, 4)),
        # only the inline asym cell at n = 11 fails, behind long cells that
        # succeed
        *(pytest.param(w, {(11, "asym"): KeyError}, id=f"inline-{w}") for w in (1, 2, 4)),
    ])
    def test_the_first_failing_cell_in_plan_order_wins(self, monkeypatch, workers, failing):
        def fake(cfg, n, method):
            if (n, method) in failing:
                if method == "mc":
                    time.sleep(0.05)
                raise failing[n, method](f"{method} {n}")
            return plain_row(cfg, n, method)

        calls = recorded(monkeypatch, fake)
        batch = [mc_config((10, 11, 12), method="mc+asym")]
        if (11, "mc") in failing:
            with pytest.raises(ValueError, match="mc 11"):
                run_configs(batch, workers=workers)
            assert (12, "mc") not in {(n, m) for n, m, _ in calls}
        else:
            with pytest.raises(KeyError, match="asym 11"):
                run_configs(batch, workers=workers)
            assert {(n, m) for n, m, _ in calls} == {
                (10, "mc"), (10, "asym"), (11, "mc"), (11, "asym"),
            }

    def test_stress_with_more_workers_than_cores(self, monkeypatch):
        # a short switch interval makes the pool threads and the calling
        # thread interleave often; the batch must still raise the first
        # failure in plan order, after running every cell before it once
        rng = random.Random(5)

        def fake(cfg, n, method):
            if n in failing:
                raise ValueError(n)
            return plain_row(cfg, n, method)

        calls = recorded(monkeypatch, fake)
        cfg = mc_config(range(1, 121), method="mc+asym")
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(30):
                failing = set(rng.sample(range(1, 121), 3))
                calls.clear()
                with pytest.raises(ValueError) as err:
                    run_configs([cfg], workers=8)
                first = min(failing)
                assert err.value.args == (first,)
                done = [(n, m) for n, m, _ in calls]
                assert len(done) == len(set(done))
                assert {(n, m) for n in range(1, first) for m in ("mc", "asym")} <= set(done)
                assert threading.active_count() == threads
            calls.clear()
            failing = set()
            rows = run_configs([cfg], workers=8)
            assert [(r.n, r.method) for r in rows] == [
                (n, m) for n in range(1, 121) for m in ("mc", "asym")
            ]
        finally:
            sys.setswitchinterval(interval)

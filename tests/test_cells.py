"""The cell table: which rows a config plans, which explicit methods are
diagnostics, and which exact cells the runner drops under ``all`` or
refuses on an explicit ``exact``."""

import math
import re
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from shuffleleak.asymptotics import mean_chi2, signal_rate
from shuffleleak.config import (
    BASE_METHODS,
    MODES,
    QUANTITIES,
    ExperimentConfig,
    cell_methods,
    parse_config,
)
from shuffleleak import Categorical, exact, make_krr, make_uniform, make_zipf, runner
from shuffleleak.errors import InvalidInputError, ResourceLimitError
from shuffleleak.exact import input_mi_iid_others
from shuffleleak.mechanisms import blanket_of_randomizer
from shuffleleak.runner import ceiling_diagnostics, cells, run_configs

ZIPF4 = {"type": "zipf", "m": 4, "alpha": 0.7}
UNIFORM4 = {"type": "uniform", "m": 4}


# a Python-built config that plans every shuffle_only row, Monte Carlo included
PLANS_MC = ExperimentConfig(quantity="IY1", p=make_zipf(4, 0.7), q=make_uniform(4),
                            n_grid=(4,), method="all")


def krr(k):
    return {"type": "krr", "k": k, "eps0": 1.0}


def cell_doc(mode, quantity, method, n_grid=(4,)):
    literal = {"P": ZIPF4, "Q": UNIFORM4} if mode == "shuffle_only" else {"mechanism": krr(4)}
    return {**literal, "mode": mode, "quantity": quantity, "method": method,
            "n_grid": list(n_grid), "samples": 4096}


# 'all' and every nonempty subset of the base methods, joined in both orders
SELECTIONS = ["all", *sorted({
    "+".join(order)
    for size in range(1, len(BASE_METHODS) + 1)
    for subset in combinations(BASE_METHODS, size)
    for order in (subset, subset[::-1])
})]

# (mode, quantity, base) whose explicit request is a method diagnostic
NO_ROWS = {
    ("shuffle_only", "IK", "bounds"),
    ("shuffle_only", "IY1", "bounds"),
    *(("shuffle_only", "IX1", base) for base in BASE_METHODS),
    ("shuffle_dp", "IK", "mc"),
    ("shuffle_dp", "IK", "asym"),
    ("shuffle_dp", "IY1", "exact"),
    ("shuffle_dp", "IY1", "mc"),
    ("shuffle_dp", "IY1", "asym"),
}


def gives_rows(base, rows):
    return any(r.method == base or (base == "bounds" and r.method.startswith("bound_"))
               for r in rows)


class TestExplicitMethods:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("quantity", QUANTITIES)
    @pytest.mark.parametrize("base", BASE_METHODS)
    def test_rows_or_a_method_diagnostic(self, mode, quantity, base):
        cfg, diags = parse_config(cell_doc(mode, quantity, base))
        method_diags = [str(d) for d in diags if d.field == "method"]
        if (mode, quantity, base) in NO_ROWS:
            assert method_diags == [f"method: no {base} method for {mode} {quantity}"]
        else:
            assert diags == []
            assert gives_rows(base, run_configs([cfg]))

    def test_one_diagnostic_per_missing_base(self):
        _, diags = parse_config(cell_doc("shuffle_dp", "IK", "exact+mc+asym+bounds"))
        assert [str(d) for d in diags] == [
            "method: no mc method for shuffle_dp IK",
            "method: no asym method for shuffle_dp IK",
        ]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("quantity", QUANTITIES)
    def test_the_cell_table_holds_exactly_the_planned_methods(self, mode, quantity):
        for method in SELECTIONS:
            cfg = ExperimentConfig(mode=mode, quantity=quantity, p=make_zipf(4, 0.7),
                                   q=make_uniform(4), mechanism=make_krr(4, 1.0),
                                   n_grid=(4,), method=method)
            assert tuple(cells(cfg)) == cell_methods(cfg), method

    def test_an_unbuildable_value_raises_before_any_cell_runs(self, monkeypatch):
        # a config built in Python skips parse_config, so run_configs
        # validates it
        ran = []
        monkeypatch.setattr(runner, "compute_row", lambda *task: ran.append(task))
        krr3 = make_krr(3, 1.0)
        configs = [
            ExperimentConfig(mode="shuffle_dp", quantity="IX1", mechanism=krr3,
                             n_grid=(4,), method="mc+asym"),
            ExperimentConfig(mode="shuffle_dp", quantity="IX1", mechanism=krr3,
                             prior=Categorical((1, 9), (0.5, 0.5)), n_grid=(4,),
                             method="mc+asym"),
        ]
        with pytest.raises(InvalidInputError, match="prior support must be mechanism inputs"):
            run_configs(configs)
        assert ran == []

    @pytest.mark.parametrize("cfg,diagnostic", [
        (ExperimentConfig(quantity="IY1", p=make_zipf(4, 0.7), n_grid=(4,), method="asymp"),
         "method: must be 'all' or a '+'-joined subset of ('exact', 'mc', 'asym', 'bounds')"),
        (ExperimentConfig(mode="shuffle_dp", quantity="IY1", mechanism=make_krr(3, 1.0),
                          n_grid=(4,), method="mc"),
         "method: no mc method for shuffle_dp IY1"),
        (ExperimentConfig(mode="shuffle_dp", quantity="IX1", n_grid=(4,), method="all"),
         "mechanism: shuffle_dp requires a mechanism"),
        # parse_config's field checks, made first: the semantic checks that
        # read n never see a grid that fails them
        *((replace(PLANS_MC, n_grid=grid), "n_grid: must be a nonempty list of positive integers")
          for grid in [(0,), (-3,), (True,), (), (4.0,)]),
        (replace(PLANS_MC, label=None), "label: must be a string"),
        (replace(PLANS_MC, n_grid=("4",), label=7),
         "n_grid: must be a nonempty list of positive integers; label: must be a string"),
        (replace(PLANS_MC, quantity="IQ"), "quantity: must be one of ('IK', 'IY1', 'IX1')"),
        (replace(PLANS_MC, mode="foo"), "mode: must be one of ('shuffle_only', 'shuffle_dp')"),
        (replace(PLANS_MC, samples=300.0), "samples: must be an integer of at least 2"),
        (replace(PLANS_MC, seed=1.5), "seed: must be an integer in [0, 2^64)"),
        (replace(PLANS_MC, method=None),
         "method: must be 'all' or a '+'-joined subset of ('exact', 'mc', 'asym', 'bounds')"),
    ], ids=["unknown-method", "unplanned-method", "no-mechanism", "zero", "negative", "bool",
            "empty", "float", "no-label", "grid-and-label", "quantity", "mode", "float-samples",
            "float-seed", "no-method"])
    def test_a_config_built_in_python_is_validated(self, monkeypatch, cfg, diagnostic):
        # the CLI refuses these with a diagnostic; run_configs used to return
        # no rows for the first two and raise AttributeError on the third, print
        # a row at n = 0, -3 or True, print no row for an empty grid or an
        # unknown quantity, raise TypeError for n = 4.0, a label of None,
        # 300.0 samples or seed 1.5, and AttributeError for a method of None
        ran = []
        monkeypatch.setattr(runner, "compute_row", lambda *task: ran.append(task))
        valid = ExperimentConfig(quantity="IY1", p=make_zipf(4, 0.7), n_grid=(4,))
        with pytest.raises(InvalidInputError, match=re.escape(diagnostic)):
            run_configs([valid, cfg])
        assert ran == []

    def test_all_plans_every_row_of_the_cell(self):
        cfg, diags = parse_config(cell_doc("shuffle_dp", "IX1", "all"))
        assert diags == []
        assert cell_methods(cfg) == ("exact", "mc", "asym", "bound_unified", "bound_blanket")


# config literals, and the n whose exact cell exceeds the 10^7 state ceiling
SKIP_CASES = {
    "shuffle_only_IK": ({"mode": "shuffle_only", "quantity": "IK",
                         "P": ZIPF4, "Q": UNIFORM4}, 10**6),
    "shuffle_only_IY1": ({"mode": "shuffle_only", "quantity": "IY1",
                          "P": ZIPF4, "Q": UNIFORM4}, 10**6),
    "shuffle_dp_IX1_krr4": ({"mode": "shuffle_dp", "quantity": "IX1",
                             "mechanism": krr(4)}, 1000),  # (n + 1)^3 > 10^7
    "shuffle_dp_IK_krr5": ({"mode": "shuffle_dp", "quantity": "IK",
                            "mechanism": krr(5)}, 16384),
    # the matched closed form's pmf terms: 4 (n + 1) > 10^7
    "shuffle_only_IY1_matched": ({"mode": "shuffle_only", "quantity": "IY1",
                                  "P": ZIPF4}, 10**7),
}


class TestExactSkips:
    """Validation flags exactly the exact cells that the runner skips."""

    @staticmethod
    def parsed(literals, method, n_grid):
        return parse_config({**literals, "method": method, "n_grid": list(n_grid),
                             "samples": 4096})

    @pytest.mark.parametrize("case", SKIP_CASES)
    def test_explicit_exact_flags_exactly_n(self, case):
        literals, big = SKIP_CASES[case]
        cfg, diags = self.parsed(literals, "exact", (4, big))
        assert diags == []  # parsing never reports the ceiling
        diags = ceiling_diagnostics(cfg)
        assert len(diags) == 1
        assert str(diags[0]).startswith(f"n_grid: resource-limit: exact method at n={big}: ")

    @pytest.mark.parametrize("case", SKIP_CASES)
    def test_all_omits_exactly_the_exact_row_at_n(self, case):
        literals, big = SKIP_CASES[case]
        cfg, diags = self.parsed(literals, "all", (4, big))
        assert diags == []
        cells = [(r.n, r.method) for r in run_configs([cfg])]
        planned = [(n, m) for n in (4, big) for m in cell_methods(cfg)]
        assert "exact" in cell_methods(cfg)
        assert cells == [c for c in planned if c != (big, "exact")]

    @staticmethod
    def watched(monkeypatch):
        """Two lists, filled as a run goes: (oracle, n) for each exact oracle
        call and (n, method) for each cell that reaches ``compute_row``. The
        oracles and cells still run."""
        oracles, ran = [], []
        for name in ("position_mi_exact", "message_mi_exact", "matched_message_mi",
                     "input_mi_iid_others", "position_mi_fixed_inputs"):
            def record(*args, _name=name, _real=getattr(exact, name)):
                n = len(args[1]) if _name == "position_mi_fixed_inputs" else args[-1]
                oracles.append((_name, n))
                return _real(*args)

            monkeypatch.setattr(exact, name, record)
        real = runner.compute_row

        def compute_row(cfg, n, method, call):
            ran.append((n, method))
            return real(cfg, n, method, call)

        monkeypatch.setattr(runner, "compute_row", compute_row)
        return oracles, ran

    @pytest.mark.parametrize("case", SKIP_CASES)
    def test_explicit_exact_raises_before_any_cell_runs(self, monkeypatch, case):
        # the refusal comes from the plan: no cell ahead of the flagged n runs,
        # and its text is the one validate prints for that n
        literals, big = SKIP_CASES[case]
        cfg, diags = self.parsed(literals, "exact", (4, big, 2 * big))
        assert diags == []
        first = ceiling_diagnostics(cfg)[0]
        oracles, ran = self.watched(monkeypatch)
        for workers in (1, 2):
            with pytest.raises(ResourceLimitError) as err:
                run_configs([cfg], workers=workers)
            assert first.message == f"resource-limit: exact method at n={big}: {err.value}"
        assert oracles == [] and ran == []

    @pytest.mark.parametrize("case", SKIP_CASES)
    def test_all_never_calls_the_oracle_of_a_dropped_cell(self, monkeypatch, case):
        literals, big = SKIP_CASES[case]
        cfg, diags = self.parsed(literals, "all", (4, big))
        assert diags == []
        oracles, ran = self.watched(monkeypatch)
        run_configs([cfg])
        assert [n for _, n in oracles] == [4]
        assert (4, "exact") in ran and (big, "exact") not in ran

    @pytest.mark.parametrize("case", SKIP_CASES)
    def test_validate_and_run_flag_the_same_n(self, monkeypatch, case):
        # validate flags on 'exact' the n whose exact cell 'all' drops; a run
        # on 'exact' refuses the first of them (see above)
        literals, big = SKIP_CASES[case]
        grid = (4, big, 5, 2 * big)
        cfg, _ = self.parsed(literals, "exact", grid)
        diags = ceiling_diagnostics(cfg)
        flagged = [n for n in grid if any(f" at n={n}: " in d.message for d in diags)]
        assert len(diags) == len(flagged) == 2
        ran = []
        monkeypatch.setattr(runner, "compute_row",
                            lambda cfg, n, method, call: ran.append((n, method)))
        run_configs([self.parsed(literals, "all", grid)[0]])
        assert [n for n in grid if (n, "exact") not in ran] == flagged

    def test_matched_closed_form_is_not_flagged_at_a_million(self):
        # 4 (10^6 + 1) pmf terms stay under the ceiling
        literals = {"mode": "shuffle_only", "quantity": "IY1", "P": ZIPF4}
        cfg, diags = self.parsed(literals, "exact", (4, 10**6))
        assert diags == [] and ceiling_diagnostics(cfg) == []
        rows = run_configs([cfg])
        assert [(r.n, r.method) for r in rows] == [(4, "exact"), (10**6, "exact")]
        assert all(math.isfinite(r.value) and r.value > 0 for r in rows)


class TestOneDiagnosticPerLiteral:
    """A literal that is given but invalid is not also reported as missing."""

    @pytest.mark.parametrize("mechanism", [
        {"type": "krr", "k": 1, "eps0": 1},
        {"type": "krr", "k": 4, "eps0": 1000},
        {"type": "laplace", "k": 4},
        "krr",
    ])
    def test_invalid_mechanism(self, mechanism):
        _, diags = parse_config({"mode": "shuffle_dp", "quantity": "IX1",
                                 "mechanism": mechanism, "n_grid": [4]})
        assert [d.field for d in diags] == ["mechanism"]
        assert "requires" not in diags[0].message

    @pytest.mark.parametrize("key,literal", [
        ("P", {"type": "zipf", "m": 4, "alpha": "0.7"}),
        ("P", {"type": "gauss", "m": 4}),
        ("p", {"type": "uniform", "m": 1.5}),
        ("P", [0.5, 0.5]),
    ])
    def test_invalid_target(self, key, literal):
        _, diags = parse_config({"mode": "shuffle_only", "quantity": "IY1",
                                 key: literal, "n_grid": [4]})
        assert [d.field for d in diags] == ["P"]
        assert "requires" not in diags[0].message

    @pytest.mark.parametrize("key", ["P", "Q"])
    def test_both_spellings_of_a_literal(self, key):
        # the uppercase literal used to win silently over its lowercase alias
        doc = {"P": UNIFORM4, "n_grid": [4], "method": "exact",
               key: {"type": "uniform", "m": 2}, key.lower(): {"type": "uniform", "m": 3}}
        _, diags = parse_config(doc)
        assert [str(d) for d in diags] == [f"{key.lower()}: given together with {key}"]

    def test_missing_literals_are_still_required(self):
        _, diags = parse_config({"mode": "shuffle_only", "quantity": "IY1", "n_grid": [4]})
        assert [str(d) for d in diags] == ["P: shuffle_only requires a target distribution"]
        _, diags = parse_config({"mode": "shuffle_dp", "quantity": "IX1", "n_grid": [4]})
        assert [str(d) for d in diags] == ["mechanism: shuffle_dp requires a mechanism"]

    def test_overflowing_eps0_names_eps0(self):
        _, diags = parse_config({"mode": "shuffle_dp", "quantity": "IX1",
                                 "mechanism": {"type": "krr", "k": 4, "eps0": 1000},
                                 "n_grid": [4]})
        assert "eps0" in diags[0].message and "math range error" not in diags[0].message


class TestInputPrior:
    """A shuffle_dp IX1 config's prior reaches every row that reads it."""

    # rows at different chi-squared distances from the blanket, so that
    # the blanket bound, unlike under kRR, depends on the prior
    MECHANISM = {"type": "explicit", "kernel": [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3],
                                                 [0.1, 0.2, 0.7]]}
    PRIOR = {"type": "explicit", "labels": [1, 2, 3], "probs": [0.5, 0.3, 0.2]}
    N = 6

    def rows(self, **prior):
        cfg, diags = parse_config({"mode": "shuffle_dp", "quantity": "IX1", "n_grid": [self.N],
                                   "mechanism": self.MECHANISM, "samples": 20000, "seed": 3,
                                   **prior})
        assert diags == []
        return cfg, {r.method: r for r in run_configs([cfg])}

    def test_rows_read_a_given_prior(self):
        cfg, rows = self.rows(prior=self.PRIOR)
        r, prior, n = cfg.mechanism, cfg.input_prior(), self.N
        assert prior is cfg.prior
        px = np.array([prior.prob(x) for x in r.input_labels])
        qb = blanket_of_randomizer(r).generalized_blanket
        assert rows["exact"].value == input_mi_iid_others(r, prior, n)
        assert rows["asym"].value == signal_rate(px, r.kernel, [px @ r.kernel], [n - 1])
        assert rows["bound_blanket"].value == mean_chi2(prior, r, qb) / (2 * n)
        assert abs(rows["mc"].value - rows["exact"].value) < 4 * rows["mc"].stderr
        _, uniform = self.rows()
        for method in ("exact", "mc", "asym", "bound_blanket"):
            assert rows[method].value != uniform[method].value

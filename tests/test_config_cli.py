import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import shuffleleak
from shuffleleak.cli import main
from shuffleleak.config import (
    ExperimentConfig,
    parse_config,
    validate_config,
)
from shuffleleak import montecarlo, runner
from shuffleleak.errors import InvalidParameterError
from shuffleleak.runner import (
    PRESET_SAMPLES,
    ResultRow,
    _derive_seed,
    ceiling_diagnostics,
    preset_configs,
    run_configs,
    to_csv,
)
from shuffleleak import Categorical, make_krr, make_uniform, make_zipf


def make_doc(**overrides):
    doc = {
        "mode": "shuffle_only",
        "quantity": "IY1",
        "P": {"type": "zipf", "m": 4, "alpha": 0.7},
        "Q": {"type": "uniform", "m": 4},
        "n_grid": [4, 8],
        "samples": 2000,
        "seed": 7,
        "method": "mc+asym",
    }
    doc.update(overrides)
    return doc


class TestParsing:
    def test_valid_doc_round_trips(self):
        cfg, diags = parse_config(make_doc())
        assert diags == []
        assert cfg.p.same_mass(make_zipf(4, 0.7))
        assert cfg.q.same_mass(make_uniform(4))
        assert cfg.n_grid == (4, 8)

    def test_explicit_distribution_literal(self):
        cfg, diags = parse_config(
            make_doc(P={"type": "explicit", "labels": ["a", "b"], "probs": [0.3, 0.7]},
                     Q={"type": "explicit", "labels": ["a", "b"], "probs": [0.5, 0.5]})
        )
        assert diags == []
        assert cfg.p.prob("a") == pytest.approx(0.3)

    def test_krr_mechanism_literal(self):
        cfg, diags = parse_config(
            {
                "mode": "shuffle_dp",
                "quantity": "IX1",
                "mechanism": {"type": "krr", "k": 4, "eps0": 1.0},
                "n_grid": [8],
                "samples": 1000,
            }
        )
        assert diags == []
        assert cfg.mechanism.kernel[0, 0] == pytest.approx(math.e / (math.e + 3))

    def test_explicit_kernel_literal(self):
        cfg, diags = parse_config(
            {
                "mode": "shuffle_dp",
                "quantity": "IX1",
                "mechanism": {"type": "explicit", "kernel": [[0.7, 0.3], [0.3, 0.7]]},
                "n_grid": [4],
            }
        )
        assert diags == []
        assert cfg.mechanism.input_labels == (1, 2)

    def test_unknown_distribution_type(self):
        _, diags = parse_config(make_doc(P={"type": "gaussian"}))
        assert any(d.field == "P" for d in diags)


class TestValidation:
    def test_missing_mechanism_in_dp(self):
        _, diags = parse_config(
            {"mode": "shuffle_dp", "quantity": "IX1", "n_grid": [8]}
        )
        assert [d.field for d in diags] == ["mechanism"]

    def test_negative_samples(self):
        _, diags = parse_config(make_doc(samples=-5))
        assert [d.field for d in diags] == ["samples"]

    def test_one_sample_is_refused(self):
        # one sample has no spread: its stderr would read 0
        cfg, diags = parse_config(make_doc(samples=1))
        assert cfg is None and [str(d) for d in diags] == ["samples: must be an integer of at least 2"]
        cfg, diags = parse_config(make_doc(samples=2))
        assert cfg is not None and diags == []

    def test_exact_resource_limit_diagnostic(self):
        cfg, diags = parse_config(
            make_doc(method="exact", n_grid=[1_000_000])
        )
        assert diags == []  # parsing never reports the ceiling
        assert any("resource-limit" in d.message for d in ceiling_diagnostics(cfg))

    def test_matched_closed_form_has_no_limit(self):
        doc = make_doc(method="exact", n_grid=[1_000_000])
        del doc["Q"]
        cfg, diags = parse_config(doc)
        assert diags == [] and ceiling_diagnostics(cfg) == []

    def test_unknown_key(self):
        _, diags = parse_config(make_doc(sampels=5))
        assert [str(d) for d in diags] == ["sampels: unknown key"]

    @pytest.mark.parametrize("key,value", [
        ("samples", True), ("seed", True), ("n_grid", [4, True]),
    ])
    def test_json_booleans_are_not_integers(self, key, value):
        _, diags = parse_config(make_doc(**{key: value}))
        assert [d.field for d in diags] == [key]

    @pytest.mark.parametrize("label", [None, ["a", "b"], 3, True])
    def test_label_must_be_a_string(self, tmp_path, label):
        _, diags = parse_config(make_doc(label=label))
        assert [str(d) for d in diags] == ["label: must be a string"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(make_doc(label=label)))
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 2 and result.stderr == "label: must be a string\n"

    @pytest.mark.parametrize("method", ["mc", "all"])
    def test_monte_carlo_beyond_int64_exits_2(self, tmp_path, method):
        # the n - 1 cover counts of a draw are an int64
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(make_doc(n_grid=[4, 10**20], method=method)))
        for command in ("validate", "run"):
            result = CliRunner().invoke(main, [command, "--config", str(path)])
            assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
            assert "n_grid: Monte Carlo needs every n at most 2^63\n" in result.output
        assert parse_config(make_doc(n_grid=[2**63], method="mc"))[1] == []
        assert parse_config(make_doc(n_grid=[10**20], method="asym"))[1] == []

    @pytest.mark.parametrize("field,literal", [
        ("P", {"type": "zipf", "m": 4, "alpha": math.nan}),
        ("Q", {"type": "explicit", "probs": [math.nan, 0.5, 0.5]}),
        ("mechanism", {"type": "explicit", "kernel": [[math.nan, 1.0], [0.5, 0.5]]}),
    ])
    def test_nan_literal(self, field, literal):
        doc = json.loads(json.dumps(make_doc(**{field: literal})))  # json writes and reads NaN
        _, diags = parse_config(doc)
        assert field in {d.field for d in diags}

    def test_empty_n_grid(self):
        _, diags = parse_config(make_doc(n_grid=[]))
        assert any(d.field == "n_grid" for d in diags)

    def test_ix1_needs_dp_mode(self):
        _, diags = parse_config(make_doc(quantity="IX1"))
        assert any(d.field == "quantity" for d in diags)

    def test_field_diagnostics_come_alone(self, tmp_path):
        # the mode-dependent checks wait until every field parses
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**DP_KRR2, "mode": "shuffle-dp", "quantity": "IX1",
                                    "n_grid": [16], "method": "mc"}))
        result = CliRunner().invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2
        assert result.output == "mode: must be one of ('shuffle_only', 'shuffle_dp')\n"

    def test_invalid_method_plans_no_monte_carlo(self):
        cfg, diags = parse_config(make_doc(method="exact+asymp", n_grid=[16, 2**64]))
        assert cfg is None and [d.field for d in diags] == ["method"]

    @pytest.mark.parametrize("x_inputs", [
        [], "1", [{"a": 1}, 2, 3], [[1, [2]], 2, 3], [[{"a": 1}], 2, 3],
    ])
    def test_x_inputs_must_be_labels(self, tmp_path, x_inputs):
        doc = {**DP_KRR2, "quantity": "IK", "n_grid": [3], "x_inputs": x_inputs}
        expected = "x_inputs: must be a nonempty list of input labels"
        assert [str(d) for d in parse_config(doc)[1]] == [expected]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "run"):
            result = CliRunner().invoke(main, [command, "--config", str(path)])
            assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
            assert expected in result.output

    def test_x_inputs_length_must_match_grid(self):
        cfg = ExperimentConfig(
            mode="shuffle_dp", quantity="IK", mechanism=make_krr(2, 1.0),
            x_inputs=(1, 2, 1), n_grid=(4,), method="exact",
        )
        assert any(d.field == "x_inputs" for d in validate_config(cfg))


DP_KRR2 = {"mode": "shuffle_dp", "mechanism": {"type": "krr", "k": 2, "eps0": 1.0}}
UNIFORM2 = {"type": "uniform", "m": 2}


class TestKeysNotRead:
    """A key that the config's mode and quantity do not read is a diagnostic."""

    @pytest.mark.parametrize("doc,field", [
        (make_doc(mechanism={"type": "krr", "k": 4, "eps0": 1.0}), "mechanism"),
        (make_doc(prior={"type": "uniform", "m": 4}), "prior"),
        (make_doc(x_inputs=[1, 2, 1, 2], n_grid=[4]), "x_inputs"),
        ({**DP_KRR2, "quantity": "IX1", "P": UNIFORM2}, "P"),
        ({**DP_KRR2, "quantity": "IX1", "p": UNIFORM2}, "P"),
        ({**DP_KRR2, "quantity": "IK", "Q": UNIFORM2}, "Q"),
        ({**DP_KRR2, "quantity": "IY1", "q": UNIFORM2}, "Q"),
        ({**DP_KRR2, "quantity": "IX1", "x_inputs": [1, 1, 1]}, "x_inputs"),
        # a length mismatch is not reported for inputs that are not read
        ({**DP_KRR2, "quantity": "IX1", "x_inputs": [1, 1]}, "x_inputs"),
        ({**DP_KRR2, "quantity": "IY1", "x_inputs": [1, 1, 1]}, "x_inputs"),
    ])
    def test_one_diagnostic_per_key(self, tmp_path, doc, field):
        doc = {"n_grid": [3], **doc}
        _, diags = parse_config(doc)
        mode, quantity = doc["mode"], doc["quantity"]
        assert [str(d) for d in diags] == [f"{field}: not read by {mode} {quantity}"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "run"):
            assert CliRunner().invoke(main, [command, "--config", str(path)]).exit_code == 2

    @pytest.mark.parametrize("quantity", ["IX1", "IK", "IY1"])
    def test_prior_is_read_by_every_dp_quantity(self, quantity):
        _, diags = parse_config({**DP_KRR2, "quantity": quantity, "n_grid": [3],
                                 "prior": {"type": "explicit", "probs": [0.3, 0.7]}})
        assert diags == []

    def test_fixed_inputs_are_read_by_dp_position(self):
        cfg, diags = parse_config({**DP_KRR2, "quantity": "IK", "n_grid": [3],
                                   "x_inputs": [2, 1, 1]})
        assert diags == [] and cfg.x_inputs == (2, 1, 1)


HUGE = 10**400  # float(n) overflows


class TestDiagnosticText:
    """Each diagnostic reads the same from parse_config, validate and run."""

    @pytest.mark.parametrize("doc,expected", [
        ({**DP_KRR2, "quantity": "IX1", "n_grid": [3],
          "prior": {"type": "explicit", "labels": [1, 3], "probs": [0.5, 0.5]}},
         "prior: prior support must be mechanism inputs"),
        ({**DP_KRR2, "quantity": "IK", "n_grid": [3], "x_inputs": [1, 3, 2]},
         "x_inputs: unknown mechanism input symbol"),
        (make_doc(quantity="IX2"), "quantity: must be one of ('IK', 'IY1', 'IX1')"),
        ([make_doc()], "$: config must be a JSON object"),
        (make_doc(seed=2**64), "seed: must be an integer in [0, 2^64)"),
        (make_doc(seed=-1), "seed: must be an integer in [0, 2^64)"),
        (make_doc(method="asym", n_grid=[4, HUGE]),
         "n_grid: asym and bound rows need every n to fit a float"),
        ({**DP_KRR2, "quantity": "IX1", "method": "asym+bounds", "n_grid": [HUGE]},
         "n_grid: asym and bound rows need every n to fit a float"),
        ({**DP_KRR2, "quantity": "IY1", "method": "bounds", "n_grid": [HUGE]},
         "n_grid: asym and bound rows need every n to fit a float"),
    ])
    def test_one_line_exit_2(self, tmp_path, doc, expected):
        assert [str(d) for d in parse_config(doc)[1]] == [expected]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "run"):
            result = CliRunner().invoke(main, [command, "--config", str(path)])
            assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
            assert result.output == expected + "\n"

    def test_the_largest_float_n_is_accepted(self):
        assert parse_config(make_doc(method="asym", n_grid=[int(sys.float_info.max)]))[1] == []
        assert parse_config(make_doc(method="asym", n_grid=[2**1024 - 2**970]))[1] != []


class TestBeyondFloatN:
    """Rows that need no float n still run at an n that no float holds."""

    @staticmethod
    def invoke(tmp_path, command, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return CliRunner().invoke(main, [command, "--config", str(path)])

    @pytest.mark.parametrize("doc", [
        make_doc(method="exact", n_grid=[HUGE]),
        {**DP_KRR2, "quantity": "IX1", "method": "exact", "n_grid": [HUGE]},
        {**DP_KRR2, "quantity": "IK", "method": "exact", "n_grid": [HUGE]},
    ])
    def test_exact_keeps_its_resource_limit(self, tmp_path, doc):
        result = self.invoke(tmp_path, "validate", doc)
        assert result.exit_code == 2
        assert result.output.startswith(f"n_grid: resource-limit: exact method at n={HUGE}: ")
        result = self.invoke(tmp_path, "run", doc)
        assert result.exit_code == 3 and result.output.startswith("resource limit: ")

    def test_the_position_bound_runs(self, tmp_path):
        doc = {**DP_KRR2, "quantity": "IK", "method": "bounds", "n_grid": [4, HUGE]}
        assert self.invoke(tmp_path, "validate", doc).output == "ok\n"
        result = self.invoke(tmp_path, "run", doc)
        assert result.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert [r["n"] for r in rows] == ["4", str(HUGE)]
        assert rows[0]["value_nats"] == rows[1]["value_nats"] == "2"


class TestNestedLiterals:
    """Distribution and mechanism literals are checked like the top-level keys."""

    @staticmethod
    def dp_doc(mechanism):
        return {"mode": "shuffle_dp", "quantity": "IX1", "n_grid": [4], "mechanism": mechanism}

    @pytest.mark.parametrize("literal,expected", [
        ({"type": "uniform", "m": 4, "alpah": 0.7}, "Q.alpah: unknown key"),
        ({"type": "zipf", "m": 4, "alpha": 0.7, "beta": 1}, "Q.beta: unknown key"),
        ({"type": "explicit", "probs": [0.5, 0.5], "lables": ["a", "b"]}, "Q.lables: unknown key"),
    ])
    def test_unknown_distribution_key(self, literal, expected):
        _, diags = parse_config(make_doc(Q=literal))
        assert [str(d) for d in diags] == [expected]

    @pytest.mark.parametrize("mechanism,expected", [
        ({"type": "krr", "k": 4, "eps0": 1.0, "eps": 2.0}, "mechanism.eps: unknown key"),
        ({"type": "explicit", "kernel": [[1.0, 0.0], [0.0, 1.0]], "outputs": [1, 2]},
         "mechanism.outputs: unknown key"),
    ])
    def test_unknown_mechanism_key(self, mechanism, expected):
        _, diags = parse_config(self.dp_doc(mechanism))
        assert [str(d) for d in diags] == [expected]

    @pytest.mark.parametrize("literal", [
        {"type": "uniform", "m": 4.7},
        {"type": "uniform", "m": 4.0},
        {"type": "uniform", "m": True},
        {"type": "uniform", "m": "4"},
        {"type": "zipf", "m": False, "alpha": 0.7},
        {"type": "zipf", "m": 4, "alpha": True},
        {"type": "zipf", "m": 4, "alpha": "0.7"},
        {"type": "explicit", "probs": [0.5, "0.5"]},
        {"type": "explicit", "probs": [True, False]},
    ])
    def test_distribution_numbers(self, literal):
        cfg, diags = parse_config(make_doc(Q=literal))
        assert [d.field for d in diags] == ["Q"] and cfg is None

    @pytest.mark.parametrize("mechanism", [
        {"type": "krr", "k": 4.0, "eps0": 1.0},
        {"type": "krr", "k": True, "eps0": 1.0},
        {"type": "krr", "k": 4, "eps0": False},
        {"type": "krr", "k": 4, "eps0": 1000},  # e^eps0 overflows
        {"type": "explicit", "kernel": [[True, False], [False, True]]},
        {"type": "explicit", "kernel": [[1.0, "0"], [0.0, 1.0]]},
    ])
    def test_mechanism_numbers(self, mechanism):
        cfg, diags = parse_config(self.dp_doc(mechanism))
        assert "mechanism" in {d.field for d in diags} and cfg is None

    @pytest.mark.parametrize("field,literal,expected", [
        ("P", {"type": "explicit", "labels": "abc", "probs": [0.2, 0.3, 0.5]},
         "P: invalid explicit literal: labels must be a JSON array, got 'abc'"),
        ("mechanism", {"type": "explicit", "kernel": [[0.6, 0.4], [0.4, 0.6]],
                       "input_labels": "ab"},
         "mechanism: invalid explicit literal: input_labels must be a JSON array, got 'ab'"),
        ("mechanism", {"type": "explicit", "kernel": [[0.6, 0.4], [0.4, 0.6]],
                       "output_labels": {"x": 1, "y": 2}},
         "mechanism: invalid explicit literal: output_labels must be a JSON array, "
         "got {'x': 1, 'y': 2}"),
    ])
    def test_label_lists_are_json_arrays(self, tmp_path, field, literal, expected):
        doc = make_doc(P=literal) if field == "P" else self.dp_doc(literal)
        assert [str(d) for d in parse_config(doc)[1]] == [expected]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "run"):
            result = CliRunner().invoke(main, [command, "--config", str(path)])
            assert result.exit_code == 2 and expected in result.output

    def test_integer_alpha_and_eps0_are_numbers(self):
        cfg, diags = parse_config(make_doc(P={"type": "zipf", "m": 4, "alpha": 1}))
        assert diags == [] and cfg.p.same_mass(make_zipf(4, 1.0))
        cfg, diags = parse_config(self.dp_doc({"type": "krr", "k": 4, "eps0": 1}))
        assert diags == [] and cfg.mechanism.kernel.tolist() == make_krr(4, 1.0).kernel.tolist()


class TestRunner:
    def test_rows_in_plan_order(self):
        cfg, _ = parse_config(make_doc(samples=500))
        rows = run_configs([cfg])
        assert [(r.n, r.method) for r in rows] == [
            (4, "mc"), (4, "asym"), (8, "mc"), (8, "asym"),
        ]

    def test_csv_shape(self):
        cfg, _ = parse_config(make_doc(samples=500))
        text = to_csv(run_configs([cfg]))
        lines = text.strip().split("\n")
        assert lines[0] == "case,n,method,quantity,value_nats,stderr"
        assert all(line.count(",") == 5 for line in lines)
        # exact/asym rows leave stderr empty
        assert lines[2].endswith(",")

    def test_plain_labels_are_not_quoted(self):
        rows = [ResultRow("q_uniform_ik", 16, "mc", "IK", 0.5, 0.25),
                ResultRow("", 16, "asym", "IK", 1 / 3, None)]
        assert to_csv(rows) == (
            "case,n,method,quantity,value_nats,stderr\n"
            "q_uniform_ik,16,mc,IK,0.5,0.25\n"
            ",16,asym,IK,0.333333333333,\n"
        )

    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.text(), min_size=1, max_size=3))
    def test_any_label_round_trips(self, labels):
        rows = [ResultRow(lab, 8, "mc", "IY1", 0.125, 0.5) for lab in labels]
        rows += [ResultRow(lab, 8, "asym", "IY1", 0.125, None) for lab in ("a,b\nc", "x\ry")]
        parsed = list(csv.reader(io.StringIO(to_csv(rows), newline="")))
        assert parsed[0] == ["case", "n", "method", "quantity", "value_nats", "stderr"]
        assert [r[0] for r in parsed[1:]] == [r.case for r in rows]
        assert all(len(r) == 6 for r in parsed)

    def test_worker_count_does_not_change_bytes(self):
        cfg, _ = parse_config(make_doc(samples=4000, method="mc"))
        a = to_csv(run_configs([cfg], workers=1))
        b = to_csv(run_configs([cfg], workers=4))
        assert a == b

    def test_all_skips_infeasible_exact(self):
        cfg, diags = parse_config(
            make_doc(method="all", n_grid=[4, 1_000_000], samples=100)
        )
        assert diags == []
        rows = run_configs([cfg])
        exact_ns = [r.n for r in rows if r.method == "exact"]
        assert exact_ns == [4]

    def test_row_seeds_reach_the_estimators(self, monkeypatch):
        # only Monte Carlo rows derive a seed, from their position in the whole
        # plan; that position counts an exact cell that 'all' drops over the
        # ceiling
        seen = []

        def recorder(name):
            real = getattr(montecarlo, name)

            def record(*args):
                seen.append((name, args[2], args[4]))
                return real(*args)

            return record

        for name in ("estimate_position_mi", "estimate_message_mi", "estimate_input_mi"):
            monkeypatch.setattr(montecarlo, name, recorder(name))
        configs = [
            ExperimentConfig(quantity="IK", p=make_zipf(3, 0.7), q=make_uniform(3),
                             n_grid=(4, 8), samples=100, seed=5, method="all"),
            ExperimentConfig(mode="shuffle_dp", quantity="IX1", mechanism=make_krr(3, 1.0),
                             n_grid=(4,), samples=100, seed=9, method="mc+bounds"),
            # plan positions 9 (exact, dropped), 10 (mc) and 11 (asym)
            ExperimentConfig(quantity="IY1", p=make_zipf(3, 0.7), q=make_uniform(3),
                             n_grid=(10**6,), samples=100, seed=11, method="all"),
        ]
        rows = run_configs(configs, workers=2)
        assert [(r.n, r.method) for r in rows[-2:]] == [(10**6, "mc"), (10**6, "asym")]
        want = [
            ("estimate_position_mi", 4, _derive_seed(5, 0, 1)),
            ("estimate_position_mi", 8, _derive_seed(5, 0, 4)),
            ("estimate_input_mi", 4, _derive_seed(9, 1, 6)),
            ("estimate_message_mi", 10**6, _derive_seed(11, 2, 10)),
        ]
        assert sorted(seen) == sorted(want)

    @pytest.mark.parametrize("seed", [-1, 2**64 + 1])
    def test_seed_outside_range_raises_before_any_cell(self, monkeypatch, seed):
        # a config built in Python skips parse_config's seed check
        ran = []
        monkeypatch.setattr(runner, "compute_row", lambda *task: ran.append(task))
        configs = [
            ExperimentConfig(quantity="IY1", p=make_zipf(3, 0.7), q=make_uniform(3),
                             n_grid=(4,), samples=100, seed=1, method="exact+mc"),
            ExperimentConfig(quantity="IY1", p=make_zipf(3, 0.7), q=make_uniform(3),
                             n_grid=(4,), samples=100, seed=seed, method="mc"),
        ]
        with pytest.raises(InvalidParameterError, match=r"seed must be in \[0, 2\^64\)"):
            run_configs(configs)
        assert ran == []

    def test_dp_ik_rows(self):
        cfg = ExperimentConfig(
            mode="shuffle_dp", quantity="IK", mechanism=make_krr(2, 0.8),
            n_grid=(3,), method="exact+bounds",
        )
        rows = run_configs([cfg])
        by_method = {r.method: r.value for r in rows}
        assert by_method["exact"] <= by_method["bound_position"] + 1e-9

    def test_dp_iy1_clone_bound_row(self):
        cfg = ExperimentConfig(
            mode="shuffle_dp", quantity="IY1", mechanism=make_krr(4, 1.0),
            n_grid=(64,), method="bounds",
        )
        rows = run_configs([cfg])
        assert rows[0].method == "bound_clone"
        assert rows[0].value == pytest.approx(3 * math.e / 128)


class TestPresets:
    def test_fig1_has_both_cases_and_methods(self):
        rows = run_configs(preset_configs("fig1"))
        cases = {r.case for r in rows}
        assert cases == {"uniform_m4", "zipf_m4_a07"}
        assert {r.method for r in rows} == {"exact", "asym"}

    def test_fig2_covers_constants(self):
        cfgs = preset_configs("fig2", samples=200)
        cases = {c.label for c in cfgs}
        assert cases == {"q_uniform_ik", "q_uniform_iy1", "q_matched_iy1", "q_optimal_iy1"}

    def test_sample_count(self):
        for name in ("fig2", "fig3"):
            assert {c.samples for c in preset_configs(name)} == {PRESET_SAMPLES}
            assert {c.samples for c in preset_configs(name, samples=300)} == {300}
        assert PRESET_SAMPLES == 24_576

    def test_fig3_methods(self):
        rows = run_configs(preset_configs("fig3", samples=500))
        methods = {r.method for r in rows}
        assert methods == {"mc", "asym", "bound_unified", "bound_blanket"}

    def test_table_rows_reachable(self):
        # every headline setting maps to a runnable config
        settings = {
            "matched": ExperimentConfig(quantity="IK", p=make_uniform(3),
                                        n_grid=(4,), method="exact"),
            "visible": ExperimentConfig(quantity="IY1", p=make_zipf(4, 0.7),
                                        q=make_uniform(4), n_grid=(4,), method="asym"),
            "hidden": ExperimentConfig(
                quantity="IK", p=make_zipf(3, 0.2),
                q=Categorical((1, 2, 3), (0.5, 0.5, 0.0)),
                n_grid=(4,), method="asym"),
            "heterogeneous": ExperimentConfig(
                mode="shuffle_dp", quantity="IK", mechanism=make_krr(3, 0.5),
                n_grid=(3,), method="bounds"),
            "dp_input": ExperimentConfig(
                mode="shuffle_dp", quantity="IX1", mechanism=make_krr(3, 0.5),
                n_grid=(8,), method="bounds"),
        }
        for name, cfg in settings.items():
            assert validate_config(cfg) == [], name
            assert run_configs([cfg]), name


class TestCli:
    def test_import_loads_no_scipy(self):
        # scipy.stats alone takes most of a second to import; the CLI needs none of it
        code = "import sys, shuffleleak.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        src = str(Path(shuffleleak.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_validate_ok(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(make_doc()))
        result = CliRunner().invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 0
        assert "ok" in result.output

    def test_validate_reports_diagnostics(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "shuffle_dp", "quantity": "IX1", "n_grid": [4]}))
        result = CliRunner().invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2
        assert "mechanism" in result.output

    def test_run_writes_csv(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "out.csv"
        cfg_path.write_text(json.dumps(make_doc(samples=300)))
        result = CliRunner().invoke(
            main, ["run", "--config", str(cfg_path), "--out", str(out_path)]
        )
        assert result.exit_code == 0
        assert out_path.read_text().startswith("case,n,method")

    def test_run_prints_no_negative_zero(self, tmp_path):
        # a hidden point mass leaks nothing; its constant -sum p log p is -0.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(make_doc(
            P={"type": "explicit", "labels": ["a", "b"], "probs": [1, 0]},
            Q={"type": "explicit", "labels": ["a", "b"], "probs": [0, 1]},
            n_grid=[4], samples=300, method="exact+mc",
        )))
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.output)))[1:]
        assert [(r[2], r[4]) for r in rows] == [("exact", "0"), ("mc", "0")]

    def test_run_nan_literal_exits_2(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(make_doc(P={"type": "zipf", "m": 4, "alpha": math.nan})))
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 2 and "value_nats" not in result.output

    def test_run_bad_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("content", [
        pytest.param(b'{"label": "\xff"}', id="not-utf8"),
        pytest.param(b"[" * 100_000, id="past-recursion-limit"),
    ])
    def test_undecodable_config_exits_2(self, tmp_path, command, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        result = CliRunner().invoke(main, [command, "--config", str(path)])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.startswith("config error: ") and result.stderr.count("\n") == 1

    def test_validate_reports_a_prior_outside_the_inputs(self, tmp_path):
        # the planned rows read every n-free value of the config, and the
        # prior vector cannot be built
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "mode": "shuffle_dp", "quantity": "IX1",
            "mechanism": {"type": "krr", "k": 3, "eps0": 1.0},
            "prior": {"type": "explicit", "labels": [1, 9], "probs": [0.5, 0.5]},
            "n_grid": [4], "method": "exact+asym+bounds",
        }))
        result = CliRunner().invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.output == "prior: prior support must be mechanism inputs\n"

    def test_run_resource_limit_exits_3(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(make_doc(method="exact", n_grid=[1_000_000])))
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 3

    def test_run_refuses_any_diagnostic(self, tmp_path):
        # a literal whose text mentions the ceiling is still a config error
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "shuffle_only", "quantity": "IY1", "n_grid": [4],
                                    "P": {"type": "uniform", "m": "resource-limit"}}))
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.stderr == (
            "P: invalid uniform literal: m must be an integer, got 'resource-limit'\n"
        )

    def test_cycled_inputs_over_the_ceiling_are_not_built(self, tmp_path):
        # 10^7 cycled inputs would take 80 MB; the state count refuses them first
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "shuffle_dp", "quantity": "IK", "method": "exact",
                                    "mechanism": {"type": "krr", "k": 2, "eps0": 1.0},
                                    "n_grid": [10**7]}))
        for command, code in (("validate", 2), ("run", 3)):
            tracemalloc.start()
            try:
                result = CliRunner().invoke(main, [command, "--config", str(path)])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert result.exit_code == code and "resource" in result.output
            assert peak < 2**20

    def test_seed_override_changes_mc(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_doc(samples=500, method="mc")))
        r1 = CliRunner().invoke(main, ["run", "--config", str(cfg_path), "--seed", "1"])
        r2 = CliRunner().invoke(main, ["run", "--config", str(cfg_path), "--seed", "2"])
        assert r1.output != r2.output

    @pytest.mark.parametrize("option", ["--samples", "--workers"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_run_nonpositive_count_exits_2(self, tmp_path, option, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(make_doc(samples=300)))
        result = CliRunner().invoke(main, ["run", "--config", str(path), option, value])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert f"Invalid value for '{option}'" in result.output

    @pytest.mark.parametrize("seed", [str(2**64), "-1"])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, seed):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(make_doc(samples=300)))
        for args in (["run", "--config", str(path)], ["preset", "fig2"]):
            result = CliRunner().invoke(main, [*args, "--seed", seed])
            assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
            assert "Invalid value for '--seed'" in result.output
        for estimate in (montecarlo.estimate_position_mi, montecarlo.estimate_message_mi):
            with pytest.raises(InvalidParameterError, match="seed"):
                estimate(make_zipf(4, 0.7), make_uniform(4), 4, 100, int(seed))
        with pytest.raises(InvalidParameterError, match="seed"):
            montecarlo.estimate_input_mi(make_krr(2, 1.0), make_uniform(2), 4, 100, int(seed))

    def test_the_largest_seed_runs(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(make_doc(samples=300, seed=2**64 - 1)))
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 0
        override = CliRunner().invoke(main, ["run", "--config", str(path), "--seed", "0"])
        assert override.exit_code == 0 and override.output != result.output

    @pytest.mark.parametrize("option", ["--samples", "--workers"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_preset_nonpositive_count_exits_2(self, option, value):
        result = CliRunner().invoke(main, ["preset", "fig2", option, value])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert f"Invalid value for '{option}'" in result.output

    def test_one_sample_exits_2(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(runner, "compute_row", lambda *cell: calls.append(cell))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(make_doc(samples=300)))
        for args in (["run", "--config", str(path)], ["preset", "fig2"]):
            result = CliRunner().invoke(main, [*args, "--samples", "1"])
            assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
            assert "Invalid value for '--samples': 1 is not in the range x>=2" in result.output
        assert calls == []

    def test_one_sample_row_built_in_python_raises(self):
        cfg = ExperimentConfig(quantity="IY1", p=make_zipf(3, 0.7), q=make_uniform(3),
                               n_grid=(4,), samples=1, method="asym+mc")
        with pytest.raises(InvalidParameterError, match="samples must be at least 2"):
            run_configs([cfg])

    def test_blanket_bound_outside_the_blanket_support(self, tmp_path):
        # row 2 puts mass on output 2, which the generalized blanket lacks
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "mode": "shuffle_dp", "quantity": "IX1",
            "mechanism": {"type": "explicit", "kernel": [[1, 0], [0.5, 0.5]]},
            "n_grid": [4], "method": "bounds",
        }))
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert [(r["method"], r["value_nats"]) for r in rows] == [
            ("bound_unified", "inf"), ("bound_blanket", "inf"),
        ]

    def test_matched_exact_beyond_the_pmf_budget_exits_3(self, tmp_path):
        doc = make_doc(method="exact", n_grid=[4, 10**7])
        del doc["Q"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 3
        result = CliRunner().invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2
        assert result.output.startswith("n_grid: resource-limit: exact method at n=10000000: ")

    def test_preset_command(self, tmp_path):
        out = tmp_path / "fig1.csv"
        result = CliRunner().invoke(main, ["preset", "fig1", "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_text().count("\n") == 49  # header + 48 rows

    @pytest.mark.parametrize("command", ["run", "preset"])
    @pytest.mark.parametrize("bad_out", ["directory", "missing_parent"])
    def test_bad_out_exits_2_before_any_cell_runs(self, tmp_path, monkeypatch, command, bad_out):
        calls = []
        monkeypatch.setattr(runner, "compute_row", lambda *cell: calls.append(cell))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(make_doc(samples=300)))
        out = tmp_path if bad_out == "directory" else tmp_path / "absent" / "out.csv"
        args = ["run", "--config", str(path)] if command == "run" else ["preset", "fig1"]
        result = CliRunner().invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert calls == [] and not (tmp_path / "absent").exists()
        assert result.stderr.startswith("output error: ") and result.stderr.count("\n") == 1


    @pytest.mark.parametrize("command", ["run", "preset"])
    def test_failed_out_write_exits_2(self, tmp_path, monkeypatch, command):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(make_doc(samples=300)))

        def full_disk(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(Path, "write_text", full_disk)
        out = tmp_path / "out.csv"
        args = ["run", "--config", str(path)] if command == "run" else ["preset", "fig1"]
        result = CliRunner().invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.stderr == f"output error: {out}: {os.strerror(errno.ENOSPC)}\n"

class TestHugeStateCounts:
    """State counts past 10^15, which the diagnostic prints as ~10^d."""

    @staticmethod
    def write(tmp_path, method, n_grid):
        doc = {
            "mode": "shuffle_dp",
            "quantity": "IK",
            "mechanism": {"type": "krr", "k": 5, "eps0": 1.25},
            "n_grid": n_grid,
            "method": method,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_all_skips_the_exact_cell(self, tmp_path):
        path = self.write(tmp_path, "all", [4, 16384])
        result = CliRunner().invoke(main, ["run", "--config", path])
        assert result.exit_code == 0
        cells = [line.split(",")[1:3] for line in result.output.splitlines()[1:]]
        assert cells == [["4", "exact"], ["4", "bound_position"], ["16384", "bound_position"]]

    def test_explicit_exact_exits_3(self, tmp_path):
        path = self.write(tmp_path, "exact", [16384])
        result = CliRunner().invoke(main, ["run", "--config", path])
        assert result.exit_code == 3
        assert "~10^" in result.output

    def test_validate_prints_the_diagnostic(self, tmp_path):
        path = self.write(tmp_path, "exact", [16384])
        result = CliRunner().invoke(main, ["validate", "--config", path])
        assert result.exit_code == 2
        assert "n_grid: resource-limit: exact method at n=16384" in result.output
        assert "~10^" in result.output

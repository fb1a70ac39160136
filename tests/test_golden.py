"""Golden bytes: the CSV of each preset at --seed 1 and of a small run
battery, at --workers 1 and 2, against files written by an earlier tree.

The battery plans every (mode, quantity, method) row the runner knows, and
among them a Monte Carlo row drawn from a table (n = 4 at m = 4), a drawn
one (n = 64), an exact cell of several enumeration chunks and exact cells
over the state ceiling that 'all' skips. Its Monte Carlo rows draw three
blocks each, so at --workers 2 the pool runs them.

The files under ``tests/golden`` were written by ``shuffleleak`` itself,
before the simplex cache and the per-config values in ``runner`` existed:
a refactor that moves one float operation changes a byte here. Write them
again only for a change that means to alter the output, and say why.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from shuffleleak.cli import main

GOLDEN = Path(__file__).parent / "golden"
SAMPLES = 3 * 4096 - 7  # three blocks, the last one short and of odd size
ZIPF = {"type": "zipf", "m": 4, "alpha": 0.7}
UNIFORM = {"type": "uniform", "m": 4}
KRR3 = {"type": "krr", "k": 3, "eps0": 1.0}
KERNEL = {"type": "explicit", "kernel": [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.5, 0.0, 0.5]],
          "input_labels": ["a", "b", "c"], "output_labels": ["x", "y", "z"]}

BATTERY = {
    # exact: one chunk at n = 4, four at n = 64, skipped at 10^6;
    # mc: tabled at n = 4, drawn at 64 and 10^6
    "so_ik": {"quantity": "IK", "P": ZIPF, "Q": UNIFORM, "n_grid": [4, 64, 10**6]},
    "so_iy1": {"quantity": "IY1", "P": ZIPF, "Q": UNIFORM, "n_grid": [3, 40]},
    # a cover that hides a target symbol, tabled at m = 2
    "so_iy1_hidden": {"quantity": "IY1", "P": {"type": "explicit", "labels": [1, 2, 3],
                                                "probs": [0.5, 0.3, 0.2]},
                      "Q": {"type": "explicit", "labels": [1, 2], "probs": [0.4, 0.6]},
                      "n_grid": [2, 5000]},
    # the matched closed form
    "so_matched": {"quantity": "IY1", "P": ZIPF, "n_grid": [5, 300]},
    "dp_ix1": {"mode": "shuffle_dp", "quantity": "IX1", "mechanism": KRR3,
               "n_grid": [4, 50]},
    "dp_ix1_kernel": {"mode": "shuffle_dp", "quantity": "IX1", "mechanism": KERNEL,
                      "prior": {"type": "explicit", "labels": ["a", "b"],
                                "probs": [0.3, 0.7]},
                      "n_grid": [3, 20]},
    # cycled inputs; the fixed-input charge skips n = 2000
    "dp_ik": {"mode": "shuffle_dp", "quantity": "IK", "mechanism": KRR3,
              "n_grid": [5, 2000]},
    "dp_ik_fixed": {"mode": "shuffle_dp", "quantity": "IK", "mechanism": KERNEL,
                    "x_inputs": ["c", "a", "a", "b"], "n_grid": [4]},
    "dp_iy1": {"mode": "shuffle_dp", "quantity": "IY1", "mechanism": KRR3,
               "n_grid": [3, 10**9]},
}


def _doc(label: str) -> dict:
    return {**BATTERY[label], "method": "all", "samples": SAMPLES, "seed": 1, "label": label}


def _csv(args: list[str], workers: int, out: Path) -> bytes:
    result = CliRunner().invoke(main, [*args, "--workers", str(workers), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out.read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
def test_preset_bytes(tmp_path, name, workers):
    got = _csv(["preset", name, "--seed", "1"], workers, tmp_path / "out.csv")
    assert got == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_battery_bytes(tmp_path, workers):
    for label in BATTERY:
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(_doc(label)))
        got = _csv(["run", "--config", str(path)], workers, tmp_path / f"{label}.csv")
        assert got == (GOLDEN / f"run_{label}.csv").read_bytes(), label


def test_battery_plans_every_row():
    rows = {}
    for label in BATTERY:
        lines = (GOLDEN / f"run_{label}.csv").read_text().splitlines()[1:]
        for line in lines:
            case, n, method, quantity, _, _ = line.split(",")
            rows.setdefault((BATTERY[label].get("mode", "shuffle_only"), quantity), set()).add(
                method)
    assert rows == {
        ("shuffle_only", "IK"): {"exact", "mc", "asym"},
        ("shuffle_only", "IY1"): {"exact", "mc", "asym"},
        ("shuffle_dp", "IX1"): {"exact", "mc", "asym", "bound_unified", "bound_blanket"},
        ("shuffle_dp", "IK"): {"exact", "bound_position"},
        ("shuffle_dp", "IY1"): {"bound_clone"},
    }
    # the exact cells over the ceiling are skipped, their other rows kept
    for label, n in (("so_ik", 10**6), ("dp_ik", 2000)):
        methods = [line.split(",")[2] for line in (GOLDEN / f"run_{label}.csv").read_text()
                   .splitlines() if line.startswith(f"{label},{n},")]
        assert methods and "exact" not in methods

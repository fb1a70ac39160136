"""Golden bytes: the CSV of each preset at --seed 1 and of a small run
battery, at --workers 1 and 2, against files written by an earlier tree.

The battery plans every (mode, quantity, method) row the runner knows, and
among them a Monte Carlo row drawn from a table (n = 4 at m = 4), a drawn
one (n = 64), an exact cell of several enumeration chunks and exact cells
over the state ceiling that 'all' skips. Its Monte Carlo rows draw two
blocks each, so at --workers 2 the pool runs them.

The files under ``tests/golden`` were written by ``shuffleleak`` itself,
with ``python tests/test_golden.py``, which also records in
``provenance.json`` the numpy version and machine that wrote them. numpy
promises no stable ``Generator`` stream across versions, so a Monte Carlo
mismatch under another numpy names both versions. A refactor that moves
one float operation changes a byte here. Write the files again only for a
change that means to alter the output, and say why.

The Monte Carlo presets are also run in fresh interpreters under
``OPENBLAS_NUM_THREADS=1``, since BLAS reads its thread count when numpy
loads. A drawn row at 64 symbols still moves with that count; a strict
xfail pins it until the Monte Carlo products stop depending on it.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import shuffleleak
from shuffleleak.cli import main
from shuffleleak.montecarlo import BLOCK_SIZE

GOLDEN = Path(__file__).parent / "golden"
PRESETS = ("fig1", "fig2", "fig3")
SAMPLES = 4 * 4096 - 7  # two blocks of 12 288, the last one short and of odd size
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


def _preset(name: str, workers: int, tmp: Path) -> bytes:
    return _csv(["preset", name, "--seed", "1"], workers, tmp / f"{name}.csv")


def _run(label: str, workers: int, tmp: Path) -> bytes:
    path = tmp / f"{label}.json"
    path.write_text(json.dumps(_doc(label)))
    return _csv(["run", "--config", str(path)], workers, tmp / f"run_{label}.csv")


def _host() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def _check(got: bytes, name: str) -> None:
    if got == (GOLDEN / name).read_bytes():
        return
    written = json.loads((GOLDEN / "provenance.json").read_text())
    note = ""
    if written != _host():
        note = (f"; the golden files were written with numpy {written['numpy']} on "
                f"{written['machine']} and this run has numpy {np.__version__} on "
                f"{platform.machine()}, and numpy's Generator streams may differ "
                f"between versions")
    pytest.fail(f"{name} differs from its golden bytes{note}")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", PRESETS)
def test_preset_bytes(tmp_path, name, workers):
    _check(_preset(name, workers, tmp_path), f"{name}.csv")


@pytest.mark.parametrize("workers", [1, 2])
def test_run_battery_bytes(tmp_path, workers):
    for label in BATTERY:
        _check(_run(label, workers, tmp_path), f"run_{label}.csv")


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
    # more than one block per Monte Carlo row, so --workers 2 pools them
    assert SAMPLES > BLOCK_SIZE
    # the exact cells over the ceiling are skipped, their other rows kept
    for label, n in (("so_ik", 10**6), ("dp_ik", 2000)):
        methods = [line.split(",")[2] for line in (GOLDEN / f"run_{label}.csv").read_text()
                   .splitlines() if line.startswith(f"{label},{n},")]
        assert methods and "exact" not in methods


def _fresh(args: list[str], blas_threads: int) -> bytes:
    """Standard output of ``python args`` in a new interpreter that imports
    this package and runs BLAS on ``blas_threads`` threads."""
    src = str(Path(shuffleleak.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          check=True, timeout=120).stdout


@pytest.mark.parametrize("name", ["fig2", "fig3"])
def test_preset_bytes_at_one_blas_thread(name):
    got = _fresh(["-m", "shuffleleak.cli", "preset", name, "--seed", "1"], blas_threads=1)
    _check(got, f"{name}.csv")


def _openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode
        return False
    return "openblas" in blas.get("name", "").lower()


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif(not _openblas() or _usable_cpus() < 2,
                    reason="needs OpenBLAS and two usable CPUs to run BLAS on two threads")
@pytest.mark.xfail(strict=True, reason="_control's products at 64 symbols round differently "
                   "on one and two BLAS threads")
def test_a_wide_row_does_not_depend_on_blas_threads():
    code = ("from shuffleleak import make_uniform, make_zipf\n"
            "from shuffleleak.montecarlo import estimate_message_mi\n"
            "print(repr(estimate_message_mi(make_zipf(64, 0.7), make_uniform(64), 256,"
            " samples=8192, seed=0).estimate))")
    assert _fresh(["-c", code], blas_threads=1) == _fresh(["-c", code], blas_threads=2)


def test_provenance_is_recorded():
    assert set(json.loads((GOLDEN / "provenance.json").read_text())) == set(_host())


if __name__ == "__main__":
    # write every golden file at --workers 1, and the host that wrote them
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in PRESETS:
            (GOLDEN / f"{name}.csv").write_bytes(_preset(name, 1, Path(tmp)))
        for label in BATTERY:
            (GOLDEN / f"run_{label}.csv").write_bytes(_run(label, 1, Path(tmp)))
    (GOLDEN / "provenance.json").write_text(json.dumps(_host(), indent=1) + "\n")

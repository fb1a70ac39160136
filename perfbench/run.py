"""shuffleleak benchmark. Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of mc_presets, many_cells (see workloads.py). The seed makes the
workload's inputs; the package is imported from ``src/``.

--trace 0 measures the end-to-end metrics with tracing off. The battery runs
once at the other worker count (warm-up, and the worker-count byte check) and
then repeatedly at the workload's own worker count for S seconds; ``wall_s``
and ``cpu_s`` are the medians over those repetitions. ``setup_s`` is the
median over fresh interpreters, started between the first repetitions, of
importing ``shuffleleak.cli`` and loading and validating the workload's
configs.

--trace 1 reports the per-module metrics: ``-X importtime`` probes, traced
repetitions alternating with untraced ones, repetitions at the other worker
count for ``runner.parallel_speedup``, and the oracle-reach ladder. Spans go
to ``.perfbench/trace-NAME-N.jsonl``.

Every battery's CSV output is checked (check.py). The last line of standard
output is one JSON object: correct, attempted (planned cells), failed
(failed cells) and metrics. Exits 2 without a result when the tree has no
``src/shuffleleak`` to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import Outcome, check_battery, comparator, load_reference, same_bytes  # noqa: E402
from workloads import WORKLOADS, Workload, build  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_STARTS = 9  # timed fresh interpreters per run, after one untimed; setup_s is their median
IMPORTTIME_STARTS = 3
MIN_REPS = 3  # timed batteries per run, even when one outlasts --seconds
PROBE_TIMEOUT_S = 120


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_package() -> None:
    """Import shuffleleak from this tree's ``src`` and nowhere else."""
    if not (SRC / "shuffleleak" / "cli.py").is_file():
        fail(f"no shuffleleak package under {SRC}")
    sys.path.insert(0, str(SRC))
    import shuffleleak.cli

    if SRC not in Path(shuffleleak.cli.__file__).resolve().parents:
        fail(f"imported shuffleleak from {shuffleleak.cli.__file__}, not from {SRC}")


def run_battery(wl: Workload, workers: int, outdir: Path, tracer=None):
    """Run every command of the workload in process; returns (outcomes, wall, cpu)."""
    from shuffleleak.cli import main

    outs = [outdir / f"out_{i:03d}.csv" for i in range(len(wl.commands))]
    for path in outs:
        path.unlink(missing_ok=True)
    status = []
    t0, c0 = perf_counter(), process_time()
    for cmd, out in zip(wl.commands, outs):
        code, error = 0, None
        span = tracer.span(f"cli.{cmd.name}") if tracer else contextlib.nullcontext()
        try:
            with span:
                main.main(args=cmd.args(workers, out), prog_name="shuffleleak",
                          standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crashing command fails its cells; the battery goes on
            first = str(exc).splitlines()[0] if str(exc) else ""
            error = f"{type(exc).__name__}: {first}"
        status.append((code, error))
    wall, cpu = perf_counter() - t0, process_time() - c0
    outcomes = [Outcome(p.read_text() if p.exists() else None, code, error)
                for p, (code, error) in zip(outs, status)]
    return outcomes, wall, cpu


def probe(spec: Path, importtime: bool = False) -> tuple[float, str]:
    """Set-up time of one fresh interpreter, and its stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "probe.py"), str(spec)]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.split()[-1]) - start, proc.stderr


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            cumulative = parts[1].strip()
            if cumulative.isdigit():
                out[parts[2].strip()] = int(cumulative) * 1e-6
    return out


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def other_workers(wl: Workload) -> int:
    return 1 if wl.workers > 1 else max(2, nproc())


def measure(wl: Workload, workdir: Path, seconds: int, spec: Path):
    """Tracing off: the end-to-end metrics."""
    probe(spec)  # warm-up: byte-compiles src and fills the file cache
    first, _, _ = run_battery(wl, other_workers(wl), workdir)
    result = check_battery(wl.commands, first, comparator(wl.name, load_reference()))
    walls, cpus, setups = [], [], []
    deadline = perf_counter() + seconds
    while len(walls) < MIN_REPS or perf_counter() < deadline:
        outcomes, wall, cpu = run_battery(wl, wl.workers, workdir)
        walls.append(wall)
        cpus.append(cpu)
        result.problems += same_bytes(
            wl.commands, first, outcomes,
            f"--workers {other_workers(wl)} and --workers {wl.workers} (repetition {len(walls)})")
        if len(setups) < SETUP_STARTS:  # spread over the run; not counted in its seconds
            started = perf_counter()
            setups.append(probe(spec)[0])
            deadline += perf_counter() - started
    while len(setups) < SETUP_STARTS:
        setups.append(probe(spec)[0])
    print(f"perfbench: {wl.name}: {len(walls)} batteries, wall {[round(w, 3) for w in walls]}, "
          f"set-up {[round(s, 3) for s in setups]}", file=sys.stderr)
    metrics = {
        "wall_s": (median(walls), "s"),
        "cpu_s": (median(cpus), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (1.0 - result.failed / result.planned, "ratio"),
    }
    return result, metrics


def measure_traced(wl: Workload, workdir: Path, seconds: int, spec: Path, trace_path: Path):
    """Tracing on: the per-module metrics."""
    import reach
    import tracing

    probe(spec)
    imports = [import_times(probe(spec, importtime=True)[1]) for _ in range(IMPORTTIME_STARTS)]
    other = other_workers(wl)
    first, _, _ = run_battery(wl, other, workdir)
    result = check_battery(wl.commands, first, comparator(wl.name, load_reference()))
    plain, traced, per_rep, cells = [], [], [], []
    trace_path.unlink(missing_ok=True)
    deadline = perf_counter() + seconds
    while len(traced) < 2 or perf_counter() < deadline:
        outcomes, wall, _ = run_battery(wl, wl.workers, workdir)
        plain.append(wall)
        result.problems += same_bytes(wl.commands, first, outcomes, "worker counts")
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            outcomes, wall, _ = run_battery(wl, wl.workers, workdir, tracer)
        traced.append(wall)
        result.problems += same_bytes(wl.commands, first, outcomes, "traced and untraced runs")
        per_rep.append(tracing.rep_metrics(tracer.spans, wall))
        cells += tracing.cell_times_ms(tracer.spans)
        tracer.write(trace_path, len(traced))
    at_other = [run_battery(wl, other, workdir)[1] for _ in range(2)]
    at_one, at_many = (plain, at_other) if wl.workers == 1 else (at_other, plain)

    m = {name: median([r[name] for r in per_rep]) for name in per_rep[0]}
    m["cli.import_s"] = median([t.get("shuffleleak.cli", 0.0) for t in imports])
    m["cli.import_scipy_stats_s"] = median([t.get("scipy.stats", 0.0) for t in imports])
    m["runner.cells_planned"] = result.planned
    m["runner.cells_done"] = result.done
    m["runner.cells_skipped"] = result.skipped
    m["runner.cells_failed"] = result.failed
    m["runner.cell_p50_ms"] = percentile(cells, 0.50)
    m["runner.cell_p99_ms"] = percentile(cells, 0.99)
    m["runner.cell_count"] = len(cells)
    m["runner.parallel_speedup"] = median(at_one) / median(at_many)
    m["montecarlo.rel_stderr"] = median(result.rel_stderr)
    m["trace.overhead_s"] = median(traced) - median(plain)
    m["error_rate"] = result.failed / result.planned
    m.update(reach.oracle_reach())
    print(f"perfbench: {wl.name}: untraced {[round(w, 3) for w in plain]}, "
          f"traced {[round(w, 3) for w in traced]}, at {other} workers "
          f"{[round(w, 3) for w in at_other]}", file=sys.stderr)
    return result, {name: (value, _unit(name)) for name, value in m.items()}


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("ns_per_sample"):
        return "ns"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if ".reach_n." in name:
        return "n"
    if name.endswith(("_share", "_rate", "_speedup", "rel_stderr")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    import_package()

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = build(args.workload, args.seed, workdir, nproc())
        spec = workdir / "setup.json"
        spec.write_text(json.dumps(wl.setup))
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
            result, metrics = measure_traced(wl, workdir, args.seconds, spec, trace_path)
        else:
            result, metrics = measure(wl, workdir, args.seconds, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in result.failures:
        print(f"perfbench: failed: {line}", file=sys.stderr)
    for line in result.problems:
        print(f"perfbench: incorrect: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.planned,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

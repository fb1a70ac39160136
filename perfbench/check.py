"""Output check: every CSV a command wrote is compared with the command's plan.

A planned cell is *done* when its row is present and passes the checks,
*skipped* when it is an exact cell above the state ceiling that the runner
dropped under ``all``, and *failed* otherwise: its command raised or exited
non-zero (every cell of the command counts), its exact row is missing though
within the ceiling, or its value is not finite, lies outside [-tol, cap], or
disagrees with the recorded reference. ``problems`` lists what makes the
output wrong beyond failed cells: a malformed table, missing non-exact rows,
reference mismatches, and output that depends on the worker count.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Command

HEADER = ["case", "n", "method", "quantity", "value_nats", "stderr"]
EXACT_RTOL = 1e-9  # relative agreement with recorded exact values
MC_SIGMAS = 5.0  # Monte Carlo rows agree with the recorded run within this many combined stderr
CAP_TOL = 1e-9  # slack on [0, cap] for exact rows, relative to max(1, cap)

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class Outcome:
    """What one command produced in one battery."""

    text: str | None  # the CSV it wrote, None when it wrote none
    code: int = 0  # exit code
    error: str | None = None  # exception it raised, as "Type: message"

    @property
    def aborted(self) -> str | None:
        """Why the command left no table to check, or None."""
        if self.error is not None:
            return self.error
        if self.code != 0:
            return f"exit code {self.code}"
        if self.text is None:
            return "no output written"
        return None


@dataclass
class CheckResult:
    planned: int = 0
    done: int = 0
    skipped: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    rel_stderr: list[float] = field(default_factory=list)  # Monte Carlo stderr / |estimate|

    @property
    def correct(self) -> bool:
        return not self.problems


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _close(a: float, b: float, rtol: float = EXACT_RTOL) -> bool:
    return abs(a - b) <= rtol * abs(b) + 1e-300


def _compare_many(reference: dict):
    """Exact, asymptotic and bound rows against the recorded values. Monte
    Carlo rows and cells without a finite recorded value (failed or skipped
    at the reference commit) keep only the finiteness and range checks."""
    rows = reference["many_cells"]["rows"]

    def compare(case, n, method, value, stderr):
        want = rows.get(f"{case},{n},{method}")
        if method == "mc" or want is None or _close(value, want):
            return None
        return f"{case} n={n} {method}: {value!r} differs from recorded {want!r}"

    return compare


def _compare_presets(reference: dict):
    rows = reference["mc_presets"]["rows"]

    def compare(case, n, method, value, stderr):
        want = rows.get(f"{case},{n},{method}")
        if want is None:
            return f"no recorded row for {case} n={n} {method}"
        ref_value, ref_stderr = want
        if method == "mc":
            limit = MC_SIGMAS * math.hypot(stderr or 0.0, ref_stderr)
            if abs(value - ref_value) > limit:
                return (f"{case} n={n} mc: {value!r} is more than {MC_SIGMAS:g} combined "
                        f"stderr from recorded {ref_value!r}")
        elif not _close(value, ref_value):
            return f"{case} n={n} {method}: {value!r} differs from recorded {ref_value!r}"
        return None

    return compare


def comparator(workload: str, reference: dict):
    """Per-row reference comparison for the workloads that have recorded rows."""
    if workload == "many_cells":
        return _compare_many(reference)
    if workload == "mc_presets":
        return _compare_presets(reference)
    return None


def check_battery(commands: list[Command], outcomes: list[Outcome], compare=None) -> CheckResult:
    res = CheckResult()
    for cmd, out in zip(commands, outcomes):
        cells = [(plan, n, m) for plan in cmd.plans for n, m in plan.cells()]
        res.planned += len(cells)
        reason = out.aborted
        if reason is not None:
            res.failed += len(cells)
            res.failures.append(f"{cmd.plans[0].label}: {len(cells)} cells, command aborted: {reason}")
            continue
        table = list(csv.reader(io.StringIO(out.text)))
        if not table or table[0] != HEADER:
            res.problems.append(f"{cmd.plans[0].label}: bad header {table[:1]}")
            res.failed += len(cells)
            continue
        rows = iter(table[1:])
        row = next(rows, None)
        for plan, n, method in cells:
            if row is None or row[:3] != [plan.label, str(n), method]:
                if method == "exact" and n in plan.skips:
                    res.skipped += 1
                elif method == "exact":
                    res.failed += 1
                    res.failures.append(f"{plan.label} n={n} exact: row missing within the ceiling")
                else:
                    res.failed += 1
                    res.problems.append(f"{plan.label} n={n} {method}: row missing")
                continue
            _check_row(res, plan, n, method, row, compare)
            row = next(rows, None)
        if row is not None:
            res.problems.append(f"{cmd.plans[0].label}: unplanned row {row}")
    return res


def _check_row(res: CheckResult, plan, n: int, method: str, row: list[str], compare) -> None:
    where = f"{plan.label} n={n} {method}"
    try:
        value = float(row[4])
        stderr = float(row[5]) if row[5] else None
    except (IndexError, ValueError):
        res.failed += 1
        res.problems.append(f"{where}: unparseable row {row}")
        return
    if row[3] != plan.quantity:
        res.failed += 1
        res.problems.append(f"{where}: quantity {row[3]} is not {plan.quantity}")
        return
    if not math.isfinite(value) or (stderr is not None and not math.isfinite(stderr)):
        res.failed += 1
        res.failures.append(f"{where}: non-finite value {row[4]!r}")
        return
    if method in ("exact", "mc"):
        cap = plan.cap(n)
        tol = CAP_TOL * max(1.0, cap)
        if method == "mc":
            tol += MC_SIGMAS * (stderr or 0.0)
        if not -tol <= value <= cap + tol:
            res.failed += 1
            res.failures.append(f"{where}: {value!r} outside [0, {cap!r}]")
            return
    if method == "mc" and value != 0.0:
        res.rel_stderr.append((stderr or 0.0) / abs(value))
    if compare is not None:
        problem = compare(plan.label, n, method, value, stderr)
        if problem is not None:
            res.failed += 1
            res.problems.append(problem)
            return
    res.done += 1


def same_bytes(commands: list[Command], first: list[Outcome], second: list[Outcome], what: str) -> list[str]:
    """Problems where two batteries of the same inputs disagree."""
    problems = []
    for cmd, a, b in zip(commands, first, second):
        if a.text != b.text or (a.aborted is None) != (b.aborted is None):
            problems.append(f"{cmd.plans[0].label}: output differs between {what}")
    return problems

"""Spans around the public functions of each shuffleleak module.

The wrappers live here, not in the package: ``installed`` rebinds the name
each caller looks up and restores it on exit. ``cli`` imports
``parse_config``, ``preset_configs``, ``run_configs`` and ``to_csv`` by name,
``config.parse_config`` calls ``validate_config`` as a module global, and
``runner`` calls ``compute_row`` as a global, imports
``blanket_of_randomizer``/``ldp_epsilon`` by name, and reaches ``exact``,
``montecarlo`` and ``asymptotics`` through the module attribute.

A span records its name, start, end, parent and thread, plus a work count
(enumerated states or Monte Carlo samples) for calls that return. Pool
threads have no open span of their own, so their outermost spans take the
span open on the tracer's own thread (``run_configs``) as parent. Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
import json
import math
import threading
from dataclasses import asdict, dataclass
from time import perf_counter

EXACT_ORACLES = (
    "position_mi_exact",
    "message_mi_exact",
    "matched_message_mi",
    "input_mi_iid_others",
    "position_mi_fixed_inputs",
)
MC_ESTIMATORS = ("estimate_position_mi", "estimate_message_mi", "estimate_input_mi")


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # 0 for a top-level span
    name: str
    thread: int
    start: float
    end: float
    ok: bool
    work: int  # states (exact) or samples (montecarlo) of a call that returned

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe span recorder."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self) -> tuple[int, int, float]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._home_stack[-1] if self._home_stack else 0
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        return sid, parent, perf_counter()

    def exit(self, token: tuple[int, int, float], name: str, ok: bool, work=None) -> None:
        end = perf_counter()
        sid, parent, start = token
        self._stack().pop()
        count = work() if (ok and work is not None) else 0
        span = Span(sid, parent, name, threading.get_ident(), start, end, ok, count)
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        token = self.enter()
        ok = False
        try:
            yield
            ok = True
        finally:
            self.exit(token, name, ok)

    def write(self, path, rep: int) -> None:
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps({"rep": rep, **asdict(s)}) + "\n")


def _wrap(tracer: Tracer, name: str, fn, count=None):
    sig = inspect.signature(fn) if count is not None else None

    def wrapper(*args, **kwargs):
        def work():
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return count(bound.arguments)

        token = tracer.enter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            tracer.exit(token, name, ok, work if count is not None else None)

    return wrapper


def _exact_states(name: str):
    from shuffleleak import exact

    if name in ("position_mi_exact", "message_mi_exact"):
        return lambda a: exact.states_shuffle_only(a["p"], a["q"], a["n"])
    if name == "input_mi_iid_others":
        return lambda a: exact.states_input_mi(a["n"], len(a["r"].output_labels))
    if name == "position_mi_fixed_inputs":
        return lambda a: exact.states_position_dp(len(a["x_inputs"]), len(a["r"].output_labels))
    return lambda a: 0  # matched_message_mi is a closed form: nothing is enumerated


def targets():
    """(owner, attribute, span name, work counter) for every wrapped call site."""
    cli = importlib.import_module("shuffleleak.cli")
    config = importlib.import_module("shuffleleak.config")
    runner = importlib.import_module("shuffleleak.runner")
    exact = importlib.import_module("shuffleleak.exact")
    montecarlo = importlib.import_module("shuffleleak.montecarlo")
    asym = importlib.import_module("shuffleleak.asymptotics")
    out = [
        (cli, "parse_config", "config.parse_config", None),
        (config, "validate_config", "config.validate_config", None),
        (cli, "preset_configs", "runner.preset_configs", None),
        (cli, "run_configs", "runner.run_configs", None),
        (runner, "compute_row", "runner.compute_row", None),
        (cli, "to_csv", "runner.to_csv", None),
        (runner, "blanket_of_randomizer", "mechanisms.blanket_of_randomizer", None),
        (runner, "ldp_epsilon", "mechanisms.ldp_epsilon", None),
    ]
    out += [(exact, f, f"exact.{f}", _exact_states(f)) for f in EXACT_ORACLES]
    out += [(montecarlo, f, f"montecarlo.{f}", lambda a: a["samples"]) for f in MC_ESTIMATORS]
    for f, obj in vars(asym).items():
        if inspect.isfunction(obj) and not f.startswith("_") and obj.__module__ == asym.__name__:
            out.append((asym, f, f"asymptotics.{f}", None))
    out.append((asym.AsymptoticTerm, "evaluate", "asymptotics.AsymptoticTerm.evaluate", None))
    return [t for t in out if hasattr(t[0], t[1])]


@contextlib.contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for owner, attr, name, count in targets():
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, name, fn, count))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# --- aggregation ------------------------------------------------------------


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that its children's intervals cover."""
    ivs = sorted((max(c.start, span.start), min(c.end, span.end)) for c in children)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in ivs:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def rep_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-module figures of one traced battery."""
    children: dict[int, list[Span]] = {}
    names = {s.id: s.name for s in spans}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def self_time(name: str) -> float:
        return sum(s.duration - _covered(s, children.get(s.id, [])) for s in spans if s.name == name)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def outermost(prefix: str) -> list[Span]:
        return [s for s in spans
                if s.name.startswith(prefix) and not names.get(s.parent, "").startswith(prefix)]

    top = [s for s in spans if s.parent == 0]
    m = {
        "cli.self_s": sum(s.duration - _covered(s, children.get(s.id, [])) for s in top),
        "config.parse_s": self_time("config.parse_config"),
        "config.validate_s": sum(s.duration for s in named("config.validate_config")),
        "config.docs": len(named("config.parse_config")),
        "runner.self_s": self_time("runner.run_configs"),
        "runner.to_csv_s": sum(s.duration for s in named("runner.to_csv")),
        "trace.uncovered_share": (wall - sum(s.duration for s in top)) / wall,
    }
    states = busy = 0.0
    for f in EXACT_ORACLES:
        calls = named(f"exact.{f}")
        m[f"exact.{f}.calls"] = len(calls)
        m[f"exact.{f}.busy_s"] = sum(s.duration for s in calls)
        m[f"exact.{f}.states"] = sum(s.work for s in calls)
        if f != "matched_message_mi":
            states += m[f"exact.{f}.states"]
            busy += m[f"exact.{f}.busy_s"]
    m["exact.states_per_s"] = states / busy if busy else 0.0
    samples = mc_busy = blocks = 0.0
    block = _block_size()
    for f in MC_ESTIMATORS:
        calls = named(f"montecarlo.{f}")
        m[f"montecarlo.{f}.calls"] = len(calls)
        m[f"montecarlo.{f}.busy_s"] = sum(s.duration for s in calls)
        m[f"montecarlo.{f}.samples"] = sum(s.work for s in calls)
        samples += m[f"montecarlo.{f}.samples"]
        mc_busy += m[f"montecarlo.{f}.busy_s"]
        blocks += sum(math.ceil(s.work / block) for s in calls)
    m["montecarlo.ns_per_sample"] = 1e9 * mc_busy / samples if samples else 0.0
    m["montecarlo.blocks"] = blocks
    for module in ("asymptotics", "mechanisms"):
        spans_of = outermost(module + ".")
        m[f"{module}.calls"] = len(spans_of)
        m[f"{module}.busy_s"] = sum(s.duration for s in spans_of)
    return m


def cell_times_ms(spans: list[Span]) -> list[float]:
    return [1e3 * s.duration for s in spans if s.name == "runner.compute_row"]


def _block_size() -> int:
    from shuffleleak import montecarlo

    return montecarlo.BLOCK_SIZE

"""Benchmark workloads: a seed becomes a list of CLI commands and their plans.

Every workload is a battery of ``shuffleleak`` commands run in one process.
Each command carries the plan of the configs it runs (label, quantity, n
grid and the concrete methods the runner evaluates per n), which the output
check uses to count planned, skipped and failed cells. The plans restate the
CLI's documented contract; they do not read the runner's private helpers.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("mc_presets", "many_cells")
STATE_CEILING = 10_000_000  # the exact oracles' default state ceiling at the reference commit

# Concrete methods per base method, in the runner's plan order.
_SHUFFLE_ONLY = {"exact": ("exact",), "mc": ("mc",), "asym": ("asym",), "bounds": ()}
_DP_TABLE = {
    "IX1": {"exact": ("exact",), "mc": ("mc",), "asym": ("asym",),
            "bounds": ("bound_unified", "bound_blanket")},
    "IK": {"exact": ("exact",), "mc": (), "asym": (), "bounds": ("bound_position",)},
    "IY1": {"exact": (), "mc": (), "asym": (), "bounds": ("bound_clone",)},
}
_BASES = ("exact", "mc", "asym", "bounds")


def concrete_methods(mode: str, quantity: str, method: str) -> tuple[str, ...]:
    table = _SHUFFLE_ONLY if mode == "shuffle_only" else _DP_TABLE[quantity]
    selected = _BASES if method == "all" else tuple(method.split("+"))
    return tuple(c for base in _BASES if base in selected for c in table[base])


@dataclass(frozen=True)
class Plan:
    """What one config should produce: one row per (n, method) cell."""

    label: str
    quantity: str
    n_grid: tuple[int, ...]
    methods: tuple[str, ...]
    entropy: float  # H(P) for IY1, H(prior) for IX1; unused for IK
    skips: frozenset[int] = frozenset()  # n whose exact cell exceeds STATE_CEILING

    def cells(self) -> list[tuple[int, str]]:
        return [(n, m) for n in self.n_grid for m in self.methods]

    def cap(self, n: int) -> float:
        """Largest value the quantity can take at population size n."""
        return math.log(n) if self.quantity == "IK" else self.entropy


@dataclass
class Command:
    """One ``shuffleleak`` invocation; ``{workers}`` and ``{out}`` are filled per run."""

    argv: tuple[str, ...]
    plans: list[Plan] = field(default_factory=list)

    def args(self, workers: int, out: Path) -> list[str]:
        return [a.format(workers=workers, out=out) for a in self.argv]

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    workers: int  # worker count of the timed battery
    commands: list[Command]
    setup: dict  # what the set-up probe loads: {"configs": [...], "presets": [...], "seed": s}


def _entropy(probs) -> float:
    return -math.fsum(p * math.log(p) for p in probs if p > 0)


def _zipf(m: int, alpha: float) -> list[float]:
    w = [i ** (-alpha) for i in range(1, m + 1)]
    s = math.fsum(w)
    return [x / s for x in w]


def _mixed_probs(rng: random.Random, m: int) -> list[float]:
    """Random distribution kept at least half-uniform, so no symbol is rare."""
    w = [rng.gammavariate(1.0, 1.0) for _ in range(m)]
    s = math.fsum(w)
    return [0.5 / m + 0.5 * x / s for x in w]


def _explicit(probs, labels=None) -> dict:
    labels = list(range(1, len(probs) + 1)) if labels is None else list(labels)
    return {"type": "explicit", "labels": labels, "probs": probs}


def write_run(workdir: Path, index: int, doc: dict) -> Command:
    path = workdir / f"cfg_{index:03d}.json"
    path.write_text(json.dumps(doc))
    return Command(("run", "--config", str(path), "--workers", "{workers}", "--out", "{out}"))


# --- mc_presets -------------------------------------------------------------

_PRESET_GRID = (16, 32, 64, 128, 256, 512, 1024)
_ZIPF4 = _zipf(4, 0.7)


def mc_presets(seed: int, workdir: Path, nproc: int) -> Workload:
    """fig2 then fig3: 84 rows, 35 of them Monte Carlo at 10^5 samples."""
    fig2 = Command(("preset", "fig2", "--seed", str(seed), "--workers", "{workers}",
                    "--out", "{out}"))
    for label, q in (("q_uniform_ik", "IK"), ("q_uniform_iy1", "IY1"),
                     ("q_matched_iy1", "IY1"), ("q_optimal_iy1", "IY1")):
        fig2.plans.append(Plan(label, q, _PRESET_GRID, ("mc", "asym"), _entropy(_ZIPF4)))
    fig3 = Command(("preset", "fig3", "--seed", str(seed), "--workers", "{workers}",
                    "--out", "{out}"))
    fig3.plans.append(Plan("krr4_eps1", "IX1", _PRESET_GRID,
                           concrete_methods("shuffle_dp", "IX1", "mc+asym+bounds"),
                           math.log(4)))
    return Workload("mc_presets", nproc, [fig2, fig3],
                    {"configs": [], "presets": ["fig2", "fig3"], "seed": seed})


# --- many_cells -------------------------------------------------------------

MANY_TINY_N = (2, 3, 4, 6, 8)
MANY_SAMPLES = 4096  # one Monte Carlo block per row


def _shape(m: int, salt: str) -> list[float]:
    """A fixed distribution on m symbols, the same for every seed."""
    return _mixed_probs(random.Random(f"{salt}-{m}"), m)


def _permuted(rng: random.Random, values) -> list:
    out = list(values)
    rng.shuffle(out)
    return out


def many_cell_docs(rng: random.Random) -> list[dict]:
    """About 100 configs covering every mode and quantity with m in 2..5.

    The slots (mode, quantity, m, variant), the n grids and the distributions
    are the same for every seed up to their labels. The seed draws the Monte
    Carlo seeds and one relabelling per config, applied to all of the config's
    distributions and mechanism inputs at once. A joint relabelling changes
    no exact, asymptotic or bound value, no state count and no cell's cost,
    so ``reference.json`` holds those values for every seed.
    """
    docs = []
    for m in (2, 3, 4, 5):
        for quantity in ("IK", "IY1"):
            for target in ("zipf", "explicit"):
                for cover in ("uniform", "matched", "explicit", "hidden"):
                    if target == "zipf":  # labels 1..m, so the cover keeps them too
                        labels = list(range(1, m + 1))
                        p = {"type": "zipf", "m": m, "alpha": 0.4 + 0.3 * (m - 2)}
                    else:
                        labels = _permuted(rng, range(1, m + 1))
                        p = _explicit(_shape(m, "P"), labels)
                    doc = {"mode": "shuffle_only", "quantity": quantity, "P": p}
                    if cover == "uniform":
                        doc["Q"] = {"type": "uniform", "m": m}
                    elif cover == "explicit":
                        doc["Q"] = _explicit(_shape(m, "Q"), labels)
                    elif cover == "hidden":  # the last label is invisible to the cover
                        doc["Q"] = _explicit(_shape(m - 1, "H"), labels[:-1])
                    large = 16384 if cover in ("uniform", "hidden") else 4096
                    docs.append((f"so_{quantity}_m{m}_{target}_{cover}", large, doc))
        for quantity in ("IX1", "IK", "IY1"):
            for variant in ("krr", "krr_prior", "explicit"):
                if variant == "explicit":  # diagonal-heavy rows, every entry positive
                    rows = [[0.5 * x + (0.5 if j == i else 0.0)
                             for j, x in enumerate(_shape(m, f"R{i}"))] for i in range(m)]
                    mech = {"type": "explicit", "kernel": rows,
                            "input_labels": _permuted(rng, range(1, m + 1))}
                else:
                    mech = {"type": "krr", "k": m, "eps0": 0.25 * m}
                doc = {"mode": "shuffle_dp", "quantity": quantity, "mechanism": mech}
                if variant == "krr_prior":  # kRR is symmetric, so this is a joint relabelling
                    doc["prior"] = _explicit(_shape(m, "X"), _permuted(rng, range(1, m + 1)))
                large = 16384 if variant == "krr" else 4096
                docs.append((f"dp_{quantity}_m{m}_{variant}", large, doc))
    out = []
    for i, (label, large, doc) in enumerate(docs):
        doc.update(
            n_grid=list(MANY_TINY_N) + [large],
            samples=MANY_SAMPLES,
            seed=rng.randrange(1 << 31),
            method="all",
            label=f"c{i:03d}_{label}",
        )
        out.append(doc)
    return out


def _ceiling_skips(doc: dict) -> frozenset[int]:
    """The n whose exact cell needs more than STATE_CEILING states, so that
    ``all`` skips it. Counted with the package's public state counts; the
    matched closed form has no ceiling."""
    from shuffleleak import exact
    from shuffleleak.config import parse_config

    cfg, _ = parse_config(doc)
    if cfg.mode == "shuffle_only":
        q = cfg.q if cfg.q is not None else cfg.p
        if cfg.quantity == "IY1" and cfg.p.same_mass(q):
            return frozenset()
        return frozenset(n for n in cfg.n_grid
                         if exact.states_shuffle_only(cfg.p, q, n) > STATE_CEILING)
    k = len(cfg.mechanism.output_labels)
    count = {"IX1": exact.states_input_mi, "IK": exact.states_position_dp}.get(cfg.quantity)
    if count is None:
        return frozenset()
    return frozenset(n for n in cfg.n_grid if count(n, k) > STATE_CEILING)


def _doc_entropy(doc: dict) -> float:
    if doc["mode"] == "shuffle_dp" and doc["quantity"] != "IX1":
        return math.inf  # IK is capped by log n; IY1 has only bound rows
    if doc["quantity"] == "IX1":
        if "prior" in doc:
            return _entropy(doc["prior"]["probs"])
        mech = doc["mechanism"]
        return math.log(mech["k"] if mech["type"] == "krr" else len(mech["kernel"]))
    p = doc["P"]
    if p["type"] == "zipf":
        return _entropy(_zipf(p["m"], p["alpha"]))
    if p["type"] == "uniform":
        return math.log(p["m"])
    return _entropy(p["probs"])


def many_cells(seed: int, workdir: Path, nproc: int) -> Workload:
    """One ``run`` per seed-generated config at --workers nproc."""
    commands = []
    for i, doc in enumerate(many_cell_docs(random.Random(seed))):
        cmd = write_run(workdir, i, doc)
        cmd.plans.append(Plan(doc["label"], doc["quantity"], tuple(doc["n_grid"]),
                              concrete_methods(doc["mode"], doc["quantity"], doc["method"]),
                              _doc_entropy(doc), _ceiling_skips(doc)))
        commands.append(cmd)
    return Workload("many_cells", nproc, commands,
                    {"configs": [c.argv[2] for c in commands], "presets": [], "seed": seed})


BUILDERS = {"mc_presets": mc_presets, "many_cells": many_cells}


def build(name: str, seed: int, workdir: Path, nproc: int) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, workdir, nproc)

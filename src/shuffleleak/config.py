"""Experiment configuration: JSON literals, parsing, validation, and the
cell table that says which code computes each (mode, quantity, method).

A config is a single JSON document. Distribution literals:
``{"type": "uniform", "m": 4}``, ``{"type": "zipf", "m": 4, "alpha": 0.7}``,
``{"type": "explicit", "labels": [...], "probs": [...]}``. Mechanism
literals: ``{"type": "krr", "k": 4, "eps0": 1.0}`` or
``{"type": "explicit", "kernel": [[...], ...]}`` with optional label lists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import cycle, islice
from typing import Callable

import numpy as np

from . import exact
from .errors import InvalidParameterError, ResourceLimitError
from .exact import (
    check_states,
    states_binomial,
    states_input_mi,
    states_position_dp,
    states_shuffle_only,
)
from .mechanisms import Randomizer, make_krr
from .montecarlo import DEFAULT_SAMPLES
from .probability import Categorical, make_uniform, make_zipf

MODES = ("shuffle_only", "shuffle_dp")
QUANTITIES = ("IK", "IY1", "IX1")
BASE_METHODS = ("exact", "mc", "asym", "bounds")
# The CSV rows (concrete methods) each base method gives per n, for every
# (mode, quantity) a config may ask for; a base that is absent gives none.
CELLS = {
    ("shuffle_only", "IK"): {"exact": ("exact",), "mc": ("mc",), "asym": ("asym",)},
    ("shuffle_only", "IY1"): {"exact": ("exact",), "mc": ("mc",), "asym": ("asym",)},
    ("shuffle_dp", "IX1"): {
        "exact": ("exact",), "mc": ("mc",), "asym": ("asym",),
        "bounds": ("bound_unified", "bound_blanket"),
    },
    ("shuffle_dp", "IK"): {"exact": ("exact",), "bounds": ("bound_position",)},
    ("shuffle_dp", "IY1"): {"bounds": ("bound_clone",)},
}
KEYS = (
    "mode", "quantity", "P", "p", "Q", "q", "mechanism", "prior", "x_inputs",
    "n_grid", "samples", "seed", "method", "label",
)


@dataclass(frozen=True)
class Diagnostic:
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "shuffle_only"
    quantity: str = "IY1"
    p: Categorical | None = None
    q: Categorical | None = None  # None means the covers share p
    mechanism: Randomizer | None = None
    prior: Categorical | None = None  # None means uniform over mechanism inputs
    x_inputs: tuple | None = None  # None means cycle through mechanism inputs
    n_grid: tuple = ()
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    method: str = "all"
    label: str = ""

    def with_overrides(self, samples=None, seed=None) -> "ExperimentConfig":
        cfg = self
        if samples is not None:
            cfg = replace(cfg, samples=samples)
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        return cfg

    @property
    def cover(self) -> Categorical | None:
        """The covers' distribution: ``q``, or ``p`` when the covers share it."""
        return self.q if self.q is not None else self.p

    def input_prior(self) -> Categorical:
        """The shuffle_dp input distribution: ``prior``, or uniform over the
        mechanism's inputs."""
        if self.prior is not None:
            return self.prior
        labels = self.mechanism.input_labels
        return Categorical(labels, np.full(len(labels), 1.0 / len(labels)))


DISTRIBUTION_KEYS = {"uniform": ("m",), "zipf": ("m", "alpha"), "explicit": ("labels", "probs")}
MECHANISM_KEYS = {"krr": ("k", "eps0"), "explicit": ("kernel", "input_labels", "output_labels")}


def _literal_kind(lit, path: str, kinds: dict, what: str, diags: list[Diagnostic]):
    """The ``type`` of a literal, or None after a diagnostic when the
    literal is not an object of a known type. Keys the type does not take
    are diagnostics too, one per key."""
    if not isinstance(lit, dict) or "type" not in lit:
        diags.append(Diagnostic(path, "expected an object with a 'type' field"))
        return None
    kind = lit["type"]
    if not isinstance(kind, str) or kind not in kinds:
        diags.append(Diagnostic(path, f"unknown {what} type {kind!r}"))
        return None
    diags.extend(
        Diagnostic(f"{path}.{key}", "unknown key")
        for key in lit
        if key != "type" and key not in kinds[kind]
    )
    return kind


def _number(value, what: str, integer: bool = False):
    """``value`` when it is a JSON integer, or as a float when it is any
    JSON number and ``integer`` is false; JSON true/false and strings raise."""
    if _is_int(value) or (not integer and isinstance(value, float)):
        return value if integer else float(value)
    raise InvalidParameterError(
        f"{what} must be {'an integer' if integer else 'a number'}, got {value!r}"
    )


def parse_distribution(lit, path: str, diags: list[Diagnostic]) -> Categorical | None:
    kind = _literal_kind(lit, path, DISTRIBUTION_KEYS, "distribution", diags)
    try:
        if kind == "uniform":
            return make_uniform(_number(lit["m"], "m", integer=True))
        if kind == "zipf":
            return make_zipf(_number(lit["m"], "m", integer=True), _number(lit["alpha"], "alpha"))
        if kind == "explicit":
            labels = lit.get("labels")
            probs = [_number(x, "each probs entry") for x in lit["probs"]]
            if labels is None:
                labels = list(range(1, len(probs) + 1))
            return Categorical(tuple(_freeze(lab) for lab in labels), probs)
    except (KeyError, TypeError, ValueError, OverflowError, InvalidParameterError) as exc:
        diags.append(Diagnostic(path, f"invalid {kind} literal: {exc}"))
    return None


def parse_mechanism(lit, path: str, diags: list[Diagnostic]) -> Randomizer | None:
    kind = _literal_kind(lit, path, MECHANISM_KEYS, "mechanism", diags)
    try:
        if kind == "krr":
            return make_krr(_number(lit["k"], "k", integer=True), _number(lit["eps0"], "eps0"))
        if kind == "explicit":
            kernel = [
                [_number(x, "each kernel entry") for x in row] for row in lit["kernel"]
            ]
            n_in = len(kernel)
            n_out = len(kernel[0]) if n_in else 0
            ins = lit.get("input_labels", list(range(1, n_in + 1)))
            outs = lit.get("output_labels", list(range(1, n_out + 1)))
            return Randomizer(
                tuple(_freeze(x) for x in ins),
                tuple(_freeze(x) for x in outs),
                kernel,
            )
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, InvalidParameterError) as exc:
        diags.append(Diagnostic(path, f"invalid {kind} literal: {exc}"))
    return None


def _freeze(value):
    return tuple(value) if isinstance(value, list) else value


def _is_int(value) -> bool:
    """True for JSON integers; JSON true/false are bools, which Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_config(doc) -> tuple[ExperimentConfig | None, list[Diagnostic]]:
    """Build a config from a parsed JSON document, collecting diagnostics.

    Returns (config, diagnostics); the config is None when the document is
    too malformed to interpret. A parseable config may still carry
    diagnostics; it is runnable only when the list is empty.
    """
    diags: list[Diagnostic] = []
    if not isinstance(doc, dict):
        return None, [Diagnostic("$", "config must be a JSON object")]
    diags.extend(Diagnostic(str(key), "unknown key") for key in doc if key not in KEYS)

    mode = doc.get("mode", "shuffle_only")
    if mode not in MODES:
        diags.append(Diagnostic("mode", f"must be one of {MODES}"))
    quantity = doc.get("quantity", "IY1")
    if quantity not in QUANTITIES:
        diags.append(Diagnostic("quantity", f"must be one of {QUANTITIES}"))

    p = q = mechanism = prior = None
    for key in ("P", "Q"):
        if key in doc and key.lower() in doc:
            diags.append(Diagnostic(key.lower(), f"given together with {key}"))
    if "P" in doc or "p" in doc:
        p = parse_distribution(doc.get("P", doc.get("p")), "P", diags)
    if "Q" in doc or "q" in doc:
        q = parse_distribution(doc.get("Q", doc.get("q")), "Q", diags)
    if "mechanism" in doc:
        mechanism = parse_mechanism(doc["mechanism"], "mechanism", diags)
    if "prior" in doc:
        prior = parse_distribution(doc["prior"], "prior", diags)

    n_grid = doc.get("n_grid", [])
    if (
        not isinstance(n_grid, list)
        or not n_grid
        or any(not _is_int(n) or n < 1 for n in n_grid)
    ):
        diags.append(Diagnostic("n_grid", "must be a nonempty list of positive integers"))
        n_grid = [n for n in n_grid if _is_int(n) and n >= 1] if isinstance(n_grid, list) else []

    samples = doc.get("samples", DEFAULT_SAMPLES)
    if not _is_int(samples) or samples < 1:
        diags.append(Diagnostic("samples", "must be a positive integer"))
        samples = max(1, samples if _is_int(samples) else 1)

    seed = doc.get("seed", 0)
    if not _is_int(seed):
        diags.append(Diagnostic("seed", "must be an integer"))
        seed = 0

    method = doc.get("method", "all")
    if method != "all" and any(m not in BASE_METHODS for m in str(method).split("+")):
        diags.append(
            Diagnostic("method", "must be 'all' or a '+'-joined subset of "
                       f"{BASE_METHODS}")
        )
        method = "all"

    x_inputs = doc.get("x_inputs")
    if x_inputs is not None:
        if not isinstance(x_inputs, list) or not x_inputs:
            diags.append(Diagnostic("x_inputs", "must be a nonempty list"))
            x_inputs = None
        else:
            x_inputs = tuple(_freeze(x) for x in x_inputs)

    cfg = ExperimentConfig(
        mode=mode if mode in MODES else "shuffle_only",
        quantity=quantity if quantity in QUANTITIES else "IY1",
        p=p,
        q=q,
        mechanism=mechanism,
        prior=prior,
        x_inputs=x_inputs,
        n_grid=tuple(n_grid),
        samples=samples,
        seed=seed,
        method=method,
        label=str(doc.get("label", "")),
    )
    # a required literal that was given but is invalid has its own
    # diagnostic, so the requirement that it be there is not reported again
    required = "P" if cfg.mode == "shuffle_only" else "mechanism"
    given = required in doc or required.lower() in doc
    diags.extend(d for d in validate_config(cfg) if not (given and d.field == required))
    return cfg, diags


def validate_config(cfg: ExperimentConfig) -> list[Diagnostic]:
    """Semantic checks: mode requirements, unread keys, method support."""
    diags: list[Diagnostic] = []
    if cfg.mode == "shuffle_only":
        unread = {"mechanism": cfg.mechanism, "prior": cfg.prior, "x_inputs": cfg.x_inputs}
    else:
        unread = {"P": cfg.p, "Q": cfg.q}
        if cfg.quantity != "IK":
            unread["x_inputs"] = cfg.x_inputs
    diags.extend(
        Diagnostic(key, f"not read by {cfg.mode} {cfg.quantity}")
        for key, value in unread.items()
        if value is not None
    )
    if cfg.mode == "shuffle_only":
        if cfg.p is None:
            diags.append(Diagnostic("P", "shuffle_only requires a target distribution"))
        if cfg.quantity == "IX1":
            diags.append(
                Diagnostic("quantity", "unrandomized messages equal inputs; use IY1")
            )
    else:
        if cfg.mechanism is None:
            diags.append(Diagnostic("mechanism", "shuffle_dp requires a mechanism"))
        if cfg.prior is not None and cfg.mechanism is not None:
            known = set(cfg.mechanism.input_labels)
            if any(lab not in known for lab in cfg.prior.support()):
                diags.append(Diagnostic("prior", "prior support must be mechanism inputs"))
        if cfg.x_inputs is not None and cfg.quantity == "IK":
            if cfg.mechanism is not None:
                known = set(cfg.mechanism.input_labels)
                if any(x not in known for x in cfg.x_inputs):
                    diags.append(Diagnostic("x_inputs", "unknown mechanism input symbol"))
            bad = [n for n in cfg.n_grid if n != len(cfg.x_inputs)]
            if bad:
                diags.append(
                    Diagnostic("x_inputs", "explicit x_inputs requires n_grid entries "
                               f"equal to its length {len(cfg.x_inputs)}")
                )

    if cfg.method != "all":
        cell = CELLS.get((cfg.mode, cfg.quantity), {})
        diags.extend(
            Diagnostic("method", f"no {base} method for {cfg.mode} {cfg.quantity}")
            for base in cfg.method.split("+")
            if base not in cell
        )
    return diags


def ceiling_diagnostics(cfg: ExperimentConfig) -> list[Diagnostic]:
    """One diagnostic per n whose exact cell exceeds the state ceiling, from
    state counts alone: a run skips that cell under 'all', exits 3 on 'exact'."""
    given = cfg.p if cfg.mode == "shuffle_only" else cfg.mechanism
    if given is None or cfg.method == "all" or "exact" not in cell_methods(cfg):
        return []
    diags = []
    for n in cfg.n_grid:
        try:
            check_states(exact_cell(cfg, n)[0])
        except ResourceLimitError as exc:
            diags.append(Diagnostic("n_grid", f"resource-limit: exact method at n={n}: {exc}"))
    return diags


def cell_methods(cfg: ExperimentConfig) -> tuple[str, ...]:
    """The concrete methods a config evaluates at each n, in plan order."""
    cell = CELLS.get((cfg.mode, cfg.quantity), {})
    selected = BASE_METHODS if cfg.method == "all" else cfg.method.split("+")
    return tuple(c for base in BASE_METHODS if base in selected for c in cell.get(base, ()))


def exact_cell(cfg: ExperimentConfig, n: int) -> tuple[int, Callable[[], float]]:
    """The exact method of a config at n, as (state count, oracle call).

    The count is the one the oracle checks against the ceiling, computed
    without running it; the call raises ResourceLimitError, as every exact
    oracle does, and looks its oracle up in ``exact`` when it runs.
    """
    if "exact" not in CELLS.get((cfg.mode, cfg.quantity), {}):
        raise InvalidParameterError(f"no exact method for {cfg.mode} {cfg.quantity}")
    if cfg.mode == "shuffle_only":
        p, q = cfg.p, cfg.cover
        if cfg.quantity == "IY1" and p.same_mass(q):
            return states_binomial(p, n), (lambda: exact.matched_message_mi(p, n))
        states = states_shuffle_only(p, q, n)
        if cfg.quantity == "IK":
            return states, (lambda: exact.position_mi_exact(p, q, n))
        return states, (lambda: exact.message_mi_exact(p, q, n))
    r = cfg.mechanism
    k = len(r.output_labels)
    if cfg.quantity == "IX1":
        return states_input_mi(n, k), (lambda: exact.input_mi_iid_others(r, cfg.input_prior(), n))
    states = states_position_dp(n, k)

    def fixed_inputs():
        check_states(states)  # before the n cycled inputs are built
        x_inputs = cfg.x_inputs or tuple(islice(cycle(r.input_labels), n))
        return exact.position_mi_fixed_inputs(r, x_inputs)

    return states, fixed_inputs

"""Experiment configuration: JSON literals, parsing, validation, and the
cell table that says which rows each (mode, quantity, method) plans.

A config is a single JSON document. Distribution literals:
``{"type": "uniform", "m": 4}``, ``{"type": "zipf", "m": 4, "alpha": 0.7}``,
``{"type": "explicit", "labels": [...], "probs": [...]}``. Mechanism
literals: ``{"type": "krr", "k": 4, "eps0": 1.0}`` or
``{"type": "explicit", "kernel": [[...], ...]}`` with optional label lists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError
from .mechanisms import Randomizer, make_krr
from .montecarlo import DEFAULT_SAMPLES, MAX_N, MIN_SAMPLES, SEED_LIMIT
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
# the rows whose arithmetic takes n as a float, and the least n whose
# float(n) overflows: the largest float plus half its last unit
FLOAT_N_METHODS = {"asym", "bound_unified", "bound_blanket", "bound_clone"}
FLOAT_N_LIMIT = 2**1024 - 2**970
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
        return replace(self, samples=self.samples if samples is None else samples,
                       seed=self.seed if seed is None else seed)

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
            probs = [_number(x, "each probs entry") for x in lit["probs"]]
            return Categorical(_labels(lit, "labels", len(probs)), probs)
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
            ins = _labels(lit, "input_labels", n_in)
            return Randomizer(ins, _labels(lit, "output_labels", n_out), kernel)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, InvalidParameterError) as exc:
        diags.append(Diagnostic(path, f"invalid {kind} literal: {exc}"))
    return None


def _labels(lit: dict, key: str, size: int) -> tuple:
    """The label list a literal gives under ``key``, 1..size when it gives
    none; only a JSON array is a label list."""
    labels = lit.get(key, list(range(1, size + 1)))
    if not isinstance(labels, list):
        raise InvalidParameterError(f"{key} must be a JSON array, got {labels!r}")
    return tuple(map(_freeze, labels))


def _freeze(value):
    return tuple(value) if isinstance(value, list) else value


def _is_int(value) -> bool:
    """True for JSON integers; JSON true/false are bools, which Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


# a predicate and its diagnostic for each field that parse_config checks on
# the document and validate_config checks again on a config built in Python
FIELD_CHECKS = {
    "mode": (lambda v: v in MODES, f"must be one of {MODES}"),
    "quantity": (lambda v: v in QUANTITIES, f"must be one of {QUANTITIES}"),
    "n_grid": (lambda v: isinstance(v, (list, tuple)) and len(v) > 0
               and all(_is_int(n) and n >= 1 for n in v),
               "must be a nonempty list of positive integers"),
    "samples": (lambda v: _is_int(v) and v >= MIN_SAMPLES,
                f"must be an integer of at least {MIN_SAMPLES}"),
    "seed": (lambda v: _is_int(v) and 0 <= v < SEED_LIMIT, "must be an integer in [0, 2^64)"),
    "method": (lambda v: v == "all" or isinstance(v, str)
               and all(m in BASE_METHODS for m in v.split("+")),
               f"must be 'all' or a '+'-joined subset of {BASE_METHODS}"),
    "label": (lambda v: isinstance(v, str), "must be a string"),
}


def _field_diagnostics(**values) -> list[Diagnostic]:
    """One diagnostic per given field whose value fails its FIELD_CHECKS predicate."""
    return [Diagnostic(key, FIELD_CHECKS[key][1])
            for key, value in values.items() if not FIELD_CHECKS[key][0](value)]


def parse_config(doc) -> tuple[ExperimentConfig | None, list[Diagnostic]]:
    """Build a config from a parsed JSON document, collecting diagnostics.

    Returns (config, diagnostics). Keys, literals and field values are
    checked first; if any fails, the config is None and those are the
    diagnostics. Otherwise the config holds the values given, and the
    diagnostics are ``validate_config``'s semantic checks of it; it is
    runnable only when the list is empty.
    """
    if not isinstance(doc, dict):
        return None, [Diagnostic("$", "config must be a JSON object")]
    diags = [Diagnostic(str(key), "unknown key") for key in doc if key not in KEYS]

    mode, quantity = doc.get("mode", "shuffle_only"), doc.get("quantity", "IY1")
    diags += _field_diagnostics(mode=mode, quantity=quantity)

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
    diags += _field_diagnostics(n_grid=n_grid)

    samples, seed = doc.get("samples", DEFAULT_SAMPLES), doc.get("seed", 0)
    method, label = doc.get("method", "all"), doc.get("label", "")
    diags += _field_diagnostics(samples=samples, seed=seed, method=method, label=label)

    x_inputs = doc.get("x_inputs")
    if x_inputs is not None:
        x_inputs = tuple(map(_freeze, x_inputs)) if isinstance(x_inputs, list) else ()
        try:
            hash(x_inputs)  # every input is a label
        except TypeError:
            x_inputs = ()
        if not x_inputs:
            diags.append(Diagnostic("x_inputs", "must be a nonempty list of input labels"))

    if diags:
        return None, diags
    cfg = ExperimentConfig(
        mode=mode, quantity=quantity, p=p, q=q, mechanism=mechanism, prior=prior,
        x_inputs=x_inputs, n_grid=tuple(n_grid), samples=samples, seed=seed,
        method=method, label=label,
    )
    return cfg, validate_config(cfg)


def validate_config(cfg: ExperimentConfig) -> list[Diagnostic]:
    """Semantic checks: mode requirements, unread keys, method support.

    The field checks of ``parse_config`` (``FIELD_CHECKS``) come first,
    for a config built in Python; when one fails, those are the
    diagnostics.
    """
    diags = _field_diagnostics(mode=cfg.mode, quantity=cfg.quantity, n_grid=cfg.n_grid,
                               samples=cfg.samples, seed=cfg.seed, method=cfg.method,
                               label=cfg.label)
    if diags:
        return diags
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

    methods = cell_methods(cfg)
    if "mc" in methods and any(n > MAX_N for n in cfg.n_grid):
        diags.append(Diagnostic("n_grid", "Monte Carlo needs every n at most 2^63"))
    if set(methods) & FLOAT_N_METHODS and any(n >= FLOAT_N_LIMIT for n in cfg.n_grid):
        diags.append(Diagnostic("n_grid", "asym and bound rows need every n to fit a float"))
    if cfg.method != "all":
        cell = CELLS.get((cfg.mode, cfg.quantity), {})
        diags.extend(
            Diagnostic("method", f"no {base} method for {cfg.mode} {cfg.quantity}")
            for base in cfg.method.split("+")
            if base not in cell
        )
    return diags


def cell_methods(cfg: ExperimentConfig) -> tuple[str, ...]:
    """The concrete methods a config evaluates at each n, in plan order."""
    cell = CELLS.get((cfg.mode, cfg.quantity), {})
    selected = BASE_METHODS if cfg.method == "all" else cfg.method.split("+")
    return tuple(c for base in BASE_METHODS if base in selected for c in cell.get(base, ()))


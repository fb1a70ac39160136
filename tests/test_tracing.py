"""The benchmark's tracer finds every call site it wraps.

``perfbench/tracing.py`` rebinds functions by name and silently drops a
name that no longer resolves, and it collects the public ``asymptotics``
functions with ``inspect.isfunction``, which a decorated function (an
``lru_cache``, say) fails. Either would remove a per-layer span without an
error; these tests make it one.
"""

import inspect
import sys
from pathlib import Path

from shuffleleak import asymptotics as asym
from shuffleleak import make_krr, make_zipf
from shuffleleak.config import ExperimentConfig
from shuffleleak.runner import run_configs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_every_call_site_resolves(monkeypatch):
    found = [site[:3] for site in tracing.targets()]
    # the list before targets() drops the names that do not resolve
    monkeypatch.setattr(tracing, "hasattr", lambda owner, attr: True, raising=False)
    assert found == [site[:3] for site in tracing.targets()]
    for owner, attr, name in found:
        assert callable(getattr(owner, attr)), name


def test_public_asymptotics_are_plain_functions():
    public = [obj for name, obj in vars(asym).items()
              if not name.startswith("_") and callable(obj)
              and getattr(obj, "__module__", None) == asym.__name__]
    assert public
    for obj in public:
        assert inspect.isfunction(obj) or inspect.isclass(obj), obj
    names = {name for _, _, name, _ in tracing.targets()}
    assert {f"asymptotics.{obj.__name__}" for obj in public
            if inspect.isfunction(obj)} <= names


def test_n_free_values_are_built_once_per_config():
    # per config: one validation, one expansion, one blanket, one mean
    # chi-square and one eps0; per n: every oracle, estimator, evaluation
    # and bound
    grid = (4, 8, 16)
    configs = [
        ExperimentConfig(quantity="IY1", p=make_zipf(3, 0.7), n_grid=grid, samples=100,
                         method="exact+asym"),
        ExperimentConfig(quantity="IK", p=make_zipf(3, 0.7), q=make_zipf(3, 0.2),
                         n_grid=grid, samples=100, method="all"),
        ExperimentConfig(mode="shuffle_dp", quantity="IX1", mechanism=make_krr(3, 1.0),
                         n_grid=grid, samples=100, method="all"),
        ExperimentConfig(mode="shuffle_dp", quantity="IK", mechanism=make_krr(3, 1.0),
                         n_grid=grid, method="all"),
    ]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for workers in (1, 2):
            run_configs(configs, workers=workers)
    calls = {}
    for span in tracer.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    per_run = {
        "config.validate_config": len(configs),
        "asymptotics.message_mi_expansion": 1,
        "asymptotics.position_mi_expansion": 1,
        "mechanisms.blanket_of_randomizer": 1,
        "asymptotics.mean_chi2": 1,
        "mechanisms.ldp_epsilon": 2,
        "asymptotics.AsymptoticTerm.evaluate": 2 * len(grid),
        "asymptotics.signal_rate": len(grid),
        "asymptotics.input_mi_dp_bound": len(grid),
        "asymptotics.position_mi_dp_bound": len(grid),
        "exact.matched_message_mi": len(grid),
        "exact.position_mi_exact": len(grid),
        "exact.input_mi_iid_others": len(grid),
        "exact.position_mi_fixed_inputs": len(grid),
        "montecarlo.estimate_position_mi": len(grid),
        "montecarlo.estimate_input_mi": len(grid),
        "runner.compute_row": 12 * len(grid),
    }
    assert calls == {name: 2 * count for name, count in per_run.items()}

"""The functions the benchmark harness traces stay public.

``bench/spans.py`` wraps the plain functions named in each module's
``__all__``; a name that left ``__all__``, or stopped being a plain function,
would silently turn its per-layer metric into 0.
"""

import importlib
import inspect

import pytest

TRACED = {
    "market": ("normal_matrix", "growth_factors"),
    "fund": ("simulate_batch",),
    "objective": ("value_from_batch",),
    "gp": ("build_model", "fit", "posterior"),
    "bo": ("latin_hypercube", "maximize_acquisition"),
    "idc": ("idc_terminal_benefits", "idc_trajectories"),
    "cli": ("load_config", "main"),
}


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in TRACED.items() for name in names]
)
def test_traced_function_is_in_all(module, name):
    mod = importlib.import_module(f"cdcfund.{module}")
    assert name in mod.__all__
    assert inspect.isfunction(getattr(mod, name))

"""The package's public names.

``bench/spans.py`` wraps the plain functions named in each module's
``__all__``; a name that left ``__all__``, or stopped being a plain function,
would silently turn its per-layer metric into 0. And no public name exists
only for the tests: each is used by the package or documented in the README.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import cdcfund

PACKAGE = Path(cdcfund.__file__).parent
README = PACKAGE.parents[1] / "README.md"

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


# public names that only the tests read, each kept for a reason
TEST_ONLY = {
    # the reference state machine's step, and the bit reference of growth_factors
    ("market", "log_return_increment"),
    # the contract of acceptance criterion 08
    ("objective", "certainty_equivalent_stderr"),
}


def _public_names():
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"cdcfund.{path.stem}")
        for name in getattr(module, "__all__", ()):
            yield path.stem, name


@pytest.mark.parametrize("module, name", list(_public_names()))
def test_public_name_is_used_outside_tests(module, name):
    """The name occurs in the package off its own definition line and its
    ``__all__`` entry, or in the README; otherwise it is allow-listed."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b|^{re.escape(name)}\s*[:=]")
    uses = 0
    for path in PACKAGE.glob("*.py"):
        text = re.sub(r"^__all__ = \[.*?\]$", "", path.read_text(), flags=re.S | re.M)
        lines = text.splitlines()
        if path.stem == module:
            lines = [line for line in lines if not definition.match(line)]
        uses += sum(len(word.findall(line)) for line in lines)
    uses += len(word.findall(README.read_text()))
    assert (uses > 0) != ((module, name) in TEST_ONLY), (module, name, uses)

"""The package's public names.

``bench/spans.py`` wraps the plain functions named in each module's
``__all__``; a name that left ``__all__``, or stopped being a plain function,
would silently turn its per-layer metric into 0. And no public name exists
only for the tests: each is used by the package or documented in the README.
"""

import importlib
import inspect
import re
import tokenize
from pathlib import Path

import pytest

import cdcfund

PACKAGE = Path(cdcfund.__file__).parent
README = PACKAGE.parents[1] / "README.md"

TRACED = {
    "market": ("normal_matrix",),
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
    # the contract of acceptance criterion 08
    ("objective", "certainty_equivalent_stderr"),
}


def _public_names():
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"cdcfund.{path.stem}")
        for name in getattr(module, "__all__", ()):
            yield path.stem, name


def _code_names(path: Path):
    """``(line, name)`` of every NAME token of a module: comments and strings,
    docstrings and the ``__all__`` entries included, are not code."""
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NAME:
                yield tok.start[0], tok.string


@pytest.mark.parametrize("module, name", list(_public_names()))
def test_public_name_is_used_outside_tests(module, name):
    """The name occurs as a code token in the package off its own definition
    line, or in the README; otherwise it is allow-listed."""
    definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b|^{re.escape(name)}\s*[:=]")
    uses = 0
    for path in PACKAGE.glob("*.py"):
        skip = set()
        if path.stem == module:
            lines = path.read_text().splitlines()
            skip = {k for k, line in enumerate(lines, 1) if definition.match(line)}
        uses += sum(1 for k, token in _code_names(path) if token == name and k not in skip)
    uses += len(re.findall(rf"\b{re.escape(name)}\b", README.read_text()))
    assert (uses > 0) != ((module, name) in TEST_ONLY), (module, name, uses)

"""Draw matrices shared by the tests.

``draws(seed, n_paths)`` is the matrix that an ``ObjectiveSpec`` with that
seed and batch size owns, for the default ``FundConfig``'s step count. The
last few matrices are kept, so tests that score many policies on one seed
generate its draws once; the matrices are read-only, so sharing them is safe.
"""

import functools
import weakref

from cdcfund.fund import FundConfig
from cdcfund.market import _normal_rows, normal_matrix

N_STEPS = FundConfig().n_steps


@functools.lru_cache(maxsize=4)
def draws(seed: int, n_paths: int, n_steps: int = N_STEPS):
    return normal_matrix(seed, n_paths, n_steps)


def record_generated(monkeypatch) -> list:
    """Weak references to every matrix generated in this process from now on
    through ``cdcfund.objective``'s bindings of ``normal_matrix`` (the one
    through which an ``ObjectiveSpec`` gets its draws) and ``_normal_rows``
    (a path block's draws)."""
    made = []

    def recording(generate):
        def wrapper(*args):
            out = generate(*args)
            made.append(weakref.ref(out))
            return out

        return wrapper

    monkeypatch.setattr("cdcfund.objective.normal_matrix", recording(normal_matrix))
    monkeypatch.setattr("cdcfund.objective._normal_rows", recording(_normal_rows))
    return made

"""Run one ``cdcfund`` CLI operation in this fresh interpreter.

Usage: ``python op.py MODE RESULT SRC CONFIG [COMMAND ARGS...]``

``MODE`` is ``setup`` (import ``cdcfund.cli``, parse ``CONFIG`` and exit),
``run`` (then call ``cdcfund.cli.main`` on ``COMMAND --config CONFIG
ARGS...``) or ``trace`` (the same, with the public functions of every
``cdcfund`` module recorded as spans). ``SRC`` is the source directory the
package must be imported from. The monotonic times at which this script
started, set-up ended and the command returned, the exit code and, when
traced, the spans and counts are written to ``RESULT`` as JSON; the caller
measures wall time and peak memory from outside.
"""

import json
import sys
import time
import weakref
from pathlib import Path

LAYERS = ("cli", "market", "fund", "objective", "gp", "bo", "idc", "analysis")


def count_hooks(np):
    """Counters filled from call results: ``{span name: (on_result, on_error)}``."""
    draws_returned = []
    evaluated = set()

    def normal_matrix(tr, args, kwargs, out):
        if any(ref() is out for ref in draws_returned):
            tr.counts["market.draw_cache_hits"] += 1
            return
        draws_returned.append(weakref.ref(out))
        tr.counts["market.draws_generated"] += out.size
        tr.counts["market.bytes_computed"] += out.nbytes

    def growth_factors(tr, args, kwargs, out):
        # reads the draws and writes the factors, both of the result's size
        tr.counts["market.bytes_computed"] += 2 * out.nbytes

    def simulate_batch(tr, args, kwargs, out):
        tr.counts["fund.path_steps"] += out.payments.shape[0] * out.horizon * out.steps_per_year
        tr.counts["fund.bankrupt_paths"] += int(np.count_nonzero(~np.isnan(out.bankrupt_at)))

    def value_from_batch(tr, args, kwargs, out):
        tr.counts["objective.evaluations"] += 1
        tr.counts["objective.bankrupt_evaluations"] += int(bool(out.any_bankruptcy))

    def build_model(tr, args, kwargs, out):
        tr.counts["gp.factorizations"] += 1

    def build_model_failed(tr, exc):
        if isinstance(exc, np.linalg.LinAlgError):
            tr.counts["gp.factorizations"] += 1
            tr.counts["gp.factorization_failures"] += 1

    def posterior(tr, args, kwargs, out):
        x = args[1] if len(args) > 1 else kwargs["x"]
        tr.counts["gp.posterior_points"] += 1 if np.ndim(x) == 1 else len(x)

    def latin_hypercube(tr, args, kwargs, out):
        evaluated.update(tuple(map(float, row)) for row in np.atleast_2d(out))

    def maximize_acquisition(tr, args, kwargs, out):
        for row in np.atleast_2d(out):
            point = tuple(map(float, row))
            tr.counts["bo.duplicate_proposals"] += point in evaluated
            evaluated.add(point)

    return {
        "market.normal_matrix": (normal_matrix, None),
        "market.growth_factors": (growth_factors, None),
        "fund.simulate_batch": (simulate_batch, None),
        "objective.value_from_batch": (value_from_batch, None),
        "gp.build_model": (build_model, build_model_failed),
        "gp.posterior": (posterior, None),
        "bo.latin_hypercube": (latin_hypercube, None),
        "bo.maximize_acquisition": (maximize_acquisition, None),
    }


def main(argv) -> int:
    started_at = time.monotonic()
    mode, result_path, src, config, *cli_argv = argv
    tracer = None
    if mode == "trace":
        from spans import Tracer, patch_functions

        tracer = Tracer()
        setup_span = tracer.begin("cli.import")

    from cdcfund import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"cdcfund was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    cli.load_config(config)
    setup_at = time.monotonic()
    result = {"started_at": started_at, "setup_at": setup_at, "exit_code": None}
    if tracer is not None:
        tracer.end(setup_span)
        import importlib

        import numpy as np

        modules = {name: importlib.import_module(f"cdcfund.{name}") for name in LAYERS}
        patch_functions(modules, tracer, count_hooks(np))

    try:
        if mode == "setup":
            result["exit_code"] = 0
        else:
            command, *rest = cli_argv
            try:
                result["exit_code"] = cli.main([command, "--config", config, *rest])
            except SystemExit as exc:
                result["exit_code"] = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
    finally:
        result["finished_at"] = time.monotonic()
        if tracer is not None:
            result.update(tracer.dump())
        Path(result_path).write_text(json.dumps(result))
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

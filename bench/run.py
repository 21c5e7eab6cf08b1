"""End-to-end and per-layer benchmark of the ``cdcfund`` CLI.

Usage, from the root of a checkout::

    python3 bench/run.py --workload evaluate-cold --seed 1 --seconds 20 --trace 0

Every operation is one ``cdcfund`` command in a fresh interpreter, started by
this process once the previous one has exited (a closed loop with one
client). BLAS and OpenMP threads are pinned to 1 in the child. Inputs come
from ``--seed`` only. With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` every operation runs twice, untraced and traced, in an
order that alternates from operation to operation, and the per-layer metrics
come from the traced runs. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. Per-operation records and provenance go to ``.bench_out/``.
See ``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from checks import artifact_bytes, artifact_digest, check_output  # noqa: E402
from op import LAYERS  # noqa: E402
from spans import bucket_self_times, layer_self_times, top_level_time  # noqa: E402

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# the CLI's default experiment, written out so a change of defaults does not
# silently change the workload
BASE_CONFIG = {"market": "M1", "gamma": 3.0, "n_paths": 10_000, "horizon": 100, "dt": 1.0 / 12.0}
N_STEPS = BASE_CONFIG["horizon"] * 12
N_POLICIES = 8  # evaluate-cold policies per seed
SETUP_SAMPLES = 9
RUN_LIMIT_S = 150.0  # no operation starts after this
KILL_AFTER_S = 170.0  # an operation still running then is killed, so a run ends within 180 s


@dataclass(frozen=True)
class Op:
    """One CLI invocation. Operations with equal ``key`` must write equal bytes."""

    key: str
    command: str
    args: tuple[str, ...]
    params: dict = field(hash=False)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_paths: int
    ops: Callable[[int], list[Op]]  # from the seed; a run cycles through the list
    min_ops: int  # enough to repeat the first operation


def _config(seed: int) -> dict:
    return {**BASE_CONFIG, "seed": seed % 2**64}


def _evaluate_ops(seed: int) -> list[Op]:
    # Latin hypercube over [0, 3] x [0, 1]: each policy is uniform over the box
    # and the policies spread over it, so their best certainty equivalent
    # varies little from seed to seed; about half the box is solvent
    rng = random.Random(seed)
    pis = [3.0 * (i + rng.random()) / N_POLICIES for i in range(N_POLICIES)]
    thetas = [(i + rng.random()) / N_POLICIES for i in range(N_POLICIES)]
    rng.shuffle(thetas)
    return [
        Op(f"pi={pi!r},theta={theta!r}", "evaluate", ("--pi", repr(pi), "--theta", repr(theta)),
           {"pi": pi, "theta": theta, "gamma": BASE_CONFIG["gamma"]})
        for pi, theta in zip(pis, thetas)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evaluate-cold",
            "One cdcfund evaluate per fresh interpreter at 10k paths, 8 seeded policies: "
            "import and draw generation dominate, as for a user scoring one policy.",
            10_000, _evaluate_ops, 9,
        ),
        Workload(
            "cell-fast",
            "run-cell --fast: the only workload running gp, bo, idc and analysis and writing "
            "every artifact; 2k-path draws fit in L3 and hit the draw cache.",
            2_000, lambda seed: [Op("run-cell", "run-cell", ("--fast",), {})], 2,
        ),
        Workload(
            "grid-10k",
            "grid --resolution 6: 36 policies on shared 10k-path draws, about half bankrupt, "
            "no GP or BO work; the simulation engine dominates.",
            10_000, lambda seed: [Op("grid", "grid", ("--resolution", "6"), {"resolution": 6})], 2,
        ),
    )
}


# ---------------------------------------------------------------------------
# running one operation
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(mode: str, op_dir: Path, config: dict, op: Op | None, timeout: float) -> dict:
    """Run ``op.py`` once and wait for it, killing it after ``timeout`` seconds;
    returns wall time, peak RSS and the child's result file."""
    op_dir.mkdir(parents=True)
    config_path = op_dir / "config.json"
    config_path.write_text(json.dumps(config))
    result_path = op_dir / "result.json"
    argv = [sys.executable, str(HERE / "op.py"), mode, str(result_path), str(SRC), str(config_path)]
    if op is not None:
        argv += [op.command, "--output-dir", str(op_dir / "out"), *op.args]
    with open(op_dir / "stdout", "wb") as out, open(op_dir / "stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=op_dir)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    child = json.loads(result_path.read_text()) if result_path.is_file() else {}
    return {
        "exit_code": proc.returncode,
        "wall_s": end - start,
        "setup_s": child["setup_at"] - start if "setup_at" in child else None,
        "startup_s": child["started_at"] - start if "started_at" in child else None,
        "exit_s": end - child["finished_at"] if "finished_at" in child else None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "child": child,
    }


def run_op(op: Op, op_dir: Path, config: dict, traced: bool, timeout: float) -> dict:
    rec = _spawn("trace" if traced else "run", op_dir, config, op, timeout)
    stdout = (op_dir / "stdout").read_bytes()
    out_dir = op_dir / "out"
    if rec["exit_code"] != 0:
        verdict_ok, reason, ce = False, f"exit code {rec['exit_code']}", None
    else:
        verdict = check_output(op.command, stdout, out_dir, op.params)
        verdict_ok, reason, ce = verdict.ok, verdict.reason, verdict.ce_star
    rec.update(
        key=op.key, traced=traced, ok=verdict_ok, reason=reason, ce_star=ce,
        digest=artifact_digest(stdout, out_dir), artifact_bytes=artifact_bytes(stdout, out_dir),
    )
    return rec


# ---------------------------------------------------------------------------
# per-layer metrics from one traced operation
# ---------------------------------------------------------------------------

MODULES = [layer for layer in LAYERS if layer != "cli"]
LAYER_TIMES = ["python.startup_s", "python.exit_s", "cli.import_s", "cli.self_s"] + [
    f"{layer}.self_s" for layer in MODULES
]
BUCKET_TIMES = {
    "market.normal_matrix_s": "market.normal_matrix",
    "market.growth_factors_s": "market.growth_factors",
    "fund.simulate_batch_self_s": "fund.simulate_batch",
    "objective.value_from_batch_s": "objective.value_from_batch",
    "gp.fit_self_s": "gp.fit",
    "gp.posterior_s": "gp.posterior",
    "bo.acquisition_self_s": "bo.maximize_acquisition",
    "idc.terminal_benefits_self_s": "idc.idc_terminal_benefits",
    "idc.trajectories_self_s": "idc.idc_trajectories",
}
CALL_COUNTS = {
    "market.normal_matrix_calls": "market.normal_matrix",
    "fund.simulate_batch_calls": "fund.simulate_batch",
    "gp.fit_calls": "gp.fit",
    "bo.acquisition_calls": "bo.maximize_acquisition",
}
HOOK_COUNTS = [
    "market.draw_cache_hits", "market.draws_generated", "market.bytes_computed",
    "fund.path_steps", "fund.bankrupt_paths", "objective.evaluations",
    "objective.bankrupt_evaluations", "gp.factorizations", "gp.factorization_failures",
    "gp.posterior_points", "bo.duplicate_proposals",
]


def layer_metrics(rec: dict) -> dict:
    """Per-layer figures of one traced operation."""
    spans = rec["child"]["spans"]
    counts = rec["child"]["counts"]
    layers = layer_self_times(spans)
    buckets = bucket_self_times(spans, roots=set(BUCKET_TIMES.values()))
    out = {
        "python.startup_s": rec["startup_s"],
        "python.exit_s": rec["exit_s"],
        "cli.import_s": buckets.get("cli.import", 0.0),
        "cli.self_s": layers.get("cli", 0.0) - buckets.get("cli.import", 0.0),
        "cli.artifact_bytes": rec["artifact_bytes"],
        "trace.unattributed_s": (
            rec["wall_s"] - rec["startup_s"] - rec["exit_s"] - top_level_time(spans)
        ),
    }
    for layer in MODULES:
        out[f"{layer}.self_s"] = layers.get(layer, 0.0)
    for metric, bucket in BUCKET_TIMES.items():
        out[metric] = buckets.get(bucket, 0.0)
    for metric, name in CALL_COUNTS.items():
        out[metric] = sum(1 for s in spans if s[0] == name)
    out["analysis.calls"] = sum(1 for s in spans if s[0].startswith("analysis."))
    for metric in HOOK_COUNTS:
        out[metric] = counts.get(metric, 0)
    # engine time: simulate_batch spans less the draw generation inside them
    engine = 0.0
    for name, start, end, parent in spans:
        if name == "fund.simulate_batch":
            engine += end - start
        elif name == "market.normal_matrix" and parent >= 0 and spans[parent][0] == "fund.simulate_batch":
            engine -= end - start
    out["_engine_s"] = engine
    return out


def per_layer_summary(traced: list[dict]) -> dict:
    """Times are medians over traced operations, counts are means per
    operation, ratios are taken over the run's totals; the tracing overhead is
    the median over the traced operations of their wall time less that of
    their untraced pair. Empty when no traced operation returned its spans."""
    traced = [rec for rec in traced if "spans" in rec["child"]]
    if not traced:
        return {}
    per_op = [layer_metrics(rec) for rec in traced]
    metrics = {}
    for name in LAYER_TIMES + list(BUCKET_TIMES) + ["trace.unattributed_s"]:
        metrics[name] = (statistics.median(m[name] for m in per_op), "s")
    for name in list(CALL_COUNTS) + HOOK_COUNTS + ["analysis.calls", "cli.artifact_bytes"]:
        unit = "bytes" if "bytes" in name else "count"
        metrics[name] = (statistics.fmean(m[name] for m in per_op), unit)
    evaluations = sum(m["objective.evaluations"] for m in per_op)
    bankrupt = sum(m["objective.bankrupt_evaluations"] for m in per_op)
    metrics["objective.solvent_ratio"] = (
        (evaluations - bankrupt) / evaluations if evaluations else 0.0, "ratio")
    engine = sum(m["_engine_s"] for m in per_op)
    steps = sum(m["fund.path_steps"] for m in per_op)
    metrics["fund.path_steps_per_s"] = (steps / engine if engine > 0 else 0.0, "1/s")
    metrics["trace.wall_s"] = (statistics.median(rec["wall_s"] for rec in traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(rec["overhead_s"] for rec in traced), "s")
    return metrics


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def calibration_s() -> float:
    """Median time of a fixed pure-Python kernel. It is recorded before and
    after each run so that runs made while the host ran slow can be spotted;
    no figure is scaled by it."""
    times = []
    for _ in range(7):
        start = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def provenance(workload: Workload, seed: int, seconds: int, trace: int) -> dict:
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or None,
        "python": platform.python_version(),
        **versions,
        "thread_env": THREAD_ENV,
        "working_set_bytes": workload.n_paths * N_STEPS * 8,
        "loop": "closed, one client",
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(workload: Workload, seed: int, seconds: int, trace: bool, run_dir: Path) -> dict:
    config = _config(seed)
    ops = workload.ops(seed)
    records: list[dict] = []
    setup: list[float] = []
    probes = failed_probes = 0
    first_digest: dict[str, str] = {}
    started = time.monotonic()
    deadline = started + seconds

    def timeout() -> float:
        return max(1.0, started + KILL_AFTER_S - time.monotonic())

    step_times: list[float] = []
    # a traced step pairs the operation with an untraced run of the same
    # inputs, so one step already repeats an operation; the order alternates,
    # so that neither side always runs on the caches the other warmed, and a
    # run ends only after an even number of steps
    stride = 2 if trace else 1
    min_steps = 2 if trace else workload.min_ops
    i = 0
    while True:
        now = time.monotonic()
        if now - started > RUN_LIMIT_S:
            break
        if i >= min_steps and i % stride == 0 and now + stride * statistics.median(step_times) > deadline:
            break
        op = ops[i % len(ops)]
        modes = ((False, True) if i % 2 == 0 else (True, False)) if trace else (False,)
        pair = {}
        for traced in modes:
            rec = run_op(op, run_dir / f"op{len(records):03d}", config, traced, timeout())
            expected = first_digest.setdefault(op.key, rec["digest"])
            if rec["ok"] and rec["digest"] != expected:
                rec["ok"], rec["reason"] = False, "artifacts differ from the first run of these inputs"
            if rec["ok"]:  # keep the outputs of failed operations only
                shutil.rmtree(run_dir / f"op{len(records):03d}" / "out", ignore_errors=True)
            if not traced and rec["setup_s"] is not None:
                setup.append(rec["setup_s"])
            records.append(rec)
            pair[traced] = rec
        if trace:
            pair[True]["overhead_s"] = pair[True]["wall_s"] - pair[False]["wall_s"]
        step_times.append(time.monotonic() - now)
        i += 1

    untraced = [rec for rec in records if not rec["traced"]]
    if trace:
        metrics = per_layer_summary([rec for rec in records if rec["traced"]])
    else:
        # set-up-only runs make up the set-up samples the operations did not give
        while len(setup) < SETUP_SAMPLES and time.monotonic() - started <= RUN_LIMIT_S:
            rec = _spawn("setup", run_dir / f"setup{probes:03d}", config, None, timeout())
            probes += 1
            if rec["exit_code"] != 0 or rec["setup_s"] is None:
                failed_probes += 1
                break
            setup.append(rec["setup_s"])
        # 0 marks a figure no operation delivered; such a run is not correct
        ces = {rec["key"]: rec["ce_star"] for rec in untraced if rec["ok"]}
        metrics = {
            "wall_s": (statistics.median(rec["wall_s"] for rec in untraced), "s"),
            "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
            "peak_rss_mb": (statistics.median(rec["peak_rss_mb"] for rec in untraced), "MB"),
            "ce_star": (max(ces.values()) if ces else 0.0, "units_of_y"),
        }
    attempted = len(records) + probes
    failed = sum(not rec["ok"] for rec in records) + failed_probes
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "records": records,
    }


def _print_table(metrics: dict, outcome: dict) -> None:
    width = max((len(name) for name in metrics), default=len("error_rate"))
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    print(f"{'error_rate':<{width}}  {outcome['error_rate']:>14.6g}  "
          f"ratio ({outcome['failed']} of {outcome['attempted']} operations failed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cdcfund" / "cli.py").is_file():
        print(f"no cdcfund sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workload = WORKLOADS[args.workload]
    prov = provenance(workload, args.seed, args.seconds, args.trace)
    run_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    calibration_before = calibration_s()
    outcome = run(workload, args.seed, args.seconds, bool(args.trace), run_dir)
    prov["calibration_s"] = {"before": calibration_before, "after": calibration_s()}

    for rec in outcome["records"]:
        rec.pop("child", None)
        overhead = f" overhead_s={rec['overhead_s']:+.4f}" if "overhead_s" in rec else ""
        print(f"op {rec['key']} traced={int(rec['traced'])} ok={int(rec['ok'])} "
              f"wall_s={rec['wall_s']:.4f}{overhead} digest={rec['digest'][:16]} {rec['reason']}")
    print(json.dumps({"provenance": prov}, sort_keys=True))
    _print_table(outcome["metrics"], outcome)
    summary = {
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }
    (run_dir / "summary.json").write_text(json.dumps(
        {**summary, "provenance": prov, "operations": outcome["records"]}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

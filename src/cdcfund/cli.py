"""Experiment orchestration: config parsing, subcommands and file outputs.

Subcommands: ``evaluate | optimize | grid | simulate | analyze | run-cell``.
One top-level seed fans out deterministically: market path ``p`` uses stream
``(seed, p)``, the optimizer's design and acquisition streams use reserved
substream indices of the same seed. All outputs are CSV/JSON with stable
column sets; a manifest makes every run byte-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import ir_roughness_batch, tail_cdf_points, welfare_rows
from .bo import BoConfig, BoRecord, BoTrace, run_bo
from .fund import OMEGA, FundConfig, PolicyParams, simulate_batch
from .idc import idc_terminal_benefits, idc_trajectories
from .market import MarketParams, preset_market
from .objective import ObjectiveSpec, evaluate_policies

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "run_grid_oracle",
    "run_cell",
    "main",
]

TRACKED_GENERATION = 41  # generation whose account path is dumped and scored
TRACKING_COMMANDS = ("simulate", "analyze", "run-cell")
# paths per block of the benchmark's tracked account in the analysis: smaller
# blocks lower no peak, and each block runs the account's whole year loop
_IDC_BLOCK = 256

FAST_PROFILE = {"n_paths": 2_000, "n_total": 60}  # what --fast sets


class ConfigError(ValueError):
    """Raised for unparseable or invalid experiment configs and flags."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment: the domain objects plus the keys only the CLI reads.

    ``market`` is a preset name or a custom ``{"mu", "r", "sigma"}`` triple
    (``spec.mkt`` holds its parameters); ``tail_fraction`` is the left-tail
    mass written to ``cdf_tail.csv``.
    """

    spec: ObjectiveSpec
    bo: BoConfig
    market: str | dict = "M1"
    tail_fraction: float = 0.10

    def __post_init__(self) -> None:
        if not 0.0 < self.tail_fraction <= 1.0:
            raise ValueError(f"tail_fraction must lie in (0, 1], got {self.tail_fraction}")

    def echo(self) -> dict:
        """The effective config document: every config key and its value."""
        return {
            f.name: getattr(obj, f.name)
            for obj in (self.spec.cfg, self.spec, self.bo, self)
            for f in fields(obj)
            if f.name in DEFAULTS
        }


# every config key and its default, read off the dataclass that uses the key
DEFAULTS = {
    f.name: f.default
    for cls in (FundConfig, ObjectiveSpec, BoConfig, ExperimentConfig)
    for f in fields(cls)
    if f.default is not MISSING
}


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a JSON config document.

    Unknown keys are rejected and parse errors carry line/column positions.
    ``overrides`` maps a key to the ``(flag, value)`` of a command-line flag
    that sets it; it is merged in before the single validation, and an error
    in its value names the flag. An empty document yields the defaults.
    """
    text = text.strip()
    if not text:
        raw = {}
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(raw) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
    overrides = overrides or {}
    raw.update({key: value for key, (_, value) in overrides.items()})
    return _validate(raw, {key: flag for key, (flag, _) in overrides.items()})


def load_config(path: str | Path | None, overrides: dict | None = None) -> ExperimentConfig:
    return parse_config("" if path is None else Path(path).read_text(), overrides)


def _construct(label, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with a ``ValueError`` re-raised as a
    ``ConfigError`` naming ``label(word)``, where ``word`` begins the message:
    the domain classes begin each message with the offending field's name."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {label(str(exc).split()[0])}: {exc}") from None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate(raw: dict, flags: dict[str, str]) -> ExperimentConfig:
    """Check the JSON types of a config document, then build the domain objects,
    whose own checks reject bad values; errors name the key, or the flag that
    set it."""

    def label(key: str) -> str:
        return f"{key!r} (set by {flags[key]})" if key in flags else repr(key)

    values = {**DEFAULTS, **raw}
    for key, default in DEFAULTS.items():
        value = values[key]
        if isinstance(default, int):
            ok, expected = isinstance(value, int) and not isinstance(value, bool), "an integer"
        elif isinstance(default, float):
            ok, expected = _is_number(value), "a number"
        else:
            continue
        if not ok:
            raise ConfigError(
                f"invalid value for {label(key)}: expected {expected} (got {value!r})"
            )
        values[key] = type(default)(value)

    market = values["market"]
    if isinstance(market, str):
        mkt = _construct(lambda _: label("market"), preset_market, market)
    elif (isinstance(market, dict) and set(market) == {"mu", "r", "sigma"}
          and all(map(_is_number, market.values()))):
        values["market"] = {key: float(value) for key, value in market.items()}
        mkt = _construct(lambda _: label("market"), MarketParams, **values["market"])
    else:
        raise ConfigError(
            "invalid value for 'market': expected a preset name or an object "
            "with numeric mu, r, sigma"
        )

    def build(cls, **objects):
        own = {f.name: values[f.name] for f in fields(cls) if f.name in DEFAULTS}
        return _construct(label, cls, **objects, **own)

    spec = build(ObjectiveSpec, cfg=build(FundConfig), mkt=mkt)
    return build(ExperimentConfig, spec=spec, bo=build(BoConfig))


def _effective_config(args) -> ExperimentConfig:
    """The config file with ``--seed`` and ``--fast`` merged in, validated
    together with the command's own flags, before anything runs or is written."""
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = ("--seed", args.seed)
    if args.fast:
        overrides.update({key: ("--fast", value) for key, value in FAST_PROFILE.items()})
    config = load_config(args.config, overrides)
    if "pi" in vars(args):
        _construct(lambda name: f"--{name}", PolicyParams, pi=args.pi, theta=args.theta)
    if "paths" in vars(args):
        _construct(lambda _: "--paths", replace, config.spec, n_paths=args.paths)
    if "resolution" in vars(args):
        _construct(lambda _: "--resolution", _lattice, args.resolution)
    cfg = config.spec.cfg
    if args.command in TRACKING_COMMANDS and TRACKED_GENERATION not in cfg.generations_in_window:
        key = "horizon" if cfg.horizon < TRACKED_GENERATION else "retirement_age"
        raise ConfigError(
            f"invalid value for {key!r}: {args.command} tracks generation "
            f"{TRACKED_GENERATION}, which needs n_generations <= {TRACKED_GENERATION} "
            f"<= horizon (got {cfg.n_generations} and {cfg.horizon})"
        )
    return config


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")  # "nan" and "inf" included
    return str(value)


_CSV_AS_IS = {str, int, type(None)}  # csv.writer writes these as they are, None as ""


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``rows`` under ``header``. Python floats (rows built with
    ``ndarray.tolist()``), strings, ints and None, the bulk of every file,
    skip the general formatter."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            ["%.17g" % v if type(v) is float else v if type(v) in _CSV_AS_IS else _fmt(v)
             for v in row]
            for row in rows
        )


def _json(payload, indent=None) -> str:
    """Strict JSON (RFC 8259 has no NaN or infinity): non-finite floats become null."""
    finite = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    return json.dumps(finite, indent=indent, sort_keys=True, allow_nan=False)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(_json(payload, indent=2) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

TRACE_HEADER = [f.name for f in fields(BoRecord)]
GRID_HEADER = ["pi", "theta", "ce", "eu", "eu_stderr", "n_bankrupt"]
TRAJECTORY_HEADER = ["account_kind", "path_id", "t_months", "A", "L", "funding_ratio", "B_41"]
WELFARE_HEADER = ["generation", "plan", "median", "q01", "ce"]
ROUGHNESS_HEADER = ["plan", "generation", "mean_roughness", "n_paths"]
FUNDING_HEADER = ["month", "years", "mean_ratio"]
CDF_HEADER = ["generation", "plan", "benefit", "cdf"]


def _trace_summary(trace: BoTrace) -> dict:
    inc = trace.incumbent
    runners = [
        {"pi": rec.pi, "theta": rec.theta, "ce": rec.ce}
        for rec in trace.best_points(11)
        if not (rec.pi == inc.incumbent_pi and rec.theta == inc.incumbent_theta)
    ][:10]
    return {
        "pi_star": inc.incumbent_pi,
        "theta_star": inc.incumbent_theta,
        "ce_star": inc.incumbent_ce,
        "runner_up": runners,
    }


def _lattice(resolution: int) -> list[PolicyParams]:
    """The ``resolution x resolution`` lattice over ``OMEGA``, corners included."""
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2 per axis, got {resolution}")
    pis, thetas = (np.linspace(lo, hi, resolution) for lo, hi in OMEGA)
    return [PolicyParams(pi=float(pi), theta=float(theta)) for pi in pis for theta in thetas]


def run_grid_oracle(config: ExperimentConfig, resolution: int):
    """Evaluate the objective on a full lattice over the search box, in
    path blocks drawn by the worker processes that score them, each block's
    year totals summed once for the policies scored on it (see
    ``evaluate_policies``).

    Returns (rows, argmax_row) where each row is (pi, theta, ce, eu,
    eu_stderr, n_bankrupt). The lattice includes the box corners.
    """
    lattice = _lattice(resolution)
    rows = [
        (policy.pi, policy.theta, val.ce, val.eu, val.eu_stderr, val.n_bankrupt)
        for policy, val in zip(lattice, evaluate_policies(lattice, config.spec))
    ]
    return rows, max(rows, key=lambda row: row[2])


def _optimize(config: ExperimentConfig, outdir: Path) -> dict:
    """Run the optimizer, write ``bo_trace.csv`` and ``bo_summary.json``, and
    return the summary."""
    trace = run_bo(config.spec, config.bo)
    _write_csv(
        outdir / "bo_trace.csv", TRACE_HEADER,
        ([getattr(rec, name) for name in TRACE_HEADER] for rec in trace.records),
    )
    summary = _trace_summary(trace)
    _write_json(outdir / "bo_summary.json", summary)
    return summary


def _analysis_outputs(config: ExperimentConfig, policy: PolicyParams, outdir: Path) -> list[Path]:
    spec = config.spec
    cfg = spec.cfg
    generations = cfg.generations_in_window
    batch = simulate_batch(
        cfg, policy, spec.mkt, spec.normals,
        record_funding_ratios=True, tracked_generations=(TRACKED_GENERATION,),
    )
    # a tracked account is reduced to its roughness as soon as it exists, the
    # benchmark's a block of paths at a time: a path's roughness depends on
    # its own draws only, and no whole account matrix outlives its reduction
    roughness = {
        "CDC": ir_roughness_batch(batch.account_trajectories.pop(TRACKED_GENERATION)),
        "IDC": np.concatenate([
            ir_roughness_batch(idc_trajectories(
                cfg, policy.pi, spec.mkt, spec.normals[lo : lo + _IDC_BLOCK],
                (TRACKED_GENERATION,),
            )[TRACKED_GENERATION])
            for lo in range(0, spec.n_paths, _IDC_BLOCK)
        ]),
    }
    idc_terms = idc_terminal_benefits(cfg, policy.pi, spec.mkt, spec.normals, generations)

    cdc_by_gen = {i: batch.benefits(i) for i in generations}
    rows = welfare_rows(cdc_by_gen, idc_terms, cfg.gamma)
    welfare_path = outdir / "welfare_table.csv"
    _write_csv(
        welfare_path,
        WELFARE_HEADER,
        [(r.generation, r.plan, r.median, r.q01, r.ce) for r in rows],
    )

    n_finite = {plan: int(np.isfinite(r).sum()) for plan, r in roughness.items()}
    mean_roughness = {  # NaN when every path went bankrupt before the generation retired
        plan: float(np.nanmean(r)) if n_finite[plan] else np.nan for plan, r in roughness.items()
    }
    rough_path = outdir / "roughness.csv"
    _write_csv(
        rough_path,
        ROUGHNESS_HEADER,
        [(plan, TRACKED_GENERATION, mean_roughness[plan], n_finite[plan]) for plan in roughness],
    )

    mean_ratio = batch.mean_funding_ratio
    spy = cfg.steps_per_year
    funding_path = outdir / "funding_ratio.csv"
    _write_csv(
        funding_path,
        FUNDING_HEADER,
        [(m, m / spy, ratio) for m, ratio in enumerate(mean_ratio.tolist())],
    )

    cdf_rows = []
    for i in generations:
        for plan, values in (("CDC", cdc_by_gen[i]), ("IDC", idc_terms[i])):
            for benefit, cdf in tail_cdf_points(values, config.tail_fraction).tolist():
                cdf_rows.append((i, plan, benefit, cdf))
    cdf_path = outdir / "cdf_tail.csv"
    _write_csv(cdf_path, CDF_HEADER, cdf_rows)

    summary_path = outdir / "analysis_summary.json"
    _write_json(
        summary_path,
        {
            "pi": policy.pi,
            "theta": policy.theta,
            "n_paths": spec.n_paths,
            "n_bankrupt": batch.n_bankrupt,
            "mean_roughness": mean_roughness,
            "mean_funding_ratio_at_end": float(mean_ratio[-1]),
        },
    )
    return [welfare_path, rough_path, funding_path, cdf_path, summary_path]


def _trajectory_output(spec: ObjectiveSpec, policy: PolicyParams, outdir: Path) -> Path:
    """Dump ``spec.n_paths`` paths of the fund and of the benchmark account."""
    cfg = spec.cfg
    n_paths = spec.n_paths
    batch = simulate_batch(
        cfg, policy, spec.mkt, spec.normals,
        record_state=True, tracked_generations=(TRACKED_GENERATION,),
    )
    idc_traj = idc_trajectories(cfg, policy.pi, spec.mkt, spec.normals, (TRACKED_GENERATION,))
    spy = cfg.steps_per_year
    birth_month = (TRACKED_GENERATION - cfg.n_generations) * spy
    life = cfg.n_generations * spy
    cdc_tracked = batch.account_trajectories[TRACKED_GENERATION]
    idc_tracked = idc_traj[TRACKED_GENERATION]

    def rows():  # path by path: only one path's rows exist as Python objects
        for p in range(n_paths):
            assets, liabilities = batch.assets[p], batch.liabilities[p]
            ratios = (assets / liabilities).tolist()
            assets, liabilities = assets.tolist(), liabilities.tolist()
            cdc, idc = cdc_tracked[p].tolist(), idc_tracked[p].tolist()
            for m in range(cfg.n_steps + 1):
                local = m - birth_month
                b41 = cdc[local] if 0 <= local <= life else None
                b41 = None if b41 is not None and math.isnan(b41) else b41
                yield ("CDC", p, m, assets[m], liabilities[m], ratios[m], b41)
            for local in range(life + 1):
                yield ("IDC", p, birth_month + local, idc[local], None, None, idc[local])

    path = outdir / "trajectory.csv"
    _write_csv(path, TRAJECTORY_HEADER, rows())
    return path


def run_cell(config: ExperimentConfig, outdir: Path, trajectory_paths: int = 10) -> dict:
    """Full experiment cell: optimize, then simulate and analyze the incumbent.

    Writes all artifacts plus a manifest with seeds, versions and wall times;
    any stage failure is recorded in the manifest and re-raised.
    """
    trajectory_spec = replace(config.spec, n_paths=trajectory_paths)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "config": config.echo(),
        "seed_fanout": {
            "market_path_streams": "(seed, path_index) for path_index < n_paths",
            "design_stream": "(seed, 2**62)",
            "acquisition_stream": "(seed, 2**62 + 1)",
        },
        "versions": {
            "cdcfund": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "stages": {},
        "outputs": {},
    }
    outputs: list[Path] = []
    config_path = outdir / "effective_config.json"
    _write_json(config_path, config.echo())
    outputs.append(config_path)

    def stage(name: str, fn):
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            manifest["stages"][name] = {"status": "failed", "error": repr(exc)}
            _write_json(outdir / "manifest.json", manifest)
            raise
        manifest["stages"][name] = {
            "status": "ok",
            "wall_time_seconds": time.perf_counter() - start,
        }
        return result

    summary = stage("optimize", lambda: _optimize(config, outdir))
    outputs.extend([outdir / "bo_trace.csv", outdir / "bo_summary.json"])
    incumbent = PolicyParams(pi=summary["pi_star"], theta=summary["theta_star"])
    outputs.append(
        stage("simulate", lambda: _trajectory_output(trajectory_spec, incumbent, outdir))
    )
    outputs.extend(stage("analyze", lambda: _analysis_outputs(config, incumbent, outdir)))

    manifest["outputs"] = {p.name: _sha256(p) for p in outputs}
    _write_json(outdir / "manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--output-dir", default="outputs", help="directory for file outputs")
    parser.add_argument(
        "--fast", action="store_true",
        help=f"desk-scale profile: {FAST_PROFILE['n_paths']} paths and "
        f"{FAST_PROFILE['n_total']} optimizer evaluations",
    )


def _policy_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pi", type=float, required=True, help="risky investment fraction")
    parser.add_argument("--theta", type=float, required=True, help="declaration adjustment strength")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cdcfund",
        description="Collective defined-contribution pension fund simulator and policy optimizer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="score one policy, print JSON")
    _add_common(p_eval)
    _policy_args(p_eval)

    p_opt = sub.add_parser("optimize", help="run the policy optimization loop")
    _add_common(p_opt)

    p_grid = sub.add_parser("grid", help="brute-force lattice over the search box")
    _add_common(p_grid)
    p_grid.add_argument("--resolution", type=int, default=20, help="lattice points per axis")

    p_sim = sub.add_parser("simulate", help="dump per-path trajectories at a policy")
    _add_common(p_sim)
    _policy_args(p_sim)
    p_sim.add_argument("--paths", type=int, default=10, help="paths to dump")

    p_ana = sub.add_parser("analyze", help="welfare statistics at a policy")
    _add_common(p_ana)
    _policy_args(p_ana)

    p_cell = sub.add_parser("run-cell", help="optimize, then simulate and analyze the incumbent")
    _add_common(p_cell)
    p_cell.add_argument("--paths", type=int, default=10, help="paths in the trajectory dump")

    args = parser.parse_args(argv)
    try:
        config = _effective_config(args)
    except (ConfigError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    outdir = Path(args.output_dir)

    if args.command == "evaluate":
        [value] = evaluate_policies([PolicyParams(pi=args.pi, theta=args.theta)], config.spec)
        print(_json({
            "pi": args.pi, "theta": args.theta, "ce": value.ce, "eu": value.eu,
            "eu_stderr": value.eu_stderr, "n_bankrupt": value.n_bankrupt,
            "any_bankruptcy": value.any_bankruptcy,
        }))
        return 0

    if args.command == "run-cell":  # writes effective_config.json and hashes it
        run_cell(config, outdir, trajectory_paths=args.paths)
        return 0
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "effective_config.json", config.echo())

    if args.command == "optimize":
        print(_json(_optimize(config, outdir)))
    elif args.command == "grid":
        rows, best = run_grid_oracle(config, args.resolution)
        _write_csv(outdir / "grid.csv", GRID_HEADER, rows)
        print(_json({"pi_star": best[0], "theta_star": best[1], "ce_star": best[2]}))
    elif args.command == "simulate":
        _trajectory_output(replace(config.spec, n_paths=args.paths),
                           PolicyParams(pi=args.pi, theta=args.theta), outdir)
    elif args.command == "analyze":
        _analysis_outputs(config, PolicyParams(pi=args.pi, theta=args.theta), outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())

import csv
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cdcfund
from cdcfund.cli import (
    CDF_HEADER,
    DEFAULTS,
    FUNDING_HEADER,
    GRID_HEADER,
    ROUGHNESS_HEADER,
    TRAJECTORY_HEADER,
    WELFARE_HEADER,
    ConfigError,
    _analysis_outputs,
    _lattice,
    _trajectory_output,
    main,
    parse_config,
    run_cell,
    run_grid_oracle,
)
from cdcfund.fund import PolicyParams
from cdcfund.market import _normal_rows, preset_market
from cdcfund.objective import evaluate_policy
from draws import record_generated

TINY = """
{"market": "M1", "gamma": 3, "n_paths": 40, "horizon": 50,
 "n_init": 4, "n_total": 9, "acquisition_budget": 32, "seed": 1}
"""


def test_cli_import_defers_the_process_pool():
    # only the commands that start worker processes pay for the pool
    env = dict(os.environ, PYTHONPATH=str(Path(cdcfund.__file__).resolve().parents[1]))
    code = (
        "import sys, cdcfund.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def _outputs_pinned_and_unpinned(tmp_path, argv, files=()) -> dict:
    """Stdout and the named output files of one CLI run pinned to a single
    CPU, which maps in-process, and of one on every CPU of the affinity mask."""
    env = dict(os.environ, PYTHONPATH=str(Path(cdcfund.__file__).resolve().parents[1]))
    one_cpu = {min(os.sched_getaffinity(0))}
    runs = {}
    for name, pin in (("one-cpu", lambda: os.sched_setaffinity(0, one_cpu)), ("all", None)):
        proc = subprocess.run(
            [sys.executable, "-m", "cdcfund.cli", *argv, "--output-dir", str(tmp_path / name)],
            env=env, cwd=tmp_path, capture_output=True, check=True, preexec_fn=pin,
        )
        runs[name] = (proc.stdout, [(tmp_path / name / f).read_bytes() for f in files])
    return runs


def test_grid_bytes_do_not_depend_on_the_cpu_count(tmp_path):
    # serially or one policy per worker
    runs = _outputs_pinned_and_unpinned(
        tmp_path, ["grid", "--fast", "--resolution", "3"], ["grid.csv"])
    assert runs["one-cpu"] == runs["all"]


def test_evaluate_bytes_do_not_depend_on_the_cpu_count(tmp_path):
    # serially or one path block per worker, the last block a short one
    (tmp_path / "cfg.json").write_text('{"n_paths": 2393}')
    for policy in (["--pi", "0.865", "--theta", "0.345"], ["--pi", "3.0", "--theta", "0.0"]):
        runs = _outputs_pinned_and_unpinned(
            tmp_path, ["evaluate", "--config", "cfg.json", *policy])
        assert runs["one-cpu"] == runs["all"]


def test_run_cell_imports_only_numpy_and_the_standard_library(tmp_path):
    # the dependency fence: a whole experiment cell (optimizer, GP, analysis,
    # every artifact) needs no third-party package but numpy. Modules that the
    # import system did not load (no __spec__, such as the Cython runtime
    # that numpy's extensions register) are not packages and are skipped.
    (tmp_path / "cfg.json").write_text(TINY)
    env = dict(os.environ, PYTHONPATH=str(Path(cdcfund.__file__).resolve().parents[1]))
    code = (
        "import sys; before = set(sys.modules); import cdcfund.cli; "
        "cdcfund.cli.main(['run-cell', '--config', 'cfg.json', '--output-dir', 'out']); "
        "print(' '.join(sorted({name.partition('.')[0] for name, module in sys.modules.items() "
        "if name not in before and getattr(module, '__spec__', None) is not None})))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    imported = set(out.stdout.splitlines()[-1].split())
    assert {"numpy", "cdcfund"} <= imported
    assert imported - set(sys.stdlib_module_names) - {"numpy", "cdcfund"} == set()


def strict_json(text: str):
    """Parse RFC 8259 JSON: NaN and infinities are rejected."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.market == "M1"
        assert cfg.spec.mkt == preset_market("M1")
        assert cfg.spec.cfg.gamma == 3.0
        assert cfg.spec.n_paths == 10_000
        assert cfg.spec.seed == cfg.bo.seed == 0
        assert cfg.spec.cfg.n_generations == 40

    def test_negative_gamma_names_key(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config('{"gamma": -1}')

    def test_fractional_steps_per_year_rejected(self):
        with pytest.raises(ConfigError, match="dt.*steps per year must be integer"):
            parse_config('{"dt": 0.3}')

    @pytest.mark.parametrize("document, key", [
        ('{"frobnicate": 1}', "frobnicate"),
        ('{"common_random_numbers": true}', "common_random_numbers"),  # a removed key
    ])
    def test_unknown_key_rejected(self, document, key):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_config(document)

    def test_parse_error_reports_position(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config('{\n  "gamma": }')

    def test_custom_market_triple(self):
        cfg = parse_config('{"market": {"mu": 0.07, "r": 0.015, "sigma": 0.2}}')
        assert cfg.market == {"mu": 0.07, "r": 0.015, "sigma": 0.2}
        assert cfg.spec.mkt.mu == 0.07
        assert cfg.echo()["market"] == {"mu": 0.07, "r": 0.015, "sigma": 0.2}

    def test_bad_market_preset(self):
        with pytest.raises(ConfigError, match="market"):
            parse_config('{"market": "M9"}')

    def test_single_generation_rejected(self):
        # one working generation starts the fund empty, at a 0/0 funding ratio
        with pytest.raises(ConfigError, match="'retirement_age'"):
            parse_config('{"entry_age": 64, "retirement_age": 65}')

    def test_effective_config_echoes_exactly_the_keys(self):
        for text in ("", '{"market": {"mu": 0.07, "r": 0.015, "sigma": 0.2}, "gamma": 2}'):
            echo = parse_config(text).echo()
            assert set(echo) == set(DEFAULTS)
            assert parse_config(json.dumps(echo)) == parse_config(text)
        assert parse_config("").echo() == DEFAULTS

    def test_bad_types_named(self):
        with pytest.raises(ConfigError, match="n_paths"):
            parse_config('{"n_paths": 2.5}')
        with pytest.raises(ConfigError, match="'beta': expected a number"):
            parse_config('{"beta": "0.98"}')


class TestGridOracle:
    def test_resolution_two_hits_corners(self):
        cfg = parse_config('{"n_paths": 20, "horizon": 30}')
        rows, best = run_grid_oracle(cfg, 2)
        assert len(rows) == 4
        corners = {(r[0], r[1]) for r in rows}
        assert corners == {(0.0, 0.0), (0.0, 1.0), (3.0, 0.0), (3.0, 1.0)}
        assert best in rows

    def test_leveraged_corner_in_strong_market_is_zeroed(self):
        cfg = parse_config('{"market": "M1", "n_paths": 200}')
        rows, _ = run_grid_oracle(cfg, 2)
        by_point = {(r[0], r[1]): r for r in rows}
        assert by_point[(3.0, 0.0)][2] == 0.0  # ce zeroed by bankruptcies
        assert by_point[(3.0, 0.0)][5] > 0  # bankruptcy count

    def test_lattice_shares_one_draw_matrix(self, monkeypatch, tmp_path):
        # the policies share their draws: a task draws its block of paths once
        # for every policy it scores, so on one CPU each path is drawn once,
        # and on more at most once per CPU; no process draws the whole matrix
        log = tmp_path / "rows"

        def recording(seed, lo, hi, n_steps):
            with log.open("a") as fh:  # from whichever process draws
                fh.write(f"{lo} {hi}\n")
            return _normal_rows(seed, lo, hi, n_steps)

        def whole(*args):
            raise AssertionError("the whole draw matrix was generated")

        monkeypatch.setattr("cdcfund.objective._normal_rows", recording)
        monkeypatch.setattr("cdcfund.objective.normal_matrix", whole)
        for cpus in (os.sched_getaffinity(0), {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            log.write_text("")
            run_grid_oracle(parse_config('{"n_paths": 20, "horizon": 30}'), 3)
            times_drawn = np.zeros(20, dtype=int)
            for line in log.read_text().splitlines():
                lo, hi = map(int, line.split())
                times_drawn[lo:hi] += 1
            assert len(set(times_drawn)) == 1 and 1 <= times_drawn[0] <= len(cpus)

    def test_rows_equal_a_serial_loop(self):
        config = parse_config('{"n_paths": 40, "horizon": 50, "seed": 3}')
        rows, best = run_grid_oracle(config, 4)
        serial = []
        for policy in _lattice(4):
            val = evaluate_policy(policy, config.spec)
            serial.append((policy.pi, policy.theta, val.ce, val.eu, val.eu_stderr,
                           val.n_bankrupt))
        assert any(row[5] > 0 for row in serial) and any(row[5] == 0 for row in serial)
        assert np.array_equal(np.array(rows), np.array(serial), equal_nan=True)
        assert best == max(serial, key=lambda row: row[2])
        assert multiprocessing.active_children() == []

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            run_grid_oracle(parse_config(""), 1)


def run_cli(args):
    return main(args)


class TestCommands:
    def test_evaluate_prints_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(TINY)
        code = run_cli(["evaluate", "--config", str(cfg_path), "--pi", "0.5", "--theta", "0.2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "pi", "theta", "ce", "eu", "eu_stderr", "n_bankrupt", "any_bankruptcy"
        }
        assert payload["ce"] > 0

    def test_evaluate_prints_strict_json_when_bankrupt(self, tmp_path, capsys):
        # a bankrupt policy has no expected utility: null, not NaN
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(TINY)
        code = run_cli(["evaluate", "--config", str(cfg_path), "--pi", "3.0", "--theta", "0.0"])
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["any_bankruptcy"] and payload["ce"] == 0.0
        assert payload["eu"] is None and payload["eu_stderr"] is None

    def test_invalid_config_fails_cleanly(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"gamma": -2}')
        code = run_cli(["evaluate", "--config", str(cfg_path), "--pi", "0.5", "--theta", "0.2"])
        assert code == 2
        assert "gamma" in capsys.readouterr().err

    def test_optimize_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(TINY)
        out = tmp_path / "out"
        assert run_cli(["optimize", "--config", str(cfg_path), "--output-dir", str(out)]) == 0
        trace = (out / "bo_trace.csv").read_text().splitlines()
        # the column list of the README's output schemas
        assert trace[0] == (
            "iteration,pi,theta,ce,eu,eu_stderr,n_bankrupt,any_bankruptcy,solvency_margin,"
            "incumbent_pi,incumbent_theta,incumbent_ce,gp_length_scale,gp_noise"
        )
        assert len(trace) == 1 + 9  # header + n_total rows
        summary = json.loads((out / "bo_summary.json").read_text())
        assert set(summary) == {"pi_star", "theta_star", "ce_star", "runner_up"}
        assert len(summary["runner_up"]) <= 10

    def test_trace_margin_sign_matches_bankruptcy(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(TINY)
        out = tmp_path / "out"
        assert run_cli(["optimize", "--config", str(cfg_path), "--output-dir", str(out)]) == 0
        with (out / "bo_trace.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        for row in rows:
            assert (float(row["solvency_margin"]) < 0.0) == (int(row["n_bankrupt"]) > 0)

    def test_grid_outputs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(TINY)
        out = tmp_path / "out"
        assert run_cli(["grid", "--config", str(cfg_path), "--output-dir", str(out),
                        "--resolution", "3"]) == 0
        lines = (out / "grid.csv").read_text().splitlines()
        assert lines[0].split(",") == GRID_HEADER
        assert len(lines) == 1 + 9

    def test_simulate_and_analyze_schemas(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(TINY.replace('"horizon": 50', '"horizon": 45'))
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg_path), "--output-dir", str(out),
                        "--pi", "0.6", "--theta", "0.3", "--paths", "2"]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].split(",") == TRAJECTORY_HEADER
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"CDC", "IDC"}

        assert run_cli(["analyze", "--config", str(cfg_path), "--output-dir", str(out),
                        "--pi", "0.6", "--theta", "0.3"]) == 0
        for name, header in [
            ("welfare_table.csv", WELFARE_HEADER),
            ("roughness.csv", ROUGHNESS_HEADER),
            ("funding_ratio.csv", FUNDING_HEADER),
            ("cdf_tail.csv", CDF_HEADER),
        ]:
            lines = (out / name).read_text().splitlines()
            assert lines[0].split(",") == header, name
        welfare = (out / "welfare_table.csv").read_text().splitlines()[1:]
        gens = sorted({int(line.split(",")[0]) for line in welfare})
        assert gens == list(range(40, 46))  # horizon 45

    def test_analyze_with_every_path_bankrupt_before_generation_41_retires(self, tmp_path):
        # no CDC account of generation 41 is finite: the mean roughness is
        # NaN over zero paths, without an empty-slice RuntimeWarning
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"n_paths": 2}')
        out = tmp_path / "out"
        assert run_cli(["analyze", "--config", str(cfg_path), "--output-dir", str(out),
                        "--seed", "0", "--pi", "3.0", "--theta", "0.0"]) == 0
        rows = (out / "roughness.csv").read_text().splitlines()
        cdc = next(row for row in rows if row.startswith("CDC,"))
        assert cdc.endswith(",nan,0")
        summary = strict_json((out / "analysis_summary.json").read_text())
        assert summary["n_bankrupt"] == 2
        assert summary["mean_roughness"]["CDC"] is None

    def test_run_cell_reproduces_byte_identical_outputs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(TINY)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["run-cell", "--config", str(cfg_path), "--output-dir",
                            str(out), "--paths", "2"]) == 0
        names1 = {p.name for p in out1.iterdir()}
        assert names1 == {
            "effective_config.json", "bo_trace.csv", "bo_summary.json", "trajectory.csv",
            "welfare_table.csv", "roughness.csv", "funding_ratio.csv", "cdf_tail.csv",
            "analysis_summary.json", "manifest.json",
        }
        for name in sorted(names1 - {"manifest.json"}):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]  # hashes of every artifact
        assert m1["config"] == m2["config"]

    @pytest.mark.parametrize(
        "command, generated",
        [
            (["analyze", "--pi", "0.6", "--theta", "0.3"], 1),
            # the optimizer's draws and the trajectory dump's; analyze reuses the first
            (["run-cell", "--paths", "2"], 2),
        ],
    )
    def test_draws_generated_once_per_spec(self, tmp_path, monkeypatch, command, generated):
        made = record_generated(monkeypatch)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(TINY)
        assert run_cli([*command, "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 0
        assert len(made) == generated

    def test_seed_override_changes_results(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(TINY)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(["optimize", "--config", str(cfg_path), "--output-dir", str(out1)])
        run_cli(["optimize", "--config", str(cfg_path), "--output-dir", str(out2),
                 "--seed", "99"])
        assert (out1 / "bo_trace.csv").read_text() != (out2 / "bo_trace.csv").read_text()

    def test_fast_profile_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{}")
        out = tmp_path / "out"
        # --fast reduces n_paths/n_total; evaluate only reads n_paths
        code = run_cli(["evaluate", "--config", str(cfg_path), "--fast",
                        "--pi", "0.0", "--theta", "0.0", "--output-dir", str(out)])
        assert code == 0

    @pytest.mark.parametrize("args, flag", [
        (["evaluate", "--seed", "-1", "--pi", "0.5", "--theta", "0.2"], "--seed"),
        (["optimize", "--seed", "18446744073709551616"], "--seed"),
        (["evaluate", "--pi", "5", "--theta", "0.2"], "--pi"),
        (["simulate", "--pi", "0.5", "--theta", "-0.1"], "--theta"),
        (["simulate", "--pi", "0.5", "--theta", "0.2", "--paths", "0"], "--paths"),
        (["run-cell", "--paths", "0"], "--paths"),
        (["grid", "--resolution", "1"], "--resolution"),
        (["run-cell", "--fast"], "--fast"),
    ])
    def test_bad_flags_rejected_before_any_work(self, tmp_path, capsys, args, flag):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(TINY.replace('"n_init": 4', '"n_init": 60').replace(
            '"n_total": 9', '"n_total": 70'))
        out = tmp_path / "out"
        assert run_cli([*args, "--config", str(cfg_path), "--output-dir", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("document, key", [
        ('{"gamma": NaN}', "'gamma'"),
        ('{"market": {"mu": 0.065, "r": 0.02, "sigma": NaN}}', "'market'"),
        ('{"gamma": Infinity}', "'gamma'"),
        ('{"y": Infinity}', "'y'"),
    ])
    @pytest.mark.parametrize("command", [
        ["evaluate", "--pi", "0.5", "--theta", "0.2"],
        ["run-cell"],
    ])
    def test_non_finite_config_rejected_before_any_work(
        self, tmp_path, capsys, monkeypatch, document, key, command
    ):
        # Python's json module reads NaN and Infinity
        made = record_generated(monkeypatch)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(document)
        out = tmp_path / "out"
        assert run_cli([*command, "--config", str(cfg_path), "--output-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and key in captured.err
        assert "finite" in captured.err
        assert not made and not out.exists()

    def test_config_with_removed_key_rejected_before_any_work(
        self, tmp_path, capsys, monkeypatch
    ):
        # an effective_config.json written while the optimizer still had a
        # switch for scoring each evaluation on fresh draws
        made = record_generated(monkeypatch)
        cfg_path = tmp_path / "effective_config.json"
        cfg_path.write_text(json.dumps(
            {**parse_config(TINY).echo(), "common_random_numbers": True}, indent=2))
        out = tmp_path / "out"
        assert run_cli(["optimize", "--config", str(cfg_path), "--output-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "'common_random_numbers'" in captured.err
        assert not made and not out.exists()

    @pytest.mark.parametrize("command", [
        ["simulate", "--pi", "0.5", "--theta", "0.2"],
        ["analyze", "--pi", "0.5", "--theta", "0.2"],
        ["run-cell"],
    ])
    def test_horizon_short_of_tracked_generation_rejected(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(TINY.replace('"horizon": 50', '"horizon": 30'))
        out = tmp_path / "out"
        assert run_cli([*command, "--config", str(cfg_path), "--output-dir", str(out)]) == 2
        assert "'horizon'" in capsys.readouterr().err
        assert not out.exists()

    def test_run_cell_writes_effective_config_once(self, tmp_path, monkeypatch):
        from cdcfund import cli

        written = []
        real_write_json = cli._write_json

        def write_json(path, payload):
            written.append(path.name)
            real_write_json(path, payload)

        monkeypatch.setattr(cli, "_write_json", write_json)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(TINY)
        assert run_cli(["run-cell", "--config", str(cfg_path), "--output-dir", str(tmp_path),
                        "--paths", "2"]) == 0
        assert written.count("effective_config.json") == 1

    def test_effective_config_round_trip(self, tmp_path):
        # feeding a run's effective config back as --config reproduces it
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(TINY)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["run-cell", "--config", str(cfg_path), "--output-dir", str(out1),
                        "--paths", "2"]) == 0
        assert run_cli(["run-cell", "--config", str(out1 / "effective_config.json"),
                        "--output-dir", str(out2), "--paths", "2"]) == 0
        names = {p.name for p in out1.iterdir()}
        assert names == {p.name for p in out2.iterdir()}
        for name in sorted(names - {"manifest.json"}):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]
        echoed = json.loads((out1 / "effective_config.json").read_text())
        assert m1["config"] == m2["config"] == echoed


def traced_peak(fn) -> int:
    """The tracemalloc peak of ``fn()`` in bytes; numpy reports its buffers."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestArtifactMemory:
    SOLVENT = PolicyParams(pi=0.865, theta=0.345)

    @staticmethod
    def spec_with_draws(n_paths: int):
        config = parse_config(f'{{"n_paths": {n_paths}, "seed": 1}}')
        config.spec.normals  # generated before the trace, as the optimizer leaves them
        return config

    def test_trajectory_rows_are_written_path_by_path(self, tmp_path):
        spec = self.spec_with_draws(50).spec
        cfg = spec.cfg
        state = 2 * (cfg.n_steps + 1)  # assets and liabilities
        accounts = 2 * (cfg.n_generations * cfg.steps_per_year + 1)  # CDC and IDC
        recorded = 8 * spec.n_paths * (state + accounts)
        peak = traced_peak(lambda: _trajectory_output(spec, self.SOLVENT, tmp_path))
        assert peak < 2 * recorded

    def test_analysis_holds_no_whole_account_matrix(self, tmp_path):
        config = self.spec_with_draws(2_000)
        spec = config.spec
        cfg = spec.cfg
        tracked = 8 * spec.n_paths * (cfg.n_generations * cfg.steps_per_year + 1)
        payments = 8 * spec.n_paths * cfg.horizon
        peak = traced_peak(lambda: _analysis_outputs(config, self.SOLVENT, tmp_path))
        assert peak < 1.5 * (tracked + payments)

    def test_analysis_bytes_do_not_depend_on_the_blocks(self, tmp_path, monkeypatch):
        # one block of every path is the one-pass computation
        config = self.spec_with_draws(2_000)
        blocked, whole = tmp_path / "blocked", tmp_path / "whole"
        blocked.mkdir()
        whole.mkdir()
        written = _analysis_outputs(config, self.SOLVENT, blocked)
        monkeypatch.setattr("cdcfund.analysis._ROUGHNESS_BLOCK", config.spec.n_paths)
        monkeypatch.setattr("cdcfund.cli._IDC_BLOCK", config.spec.n_paths)
        _analysis_outputs(config, self.SOLVENT, whole)
        for path in written:
            assert path.read_bytes() == (whole / path.name).read_bytes(), path.name

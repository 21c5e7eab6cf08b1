"""Self-tests of the benchmark: ``python3 -m pytest bench``."""

import hashlib
import json
import types

import pytest

import checks
import run
import spans


def test_self_time_on_synthetic_span_tree():
    tree = [
        ["cli.main", 0.0, 10.0, -1],
        ["fund.simulate_batch", 1.0, 4.0, 0],
        ["market.normal_matrix", 2.0, 3.0, 1],
        ["bo.optimize", 3.0, 6.0, 0],  # overlaps its sibling
        ["gp.fit", 8.0, 12.0, 0],  # overhangs its parent
        ["cli.write", 12.5, 13.0, -1],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0, 0.5])
    assert spans.layer_self_times(tree) == pytest.approx(
        {"cli": 3.5, "fund": 2.0, "market": 1.0, "bo": 3.0, "gp": 4.0})
    assert spans.top_level_time(tree) == pytest.approx(10.5)


def test_buckets_fold_same_layer_callees_unless_named():
    tree = [
        ["objective.evaluate_policy", 0.0, 10.0, -1],
        ["objective.value_from_batch", 1.0, 5.0, 0],
        ["objective.crra_utility", 2.0, 3.0, 1],
        ["market.growth_factors", 6.0, 9.0, 0],
        ["market.log_return_increment", 7.0, 8.0, 3],
    ]
    assert spans.bucket_self_times(tree, roots={"objective.value_from_batch"}) == pytest.approx({
        "objective.evaluate_policy": 3.0,
        "objective.value_from_batch": 4.0,
        "market.growth_factors": 3.0,
    })


def test_patch_wraps_every_binding_and_nests_spans():
    low = types.ModuleType("low")
    exec("__all__ = ['draw']\ndef draw(n):\n    return list(range(n))", low.__dict__)
    high = types.ModuleType("high")
    high.draw = low.draw  # bound by name, as `from .low import draw`
    exec("__all__ = ['simulate']\ndef simulate(n):\n    return sum(draw(n))", high.__dict__)
    tracer = spans.Tracer()
    hits = []
    spans.patch_functions(
        {"low": low, "high": high}, tracer,
        {"low.draw": (lambda tr, args, kwargs, out: hits.append(out), None)},
    )
    assert high.simulate(3) == 3
    assert low.draw(1) == [0]
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("high.simulate", -1), ("low.draw", 0), ("low.draw", -1)]
    assert hits == [[0, 1, 2], [0]]


def _write_cell(out_dir, ce_values):
    out_dir.mkdir()
    rows = "iteration,pi,theta,ce\n" + "".join(
        f"{k},0.5,0.5,{ce!r}\n" for k, ce in enumerate(ce_values))
    (out_dir / "bo_trace.csv").write_text(rows)
    (out_dir / "bo_summary.json").write_text(json.dumps({"ce_star": max(ce_values)}))
    hashes = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("bo_trace.csv", "bo_summary.json")
    }
    manifest = {"stages": {"optimize": {"status": "ok", "wall_time_seconds": 1.0}},
                "outputs": hashes}
    (out_dir / "manifest.json").write_text(json.dumps(manifest))


def test_run_cell_check_rejects_tampered_artifact(tmp_path):
    out_dir = tmp_path / "out"
    _write_cell(out_dir, [12.5, 13.25, 0.0])
    assert checks.check_output("run-cell", b"", out_dir, {}) == checks.Verdict(True, "", 13.25)
    (out_dir / "bo_trace.csv").write_text((out_dir / "bo_trace.csv").read_text() + "3,1,1,14.0\n")
    verdict = checks.check_output("run-cell", b"", out_dir, {})
    assert not verdict.ok and "bo_trace.csv" in verdict.reason


def test_evaluate_and_grid_checks_reject_tampered_output(tmp_path):
    gamma, eu = 3.0, -0.0029388
    ce = checks.certainty_equivalent(eu, gamma)
    params = {"pi": 0.8, "theta": 0.3, "gamma": gamma}
    good = {"pi": 0.8, "theta": 0.3, "ce": ce, "eu": eu, "n_bankrupt": 0, "any_bankruptcy": False}
    assert checks.check_output("evaluate", json.dumps(good).encode(), tmp_path, params).ok
    for bad in ({"ce": ce * (1 + 1e-9)}, {"n_bankrupt": 3, "any_bankruptcy": True}):
        assert not checks.check_output(
            "evaluate", json.dumps({**good, **bad}).encode(), tmp_path, params).ok

    out_dir = tmp_path / "grid"
    out_dir.mkdir()
    (out_dir / "grid.csv").write_text(
        "pi,theta,ce,eu,eu_stderr,n_bankrupt\n0,0,5.5,-1,0,0\n0,1,6.5,-1,0,0\n"
        "1,0,0,nan,nan,4\n1,1,6.5,-1,0,0\n")
    printed = json.dumps({"pi_star": 0.0, "theta_star": 1.0, "ce_star": 6.5}).encode()
    assert checks.check_output("grid", printed, out_dir, {"resolution": 2}).ok
    printed = json.dumps({"pi_star": 1.0, "theta_star": 1.0, "ce_star": 6.5}).encode()
    assert not checks.check_output("grid", printed, out_dir, {"resolution": 2}).ok


def _fake_spawn(outputs):
    """Stand-in for running the CLI: operation n writes the n-th entry of
    ``outputs``, and every operation after the last entry writes the last
    one; set-up probes write nothing."""
    calls = []

    def spawn(mode, op_dir, config, op, timeout):
        op_dir.mkdir(parents=True)
        if mode != "setup":
            _write_cell(op_dir / "out", outputs[min(len(calls), len(outputs) - 1)])
            (op_dir / "stdout").write_bytes(b"")
            calls.append(op_dir)
        return {"exit_code": 0, "wall_s": 1.0, "setup_s": 0.5, "startup_s": 0.1,
                "exit_s": 0.1, "peak_rss_mb": 10.0, "child": {}}

    return spawn


def test_tampered_or_changed_artifacts_count_as_failed(tmp_path, monkeypatch):
    op = run.Op("cell", "run-cell", (), {})
    workload = run.Workload("fake", "test", 1, lambda seed: [op], 3)

    monkeypatch.setattr(run, "_spawn", _fake_spawn([[1.0, 2.0]] * 3))
    outcome = run.run(workload, seed=0, seconds=0, trace=False, run_dir=tmp_path / "a")
    # three operations, then set-up probes for the set-up samples they did not give
    probes = run.SETUP_SAMPLES - 3
    assert (outcome["correct"], outcome["attempted"], outcome["failed"]) == (True, 3 + probes, 0)
    assert outcome["metrics"]["ce_star"] == (2.0, "units_of_y")

    # the repeat of the first operation writes other bytes
    monkeypatch.setattr(run, "_spawn", _fake_spawn([[1.0, 2.0], [1.0, 2.0], [1.0, 2.5]]))
    outcome = run.run(workload, seed=0, seconds=0, trace=False, run_dir=tmp_path / "b")
    assert (outcome["correct"], outcome["failed"]) == (False, 1)

    # an artifact no longer matches the manifest
    def tampering_spawn(mode, op_dir, config, op, timeout, inner=_fake_spawn([[1.0, 2.0]] * 3)):
        rec = inner(mode, op_dir, config, op, timeout)
        if mode != "setup":
            (op_dir / "out" / "bo_summary.json").write_text('{"ce_star": 2.0} ')
        return rec

    monkeypatch.setattr(run, "_spawn", tampering_spawn)
    outcome = run.run(workload, seed=0, seconds=0, trace=False, run_dir=tmp_path / "c")
    assert (outcome["correct"], outcome["failed"]) == (False, 3)


def test_traced_run_alternates_which_side_runs_first(tmp_path, monkeypatch):
    op = run.Op("cell", "run-cell", (), {})
    workload = run.Workload("fake", "test", 1, lambda seed: [op], 3)
    monkeypatch.setattr(run, "_spawn", _fake_spawn([[1.0, 2.0]]))
    outcome = run.run(workload, seed=0, seconds=0, trace=True, run_dir=tmp_path)
    assert [rec["traced"] for rec in outcome["records"]] == [False, True, True, False]
    assert (outcome["attempted"], outcome["failed"]) == (4, 0)


def test_evaluate_inputs_depend_on_seed_only():
    assert run._evaluate_ops(5) == run._evaluate_ops(5)
    assert run._evaluate_ops(5) != run._evaluate_ops(6)
    ops = run._evaluate_ops(5)
    n = run.N_POLICIES
    pis = sorted(op.params["pi"] for op in ops)
    assert len(pis) == n
    assert all(3.0 * i / n <= pi < 3.0 * (i + 1) / n for i, pi in enumerate(pis))
    assert all(0.0 <= op.params["theta"] < 1.0 for op in ops)

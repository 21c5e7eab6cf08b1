"""Checks of one operation's outputs, made from outside the program.

Each check reads what the CLI printed and wrote and returns a ``Verdict``.
The formulas are restated here rather than imported from ``cdcfund``, so a
defect in the package cannot hide itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# relative tolerance for values the program and this module compute with the
# same floating-point formula; only the last bits may differ
REL_TOL = 1e-12


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    ce_star: float | None = None


def _last_json_line(stdout: bytes) -> dict:
    return json.loads(stdout.decode().strip().splitlines()[-1])


def certainty_equivalent(eu: float, gamma: float) -> float:
    """CRRA utility inverted: ``exp(eu)`` at ``gamma == 1``, else ``((1-gamma) eu)**(1/(1-gamma))``."""
    if gamma == 1.0:
        return math.exp(eu)
    return ((1.0 - gamma) * eu) ** (1.0 / (1.0 - gamma))


def check_evaluate(stdout: bytes, out_dir: Path, params: dict) -> Verdict:
    """``ce`` is the certainty equivalent of ``eu`` when solvent, and ``ce == 0``
    exactly when some path went bankrupt."""
    res = _last_json_line(stdout)
    if (res["pi"], res["theta"]) != (params["pi"], params["theta"]):
        return Verdict(False, f"policy echoed as {res['pi']}, {res['theta']}")
    bankrupt = res["n_bankrupt"] > 0
    if bool(res["any_bankruptcy"]) != bankrupt:
        return Verdict(False, "any_bankruptcy disagrees with n_bankrupt")
    if (res["ce"] == 0.0) != bankrupt:
        return Verdict(False, f"ce={res['ce']} with n_bankrupt={res['n_bankrupt']}")
    if not bankrupt:
        expected = certainty_equivalent(res["eu"], params["gamma"])
        if not math.isclose(res["ce"], expected, rel_tol=REL_TOL, abs_tol=0.0):
            return Verdict(False, f"ce={res['ce']} but certainty_equivalent(eu)={expected}")
    return Verdict(True, ce_star=res["ce"])


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_grid(stdout: bytes, out_dir: Path, params: dict) -> Verdict:
    """The printed best is the first row of ``grid.csv`` with the largest ``ce``."""
    res = _last_json_line(stdout)
    rows = _csv_rows(out_dir / "grid.csv")
    if len(rows) != params["resolution"] ** 2:
        return Verdict(False, f"grid.csv has {len(rows)} rows")
    best = None
    for row in rows:
        if best is None or float(row["ce"]) > float(best["ce"]):
            best = row
    printed = (res["pi_star"], res["theta_star"], res["ce_star"])
    if printed != (float(best["pi"]), float(best["theta"]), float(best["ce"])):
        return Verdict(False, f"printed best {printed} is not the max row of grid.csv")
    return Verdict(True, ce_star=res["ce_star"])


def check_run_cell(stdout: bytes, out_dir: Path, params: dict) -> Verdict:
    """Every manifest hash matches its file, every stage succeeded, and
    ``bo_summary.ce_star`` is the largest ``ce`` in ``bo_trace.csv``."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    failed = [name for name, st in manifest["stages"].items() if st["status"] != "ok"]
    if failed:
        return Verdict(False, f"stages failed: {failed}")
    if not manifest["outputs"]:
        return Verdict(False, "manifest lists no outputs")
    for name, digest in sorted(manifest["outputs"].items()):
        path = out_dir / name
        if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            return Verdict(False, f"{name} does not match its manifest hash")
    summary = json.loads((out_dir / "bo_summary.json").read_text())
    best = max(float(row["ce"]) for row in _csv_rows(out_dir / "bo_trace.csv"))
    if summary["ce_star"] != best:
        return Verdict(False, f"ce_star={summary['ce_star']} but max ce in bo_trace.csv is {best}")
    return Verdict(True, ce_star=summary["ce_star"])


CHECKS = {"evaluate": check_evaluate, "grid": check_grid, "run-cell": check_run_cell}


def check_output(command: str, stdout: bytes, out_dir: Path, params: dict) -> Verdict:
    """Run the check for ``command``; unreadable or missing output fails it."""
    try:
        return CHECKS[command](stdout, out_dir, params)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return Verdict(False, f"unreadable output: {exc!r}")


def artifact_digest(stdout: bytes, out_dir: Path) -> str:
    """SHA-256 over standard output and every file written, by name.

    The manifest enters without its ``stages`` entry, which holds wall times.
    """
    h = hashlib.sha256(stdout)
    files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
    for path in files:
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("stages", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def artifact_bytes(stdout: bytes, out_dir: Path) -> int:
    """Bytes printed plus bytes of every file written."""
    files = out_dir.iterdir() if out_dir.is_dir() else ()
    return len(stdout) + sum(path.stat().st_size for path in files)

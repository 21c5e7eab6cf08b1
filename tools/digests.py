"""Print a SHA-256 digest of every artifact and stdout of a fixed set of CLI runs.

Usage: ``python tools/digests.py [--src DIR]``

Runs ``evaluate``, ``simulate`` and ``analyze`` each at a solvent and at a
bankrupt policy, a 3 x 3 ``grid`` (once more pinned to one CPU as
``grid-one-cpu``, whose digests must equal those of ``grid``), ``optimize
--fast``, and ``run-cell --fast`` at seeds 1 and 2, each in a fresh
interpreter that imports ``cdcfund`` from ``DIR`` (default: the ``src``
directory of the checkout holding this script), with outputs in a temporary
directory. One ``sha256  run/file`` line is printed per file written and per
non-empty stdout, and an ``invalid-json  run/file`` line after it for a
stdout or ``.json`` file that is not strict JSON (RFC 8259 has no ``NaN`` or
``Infinity``).
``manifest.json`` is hashed with its per-stage wall times removed, the only
bytes that differ between identical runs. Comparing two checkouts is a
``diff`` of their outputs::

    python tools/digests.py > new.txt
    python tools/digests.py --src ../parent/src > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SOLVENT = ["--pi", "0.865", "--theta", "0.345"]
BANKRUPT = ["--pi", "3.0", "--theta", "0.0"]

# run name -> command line after ``cdcfund``; outputs go to a directory of that name
RUNS = {
    "evaluate": ["evaluate", "--seed", "1", *SOLVENT],
    "evaluate-bankrupt": ["evaluate", "--seed", "1", "--fast", *BANKRUPT],
    "grid": ["grid", "--seed", "1", "--fast", "--resolution", "3"],
    "grid-one-cpu": ["grid", "--seed", "1", "--fast", "--resolution", "3"],
    "simulate-solvent": ["simulate", "--seed", "1", *SOLVENT, "--paths", "10"],
    "simulate-bankrupt": ["simulate", "--seed", "1", *BANKRUPT, "--paths", "10"],
    "analyze": ["analyze", "--seed", "1", "--fast", *SOLVENT],
    "analyze-bankrupt": ["analyze", "--seed", "1", "--fast", *BANKRUPT],
    "optimize": ["optimize", "--seed", "1", "--fast"],
    "run-cell-seed1": ["run-cell", "--seed", "1", "--fast"],
    "run-cell-seed2": ["run-cell", "--seed", "2", "--fast"],
}
ONE_CPU = {"grid-one-cpu"}  # runs confined to the lowest CPU of this process's affinity mask


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _strict_json_check(data: bytes, label: str) -> list[str]:
    """``["invalid-json  label"]`` unless ``data`` parses as RFC 8259 JSON."""

    def reject(constant):
        raise ValueError(constant)

    try:
        json.loads(data, parse_constant=reject)
    except ValueError:
        return [f"invalid-json  {label}"]
    return []


def _file_digest(path: Path) -> str:
    if path.name != "manifest.json":
        return _sha256(path.read_bytes())
    manifest = json.loads(path.read_text())
    for stage in manifest["stages"].values():
        stage.pop("wall_time_seconds", None)
    return _sha256(json.dumps(manifest, indent=2, sort_keys=True).encode())


def digests(src: Path, workdir: Path) -> list[str]:
    """Run every command of ``RUNS`` against the package in ``src`` and return
    the digest lines; raises if a command exits non-zero."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    one_cpu = {min(os.sched_getaffinity(0))}
    lines = []
    for name, argv in RUNS.items():
        outdir = workdir / name
        proc = subprocess.run(
            [sys.executable, "-m", "cdcfund.cli", *argv, "--output-dir", str(outdir)],
            env=env, cwd=workdir, capture_output=True, check=False,
            preexec_fn=(lambda: os.sched_setaffinity(0, one_cpu)) if name in ONE_CPU else None,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{name} exited {proc.returncode}: {proc.stderr.decode(errors='replace')}"
            )
        if proc.stdout:
            lines.append(f"{_sha256(proc.stdout)}  {name}/stdout")
            lines += _strict_json_check(proc.stdout, f"{name}/stdout")
        if outdir.exists():
            for path in sorted(outdir.iterdir()):
                lines.append(f"{_file_digest(path)}  {name}/{path.name}")
                if path.suffix == ".json":
                    lines += _strict_json_check(path.read_bytes(), f"{name}/{path.name}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
        help="directory that holds the cdcfund package to run",
    )
    args = parser.parse_args(argv)
    if not (args.src / "cdcfund" / "cli.py").is_file():
        parser.error(f"no cdcfund package under {args.src}")
    with tempfile.TemporaryDirectory(prefix="cdcfund-digests-") as tmp:
        for line in digests(args.src.resolve(), Path(tmp)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

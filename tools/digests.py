"""Print a SHA-256 digest of every artifact and stdout of a fixed set of CLI runs.

Usage: ``python tools/digests.py [--src DIR]``

Runs ``evaluate``, ``simulate`` and ``analyze`` each at a solvent and at a
bankrupt policy (``evaluate`` once more pinned to one CPU as
``evaluate-one-cpu``, whose digest must equal that of ``evaluate``, and once
more at 10k paths as ``evaluate-few-bankrupt``, whose 10 bankrupt paths fall
in 6 of its 10 path blocks),
``analyze`` once more on 2 paths that are both bankrupt before generation 41
retires (``analyze-all-bankrupt``), ``simulate`` and ``analyze`` at the
solvent policy once more at yearly and at weekly steps (``simulate-yearly``
and so on), which pins the recordings away from monthly steps, a 3 x 3
``grid`` (once more pinned to one CPU as ``grid-one-cpu``, whose digests
must equal those of ``grid``, once more in market M3 as ``grid-m3``,
where the bankruptcy boundary crosses the lattice, and once more at 2,393
paths as ``grid-2393`` and ``grid-2393-one-cpu``, whose digests must be
equal although the paths are split into uneven blocks, four on 2 CPUs and
three on one CPU, once more with ``--resolution 6`` as ``grid-6-fast``,
whose 36 policies on 1,000-path blocks step through the engine in the
largest passes, once more with ``--resolution 6`` at the default 10,000
paths as ``grid-6-10k`` and ``grid-6-10k-one-cpu``, the benchmark's lattice,
whose digests must be equal, and once more at the default ``--resolution``
20 as ``grid-20-fast``, whose 400 policies step through each 1,000-path
block in several passes), ``optimize --fast``,
and ``run-cell --fast`` at seeds 1 and 2 (seed 1 once more pinned to one CPU
as ``run-cell-one-cpu``, which draws its matrices on one thread and whose
digests must equal those of ``run-cell-seed1``), each in a fresh interpreter
that imports ``cdcfund`` from ``DIR`` (default: the ``src`` directory of the
checkout holding this script), with outputs in a temporary directory. One
``sha256  run/file`` line is printed per file written and per non-empty
stdout, an ``invalid-json  run/file`` line after it for a stdout or
``.json`` file that is not strict JSON (RFC 8259 has no ``NaN`` or
``Infinity``), and a ``stderr  run`` line for a run that wrote to stderr,
such as a warning. The stderr itself is not hashed: warning text holds the
checkout's path. The runs print 103 lines, none of them ``invalid-json`` or
``stderr``.
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
    "evaluate-one-cpu": ["evaluate", "--seed", "1", *SOLVENT],
    "evaluate-bankrupt": ["evaluate", "--seed", "1", "--fast", *BANKRUPT],
    "evaluate-few-bankrupt": ["evaluate", "--seed", "1", "--pi", "3.0", "--theta", "1.0"],
    "grid": ["grid", "--seed", "1", "--fast", "--resolution", "3"],
    "grid-one-cpu": ["grid", "--seed", "1", "--fast", "--resolution", "3"],
    "grid-m3": ["grid", "--config", "m3.json", "--seed", "1", "--fast", "--resolution", "3"],
    "grid-2393": ["grid", "--config", "n2393.json", "--seed", "1", "--resolution", "3"],
    "grid-2393-one-cpu": ["grid", "--config", "n2393.json", "--seed", "1", "--resolution", "3"],
    "grid-6-fast": ["grid", "--seed", "1", "--fast", "--resolution", "6"],
    "grid-6-10k": ["grid", "--seed", "1", "--resolution", "6"],
    "grid-6-10k-one-cpu": ["grid", "--seed", "1", "--resolution", "6"],
    "grid-20-fast": ["grid", "--seed", "1", "--fast"],
    "simulate-solvent": ["simulate", "--seed", "1", *SOLVENT, "--paths", "10"],
    "simulate-bankrupt": ["simulate", "--seed", "1", *BANKRUPT, "--paths", "10"],
    "analyze": ["analyze", "--seed", "1", "--fast", *SOLVENT],
    "analyze-bankrupt": ["analyze", "--seed", "1", "--fast", *BANKRUPT],
    "analyze-all-bankrupt": ["analyze", "--config", "two-paths.json", "--seed", "0", *BANKRUPT],
    "simulate-yearly": ["simulate", "--config", "yearly.json", "--seed", "1", *SOLVENT,
                        "--paths", "10"],
    "simulate-weekly": ["simulate", "--config", "weekly.json", "--seed", "1", *SOLVENT,
                        "--paths", "10"],
    "analyze-yearly": ["analyze", "--config", "yearly.json", "--seed", "1", "--fast", *SOLVENT],
    "analyze-weekly": ["analyze", "--config", "weekly.json", "--seed", "1", "--fast", *SOLVENT],
    "optimize": ["optimize", "--seed", "1", "--fast"],
    "run-cell-seed1": ["run-cell", "--seed", "1", "--fast"],
    "run-cell-seed2": ["run-cell", "--seed", "2", "--fast"],
    "run-cell-one-cpu": ["run-cell", "--seed", "1", "--fast"],
}
# runs confined to the lowest CPU of this process's affinity mask
ONE_CPU = {"evaluate-one-cpu", "grid-one-cpu", "grid-2393-one-cpu", "grid-6-10k-one-cpu",
           "run-cell-one-cpu"}


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
    (workdir / "two-paths.json").write_text('{"n_paths": 2}')  # analyze-all-bankrupt's config
    (workdir / "m3.json").write_text('{"market": "M3"}')  # grid-m3's config
    (workdir / "n2393.json").write_text('{"n_paths": 2393}')  # grid-2393's config
    (workdir / "yearly.json").write_text('{"dt": 1.0}')
    (workdir / "weekly.json").write_text('{"dt": 0.019230769230769232}')  # 1/52
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
        if proc.stderr:
            lines.append(f"stderr  {name}")
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

"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train-verus --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` and the corpus recipes from ``tests/harness.py``. The second to
last line of output is a JSON report (provenance, parameters, output
digests, fidelity, failed operations); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics and writes
the spans to ``.bench_out/``. Seed 0 is the acceptance corpus.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-verus", "train-copa-lossy", "drive-verus")
IMPORT_SAMPLES = 5


def import_seconds() -> float:
    """Median scaled time for a fresh interpreter to import the program.

    Timed in child processes, one after another, because a process can
    import a module only once (hostspeed.import_time).
    """
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "hostspeed.py")],
            env=env, cwd=ROOT, check=True, timeout=120, capture_output=True, text=True,
        )
        times.append(json.loads(out.stdout))
    return statistics.median(times)


def source_sha256() -> str:
    """Digest of the code under test, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mdi").glob("*.py")) + [ROOT / "tests" / "harness.py"]:
        h.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def provenance(numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git": git_state(),
        "source_sha256": source_sha256(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "mdi" / "__init__.py", ROOT / "tests" / "harness.py"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a source checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np
    import mdi
    import workloads

    if Path(mdi.__file__).resolve().parent != ROOT / "src" / "mdi":
        print(f"error: imported mdi from {mdi.__file__}, not this checkout", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    report, result, tracer = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), out_dir,
        import_s=0.0 if args.trace else import_seconds(),
    )
    report["provenance"] = provenance(np.__version__)
    if tracer is not None:
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Reduced-size self-check of the benchmark.

    python3 bench/selfcheck.py

Runs every workload once untraced and once traced on a small corpus
(4 training traces, 2 held-out, 10 s each), prints each result line and
exits non-zero unless every run is correct and prints every metric
BENCHMARK.json names, with a number for each. This includes
train-copa-lossy, which BENCHMARK.json leaves out (README.md says why).
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

from run import ROOT, WORKLOAD_NAMES

SMALL = dict(n_train=4, n_held=2, duration_s=10)


def problems_of(result: dict, names: list[str], workload: str, traced: bool) -> list[str]:
    out = []
    if not result["correct"] or result["failed"]:
        out.append(f"{result['failed']} of {result['attempted']} operations failed")
    if sorted(result["metrics"]) != sorted(names):
        out.append(f"metric names differ: {sorted(set(names) ^ set(result['metrics']))}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            out.append(f"{name} is {value!r}")
    if traced:
        invert_calls = result["metrics"]["runtime.invert_calls"]["value"]
        if (invert_calls > 0) != (workload == "drive-verus"):
            out.append(f"runtime.invert_calls is {invert_calls} on {workload}")
    return out


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {
        False: [m["name"] for m in spec["end_to_end"]],
        True: [m["name"] for m in spec["per_layer"]],
    }
    scale = workloads.Scale(**SMALL)
    failures = 0
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        for name in WORKLOAD_NAMES:
            for traced in (False, True):
                report, result, _tracer = workloads.run(
                    name, 0, 0.0, traced, work_dir=Path(work), scale=scale
                )
                print(json.dumps(result))
                for problem in problems_of(result, names[traced], name, traced):
                    failures += 1
                    print(f"FAIL {name} trace={int(traced)}: {problem}")
                for failure in report["ops"]["failures"]:
                    print(f"  {failure}")
    print("self-check " + ("passed" if failures == 0 else f"failed: {failures} problems"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

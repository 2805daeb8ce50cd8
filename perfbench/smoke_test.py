"""Smoke test of the benchmark at tiny sizes:  python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it checks that both modes print every
named metric with its unit and pass their correctness checks, that one seed
gives byte-identical inputs in two invocations and another seed different
ones.  It also checks that the benchmark refuses to run in a directory that
holds only BENCHMARK.json and perfbench/.  Takes about a minute; exits 1
and lists what failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["--seconds", "1", "--oracle-size", "256"]


def bench(cwd: Path, workload: str, seed: int, trace: int, extra=TINY):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(proc) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(line[len("report "):]) for line in lines
                  if line.startswith("report "))
    return report, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = []
        for seed, trace, group in ((7, 0, "end_to_end"), (7, 1, "per_layer"), (8, 0, None)):
            proc = bench(ROOT, workload, seed, trace)
            where = f"{workload} seed={seed} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            report, result = parse(proc)
            digests.append(report["inputs_sha256"])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True:
                problems.append(f"{where}: a correctness check failed")
            if group is not None:
                want = {m["name"]: m["unit"] for m in spec[group]}
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                if got != want:
                    problems.append(f"{where}: metrics {got} != {want}")
        if len(digests) == 3 and (digests[0] != digests[1] or digests[0] == digests[2]):
            problems.append(f"{workload}: input digests by seed 7, 7, 8: {digests}")

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_tmp") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(Path(tmp), "exact_sweep", 1, 0, ["--seconds", "1"])
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("ran without the package source")

    for line in problems:
        print("FAIL", line)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""toephankel benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload exact_sweep|oracle_large|cli_mixed
                             --seed N --seconds S --trace 0|1
                             [--oracle-size N]

Run from anywhere; the package is taken from ../src relative to this file.
With --trace 0 the last line of output carries the end-to-end metrics,
with --trace 1 the per-layer metrics.  Lines before it give the
environment, the input mix, failures by class and the metrics that are
not gated (fail_ratio, latency_p90_ms).  The exit code is 0 when every
check passed, 1 when an answer was wrong or a worker failed, 2 when the
package source is missing and 3 when a worker did not finish within the
run's time budget; only 0 and 1 come with a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("exact_sweep", "oracle_large", "cli_mixed")
BLAS_THREADS = 1          # fixed, and never above nproc
SETUP_PROBES = 4          # fresh processes that only set up; the worker is one more
DEADLINE_S = 170.0        # every child of a run is finished within this budget


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and parse its result.

    The worker gets its own session, so that at the deadline it is killed
    together with any CLI process it has started."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, cwd=ROOT, env=_child_env(), start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _src_loc() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description="toephankel benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--oracle-size", type=int, default=inputs.ORACLE_SIZE)
    args = parser.parse_args()

    if not (SRC / "toephankel" / "__init__.py").is_file():
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--oracle-size", str(args.oracle_size)]

    try:
        if args.trace:
            run = _worker(base + ["--trace"], deadline)
            # the same problems again without spans, for the overhead
            ref = _worker(base + ["--units", str(run["units"])], deadline)
            traced_pps = run["attempted"] / run["timed_s"]
            plain_pps = ref["attempted"] / ref["timed_s"]
            metrics = {k: tuple(v) for k, v in run["per_layer"].items()}
            metrics["trace.overhead_pct"] = (100.0 * (plain_pps / traced_pps - 1.0), "%")
            wrong = run["wrong"] + ref["wrong"]
        else:
            # probes before and after the run, so they sample more of the
            # host's slow and fast spells than back-to-back probes would
            probes = [_worker(base + ["--setup-only"], deadline)
                      for _ in range(SETUP_PROBES // 2)]
            run = _worker(base, deadline)
            probes.append(run)
            probes += [_worker(base + ["--setup-only"], deadline)
                       for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            setups = [p["setup_s"] for p in probes]
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "problems_per_s": (run["problems_per_s"], "1/s"),
                "latency_p50_ms": (run["latency_p50_ms"], "ms"),
                "peak_rss_mb": (run["peak_rss_mb"], "MB"),
                # 1 - fail_ratio, never 0: a rise in failures, fast ones that
                # would raise problems_per_s among them, shows here
                "success_ratio": (1.0 - run["failed"] / run["attempted"], "ratio"),
            }
            wrong = run["wrong"]
    except subprocess.TimeoutExpired as exc:
        print(f"benchmark run timed out: the {DEADLINE_S:.0f} s budget ran out in "
              f"{exc.cmd}", file=sys.stderr)
        return 3
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                "blas_threads": BLAS_THREADS, "src_loc": _src_loc(), **run["env"]},
        "units": run["units"],
        "timed_s": run["timed_s"],
        "mix": run["mix"],
        "failures_by_class": run["failures_by_class"],
        "fail_ratio": run["failed"] / run["attempted"],
        "latency_samples": run["latency_samples"],
        "latency_p90_ms": run["latency_p90_ms"],
        "inputs_sha256": run["inputs_sha256"],
    }
    if not args.trace:
        report["setup_samples_s"] = setups
        report["wall"] = {
            "setup_s": statistics.median(p["setup_wall_s"] for p in probes),
            "problems_per_s": run["problems_per_wall_s"],
            "latency_p50_ms": run["latency_p50_wall_ms"],
        }
    print("report " + json.dumps(report))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads, run after worker.py has set up the process.

Work is done in whole units (exact_sweep: a block of 49 pairs; oracle_large:
one pass over the fixed pairs; cli_mixed: one round of the five commands).
A run does a fixed number of them, --units or else enough for --seconds
at the unit's nominal time (UNIT_S), so every run of a given length
attempts the same problems, and its failure counts do not depend on how
fast the host was.  Only the calls into the program are timed, each
bracketed by a reference kernel of clock.py: building symbols from specs
and checking answers happen outside the timed interval.

A problem that does not give the expected answer is a failure, counted by
class.  It is a wrong answer, which makes the run incorrect, unless the
workload allows it: exact_sweep allows the package's own errors
(ToepHankelError) and nothing else; oracle_large and cli_mixed, whose
answers are fixed by ORACLE_DIMS and CLI_TABLE, allow nothing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import clock
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WARMUP_PROBLEMS = 5
WARMUP_ORACLE_SIZE = 256
CLI_TIMEOUT_S = 60.0
# reference kernel and its runs on each side of a timed problem (about
# 1.2 ms each for "cpu", 13 ms for "memory"): a few per cent of a
# problem's time, which lasts ~70 ms, ~0.5 s and ~5-15 s
STOPWATCH = {"exact_sweep": ("cpu", 1), "cli_mixed": ("cpu", 5), "oracle_large": ("memory", 7)}
# wall time of the timed problems of one unit on the 2-core host the
# benchmark was defined on, under its usual load
UNIT_S = {"exact_sweep": 6.5, "cli_mixed": 3.4, "oracle_large": 40.0}


def _stopwatch(workload: str) -> clock.Stopwatch:
    kernel, samples = STOPWATCH[workload]
    return clock.Stopwatch(samples, clock.EXPONENTS[workload], kernel)


class Tally:
    """Outcome of every timed problem; nothing is filtered out."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.failures: Counter = Counter()
        self.wall_s: list[float] = []
        self.calibrated_s: list[float] = []
        self.ok_ms: list[float] = []
        self.ok_wall_ms: list[float] = []
        self.mix: Counter = Counter()

    def record(self, wall_s: float, calibrated_s: float, failure: str | None,
               wrong: bool) -> None:
        self.attempted += 1
        self.wall_s.append(wall_s)
        self.calibrated_s.append(calibrated_s)
        if failure is None:
            self.ok_ms.append(calibrated_s * 1e3)
            self.ok_wall_ms.append(wall_s * 1e3)
        else:
            self.failures[failure] += 1
            self.wrong += wrong

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


# ---------------------------------------------------------------------------
# exact_sweep and oracle_large: in-process library calls


def _analytic_checks(spec, pair, report) -> list[str]:
    exp = inputs.expected_exact(spec)
    got = {"kappa1": pair.kappa1, "kappa2": pair.kappa2, "sigma_c": pair.sigma_c,
           "regime": report.regime.value}
    wrong = [k for k in exp if got[k] != exp[k]]
    index = (report.dim_ker_plus - report.dim_coker_plus
             + report.dim_ker_minus - report.dim_coker_minus)
    if index != exp["kappa1"] + exp["kappa2"]:
        wrong.append("index_identity")
    return wrong


def _oracle_checks(dims, report) -> list[str]:
    wrong = []
    analytic = (report.dim_ker_plus, report.dim_coker_plus,
                report.dim_ker_minus, report.dim_coker_minus)
    if analytic != dims:
        wrong.append("dims")
    od = report.oracle["dims"]
    if (od["ker+"], od["coker+"], od["ker-"], od["coker-"]) != dims:
        wrong.append("oracle_dims")
    if report.oracle["agreement"]["all"] is not True:
        wrong.append("agreement")
    return wrong


def _raised(tally, times, exc, allowed, stage="") -> None:
    """Count an exception: a failure if its class is allowed, else wrong."""
    wrong = not isinstance(exc, allowed)
    tally.record(*times, ("wrong:" if wrong else "") + stage + type(exc).__name__, wrong)


def _library_problem(tally, rec, pid, spec, shifts, solve, check, workload, allowed):
    """Build the symbols (untimed), solve (timed), check (untimed).

    `allowed` is the tuple of exception classes that count as failures;
    any other exception is a wrong answer.  The run goes on either way."""
    try:
        a, b, shift = inputs.build_pair(spec, shifts)
    except Exception as exc:
        _raised(tally, (0.0, 0.0), exc, allowed, "build:")
        return
    rec.problem = pid
    try:
        with _stopwatch(workload) as sw:
            pair, report = solve(a, b, shift)
    except Exception as exc:
        rec.problem = None
        _raised(tally, (sw.wall_s, sw.calibrated_s), exc, allowed)
        return
    rec.problem = None
    try:
        wrong = check(spec, pair, report)
    except (KeyError, TypeError, AttributeError) as exc:  # a report without the fields
        wrong = [f"check:{type(exc).__name__}"]
    tally.record(sw.wall_s, sw.calibrated_s, "wrong:" + ",".join(wrong) if wrong else None,
                 bool(wrong))


def exact_units(args, shifts, rec):
    import toephankel

    allowed = (toephankel.ToepHankelError,)

    def solve(a, b, shift):
        pair = toephankel.make_matching_pair(a, b, shift)
        return pair, toephankel.defect_numbers(pair, run_oracle=False)

    rng = random.Random(args.seed)
    for spec in inputs.exact_block(rng, -1)[:WARMUP_PROBLEMS]:
        _library_problem(Tally(), rec, None, spec, shifts, solve, _analytic_checks,
                         "exact_sweep", allowed)
    for index in itertools.count():
        block = inputs.exact_block(rng, index)

        def unit(tally, first_pid, block=block):
            for k, spec in enumerate(block):
                tally.mix[inputs.expected_exact(spec)["regime"]] += 1
                _library_problem(tally, rec, first_pid + k, spec, shifts, solve,
                                 _analytic_checks, "exact_sweep", allowed)

        yield block, unit


def oracle_units(args, shifts, rec):
    import toephankel

    def solve_at(size):
        def solve(a, b, shift):
            pair = toephankel.make_matching_pair(a, b, shift)
            return pair, toephankel.defect_numbers(pair, oracle_size=size)
        return solve

    def check(spec, pair, report):
        dims = inputs.ORACLE_DIMS[inputs.ORACLE_PAIRS.index(spec)]
        return _analytic_checks(spec, pair, report) + _oracle_checks(dims, report)

    _library_problem(Tally(), rec, None, inputs.ORACLE_PAIRS[0], shifts,
                     solve_at(WARMUP_ORACLE_SIZE), check, "oracle_large", ())
    rng = random.Random(args.seed)
    solve = solve_at(args.oracle_size)
    while True:
        specs = [inputs.ORACLE_PAIRS[k] for k in inputs.oracle_order(rng)]

        def unit(tally, first_pid, specs=specs):
            for k, spec in enumerate(specs):
                tally.mix[inputs.expected_exact(spec)["regime"]] += 1
                _library_problem(tally, rec, first_pid + k, spec, shifts, solve, check,
                                 "oracle_large", ())

        yield specs, unit


# ---------------------------------------------------------------------------
# cli_mixed: one CLI process per request


def _cli_request(spec: dict, traced: bool):
    """Run one request; returns (stopwatch, exit code, report, spans or None)."""
    if traced:
        argv = [sys.executable, str(HERE / "cli_traced.py")]
    else:
        argv = [sys.executable, "-m", "toephankel.cli"]
    data = json.dumps(spec).encode()
    with _stopwatch("cli_mixed") as sw:
        proc = subprocess.run(argv, input=data, capture_output=True, cwd=ROOT,
                              timeout=CLI_TIMEOUT_S)
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        report = None
    trace = None
    if traced:
        for line in proc.stderr.decode(errors="replace").splitlines():
            if line.startswith(spans.TRACE_MARK):
                trace = json.loads(line[len(spans.TRACE_MARK):])
    return sw, proc.returncode, report, trace


def cli_units(args, shifts, rec):
    rng = random.Random(args.seed)
    warm = inputs.CLI_TABLE["signature"][0][0]
    _cli_request(warm, False)
    for picks in inputs.cli_rounds(rng):
        specs = [inputs.CLI_TABLE[cmd][k][0] for cmd, k in picks]

        def unit(tally, first_pid, picks=picks):
            for cmd, k in picks:
                spec, code, fields = inputs.CLI_TABLE[cmd][k]
                tally.mix[cmd] += 1
                try:
                    sw, got, report, trace = _cli_request(spec, args.trace)
                except subprocess.TimeoutExpired:
                    tally.record(CLI_TIMEOUT_S, CLI_TIMEOUT_S, "wrong:Timeout", True)
                    continue
                if trace is not None:
                    rec.children.append(trace)
                # every outcome is fixed by the golden table: any deviation,
                # an error report with an unexpected exit code too, is wrong
                if not isinstance(report, dict):
                    failure = f"exit{got}:unparsable"
                elif got != code:
                    error = report.get("error")
                    kind = error.get("type") if isinstance(error, dict) else None
                    failure = f"exit{got}:{kind or 'no error'}"
                else:
                    failure = ",".join(inputs.cli_mismatches(report, fields)) or None
                tally.record(sw.wall_s, sw.calibrated_s,
                             failure and "wrong:" + failure, failure is not None)

        yield specs, unit


UNITS = {"exact_sweep": exact_units, "oracle_large": oracle_units, "cli_mixed": cli_units}


# ---------------------------------------------------------------------------


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": openblas}


def main(setup_wall_s: float, shifts: dict) -> int:
    """Run the workload on the set-up process; prints one JSON object."""
    parser = argparse.ArgumentParser(description="one toephankel benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--units", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--oracle-size", type=int, default=inputs.ORACLE_SIZE)
    args = parser.parse_args()

    clock.kernel_s()  # its first run pays numpy's lazy set-up
    setup_s = clock.calibrated(setup_wall_s, [clock.kernel_median_s(5)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    rec = spans.Recorder()
    if args.trace:
        rec.install()
    tally = Tally()
    all_specs = []
    unit_sizes = []
    units = args.units or math.ceil(args.seconds / UNIT_S[args.workload])
    for specs, unit in UNITS[args.workload](args, shifts, rec):
        if len(unit_sizes) >= units:
            break
        unit(tally, tally.attempted)
        all_specs.extend(specs)
        unit_sizes.append(len(specs))

    if args.workload == "cli_mixed":
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    timed_s = sum(tally.calibrated_s)
    wall_s = sum(tally.wall_s)
    ok = len(tally.ok_ms)
    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "failures_by_class": dict(sorted(tally.failures.items())),
        "mix": dict(sorted(tally.mix.items())),
        "units": len(unit_sizes),
        "timed_s": timed_s,
        "timed_wall_s": wall_s,
        "problems_per_s": ok / timed_s if timed_s else 0.0,
        "problems_per_wall_s": ok / wall_s if wall_s else 0.0,
        "latency_p50_ms": statistics.median(tally.ok_ms) if ok else 0.0,
        "latency_p50_wall_ms": statistics.median(tally.ok_wall_ms) if ok else 0.0,
        "latency_samples": ok,
        "latency_p90_ms": statistics.quantiles(tally.ok_ms, n=10)[8] if ok >= 100 else None,
        "peak_rss_mb": peak / 1024.0,
        "inputs_sha256": inputs.inputs_digest(all_specs),
        "env": _environment(),
    }
    if args.trace:
        if args.workload == "cli_mixed":
            problems = [t["problem"] for t in rec.children]
            import_s = [t["import_s"] for t in rec.children]
        else:
            problems = rec.summary(range(tally.attempted))
            import_s = None
        factors = [c / w if w else 1.0 for c, w in zip(tally.calibrated_s, tally.wall_s)]
        metrics = spans.per_layer_metrics(problems, factors, unit_sizes[0], import_s)
        result["per_layer"] = {k: list(v) for k, v in metrics.items()}
    print(json.dumps(result))
    return 0

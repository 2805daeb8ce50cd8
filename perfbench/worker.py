"""One workload in one fresh process: set up, then run it (workloads.py).

    python3 perfbench/worker.py --workload W --seed N --seconds S
                                [--trace] [--units U] [--setup-only]
                                [--oracle-size N]

`run.py` starts this with the package on PYTHONPATH and the BLAS thread
count fixed, and reads the JSON object on the last line of its output.

The set-up is timed before this process imports anything but `sys`, `time`
and `inputs` (which imports only `math`), so every module the package
imports, argparse, json and re among them, counts in `setup_s`.
"""

import sys
from time import perf_counter


def set_up(workload: str):
    """Import the package and build the workload's shifts.

    Returns (seconds, shifts), shifts mapping beta tuples to ShiftParams."""
    import inputs

    t0 = perf_counter()
    if workload == "cli_mixed":
        import toephankel.cli  # noqa: F401  (the import is what is measured)
        from toephankel import make_shift

        betas = inputs.CLI_BETAS
    else:
        from toephankel import make_shift

        betas = inputs.BETAS
    shifts = {beta: make_shift(complex(*beta)) for beta in betas}
    return perf_counter() - t0, shifts


if __name__ == "__main__":
    setup_wall_s, shifts = set_up(sys.argv[sys.argv.index("--workload") + 1])
    import workloads

    sys.exit(workloads.main(setup_wall_s, shifts))

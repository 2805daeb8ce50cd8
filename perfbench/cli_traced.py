"""One CLI request with spans:  python3 perfbench/cli_traced.py < spec.json

Runs `toephankel.cli.main` on standard input as `python -m toephankel.cli`
does, with the wrappers of spans.py installed after the import.  The
report goes to standard output unchanged; one line prefixed with
`spans.TRACE_MARK` on standard error carries the import time and the
request's per-layer summary.
"""

import json
import sys
import time

import spans

t0 = time.perf_counter()
import toephankel.cli  # noqa: E402  (the import is timed)

import_s = time.perf_counter() - t0

rec = spans.Recorder()
rec.install()
rec.problem = 0
try:
    code = toephankel.cli.main([])
finally:
    rec.problem = None
    summary = rec.summary([0])[0]
    sys.stderr.write(spans.TRACE_MARK + json.dumps({"import_s": import_s, "problem": summary}) + "\n")
sys.exit(code)

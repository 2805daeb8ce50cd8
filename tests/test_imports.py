"""No request loads scipy, and nothing at runtime needs it.

Each check runs in a fresh interpreter, since any earlier test in this
process may have loaded scipy already.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

_B2 = {"beta": [2.0, 0.0]}
_B2J = {"beta": [0.0, 2.0]}
_JUMP = {"base": "one", "jumps": [{"tau": [0.0, 1.0], "beta": [0.5, 0.0]}]}
_SOFT = {"base": "one", "jumps": [{"tau": [0.0, 1.0], "beta": [0.25, 0.0]}]}

# (spec, exit code) for the requests of the benchmark's cli_mixed workload
# that never run the oracle
NO_ORACLE = [
    ({"command": "basis", "shift": _B2, "a": "chi^-2", "b": "chi^-2"}, 0),
    ({"command": "basis", "shift": _B2J, "a": "chi^-1", "b": "chi"}, 0),
    ({"command": "signature", "shift": _B2, "a": ["chi^-1", "chi^-1", "chi^-2"]}, 0),
    ({"command": "signature", "shift": _B2, "a": {"base": ["chi^-2", -1], "jumps": []}}, 0),
    ({"command": "fredholm", "shift": _B2, "a": _JUMP, "b": 0, "p": 2.0}, 2),
    ({"command": "fredholm", "shift": _B2, "a": _SOFT, "b": "chi^-1", "p": 2.0}, 0),
]
VERIFY = {"command": "verify", "shift": _B2, "a": "chi^-2", "b": "chi^-2", "N": 64}
# the oracle's margin for this pair is 85, so analyze needs a larger section
ANALYZE = {"command": "analyze", "shift": _B2, "a": "chi^-2", "b": "chi^-2", "N": 256}
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# makes any import of scipy raise ImportError
_NO_SCIPY = "import sys; sys.modules['scipy'] = None\n"

_SCRIPT = """
import json, os, sys, tempfile

def scipy_modules():
    return sorted(m for m, mod in sys.modules.items()
                  if mod is not None and m.split(".")[0] == "scipy")

import toephankel
after_package = scipy_modules()
from toephankel.cli import main
after_cli = scipy_modules()
runs = []
with tempfile.TemporaryDirectory() as tmp:
    for spec in json.loads(sys.argv[1]):
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        report = os.path.join(tmp, "report.json")
        code = main(["--spec", path, "--out", report])
        with open(report) as fh:
            dims = json.load(fh).get("dims", {})
        runs.append([spec["command"], code, scipy_modules(), list(dims.values())])
print(json.dumps({"package": after_package, "cli": after_cli, "runs": runs}))
"""


def _loaded(specs, script=_SCRIPT) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(specs)],
        capture_output=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_import_loads_no_scipy():
    out = _loaded([])
    assert out["package"] == []
    assert out["cli"] == []


def test_no_request_loads_scipy():
    out = _loaded([spec for spec, _ in NO_ORACLE] + [ANALYZE, VERIFY])
    assert [(cmd, code) for cmd, code, _, _ in out["runs"]] == [
        (spec["command"], code) for spec, code in NO_ORACLE
    ] + [("analyze", 0), ("verify", 0)]
    assert [mods for _, _, mods, _ in out["runs"]] == [[]] * (len(NO_ORACLE) + 2)


def test_oracle_runs_without_scipy():
    out = _loaded([ANALYZE, VERIFY], _NO_SCIPY + _SCRIPT)
    assert out["runs"] == [["analyze", 0, [], [2, 0, 2, 0]], ["verify", 0, [], [2, 0, 2, 0]]]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_without_scipy(demo):
    script = _NO_SCIPY + "import runpy; runpy.run_path(sys.argv[1], run_name='__main__')"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(demo)], capture_output=True, cwd=demo.parent.parent
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]

"""scipy is loaded by the oracle's null space and by nothing else.

Each check runs in a fresh interpreter, since any earlier test in this
process may have loaded scipy already.
"""

import json
import subprocess
import sys

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

_SCRIPT = """
import json, os, sys, tempfile

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

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
        code = main(["--spec", path, "--out", os.path.join(tmp, "report.json")])
        runs.append([spec["command"], code, scipy_modules()])
print(json.dumps({"package": after_package, "cli": after_cli, "runs": runs}))
"""


def _loaded(specs) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(specs)],
        capture_output=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_import_loads_no_scipy():
    out = _loaded([])
    assert out["package"] == []
    assert out["cli"] == []


def test_only_the_oracle_loads_scipy():
    out = _loaded([spec for spec, _ in NO_ORACLE] + [VERIFY])
    *requests, verify = out["runs"]
    assert [(cmd, code) for cmd, code, _ in requests] == [
        (spec["command"], code) for spec, code in NO_ORACLE
    ]
    assert [mods for _, _, mods in requests] == [[]] * len(NO_ORACLE)
    assert verify[:2] == ["verify", 0]
    assert "scipy.linalg" in verify[2]

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from toephankel.cli import emit_json, main, parse_symbol
from toephankel import cli, errors, make_shift
from toephankel.errors import InputError
from toephankel.rational import RationalSymbol


def run_cli(problem, *flags, tmp_path=None):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(problem))
    out = tmp_path / "report.json"
    code = main(["--spec", str(spec), "--out", str(out), *flags])
    return code, json.loads(out.read_text()), out.read_bytes()


def test_analyze_golden(tmp_path):
    problem = {
        "command": "analyze",
        "shift": {"beta": [2.0, 0.0]},
        "a": "chi^-2",
        "b": "chi^-2",
        "N": 128,
    }
    code, rep, _ = run_cli(problem, tmp_path=tmp_path)
    assert code == 0
    assert rep["kappa"] == [0, 4]
    assert rep["regime"] == "RIGHT_INV"
    assert rep["dims"] == {
        "ker_plus": 2,
        "coker_plus": 0,
        "ker_minus": 2,
        "coker_minus": 0,
    }
    assert rep["oracle"]["agreement"]["all"] is True
    assert rep["sigma"] == {"c": 1, "d": 1}


def test_analyze_chi_minus_ten(tmp_path):
    problem = {
        "command": "analyze",
        "shift": {"beta": [2.0, 0.0]},
        "a": "chi^-10",
        "b": "chi^-10",
        "N": 256,
    }
    code, rep, _ = run_cli(problem, tmp_path=tmp_path)
    assert code == 0
    assert rep["kappa"] == [0, 20]
    assert rep["dims"] == {
        "ker_plus": 10,
        "coker_plus": 0,
        "ker_minus": 10,
        "coker_minus": 0,
    }
    assert rep["oracle"]["agreement"]["all"] is True


def test_analyze_trivial(tmp_path):
    problem = {
        "command": "analyze",
        "shift": {"beta": [2.0, 0.0]},
        "a": 1,
        "b": 1,
        "N": 64,
    }
    code, rep, _ = run_cli(problem, tmp_path=tmp_path)
    assert code == 0
    assert all(v == 0 for v in rep["dims"].values())


def test_bad_beta_exits_one(tmp_path):
    problem = {
        "command": "analyze",
        "shift": {"beta": [1.0, 0.0]},
        "a": 1,
        "b": 1,
    }
    code, rep, _ = run_cli(problem, tmp_path=tmp_path)
    assert code == 1
    assert rep["error"]["type"] == "BetaInsideDisk"


def test_not_fredholm_exits_two(tmp_path):
    problem = {
        "command": "analyze",
        "shift": {"beta": [2.0, 0.0]},
        "a": {"laurent": {"lo": 0, "coeffs": [[-1.0, 0.0], [1.0, 0.0]]}},
        "b": 1,
        "N": 64,
    }
    code, rep, _ = run_cli(problem, tmp_path=tmp_path)
    assert code == 2


def test_fredholm_command_boundary(tmp_path):
    problem = {
        "command": "fredholm",
        "shift": {"beta": [2.0, 0.0]},
        "a": {"base": 1, "jumps": [{"tau": [0.0, 1.0], "beta": [0.5, 0.0]}]},
        "b": 0,
        "p": 2.0,
    }
    code, rep, _ = run_cli(problem, tmp_path=tmp_path)
    assert code == 2
    assert rep["report"]["fredholm"] is False


_POLE_NEAR_CIRCLE = {"rational": {"num": {"lo": 0, "coeffs": [[1.0, 0.0]]},
                                  "den": {"lo": 0, "coeffs": [[-1.0001, 0.0], [1.0, 0.0]]}}}
_POLE_NEARER_CIRCLE = {"rational": {"num": {"lo": 0, "coeffs": [[1.0, 0.0]]},
                                    "den": {"lo": 0, "coeffs": [[-1.00001, 0.0], [1.0, 0.0]]}}}


@pytest.mark.parametrize("a, b, where", [
    (_POLE_NEAR_CIRCLE, _POLE_NEAR_CIRCLE, "hankel window"),   # H(b)'s window outgrows N
    (_POLE_NEARER_CIRCLE, 1, "grid cap"),                      # T(a)'s FFT needs > FFT_CAP points
])
def test_uncertifiable_window_exits_four(a, b, where, tmp_path):
    problem = {"command": "verify", "shift": {"beta": [2.0, 0.0]}, "a": a, "b": b, "N": 64}
    code, rep, _ = run_cli(problem, tmp_path=tmp_path)
    assert code == 4
    assert rep["error"]["type"] == "GridTooSmall" and where in rep["error"]["message"]


def test_section_without_spectral_gap_exits_four(tmp_path):
    # chi^8 at |beta| = 1.2: the smallest kept singular value of the N = 128
    # sections is within a factor 100 of the dropped ones, in double precision
    problem = {"command": "verify", "shift": {"beta": [1.2, 0.0]}, "a": "chi^8", "b": "chi^8",
               "N": 128}
    code, rep, _ = run_cli(problem, tmp_path=tmp_path)
    assert code == 4
    assert set(rep) == {"error"} and rep["error"]["type"] == "NoSpectralGap"


@pytest.mark.parametrize("command, beta, k, flags", [
    ("analyze", 1.2, -6, ("--no-oracle",)),   # validation error 5.0e-9
    ("basis", 1.2, -6, ()),
    ("analyze", 2.0, 15, ()),                 # validation error 5.0e-10
])
def test_ill_conditioned_roots_exit_four(command, beta, k, flags, tmp_path):
    # Fredholm pairs whose partial fractions do not validate in double
    # precision: "cannot certify", not "not Fredholm"
    problem = {"command": command, "shift": {"beta": [beta, 0.0]}, "a": f"chi^{k}",
               "b": f"chi^{k}", "N": 128}
    code, rep, _ = run_cli(problem, *flags, tmp_path=tmp_path)
    assert code == 4
    assert set(rep) == {"error"} and rep["error"]["type"] == "IllConditionedRoots"


@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_oversized_section_refused_before_allocation(command, tmp_path):
    problem = {"command": command, "shift": {"beta": [2.0, 0.0]}, "a": "chi^-2",
               "b": "chi^-2", "N": 100000}
    tracemalloc.start()
    try:
        code, rep, _ = run_cli(problem, tmp_path=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert rep["error"]["type"] == "InputError" and "MAX_SECTION_BYTES" in rep["error"]["message"]
    assert peak < 16e6


def test_signature_command(tmp_path):
    problem = {
        "command": "signature",
        "shift": {"beta": [2.0, 0.0]},
        "a": "chi^-1",
    }
    code, rep, _ = run_cli(problem, tmp_path=tmp_path)
    assert code == 0 and rep["sigma"] == 1 and rep["route"] == "rational"


def test_verify_matches_analyze(tmp_path):
    base = {
        "shift": {"beta": [2.0, 0.0]},
        "a": "chi^-2",
        "b": "chi^-2",
        "N": 128,
    }
    _, rep_a, _ = run_cli({"command": "analyze", **base}, tmp_path=tmp_path)
    _, rep_v, _ = run_cli({"command": "verify", **base}, tmp_path=tmp_path)
    assert rep_v["dims"]["ker+"] == rep_a["dims"]["ker_plus"]
    assert rep_v["dims"]["coker-"] == rep_a["dims"]["coker_minus"]


def test_basis_command(tmp_path):
    problem = {
        "command": "basis",
        "shift": {"beta": [2.0, 0.0]},
        "a": "chi^-2",
        "b": "chi^-2",
    }
    code, rep, _ = run_cli(problem, tmp_path=tmp_path)
    assert code == 0
    assert len(rep["bases"]["ker_plus"]) == 2
    entry = rep["bases"]["ker_plus"][0]
    assert "series" in entry and "rational" in entry and "tag" in entry


def test_deterministic_output(tmp_path):
    problem = {
        "command": "analyze",
        "shift": {"beta": [2.0, 0.0]},
        "a": "chi^-2",
        "b": "chi^-2",
        "N": 128,
    }
    _, _, raw1 = run_cli(problem, tmp_path=tmp_path)
    _, _, raw2 = run_cli(problem, tmp_path=tmp_path)
    assert raw1 == raw2


def test_no_oracle_flag(tmp_path):
    problem = {
        "command": "analyze",
        "shift": {"beta": [2.0, 0.0]},
        "a": "chi^-2",
        "b": "chi^-2",
    }
    code, rep, _ = run_cli(problem, "--no-oracle", tmp_path=tmp_path)
    assert code == 0
    assert "oracle" not in rep


def test_stdin_stdout_roundtrip():
    problem = json.dumps(
        {"command": "signature", "shift": {"beta": [2.0, 0.0]}, "a": "one"}
    )
    proc = subprocess.run(
        [sys.executable, "-m", "toephankel.cli"],
        input=problem.encode(),
        capture_output=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["sigma"] == 1


def test_symbol_grammar():
    sh = make_shift(2.0)
    assert parse_symbol("chi^-2", sh).distance_to(sh.chi.power(-2)) < 1e-12
    assert parse_symbol("alpha_plus", sh).distance_to(sh.alpha_plus) < 1e-14
    assert parse_symbol(5, sh).distance_to(RationalSymbol.constant(5.0)) == 0.0
    prod = parse_symbol(["chi^-1", "chi^-1"], sh)
    assert prod.distance_to(sh.chi.power(-2)) < 1e-12
    lau = parse_symbol({"laurent": {"lo": -1, "coeffs": [[0.0, 1.732], [0.0, 0.0]]}}, sh)
    assert abs(lau.eval(1.0) - 1.732j) < 1e-12
    rat = parse_symbol(
        {
            "rational": {
                "num": {"lo": 0, "coeffs": [[1.0, 0.0]]},
                "den": {"lo": 0, "coeffs": [[-0.5, 0.0], [1.0, 0.0]]},
            }
        },
        sh,
    )
    assert abs(rat.eval(1.0) - 2.0) < 1e-12
    pc = parse_symbol(
        {"base": "one", "jumps": [{"tau": [1.0, 0.0], "beta": [0.25, 0.0]}]}, sh
    )
    assert len(pc.jumps) == 1
    with pytest.raises(InputError):
        parse_symbol("nope", sh)


def test_emit_json_formats():
    text = emit_json({"x": 0.1, "z": complex(1, -2), "flag": True, "n": 3})
    assert text == '{"x":0.10000000000000001,"z":[1,-2],"flag":true,"n":3}'


def test_malformed_json_exits_one(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text("{not json")
    out = tmp_path / "rep.json"
    code = main(["--spec", str(spec), "--out", str(out)])
    assert code == 1
    assert "error" in json.loads(out.read_text())


def test_spec_not_utf8_exits_one(tmp_path, capsys):
    # a UTF-16 byte-order mark: json.load fails with a UnicodeDecodeError,
    # which must leave a JSON error, not a traceback
    spec = tmp_path / "bad.json"
    spec.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main(["--spec", str(spec)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "InputError"


def test_zero_denominator_exits_one(tmp_path, capsys):
    # RationalSymbol raises ZeroDivisionError on a zero denominator, which
    # main does not catch, so parse_symbol must turn it into an InputError
    zero = {"rational": {"num": {"coeffs": [1]}, "den": {"coeffs": [0]}}}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"command": "analyze", "shift": {"beta": [2.0, 0.0]},
                                "a": zero, "b": 1}))
    assert main(["--spec", str(spec)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "InputError"
    assert captured.err == ""


# the exit code of every error class, written out here rather than read
# from the classes; a class not named exits 1
_EXIT_CODES = {
    "NotFredholm": 2, "NotFredholmPair": 2, "NotMatching": 2, "NotInvertible": 2,
    "DenominatorNearZero": 2, "CrossCheckMismatch": 3, "SignatureIndeterminate": 3,
    "NoSpectralGap": 4, "GridTooSmall": 4, "IllConditionedRoots": 4, "NumericalBreakdown": 4,
}


@pytest.mark.parametrize("cls", [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.ToepHankelError)
], ids=lambda cls: cls.__name__)
def test_every_error_class_leaves_one_json_error(cls, monkeypatch, tmp_path, capsys):
    def failing(problem, opts):
        raise cls("raised by the test")

    monkeypatch.setattr(cli, "run", failing)
    spec = tmp_path / "spec.json"
    spec.write_text("{}")
    assert main(["--spec", str(spec)]) == _EXIT_CODES.get(cls.__name__, 1)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": {"type": cls.__name__,
                                              "message": "raised by the test"}}


_BETA2 = {"beta": [2.0, 0.0]}


@pytest.mark.parametrize("problem, flags", [
    ({"a": {"laurent": {"lo": 1e400, "coeffs": [1]}}}, ()),
    ({"a": {"laurent": {"lo": 1.5, "coeffs": [1]}}}, ()),
    ({"N": 1e400}, ()),
    ({"N": 300.7}, ()),
    ({"N": 4}, ()),
    ({}, ("--oracle-size", "4")),
    ({"a": "chi^99999999999999999999"}, ()),
    ({"p": "x"}, ()),
    ({"p": 0.5}, ()),
    ({"shift": {"beta": [float("nan"), 0.0]}}, ()),
    ({"a": {"base": "one", "jumps": [{"tau": [1.0, 0.0]}]}}, ()),
    ({"a": {"rational": {"num": {"coeffs": [1]}}}}, ()),
    ({"a": {"laurent": {"coeffs": 5}}}, ()),
], ids=["lo-inf", "lo-1.5", "N-inf", "N-300.7", "N-4", "oracle-size-4", "huge-power",
        "p-string", "p-0.5", "beta-nan", "jump-without-beta", "rational-without-den",
        "coeffs-number"])
def test_malformed_spec_exits_one(problem, flags, tmp_path, capsys):
    # the parse step raises every malformed value as an InputError: one JSON
    # line and no traceback, where a bare OverflowError or ValueError once
    # left a traceback or a truncated value went through with exit 0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"command": "verify", "shift": _BETA2, "a": "chi^-2",
                                "b": "chi^-2", "N": 64, **problem}))
    assert main(["--spec", str(spec), *flags]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "InputError"
    assert captured.err == ""


@pytest.mark.parametrize("command, k, n", [
    ("basis", 400, None),      # a factor of the adjoint pair overflows
    ("basis", 1100, None),     # the lead of a o alpha underflows to 0: not a zero symbol
    ("signature", -2000, None),   # the denominator overflows on the circle
    ("signature", 1300, None),    # the matching residual is NaN
    ("signature", -1050, None),   # the matching residual is inf
    ("analyze", -2000, 64),
    ("fredholm", 2000, None),  # chi^2000 overflows on the arc: not "not Fredholm"
    ("verify", -500, 64),      # the section's sketch underflows
    ("verify", 1100, 64),      # the tail of H(b)'s window overflows: not "window too small"
])
def test_float_range_breakdown_exits_four(command, k, n, tmp_path):
    # a valid chi^k whose arithmetic leaves the float range cannot be
    # certified (exit 4); numpy's overflow warnings go to stderr, so the
    # CLI runs in its own process, outside pytest's warnings-as-errors
    problem = {"command": command, "shift": _BETA2, "a": f"chi^{k}", "b": f"chi^{k}"}
    if n is not None:
        problem["N"] = n
    _assert_breakdown_in_own_process(problem)


@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_scaled_identity_section_is_not_read_as_zero(scale):
    # a = b = scale is scale times the identity: a sigma_max estimate that
    # squared it out of the float range read 0.0, so the whole space came
    # out as null space (ker = coker = 32, exit 0); its sketch leaves the
    # float range, so it cannot be certified
    const = {"laurent": {"lo": 0, "coeffs": [[scale, 0.0]]}}
    _assert_breakdown_in_own_process(
        {"command": "verify", "shift": _BETA2, "a": const, "b": const, "N": 64})


def _assert_breakdown_in_own_process(problem):
    proc = subprocess.run([sys.executable, "-m", "toephankel.cli"],
                          input=json.dumps(problem).encode(), capture_output=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "NumericalBreakdown"
    assert b"Traceback" not in proc.stderr


def test_pole_of_order_130_leaves_one_json_object(tmp_path, capsys):
    # the pad of a pole of order 130 once overflowed a float: a traceback,
    # exit 1 and no JSON
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"command": "verify", "shift": {"beta": [2.0, 0.0]},
                                "a": "chi^-130", "b": "chi^-130", "N": 64}))
    code = main(["--spec", str(spec)])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    rep = json.loads(lines[0])
    assert set(rep) == {"error"} if code else "dims" in rep


@pytest.mark.parametrize(
    "argv", [["--bogus"], ["--oracle-size", "abc"], ["--tol", "1e-8"]]
)
def test_usage_error_exits_one(argv, capsys):
    assert main(argv) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["error"]["type"] == "InputError"
    assert argv[0] in rep["error"]["message"]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "--oracle-size" in capsys.readouterr().out


@pytest.mark.parametrize(
    "spec_n, flags, size",
    [(64, ["--oracle-size", "72"], 72), (64, [], 64), (None, [], 256)],
)
def test_oracle_size_precedence(spec_n, flags, size, tmp_path):
    # --oracle-size beats the spec's N, which beats the default 256
    problem = {"command": "verify", "shift": {"beta": [2.0, 0.0]}, "a": "chi^-2", "b": "chi^-2"}
    if spec_n is not None:
        problem["N"] = spec_n
    code, rep, _ = run_cli(problem, *flags, tmp_path=tmp_path)
    assert code == 0
    assert rep["size"] == size


def test_analyze_reports_the_pair_residual(tmp_path):
    from toephankel import check_matching

    problem = {"command": "analyze", "shift": {"beta": [0.0, 2.0]}, "a": "one", "b": "chi^-1"}
    code, rep, _ = run_cli(problem, "--no-oracle", tmp_path=tmp_path)
    assert code == 0
    sh = make_shift(2.0j)
    a, b = parse_symbol("one", sh), parse_symbol("chi^-1", sh)
    assert rep["matching_residual"] == check_matching(a, b, sh)


@pytest.mark.parametrize("command, n", [("verify", 256), ("analyze", 256), ("verify", 512)],
                         ids=["verify", "analyze", "verify-512"])
def test_report_bytes_do_not_depend_on_concurrent_null_spaces(command, n, tmp_path):
    # one BLAS thread on a multi-core host solves the plus and minus
    # sections at once from oracle.CONCURRENT_MIN_SIZE = 512 rows on;
    # unset, or below that size, they are solved in turn
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"command": command, "shift": {"beta": [2.0, 0.0]},
                                "a": "chi^-2", "b": "chi^-2", "N": n}))
    blas = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    outputs = []
    for threads in (None, "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "toephankel.cli", "--spec", str(spec)],
            env=env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["command"] == command

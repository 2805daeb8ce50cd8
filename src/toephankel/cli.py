"""Batch front end: JSON problem in, JSON report out, verdicts as exit codes.

Exit codes: 0 success, 1 malformed input (a malformed command line
included), 2 "not Fredholm" verdicts, 3 internal cross-check mismatches
(analytic pipeline vs oracle), 4 the numerics cannot certify an answer (no
spectral gap in a section, a coefficient window no grid certifies, roots too
ill-conditioned for partial fractions or a winding number, or arithmetic
that left the float range, a threshold gate that read NaN or inf included:
NumericalBreakdown).  Only an error class sets a code
(errors.ToepHankelError.exit_code): a spec that run cannot parse is an
InputError, and any other exception is a fault, left as a traceback.

Reports are deterministic: fixed key order, every float printed with 17
significant digits, complex numbers as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import errors
from .kernels import all_defect_bases, classify_regime, defect_numbers
from .laurent import LaurentPolynomial
from .matching import alpha_signature, make_matching_pair
from .oracle import null_dims, pair_sections
from .pc import JumpFactor, PCSymbol, fredholm_symbol_check, pc_alpha_signature
from .rational import RationalSymbol
from .shift import make_shift

_TOKEN = re.compile(r"^(chi|psi_cap|alpha_plus|alpha_minus|t|one)(\^(-?\d+))?$")


# ---------------------------------------------------------------------------
# deterministic JSON emitter


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return json.dumps(str(x))
    return f"{float(x):.17g}"


def emit_json(obj) -> str:
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_fmt_float(obj.real)},{_fmt_float(obj.imag)}]"
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{emit_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(emit_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# symbol grammar


def _parse_complex(v) -> complex:
    if isinstance(v, list) and len(v) == 2:
        v = complex(float(v[0]), float(v[1]))
    if not isinstance(v, (int, float, complex)) or not np.isfinite(v):
        raise errors.InputError(f"expected a finite number or [re, im], got {v!r}")
    return complex(v)


def _parse_integral(v) -> int:
    if int(v) != v:   # 1.5 or "3"; int() itself raises for inf, NaN and None
        raise errors.InputError(f"expected an integer, got {v!r}")
    return int(v)


def _parse_laurent(obj) -> LaurentPolynomial:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise errors.InputError("laurent spec needs {'lo': int, 'coeffs': [[re, im], ...]}")
    lo = _parse_integral(obj.get("lo", 0))
    coeffs = [_parse_complex(c) for c in obj["coeffs"]]
    if not coeffs:
        raise errors.InputError("empty coefficient list")
    return LaurentPolynomial(lo, coeffs)


def _parse_token(token: str, shift) -> RationalSymbol:
    m = _TOKEN.match(token.strip())
    if not m:
        raise errors.InputError(f"unknown symbol token {token!r}")
    name, _, exp = m.groups()
    k = int(exp) if exp is not None else 1
    base = {
        "chi": shift.chi,
        "psi_cap": shift.psi_cap,
        "alpha_plus": shift.alpha_plus,
        "alpha_minus": shift.alpha_minus,
        "t": RationalSymbol.monomial(1),
        "one": RationalSymbol.constant(1.0),
    }[name]
    return base.power(k)


def parse_symbol(obj, shift):
    """Symbol JSON -> RationalSymbol or PCSymbol.

    Accepts laurent/rational dicts, PC dicts ({'base': ..., 'jumps': [...]}),
    shorthand tokens like "chi^-2", bare numbers, and arrays denoting
    products of any of these.
    """
    if isinstance(obj, str):
        return _parse_token(obj, shift)
    if isinstance(obj, (int, float)):
        return RationalSymbol.constant(_parse_complex(obj))
    if isinstance(obj, list):
        factors = [parse_symbol(x, shift) for x in obj]
        if not factors:
            raise errors.InputError("empty product")
        jumps: list[JumpFactor] = []
        acc = RationalSymbol.constant(1.0)
        for f in factors:
            if isinstance(f, PCSymbol):
                acc = acc * f.base
                jumps.extend(f.jumps)
            else:
                acc = acc * f
        return PCSymbol(acc, tuple(jumps)) if jumps else acc
    if isinstance(obj, dict):
        if "laurent" in obj:
            return RationalSymbol(_parse_laurent(obj["laurent"]))
        if "rational" in obj:
            num = _parse_laurent(obj["rational"]["num"])
            den = _parse_laurent(obj["rational"]["den"])
            if den.is_zero:
                raise errors.InputError("zero denominator")
            return RationalSymbol(num, den)
        if "base" in obj:
            base = parse_symbol(obj["base"], shift)
            if isinstance(base, PCSymbol):
                raise errors.InputError("PC base must be rational")
            jumps = tuple(
                JumpFactor(_parse_complex(j["tau"]), _parse_complex(j["beta"]))
                for j in obj.get("jumps", [])
            )
            return PCSymbol(base, jumps)
    raise errors.InputError(f"unrecognized symbol spec {obj!r}")


# ---------------------------------------------------------------------------
# report fragments


def _window_json(w) -> dict:
    """A coefficient window: a LaurentPolynomial or a TruncatedSeries."""
    return {"lo": w.lo, "coeffs": [[c.real, c.imag] for c in w.coeffs]}


def _rational_json(s: RationalSymbol) -> dict:
    return {"num": _window_json(s.num), "den": _window_json(s.den)}


def _basis_json(basis) -> list:
    out = []
    for f in basis.functions:
        entry = {"tag": f.tag, "series": _window_json(f.series)}
        if f.rational is not None:
            entry["rational"] = _rational_json(f.rational)
        out.append(entry)
    return out


def _bases_json(bases: dict) -> dict:
    return {
        "ker_plus": _basis_json(bases[("ker", "+")]),
        "ker_minus": _basis_json(bases[("ker", "-")]),
        "coker_plus": _basis_json(bases[("coker", "+")]),
        "coker_minus": _basis_json(bases[("coker", "-")]),
    }


# ---------------------------------------------------------------------------
# command handlers; each returns (report_dict, exit_code)


def _require_rational(*symbols):
    for s in symbols:
        if not isinstance(s, RationalSymbol):
            raise errors.InputError(
                "this command needs rational symbols (PC symbols only enter "
                "the fredholm and signature commands)"
            )


def _cmd_analyze(spec, opts):
    shift = spec["shift"]
    a, b = spec["a"], spec["b"]
    _require_rational(a, b)
    pair = make_matching_pair(a, b, shift)
    report = defect_numbers(
        pair, oracle_size=opts["oracle_size"], run_oracle=opts["oracle"]
    )
    out = {
        "command": "analyze",
        "beta": complex(shift.beta),
        "p": spec["p"],
        "matching_residual": pair.matching_residual,
        "kappa": [pair.kappa1, pair.kappa2],
        "sigma": {"c": pair.sigma_c, "d": pair.sigma_d},
        "regime": report.regime.value,
        "dims": {
            "ker_plus": report.dim_ker_plus,
            "coker_plus": report.dim_coker_plus,
            "ker_minus": report.dim_ker_minus,
            "coker_minus": report.dim_coker_minus,
        },
        "index_sum": pair.kappa1 + pair.kappa2,
        "bases": _bases_json(report.bases),
        "warnings": [],
    }
    code = 0
    if report.oracle is not None:
        out["oracle"] = {
            "size": report.oracle["size"],
            "dims": report.oracle["dims"],
            "max_residual": max(report.oracle["residuals"].values()),
            "agreement": report.oracle["agreement"],
        }
        if not report.oracle["agreement"]["all"]:
            out["warnings"].append("oracle disagrees with the analytic pipeline")
            code = 3
    return out, code


def _cmd_basis(spec, opts):
    shift = spec["shift"]
    a, b = spec["a"], spec["b"]
    _require_rational(a, b)
    pair = make_matching_pair(a, b, shift)
    bases = all_defect_bases(pair)
    return {
        "command": "basis",
        "beta": complex(shift.beta),
        "kappa": [pair.kappa1, pair.kappa2],
        "regime": classify_regime(pair.kappa1, pair.kappa2).value,
        "bases": _bases_json(bases),
    }, 0


def _cmd_signature(spec, opts):
    shift = spec["shift"]
    g = spec["a"]
    if isinstance(g, RationalSymbol):
        sigma = alpha_signature(g, shift)
        route = "rational"
    else:
        sigma = pc_alpha_signature(g, spec["p"], shift)
        route = "pc"
    return {
        "command": "signature",
        "beta": complex(shift.beta),
        "p": spec["p"],
        "route": route,
        "sigma": sigma,
    }, 0


def _cmd_fredholm(spec, opts):
    shift = spec["shift"]
    rep = fredholm_symbol_check(spec["a"], spec["b"], spec["p"], shift)
    out = {
        "command": "fredholm",
        "beta": complex(shift.beta),
        "p": spec["p"],
        "report": rep,
    }
    return out, 0 if rep["fredholm"] else 2


def _cmd_verify(spec, opts):
    shift = spec["shift"]
    a, b = spec["a"], spec["b"]
    _require_rational(a, b)
    n = opts["oracle_size"]
    dims = {}
    for sign, (dk, dc) in null_dims(pair_sections((a, b), shift, n), ("+", "-")).items():
        dims[f"ker{sign}"] = dk
        dims[f"coker{sign}"] = dc
    return {
        "command": "verify",
        "beta": complex(shift.beta),
        "size": n,
        "dims": dims,
    }, 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "basis": _cmd_basis,
    "signature": _cmd_signature,
    "fredholm": _cmd_fredholm,
    "verify": _cmd_verify,
}


def run(problem: dict, opts: dict):
    """Dispatch a parsed problem dict; returns (report, exit_code).  A KeyError,
    TypeError, ValueError or OverflowError in parsing it is an InputError."""
    if not isinstance(problem, dict):
        raise errors.InputError("problem spec must be a JSON object")
    command = problem.get("command")
    if command not in _COMMANDS:
        raise errors.InputError(f"unknown command {command!r}")
    try:
        shift_spec = problem.get("shift")
        if not isinstance(shift_spec, dict) or "beta" not in shift_spec:
            raise errors.InputError("spec needs shift: {'beta': [re, im]}")
        shift = make_shift(_parse_complex(shift_spec["beta"]))
        spec = {"shift": shift, "p": float(problem.get("p", 2.0)), "a": None, "b": None}
        if not 1.0 < spec["p"] < np.inf:
            raise errors.InputError(f"p must lie in (1, infinity), got {spec['p']!r}")
        for key in ("a", "b"):
            if key in problem:
                spec[key] = parse_symbol(problem[key], shift)
        if command != "signature" and (spec["a"] is None or spec["b"] is None):
            raise errors.InputError("spec needs both symbols a and b")
        if command == "signature" and spec["a"] is None:
            raise errors.InputError("signature needs the symbol a")
        if opts["oracle_size"] is None:
            opts = {**opts, "oracle_size": _parse_integral(problem.get("N", 256))}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise errors.InputError(str(exc)) from exc
    return _COMMANDS[command](spec, opts)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises InputError on a malformed command line instead of exiting
    with argparse's status 2, which here means "not Fredholm"."""

    def error(self, message):
        raise errors.InputError(message)


def _emit(report: dict, code: int, path) -> int:
    text = emit_json(report) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def _error(exc: Exception, code: int, path) -> int:
    return _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, code, path)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="toephankel",
        description="Kernels, defect numbers and signatures for Toeplitz plus "
        "shift-induced Hankel operators, with a finite-section oracle.",
    )
    parser.add_argument("--spec", default=None, help="problem JSON file (default stdin)")
    parser.add_argument("--out", default=None, help="report file (default stdout)")
    parser.add_argument("--oracle-size", type=int, default=None, help="section size N")
    parser.add_argument("--no-oracle", action="store_true", help="skip oracle checks")
    try:
        args = parser.parse_args(argv)
    except errors.InputError as exc:
        return _error(exc, 1, None)

    opts = {
        "oracle": not args.no_oracle,
        "oracle_size": args.oracle_size,   # None: run() takes the spec's N, else 256
    }
    try:
        if args.spec:
            with open(args.spec) as fh:
                problem = json.load(fh)
        else:
            problem = json.load(sys.stdin)
    except (OSError, ValueError) as exc:   # ValueError: a JSON or a UTF-8 decode error
        return _error(errors.InputError(str(exc)), 1, args.out)

    try:
        report, code = run(problem, opts)
        return _emit(report, code, args.out)
    except errors.ToepHankelError as exc:
        return _error(exc, exc.exit_code, args.out)


if __name__ == "__main__":
    sys.exit(main())

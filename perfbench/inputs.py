"""Seeded benchmark inputs and the answers each one is checked against.

Only `math` is imported at module level: the worker loads this module
before it times the set-up, and a module imported here (json, random, ...)
would be loaded already when the package imports it, hiding its cost from
`setup_s`.  Everything else, the package too, is imported where it is used.

A spec is plain JSON data.  The same seed gives the same specs, byte for
byte, because `random.Random` streams are stable across Python versions
and every float is serialized with `repr` precision by `json`.
"""

from __future__ import annotations

import math

BETAS = ((2.0, 0.0), (0.0, 2.0), (1.5, 0.5))
INDEX_RANGE = range(-3, 4)
RHO_INDEX_RANGE = (-2, 2)


def regime_of(kappa1: int, kappa2: int) -> str:
    """The regime name the package assigns to the index pair."""
    if kappa1 >= 0:
        return "RIGHT_INV" if kappa2 >= 1 else "SPLIT"
    return "LIFTED" if kappa2 >= 1 else "LEFT_INV"


def inputs_digest(specs) -> str:
    """SHA-256 of the specs' canonical JSON."""
    import hashlib
    import json

    data = json.dumps(specs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# exact_sweep: a = h chi^i, b = h chi^j rho


def _point(rng: random.Random, rmin: float, rmax: float) -> list[float]:
    r = rng.uniform(rmin, rmax)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return [r * math.cos(phi), r * math.sin(phi)]


def _root(rng: random.Random, inside: bool) -> list[float]:
    # roots stay well away from the circle: 0.2..0.7 inside, 1.4..2.8 outside
    return _point(rng, 0.2, 0.7) if inside else _point(rng, 1.4, 2.8)


def exact_shape(design: random.Random, beta) -> dict:
    """The discrete choices of one pair: which side of the circle each root
    of h lies on, and whether rho is 1 or of which degree, index and sign."""
    shape = {
        "beta": list(beta),
        "h_zeros": [design.random() < 0.5 for _ in range(design.randint(0, 2))],
        "h_poles": [design.random() < 0.5 for _ in range(design.randint(0, 2))],
        "rho": None,
    }
    if design.random() >= 0.25:
        shape["rho"] = (design.randint(0, 2), design.randint(*RHO_INDEX_RANGE),
                        design.choice((1, -1)))
    return shape


def exact_spec(rng: random.Random, i: int, j: int, shape: dict) -> dict:
    """One pair: h invertible of degree <= 2, rho matching or the constant 1."""
    h = {
        "lead": _point(rng, 0.5, 2.0),
        "zeros": [_root(rng, inside) for inside in shape["h_zeros"]],
        "poles": [_root(rng, inside) for inside in shape["h_poles"]],
    }
    rho = None
    if shape["rho"] is not None:
        degree, n, sigma = shape["rho"]
        rho = {
            "lead": _point(rng, 0.5, 2.0),
            "zeros": [_root(rng, False) for _ in range(degree)],
            "n": n,
            "sigma": sigma,
        }
    return {"beta": shape["beta"], "i": i, "j": j, "h": h, "rho": rho}


def exact_block(rng: random.Random, index: int) -> list[dict]:
    """Block `index`: every (i, j) in [-3, 3]^2 once, in an order drawn from
    `rng` (the run's seed).

    The pairs themselves (beta, roots, leading coefficients, rho) come from
    a stream fixed by the block index alone, so block k holds the same 49
    pairs under every seed.  The program's answer to a pair, a failure
    included, is a function of the pair, so a run of a given number of
    blocks attempts and fails the same problems whatever the seed, and two
    sets of runs of the same code report the same failure counts.  The seed
    sets the order in which the pairs are solved."""
    import random

    design = random.Random(f"exact_sweep block {index}")
    combos = [(i, j) for i in INDEX_RANGE for j in INDEX_RANGE]
    shaped = [
        (i, j, exact_shape(design, BETAS[(k + index) % len(BETAS)]))
        for k, (i, j) in enumerate(combos)
    ]
    specs = [exact_spec(design, i, j, shape) for i, j, shape in shaped]
    rng.shuffle(specs)
    return specs


def expected_exact(spec: dict) -> dict:
    """Indices, signature of c and regime fixed by the construction.

    c = a/b = chi^(i-j) / rho has index j - i - n and the signature of rho;
    d = b/(a o alpha) = (h / h o alpha) chi^(i+j) rho has index
    n - i - j - 2 w(h), because alpha reverses orientation on the circle.
    """
    rho = spec["rho"]
    n, sigma = (0, 1) if rho is None else (rho["n"], rho["sigma"])
    h = spec["h"]
    w_h = sum(math.hypot(*z) < 1.0 for z in h["zeros"]) - sum(
        math.hypot(*p) < 1.0 for p in h["poles"]
    )
    kappa1 = spec["j"] - spec["i"] - n
    kappa2 = n - spec["i"] - spec["j"] - 2 * w_h
    return {
        "kappa1": kappa1,
        "kappa2": kappa2,
        "sigma_c": sigma,
        "regime": regime_of(kappa1, kappa2),
    }


def build_pair(spec: dict, shifts: dict):
    """(a, b, shift) for a spec; shifts maps beta tuples to ShiftParams."""
    from toephankel import LaurentPolynomial, RationalSymbol, generate_matching_function

    def cplx(z):
        return complex(z[0], z[1])

    shift = shifts[tuple(spec["beta"])]
    h = spec["h"]
    hsym = RationalSymbol(
        LaurentPolynomial.from_roots([cplx(z) for z in h["zeros"]], cplx(h["lead"])),
        LaurentPolynomial.from_roots([cplx(p) for p in h["poles"]], 1.0),
    )
    a = hsym * shift.chi.power(spec["i"])
    b = hsym * shift.chi.power(spec["j"])
    rho = spec["rho"]
    if rho is not None:
        g_plus = RationalSymbol(
            LaurentPolynomial.from_roots([cplx(z) for z in rho["zeros"]], cplx(rho["lead"]))
        )
        b = b * generate_matching_function(g_plus, rho["n"], rho["sigma"], shift)
    return a, b, shift


# ---------------------------------------------------------------------------
# oracle_large: fixed pairs, one per regime, covering the three betas

ORACLE_SIZE = 1024
ORACLE_PAIRS = (
    {
        "beta": [2.0, 0.0], "i": -1, "j": -1,
        "h": {"lead": [1.0, 0.5], "zeros": [[1.6, 0.8]], "poles": [[-0.4, 0.3]]},
        "rho": None,
    },
    {
        "beta": [0.0, 2.0], "i": -1, "j": 1,
        "h": {"lead": [0.8, 0.0], "zeros": [[0.3, -0.2]], "poles": []},
        "rho": {"lead": [1.2, -0.3], "zeros": [[-1.8, 0.9]], "n": 1, "sigma": -1},
    },
    {
        "beta": [1.5, 0.5], "i": 0, "j": -1,
        "h": {"lead": [1.0, 0.0], "zeros": [], "poles": [[2.1, -0.7]]},
        "rho": None,
    },
    {
        "beta": [2.0, 0.0], "i": 1, "j": 0,
        "h": {"lead": [0.7, 0.7], "zeros": [[0.2, 1.9]], "poles": []},
        "rho": {"lead": [1.0, 0.0], "zeros": [[1.5, -1.0]], "n": 0, "sigma": -1},
    },
)
# Defect numbers (ker+, coker+, ker-, coker-) of the pairs above; the oracle
# must find the same.
ORACLE_DIMS = ((2, 0, 2, 0), (1, 1, 0, 0), (0, 0, 0, 0), (0, 1, 0, 1))


def oracle_order(rng: random.Random) -> list[int]:
    """One pass over the fixed pairs in a seeded order."""
    order = list(range(len(ORACLE_PAIRS)))
    rng.shuffle(order)
    return order


# ---------------------------------------------------------------------------
# cli_mixed: a golden table of requests, drawn in seeded rounds

_B2 = {"beta": [2.0, 0.0]}
_B2J = {"beta": [0.0, 2.0]}
_PC_JUMP = {"base": "one", "jumps": [{"tau": [0.0, 1.0], "beta": [0.5, 0.0]}]}
_PC_SOFT = {"base": "one", "jumps": [{"tau": [0.0, 1.0], "beta": [0.25, 0.0]}]}

# Each entry: (request spec, expected exit code, expected fields).  Fields
# are dotted paths into the report; "len:" compares the length of a list.
CLI_TABLE = {
    "analyze": (
        ({"command": "analyze", "shift": _B2, "a": "chi^-2", "b": "chi^-2", "N": 256}, 0,
         {"kappa": [0, 4], "regime": "RIGHT_INV",
          "dims": {"ker_plus": 2, "coker_plus": 0, "ker_minus": 2, "coker_minus": 0},
          "sigma": {"c": 1, "d": 1}, "oracle.agreement.all": True}),
        ({"command": "analyze", "shift": _B2J, "a": "one", "b": "chi^-1", "N": 256}, 0,
         {"kappa": [-1, 1], "regime": "LIFTED",
          "dims": {"ker_plus": 0, "coker_plus": 0, "ker_minus": 0, "coker_minus": 0},
          "oracle.agreement.all": True}),
    ),
    "verify": (
        ({"command": "verify", "shift": _B2, "a": "chi^-2", "b": "chi^-2", "N": 256}, 0,
         {"dims": {"ker+": 2, "coker+": 0, "ker-": 2, "coker-": 0}}),
        ({"command": "verify", "shift": _B2J, "a": "chi", "b": "one", "N": 256}, 0,
         {"dims": {"ker+": 0, "coker+": 1, "ker-": 0, "coker-": 1}}),
    ),
    "basis": (
        ({"command": "basis", "shift": _B2, "a": "chi^-2", "b": "chi^-2"}, 0,
         {"kappa": [0, 4], "regime": "RIGHT_INV", "len:bases.ker_plus": 2,
          "len:bases.ker_minus": 2, "len:bases.coker_plus": 0, "len:bases.coker_minus": 0}),
        ({"command": "basis", "shift": _B2J, "a": "chi^-1", "b": "chi"}, 0,
         {"kappa": [2, 0], "regime": "SPLIT", "len:bases.ker_plus": 1,
          "len:bases.ker_minus": 1, "len:bases.coker_plus": 0, "len:bases.coker_minus": 0}),
    ),
    "signature": (
        ({"command": "signature", "shift": _B2, "a": ["chi^-1", "chi^-1", "chi^-2"]}, 0,
         {"route": "rational", "sigma": 1}),
        ({"command": "signature", "shift": _B2, "a": {"base": ["chi^-2", -1], "jumps": []}}, 0,
         {"route": "pc", "sigma": -1}),
    ),
    "fredholm": (
        ({"command": "fredholm", "shift": _B2, "a": _PC_JUMP, "b": 0, "p": 2.0}, 2,
         {"report.fredholm": False}),
        ({"command": "fredholm", "shift": _B2, "a": _PC_SOFT, "b": "chi^-1", "p": 2.0}, 0,
         {"report.fredholm": True}),
    ),
}
CLI_BETAS = ((2.0, 0.0), (0.0, 2.0))


def cli_rounds(rng: random.Random):
    """Rounds of one request per command, in a seeded order.

    Each command steps through its variants from a seeded offset, so any
    run of whole rounds holds every variant equally often, within one."""
    offsets = {cmd: rng.randrange(len(rows)) for cmd, rows in CLI_TABLE.items()}
    r = 0
    while True:
        picks = [(cmd, (r + offsets[cmd]) % len(rows)) for cmd, rows in CLI_TABLE.items()]
        rng.shuffle(picks)
        yield picks
        r += 1


def _field(report, path: str):
    node = report
    for key in path.split("."):
        node = node[key]
    return node


def cli_mismatches(report: dict, expected: dict) -> list[str]:
    """Names of the expected fields the report gets wrong or lacks."""
    wrong = []
    for path, want in expected.items():
        try:
            if path.startswith("len:"):
                got = len(_field(report, path[4:]))
            else:
                got = _field(report, path)
        except (KeyError, TypeError):
            wrong.append(path)
            continue
        if got != want:
            wrong.append(path)
    return wrong

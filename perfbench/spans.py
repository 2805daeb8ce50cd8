"""Spans recorded from outside the package, around the calls into each layer.

`Recorder.install` wraps the functions and methods named in `TARGETS`.
Modules import each other's functions by name, so every attribute of every
loaded `toephankel` module that refers to a target is rebound to its
wrapper; methods are replaced on their class.  Spans are kept in memory
only while a problem id is set, and are reduced to per-layer self times
and call counts at the end of the run.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter_ns

# (span name, module, attribute path); the span name is also the prefix of
# the per-layer metrics it feeds.
TARGETS = (
    ("laurent.roots", "toephankel.laurent", "LaurentPolynomial.roots"),
    ("rational.ctor", "toephankel.rational", "RationalSymbol.__post_init__"),
    ("rational.pf", "toephankel.rational", "RationalSymbol.partial_fractions"),
    ("rational.coeff", "toephankel.rational", "RationalSymbol.coefficients"),
    ("rational.split", "toephankel.rational", "RationalSymbol.split_analytic"),
    ("rational.add", "toephankel.rational", "RationalSymbol.__add__"),
    ("shift.compose", "toephankel.shift", "compose_with_shift"),
    ("wiener_hopf.factorize", "toephankel.wiener_hopf", "factorize"),
    ("matching.pair", "toephankel.matching", "make_matching_pair"),
    ("matching.signature", "toephankel.matching", "alpha_signature"),
    ("matching.check", "toephankel.matching", "check_matching"),
    ("kernels.bases", "toephankel.kernels", "all_defect_bases"),
    ("kernels.split", "toephankel.kernels", "toeplitz_kernel_split"),
    ("kernels.phi", "toephankel.kernels", "phi_pm"),
    ("oracle.hankel", "toephankel.oracle", "_hankel_entries"),
    ("oracle.toeplitz", "toephankel.oracle", "_toeplitz_entries"),
    ("series.fourier", "toephankel.series", "fourier_coefficients"),
    ("oracle.svd", "toephankel.oracle", "numerical_null_space"),
    ("oracle.localize", "toephankel.oracle", "localized_null_dims"),
    ("oracle.residual", "toephankel.oracle", "residual_check"),
    ("cli.parse", "toephankel.cli", "parse_symbol"),
    ("cli.run", "toephankel.cli", "run"),
    ("cli.emit", "toephankel.cli", "emit_json"),
    ("pc.fredholm", "toephankel.pc", "fredholm_symbol_check"),
    ("pc.signature", "toephankel.pc", "pc_alpha_signature"),
)
# Prefix of the stderr line on which a traced CLI request reports its spans.
TRACE_MARK = "PERFBENCH-SPANS "
COUNTED = (
    "laurent.roots", "rational.ctor", "rational.pf", "shift.compose",
    "wiener_hopf.factorize", "oracle.hankel", "oracle.svd",
)


class Recorder:
    """In-memory spans: [name, start_ns, end_ns, parent index, problem id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.problem = None
        self.hankel_keys: dict = defaultdict(set)
        self.hankel_calls: dict = defaultdict(int)
        self.section_bytes: dict = defaultdict(int)
        # summaries reported by traced child processes (cli_mixed requests)
        self.children: list[dict] = []

    def install(self) -> None:
        hooks = {"oracle.hankel": self._on_hankel, "oracle.toeplitz": self._on_section}
        for name, module_name, path in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:  # cli is only loaded by the cli_mixed requests
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            setattr(owner, attr, wrapper)
            if owner_name:
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "toephankel" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, fn, hook):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec.stack
            # direct recursion (emit_json, parse_symbol) stays one span
            if rec.problem is None or (stack and rec.spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            span = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, rec.problem]
            stack.append(len(rec.spans))
            rec.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(args, out)
            return out

        return traced

    def _on_hankel(self, args, out) -> None:
        b, shift, n = args[:3]
        key = (b.num.lo, b.num.coeffs.tobytes(), b.den.lo, b.den.coeffs.tobytes(),
               complex(shift.beta), int(n))
        self.hankel_keys[self.problem].add(key)
        self.hankel_calls[self.problem] += 1
        self._on_section(args, out)

    def _on_section(self, args, out) -> None:
        self.section_bytes[self.problem] += out[0].nbytes

    def summary(self, pids) -> list[dict]:
        """For each problem id: self time (ns) and calls of every span name,
        plus distinct Hankel keys, Hankel calls and section bytes."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per_problem = {
            pid: {"self_ns": {}, "calls": {}, "hankel_distinct": len(self.hankel_keys[pid]),
                  "hankel_calls": self.hankel_calls[pid],
                  "section_bytes": self.section_bytes[pid]}
            for pid in pids
        }
        for (name, start, end, _, pid), inner in zip(self.spans, child_ns):
            entry = per_problem[pid]
            entry["self_ns"][name] = entry["self_ns"].get(name, 0) + (end - start - inner)
            entry["calls"][name] = entry["calls"].get(name, 0) + 1
        return [per_problem[pid] for pid in pids]


def per_layer_metrics(problems: list[dict], factors: list[float], count_prefix: int,
                      import_s=None) -> dict:
    """Per-layer metrics from per-problem summaries.

    Times are self time in ms per problem over every timed problem, each
    problem's spans scaled by its host calibration factor (clock.py); counts
    are exact totals over the first `count_prefix` problems, which every run
    of a seed completes, so they repeat run to run."""
    total = max(len(problems), 1)
    out = {}
    for name, _, _ in TARGETS:
        ns = sum(p["self_ns"].get(name, 0) * f for p, f in zip(problems, factors))
        out[f"{name}_ms"] = (ns / 1e6 / total, "ms")
        if name in COUNTED:
            calls = sum(p["calls"].get(name, 0) for p in problems[:count_prefix])
            out[f"{name}_calls"] = (calls, "count")
    calls = sum(p["hankel_calls"] for p in problems)
    distinct = sum(p["hankel_distinct"] for p in problems)
    out["oracle.hankel_reuse_ratio"] = (distinct / calls if calls else 0.0, "ratio")
    out["oracle.section_mb"] = (sum(p["section_bytes"] for p in problems) / 1e6 / total, "MB")
    imports = [s * f for s, f in zip(import_s or (), factors)]
    out["cli.import_s"] = (sum(imports) / len(imports) if imports else 0.0, "s")
    return out

"""The block operator, the transfer maps, and the numerical oracle.

ker of the 2x2 block operator [[0, T(d)], [-T(c), T(a_alpha^-1)]] and
ker diag(T(a)+H(b), T(a)-H(b)) are isomorphic through a concrete pair of
mutually inverse maps.  Here we compute the block kernel numerically with
the oracle, push every null vector through the maps, and confirm the round trip
at working precision (its error is printed against a bound, as its last
digits follow the BLAS thread count); then we dump a finite section to the
binary format and read it back.

Run:  python demos/04_transfer_maps_and_oracle.py
"""

import tempfile

import numpy as np

from toephankel import (
    TruncatedSeries,
    dump_section,
    load_section,
    make_matching_pair,
    make_shift,
    numerical_null_space,
    operator_section,
    transfer_U,
)

ROUND_TRIP_TOL = 1e-13   # 3.4e-15 at most was measured, with one BLAS thread or several
sh = make_shift(2.0)
pair = make_matching_pair(sh.chi.power(-2), sh.chi.power(-2), sh)
n = 128

blk = operator_section("block", pair, sh, n)
ns = numerical_null_space(blk)
print(f"block section 2N = {blk.size}, null dimension {ns.dim}")

print("\nround trips through U1 and U2:")
for i in range(ns.dim):
    vec = ns.right[:, i]
    f = TruncatedSeries.from_vector(vec[:n]).trim(1e-11)
    g = TruncatedSeries.from_vector(vec[n:]).trim(1e-11)
    F, G = transfer_U(pair, sh, "U1", (f, g))
    f2, g2 = transfer_U(pair, sh, "U2", (F, G))
    err = max((f2 - f).norm(), (g2 - g).norm())
    print(f"  null vector {i}: |U2(U1 v) - v| < {ROUND_TRIP_TOL:.0e}: {err < ROUND_TRIP_TOL}")

print("\nthe concrete image of (0, 1):")
F, G = transfer_U(pair, sh, "U1", (TruncatedSeries.zero(), TruncatedSeries.basis(0)))
print("  first component  coefficients:", np.round(F.coeffs, 6))
print("  second component coefficients:", np.round(G.coeffs, 6))
print("  (these are +chi/2 and -chi/2)")

print("\nsection dump round trip:")
sec = operator_section("plus", pair, sh, 64)
with tempfile.NamedTemporaryFile(suffix=".bin") as fh:
    dump_section(sec, fh.name)
    loaded = load_section(fh.name)
    print("  max entry difference after reload:",
          f"{np.max(np.abs(loaded.entries - sec.entries)):.2e}")

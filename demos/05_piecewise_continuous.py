"""Piecewise continuous symbols: Fredholm criterion and signatures.

Jumps make the story two-dimensional: Fredholmness of T(a) + H(b) is
decided by a 2x2 matrix field over (arc point, real line) plus a scalar
condition at the two fixed points of the shift.  The signature of a
matching PC symbol is computed by peeling off a shift-compatible jump
factor psi at the fixed point and reading the sign of what remains.

Run:  python demos/05_piecewise_continuous.py
"""

import numpy as np

from toephankel import (
    JumpFactor,
    PCSymbol,
    PsiFactor,
    RationalSymbol,
    fredholm_symbol_check,
    make_shift,
    nu_h,
    one_sided_limits,
    pc_alpha_signature,
)
from toephankel.pc import pc_toeplitz_entries

sh = make_shift(2.0)
one = RationalSymbol.constant(1.0)
zero = RationalSymbol.constant(0.0)

print("=== the nu / h arcs ===")
for y in (-np.inf, -1.0, 0.0, 1.0, np.inf):
    nu, h = nu_h(y, 2.0)
    print(f"  y = {y:>5}: nu = {nu:.4f},  h = {h:.4f}")

print("\n=== Fredholm verdicts at p = 2 ===")
cases = [
    ("T(1) + H(0)", one, zero),
    ("T(1) + H(chi^-1)", one, sh.chi.invert()),
    ("jump with Re beta = 1/2 (boundary)",
     PCSymbol(one, (JumpFactor(np.exp(2.1j), 0.5),)), zero),
    ("same jump, Re beta = 0.3",
     PCSymbol(one, (JumpFactor(np.exp(2.1j), 0.3),)), zero),
]
for name, a, b in cases:
    rep = fredholm_symbol_check(a, b, 2.0, sh, n_t=128, n_y=81)
    print(f"  {name}: fredholm = {rep['fredholm']}"
          f"  (min |det| = {rep['min_abs_det']:.2e},"
          f" min |scalar| = {rep['min_abs_scalar']:.2e})")

print("\n=== psi factors at the fixed point ===")
beta = 0.3
psi = PsiFactor("t_plus", beta, sh)
left, right = one_sided_limits(psi, sh.t_plus)
print(f"  limits at t+: {left:.4f} / {right:.4f}"
      f"  (exp(+i pi beta) = {np.exp(1j*np.pi*beta):.4f})")
t = sh.circle_grid(2048)
from toephankel import eval_alpha

keep = np.abs(t - sh.t_plus) > 1e-3
match = psi.eval(t[keep]) * psi.eval(eval_alpha(sh, t[keep]))
print("  psi * (psi o alpha) = 1 residual:", f"{np.max(np.abs(match - 1)):.2e}")

for n in (64, 128, 256):
    entries, err = pc_toeplitz_entries(psi, sh, n)
    sv = np.linalg.svd(entries, compute_uv=False)[-1]
    print(f"  T(psi) section N = {n}: smallest singular value {sv:.4f}")

print("\n=== signatures through the PC route ===")
for g, name in (
    (psi, "psi(beta = 0.3)"),
    (PsiFactor("t_plus", beta, sh, scale=-1.0), "-psi"),
    (sh.chi.invert(), "chi^-1 (rational, same answer as the exact route)"),
):
    print(f"  sigma({name}) = {pc_alpha_signature(g, 2.0, sh):+d}")

"""Defect numbers of T(a) + H(b) and T(a) - H(b) over matching pairs.

For a matching pair (a, b) the subordinated functions c = a/b and
d = b/(a o alpha) have Toeplitz indices (kappa1, kappa2), and the index
quadrant decides everything:

  kappa1 >= 0, kappa2 >= 1   both operators onto, explicit kernels
  kappa1 <= -1, kappa2 <= 0  both injective, explicit cokernels
  kappa1 >= 0, kappa2 <= 0   kernel from c, cokernel from the adjoint
  kappa1 <= -1, kappa2 >= 1  lifted: multiply by chi powers, intersect
                             with the image of T(chi^n), divide back

Every report is cross-checked against null spaces of finite sections
and residuals of the produced basis functions.

Run:  python demos/03_defect_numbers.py
"""

from toephankel import RationalSymbol, defect_numbers, make_matching_pair, make_shift

sh = make_shift(2.0)
chi = sh.chi
one = RationalSymbol.constant(1.0)

cases = [
    ("(chi^-2, chi^-2)", chi.power(-2), chi.power(-2)),
    ("(1, chi^-1)", one, chi.invert()),
    ("(1, chi)", one, chi),
    ("(chi^2, chi^-2)", chi.power(2), chi.power(-2)),
    ("(chi^-1, chi^-2)", chi.invert(), chi.power(-2)),
    ("(1, 1)", one, one),
]

for name, a, b in cases:
    pair = make_matching_pair(a, b, sh)
    rep = defect_numbers(pair, oracle_size=256)
    dims = (rep.dim_ker_plus, rep.dim_coker_plus,
            rep.dim_ker_minus, rep.dim_coker_minus)
    print(f"\npair {name}")
    print(f"  indices (kappa1, kappa2) = ({pair.kappa1}, {pair.kappa2})"
          f"  regime = {rep.regime.value}")
    print(f"  (ker+, coker+, ker-, coker-) = {dims}")
    print(f"  oracle agreement: {rep.oracle['agreement']['all']}"
          f"  (worst basis residual {max(rep.oracle['residuals'].values()):.1e})")
    for (kind, sign), basis in rep.bases.items():
        for f in basis.functions:
            window = f"[{f.series.lo}..{f.series.hi}]"
            print(f"    {kind}{sign} {f.tag:12s} support {window}")

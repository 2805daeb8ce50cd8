"""Matching pairs, subordinated pairs and the factorization signature.

A pair (a, b) is matching for the shift when a * (a o alpha) equals
b * (b o alpha) on the circle.  The subordinated functions c = a/b and
d = b/(a o alpha) then satisfy c (c o alpha) = 1 = d (d o alpha), and the
indices of their Toeplitz operators control the whole kernel structure.

make_matching_pair is the one place that checks and derives a pair: one
matching check (on shift.circle_grid(), like every residual here), one
composition a o alpha, inverted once; consumers read the MatchingPair.

The signature of a matching function g is the sign in the representation
g = sigma * g_plus * chi^(-n) * (g_plus^-1 o alpha).  It is computed here
along two independent routes: the normalization constant of the
Wiener-Hopf factorization, (lam/conj(beta))^n / g_plus(1/conj(beta)),
and the values at the fixed points (g(t_plus), respectively
g(t_minus) (-1)^n).  Disagreement between routes is a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BadPlusFactor,
    CrossCheckMismatch,
    NotFredholm,
    NotInvertible,
    NotMatching,
    SignatureIndeterminate,
    below,
)
from .rational import RationalSymbol
from .shift import ShiftParams, chi_power, compose_with_shift, eval_alpha
from .wiener_hopf import factorize

MATCH_TOL = 1e-8
SNAP_TOL = 1e-6
_ONE = RationalSymbol.constant(1.0)


@dataclass(frozen=True)
class MatchingPair:
    """A matching pair with its subordinated data, tied to one shift."""

    a: RationalSymbol
    b: RationalSymbol
    c: RationalSymbol
    d: RationalSymbol
    kappa1: int
    kappa2: int
    sigma_c: Optional[int]
    sigma_d: Optional[int]
    shift: ShiftParams
    a_alpha_inv: RationalSymbol
    matching_residual: float   # check_matching(a, b, shift), below MATCH_TOL

    @property
    def is_fredholm(self) -> bool:
        return self.sigma_c is not None and self.sigma_d is not None


def _residual(g, h, shift: ShiftParams, t: np.ndarray) -> float:
    """sup over the points t of |g (g o alpha) - h (h o alpha)|; g and h are
    rational or PC symbols."""
    at = eval_alpha(shift, t)
    return float(np.max(np.abs(g.eval(t) * g.eval(at) - h.eval(t) * h.eval(at))))


def check_matching(a: RationalSymbol, b: RationalSymbol, shift: ShiftParams) -> float:
    """sup over a circle grid of |a a_alpha - b b_alpha|."""
    for name, s in (("a", a), ("b", b)):
        _, _, on_circle, _ = s.circle_factors()
        if s.is_zero or not on_circle.is_constant:
            raise NotInvertible(f"{name} vanishes on the circle")
    return _residual(a, b, shift, shift.circle_grid())


def _subordinate(a, b, shift: ShiftParams):
    """(residual, c, d, kappa1, kappa2, a_alpha^-1) from one matching
    check and one composition of a with the shift."""
    residual = check_matching(a, b, shift)
    below(residual, MATCH_TOL, NotMatching, "matching residual")
    a_alpha_inv = compose_with_shift(a, shift).invert()
    c = a * b.invert()
    d = b * a_alpha_inv
    return residual, c, d, -c.winding_number(), -d.winding_number(), a_alpha_inv


def subordinated_pair(a, b, shift: ShiftParams):
    """(c, d, kappa1, kappa2) with c = a/b, d = b / (a o alpha)."""
    return _subordinate(a, b, shift)[1:5]


def make_matching_pair(a, b, shift: ShiftParams) -> MatchingPair:
    """Build a MatchingPair, verifying the cross identities of (c, d)."""
    residual, c, d, k1, k2, a_alpha_inv = _subordinate(a, b, shift)
    b_alpha = compose_with_shift(b, shift)
    cross_c = b_alpha * a_alpha_inv
    cross_d = b_alpha.invert() * a
    scale = max(1.0, a.sup_norm_on_circle(64), b.sup_norm_on_circle(64))
    for left, right in ((c, cross_c), (d, cross_d)):
        below(left.distance_to(right), 1e-10 * scale * max(1.0, left.sup_norm_on_circle(64)),
              NotMatching, "cross identity distance of the subordinated pair")
    try:
        sc = alpha_signature(c, shift)
        sd = alpha_signature(d, shift)
    except NotFredholm:
        sc = sd = None
    return MatchingPair(
        a=a, b=b, c=c, d=d, kappa1=k1, kappa2=k2, sigma_c=sc, sigma_d=sd,
        shift=shift, a_alpha_inv=a_alpha_inv, matching_residual=residual,
    )


def _snap_sign(value: complex, label: str) -> int:
    if abs(value - 1.0) < SNAP_TOL:
        return 1
    if abs(value + 1.0) < SNAP_TOL:
        return -1
    raise SignatureIndeterminate(f"{label} = {value:.8g} not within {SNAP_TOL} of +-1")


def alpha_signature(g: RationalSymbol, shift: ShiftParams) -> int:
    """Sign of the matching representation of g, cross-checked two ways.

    Route one evaluates (lam/conj(beta))^n / g_plus(1/conj(beta)) on the
    factorization; route two reads g at the fixed points (with the (-1)^n
    twist at t_minus).  Rational symbols are continuous at both fixed
    points, so all three numbers must agree.
    """
    below(_residual(g, _ONE, shift, shift.circle_grid()), MATCH_TOL, NotMatching,
          "g g_alpha - 1 residual")
    fac = factorize(g)
    n = fac.kappa
    bc = np.conj(shift.beta)
    xi = (shift.lam / bc) ** n / fac.g_plus.eval(1.0 / bc)
    sig = _snap_sign(xi, "factorization signature")
    v_plus = _snap_sign(g.eval(shift.t_plus), "value at t_plus")
    v_minus = _snap_sign(g.eval(shift.t_minus) * (-1.0) ** n, "twisted value at t_minus")
    if not (sig == v_plus == v_minus):
        raise CrossCheckMismatch(
            f"signature routes disagree: factorization {sig}, "
            f"t_plus {v_plus}, t_minus {v_minus}"
        )
    return sig


def generate_matching_function(
    g_plus: RationalSymbol, n: int, sigma: int, shift: ShiftParams
) -> RationalSymbol:
    """sigma * g_plus * chi^(-n) * (g_plus^-1 o alpha).

    The result is a matching function with Toeplitz index n and signature
    sigma, provided g_plus and its inverse are analytic in the closed disk.
    """
    if sigma not in (1, -1):
        raise ValueError("sigma must be +1 or -1")
    winding, inside, on, _ = g_plus.circle_factors()
    if winding or not (inside.is_constant and on.is_constant):
        raise BadPlusFactor("g_plus has a zero, pole or monomial factor in the closed disk")
    inv_composed = compose_with_shift(g_plus.invert(), shift)
    return float(sigma) * g_plus * chi_power(shift, -n) * inv_composed


def generate_matching_pair(
    a: RationalSymbol, rho: RationalSymbol, shift: ShiftParams
) -> MatchingPair:
    """Pair (a, a_alpha * rho) for any invertible a and matching rho."""
    below(_residual(rho, _ONE, shift, shift.circle_grid()), MATCH_TOL, NotMatching,
          "rho's matching residual")
    b = compose_with_shift(a, shift) * rho
    return make_matching_pair(a, b, shift)


def adjoint_pair(pair: MatchingPair) -> MatchingPair:
    """The pair generating the adjoint operators: (conj(a), conj(b) o alpha).

    Its subordinated pair is (conj(d), conj(c)) and the indices negate and
    swap; both facts are verified here.
    """
    shift = pair.shift
    a_adj = pair.a.conjugate_bar()
    b_adj = compose_with_shift(pair.b.conjugate_bar(), shift)
    out = make_matching_pair(a_adj, b_adj, shift)
    d_bar = pair.d.conjugate_bar()
    c_bar = pair.c.conjugate_bar()
    scale = max(1.0, d_bar.sup_norm_on_circle(64), c_bar.sup_norm_on_circle(64))
    for got, want in ((out.c, d_bar), (out.d, c_bar)):
        below(got.distance_to(want), 1e-10 * scale, CrossCheckMismatch,
              "adjoint subordinated pair distance")
    if (out.kappa1, out.kappa2) != (-pair.kappa2, -pair.kappa1):
        raise CrossCheckMismatch("adjoint indices are not the negated swap")
    return out

"""Wiener-Hopf factorization of rational symbols.

An admissible symbol g with no zeros on the circle splits as

    g = g_minus * t^(-kappa) * g_plus,      g_minus(infinity) = 1,

where g_plus collects the zeros/poles outside the closed disk, g_minus the
ones inside, and kappa is minus the winding number, i.e. the index of the
Toeplitz operator with symbol g.  The normalization constant is carried by
g_plus, which is what the signature formula reads off.

The factorization yields explicit one-sided inverses of the Toeplitz
operator: with g0 = g_minus g_plus one has T(g0)^-1 = g_plus^-1 P g_minus^-1,
and multiplying by the monomial that cancels t^(-kappa) gives a right
inverse for kappa >= 0 and a left inverse for kappa <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import NotFredholm, WrongSide
from .rational import RationalSymbol
from .series import TruncatedSeries, multiply_by_symbol


@dataclass(frozen=True)
class WHFactorization:
    """g = g_minus * t^(-kappa) * g_plus with kappa the Toeplitz index."""

    kappa: int
    g_plus: RationalSymbol
    g_minus: RationalSymbol

    def reconstruct(self) -> RationalSymbol:
        return self.g_minus * RationalSymbol.monomial(-self.kappa) * self.g_plus


def factorize(g: RationalSymbol) -> WHFactorization:
    """Partition the roots by the circle; raises NotFredholm on circle roots."""
    if g.is_zero:
        raise NotFredholm("zero symbol")
    winding, inside, on, outside = g.circle_factors()
    if not on.is_constant:
        raise NotFredholm("zero or pole inside the circle annulus")
    return WHFactorization(kappa=-winding, g_plus=outside, g_minus=inside)


def eval_gplus_inverse_at(fac: WHFactorization, z: complex) -> complex:
    """1/g_plus at a point of the open disk (g_plus has no roots there)."""
    if abs(z) >= 1.0:
        raise ValueError("point must lie inside the open disk")
    return 1.0 / fac.g_plus.eval(z)


def apply_one_sided_inverse(
    fac: WHFactorization,
    h: Union[TruncatedSeries, RationalSymbol],
    side: str,
):
    """Apply the explicit one-sided inverse of T(g) to an analytic input.

    side='right' needs kappa >= 0, side='left' needs kappa <= 0,
    side='two_sided' needs kappa = 0.  Rational inputs stay exact; series
    inputs go through windowed coefficient convolutions.
    """
    kappa = fac.kappa
    if side == "right" and kappa < 0:
        raise WrongSide("right inverse requires index >= 0")
    if side == "left" and kappa > 0:
        raise WrongSide("left inverse requires index <= 0")
    if side == "two_sided" and kappa != 0:
        raise WrongSide("two-sided inverse requires index 0")
    if side not in ("right", "left", "two_sided"):
        raise ValueError("side must be right, left or two_sided")

    gm_inv = fac.g_minus.invert()
    gp_inv = fac.g_plus.invert()
    if isinstance(h, RationalSymbol):
        if side == "right":
            x = gm_inv * RationalSymbol.monomial(kappa) * h
            return gp_inv * x.part("P")
        x = (gm_inv * h).part("P")
        x = RationalSymbol.monomial(kappa) * gp_inv * x
        return x.part("P")
    if side == "right":
        x = multiply_by_symbol(h.shift(kappa), gm_inv).part("P")
        return multiply_by_symbol(x, gp_inv).trim()
    x = multiply_by_symbol(h, gm_inv).part("P")
    x = multiply_by_symbol(x, gp_inv).shift(kappa)
    return x.part("P").trim()

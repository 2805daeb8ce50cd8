"""The orientation-reversing circle involution and its weighted flip.

For |beta| > 1 the Moebius map alpha(z) = (z - beta)/(conj(beta) z - 1)
is an involution of the unit circle with two fixed points.  It factors as
alpha = alpha_plus * t^-1 * alpha_minus with alpha_plus analytic inside and
alpha_minus analytic outside, and induces the weighted flip

    (J f)(t) = t^-1 alpha_minus(t) f(alpha(t)),

an involution that swaps the analytic and anti-analytic halves.  chi and
psi_cap are the degree +1 canonical functions t/alpha_minus and
t/alpha_plus; chi-powers realize all index shifts used downstream.

All of these symbols are built directly in the factored form of
RationalSymbol: chi^k is the single root 1/conj(beta) with multiplicity k.
Substituting alpha into a symbol is RationalSymbol.compose_moebius with
alpha's coefficients: each root z moves to alpha(z) and the net degree
collects at the pole 1/conj(beta) of alpha, in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import BetaInsideDisk, CrossCheckMismatch, GridTooSmall, PoleHit, below, finite
from .rational import RationalSymbol, _circle
from .series import FFT_CAP, TruncatedSeries

_CHECK_GRID = 64
_CHECK_TOL = 1e-12
_FLIP_FFT_START = 256
FLIP_TAIL_TOL = 1e-10   # certified tail of flip images of coefficient windows


@dataclass(frozen=True)
class ShiftParams:
    """Derived data of the circle involution for one beta."""

    beta: complex
    lam: complex
    t_plus: complex
    t_minus: complex
    alpha_plus: RationalSymbol
    alpha_minus: RationalSymbol
    chi: RationalSymbol
    psi_cap: RationalSymbol

    @property
    def pad(self) -> int:
        """Exponents beyond which a flip image's tail, of geometric ratio
        1/|beta|, drops below FLIP_TAIL_TOL."""
        return int(np.ceil(np.log(FLIP_TAIL_TOL) / np.log(1.0 / abs(self.beta)))) + 4

    def circle_grid(self, n: int = 512) -> np.ndarray:
        """n read-only points of the unit circle, offset from the roots of unity."""
        return _circle(n)


def make_shift(beta: complex) -> ShiftParams:
    """Build and verify the shift data for |beta| > 1."""
    beta = complex(beta)
    if abs(beta) <= 1.0 + 1e-10:
        raise BetaInsideDisk(f"|beta| = {abs(beta):.6g} must exceed 1")
    bc = np.conj(beta)
    lam = 1j * np.sqrt(abs(beta) ** 2 - 1.0)
    t_plus = (1.0 + lam) / bc
    t_minus = (1.0 - lam) / bc
    pole = 1.0 / bc
    # alpha = (t - beta) / (bc t - 1) = alpha_plus t^-1 alpha_minus; chi = t / alpha_minus
    alpha_plus = RationalSymbol.from_factors(1.0 / lam, 0, [beta], [1])
    alpha_minus = RationalSymbol.from_factors(lam * pole, 1, [pole], [-1])
    chi = RationalSymbol.from_factors(bc / lam, 0, [pole], [1])
    psi_cap = RationalSymbol.from_factors(lam, 1, [beta], [-1])
    shift = ShiftParams(
        beta, complex(lam), complex(t_plus), complex(t_minus),
        alpha_plus, alpha_minus, chi, psi_cap,
    )
    _verify(shift)
    return shift


def _verify(shift: ShiftParams) -> None:
    """CrossCheckMismatch, naming the check, when the shift data fail one."""
    t = shift.circle_grid(_CHECK_GRID)
    a = eval_alpha(shift, t)
    tol = _CHECK_TOL * max(1.0, abs(shift.beta)) * 10
    fixed = np.array([shift.t_plus, shift.t_minus])
    checks = (
        ("fixed points on the circle", np.abs(np.abs(fixed) - 1.0), _CHECK_TOL),
        ("fixed points fixed by alpha", np.abs(eval_alpha(shift, fixed) - fixed), _CHECK_TOL * 10),
        ("alpha an involution", np.abs(eval_alpha(shift, a) - t), tol),
        ("alpha = alpha_plus t^-1 alpha_minus",
         np.abs(shift.alpha_plus.eval(t) / t * shift.alpha_minus.eval(t) - a), tol),
        ("chi (chi o alpha) = 1", np.abs(shift.chi.eval(t) * shift.chi.eval(a) - 1.0), tol),
    )
    for name, err, bound in checks:
        below(np.max(err), bound, CrossCheckMismatch,
              f"shift data for beta = {shift.beta:.6g} fail '{name}': error")


def eval_alpha(shift: ShiftParams, t):
    """Pointwise alpha(t) = (t - beta) / (conj(beta) t - 1)."""
    t = np.asarray(t, dtype=complex)
    den = np.conj(shift.beta) * t - 1.0
    if np.any(np.abs(den) < 1e-12):
        raise PoleHit("alpha evaluated at its pole 1/conj(beta)")
    out = (t - shift.beta) / den
    return out if out.ndim else complex(out)


def compose_with_shift(s: RationalSymbol, shift: ShiftParams) -> RationalSymbol:
    """Exact substitution s(alpha(t)), alpha(t) = (t - beta)/(conj(beta) t - 1).

    Every root z of s other than the pole 1/conj(beta) of alpha moves to
    alpha(z) (alpha is its own inverse); the net degree of s collects at
    that pole (RationalSymbol.compose_moebius).
    """
    return s.compose_moebius(1.0, -shift.beta, np.conj(shift.beta), -1.0)


def chi_power(shift: ShiftParams, k: int) -> RationalSymbol:
    """chi^k as a reduced rational symbol; winding number k."""
    return shift.chi.power(k)


def apply_J_alpha(
    f: Union[TruncatedSeries, RationalSymbol], shift: ShiftParams
) -> Union[TruncatedSeries, RationalSymbol]:
    """The weighted flip J f = t^-1 alpha_minus * (f o alpha).

    Rational symbols are transformed exactly; coefficient windows go through
    a circle grid and are re-expanded by FFT, with the geometric |beta|^-1
    tail certified below FLIP_TAIL_TOL (GridTooSmall otherwise), the pad
    doubled until it does; an edge that is not finite ends the doubling at
    once: NumericalBreakdown (finite).
    """
    if isinstance(f, RationalSymbol):
        comp = compose_with_shift(f, shift)
        return shift.chi.invert() * comp

    scale = max(float(np.max(np.abs(f.coeffs))), 1e-300)
    pad = shift.pad
    while True:
        lo = -f.hi - pad
        hi = -f.lo + pad
        span = hi - lo + 1
        m = _FLIP_FFT_START
        while m < 4 * span:
            m *= 2
        if m > FFT_CAP:
            raise GridTooSmall("flip window exceeds the FFT cap")
        t = np.exp(2j * np.pi * np.arange(m) / m)
        at = eval_alpha(shift, t)
        vals = shift.alpha_minus.eval(t) / t * f.eval(at)
        co = np.fft.fft(vals) / m
        exps = np.arange(lo, hi + 1)
        out = co[np.mod(exps, m)]
        edge = float(np.max(np.abs(out[[0, 1, -2, -1]])))
        bound = FLIP_TAIL_TOL * scale
        what = f"edge of the flip window with pad {pad}"
        finite(what, edge, bound)
        if 2 * pad > 10_000:
            below(edge, bound, GridTooSmall, what)
        if edge < bound:
            return TruncatedSeries(lo, out).trim(1e-15)
        pad *= 2

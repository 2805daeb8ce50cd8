"""Laurent polynomials with complex coefficients.

A Laurent polynomial is stored as a lowest exponent `lo` plus a dense
coefficient vector for the exponents lo .. lo+len-1.  Leading and trailing
coefficients are kept nonzero (relative trim at 1e-13), so the exponent
window is canonical for every value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TRIM_REL = 1e-13


def add_windows(x, y) -> tuple[int, np.ndarray]:
    """(lo, coeffs) of the sum of two windows, anything with lo, hi, coeffs."""
    lo = min(x.lo, y.lo)
    out = np.zeros(max(x.hi, y.hi) - lo + 1, dtype=complex)
    out[x.lo - lo : x.lo - lo + len(x.coeffs)] += x.coeffs
    out[y.lo - lo : y.lo - lo + len(y.coeffs)] += y.coeffs
    return lo, out


def horner(x, t) -> np.ndarray:
    """sum_k x.coeffs[k] t^(x.lo + k) by Horner's rule, as an array."""
    t = np.asarray(t, dtype=complex)
    acc = np.zeros_like(t)
    for c in x.coeffs[::-1]:
        acc = acc * t + c
    if x.lo != 0:
        acc = acc * t**x.lo
    return acc


def _as_coeff_array(coeffs) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if arr.ndim != 1:
        raise ValueError("coefficients must be one-dimensional")
    return arr


@dataclass(frozen=True)
class LaurentPolynomial:
    """sum_k c_k t^k for k = lo .. lo+len(coeffs)-1."""

    lo: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _as_coeff_array(self.coeffs)
        scale = np.max(np.abs(arr)) if arr.size else 0.0
        if scale == 0.0 or not np.isfinite(scale):
            if not np.isfinite(scale):
                raise ValueError("non-finite coefficient")
            object.__setattr__(self, "lo", 0)
            object.__setattr__(self, "coeffs", np.zeros(1, dtype=complex))
        else:
            keep = np.abs(arr) > TRIM_REL * scale
            first = int(np.argmax(keep))
            last = int(len(keep) - np.argmax(keep[::-1]) - 1)
            object.__setattr__(self, "lo", self.lo + first)
            object.__setattr__(self, "coeffs", arr[first : last + 1].copy())
        self.coeffs.setflags(write=False)

    # -- basic queries ----------------------------------------------------

    @property
    def hi(self) -> int:
        return self.lo + len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) == 1 and self.lo == 0

    def constant_value(self) -> complex:
        if not self.is_constant:
            raise ValueError("not a constant")
        return complex(self.coeffs[0])

    # -- construction helpers ---------------------------------------------

    @staticmethod
    def zero() -> "LaurentPolynomial":
        return LaurentPolynomial(0, [0.0])

    @staticmethod
    def one() -> "LaurentPolynomial":
        return LaurentPolynomial(0, [1.0])

    @staticmethod
    def constant(value: complex) -> "LaurentPolynomial":
        return LaurentPolynomial(0, [value])

    @staticmethod
    def monomial(k: int, value: complex = 1.0) -> "LaurentPolynomial":
        return LaurentPolynomial(k, [value])

    @staticmethod
    def from_roots(roots, lead: complex = 1.0, lo: int = 0) -> "LaurentPolynomial":
        """lead * prod (t - r) * t^lo, coefficients rebuilt from the roots."""
        c = np.array([1.0 + 0j])
        for r in np.asarray(roots, dtype=complex):
            c = np.convolve(c, np.array([-r, 1.0], dtype=complex))
        return LaurentPolynomial(lo, lead * c)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return LaurentPolynomial(*add_windows(self, other))

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(self.lo, -self.coeffs)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPolynomial":
        if isinstance(other, LaurentPolynomial):
            if self.is_zero or other.is_zero:
                return LaurentPolynomial.zero()
            return LaurentPolynomial(
                self.lo + other.lo, np.convolve(self.coeffs, other.coeffs)
            )
        return LaurentPolynomial(self.lo, self.coeffs * complex(other))

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by t^k."""
        return LaurentPolynomial(self.lo + k, self.coeffs)

    def conjugate_bar(self) -> "LaurentPolynomial":
        """sum c_k t^k  ->  sum conj(c_k) t^(-k); the boundary function conj."""
        return LaurentPolynomial(-self.hi, np.conj(self.coeffs)[::-1])

    def power(self, k: int) -> "LaurentPolynomial":
        if k < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = LaurentPolynomial.one()
        for _ in range(k):
            out = out * self
        return out

    # -- evaluation and roots -----------------------------------------------

    def eval(self, t):
        """Evaluate at scalar or array t (t nonzero when lo < 0)."""
        acc = horner(self, t)
        return acc if acc.ndim else complex(acc)

    def roots(self) -> np.ndarray:
        """Roots of the polynomial factor (the t^lo monomial is excluded),
        via companion-matrix eigenvalues."""
        if self.is_zero or len(self.coeffs) == 1:
            return np.zeros(0, dtype=complex)
        return np.roots(self.coeffs[::-1])

    def __str__(self) -> str:
        terms = [
            f"({c:.6g})t^{self.lo + i}" for i, c in enumerate(self.coeffs) if c != 0
        ]
        return " + ".join(terms) if terms else "0"

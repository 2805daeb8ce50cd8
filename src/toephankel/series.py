"""Finite Fourier-coefficient windows and the analytic projections.

TruncatedSeries is the numerical counterpart of RationalSymbol: a dense
complex coefficient vector over the exponent window lo .. lo+len-1.  The
complementary projections keep nonnegative (P) or negative (Q) exponents.
A window times a RationalSymbol, f * s or s * f, is multiply_by_symbol, so
each operator formula serves exact symbols and windows alike.

fourier_coefficients computes symbol coefficients by FFT quadrature on the
unit circle with grid doubling and a certified tail.  It shares no algebra
with RationalSymbol.coefficients, the exact windows (binomial series of the
factors) of the analytic pipeline, so the finite-section oracle
builds its sections from it, and the tests check the two against each
other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooSmall, below, finite
from .laurent import add_windows, horner
from .rational import RationalSymbol

FFT_START = 1024
FFT_CAP = 2**20
FFT_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients on the exponent window lo .. lo+len(coeffs)-1."""

    lo: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.coeffs, dtype=complex)).copy()
        object.__setattr__(self, "coeffs", arr)
        arr.setflags(write=False)

    @property
    def hi(self) -> int:
        return self.lo + len(self.coeffs) - 1

    @staticmethod
    def zero() -> "TruncatedSeries":
        return TruncatedSeries(0, [0.0])

    @staticmethod
    def basis(k: int) -> "TruncatedSeries":
        """The monomial t^k."""
        return TruncatedSeries(k, [1.0])

    @staticmethod
    def from_vector(vec) -> "TruncatedSeries":
        """The analytic series with coefficients vec on exponents 0, 1, ..."""
        return TruncatedSeries(0, np.asarray(vec, dtype=complex))

    def to_vector(self, n: int) -> np.ndarray:
        """Dense coefficients on [0, n); exponents outside are dropped."""
        out = np.zeros(n, dtype=complex)
        src_lo = max(self.lo, 0)
        src_hi = min(self.hi, n - 1)
        if src_lo <= src_hi:
            out[src_lo : src_hi + 1] = self.coeffs[src_lo - self.lo : src_hi - self.lo + 1]
        return out

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def trim(self, tol: float = 1e-14) -> "TruncatedSeries":
        scale = np.max(np.abs(self.coeffs))
        if scale == 0:
            return TruncatedSeries(0, [0.0])
        keep = np.abs(self.coeffs) > tol * scale
        first = int(np.argmax(keep))
        last = int(len(keep) - np.argmax(keep[::-1]) - 1)
        return TruncatedSeries(self.lo + first, self.coeffs[first : last + 1])

    def eval(self, t) -> np.ndarray:
        return horner(self, t)

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries(*add_windows(self, other))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-1.0) * other

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, RationalSymbol):
            return multiply_by_symbol(self, other)
        return TruncatedSeries(self.lo, self.coeffs * complex(other))

    __rmul__ = __mul__

    def convolve(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Coefficientwise product of the two windows."""
        return TruncatedSeries(
            self.lo + other.lo, np.convolve(self.coeffs, other.coeffs)
        )

    def part(self, which: str) -> "TruncatedSeries":
        """P keeps exponents >= 0, Q keeps exponents < 0."""
        if which not in ("P", "Q"):
            raise ValueError("which must be 'P' or 'Q'")
        exps = self.lo + np.arange(len(self.coeffs))
        mask = exps >= 0 if which == "P" else exps < 0
        if not np.any(mask):
            return TruncatedSeries.zero()
        coeffs = np.where(mask, self.coeffs, 0.0)
        return TruncatedSeries(self.lo, coeffs).trim(0.0)


def project_analytic(f: TruncatedSeries, which: str) -> TruncatedSeries:
    """Complementary projections by exponent sign (P: >= 0, Q: < 0)."""
    return f.part(which)


def multiply_by_symbol(f: TruncatedSeries, s: RationalSymbol) -> TruncatedSeries:
    """Coefficients of f * s and s * f: f convolved with s's exact window,
    cut where its tails, pole order counted, drop below 1e-12 (pad_for)."""
    pad = s.pad_for()
    lo = s.num.lo - (s.den.hi - s.den.lo) - pad
    hi = s.num.hi + pad
    c, _ = s.coefficients(lo, hi)
    return f.convolve(TruncatedSeries(lo, c)).trim(1e-14)


def fourier_coefficients(s: RationalSymbol, window: tuple[int, int]) -> TruncatedSeries:
    """Fourier coefficients of an admissible symbol on [window[0], window[1]].

    s is evaluated on a doubling grid of the unit circle until the
    coefficient tail certifies below FFT_TAIL_TOL * max(1, max |s|), the
    scale of its rounding (GridTooSmall at FFT_CAP).  A tail or scale that
    is not finite ends the doubling at once: NumericalBreakdown (finite).
    """
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise ValueError("empty window")
    m = FFT_START
    span = max(hi, 0) - min(lo, 0) + 1
    while m < 4 * span:
        m *= 2
    while True:
        t = np.exp(2j * np.pi * np.arange(m) / m)
        vals = s.eval(t)
        co = np.fft.fft(vals) / m
        # bins m/2-edge region estimate the aliasing tail
        edge = np.abs(co[m // 2 - m // 16 : m // 2 + m // 16])
        tail = float(np.max(edge))
        bound = FFT_TAIL_TOL * float(np.max(np.abs(vals), initial=1.0))
        what = f"aliasing tail on {m} points (grid cap {FFT_CAP})"
        finite(what, tail, bound)
        if m >= FFT_CAP:
            below(tail, bound, GridTooSmall, what)
        if tail < bound:
            return TruncatedSeries(lo, co[np.mod(np.arange(lo, hi + 1), m)])
        m *= 2

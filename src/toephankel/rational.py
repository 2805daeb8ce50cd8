"""Rational symbols on the unit circle, stored in factored form.

A symbol is kept as

    lead * t^mono * prod_i (t - roots[i])^mults[i]

with nonzero roots, pairwise farther apart than ROOT_TOL, and nonzero
integer multiplicities, positive for zeros and negative for poles.
Products, inverses, powers, the boundary conjugate and substitutions are
bookkeeping on this list, so an m-fold root stays one root of
multiplicity m instead of scattering like eps^(1/m) under a root finder.
The roots being pairwise apart keeps that bookkeeping cheap: -s, scalar
* s, invert and power keep the roots as they are, and a product only
matches the roots of one factor against the other's (_align); only a
general factor list is merged in full (_merge).  No other module reads
the factors; they use two primitives: circle_factors splits a symbol by
the one partition of its roots (_side: inside, within DELTA_CIRCLE of, or
outside the circle; circle_zeros lists the zeros on it), and
compose_moebius substitutes a Moebius map, alpha in
shift.compose_with_shift and 1/t in conjugate_bar.

Only a sum needs root finding.  It factors out the roots both terms share,
at their smaller multiplicity, expands what is left into one polynomial
and calls np.roots on it once; the zeros found are identified with the
known roots at the single relative tolerance ROOT_TOL, which cancels a
zero against a pole.  Coefficient input RationalSymbol(num, den) is
factored once, on entry, with one np.roots call per polynomial; since an
m-fold input root comes back scattered, roots within ENTRY_TOL are taken
as one multiple root when that reproduces the input values
(_entry_roots).  The coefficient vectors num/den and the root lists
num_roots/den_roots are derived from the factors.

Admissibility means no pole inside the exclusion annulus
| |z| - 1 | < DELTA_CIRCLE, so evaluation on the circle is bounded.

Besides arithmetic, this module provides exact Fourier coefficients on a
window, read off the factors as the product of one binomial series per
root (coefficients); partial fractions, principal parts from Taylor
expansions at the known poles, which serve only the Riesz projections P
(exponents >= 0) and Q = I - P (part builds one alone, from one
decomposition; a symbol with its poles on one side is its own P or Q;
part_sup_norm evaluates one part's sup norm off the decomposition, with
no part built); and winding numbers by counting the roots inside the
disk.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import InitVar, dataclass
from functools import cache, cached_property
from typing import Optional

import numpy as np

from .errors import (
    DenominatorNearZero,
    IllConditionedRoots,
    NotInvertibleOnCircle,
    NumericalBreakdown,
    below,
)
from .laurent import LaurentPolynomial

DELTA_CIRCLE = 1e-8   # exclusion annulus around |z| = 1
ROOT_TOL = 1e-10      # relative distance at which two roots are the same root
ENTRY_TOL = 1e-2      # input roots this close may be one scattered multiple root
EVAL_GUARD = 1e-12    # eval raises closer than this to a pole


@dataclass(frozen=True, eq=False)
class RationalSymbol:
    """lead * t^mono * prod (t - roots)^mults, admissible on |t| = 1.

    RationalSymbol(num, den) factors Laurent-polynomial input once; every
    other constructor and operation builds the factors directly
    (from_factors).
    """

    num_in: InitVar[LaurentPolynomial]
    den_in: InitVar[Optional[LaurentPolynomial]] = None

    def __post_init__(self, num_in, den_in):
        den_in = LaurentPolynomial.one() if den_in is None else den_in
        if den_in.is_zero:
            raise ZeroDivisionError("zero denominator")
        zeros, counts = _entry_roots(num_in)
        poles, orders = _entry_roots(den_in)
        self._factor(
            num_in.coeffs[-1] / den_in.coeffs[-1],
            num_in.lo - den_in.lo,
            np.concatenate([zeros, poles]),
            np.concatenate([counts, -orders]),
        )

    def _factor(self, lead, mono, roots, mults, merged: bool = False) -> None:
        """Store the canonical factors: roots merged within ROOT_TOL (unless
        merged: pairwise apart already), roots at 0 folded into the monomial,
        zero multiplicities dropped, poles checked against the annulus."""
        lead, roots = complex(lead), np.asarray(roots, complex).tolist()
        if not (cmath.isfinite(lead) and all(map(cmath.isfinite, roots))):
            raise NumericalBreakdown("non-finite factor")
        mults = np.asarray(mults, int).tolist() if lead else [0] * len(roots)
        if lead and not merged:
            mults = _merge(roots, mults)
        mono = int(mono) + sum(k for r, k in zip(roots, mults) if r == 0) if lead else 0
        kept = [(r, k) for r, k in zip(roots, mults) if k and r != 0]
        bad = [r for r, k in kept if k < 0 and abs(abs(r) - 1.0) < DELTA_CIRCLE]  # _side's 0
        if bad:
            raise DenominatorNearZero(
                f"pole(s) {np.array(bad)} inside the circle annulus (delta={DELTA_CIRCLE})")
        self._store(lead, mono, np.array([r for r, _ in kept], complex),
                    np.array([k for _, k in kept], int))

    def _store(self, lead, mono, roots, mults) -> None:
        roots.setflags(write=False)
        mults.setflags(write=False)
        object.__setattr__(self, "lead", complex(lead))
        object.__setattr__(self, "mono", int(mono))
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "mults", mults)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_factors(cls, lead: complex, mono: int = 0, roots=(), mults=(), merged=False):
        """lead * t^mono * prod (t - roots)^mults; equal roots are merged,
        unless merged says the roots are pairwise apart already."""
        out = object.__new__(cls)
        out._factor(lead, mono, roots, mults, merged)
        return out

    @classmethod
    def _canonical(cls, lead: complex, mono: int, roots, mults):
        """Roots canonical already (a symbol's, a subset or their conjugates,
        making no new pole), stored unchecked; a zero or inf lead: from_factors."""
        if lead == 0 or not cmath.isfinite(lead):
            return cls.from_factors(lead, mono, roots, mults)
        out = object.__new__(cls)
        out._store(lead, mono, roots, mults)
        return out

    @staticmethod
    def constant(value: complex) -> "RationalSymbol":
        return RationalSymbol.from_factors(value)

    @staticmethod
    def monomial(k: int, value: complex = 1.0) -> "RationalSymbol":
        return RationalSymbol.from_factors(value, k)

    # -- queries --------------------------------------------------------------

    @cached_property
    def num_roots(self) -> np.ndarray:
        """Zeros other than t = 0, repeated by multiplicity."""
        return _repeat(self.roots, self.mults)

    @cached_property
    def den_roots(self) -> np.ndarray:
        """Poles other than t = 0, repeated by multiplicity."""
        return _repeat(self.roots, -self.mults)

    @cached_property
    def num(self) -> LaurentPolynomial:
        """lead * t^mono * prod over the zeros; den is monic."""
        return LaurentPolynomial.from_roots(self.num_roots, self.lead, lo=self.mono)

    @cached_property
    def den(self) -> LaurentPolynomial:
        return LaurentPolynomial.from_roots(self.den_roots)

    @property
    def is_zero(self) -> bool:
        return self.lead == 0

    @property
    def is_constant(self) -> bool:
        return self.mono == 0 and len(self.roots) == 0

    def constant_value(self) -> complex:
        if not self.is_constant:
            raise ValueError("not a constant")
        return self.lead

    def eval(self, t):
        """Pointwise value; DenominatorNearZero within EVAL_GUARD of a pole other
        than t = 0, else NumericalBreakdown where the monic denominator is 0 or inf."""
        t = np.asarray(t, dtype=complex)
        nv = self.lead * t**self.mono
        dv = np.ones(t.shape, complex)
        gap = np.inf
        for r, k in zip(self.roots, self.mults):
            d = t - r
            if k > 0:
                nv = nv * d**k
            else:
                dv = dv * d**-k
                gap = min(gap, np.abs(d).min(initial=np.inf))
        if gap < EVAL_GUARD:
            raise DenominatorNearZero("evaluation too close to a pole")
        size = np.abs(dv)
        if not 0 < size.min(initial=1.0) <= size.max(initial=1.0) < np.inf:
            raise NumericalBreakdown("the monic denominator under- or overflows")
        out = nv / dv
        return out if np.ndim(out) else complex(out)

    def sup_norm_on_circle(self, grid: int = 512) -> float:
        return float(np.max(np.abs(self.eval(_circle(grid)))))

    def distance_to(self, other: "RationalSymbol", grid: int = 512) -> float:
        """sup over a circle grid of |self - other|."""
        t = _circle(grid)
        return float(np.max(np.abs(self.eval(t) - other.eval(t))))

    # -- algebra ----------------------------------------------------------------

    def __mul__(self, other) -> "RationalSymbol":
        if isinstance(other, RationalSymbol):
            roots, ka, kb = _align(self, other)
            return RationalSymbol.from_factors(self.lead * other.lead, self.mono + other.mono,
                                               roots, ka + kb, merged=True)
        if not isinstance(other, numbers.Number):
            return NotImplemented  # a TruncatedSeries takes the product itself
        lead = self.lead * complex(other)
        return RationalSymbol._canonical(lead, self.mono, self.roots, self.mults)

    __rmul__ = __mul__

    def __neg__(self) -> "RationalSymbol":
        return RationalSymbol._canonical(-self.lead, self.mono, self.roots, self.mults)

    def __add__(self, other) -> "RationalSymbol":
        """Sum with one root-finding step on the part the terms do not share."""
        if not isinstance(other, RationalSymbol):
            other = RationalSymbol.constant(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        roots, ka, kb = _align(self, other)
        common = np.minimum(ka, kb)
        mono = min(self.mono, other.mono)
        total = _expand(self.lead, self.mono - mono, roots, ka - common) + _expand(
            other.lead, other.mono - mono, roots, kb - common
        )
        return RationalSymbol.from_factors(*_polynomial_factors(total, mono, roots, common))

    def __sub__(self, other) -> "RationalSymbol":
        return self + (-other if isinstance(other, RationalSymbol)
                       else RationalSymbol.constant(-other))

    def invert(self) -> "RationalSymbol":
        # only zeros can lie on the circle: _factor keeps poles off it
        if self.is_zero or np.any(_side(self.roots) == 0):
            raise NotInvertibleOnCircle(
                "symbol has a zero inside the circle annulus"
            )
        return RationalSymbol._canonical(1.0 / self.lead, -self.mono, self.roots, -self.mults)

    def conjugate_bar(self) -> "RationalSymbol":
        """Boundary-function conjugate: sum c_k t^k -> sum conj(c_k) t^-k.

        The conjugated factors conj(lead) t^mono prod (t - conj(z))^k,
        evaluated at M(t) = 1/t.
        """
        conj = RationalSymbol._canonical(
            np.conj(self.lead), self.mono, np.conj(self.roots), self.mults
        )
        return conj.compose_moebius(0.0, 1.0, 1.0, 0.0)

    def compose_moebius(self, p, q, r, s) -> "RationalSymbol":
        """self(M(t)) for M(t) = (p t + q) / (r t + s), r != 0, in closed form.

        M(t) - z = (p - z r) (t - M^-1(z)) / (r t + s) for a root z other
        than M(infinity) = p/r (within ROOT_TOL), which gives
        (q - s p/r) / (r t + s) instead; t^mono counts as the root 0.  So
        each other root z moves to M^-1(z) = (s z - q) / (p - z r), and the
        net degree D of self becomes the factor r^-D (t + s/r)^-D.
        """
        if self.is_zero:
            return self
        roots = np.append(self.roots, 0.0)
        mults = np.append(self.mults, self.mono)
        at_inf = np.array([_first_near(p / r, [z]) == 0 for z in roots.tolist()])
        z, k = roots[~at_inf], mults[~at_inf]
        degree = int(mults.sum())
        lead = (
            self.lead
            * np.prod((p - z * r) ** k)
            * np.prod((q - p / r * s) ** mults[at_inf])
            * r ** (-degree)
        )
        if lead == 0:   # no factor is 0 (p - z r and q - p s / r are not), so it underflowed
            raise NumericalBreakdown("the composed lead underflows to 0")
        return RationalSymbol.from_factors(
            lead, 0, np.append((s * z - q) / (p - z * r), -s / r), np.append(k, -degree)
        )

    def power(self, k: int) -> "RationalSymbol":
        if k == 0:
            return RationalSymbol.constant(1.0)
        base = self if k > 0 else self.invert()
        k = abs(k)
        return RationalSymbol._canonical(base.lead**k, base.mono * k, base.roots, base.mults * k)

    def winding_number(self) -> int:
        """#zeros minus #poles inside the open disk (with multiplicity).

        Roots inside the exclusion annulus make the count uncertifiable.
        """
        winding, _, on, _ = self.circle_factors()
        if not on.is_constant:
            raise IllConditionedRoots(
                "root inside the circle annulus; winding not certified"
            )
        return winding

    def circle_factors(self):
        """(w, inside, on, outside) with self = t^w * inside * on * outside.

        inside is prod ((t - z)/t)^k over the roots in the open disk, so it
        is 1 at infinity; on holds the roots within DELTA_CIRCLE of the
        circle (zeros only: poles are kept off it); outside the lead and
        the roots outside the disk.  w = mono + the multiplicities inside,
        the winding number when on is constant.
        """
        side = _side(self.roots)
        n_in = int(self.mults[side < 0].sum())

        def part(lead, mono, keep):
            return RationalSymbol._canonical(lead, mono, self.roots[keep], self.mults[keep])

        return (self.mono + n_in, part(1.0, -n_in, side < 0), part(1.0, 0, side == 0),
                part(self.lead, 0, side > 0))

    def circle_zeros(self) -> np.ndarray:
        """circle_factors' zeros on the circle, projected onto it, repeated."""
        zeros = self.circle_factors()[2].num_roots
        return zeros / np.abs(zeros)

    # -- partial fractions --------------------------------------------------------

    def partial_fractions(self):
        """Exact decomposition  s = poly_part + sum_j r_j / (t - z)^j.

        Returns (poly_part, terms) where poly_part is a LaurentPolynomial with
        nonnegative exponents and terms is a list of (z, [r_1, ..., r_m]).
        A negative monomial exponent is a pole at z = 0.

        The poles and their multiplicities are known, so each principal part
        is read off the Taylor expansion of s (t - z)^m at z, and poly_part
        off the expansion at infinity.  The decomposition must reproduce the
        symbol on a circle grid; when poles lie too close together for double
        precision it does not, and IllConditionedRoots is raised.
        """
        if self.is_zero:
            return LaurentPolynomial.zero(), []
        roots = np.append(self.roots, 0.0)
        mults = np.append(self.mults, self.mono)
        degree = int(mults.sum())
        poly_part = LaurentPolynomial.zero()
        if degree >= 0:
            at_infinity = _binomial_product(roots, mults, degree + 1)
            poly_part = LaurentPolynomial(0, self.lead * at_infinity[::-1])
        terms = []
        for i in np.flatnonzero(mults < 0):
            z = roots[i]
            y, k = np.delete(roots, i), np.delete(mults, i)
            scale = self.lead * np.prod((z - y) ** k)
            taylor = scale * _binomial_product(1.0 / (y - z), k, -mults[i])
            terms.append((complex(z), [complex(r) for r in taylor[::-1]]))
        tgrid = np.exp(2j * np.pi * (np.arange(96) + 0.31) / 96)
        with np.errstate(all="ignore"):
            ref = self.eval(tgrid) - poly_part.eval(tgrid)
            err = float(np.max(np.abs(_eval_pf(terms, tgrid) - ref) / (1.0 + np.abs(ref))))
        below(err, 1e-10, IllConditionedRoots, "validation error of the partial fractions")
        return poly_part, terms

    def coefficients(self, lo: int, hi: int):
        """Exact Fourier coefficients on the exponent window [lo, hi] and
        the tail max(|c_(lo-1)|, |c_(hi+1)|), read off the factors.

        With the roots split by _side, s = lead' t^w I(1/t) O(t): I = prod
        (1 - z/t)^k over the roots in the open disk, O = prod (1 - t/r)^k
        over the others, lead' = lead prod (-r)^k, w = mono plus the
        multiplicities inside.  So c_n = lead' sum_j I_j O_(n-w+j), cut
        where I drops below rounding: at the pad of the inner poles at
        machine epsilon, plus the degree of the inner zeros.
        """
        inner = _side(self.roots) < 0
        z, k = self.roots[inner], self.mults[inner]
        r, kr = self.roots[~inner], self.mults[~inner]
        order = int(np.max(-k, initial=1))
        last = self._pad(inner & (self.mults < 0), np.finfo(float).eps, order)
        last += int(k[k > 0].sum())
        w = self.mono + int(k.sum())
        m_lo, m_hi = lo - 1 - w, hi + 1 - w     # indices of O at j = 0
        if m_hi + last < 0:
            return np.zeros(hi - lo + 1, complex), 0.0
        outer = _binomial_product(1.0 / r, kr, m_hi + last + 1)
        outer = np.concatenate([np.zeros(max(-m_lo, 0), complex), outer[max(m_lo, 0):]])
        c = self.lead * np.prod((-r) ** kr) * np.convolve(
            outer, _binomial_product(z, k, last + 1)[::-1], "valid")
        return c[1:-1], float(max(abs(c[0]), abs(c[-1])))

    def part(self, which: str) -> "RationalSymbol":
        """The Riesz projection P(s) (which="P", exponents >= 0) or
        Q(s) = s - P(s) (which="Q", exponents < 0), built alone."""
        if which not in ("P", "Q"):
            raise ValueError("which must be 'P' or 'Q'")
        return self._parts(which)[0]

    def split_analytic(self):
        """Exact splitting s = P(s) + Q(s), both parts from one decomposition.

        P(s) keeps nonnegative exponents (poles outside the closed disk),
        Q(s) keeps negative ones (poles inside, vanishing at infinity).
        """
        return self._parts("PQ")

    def part_sup_norm(self, which: str, grid: int) -> float:
        """sup over a circle grid of |P(s)| or |Q(s)|, evaluated off the
        partial fractions without building the part (no _reassemble)."""
        if which not in ("P", "Q"):
            raise ValueError("which must be 'P' or 'Q'")
        side, t = self._own_part(), _circle(grid)
        if side is not None:
            return self.sup_norm_on_circle(grid) if side == which else 0.0
        poly_part, terms = _side_terms(*self.partial_fractions(), which)
        return float(np.max(np.abs(poly_part.eval(t) + _eval_pf(terms, t))))

    def _own_part(self) -> Optional[str]:
        """"P" with no pole in the open disk and mono >= 0, "Q" with no pole
        outside (none is in the annulus) and negative degree, else None."""
        outer = np.abs(self.roots[self.mults < 0]) > 1.0
        if self.mono >= 0 and np.all(outer):
            return "P"
        if self.mono + int(self.mults.sum()) < 0 and not np.any(outer):
            return "Q"
        return None

    def _parts(self, which: str) -> tuple:
        """The parts named in which: a one-sided symbol (_own_part) and 0,
        else one partial_fractions and one _reassemble per part."""
        side = self._own_part()
        if side is None:
            pf = self.partial_fractions()
            return tuple(_reassemble(*_side_terms(*pf, w)) for w in which)
        return tuple(self if w == side else RationalSymbol.constant(0.0) for w in which)

    def pad_for(self, tol: float = 1e-12) -> int:
        """Window padding beyond which coefficient tails drop under tol,
        with the largest pole order counted as in analytic_pad."""
        return self._pad(self.mults < 0, tol, int(np.max(-self.mults, initial=1)))

    def analytic_pad(self, tol: float) -> int:
        """Index beyond which the analytic coefficients drop under tol: the
        degree, or past the numerator's degree the pad of the poles outside
        the disk, which alone set their decay, corrected for their order."""
        outside = (self.mults < 0) & (_side(self.roots) > 0)
        order = int(np.max(-self.mults[outside], initial=1))
        top = self.mono + int(self.mults[self.mults > 0].sum())
        return max(self.mono + int(self.mults.sum()),
                   max(top, 0) + self._pad(outside, tol, order))

    def _pad(self, poles: np.ndarray, tol: float, order: int) -> int:
        """The pad of the given poles.  Poles of order p scale a tail by
        C(i+p-1, p-1) < (i+p)^(p-1), so tol is divided by that factor at
        the pad of order 1, in logs: the factor overflows a float from p
        about 130 on."""
        z = self.roots[poles]
        rate = float(np.max(np.where(_side(z) < 0, np.abs(z), 1.0 / np.abs(z)), initial=0.0))
        if rate == 0.0:
            return 0
        log_tol = np.log(tol / max(self.sup_norm_on_circle(64), 1.0))
        pad = int(np.ceil(log_tol / np.log(rate))) + 4
        if order > 1:
            log_tol -= (order - 1) * np.log(pad + order)
            pad = int(np.ceil(log_tol / np.log(rate))) + 4
        return pad

    def __repr__(self) -> str:
        return (
            f"RationalSymbol.from_factors({self.lead!r}, {self.mono}, "
            f"{self.roots.tolist()!r}, {self.mults.tolist()!r})"
        )

    def __str__(self) -> str:
        if self.den.is_constant and self.den.constant_value() == 1:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def _side(roots: np.ndarray) -> np.ndarray:
    """|z| - 1 for each root, set to 0 within DELTA_CIRCLE of the circle:
    negative in the open disk, positive outside it."""
    gap = np.abs(roots) - 1.0
    gap[np.abs(gap) < DELTA_CIRCLE] = 0.0
    return gap


@cache
def _circle(grid: int) -> np.ndarray:
    """The circle grid of the sup norms, offset from the roots of unity."""
    t = np.exp(2j * np.pi * (np.arange(grid) + 0.2371) / grid)
    t.setflags(write=False)
    return t


def _first_near(x: complex, roots: list, tol: float = ROOT_TOL) -> int:
    """Index of the first y in roots with |x - y| <= tol * max(1, |x|, |y|),
    the one rule for the same root, else len(roots)."""
    sx = max(1.0, abs(x))
    for j, y in enumerate(roots):
        if abs(x - y) <= tol * max(sx, abs(y)):
            return j
    return len(roots)


def _groups(roots: list, tol: float) -> list:
    """For each root, the index of the first root of its group within tol:
    the first root it is near (itself at the latest), chained on."""
    rep = []
    for i, x in enumerate(roots):
        j = _first_near(x, roots, tol)
        rep.append(rep[j] if j < i else i)
    return rep


def _merge(roots: list, mults: list) -> list:
    """Multiplicities after identifying roots within ROOT_TOL: each group's
    total at its representative, 0 at the other roots of the group."""
    total = [0] * len(roots)
    for i, k in zip(_groups(roots, ROOT_TOL), mults):
        total[i] += k
    return total


def _entry_roots(poly: LaurentPolynomial):
    """Distinct roots of coefficient input and their multiplicities.

    np.roots scatters an m-fold root by about eps^(1/m), so roots within
    ENTRY_TOL of each other are replaced by their centroid with the summed
    multiplicity.  The grouping is kept only if its factors reproduce poly
    on a circle grid to 1e-10; otherwise every root stays simple.
    """
    found = poly.roots()
    ones = np.ones(len(found), int)
    if len(found) < 2:
        return found, ones
    rep, where = np.unique(_groups(found.tolist(), ENTRY_TOL), return_inverse=True)
    if len(rep) == len(found):
        return found, ones
    counts = np.bincount(where)
    centers = np.bincount(where, found.real) + 1j * np.bincount(where, found.imag)
    centers = centers / counts
    t = np.exp(2j * np.pi * (np.arange(64) + 0.31) / 64)
    ref = poly.eval(t)
    fit = poly.coeffs[-1] * t**poly.lo * np.prod(
        (t[:, None] - centers[None, :]) ** counts, axis=1
    )
    if np.max(np.abs(fit - ref)) <= 1e-10 * np.max(np.abs(ref)):
        return centers, counts
    return found, ones


def _align(a: RationalSymbol, b: RationalSymbol):
    """The union of two root lists and the multiplicity each symbol has on
    it: a root of b joins the first root of a it is near, else comes after.
    Each list is pairwise apart, so this is the full merge of the two."""
    ra = a.roots.tolist()
    roots, ka, kb = list(ra), a.mults.tolist(), [0] * len(ra)
    for r, k in zip(b.roots.tolist(), b.mults.tolist()):
        i = _first_near(r, ra)
        if i == len(ra):
            i = len(roots)
            roots, ka, kb = roots + [r], ka + [0], kb + [0]
        kb[i] += k
    return roots, np.array(ka, int), np.array(kb, int)


def _repeat(roots: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """Roots with positive multiplicity, each repeated that many times."""
    keep = mults > 0
    out = np.repeat(roots[keep], mults[keep])
    out.setflags(write=False)
    return out


def _expand(lead: complex, lo: int, roots, mults) -> LaurentPolynomial:
    """lead * t^lo * prod (t - roots)^mults for nonnegative mults."""
    return LaurentPolynomial.from_roots(np.repeat(roots, mults), lead, lo=lo)


def _polynomial_factors(poly: LaurentPolynomial, mono: int, roots, mults):
    """Factors of poly * t^mono * prod (t - roots)^mults.

    The zeros of poly come from one np.roots call; from_factors then
    identifies them with the known roots, cancelling zeros against poles.
    """
    found = poly.roots()
    return (
        poly.coeffs[-1],
        mono + poly.lo,
        np.concatenate([roots, found]),
        np.concatenate([mults, np.ones(len(found), int)]),
    )


def _binomial_product(c: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
    """First n Taylor coefficients in v of prod (1 - c v)^k: a zero
    multiplies by 1 - c v, a pole divides by it."""
    out = np.zeros(n, complex)
    out[0] = 1.0
    for ci, ki in zip(c, k):
        if ci == 0:
            continue
        for _ in range(ki):
            out[1:] -= ci * out[:-1]
        if ki < 0:
            _divide_geometric(out, ci, -ki)
    return out


def _divide_geometric(x: np.ndarray, c: complex, times: int) -> None:
    """x /= (1 - c v)^times, cut at len(x): times passes of the recurrence
    y_i = x_i + c y_(i-1), each vectorised as y_(s+i) = c^i (c y_(s-1) +
    sum_(l<=i) c^-l x_(s+l)) over blocks short enough that c^i and c^-i
    stay within e^(+-36), far from overflow and underflow."""
    n = len(x)
    rate = abs(np.log(abs(c)))
    block = n if rate * n <= 36.0 else max(1, int(36.0 / rate))
    powers = c ** np.arange(block)
    for _ in range(times):
        carry = 0.0
        for s in range(0, n, block):
            p = powers[: n - s]
            x[s : s + block] = p * (c * carry + np.cumsum(x[s : s + block] / p))
            carry = x[s + len(p) - 1]


def _eval_pf(terms, t: np.ndarray) -> np.ndarray:
    """Evaluate sum_j r_j/(t-z)^j over all terms at the points t."""
    acc = np.zeros_like(t)
    for z, residues in terms:
        base = 1.0 / (t - z)
        p = np.ones_like(t)
        for r in residues:
            p = p * base
            if r != 0:
                acc = acc + r * p
    return acc


def _side_terms(poly_part: LaurentPolynomial, terms, which: str):
    """The decomposition of P(s) (poly_part and the principal parts of the
    poles outside the disk) or of Q(s) (those of the other poles)."""
    if which == "P":
        return poly_part, [(z, r) for z, r in terms if abs(z) > 1.0]
    return LaurentPolynomial.zero(), [(z, r) for z, r in terms if abs(z) <= 1.0]


def _reassemble(poly_part: LaurentPolynomial, terms) -> RationalSymbol:
    """poly_part plus the principal parts, as one symbol over the known
    poles: the numerator is expanded and factored once."""
    poles = np.array([z for z, _ in terms], complex)
    orders = np.array([len(res) for _, res in terms], int)
    total = poly_part * _expand(1.0, 0, poles, orders)
    for i, (z, residues) in enumerate(terms):
        # sum_j r_j (t - z)^(m - j) by Horner in (t - z)
        local = np.array([residues[0]], complex)
        for r in residues[1:]:
            local = np.convolve(local, [-z, 1.0])
            local[0] += r
        others = np.arange(len(terms)) != i
        total = total + LaurentPolynomial(0, local) * _expand(
            1.0, 0, poles[others], orders[others]
        )
    return RationalSymbol.from_factors(*_polynomial_factors(total, 0, poles, -orders))


# -- spec-level operation wrappers -------------------------------------------------


def eval_symbol(s: RationalSymbol, t: complex) -> complex:
    """Value of the symbol at a unit-circle point."""
    if abs(abs(t) - 1.0) > 1e-12:
        raise ValueError("evaluation point must lie on the unit circle")
    return s.eval(t)


def symbol_algebra(op: str, *args) -> RationalSymbol:
    """Dispatch for {multiply | invert | conjugate_bar | power}."""
    if op == "multiply":
        a, b = args
        return a * b
    if op == "invert":
        (a,) = args
        return a.invert()
    if op == "conjugate_bar":
        (a,) = args
        return a.conjugate_bar()
    if op == "power":
        a, k = args
        return a.power(int(k))
    raise ValueError(f"unknown symbol operation {op!r}")


def winding_number(s: RationalSymbol) -> int:
    return s.winding_number()

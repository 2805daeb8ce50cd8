"""Kernel and cokernel structure of T(a) +/- H(b) over matching pairs.

The analytic pipeline works in exact rational arithmetic throughout:

* kernels of scalar Toeplitz operators with matching symbols split into
  explicit chi-power families read off the factorization and signature;
* the injections phi_plus/phi_minus transport kernel elements of T(d)
  into the kernels of the sum and difference operators;
* cokernels are always computed as kernels of the adjoint pair
  (conj(a), conj(b) o alpha) - one code path, no separate conventions;
* the remaining index quadrant is handled by lifting with chi^n, building
  the bracket space for the lifted pair, intersecting with the image of
  T(chi^n) through n coefficient functionals, and dividing by chi^n.

Every produced basis function is gated twice: an exact residual against
the operator it is supposed to annihilate, and a finite-section residual
against the numerical oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

import numpy as np

from .errors import (
    CrossCheckMismatch,
    NotApplicable,
    NotFredholm,
    NotFredholmPair,
    NotInKernel,
    NotMatching,
    WrongRegime,
    above,
    below,
)
from .matching import MatchingPair, adjoint_pair, alpha_signature, make_matching_pair
from .oracle import FiniteSection, null_dims, pair_sections, residual_check
from .rational import RationalSymbol
from .series import TruncatedSeries
from .shift import ShiftParams, apply_J_alpha, chi_power, compose_with_shift
from .wiener_hopf import WHFactorization, apply_one_sided_inverse, factorize

KERNEL_RESIDUAL_TOL = 1e-8   # exact-arithmetic membership gate
ORACLE_RESIDUAL_TOL = 1e-6   # finite-section membership gate
RANK_TOL = 1e-8              # rank decisions for the coefficient functionals
IMAGE_TOL = 1e-10            # chi^n divisibility: coefficients 0..n-1 of h alpha_minus^n
SERIES_TAIL_TOL = 1e-13      # certified tail of a basis function's coefficient window


class Regime(Enum):
    RIGHT_INV = "RIGHT_INV"
    LEFT_INV = "LEFT_INV"
    SPLIT = "SPLIT"
    LIFTED = "LIFTED"


def classify_regime(kappa1: int, kappa2: int) -> Regime:
    if kappa1 >= 0:
        return Regime.RIGHT_INV if kappa2 >= 1 else Regime.SPLIT
    return Regime.LIFTED if kappa2 >= 1 else Regime.LEFT_INV


# ---------------------------------------------------------------------------
# operator actions on analytic inputs, exact or windowed


def toeplitz_apply(g: RationalSymbol, f: Union[RationalSymbol, TruncatedSeries]):
    """T(g) f = P(g f) for analytic f, exact or windowed."""
    return (g * f).part("P")


def _operator_symbol(pair: MatchingPair, sign: int, f):
    """a f + sign b J f, whose P is (T(a) + sign H(b)) f for analytic f."""
    return pair.a * f + float(sign) * (pair.b * apply_J_alpha(f, pair.shift))


def operator_apply(
    pair: MatchingPair, sign: int, f: Union[RationalSymbol, TruncatedSeries]
):
    """(T(a) + sign H(b)) f = P(a f + sign b J f) for analytic f, exact or
    windowed: one sum, one projection."""
    return _operator_symbol(pair, sign, f).part("P")


def operator_residual(pair: MatchingPair, sign: int, f: RationalSymbol) -> float:
    """sup |(T(a) + sign H(b)) f| / max(1, sup |f|) on 128 circle points."""
    scale = max(1.0, f.sup_norm_on_circle(128))
    return _operator_symbol(pair, sign, f).part_sup_norm("P", 128) / scale


def analytic_series(f: RationalSymbol) -> TruncatedSeries:
    """Coefficient window of an analytic rational, certified below
    SERIES_TAIL_TOL by analytic_pad."""
    return TruncatedSeries(0, f.coefficients(0, f.analytic_pad(SERIES_TAIL_TOL))[0]).trim(1e-14)


# ---------------------------------------------------------------------------
# kernel splitting for scalar Toeplitz operators with matching symbols


def toeplitz_kernel_split(
    g: RationalSymbol, shift: ShiftParams
) -> tuple[list[RationalSymbol], list[RationalSymbol]]:
    """Bases of the two flip-eigenspaces inside ker T(g), index n >= 1.

    The families are g_plus^-1 (chi^lo +/- sigma chi^hi) for even n and
    g_plus^-1 (chi^hi +/- sigma chi^lo) for odd n, with lo = (n-1)//2 - k
    and hi = n//2 + k, k < (n+1)//2, and the zero element dropped: of
    dimensions n//2 + (n mod 2)(1 +/- sigma)/2.
    """
    fac = factorize(g)
    if fac.kappa <= 0:
        raise NotApplicable(f"kernel split needs index >= 1, got {fac.kappa}")
    return _kernel_split(fac, alpha_signature(g, shift), shift)


def _kernel_split(fac: WHFactorization, sigma: int, shift: ShiftParams):
    """toeplitz_kernel_split given g's factorization and signature."""
    n = fac.kappa
    gpi = fac.g_plus.invert()
    plus: list[RationalSymbol] = []
    minus: list[RationalSymbol] = []
    for k in range((n + 1) // 2):
        low = chi_power(shift, (n - 1) // 2 - k)
        high = chi_power(shift, n // 2 + k)
        first, second = (high, low) if n % 2 else (low, high)
        for family, cand in ((plus, first + float(sigma) * second),
                             (minus, first - float(sigma) * second)):
            if not cand.is_zero:
                family.append(gpi * cand)
    expect_p = n // 2 + (n % 2) * (1 + sigma) // 2
    expect_m = n // 2 + (n % 2) * (1 - sigma) // 2
    if (len(plus), len(minus)) != (expect_p, expect_m):
        raise CrossCheckMismatch("kernel split dimensions off the predicted count")
    return plus, minus


def apply_P_alpha(g: RationalSymbol, f: RationalSymbol, shift: ShiftParams) -> RationalSymbol:
    """The involution J Q g P restricted to ker T(g), on analytic rationals;
    NotInKernel when f is not in ker T(g)."""
    scale = max(1.0, f.sup_norm_on_circle(128))
    p_part, q_part = (g * f).split_analytic()
    below(p_part.sup_norm_on_circle(128), KERNEL_RESIDUAL_TOL * scale, NotInKernel,
          "ker T(g) residual of the input")
    return apply_J_alpha(q_part, shift)


def phi_pm(
    s: RationalSymbol,
    pair: MatchingPair,
    fac_c: WHFactorization,
    sign: int,
    shift: ShiftParams,
) -> RationalSymbol:
    """Transport of s in ker T(d) into ker(T(a) + sign * H(b)).

    2 phi(s) = x -/+ J Q c x +/- J Q w  with w = a_alpha^-1 s and
    x = T_r^-1(c) P(w); requires T(c) right-invertible.  T(c) T_r^-1(c) = I
    gives P(c x) = P(w), so c x - w = Q(c x) - Q(w) and 2 phi(s) =
    x -/+ J (c x - w): one projection besides T_r^-1(c)'s, one sum, one flip.
    """
    if pair.kappa1 < 0:
        raise WrongRegime("phi maps need a right-invertible T(c)")
    scale = max(1.0, s.sup_norm_on_circle(128))
    below((pair.d * s).part_sup_norm("P", 128), KERNEL_RESIDUAL_TOL * scale, NotInKernel,
          "ker T(d) residual of s")
    w = pair.a_alpha_inv * s
    x = apply_one_sided_inverse(fac_c, w.part("P"), "right")
    return 0.5 * (x - float(sign) * apply_J_alpha(pair.c * x - w, shift))


# ---------------------------------------------------------------------------
# image membership for chi powers and the lifted pipeline


def in_image_chi_power(
    h: Union[RationalSymbol, TruncatedSeries], n: int, shift: ShiftParams
):
    """Is the analytic h, exact or windowed, divisible by chi^n?  Returns
    (flag, quotient).

    Membership is equivalent to vanishing of the coefficients 0..n-1 of
    h * alpha_minus^n; on success the quotient h * chi^-n is returned (for
    a window, the analytic part of the windowed product).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    am_n = shift.alpha_minus.power(n)
    if isinstance(h, RationalSymbol):
        scale = max(1.0, h.sup_norm_on_circle(128))
        vals, _ = (h * am_n).coefficients(0, n - 1)
        if np.max(np.abs(vals)) >= IMAGE_TOL * scale:
            return False, None
        quotient = h * chi_power(shift, -n)
        below(quotient.part_sup_norm("Q", 128), KERNEL_RESIDUAL_TOL * scale, CrossCheckMismatch,
              "non-analytic part of the certified quotient")
        return True, quotient
    scale = max(1.0, h.norm())
    if h.part("Q").norm() > 1e-12 * scale:
        raise ValueError("input series must be analytic (no negative modes)")
    if np.max(np.abs((h * am_n).to_vector(n))) >= IMAGE_TOL * scale:
        return False, None
    return True, (h * chi_power(shift, -n)).part("P").trim()


def _lift_exponent(kappa: int) -> int:
    # smallest n >= 0 with 0 <= 2n + kappa <= 1
    return (-kappa + 1) // 2 if kappa < 0 else 0


def _intersect_and_divide(
    funcs: list[RationalSymbol], n: int, shift: ShiftParams
) -> list[RationalSymbol]:
    """Intersect span(funcs) with the image of T(chi^n), divide by chi^n."""
    if not funcs:
        return []
    am_n = shift.alpha_minus.power(n)
    m = np.array([(f * am_n).coefficients(0, n - 1)[0] for f in funcs]).T  # n x dim
    _, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > RANK_TOL * (s[0] if len(s) and s[0] > 0 else 1.0)))
    null_vecs = vh[rank:].conj().T  # dim x q
    out = []
    for q in range(null_vecs.shape[1]):
        acc = RationalSymbol.constant(0.0)
        for f, w in zip(funcs, null_vecs[:, q]):
            if abs(w) > 1e-14:
                acc = acc + complex(w) * f
        quotient = acc * chi_power(shift, -n)
        scale = max(1.0, quotient.sup_norm_on_circle(128))
        below(quotient.part_sup_norm("Q", 128), KERNEL_RESIDUAL_TOL * scale, CrossCheckMismatch,
              "non-analytic part of the lifted quotient")
        out.append(quotient)
    return out


def _kernel_functions(pair: MatchingPair):
    """Tagged rational bases of ker(T(a)+H(b)) and ker(T(a)-H(b))."""
    shift = pair.shift
    k1, k2 = pair.kappa1, pair.kappa2
    plus: list[tuple[RationalSymbol, str]] = []
    minus: list[tuple[RationalSymbol, str]] = []
    if k1 >= 0:
        fac_c = factorize(pair.c)
        if k1 >= 1:
            b_plus, b_minus = _kernel_split(fac_c, pair.sigma_c, shift)
            plus += [(f, "P_minus_c") for f in b_minus]
            minus += [(f, "P_plus_c") for f in b_plus]
        if k2 >= 1:
            d_plus, d_minus = _kernel_split(factorize(pair.d), pair.sigma_d, shift)
            plus += [(phi_pm(s, pair, fac_c, +1, shift), "phi_plus_d") for s in d_plus]
            minus += [(phi_pm(s, pair, fac_c, -1, shift), "phi_minus_d") for s in d_minus]
    elif k2 >= 1:
        n = _lift_exponent(k1)
        lifted = make_matching_pair(
            pair.a * chi_power(shift, -n), pair.b * chi_power(shift, n), shift
        )
        if lifted.kappa1 != k1 + 2 * n or lifted.kappa2 != k2 or not lifted.is_fredholm:
            raise CrossCheckMismatch("lifted pair has unexpected indices")
        br_plus, br_minus = _kernel_functions(lifted)
        for out, br in ((plus, br_plus), (minus, br_minus)):
            out += [(f, "lifted") for f in _intersect_and_divide([g for g, _ in br], n, shift)]
    # kappa1 <= -1 and kappa2 <= 0: both kernels are trivial
    for sign, funcs in ((+1, plus), (-1, minus)):
        for f, _tag in funcs:
            below(operator_residual(pair, sign, f), KERNEL_RESIDUAL_TOL, CrossCheckMismatch,
                  "exact residual of a kernel candidate")
    return plus, minus


# ---------------------------------------------------------------------------
# basis containers


@dataclass(frozen=True)
class BasisFunction:
    series: TruncatedSeries
    rational: Optional[RationalSymbol]
    tag: str


@dataclass(frozen=True)
class KernelBasis:
    """Normalized basis of one of the four defect spaces."""

    sign: str                   # '+' or '-'
    kind: str                   # 'ker' or 'coker'
    functions: tuple[BasisFunction, ...]

    @property
    def dim(self) -> int:
        return len(self.functions)

    def gram_min_singular_value(self) -> float:
        if not self.functions:
            return float("inf")
        lo = min(f.series.lo for f in self.functions)
        hi = max(f.series.hi for f in self.functions)
        vecs = np.stack(
            [
                np.concatenate(
                    [
                        np.zeros(f.series.lo - lo, complex),
                        f.series.coeffs,
                        np.zeros(hi - f.series.hi, complex),
                    ]
                )
                for f in self.functions
            ]
        )
        return float(np.min(np.linalg.svd(vecs, compute_uv=False)))


def _assemble_basis(kind: str, sign: int, funcs) -> KernelBasis:
    items = []
    for f, tag in funcs:
        series = analytic_series(f)
        nrm = series.norm()
        if nrm == 0:
            raise CrossCheckMismatch("zero basis function")
        items.append(BasisFunction((1.0 / nrm) * series, (1.0 / nrm) * f, tag))
    basis = KernelBasis("+" if sign > 0 else "-", kind, tuple(items))
    if basis.dim:
        above(basis.gram_min_singular_value(), 1e-8, CrossCheckMismatch,
              "smallest singular value of the basis functions")
    return basis


# ---------------------------------------------------------------------------
# defect numbers and reports


@dataclass(frozen=True)
class DefectReport:
    dim_ker_plus: int
    dim_coker_plus: int
    dim_ker_minus: int
    dim_coker_minus: int
    regime: Regime
    kappa1: int
    kappa2: int
    bases: dict = field(repr=False)
    oracle: Optional[dict] = field(default=None, repr=False)

    def __post_init__(self):
        lhs = (self.dim_ker_plus - self.dim_coker_plus) + (
            self.dim_ker_minus - self.dim_coker_minus
        )
        if lhs != self.kappa1 + self.kappa2:
            raise CrossCheckMismatch(
                f"index bookkeeping violated: {lhs} != {self.kappa1 + self.kappa2}"
            )


def _defect_functions(pair: MatchingPair, kind: str):
    """Tagged (plus, minus) functions of the kernels ('ker') or, as kernels
    of the adjoint pair, the cokernels ('coker')."""
    if not pair.is_fredholm:
        raise NotFredholmPair("subordinated functions do not factorize")
    return _kernel_functions(pair if kind == "ker" else adjoint_pair(pair))


def all_defect_bases(pair: MatchingPair) -> dict:
    """The four bases keyed by (kind, sign-string)."""
    out = {}
    for kind in ("ker", "coker"):
        plus, minus = _defect_functions(pair, kind)
        out[(kind, "+")] = _assemble_basis(kind, +1, plus)
        out[(kind, "-")] = _assemble_basis(kind, -1, minus)
    return out


def _oracle_residual(section: FiniteSection, *bases: KernelBasis) -> float:
    """Largest finite-section residual of the bases' functions (NaN if one
    is): ||M f|| for kernels, ||M^H f|| for cokernels, from the section."""
    return float(np.max([residual_check(section, f.series, basis.kind == "coker")
                         for basis in bases for f in basis.functions], initial=0.0))


def kernel_cokernel_bases(
    pair: MatchingPair,
    which: tuple[str, str] = ("ker", "+"),
    oracle_size: int = 256,
) -> KernelBasis:
    """One of the four defect-space bases; cokernels via the adjoint pair.

    Every returned function must pass the finite-section residual gate
    against the operator it annihilates (the conjugate transpose section
    for cokernels)."""
    kind, sign = which
    if kind not in ("ker", "coker") or sign not in ("+", "-"):
        raise ValueError("which must be (ker|coker, +|-)")
    plus, minus = _defect_functions(pair, kind)
    basis = _assemble_basis(kind, +1, plus) if sign == "+" else _assemble_basis(kind, -1, minus)
    if basis.dim:
        below(_oracle_residual(pair_sections(pair, pair.shift, oracle_size)[sign], basis),
              ORACLE_RESIDUAL_TOL, CrossCheckMismatch, "oracle residual of a basis function")
    return basis


def _oracle_block(pair: MatchingPair, bases: dict, n: int) -> dict:
    out = {"size": n, "dims": {}, "residuals": {}, "agreement": {}}
    sections = pair_sections(pair, pair.shift, n)
    for sign, (dim_ker, dim_coker) in null_dims(sections, ("+", "-")).items():
        out["dims"][f"ker{sign}"] = dim_ker
        out["dims"][f"coker{sign}"] = dim_coker
        worst = _oracle_residual(sections[sign], bases[("ker", sign)], bases[("coker", sign)])
        out["residuals"][sign] = worst
        ok = (
            dim_ker == bases[("ker", sign)].dim
            and dim_coker == bases[("coker", sign)].dim
            and worst < ORACLE_RESIDUAL_TOL
        )
        out["agreement"][sign] = bool(ok)
    out["agreement"]["all"] = all(out["agreement"].values())
    return out


def defect_numbers(
    pair: MatchingPair, oracle_size: int = 256, run_oracle: bool = True
) -> DefectReport:
    """Defect numbers of T(a) +/- H(b) with regime dispatch and oracle check."""
    bases = all_defect_bases(pair)
    oracle = _oracle_block(pair, bases, oracle_size) if run_oracle else None
    return DefectReport(
        dim_ker_plus=bases[("ker", "+")].dim,
        dim_coker_plus=bases[("coker", "+")].dim,
        dim_ker_minus=bases[("ker", "-")].dim,
        dim_coker_minus=bases[("coker", "-")].dim,
        regime=classify_regime(pair.kappa1, pair.kappa2),
        kappa1=pair.kappa1,
        kappa2=pair.kappa2,
        bases=bases,
        oracle=oracle,
    )


# ---------------------------------------------------------------------------
# one-sided invertibility classes


@dataclass(frozen=True)
class ClassMatch:
    tag: str
    sign: str
    dim_ker: int
    dim_coker: int


def coburn_class(
    a: RationalSymbol,
    b: RationalSymbol,
    shift: ShiftParams,
    oracle_size: int = 256,
) -> Optional[list[ClassMatch]]:
    """Match (a, b) against the one-sided-invertibility classes.

    Covers the direct families b in {a chi^-1 (minus), a chi (plus),
    +/- a (both signs)}, their duals built from a o alpha and psi_cap, and
    the subordinated criterion ind T(c) in {-1, 0, 1} with signature +1.
    Each match asserts min(dim ker, dim coker) = 0 on the oracle section
    of its sign; only the signs of the matches get a null space.
    """
    tol = 1e-8
    a_alpha = compose_with_shift(a, shift)
    candidates: list[tuple[str, str]] = []

    def close(x: RationalSymbol, y: RationalSymbol) -> bool:
        return x.distance_to(y) < tol * max(1.0, y.sup_norm_on_circle(64))

    direct = [
        ("T(a)-H(a chi^-1)", "-", a * chi_power(shift, -1)),
        ("T(a)+H(a chi)", "+", a * shift.chi),
        ("T(a)+H(a)", "+", a),
        ("T(a)-H(a)", "-", a),
        ("T(a)-H(a_alpha psi_cap^-1)", "-", a_alpha * shift.psi_cap.invert()),
        ("T(a)+H(a_alpha psi_cap)", "+", a_alpha * shift.psi_cap),
        ("T(a)+H(a_alpha)", "+", a_alpha),
        ("T(a)-H(a_alpha)", "-", a_alpha),
    ]
    for tag, sign, target in direct:
        if close(b, target):
            candidates.append((tag, sign))
    try:
        pair = make_matching_pair(a, b, shift)
        sigma_c = pair.sigma_c
        if pair.kappa1 == 1 and sigma_c == 1:
            candidates.append(("index-one subordinated", "+"))
        elif pair.kappa1 == -1 and sigma_c == 1:
            candidates.append(("index-minus-one subordinated", "-"))
        elif pair.kappa1 == 0:
            candidates.append(("index-zero subordinated", "+"))
            candidates.append(("index-zero subordinated", "-"))
    except (NotMatching, NotFredholm):
        pass
    if not candidates:
        return None
    dims = null_dims(pair_sections((a, b), shift, oracle_size),
                     dict.fromkeys(sign for _, sign in candidates))
    out = []
    for tag, sign in candidates:
        dk, dc = dims[sign]
        if min(dk, dc) != 0:
            raise CrossCheckMismatch(
                f"class {tag}: oracle found ker {dk} and coker {dc} both nonzero"
            )
        out.append(ClassMatch(tag, sign, dk, dc))
    return out


# ---------------------------------------------------------------------------
# transfer maps between the block kernel and the diagonal kernel


def _series_pair(vec):
    if isinstance(vec, (tuple, list)) and len(vec) == 2:
        f, g = vec
        if not isinstance(f, TruncatedSeries):
            f = TruncatedSeries.from_vector(np.asarray(f, complex))
        if not isinstance(g, TruncatedSeries):
            g = TruncatedSeries.from_vector(np.asarray(g, complex))
        return f, g
    arr = np.asarray(vec, dtype=complex)
    half = len(arr) // 2
    return (
        TruncatedSeries.from_vector(arr[:half]),
        TruncatedSeries.from_vector(arr[half:]),
    )


def transfer_U(
    pair: MatchingPair,
    shift: Optional[ShiftParams] = None,
    direction: str = "U1",
    vec=None,
):
    """The mutually inverse maps between ker of the 2x2 block operator and
    ker diag(T(a)+H(b), T(a)-H(b)).

    U1: (phi, psi) -> 1/2 (phi - J Q c phi + J Q a_alpha^-1 psi,
                          phi + J Q c phi - J Q a_alpha^-1 psi)
    U2: (Phi, Psi) -> (Phi + Psi, P(b_alpha (Phi+Psi) + a_alpha J P(Phi-Psi)))
    """
    shift = shift or pair.shift
    f, g = _series_pair(vec)
    scale = max(f.norm(), g.norm(), 1e-300)
    if direction == "U1":
        cf, ag = f * pair.c, g * pair.a_alpha_inv
        for resid in (toeplitz_apply(pair.d, g).norm(), (ag.part("P") - cf.part("P")).norm()):
            below(resid, KERNEL_RESIDUAL_TOL * scale, NotInKernel, "block-kernel residual")
        cf = apply_J_alpha(cf.part("Q"), shift)
        ag = apply_J_alpha(ag.part("Q"), shift)
        big = f - cf + ag
        small = f + cf - ag
        return (0.5 * big).trim(), (0.5 * small).trim()
    if direction == "U2":
        for sign, h in ((+1, f), (-1, g)):
            below(operator_apply(pair, sign, h).norm(), KERNEL_RESIDUAL_TOL * scale, NotInKernel,
                  "diagonal-kernel residual")
        b_alpha = compose_with_shift(pair.b, shift)
        a_alpha = compose_with_shift(pair.a, shift)
        total = f + g
        diff = apply_J_alpha((f - g).part("P"), shift)
        second = (total * b_alpha + diff * a_alpha).part("P")
        return total.trim(), second.trim()
    raise ValueError("direction must be 'U1' or 'U2'")

"""Piecewise continuous symbols: jump factors, the Fredholm criterion and
the factorization signature beyond continuous symbols.

A PC symbol is a finite product of a rational base with elementary jump
factors exp{i beta arg(-t/tau)}; this class has exact one-sided limits
everywhere and is closed under everything the Fredholm criterion and the
signature computation need.  The psi factors are the shift-compatible
analogues (1 - t/tau)^beta * (1 - alpha(t)/tau)^(-beta) at a fixed point
tau of the shift: they satisfy psi * (psi o alpha) = 1, generate Toeplitz
operators invertible on the Hardy space, and have factorization
signature +1, which is what makes signature peeling work.

Symbols are evaluated on arrays of points.  One-sided limits come from one
rule, shared by both factor kinds: off its jump a factor's two limits are
its value, on the jump they are scale * exp(+-i pi beta); a PC symbol
multiplies its base values by the limits of each factor.

The argument convention is the principal branch, arg z in (-pi, pi].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import oracle
from .errors import (AtJumpPoint, NotMatching, NumericalBreakdown, SignatureIndeterminate,
                     above, below)
from .matching import _ONE, MATCH_TOL, _residual, _snap_sign
from .rational import RationalSymbol
from .shift import ShiftParams, eval_alpha

JUMP_LOCATION_TOL = 1e-9
FREDHOLM_THRESHOLD = 1e-8
ARGMIN_RTOL = 1e-12    # values this close to the minimum count as attaining it


@dataclass(frozen=True)
class JumpFactor:
    """exp{i beta arg(-t/tau)}: one jump at tau with ratio exp(-2 pi i beta)."""

    tau: complex
    beta_exp: complex

    def __post_init__(self):
        if abs(abs(self.tau) - 1.0) > 1e-10:
            raise ValueError("jump point must lie on the unit circle")
        if abs(self.beta_exp.real) >= 1.0:
            raise ValueError("Re beta must lie in (-1, 1)")

    def eval(self, t):
        t = np.asarray(t, dtype=complex)
        return np.exp(1j * self.beta_exp * np.angle(-t / self.tau))

    def limits_at(self, points):
        """(counterclockwise-from-below, from-above) limits at the points."""
        return _one_sided(self, points, 1.0)


@dataclass(frozen=True)
class PCSymbol:
    """rational base times finitely many jump factors."""

    base: RationalSymbol
    jumps: tuple[JumpFactor, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple(self.jumps))

    @property
    def jump_points(self) -> tuple[complex, ...]:
        return tuple(j.tau for j in self.jumps)

    def eval(self, t):
        t = np.asarray(t, dtype=complex)
        if t.ndim == 0:
            for j in self.jumps:
                if abs(complex(t) - j.tau) < JUMP_LOCATION_TOL:
                    raise AtJumpPoint(f"evaluation at the jump point {j.tau}")
        out = self.base.eval(t)
        for j in self.jumps:
            out = out * j.eval(t)
        return out

    def limits_at(self, points):
        left = right = self.base.eval(points)
        for j in self.jumps:
            jl, jr = j.limits_at(points)
            left = left * jl
            right = right * jr
        return left, right


@dataclass(frozen=True)
class PsiFactor:
    """Shift-compatible jump factor at a fixed point of alpha.

    psi(t) = eta(t) * eta_alpha(t)^-1 with eta(t) = (1 - t/tau)^beta on the
    principal branch and tau the chosen fixed point; scale premultiplies
    (so that -psi and similar variants stay expressible).
    """

    which: str                   # 't_plus' or 't_minus'
    beta_exp: complex
    shift: ShiftParams
    scale: complex = 1.0

    def __post_init__(self):
        if self.which not in ("t_plus", "t_minus"):
            raise ValueError("which must be 't_plus' or 't_minus'")

    @property
    def tau(self) -> complex:
        return self.shift.t_plus if self.which == "t_plus" else self.shift.t_minus

    @property
    def jump_points(self) -> tuple[complex, ...]:
        return (self.tau,)

    def eval(self, t):
        t = np.asarray(t, dtype=complex)
        if t.ndim == 0 and abs(complex(t) - self.tau) < JUMP_LOCATION_TOL:
            raise AtJumpPoint("evaluation at the fixed-point jump")
        tau = self.tau
        at = eval_alpha(self.shift, t)
        eta = _principal_power(1.0 - t / tau, self.beta_exp)
        eta_a = _principal_power(1.0 - at / tau, -self.beta_exp)
        return self.scale * eta * eta_a

    def limits_at(self, points):
        return _one_sided(self, points, self.scale)


def _one_sided(factor: Union[JumpFactor, PsiFactor], points, scale: complex):
    """(left, right) limits of a factor whose one jump sits at factor.tau:
    the value off the jump, scale * exp(+-i pi beta) on it.  Arrays give
    arrays; a scalar point gives two Python complex numbers."""
    t = np.asarray(points, dtype=complex)
    on = np.abs(t - factor.tau) < JUMP_LOCATION_TOL
    left = np.empty(t.shape, complex)
    left[~on] = factor.eval(t[~on])   # never at the jump: psi would take log 0
    right = left.copy()
    left[on] = scale * complex(np.exp(1j * np.pi * factor.beta_exp))
    right[on] = scale * complex(np.exp(-1j * np.pi * factor.beta_exp))
    if t.ndim:
        return left, right
    return complex(left), complex(right)


def _principal_power(w, beta: complex):
    """w^beta = exp(beta (log|w| + i Arg w)), Arg in (-pi, pi]."""
    w = np.asarray(w, dtype=complex)
    return np.exp(beta * (np.log(np.abs(w)) + 1j * np.angle(w)))


PCLike = Union[RationalSymbol, PCSymbol, PsiFactor]


def _as_pc(s) -> PCLike:
    if isinstance(s, (PCSymbol, PsiFactor)):
        return s
    if isinstance(s, RationalSymbol):
        return PCSymbol(s, ())
    raise TypeError(f"not a symbol: {type(s)!r}")


def eval_pc(s: PCLike, t):
    """Pointwise evaluation away from jump points."""
    return _as_pc(s).eval(t)


def one_sided_limits(s: PCLike, tau: complex) -> tuple[complex, complex]:
    """(s(tau - 0), s(tau + 0)) with respect to the counterclockwise
    orientation."""
    return _as_pc(s).limits_at(tau)


# ---------------------------------------------------------------------------
# the 2x2 Fredholm criterion


def nu_h(y: float, p: float) -> tuple[complex, complex]:
    """(nu_p(y), h_p(y)) on the two-point compactification of the reals.

    nu_p(y) = (1 + coth(pi (y + i/p))) / 2,  h_p(y) = 1 / sinh(pi (y + i/p));
    the limits at +/- infinity are (1, 0) and (0, 0).
    """
    if not 1.0 < p < np.inf:
        raise ValueError("p must lie in (1, infinity)")
    if np.isposinf(y):
        return 1.0 + 0.0j, 0.0 + 0.0j
    if np.isneginf(y):
        return 0.0 + 0.0j, 0.0 + 0.0j
    z = np.pi * (y + 1j / p)
    sh = np.sinh(z)
    return complex(0.5 * (1.0 + np.cosh(z) / sh)), complex(1.0 / sh)


def _arc_thetas(shift: ShiftParams, n_t: int, extra_points) -> np.ndarray:
    """Interior sample angles of the arc running from t_plus to t_minus.

    n_t equispaced angles plus one angle per distinct extra point on the
    open arc (a zero of multiplicity k is listed k times by circle_zeros).
    """
    th0 = float(np.angle(shift.t_plus))
    span = float(np.mod(np.angle(shift.t_minus) - th0, 2 * np.pi))
    base = th0 + span * (np.arange(1, n_t + 1)) / (n_t + 1)
    out = list(base)
    for z in set(extra_points):
        d = float(np.mod(np.angle(z) - th0, 2 * np.pi))
        if 1e-9 < d < span - 1e-9:
            out.append(th0 + d)
    return np.array(sorted(out))


def _y_grid(n_y: int) -> list[float]:
    interior = n_y - 2
    v = np.linspace(-0.999, 0.999, interior)
    return [-np.inf] + list(np.arctanh(v)) + [np.inf]


def _first_near_min(values: np.ndarray) -> int:
    """Flat index of the first value within a relative ARGMIN_RTOL of the
    minimum, so that among values tied up to rounding the grid order picks
    the reported point, not the last bit."""
    flat = values.ravel()
    return int(np.argmax(flat <= flat.min() * (1 + ARGMIN_RTOL)))


def fredholm_symbol_check(
    a: PCLike,
    b: PCLike,
    p: float,
    shift: ShiftParams,
    n_t: int = 512,
    n_y: int = 201,
) -> dict:
    """Fredholm test for T(a) + H(b) with piecewise continuous a, b.

    On the open arc between the fixed points the 2x2 symbol matrix must be
    invertible for all (t, y); at the fixed points a scalar function must
    stay away from zero.  The report carries the minima over the grid,
    which includes the jump points and the circle zeros of both symbols
    and their images under alpha (degeneracies live exactly there), y = 0
    and y = +/- infinity, and the first grid point (in t, then y order)
    within a relative ARGMIN_RTOL of each minimum.  On the arc the one-sided
    limits of a and b come from four array calls of limits_at, at the grid
    and at its alpha image.
    """
    a = _as_pc(a)
    b = _as_pc(b)
    extra = list(a.jump_points) + list(b.jump_points)
    for s in (a, b):
        if isinstance(s, PCSymbol):
            extra += list(s.base.circle_zeros())
    extra += [eval_alpha(shift, z) for z in extra]
    thetas = _arc_thetas(shift, n_t, extra)
    ts = np.exp(1j * thetas)
    ys = _y_grid(n_y)
    nus, hs = map(np.array, zip(*(nu_h(y, p) for y in ys)))
    at = eval_alpha(shift, ts)
    a_l, a_r = a.limits_at(ts)
    b_l, b_r = b.limits_at(ts)
    aa_l, aa_r = a.limits_at(at)
    ba_l, ba_r = b.limits_at(at)

    # det over the (t, y) grid
    m11 = a_r[:, None] * nus[None, :] + a_l[:, None] * (1 - nus[None, :])
    m22 = aa_r[:, None] * nus[None, :] + aa_l[:, None] * (1 - nus[None, :])
    m12 = (b_r - b_l)[:, None] / 2j * hs[None, :]
    m21 = (ba_l - ba_r)[:, None] / 2j * hs[None, :]
    det = np.abs(m11 * m22 - m12 * m21)
    i_flat = _first_near_min(det)
    min_det = float(det.min())

    # scalar at the fixed points, mu(t_plus) = 1, mu(t_minus) = -1
    fixed = ((shift.t_plus, 1.0), (shift.t_minus, -1.0))
    vals = []
    for tau, mu in fixed:
        al, ar = a.limits_at(tau)
        bl, br = b.limits_at(tau)
        vals.append(ar * nus + al * (1 - nus) + mu * (br - bl) / 2.0 * hs)
    vals = np.array(vals)
    scalars = np.abs(vals)
    if np.isnan(min_det) or np.isnan(scalars).any():
        raise NumericalBreakdown("a symbol's values on the circle left the float range")
    # min_abs_scalar is the scalar abs at each fixed point's array argmin,
    # which can differ from the array abs in the last bit
    min_scalar = min(float(abs(v[i])) for v, i in zip(vals, scalars.argmin(axis=1)))
    i_tau, j = divmod(_first_near_min(scalars), len(ys))
    tau = fixed[i_tau][0]
    scalar_where = {"t": [tau.real, tau.imag], "y": ys[j]}
    verdict = bool(min_det > FREDHOLM_THRESHOLD and min_scalar > FREDHOLM_THRESHOLD)
    return {
        "fredholm": verdict,
        "min_abs_det": min_det,
        "min_abs_scalar": min_scalar,
        "threshold": FREDHOLM_THRESHOLD,
        "det_argmin": {
            "t_index": i_flat // len(ys),
            "y": ys[i_flat % len(ys)],
        },
        "scalar_argmin": scalar_where,
        "grid": {"n_t": len(ts), "n_y": len(ys), "p": p},
    }


# ---------------------------------------------------------------------------
# signature for PC matching symbols


def _matching_residual_pc(g: PCLike, shift: ShiftParams) -> float:
    """matching._residual of (g, 1) on the circle grid, off the jumps and
    their alpha images."""
    ts = shift.circle_grid()
    specials = list(g.jump_points)
    specials += [eval_alpha(shift, z) for z in specials]
    keep = np.all(np.abs(ts[:, None] - np.array(specials, complex)) > 1e-3, axis=1)
    return _residual(g, _ONE, shift, ts[keep])


def pc_alpha_signature(g: PCLike, p: float, shift: ShiftParams) -> int:
    """Factorization signature of a PC matching symbol.

    Any jump at t_plus is peeled off by the psi factor whose exponent is
    read from the jump ratio g(t_plus+0)/g(t_plus-0) = exp(-2 pi i beta);
    the remaining factor is continuous at t_plus, where its value (a sign)
    is the signature.  Peeling contributes +1, so no correction is needed,
    and continuity at t_plus alone already determines the sign.
    """
    g = _as_pc(g)
    below(_matching_residual_pc(g, shift), MATCH_TOL, NotMatching, "g g_alpha - 1 residual")
    zero = PCSymbol(RationalSymbol.constant(0.0), ())
    rep = fredholm_symbol_check(g, zero, p, shift, n_t=128, n_y=101)
    if not rep["fredholm"]:
        raise SignatureIndeterminate("T(g) is not Fredholm on this space")
    gl, gr = g.limits_at(shift.t_plus)
    above(abs(gl), 1e-14, SignatureIndeterminate, "|g(t_plus - 0)|")
    ratio = gr / gl
    if abs(ratio - 1.0) < 1e-10:
        # continuous at t_plus: read the value straight off
        return _snap_sign(0.5 * (gl + gr), "value at t_plus")
    beta = _beta_from_ratio(ratio, p)
    psi_l, psi_r = PsiFactor("t_plus", beta, shift).limits_at(shift.t_plus)
    v_left = gl / psi_l
    v_right = gr / psi_r
    below(abs(v_left - v_right), 1e-8 * max(1.0, abs(v_left)), SignatureIndeterminate,
          "jump of the peeled factor at t_plus")
    return _snap_sign(0.5 * (v_left + v_right), "peeled value at t_plus")


def _beta_from_ratio(ratio: complex, p: float) -> complex:
    """beta with exp(-2 pi i beta) = ratio and Re beta in (-1/q, 1/p)."""
    q = p / (p - 1.0)
    beta = -np.log(ratio) / (2j * np.pi)
    while beta.real <= -1.0 / q:
        beta += 1.0
    while beta.real >= 1.0 / p:
        beta -= 1.0
    if not (-1.0 / q < beta.real < 1.0 / p):
        raise SignatureIndeterminate(
            f"jump exponent {beta:.6g} outside the admissible strip"
        )
    return complex(beta)


# ---------------------------------------------------------------------------
# Toeplitz sections of PC symbols by piecewise Gauss-Legendre quadrature


def _gl_panels(breaks: np.ndarray, k_max: int, refine: float):
    """Composite GL nodes/weights on [breaks[0], breaks[-1]] split so that
    every panel sees at most ~2 radians of the fastest oscillation."""
    xs, ws = np.polynomial.legendre.leggauss(10)
    all_t = []
    all_w = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        width = b - a
        if width <= 1e-12:
            continue
        panels = max(8, int(np.ceil(refine * width * max(k_max, 1) / 2.0)))
        edges = np.linspace(a, b, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        t = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
        w = (half[:, None] * ws[None, :]).ravel()
        all_t.append(t)
        all_w.append(w)
    return np.concatenate(all_t), np.concatenate(all_w)


def pc_fourier_coefficients(s: PCLike, lo: int, hi: int, refine: float = 1.0) -> np.ndarray:
    """Fourier coefficients of a piecewise smooth symbol on [lo, hi].

    Integration runs on the smooth arcs separately, so the jump points are
    panel boundaries and never quadrature nodes; panel counts scale with
    the largest requested frequency.
    """
    s = _as_pc(s)
    th0 = 0.123456
    cuts = sorted(
        float(np.mod(np.angle(z) - th0, 2 * np.pi)) for z in s.jump_points
    )
    breaks = np.array([0.0] + cuts + [2 * np.pi]) + th0
    k_max = max(abs(lo), abs(hi))
    theta, w = _gl_panels(breaks, k_max, refine)
    vals = eval_pc(s, np.exp(1j * theta)) * w
    ks = np.arange(lo, hi + 1)
    out = np.empty(len(ks), complex)
    chunk = 64
    for i in range(0, len(ks), chunk):
        kk = ks[i : i + chunk]
        out[i : i + chunk] = (np.exp(-1j * np.outer(kk, theta)) @ vals) / (2 * np.pi)
    return out


def pc_toeplitz_entries(
    s: PCLike, shift: ShiftParams, n: int
) -> tuple[np.ndarray, float]:
    """Toeplitz section of a PC symbol, with a panel-refinement error bound."""
    co = pc_fourier_coefficients(s, -(n - 1), n - 1)
    probe = pc_fourier_coefficients(s, n - 5, n - 1, refine=1.7)
    err = float(np.max(np.abs(co[-5:] - probe)))
    return oracle._toeplitz_window(co, n).copy(), err

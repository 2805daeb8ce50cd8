"""Finite-section numerical oracle.

Truncated matrices of the Toeplitz, flip-Hankel, sum/difference and 2x2
block operators in the Fourier basis, plus null spaces and residual
checks.  Everything analytic elsewhere in the package is cross-validated
against these sections, so they share none of its exact rational
algebra: every coefficient window comes from the certified circle FFT
(fourier_coefficients), one FFT of a for Toeplitz and one of b for
Hankel, whose section is b's classical Hankel matrix times the
coefficients of the flip images (_hankel_entries).  pair_sections
assembles T(a) and H(b) once, as the factors of T(a) + H(b) and
T(a) - H(b), and writes no n x n block: T(a)'s window of 2N - 1
coefficients, the FFT of its circulant embedding, and H(b) = B C, of
rank R.  Products go through them at O(N log N + N R) a column
(FiniteSection).

A section's null space comes from the solves of two augmented sections
(numerical_null_space): sigma_max from a few Golub-Kahan-Lanczos steps
(for a pair section started at the Fourier mode where |a| peaks), the
right basis from a Rayleigh-Ritz step on the range of two solves with a
randomly augmented section M', and the left basis and the spectral-gap
certificate from solves with M'', the section augmented by the right
basis.  Both are solved with on both sides (_augmented_solves).  A pair
section of N >= 224 rows, whose low-rank rest has at most N/8 columns and
whose corners reach at most 2N/7 rows (_cheaper), does so through its
structure, and no n x n block is written: T is a circulant, one FFT pair
a solve, plus two corners of low numerical rank, and all the rest of M'
and of M'' is low rank, so _Woodbury solves each through the circulant.
Otherwise M' is formed and factored once, in place, by the zgetrf of the
LAPACK numpy calls (_lapack, _LU), and M'' is a low-rank update of it
(_Woodbury); where that LAPACK is not found, np.linalg.solve copies and
factors M' per solve (_Solve).  The
certificate bounds the dropped singular values above and the kept ones
below, so no singular spectrum is computed, and both bases are checked
by their residuals.  Localization counts the directions of
the null space with most of their mass in the first half of the
coordinates, whatever basis the null space is given in.  Every caller
gets these dimensions from null_dims, which solves the null spaces at
once where the CPUs hold the threads OpenBLAS reports per call, from
CONCURRENT_MIN_SIZE rows on; errors come in sign order.

Everything here runs on numpy alone: Toeplitz sections are strided views
of a window (_toeplitz_window), and the null space comes from np.fft,
np.linalg and the LAPACK numpy calls.  Sections whose four n x n blocks would
exceed MAX_SECTION_BYTES are refused before anything is allocated.
glibc maps every n x n block from N = 256 on by itself, and unmaps it when
it is freed, as the mmap threshold is fixed at 1 MiB on import.

All computations use the coefficient l2 geometry.  Rational symbols are
Fredholm with the same defect numbers on every Hardy space of the admitted
class, so a single oracle geometry suffices; genuinely p-sensitive
piecewise-continuous symbols are outside what this oracle can adjudicate.
"""

from __future__ import annotations

import ctypes
import functools
import os
import struct
import threading
from dataclasses import dataclass, field
import numpy as np

from .errors import (GridTooSmall, InputError, NoSpectralGap, NumericalBreakdown, WindowTooTight,
                     above, below)
from .matching import MatchingPair, make_matching_pair
from .rational import RationalSymbol
from .series import FFT_CAP, TruncatedSeries, fourier_coefficients
from .shift import ShiftParams

SVD_TOL = 1e-8
SVD_GAP = 100.0
SKETCH = 4             # rank of the first augmentation of a section (numerical_null_space)
PROBES = 4             # extra random right-hand sides that bound a smallest singular value
LANCZOS_STEPS = 20     # Golub-Kahan-Lanczos steps of the sigma_max estimate from a random start
# and from a pair section's start at the peak of |a| (_norm_estimate).  Worst shortfall below
# ||M||_2 (random start, 20 steps / this start, 8 steps / this start, 10 steps): 8.1e-4 / 2.6e-4
# / 7.9e-5 on the ORACLE_PAIRS sections at N = 1024; 9.9e-4 / 3.4e-4 / 2.3e-4 and 4.8e-3 / 3.7e-4
# / 2.3e-4 on the chi^k sections of test_norm_estimate_bounds_the_norm_from_below at N = 128 and
# 256; 9.1e-4 / 2.2e-4 / 1.6e-4 on chi^-2 and chi^3 at beta 1.2 and 1.05, N = 256; 1.0e-3 /
# 2.7e-4 / 2.0e-4 with H dominant (a = 0.01 chi^-1, b = 5 chi^-3, beta 2, N = 256)
PEAK_LANCZOS_STEPS = 10
HMT = 10 * np.sqrt(2 / np.pi)   # Halko-Martinsson-Tropp's constant of a norm bound from probes
# largest normwise backward error of a refined solve with M'' (_Woodbury): its probes
# are then those of a block within 2e-13 sigma_max of M''; 9e-16 at most was measured
# on chi^k sections, |k| <= 10, N = 128-512, with beta down to 1.05
SOLVE_BACKWARD_TOL = 1e-13
ENTRY_TAIL_TOL = 1e-10
MAX_SECTION_BYTES = 1 << 30   # four n x n blocks of the largest section allowed
# null_dims solves smaller sections in turn: at N = 256 two threads made a cold analyze's or
# verify's null_dims take 22-34 ms, not 15-29 ms, and peak RSS 1.0-1.2 MB more (2-core host)
CONCURRENT_MIN_SIZE = 512
DUMP_MAGIC = b"TPHK"
DUMP_VERSION = 1
_MALLOC_TRIM = getattr(ctypes.pythonapi, "malloc_trim", lambda pad: 0)   # glibc's
_MALLOPT = getattr(ctypes.pythonapi, "mallopt", lambda param, value: 0)   # glibc's
# M_MMAP_THRESHOLD: blocks of 1 MiB or more are unmapped when freed, in any arena; fixed,
# it does not rise to the largest block freed and move blocks of that size into the heap
_MALLOPT(-3, 1 << 20)


@dataclass(frozen=True)
class FiniteSection:
    """N x N compression of an operator in the Fourier basis.

    A pair section (pair_sections) holds no n x n block: its factors are
    (eig, hank, flip, sign, window), M = T + sign hank @ flip, T the
    Toeplitz matrix of window's 2N - 1 coefficients (_toeplitz_window), eig
    the eigenvalues of T's 2N x 2N circulant embedding, hank @ flip the
    rank-R factors of H(b) (_hankel_entries).  product, adjoint_product and
    augmented go through them, and so do the solves of its null space's M'
    (_augmented_solves), which form no block on the structured path
    (_cheaper).  Its read-only entries are formed on their first read only
    (dump_section, tests), and kept.  A section without factors (block, PC,
    loaded and hand-made ones) is given its entries: the dense cross-check
    of the structured paths."""

    size: int
    entries: np.ndarray | None = field(repr=False)   # None for a pair section
    kind: str = ""
    meta: dict = field(default_factory=dict)
    factors: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.entries is None:   # reads of entries then reach __getattr__
            object.__delattr__(self, "entries")
        else:
            self.entries.setflags(write=False)

    def __getattr__(self, name):
        # reached only for the entries of a pair section, before their first read
        if name != "entries" or self.factors is None:
            raise AttributeError(name)
        none = np.zeros((self.size, 0), dtype=complex)
        entries = self.augmented(none, none)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        return entries

    @property
    def margin(self) -> int:
        return int(self.meta.get("margin", 0))

    def product(self, x: np.ndarray) -> np.ndarray:
        """M x, for a vector or a block of columns x."""
        if self.factors is None:
            return self.entries @ x
        eig, hank, flip, sign, _ = self.factors
        out = _circulant(eig, x)
        out += sign * (hank @ (flip @ x))
        return out

    def adjoint_product(self, x: np.ndarray) -> np.ndarray:
        """M^H x, without a copy of M^H: T^H is a section of the circulant
        with eigenvalues conj(eig), and H^H x = conj(C^T B^T conj(x))."""
        if self.factors is None:
            return np.conj(self.entries.T @ x.conj())
        eig, hank, flip, sign, _ = self.factors
        out = _circulant(eig.conj(), x)
        out += sign * np.conj(flip.T @ (hank.T @ x.conj()))
        return out

    def augmented(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """A fresh C-order block M + left right^H (M' of numerical_null_space):
        for a pair section the one product [sign hank, left] @ [flip; right^H]
        of rank R + p, into which T is added from its window's strided view."""
        if self.factors is None:
            aug = left @ right.conj().T
            aug += self.entries
            return aug
        _, hank, flip, sign, window = self.factors
        aug = np.hstack((sign * hank, left)) @ np.vstack((flip, right.conj().T))
        aug += _toeplitz_window(window, self.size)
        return aug


def _circulant(eig: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The first len(x) rows of circ [x; 0], circ the circulant with eigenvalues eig."""
    scale = eig if x.ndim == 1 else eig[:, None]
    return np.fft.ifft(scale * np.fft.fft(x, len(eig), axis=0), axis=0)[: len(x)]


def _toeplitz_window(window: np.ndarray, width: int) -> np.ndarray:
    """The Toeplitz matrix with entry (j, k) = window[width - 1 + j - k], as a
    strided view of window: rows are its windows of width values, reversed."""
    return np.lib.stride_tricks.sliding_window_view(window, width)[:, ::-1]


def _toeplitz_entries(a: RationalSymbol, n: int) -> np.ndarray:
    """T(a)'s n x n section as its window of 2n - 1 coefficients a_(1-n) ..
    a_(n-1) (_toeplitz_window), from one certified FFT of a (GridTooSmall
    when a's poles hug the circle too closely for FFT_CAP)."""
    return fourier_coefficients(a, (-(n - 1), n - 1)).coeffs


def _symbol_margin(s: RationalSymbol) -> int:
    """How far multiplication by s can push coefficient support."""
    band = (s.num.hi - s.num.lo) + (s.den.hi - s.den.lo)
    return band + s.pad_for(ENTRY_TAIL_TOL)


def _hankel_entries(
    b: RationalSymbol, shift: ShiftParams, n: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """H(b)'s n x n section as the product B @ C: column k is the analytic
    part of b J t^k.

    J t^k = lam alpha^k / (conj(beta) t - 1) = sum_{m>=1} c[m, k] t^-m, so
    H[j, k] = sum_m b_{j+m} c[m, k]; B[j, m-1] = b_{j+m} for m <= R =
    b.analytic_pad(eps), from one certified FFT of b, and C = _flip_matrix.
    C's uncut columns have unit l2 norm (J is an isometry), so an entry
    loses at most the l2 norm of b_{R+1}, b_{R+2}, ... to the cut: the
    returned tail.  Returns (B, C, tail), B n x R and C R x n (R = 0 where
    H(b) = 0).  GridTooSmall when the tail exceeds ENTRY_TAIL_TOL *
    max(1, |H|), or B would outgrow both the section and FFT_CAP; B @ C is
    formed only for a tail above ENTRY_TAIL_TOL."""
    r = b.analytic_pad(np.finfo(float).eps)
    if r == 0:   # no analytic coefficient of positive index: H(b) = 0
        empty = np.zeros((n, 0), dtype=complex)
        return empty, empty.T, 0.0
    if n * r > max(n * n, FFT_CAP):
        raise GridTooSmall(f"hankel window R={r} is too wide for N={n}")
    co = fourier_coefficients(b, (1, n - 1 + 2 * r)).coeffs
    tail = float(np.linalg.norm(co[r:]))
    hank = np.lib.stride_tricks.sliding_window_view(co[: n - 1 + r], r).copy()   # B
    flip = _flip_matrix(shift, r, n)
    if tail > ENTRY_TAIL_TOL and tail > ENTRY_TAIL_TOL * np.max(np.abs(hank @ flip)):
        raise GridTooSmall(f"hankel window R={r} leaves a tail of {tail:.3e}")
    return hank, flip, tail


def _flip_matrix(shift: ShiftParams, r: int, n: int) -> np.ndarray:
    """C[m-1, k], the coefficient of t^-m in J t^k, for m <= r and k < n.

    Column 0 is lam conj(beta)^-m and column k+1 is L (column k), L the
    lower-triangular Toeplitz matrix of alpha = (1 - beta s)/(conj(beta) - s)
    in s = 1/t, so cutting at r rows is exact.  Columns K .. 2K-1 are L^K
    (columns 0 .. K-1): an FFT convolution with alpha^K."""
    geometric = np.conj(shift.beta) ** -np.arange(1.0, r + 1)
    alpha = (1.0 - abs(shift.beta) ** 2) * geometric
    alpha[0] = geometric[0]
    size = 1 << (2 * r - 1).bit_length()   # no wrap-around in a product of two r-windows
    power = np.fft.fft(alpha, size)   # of alpha^K
    flip = np.empty((n, r), dtype=complex)   # rows are columns of C
    flip[0] = shift.lam * geometric
    for done in (2**k for k in range((n - 1).bit_length())):
        width = min(done, n - done)
        flip[done : done + width] = np.fft.ifft(np.fft.fft(flip[:width], size) * power)[:, :r]
        power = np.fft.fft(np.fft.ifft(power * power)[:r], size)
    flip[np.abs(flip) < np.sqrt(np.finfo(float).tiny)] = 0.0   # c ~ |beta|^-k: no subnormals
    return flip.T


def _refuse_oversized(n: int, size: int) -> None:
    """InputError unless n >= 8 and four size x size complex blocks fit
    MAX_SECTION_BYTES (size is 2n for a block section, else n).

    operator_section and pair_sections check this before they allocate.  A
    pair section holds no n x n block.  A null space holds none on the
    structured path (_augmented_solves), and one on the dense path, M',
    factored in place (two on the np.linalg.solve fallback, with LAPACK's
    copy), so two null spaces at once hold four at most.  Blocks are
    unmapped when freed (the mmap threshold), so these counts are what
    stays resident."""
    if n < 8:
        raise InputError(f"section size {n} is below 8")
    need = 4 * size * size * np.dtype(complex).itemsize
    if need > MAX_SECTION_BYTES:
        raise InputError(
            f"a {size} x {size} section needs {need / 2**30:.3g} GiB for four blocks, "
            f"over the bound MAX_SECTION_BYTES = {MAX_SECTION_BYTES / 2**30:g} GiB"
        )


def pair_sections(payload, shift: ShiftParams, n: int) -> dict[str, FiniteSection]:
    """The sections of T(a) + H(b) and T(a) - H(b), keyed '+' and '-'.

    payload is a MatchingPair or an (a, b) tuple of rational symbols.  T(a)
    and H(b) are assembled once, as the factors both sections share
    (FiniteSection): T(a)'s window and the FFT of its circulant embedding,
    and B and C from _hankel_entries.  No n x n block is written.
    """
    a, b = (payload.a, payload.b) if isinstance(payload, MatchingPair) else payload
    _refuse_oversized(n, n)
    window = _toeplitz_entries(a, n)
    hank, flip, _ = _hankel_entries(b, shift, n)
    # T's first column a_0 .. a_(n-1), then its first row's a_(1-n) .. a_(-1)
    eig = np.fft.fft(np.concatenate((window[n - 1 :], [0.0], window[: n - 1])))
    meta = {"margin": max(_symbol_margin(a), _symbol_margin(b) + shift.pad)}
    return {
        "+": FiniteSection(n, None, "plus", dict(meta), (eig, hank, flip, 1.0, window)),
        "-": FiniteSection(n, None, "minus", meta, (eig, hank, flip, -1.0, window)),
    }


def operator_section(
    kind: str,
    payload,
    shift: ShiftParams,
    n: int,
) -> FiniteSection:
    """Build the N x N (or 2N x 2N for the block) section.

    kind is one of 'toeplitz', 'hankel', 'plus', 'minus', 'block'.
    'toeplitz'/'hankel' take a single symbol, the others a MatchingPair or
    an (a, b) tuple of symbols.  'plus' and 'minus' come from
    pair_sections, which builds both; callers that need both use it.
    """
    _refuse_oversized(n, 2 * n if kind == "block" else n)
    if kind in ("toeplitz", "hankel"):
        sym = payload
        if not isinstance(sym, RationalSymbol):
            from .pc import pc_toeplitz_entries  # local import: pc imports this module

            if kind == "hankel":
                raise ValueError("hankel sections require a rational symbol")
            entries, _ = pc_toeplitz_entries(sym, shift, n)
            return FiniteSection(n, entries, kind, {"margin": n // 2})
        if kind == "toeplitz":
            entries = _toeplitz_window(_toeplitz_entries(sym, n), n).copy()
            margin = _symbol_margin(sym)
        else:
            hank, flip, _ = _hankel_entries(sym, shift, n)
            entries = hank @ flip
            margin = _symbol_margin(sym) + shift.pad
        return FiniteSection(n, entries, kind, {"margin": margin})
    if kind in ("plus", "minus"):
        return pair_sections(payload, shift, n)["+" if kind == "plus" else "-"]
    if kind == "block":
        if isinstance(payload, MatchingPair):
            pair = payload
        else:
            pair = make_matching_pair(*payload, shift)
        tc, td, taai = (_toeplitz_window(_toeplitz_entries(s, n), n)
                        for s in (pair.c, pair.d, pair.a_alpha_inv))
        z = np.zeros((n, n), dtype=complex)
        entries = np.block([[z, td], [-tc, taai]])
        margin = max(_symbol_margin(pair.c), _symbol_margin(pair.d),
                     _symbol_margin(pair.a_alpha_inv))
        return FiniteSection(2 * n, entries, kind, {"margin": margin, "halves": n})
    raise ValueError(f"unknown section kind {kind!r}")


@dataclass(frozen=True)
class NullSpace:
    dim: int
    right: np.ndarray          # columns span ker(M)
    left: np.ndarray           # columns span ker(M^H)


def numerical_null_space(section: FiniteSection) -> NullSpace:
    """Null space from the solves of one augmented section, with a certified
    spectral gap.

    sigma_max is estimated (from below) by Golub-Kahan-Lanczos
    (_norm_estimate): PEAK_LANCZOS_STEPS steps from the Fourier mode at the
    peak of |a| for a pair section, LANCZOS_STEPS from a random start for
    any other; singular values at or below the cut
    SVD_TOL * sigma_max count as zero, and only the zero section has an
    estimate of 0 and a null space of everything.

    Right basis V.  With M' = M + sigma_max Y Z^H, Y and Z seeded n x p
    blocks (p = SKETCH), a null vector v of M is M'^-1 Y (sigma_max Z^H v):
    for k <= p the null space lies in the range of M'^-1 Y, and the left one
    in that of M'^-H Z.  Two solves give M'^-1 [Y, M'^-H Z], the second half
    a step of inverse iteration for dropped values that are not zero.  The
    thin SVD of M Q, Q an orthonormal basis of that range, gives Ritz
    values (upper bounds on the smallest singular values) and V, the Ritz
    vectors of those at or below the cut.  p doubles while M' is singular
    (or a solve with a structured M' fails its gate), more than p Ritz
    values are under the cut, or PROBES extra right-hand sides show
    sigma_min(M') <= cut (as k > p forces).

    Left basis and certificate.  One solve with M'' = M + sigma_max W0 V^H,
    W0 the matching left Ritz vectors from M'^-H Z, gives W = M''^-H V,
    orthonormalized (M^H W lies in span V, so W has no component along the
    kept left singular vectors), and M''^-H G for PROBES seeded columns G.
    The dropped values are at most ||M V||_2 (Courant-Fischer); the kept
    ones at least sigma_min(M'') >= 1 / (HMT sqrt(n) max_i ||M''^-H g_i||),
    a rank-k update and Halko, Martinsson and Tropp's norm bound, which
    fails with probability (1 / HMT^2)^PROBES ~ 6e-8.  W0 makes M'' nearly M
    with its null space lifted to sigma_max; with a random block there the
    bound fell 35 times short of the smallest kept value (chi^-10 at beta
    1.5+0.5j, N = 128).  The split is certified when the bound exceeds the
    cut and SVD_GAP ||M V||_2.  If it does not but the (k+1)-th Ritz value
    does, one power step (two more solves with M'') sharpens it
    to (HMT sqrt(n) max_i ||B B^H B g_i||)^(-1/3), B = M''^-H; else, or if
    it still falls short, NoSpectralGap.  So a certified split has the k and
    the gap that the full singular spectrum gives, but where the smallest
    kept value is below about (HMT sqrt(2 n))^(1/3) (5 at N = 128, 7 at
    N = 1024) times max(cut, SVD_GAP * largest dropped), NoSpectralGap may
    come where the full SVD finds the gap.  Both bases must also leave a
    residual below the cut.

    Every product with M (the Lanczos steps, both Rayleigh-Ritz steps, the
    residuals ||M V|| and ||M^H W||, the refinement of the solves with M'
    and M'') is the section's product or adjoint_product: for a pair
    section they go through its factors, and no dense entries are read.

    No n x n SVD, least-squares solve or inverse is taken.  M''s solves come
    from _augmented_solves, once per sketch width: for a pair section that
    _cheaper passes, through its circulant-plus-low-rank structure
    (_Woodbury), else from one factorization of the formed M' (_factor).
    Where M' took the structured path, M'' comes from the same builder,
    solved through S with a capacitance of R + rank(E) + k columns (formed
    and factored where _cheaper refuses that width).  Else
    M'' = M' + L R^H, with L = sigma_max [W0, -Y] and R = [V, Z] (at k = 0,
    M'' = M), is solved on both sides through M''s solves by the Woodbury
    identity (_Woodbury), so neither M'' nor the power step adds a
    factorization.  One rule holds for every solve through _Woodbury: it is
    refined once and gated by its backward error (SOLVE_BACKWARD_TOL); a
    failed gate with M' widens the sketch, and one with M'' is
    NoSpectralGap, as a wider sketch leaves M'' as it is.  A singular M''
    (a singular capacitance) is NoSpectralGap too.  Besides the section,
    on the structured path no n x n block is held but a formed M''; on the
    dense path one: M', which zgetrf overwrites with its factors, until the
    null space returns (on the np.linalg.solve fallback also LAPACK's copy
    of it, factored again for every solve).  The rest is
    O(n (R + rank(E) + p + k)): the factors' products, the solves' columns
    and the Lanczos vectors.
    """
    n = section.size
    rng = np.random.default_rng(0)
    smax = _norm_estimate(section, rng)
    if smax == 0.0:
        return NullSpace(n, np.eye(n, dtype=complex), np.eye(n, dtype=complex))
    cut = SVD_TOL * smax
    p = min(SKETCH, n)
    augmented = _augmented_solves(section, smax)
    while True:
        y, z, g = _gaussian(rng, n, p), _gaussian(rng, n, p), _gaussian(rng, n, PROBES)
        try:
            lu = augmented(smax * y, z)   # M'
            adj = lu.solve_adjoint(np.hstack((z, g)))         # M'^-H [Z, G]
            span = lu.solve(np.hstack((y, adj[:, :p])))      # M'^-1 [Y, M'^-H Z]
        except (np.linalg.LinAlgError, NoSpectralGap, NumericalBreakdown):
            lu = adj = None   # M' singular, or a structured solve failed its gate
        if adj is not None:
            right, ritz = _ritz(section.product, span, cut)
            k = right.shape[1]
            growth = np.linalg.norm(adj[:, p:], axis=0) / np.linalg.norm(g, axis=0)
            if p == n or (k <= p and np.max(growth) * cut < 1):
                break
        elif p == n:
            raise NoSpectralGap("augmented section is singular")
        lu = None   # frees M' before the wider sketch is factored
        p = min(2 * p, n)
    near_left = _ritz(section.adjoint_product, adj[:, :p], cut, k)[0]
    dropped = float(np.linalg.norm(section.product(right), 2))
    below(dropped, cut, NoSpectralGap, "residual of the right null vectors")
    need = max(cut, SVD_GAP * dropped)   # the cut, or SVD_GAP over the dropped values
    above(ritz[-1 - k], need, NoSpectralGap, "smallest kept Ritz value")   # ritz descending
    try:   # M''
        if isinstance(lu, (_LU, _Solve)):   # a dense M'
            lu = _Woodbury(section, smax, lu, (smax * near_left, right),
                           (smax * y, z, smax * span[:, :p], adj[:, :p]))
        else:
            lu = augmented(smax * near_left, right)
        solved = lu.solve_adjoint(np.hstack((right, _gaussian(rng, n, PROBES))))
        kept = _smallest_bound(solved[:, k:])
        if not kept > need:   # one power step
            probes = lu.solve_adjoint(lu.solve(solved[:, k:]))
            kept = _smallest_bound(probes, 3)
    except np.linalg.LinAlgError as exc:
        raise NoSpectralGap(f"augmented section is singular ({exc})") from None
    above(kept, need, NoSpectralGap, "lower bound on the kept singular values")
    left = _orth(solved[:, :k], k)
    below(float(np.linalg.norm(section.adjoint_product(left), 2)), cut, NoSpectralGap,
          "residual of the left null vectors")
    return NullSpace(k, right, left)


def _gaussian(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    # columns of norm about 1, so sigma_max Y V^H is as large as M
    return (rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))) / np.sqrt(2 * n)


def _orth(a: np.ndarray, k: int) -> np.ndarray:
    return np.linalg.svd(a, full_matrices=False)[0][:, :k]


def _linalg() -> tuple[ctypes.CDLL, str] | None:
    """numpy's linalg extension opened by ctypes, whose dlsym also searches
    the libraries it links (the BLAS and LAPACK numpy calls), and the suffix
    of their scipy-openblas symbols: 64_ where numpy's LAPACK integers are 64
    bits wide (_ilp64).  None where numpy does not say."""
    ilp64 = getattr(np.linalg._umath_linalg, "_ilp64", None)
    if ilp64 is None:
        return None
    return ctypes.CDLL(np.linalg._umath_linalg.__file__), "64_" if ilp64 else ""


@functools.cache
def _lapack():
    """(integer type, zgetrf, zgetrs) of the scipy-openblas LAPACK that numpy
    calls (_linalg), or None where it is not found; bound on the first null
    space.  ctypes releases the GIL for the call, so null_dims' threads overlap."""
    linalg = _linalg()
    if linalg is None:
        return None
    lib, suffix = linalg
    try:
        getrf, getrs = lib["scipy_zgetrf_" + suffix], lib["scipy_zgetrs_" + suffix]
    except AttributeError:
        return None
    integer = ctypes.c_int64 if suffix else ctypes.c_int32
    num, ptr = ctypes.POINTER(integer), ctypes.c_void_p
    getrf.argtypes = [num, num, ptr, num, ptr, num]
    getrs.argtypes = [ctypes.c_char_p, num, num, ptr, num, ptr, ptr, num, num]
    getrf.restype = getrs.restype = None
    return integer, getrf, getrs


@functools.cache
def _blas_threads():
    """OpenBLAS's own getter of the threads it gives each call (_linalg):
    scipy_openblas_get_num_threads with its suffix, else the plain OpenBLAS
    openblas_get_num_threads (untried: numpy's wheels ship scipy-openblas);
    None where neither is found (Accelerate, MKL)."""
    linalg = _linalg()
    if linalg is None:
        return None
    lib, suffix = linalg
    getter = (getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
              or getattr(lib, "openblas_get_num_threads", None))
    if getter is not None:
        getter.argtypes, getter.restype = [], ctypes.c_int
    return getter


def _augmented_solves(section: FiniteSection, scale: float):
    """The solves of numerical_null_space's M' (and M'') = M + left right^H,
    as a function of (left, right); scale is about ||M||.  The one place
    that chooses between the dense and the structured path.

    Dense path: LAPACK's LU of the block section.augmented forms (_factor).
    It serves sections without factors, the cross-check of the other path,
    and pair sections of n < 224, a capacitance over n/8 columns or corners
    past 2n/7 rows (_cheaper), or whose S is singular to eps scale.

    Structured path, for a pair section: M' is never formed.  T = S + E, S
    the Strang circulant of T's own window (a_0 .. a_(h-1), then a_(h-n) ..
    a_-1, h = n // 2), solved by one FFT pair (_Circulant), and E = T - S
    its two Toeplitz corner triangles, cut to their entries above eps scale
    and compressed to their singular values above that (_corner).  So S =
    M + P0 Q0^H to about 4 eps scale, P0 = -[E's left factors, sign B] and
    Q0 = [E's right factors, C^H], and M' = S + [left, -P0] [right, Q0]^H
    is solved by _Woodbury through S: a capacitance of R + rank(E) + p
    columns (7-55 on the four benchmark pairs at N = 1024), each solve
    refined once against the exact M' and gated by SOLVE_BACKWARD_TOL.
    S^-1 P0 and S^-H Q0 are taken once per null space, so a wider sketch,
    and M'' with left = sigma_max W0 and right = V, cost a new capacitance,
    not a new factorization.  A solve that fails its gate, or a singular
    capacitance, raises to numerical_null_space.  Held:
    O(n (R + rank(E) + p)), no n x n block."""

    def dense(left, right):
        return _factor(section.augmented(left, right))

    if section.factors is None:
        return dense
    n = section.size
    _, hank, flip, sign, window = section.factors
    h = n // 2
    eig = np.fft.fft(np.concatenate((window[n - 1 : n - 1 + h], window[h - 1 : n - 1])))
    tol = np.finfo(float).eps * scale
    neg, pos = window[n - 2 :: -1], window[n:]   # a_-1 .. a_(1-n) and a_1 .. a_(n-1)
    # E's diagonals from its corners on: a_(n-s) - a_-s lower left, a_(s-n) - a_s upper right
    tips = [(pos[::-1] - neg)[: n - h], (neg[::-1] - pos)[: h - 1]]
    extents = [_extent(tip, tol) for tip in tips]
    # the narrowest capacitance, E's rank aside: R + the first sketch width
    if not (np.min(np.abs(eig)) > tol and _cheaper(n, extents, hank.shape[1] + min(SKETCH, n))):
        return dense
    (p_l, q_l), (p_u, q_u) = (_corner(tip, m, n, tol) for tip, m in zip(tips, extents))
    # the upper-right triangle is the lower-left one of its diagonals, rows and columns reversed
    p0 = -np.hstack((p_l, p_u[::-1], sign * hank))
    q0 = np.hstack((q_l, q_u[::-1], flip.conj().T))
    circulant = _Circulant(1.0 / eig)
    drop = (p0, q0, circulant.solve(p0), circulant.solve_adjoint(q0))

    def solves(left, right):
        if not _cheaper(n, extents, q0.shape[1] + right.shape[1]):
            return dense(left, right)
        return _Woodbury(section, scale, circulant, (left, right), drop)

    return solves


def _extent(tip: np.ndarray, tol: float) -> int:
    """How many leading entries of tip reach its last one above tol."""
    big = np.flatnonzero(np.abs(tip) > tol)
    return int(big[-1]) + 1 if len(big) else 0


def _corner(tip: np.ndarray, m: int, n: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """n-row factors (P, Q), block ~ P Q^H, of the lower-left m x m block of
    the Toeplitz triangle whose diagonals from the corner on are tip: its
    rows reversed, the block is the Hankel matrix H[i, k] = tip[i + k] (zero
    past tip's end), cut to its singular values above tol."""
    if m == 0:
        return np.zeros((n, 0), dtype=complex), np.zeros((n, 0), dtype=complex)
    padded = np.concatenate((tip, np.zeros(m, dtype=complex)))[: 2 * m - 1]
    u, s, vh = np.linalg.svd(np.lib.stride_tricks.sliding_window_view(padded, m))
    r = int(np.sum(s > tol))
    p, q = np.zeros((n, r), dtype=complex), np.zeros((n, r), dtype=complex)
    p[n - m :] = u[::-1, :r] * s[:r]
    q[:m] = vh[:r].conj().T
    return p, q


def _cheaper(n: int, extents, rank: int) -> bool:
    """Whether the structured path (_augmented_solves) beats the LU for a
    section of n rows, corners of the given extents and a capacitance of
    rank columns.  Each comparison marks where one of its costs outgrows the
    LU's: the fixed cost, about 0.9 ms + 6.3 n us, below n = 224; a
    capacitance wider than n/8 columns; corners past 2n/7 rows, whose m x m
    SVDs then cost more.  It picked the faster path on all 112 pair sections
    timed both ways (n = 64-1024, R <= 172, one BLAS thread, 2-core host)."""
    return n >= 224 and 8 * rank <= n and 7 * max(extents) <= 2 * n


class _Circulant:
    """The solves of the circulant with eigenvalues 1 / inv: one FFT pair each."""

    def __init__(self, inv: np.ndarray):
        self._inv = inv

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return _circulant(self._inv, rhs)

    def solve_adjoint(self, rhs: np.ndarray) -> np.ndarray:
        return _circulant(self._inv.conj(), rhs)


def _factor(aug: np.ndarray) -> _LU | _Solve:
    """The solves of aug: LAPACK's LU of aug, taken once (_LU), or the
    fallback _Solve where the LAPACK is not bound.  aug is overwritten with
    its factors unless it is a read-only block, which is copied first."""
    lapack = _lapack()
    return _Solve(aug) if lapack is None else _LU(aug, lapack)


class _LU:
    """aug^-1 and aug^-H from one zgetrf of aug, taken in place.

    aug's C-order buffer read column-major is aug^T, so zgetrf factors aug^T
    without a copy; aug x = b is getrs('T'), and aug^H x = b is getrs('N') on
    conj(b), conjugated back.  ctypes ignores numpy's write flag, so a block
    that is not a writeable C-order array of its own (a section's entries;
    numerical_null_space hands over only fresh augmented blocks) is copied
    before it is factored.  Shapes are checked before a pointer is
    passed, and raise ValueError as in np.linalg.solve; a singular block
    raises LinAlgError, as there."""

    def __init__(self, aug: np.ndarray, lapack):
        self._int, getrf, self._getrs = lapack
        self._lu = np.require(aug, complex, ["C", "O", "W"])
        n = len(self._lu)
        if self._lu.shape != (n, n):
            raise ValueError(f"cannot factor a block of shape {self._lu.shape}")
        self._n = self._int(n)
        self._ipiv = np.empty(n, dtype=self._int)
        info = self._int()
        getrf(self._n, self._n, self._lu.ctypes.data, self._n, self._ipiv.ctypes.data, info)
        _check_info("zgetrf", info.value)

    def _run(self, trans: bytes, b: np.ndarray) -> np.ndarray:
        if b.ndim != 2 or len(b) != self._n.value:
            raise ValueError(f"right-hand sides of shape {b.shape} for {self._n.value} rows")
        info = self._int()
        self._getrs(trans, self._n, self._int(b.shape[1]), self._lu.ctypes.data, self._n,
                    self._ipiv.ctypes.data, b.ctypes.data, self._n, info)
        _check_info("zgetrs", info.value)
        return b

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._run(b"T", np.array(rhs, dtype=complex, order="F"))

    def solve_adjoint(self, rhs: np.ndarray) -> np.ndarray:
        b = self._run(b"N", np.array(rhs.conj(), dtype=complex, order="F"))
        return np.conj(b, out=b)


class _Solve:
    """The fallback of _LU: holds aug and calls np.linalg.solve per solve,
    which copies aug and factors the copy each time."""

    def __init__(self, aug: np.ndarray):
        self._aug = aug

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self._aug, rhs)

    def solve_adjoint(self, rhs: np.ndarray) -> np.ndarray:
        # aug^T conj(X) = conj(rhs) is aug^H X = rhs without an n x n conjugate copy
        return np.linalg.solve(self._aug.T, rhs.conj()).conj()


class _Woodbury:
    """Solves with M'' = M + P Q^H, M the section and (P, Q) = lift, through
    the solves of M' = M + P0 Q0^H (lu), given drop = (P0, Q0, M'^-1 P0, M'^-H Q0).

    M'' = M' + L R^H with L = [P, -P0] and R = [Q, Q0], so by the Woodbury
    identity (Hager, SIAM Review 31, 1989)
        M''^-1 b = M'^-1 b - (M'^-1 L) C^-1 R^H M'^-1 b,   C = I + R^H M'^-1 L,
        M''^-H b = M'^-H b - (M'^-H R) C^-H L^H M'^-H b,   C^H = I + L^H M'^-H R;
    the lift's two solves, M'^-1 P and M'^-H Q, and both C are taken when
    it is built.  Each side takes its C from its own solves, as the fallback
    factors M' and M'^T apart.  C can be far worse conditioned than M' and
    M'' (5e13, chi^-10 at beta 1.5+0.5j, N = 256), so each solve is refined
    once against M x + P (Q^H x), or its adjoint, M x from section.product
    (structured for a pair section), and raises NoSpectralGap if a column's
    normwise backward error ||b - M'' x|| / (scale ||x|| + ||b||), scale
    about ||M''||, is then not below SOLVE_BACKWARD_TOL.  A singular C
    raises LinAlgError.

    It serves twice: M'' through the LU of M' (numerical_null_space, on the
    dense path), and a pair section's M' and M'' through the Strang
    circulant S (_augmented_solves), for which M + P0 Q0^H = S holds to the
    cut of T's corners, a difference the refinement takes out."""

    def __init__(self, section: FiniteSection, scale: float, lu, lift, drop):
        (p, q), (p0, q0, inv_p0, adj_q0) = lift, drop
        self._section, self._scale, self._lu, self._p, self._q = section, scale, lu, p, q
        self._left_h, self._right_h = np.hstack((p, -p0)).conj().T, np.hstack((q, q0)).conj().T
        self._inv_left = np.hstack((lu.solve(p), -inv_p0))          # M'^-1 L
        self._adj_right = np.hstack((lu.solve_adjoint(q), adj_q0))  # M'^-H R
        eye = np.eye(len(self._left_h))
        self._c = eye + self._right_h @ self._inv_left
        self._c_adj = eye + self._left_h @ self._adj_right

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        def first(b):
            x = self._lu.solve(b)
            return x - self._inv_left @ np.linalg.solve(self._c, self._right_h @ x)

        return self._refined(
            rhs, first, lambda x: self._section.product(x) + self._p @ (self._q.conj().T @ x))

    def solve_adjoint(self, rhs: np.ndarray) -> np.ndarray:
        def first(b):
            x = self._lu.solve_adjoint(b)
            return x - self._adj_right @ np.linalg.solve(self._c_adj, self._left_h @ x)

        return self._refined(
            rhs, first,
            lambda x: self._section.adjoint_product(x) + self._q @ (self._p.conj().T @ x))

    def _refined(self, b, first, apply) -> np.ndarray:
        x = first(b)
        x += first(b - apply(x))
        size = self._scale * np.linalg.norm(x, axis=0) + np.linalg.norm(b, axis=0)
        worst = np.max(np.linalg.norm(b - apply(x), axis=0) / size, initial=0.0)
        below(worst, SOLVE_BACKWARD_TOL, NoSpectralGap,
              "backward error of a refined solve with the lifted section")
        return x


def _check_info(routine: str, info: int) -> None:
    """LAPACK's info: a zero pivot is a singular block (LinAlgError), a bad
    argument a fault of this module (RuntimeError, not malformed input)."""
    if info > 0:
        raise np.linalg.LinAlgError(f"Singular matrix ({routine}: U[{info}, {info}] is zero)")
    if info < 0:
        raise RuntimeError(f"{routine}: argument {-info} is invalid")


def _smallest_bound(probes: np.ndarray, power: int = 1) -> float:
    """Lower bound on sigma_min(A) from probes = (B B^H)^q B G, with B = A^-1
    or A^-H, 2q + 1 = power and G from _gaussian (numerical_null_space)."""
    top = np.sqrt(len(probes)) * HMT * np.max(np.linalg.norm(probes, axis=0))
    return float(top ** (-1.0 / power))


def _norm_estimate(section: FiniteSection, rng: np.random.Generator) -> float:
    """sigma_max of the section from Golub-Kahan-Lanczos bidiagonalization with full
    reorthogonalization: the largest singular value of the bidiagonal B,
    from the eigenvalues of B^H B.  The start is rng's first unit vector g.
    For a pair section it is exp(i theta j) / sqrt(n) + 0.3 g, normalized,
    theta = 2 pi m / len(eig) where |eig| (a's samples on T's circulant)
    peaks at m: T(a) + H(b) is T(a) plus a compact part, so its largest
    singular values lie near max |a| with vectors near that Fourier mode,
    and g keeps every other direction in reach.  Stops at
    PEAK_LANCZOS_STEPS steps from that start, LANCZOS_STEPS from g alone,
    or when alpha or beta falls to rounding level relative to the largest
    alpha (an invariant subspace: the identity stops after one step, the
    zero section before any).  Each step takes one product and one adjoint
    product of the section (FiniteSection), so no copy of M^H is made."""
    n = section.size
    v = _gaussian(rng, n, 1)[:, 0]
    v /= np.linalg.norm(v)
    steps = min(LANCZOS_STEPS, n)
    if section.factors is not None:
        eig = section.factors[0]
        theta = 2 * np.pi * np.argmax(np.abs(eig)) / len(eig)
        v = np.exp(1j * theta * np.arange(n)) / np.sqrt(n) + 0.3 * v
        v /= np.linalg.norm(v)
        steps = min(PEAK_LANCZOS_STEPS, n)
    us = np.zeros((steps, n), dtype=complex)
    vs = np.zeros((steps, n), dtype=complex)
    alphas, betas = [], []
    floor = n * np.finfo(float).eps
    u = np.zeros(n, dtype=complex)
    beta = scale = 0.0
    for j in range(steps):
        vs[j] = v
        u = section.product(v) - beta * u
        for _ in range(2):   # Gram-Schmidt twice
            u -= us[:j].T @ (us[:j].conj() @ u)
        alpha = float(np.linalg.norm(u))
        scale = max(scale, alpha)
        if alpha <= floor * scale:
            break
        u /= alpha
        us[j] = u
        alphas.append(alpha)
        w = section.adjoint_product(u) - alpha * v
        for _ in range(2):
            w -= vs[: j + 1].T @ (vs[: j + 1].conj() @ w)
        beta = float(np.linalg.norm(w))
        if beta <= floor * scale or j == steps - 1:
            break
        v = w / beta
        betas.append(beta)
    if not alphas:
        return 0.0
    b = np.diag(alphas) + np.diag(betas[: len(alphas) - 1], 1)
    return float(np.sqrt(np.linalg.eigvalsh(b.T @ b)[-1]))


def _ritz(
    apply, span: np.ndarray, cut: float, k: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Rayleigh-Ritz for the smallest singular values of the operator that
    apply multiplies by, on the range of span: the Ritz vectors of the k
    smallest Ritz values (k: those at or below cut) and all Ritz values,
    descending."""
    norms = np.linalg.norm(span, axis=0)
    if not 0 < norms.min() <= norms.max() < np.inf:
        raise NumericalBreakdown("a column of the sketch left the float range")
    q = np.linalg.qr(span / norms)[0]
    _, ritz, vh = np.linalg.svd(apply(q), full_matrices=False)
    if k is None:
        k = int(np.sum(ritz <= cut))
    return q @ vh[len(ritz) - k :].conj().T, ritz


def localized_null_dims(ns: NullSpace, size: int) -> tuple[int, int]:
    """Genuine (kernel, cokernel) dimensions from a section's null space.

    A square section has equal right and left null counts, but vectors that
    only reflect the truncation carry their mass near the cut.  The genuine
    dimension is the number of directions in the null space with at least
    half of their l2 mass in the first half of the coordinates: the
    eigenvalues >= 0.5 of the Gram matrix V[:half]^H V[:half] of the
    orthonormal basis V, which do not depend on the basis chosen.  The
    spurious directions escape to infinity with the section size and are
    discarded.
    """
    half = size // 2

    def genuine(vectors: np.ndarray) -> int:
        head = vectors[:half]
        return int(np.sum(np.linalg.eigvalsh(head.conj().T @ head) >= 0.5))

    return genuine(ns.right), genuine(ns.left)


def _concurrent_sections(count: int) -> int:
    """How many of count sections null_dims may solve at once: the usable
    CPUs divided by the threads OpenBLAS gives each call, as its own getter
    reports them (_blas_threads), and 1 where that getter is not found."""
    threads = _blas_threads()
    if threads is None:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(count, (cpus or 1) // threads()))


def null_dims(sections: dict[str, FiniteSection], signs) -> dict[str, tuple[int, int]]:
    """Localized (kernel, cokernel) dimensions of sections[sign], per sign.

    The null spaces of the first _concurrent_sections sections are solved
    at once, all but the first in worker threads, if the sections have
    CONCURRENT_MIN_SIZE rows or more; two at once fit the four blocks that
    _refuse_oversized admitted for each.  The rest are solved in turn in
    this thread.  The first overlap
    keeps a second OpenBLAS work buffer resident (2.6 MB at N = 1024).
    Errors are raised once every thread has ended, the first in sign
    order.  The n x n blocks are unmapped when freed (the mmap threshold
    set on import); the heap is trimmed after, so that the smaller blocks
    freed inside it do not keep its pages resident.
    """
    signs = list(signs)
    size = max((sections[sign].size for sign in signs), default=0)
    width = _concurrent_sections(len(signs)) if size >= CONCURRENT_MIN_SIZE else 1
    spaces = {}

    def solve(sign):
        try:
            spaces[sign] = numerical_null_space(sections[sign])
        except Exception as exc:   # raised again in the calling thread, in sign order
            spaces[sign] = exc

    workers = [threading.Thread(target=solve, args=(sign,)) for sign in signs[1:width]]
    if workers:
        for worker in workers:
            worker.start()
        try:
            solve(signs[0])
        finally:
            for worker in workers:
                worker.join()
    dims = {}
    for sign in signs:
        ns = spaces.pop(sign) if sign in spaces else numerical_null_space(sections[sign])
        if isinstance(ns, Exception):
            raise ns
        dims[sign] = localized_null_dims(ns, sections[sign].size)
    _MALLOC_TRIM(0)
    return dims


def residual_check(section: FiniteSection, f: TruncatedSeries, adjoint: bool = False) -> float:
    """|| M coeffs(f) ||_2 / || coeffs(f) ||_2 for analytic f, M the section,
    or M^H with adjoint: one product or adjoint_product of the section,
    structured for a pair section (FiniteSection), so no n x n block is
    read or copied."""
    if section.kind == "block":
        raise ValueError("use block_residual_check for block sections")
    n = section.size
    if f.hi + section.margin >= n:
        raise WindowTooTight(
            f"support up to t^{f.hi} with margin {section.margin} exceeds N={n}"
        )
    vec = f.to_vector(n)
    exps = f.lo + np.arange(len(f.coeffs))
    outside = f.coeffs[(exps < 0) | (exps >= n)]
    if len(outside):
        below(np.linalg.norm(outside), 1e-12 * max(f.norm(), 1e-300), WindowTooTight,
              "norm of the input's coefficients outside the section")
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        return 0.0
    apply = section.adjoint_product if adjoint else section.product
    return float(np.linalg.norm(apply(vec)) / nrm)


def block_residual_check(
    section: FiniteSection, f: TruncatedSeries, g: TruncatedSeries
) -> float:
    """Residual of a stacked (f, g) vector against a block section."""
    n = section.meta["halves"]
    vec = np.concatenate([f.to_vector(n), g.to_vector(n)])
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        return 0.0
    return float(np.linalg.norm(section.entries @ vec) / nrm)


def dump_section(section: FiniteSection, path) -> None:
    """Binary dump: 16-byte header (magic, u32 version, u64 N), then
    row-major interleaved re/im float64, little-endian."""
    with open(path, "wb") as fh:
        fh.write(DUMP_MAGIC + struct.pack("<IQ", DUMP_VERSION, section.size))
        fh.write(section.entries.astype("<c16").tobytes())


def load_section(path) -> FiniteSection:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if header[:4] != DUMP_MAGIC:
            raise ValueError("bad magic")
        version, n = struct.unpack("<IQ", header[4:])
        if version != DUMP_VERSION:
            raise ValueError(f"unsupported version {version}")
        raw = np.frombuffer(fh.read(), dtype="<f8").reshape(n, n, 2)
    return FiniteSection(int(n), raw[:, :, 0] + 1j * raw[:, :, 1], "loaded", {})

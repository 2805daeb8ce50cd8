"""Finite-section numerical oracle.

Truncated matrices of the Toeplitz, flip-Hankel, sum/difference and 2x2
block operators in the Fourier basis, plus null spaces and residual
checks.  Everything analytic elsewhere in the package is cross-validated
against these sections; the sections themselves are built from certified
coefficient windows (exact partial fractions for Toeplitz, FFT grids with
geometric-tail certificates for the Hankel columns).

The Hankel grid is sized from the bandwidth of the flip images, about
n (|beta|+1)/(|beta|-1) exponents, so it is not doubled after a failed
tail test when |beta| is near 1.  The powers of alpha on the grid come from
a running product over column blocks of at most HANKEL_BLOCK values, one
FFT per block, so memory stays bounded as N grows; the tail certificate
(rows m/2 +- 2 of every block against ENTRY_TAIL_TOL, a 2**22 grid cap)
is checked as before.  pair_sections assembles T(a) and H(b) once and
returns both T(a) + H(b) and T(a) - H(b).

A section's null dimension and its spectral-gap certificate come from its
singular values alone; the k null vectors come from one LU of the section
plus a rank-k random term and a Rayleigh-Ritz step over 2k vectors, not
from a full SVD with every singular vector, and are checked by their
residuals.  Localization counts the directions of the null space with
most of their mass in the first half of the coordinates, whatever basis
the null space is given in.

All computations use the coefficient l2 geometry.  Rational symbols are
Fredholm with the same defect numbers on every Hardy space of the admitted
class, so a single oracle geometry suffices; genuinely p-sensitive
piecewise-continuous symbols are outside what this oracle can adjudicate.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
import numpy as np
import scipy.linalg

from .errors import GridTooSmall, NoSpectralGap, WindowTooTight
from .matching import MatchingPair
from .rational import RationalSymbol
from .series import TruncatedSeries, fourier_coefficients
from .shift import ShiftParams, eval_alpha

SVD_TOL = 1e-8
SVD_GAP = 100.0
ENTRY_TAIL_TOL = 1e-10
HANKEL_BLOCK = 2**21   # grid values in one column block of the Hankel FFT
DUMP_MAGIC = b"TPHK"
DUMP_VERSION = 1


@dataclass(frozen=True)
class FiniteSection:
    """N x N compression of an operator in the Fourier basis."""

    size: int
    entries: np.ndarray = field(repr=False)
    kind: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def margin(self) -> int:
        return int(self.meta.get("margin", 0))

    def adjoint(self) -> "FiniteSection":
        """The conjugate-transpose section, the one cokernel vectors annihilate."""
        return FiniteSection(self.size, self.entries.conj().T, self.kind, dict(self.meta))


def _toeplitz_entries(a: RationalSymbol, n: int) -> tuple[np.ndarray, float]:
    co = fourier_coefficients(a, (-(n - 1), n - 1))
    col = co.coeffs[n - 1 :]
    row = co.coeffs[: n][::-1]
    return scipy.linalg.toeplitz(col, row), float(co.tail or 0.0)


def _symbol_margin(s: RationalSymbol, tol: float = ENTRY_TAIL_TOL) -> int:
    """How far multiplication by s can push coefficient support."""
    band = (s.num.hi - s.num.lo) + (s.den.hi - s.den.lo)
    return band + s.pad_for(tol)


def _hankel_entries(
    b: RationalSymbol, shift: ShiftParams, n: int
) -> tuple[np.ndarray, float]:
    """Columns are the analytic coefficients of b * (flip of t^k).

    Column k is the FFT of w * alpha^k, w = b * alpha_minus / t, on an
    m-point circle grid.  The flip image of t^k spreads to about
    n (|beta|+1)/(|beta|-1) negative exponents, which alias onto the first
    rows unless m is twice that plus the tails' pad; m starts at the next
    power of two above that bound, and never below 4(n + pad) or 1024.
    The powers alpha^k come from a running product over column blocks of
    at most HANKEL_BLOCK grid values, each block seeded from the last
    column of the one before, with one FFT per block.  The rows m/2 +- 2
    of every block certify the aliasing: while their largest entry exceeds
    ENTRY_TAIL_TOL * max(1, |H|) the grid doubles, up to the 2**22 cap.
    """
    pad = shift.pad(ENTRY_TAIL_TOL) + b.pad_for(ENTRY_TAIL_TOL)
    r = abs(shift.beta)
    spread = int(np.ceil(n * (r + 1) / (r - 1)))
    m = 1 << (max(1024, 4 * (n + pad), 2 * (spread + pad)) - 1).bit_length()
    while True:
        if m > 2**22:
            raise GridTooSmall("hankel column grid exceeded the cap")
        t = np.exp(2j * np.pi * np.arange(m) / m)
        at = eval_alpha(shift, t)
        run = b.eval(t) * shift.alpha_minus.eval(t) / t   # w * alpha^k0
        width = max(1, HANKEL_BLOCK // m)
        work = np.empty((min(width, n), m), dtype=complex)
        cols = np.empty((n, n), dtype=complex)
        tail = 0.0
        for k0 in range(0, n, width):
            blk = work[: min(width, n - k0)]
            blk[0] = run
            blk[1:] = at
            np.cumprod(blk, axis=0, out=blk)
            run = blk[-1] * at
            np.fft.fft(blk, axis=1, out=blk)
            cols[:, k0 : k0 + len(blk)] = blk[:, :n].T
            tail = max(tail, float(np.max(np.abs(blk[:, m // 2 - 2 : m // 2 + 3]))))
        cols /= m
        tail /= m
        scale = max(1.0, float(np.max(np.abs(cols))))
        if tail <= ENTRY_TAIL_TOL * scale:
            return cols, tail
        m *= 2


def pair_sections(payload, shift: ShiftParams, n: int) -> dict[str, FiniteSection]:
    """The sections of T(a) + H(b) and T(a) - H(b), keyed '+' and '-'.

    payload is a MatchingPair or an (a, b) tuple of symbols; T(a) and H(b)
    are assembled once and shared by both sections.
    """
    if n < 8:
        raise ValueError("section size must be at least 8")
    a, b = (payload.a, payload.b) if isinstance(payload, MatchingPair) else payload
    ta, tail_a = _toeplitz_entries(a, n)
    hb, tail_b = _hankel_entries(b, shift, n)
    meta = {
        "tail": max(tail_a, tail_b),
        "margin": max(_symbol_margin(a), _symbol_margin(b) + shift.pad(ENTRY_TAIL_TOL)),
    }
    return {
        "+": FiniteSection(n, ta + hb, "plus", {**meta, "symbols": f"T({a}) + H({b})"}),
        "-": FiniteSection(n, ta - hb, "minus", {**meta, "symbols": f"T({a}) - H({b})"}),
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
    if n < 8:
        raise ValueError("section size must be at least 8")
    if kind in ("toeplitz", "hankel"):
        sym = payload
        if not isinstance(sym, RationalSymbol):
            from .pc import pc_toeplitz_entries  # local import: PC path optional

            if kind == "hankel":
                raise ValueError("hankel sections require a rational symbol")
            entries, tail = pc_toeplitz_entries(sym, shift, n)
            meta = {"tail": tail, "margin": n // 2, "symbols": str(sym)}
            return FiniteSection(n, entries, kind, meta)
        if kind == "toeplitz":
            entries, tail = _toeplitz_entries(sym, n)
            margin = _symbol_margin(sym)
        else:
            entries, tail = _hankel_entries(sym, shift, n)
            margin = _symbol_margin(sym) + shift.pad(ENTRY_TAIL_TOL)
        return FiniteSection(
            n, entries, kind, {"tail": tail, "margin": margin, "symbols": str(sym)}
        )
    if kind in ("plus", "minus"):
        return pair_sections(payload, shift, n)["+" if kind == "plus" else "-"]
    if kind == "block":
        if isinstance(payload, MatchingPair):
            pair = payload
        else:
            from .matching import make_matching_pair

            pair = make_matching_pair(*payload, shift)
        tc, _ = _toeplitz_entries(pair.c, n)
        td, _ = _toeplitz_entries(pair.d, n)
        taai, _ = _toeplitz_entries(pair.a_alpha_inv, n)
        z = np.zeros((n, n), dtype=complex)
        entries = np.block([[z, td], [-tc, taai]])
        margin = max(_symbol_margin(pair.c), _symbol_margin(pair.d),
                     _symbol_margin(pair.a_alpha_inv))
        return FiniteSection(
            2 * n, entries, kind,
            {"margin": margin, "halves": n, "symbols": "block [[0,T(d)],[-T(c),T(a_alpha^-1)]]"},
        )
    raise ValueError(f"unknown section kind {kind!r}")


@dataclass(frozen=True)
class NullSpace:
    dim: int
    right: np.ndarray          # columns span ker(M)
    left: np.ndarray           # columns span ker(M^H)
    singular_values: np.ndarray


def numerical_null_space(
    section: FiniteSection, tol: float = SVD_TOL, gap: float = SVD_GAP
) -> NullSpace:
    """Null space from the singular values and one augmented LU.

    Singular values at or below tol * sigma_max count as zero; the smallest
    kept value must exceed the largest dropped one by the gap factor,
    otherwise the split is ambiguous and NoSpectralGap is raised.  Only the
    singular values of M are computed.

    When 0 < k < n values are dropped, the vectors come from one LU of
    M' = M + sigma_max X Y^H, X and Y seeded random n x k blocks; M' is
    invertible when M has rank n - k.  M'^-1 w differs from M^-1 w by a
    term in range(M^-1 X) = range(M'^-1 X), so with V1 = orth(M'^-1 X) and
    U1 = orth(M'^-H Y) the span of [V1, M'^-1 U1] holds M^-1 X and
    (M^H M)^-1 Y.  The right basis is the k-dimensional subspace of that
    span with the least ||M V||_2: the k smallest right singular vectors of
    the n x 2k matrix M [V1, M'^-1 U1] (Rayleigh-Ritz).  The left basis
    comes the same way from [U1, M'^-H V1] and M^H.  On an exactly singular
    M this is ker(M); when the dropped values are not zero the residual
    matches the singular vectors'.  A singular pivot, or a residual not
    below tol * sigma_max, raises NoSpectralGap.
    """
    m = section.entries
    s = scipy.linalg.svd(m, compute_uv=False)
    n = len(s)
    smax = s[0] if len(s) else 0.0
    cut = tol * smax
    k = int(np.sum(s <= cut))
    if k > 0 and k < n:
        largest_zero = s[n - k]
        smallest_nonzero = s[n - k - 1]
        if largest_zero > 0 and smallest_nonzero < gap * largest_zero:
            raise NoSpectralGap(
                f"singular values {smallest_nonzero:.3e} / {largest_zero:.3e} "
                f"below the gap factor {gap}"
            )
    if k == 0 or k == n:
        return NullSpace(k, np.eye(n, k, dtype=complex), np.eye(n, k, dtype=complex), s)
    rng = np.random.default_rng(0)
    z = rng.standard_normal((2, n, k)) + 1j * rng.standard_normal((2, n, k))
    x, y = z / np.sqrt(2 * n)
    # every product goes through scipy's BLAS, as the SVD does: the numpy
    # wheels link their own OpenBLAS, whose idle threads, still spinning
    # when the next SVD starts, slowed it 1.6-5x on a 2-core host
    mf = np.asfortranarray(m)
    (gemm,) = scipy.linalg.get_blas_funcs(("gemm",), (mf, x))
    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (mf, x))
    lu, piv, info = getrf(gemm(smax, x, y, beta=1.0, c=mf, trans_b=2), overwrite_a=True)
    if info != 0:
        raise NoSpectralGap(f"augmented section is singular (getrf info {info})")

    def solve(b, trans=0):
        return getrs(lu, piv, b, trans=trans)[0]

    def orth(a):
        return scipy.linalg.qr(a, mode="economic")[0]

    v1, u1 = orth(solve(x)), orth(solve(y, trans=2))
    bases = {}
    for name, first, second, trans in (
        ("right", v1, solve(u1), 0), ("left", u1, solve(v1, trans=2), 2)
    ):
        q = orth(np.hstack([first, second]))
        _, sv, vh = scipy.linalg.svd(gemm(1.0, mf, q, trans_a=trans), full_matrices=False)
        if not sv[-k] < cut:
            raise NoSpectralGap(
                f"{name} null vectors leave residual {sv[-k]:.3e} >= {cut:.3e}"
            )
        bases[name] = gemm(1.0, q, vh[-k:], trans_b=2)
    return NullSpace(k, bases["right"], bases["left"], s)


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


def residual_check(section: FiniteSection, f: TruncatedSeries) -> float:
    """|| section * coeffs(f) ||_2 / || coeffs(f) ||_2 for analytic f."""
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
    if len(outside) and np.linalg.norm(outside) > 1e-12 * max(f.norm(), 1e-300):
        raise WindowTooTight("input has significant coefficients outside the section")
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        return 0.0
    return float(np.linalg.norm(section.entries @ vec) / nrm)


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
    n = section.size
    header = DUMP_MAGIC + struct.pack("<IQ", DUMP_VERSION, n)
    inter = np.empty((n, n, 2), dtype="<f8")
    inter[:, :, 0] = section.entries.real
    inter[:, :, 1] = section.entries.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(inter.tobytes())


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

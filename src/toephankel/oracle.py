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

A section's null dimension, its spectral-gap certificate and its right
null vectors come from one least-squares solve (LAPACK gelsd), which
returns every singular value and projects a few random vectors onto the
null space; the left null vectors come from one LU of the section plus a
rank-k term built from the right ones.  No full SVD with every singular
vector is taken, and both bases are checked by their residuals.
Localization counts the directions of the null space with most of their
mass in the first half of the coordinates, whatever basis the null space
is given in.  Every caller gets these dimensions from null_dims.

Everything here runs on numpy alone: Toeplitz sections come from
toeplitz_matrix, a strided view, and the null space from np.linalg.

All computations use the coefficient l2 geometry.  Rational symbols are
Fredholm with the same defect numbers on every Hardy space of the admitted
class, so a single oracle geometry suffices; genuinely p-sensitive
piecewise-continuous symbols are outside what this oracle can adjudicate.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
import numpy as np

from .errors import GridTooSmall, NoSpectralGap, WindowTooTight
from .matching import MatchingPair, make_matching_pair
from .rational import RationalSymbol
from .series import TruncatedSeries, fourier_coefficients
from .shift import ShiftParams, eval_alpha

SVD_TOL = 1e-8
SVD_GAP = 100.0
SKETCH = 4             # random columns projected onto a null space by the first solve
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


def toeplitz_matrix(col: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The matrix with first column col and first row row (row[0] is ignored).

    Entry (j, k) is vals[len(col) - 1 - j + k] of vals = (col reversed, row[1:]),
    so row j is a window of vals; equal to scipy.linalg.toeplitz(col, row).
    """
    vals = np.concatenate((col[::-1], row[1:]))
    return np.lib.stride_tricks.sliding_window_view(vals, len(row))[::-1].copy()


def _toeplitz_entries(a: RationalSymbol, n: int) -> tuple[np.ndarray, float]:
    co = fourier_coefficients(a, (-(n - 1), n - 1))
    col = co.coeffs[n - 1 :]
    row = co.coeffs[: n][::-1]
    return toeplitz_matrix(col, row), float(co.tail or 0.0)


def _symbol_margin(s: RationalSymbol) -> int:
    """How far multiplication by s can push coefficient support."""
    band = (s.num.hi - s.num.lo) + (s.den.hi - s.den.lo)
    return band + s.pad_for(ENTRY_TAIL_TOL)


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
    pad = shift.pad + b.pad_for(ENTRY_TAIL_TOL)
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
            for i in range(1, len(blk)):   # by rows: cumprod down axis 0 is strided
                np.multiply(blk[i - 1], at, out=blk[i])
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
    a, b = (payload.a, payload.b) if isinstance(payload, MatchingPair) else payload
    ta = operator_section("toeplitz", a, shift, n)
    hb = operator_section("hankel", b, shift, n)
    meta = {"tail": max(ta.meta["tail"], hb.meta["tail"]), "margin": max(ta.margin, hb.margin)}
    return {
        "+": FiniteSection(n, ta.entries + hb.entries, "plus", dict(meta)),
        "-": FiniteSection(n, ta.entries - hb.entries, "minus", meta),
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
            from .pc import pc_toeplitz_entries  # local import: pc imports this module

            if kind == "hankel":
                raise ValueError("hankel sections require a rational symbol")
            entries, tail = pc_toeplitz_entries(sym, shift, n)
            return FiniteSection(n, entries, kind, {"tail": tail, "margin": n // 2})
        if kind == "toeplitz":
            entries, tail = _toeplitz_entries(sym, n)
            margin = _symbol_margin(sym)
        else:
            entries, tail = _hankel_entries(sym, shift, n)
            margin = _symbol_margin(sym) + shift.pad
        return FiniteSection(n, entries, kind, {"tail": tail, "margin": margin})
    if kind in ("plus", "minus"):
        return pair_sections(payload, shift, n)["+" if kind == "plus" else "-"]
    if kind == "block":
        if isinstance(payload, MatchingPair):
            pair = payload
        else:
            pair = make_matching_pair(*payload, shift)
        tc, _ = _toeplitz_entries(pair.c, n)
        td, _ = _toeplitz_entries(pair.d, n)
        taai, _ = _toeplitz_entries(pair.a_alpha_inv, n)
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
    singular_values: np.ndarray


def numerical_null_space(section: FiniteSection) -> NullSpace:
    """Null space from one least-squares SVD and one LU.

    np.linalg.lstsq(M, M Z, rcond=SVD_TOL), Z a seeded random n x p block
    with p = SKETCH, returns every singular value of M and the truncated
    pseudo-inverse solution M^+ M Z.  Singular values at or below
    SVD_TOL * sigma_max count as zero; the smallest kept value must exceed
    the largest dropped one by SVD_GAP, otherwise the split is ambiguous and
    NoSpectralGap is raised.

    When 0 < k < n values are dropped, Z - M^+ M Z is the projection of Z
    onto the span V of the dropped right singular vectors, and its k leading
    left singular vectors are the right basis; a second solve with p = k
    runs only when k > SKETCH.  The left basis is W = M'^-H V,
    orthonormalized, from one LU of M' = M + sigma_max Y V^H, Y a seeded
    random n x k block: M^H W = V (I - sigma_max Y^H W) lies in span V, and
    the kept right singular vectors are orthogonal to span V, so W has no
    component along the kept left singular vectors, even when the dropped
    singular values are not zero.  A singular M', or a residual not below
    SVD_TOL * sigma_max, raises NoSpectralGap.
    """
    m = section.entries
    n = len(m)
    rng = np.random.default_rng(0)

    def gaussian(p):   # columns of norm about 1, so sigma_max Y V^H is as large as M
        return (rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))) / np.sqrt(2 * n)

    def null_projection(p):
        z = gaussian(p)
        x, _, _, s = np.linalg.lstsq(m, m @ z, rcond=SVD_TOL)
        return z - x, s

    def orth(a, k):
        return np.linalg.svd(a, full_matrices=False)[0][:, :k]

    proj, s = null_projection(SKETCH)
    smax = s[0] if n else 0.0
    cut = SVD_TOL * smax
    k = int(np.sum(s <= cut))
    if k == 0 or k == n:
        return NullSpace(k, np.eye(n, k, dtype=complex), np.eye(n, k, dtype=complex), s)
    largest_zero = s[n - k]
    smallest_nonzero = s[n - k - 1]
    if largest_zero > 0 and smallest_nonzero < SVD_GAP * largest_zero:
        raise NoSpectralGap(
            f"singular values {smallest_nonzero:.3e} / {largest_zero:.3e} "
            f"below the gap factor {SVD_GAP}"
        )
    if k > SKETCH:
        proj, _ = null_projection(k)
    right = orth(proj, k)
    aug = (smax * gaussian(k)) @ right.conj().T
    aug += m
    try:
        # M'^T conj(W) = conj(V) is M'^H W = V without an n x n conjugate copy
        left = orth(np.linalg.solve(aug.T, right.conj()).conj(), k)
    except np.linalg.LinAlgError as exc:
        raise NoSpectralGap(f"augmented section is singular ({exc})") from None
    for name, res in (("right", m @ right), ("left", left.conj().T @ m)):
        r = np.linalg.norm(res, 2)
        if not r < cut:
            raise NoSpectralGap(f"{name} null vectors leave residual {r:.3e} >= {cut:.3e}")
    return NullSpace(k, right, left, s)


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


def null_dims(sections: dict[str, FiniteSection], signs) -> dict[str, tuple[int, int]]:
    """Localized (kernel, cokernel) dimensions of sections[sign], per sign."""
    return {
        sign: localized_null_dims(numerical_null_space(sections[sign]), sections[sign].size)
        for sign in signs
    }


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

"""Finite-section numerical oracle.

Truncated matrices of the Toeplitz, flip-Hankel, sum/difference and 2x2
block operators in the Fourier basis, plus null spaces and residual
checks.  Everything analytic elsewhere in the package is cross-validated
against these sections, so they share none of its exact rational
algebra: every coefficient window comes from the certified circle FFT
(fourier_coefficients), one FFT of a for Toeplitz and one of b for
Hankel, whose section is b's classical Hankel matrix times the
coefficients of the flip images (_hankel_entries).  pair_sections
assembles T(a) and H(b) once and returns both T(a) + H(b) and T(a) - H(b).

A section's null dimension, its spectral-gap certificate and its right
null vectors come from one least-squares solve (LAPACK gelsd), which
returns every singular value and projects a few random vectors onto the
null space; the left null vectors come from one LU of the section plus a
rank-k term built from the right ones.  No full SVD with every singular
vector is taken, and both bases are checked by their residuals.
Localization counts the directions of the null space with most of their
mass in the first half of the coordinates, whatever basis the null space
is given in.  Every caller gets these dimensions from null_dims, which
solves the plus and minus sections at once when each solve has cores of
its own (usable CPUs over BLAS threads per call, as OpenBLAS reads them;
one at a time otherwise) and then takes the LUs in turn; results and
errors are those of solving them one after the other.

Everything here runs on numpy alone: Toeplitz sections come from
toeplitz_matrix, a strided view, and the null space from np.linalg.

All computations use the coefficient l2 geometry.  Rational symbols are
Fredholm with the same defect numbers on every Hardy space of the admitted
class, so a single oracle geometry suffices; genuinely p-sensitive
piecewise-continuous symbols are outside what this oracle can adjudicate.
"""

from __future__ import annotations

import ctypes
import os
import struct
import threading
from dataclasses import dataclass, field
import numpy as np

from .errors import GridTooSmall, NoSpectralGap, WindowTooTight
from .matching import MatchingPair, make_matching_pair
from .rational import RationalSymbol
from .series import FFT_CAP, TruncatedSeries, fourier_coefficients
from .shift import ShiftParams

SVD_TOL = 1e-8
SVD_GAP = 100.0
SKETCH = 4             # random columns projected onto a null space by the first solve
ENTRY_TAIL_TOL = 1e-10
DUMP_MAGIC = b"TPHK"
DUMP_VERSION = 1
_MALLOC_TRIM = getattr(ctypes.pythonapi, "malloc_trim", lambda pad: 0)   # glibc's
_MALLOPT = getattr(ctypes.pythonapi, "mallopt", lambda param, value: 0)   # glibc's
_M_ARENA_MAX = -8      # glibc's mallopt parameter


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


def toeplitz_matrix(col: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The matrix with first column col and first row row (row[0] is ignored).

    Entry (j, k) is vals[len(col) - 1 - j + k] of vals = (col reversed, row[1:]),
    so row j is a window of vals; equal to scipy.linalg.toeplitz(col, row).
    """
    vals = np.concatenate((col[::-1], row[1:]))
    return np.lib.stride_tricks.sliding_window_view(vals, len(row))[::-1].copy()


def _toeplitz_entries(a: RationalSymbol, n: int) -> tuple[np.ndarray, float]:
    """T(a)'s n x n section from one certified FFT of a, and its tail bound
    (GridTooSmall when a's poles hug the circle too closely for FFT_CAP)."""
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
    """Column k is the analytic part of b J t^k, as the product B @ C.

    J t^k = lam alpha^k / (conj(beta) t - 1) = sum_{m>=1} c[m, k] t^-m, so
    H[j, k] = sum_m b_{j+m} c[m, k]; B[j, m-1] = b_{j+m} for m <= R =
    b.analytic_pad(eps), from one certified FFT of b, and C = _flip_matrix.
    C's uncut columns have unit l2 norm (J is an isometry), so an entry
    loses at most the l2 norm of b_{R+1}, b_{R+2}, ... to the cut: the
    returned tail.  GridTooSmall when it exceeds ENTRY_TAIL_TOL * max(1, |H|),
    or B would outgrow both the section and FFT_CAP."""
    r = b.analytic_pad(np.finfo(float).eps)
    if r == 0:   # no analytic coefficient of positive index: H(b) = 0
        return np.zeros((n, n), dtype=complex), 0.0
    if n * r > max(n * n, FFT_CAP):
        raise GridTooSmall(f"hankel window R={r} is too wide for N={n}")
    co = fourier_coefficients(b, (1, n - 1 + 2 * r)).coeffs
    tail = float(np.linalg.norm(co[r:]))
    hank = np.lib.stride_tricks.sliding_window_view(co[: n - 1 + r], r)   # B, a view
    entries = hank @ _flip_matrix(shift, r, n)
    if tail > ENTRY_TAIL_TOL and tail > ENTRY_TAIL_TOL * np.max(np.abs(entries)):
        raise GridTooSmall(f"hankel window R={r} leaves a tail of {tail:.3e}")
    return entries, tail


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

    The solves are _right_null_space, the LU and gates _left_null_space.
    """
    return _left_null_space(section, *_right_null_space(section))


def _gaussian(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    # columns of norm about 1, so sigma_max Y V^H is as large as M
    return (rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))) / np.sqrt(2 * n)


def _orth(a: np.ndarray, k: int) -> np.ndarray:
    return np.linalg.svd(a, full_matrices=False)[0][:, :k]


def _right_null_space(
    section: FiniteSection,
) -> tuple[np.ndarray, np.ndarray, np.random.Generator]:
    """First phase of numerical_null_space: the singular values, the
    spectral-gap check and the right basis, from the least-squares solves.
    Returns them with the random generator, which the second phase goes on
    drawing from.  Holds one n x n copy of the section at a time."""
    m = section.entries
    n = len(m)
    rng = np.random.default_rng(0)

    def null_projection(p):
        z = _gaussian(rng, n, p)
        x, _, _, s = np.linalg.lstsq(m, m @ z, rcond=SVD_TOL)
        return z - x, s

    proj, s = null_projection(SKETCH)
    smax = s[0] if n else 0.0
    k = int(np.sum(s <= SVD_TOL * smax))
    if k == 0 or k == n:
        return s, np.eye(n, k, dtype=complex), rng
    largest_zero = s[n - k]
    smallest_nonzero = s[n - k - 1]
    if largest_zero > 0 and smallest_nonzero < SVD_GAP * largest_zero:
        raise NoSpectralGap(
            f"singular values {smallest_nonzero:.3e} / {largest_zero:.3e} "
            f"below the gap factor {SVD_GAP}"
        )
    if k > SKETCH:
        proj, _ = null_projection(k)
    return s, _orth(proj, k), rng


def _left_null_space(
    section: FiniteSection,
    s: np.ndarray,
    right: np.ndarray,
    rng: np.random.Generator,
) -> NullSpace:
    """Second phase of numerical_null_space: the left basis from one LU of
    the augmented section, and both residual gates.  Holds two n x n
    blocks, the augmented section and its LU."""
    m = section.entries
    n, k = right.shape
    if k == 0 or k == n:
        return NullSpace(k, right, np.eye(n, k, dtype=complex), s)
    smax = s[0]
    cut = SVD_TOL * smax
    aug = (smax * _gaussian(rng, n, k)) @ right.conj().T
    aug += m
    try:
        # M'^T conj(W) = conj(V) is M'^H W = V without an n x n conjugate copy
        left = _orth(np.linalg.solve(aug.T, right.conj()).conj(), k)
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


def _concurrent_sections(count: int) -> int:
    """How many of count sections null_dims solves at once.

    Concurrent least-squares solves only pay when each runs on cores of
    its own: on 2 cores at N = 1024, two at once took 1.5x as long as two
    in turn with the default threaded OpenBLAS, and ran 1.7-1.9x faster
    with one BLAS thread each.  So the width is the usable CPUs divided by
    the BLAS threads per call, read as OpenBLAS reads them
    (OPENBLAS_NUM_THREADS, else GOTO_NUM_THREADS, else OMP_NUM_THREADS,
    the first that is positive), and 1 when the BLAS is not OpenBLAS or
    none of them is set.
    """
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    if "openblas" not in str(blas.get("name", "")).lower():
        return 1
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        threads = int(value) if value.isdigit() else 0
        if threads > 0:
            break
    else:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(count, (cpus or 1) // threads))


def null_dims(sections: dict[str, FiniteSection], signs) -> dict[str, tuple[int, int]]:
    """Localized (kernel, cokernel) dimensions of sections[sign], per sign.

    The solves (_right_null_space) of the first _concurrent_sections
    sections run at once, all but the first in threads (LAPACK releases
    the interpreter lock); the LUs, two n x n blocks each, then run in turn
    in this thread.  Errors are raised once the threads have ended, in the
    order a sequential run meets them.  glibc is held to one malloc arena,
    as malloc_trim does not shrink a thread arena's top, and the heap is
    trimmed after: whether the freed n x n LAPACK copies stay resident
    would otherwise depend on the dimensions found.
    """
    signs = list(signs)
    solved = {}

    def solve(sign):
        try:
            solved[sign] = _right_null_space(sections[sign])
        except Exception as exc:   # raised again in the calling thread, in sign order
            solved[sign] = exc

    workers = [threading.Thread(target=solve, args=(sign,))
               for sign in signs[1:_concurrent_sections(len(signs))]]
    if workers:
        _MALLOPT(_M_ARENA_MAX, 1)
        for worker in workers:
            worker.start()
        try:
            solve(signs[0])
        finally:
            for worker in workers:
                worker.join()
    dims = {}
    for sign in signs:
        phase1 = solved.pop(sign) if sign in solved else _right_null_space(sections[sign])
        if isinstance(phase1, Exception):
            raise phase1
        ns = _left_null_space(sections[sign], *phase1)
        dims[sign] = localized_null_dims(ns, sections[sign].size)
    _MALLOC_TRIM(0)
    return dims


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

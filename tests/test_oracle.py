import builtins
import ctypes
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from toephankel import (
    FiniteSection,
    LaurentPolynomial,
    RationalSymbol,
    TruncatedSeries,
    defect_numbers,
    dump_section,
    load_section,
    localized_null_dims,
    make_matching_pair,
    make_shift,
    numerical_null_space,
    operator_section,
    residual_check,
)
from toephankel import oracle
from toephankel.oracle import SVD_GAP, SVD_TOL, NullSpace
from toephankel.cli import main, parse_symbol
from toephankel.errors import NoSpectralGap, NumericalBreakdown, WindowTooTight
from toephankel.kernels import analytic_series
from toephankel.shift import apply_J_alpha, eval_alpha

from helpers import benchmark_oracle_pairs


def test_toeplitz_identity(shift2):
    sec = operator_section("toeplitz", RationalSymbol.constant(1.0), shift2, 16)
    assert np.allclose(sec.entries, np.eye(16))


def test_hankel_of_one_is_zero(shift2):
    sec = operator_section("hankel", RationalSymbol.constant(1.0), shift2, 16)
    assert np.max(np.abs(sec.entries)) < 1e-12


def test_toeplitz_chi_entries(shift2):
    sec = operator_section("toeplitz", shift2.chi, shift2, 8)
    s3 = np.sqrt(3.0)
    expect = np.array(
        [
            [1j / s3, 0, 0],
            [-2j / s3, 1j / s3, 0],
            [0, -2j / s3, 1j / s3],
        ]
    )
    assert np.max(np.abs(sec.entries[:3, :3] - expect)) < 1e-13


def _hankel_column(b, k, sh):
    """Column k of H(b), exactly: H(b) t^k = P(b J t^k)."""
    return (b * apply_J_alpha(RationalSymbol.monomial(k), sh)).part("P")


def test_hankel_columns_match_exact_action(shift2, rng):
    # column k of H(b) is the analytic part of b * (flip of t^k)
    b = shift2.chi.power(-2) + RationalSymbol.constant(0.5)
    n = 24
    sec = operator_section("hankel", b, shift2, n)
    for k in (0, 1, 5):
        col = _hankel_column(b, k, shift2)
        expect = analytic_series(col).to_vector(n)
        assert np.max(np.abs(sec.entries[:, k] - expect)) < 1e-10


@pytest.mark.parametrize("beta", [2.0, 2j, 1.5 + 0.5j])
def test_hankel_columns_match_exact_action_nonzero(beta):
    sh = make_shift(beta)
    b = sh.chi * RationalSymbol.from_factors(
        0.7 - 0.2j, -1, [0.4 + 0.2j, 2.1 - 0.7j, -0.5j], [-1, -1, 1]
    )
    n = 24
    sec = operator_section("hankel", b, sh, n)
    largest = 0.0
    for k in (0, 1, 5):
        col = _hankel_column(b, k, sh)
        expect = analytic_series(col).to_vector(n)
        largest = max(largest, np.max(np.abs(expect)))
        assert np.max(np.abs(sec.entries[:, k] - expect)) < 1e-10
    assert largest > 0.1


def _hankel_by_definition(b, sh, n, m=2**15):
    """H(b)'s n x n section column by column: the FFT of b * alpha_minus / t *
    alpha^k on a fixed m-point grid, with the powers taken one by one."""
    t = np.exp(2j * np.pi * np.arange(m) / m)
    at = eval_alpha(sh, t)
    w = b.eval(t) * sh.alpha_minus.eval(t) / t
    return np.stack([np.fft.fft(w * at**k)[:n] / m for k in range(n)], axis=1)


@pytest.mark.parametrize("beta", [2.0, 2j, 1.5 + 0.5j, 1.2, 1.05j])
def test_hankel_entries_match_brute_force(beta):
    sh = make_shift(beta)
    b = sh.chi * RationalSymbol.from_factors(
        0.7 - 0.2j, -1, [0.4 + 0.2j, 2.1 - 0.7j, -0.5j], [-1, -1, 1]
    )
    n = 128
    hank, flip, _ = oracle._hankel_entries(b, sh, n)
    entries = hank @ flip
    brute = _hankel_by_definition(b, sh, n)
    assert np.max(np.abs(brute)) > 0.1
    assert np.max(np.abs(entries - brute)) < 1e-12 * max(1.0, np.max(np.abs(brute)))


def test_hankel_window_counts_from_the_numerator_degree():
    # b = t^30/(t - 2) has analytic coefficients -2^-(i+1) at 30 + i: the
    # window must reach past the pole's pad counted from degree 30
    sh = make_shift(2.0)
    b = RationalSymbol.from_factors(1.0, 30, [2.0], [-1])
    assert b.analytic_pad(np.finfo(float).eps) > 80
    brute = _hankel_by_definition(b, sh, 128)
    for n in (64, 128):
        hank, flip, tail = oracle._hankel_entries(b, sh, n)
        entries = hank @ flip
        assert tail < 1e-14
        assert np.max(np.abs(entries - brute[:n, :n])) < 1e-12 * max(1.0, np.max(np.abs(brute)))


def test_hankel_flip_window_cut_is_exact():
    # H = B C with C cut at R rows: the rows kept do not depend on the rows
    # dropped, every column of the uncut C has unit norm, and the product
    # matches the definition
    sh = make_shift(1.5 + 0.5j)
    b = sh.chi * RationalSymbol.from_factors(
        0.7 - 0.2j, -1, [0.4 + 0.2j, 2.1 - 0.7j, -0.5j], [-1, -1, 1]
    )
    n = 128
    r = b.analytic_pad(np.finfo(float).eps)
    assert 8 < r < n
    short, long = oracle._flip_matrix(sh, r, n), oracle._flip_matrix(sh, 2 * r, n)
    assert short.shape == (r, n) and long.shape == (2 * r, n)
    assert np.max(np.abs(long[:r] - short)) < 1e-14
    norms = np.linalg.norm(oracle._flip_matrix(sh, 8 * n, n), axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    hank, flip, tail = oracle._hankel_entries(b, sh, n)
    entries = hank @ flip
    assert tail < 1e-14
    brute = _hankel_by_definition(b, sh, n)
    assert np.max(np.abs(entries - brute)) < 1e-12 * max(1.0, np.max(np.abs(brute)))


@pytest.mark.parametrize("beta", [1.2, 1.05])
def test_hankel_columns_near_circle(beta):
    # N = 1024 columns against the exact action.  b's one pole outside the
    # disk is p, simple, so P(b J t^k) = rho (J t^k)(p) / (t - p), rho the
    # residue: column k is -rho (J t^k)(p) p^(-j-1).  _hankel_column confirms
    # this for k = 0, 1; from k = 16 (beta 1.2) or 10 (beta 1.05) on it
    # raises DenominatorNearZero at the (k+1)-fold pole of J t^k.  Columns
    # 511 and 1023 fall like |alpha(p)|^k to rounding level, which the
    # section must not amplify.
    sh = make_shift(beta)
    p = 2.1 - 0.7j
    rest = sh.chi * RationalSymbol.from_factors(0.7 - 0.2j, -1, [0.4 + 0.2j, -0.5j], [-1, 1])
    b = rest * RationalSymbol.from_factors(1.0, 0, [p], [-1])
    n = 1024
    sec = operator_section("hankel", b, sh, n)
    j = np.arange(n)
    for k in (0, 1, 511, 1023):
        flip_at_p = sh.lam * eval_alpha(sh, p) ** k / (np.conj(sh.beta) * p - 1.0)
        expect = -rest.eval(p) * flip_at_p * p ** (-j - 1.0)
        if k < 2:
            exact = analytic_series(_hankel_column(b, k, sh))
            assert np.max(np.abs(exact.to_vector(n) - expect)) < 1e-12
            assert np.max(np.abs(expect)) > 0.1
        assert np.max(np.abs(sec.entries[:, k] - expect)) < 1e-10


def test_hankel_of_analytic_free_symbol_near_circle(tmp_path):
    # chi^-1 at |beta| = 1.0001 has no analytic coefficient of positive
    # index, so its Hankel section is zero and costs no grid, although its
    # pole sits 1e-4 inside the circle
    sh = make_shift(1.0001)
    tracemalloc.start()
    try:
        hank, flip, tail = oracle._hankel_entries(sh.chi.invert(), sh, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not np.any(hank @ flip) and tail == 0.0
    assert peak < 1e6
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"command": "verify", "shift": {"beta": [1.0001, 0.0]},
                                "a": "chi^-1", "b": "chi^-1", "N": 64}))
    out = tmp_path / "report.json"
    assert main(["--spec", str(spec), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["dims"] == {"ker+": 1, "coker+": 0, "ker-": 1, "coker-": 0}


def test_hankel_built_once_per_pair(shift2, monkeypatch, tmp_path):
    calls = []
    build = oracle._hankel_entries

    def counted(*args):
        calls.append(args[2])
        return build(*args)

    monkeypatch.setattr(oracle, "_hankel_entries", counted)
    pair = make_matching_pair(shift2.chi.power(-2), shift2.chi.power(-2), shift2)
    for kind in ("plus", "minus"):
        operator_section(kind, pair, shift2, 64)
    assert calls == [64, 64]
    a = RationalSymbol.from_factors(0.25, 0, [-4.0], [1])
    small = make_matching_pair(a, a * shift2.chi.invert(), shift2)
    assert defect_numbers(small, oracle_size=64).oracle["agreement"]["all"]
    assert calls == [64, 64, 64]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"command": "verify", "shift": {"beta": [2.0, 0.0]},
                                "a": "chi^-2", "b": "chi^-2", "N": 64}))
    assert main(["--spec", str(spec), "--out", str(tmp_path / "report.json")]) == 0
    assert calls == [64, 64, 64, 64]


def test_pair_sections_and_their_null_spaces_hold_one_block_at_most():
    # at N = 1024 on the four benchmark pairs (R = 1, 3, 50, 3): pair_sections
    # allocates less than one n x n block, and so does a null space solved on
    # its own (width 1): M' is solved through its structure and never formed,
    # so it holds O(n (R + rank(E) + p)): the factors' products, the solves'
    # columns and the Lanczos vectors (0.14-0.51 of a block measured here)
    n = 1024
    block = 16 * n * n
    for pair in benchmark_oracle_pairs():
        tracemalloc.start()
        try:
            sections = oracle.pair_sections(pair, pair.shift, n)
            built = tracemalloc.get_traced_memory()[1]
            peaks = []
            for sec in sections.values():
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                numerical_null_space(sec)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert built < block
        assert all(peak < block for peak in peaks)


_PAIR_DIMS = {   # (a, b): ((ker, coker) of T(a) + H(b) and of T(a) - H(b)), block null dim
    ("chi^-2", "chi^-2"): ({"+": (2, 0), "-": (2, 0)}, 4),
    ("chi^3", "chi^3"): ({"+": (0, 3), "-": (0, 3)}, 6),
    ("one", "chi^-1"): ({"+": (0, 0), "-": (0, 0)}, 1),
    ("chi", "one"): ({"+": (0, 1), "-": (0, 1)}, 2),
}


@pytest.mark.parametrize("beta", [2.0, 2.0j, 1.5 + 0.5j, 1.2])
@pytest.mark.parametrize("symbols", list(_PAIR_DIMS))
def test_sections_run_no_partial_fractions(symbols, beta, monkeypatch):
    # the oracle checks the partial-fraction pipeline, so it must not use it
    sh = make_shift(beta)
    pair = make_matching_pair(*(parse_symbol(s, sh) for s in symbols), sh)

    def forbidden(self):
        raise AssertionError("the oracle called partial_fractions")

    monkeypatch.setattr(RationalSymbol, "partial_fractions", forbidden)
    dims, block_dim = _PAIR_DIMS[symbols]
    assert oracle.null_dims(oracle.pair_sections(pair, sh, 256), "+-") == dims
    assert numerical_null_space(operator_section("block", pair, sh, 256)).dim == block_dim


def test_hankel_memory_bounded():
    # besides the n x n section, B @ C holds n x R and R x n blocks, R = b.analytic_pad, whatever n
    sh = make_shift(1.5 + 0.5j)
    b = sh.chi.power(-2) + RationalSymbol.constant(0.5)
    tracemalloc.start()
    try:
        oracle._hankel_entries(b, sh, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96e6


def test_null_space_identity():
    sec = FiniteSection(12, np.eye(12, dtype=complex), "toeplitz", {})
    ns = numerical_null_space(sec)
    assert ns.dim == 0
    assert ns.right.shape == (12, 0)


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def test_null_dims_leaves_no_free_heap():
    # a section without null space: its null space returns right after the
    # least-squares solve, whose n x n copy of the section is freed into the
    # heap; null_dims hands it back to the OS instead of keeping it resident
    try:
        mallinfo2 = ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError, TypeError):
        pytest.skip("needs glibc's mallinfo2")
    mallinfo2.restype = _MallInfo2
    n = 512
    sec = FiniteSection(n, 2.0 * np.eye(n, dtype=complex), "toeplitz", {})
    np.ones((n, n), dtype=complex).sum()   # freeing an n x n block moves such blocks to the heap
    assert oracle.null_dims({"+": sec}, "+") == {"+": (0, 0)}
    assert mallinfo2().keepcost < 1 << 20


def test_null_space_chi_inverse(shift2):
    sec = operator_section("toeplitz", shift2.chi.invert(), shift2, 64)
    ns = numerical_null_space(sec)
    assert ns.dim == 1
    # kernel is the constants: the null vector aligns with e_0
    assert abs(abs(ns.right[0, 0]) - 1.0) < 1e-10


def test_null_space_golden_pair(shift2):
    pair = make_matching_pair(shift2.chi.power(-2), shift2.chi.power(-2), shift2)
    sec = operator_section("plus", pair, shift2, 256)
    ns = numerical_null_space(sec)
    assert ns.dim == 2
    dk, dc = localized_null_dims(ns, 256)
    assert (dk, dc) == (2, 0)


_MORE_K = (-3, -1, 2)
_ALL_K = (-10, -6, -3, -2, -1, 1, 2, 3)


def _reference_cases():
    for k in (-10, -6, -2, 1, 3):
        for beta in (2.0, 1.5 + 0.5j):
            for n in (128, 256):
                yield pytest.param(("chi", k, beta, n), id=f"chi^{k}-beta{beta}-N{n}")
    for k, beta in itertools.chain(itertools.product(_MORE_K, (2.0, 1.5 + 0.5j)),
                                   itertools.product(_ALL_K, (2j, 3.0))):
        yield pytest.param(("chi", k, beta, 128), id=f"chi^{k}-beta{beta}-N128")
    yield pytest.param(("block", -2, 2.0, 128), id="block-chi^-2-N128")
    yield pytest.param(("identity",), id="identity")
    yield pytest.param(("zero",), id="zero")


def _reference_sections(case):
    if case[0] in ("identity", "zero"):
        entries = np.eye(32, dtype=complex) * (case[0] == "identity")
        return [FiniteSection(32, entries, case[0], {})]
    kind, k, beta, n = case
    sh = make_shift(beta)
    sym = sh.chi.power(k)
    if kind == "block":
        # exact zero pivots: inverse iteration on this section's own LU fails
        return [operator_section("block", make_matching_pair(sym, sym, sh), sh, n)]
    return list(oracle.pair_sections((sym, sym), sh, n).values())


@pytest.mark.parametrize("case", list(_reference_cases()))
def test_null_space_matches_full_svd(case):
    eps = np.finfo(float).eps
    for sec in _reference_sections(case):
        m = sec.entries
        ns = numerical_null_space(sec)
        u, s, vh = scipy.linalg.svd(m)
        n, smax = len(s), s[0]
        k = int(np.sum(s <= SVD_TOL * smax))
        ref = NullSpace(k, vh[n - k :].conj().T, u[:, n - k :])
        assert ns.dim == k
        assert localized_null_dims(ns, sec.size) == localized_null_dims(ref, sec.size)
        assert ns.right.shape == ns.left.shape == (n, k)
        if k == n:
            assert np.allclose(ns.right.conj().T @ ns.right, np.eye(n))
            continue
        for got, want, op in ((ns.right, ref.right, m), (ns.left, ref.left, m.conj().T)):
            dist = np.linalg.norm(got - want @ (want.conj().T @ got), 2)
            assert dist <= 1e4 * eps * smax / s[n - k - 1]
            assert np.linalg.norm(op @ got, 2) < SVD_TOL * smax


def _band(n):
    # numerical_null_space's docstring: below this factor over the needed
    # margin, a split the full SVD certifies may raise NoSpectralGap
    return (oracle.HMT * np.sqrt(2 * n)) ** (1 / 3)


def _assert_full_svd_verdict(sec):
    """Compare with the verdict of the full singular spectrum: k values at or
    below the cut, certified when the next is SVD_GAP times the largest of
    them; returns "no gap", "band" or "certified"."""
    u, s, vh = scipy.linalg.svd(sec.entries)
    n, cut = len(s), SVD_TOL * s[0]
    k = int(np.sum(s <= cut))
    dropped = s[n - k] if 0 < k < n else 0.0
    if dropped > 0 and s[n - k - 1] < SVD_GAP * dropped:
        with pytest.raises(NoSpectralGap):
            numerical_null_space(sec)
        return "no gap"
    try:
        ns = numerical_null_space(sec)
    except NoSpectralGap:
        assert 0 < s[n - k - 1] < _band(n) * max(cut, SVD_GAP * dropped)
        return "band"
    ref = NullSpace(k, vh[n - k :].conj().T, u[:, n - k :])
    assert ns.dim == k
    assert localized_null_dims(ns, n) == localized_null_dims(ref, n)
    return "certified"


@pytest.mark.parametrize("k", _ALL_K)
@pytest.mark.parametrize("beta", [1.2, 1.1])
def test_null_space_verdict_matches_full_svd_near_circle(k, beta):
    # near the circle kept singular values approach the cut and chi^-10 has
    # no gap at all: same dims and localized dims where the full SVD certifies
    # by more than the band, NoSpectralGap where it finds no gap
    sh = make_shift(beta)
    sym = sh.chi.power(k)
    for n in (128, 256):
        for sec in oracle.pair_sections((sym, sym), sh, n).values():
            _assert_full_svd_verdict(sec)


@pytest.mark.parametrize("mixed", [False, True])
def test_null_space_gap_band(mixed):
    # two dropped values at half the cut, the smallest kept one `ratio` times
    # larger: the full SVD finds no gap below 100, so neither may the oracle;
    # at 1e4 the margin is 100 times what is needed, far outside the band
    n = 64
    rng = np.random.default_rng(5)
    frames = [np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
              for _ in range(2)] if mixed else [np.eye(n)] * 2
    verdicts = {}
    for ratio in (30, 99, 101, 300, 1e4):
        d = np.linspace(1.0, 0.5, n)
        d[-2:] = 0.5 * SVD_TOL
        d[-3] = ratio * d[-1]
        m = (frames[0] * d) @ frames[1].conj().T
        verdicts[ratio] = _assert_full_svd_verdict(FiniteSection(n, m, "toeplitz", {}))
    assert verdicts[30] == verdicts[99] == "no gap"
    assert verdicts[1e4] == "certified"


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(("diag",), id="diag-half-cut"),
        pytest.param(("chi", 2, 1.1, 256), id="chi^2-beta1.1-N256"),
        pytest.param(("chi", 3, 1.2, 128), id="chi^3-beta1.2-N128"),
    ],
)
def test_null_space_residual_matches_singular_vectors(case):
    # dropped singular values well above rounding (0.06-0.5 of the cut): one
    # step of inverse iteration from X leaves residuals up to 36 times the
    # singular vectors' own and fails the cut; the basis must match them
    if case[0] == "diag":
        d = np.ones(32)
        d[-2:] = 0.5 * SVD_TOL
        sections = [FiniteSection(32, np.diag(d).astype(complex), "toeplitz", {})]
    else:
        sections = _reference_sections(case)
    for sec in sections:
        m = sec.entries
        ns = numerical_null_space(sec)
        s = scipy.linalg.svd(m, compute_uv=False)
        n, k = len(s), ns.dim
        assert k == int(np.sum(s <= SVD_TOL * s[0])) > 0
        assert s[n - k] > 1e-4 * SVD_TOL * s[0]
        for basis, op in ((ns.right, m), (ns.left, m.conj().T)):
            assert np.linalg.norm(op @ basis, 2) <= 1.01 * s[n - k]


def test_null_space_solve_budget(shift2, monkeypatch):
    # one M' per sketch width when k <= SKETCH (k = 0 too), and still one
    # with the power step of chi^3 at beta 1.2.  A section without factors
    # (the pair sections' factorless copies here) factors M' once (_factor)
    # and solves M'' through M''s solves; a pair section on the structured
    # path (forced: at N = 128 the dispatch takes the dense one) builds the
    # solves of M' and of M'' through S (a _Woodbury on the circulant,
    # twice) and factors nothing.  With LAPACK bound no n x n least-squares
    # solve, SVD, inverse or np.linalg.solve, and none on the structured
    # path at all; Ritz SVDs of at most 4 max(k, SKETCH) columns, the SVDs
    # of E's corners (_corner) apart.  Adjoint solves, counted on the LU and
    # on every _Woodbury: one with M' per sketch width; then on the dense
    # path one with M' as M'' is built (M'^-H V), and three per adjoint
    # solve with M'' (its own and the two with M' it is refined with): 5 for
    # chi^-2, 8 for chi^3 with its power step, 6 for the diagonal (two
    # widths) and 5 for the identity; on the structured path one per
    # adjoint solve with M'' (S's own are not counted): 2 and 3
    calls, factored, built, powers, adjoint, corner = [], [], [], [], [], []
    for name in ("lstsq", "svd", "solve", "inv"):
        def recorded(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append((_name if not corner else "corner " + _name, np.shape(a)))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    factor, compress = oracle._factor, oracle._corner

    def counted(aug):
        factored.append(np.shape(aug))
        return factor(aug)

    def in_corner(*args):
        corner.append(True)
        try:
            return compress(*args)
        finally:
            corner.pop()

    monkeypatch.setattr(oracle, "_factor", counted)
    monkeypatch.setattr(oracle, "_corner", in_corner)
    monkeypatch.setattr(oracle, "_cheaper", lambda *args: True)
    build = oracle._Woodbury.__init__

    def counted_build(self, section, scale, lu, *args):
        if isinstance(lu, oracle._Circulant):
            built.append(True)
        build(self, section, scale, lu, *args)

    monkeypatch.setattr(oracle._Woodbury, "__init__", counted_build)
    for solver in (oracle._LU, oracle._Solve, oracle._Woodbury):
        monkeypatch.setattr(solver, "solve_adjoint", lambda self, rhs, _fn=solver.solve_adjoint:
                            adjoint.append(rhs.shape) or _fn(self, rhs))
    bound_of = oracle._smallest_bound
    monkeypatch.setattr(oracle, "_smallest_bound",
                        lambda probes, power=1: powers.append(power) or bound_of(probes, power))
    bound = oracle._lapack() is not None
    near = make_shift(1.2)
    pairs = [(oracle.pair_sections((shift2.chi.power(-2),) * 2, shift2, 128)["+"], 2, [1], 5, 2),
             (oracle.pair_sections((near.chi.power(3),) * 2, near, 128)["+"], 2, [1, 3], 8, 3)]
    d = np.ones(64)
    d[::8] = 0.0
    sections = [(_dense(sec), dim, 1, 0, bound_powers, solves)
                for sec, dim, bound_powers, solves, _ in pairs]
    sections += [
        (FiniteSection(64, np.diag(d).astype(complex), "toeplitz", {}), 8, None, 0, [1], 6),
        (FiniteSection(64, np.eye(64, dtype=complex), "toeplitz", {}), 0, 1, 0, [1], 5),
    ]
    sections += [(sec, dim, 0, 2, bound_powers, solves)
                 for sec, dim, bound_powers, _, solves in pairs]
    for sec, dim, factorizations, builds, bound_powers, adjoint_solves in sections:
        calls.clear()
        factored.clear()
        built.clear()
        powers.clear()
        adjoint.clear()
        assert numerical_null_space(sec).dim == dim
        assert powers == bound_powers
        assert len(adjoint) == adjoint_solves
        assert len(built) == builds
        assert set(factored) == (set() if builds else {(sec.size, sec.size)})
        if factorizations is not None:
            assert len(factored) == factorizations
        square = {name for name, shape in calls if shape == (sec.size, sec.size)}
        assert square == (set() if bound or builds else {"solve"})
        widths = [shape[1] for name, shape in calls if name == "svd"]
        assert widths and max(widths) <= 4 * max(dim, oracle.SKETCH)
        assert any(name == "corner svd" for name, _ in calls) == bool(builds)


def _null_space_or_gap(sec):
    try:
        return numerical_null_space(sec)
    except NoSpectralGap:
        return None


def _near_circle_cases():
    for k, beta in itertools.product(_ALL_K, (1.2, 1.1)):
        for n in (128, 256):
            yield pytest.param(("chi", k, beta, n), id=f"chi^{k}-beta{beta}-N{n}")


@pytest.mark.parametrize("case", [*_reference_cases(), *_near_circle_cases()])
def test_null_space_fallback_matches_lapack_lu(case, monkeypatch):
    # without the LAPACK binding every solve goes through np.linalg.solve: the
    # same dims, localized dims and NoSpectralGap verdicts, and bases that
    # span the same subspaces, to 1e-10 or, where the gap leaves the subspace
    # less well determined (chi^-10 at beta 1.5+0.5j: eps smax / gap is
    # 6.5e-10), to test_null_space_matches_full_svd's rounding bound
    _bound_lapack()
    sections = _reference_sections(case)
    bound = [_null_space_or_gap(sec) for sec in sections]
    monkeypatch.setattr(oracle, "_lapack", lambda: None)
    for sec, ns in zip(sections, bound):
        ref = _null_space_or_gap(sec)
        assert (ns is None) == (ref is None)
        if ns is None:
            continue
        assert ns.dim == ref.dim
        assert localized_null_dims(ns, sec.size) == localized_null_dims(ref, sec.size)
        if ns.dim in (0, sec.size):
            assert ns.right.shape == ref.right.shape == ref.left.shape == ns.left.shape
            continue
        s = scipy.linalg.svd(sec.entries, compute_uv=False)
        tol = max(1e-10, 1e4 * np.finfo(float).eps * s[0] / s[-1 - ns.dim])
        for got, want in ((ns.right, ref.right), (ns.left, ref.left)):
            assert got.shape == want.shape
            assert np.linalg.norm(got - want @ (want.conj().T @ got), 2) <= tol


def test_null_space_leaves_section_entries_unchanged(shift2):
    # zgetrf factors its block in place, and ctypes ignores the write flag:
    # M'' = M at k = 0 must be copied, M' and M'' at k > 0 are blocks of
    # their own
    pair = make_matching_pair(shift2.chi.power(-2), shift2.chi.power(-2), shift2)
    invertible = shift2.chi + RationalSymbol.constant(3.0)
    for sec, dim in ((operator_section("toeplitz", invertible, shift2, 64), 0),
                     (operator_section("plus", pair, shift2, 64), 2)):
        before = sec.entries.tobytes()
        assert numerical_null_space(sec).dim == dim
        assert sec.entries.tobytes() == before


def _bound_lapack():
    lapack = oracle._lapack()
    if lapack is None:
        pytest.skip("zgetrf of numpy's scipy-openblas is not bound here")
    return lapack


def _fake_getrf(monkeypatch, info_value):
    integer, _, getrs = _bound_lapack()

    def getrf(m, n, a, lda, ipiv, info):
        info.value = info_value

    monkeypatch.setattr(oracle, "_lapack", lambda: (integer, getrf, getrs))


def test_lu_zero_pivot_is_a_singular_section(monkeypatch):
    # info > 0 is LinAlgError, as from np.linalg.solve: numerical_null_space
    # doubles its sketch and then reports the augmented section singular
    _bound_lapack()
    aug = np.eye(16, dtype=complex)
    aug[3, 3] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        oracle._factor(aug)
    _fake_getrf(monkeypatch, 5)
    with pytest.raises(NoSpectralGap, match="augmented section is singular"):
        numerical_null_space(_diagonal_section(16, (0,)))


def test_lu_invalid_argument_is_a_runtime_error(monkeypatch):
    # info < 0 is a fault of the call, not malformed input, which is what a
    # ValueError means where the CLI parses a spec
    _fake_getrf(monkeypatch, -4)
    with pytest.raises(RuntimeError, match="argument 4") as exc:
        numerical_null_space(_diagonal_section(16, (0,)))
    assert not isinstance(exc.value, ValueError)


def test_lapack_binds_without_reading_proc(monkeypatch):
    # zgetrf and zgetrs are resolved through numpy's linalg extension, not
    # looked up by path in /proc/self/maps: they bind where /proc cannot be read
    _bound_lapack()
    real_open = builtins.open

    def no_proc(file, *args, **kwargs):
        if str(file).startswith("/proc"):
            raise PermissionError(f"{file} cannot be read (test)")
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", no_proc)
    oracle._lapack.cache_clear()
    try:
        lapack = oracle._lapack()
        assert lapack is not None
        lu = oracle._LU(2.0 * np.eye(8, dtype=complex), lapack)
        assert np.allclose(lu.solve(np.ones((8, 1))), 0.5)
    finally:
        oracle._lapack.cache_clear()


def test_lu_checks_shapes_before_lapack_sees_a_pointer():
    # zgetrs reads n rows of every right-hand side: a short one would be
    # read and written past its end
    _bound_lapack()
    lu = oracle._factor(2.0 * np.eye(8, dtype=complex))
    assert np.allclose(lu.solve(np.ones((8, 2))), 0.5)
    assert np.allclose(lu.solve_adjoint(np.ones((8, 2))), 0.5)
    for call, arg in ((lu.solve, np.ones((7, 2))), (lu.solve_adjoint, np.ones(8)),
                      (oracle._factor, np.ones((8, 7), dtype=complex))):
        with pytest.raises(ValueError):
            call(arg)


def _recorded_updates(monkeypatch):
    """The (arguments, object) of every _Woodbury numerical_null_space makes."""
    made = []

    class Recorded(oracle._Woodbury):
        def __init__(self, *args):
            super().__init__(*args)
            made.append((args, self))

    monkeypatch.setattr(oracle, "_Woodbury", Recorded)
    return made


def _chi2_plus(sh):
    """The plus section of chi^-2 at N = 64: k = 2."""
    return operator_section("plus", make_matching_pair(sh.chi.power(-2), sh.chi.power(-2), sh),
                            sh, 64)


def _update_cases():
    sh, near = make_shift(2.0), make_shift(1.2)
    yield pytest.param(lambda: operator_section(
        "toeplitz", sh.chi + RationalSymbol.constant(3.0), sh, 64), 0, id="k0")
    yield pytest.param(lambda: _chi2_plus(sh), 2, id="k2")
    # C = I + R^H M'^-1 L has condition 1e13 here: unrefined solves reach 4e-9
    yield pytest.param(lambda: oracle.pair_sections(
        (near.chi.power(-6),) * 2, near, 128)["+"], 6, id="chi^-6-beta1.2-N128")


@pytest.mark.parametrize("build, dim", _update_cases())
def test_woodbury_solves_match_the_lifted_section(build, dim, monkeypatch):
    # the update's solves, and the power step's product of both, against
    # M'' = M + sigma_max W0 V^H formed and factored explicitly (M at k = 0):
    # relative residuals at rounding level, as the direct LU leaves them
    made = _recorded_updates(monkeypatch)
    sec = build()
    assert numerical_null_space(sec).dim == dim
    (section, _, _, lift, _), update = made[0]
    m = section.entries
    lifted = lift[0] @ lift[1].conj().T + m
    norm = np.linalg.norm(lifted, 2)
    direct = oracle._factor(lift[0] @ lift[1].conj().T + m)
    b = oracle._gaussian(np.random.default_rng(1), len(m), 3)

    def worst(residual, x, scale):
        return np.max(np.linalg.norm(residual, axis=0) / (scale * np.linalg.norm(x, axis=0)))

    for solver in (update, direct):
        x, xa = solver.solve(b), solver.solve_adjoint(b)
        xp = solver.solve_adjoint(solver.solve(b))
        assert worst(b - lifted @ x, x, norm) <= 10 * np.finfo(float).eps
        assert worst(b - lifted.conj().T @ xa, xa, norm) <= 10 * np.finfo(float).eps
        assert worst(b - lifted @ (lifted.conj().T @ xp), xp, norm**2) <= 10 * np.finfo(float).eps


def test_woodbury_singular_capacitance_is_no_spectral_gap(shift2, monkeypatch):
    # C is singular exactly when M'' is: M' = I lifted by -e0 e0^H gives C = 0
    # and LinAlgError on both sides, as a singular M'' gave from zgetrf
    n = 8
    eye, e0, none = np.eye(n, dtype=complex), np.eye(n, 1, dtype=complex), np.zeros((n, 0))
    update = oracle._Woodbury(FiniteSection(n, eye, "toeplitz", {}), 1.0, oracle._factor(eye.copy()),
                              (-e0, e0), (none,) * 4)
    for solve in (update.solve, update.solve_adjoint):
        with pytest.raises(np.linalg.LinAlgError):
            solve(np.ones((n, 1), dtype=complex))
    sec = _chi2_plus(shift2)
    woodbury = oracle._Woodbury

    class Singular(woodbury):   # C = 0 exactly
        def __init__(self, *args):
            super().__init__(*args)
            self._c = self._c_adj = np.zeros_like(self._c)

    def unlifted(m, scale, lu, lift, drop):   # W0 = 0: M'' = M, C singular to rounding
        return woodbury(m, scale, lu, (0 * lift[0], lift[1]), drop)

    for update in (Singular, unlifted):
        monkeypatch.setattr(oracle, "_Woodbury", update)
        with pytest.raises(NoSpectralGap):
            numerical_null_space(sec)


def test_woodbury_backward_error_gate(shift2, monkeypatch):
    # a refined solve above SOLVE_BACKWARD_TOL certifies nothing
    sec = _chi2_plus(shift2)
    assert numerical_null_space(sec).dim == 2
    monkeypatch.setattr(oracle, "SOLVE_BACKWARD_TOL", 1e-30)
    with pytest.raises(NoSpectralGap, match="backward error"):
        numerical_null_space(sec)


@pytest.mark.parametrize("n", [128, 256])
def test_norm_estimate_bounds_the_norm_from_below(n, monkeypatch):
    # Golub-Kahan-Lanczos reads sigma_max from below: within 5e-3 on the
    # reference sections (4.8e-3 on chi^-10 at beta 2, N = 256), through the
    # structured products and through the dense ones
    for k, beta in itertools.product((-10, -6, -2, 1, 3), (2.0, 1.5 + 0.5j)):
        sh = make_shift(beta)
        for sec in oracle.pair_sections((sh.chi.power(k),) * 2, sh, n).values():
            norm = np.linalg.norm(sec.entries, 2)
            for path in (sec, _dense(sec)):
                est = oracle._norm_estimate(path, np.random.default_rng(0))
                assert (1 - 5e-3) * norm <= est <= norm * (1 + 1e-12)

    def estimate(entries):
        return oracle._norm_estimate(FiniteSection(64, entries, "toeplitz", {}),
                                     np.random.default_rng(0))

    assert estimate(np.zeros((64, 64), complex)) == 0.0
    diag = np.diag(np.linspace(0.0, 3.0, 64)).astype(complex)
    assert 3.0 * (1 - 5e-3) <= estimate(diag) <= 3.0
    monkeypatch.setattr(oracle, "LANCZOS_STEPS", 1)
    one = estimate(np.eye(64, dtype=complex))
    assert one == pytest.approx(1.0, abs=1e-15)


def _peak_start_sets():
    """The sections on which the start at |a|'s peak was measured (the
    comment of oracle.LANCZOS_STEPS), as functions that build them."""

    def chi(ks, betas, n):
        return lambda: [sec for k, beta in itertools.product(ks, betas) for sec in
                        oracle.pair_sections((make_shift(beta).chi.power(k),) * 2,
                                             make_shift(beta), n).values()]

    yield pytest.param(lambda: [sec for pair in benchmark_oracle_pairs() for sec in
                                oracle.pair_sections(pair, pair.shift, 1024).values()],
                       id="ORACLE_PAIRS-N1024")
    for n in (128, 256):
        yield pytest.param(chi((-10, -6, -2, 1, 3), (2.0, 1.5 + 0.5j), n), id=f"chi^k-N{n}")
    yield pytest.param(chi((-2, 3), (1.2, 1.05), 256), id="near-circle-N256")
    sh = make_shift(2.0)
    a = sh.chi.power(-1) * RationalSymbol.constant(0.01)
    b = sh.chi.power(-3) * RationalSymbol.constant(5.0)
    yield pytest.param(lambda: list(oracle.pair_sections((a, b), sh, 256).values()),
                       id="H-dominated-N256")


@pytest.mark.parametrize("build", _peak_start_sets())
def test_norm_estimate_from_the_peak_of_a(build):
    # a pair section's PEAK_LANCZOS_STEPS steps from the Fourier mode at
    # |a|'s peak read sigma_max within 5e-4 below (7.9e-5 to 2.3e-4 was
    # measured), where 20 steps from a random start read up to 4.8e-3 below
    for sec in build():
        norm = np.linalg.norm(sec.entries, 2)
        est = oracle._norm_estimate(sec, np.random.default_rng(0))
        assert (1 - 5e-4) * norm <= est <= norm * (1 + 1e-12)


def test_norm_estimate_steps_and_invariant_starts(shift2, monkeypatch):
    # a pair section takes PEAK_LANCZOS_STEPS products, its factorless copy
    # LANCZOS_STEPS from a random start; the zero pair section (a = b = 0)
    # reads 0.0 and the identity (a = 1, b = 0) 1.0, each after one product,
    # and neither warns
    zero, one = RationalSymbol.constant(0.0), RationalSymbol.constant(1.0)
    steps = []
    product = FiniteSection.product
    monkeypatch.setattr(FiniteSection, "product",
                        lambda self, x: steps.append(True) or product(self, x))
    sec = _chi2_plus(shift2)
    for path, count in ((sec, oracle.PEAK_LANCZOS_STEPS), (_dense(sec), oracle.LANCZOS_STEPS)):
        steps.clear()
        oracle._norm_estimate(path, np.random.default_rng(0))
        assert len(steps) == count
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pair, norm in (((zero, zero), 0.0), ((one, zero), 1.0)):
            for sec in oracle.pair_sections(pair, shift2, 64).values():
                steps.clear()
                est = oracle._norm_estimate(sec, np.random.default_rng(0))
                assert est == pytest.approx(norm, abs=1e-15) and len(steps) == 1


def _dense(sec):
    """The section with its factors stripped: every product reads entries."""
    return dataclasses.replace(sec, factors=None)


_PRODUCT_K = (-10, -6, -2, 1, 3)
_PRODUCT_BETAS = (2.0, 2j, 1.5 + 0.5j, 1.2, 1.05)


def _product_sections(n, leave_out=()):
    """The plus and minus sections of chi^k pairs, but the (k, beta) in
    leave_out, and of two pairs whose H(b) has rank R = 0 and R comparable
    to n (b's pole at 1.25: R = 172)."""
    for k, beta in itertools.product(_PRODUCT_K, _PRODUCT_BETAS):
        if (k, beta) in leave_out:
            continue
        sh = make_shift(beta)
        yield from oracle.pair_sections((sh.chi.power(k),) * 2, sh, n).values()
    sh = make_shift(2.0)
    wide = RationalSymbol(LaurentPolynomial.constant(1.0), LaurentPolynomial.from_roots([1.25]))
    for a, b in ((sh.chi, sh.chi.invert()), (sh.chi.power(-2), wide)):
        yield from oracle.pair_sections((a, b), sh, n).values()


@pytest.mark.parametrize("n", [16, 64, 256, 1024])
def test_structured_products_match_entries(n):
    # the FFT of T's circulant embedding and H(b) = B C against entries @ x
    # and entries^H @ x, to 1e-14 of ||M|| (the largest column norm stands
    # in for ||M||_2, which it bounds from below)
    x = oracle._gaussian(np.random.default_rng(2), n, 3)
    ranks = set()
    for sec in _product_sections(n):
        m = sec.entries
        scale = np.max(np.linalg.norm(m, axis=0)) * np.linalg.norm(x, axis=0)
        column = sec.product(x[:, 0])
        assert column.shape == (n,)
        for got, want in ((sec.product(x), m @ x), (sec.adjoint_product(x), m.conj().T @ x),
                          (column[:, None], m @ x[:, :1])):
            assert got.shape == want.shape
            assert np.all(np.linalg.norm(got - want, axis=0) <= 1e-14 * scale[: got.shape[1]])
        ranks.add(sec.factors[1].shape[1])
    assert 0 in ranks and max(ranks) == 172


@pytest.mark.parametrize("n", [16, 64, 256, 1024])
def test_augmented_section_matches_entries(n):
    # M' of a pair section, one product of rank R + p into which T(a)'s
    # window is added, against entries + L R^H, to 1e-14 of the largest
    # column norm, on both signs of test_structured_products_match_entries'
    # pairs; the entries formed on first read are T +/- B C
    rng = np.random.default_rng(3)
    y, z = oracle._gaussian(rng, n, oracle.SKETCH), oracle._gaussian(rng, n, oracle.SKETCH)
    ranks = set()
    for sec in _product_sections(n):
        _, hank, flip, sign, window = sec.factors
        m = sec.entries
        assert np.array_equal(m, scipy.linalg.toeplitz(window[n - 1 :], window[n - 1 :: -1])
                              + sign * (hank @ flip))
        scale = np.max(np.linalg.norm(m, axis=0))
        aug = sec.augmented(scale * y, z)
        assert aug.flags.c_contiguous and aug.flags.writeable
        aug -= scale * y @ z.conj().T
        aug -= m
        assert np.max(np.linalg.norm(aug, axis=0)) <= 1e-14 * scale
        ranks.add(hank.shape[1])
    assert 0 in ranks and max(ranks) == 172


@pytest.mark.parametrize("n", [16, 64, 256])
def test_null_space_structured_matches_dense(n, monkeypatch):
    # the same dims, localized dims and NoSpectralGap verdicts with the
    # factors stripped, and bases spanning the same subspaces to the bound of
    # test_null_space_fallback_matches_lapack_lu; M' on the structured path
    # wherever its capacitance is narrower than the section (the dispatch
    # takes it only from N = 224 on, _cheaper)
    monkeypatch.setattr(oracle, "_cheaper", lambda n, extents, rank: rank < n)
    for sec in _product_sections(n):
        ns, ref = _null_space_or_gap(sec), _null_space_or_gap(_dense(sec))
        assert (ns is None) == (ref is None)
        if ns is None:
            continue
        assert ns.dim == ref.dim
        assert localized_null_dims(ns, sec.size) == localized_null_dims(ref, sec.size)
        if ns.dim in (0, sec.size):
            assert ns.right.shape == ref.right.shape == ref.left.shape == ns.left.shape
            continue
        s = scipy.linalg.svd(sec.entries, compute_uv=False)
        tol = max(1e-10, 1e4 * np.finfo(float).eps * s[0] / s[-1 - ns.dim])
        for got, want in ((ns.right, ref.right), (ns.left, ref.left)):
            assert got.shape == want.shape
            assert np.linalg.norm(got - want @ (want.conj().T @ got), 2) <= tol


@pytest.mark.parametrize("n, extents, rank, structured", [
    (192, [53, 0], 7, False),
    (256, [53, 0], 7, True),
    (256, [86, 0], 7, False),
    (256, [92, 0], 17, False),
    (256, [0, 44], 55, False),
    (384, [86, 0], 6, True),
    (384, [57, 0], 43, True),
    (384, [0, 44], 55, False),
    (512, [57, 0], 89, False),
    (1024, [57, 0], 88, True),
    (1024, [57, 0], 178, False),
])
def test_cheaper_picks_the_measured_faster_path(n, extents, rank, structured):
    # pair sections next to each of the rule's three bounds, each M' path
    # timed on the same section (one BLAS thread, 2-core host): the
    # structured one was faster exactly where structured is True
    assert oracle._cheaper(n, extents, rank) is structured


def _backward_error(m, left, right, b, x, scale):
    """Normwise backward error of x as a solution of (m + left right^H) x = b."""
    residual = b - m @ x - left @ (right.conj().T @ x)
    return np.max(np.linalg.norm(residual, axis=0)
                  / (scale * np.linalg.norm(x, axis=0) + np.linalg.norm(b, axis=0)))


@pytest.mark.parametrize("n", [16, 64, 256, 1024])
def test_structured_solves_match_lu(n, monkeypatch):
    # M' = M + sigma Y Z^H on both signs of the _product_sections pairs,
    # solved on both sides through S (_augmented_solves): normwise backward
    # errors within SOLVE_BACKWARD_TOL of M', as the LU of the formed block
    # (_factor) gives below N = 1024.  Below N = 1024 the structured path is
    # forced; at N = 1024 the dispatch chooses (44 of the 54 M').  A
    # structured solve that fails its gate raises and is not kept: with
    # k > p, M' is singular to about the cut and its capacitance to
    # rounding (chi^-10 at beta 1.5+0.5j: 1.7e-13), so most M' keep their
    # structured solves, not all: 43-54 of the 54 at each N
    if n < 1024:
        monkeypatch.setattr(oracle, "_cheaper", lambda *args: True)
    rng = np.random.default_rng(4)
    kept = 0
    for sec in _product_sections(n):
        scale = oracle._norm_estimate(sec, np.random.default_rng(0))
        left = scale * oracle._gaussian(rng, n, oracle.SKETCH)
        right = oracle._gaussian(rng, n, oracle.SKETCH)
        b = oracle._gaussian(rng, n, 3)
        solves = oracle._augmented_solves(sec, scale)(left, right)
        if not isinstance(solves, oracle._Woodbury):
            continue
        m = sec.entries
        solvers = [solves] if n == 1024 else [solves, oracle._factor(left @ right.conj().T + m)]
        for solver in solvers:
            try:
                solved = ((solver.solve(b), m), (solver.solve_adjoint(b), m.conj().T))
            except (NoSpectralGap, NumericalBreakdown, np.linalg.LinAlgError):
                if solver is not solves:
                    raise
                continue   # a structured solve that failed its gate
            for x, op in solved:
                lifted = (left, right) if op is m else (right, left)
                assert _backward_error(op, *lifted, b, x, scale) <= oracle.SOLVE_BACKWARD_TOL
            kept += solver is solves
    assert kept >= 40


# (k, beta) of _product_sections whose sketch widens to p = n on the dense
# path and ends in NoSpectralGap: about 10 s a section at N = 1024
_WIDENING = {(-10, 1.2), (-10, 1.05), (-6, 1.05)}


def _recorded_structured(monkeypatch):
    """Every _Woodbury numerical_null_space builds on the circulant S (a
    structured M' or M''), each recording its solves as (adjoint, rhs, x),
    x None for a solve that raised."""
    made = []

    class Recorded(oracle._Woodbury):
        def __init__(self, section, scale, lu, lift, drop):
            super().__init__(section, scale, lu, lift, drop)
            # M'' is lifted by V, whose columns are orthonormal; M' by the Gaussian Z
            q = lift[1]
            self.lifted = np.allclose(q.conj().T @ q, np.eye(q.shape[1]))
            self.lift, self.scale, self.solved = lift, scale, []
            if isinstance(lu, oracle._Circulant):
                made.append(self)

        def solve(self, rhs):
            return self._recorded(False, rhs, super().solve)

        def solve_adjoint(self, rhs):
            return self._recorded(True, rhs, super().solve_adjoint)

        def _recorded(self, adjoint, rhs, solve):
            x = None
            try:
                x = solve(rhs)
                return x
            finally:
                self.solved.append((adjoint, rhs, x))

    monkeypatch.setattr(oracle, "_Woodbury", Recorded)
    return made


@pytest.mark.parametrize("n", [256, 1024])
def test_structured_lifted_solves_and_dims(n, monkeypatch):
    # where M' takes the structured path, M'' = M + sigma_max W0 V^H is
    # solved through S too: every solve that stays structured has a normwise
    # backward error within SOLVE_BACKWARD_TOL of M'' formed from the
    # entries, and numerical_null_space gives the dims, localized dims and
    # NoSpectralGap verdicts of each section's factorless copy.  At
    # N = 1024 (the _WIDENING sections left out) a null space with a
    # structured M' factors nothing: a width whose structured solve fails
    # its gate (p < k, chi^-10 and chi^-6 at beta 1.5+0.5j) goes straight
    # to the wider sketch.  There only those four null spaces are compared
    # with their factorless copies (one n x n LU each); N = 256 compares all
    made, factored = _recorded_structured(monkeypatch), []
    factor = oracle._factor
    monkeypatch.setattr(oracle, "_factor", lambda aug: factored.append(aug.shape) or factor(aug))
    structured = lifted = failures = 0
    for sec in _product_sections(n, _WIDENING if n == 1024 else ()):
        made.clear()
        factored.clear()
        ns = _null_space_or_gap(sec)
        # an M' that failed its gate raised in one of its two solves
        failed = any(x is None for s in made if not s.lifted for *_, x in s.solved)
        if n == 1024 and made:
            structured += 1
            failures += failed
            assert factored == []
        m = sec.entries
        for solver in (s for s in made if s.lifted):
            p, q = solver.lift
            lifted += all(x is not None for *_, x in solver.solved)
            for adjoint, b, x in solver.solved:
                op, lift = (m.conj().T, (q, p)) if adjoint else (m, (p, q))
                assert x is None or _backward_error(op, *lift, b, x, solver.scale) \
                    <= oracle.SOLVE_BACKWARD_TOL
        if n == 1024 and not failed:
            continue
        ref = _null_space_or_gap(_dense(sec))
        assert (ns is None) == (ref is None)
        if ns is not None:
            assert ns.dim == ref.dim
            assert localized_null_dims(ns, n) == localized_null_dims(ref, n)
    # 24 and 44 M'' passed every gate at N = 256 and 1024, where 44 null spaces took it
    assert lifted >= {256: 20, 1024: 40}[n]
    assert n < 1024 or (structured >= 40 and failures >= 4)


def test_structured_lifted_gate_failure_is_no_spectral_gap(shift2, monkeypatch):
    # a structured M'' whose solves fail their gate is NoSpectralGap, as a
    # wider sketch leaves M'' as it is; the formed M'' is never factored
    sec = oracle.pair_sections((shift2.chi.power(-2),) * 2, shift2, 256)["+"]
    made, factored = _recorded_structured(monkeypatch), []
    assert numerical_null_space(sec).dim == 2
    assert [s.lifted for s in made] == [False, True]
    factor, woodbury = oracle._factor, oracle._Woodbury
    monkeypatch.setattr(oracle, "_factor", lambda aug: factored.append(aug.shape) or factor(aug))

    class Failing(woodbury):
        def _refined(self, b, first, apply):
            if self._q.shape[1] == 2:   # V: the solves of M''
                raise NoSpectralGap("forced gate failure")
            return super()._refined(b, first, apply)

    monkeypatch.setattr(oracle, "_Woodbury", Failing)
    made.clear()
    with pytest.raises(NoSpectralGap, match="forced gate failure"):
        numerical_null_space(sec)
    assert factored == []
    assert [s.lifted for s in made] == [False, True] and made[1].solved[0][2] is None


def test_pair_sections_at_1024_factor_no_block(monkeypatch):
    # the dispatch: the eight benchmark sections at N = 1024 solve M' through
    # its structure, with no _factor and no zgetrf, and give the dims and
    # localized dims of their factorless copies, which factor M' once each
    factored, getrf_calls = [], []
    factor = oracle._factor
    monkeypatch.setattr(oracle, "_factor", lambda aug: factored.append(aug.shape) or factor(aug))
    lapack = oracle._lapack()
    if lapack is not None:
        integer, getrf, getrs = lapack

        def counted(*args):
            getrf_calls.append(True)
            return getrf(*args)

        monkeypatch.setattr(oracle, "_lapack", lambda: (integer, counted, getrs))
    n = 1024
    for pair in benchmark_oracle_pairs():
        for sec in oracle.pair_sections(pair, pair.shift, n).values():
            ns = numerical_null_space(sec)
            assert factored == getrf_calls == []
            ref = numerical_null_space(_dense(sec))
            assert factored == [(n, n)] and len(getrf_calls) == (lapack is not None)
            assert ns.dim == ref.dim
            assert localized_null_dims(ns, n) == localized_null_dims(ref, n)
            factored.clear()
            getrf_calls.clear()


def test_pair_section_products_never_read_the_dense_block(monkeypatch):
    # the dense block of a pair section is never formed: not by its null
    # space (M' comes from its factors), lifted solves or residual gates, nor
    # by defect_numbers, kernel_cokernel_bases and coburn_class, which take
    # their sections from pair_sections.  A first read of entries forms them
    # and keeps them in the section, so none may be kept after these runs
    from toephankel import coburn_class, kernel_cokernel_bases, kernels

    sh = make_shift(2.0)
    pair = make_matching_pair(sh.chi.power(-2), sh.chi.power(-2), sh)
    build, made = oracle.pair_sections, []

    def recorded(*args):
        sections = build(*args)
        made.extend(sections.values())
        return sections

    monkeypatch.setattr(kernels, "pair_sections", recorded)
    f = TruncatedSeries(0, np.array([1.0, 0.5j, 0.25]))
    for sec in recorded(pair, sh, 128).values():
        assert numerical_null_space(sec).dim == 2
        residual_check(sec, f)
        residual_check(sec, f, adjoint=True)
    assert defect_numbers(pair, oracle_size=128).oracle["agreement"]["all"]
    for which in itertools.product(("ker", "coker"), "+-"):
        kernel_cokernel_bases(pair, which, oracle_size=128)
    one = RationalSymbol.constant(1.0)
    assert coburn_class(one, one, sh, oracle_size=64)
    # 2 sections each: the loop above, defect_numbers, the two kernel bases
    # (the cokernels are empty, so their gate builds none) and coburn_class
    assert len(made) == 10
    assert not any("entries" in vars(sec) for sec in made)
    sec = made[0]
    assert sec.entries is sec.entries and "entries" in vars(sec)


@pytest.mark.parametrize("k", [0, 1, 4, 5, 12, 32])
def test_null_space_sketch_width(k):
    # k exact zeros on the diagonal, at both sides of the sketch width
    n = 32
    d = np.linspace(1.0, 0.1, n)
    d[np.random.default_rng(k).permutation(n)[:k]] = 0.0
    m = np.diag(d).astype(complex)
    ns = numerical_null_space(FiniteSection(n, m, "toeplitz", {}))
    s = scipy.linalg.svd(m, compute_uv=False)
    cut = SVD_TOL * s[0]
    assert ns.dim == k == int(np.sum(s <= cut))
    assert ns.right.shape == ns.left.shape == (n, k)
    for basis, op in ((ns.right, m), (ns.left, m.conj().T)):
        assert np.allclose(basis.conj().T @ basis, np.eye(k))
        assert np.all(np.linalg.norm(op @ basis, axis=0) <= cut)


def test_localization_is_basis_invariant():
    # span{e_0, e_{n-1}, e_{n-2}} with e_0 spread evenly over all three
    # basis vectors: each has mass 1/3 in the first half, the span holds e_0
    n = 16
    frame = np.zeros((n, 3), dtype=complex)
    frame[[0, n - 1, n - 2], [0, 1, 2]] = 1.0
    dft = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)
    ns = NullSpace(3, frame @ dft, np.zeros((n, 0), complex))
    assert np.allclose(np.abs(ns.right[0]) ** 2, 1 / 3)
    assert localized_null_dims(ns, n) == (1, 0)


def test_no_spectral_gap():
    d = np.ones(16)
    d[-1] = 1e-9
    d[-2] = 3e-8  # only a factor 30 above the zero block
    sec = FiniteSection(16, np.diag(d).astype(complex), "toeplitz", {})
    with pytest.raises(NoSpectralGap):
        numerical_null_space(sec)


def test_residual_examples(shift2):
    sec = operator_section("toeplitz", shift2.chi.invert(), shift2, 64)
    assert residual_check(sec, TruncatedSeries.basis(0)) < 1e-12
    eye = operator_section("toeplitz", RationalSymbol.constant(1.0), shift2, 64)
    assert abs(residual_check(eye, TruncatedSeries.basis(0)) - 1.0) < 1e-14


def test_residual_kernel_family(shift2):
    from toephankel import factorize

    g = shift2.chi.power(-4)
    fac = factorize(g)
    gpi = fac.g_plus.invert()
    f = gpi * (shift2.chi + shift2.chi.power(2))
    sec = operator_section("toeplitz", g, shift2, 256)
    assert residual_check(sec, analytic_series(f)) < 1e-8


def test_residual_window_guard(shift2):
    sec = operator_section("toeplitz", shift2.chi, shift2, 16)
    with pytest.raises(WindowTooTight):
        residual_check(sec, TruncatedSeries.basis(15))


def test_dimension_stability_and_entry_stability(shift2):
    pair = make_matching_pair(shift2.chi.power(-2), shift2.chi.power(-2), shift2)
    dims = []
    entries = {}
    for n in (64, 128, 256):
        sec = operator_section("plus", pair, shift2, n)
        entries[n] = sec.entries
        dims.append(numerical_null_space(sec).dim)
    assert dims == [2, 2, 2]
    sl = np.s_[:32, :32]
    assert np.max(np.abs(entries[64][sl] - entries[128][sl])) < 1e-8
    assert np.max(np.abs(entries[128][sl] - entries[256][sl])) < 1e-8


def test_block_consistency(shift2):
    pair = make_matching_pair(shift2.chi.power(-2), shift2.chi.power(-2), shift2)
    n = 128
    blk = operator_section("block", pair, shift2, n)
    plus = operator_section("plus", pair, shift2, n)
    minus = operator_section("minus", pair, shift2, n)
    nb = numerical_null_space(blk).dim
    assert nb == numerical_null_space(plus).dim + numerical_null_space(minus).dim


def test_dump_roundtrip(tmp_path, shift2):
    sec = operator_section("toeplitz", shift2.chi, shift2, 16)
    path = tmp_path / "section.bin"
    dump_section(sec, path)
    raw = path.read_bytes()
    assert raw[:4] == b"TPHK"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:16], "little") == 16
    assert len(raw) == 16 + 16 * 16 * 2 * 8
    loaded = load_section(path)
    assert np.array_equal(loaded.entries, sec.entries)


def test_toeplitz_sections_share_one_helper(shift2, monkeypatch):
    from toephankel import PCSymbol, pc

    helper = oracle._toeplitz_window
    calls = []

    def recorded(window, width):
        calls.append(width)
        return helper(window, width)

    monkeypatch.setattr(oracle, "_toeplitz_window", recorded)
    entries = operator_section("toeplitz", shift2.chi, shift2, 16).entries
    assert calls == [16]
    pc_entries, _ = pc.pc_toeplitz_entries(PCSymbol(shift2.chi, ()), shift2, 16)
    assert calls == [16, 16]
    assert np.allclose(pc_entries, entries, atol=1e-10)


# ---------------------------------------------------------------------------
# null spaces of several sections at once

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _two_cpus(monkeypatch, threads):
    """Two usable CPUs, and an OpenBLAS getter that reports threads per call
    (None: no getter, as under Accelerate or MKL)."""
    monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(oracle, "_blas_threads",
                        lambda: None if threads is None else lambda: threads)


def _set_width(monkeypatch, width):
    """Two usable CPUs and 2 // width OpenBLAS threads: width sections at once."""
    _two_cpus(monkeypatch, 2 // width)
    assert oracle._concurrent_sections(2) == width


class _Library:
    """A stand-in for numpy's linalg extension that exports getters, each
    returning its value."""

    def __init__(self, **getters):
        self._getters = getters

    def __getattr__(self, name):
        if name.startswith("__") or name not in self._getters:
            raise AttributeError(name)
        return lambda: self._getters[name]


@pytest.mark.parametrize("threads, width", [
    (2, 1), (1, 2), (None, 1),
    # the whole path through numpy's linalg extension, which exports
    # scipy-openblas's or a plain OpenBLAS's getter reporting one thread (as
    # OPENBLAS_NUM_THREADS=1, env1, or OMP_NUM_THREADS=1, env3, makes it)
    pytest.param(_Library(scipy_openblas_get_num_threads64_=1), 2, id="env1-scipy-openblas-2"),
    pytest.param(_Library(openblas_get_num_threads=1), 2, id="env3-openblas-2"),
])
def test_concurrent_sections_width(monkeypatch, threads, width):
    blas_threads = oracle._blas_threads
    if isinstance(threads, _Library):
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(oracle, "_linalg", lambda: (threads, "64_"))
        blas_threads.cache_clear()
    else:
        _two_cpus(monkeypatch, threads)
    try:
        assert oracle._concurrent_sections(2) == width
        assert oracle._concurrent_sections(1) == 1
    finally:
        blas_threads.cache_clear()


@pytest.mark.parametrize("names, found", [
    (("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"),
     "scipy_openblas_get_num_threads64_"),
    (("openblas_get_num_threads",), "openblas_get_num_threads"),
    (("scipy_openblas_get_num_threads",), None),   # the 32-bit name, where 64_ is asked for
    ((), None),
])
def test_blas_threads_getter_names(monkeypatch, names, found):
    # scipy-openblas's getter first, then the plain OpenBLAS one; neither
    # (Accelerate, MKL) leaves width 1
    monkeypatch.setattr(oracle, "_linalg", lambda: (_Library(**{n: n for n in names}), "64_"))
    oracle._blas_threads.cache_clear()
    try:
        getter = oracle._blas_threads()
        assert (getter and getter()) == found
    finally:
        oracle._blas_threads.cache_clear()


_WIDTH_SCRIPT = """
import os
os.sched_getaffinity = lambda pid: {0, 1}
from toephankel import oracle
print(oracle._concurrent_sections(2))
"""


@pytest.mark.parametrize("env, width", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
])
def test_concurrent_sections_width_from_openblas(env, width):
    # the width from OpenBLAS's own thread getter, which reads the environment
    # as OpenBLAS does (OPENBLAS_NUM_THREADS before OMP_NUM_THREADS); OpenBLAS
    # reads it when it loads, hence a fresh interpreter, and caps it at the
    # CPUs it finds, hence two of them
    if oracle._blas_threads() is None:
        pytest.skip("OpenBLAS's thread getter is not bound here")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two usable CPUs")
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    proc = subprocess.run([sys.executable, "-c", _WIDTH_SCRIPT], env={**base, **env},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == width


def _diagonal_section(n, zeros):
    d = np.ones(n)
    d[list(zeros)] = 0.0
    return FiniteSection(n, np.diag(d).astype(complex), "toeplitz", {})


def _sections_cases():
    for beta in (2.0, 2j):
        sh = make_shift(beta)
        chi2 = sh.chi.power(-2)
        yield f"chi^-2, beta={beta}", oracle.pair_sections((chi2, chi2), sh, 128)
    # k > SKETCH: the second solve runs in the worker as well
    yield "diagonal", {"+": _diagonal_section(64, range(6)), "-": _diagonal_section(64, (1, 2, 60))}


@pytest.mark.parametrize("case", list(_sections_cases()), ids=lambda c: c[0])
def test_null_dims_concurrent_equals_sequential(monkeypatch, case):
    _, sections = case
    solve = oracle.numerical_null_space
    in_main = {}

    def recorded(section):
        sign = next(sign for sign, sec in sections.items() if sec is section)
        in_main[sign] = threading.current_thread() is threading.main_thread()
        return solve(section)

    monkeypatch.setattr(oracle, "numerical_null_space", recorded)
    monkeypatch.setattr(oracle, "CONCURRENT_MIN_SIZE", 64)   # the sections here have 64-128 rows
    dims = {}
    for width in (1, 2):
        _set_width(monkeypatch, width)
        in_main.clear()
        dims[width] = oracle.null_dims(sections, ("+", "-"))
        assert in_main == {"+": True, "-": width == 1}
    assert dims[1] == dims[2]
    assert list(dims[2]) == ["+", "-"]


def _no_gap(second=3e-8):
    # test_no_spectral_gap's diagonal: only a factor 30 above the zero block
    d = np.ones(16)
    d[-1] = 1e-9
    d[-2] = second
    return FiniteSection(16, np.diag(d).astype(complex), "toeplitz", {})


@pytest.mark.parametrize("first, second", [
    ("no gap", "healthy"), ("healthy", "no gap"), ("no gap", "no gap 2"), ("no LU", "no gap"),
])
def test_null_dims_concurrent_errors_in_sign_order(monkeypatch, first, second):
    sections = {"healthy": _diagonal_section(16, (0,)), "no gap": _no_gap(),
                "no gap 2": _no_gap(5e-8), "no LU": _diagonal_section(16, (0, 1))}
    solve = oracle.numerical_null_space

    def failing_lu(section):   # an LU failure for "no LU"
        if section is sections["no LU"]:
            raise NoSpectralGap("augmented section is singular (test)")
        return solve(section)

    monkeypatch.setattr(oracle, "numerical_null_space", failing_lu)
    monkeypatch.setattr(oracle, "CONCURRENT_MIN_SIZE", 16)   # the sections here have 16 rows
    pair = {"+": sections[first], "-": sections[second]}
    raised = {}
    for width in (1, 2):
        _set_width(monkeypatch, width)
        before = threading.active_count()
        with pytest.raises(NoSpectralGap) as exc:
            oracle.null_dims(pair, ("+", "-"))
        assert threading.active_count() == before
        raised[width] = (exc.type, str(exc.value))
    assert raised[1] == raised[2]


def _record_threads(monkeypatch, sections, width):
    """null_dims with every null space waiting on a barrier of width parties
    before it is solved; whether each sign ran in the main thread."""
    in_main = {}
    barrier = threading.Barrier(width, timeout=10)
    solve = oracle.numerical_null_space

    def waiting(section):
        sign = next(sign for sign, sec in sections.items() if sec is section)
        in_main[sign] = threading.current_thread() is threading.main_thread()
        barrier.wait()
        return solve(section)

    monkeypatch.setattr(oracle, "numerical_null_space", waiting)
    assert oracle.null_dims(sections, ("+", "-")) == {"+": (1, 1), "-": (2, 2)}
    return in_main


def _two_null_spaces(n=64):
    return {"+": _diagonal_section(n, (0,)), "-": _diagonal_section(n, (1, 2))}


@pytest.mark.parametrize("width", [1, 2])
def test_null_dims_overlaps_whole_null_spaces(monkeypatch, width):
    # at width 2 both null spaces reach the barrier before either is solved;
    # at width 1 the barrier has one party and no worker runs
    monkeypatch.setattr(oracle, "CONCURRENT_MIN_SIZE", 64)
    _set_width(monkeypatch, width)
    in_main = _record_threads(monkeypatch, _two_null_spaces(), width)
    assert in_main == {sign: sign == "+" or width == 1 for sign in "+-"}


def test_null_dims_solves_small_sections_in_turn(monkeypatch):
    # below CONCURRENT_MIN_SIZE the width is 1, whatever the BLAS allows
    assert oracle.CONCURRENT_MIN_SIZE > 64
    _set_width(monkeypatch, 2)
    in_main = _record_threads(monkeypatch, _two_null_spaces(), 1)
    assert len(in_main) == 2 and all(in_main.values())


def test_null_dims_many_workers_lose_no_result(monkeypatch):
    # four sections on four CPUs: three workers and the calling thread store
    # their null spaces in one dict, with thread switches as often as can be
    sections = {str(k): _diagonal_section(32, range(k)) for k in range(4)}
    monkeypatch.setattr(oracle, "CONCURRENT_MIN_SIZE", 32)
    _two_cpus(monkeypatch, 1)
    expected = {sign: (int(sign), int(sign)) for sign in sections}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in ({0}, {0, 1, 2, 3}):
            monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: cpus)
            assert oracle._concurrent_sections(4) == len(cpus)
            for _ in range(10):
                before = threading.active_count()
                assert oracle.null_dims(sections, sections) == expected
                assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)


_RSS_SCRIPT = """
import ctypes
import os
os.sched_getaffinity = lambda pid: {0, 1}
import numpy as np
from toephankel import oracle
from toephankel.oracle import FiniteSection, numerical_null_space


class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = MallInfo2


def heap_mb():   # what glibc's malloc holds from the system, over every arena
    info = mallinfo2()
    return (info.arena + info.hblkhd) / 2**20


def rss_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:")) / 1024


n = 512
d = np.ones(n)
d[:3] = 0.0
sections = {"+": FiniteSection(n, np.diag(d).astype(complex), "toeplitz", {}),
            "-": FiniteSection(n, 2.0 * np.eye(n, dtype=complex), "toeplitz", {})}
np.ones((n, n), dtype=complex).sum()   # freeing an n x n block moves such blocks to the heap
for sec in sections.values():
    numerical_null_space(sec)
oracle._MALLOC_TRIM(0)
assert oracle._concurrent_sections(2) == 2 and n >= oracle.CONCURRENT_MIN_SIZE
before = heap_mb()
assert oracle.null_dims(sections, ("+", "-")) == {"+": (3, 3), "-": (0, 0)}
heap = heap_mb() - before
before = rss_mb()
assert oracle.null_dims(sections, ("+", "-")) == {"+": (3, 3), "-": (0, 0)}
print(heap, rss_mb() - before)
"""


def test_concurrent_null_dims_leave_no_resident_heap():
    # the worker's solves free n x n blocks into whichever malloc arena the
    # thread got; the oracle's fixed mmap threshold maps each such block on
    # its own and unmaps it when freed, in any arena.  So the first
    # concurrent call must not grow the malloc heap.  The second OpenBLAS
    # work buffer that call takes is mmapped by OpenBLAS, outside the heap,
    # and kept for the life of the process: a second concurrent call must
    # not grow the process.  A fresh interpreter, since the worker's arena
    # and the buffer last for the process.
    try:
        ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError, TypeError):
        pytest.skip("needs glibc's mallinfo2")
    if not hasattr(ctypes.pythonapi, "mallopt") or not os.path.exists("/proc/self/status"):
        pytest.skip("needs glibc's mallopt and /proc")
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run([sys.executable, "-c", _RSS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    heap, rss = map(float, proc.stdout.split())
    assert heap < 1.0
    assert rss < 1.0

import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from toephankel import (
    FiniteSection,
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
from toephankel.oracle import SVD_TOL, NullSpace
from toephankel.cli import main
from toephankel.errors import NoSpectralGap, WindowTooTight
from toephankel.kernels import analytic_series
from toephankel.shift import eval_alpha


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


def test_hankel_columns_match_exact_action(shift2, rng):
    # column k of H(b) is the analytic part of b * (flip of t^k)
    from toephankel.kernels import hankel_apply

    b = shift2.chi.power(-2) + RationalSymbol.constant(0.5)
    n = 24
    sec = operator_section("hankel", b, shift2, n)
    for k in (0, 1, 5):
        col = hankel_apply(b, RationalSymbol.monomial(k), shift2)
        expect = analytic_series(col).to_vector(n)
        assert np.max(np.abs(sec.entries[:, k] - expect)) < 1e-10


@pytest.mark.parametrize("beta", [2.0, 2j, 1.5 + 0.5j])
def test_hankel_columns_match_exact_action_nonzero(beta):
    from toephankel.kernels import hankel_apply

    sh = make_shift(beta)
    b = sh.chi * RationalSymbol.from_factors(
        0.7 - 0.2j, -1, [0.4 + 0.2j, 2.1 - 0.7j, -0.5j], [-1, -1, 1]
    )
    n = 24
    sec = operator_section("hankel", b, sh, n)
    largest = 0.0
    for k in (0, 1, 5):
        col = hankel_apply(b, RationalSymbol.monomial(k), sh)
        expect = analytic_series(col).to_vector(n)
        largest = max(largest, np.max(np.abs(expect)))
        assert np.max(np.abs(sec.entries[:, k] - expect)) < 1e-10
    assert largest > 0.1


@pytest.mark.parametrize("beta", [2.0, 2j, 1.5 + 0.5j, 1.2, 1.05j])
def test_hankel_entries_match_brute_force(beta):
    # the definition column by column: FFT of b * alpha_minus / t * alpha^k on
    # a fixed 2^15-point grid, with the powers taken one by one
    sh = make_shift(beta)
    b = sh.chi * RationalSymbol.from_factors(
        0.7 - 0.2j, -1, [0.4 + 0.2j, 2.1 - 0.7j, -0.5j], [-1, -1, 1]
    )
    n, m = 128, 2**15
    entries, _ = oracle._hankel_entries(b, sh, n)
    t = np.exp(2j * np.pi * np.arange(m) / m)
    at = eval_alpha(sh, t)
    w = b.eval(t) * sh.alpha_minus.eval(t) / t
    brute = np.stack([np.fft.fft(w * at**k)[:n] / m for k in range(n)], axis=1)
    assert np.max(np.abs(brute)) > 0.1
    assert np.max(np.abs(entries - brute)) < 1e-12 * max(1.0, np.max(np.abs(brute)))


def test_hankel_entries_seeded_across_blocks(monkeypatch):
    # blocks of at most 32 columns on any grid of 1024 points or more, so the
    # 128 columns span 4 blocks or more, each seeded from the one before
    monkeypatch.setattr(oracle, "HANKEL_BLOCK", 32 * 1024)
    sh = make_shift(1.5 + 0.5j)
    b = sh.chi * RationalSymbol.from_factors(
        0.7 - 0.2j, -1, [0.4 + 0.2j, 2.1 - 0.7j, -0.5j], [-1, -1, 1]
    )
    n, m = 128, 2**15
    ffts = []
    with monkeypatch.context() as mp:
        fft = np.fft.fft
        mp.setattr(np.fft, "fft", lambda a, *args, **kw: ffts.append(a.shape) or fft(a, *args, **kw))
        entries, _ = oracle._hankel_entries(b, sh, n)
    assert len(ffts) >= 3
    t = np.exp(2j * np.pi * np.arange(m) / m)
    at = eval_alpha(sh, t)
    w = b.eval(t) * sh.alpha_minus.eval(t) / t
    brute = np.stack([np.fft.fft(w * at**k)[:n] / m for k in range(n)], axis=1)
    assert np.max(np.abs(brute)) > 0.1
    assert np.max(np.abs(entries - brute)) < 1e-12 * max(1.0, np.max(np.abs(brute)))


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


def test_hankel_memory_bounded():
    # column blocks keep the work array near HANKEL_BLOCK values, whatever n
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


def _reference_cases():
    for k in (-10, -6, -2, 1, 3):
        for beta in (2.0, 1.5 + 0.5j):
            for n in (128, 256):
                yield pytest.param(("chi", k, beta, n), id=f"chi^{k}-beta{beta}-N{n}")
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
        ref = NullSpace(k, vh[n - k :].conj().T, u[:, n - k :], s)
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


def test_null_space_takes_singular_values_only(shift2, monkeypatch):
    # one n x n least-squares solve gives the count and the right basis (a
    # second one only when k > SKETCH); no n x n SVD computes vectors
    calls = []
    for name in ("lstsq", "svd", "solve", "qr"):
        def recorded(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a), kwargs.get("compute_uv", True)))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    pair = make_matching_pair(shift2.chi.power(-2), shift2.chi.power(-2), shift2)
    d = np.ones(64)
    d[::8] = 0.0
    sections = [
        operator_section("plus", pair, shift2, 64),
        FiniteSection(64, np.diag(d).astype(complex), "toeplitz", {}),
        FiniteSection(64, np.eye(64, dtype=complex), "toeplitz", {}),
    ]
    for sec, dim in zip(sections, (2, 8, 0)):
        calls.clear()
        assert numerical_null_space(sec).dim == dim
        square = [(name, uv) for name, shape, uv in calls if shape == (64, 64)]
        assert square.count(("lstsq", True)) == (2 if dim > oracle.SKETCH else 1)
        assert ("svd", True) not in square
        assert all(shape[1] <= max(dim, oracle.SKETCH) for _, shape, _ in calls
                   if shape != (64, 64))


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
    ns = NullSpace(3, frame @ dft, np.zeros((n, 0), complex), np.zeros(n))
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


@pytest.mark.parametrize("n", [1, 2, 5, 64, 1024])
def test_toeplitz_matrix_equals_scipy(n):
    rng = np.random.default_rng(n)
    col = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    row[0] = col[0]
    got = oracle.toeplitz_matrix(col, row)
    assert got.flags.c_contiguous and got.flags.writeable
    assert np.array_equal(got, scipy.linalg.toeplitz(col, row))


def test_toeplitz_sections_share_one_helper(shift2, monkeypatch):
    from toephankel import PCSymbol, pc

    helper = oracle.toeplitz_matrix
    assert pc.toeplitz_matrix is helper
    calls = []

    def recorded(col, row):
        calls.append(len(row))
        return helper(col, row)

    monkeypatch.setattr(oracle, "toeplitz_matrix", recorded)
    monkeypatch.setattr(pc, "toeplitz_matrix", recorded)
    entries, _ = oracle._toeplitz_entries(shift2.chi, 16)
    assert calls == [16]
    pc_entries, _ = pc.pc_toeplitz_entries(PCSymbol(shift2.chi, ()), shift2, 16)
    assert calls == [16, 16]
    assert np.allclose(pc_entries, entries, atol=1e-10)

import json
import tracemalloc

import numpy as np
import pytest

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

import numpy as np
import pytest

from toephankel import (
    LaurentPolynomial,
    RationalSymbol,
    TruncatedSeries,
    fourier_coefficients,
    make_shift,
    project_analytic,
)
from toephankel.errors import GridTooSmall, NumericalBreakdown
from toephankel.series import multiply_by_symbol

from helpers import random_rational


def test_chi_inverse_window(shift2):
    # geometric expansion of lam / (conj(beta) t - 1) for beta = 2
    f = fourier_coefficients(shift2.chi.invert(), (-5, 0))
    expect = np.array(
        [1j * np.sqrt(3.0) * 2.0**-k for k in range(5, 0, -1)] + [0.0]
    )
    assert np.max(np.abs(f.coeffs - expect)) < 1e-13


def test_alpha_minus_window(shift2):
    f = fourier_coefficients(shift2.alpha_minus, (-4, 0))
    expect = np.array([1j * np.sqrt(3.0) / 2 * 2.0**-k for k in range(4, -1, -1)])
    assert np.max(np.abs(f.coeffs - expect)) < 1e-13


def test_laurent_passthrough():
    s = RationalSymbol(LaurentPolynomial(0, [3.0, 0.0, 1.0]))  # t^2 + 3
    f = fourier_coefficients(s, (-2, 4))
    assert np.allclose(f.coeffs, [0, 0, 3, 0, 1, 0, 0])


def test_fft_agrees_with_exact(rng):
    for _ in range(12):
        s = random_rational(rng)
        lo, hi = -24, 24
        exact, _ = s.coefficients(lo, hi)
        fft = fourier_coefficients(s, (lo, hi))
        assert np.max(np.abs(exact - fft.coeffs)) < 1e-10


def test_grid_cap_raises():
    # pole hugging the circle from outside: tail needs ~1e9 modes
    s = RationalSymbol(
        LaurentPolynomial.one(), LaurentPolynomial(0, [-(1.0 + 2e-8), 1.0])
    )
    with pytest.raises(GridTooSmall):
        fourier_coefficients(s, (0, 4))


def test_non_finite_tail_stops_at_the_first_grid():
    # 1e308 (1 + t) overflows on the circle: NumericalBreakdown on the first
    # grid, not a doubling to the cap and GridTooSmall there
    s = RationalSymbol(LaurentPolynomial(0, [1e308, 1e308]))
    with np.errstate(all="ignore"), pytest.raises(NumericalBreakdown, match="on 1024 points"):
        fourier_coefficients(s, (0, 4))


def test_projection_sign_split():
    f = TruncatedSeries(-1, [1.0, 2.0, 1.0])  # t^-1 + 2 + t
    p = project_analytic(f, "P")
    q = project_analytic(f, "Q")
    assert p.lo == 0 and np.allclose(p.coeffs, [2.0, 1.0])
    assert q.lo == -1 and np.allclose(q.coeffs, [1.0])


def test_projection_of_negative_only_series(shift2):
    f = fourier_coefficients(shift2.chi.invert(), (-12, 4))
    q = project_analytic(f, "Q")
    assert np.max(np.abs(q.coeffs - f.coeffs[: len(q.coeffs)])) < 1e-14
    assert project_analytic(f, "P").norm() < 1e-13


def test_projections_complementary(rng):
    coeffs = rng.normal(size=11) + 1j * rng.normal(size=11)
    f = TruncatedSeries(-5, coeffs)
    total = project_analytic(f, "P") + project_analytic(f, "Q")
    assert (total - f).norm() < 1e-15


def test_multiply_by_symbol_matches_pointwise(rng, shift2):
    f = TruncatedSeries(-3, rng.normal(size=9) + 1j * rng.normal(size=9))
    s = shift2.chi.power(-2)
    out = multiply_by_symbol(f, s)
    t = np.exp(2j * np.pi * (np.arange(64) + 0.3) / 64)
    assert np.max(np.abs(out.eval(t) - s.eval(t) * f.eval(t))) < 1e-9


def test_window_times_symbol_in_either_order(rng, all_shifts):
    # f * s and s * f are the windowed product, bit for bit
    s = all_shifts[2].chi.power(-2) * RationalSymbol.monomial(3)
    f = TruncatedSeries(-4, rng.normal(size=9) + 1j * rng.normal(size=9))
    ref = multiply_by_symbol(f, s)
    for out in (s * f, f * s):
        assert out.lo == ref.lo and np.array_equal(out.coeffs, ref.coeffs)


def test_symbol_times_non_number_raises(shift2):
    # complex("2") would parse the string
    with pytest.raises(TypeError):
        shift2.chi * "2"


@pytest.mark.parametrize("beta", [2.0, 1.5 + 0.5j, 1.2])
def test_symbol_window_counts_pole_order(beta):
    # 1 * s is s's window, which must not be cut before its tail drops
    # below 1e-12 when the poles are multiple: compared on every exponent
    # against a 2^16-point FFT, zero outside the window
    sh = make_shift(beta)
    m = 2**16
    t = np.exp(2j * np.pi * np.arange(m) / m)
    for k in (3, 6, 8, 12):
        for s in (sh.chi.power(-k), sh.alpha_minus.power(k)):
            ref = np.fft.fft(s.eval(t)) / m
            out = s * TruncatedSeries.basis(0)
            win = np.zeros(m, complex)
            win[np.mod(np.arange(out.lo, out.hi + 1), m)] = out.coeffs
            assert np.max(np.abs(win - ref)) < 1e-12 * np.max(np.abs(ref))


def test_fft_tail_relative_to_scale(rng):
    # rounding in the FFT grows with the values; a large symbol still
    # certifies on the first grid
    s = 1e8 * random_rational(rng)
    exact, _ = s.coefficients(-24, 24)
    fft = fourier_coefficients(s, (-24, 24))
    assert np.max(np.abs(exact - fft.coeffs)) < 1e-10 * np.max(np.abs(exact))

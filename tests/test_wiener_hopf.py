import numpy as np
import pytest

from toephankel import (
    LaurentPolynomial,
    RationalSymbol,
    TruncatedSeries,
    apply_one_sided_inverse,
    eval_gplus_inverse_at,
    factorize,
    fourier_coefficients,
    make_shift,
)
from toephankel.errors import NotFredholm, WrongSide
from toephankel.kernels import toeplitz_apply

from conftest import circle
from helpers import random_rational


def test_factorize_chi(shift2):
    fac = factorize(shift2.chi)
    assert fac.kappa == -1
    # g_minus = 1 - 1/(2t), g_plus = 2 / (i sqrt 3)
    t = circle(32)
    assert np.max(np.abs(fac.g_minus.eval(t) - (1 - 0.5 / t))) < 1e-13
    assert fac.g_plus.is_constant
    assert abs(fac.g_plus.constant_value() - 2 / (1j * np.sqrt(3.0))) < 1e-13


def test_factorize_chi_inverse(shift2):
    fac = factorize(shift2.chi.invert())
    assert fac.kappa == 1
    assert abs(fac.g_plus.constant_value() - 1j * np.sqrt(3.0) / 2) < 1e-13
    t = circle(32)
    assert np.max(np.abs(fac.g_minus.eval(t) - 1 / (1 - 0.5 / t))) < 1e-12


def test_factorize_constant():
    fac = factorize(RationalSymbol.constant(5.0))
    assert fac.kappa == 0
    assert fac.g_minus.distance_to(RationalSymbol.constant(1.0)) == 0.0
    assert abs(fac.g_plus.constant_value() - 5.0) < 1e-15


def test_factorize_circle_zero_raises():
    with pytest.raises(NotFredholm):
        factorize(RationalSymbol(LaurentPolynomial(0, [-1.0, 1.0])))


def test_reconstruction_and_root_locations(rng):
    for _ in range(15):
        g = random_rational(rng)
        if g.is_zero:
            continue
        try:
            fac = factorize(g)
        except NotFredholm:
            continue
        assert fac.reconstruct().distance_to(g) < 1e-9 * max(
            1.0, g.sup_norm_on_circle()
        )
        assert fac.kappa == -g.winding_number()
        assert np.all(np.abs(fac.g_plus.num_roots) > 1.0)
        assert np.all(np.abs(fac.g_plus.den_roots) > 1.0)
        assert np.all(np.abs(fac.g_minus.num_roots) < 1.0)
        assert np.all(np.abs(fac.g_minus.den_roots) < 1.0)
        # normalization at infinity: g_minus tends to 1
        assert fac.g_minus.num.hi == fac.g_minus.den.hi
        assert abs(fac.g_minus.num.coeffs[-1] / fac.g_minus.den.coeffs[-1] - 1.0) < 1e-10


def test_right_inverse_property(shift2):
    fac = factorize(shift2.chi.invert())
    h = RationalSymbol.constant(1.0)
    x = apply_one_sided_inverse(fac, h, "right")
    back = toeplitz_apply(shift2.chi.invert(), x)
    assert back.distance_to(h) < 1e-10


def test_right_inverse_series_path(shift2):
    fac = factorize(shift2.chi.invert())
    h = TruncatedSeries.basis(0)
    x = apply_one_sided_inverse(fac, h, "right")
    xr = apply_one_sided_inverse(fac, RationalSymbol.constant(1.0), "right")
    expect = fourier_coefficients(xr, (x.lo, x.hi))
    assert (x - expect).norm() < 1e-10


def test_left_inverse_series_path(shift2):
    fac = factorize(shift2.chi)
    h = shift2.chi * RationalSymbol.monomial(3)
    x = apply_one_sided_inverse(fac, fourier_coefficients(h, (0, 4)), "left")
    xr = apply_one_sided_inverse(fac, h, "left")
    expect = fourier_coefficients(xr, (x.lo, x.hi))
    assert (x - expect).norm() < 1e-10


@pytest.mark.parametrize("index, side", [(2, "right"), (-2, "left")])
def test_one_sided_inverse_series_path_two_sided_roots(index, side):
    # g = chi^-index h with zeros and poles of h on both sides of the circle
    sh = make_shift(1.5 + 0.5j)
    h = RationalSymbol(
        LaurentPolynomial.from_roots([0.3 + 0.2j, 2.5], 1.3 - 0.4j),
        LaurentPolynomial.from_roots([0.5 - 0.1j, -3j]),
    )
    fac = factorize(sh.chi.power(-index) * h)
    assert fac.kappa == index
    coeffs = [1.0, 0.5, 0.0, -0.2j]
    x = apply_one_sided_inverse(fac, TruncatedSeries(0, coeffs), side)
    xr = apply_one_sided_inverse(fac, RationalSymbol(LaurentPolynomial(0, coeffs)), side)
    expect = fourier_coefficients(xr, (x.lo, x.hi))
    assert (x - expect).norm() < 1e-10


def test_two_sided_scalar():
    fac = factorize(RationalSymbol.constant(5.0))
    out = apply_one_sided_inverse(fac, RationalSymbol.monomial(2), "two_sided")
    assert out.distance_to(RationalSymbol.monomial(2, 0.2)) < 1e-14


def test_left_inverse_undoes_multiplication(shift2):
    fac = factorize(shift2.chi)
    h = shift2.chi * RationalSymbol.monomial(3)
    out = apply_one_sided_inverse(fac, h, "left")
    assert out.distance_to(RationalSymbol.monomial(3)) < 1e-11


def test_wrong_side_raises(shift2):
    with pytest.raises(WrongSide):
        apply_one_sided_inverse(factorize(shift2.chi), RationalSymbol.constant(1.0), "right")
    with pytest.raises(WrongSide):
        apply_one_sided_inverse(
            factorize(shift2.chi.invert()), RationalSymbol.constant(1.0), "left"
        )
    with pytest.raises(WrongSide):
        apply_one_sided_inverse(
            factorize(shift2.chi.invert()), RationalSymbol.constant(1.0), "two_sided"
        )


def test_eval_gplus_inverse(shift2):
    fac = factorize(shift2.chi.invert())
    assert abs(eval_gplus_inverse_at(fac, 0.5) - 2 / (1j * np.sqrt(3.0))) < 1e-13
    fac1 = factorize(RationalSymbol.constant(1.0))
    assert abs(eval_gplus_inverse_at(fac1, 0.3 + 0.2j) - 1.0) < 1e-15
    g = RationalSymbol(LaurentPolynomial(0, [1.0, 1.0 / 3.0]))
    fac2 = factorize(g)
    assert fac2.kappa == 0
    assert abs(eval_gplus_inverse_at(fac2, 0.5) - 6.0 / 7.0) < 1e-13


def test_kernel_basis_annihilated(shift2):
    # for kappa >= 1 the functions g_plus^-1 chi^j, j < kappa, are in ker T(g)
    for g in (shift2.chi.invert(), shift2.chi.power(-3)):
        fac = factorize(g)
        gpi = fac.g_plus.invert()
        for j in range(fac.kappa):
            f = gpi * shift2.chi.power(j)
            image = toeplitz_apply(g, f)
            assert image.sup_norm_on_circle() < 1e-10

"""Shared generators for randomized property tests."""

import numpy as np

from toephankel import (
    LaurentPolynomial,
    RationalSymbol,
    generate_matching_function,
    make_matching_pair,
    make_shift,
)


def random_roots(rng, count, inside):
    if count == 0:
        return np.zeros(0, complex)
    if inside:
        radii = rng.uniform(0.2, 0.7, count)
    else:
        radii = rng.uniform(1.4, 2.8, count)
    angles = rng.uniform(0, 2 * np.pi, count)
    return radii * np.exp(1j * angles)


def random_rational(rng, max_zeros=3, max_poles=2, monomial=True):
    """Admissible rational symbol with roots well away from the circle."""
    zeros = np.concatenate(
        [
            random_roots(rng, rng.integers(0, max_zeros + 1), inside=True),
            random_roots(rng, rng.integers(0, max_zeros + 1), inside=False),
        ]
    )
    poles = np.concatenate(
        [
            random_roots(rng, rng.integers(0, max_poles + 1), inside=True),
            random_roots(rng, rng.integers(0, max_poles + 1), inside=False),
        ]
    )
    lead = complex(rng.normal(), rng.normal())
    while abs(lead) < 0.1:
        lead = complex(rng.normal(), rng.normal())
    lo = int(rng.integers(-2, 3)) if monomial else 0
    num = LaurentPolynomial.from_roots(zeros, lead, lo=lo)
    den = LaurentPolynomial.from_roots(poles, 1.0)
    return RationalSymbol(num, den)


def random_invertible(rng, max_deg=2):
    """No zeros or poles near the circle: safe for matching generators."""
    zeros = np.concatenate(
        [
            random_roots(rng, rng.integers(0, max_deg + 1), inside=True),
            random_roots(rng, rng.integers(0, max_deg + 1), inside=False),
        ]
    )
    lead = complex(rng.normal(), rng.normal())
    while abs(lead) < 0.1:
        lead = complex(rng.normal(), rng.normal())
    return RationalSymbol(LaurentPolynomial.from_roots(zeros, lead))


def random_plus_factor(rng, max_deg=3, allow_poles=False):
    """Analytic and invertible in the closed disk: all roots outside."""
    deg = int(rng.integers(0, max_deg + 1))
    zeros = random_roots(rng, deg, inside=False)
    lead = complex(rng.normal(), rng.normal())
    while abs(lead) < 0.1:
        lead = complex(rng.normal(), rng.normal())
    num = LaurentPolynomial.from_roots(zeros, lead)
    if allow_poles and rng.random() < 0.5:
        pdeg = int(rng.integers(1, 3))
        den = LaurentPolynomial.from_roots(random_roots(rng, pdeg, inside=False), 1.0)
        return RationalSymbol(num, den)
    return RationalSymbol(num)


def random_laurent(rng, deg=8):
    lo = -int(rng.integers(0, deg + 1))
    width = int(rng.integers(1, deg + 2))
    coeffs = rng.normal(size=width) + 1j * rng.normal(size=width)
    return LaurentPolynomial(lo, coeffs)


def benchmark_oracle_pairs():
    """The four pairs of perfbench's oracle_large workload (inputs.ORACLE_PAIRS)."""

    def poly(roots, lead=1.0):
        return LaurentPolynomial.from_roots(roots, lead)

    for beta, i, j, h, rho in (
        (2.0, -1, -1, RationalSymbol(poly([1.6 + 0.8j], 1.0 + 0.5j), poly([-0.4 + 0.3j])), None),
        (2j, -1, 1, RationalSymbol(poly([0.3 - 0.2j], 0.8)), (poly([-1.8 + 0.9j], 1.2 - 0.3j), 1)),
        (1.5 + 0.5j, 0, -1, RationalSymbol(poly([]), poly([2.1 - 0.7j])), None),
        (2.0, 1, 0, RationalSymbol(poly([0.2 + 1.9j], 0.7 + 0.7j)), (poly([1.5 - 1.0j]), 0)),
    ):
        sh = make_shift(beta)
        a, b = h * sh.chi.power(i), h * sh.chi.power(j)
        if rho is not None:
            b = b * generate_matching_function(RationalSymbol(rho[0]), rho[1], -1, sh)
        yield make_matching_pair(a, b, sh)

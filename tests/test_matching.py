import numpy as np
import pytest

from toephankel import (
    RationalSymbol,
    adjoint_pair,
    alpha_signature,
    check_matching,
    generate_matching_function,
    generate_matching_pair,
    make_matching_pair,
    subordinated_pair,
)
from toephankel.errors import BadPlusFactor, NotInvertible, NotMatching
from toephankel.shift import compose_with_shift

from conftest import circle
from helpers import random_plus_factor


def test_check_matching_trivial(shift2):
    one = RationalSymbol.constant(1.0)
    assert check_matching(one, one, shift2) < 1e-15


def test_check_matching_chi_power(shift2):
    s = shift2.chi.power(-2)
    assert check_matching(s, s, shift2) < 1e-12


def test_check_matching_detects_failure(shift2):
    residual = check_matching(RationalSymbol.monomial(1), RationalSymbol.constant(1.0), shift2)
    assert residual > 1.0  # |t alpha(t) - 1| reaches 2 at t = 1


def test_check_matching_rejects_circle_zero(shift2):
    from toephankel import LaurentPolynomial

    bad = RationalSymbol(LaurentPolynomial(0, [-1.0, 1.0]))
    with pytest.raises(NotInvertible):
        check_matching(bad, RationalSymbol.constant(1.0), shift2)


def test_subordinated_chi_minus_two(shift2):
    s = shift2.chi.power(-2)
    c, d, k1, k2 = subordinated_pair(s, s, shift2)
    assert c.distance_to(RationalSymbol.constant(1.0)) < 1e-12
    assert d.distance_to(shift2.chi.power(-4)) < 1e-12
    assert (k1, k2) == (0, 4)


def test_subordinated_one_chi_inverse(shift2):
    c, d, k1, k2 = subordinated_pair(
        RationalSymbol.constant(1.0), shift2.chi.invert(), shift2
    )
    assert c.distance_to(shift2.chi) < 1e-12
    assert d.distance_to(shift2.chi.invert()) < 1e-12
    assert (k1, k2) == (-1, 1)


def test_subordinated_trivial(shift2):
    one = RationalSymbol.constant(1.0)
    c, d, k1, k2 = subordinated_pair(one, one, shift2)
    assert (k1, k2) == (0, 0)
    assert c.distance_to(one) < 1e-14 and d.distance_to(one) < 1e-14


def test_subordinated_requires_matching(shift2):
    with pytest.raises(NotMatching):
        subordinated_pair(RationalSymbol.monomial(1), RationalSymbol.constant(1.0), shift2)


def test_signature_examples(shift2):
    assert alpha_signature(RationalSymbol.constant(1.0), shift2) == 1
    assert alpha_signature(shift2.chi.invert(), shift2) == 1
    assert alpha_signature(-1.0 * shift2.chi.invert(), shift2) == -1
    assert alpha_signature(shift2.chi.power(-4), shift2) == 1


def test_signature_requires_matching(shift2):
    with pytest.raises(NotMatching):
        alpha_signature(RationalSymbol.constant(2.0), shift2)


def test_generator_examples(shift2):
    one = RationalSymbol.constant(1.0)
    g = generate_matching_function(one, 1, 1, shift2)
    assert g.distance_to(shift2.chi.invert()) < 1e-12
    g2 = generate_matching_function(one, 0, -1, shift2)
    assert g2.distance_to(RationalSymbol.constant(-1.0)) < 1e-14
    assert alpha_signature(g2, shift2) == -1
    from toephankel import LaurentPolynomial

    gp = RationalSymbol(LaurentPolynomial(0, [1.0, 1.0 / 3.0]))
    g3 = generate_matching_function(gp, 2, -1, shift2)
    assert -g3.winding_number() == 2
    assert alpha_signature(g3, shift2) == -1


def test_generator_rejects_disk_roots(shift2):
    from toephankel import LaurentPolynomial

    bad = RationalSymbol(LaurentPolynomial(0, [-0.5, 1.0]))
    with pytest.raises(BadPlusFactor):
        generate_matching_function(bad, 1, 1, shift2)


def test_generator_round_trip(rng, all_shifts):
    for sh in all_shifts:
        for _ in range(12):
            gp = random_plus_factor(rng, max_deg=3, allow_poles=True)
            n = int(rng.integers(-4, 5))
            sigma = 1 if rng.random() < 0.5 else -1
            g = generate_matching_function(gp, n, sigma, sh)
            assert -g.winding_number() == n
            assert alpha_signature(g, sh) == sigma
            t = circle(128)
            gg = g.eval(t) * g.eval(
                (t - sh.beta) / (np.conj(sh.beta) * t - 1.0)
            )
            assert np.max(np.abs(gg - 1.0)) < 1e-9


def test_generate_matching_pair(shift2):
    one = RationalSymbol.constant(1.0)
    p = generate_matching_pair(one, shift2.chi.invert(), shift2)
    assert p.b.distance_to(shift2.chi.invert()) < 1e-12
    p2 = generate_matching_pair(shift2.chi.power(-2), one, shift2)
    assert p2.b.distance_to(shift2.chi.power(2)) < 1e-12
    assert (p2.kappa1, p2.kappa2) == (4, 0)
    p3 = generate_matching_pair(one, one, shift2)
    assert (p3.kappa1, p3.kappa2) == (0, 0)


def test_adjoint_pair_examples(shift2):
    one = RationalSymbol.constant(1.0)
    p = make_matching_pair(one, one, shift2)
    adj = adjoint_pair(p)
    assert adj.a.distance_to(one) < 1e-14
    assert adj.b.distance_to(one) < 1e-14

    s = shift2.chi.power(-2)
    p2 = make_matching_pair(s, s, shift2)
    adj2 = adjoint_pair(p2)
    assert (adj2.kappa1, adj2.kappa2) == (-4, 0)

    p3 = make_matching_pair(one, shift2.chi.invert(), shift2)
    adj3 = adjoint_pair(p3)
    assert (adj3.kappa1, adj3.kappa2) == (-1, 1)


def test_adjoint_involution(rng, shift2):
    for _ in range(6):
        gp = random_plus_factor(rng, max_deg=2)
        rho = generate_matching_function(gp, int(rng.integers(-2, 3)), 1, shift2)
        a = random_plus_factor(rng, max_deg=2)
        pair = generate_matching_pair(a, rho, shift2)
        back = adjoint_pair(adjoint_pair(pair))
        assert back.a.distance_to(pair.a) < 1e-9 * max(1.0, pair.a.sup_norm_on_circle())
        assert back.b.distance_to(pair.b) < 1e-9 * max(1.0, pair.b.sup_norm_on_circle())


def test_signature_multiplicative(rng, shift2):
    for _ in range(8):
        g1 = generate_matching_function(
            random_plus_factor(rng, 2), int(rng.integers(-2, 3)),
            1 if rng.random() < 0.5 else -1, shift2,
        )
        g2 = generate_matching_function(
            random_plus_factor(rng, 2), int(rng.integers(-2, 3)),
            1 if rng.random() < 0.5 else -1, shift2,
        )
        prod = g1 * g2
        assert alpha_signature(prod, shift2) == alpha_signature(
            g1, shift2
        ) * alpha_signature(g2, shift2)


def test_subordinated_functions_are_matching(rng, shift2):
    from toephankel import compose_with_shift

    for _ in range(6):
        rho = generate_matching_function(
            random_plus_factor(rng, 2), int(rng.integers(-2, 3)),
            1 if rng.random() < 0.5 else -1, shift2,
        )
        a = random_plus_factor(rng, 2)
        pair = generate_matching_pair(a, rho, shift2)
        for g in (pair.c, pair.d):
            g_alpha = compose_with_shift(g, shift2)
            resid = (g * g_alpha).distance_to(RationalSymbol.constant(1.0))
            assert resid < 1e-10 * max(1.0, g.sup_norm_on_circle() ** 2)


def test_make_matching_pair_composes_each_symbol_once(shift2, monkeypatch):
    from toephankel import matching

    calls = []

    def counting(s, shift):
        calls.append(s)
        return compose_with_shift(s, shift)

    monkeypatch.setattr(matching, "compose_with_shift", counting)
    a = shift2.chi.power(-2)
    b = -1.0 * shift2.chi.power(-2)
    pair = make_matching_pair(a, b, shift2)
    assert len(calls) == 2  # a once, b once
    assert pair.matching_residual == check_matching(a, b, shift2)

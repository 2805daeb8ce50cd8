import numpy as np
import pytest

from toephankel import (
    RationalSymbol,
    TruncatedSeries,
    apply_P_alpha,
    coburn_class,
    defect_numbers,
    factorize,
    fourier_coefficients,
    in_image_chi_power,
    kernel_cokernel_bases,
    make_matching_pair,
    make_shift,
    numerical_null_space,
    operator_section,
    phi_pm,
    toeplitz_kernel_split,
    transfer_U,
)
from toephankel.errors import NotApplicable, NotInKernel, WrongRegime
from toephankel.kernels import (
    KERNEL_RESIDUAL_TOL,
    SERIES_TAIL_TOL,
    Regime,
    analytic_series,
    operator_residual,
    toeplitz_apply,
)
from toephankel.oracle import block_residual_check, residual_check

from helpers import benchmark_oracle_pairs


def test_split_chi_minus_four(shift2):
    b_plus, b_minus = toeplitz_kernel_split(shift2.chi.power(-4), shift2)
    assert (len(b_plus), len(b_minus)) == (2, 2)
    fac = factorize(shift2.chi.power(-4))
    gpi = fac.g_plus.invert()
    chi = shift2.chi
    expect_plus = [gpi * (chi + chi.power(2)), gpi * (RationalSymbol.constant(1.0) + chi.power(3))]
    for got, want in zip(b_plus, expect_plus):
        assert got.distance_to(want) < 1e-10


def test_split_odd_cases(shift2):
    b_plus, b_minus = toeplitz_kernel_split(shift2.chi.invert(), shift2)
    assert (len(b_plus), len(b_minus)) == (1, 0)
    assert b_plus[0].is_constant
    b_plus2, b_minus2 = toeplitz_kernel_split(-1.0 * shift2.chi.invert(), shift2)
    assert (len(b_plus2), len(b_minus2)) == (0, 1)
    b_plus3, b_minus3 = toeplitz_kernel_split(shift2.chi.power(-3), shift2)
    assert (len(b_plus3), len(b_minus3)) == (2, 1)


@pytest.mark.parametrize("beta", [2.0, 1.5 + 0.5j])
@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("n", range(1, 7))
def test_split_families(n, sigma, beta):
    # g = sigma chi^-n has index n and signature sigma: the plus family has
    # n//2 + (n mod 2)(1 + sigma)/2 members, the minus family the rest of n,
    # and P_alpha is +1 on the one and -1 on the other
    shift = make_shift(beta)
    g = float(sigma) * shift.chi.power(-n)
    b_plus, b_minus = toeplitz_kernel_split(g, shift)
    odd_extra = (1 + sigma) // 2 if n % 2 else 0
    assert (len(b_plus), len(b_minus)) == (n // 2 + odd_extra, n - n // 2 - odd_extra)
    for eigenvalue, family in ((1.0, b_plus), (-1.0, b_minus)):
        for f in family:
            scale = max(1.0, f.sup_norm_on_circle(128))
            assert toeplitz_apply(g, f).sup_norm_on_circle(128) < KERNEL_RESIDUAL_TOL * scale
            assert apply_P_alpha(g, f, shift).distance_to(eigenvalue * f) < 1e-9 * scale


def test_split_needs_positive_index(shift2):
    with pytest.raises(NotApplicable):
        toeplitz_kernel_split(shift2.chi, shift2)


def test_split_residuals_against_sections(shift2):
    for g in (shift2.chi.invert(), shift2.chi.power(-3), shift2.chi.power(-4)):
        sec = operator_section("toeplitz", g, shift2, 256)
        b_plus, b_minus = toeplitz_kernel_split(g, shift2)
        for f in b_plus + b_minus:
            assert residual_check(sec, analytic_series(f)) < 1e-6


@pytest.mark.parametrize("pole, order", [(2.0, 1), (2.0, 4), (2.0, 10), (1.1, 3)])
def test_analytic_series_window_covers_multiple_poles(pole, order):
    f = RationalSymbol.from_factors(1.0, 0, [pole], [-order])
    got = analytic_series(f)
    ref = fourier_coefficients(f, (0, got.hi + 2000)).coeffs
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(ref[got.hi + 1 :])) < SERIES_TAIL_TOL * scale
    assert np.max(np.abs(ref[: got.hi + 1] - got.to_vector(got.hi + 1))) < 1e-12 * scale


def test_p_alpha_examples(shift2):
    one = RationalSymbol.constant(1.0)
    out = apply_P_alpha(shift2.chi.invert(), one, shift2)
    assert out.distance_to(one) < 1e-12
    out2 = apply_P_alpha(-1.0 * shift2.chi.invert(), one, shift2)
    assert out2.distance_to(-1.0 * one) < 1e-12


def test_p_alpha_eigenvectors(shift2):
    g = shift2.chi.power(-4)
    b_plus, b_minus = toeplitz_kernel_split(g, shift2)
    for f in b_plus:
        assert apply_P_alpha(g, f, shift2).distance_to(f) < 1e-9
    for f in b_minus:
        assert apply_P_alpha(g, f, shift2).distance_to(-1.0 * f) < 1e-9


def test_p_alpha_involution_and_membership(shift2):
    g = shift2.chi.power(-4)
    fac = factorize(g)
    f = fac.g_plus.invert() * shift2.chi.power(2)
    twice = apply_P_alpha(g, apply_P_alpha(g, f, shift2), shift2)
    assert twice.distance_to(f) < 1e-9
    with pytest.raises(NotInKernel):
        apply_P_alpha(g, RationalSymbol.monomial(5), shift2)


def test_phi_on_lifted_pair(shift2):
    pair = make_matching_pair(shift2.chi.invert(), RationalSymbol.constant(1.0), shift2)
    fac_c = factorize(pair.c)
    out = phi_pm(RationalSymbol.constant(1.0), pair, fac_c, +1, shift2)
    assert out.distance_to(RationalSymbol.constant(0.5)) < 1e-12
    zero = phi_pm(RationalSymbol.constant(0.0), pair, fac_c, +1, shift2)
    assert zero.is_zero or zero.sup_norm_on_circle() < 1e-14


def test_phi_lands_in_kernel(shift2):
    pair = make_matching_pair(shift2.chi.power(-2), shift2.chi.power(-2), shift2)
    fac_c = factorize(pair.c)
    d_plus, d_minus = toeplitz_kernel_split(pair.d, shift2)
    sec = operator_section("plus", pair, shift2, 256)
    for s in d_plus:
        out = phi_pm(s, pair, fac_c, +1, shift2)
        assert operator_residual(pair, +1, out) < 1e-10
        assert residual_check(sec, analytic_series(out)) < 1e-6


def test_phi_wrong_regime(shift2):
    pair = make_matching_pair(RationalSymbol.constant(1.0), shift2.chi.invert(), shift2)
    assert pair.kappa1 == -1
    with pytest.raises(WrongRegime):
        phi_pm(RationalSymbol.constant(1.0), pair, factorize(pair.c.power(-1)), +1, shift2)


def test_in_image_examples(shift2):
    ok, _ = in_image_chi_power(RationalSymbol.constant(1.0), 1, shift2)
    assert not ok
    ok, q = in_image_chi_power(shift2.chi, 1, shift2)
    assert ok and q.distance_to(RationalSymbol.constant(1.0)) < 1e-12
    ok, q = in_image_chi_power(shift2.chi.power(2), 1, shift2)
    assert ok and q.distance_to(shift2.chi) < 1e-12


def test_in_image_series_path(shift2):
    f = analytic_series(shift2.chi.power(3))
    ok, q = in_image_chi_power(f, 2, shift2)
    assert ok
    expect = analytic_series(shift2.chi)
    assert (q - expect).norm() < 1e-10
    ok2, _ = in_image_chi_power(TruncatedSeries.basis(0), 1, shift2)
    assert not ok2


@pytest.mark.parametrize("beta", [2.0, 1.5 + 0.5j, 1.2])
def test_in_image_series_high_power(beta):
    # the windowed quotient h * chi^-n against the exact one, up to n = 8
    sh = make_shift(beta)
    for n, k in ((3, 4), (6, 7), (8, 9), (8, 8)):
        ok, q = in_image_chi_power(analytic_series(sh.chi.power(k)), n, sh)
        assert ok
        assert (q - analytic_series(sh.chi.power(k - n))).norm() < 1e-12
    ok, _ = in_image_chi_power(analytic_series(sh.chi.power(5)), 6, sh)
    assert not ok


def test_defect_right_invertible(shift2):
    pair = make_matching_pair(shift2.chi.power(-2), shift2.chi.power(-2), shift2)
    rep = defect_numbers(pair, oracle_size=256)
    assert rep.regime == Regime.RIGHT_INV
    assert (
        rep.dim_ker_plus,
        rep.dim_coker_plus,
        rep.dim_ker_minus,
        rep.dim_coker_minus,
    ) == (2, 0, 2, 0)
    assert rep.oracle["agreement"]["all"]


@pytest.mark.parametrize("k", [6, 10])
def test_defect_high_index_chi_power(shift2, k):
    # a = b = chi^-k: c = 1 and d = chi^(-2k), so kappa = (0, 2k) and both
    # kernels have dimension k.  The oracle runs at N = 256, above
    # f.hi + margin for every basis function f, which the residual gate
    # checks (section margins 114 and 146, f.hi at most 5 and 9).
    s = shift2.chi.power(-k)
    pair = make_matching_pair(s, s, shift2)
    assert (pair.kappa1, pair.kappa2) == (0, 2 * k)
    rep = defect_numbers(pair, oracle_size=256)
    assert rep.regime == Regime.RIGHT_INV
    assert (
        rep.dim_ker_plus,
        rep.dim_coker_plus,
        rep.dim_ker_minus,
        rep.dim_coker_minus,
    ) == (k, 0, k, 0)
    assert rep.oracle["agreement"]["all"]


@pytest.mark.parametrize("beta, k", [(1.05, 6), (1.05, 8), (1.02, 6)])
def test_defect_chi_power_near_circle(beta, k):
    # a = b = chi^k: c = 1 and d = chi^(2k), so kappa = (0, -2k) and both
    # cokernels have dimension k.  They are built from a symbol with a
    # 2k-fold pole at beta, 0.02-0.05 from the circle, where its monic
    # denominator is far below EVAL_GUARD.
    sh = make_shift(beta)
    s = sh.chi.power(k)
    pair = make_matching_pair(s, s, sh)
    assert (pair.kappa1, pair.kappa2) == (0, -2 * k)
    rep = defect_numbers(pair, run_oracle=False)
    assert (
        rep.dim_ker_plus,
        rep.dim_coker_plus,
        rep.dim_ker_minus,
        rep.dim_coker_minus,
    ) == (0, k, 0, k)


def test_defect_lifted_pair(shift2):
    pair = make_matching_pair(RationalSymbol.constant(1.0), shift2.chi.invert(), shift2)
    rep = defect_numbers(pair, oracle_size=256)
    assert rep.regime == Regime.LIFTED
    assert (
        rep.dim_ker_plus,
        rep.dim_coker_plus,
        rep.dim_ker_minus,
        rep.dim_coker_minus,
    ) == (0, 0, 0, 0)
    assert rep.oracle["agreement"]["all"]


def test_defect_trivial_split(shift2):
    pair = make_matching_pair(RationalSymbol.constant(1.0), RationalSymbol.constant(1.0), shift2)
    rep = defect_numbers(pair, oracle_size=128)
    assert rep.regime == Regime.SPLIT
    assert rep.dim_ker_plus == rep.dim_coker_plus == 0
    assert rep.dim_ker_minus == rep.dim_coker_minus == 0


def test_defect_split_orientation(shift2):
    # pair (1, chi): the minus operator has the one-dimensional kernel
    # (constants) and the one-dimensional cokernel; the plus operator is
    # invertible.  The oracle adjudicates the orientation.
    pair = make_matching_pair(RationalSymbol.constant(1.0), shift2.chi, shift2)
    rep = defect_numbers(pair, oracle_size=128)
    assert rep.regime == Regime.SPLIT
    assert (
        rep.dim_ker_plus,
        rep.dim_coker_plus,
        rep.dim_ker_minus,
        rep.dim_coker_minus,
    ) == (0, 0, 1, 1)
    assert rep.oracle["agreement"]["all"]


def test_defect_left_invertible(shift2):
    pair = make_matching_pair(shift2.chi.power(2), shift2.chi.power(-2), shift2)
    assert (pair.kappa1, pair.kappa2) == (-4, 0)
    rep = defect_numbers(pair, oracle_size=256)
    assert rep.regime == Regime.LEFT_INV
    assert rep.dim_ker_plus == rep.dim_ker_minus == 0
    assert rep.dim_coker_plus + rep.dim_coker_minus == 4
    assert rep.oracle["agreement"]["all"]


def test_defect_lifted_nontrivial(shift2):
    # kappa1 = -1, kappa2 = 3: the lift with n = 1 leaves genuine kernels
    a = shift2.chi.invert()
    b = shift2.chi.power(-2)
    pair = make_matching_pair(a, b, shift2)
    assert (pair.kappa1, pair.kappa2) == (-1, 3)
    rep = defect_numbers(pair, oracle_size=256)
    assert rep.regime == Regime.LIFTED
    total = rep.dim_ker_plus + rep.dim_ker_minus
    assert total - (rep.dim_coker_plus + rep.dim_coker_minus) == 2
    assert rep.oracle["agreement"]["all"]


def test_bases_accessor(shift2):
    pair = make_matching_pair(shift2.chi.power(-2), shift2.chi.power(-2), shift2)
    basis = kernel_cokernel_bases(pair, which=("ker", "+"))
    assert basis.dim == 2
    assert all(f.tag == "phi_plus_d" for f in basis.functions)
    assert basis.gram_min_singular_value() > 1e-8
    empty = kernel_cokernel_bases(pair, which=("coker", "+"))
    assert empty.dim == 0
    one = RationalSymbol.constant(1.0)
    pair2 = make_matching_pair(one, one, shift2)
    assert kernel_cokernel_bases(pair2, which=("ker", "+")).dim == 0


def test_index_bookkeeping_enforced(shift2, rng):
    from helpers import random_plus_factor
    from toephankel import generate_matching_function, generate_matching_pair

    for _ in range(8):
        rho = generate_matching_function(
            random_plus_factor(rng, 2), int(rng.integers(-3, 4)),
            1 if rng.random() < 0.5 else -1, shift2,
        )
        a = random_plus_factor(rng, 2)
        pair = generate_matching_pair(a, rho, shift2)
        rep = defect_numbers(pair, run_oracle=False)
        lhs = (rep.dim_ker_plus - rep.dim_coker_plus) + (
            rep.dim_ker_minus - rep.dim_coker_minus
        )
        assert lhs == pair.kappa1 + pair.kappa2


def test_coburn_examples(shift2):
    one = RationalSymbol.constant(1.0)
    matches = coburn_class(one, one, shift2, oracle_size=64)
    tags = {m.tag for m in matches}
    assert "T(a)+H(a)" in tags and "T(a)-H(a)" in tags
    for m in matches:
        assert min(m.dim_ker, m.dim_coker) == 0

    a = RationalSymbol(
        __import__("toephankel").LaurentPolynomial(0, [1.0, 0.25])
    )
    matches2 = coburn_class(a, a * shift2.chi.invert(), shift2, oracle_size=64)
    assert any(m.tag == "T(a)-H(a chi^-1)" for m in matches2)

    assert coburn_class(a, a * RationalSymbol.monomial(1), shift2) is None


def test_coburn_one_null_space_per_sign(shift2, monkeypatch):
    from toephankel import oracle

    counts = {"svd": 0, "hankel": 0}
    svd, hankel = oracle.numerical_null_space, oracle._hankel_entries

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracle, "numerical_null_space", counted("svd", svd))
    monkeypatch.setattr(oracle, "_hankel_entries", counted("hankel", hankel))
    one = RationalSymbol.constant(1.0)
    matches = coburn_class(one, one, shift2, oracle_size=64)
    assert len(matches) > len({m.sign for m in matches})
    assert counts == {"svd": len({m.sign for m in matches}), "hankel": 1}


def test_coburn_one_sign_candidates(shift2, monkeypatch):
    from toephankel import LaurentPolynomial, oracle

    counts = {"svd": 0, "hankel": 0}
    svd, hankel = oracle.numerical_null_space, oracle._hankel_entries

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracle, "numerical_null_space", counted("svd", svd))
    monkeypatch.setattr(oracle, "_hankel_entries", counted("hankel", hankel))
    a = RationalSymbol(LaurentPolynomial(0, [1.0, 0.25]))
    matches = coburn_class(a, a * shift2.chi.invert(), shift2, oracle_size=64)
    assert {m.sign for m in matches} == {"-"}
    assert counts == {"svd": 1, "hankel": 1}


def test_bases_accessor_builds_one_side(shift2, monkeypatch):
    from toephankel import kernels

    sides = []
    build = kernels._kernel_functions
    monkeypatch.setattr(kernels, "_kernel_functions",
                        lambda p: sides.append(p) or build(p))
    pair = make_matching_pair(shift2.chi.power(-2), shift2.chi.power(-2), shift2)
    assert kernel_cokernel_bases(pair, which=("ker", "-")).dim == 2
    assert sides == [pair]
    assert kernel_cokernel_bases(pair, which=("coker", "-")).dim == 0
    assert len(sides) == 2 and sides[1] is not pair


def test_coburn_subordinated_route(shift2, rng):
    from helpers import random_plus_factor
    from toephankel import generate_matching_function

    a = random_plus_factor(rng, 2)
    c = generate_matching_function(random_plus_factor(rng, 1), 0, 1, shift2)
    b = a * c.invert()
    matches = coburn_class(a, b, shift2, oracle_size=64)
    assert any("index-zero" in m.tag for m in matches)


def test_transfer_golden_image(shift2):
    pair = make_matching_pair(shift2.chi.power(-2), shift2.chi.power(-2), shift2)
    F, G = transfer_U(pair, shift2, "U1", (TruncatedSeries.zero(), TruncatedSeries.basis(0)))
    half_chi = 0.5 * analytic_series(shift2.chi)
    assert (F - half_chi).norm() < 1e-10
    assert (G + half_chi).norm() < 1e-10


def test_transfer_zero(shift2):
    pair = make_matching_pair(shift2.chi.power(-2), shift2.chi.power(-2), shift2)
    F, G = transfer_U(pair, shift2, "U1", (TruncatedSeries.zero(), TruncatedSeries.zero()))
    assert F.norm() == 0 and G.norm() == 0


def test_transfer_membership_gate(shift2):
    pair = make_matching_pair(shift2.chi.power(-2), shift2.chi.power(-2), shift2)
    with pytest.raises(NotInKernel):
        transfer_U(pair, shift2, "U1", (TruncatedSeries.basis(3), TruncatedSeries.zero()))


def test_transfer_U2_membership_gate(shift2):
    pair = make_matching_pair(shift2.chi.power(-2), shift2.chi.power(-2), shift2)
    with pytest.raises(NotInKernel):
        transfer_U(pair, shift2, "U2", (TruncatedSeries.basis(3), TruncatedSeries.zero()))


def test_transfer_round_trip_on_svd_kernel(shift2):
    pair = make_matching_pair(shift2.chi.power(-2), shift2.chi.power(-2), shift2)
    n = 128
    blk = operator_section("block", pair, shift2, n)
    ns = numerical_null_space(blk)
    assert ns.dim == 4
    for i in range(ns.dim):
        vec = ns.right[:, i]
        f = TruncatedSeries.from_vector(vec[:n]).trim(1e-11)
        g = TruncatedSeries.from_vector(vec[n:]).trim(1e-11)
        F, G = transfer_U(pair, shift2, "U1", (f, g))
        f2, g2 = transfer_U(pair, shift2, "U2", (F, G))
        err = max((f2 - f).norm(), (g2 - g).norm())
        assert err < 1e-8
        assert block_residual_check(blk, f2, g2) < 1e-8


def test_transfer_on_one_stacked_vector(shift2):
    # a block null vector passed whole is split into its two halves
    pair = make_matching_pair(shift2.chi.power(-2), shift2.chi.power(-2), shift2)
    n = 128
    vec = numerical_null_space(operator_section("block", pair, shift2, n)).right[:, 0]
    stacked = transfer_U(pair, shift2, "U1", vec)
    halves = transfer_U(pair, shift2, "U1", (vec[:n], vec[n:]))
    for x, y in zip(stacked, halves):
        assert x.lo == y.lo and np.array_equal(x.coeffs, y.coeffs)
        assert x.norm() > 0.1


def test_phi_image_inclusions(shift2):
    # phi_plus maps the minus eigenspace of T(d) into that of T(c)
    a = shift2.chi.power(-1)
    b = shift2.chi.power(-2)
    pair = make_matching_pair(b, a * b, shift2)  # c = chi, needs kappa1 >= 0: skip
    # use a pair with kappa1 >= 1 and kappa2 >= 1 instead
    pair = make_matching_pair(
        shift2.chi.power(-2), shift2.chi.power(-1), shift2
    )
    assert pair.kappa1 >= 1 and pair.kappa2 >= 1
    fac_c = factorize(pair.c)
    d_plus, d_minus = toeplitz_kernel_split(pair.d, shift2)
    c_plus, c_minus = toeplitz_kernel_split(pair.c, shift2)

    def in_span(f, basis):
        grid = np.exp(2j * np.pi * (np.arange(64) + 0.17) / 64)
        target = f.eval(grid)
        if not basis:
            return np.max(np.abs(target)) < 1e-10
        mat = np.stack([g.eval(grid) for g in basis], axis=1)
        coef, res, *_ = np.linalg.lstsq(mat, target, rcond=None)
        fit = mat @ coef
        return np.max(np.abs(fit - target)) < 1e-8 * max(1.0, np.max(np.abs(target)))

    for s in d_minus:
        out = phi_pm(s, pair, fac_c, +1, shift2)
        assert in_span(out, c_minus)
    for s in d_plus:
        out = phi_pm(s, pair, fac_c, -1, shift2)
        assert in_span(out, c_plus)


def test_lifted_rank_bookkeeping(shift2):
    # the reported lifted dimensions equal bracket dimension minus the rank
    # of the coefficient-functional matrix restricted to the bracket space
    from toephankel.kernels import _kernel_functions, _lift_exponent
    from toephankel import make_matching_pair

    pair = make_matching_pair(shift2.chi.invert(), shift2.chi.power(-2), shift2)
    assert (pair.kappa1, pair.kappa2) == (-1, 3)
    n = _lift_exponent(pair.kappa1)
    assert n == 1
    lifted = make_matching_pair(
        pair.a * shift2.chi.power(-n), pair.b * shift2.chi.power(n), shift2
    )
    br_plus, br_minus = _kernel_functions(lifted)
    ker_plus, ker_minus = _kernel_functions(pair)
    am = shift2.alpha_minus.power(n)
    for bracket, kernel in ((br_plus, ker_plus), (br_minus, ker_minus)):
        rows = []
        for f, _tag in bracket:
            vals, _ = (f * am).coefficients(0, n - 1)
            rows.append(vals)
        m = np.array(rows).T
        svals = np.linalg.svd(m, compute_uv=False)
        rank = int(np.sum(svals > 1e-8 * max(svals[0], 1e-300)))
        assert len(kernel) == len(bracket) - rank


def test_defect_complex_beta():
    from toephankel import make_shift

    sh = make_shift(1.5 + 0.5j)
    pair = make_matching_pair(sh.chi.power(-2), sh.chi.power(-2), sh)
    rep = defect_numbers(pair, oracle_size=256)
    assert (
        rep.dim_ker_plus,
        rep.dim_coker_plus,
        rep.dim_ker_minus,
        rep.dim_coker_minus,
    ) == (2, 0, 2, 0)
    assert rep.oracle["agreement"]["all"]


def test_defect_oracle_agreement_random_quadrants(shift2, rng):
    # winding of a and index of rho sweep all four index quadrants
    from helpers import random_plus_factor, random_roots
    from toephankel import LaurentPolynomial, generate_matching_function
    from toephankel import generate_matching_pair

    seen = set()
    trials = 0
    while trials < 8:
        w = int(rng.integers(-1, 2))
        n_rho = int(rng.integers(-2, 3))
        inside = random_roots(rng, abs(w), inside=True) if w > 0 else []
        a = RationalSymbol(LaurentPolynomial.from_roots(inside, 1.0, lo=min(w, 0)))
        rho = generate_matching_function(
            random_plus_factor(rng, max_deg=1), n_rho, 1 if rng.random() < 0.5 else -1,
            shift2,
        )
        pair = generate_matching_pair(a, rho, shift2)
        rep = defect_numbers(pair, oracle_size=256)
        assert rep.oracle["agreement"]["all"]
        seen.add(rep.regime)
        trials += 1
    assert len(seen) >= 2


def test_right_invertible_dims_match_counting_formula(shift2, rng):
    # independent oracle for the dimensions: pure counting from the two
    # indices and signatures, never touching the basis constructions
    from helpers import random_plus_factor
    from toephankel import generate_matching_function, generate_matching_pair

    def dim_split(kappa, sigma):
        if kappa <= 0:
            return 0, 0
        m = kappa // 2
        if kappa % 2 == 0:
            return m, m
        return m + (1 + sigma) // 2, m + (1 - sigma) // 2

    for _ in range(10):
        kappa2 = int(rng.integers(1, 5))
        w = (kappa2 + 1) // 2 + int(rng.integers(0, 2))
        a = RationalSymbol.monomial(-w) * random_plus_factor(rng, 1)
        rho = generate_matching_function(
            random_plus_factor(rng, 1), kappa2, 1 if rng.random() < 0.5 else -1,
            shift2,
        )
        pair = generate_matching_pair(a, rho, shift2)
        assert pair.kappa2 == kappa2
        assert pair.kappa1 == 2 * w - kappa2
        if pair.kappa1 < 0:
            continue
        rep = defect_numbers(pair, run_oracle=False)
        pc_plus, pc_minus = dim_split(pair.kappa1, pair.sigma_c)
        pd_plus, pd_minus = dim_split(pair.kappa2, pair.sigma_d)
        assert rep.dim_ker_plus == pc_minus + pd_plus
        assert rep.dim_ker_minus == pc_plus + pd_minus
        assert rep.dim_coker_plus == rep.dim_coker_minus == 0


def test_deep_lift_exponent_two(shift2, rng):
    # kappa1 = -3 forces a chi^2 lift; the oracle must confirm the counts
    from helpers import random_roots
    from toephankel import LaurentPolynomial, generate_matching_function
    from toephankel import generate_matching_pair
    from helpers import random_plus_factor

    rho = generate_matching_function(random_plus_factor(rng, 1), 1, 1, shift2)
    inside = random_roots(rng, 1, inside=True)
    a = RationalSymbol(LaurentPolynomial.from_roots(inside, 1.0))  # winding +1
    pair = generate_matching_pair(a, rho, shift2)
    assert pair.kappa1 == -3 and pair.kappa2 == 1
    rep = defect_numbers(pair, oracle_size=256)
    assert rep.regime == Regime.LIFTED
    assert rep.oracle["agreement"]["all"]
    assert (rep.dim_ker_plus - rep.dim_coker_plus) + (
        rep.dim_ker_minus - rep.dim_coker_minus
    ) == -2


def test_cokernel_gate_makes_no_section_copy(monkeypatch):
    # ||M^H f|| comes from the section's adjoint product: at N=512 the
    # gate's allocations stay below one n x n complex block (4 MB)
    import tracemalloc

    from toephankel import kernels, make_shift
    from toephankel.oracle import pair_sections

    sh = make_shift(2.0j)
    pair = make_matching_pair(sh.chi, RationalSymbol.constant(1.0), sh)
    n = 512
    sections = pair_sections(pair, sh, n)
    monkeypatch.setattr(kernels, "pair_sections", lambda *args: sections)
    tracemalloc.start()
    try:
        basis = kernel_cokernel_bases(pair, which=("coker", "+"), oracle_size=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.dim == 1
    assert peak < n * n * 16
    # and the gate still measures M^H f
    vec = basis.functions[0].series.to_vector(n)
    want = np.linalg.norm(sections["+"].entries.conj().T @ vec) / np.linalg.norm(vec)
    assert kernels._oracle_residual(sections["+"], basis) == pytest.approx(want, rel=1e-12)


def test_cokernel_residuals_match_the_dense_adjoint():
    # ||M^H f|| / ||f|| from the adjoint product, not from a copy of the
    # section that would carry another operator's factors: equal to the
    # dense value up to the rounding of the two products (1e-14 ||M||; the
    # residuals are themselves rounding-level, about 1e-14)
    from toephankel import kernels
    from toephankel.oracle import pair_sections

    n, dims = 256, []
    for pair in benchmark_oracle_pairs():
        bases = kernels.all_defect_bases(pair)
        for sign, sec in pair_sections(pair, pair.shift, n).items():
            basis = bases[("coker", sign)]
            dims.append(basis.dim)
            m = sec.entries
            want = max((np.linalg.norm(m.conj().T @ v) / np.linalg.norm(v)
                        for v in (f.series.to_vector(n) for f in basis.functions)), default=0.0)
            got = kernels._oracle_residual(sec, basis)
            assert abs(got - want) <= 1e-14 * np.max(np.linalg.norm(m, axis=0))
            assert got < kernels.ORACLE_RESIDUAL_TOL
    assert dims == [0, 0, 1, 0, 0, 0, 1, 1]


def test_dropped_pair_sections_leave_no_block_resident():
    # glibc trims its heap's top by itself only above a threshold it raises
    # up to 64 MB, so the blocks of a dropped pair could stay resident (one
    # 16 MB block at N = 1024 on the third benchmark pair); the oracle block
    # and the basis residual gate return them, leaving the heap's top
    # below one block
    import ctypes

    class _Mallinfo2(ctypes.Structure):
        _fields_ = [(name, ctypes.c_size_t) for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
            "uordblks", "fordblks", "keepcost")]

    mallinfo2 = getattr(ctypes.CDLL(None), "mallinfo2", None)
    if mallinfo2 is None:
        pytest.skip("not glibc 2.33 or later")
    mallinfo2.restype = _Mallinfo2
    n = 1024
    for pair in benchmark_oracle_pairs():
        assert defect_numbers(pair, oracle_size=n).oracle["agreement"]["all"]
        assert mallinfo2().keepcost < 16 * n * n
        for which in (("ker", "+"), ("coker", "+"), ("ker", "-"), ("coker", "-")):
            kernel_cokernel_bases(pair, which, oracle_size=n)
            assert mallinfo2().keepcost < 16 * n * n


def _phi_four_projections(s, pair, fac_c, sign, shift):
    """The transport map as first written: 2 phi(s) = x -/+ J Q(c x) +/- J Q(w),
    w = a_alpha^-1 s, x = T_r^-1(c) P(w), with P(w) and Q(w) from one split."""
    from toephankel.shift import apply_J_alpha
    from toephankel.wiener_hopf import apply_one_sided_inverse

    w_plus, w_minus = (pair.a_alpha_inv * s).split_analytic()
    x = apply_one_sided_inverse(fac_c, w_plus, "right")
    u = apply_J_alpha((pair.c * x).part("Q"), shift)
    v = apply_J_alpha(w_minus, shift)
    return 0.5 * (x - u + v) if sign > 0 else 0.5 * (x + u - v)


@pytest.mark.parametrize("beta", [2.0, 2.0j, 1.5 + 0.5j, 1.2])
def test_phi_matches_the_four_projection_formula(beta):
    # 2 phi(s) = x -/+ J(c x - w) equals the four-projection form, since
    # P(c x) = P(w) when T(c) T_r^-1(c) = I
    shift = make_shift(beta)
    h = RationalSymbol.from_factors(1.3 - 0.4j, 0, [2.5 + 1.0j, -1.8j, 3.0], [1, 1, -1])
    for i, j, kappa1, kappa2 in ((-1, 0, 1, 1), (-1, -1, 0, 2), (-2, -1, 1, 3),
                                 (-2, -2, 0, 4), (-3, -1, 2, 4)):
        pair = make_matching_pair(h * shift.chi.power(i), h * shift.chi.power(j), shift)
        assert (pair.kappa1, pair.kappa2) == (kappa1, kappa2)
        fac_c = factorize(pair.c)
        d_plus, d_minus = toeplitz_kernel_split(pair.d, shift)
        for s in d_plus + d_minus:
            for sign in (+1, -1):
                want = _phi_four_projections(s, pair, fac_c, sign, shift)
                got = phi_pm(s, pair, fac_c, sign, shift)
                assert got.distance_to(want, 128) <= 1e-10 * max(1.0, want.sup_norm_on_circle(128))


def test_operator_residual_builds_no_part(monkeypatch, shift2):
    # the exact residual gate reads sup |P(a f +/- b J f)| off the partial
    # fractions: no _reassemble, so no np.roots of a projection
    from toephankel import rational

    h = RationalSymbol.from_factors(1.3 - 0.4j, 0, [2.5 + 1.0j, -1.8j, 3.0], [1, 1, -1])
    pair = make_matching_pair(h * shift2.chi.power(-2), h * shift2.chi.power(-1), shift2)
    bases = defect_numbers(pair, run_oracle=False).bases
    calls = []
    pf = RationalSymbol.partial_fractions
    monkeypatch.setattr(RationalSymbol, "partial_fractions",
                        lambda self: calls.append(1) or pf(self))

    def no_reassembly(*args):
        raise AssertionError("_reassemble called")

    monkeypatch.setattr(rational, "_reassemble", no_reassembly)
    for (kind, sign), basis in bases.items():
        if kind == "ker":
            for f in basis.functions:
                assert operator_residual(pair, 1 if sign == "+" else -1, f.rational) < 1e-8
    assert bases[("ker", "+")].dim + bases[("ker", "-")].dim > 0 and calls


def test_transfer_U1_takes_each_product_once(monkeypatch, shift2):
    # c f and a_alpha^-1 g serve both the gate (their P) and the map (their Q)
    from toephankel import series

    pair = make_matching_pair(shift2.chi.power(-2), shift2.chi.power(-2), shift2)
    calls = []
    mul = series.multiply_by_symbol
    monkeypatch.setattr(series, "multiply_by_symbol", lambda f, s: calls.append(1) or mul(f, s))
    F, G = transfer_U(pair, shift2, "U1", (TruncatedSeries.zero(), TruncatedSeries.basis(0)))
    assert len(calls) == 3
    half_chi = 0.5 * analytic_series(shift2.chi)
    assert (F - half_chi).norm() < 1e-10 and (G + half_chi).norm() < 1e-10

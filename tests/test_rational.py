import numpy as np
import pytest

from toephankel import (
    LaurentPolynomial,
    RationalSymbol,
    eval_symbol,
    fourier_coefficients,
    symbol_algebra,
    winding_number,
)
from toephankel.errors import (
    DenominatorNearZero,
    IllConditionedRoots,
    NotInvertibleOnCircle,
)
from toephankel import rational

from conftest import circle
from helpers import random_rational


def numeric_winding(s, n=4096):
    """Independent oracle: accumulated argument increments along the circle."""
    t = np.exp(2j * np.pi * np.arange(n) / n)
    vals = s.eval(t)
    phases = np.angle(vals[np.append(np.arange(1, n), 0)] / vals)
    return int(round(np.sum(phases) / (2 * np.pi)))


def test_eval_constant():
    s = RationalSymbol.constant(5.0)
    assert eval_symbol(s, 1.0) == 5.0


def test_eval_chi_at_fixed_points(shift2):
    # chi = (conj(beta) t - 1)/lam; at the fixed points the values are +-1
    assert abs(eval_symbol(shift2.chi, shift2.t_plus) - 1.0) < 1e-14
    assert abs(eval_symbol(shift2.chi, shift2.t_minus) + 1.0) < 1e-14


def test_eval_requires_circle_point():
    with pytest.raises(ValueError):
        eval_symbol(RationalSymbol.constant(1.0), 0.5)


def test_eval_near_pole_raises():
    s = RationalSymbol(LaurentPolynomial.one(), LaurentPolynomial(0, [-0.5, 1.0]))
    with pytest.raises(DenominatorNearZero):
        s.eval(0.5 + 1e-14)


def test_eval_guard_reads_distance_to_pole():
    # a 12-fold pole 0.05 away: the monic denominator is 2.4e-16, the value finite
    s = RationalSymbol.from_factors(1.0, 0, [0.5], [-12])
    assert abs(s.eval(0.55) - 0.05**-12) < 1e-10 * 0.05**-12
    with pytest.raises(DenominatorNearZero):
        s.eval(0.5 + 1e-13)
    # 0.01^400 underflows: the denominator is 0 although the pole is 0.01 away
    with pytest.raises(DenominatorNearZero):
        RationalSymbol.from_factors(1.0, 0, [0.5], [-400]).eval(0.51)


def test_conjugate_bar_of_t():
    s = RationalSymbol.monomial(1)
    out = symbol_algebra("conjugate_bar", s)
    assert out.distance_to(RationalSymbol.monomial(-1)) < 1e-14


def test_invert_chi_has_pole_at_half(shift2):
    inv = symbol_algebra("invert", shift2.chi)
    assert len(inv.den_roots) == 1
    assert abs(inv.den_roots[0] - 0.5) < 1e-12


def test_multiply_chi_by_composed_chi_is_one(shift2):
    from toephankel import compose_with_shift

    chi_a = compose_with_shift(shift2.chi, shift2)
    prod = symbol_algebra("multiply", shift2.chi, chi_a)
    assert prod.distance_to(RationalSymbol.constant(1.0)) < 1e-12


def test_invert_rejects_circle_zero():
    s = RationalSymbol(LaurentPolynomial(0, [-1.0, 1.0]))  # t - 1
    with pytest.raises(NotInvertibleOnCircle):
        s.invert()


def test_construction_rejects_circle_pole():
    with pytest.raises(DenominatorNearZero):
        RationalSymbol(LaurentPolynomial.one(), LaurentPolynomial(0, [-1.0, 1.0]))


def test_winding_examples(shift2):
    assert winding_number(shift2.chi) == 1
    assert winding_number(RationalSymbol.constant(5.0)) == 0
    s = RationalSymbol.monomial(-3) * shift2.chi.power(2)
    assert winding_number(s) == -1


def test_winding_raises_inside_annulus():
    s = RationalSymbol(LaurentPolynomial(0, [-1.0, 1.0]))
    with pytest.raises(IllConditionedRoots):
        winding_number(s)


def test_winding_matches_argument_increment(rng):
    for _ in range(20):
        s = random_rational(rng)
        if s.is_zero:
            continue
        assert winding_number(s) == numeric_winding(s)


def test_winding_additive(rng):
    for _ in range(10):
        s1 = random_rational(rng)
        s2 = random_rational(rng)
        if s1.is_zero or s2.is_zero:
            continue
        assert winding_number(s1 * s2) == winding_number(s1) + winding_number(s2)


def test_eval_multiplicative(rng):
    t = circle(64)
    for _ in range(10):
        s1 = random_rational(rng)
        s2 = random_rational(rng)
        prod = s1 * s2
        scale = 1.0 + np.abs(s1.eval(t) * s2.eval(t))
        err = np.abs(prod.eval(t) - s1.eval(t) * s2.eval(t)) / scale
        assert np.max(err) < 1e-12


def test_conjugate_bar_involution(rng):
    for _ in range(10):
        s = random_rational(rng)
        assert s.conjugate_bar().conjugate_bar().distance_to(s) < 1e-11


def test_reduction_cancels_removable_factors(shift2):
    # chi^4 * chi^-6 must reduce to chi^-2 despite the multiple shared roots
    prod = shift2.chi.power(4) * shift2.chi.power(-6)
    assert prod.distance_to(shift2.chi.power(-2)) < 1e-10
    assert len(prod.den_roots) == 2


def test_partial_fractions_rebuild(rng):
    t = circle(96)
    for _ in range(10):
        s = random_rational(rng)
        poly, terms = s.partial_fractions()
        vals = poly.eval(t)
        for z, residues in terms:
            for j, r in enumerate(residues, start=1):
                vals = vals + r / (t - z) ** j
        scale = 1.0 + np.abs(s.eval(t))
        assert np.max(np.abs(vals - s.eval(t)) / scale) < 1e-9


def test_split_analytic_parts(rng):
    t = circle(64)
    for _ in range(8):
        s = random_rational(rng)
        p, q = s.split_analytic()
        assert (p + q).distance_to(s) < 1e-9 * max(1.0, s.sup_norm_on_circle())
        # P side has no poles inside, Q side none outside and vanishes at inf
        assert np.all(np.abs(p.den_roots) > 1.0)
        assert np.all(np.abs(q.den_roots) < 1.0)
        if not q.is_zero:
            assert q.num.hi < q.den.hi  # decay at infinity


TWO_SIDED = [
    # poles on both sides of the circle
    RationalSymbol.from_factors(1.3 - 0.4j, 1, [0.5 + 0.2j, -1.8j, 0.3, 2.2], [-2, -1, 1, 1]),
    # a pole at 0 (mono < 0) against an outer pole
    RationalSymbol.from_factors(0.8, -2, [1.6 - 0.5j, 0.45j], [-1, 1]),
    # a polynomial part: degree 2 and no outer pole
    RationalSymbol.from_factors(-0.6 + 1.1j, 0, [0.4 - 0.3j, 1.5, -2.1j], [-1, 2, 1]),
]
ONE_SIDED = [
    (RationalSymbol.from_factors(2.0, 1, [1.7j, 0.3], [-2, 1]), "P"),
    (RationalSymbol.from_factors(1.0, 0, [0.5, 2.5], [-3, 1]), "Q"),
    (RationalSymbol.from_factors(0.4, -3, [1.2 + 0.5j], [2]), "Q"),
    (RationalSymbol.constant(0.0), "P"),
]


@pytest.mark.parametrize("s", TWO_SIDED + [s for s, _ in ONE_SIDED])
def test_parts_rebuild_symbol(s):
    p, q = s.part("P"), s.part("Q")
    assert (p + q).distance_to(s) < 1e-10 * max(1.0, s.sup_norm_on_circle())


@pytest.mark.parametrize("s", TWO_SIDED)
def test_part_equals_split_analytic(s):
    for part, whole in zip((s.part("P"), s.part("Q")), s.split_analytic()):
        assert part.lead == whole.lead and part.mono == whole.mono
        assert np.array_equal(part.roots, whole.roots)
        assert np.array_equal(part.mults, whole.mults)


@pytest.mark.parametrize("s, side", ONE_SIDED)
def test_one_sided_part_is_the_symbol(s, side):
    other = "Q" if side == "P" else "P"
    assert s.part(side) is s
    assert s.part(other).is_zero
    p, q = s.split_analytic()
    kept, dropped = (p, q) if side == "P" else (q, p)
    assert kept is s and dropped.is_zero
    with pytest.raises(ValueError):
        s.part("R")


@pytest.mark.parametrize("s", TWO_SIDED + [s for s, _ in ONE_SIDED if not s.is_zero])
def test_part_coefficients_match_fft(s):
    lo, hi = -12, 12
    ref = fourier_coefficients(s, (lo, hi)).coeffs
    exps = np.arange(lo, hi + 1)
    for which, keep in (("P", exps >= 0), ("Q", exps < 0)):
        got, _ = s.part(which).coefficients(lo, hi)
        assert np.max(np.abs(got - np.where(keep, ref, 0.0))) < 1e-10 * np.max(np.abs(ref))


def test_projection_decomposes_once(monkeypatch):
    calls = []
    pf, reassemble = RationalSymbol.partial_fractions, rational._reassemble
    monkeypatch.setattr(RationalSymbol, "partial_fractions",
                        lambda self: calls.append("pf") or pf(self))
    monkeypatch.setattr(rational, "_reassemble",
                        lambda *args: calls.append("re") or reassemble(*args))

    def count(run):
        calls.clear()
        run()
        return calls.count("pf"), calls.count("re")

    for s in TWO_SIDED:
        assert count(lambda: s.part("P")) == (1, 1)
        assert count(lambda: s.part("Q")) == (1, 1)
        assert count(s.split_analytic) == (1, 2)
    for s, _ in ONE_SIDED:
        assert count(lambda: (s.part("P"), s.part("Q"), s.split_analytic())) == (0, 0)


def test_window_left_of_an_outer_pole_is_zero():
    coeffs, tail = RationalSymbol.from_factors(1.0, 0, [2.0], [-1]).coefficients(-5, -2)
    assert np.array_equal(coeffs, np.zeros(4)) and tail == 0.0


def test_windows_read_off_the_factors_match_fft(monkeypatch):
    # random symbols and windows against a 2^16-point FFT, tails included;
    # no window goes through partial fractions
    def forbidden(self):
        raise AssertionError("coefficients called partial_fractions")

    monkeypatch.setattr(RationalSymbol, "partial_fractions", forbidden)
    rng = np.random.default_rng(1404)
    m = 2**16
    t = np.exp(2j * np.pi * np.arange(m) / m)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        radius = np.where(rng.random(n) < 0.5, rng.uniform(0.3, 0.97, n),
                          rng.uniform(1.03, 3.0, n))
        roots = radius * np.exp(2j * np.pi * rng.random(n))
        mults = rng.choice([-3, -2, -1, 1, 2], n)
        s = RationalSymbol.from_factors(complex(*rng.normal(size=2)),
                                        int(rng.integers(-3, 4)), roots, mults)
        lo = int(rng.integers(-60, 61))
        hi = int(rng.integers(lo, 61))
        vals = s.eval(t)
        ref = np.fft.fft(vals)[np.arange(lo - 1, hi + 2) % m] / m
        coeffs, tail = s.coefficients(lo, hi)
        scale = max(1.0, np.max(np.abs(vals)))
        assert np.max(np.abs(coeffs - ref[1:-1])) < 1e-12 * scale
        assert abs(tail - max(abs(ref[0]), abs(ref[-1]))) < 1e-12 * scale


def _fft_coefficients(s, lo, hi, n=1024):
    """Independent oracle: Fourier coefficients from samples on the circle."""
    c = np.fft.fft(s.eval(np.exp(2j * np.pi * np.arange(n) / n))) / n
    return c[np.arange(lo, hi + 1) % n]


def _check_coefficient_input(s):
    coeffs, _ = s.coefficients(-12, 12)
    ref = _fft_coefficients(s, -12, 12)
    assert np.max(np.abs(coeffs - ref)) < 1e-10 * np.max(np.abs(ref))
    p, q = s.split_analytic()
    assert (p + q).distance_to(s) < 1e-10 * s.sup_norm_on_circle()


@pytest.mark.parametrize("m", [2, 4])
def test_coefficient_input_multiple_pole(m):
    # (t - z)^m with z not representable: np.roots scatters the m-fold pole
    from toephankel.cli import parse_symbol

    z, w = 2.5 + 0.3j, 0.4 - 0.35j
    den = np.polymul(np.poly([z] * m), np.poly([w] * m))[::-1]
    spec = {"rational": {"num": {"coeffs": [[1, 0]]},
                         "den": {"coeffs": [[c.real, c.imag] for c in den]}}}
    s = parse_symbol(spec, None)
    _check_coefficient_input(s)


def test_coefficient_input_double_zero_inverted():
    from toephankel.cli import parse_symbol

    w, v = 0.45 + 0.2j, 1.7 - 0.6j
    num = np.poly([w, w, v])[::-1]
    s = parse_symbol({"laurent": {"lo": -1,
                                  "coeffs": [[c.real, c.imag] for c in num]}}, None)
    inv = symbol_algebra("invert", s)
    _check_coefficient_input(inv)


def test_analytic_pad_reads_only_outer_poles():
    from toephankel import make_shift

    eps = np.finfo(float).eps
    sh = make_shift(1.0001)
    # the pole 1e-4 inside the circle drives pad_for, not the analytic side
    assert sh.chi.invert().pad_for(1e-10) > 10**5
    assert sh.chi.invert().analytic_pad(eps) == 0
    assert sh.chi.power(3).analytic_pad(eps) == 3   # a polynomial of degree 3
    s = RationalSymbol.from_factors(2.0, 2, [0.5j, 1.6 - 0.9j, 3.0], [-3, -1, 1])
    r = s.analytic_pad(eps)
    coeffs, _ = s.coefficients(r + 1, r + 400)
    assert 30 < r < 200 and np.max(np.abs(coeffs)) < eps
    # a pole of order 10 outside: C(i+9, 9) 2^-i decays late
    s = RationalSymbol.from_factors(1.0, 0, [2.0], [-10])
    r = s.analytic_pad(eps)
    coeffs, _ = s.coefficients(r + 1, r + 400)
    assert np.max(np.abs(coeffs)) < eps


@pytest.mark.parametrize("s", TWO_SIDED + [s for s, _ in ONE_SIDED])
def test_part_sup_norm_matches_the_built_part(s):
    # the residual gates read sup |P(s)| or sup |Q(s)| off the partial
    # fractions; it must be the sup norm of the part that part() builds
    scale = max(1.0, s.sup_norm_on_circle(128))
    for which in ("P", "Q"):
        want = s.part(which).sup_norm_on_circle(128)
        assert abs(s.part_sup_norm(which, 128) - want) <= 1e-12 * scale
    with pytest.raises(ValueError):
        s.part_sup_norm("R", 128)


def _factor_bytes(s):
    return (np.complex128(s.lead).tobytes(), s.mono, s.roots.tobytes(), s.mults.tobytes(),
            s.roots.dtype, s.mults.dtype)


# r3 lies within ROOT_TOL of both r1 and r2, which are apart from each other
R1 = 2.0 + 0.5j
R2, R3 = R1 + 3e-10, R1 + 1.5e-10
BOOKKEEPING = [
    RationalSymbol.from_factors(1.5 - 0.5j, 2, [R1, R2, 0.3j, -0.4, 3.0], [1, -2, 2, -1, 1]),
    # a zero cancelling a pole of the first, and a double pole cancelling its double zero
    RationalSymbol.from_factors(-0.7 + 0.2j, -3, [R3, -0.4 + 1e-12, 0.3j, 1.7], [2, 1, -2, -1]),
    # a zero just inside the annulus and a double pole just outside it, 1e-11 apart
    RationalSymbol.from_factors(1.0, 0, [1 + 0.9995e-8], [1]),
    RationalSymbol.from_factors(0.5j, 1, [1 + 1.0005e-8, -2.0], [-2, 1]),
]


def test_bookkeeping_fixtures_are_canonical():
    assert len(BOOKKEEPING[0].roots) == 5   # R1 and R2 stay two roots
    assert rational._side(BOOKKEEPING[2].roots)[0] == 0.0
    assert rational._side(BOOKKEEPING[3].roots)[0] > 0.0


@pytest.mark.parametrize("i", range(len(BOOKKEEPING)))
@pytest.mark.parametrize("j", range(len(BOOKKEEPING)))
def test_product_is_the_full_merge(i, j):
    # the cross matching of a product gives bitwise the factors of the
    # concatenated lists, or the same error
    x, y = BOOKKEEPING[i], BOOKKEEPING[j]

    def merged():
        return RationalSymbol.from_factors(x.lead * y.lead, x.mono + y.mono,
                                           np.concatenate([x.roots, y.roots]),
                                           np.concatenate([x.mults, y.mults]))

    try:
        want = merged()
    except DenominatorNearZero:
        with pytest.raises(DenominatorNearZero):
            x * y
        return
    assert _factor_bytes(x * y) == _factor_bytes(want)


def test_product_cases_are_covered():
    a, b, zero_in, pole_out = BOOKKEEPING
    ab = a * b
    k = dict(zip(ab.roots.tolist(), ab.mults.tolist()))
    assert k[R1] == 1 + 2 and k[R2] == -2 and R3 not in k   # R3 joins R1, the first it is near
    assert not np.any(np.isclose(ab.roots, -0.4)) and not np.any(np.isclose(ab.roots, 0.3j))
    with pytest.raises(DenominatorNearZero):
        zero_in * pole_out          # the merged double pole keeps the root inside the band
    assert (pole_out * zero_in).mults[0] == -1


@pytest.mark.parametrize("s", BOOKKEEPING + [BOOKKEEPING[0] * BOOKKEEPING[1]])
def test_root_keeping_operations_are_from_factors(s):
    # -s, scalar * s, invert and power keep the roots without a merge
    f = RationalSymbol.from_factors
    inv_lead = 1.0 / s.lead
    cases = [
        (-s, f(-s.lead, s.mono, s.roots, s.mults)),
        (2.5 * s, f(s.lead * complex(2.5), s.mono, s.roots, s.mults)),
        (s * (0.5 - 1j), f(s.lead * complex(0.5 - 1j), s.mono, s.roots, s.mults)),
        (0.0 * s, f(s.lead * complex(0.0), s.mono, s.roots, s.mults)),
        (s.power(3), f(s.lead**3, 3 * s.mono, s.roots, 3 * s.mults)),
    ]
    if not np.any(rational._side(s.roots) == 0):
        cases += [
            (s.invert(), f(inv_lead, -s.mono, s.roots, -s.mults)),
            (s.power(-2), f(inv_lead**2, -2 * s.mono, s.roots, -2 * s.mults)),
        ]
    for got, want in cases:
        assert _factor_bytes(got) == _factor_bytes(want)


def _groups_by_matrix(roots, tol):
    """The all-pairs closeness matrix form of rational._groups, as a reference."""
    x = np.asarray(roots, complex)
    scale = np.maximum(1.0, np.maximum.outer(np.abs(x), np.abs(x)))
    rep = np.argmax(np.abs(x[:, None] - x[None, :]) <= tol * scale, axis=1)
    while np.any(rep[rep] != rep):
        rep = rep[rep]
    return rep.tolist()


@pytest.mark.parametrize("tol", [rational.ROOT_TOL, rational.ENTRY_TOL])
def test_groups_match_the_matrix_reference(rng, tol):
    # chains of roots 0.6 tol apart, exact repeats and zeros, shuffled
    for _ in range(200):
        centres = (rng.uniform(0.1, 3.0, 4) * np.exp(2j * np.pi * rng.uniform(size=4))).tolist()
        roots = []
        for z in centres:
            step = 0.6 * tol * max(1.0, abs(z)) * np.exp(2j * np.pi * rng.uniform())
            roots += [z + step * k for k in range(int(rng.integers(1, 4)))]
        roots += [roots[0], 0.0, 0.0][: int(rng.integers(0, 4))]
        roots = [roots[i] for i in rng.permutation(len(roots))]
        assert rational._groups(roots, tol) == _groups_by_matrix(roots, tol)

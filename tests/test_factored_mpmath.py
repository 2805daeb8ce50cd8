"""Cross-check of the factored symbol algebra against 50-digit mpmath.

Every symbol is generated from an explicit factor list
lead * t^mono * prod (t - r)^k with multiplicities up to 6, or is chi^k
for |k| <= 10.  The reference evaluates these lists at 50 significant
digits with mpmath, independently of the package, and combines operand
values the way each operation should; Fourier coefficients are compared
with a 50-digit trapezoid rule on M = 512 points, whose aliasing error is
below 1e-40 for roots at these radii.  Every comparison is normwise
relative: max |package - reference| <= REL_TOL * max |reference| over the
check points.
"""

import mpmath
import numpy as np
import pytest

from toephankel import RationalSymbol, compose_with_shift, make_shift

mp = mpmath.MPContext()
mp.dps = 50
REL_TOL = 1e-10
BETAS = (2.0, 2.0j, 1.5 + 0.5j)
GRID = [complex(z) for z in np.exp(2j * np.pi * (np.arange(48) + 0.137) / 48)]


def random_factors(rng, roots=(), n_new=None):
    """(lead, mono, [(root, mult), ...]): roots 0.2-0.7 or 1.4-2.8 from the
    origin, multiplicities in [-6, 6] without 0.  Roots passed in are
    reused with fresh multiplicities."""
    pairs = [(r, int(rng.choice([-1, 1]) * rng.integers(1, 7))) for r in roots]
    for _ in range(int(rng.integers(1, 4)) if n_new is None else n_new):
        radius = rng.uniform(0.2, 0.7) if rng.random() < 0.5 else rng.uniform(1.4, 2.8)
        root = complex(radius * np.exp(2j * np.pi * rng.random()))
        pairs.append((root, int(rng.choice([-1, 1]) * rng.integers(1, 7))))
    lead = complex(rng.normal(), rng.normal())
    return lead, int(rng.integers(-3, 4)), pairs


def build(factors):
    lead, mono, pairs = factors
    roots, mults = [r for r, _ in pairs], [k for _, k in pairs]
    return RationalSymbol.from_factors(lead, mono, roots, mults)


def ref_eval(factors, t):
    lead, mono, pairs = factors
    v = mp.mpc(lead) * mp.mpc(t) ** mono
    for r, k in pairs:
        v *= (mp.mpc(t) - mp.mpc(r)) ** k
    return v


def chi_ref(beta, k):
    """chi^k = ((conj(beta) t - 1) / lam)^k with lam = i sqrt(|beta|^2 - 1)."""
    b = mp.mpc(beta)
    lam = mp.mpc(0, 1) * mp.sqrt(abs(b) ** 2 - 1)
    return lambda t: ((mp.conj(b) * t - 1) / lam) ** k


def inside_count(factors):
    _, mono, pairs = factors
    return mono + sum(k for r, k in pairs if abs(r) < 1.0)


def assert_values(got, want):
    scale = max(float(abs(w)) for w in want)
    err = max(float(abs(mp.mpc(g) - w)) for g, w in zip(got, want))
    assert err <= REL_TOL * scale, f"error {err:.3e} against scale {scale:.3e}"


def assert_close(symbol, reference):
    assert_values([symbol.eval(t) for t in GRID], [reference(mp.mpc(t)) for t in GRID])


def cases(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        f1 = random_factors(rng)
        shared = [r for r, _ in f1[2] if rng.random() < 0.5]
        out.append((f1, random_factors(rng, shared, n_new=int(rng.integers(0, 3)))))
    return out


@pytest.mark.parametrize("f1, f2", cases(20261018, 12))
def test_algebra_matches_mpmath(f1, f2):
    s1, s2 = build(f1), build(f2)
    assert_close(s1, lambda t: ref_eval(f1, t))
    assert_close(s1 * s2, lambda t: ref_eval(f1, t) * ref_eval(f2, t))
    assert_close(s1.invert(), lambda t: 1 / ref_eval(f1, t))
    assert_close(s1.power(3), lambda t: ref_eval(f1, t) ** 3)
    assert_close(s1.power(-2), lambda t: ref_eval(f1, t) ** -2)
    assert_close(s1.conjugate_bar(), lambda t: mp.conj(ref_eval(f1, 1 / mp.conj(t))))
    assert_close(s1 + s2, lambda t: ref_eval(f1, t) + ref_eval(f2, t))
    assert_close(s1 - s2, lambda t: ref_eval(f1, t) - ref_eval(f2, t))
    for beta in BETAS:
        b = mp.mpc(beta)
        alpha = lambda t: (t - b) / (mp.conj(b) * t - 1)  # noqa: E731
        composed = compose_with_shift(s1, make_shift(beta))
        assert_close(composed, lambda t: ref_eval(f1, alpha(t)))


@pytest.mark.parametrize("f1, f2", cases(7, 8))
def test_winding_counts_inside_roots(f1, f2):
    s1, s2 = build(f1), build(f2)
    w1, w2 = inside_count(f1), inside_count(f2)
    assert s1.winding_number() == w1
    assert (s1 * s2).winding_number() == w1 + w2
    assert s1.invert().winding_number() == -w1
    assert s1.power(4).winding_number() == 4 * w1
    assert s1.conjugate_bar().winding_number() == -w1


@pytest.mark.parametrize("beta", BETAS)
def test_chi_powers_match_mpmath(beta):
    sh = make_shift(beta)
    for k in range(-10, 11):
        s = sh.chi.power(k)
        assert_close(s, chi_ref(beta, k))
        assert s.winding_number() == k
        # chi^k is the single root 1/conj(beta) with multiplicity k
        assert list(s.mults) == ([k] if k else [])
        assert_close(compose_with_shift(s, sh), chi_ref(beta, -k))
    for j, k in ((-10, 3), (-6, -1), (2, 9), (-4, 10)):
        for sign in (1.0, -1.0):
            total = sh.chi.power(j) + sign * sh.chi.power(k)
            assert_close(total, lambda t: chi_ref(beta, j)(t) + sign * chi_ref(beta, k)(t))


@pytest.mark.parametrize("beta", [1.05, 0.63 + 0.84j])
def test_high_order_pole_near_circle_matches_mpmath(beta):
    # the pole of chi^-12 is 0.048 from the circle, where its monic
    # denominator drops to 1e-16: eval guards on the distance instead
    assert_close(make_shift(beta).chi.power(-12), chi_ref(beta, -12))


def trapezoid_coefficients(reference, lo, hi, m=512):
    nodes = [mp.expjpi(mp.mpf(2 * j) / m) for j in range(m)]
    values = [reference(t) for t in nodes]
    return [sum(v * t ** (-e) for v, t in zip(values, nodes)) / m for e in range(lo, hi + 1)]


def _coefficient_cases():
    rng = np.random.default_rng(11)
    out = []
    for _ in range(5):
        f = random_factors(rng)
        out.append((build(f), lambda t, f=f: ref_eval(f, t)))
    for beta, k in ((1.5 + 0.5j, -10), (2.0, 10)):
        out.append((make_shift(beta).chi.power(k), chi_ref(beta, k)))
    return out


@pytest.mark.parametrize("s, reference", _coefficient_cases())
def test_coefficients_and_split_match_mpmath(s, reference):
    lo, hi = -12, 12
    assert_values(s.coefficients(lo, hi)[0], trapezoid_coefficients(reference, lo, hi))
    p, q = s.split_analytic()
    assert_values([p.eval(t) + q.eval(t) for t in GRID], [reference(mp.mpc(t)) for t in GRID])
    assert np.all(np.abs(p.den_roots) > 1.0)
    assert np.all(np.abs(q.den_roots) < 1.0)
    if not q.is_zero:
        assert q.num.hi < q.den.hi

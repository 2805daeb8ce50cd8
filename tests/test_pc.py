import numpy as np
import pytest
import scipy.linalg

from toephankel import (
    JumpFactor,
    PCSymbol,
    PsiFactor,
    RationalSymbol,
    alpha_signature,
    eval_alpha,
    eval_pc,
    fredholm_symbol_check,
    nu_h,
    one_sided_limits,
    pc_alpha_signature,
)
from toephankel.errors import AtJumpPoint, NotMatching
from toephankel.pc import pc_toeplitz_entries


def test_jump_factor_limits():
    beta = 0.3 + 0.1j
    tau = np.exp(0.7j)
    jf = JumpFactor(tau, beta)
    left, right = jf.limits_at(tau)
    assert abs(left - np.exp(1j * np.pi * beta)) < 1e-14
    assert abs(right - np.exp(-1j * np.pi * beta)) < 1e-14


def test_psi_limits(shift2):
    beta = 0.25 - 0.15j
    psi = PsiFactor("t_plus", beta, shift2)
    left, right = one_sided_limits(psi, shift2.t_plus)
    assert abs(left - np.exp(1j * np.pi * beta)) < 1e-13
    assert abs(right - np.exp(-1j * np.pi * beta)) < 1e-13
    psi_m = PsiFactor("t_minus", beta, shift2)
    left2, right2 = one_sided_limits(psi_m, shift2.t_minus)
    assert abs(left2 - np.exp(1j * np.pi * beta)) < 1e-13
    assert abs(right2 - np.exp(-1j * np.pi * beta)) < 1e-13


def test_zero_exponent_is_constant(shift2):
    jf = JumpFactor(1.0, 0.0)
    t = shift2.circle_grid(64)
    assert np.max(np.abs(jf.eval(t) - 1.0)) < 1e-15


def test_eval_at_jump_raises(shift2):
    s = PCSymbol(RationalSymbol.constant(1.0), (JumpFactor(1.0, 0.3),))
    with pytest.raises(AtJumpPoint):
        eval_pc(s, 1.0 + 0.0j)


def test_one_sided_limits_product(shift2):
    base = shift2.chi.power(-1)
    tau = np.exp(1.1j)
    s = PCSymbol(base, (JumpFactor(tau, 0.2),))
    left, right = one_sided_limits(s, tau)
    assert abs(left - base.eval(tau) * np.exp(0.2j * np.pi)) < 1e-12
    assert abs(right - base.eval(tau) * np.exp(-0.2j * np.pi)) < 1e-12


def test_psi_matching_on_grid(all_shifts):
    for sh in all_shifts:
        psi = PsiFactor("t_plus", 0.3 + 0.05j, sh)
        t = sh.circle_grid(4096)
        keep = np.abs(t - sh.t_plus) > 1e-3
        vals = psi.eval(t[keep]) * psi.eval(eval_alpha(sh, t[keep]))
        assert np.max(np.abs(vals - 1.0)) < 1e-10
        psi_m = PsiFactor("t_minus", -0.2, sh)
        vals2 = psi_m.eval(t[keep & (np.abs(t - sh.t_minus) > 1e-3)])
        vals2 = vals2 * psi_m.eval(
            eval_alpha(sh, t[keep & (np.abs(t - sh.t_minus) > 1e-3)])
        )
        assert np.max(np.abs(vals2 - 1.0)) < 1e-10


def test_nu_h_values():
    nu, h = nu_h(np.inf, 2.0)
    assert nu == 1.0 and h == 0.0
    nu, h = nu_h(-np.inf, 2.0)
    assert nu == 0.0 and h == 0.0
    nu, h = nu_h(0.0, 2.0)
    assert abs(nu - 0.5) < 1e-15
    assert abs(h - (-1j)) < 1e-15


def test_nu_symmetry_p2(rng):
    for y in rng.normal(size=8):
        n1, _ = nu_h(float(y), 2.0)
        n2, _ = nu_h(float(-y), 2.0)
        assert abs((n1 + n2) - 1.0) < 1e-12


def test_fredholm_identity(shift2):
    rep = fredholm_symbol_check(
        RationalSymbol.constant(1.0), RationalSymbol.constant(0.0), 2.0, shift2,
        n_t=64, n_y=41,
    )
    assert rep["fredholm"]
    assert abs(rep["min_abs_det"] - 1.0) < 1e-12


def test_fredholm_continuous_hankel(shift2):
    rep = fredholm_symbol_check(
        RationalSymbol.constant(1.0), shift2.chi.invert(), 2.0, shift2,
        n_t=64, n_y=41,
    )
    assert rep["fredholm"]


def test_fredholm_boundary_jump(shift2):
    # a single jump factor with Re beta = 1/p sits exactly on the critical arc
    s = PCSymbol(RationalSymbol.constant(1.0), (JumpFactor(np.exp(2.1j), 0.5),))
    rep = fredholm_symbol_check(s, RationalSymbol.constant(0.0), 2.0, shift2,
                                n_t=64, n_y=41)
    assert not rep["fredholm"]
    assert rep["min_abs_det"] < 1e-10


def test_fredholm_circle_zero_detected(shift2):
    from toephankel import LaurentPolynomial

    a = RationalSymbol(LaurentPolynomial(0, [-1.0, 1.0]))  # vanishes at t = 1
    rep = fredholm_symbol_check(a, RationalSymbol.constant(0.0), 2.0, shift2,
                                n_t=64, n_y=41)
    assert not rep["fredholm"]


def test_fredholm_agrees_with_factorization_on_golden(shift2):
    from toephankel import factorize

    golden = [
        (shift2.chi.power(-2), shift2.chi.power(-2)),
        (RationalSymbol.constant(1.0), shift2.chi.invert()),
        (RationalSymbol.constant(1.0), RationalSymbol.constant(1.0)),
        (RationalSymbol.constant(1.0), shift2.chi),
        (shift2.chi.power(2), shift2.chi.power(-2)),
    ]
    for a, b in golden:
        c = a * b.invert()
        from toephankel import compose_with_shift

        d = b * compose_with_shift(a, shift2).invert()
        pair_fredholm = True
        try:
            factorize(c), factorize(d)
        except Exception:
            pair_fredholm = False
        rep = fredholm_symbol_check(a, b, 2.0, shift2, n_t=96, n_y=41)
        assert rep["fredholm"] == pair_fredholm


def test_pc_signature_psi(shift2):
    psi = PsiFactor("t_plus", 0.3, shift2)
    assert pc_alpha_signature(psi, 2.0, shift2) == 1
    neg = PsiFactor("t_plus", 0.3, shift2, scale=-1.0)
    assert pc_alpha_signature(neg, 2.0, shift2) == -1


def test_pc_signature_agrees_with_rational(shift2):
    for g in (
        shift2.chi.invert(),
        -1.0 * shift2.chi.invert(),
        shift2.chi.power(-4),
        RationalSymbol.constant(1.0),
    ):
        assert pc_alpha_signature(g, 2.0, shift2) == alpha_signature(g, shift2)


def test_pc_signature_with_offaxis_jumps(shift2):
    # jumps away from the fixed points must cancel pairwise under the shift
    tau = np.exp(0.9j)
    tau_img = eval_alpha(shift2, tau)
    beta = 0.2
    g = PCSymbol(
        RationalSymbol.constant(1.0),
        (JumpFactor(tau, beta), JumpFactor(tau_img, beta)),
    )
    t = shift2.circle_grid(512)
    keep = (np.abs(t - tau) > 1e-2) & (np.abs(t - tau_img) > 1e-2)
    vals = g.eval(t[keep]) * g.eval(eval_alpha(shift2, t[keep]))
    if np.max(np.abs(vals - 1.0)) < 1e-8:
        sigma = pc_alpha_signature(g, 2.0, shift2)
        assert sigma in (1, -1)
    else:
        with pytest.raises(NotMatching):
            pc_alpha_signature(g, 2.0, shift2)


def test_pc_signature_rejects_nonmatching(shift2):
    g = PCSymbol(RationalSymbol.constant(2.0), ())
    with pytest.raises(NotMatching):
        pc_alpha_signature(g, 2.0, shift2)


def test_pc_toeplitz_against_exact(shift2):
    s = shift2.chi.power(-2)
    ent_pc, err = pc_toeplitz_entries(s, shift2, 32)
    from toephankel import operator_section

    ent_exact = operator_section("toeplitz", s, shift2, 32).entries
    assert np.max(np.abs(ent_pc - ent_exact)) < 1e-11
    assert err < 1e-11


def test_psi_sections_invertible(shift2):
    for beta in (0.3, 0.25 + 0.2j):
        psi = PsiFactor("t_plus", beta, shift2)
        for n in (64, 128, 256):
            entries, err = pc_toeplitz_entries(psi, shift2, n)
            assert err < 1e-10
            svals = scipy.linalg.svdvals(entries)
            assert svals[-1] > 1e-6


def test_pc_section_via_operator_section(shift2):
    psi = PsiFactor("t_minus", 0.2, shift2)
    from toephankel import operator_section

    sec = operator_section("toeplitz", psi, shift2, 48)
    assert sec.size == 48
    svals = scipy.linalg.svdvals(sec.entries)
    assert svals[-1] > 1e-6


def test_pc_signature_jump_at_t_minus_only(shift2):
    # continuity at t_plus decides the sign directly, jump at t_minus or not
    psi_m = PsiFactor("t_minus", 0.3, shift2)
    assert pc_alpha_signature(psi_m, 2.0, shift2) == 1
    neg = PsiFactor("t_minus", 0.3, shift2, scale=-1.0)
    assert pc_alpha_signature(neg, 2.0, shift2) == -1


def test_pc_signature_complex_exponent_peel(shift2):
    psi = PsiFactor("t_plus", 0.25 + 0.2j, shift2)
    assert pc_alpha_signature(psi, 2.0, shift2) == 1
    assert pc_alpha_signature(
        PsiFactor("t_plus", 0.25 + 0.2j, shift2, scale=-1.0), 2.0, shift2
    ) == -1


def test_fredholm_agreement_includes_negative_case(shift2):
    # a vanishing on the circle: the pair machinery refuses and the symbol
    # criterion says not Fredholm
    from toephankel import LaurentPolynomial
    from toephankel.errors import DenominatorNearZero, NotInvertible

    a = RationalSymbol(LaurentPolynomial(0, [-1.0, 1.0]))  # t - 1
    rep = fredholm_symbol_check(a, a, 2.0, shift2, n_t=96, n_y=41)
    assert not rep["fredholm"]
    from toephankel import subordinated_pair

    with pytest.raises((DenominatorNearZero, NotInvertible)):
        subordinated_pair(a, a, shift2)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fredholm_grid_has_one_angle_per_circle_zero(shift2, k):
    # (t - 1)^k: circle_zeros lists t = 1 k times; the arc grid takes it,
    # and its image under alpha, once
    from toephankel import LaurentPolynomial

    a = RationalSymbol(LaurentPolynomial.from_roots([1.0] * k, 1.0))
    rep = fredholm_symbol_check(a, RationalSymbol.constant(0.0), 2.0, shift2, n_t=512)
    assert rep["grid"]["n_t"] == 513
    assert not rep["fredholm"]


def _textbook_limits(tau, beta, scale, value, point):
    """(left, right) of a factor with one jump at tau, one point at a time."""
    if abs(point - tau) < 1e-9:
        return scale * np.exp(1j * np.pi * beta), scale * np.exp(-1j * np.pi * beta)
    v = complex(value(point))
    return v, v


def _limit_points(sh, taus):
    t = sh.circle_grid(64)
    return np.concatenate([t, np.array(taus, complex), eval_alpha(sh, t[::7])])


@pytest.mark.parametrize("kind", ["jump", "psi", "pc"])
def test_limits_on_arrays_follow_the_textbook_rule(shift2, kind):
    # grid points, the jump points themselves and alpha images, in one call
    if kind == "jump":
        tau, beta = np.exp(1.1j), 0.3 + 0.1j
        s = JumpFactor(tau, beta)
        pts = _limit_points(shift2, [tau])
        want = [_textbook_limits(tau, beta, 1.0, s.eval, z) for z in pts]
    elif kind == "psi":
        beta = 0.25 - 0.15j
        s = PsiFactor("t_plus", beta, shift2, scale=-1.0)
        pts = _limit_points(shift2, [shift2.t_plus])
        want = [_textbook_limits(shift2.t_plus, beta, -1.0, s.eval, z) for z in pts]
    else:
        jumps = (JumpFactor(np.exp(1.1j), 0.2), JumpFactor(np.exp(-2.0j), -0.35 + 0.1j))
        base = shift2.chi.power(-1)
        s = PCSymbol(base, jumps)
        pts = _limit_points(shift2, [j.tau for j in jumps])
        want = []
        for z in pts:
            left = right = complex(base.eval(z))
            for j in jumps:
                jl, jr = _textbook_limits(j.tau, j.beta_exp, 1.0, j.eval, z)
                left, right = left * jl, right * jr
            want.append((left, right))
    left, right = s.limits_at(pts)
    want = np.array(want)
    assert left.shape == right.shape == pts.shape
    assert np.max(np.abs(left - want[:, 0])) < 1e-14
    assert np.max(np.abs(right - want[:, 1])) < 1e-14
    for k in (0, 64, len(pts) - 1):   # a scalar point gives Python complex numbers
        lk, rk = s.limits_at(complex(pts[k]))
        assert type(lk) is complex and type(rk) is complex
        assert abs(lk - left[k]) < 1e-15 and abs(rk - right[k]) < 1e-15


def test_fredholm_check_evaluates_a_constant_number_of_times(shift2, monkeypatch):
    calls = []
    inner = RationalSymbol.eval

    def counted(self, t):
        calls.append(np.shape(t))
        return inner(self, t)

    monkeypatch.setattr(RationalSymbol, "eval", counted)
    a = PCSymbol(shift2.chi.power(-1), (JumpFactor(np.exp(2.1j), 0.25),))
    counts = []
    for n_t in (64, 512):
        calls.clear()
        fredholm_symbol_check(a, shift2.chi.invert(), 2.0, shift2, n_t=n_t, n_y=41)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def _fredholm_reference(a, b, p, sh, n_t, n_y):
    """|det| keyed by (t index, y) and |scalar| keyed by (fixed point, y),
    from one limit evaluation per grid point."""
    from toephankel.pc import _arc_thetas, _as_pc, _y_grid

    a, b = _as_pc(a), _as_pc(b)
    extra = list(a.jump_points) + list(b.jump_points)
    for s in (a, b):
        if isinstance(s, PCSymbol):
            extra += list(s.base.circle_zeros())
    extra += [eval_alpha(sh, z) for z in extra]
    ts = np.exp(1j * _arc_thetas(sh, n_t, extra))
    ys = _y_grid(n_y)
    dets = {}
    for i, t in enumerate(ts):
        at = eval_alpha(sh, complex(t))
        al, ar = one_sided_limits(a, complex(t))
        bl, br = one_sided_limits(b, complex(t))
        aal, aar = one_sided_limits(a, at)
        bal, bar = one_sided_limits(b, at)
        for y in ys:
            nu, h = nu_h(y, p)
            dets[(i, y)] = abs(
                (ar * nu + al * (1 - nu)) * (aar * nu + aal * (1 - nu))
                - ((br - bl) / 2j * h) * ((bal - bar) / 2j * h)
            )
    scalars = {}
    for tau, mu in ((sh.t_plus, 1.0), (sh.t_minus, -1.0)):
        al, ar = one_sided_limits(a, tau)
        bl, br = one_sided_limits(b, tau)
        for y in ys:
            nu, h = nu_h(y, p)
            scalars[(tau.real, tau.imag, y)] = abs(ar * nu + al * (1 - nu) + mu * (br - bl) / 2.0 * h)
    return dets, scalars


@pytest.mark.parametrize("case", ["jump", "psi", "soft", "two-jumps"])
def test_fredholm_report_matches_a_per_point_reference(shift2, case):
    if case == "jump":
        a = PCSymbol(shift2.chi.power(-1), (JumpFactor(np.exp(2.1j), 0.3 + 0.1j),))
        b = shift2.chi.power(-2)
    elif case == "psi":
        a = PsiFactor("t_plus", 0.2 + 0.1j, shift2)
        b = PCSymbol(shift2.chi.invert(), (JumpFactor(1j, 0.3),))
    elif case == "soft":
        a = PCSymbol(RationalSymbol.constant(1.0), (JumpFactor(1j, 0.25),))
        b = shift2.chi.invert()
    else:
        a = PCSymbol(shift2.chi.power(2), (JumpFactor(np.exp(-2.5j), -0.2),))
        b = PCSymbol(0.5 * shift2.chi.invert(), (JumpFactor(np.exp(2.8j), 0.35 + 0.2j),))
    rep = fredholm_symbol_check(a, b, 2.0, shift2, n_t=48, n_y=31)
    dets, scalars = _fredholm_reference(a, b, 2.0, shift2, 48, 31)
    # the reported minima are the reference minima, attained where reported
    # (ties in the reference allow any of its minimizers)
    min_det, min_scalar = min(dets.values()), min(scalars.values())
    assert rep["min_abs_det"] == pytest.approx(min_det, rel=1e-12)
    at = rep["det_argmin"]
    assert dets[(at["t_index"], at["y"])] == pytest.approx(min_det, rel=1e-12)
    assert rep["min_abs_scalar"] == pytest.approx(min_scalar, rel=1e-12)
    at = rep["scalar_argmin"]
    assert scalars[(*at["t"], at["y"])] == pytest.approx(min_scalar, rel=1e-12)


def test_fredholm_argmin_is_the_first_near_minimum(shift2):
    # |det| = 1 at every (t, +-inf) point of this pair, so the minimum is
    # tied up to rounding; the report names the first tied grid point, as
    # the per-point reference does, whichever ties rounding favours
    a = PsiFactor("t_plus", 0.2 + 0.1j, shift2)
    b = PCSymbol(shift2.chi.invert(), (JumpFactor(1j, 0.3),))
    rep = fredholm_symbol_check(a, b, 2.0, shift2, n_t=64, n_y=31)
    dets, scalars = _fredholm_reference(a, b, 2.0, shift2, 64, 31)

    def first_near_min(values):
        low = min(values.values())
        return next(key for key, v in values.items() if v <= low * (1 + 1e-12))

    assert sum(v <= min(dets.values()) * (1 + 1e-12) for v in dets.values()) > 1
    assert first_near_min(dets) == (rep["det_argmin"]["t_index"], rep["det_argmin"]["y"])
    assert first_near_min(scalars) == (*rep["scalar_argmin"]["t"], rep["scalar_argmin"]["y"])

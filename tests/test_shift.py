import json
import subprocess
import sys

import numpy as np
import pytest

from toephankel import (
    RationalSymbol,
    TruncatedSeries,
    apply_J_alpha,
    chi_power,
    compose_with_shift,
    eval_alpha,
    fourier_coefficients,
    make_shift,
    operator_section,
)
from toephankel.cli import main
from toephankel.errors import BetaInsideDisk, CrossCheckMismatch, PoleHit

from conftest import circle
from helpers import random_laurent


def test_make_shift_beta_two():
    sh = make_shift(2.0)
    lam = 1j * np.sqrt(3.0)
    assert abs(sh.lam - lam) < 1e-15
    assert abs(sh.t_plus - (1 + lam) / 2) < 1e-15
    assert abs(sh.t_minus - (1 - lam) / 2) < 1e-15


def test_make_shift_beta_two_i():
    sh = make_shift(2.0j)
    lam = 1j * np.sqrt(3.0)
    assert abs(sh.lam - lam) < 1e-15
    assert abs(sh.t_plus - (1 + lam) / (-2j)) < 1e-14
    assert abs(sh.t_minus - (1 - lam) / (-2j)) < 1e-14


def test_beta_inside_disk_rejected():
    with pytest.raises(BetaInsideDisk):
        make_shift(1.0)


def test_failed_shift_check_raises_also_under_optimization(tmp_path):
    # at |beta| = 1.00001 alpha o alpha misses the identity by 4e-11 on the
    # check grid; the check is no assert, so it holds under python -O too
    with pytest.raises(CrossCheckMismatch, match="alpha an involution"):
        make_shift(1.00001)
    problem = json.dumps({"command": "verify", "shift": {"beta": [1.00001, 0.0]},
                          "a": "chi^-1", "b": "chi^-1", "N": 64})
    spec = tmp_path / "spec.json"
    spec.write_text(problem)
    out = tmp_path / "report.json"
    assert main(["--spec", str(spec), "--out", str(out)]) == 3
    assert json.loads(out.read_text())["error"]["type"] == "CrossCheckMismatch"
    proc = subprocess.run([sys.executable, "-O", "-m", "toephankel.cli"],
                          input=problem.encode(), capture_output=True)
    assert proc.returncode == 3 and proc.stderr == b""
    assert json.loads(proc.stdout)["error"]["type"] == "CrossCheckMismatch"


def test_alpha_swaps_plus_minus_one():
    sh = make_shift(2.0)
    assert abs(eval_alpha(sh, 1.0) + 1.0) < 1e-15
    assert abs(eval_alpha(sh, -1.0) - 1.0) < 1e-15


def test_alpha_fixed_points(all_shifts):
    for sh in all_shifts:
        assert abs(eval_alpha(sh, sh.t_plus) - sh.t_plus) < 1e-12
        assert abs(eval_alpha(sh, sh.t_minus) - sh.t_minus) < 1e-12


def test_alpha_involution(all_shifts):
    t = circle(128)
    for sh in all_shifts:
        assert np.max(np.abs(eval_alpha(sh, eval_alpha(sh, t)) - t)) < 1e-12


def test_alpha_pole():
    sh = make_shift(2.0)
    with pytest.raises(PoleHit):
        eval_alpha(sh, 0.5)


def test_compose_constant(shift2):
    s = RationalSymbol.constant(7.0)
    assert compose_with_shift(s, shift2).distance_to(s) < 1e-14


def test_compose_chi_gives_inverse(shift2):
    out = compose_with_shift(shift2.chi, shift2)
    assert out.distance_to(shift2.chi.invert()) < 1e-12


def test_compose_alpha_plus_gives_alpha_minus(shift2):
    out = compose_with_shift(shift2.alpha_plus, shift2)
    assert out.distance_to(shift2.alpha_minus) < 1e-12


def test_compose_involution(rng, shift2):
    f = RationalSymbol(random_laurent(rng, deg=4))
    back = compose_with_shift(compose_with_shift(f, shift2), shift2)
    assert back.distance_to(f) < 1e-9 * max(1.0, f.sup_norm_on_circle())


def test_flip_of_one_is_chi_inverse(shift2):
    out = apply_J_alpha(TruncatedSeries.basis(0), shift2)
    expect = fourier_coefficients(shift2.chi.invert(), (out.lo, out.hi))
    assert (out - expect).norm() < 1e-12


def test_flip_of_chi_is_chi_minus_two(shift2):
    chi_series = fourier_coefficients(shift2.chi, (0, 1))
    out = apply_J_alpha(chi_series, shift2)
    expect = fourier_coefficients(shift2.chi.power(-2), (out.lo, out.hi))
    assert (out - expect).norm() < 1e-12


def test_flip_exact_rational_path(shift2):
    out = apply_J_alpha(RationalSymbol.constant(1.0), shift2)
    assert out.distance_to(shift2.chi.invert()) < 1e-12


def test_flip_involution(rng, all_shifts):
    for sh in all_shifts:
        coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
        f = TruncatedSeries(0, coeffs)
        back = apply_J_alpha(apply_J_alpha(f, sh), sh)
        assert (back - f).norm() < 1e-9


def test_flip_swaps_projections(rng, all_shifts):
    for sh in all_shifts:
        coeffs = rng.normal(size=13) + 1j * rng.normal(size=13)
        f = TruncatedSeries(-6, coeffs)
        jf = apply_J_alpha(f, sh)
        lhs = apply_J_alpha(f.part("P"), sh)
        rhs = jf.part("Q")
        assert (lhs - rhs).norm() < 1e-8


def test_flip_intertwines_multiplication(rng, shift2):
    # J (a f) = (a o alpha) J f, checked pointwise on a grid
    a = RationalSymbol(random_laurent(rng, deg=3))
    coeffs = rng.normal(size=7) + 1j * rng.normal(size=7)
    f = TruncatedSeries(-3, coeffs)
    from toephankel.series import multiply_by_symbol

    lhs = apply_J_alpha(multiply_by_symbol(f, a), shift2)
    a_alpha = compose_with_shift(a, shift2)
    rhs = multiply_by_symbol(apply_J_alpha(f, shift2), a_alpha)
    t = circle(128)
    assert np.max(np.abs(lhs.eval(t) - rhs.eval(t))) < 1e-10 * max(
        1.0, float(np.max(np.abs(rhs.eval(t))))
    )


def test_chi_power_examples(shift2):
    assert chi_power(shift2, 0).distance_to(RationalSymbol.constant(1.0)) == 0.0
    one = chi_power(shift2, 1)
    t = circle(32)
    assert np.max(np.abs(one.eval(t) - (2 * t - 1) / (1j * np.sqrt(3.0)))) < 1e-14
    neg4 = chi_power(shift2, -4)
    assert np.max(np.abs(neg4.eval(t) - 9.0 / (2 * t - 1) ** 4)) < 1e-12
    assert neg4.winding_number() == -4


def test_chi_psi_matching(all_shifts):
    t = circle(256)
    for sh in all_shifts:
        at = eval_alpha(sh, t)
        assert np.max(np.abs(sh.chi.eval(t) * sh.chi.eval(at) - 1.0)) < 1e-12
        assert np.max(np.abs(sh.psi_cap.eval(t) * sh.psi_cap.eval(at) - 1.0)) < 1e-12


def test_conj_alpha_plus_identities(all_shifts):
    for sh in all_shifts:
        lhs = sh.alpha_plus.conjugate_bar()
        assert lhs.distance_to(sh.alpha_minus.invert()) < 1e-12
        lhs2 = sh.alpha_plus.invert().conjugate_bar()
        assert lhs2.distance_to(sh.alpha_minus) < 1e-12


def test_product_identity_on_sections(rng, shift2):
    # T(cd) = T(c) T(d) + H(c) H(d o alpha) on stable section entries
    c = RationalSymbol(random_laurent(rng, deg=2))
    d = RationalSymbol(random_laurent(rng, deg=2))
    d_alpha = compose_with_shift(d, shift2)

    def combo(n):
        tc = operator_section("toeplitz", c, shift2, n).entries
        td = operator_section("toeplitz", d, shift2, n).entries
        hc = operator_section("hankel", c, shift2, n).entries
        hda = operator_section("hankel", d_alpha, shift2, n).entries
        tcd = operator_section("toeplitz", c * d, shift2, n).entries
        return tcd, tc @ td + hc @ hda

    n = 64
    lhs_n, rhs_n = combo(n)
    lhs_2n, rhs_2n = combo(2 * n)
    scale = max(1.0, float(np.max(np.abs(lhs_2n))))
    # entries with both indices away from the cut agree across sizes
    sl = np.s_[: n // 2, : n // 2]
    assert np.max(np.abs(lhs_2n[sl] - lhs_n[sl])) < 1e-10 * scale
    assert np.max(np.abs(lhs_2n[sl] - rhs_2n[sl])) < 1e-8 * scale

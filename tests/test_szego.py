import math

import mpmath
import numpy as np
import pytest

from nipoly.errors import DomainError, PrecisionLossError, ZeroOnCircleError
from nipoly.lattice import rectangle_endpoints, stack_down, stack_up
from nipoly import szego
from nipoly.polymer import kpath_logZ
from nipoly.szego import (
    Symbol,
    log_coefficients,
    many_paths_rate,
    reconstruct_symbol_residual,
    strong_szego_constant,
    symbol_from_geometry,
    toeplitz_det,
    winding_number,
)

SQRT5 = math.sqrt(5.0)
WORKED = Symbol({-1: 5.0, 0: 10.0, 1: 1.0})


def test_symbol_worked_example():
    sym = symbol_from_geometry((3, 2), (-2, 2))
    assert sym.coeffs == {-1: 5.0, 0: 10.0, 1: 1.0}
    assert sym.d(7) == 0.0
    assert sym.d(-3) == 0.0


def test_symbol_small_example():
    # z=(1,0), h=(-1,1): coefficient m counts paths to (1+m, -m)
    sym = symbol_from_geometry((1, 0), (-1, 1))
    assert sym.coeffs == {-1: 1.0, 0: 1.0}


def test_symbol_support_finite():
    sym = symbol_from_geometry((4, 5), (-1, 2))
    lo, hi = sym.support()
    assert lo <= 0 <= hi
    assert all(d > 0 for d in sym.coeffs.values())


def test_winding_numbers():
    assert winding_number(WORKED) == 0
    assert winding_number(Symbol({1: 1.0})) == 1
    assert winding_number(Symbol({-1: 1.0})) == -1
    assert winding_number(Symbol({2: 3.0})) == 2
    with pytest.raises(ZeroOnCircleError):
        winding_number(Symbol({0: 1.0, 1: -1.0}))  # vanishes at t=0


def test_winding_invariant_under_scaling():
    assert winding_number(WORKED.scaled(17.0)) == 0
    assert winding_number(Symbol({1: 1.0}).scaled(0.01)) == 1


def test_log_coefficients_worked_symbol():
    c = log_coefficients(WORKED)
    assert c[0] == pytest.approx(math.log(5 + 2 * SQRT5), abs=1e-12)
    # factorization a = (5+2sqrt5)(1 + s/(5+2sqrt5))(1 + (5-2sqrt5)/s)
    rho = 5 + 2 * SQRT5
    assert c[1] == pytest.approx(1.0 / rho, abs=1e-12)
    assert c[-1] == pytest.approx(5 - 2 * SQRT5, abs=1e-12)
    assert c[2] == pytest.approx(-1.0 / (2 * rho**2), abs=1e-12)
    assert c[-2] == pytest.approx(-((5 - 2 * SQRT5) ** 2) / 2.0, abs=1e-12)


def test_log_coefficients_decay_geometric():
    c = log_coefficients(WORKED)
    for m in range(2, 20):
        assert abs(c[m]) < abs(c[m - 1])
        assert abs(c[-m]) < abs(c[-(m - 1)])


def test_reconstruction_inverts():
    assert reconstruct_symbol_residual(WORKED) < 1e-10
    # 6/s + 20 + 6s has positive real part on the circle
    assert reconstruct_symbol_residual(symbol_from_geometry((3, 3), (-2, 2))) < 1e-10


def test_strong_szego_constant_worked():
    # geometric series: sum (1/m) rho^m with rho = 9 - 4 sqrt5 gives (2+sqrt5)/4
    e = strong_szego_constant(WORKED)
    assert e == pytest.approx((2 + SQRT5) / 4.0, abs=1e-10)
    assert e > 0


def test_strong_szego_symmetric_trivial():
    assert strong_szego_constant(Symbol({0: 3.0})) == pytest.approx(1.0, abs=1e-12)


def test_toeplitz_det_small():
    assert toeplitz_det(WORKED, 1).to_float() == pytest.approx(10.0)
    d2 = toeplitz_det(WORKED, 2)
    assert d2.sign == 1
    assert d2.logmag == pytest.approx(math.log(95.0), abs=1e-12)


def test_toeplitz_convergence_to_strong_szego():
    c0 = log_coefficients(WORKED)[0]
    e = strong_szego_constant(WORKED)
    d40 = toeplitz_det(WORKED, 40)
    assert math.exp(d40.logmag - 40 * c0) == pytest.approx(e, abs=1e-6)


def test_many_paths_rate_report():
    r = many_paths_rate((3, 2), (-2, 2), k_max=30)
    assert abs(r["rate"][-1] - r["c0"]) < 0.02
    assert r["c0"] < r["ceiling"] <= math.log(10.0) + 1e-12
    assert r["rate"][0] == pytest.approx(math.log(10.0))


def test_toeplitz_equals_lgv_counts():
    # det(d_{j-i}) counts the non-intersecting stacked paths (LGV)
    z, h = (3, 2), (-2, 2)
    sym = symbol_from_geometry(z, h)
    for k in (1, 2, 3):
        xs = tuple((0 + i * h[0], 0 + i * h[1]) for i in range(k))
        ys = tuple((z[0] + i * h[0], z[1] + i * h[1]) for i in range(k))
        count = kpath_logZ(None, None, 0.0, xs, ys)
        toe = toeplitz_det(sym, k)
        assert toe.sign == 1
        assert toe.logmag == pytest.approx(count, abs=1e-12)


def test_toeplitz_det_with_zero_diagonal():
    # det [[0, 1], [1, 0]] = -1: the elimination must not pivot on d_0 = 0
    d1 = toeplitz_det(Symbol({-1: 1.0, 1: 1.0}), 1)
    d2 = toeplitz_det(Symbol({-1: 1.0, 1: 1.0}), 2)
    assert d1.sign == 0
    assert d2.sign == -1 and d2.logmag == 0.0


def test_toeplitz_det_of_dyadic_floats_is_exact():
    # the tridiagonal minors D_k = d_0 D_(k-1) - d_1 d_(-1) D_(k-2), in exact
    # rationals from the floats' own values (0.1 is not a short dyadic)
    from fractions import Fraction

    sym = Symbol({-1: -0.75, 0: 0.1, 1: 2.5})
    d = {m: Fraction(v) for m, v in sym.coeffs.items()}
    want = [Fraction(1), d[0]]
    for _ in range(2, 9):
        want.append(d[0] * want[-1] - d[1] * d[-1] * want[-2])
    for k in range(1, 9):
        got = toeplitz_det(sym, k)
        assert got.sign == 1
        ref = math.log(want[k])
        assert abs(got.logmag - ref) <= 1e-15 * max(1.0, abs(ref))


def test_toeplitz_det_matches_extended_precision():
    sym = symbol_from_geometry((15, 15), (-2, 2))
    for k in (20, 40):
        with mpmath.workdps(60):
            ref = mpmath.log(
                mpmath.det(mpmath.matrix([[sym.d(j - i) for j in range(k)] for i in range(k)]))
            )
        got = toeplitz_det(sym, k)
        assert got.sign == 1
        assert abs(got.logmag - float(ref)) <= 1e-15 * abs(float(ref))


@pytest.mark.parametrize(
    "coeffs",
    [
        {-1: -3.0, 1: 1.0, 2: 3.0},  # D_1 = d_0 = 0
        {-1: -3.0, 0: -1.0, 1: 2.0, 2: 3.0},  # D_1 = -1
    ],
)
def test_many_paths_rate_refuses_nonpositive_minor(monkeypatch, coeffs):
    # winding zero, well conditioned and a(1) > 0, so only the minor check refuses
    sym = Symbol(coeffs)
    assert winding_number(sym) == 0
    log_coefficients(sym)
    monkeypatch.setattr(szego, "symbol_from_geometry", lambda z, h: sym)
    with pytest.raises(DomainError, match="positivity at k=1"):
        many_paths_rate((3, 2), (-2, 2), k_max=4)


def test_wiener_norm_finite_support():
    sym = symbol_from_geometry((3, 2), (-2, 2))
    assert sym.wiener_norm() == pytest.approx(16.0)


@pytest.mark.parametrize("q", [0.999, 0.99999])
def test_log_coefficients_single_root_closed_form(q):
    # a = 1 - q s: log a = -sum q^m s^m / m, a root just outside the circle
    sym = Symbol({0: 1.0, 1: -q})
    c = log_coefficients(sym)
    assert abs(c[0]) <= 1e-14
    for m in range(1, 65):
        assert abs(c[m] + q**m / m) <= 1e-14
        assert c[-m] == 0.0
    assert strong_szego_constant(sym) == 1.0


@pytest.mark.parametrize(
    "coeffs",
    [
        {-1: 1.0, 0: -1.0, 1: 1.0},  # zeros at exp(+-i pi/3), off any dyadic grid
        {-1: 1.0, 0: 2.0, 1: 1.0},  # (1 + s)^2 / s, a double zero at -1
    ],
)
def test_zero_on_circle_detected(coeffs):
    sym = Symbol(coeffs)
    for f in (winding_number, log_coefficients, strong_szego_constant):
        with pytest.raises(ZeroOnCircleError):
            f(sym)


@pytest.mark.parametrize(
    "z, h", [((3, 2), (-2, 2)), ((4, 5), (-1, 2)), ((7, 9), (-2, 3)), ((12, 10), (-3, 2))]
)
def test_scaled_toeplitz_det_matches_strong_szego(z, h):
    sym = symbol_from_geometry(z, h)
    c0 = log_coefficients(sym)[0]
    det = toeplitz_det(sym, 60)
    assert det.sign == 1
    assert abs(math.exp(det.logmag - 60 * c0) - strong_szego_constant(sym)) <= 1e-10


def test_log_coefficients_match_mpmath_roots():
    sym = symbol_from_geometry((4, 5), (-1, 2))
    lo, hi = sym.support()
    with mpmath.workdps(30):
        roots = mpmath.polyroots([sym.d(m) for m in range(hi, lo - 1, -1)], maxsteps=200)
        r_in = [r for r in roots if abs(r) < 1]
        r_out = [r for r in roots if abs(r) > 1]
        assert lo + len(r_in) == 0
        ref = {0: mpmath.log(abs(sym.d(hi) * mpmath.fprod(-r for r in r_out)))}
        for m in range(1, 65):
            ref[m] = -mpmath.re(mpmath.fsum(r**-m for r in r_out)) / m
            ref[-m] = -mpmath.re(mpmath.fsum(r**m for r in r_in)) / m
    c = log_coefficients(sym)
    assert max(abs(c[m] - float(ref[m])) for m in ref) <= 1e-13


def test_ill_conditioned_symbol_refused():
    # sum|d_m| / |a(-1)| = 1.8e9: rounding the coefficients moves log a by ~1e-7
    sym = symbol_from_geometry((15, 15), (-1, 2))
    assert winding_number(sym) == 0
    with pytest.raises(PrecisionLossError):
        log_coefficients(sym)
    with pytest.raises(PrecisionLossError):
        strong_szego_constant(sym)


def test_negative_symbol_has_no_real_log():
    with pytest.raises(DomainError):
        log_coefficients(Symbol({0: -2.0}))
    with pytest.raises(DomainError):
        log_coefficients(Symbol({-1: 1.0, 0: -3.0, 1: 1.0}))


def test_many_paths_rate_matches_closed_forms():
    r = many_paths_rate((4, 5), (-1, 2), k_max=2)
    sym = symbol_from_geometry((4, 5), (-1, 2))
    assert r["c0"] == log_coefficients(sym)[0]
    assert r["strong_szego"] == strong_szego_constant(sym)


@pytest.mark.parametrize(
    "call, exc, match",
    [
        pytest.param(
            lambda: symbol_from_geometry((3, 2), (2, 2)), DomainError, "h1 < 0 < h2", id="symbol_from_geometry"
        ),
        pytest.param(lambda: winding_number(Symbol({})), ZeroOnCircleError, "zero symbol", id="winding_number"),
        pytest.param(
            lambda: log_coefficients(Symbol({1: 1.0})), DomainError, "winding number zero", id="log_coefficients"
        ),
        pytest.param(lambda: toeplitz_det(WORKED, 0), DomainError, "k >= 1 required", id="toeplitz_det"),
    ],
)
def test_szego_refusals_are_typed(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


def test_zero_symbol_support_is_the_origin():
    assert Symbol({}).support() == (0, 0)
    assert Symbol({3: 0.0}).support() == (0, 0)
